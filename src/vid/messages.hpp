// Body codecs for the VID message kinds.
//
// Each body type round-trips through encode/decode; decode returns false on
// any malformed input. Sizes of these bodies are what bench/fig02 accounts.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/fingerprint.hpp"
#include "crypto/sha256.hpp"
#include "merkle/merkle_tree.hpp"

namespace dl::vid {

// Chunk(r, C_i, P_i): dispersal payload for the i-th server.
struct ChunkMsg {
  Hash root;
  Bytes chunk;
  MerkleProof proof;

  Bytes encode() const;
  static bool decode(ByteView in, ChunkMsg& out);
};

// A ChunkMsg whose chunk bytes stay in the buffer it was parsed from: the
// receive path checks a chunk (and usually drops it) before copying it.
// Valid only while that buffer is.
struct ChunkView {
  Hash root;
  ByteView chunk;
  MerkleProof proof;

  ChunkView() = default;
  // Views an owned message, which must outlive the view.
  ChunkView(const ChunkMsg& m) : root(m.root), chunk(m.chunk), proof(m.proof) {}

  static bool decode(ByteView in, ChunkView& out);
};

// GotChunk(r) and Ready(r) carry only the Merkle root.
struct RootMsg {
  Hash root;

  Bytes encode() const;
  static bool decode(ByteView in, RootMsg& out);
};

// ReturnChunk(r, C_i, P_i) reuses the ChunkMsg layout.
using ReturnChunkMsg = ChunkMsg;

// AVID-FP dispersal payload: chunk + fingerprinted cross-checksum.
struct FpChunkMsg {
  Bytes chunk;
  CrossChecksum checksum;

  Bytes encode() const;
  static bool decode(ByteView in, FpChunkMsg& out);
};

// AVID-FP echo/ready carry the full cross-checksum (this is the O(N)
// per-message overhead AVID-M removes).
struct FpChecksumMsg {
  CrossChecksum checksum;

  Bytes encode() const;
  static bool decode(ByteView in, FpChecksumMsg& out);
};

}  // namespace dl::vid
