// AVID-M — the paper's contribution (§3): asynchronous verifiable
// information dispersal with Merkle-tree commitments.
//
// Three roles, all pure automata (no I/O): they consume decoded messages and
// append outgoing messages to an Outbox, so the same code runs under unit
// tests and the network simulator.
//
//   avid_m_disperse()  — client side of Disperse(B): encode, build the
//                        Merkle tree, emit one Chunk message per server.
//   AvidMServer        — server side (Fig. 3) plus the Retrieve handler
//                        (Fig. 4 bottom): counts GotChunk/Ready, Completes,
//                        stores its chunk, and serves ReturnChunk (deferring
//                        while incomplete, as the paper requires).
//   AvidMRetriever     — client side of Retrieve (Fig. 4 top): collects
//                        ReturnChunks, decodes from any N−2f chunks with the
//                        same root, then RE-ENCODES and checks the root —
//                        the key AVID-M idea (encoding verified at retrieval,
//                        not dispersal). On mismatch returns BAD_UPLOADER.
//
// The caller assigns epoch/instance ids when wrapping bodies in Envelopes.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/envelope.hpp"
#include "erasure/reed_solomon.hpp"
#include "vid/messages.hpp"

namespace dl::vid {

// The fixed error string returned when the disperser equivocated (§3.3).
inline constexpr std::string_view kBadUploader = "BAD_UPLOADER";

struct Params {
  int n = 0;
  int f = 0;
  int data_shards() const { return n - 2 * f; }
};

// Client-side Disperse(B): produces the per-server Chunk bodies
// (index i of the result goes to server i).
std::vector<ChunkMsg> avid_m_disperse(const Params& p, ByteView block);

class AvidMServer {
 public:
  AvidMServer(Params p, int self);

  // Dispersal handlers (Fig. 3). `out` receives broadcasts/sends whose
  // envelope the caller completes with epoch/instance ids.
  // The first valid Chunk is kept by move: its bytes are copied once, when
  // the message is parsed.
  void handle_chunk(ChunkMsg m, Outbox& out);
  void handle_got_chunk(int from, const RootMsg& m, Outbox& out);
  void handle_ready(int from, const RootMsg& m, Outbox& out);

  // Retrieval handler (Fig. 4): answer or defer.
  void handle_request_chunk(int from, Outbox& out);

  // One-stop decoder: routes an envelope body by kind. Unknown/malformed
  // bodies are ignored (Byzantine noise). Returns true if the message was
  // consumed.
  bool handle(int from, MsgKind kind, ByteView body, Outbox& out);

  bool complete() const { return complete_; }
  // Root agreed at completion (valid once complete()).
  const Hash& chunk_root() const { return chunk_root_; }
  bool has_chunk() const { return my_chunk_.has_value(); }
  // True once this instance owes no peer anything: dispersal completed,
  // every peer other than `proposer` has asked for its chunk, and no request
  // is still deferred. The proposer holds the block itself and never asks.
  bool served_every_peer(int proposer) const;

 private:
  void maybe_send_ready(const Hash& r, Outbox& out);
  void serve(int requester, Outbox& out);

  Params p_;
  int self_;

  std::optional<ChunkMsg> my_chunk_;  // MyChunk/MyProof/MyRoot
  std::map<Hash, int> share_count_;   // ShareCount[r]
  std::map<Hash, int> ready_count_;   // ReadyCount[r]
  std::vector<bool> got_chunk_seen_;  // per-sender dedup
  std::vector<bool> ready_seen_;
  bool sent_got_chunk_ = false;
  bool sent_ready_ = false;
  bool complete_ = false;
  Hash chunk_root_;
  std::vector<int> deferred_requests_;
  std::vector<bool> request_seen_;
};

// A decode attempt detached from retriever state: every input is owned by
// value, so avid_m_run_decode() may run on a worker thread while the
// retriever lives on (and keeps rejecting chunks) on the home loop.
struct DecodeJob {
  Params p;
  Hash root;
  std::vector<Bytes> slots;  // indexed by server id; empty = missing
  // leaves[i]: the Merkle leaf hash of slots[i], computed when that chunk's
  // proof was verified (meaningful where slots[i] is non-empty).
  std::vector<Hash> leaves;
};

struct DecodeResult {
  Bytes block;  // the block bytes, or bytes(kBadUploader)
  bool bad_uploader = false;
};

// Decode from the collected chunks, then RE-ENCODE and check the Merkle
// root — the AVID-M verification (Fig. 4, steps 2-4). Pure function. A
// re-encoded chunk byte-identical to a decoded-from one reuses that chunk's
// verified leaf hash, so only the chunks the retriever did not receive are
// hashed; the root compared is exactly merkle_root(re-encoding).
DecodeResult avid_m_run_decode(const DecodeJob& job);

class AvidMRetriever {
 public:
  AvidMRetriever(Params p, int self);

  // Emits the RequestChunk broadcast.
  void begin(Outbox& out);

  // Feeds one ReturnChunk; ignores invalid proofs and duplicate senders.
  // Decodes inline once N−2f chunks share a root (single-threaded path).
  void handle_return_chunk(int from, const ChunkView& m);

  // True while a chunk from `from` could still be taken: no decode started,
  // not done, and nothing accepted from that sender yet. Costs no hashing,
  // so a receiver drops late and duplicate chunks before parsing them.
  bool accepting(int from) const;

  // Split pipeline for offloaded decoding:
  //   offer_chunk()      — verify a chunk and keep a copy of it (the one
  //                        copy); true once enough chunks share a root (the
  //                        retriever then stops accepting chunks until
  //                        complete()).
  //   take_decode_job()  — hands the decode inputs over by move.
  //   complete()         — install the outcome; done() becomes true.
  bool offer_chunk(int from, const ChunkView& m);
  DecodeJob take_decode_job();
  void complete(DecodeResult r);

  bool done() const { return done_; }
  // The retrieved block; equals bytes("BAD_UPLOADER") when the disperser
  // equivocated. Valid once done().
  const Bytes& result() const { return result_; }
  bool bad_uploader() const { return bad_uploader_; }
  // Root of the chunk set actually decoded from (valid once done()).
  const Hash& chunk_root() const { return chunk_root_; }

 private:
  Params p_;
  int self_;
  struct Held {
    Bytes chunk;
    Hash leaf;  // merkle_leaf_hash(chunk), from the proof check
  };
  std::map<Hash, std::map<int, Held>> chunks_;  // root -> (server -> chunk)
  std::vector<bool> seen_;
  bool decoding_ = false;  // decode job handed out, outcome pending
  bool done_ = false;
  bool bad_uploader_ = false;
  Bytes result_;
  Hash chunk_root_;
};

}  // namespace dl::vid
