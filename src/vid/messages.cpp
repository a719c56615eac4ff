#include "vid/messages.hpp"

#include "common/serial.hpp"

namespace dl::vid {

namespace {

bool read_hash(Reader& r, Hash& out) {
  const ByteView raw = r.raw_view(32);
  if (!r.ok()) return false;
  std::copy(raw.begin(), raw.end(), out.v.begin());
  return true;
}

}  // namespace

Bytes ChunkMsg::encode() const {
  const Bytes proof_raw = proof.encode();
  Writer w;
  w.reserve(32 + 4 + chunk.size() + 4 + proof_raw.size());
  w.raw(root.view());
  w.bytes(chunk);
  w.bytes(proof_raw);
  return std::move(w).take();
}

bool ChunkView::decode(ByteView in, ChunkView& out) {
  Reader r(in);
  if (!read_hash(r, out.root)) return false;
  out.chunk = r.bytes_view();
  const ByteView proof_raw = r.bytes_view();
  if (!r.done()) return false;
  return MerkleProof::decode(proof_raw, out.proof);
}

bool ChunkMsg::decode(ByteView in, ChunkMsg& out) {
  ChunkView v;
  if (!ChunkView::decode(in, v)) return false;
  out.root = v.root;
  out.chunk.assign(v.chunk.begin(), v.chunk.end());
  out.proof = std::move(v.proof);
  return true;
}

Bytes RootMsg::encode() const {
  Writer w;
  w.raw(root.view());
  return std::move(w).take();
}

bool RootMsg::decode(ByteView in, RootMsg& out) {
  Reader r(in);
  if (!read_hash(r, out.root)) return false;
  return r.done();
}

Bytes FpChunkMsg::encode() const {
  Writer w;
  w.bytes(chunk);
  w.bytes(checksum.encode());
  return std::move(w).take();
}

bool FpChunkMsg::decode(ByteView in, FpChunkMsg& out) {
  Reader r(in);
  out.chunk = r.bytes();
  const Bytes cc = r.bytes();
  if (!r.done()) return false;
  return CrossChecksum::decode(cc, out.checksum);
}

Bytes FpChecksumMsg::encode() const {
  Writer w;
  w.bytes(checksum.encode());
  return std::move(w).take();
}

bool FpChecksumMsg::decode(ByteView in, FpChecksumMsg& out) {
  Reader r(in);
  const Bytes cc = r.bytes();
  if (!r.done()) return false;
  return CrossChecksum::decode(cc, out.checksum);
}

}  // namespace dl::vid
