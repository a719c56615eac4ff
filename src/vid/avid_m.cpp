#include "vid/avid_m.hpp"

#include <stdexcept>

namespace dl::vid {

namespace {

// Envelope stubs: the caller fills epoch/instance; we set kind + body.
OutMsg broadcast(MsgKind kind, Bytes body) {
  OutMsg m;
  m.to = OutMsg::kAll;
  m.env.kind = kind;
  m.env.body = std::move(body);
  return m;
}

OutMsg unicast(int to, MsgKind kind, Bytes body) {
  OutMsg m;
  m.to = to;
  m.env.kind = kind;
  m.env.body = std::move(body);
  return m;
}

}  // namespace

std::vector<ChunkMsg> avid_m_disperse(const Params& p, ByteView block) {
  const ReedSolomon rs(p.data_shards(), p.n);
  std::vector<Bytes> chunks = rs.encode(block);
  const MerkleTree tree(chunks);
  std::vector<ChunkMsg> out;
  out.reserve(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.n; ++i) {
    ChunkMsg m;
    m.root = tree.root();
    m.chunk = std::move(chunks[static_cast<std::size_t>(i)]);
    m.proof = tree.prove(static_cast<std::uint32_t>(i));
    out.push_back(std::move(m));
  }
  return out;
}

AvidMServer::AvidMServer(Params p, int self)
    : p_(p),
      self_(self),
      got_chunk_seen_(static_cast<std::size_t>(p.n), false),
      ready_seen_(static_cast<std::size_t>(p.n), false),
      request_seen_(static_cast<std::size_t>(p.n), false) {
  if (p_.n < 3 * p_.f + 1 || self < 0 || self >= p_.n) {
    throw std::invalid_argument("AvidMServer: need N >= 3f+1 and valid id");
  }
}

void AvidMServer::handle_chunk(ChunkMsg m, Outbox& out) {
  if (my_chunk_.has_value()) return;  // first valid Chunk wins
  if (m.proof.index != static_cast<std::uint32_t>(self_) ||
      m.proof.leaf_count != static_cast<std::uint32_t>(p_.n)) {
    return;
  }
  if (!merkle_verify(m.root, m.chunk, m.proof)) return;
  my_chunk_ = std::move(m);
  if (!sent_got_chunk_) {
    sent_got_chunk_ = true;
    out.push_back(
        broadcast(MsgKind::VidGotChunk, RootMsg{my_chunk_->root}.encode()));
  }
  // If dispersal already completed with our root, late requesters can now
  // be served.
  if (complete_ && my_chunk_->root == chunk_root_) {
    auto pending = std::move(deferred_requests_);
    deferred_requests_.clear();
    for (int requester : pending) serve(requester, out);
  }
}

void AvidMServer::handle_got_chunk(int from, const RootMsg& m, Outbox& out) {
  if (from < 0 || from >= p_.n || got_chunk_seen_[static_cast<std::size_t>(from)]) return;
  got_chunk_seen_[static_cast<std::size_t>(from)] = true;
  const int count = ++share_count_[m.root];
  if (count >= p_.n - p_.f) maybe_send_ready(m.root, out);
}

void AvidMServer::handle_ready(int from, const RootMsg& m, Outbox& out) {
  if (from < 0 || from >= p_.n || ready_seen_[static_cast<std::size_t>(from)]) return;
  ready_seen_[static_cast<std::size_t>(from)] = true;
  const int count = ++ready_count_[m.root];
  if (count >= p_.f + 1) maybe_send_ready(m.root, out);
  if (count >= 2 * p_.f + 1 && !complete_) {
    complete_ = true;
    chunk_root_ = m.root;
    // Serve requests deferred while dispersal was incomplete.
    auto pending = std::move(deferred_requests_);
    deferred_requests_.clear();
    for (int requester : pending) serve(requester, out);
  }
}

void AvidMServer::maybe_send_ready(const Hash& r, Outbox& out) {
  if (sent_ready_) return;
  sent_ready_ = true;
  out.push_back(broadcast(MsgKind::VidReady, RootMsg{r}.encode()));
}

void AvidMServer::handle_request_chunk(int from, Outbox& out) {
  if (from < 0 || from >= p_.n || request_seen_[static_cast<std::size_t>(from)]) return;
  request_seen_[static_cast<std::size_t>(from)] = true;
  serve(from, out);
}

void AvidMServer::serve(int requester, Outbox& out) {
  // Fig. 4: respond only when complete and MyRoot == ChunkRoot; defer
  // otherwise. A server whose chunk is under a different root can never
  // serve this instance.
  if (!complete_ || !my_chunk_.has_value()) {
    deferred_requests_.push_back(requester);
    return;
  }
  if (my_chunk_->root != chunk_root_) return;
  out.push_back(unicast(requester, MsgKind::VidReturnChunk, my_chunk_->encode()));
}

bool AvidMServer::served_every_peer(int proposer) const {
  if (!complete_ || !deferred_requests_.empty()) return false;
  for (int i = 0; i < p_.n; ++i) {
    if (i != proposer && !request_seen_[static_cast<std::size_t>(i)]) {
      return false;
    }
  }
  return true;
}

bool AvidMServer::handle(int from, MsgKind kind, ByteView body, Outbox& out) {
  switch (kind) {
    case MsgKind::VidChunk: {
      ChunkMsg m;
      if (!ChunkMsg::decode(body, m)) return false;
      handle_chunk(std::move(m), out);
      return true;
    }
    case MsgKind::VidGotChunk: {
      RootMsg m;
      if (!RootMsg::decode(body, m)) return false;
      handle_got_chunk(from, m, out);
      return true;
    }
    case MsgKind::VidReady: {
      RootMsg m;
      if (!RootMsg::decode(body, m)) return false;
      handle_ready(from, m, out);
      return true;
    }
    case MsgKind::VidRequestChunk:
      handle_request_chunk(from, out);
      return true;
    default:
      return false;
  }
}

AvidMRetriever::AvidMRetriever(Params p, int self)
    : p_(p), self_(self), seen_(static_cast<std::size_t>(p.n), false) {}

void AvidMRetriever::begin(Outbox& out) {
  out.push_back(broadcast(MsgKind::VidRequestChunk, {}));
}

DecodeResult avid_m_run_decode(const DecodeJob& job) {
  const ReedSolomon rs(job.p.data_shards(), job.p.n);
  DecodeResult out;
  std::optional<Bytes> block = rs.decode(job.slots);
  if (!block.has_value()) {
    // Ragged or structurally invalid chunk set: provably inconsistent
    // encoding, same verdict as a failed re-encode check.
    out.bad_uploader = true;
    out.block = bytes_of(kBadUploader);
    return out;
  }
  // The AVID-M check: re-encode and compare Merkle roots (Fig. 4, steps 2-4).
  // The byte compare is what makes reusing a verified leaf hash sound: a
  // decoded-from chunk that re-encodes differently (a non-canonical stripe)
  // gets the hash of its re-encoding, like every chunk nobody sent us.
  const std::vector<Bytes> reencoded = rs.encode(*block);
  std::vector<Hash> leaves(reencoded.size());
  for (std::size_t i = 0; i < reencoded.size(); ++i) {
    const bool verified = i < job.slots.size() && i < job.leaves.size() &&
                          !job.slots[i].empty() &&
                          job.slots[i] == reencoded[i];
    leaves[i] = verified ? job.leaves[i] : merkle_leaf_hash(reencoded[i]);
  }
  if (merkle_root_from_leaf_hashes(std::move(leaves)) == job.root) {
    out.block = std::move(*block);
  } else {
    out.bad_uploader = true;
    out.block = bytes_of(kBadUploader);
  }
  return out;
}

bool AvidMRetriever::accepting(int from) const {
  return !done_ && !decoding_ && from >= 0 && from < p_.n &&
         !seen_[static_cast<std::size_t>(from)];
}

bool AvidMRetriever::offer_chunk(int from, const ChunkView& m) {
  if (!accepting(from)) return false;
  if (m.proof.index != static_cast<std::uint32_t>(from) ||
      m.proof.leaf_count != static_cast<std::uint32_t>(p_.n)) {
    return false;
  }
  Hash leaf = merkle_leaf_hash(m.chunk);
  if (!merkle_verify_path(m.root, leaf, m.proof)) return false;
  seen_[static_cast<std::size_t>(from)] = true;

  auto& per_root = chunks_[m.root];
  per_root.emplace(from, Held{Bytes(m.chunk.begin(), m.chunk.end()), leaf});
  if (static_cast<int>(per_root.size()) < p_.data_shards()) return false;

  // Enough chunks share this root: freeze and decode (possibly off-loop).
  decoding_ = true;
  chunk_root_ = m.root;
  return true;
}

DecodeJob AvidMRetriever::take_decode_job() {
  DecodeJob job;
  job.p = p_;
  job.root = chunk_root_;
  job.slots.resize(static_cast<std::size_t>(p_.n));
  job.leaves.resize(static_cast<std::size_t>(p_.n));
  for (auto& [idx, held] : chunks_.at(chunk_root_)) {
    job.slots[static_cast<std::size_t>(idx)] = std::move(held.chunk);
    job.leaves[static_cast<std::size_t>(idx)] = held.leaf;
  }
  // Chunks under other roots can never be decoded from any more.
  chunks_.clear();
  return job;
}

void AvidMRetriever::complete(DecodeResult r) {
  done_ = true;
  decoding_ = false;
  bad_uploader_ = r.bad_uploader;
  result_ = std::move(r.block);
}

void AvidMRetriever::handle_return_chunk(int from, const ChunkView& m) {
  if (offer_chunk(from, m)) complete(avid_m_run_decode(take_decode_job()));
}

}  // namespace dl::vid
