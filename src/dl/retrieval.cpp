#include "dl/retrieval.hpp"

namespace dl::core {

void RetrievalManager::put_local(BlockKey key, Bytes content) {
  if (done_keys_.contains(key)) return;
  done_keys_.insert(key);
  content_.emplace(key, std::move(content));
}

bool RetrievalManager::ensure_started(BlockKey key, Outbox& out) {
  if (done_keys_.contains(key) || active_.contains(key)) return false;
  auto [it, inserted] = active_.emplace(key, vid::AvidMRetriever(p_, self_));
  it->second.begin(out);
  return inserted;
}

bool RetrievalManager::accepting(int from, BlockKey key) const {
  auto it = active_.find(key);
  return it != active_.end() && it->second.accepting(from);
}

RetrievalManager::Feed RetrievalManager::feed_chunk(int from, BlockKey key,
                                                    const vid::ChunkView& m) {
  auto it = active_.find(key);
  if (it == active_.end()) return Feed::kNotReady;  // stale or never requested
  return it->second.offer_chunk(from, m) ? Feed::kReady : Feed::kNotReady;
}

vid::DecodeJob RetrievalManager::take_decode_job(BlockKey key) {
  return active_.at(key).take_decode_job();
}

bool RetrievalManager::finish_decode(BlockKey key, vid::DecodeResult r) {
  auto it = active_.find(key);
  if (it == active_.end()) return false;  // released while decoding
  active_.erase(it);
  done_keys_.insert(key);
  content_.emplace(key, std::move(r.block));
  ++completed_;
  return true;
}

void RetrievalManager::release(BlockKey key) { content_.erase(key); }

}  // namespace dl::core
