// RetrievalManager: tracks which blocks (epoch, proposer) this node has the
// content of, which retrievals are in flight, and feeds ReturnChunks into
// the per-block AVID-M retriever.
//
// Content sources: the node's own proposed blocks (stored locally at
// proposal time, no network needed) and completed retrievals. Content is
// freed once the block has been delivered — the manager is the node's
// working set, not an archive.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "common/envelope.hpp"
#include "vid/avid_m.hpp"

namespace dl::core {

struct BlockKey {
  std::uint64_t epoch = 0;
  int proposer = 0;
  auto operator<=>(const BlockKey&) const = default;
};

class RetrievalManager {
 public:
  explicit RetrievalManager(vid::Params p, int self) : p_(p), self_(self) {}

  // Stores locally-known content (our own proposal).
  void put_local(BlockKey key, Bytes content);

  // True if the block's bytes are available (retrieved or local).
  bool has(BlockKey key) const { return content_.contains(key); }
  // The block bytes; the BAD_UPLOADER sentinel if the disperser was bad.
  const Bytes& get(BlockKey key) const { return content_.at(key); }

  // Begins a retrieval if not already started/available. The RequestChunk
  // broadcast is appended to `out` (envelope ids filled by the caller).
  // Returns true if a new retrieval actually started.
  bool ensure_started(BlockKey key, Outbox& out);

  bool in_flight(BlockKey key) const { return active_.contains(key); }
  std::size_t active_count() const { return active_.size(); }

  // True while the retrieval of `key` is active and would still take a
  // chunk from `from` (see AvidMRetriever::accepting). A receiver checks
  // this before parsing a ReturnChunk, so a late or duplicate chunk costs
  // neither a copy nor a hash.
  bool accepting(int from, BlockKey key) const;

  // Feeds one ReturnChunk. kReady means enough chunks are buffered to
  // decode: the caller takes take_decode_job(), runs avid_m_run_decode
  // (inline or offloaded), and installs the outcome via finish_decode.
  // While a decode is pending the retrieval rejects further chunks.
  enum class Feed { kNotReady, kReady };
  Feed feed_chunk(int from, BlockKey key, const vid::ChunkView& m);

  // The decode inputs of a key feed_chunk reported ready, handed over by
  // move (the retriever keeps none of the chunks).
  vid::DecodeJob take_decode_job(BlockKey key);

  // Installs a decode outcome (the block bytes are moved, not copied).
  // Returns true if the retrieval was still live (content is now available;
  // caller should broadcast VidCancel).
  bool finish_decode(BlockKey key, vid::DecodeResult r);

  // Frees the stored bytes of a delivered block.
  void release(BlockKey key);

  std::uint64_t completed_retrievals() const { return completed_; }

 private:
  vid::Params p_;
  int self_;
  std::map<BlockKey, vid::AvidMRetriever> active_;
  std::map<BlockKey, Bytes> content_;
  std::set<BlockKey> done_keys_;  // everything ever completed or local
  std::uint64_t completed_ = 0;
};

}  // namespace dl::core
