// Block and transaction formats for DispersedLedger / HoneyBadger.
//
// A block is what one node proposes (disperses) in one epoch. Besides
// transactions it carries the node's VID-completion observation vector V
// (§4.3): V[j] = number of leading epochs of node j whose VID instances have
// all Completed at the proposer. The inter-node linking rule combines the V
// arrays of the committed blocks to deliver every correct block.
//
// Decoding is total; a block that fails to decode — including the AVID-M
// BAD_UPLOADER sentinel — is treated per the paper as ill-formatted and its
// observation replaced with [infinity, ...] by the caller.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"

namespace dl::core {

// "Infinity" marker for observations extracted from ill-formatted blocks.
inline constexpr std::uint64_t kInfObservation = ~0ULL;

struct Transaction {
  double submit_time = 0;     // virtual seconds, for latency measurement
  std::uint32_t origin = 0;   // proposing node (for local-vs-all latency)
  Bytes payload;

  // Wire size of this transaction inside a block.
  std::size_t wire_size() const { return 8 + 4 + 4 + payload.size(); }
};

struct Block {
  std::vector<std::uint64_t> v_array;  // size N (empty allowed pre-linking)
  std::vector<Transaction> txs;

  Bytes encode() const;
  static std::optional<Block> decode(ByteView in, int expected_n);
  // decode(in, expected_n)->v_array, or nullopt exactly when decode fails,
  // without copying a transaction: the same framing walk, skipping
  // payloads.
  static std::optional<std::vector<std::uint64_t>> read_v_array(
      ByteView in, int expected_n);

  // Total bytes of transaction payloads (the "useful" throughput).
  std::uint64_t payload_bytes() const;
  bool empty() const { return txs.empty(); }
};

// The one bad-uploader predicate: badness is a property of the committed
// bytes (the AVID-M BAD_UPLOADER sentinel), so live retrieval, catch-up and
// replay cannot disagree on it.
bool is_bad_uploader(ByteView content);

// The delivery rule for committed bytes (§4.3): the BAD_UPLOADER sentinel
// and bytes that do not decode become an empty block observing [inf, ...];
// a block without a V array observes [0, ...]. `*verbatim`, when given, is
// set iff the result re-encodes to `content` byte for byte (the bytes
// decoded and carried a full V array).
Block decode_or_poison(ByteView content, int n, bool* verbatim = nullptr);

// decode_or_poison(content, n).v_array without materialising the
// transactions — all the linking pass reads of a committed block.
std::vector<std::uint64_t> observation_or_poison(ByteView content, int n);

}  // namespace dl::core
