// LedgerStore — the durable, segmented, append-only committed-block store.
//
// One directory per replica holds fixed-size-bounded segment files
//
//   ledger-0000000000.seg, ledger-0000000001.seg, ...
//
// each a sequence of length-prefixed, CRC32C-checksummed records:
//
//   [u32 payload_len][u32 crc32c(payload)][payload]
//
// Three record types travel in the payload (u8 type tag first):
//
//   Block          — one delivered block: the delivery epoch it was
//                    executed in, its (epoch, proposer) key, a bad-uploader
//                    flag, and the raw retrieved bytes (exactly what the
//                    delivery fingerprint chain hashes).
//   EpochDone      — delivery of epoch e closed. Only blocks covered by a
//                    contiguous EpochDone prefix count as committed; block
//                    records after the last marker are an uncommitted tail
//                    that recovery ignores (catch-up re-fetches them).
//   ActivityFrontier — highest epoch this node has proposed into or voted
//                    in, +1. After a crash the node will not vote in epochs
//                    below this floor again, so a restart cannot turn a
//                    crash fault into equivocation (best-effort under
//                    fsync=never/batch: the record may trail by one drain).
//
// Concurrency and the write path: append_*() is cheap — it encodes the
// record into a staging buffer and updates the in-memory index under a
// mutex — and is home-loop-called by DlNode; drain() does the actual
// write(2)+fsync(2) work and is pushed through runtime::Env::offload, so
// durability never serializes the data plane (the simulator runs it inline,
// keeping event order deterministic). Readers (recovery replay, catch-up
// serving) force a drain first and then pread(2) from the segment files, so
// there is exactly one source of truth for record bytes.
//
// Fsync policy (--fsync flag of dlnoded):
//   never  — write(2) only. Survives SIGKILL (page cache), not power loss.
//   batch  — group commit: one fsync per drain, skipped while the previous
//            fsync is younger than batch_interval. The default.
//   always — one fsync per drain, unconditionally.
//
// Recovery: open() scans every segment in sequence order and rebuilds the
// index. A torn tail (short header, short body, CRC mismatch, unparsable
// payload) truncates the damaged segment at its last valid record and
// discards all later segments — open() never fails or crashes on garbage
// input, it just recovers a shorter committed prefix (counters in
// RecoveredState say how much was dropped; the catch-up protocol re-fetches
// anything a peer quorum committed).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace dl::obs {
class Histogram;
}  // namespace dl::obs

namespace dl::storage {

enum class FsyncPolicy : std::uint8_t { kNever = 0, kBatch = 1, kAlways = 2 };

// Parses the --fsync flag values "never" / "batch" / "always".
std::optional<FsyncPolicy> parse_fsync_policy(std::string_view s);
const char* to_string(FsyncPolicy p);

struct StoreOptions {
  // Segment roll threshold. A record always fits in one segment: a segment
  // only rolls between records, so the bound is approximate by one record.
  std::size_t segment_bytes = 64u * 1024 * 1024;
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  // kBatch group-commit window: a drain skips its fsync while the previous
  // one is younger than this many seconds.
  double batch_interval = 0.005;
};

// One delivered block, as persisted and as replayed.
struct BlockRecord {
  std::uint64_t at_epoch = 0;     // delivery epoch (monotone, may repeat)
  std::uint64_t block_epoch = 0;  // the block's own key
  std::uint32_t proposer = 0;
  bool bad_uploader = false;      // content is the BAD_UPLOADER sentinel
  Bytes content;                  // raw retrieved bytes
};

// What open() found (and dropped) while rebuilding the index.
struct RecoveredState {
  std::uint64_t delivered_epochs = 0;   // contiguous EpochDone frontier
  std::uint64_t committed_blocks = 0;   // block records inside that prefix
  std::uint64_t activity_frontier = 0;  // highest ActivityFrontier record
  std::uint64_t tail_records = 0;       // valid records past the last marker
  std::uint64_t truncated_bytes = 0;    // bytes cut from a torn/corrupt tail
  std::uint64_t dropped_segments = 0;   // segments discarded after corruption
};

class LedgerStore {
 public:
  struct Stats {
    std::uint64_t appended_records = 0;
    std::uint64_t appended_bytes = 0;
    std::uint64_t drains = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t segments_created = 0;
  };

  // Opens (creating if needed) the store in `dir` and rebuilds the index.
  // Returns nullptr only on environmental errors (directory not creatable,
  // permission, ...) with `err` set; corrupt segment contents are recovered
  // from, never fatal.
  static std::unique_ptr<LedgerStore> open(const std::string& dir,
                                           StoreOptions opt, std::string* err);
  ~LedgerStore();
  LedgerStore(const LedgerStore&) = delete;
  LedgerStore& operator=(const LedgerStore&) = delete;

  const RecoveredState& recovered() const { return recovered_; }
  const std::string& dir() const { return dir_; }
  FsyncPolicy fsync_policy() const { return opt_.fsync; }

  // First epoch NOT fully persisted (== recovered frontier + epochs
  // committed since). Any thread.
  std::uint64_t delivered_frontier() const;
  std::uint64_t activity_frontier() const;
  std::uint64_t committed_blocks() const;
  std::size_t segment_count() const;
  Stats stats() const;

  // Optional drain-latency histogram (microseconds per drain_io pass,
  // write+fsync included). Set during startup wiring, before drains run;
  // null keeps the extra clock reads off.
  void set_drain_histogram(obs::Histogram* h) { drain_hist_ = h; }

  // --- append path (any thread; encode + stage only, no I/O) ---------------
  // The block's bytes are copied once, straight into the staging buffer.
  void append_block(std::uint64_t at_epoch, std::uint64_t block_epoch,
                    std::uint32_t proposer, bool bad_uploader,
                    ByteView content);
  void append_block(const BlockRecord& rec) {
    append_block(rec.at_epoch, rec.block_epoch, rec.proposer,
                 rec.bad_uploader, rec.content);
  }
  // Closes delivery of `epoch`; must be the current frontier (a mismatch is
  // ignored — the caller's delivery loop is strictly sequential).
  void append_epoch_done(std::uint64_t epoch);
  void append_activity_frontier(std::uint64_t epoch);

  // --- I/O path -------------------------------------------------------------
  // Writes everything staged and applies the fsync policy. Safe from any
  // thread; concurrent drains serialize. This is the call DlNode offloads.
  void drain();
  // drain() + unconditional fsync of every dirty segment (shutdown path).
  void sync();

  // --- read path ------------------------------------------------------------
  // Replays the committed prefix in delivery order; stops early when `fn`
  // returns false. Implies a drain.
  void for_each_committed(const std::function<bool(const BlockRecord&)>& fn);
  // The blocks delivered at `epoch`, in delivery order (an epoch may have
  // delivered zero blocks). False iff `epoch` is at or past the frontier.
  // Implies a drain.
  bool blocks_at(std::uint64_t epoch, std::vector<BlockRecord>& out);

 private:
  struct IndexedBlock {
    std::uint64_t at_epoch = 0;
    std::uint64_t block_epoch = 0;
    std::uint32_t proposer = 0;
    bool bad_uploader = false;
    std::uint64_t segment = 0;     // segment sequence number
    std::uint64_t offset = 0;      // record payload offset within segment
    std::uint32_t payload_len = 0;
  };
  // Staged record bytes within one segment, contiguous from `offset`.
  struct StagedRange {
    std::uint64_t segment = 0;
    std::uint64_t offset = 0;
    Bytes data;
  };

  LedgerStore(std::string dir, StoreOptions opt);

  bool scan_segments(std::string* err);
  // Parses one segment file into the replay state, truncating it at the
  // first torn/corrupt record. `valid_size` gets the surviving length.
  // Returns false when truncation happened (callers drop later segments).
  bool scan_one_segment(std::uint64_t seq, int fd, std::uint64_t* valid_size);
  // Moves pending_ blocks delivered at `epoch` (first copy per key wins)
  // into the committed index and advances frontier_. Requires mu_.
  void commit_epoch_locked(std::uint64_t epoch);

  // Encodes [len][crc][payload] into staged_, where payload = head || body,
  // assigning the record its segment + offset (rolling the tail segment
  // when full). Requires mu_. Returns {segment, payload offset}.
  std::pair<std::uint64_t, std::uint64_t> stage_locked(ByteView head,
                                                       ByteView body = {});
  int segment_fd_io(std::uint64_t seq);       // requires io_mu_
  void drain_io(bool force_fsync);            // requires io_mu_
  void drain_io_inner(bool force_fsync);      // drain_io minus the timing
  bool read_block_io(const IndexedBlock& ib, BlockRecord& out);
  std::string segment_path(std::uint64_t seq) const;

  const std::string dir_;
  StoreOptions opt_;
  RecoveredState recovered_;

  // Lock order: io_mu_ before mu_, never the reverse. Appenders take only
  // mu_ (cheap); drains/readers take io_mu_ for file work and dip into mu_
  // to swap out the staged queue or snapshot the index.
  obs::Histogram* drain_hist_ = nullptr;

  mutable std::mutex mu_;
  // Committed index: blocks in delivery order + per-epoch prefix offsets
  // (epoch e occupies records_[epoch_starts_[e] .. epoch_starts_[e+1])).
  std::vector<IndexedBlock> records_;
  std::vector<std::size_t> epoch_starts_;  // size frontier_+1, starts at {0}
  std::uint64_t frontier_ = 0;
  std::uint64_t activity_frontier_ = 0;
  // Blocks appended past the last EpochDone marker (delivery in flight).
  std::vector<IndexedBlock> pending_;
  // Logical segment cursor; staged-but-unwritten bytes count toward size.
  std::uint64_t tail_seq_ = 0;
  std::uint64_t tail_size_ = 0;
  std::vector<StagedRange> staged_;
  // Segments written since their last fsync (batch policy can owe several).
  std::vector<std::uint64_t> dirty_segs_;
  Stats stats_;

  mutable std::mutex io_mu_;
  std::map<std::uint64_t, int> fds_;  // open segment fds (pread + pwrite)
  int dir_fd_ = -1;                   // for directory fsync on segment create
  double last_fsync_ = -1.0;          // CLOCK_MONOTONIC seconds
};

}  // namespace dl::storage
