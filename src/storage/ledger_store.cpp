#include "storage/ledger_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "common/serial.hpp"
#include "obs/registry.hpp"
#include "storage/crc32c.hpp"

namespace dl::storage {

namespace {

// Record payload type tags.
constexpr std::uint8_t kRecBlock = 1;
constexpr std::uint8_t kRecEpochDone = 2;
constexpr std::uint8_t kRecActivityFrontier = 3;

// Hard ceiling on one record: a block content is bounded by the 16 MiB wire
// frame limit, so anything bigger in a segment file is corruption, not data.
constexpr std::uint64_t kMaxRecordBytes = 32u * 1024 * 1024;

constexpr std::size_t kRecordHeader = 8;  // u32 len + u32 crc

double now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool make_dirs(const std::string& dir, std::string* err) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (err != nullptr) {
      *err = "mkdir " + dir + ": " + ec.message();
    }
    return false;
  }
  return true;
}

bool write_all_at(int fd, ByteView data, std::uint64_t offset) {
  std::size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::pwrite(fd, data.data() + done, data.size() - done,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all_at(int fd, std::uint8_t* out, std::size_t len,
                 std::uint64_t offset) {
  std::size_t done = 0;
  while (done < len) {
    ssize_t n = ::pread(fd, out + done, len - done,
                        static_cast<off_t>(offset + done));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint32_t le32_at(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Parses one record payload (type tag already expected inside). Returns
// false on any malformed field — the caller treats that as corruption.
struct ParsedRecord {
  std::uint8_t type = 0;
  BlockRecord block;        // kRecBlock
  std::uint64_t epoch = 0;  // kRecEpochDone / kRecActivityFrontier
};

bool parse_payload(ByteView payload, ParsedRecord& out) {
  Reader r(payload);
  out.type = r.u8();
  switch (out.type) {
    case kRecBlock: {
      out.block.at_epoch = r.u64();
      out.block.block_epoch = r.u64();
      out.block.proposer = r.u32();
      std::uint8_t flags = r.u8();
      out.block.bad_uploader = (flags & 0x1u) != 0;
      out.block.content = r.bytes();
      return r.done() && (flags & ~0x1u) == 0;
    }
    case kRecEpochDone:
    case kRecActivityFrontier:
      out.epoch = r.u64();
      return r.done();
    default:
      return false;
  }
}

}  // namespace

std::optional<FsyncPolicy> parse_fsync_policy(std::string_view s) {
  if (s == "never") {
    return FsyncPolicy::kNever;
  }
  if (s == "batch") {
    return FsyncPolicy::kBatch;
  }
  if (s == "always") {
    return FsyncPolicy::kAlways;
  }
  return std::nullopt;
}

const char* to_string(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "?";
}

LedgerStore::LedgerStore(std::string dir, StoreOptions opt)
    : dir_(std::move(dir)), opt_(opt) {
  epoch_starts_.push_back(0);
}

LedgerStore::~LedgerStore() {
  sync();
  std::lock_guard<std::mutex> io(io_mu_);
  for (auto& [seq, fd] : fds_) {
    ::close(fd);
  }
  if (dir_fd_ >= 0) {
    ::close(dir_fd_);
  }
}

std::unique_ptr<LedgerStore> LedgerStore::open(const std::string& dir,
                                               StoreOptions opt,
                                               std::string* err) {
  if (opt.segment_bytes == 0) {
    opt.segment_bytes = 1;
  }
  if (!make_dirs(dir, err)) {
    return nullptr;
  }
  std::unique_ptr<LedgerStore> store(new LedgerStore(dir, opt));
  store->dir_fd_ = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (store->dir_fd_ < 0) {
    if (err != nullptr) {
      *err = "open " + dir + ": " + std::strerror(errno);
    }
    return nullptr;
  }
  if (!store->scan_segments(err)) {
    return nullptr;
  }
  return store;
}

std::string LedgerStore::segment_path(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "ledger-%010llu.seg",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

bool LedgerStore::scan_segments(std::string* err) {
  // Collect ledger-<seq>.seg sequence numbers; unrelated files are ignored.
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    char tail = 0;
    if (std::sscanf(name.c_str(), "ledger-%10llu.se%c", &seq, &tail) == 2 &&
        tail == 'g' && name.size() == 21) {
      seqs.push_back(seq);
    }
  }
  if (ec) {
    if (err != nullptr) {
      *err = "scan " + dir_ + ": " + ec.message();
    }
    return false;
  }
  std::sort(seqs.begin(), seqs.end());

  std::size_t stop = seqs.size();  // segments [stop..) get dropped
  std::uint64_t last_valid_size = 0;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    // A sequence gap means records are missing in the middle of the log:
    // everything after the gap is unreachable history. Same handling as
    // corruption — keep the prefix, drop the rest.
    if (i > 0 && seqs[i] != seqs[i - 1] + 1) {
      stop = i;
      break;
    }
    int fd = ::open(segment_path(seqs[i]).c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) {
      stop = i;
      break;
    }
    fds_[seqs[i]] = fd;
    if (!scan_one_segment(seqs[i], fd, &last_valid_size)) {
      stop = i + 1;
      break;
    }
  }
  for (std::size_t i = stop; i < seqs.size(); ++i) {
    auto it = fds_.find(seqs[i]);
    if (it != fds_.end()) {
      ::close(it->second);
      fds_.erase(it);
    }
    ::unlink(segment_path(seqs[i]).c_str());
    ++recovered_.dropped_segments;
  }

  if (stop > 0) {
    tail_seq_ = seqs[stop - 1];
    tail_size_ = last_valid_size;
  }

  // Blocks past the last EpochDone marker were in flight at the crash; the
  // node re-delivers (or catches up) those epochs, so drop them from the
  // live index. Their bytes stay in the file — replay dedups by key.
  recovered_.tail_records = pending_.size();
  pending_.clear();
  recovered_.delivered_epochs = frontier_;
  recovered_.committed_blocks = records_.size();
  recovered_.activity_frontier = activity_frontier_;
  return true;
}

bool LedgerStore::scan_one_segment(std::uint64_t seq, int fd,
                                   std::uint64_t* valid_size) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    *valid_size = 0;
    return false;
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  Bytes buf(size);
  if (size > 0 && !read_all_at(fd, buf.data(), size, 0)) {
    *valid_size = 0;
    ::ftruncate(fd, 0);
    recovered_.truncated_bytes += size;
    return false;
  }

  std::uint64_t off = 0;
  bool clean = true;
  while (off + kRecordHeader <= size) {
    const std::uint64_t len = le32_at(buf.data() + off);
    const std::uint32_t crc = le32_at(buf.data() + off + 4);
    if (len == 0 || len > kMaxRecordBytes || off + kRecordHeader + len > size) {
      clean = false;  // torn tail or garbage length
      break;
    }
    ByteView payload(buf.data() + off + kRecordHeader,
                     static_cast<std::size_t>(len));
    if (crc32c(payload) != crc) {
      clean = false;
      break;
    }
    ParsedRecord rec;
    if (!parse_payload(payload, rec)) {
      clean = false;
      break;
    }
    switch (rec.type) {
      case kRecBlock:
        // Records for already-committed epochs are stale duplicates left by
        // a pre-crash tail that a later catch-up re-wrote; skip them.
        if (rec.block.at_epoch >= frontier_) {
          pending_.push_back(IndexedBlock{
              rec.block.at_epoch, rec.block.block_epoch, rec.block.proposer,
              rec.block.bad_uploader, seq, off + kRecordHeader,
              static_cast<std::uint32_t>(len)});
        }
        break;
      case kRecEpochDone:
        if (rec.epoch == frontier_) {
          commit_epoch_locked(rec.epoch);
        } else if (rec.epoch > frontier_) {
          // A done-marker for a future epoch means the records in between
          // were lost: the committed prefix ends here.
          clean = false;
        }
        break;
      case kRecActivityFrontier:
        activity_frontier_ = std::max(activity_frontier_, rec.epoch);
        break;
    }
    if (!clean) {
      break;
    }
    off += kRecordHeader + len;
  }

  *valid_size = off;
  if (!clean || off < size) {
    ::ftruncate(fd, static_cast<off_t>(off));
    recovered_.truncated_bytes += size - off;
    return false;
  }
  return true;
}

void LedgerStore::commit_epoch_locked(std::uint64_t epoch) {
  // First copy per block key wins: delivery order of the original run. A
  // duplicate can only be a byte-identical re-append (agreement fixes the
  // content of a key), so dropping later copies is safe.
  std::unordered_set<std::uint64_t> seen;
  for (auto& ib : pending_) {
    if (ib.at_epoch != epoch) {
      continue;
    }
    const std::uint64_t key = (ib.block_epoch << 16) | ib.proposer;
    if (!seen.insert(key).second) {
      continue;
    }
    records_.push_back(ib);
  }
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [epoch](const IndexedBlock& ib) {
                                  return ib.at_epoch <= epoch;
                                }),
                 pending_.end());
  frontier_ = epoch + 1;
  epoch_starts_.push_back(records_.size());
}

std::uint64_t LedgerStore::delivered_frontier() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frontier_;
}

std::uint64_t LedgerStore::activity_frontier() const {
  std::lock_guard<std::mutex> lock(mu_);
  return activity_frontier_;
}

std::uint64_t LedgerStore::committed_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::size_t LedgerStore::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(tail_seq_) + 1;
}

LedgerStore::Stats LedgerStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::pair<std::uint64_t, std::uint64_t> LedgerStore::stage_locked(
    ByteView head, ByteView body) {
  const std::size_t payload_size = head.size() + body.size();
  const std::size_t rec_size = kRecordHeader + payload_size;
  const auto len = static_cast<std::uint32_t>(payload_size);
  const std::uint32_t crc = crc32c(body, crc32c(head));
  std::uint8_t header[kRecordHeader];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(len >> (8 * i));
    header[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }

  // Roll between records only, so any record fits in "its" segment even
  // when it alone exceeds segment_bytes.
  if (tail_size_ > 0 && tail_size_ + rec_size > opt_.segment_bytes) {
    ++tail_seq_;
    tail_size_ = 0;
  }
  const std::uint64_t segment = tail_seq_;
  const std::uint64_t offset = tail_size_;
  tail_size_ += rec_size;

  ++stats_.appended_records;
  stats_.appended_bytes += rec_size;

  if (staged_.empty() || staged_.back().segment != segment ||
      staged_.back().offset + staged_.back().data.size() != offset) {
    staged_.push_back(StagedRange{segment, offset, {}});
    staged_.back().data.reserve(rec_size);
  }
  Bytes& dst = staged_.back().data;
  append(dst, ByteView(header, kRecordHeader));
  append(dst, head);
  append(dst, body);
  return {segment, offset + kRecordHeader};
}

void LedgerStore::append_block(std::uint64_t at_epoch,
                               std::uint64_t block_epoch,
                               std::uint32_t proposer, bool bad_uploader,
                               ByteView content) {
  // The payload's fixed fields; the content follows as Writer::bytes would
  // write it (u32 length, then the bytes), without staging a copy first.
  Writer w;
  w.u8(kRecBlock);
  w.u64(at_epoch);
  w.u64(block_epoch);
  w.u32(proposer);
  w.u8(bad_uploader ? 0x1 : 0x0);
  w.u32(static_cast<std::uint32_t>(content.size()));

  std::lock_guard<std::mutex> lock(mu_);
  auto [segment, payload_off] = stage_locked(w.data(), content);
  pending_.push_back(IndexedBlock{
      at_epoch, block_epoch, proposer, bad_uploader, segment, payload_off,
      static_cast<std::uint32_t>(w.data().size() + content.size())});
}

void LedgerStore::append_epoch_done(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != frontier_) {
    return;  // duplicate (or out-of-order caller bug); delivery is sequential
  }
  Writer w;
  w.u8(kRecEpochDone);
  w.u64(epoch);
  stage_locked(w.data());
  commit_epoch_locked(epoch);
}

void LedgerStore::append_activity_frontier(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch <= activity_frontier_) {
    return;
  }
  activity_frontier_ = epoch;
  Writer w;
  w.u8(kRecActivityFrontier);
  w.u64(epoch);
  stage_locked(w.data());
}

int LedgerStore::segment_fd_io(std::uint64_t seq) {
  auto it = fds_.find(seq);
  if (it != fds_.end()) {
    return it->second;
  }
  const std::string path = segment_path(seq);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return -1;
  }
  fds_[seq] = fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.segments_created;
  }
  // Make the new directory entry itself durable before records land in it.
  if (opt_.fsync != FsyncPolicy::kNever && dir_fd_ >= 0) {
    ::fsync(dir_fd_);
  }
  return fd;
}

void LedgerStore::drain_io(bool force_fsync) {
  if (drain_hist_ == nullptr) {
    drain_io_inner(force_fsync);
    return;
  }
  const double t_start = now_seconds();
  drain_io_inner(force_fsync);
  drain_hist_->observe(
      static_cast<std::uint64_t>((now_seconds() - t_start) * 1e6));
}

void LedgerStore::drain_io_inner(bool force_fsync) {
  std::vector<StagedRange> work;
  std::vector<std::uint64_t> dirty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    work.swap(staged_);
    dirty.swap(dirty_segs_);
    ++stats_.drains;
  }
  for (const auto& range : work) {
    int fd = segment_fd_io(range.segment);
    if (fd < 0) {
      continue;  // environmental failure; nothing better to do off-loop
    }
    write_all_at(fd, range.data, range.offset);
    if (dirty.empty() || dirty.back() != range.segment) {
      dirty.push_back(range.segment);
    }
  }
  if (dirty.empty()) {
    return;
  }

  bool do_fsync = force_fsync;
  switch (opt_.fsync) {
    case FsyncPolicy::kNever:
      dirty.clear();  // never owed
      break;
    case FsyncPolicy::kAlways:
      do_fsync = true;
      break;
    case FsyncPolicy::kBatch: {
      const double now = now_seconds();
      if (now - last_fsync_ >= opt_.batch_interval) {
        do_fsync = true;
      }
      break;
    }
  }
  if (do_fsync && !dirty.empty()) {
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    for (std::uint64_t seq : dirty) {
      auto it = fds_.find(seq);
      if (it != fds_.end()) {
        ::fsync(it->second);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.fsyncs;
      }
    }
    last_fsync_ = now_seconds();
    dirty.clear();
  }
  if (!dirty.empty()) {
    // Batch policy skipped this round's fsync; remember what is owed.
    std::lock_guard<std::mutex> lock(mu_);
    for (std::uint64_t seq : dirty) {
      dirty_segs_.push_back(seq);
    }
  }
}

void LedgerStore::drain() {
  std::lock_guard<std::mutex> io(io_mu_);
  drain_io(false);
}

void LedgerStore::sync() {
  std::lock_guard<std::mutex> io(io_mu_);
  drain_io(opt_.fsync != FsyncPolicy::kNever);
}

bool LedgerStore::read_block_io(const IndexedBlock& ib, BlockRecord& out) {
  auto it = fds_.find(ib.segment);
  if (it == fds_.end()) {
    return false;
  }
  Bytes payload(ib.payload_len);
  if (!read_all_at(it->second, payload.data(), payload.size(), ib.offset)) {
    return false;
  }
  ParsedRecord rec;
  if (!parse_payload(payload, rec) || rec.type != kRecBlock) {
    return false;
  }
  out = std::move(rec.block);
  return true;
}

void LedgerStore::for_each_committed(
    const std::function<bool(const BlockRecord&)>& fn) {
  std::lock_guard<std::mutex> io(io_mu_);
  drain_io(false);
  std::vector<IndexedBlock> index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = records_;
  }
  for (const auto& ib : index) {
    BlockRecord rec;
    if (!read_block_io(ib, rec)) {
      continue;
    }
    if (!fn(rec)) {
      return;
    }
  }
}

bool LedgerStore::blocks_at(std::uint64_t epoch,
                            std::vector<BlockRecord>& out) {
  out.clear();
  std::lock_guard<std::mutex> io(io_mu_);
  drain_io(false);
  std::vector<IndexedBlock> index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch >= frontier_) {
      return false;
    }
    const std::size_t begin = epoch_starts_[static_cast<std::size_t>(epoch)];
    const std::size_t end = epoch_starts_[static_cast<std::size_t>(epoch) + 1];
    index.assign(records_.begin() + static_cast<std::ptrdiff_t>(begin),
                 records_.begin() + static_cast<std::ptrdiff_t>(end));
  }
  for (const auto& ib : index) {
    BlockRecord rec;
    if (read_block_io(ib, rec)) {
      out.push_back(std::move(rec));
    }
  }
  return true;
}

}  // namespace dl::storage
