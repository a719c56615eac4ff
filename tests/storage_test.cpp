// LedgerStore durability semantics: record/segment round-trips, index
// rebuild on reopen, torn-tail and bit-flip truncation (open() must recover
// a valid shorter prefix from ANY garbage, never crash or fail), multi-
// segment rolling, the uncommitted-tail rule (blocks past the last
// EpochDone marker do not count), and the fsync policy plumbing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "storage/crc32c.hpp"
#include "storage/ledger_store.hpp"

namespace dl::storage {
namespace {

// A self-cleaning temp directory per test.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/dl_store_test.XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

BlockRecord make_block(std::uint64_t at, std::uint64_t epoch,
                       std::uint32_t proposer, std::size_t bytes,
                       std::uint64_t seed) {
  BlockRecord r;
  r.at_epoch = at;
  r.block_epoch = epoch;
  r.proposer = proposer;
  r.content = random_bytes(bytes, seed);
  return r;
}

std::unique_ptr<LedgerStore> open_ok(const std::string& dir,
                                     StoreOptions opt = {}) {
  std::string err;
  auto store = LedgerStore::open(dir, opt, &err);
  EXPECT_NE(store, nullptr) << err;
  return store;
}

// Appends `epochs` epochs of `blocks_per_epoch` blocks each and closes
// every epoch with its EpochDone marker.
void fill(LedgerStore& s, std::uint64_t epochs, int blocks_per_epoch,
          std::size_t bytes = 200) {
  const std::uint64_t base = s.delivered_frontier();
  for (std::uint64_t e = base; e < base + epochs; ++e) {
    for (int p = 0; p < blocks_per_epoch; ++p) {
      s.append_block(make_block(e, e, static_cast<std::uint32_t>(p), bytes,
                                e * 100 + static_cast<std::uint64_t>(p)));
    }
    s.append_epoch_done(e);
  }
  s.drain();
}

TEST(Crc32c, KnownVectorsAndChaining) {
  // RFC 3720 test vector: 32 zero bytes.
  const Bytes zeros(32, 0);
  EXPECT_EQ(crc32c(ByteView(zeros)), 0x8a9136aau);
  const Bytes digits = bytes_of("123456789");
  EXPECT_EQ(crc32c(ByteView(digits)), 0xe3069283u);
  // Chaining a split input equals one pass over the whole.
  const Bytes all = bytes_of("hello, crc world");
  const auto whole = crc32c(ByteView(all));
  const auto head = crc32c(ByteView(all.data(), 7));
  EXPECT_EQ(crc32c(ByteView(all.data() + 7, all.size() - 7), head), whole);
}

// Every kernel computes the same checksum as the table, for every length
// up to 4096 at every start offset mod 8 (so the hardware kernel's 8-byte
// words start misaligned) and with a nonzero chained seed. The default
// dispatch is checked the same way: CI reruns the suite under
// DL_FORCE_SCALAR=1, which must pin it to the table.
TEST(Crc32c, EveryKernelMatchesTheTableAtUnalignedOffsets) {
  const Bytes buf = random_bytes(4096 + 16, 0xC3C3);
  if (cpu::force_scalar()) {
    EXPECT_EQ(crc32c_active_kernel(), Crc32cKernel::Table);
  }
  const std::vector<Crc32cKernel> kernels = crc32c_supported_kernels();
  ASSERT_EQ(kernels.front(), Crc32cKernel::Table);
  for (std::size_t len = 0; len <= 4096; ++len) {
    for (std::size_t off = 0; off < 8; ++off) {
      const ByteView in(buf.data() + off, len);
      const std::uint32_t seed = static_cast<std::uint32_t>(len * 2654435761u);
      const std::uint32_t want = crc32c_with(Crc32cKernel::Table, in);
      const std::uint32_t want_seeded = crc32c_with(Crc32cKernel::Table, in, seed);
      for (const Crc32cKernel k : kernels) {
        ASSERT_EQ(crc32c_with(k, in), want)
            << crc32c_kernel_name(k) << " len " << len << " off " << off;
        ASSERT_EQ(crc32c_with(k, in, seed), want_seeded)
            << crc32c_kernel_name(k) << " len " << len << " off " << off;
      }
      ASSERT_EQ(crc32c(in), want) << "default, len " << len << " off " << off;
    }
  }
}

TEST(FsyncPolicyFlag, ParseAndPrint) {
  EXPECT_EQ(parse_fsync_policy("never"), FsyncPolicy::kNever);
  EXPECT_EQ(parse_fsync_policy("batch"), FsyncPolicy::kBatch);
  EXPECT_EQ(parse_fsync_policy("always"), FsyncPolicy::kAlways);
  EXPECT_FALSE(parse_fsync_policy("").has_value());
  EXPECT_FALSE(parse_fsync_policy("Batch").has_value());
  EXPECT_FALSE(parse_fsync_policy("fsync").has_value());
  EXPECT_STREQ(to_string(FsyncPolicy::kNever), "never");
  EXPECT_STREQ(to_string(FsyncPolicy::kBatch), "batch");
  EXPECT_STREQ(to_string(FsyncPolicy::kAlways), "always");
}

TEST(LedgerStore, RoundTripAndReopen) {
  TempDir dir;
  {
    auto s = open_ok(dir.path);
    EXPECT_EQ(s->delivered_frontier(), 0u);
    fill(*s, 5, 3);
    EXPECT_EQ(s->delivered_frontier(), 5u);
    EXPECT_EQ(s->committed_blocks(), 15u);

    std::vector<BlockRecord> got;
    ASSERT_TRUE(s->blocks_at(2, got));
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[1].block_epoch, 2u);
    EXPECT_EQ(got[1].proposer, 1u);
    EXPECT_EQ(got[1].content, random_bytes(200, 201));
    // Past the frontier: refused, not empty-succeeded.
    EXPECT_FALSE(s->blocks_at(5, got));
  }
  // Reopen: index rebuilt purely from the segment bytes.
  auto s = open_ok(dir.path);
  EXPECT_EQ(s->recovered().delivered_epochs, 5u);
  EXPECT_EQ(s->recovered().committed_blocks, 15u);
  EXPECT_EQ(s->recovered().truncated_bytes, 0u);
  std::uint64_t n = 0, last_at = 0;
  s->for_each_committed([&](const BlockRecord& r) {
    EXPECT_GE(r.at_epoch, last_at);  // delivery order
    last_at = r.at_epoch;
    EXPECT_EQ(r.content, random_bytes(200, r.at_epoch * 100 + r.proposer));
    ++n;
    return true;
  });
  EXPECT_EQ(n, 15u);
}

TEST(LedgerStore, UncommittedTailIgnoredOnReopen) {
  TempDir dir;
  {
    auto s = open_ok(dir.path);
    fill(*s, 3, 2);
    // Epoch 3 delivered two blocks but never closed — the crash happened
    // before its EpochDone record.
    s->append_block(make_block(3, 3, 0, 100, 1));
    s->append_block(make_block(3, 3, 1, 100, 2));
    s->drain();
  }
  auto s = open_ok(dir.path);
  EXPECT_EQ(s->recovered().delivered_epochs, 3u);
  EXPECT_EQ(s->recovered().committed_blocks, 6u);
  EXPECT_EQ(s->recovered().tail_records, 2u);
  // The tail is not readable as committed data...
  std::vector<BlockRecord> got;
  EXPECT_FALSE(s->blocks_at(3, got));
  // ...and re-appending the same epoch after recovery commits it once.
  s->append_block(make_block(3, 3, 0, 100, 1));
  s->append_block(make_block(3, 3, 1, 100, 2));
  s->append_epoch_done(3);
  s->drain();
  ASSERT_TRUE(s->blocks_at(3, got));
  EXPECT_EQ(got.size(), 2u);
}

TEST(LedgerStore, TornWriteTruncatedOnReopen) {
  TempDir dir;
  std::string seg;
  {
    auto s = open_ok(dir.path);
    fill(*s, 4, 2);
    seg = dir.path + "/ledger-0000000000.seg";
  }
  // Simulate a torn write: half a record header of garbage at the tail.
  {
    std::FILE* f = std::fopen(seg.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const unsigned char junk[5] = {0x13, 0x37, 0xde, 0xad, 0xbe};
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  auto s = open_ok(dir.path);
  EXPECT_EQ(s->recovered().truncated_bytes, 5u);
  EXPECT_EQ(s->recovered().delivered_epochs, 4u);
  EXPECT_EQ(s->recovered().committed_blocks, 8u);
  // The file itself was healed, so the next reopen is clean.
  auto s2 = (s.reset(), open_ok(dir.path));
  EXPECT_EQ(s2->recovered().truncated_bytes, 0u);
}

TEST(LedgerStore, BitFlipCutsFromDamagePoint) {
  TempDir dir;
  std::string seg;
  {
    auto s = open_ok(dir.path);
    fill(*s, 6, 2, 300);
    seg = dir.path + "/ledger-0000000000.seg";
  }
  const auto size = std::filesystem::file_size(seg);
  // Flip one bit roughly 2/3 into the file: every record from the damaged
  // one onward must be dropped, everything before it must survive.
  {
    std::FILE* f = std::fopen(seg.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(size * 2 / 3), SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  auto s = open_ok(dir.path);
  EXPECT_GT(s->recovered().truncated_bytes, 0u);
  EXPECT_LT(s->recovered().delivered_epochs, 6u);
  // Whatever survived is internally consistent and re-readable.
  std::uint64_t blocks = 0;
  s->for_each_committed([&](const BlockRecord& r) {
    EXPECT_EQ(r.content.size(), 300u);
    ++blocks;
    return true;
  });
  EXPECT_EQ(blocks, s->committed_blocks());
  EXPECT_EQ(blocks, s->recovered().delivered_epochs * 2);
}

TEST(LedgerStore, GarbageSegmentRecoversEmpty) {
  TempDir dir;
  {
    std::FILE* f =
        std::fopen((dir.path + "/ledger-0000000000.seg").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const Bytes junk = random_bytes(4096, 99);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }
  auto s = open_ok(dir.path);
  EXPECT_EQ(s->delivered_frontier(), 0u);
  EXPECT_EQ(s->committed_blocks(), 0u);
  EXPECT_GT(s->recovered().truncated_bytes, 0u);
  // Still writable after healing.
  fill(*s, 2, 1);
  EXPECT_EQ(s->delivered_frontier(), 2u);
}

TEST(LedgerStore, MultiSegmentRollAndRebuild) {
  TempDir dir;
  StoreOptions opt;
  opt.segment_bytes = 2048;  // force frequent rolls
  {
    auto s = open_ok(dir.path, opt);
    fill(*s, 20, 2, 400);
    EXPECT_GT(s->segment_count(), 3u);
  }
  auto s = open_ok(dir.path, opt);
  EXPECT_EQ(s->recovered().delivered_epochs, 20u);
  EXPECT_EQ(s->recovered().committed_blocks, 40u);
  std::vector<BlockRecord> got;
  ASSERT_TRUE(s->blocks_at(19, got));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].content, random_bytes(400, 1900));
}

TEST(LedgerStore, CorruptMiddleSegmentDropsLaterOnes) {
  TempDir dir;
  StoreOptions opt;
  opt.segment_bytes = 2048;
  std::size_t segs = 0;
  {
    auto s = open_ok(dir.path, opt);
    fill(*s, 20, 2, 400);
    segs = s->segment_count();
    ASSERT_GT(segs, 2u);
  }
  // Wipe segment 1 with garbage: recovery keeps segment 0's prefix and must
  // drop every later segment (the record sequence is broken).
  {
    char name[64];
    std::snprintf(name, sizeof name, "/ledger-%010d.seg", 1);
    std::FILE* f = std::fopen((dir.path + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const Bytes junk = random_bytes(1024, 7);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }
  auto s = open_ok(dir.path, opt);
  EXPECT_EQ(s->recovered().dropped_segments, segs - 2);
  EXPECT_LT(s->recovered().delivered_epochs, 20u);
  // The store resumes appending after the healed prefix.
  const auto before = s->delivered_frontier();
  fill(*s, 1, 1);
  EXPECT_EQ(s->delivered_frontier(), before + 1);
}

TEST(LedgerStore, ActivityFrontierPersistsMonotonically) {
  TempDir dir;
  {
    auto s = open_ok(dir.path);
    s->append_activity_frontier(3);
    s->append_activity_frontier(7);
    s->append_activity_frontier(5);  // regression ignored
    s->drain();
    EXPECT_EQ(s->activity_frontier(), 7u);
  }
  auto s = open_ok(dir.path);
  EXPECT_EQ(s->recovered().activity_frontier, 7u);
  EXPECT_EQ(s->activity_frontier(), 7u);
}

TEST(LedgerStore, FsyncPolicyPlumbing) {
  TempDir never_dir, always_dir;
  StoreOptions opt;
  opt.fsync = FsyncPolicy::kNever;
  {
    auto s = open_ok(never_dir.path, opt);
    fill(*s, 3, 1);
    s->sync();  // still no fsync under kNever — writes only
    EXPECT_EQ(s->stats().fsyncs, 0u);
    EXPECT_GT(s->stats().drains, 0u);
  }
  opt.fsync = FsyncPolicy::kAlways;
  {
    auto s = open_ok(always_dir.path, opt);
    fill(*s, 3, 1);
    EXPECT_GT(s->stats().fsyncs, 0u);
  }
  // Both survive a reopen identically: the policy is about power loss, not
  // about what a clean process sees.
  EXPECT_EQ(open_ok(never_dir.path)->recovered().delivered_epochs, 3u);
  EXPECT_EQ(open_ok(always_dir.path)->recovered().delivered_epochs, 3u);
}

TEST(LedgerStore, DuplicateTailRecordsDedupedByKey) {
  TempDir dir;
  {
    auto s = open_ok(dir.path);
    // Pre-crash: epoch 0's block was appended, but EpochDone was lost.
    s->append_block(make_block(0, 0, 0, 64, 42));
    s->drain();
  }
  {
    auto s = open_ok(dir.path);
    EXPECT_EQ(s->recovered().tail_records, 1u);
    // Post-restart the node re-delivers epoch 0 and re-appends the block;
    // the store must commit ONE copy, not two.
    s->append_block(make_block(0, 0, 0, 64, 42));
    s->append_epoch_done(0);
    s->drain();
    std::vector<BlockRecord> got;
    ASSERT_TRUE(s->blocks_at(0, got));
    EXPECT_EQ(got.size(), 1u);
  }
  auto s = open_ok(dir.path);
  EXPECT_EQ(s->recovered().committed_blocks, 1u);
}

TEST(LedgerStore, OpenFailsOnUncreatableDir) {
  std::string err;
  auto s = LedgerStore::open("/proc/definitely/not/creatable", {}, &err);
  EXPECT_EQ(s, nullptr);
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace dl::storage
