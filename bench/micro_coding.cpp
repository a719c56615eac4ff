// Microbenchmark of the coding/hashing data plane: Reed-Solomon encode and
// reconstruct plus Merkle-tree construction, per dispatch kernel.
//
// This is the perf gate for the VID substrate (see docs/PERF.md): dispersal
// cost — the thing DispersedLedger bets on being cheap — is one RS encode
// plus one Merkle tree per block, and retrieval is one reconstruct. Every
// workload runs twice, once pinned to the scalar kernels and once on the
// best tier the host dispatches to (they are the same run when the host has
// no SIMD or DL_FORCE_SCALAR is set), so the uploaded JSON records the
// speedup ratio on the same machine. Outputs are byte-identical across
// kernels (enforced by tests/coding_dispatch_test); only the wall-clock
// differs.
//
// Workloads (paper deployments, K = N-2f with f = (N-1)/3):
//   gf_mul_add_64KB_<kernel>   — raw mul_add_row rows/sec on one 64 KB row
//   encode_n{N}_{B}_<kernel>   — ReedSolomon::encode of a B-byte block
//   reconstruct_n{N}_{B}_<kernel> — decode from the 2f-survivor worst case
//                                  (all data chunks lost)
//   merkle_n{N}_{B}_<kernel>   — MerkleTree over the N encoded chunks
//   crc32c_<kernel>            — the ledger store's record checksum over one
//                                64 KB record, per supported CRC32C kernel
//                                (table, sse42)
//
// `ops` counts processed bytes (the block size per rep), so ops_per_sec is
// bytes/sec; the printed table shows MB/s.
#include <functional>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "erasure/gf256.hpp"
#include "erasure/gf256_dispatch.hpp"
#include "erasure/reed_solomon.hpp"
#include "merkle/merkle_tree.hpp"
#include "storage/crc32c.hpp"

using namespace dl;

namespace {

struct Config {
  int n;
  int f;
  std::size_t block_bytes;
  int k() const { return n - 2 * f; }
};

// Times `reps` calls of `body` (which must process `bytes_per_rep` bytes)
// and appends a PerfRow named "<label>_<kernel>".
void run_row(std::vector<runner::PerfRow>& rows, const std::string& label,
             const char* kernel, int reps, std::size_t bytes_per_rep,
             const std::function<void()>& body) {
  rows.push_back(
      bench::timed_perf_row(label + "_" + kernel, "bytes", reps, bytes_per_rep, body));
}

// Pins the GF + SHA kernels for the duration of one measurement.
struct PinKernels {
  PinKernels(gf256::Kernel g, ShaKernel s) {
    gf256::set_active_kernel(g);
    sha256_set_active_kernel(s);
  }
  ~PinKernels() {
    gf256::set_active_kernel(gf_best);
    sha256_set_active_kernel(sha_best);
  }
  static gf256::Kernel gf_best;
  static ShaKernel sha_best;
};
gf256::Kernel PinKernels::gf_best = gf256::Kernel::Scalar;
ShaKernel PinKernels::sha_best = ShaKernel::Scalar;

}  // namespace

int main() {
  bench::header("micro_coding — coding/hashing data plane",
                "RS encode/reconstruct + Merkle build, scalar vs dispatched kernel");
  const bool full = bench::full_scale();

  PinKernels::gf_best = gf256::active_kernel();
  PinKernels::sha_best = sha256_active_kernel();
  const char* gf_best_name = gf256::kernel_name(PinKernels::gf_best);
  const char* sha_best_name = sha_kernel_name(PinKernels::sha_best);
  std::printf("dispatch: gf256=%s sha256=%s crc32c=%s%s\n", gf_best_name,
              sha_best_name,
              storage::crc32c_kernel_name(storage::crc32c_active_kernel()),
              PinKernels::gf_best == gf256::Kernel::Scalar &&
                      PinKernels::sha_best == ShaKernel::Scalar
                  ? " (scalar pinned)"
                  : "");

  std::vector<runner::PerfRow> rows;

  // Raw row-kernel rows: one per supported tier, so the JSON tracks each
  // tier's MB/s individually (not just scalar vs best).
  {
    const std::size_t row_bytes = 64 * 1024;
    const Bytes src = random_bytes(row_bytes, 1);
    Bytes dst = random_bytes(row_bytes, 2);
    const int reps = full ? 8192 : 2048;
    for (const gf256::Kernel k : gf256::supported_kernels()) {
      run_row(rows, "gf_mul_add_64KB", gf256::kernel_name(k), reps, row_bytes,
              [&] { gf256::mul_add_row_with(k, dst.data(), src.data(), 0x57, row_bytes); });
    }
  }

  // CRC32C rows, one per supported kernel, like the GF rows above.
  {
    const std::size_t rec_bytes = 64 * 1024;
    const Bytes rec = random_bytes(rec_bytes, 3);
    const int reps = full ? 8192 : 2048;
    std::uint32_t acc = 0;
    for (const storage::Crc32cKernel k : storage::crc32c_supported_kernels()) {
      run_row(rows, "crc32c", storage::crc32c_kernel_name(k), reps, rec_bytes,
              [&] { acc ^= storage::crc32c_with(k, rec, acc); });
    }
    std::printf("crc32c chain: %08x\n", acc);  // keeps the checksums live
  }

  // Full-pipeline rows at the paper deployments.
  std::vector<Config> configs = {{16, 5, 100 * 1024},
                                 {16, 5, 1024 * 1024},
                                 {64, 21, 100 * 1024},
                                 {64, 21, 1024 * 1024}};
  if (full) {
    configs.push_back({32, 10, 1024 * 1024});
    configs.push_back({128, 42, 1024 * 1024});
  }

  struct Tier {
    gf256::Kernel gf;
    ShaKernel sha;
    const char* name;
  };
  std::vector<Tier> tiers = {{gf256::Kernel::Scalar, ShaKernel::Scalar, "scalar"}};
  if (PinKernels::gf_best != gf256::Kernel::Scalar ||
      PinKernels::sha_best != ShaKernel::Scalar) {
    tiers.push_back({PinKernels::gf_best, PinKernels::sha_best, "best"});
  }

  for (const Config& cfg : configs) {
    const ReedSolomon rs(cfg.k(), cfg.n);
    const Bytes block = random_bytes(cfg.block_bytes, 42);
    const auto chunks = rs.encode(block);
    // Worst-case reconstruct: every data chunk lost, solve from parity.
    std::vector<Bytes> holes = chunks;
    for (int i = 0; i < cfg.k(); ++i) holes[static_cast<std::size_t>(i)].clear();

    const std::string suffix =
        "_n" + std::to_string(cfg.n) + "_" + bench::size_label(cfg.block_bytes);
    const int reps = (full ? 4 : 2) *
                     (cfg.block_bytes <= 128 * 1024 ? 8 : 2) *
                     (cfg.n <= 32 ? 4 : 1);
    for (const Tier& tier : tiers) {
      PinKernels pin(tier.gf, tier.sha);
      run_row(rows, "encode" + suffix, tier.name, reps, cfg.block_bytes,
              [&] { rs.encode(block); });
      run_row(rows, "reconstruct" + suffix, tier.name, reps, cfg.block_bytes,
              [&] { rs.decode(holes); });
      run_row(rows, "merkle" + suffix, tier.name, reps, cfg.block_bytes,
              [&] { MerkleTree tree(chunks); });
    }
  }

  bench::row({"workload", "ops(bytes)", "wall s", "MB/s"}, 30);
  for (const auto& r : rows) {
    bench::row({r.name, std::to_string(r.ops), bench::fmt(r.wall_seconds, 4),
                bench::fmt_mb(r.ops_per_sec())},
               30);
  }

  // Scalar-vs-best ratios for the workloads that ran both tiers.
  if (tiers.size() > 1) {
    std::printf("\nscalar -> best-dispatch speedups:\n");
    for (const auto& r : rows) {
      const std::string& name = r.name;
      const std::string tail = "_best";
      if (name.size() < tail.size() ||
          name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
        continue;
      }
      const std::string scalar_name =
          name.substr(0, name.size() - tail.size()) + "_scalar";
      for (const auto& s : rows) {
        if (s.name == scalar_name && s.ops_per_sec() > 0) {
          std::printf("  %-28s %5.1fx (%.0f -> %.0f MB/s)\n",
                      scalar_name.substr(0, scalar_name.size() - 7).c_str(),
                      r.ops_per_sec() / s.ops_per_sec(),
                      s.ops_per_sec() / 1e6, r.ops_per_sec() / 1e6);
        }
      }
    }
  }

  bench::write_perf("micro_coding", rows);
  return 0;
}
