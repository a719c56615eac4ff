// WAN link shaping for the real TCP runtime.
//
// A LinkShaper paces a node's egress with a token bucket whose fill rate
// follows a piecewise-constant schedule — the exact semantics of the
// simulator's sim::Trace, so the same rate trace can drive a FluidLink in
// the simulator and a TcpEnv in a real deployment (the cross-validation
// tests compare the two). On top of the bucket the shaper adds a fixed
// one-way delay, uniform jitter, and Bernoulli frame loss, mirroring
// classic schedule-driven link emulation (cf. the NS-2 tutorial exemplar).
//
// Threading: all methods are safe to call from any thread. One shaper
// instance is typically *shared* across every peer of a TcpEnv (modelling
// the node's aggregate egress pipe, like FluidLink's per-node egress), so
// with `--net-loops K` several event loops contend on its internal mutex.
// The critical sections are a handful of arithmetic ops; the unshipped
// path (no [[link]] config) is a null-pointer check in TcpEnv and never
// reaches this file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace dl::net {

// Piecewise-constant bandwidth schedule in bytes/second. `rates[i]` holds on
// [i*step, (i+1)*step); the last entry holds forever; an empty `rates` means
// "unlimited" (the shaper still applies delay/jitter/loss). This mirrors
// sim::Trace exactly, including the minimum-rate floor.
struct RateSchedule {
  std::vector<double> rates;
  double step = 1.0;  // seconds per entry

  static constexpr double kMinRate = 1.0;  // bytes/sec floor (matches sim::Trace)

  bool unlimited() const { return rates.empty(); }
  // Rate at absolute time t (t < 0 clamps to the first entry).
  double rate_at(double t) const;
  // Absolute time of the next rate change strictly after t, or +inf.
  double next_change_after(double t) const;
  double mean_rate() const;
};

// Parses a comma-separated rate list ("400000,100000,400000", bytes/sec).
// Rejects empty entries, non-numeric text, and non-positive rates.
std::optional<std::vector<double>> parse_rate_list(std::string_view text,
                                                   std::string* err);

// Loads a bandwidth trace file usable by both backends:
//   # comment and blank lines are skipped
//   step_ms N      (optional directive, default 1000; must precede rates)
//   <bytes/sec>    one rate per line
// Returns std::nullopt and sets *err (with a line number) on malformed input.
std::optional<RateSchedule> load_rate_trace(const std::string& path,
                                            std::string* err);

// Token-bucket pacer with schedule-driven fill rate plus delay/jitter/loss.
//
// Usage at TcpEnv's pay stage (TcpEnv::pay_frames), one frame at a time:
//   size_t got = shaper->take(now, frame_bytes - paid);  // spends tokens
//   paid += got;
//   if (got == 0) wake at shaper->next_release(now);
//   if (paid == frame_bytes) release the frame at now + delay_draw()
// Paid bytes stay owed to the socket until written, so nothing is ever
// given back to the bucket. take() spends rather than peeks so that peers on
// different event loops sharing one bucket cannot both spend the same
// tokens.
class LinkShaper {
 public:
  struct Config {
    RateSchedule schedule;        // empty = unlimited rate
    double delay = 0.0;           // seconds of fixed one-way delay
    double jitter = 0.0;          // uniform extra delay in [0, jitter)
    double loss = 0.0;            // per-frame drop probability in [0, 1)
    std::size_t burst_bytes = 0;  // bucket depth; 0 = auto (~20ms of mean rate)
    std::uint64_t seed = 1;       // jitter/loss RNG seed
  };

  struct Stats {
    std::uint64_t shaped_bytes = 0;    // bytes granted through the bucket
    std::uint64_t lost_frames = 0;     // frames dropped by the loss process
    std::uint64_t lost_bytes = 0;
    std::uint64_t throttle_waits = 0;  // take() calls that returned 0
  };

  // `now` anchors the schedule: rate_at(t - origin) with origin = now, so a
  // shaper built at process start consumes the trace from its beginning.
  LinkShaper(const Config& cfg, double now);

  // Spend up to `want` tokens available at `now`. Returns 0 (and counts a
  // throttle wait) when fewer than min(want, quantum) tokens are available —
  // sub-quantum grants would degrade into per-byte wakes.
  std::size_t take(double now, std::size_t want);

  // Earliest time at which take(t, quantum) can succeed. Integrates the
  // piecewise schedule across rate boundaries. Returns `now` if tokens are
  // already available, +inf on a pathological zero rate (cannot happen with
  // the kMinRate floor).
  double next_release(double now);

  // Per-frame delay sample: delay + jitter * U[0,1).
  double delay_draw();

  // Per-frame Bernoulli loss; records the frame in the stats when dropped.
  bool lose_frame(std::size_t frame_bytes);

  bool unlimited_rate() const { return cfg_.schedule.unlimited(); }
  std::size_t quantum() const { return quantum_; }
  std::size_t burst() const { return burst_; }

  Stats stats() const;

  static constexpr std::size_t kDefaultQuantum = 1024;

 private:
  void refill_locked(double now);

  const Config cfg_;
  std::size_t burst_ = 0;
  std::size_t quantum_ = kDefaultQuantum;
  double origin_ = 0.0;  // schedule time zero (construction time)

  mutable std::mutex mu_;
  double tokens_ = 0.0;       // guarded by mu_
  double last_refill_ = 0.0;  // guarded by mu_ (absolute time)
  Rng rng_;                   // guarded by mu_
  Stats stats_;               // guarded by mu_
};

}  // namespace dl::net
