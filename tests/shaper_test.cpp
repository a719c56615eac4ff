// LinkShaper: token-bucket conformance against the closed-form reference
// (sent(T) <= burst + integral of rate over [0,T], and a greedy drain stays
// within one quantum of it), schedule-edge behavior, jitter bounds, loss
// accounting, and a real socketpair goodput check. The shaper runs on an
// explicit clock, so everything except the socketpair test uses virtual
// time and is exact.
#include <gtest/gtest.h>
#include <unistd.h>

#include <sys/socket.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "net/shaper.hpp"

namespace dl::net {
namespace {

double mono_now() {
  using clk = std::chrono::steady_clock;
  return std::chrono::duration<double>(clk::now().time_since_epoch()).count();
}

TEST(RateSchedule, MirrorsSimTraceSemantics) {
  RateSchedule s{{1000.0, 250.0, 4000.0}, 2.0};
  EXPECT_DOUBLE_EQ(s.rate_at(-1.0), 1000.0);
  EXPECT_DOUBLE_EQ(s.rate_at(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(s.rate_at(1.999), 1000.0);
  EXPECT_DOUBLE_EQ(s.rate_at(2.0), 250.0);
  EXPECT_DOUBLE_EQ(s.rate_at(4.0), 4000.0);
  EXPECT_DOUBLE_EQ(s.rate_at(1e9), 4000.0);  // last entry holds forever
  EXPECT_DOUBLE_EQ(s.next_change_after(0.0), 2.0);
  EXPECT_DOUBLE_EQ(s.next_change_after(2.0), 4.0);
  EXPECT_TRUE(std::isinf(s.next_change_after(4.0)));
  EXPECT_DOUBLE_EQ(s.mean_rate(), (1000.0 + 250.0 + 4000.0) / 3.0);
  // The sim::Trace floor applies to degenerate entries.
  RateSchedule tiny{{0.5}, 1.0};
  EXPECT_DOUBLE_EQ(tiny.rate_at(0.0), RateSchedule::kMinRate);
}

// Closed-form conformance: replay the same probe times against a reference
// token bucket (tokens' = min(burst, tokens + rate*dt)) and require the
// shaper's grants to match it byte for byte; cumulative grants must also
// respect the classic arrival-curve bound granted(t) <= burst + rate*t.
TEST(LinkShaper, TokenBucketConformance) {
  constexpr double kRate = 50'000.0;
  constexpr std::size_t kBurst = 8192;
  LinkShaper::Config cfg;
  cfg.schedule = {{kRate}, 1.0};
  cfg.burst_bytes = kBurst;
  LinkShaper sh(cfg, /*now=*/0.0);

  double ref_tokens = static_cast<double>(kBurst);  // bucket starts full
  double ref_prev = 0.0;
  double granted = 0;
  // Irregular probe times, including bursts of calls at the same instant
  // and gaps long enough to overflow (and cap) the bucket.
  const double times[] = {0.0,  0.01, 0.01, 0.05, 0.2, 0.2,  0.21,
                          0.5,  0.9,  1.3,  1.31, 2.0, 2.75, 3.0};
  for (double t : times) {
    ref_tokens = std::min(static_cast<double>(kBurst),
                          ref_tokens + kRate * (t - ref_prev));
    ref_prev = t;
    const std::size_t want = 1u << 20;
    const std::size_t expect =
        ref_tokens >= static_cast<double>(std::min(want, sh.quantum()))
            ? static_cast<std::size_t>(ref_tokens)
            : 0;
    const std::size_t got = sh.take(t, want);
    EXPECT_EQ(got, expect) << "at t=" << t;
    ref_tokens -= static_cast<double>(got);
    granted += static_cast<double>(got);
    EXPECT_LE(granted, static_cast<double>(kBurst) + kRate * t + 1e-6)
        << "at t=" << t;
  }
  // The probes drained everything the schedule ever granted.
  EXPECT_EQ(sh.stats().shaped_bytes, static_cast<std::uint64_t>(granted));
}

// A rate step mid-burst: the refill integrates each schedule segment at its
// own rate, exactly — no smearing across the boundary.
TEST(LinkShaper, ScheduleStepMidBurst) {
  LinkShaper::Config cfg;
  cfg.schedule = {{100'000.0, 10'000.0}, 1.0};  // step down at t=1
  cfg.burst_bytes = 1u << 20;                   // never the binding cap here
  LinkShaper sh(cfg, 0.0);
  // Drain the initial burst so the bucket is empty at t=0.
  EXPECT_EQ(sh.take(0.0, 1u << 21), 1u << 20);
  // 1.0s at 100k plus 0.5s at 10k.
  EXPECT_EQ(sh.take(1.5, 1u << 21), 105'000u);
  EXPECT_EQ(sh.take(1.5, 1u << 21), 0u);  // and nothing left behind
}

// next_release integrates across a rate boundary too: a deficit that the
// pre-step rate cannot cover is finished at the post-step rate.
TEST(LinkShaper, NextReleaseCrossesScheduleBoundary) {
  LinkShaper::Config cfg;
  cfg.schedule = {{1000.0, 100'000.0}, 1.0};
  cfg.burst_bytes = 2048;
  LinkShaper sh(cfg, 0.0);
  EXPECT_EQ(sh.take(0.0, 1u << 20), 2048u);  // drain the initial burst
  EXPECT_EQ(sh.take(0.9, 1u << 20), 0u);     // 900 tokens < 1024 quantum
  // Deficit is 1024 - 900 = 124 bytes: 0.1s at 1000 B/s yields 100, the
  // remaining 24 arrive at 100k B/s.
  const double t = sh.next_release(0.9);
  EXPECT_NEAR(t, 1.0 + 24.0 / 100'000.0, 1e-9);
  EXPECT_GT(sh.take(t + 1e-6, 1u << 20), 0u);
  EXPECT_EQ(sh.stats().throttle_waits, 1u);
}

TEST(LinkShaper, UnlimitedRateOnlyDelays) {
  LinkShaper::Config cfg;  // empty schedule
  cfg.delay = 0.02;
  LinkShaper sh(cfg, 0.0);
  EXPECT_TRUE(sh.unlimited_rate());
  EXPECT_EQ(sh.take(0.0, 123456), 123456u);
  EXPECT_DOUBLE_EQ(sh.next_release(5.0), 5.0);
  EXPECT_DOUBLE_EQ(sh.delay_draw(), 0.02);
}

TEST(LinkShaper, JitterBounds) {
  LinkShaper::Config cfg;
  cfg.delay = 0.020;
  cfg.jitter = 0.005;
  cfg.seed = 7;
  LinkShaper sh(cfg, 0.0);
  double lo = 1e9, hi = -1e9;
  for (int i = 0; i < 2000; ++i) {
    const double d = sh.delay_draw();
    ASSERT_GE(d, 0.020);
    ASSERT_LT(d, 0.025);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  // The draws actually spread over the jitter window.
  EXPECT_LT(lo, 0.021);
  EXPECT_GT(hi, 0.024);
}

TEST(LinkShaper, LossAccounting) {
  LinkShaper::Config cfg;
  cfg.loss = 0.25;
  cfg.seed = 42;
  LinkShaper sh(cfg, 0.0);
  std::uint64_t dropped = 0;
  constexpr int kFrames = 10'000;
  for (int i = 0; i < kFrames; ++i) {
    if (sh.lose_frame(100)) ++dropped;
  }
  const auto st = sh.stats();
  EXPECT_EQ(st.lost_frames, dropped);
  EXPECT_EQ(st.lost_bytes, dropped * 100);
  EXPECT_GT(dropped, kFrames / 5);      // 20%
  EXPECT_LT(dropped, 3 * kFrames / 10); // 30%
  // Same seed, same drop sequence — deterministic injection.
  LinkShaper sh2(cfg, 0.0);
  std::uint64_t dropped2 = 0;
  for (int i = 0; i < kFrames; ++i) {
    if (sh2.lose_frame(100)) ++dropped2;
  }
  EXPECT_EQ(dropped, dropped2);
}

TEST(RateListParse, AcceptsAndRejects) {
  std::string err;
  auto ok = parse_rate_list("400000, 100000 ,250.5", &err);
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->size(), 3u);
  EXPECT_DOUBLE_EQ((*ok)[2], 250.5);

  EXPECT_FALSE(parse_rate_list("", &err).has_value());
  EXPECT_FALSE(parse_rate_list("100,,200", &err).has_value());
  EXPECT_FALSE(parse_rate_list("100,-5", &err).has_value());   // negative
  EXPECT_FALSE(parse_rate_list("100,0", &err).has_value());    // zero
  EXPECT_FALSE(parse_rate_list("100,abc", &err).has_value());
  EXPECT_FALSE(parse_rate_list("1e99", &err).has_value());     // absurd
  EXPECT_FALSE(parse_rate_list("nan", &err).has_value());
  EXPECT_FALSE(parse_rate_list("inf", &err).has_value());
}

TEST(RateTraceFile, LoadsAndReportsLineNumbers) {
  const std::string path = "/tmp/dl_shaper_trace_test.trace";
  {
    std::ofstream f(path);
    f << "# fig08-style two-level trace\n"
      << "step_ms 500\n"
      << "\n"
      << "400000\n"
      << "100000\n";
  }
  std::string err;
  auto tr = load_rate_trace(path, &err);
  ASSERT_TRUE(tr.has_value()) << err;
  EXPECT_DOUBLE_EQ(tr->step, 0.5);
  ASSERT_EQ(tr->rates.size(), 2u);
  EXPECT_DOUBLE_EQ(tr->rates[0], 400'000.0);

  {
    std::ofstream f(path);
    f << "400000\nbogus\n";
  }
  EXPECT_FALSE(load_rate_trace(path, &err).has_value());
  EXPECT_NE(err.find(":2:"), std::string::npos) << err;  // line-numbered

  {
    std::ofstream f(path);
    f << "400000\nstep_ms 100\n";  // directive after rates
  }
  EXPECT_FALSE(load_rate_trace(path, &err).has_value());

  EXPECT_FALSE(load_rate_trace("/nonexistent/x.trace", &err).has_value());
  std::remove(path.c_str());
}

// Real-time goodput: pace writes through a socketpair at 400 kB/s for half
// a second and require the observed rate within 10% of configured. The
// bucket's initial burst is kept small so it cannot mask pacing errors.
// Bytes are paid for before they are written, as TcpEnv's pay stage does;
// paid bytes the full kernel buffer refuses are written on a later pass.
TEST(LinkShaper, SocketpairGoodputWithinTenPercent) {
  constexpr double kRate = 400'000.0;
  LinkShaper::Config cfg;
  cfg.schedule = {{kRate}, 1.0};
  cfg.burst_bytes = 4096;
  LinkShaper sh(cfg, mono_now());

  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  char buf[8192];
  std::size_t paid = 0;  // bought from the bucket, not yet written
  std::size_t written = 0;
  std::size_t read_back = 0;
  const double t_start = mono_now();
  const double t_end = t_start + 0.5;
  while (mono_now() < t_end) {
    if (paid < sizeof buf) paid += sh.take(mono_now(), sizeof buf - paid);
    while (paid > 0) {
      const ssize_t n = ::write(sv[0], buf, paid);
      if (n <= 0) break;  // kernel buffer full; drain below frees it
      written += static_cast<std::size_t>(n);
      paid -= static_cast<std::size_t>(n);
    }
    ssize_t r;
    while ((r = ::read(sv[1], buf, sizeof buf)) > 0) {
      read_back += static_cast<std::size_t>(r);
    }
    const double wake = sh.next_release(mono_now());
    const double sleep_s = wake - mono_now();
    if (sleep_s > 0) {
      usleep(static_cast<useconds_t>(std::min(sleep_s, 0.01) * 1e6));
    }
  }
  const double elapsed = mono_now() - t_start;
  const double observed = static_cast<double>(written) / elapsed;
  EXPECT_GT(observed, 0.90 * kRate)
      << "wrote " << written << " in " << elapsed << "s";
  EXPECT_LT(observed, 1.10 * kRate)
      << "wrote " << written << " in " << elapsed << "s";
  EXPECT_GE(read_back, written - sizeof buf);
  close(sv[0]);
  close(sv[1]);
}

}  // namespace
}  // namespace dl::net
