// Span tracing at the runtime seam, from outside the ledger's sources.
//
// TracingEnv wraps any runtime::Env (net::TcpEnv or runtime::SimEnv) and
// TracingReceiver wraps the node handed to it, so every call that crosses
// the seam becomes a span: envelope receipt (named by message kind), timer
// callbacks, defer() tasks, send/broadcast, offload work, and — through
// Tracer::Scope at the call site — the delivery callback. Spans carry the
// envelope's (epoch, instance) as their shared id. A span's self time
// excludes its children, so the receive span of a ReturnChunk that runs an
// inline decode does not count the decode.
//
// Offload work is labelled after the fact by what its continuation did:
// a continuation that sends VidChunks finished a dispersal, one that sends
// VidCancel finished a retrieval decode, anything else (store drain,
// catch-up) is "offload.other". The MB denominators come from the same
// observation: the dispersal's chunk bytes and the decode trigger's chunk
// bytes, scaled by the code rate.
//
// Per-name totals are folded as spans end; finished spans also stay in
// memory (the first kMaxKept of the window) and are written as chrome-trace
// JSON at the end. Timing is wall clock (CLOCK_MONOTONIC) on both backends.
// Single-threaded: offload work must run inline on the home loop, which is
// what SimEnv and a TcpEnv without a worker pool do.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/env.hpp"

namespace lb {

class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0;  // inclusive of children
    double self_s = 0;
    double bytes = 0;    // span-specific byte tally (see TracingEnv)
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Spans that start outside [t0, t1) are neither totalled nor kept.
  void set_window(double t0, double t1) {
    win0_ = t0;
    win1_ = t1;
  }

  // Opens a span nested in the current one; returns its id.
  std::uint64_t begin(const char* name, std::uint64_t epoch = 0,
                      std::uint32_t instance = 0, double bytes = 0);
  // Closes the innermost span (which must be `id`). A deferred span is held
  // back from the totals until rename() labels it.
  void end(std::uint64_t id, bool deferred = false);
  void rename(std::uint64_t id, const char* name, double bytes);
  // Name and byte tally of the innermost open span (nullptr / 0 if none).
  const char* current_name() const;
  double current_bytes() const;

  // Inclusive time of the top-level spans that started in the window.
  double top_level_s() const { return top_level_s_; }
  std::map<std::string, Totals> totals() const;
  // Totals summed over every span name that starts with `prefix`.
  Totals sum(const std::string& prefix) const;
  bool write_chrome(const std::string& path, int pid) const;
  // Human-readable per-name table (count, inclusive and self time) to stderr.
  void print_table(const char* who) const;

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t epoch = 0,
          std::uint32_t instance = 0)
        : t_(t), id_(t != nullptr ? t->begin(name, epoch, instance) : 0) {}
    ~Scope() {
      if (t_ != nullptr) t_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::uint64_t id_;
  };

 private:
  struct Open {
    std::uint64_t id;
    const char* name;
    std::uint64_t epoch;
    std::uint32_t instance;
    double t0;
    double child_s;
    double bytes;
  };
  struct Done {
    const char* name;
    std::uint64_t epoch;
    std::uint32_t instance;
    double t0, dur, self, bytes;
  };
  static constexpr std::size_t kMaxKept = 100'000;

  void fold(const Done& d);

  std::uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::unordered_map<std::uint64_t, Done> deferred_;
  std::unordered_map<const char*, Totals> totals_;
  std::vector<Done> kept_;
  double top_level_s_ = 0;
  double win0_ = -1e300, win1_ = 1e300;
};

class TracingEnv final : public dl::runtime::Env {
 public:
  TracingEnv(dl::runtime::Env& inner, Tracer& tracer)
      : inner_(inner), tr_(tracer) {}

  int local_id() const override { return inner_.local_id(); }
  int cluster_size() const override { return inner_.cluster_size(); }
  double now() const override { return inner_.now(); }
  dl::runtime::TimerId at(double t, std::function<void()> fn) override;
  dl::runtime::TimerId after(double delay, std::function<void()> fn) override;
  bool cancel_timer(dl::runtime::TimerId id) override {
    return inner_.cancel_timer(id);
  }
  void send(int to, const dl::Envelope& env,
            const dl::runtime::SendOpts& opts) override;
  void broadcast(const dl::Envelope& env,
                 const dl::runtime::SendOpts& opts) override;
  void send(int to, dl::Envelope&& env, const dl::runtime::SendOpts& opts) override;
  void broadcast(dl::Envelope&& env, const dl::runtime::SendOpts& opts) override;
  void cancel_send(std::uint64_t tag) override { inner_.cancel_send(tag); }
  void defer(std::function<void()> fn) override;
  void offload(std::function<void()> work, std::function<void()> done) override;

 private:
  // Notes what an offload continuation sends, then runs `send` in a span.
  template <typename Send>
  void traced_send(const char* name, const dl::Envelope& env, Send&& send);

  dl::runtime::Env& inner_;
  Tracer& tr_;
  // What the innermost running offload continuation sent; it decides the
  // label of that offload's work span.
  struct DoneSeen {
    double chunk_bytes = 0;
    bool cancel = false;
  };
  std::vector<DoneSeen> done_stack_;
};

class TracingReceiver final : public dl::runtime::Receiver {
 public:
  TracingReceiver(dl::runtime::Receiver& inner, Tracer& tracer)
      : inner_(inner), tr_(tracer) {}
  void start() override;
  void on_receive(int from, dl::ByteView bytes) override;

  // Span name of a received envelope ("recv.ba", "recv.vid_chunk", ...).
  static const char* span_name(std::uint8_t kind);

 private:
  dl::runtime::Receiver& inner_;
  Tracer& tr_;
};

}  // namespace lb
