#include "tracing.hpp"

#include <cstdio>
#include <memory>

#include "common/envelope.hpp"
#include "lb_util.hpp"

namespace lb {

// --- Tracer ------------------------------------------------------------------

std::uint64_t Tracer::begin(const char* name, std::uint64_t epoch,
                            std::uint32_t instance, double bytes) {
  const std::uint64_t id = next_id_++;
  stack_.push_back(Open{id, name, epoch, instance, mono_now(), 0, bytes});
  return id;
}

void Tracer::end(std::uint64_t id, bool deferred) {
  if (stack_.empty() || stack_.back().id != id) {
    std::fprintf(stderr, "lb tracer: unbalanced span end\n");
    std::abort();
  }
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = mono_now() - o.t0;
  if (!stack_.empty()) {
    stack_.back().child_s += dur;
  } else if (o.t0 >= win0_ && o.t0 < win1_) {
    top_level_s_ += dur;
  }
  const Done d{o.name, o.epoch, o.instance, o.t0, dur, dur - o.child_s, o.bytes};
  if (deferred) {
    deferred_.emplace(id, d);
  } else {
    fold(d);
  }
}

void Tracer::rename(std::uint64_t id, const char* name, double bytes) {
  auto it = deferred_.find(id);
  if (it == deferred_.end()) return;
  it->second.name = name;
  it->second.bytes = bytes;
  fold(it->second);
  deferred_.erase(it);
}

void Tracer::fold(const Done& d) {
  if (d.t0 < win0_ || d.t0 >= win1_) return;
  if (kept_.size() < kMaxKept) kept_.push_back(d);
  Totals& t = totals_[d.name];
  ++t.count;
  t.total_s += d.dur;
  t.self_s += d.self;
  t.bytes += d.bytes;
}

const char* Tracer::current_name() const {
  return stack_.empty() ? nullptr : stack_.back().name;
}

double Tracer::current_bytes() const {
  return stack_.empty() ? 0 : stack_.back().bytes;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::map<std::string, Totals> out;
  for (const auto& [name, t] : totals_) {
    Totals& o = out[name];
    o.count += t.count;
    o.total_s += t.total_s;
    o.self_s += t.self_s;
    o.bytes += t.bytes;
  }
  return out;
}

Tracer::Totals Tracer::sum(const std::string& prefix) const {
  Totals out;
  for (const auto& [name, t] : totals_) {
    if (std::string(name).rfind(prefix, 0) != 0) continue;
    out.count += t.count;
    out.total_s += t.total_s;
    out.self_s += t.self_s;
    out.bytes += t.bytes;
  }
  return out;
}

void Tracer::print_table(const char* who) const {
  std::fprintf(stderr, "%s spans in window:\n  %-20s %10s %12s %12s\n", who, "name",
               "count", "total_ms", "self_ms");
  for (const auto& [name, t] : totals()) {
    std::fprintf(stderr, "  %-20s %10llu %12.1f %12.1f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_s * 1e3, t.self_s * 1e3);
  }
}

bool Tracer::write_chrome(const std::string& path, int pid) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Done& d = kept_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"epoch\":%llu,"
                 "\"instance\":%u,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", d.name, pid, pid, d.t0 * 1e6, d.dur * 1e6,
                 static_cast<unsigned long long>(d.epoch), d.instance,
                 d.self * 1e6);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

// --- TracingEnv --------------------------------------------------------------

dl::runtime::TimerId TracingEnv::at(double t, std::function<void()> fn) {
  return inner_.at(t, [this, fn = std::move(fn)] {
    Tracer::Scope s(&tr_, "timer");
    fn();
  });
}

dl::runtime::TimerId TracingEnv::after(double delay, std::function<void()> fn) {
  return inner_.after(delay, [this, fn = std::move(fn)] {
    Tracer::Scope s(&tr_, "timer");
    fn();
  });
}

template <typename Send>
void TracingEnv::traced_send(const char* name, const dl::Envelope& env, Send&& send) {
  if (!done_stack_.empty()) {
    if (env.kind == dl::MsgKind::VidChunk) {
      done_stack_.back().chunk_bytes += static_cast<double>(env.body.size());
    } else if (env.kind == dl::MsgKind::VidCancel) {
      done_stack_.back().cancel = true;
    }
  }
  Tracer::Scope s(&tr_, name, env.epoch, env.instance);
  send();
}

void TracingEnv::send(int to, const dl::Envelope& env,
                      const dl::runtime::SendOpts& opts) {
  traced_send("send", env, [&] { inner_.send(to, env, opts); });
}

void TracingEnv::broadcast(const dl::Envelope& env,
                           const dl::runtime::SendOpts& opts) {
  traced_send("broadcast", env, [&] { inner_.broadcast(env, opts); });
}

void TracingEnv::send(int to, dl::Envelope&& env,
                      const dl::runtime::SendOpts& opts) {
  traced_send("send", env, [&] { inner_.send(to, std::move(env), opts); });
}

void TracingEnv::broadcast(dl::Envelope&& env,
                           const dl::runtime::SendOpts& opts) {
  traced_send("broadcast", env, [&] { inner_.broadcast(std::move(env), opts); });
}

void TracingEnv::defer(std::function<void()> fn) {
  inner_.defer([this, fn = std::move(fn)] {
    Tracer::Scope s(&tr_, "defer");
    fn();
  });
}

void TracingEnv::offload(std::function<void()> work, std::function<void()> done) {
  // A decode is triggered by the ReturnChunk that completed the chunk set;
  // its body is one coded chunk, so n - 2f of them make up the block.
  const char* parent = tr_.current_name();
  const bool from_return =
      parent != nullptr && std::string(parent) == "recv.return_chunk";
  const int n = inner_.cluster_size();
  const int data_shards = n - 2 * ((n - 1) / 3);
  const double decode_bytes = from_return ? tr_.current_bytes() * data_shards : 0;
  auto work_id = std::make_shared<std::uint64_t>(0);
  inner_.offload(
      [this, work = std::move(work), work_id] {
        *work_id = tr_.begin("offload.work");
        work();
        tr_.end(*work_id, /*deferred=*/true);
      },
      [this, done = std::move(done), work_id, decode_bytes, n, data_shards] {
        done_stack_.push_back(DoneSeen{});
        {
          Tracer::Scope s(&tr_, "offload.done");
          done();
        }
        const DoneSeen seen = done_stack_.back();
        done_stack_.pop_back();
        if (seen.chunk_bytes > 0) {
          tr_.rename(*work_id, "offload.disperse",
                     seen.chunk_bytes * data_shards / n);
        } else if (seen.cancel) {
          tr_.rename(*work_id, "offload.decode", decode_bytes);
        } else {
          tr_.rename(*work_id, "offload.other", 0);
        }
      });
}

// --- TracingReceiver ---------------------------------------------------------

const char* TracingReceiver::span_name(std::uint8_t kind) {
  switch (static_cast<dl::MsgKind>(kind)) {
    case dl::MsgKind::VidChunk: return "recv.vid_chunk";
    case dl::MsgKind::VidGotChunk:
    case dl::MsgKind::VidReady: return "recv.vid_vote";
    case dl::MsgKind::VidRequestChunk: return "recv.request_chunk";
    case dl::MsgKind::VidReturnChunk: return "recv.return_chunk";
    case dl::MsgKind::VidCancel: return "recv.cancel";
    case dl::MsgKind::BaBval:
    case dl::MsgKind::BaAux:
    case dl::MsgKind::BaDone: return "recv.ba";
    case dl::MsgKind::CatchUpRequest:
    case dl::MsgKind::CatchUpChunk:
    case dl::MsgKind::CatchUpDone: return "recv.catch_up";
    default: return "recv.other";
  }
}

void TracingReceiver::start() {
  Tracer::Scope s(&tr_, "start");
  inner_.start();
}

void TracingReceiver::on_receive(int from, dl::ByteView bytes) {
  std::uint64_t epoch = 0;
  std::uint32_t instance = 0;
  std::uint8_t kind = 0;
  double body = 0;
  if (bytes.size() >= dl::Envelope::kHeaderBytes) {
    kind = bytes[0];
    for (int i = 0; i < 8; ++i) epoch |= static_cast<std::uint64_t>(bytes[1 + i]) << (8 * i);
    for (int i = 0; i < 4; ++i) instance |= static_cast<std::uint32_t>(bytes[9 + i]) << (8 * i);
    body = static_cast<double>(bytes.size() - dl::Envelope::kHeaderBytes);
  }
  const auto id = tr_.begin(span_name(kind), epoch, instance, body);
  inner_.on_receive(from, bytes);
  tr_.end(id);
}

}  // namespace lb
