#include "runtime/sim_env.hpp"

namespace dl::runtime {

SimEnv::SimEnv(sim::Simulator& sim, int id)
    : eq_(sim.queue()), net_(sim.network()), id_(id) {
  sim.attach(id, this);
}

TimerId SimEnv::pack(sim::TimerHandle h) {
  // (gen, slot) + 1 so a live timer is never id 0.
  return ((static_cast<TimerId>(h.gen_) << 32) | h.slot_) + 1;
}

sim::TimerHandle SimEnv::unpack(TimerId id) {
  if (id == 0) return {};
  const std::uint64_t v = id - 1;
  return sim::TimerHandle(static_cast<std::uint32_t>(v & 0xFFFFFFFFu),
                          static_cast<std::uint32_t>(v >> 32));
}

TimerId SimEnv::at(double t, std::function<void()> fn) {
  return pack(eq_.at(t, std::move(fn)));
}

TimerId SimEnv::after(double delay, std::function<void()> fn) {
  return pack(eq_.after(delay, std::move(fn)));
}

bool SimEnv::cancel_timer(TimerId id) { return eq_.cancel(unpack(id)); }

void SimEnv::send(int to, const Envelope& env, const SendOpts& opts) {
  sim::Message m;
  m.from = id_;
  m.to = to;
  m.cls = to_sim(opts.cls);
  m.order = opts.order;
  m.tag = opts.tag;
  m.payload = std::make_shared<const Bytes>(env.encode());
  net_.send(std::move(m));
}

void SimEnv::broadcast(const Envelope& env, const SendOpts& opts) {
  // One shared buffer fans out to every node (including this one).
  net_.broadcast(id_, to_sim(opts.cls), opts.order,
                 std::make_shared<const Bytes>(env.encode()), opts.tag);
}

void SimEnv::cancel_send(std::uint64_t tag) { net_.cancel_egress(id_, tag); }

void SimEnv::defer(std::function<void()> fn) { eq_.after(0, std::move(fn)); }

void SimEnv::start() {
  if (receiver_ != nullptr) receiver_->start();
}

void SimEnv::on_message(sim::Message&& m) {
  if (!m.payload || receiver_ == nullptr) return;
  receiver_->on_receive(m.from, *m.payload);
}

}  // namespace dl::runtime
