#include "dl/block.hpp"

#include <bit>

#include "common/serial.hpp"
#include "vid/avid_m.hpp"

namespace dl::core {

namespace {

// The block framing rule, shared by every reader so they accept exactly the
// same inputs: V count 0 or expected_n, then the V array, a tx count that
// cannot exceed one tx per 16 input bytes, each tx as (u64 submit-time
// bits, u32 origin, length-prefixed payload), and nothing after. `on_count`
// sees the tx count once the bound check passed; `on_tx` sees each tx with
// its payload as a view into `in`.
template <class OnCount, class OnTx>
bool walk_block(ByteView in, int expected_n, std::vector<std::uint64_t>& v,
                OnCount&& on_count, OnTx&& on_tx) {
  Reader r(in);
  const std::uint32_t nv = r.u32();
  if (!r.ok() || (nv != 0 && nv != static_cast<std::uint32_t>(expected_n))) {
    return false;
  }
  v.resize(nv);
  for (std::uint32_t i = 0; i < nv; ++i) v[i] = r.u64();
  const std::uint32_t nt = r.u32();
  if (!r.ok()) return false;
  // Each transaction needs at least 16 bytes; reject absurd counts early.
  if (static_cast<std::uint64_t>(nt) * 16 > in.size()) return false;
  on_count(nt);
  for (std::uint32_t i = 0; i < nt; ++i) {
    const std::uint64_t time_bits = r.u64();
    const std::uint32_t origin = r.u32();
    const ByteView payload = r.bytes_view();
    if (!r.ok()) return false;
    on_tx(time_bits, origin, payload);
  }
  return r.done();
}

}  // namespace

Bytes Block::encode() const {
  std::size_t size = 4 + 8 * v_array.size() + 4;
  for (const Transaction& tx : txs) size += tx.wire_size();
  Writer w;
  w.reserve(size);
  w.u32(static_cast<std::uint32_t>(v_array.size()));
  for (std::uint64_t v : v_array) w.u64(v);
  w.u32(static_cast<std::uint32_t>(txs.size()));
  for (const Transaction& tx : txs) {
    w.u64(std::bit_cast<std::uint64_t>(tx.submit_time));
    w.u32(tx.origin);
    w.bytes(tx.payload);
  }
  return std::move(w).take();
}

std::optional<Block> Block::decode(ByteView in, int expected_n) {
  Block b;
  const bool ok = walk_block(
      in, expected_n, b.v_array, [&](std::uint32_t nt) { b.txs.reserve(nt); },
      [&](std::uint64_t time_bits, std::uint32_t origin, ByteView payload) {
        Transaction& tx = b.txs.emplace_back();
        tx.submit_time = std::bit_cast<double>(time_bits);
        tx.origin = origin;
        tx.payload.assign(payload.begin(), payload.end());
      });
  if (!ok) return std::nullopt;
  return b;
}

std::optional<std::vector<std::uint64_t>> Block::read_v_array(
    ByteView in, int expected_n) {
  std::vector<std::uint64_t> v;
  const bool ok = walk_block(in, expected_n, v, [](std::uint32_t) {},
                             [](std::uint64_t, std::uint32_t, ByteView) {});
  if (!ok) return std::nullopt;
  return v;
}

std::uint64_t Block::payload_bytes() const {
  std::uint64_t sum = 0;
  for (const Transaction& tx : txs) sum += tx.payload.size();
  return sum;
}

bool is_bad_uploader(ByteView content) {
  return equal(content, bytes_of(vid::kBadUploader));
}

namespace {

// The observation rule (§4.3) for a block's V array, given as nullopt when
// the block is ill-formatted.
std::vector<std::uint64_t> observation_rule(
    std::optional<std::vector<std::uint64_t>> v, int n) {
  if (!v.has_value()) {
    return std::vector<std::uint64_t>(static_cast<std::size_t>(n),
                                      kInfObservation);
  }
  // Blocks without observations claim nothing.
  if (v->empty()) v->assign(static_cast<std::size_t>(n), 0);
  return std::move(*v);
}

}  // namespace

Block decode_or_poison(ByteView content, int n, bool* verbatim) {
  std::optional<Block> block;
  if (!is_bad_uploader(content)) block = Block::decode(content, n);
  if (verbatim != nullptr) {
    *verbatim = block.has_value() && !block->v_array.empty();
  }
  if (!block.has_value()) {
    Block poison;
    poison.v_array = observation_rule(std::nullopt, n);
    return poison;
  }
  block->v_array = observation_rule(std::move(block->v_array), n);
  return std::move(*block);
}

std::vector<std::uint64_t> observation_or_poison(ByteView content, int n) {
  std::optional<std::vector<std::uint64_t>> v;
  if (!is_bad_uploader(content)) v = Block::read_v_array(content, n);
  return observation_rule(std::move(v), n);
}

}  // namespace dl::core
