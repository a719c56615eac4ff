// Protocol message envelope.
//
// Every protocol message travels as: kind (u8), epoch (u64), instance (u32),
// body (length-prefixed bytes). `instance` identifies the per-node VID/BA
// instance inside an epoch (the proposer index); standalone VID deployments
// (e.g. the dispersed-storage example) use epoch 0 and an arbitrary
// instance id. Decoding is total: malformed input yields std::nullopt, never
// UB — Byzantine peers control these bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/serial.hpp"

namespace dl {

enum class MsgKind : std::uint8_t {
  // AVID-M (Fig. 3 / Fig. 4 of the paper)
  VidChunk = 1,
  VidGotChunk = 2,
  VidReady = 3,
  VidRequestChunk = 4,
  VidReturnChunk = 5,
  VidCancel = 6,  // "stop sending chunks, I decoded" optimization (§6.3)
  // Binary agreement (Mostefaoui et al. 2014)
  BaBval = 16,
  BaAux = 17,
  BaDone = 18,
  // AVID-FP baseline
  FpChunk = 32,
  FpEcho = 33,
  FpReady = 34,
  FpRequestChunk = 35,
  FpReturnChunk = 36,
  // Catch-up / bootstrap (restart recovery; served from the ledger store)
  CatchUpRequest = 48,
  CatchUpChunk = 49,
  CatchUpDone = 50,
};

struct Envelope {
  MsgKind kind{};
  std::uint64_t epoch = 0;
  std::uint32_t instance = 0;
  Bytes body;

  // Everything but the body bytes: kind, epoch, instance, body length. The
  // fixed size is what lets the TCP transport write an envelope as
  // [header slab][referenced body] without serializing a contiguous copy.
  static constexpr std::size_t kHeaderBytes = 1 + 8 + 4 + 4;

  // Writes exactly kHeaderBytes to `out`, byte-identical to the first
  // kHeaderBytes of encode() (little-endian, same field order — the
  // envelope_test roundtrip pins this equivalence).
  void encode_header(std::uint8_t* out) const {
    out[0] = static_cast<std::uint8_t>(kind);
    for (int i = 0; i < 8; ++i) {
      out[1 + i] = static_cast<std::uint8_t>(epoch >> (8 * i));
    }
    for (int i = 0; i < 4; ++i) {
      out[9 + i] = static_cast<std::uint8_t>(instance >> (8 * i));
    }
    const auto len = static_cast<std::uint32_t>(body.size());
    for (int i = 0; i < 4; ++i) {
      out[13 + i] = static_cast<std::uint8_t>(len >> (8 * i));
    }
  }

  Bytes encode() const {
    Writer w;
    w.u8(static_cast<std::uint8_t>(kind));
    w.u64(epoch);
    w.u32(instance);
    w.bytes(body);
    return std::move(w).take();
  }

  // Owning decode (copies the body). The receive path uses EnvelopeView.
  static std::optional<Envelope> decode(ByteView in);
};

// A decoded envelope whose body aliases the input buffer: what a receiver
// parses a transport frame into, so a message that is dropped is never
// copied. Valid only while the input is; handlers that keep body bytes copy
// them themselves.
struct EnvelopeView {
  MsgKind kind{};
  std::uint64_t epoch = 0;
  std::uint32_t instance = 0;
  ByteView body;

  // Same acceptance rule as Envelope::decode (which is built on this).
  static std::optional<EnvelopeView> decode(ByteView in) {
    Reader r(in);
    EnvelopeView e;
    e.kind = static_cast<MsgKind>(r.u8());
    e.epoch = r.u64();
    e.instance = r.u32();
    e.body = r.bytes_view();
    if (!r.done()) return std::nullopt;
    return e;
  }
};

inline std::optional<Envelope> Envelope::decode(ByteView in) {
  const std::optional<EnvelopeView> v = EnvelopeView::decode(in);
  if (!v.has_value()) return std::nullopt;
  return Envelope{v->kind, v->epoch, v->instance,
                  Bytes(v->body.begin(), v->body.end())};
}

// A protocol-layer outgoing message, before network wrapping. `to == kAll`
// requests a broadcast (including the sender itself).
struct OutMsg {
  static constexpr int kAll = -1;
  int to = kAll;
  Envelope env;
};

using Outbox = std::vector<OutMsg>;

}  // namespace dl
