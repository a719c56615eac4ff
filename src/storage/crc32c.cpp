#include "storage/crc32c.hpp"

#include <array>
#include <cstring>

#include "common/cpu.hpp"

#if defined(__x86_64__) && !defined(DL_FORCE_SCALAR_BUILD)
#define DL_CRC32C_HW 1
#include <nmmintrin.h>
#endif

namespace dl::storage {

namespace {

// 8 slicing tables, built once at first use. Table 0 is the classic
// byte-at-a-time table for the reflected polynomial; table k advances a
// byte that sits k positions deeper in the message.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  Tables() {
    constexpr std::uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

const Tables& tables() {
  static const Tables instance;
  return instance;
}

// Both kernels take and return the register value (the checksum with its
// pre/post inversion stripped).
std::uint32_t crc32c_table(const std::uint8_t* p, std::size_t n,
                           std::uint32_t crc) {
  const auto& t = tables().t;
  while (n >= 8) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][crc & 0xFFu] ^ t[6][(crc >> 8) & 0xFFu] ^
          t[5][(crc >> 16) & 0xFFu] ^ t[4][crc >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return crc;
}

#if defined(DL_CRC32C_HW)
// The instruction folds 8 little-endian bytes per step; no alignment needed.
__attribute__((target("sse4.2")))
std::uint32_t crc32c_sse42(const std::uint8_t* p, std::size_t n,
                           std::uint32_t crc) {
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return c32;
}
#endif

bool supported(Crc32cKernel k) {
#if defined(DL_CRC32C_HW)
  if (k == Crc32cKernel::Sse42) return cpu::has_sse42();
#endif
  return k == Crc32cKernel::Table;
}

using CrcFn = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                std::uint32_t);

CrcFn kernel_fn(Crc32cKernel k) {
#if defined(DL_CRC32C_HW)
  if (k == Crc32cKernel::Sse42 && supported(k)) return crc32c_sse42;
#else
  (void)k;
#endif
  return crc32c_table;
}

Crc32cKernel resolve_default() {
  if (!cpu::force_scalar() && supported(Crc32cKernel::Sse42)) {
    return Crc32cKernel::Sse42;
  }
  return Crc32cKernel::Table;
}

CrcFn active_fn() {
  static const CrcFn fn = kernel_fn(resolve_default());
  return fn;
}

}  // namespace

const char* crc32c_kernel_name(Crc32cKernel k) {
  return k == Crc32cKernel::Sse42 ? "sse42" : "table";
}

std::vector<Crc32cKernel> crc32c_supported_kernels() {
  std::vector<Crc32cKernel> out{Crc32cKernel::Table};
  if (supported(Crc32cKernel::Sse42)) out.push_back(Crc32cKernel::Sse42);
  return out;
}

Crc32cKernel crc32c_active_kernel() { return resolve_default(); }

std::uint32_t crc32c(ByteView data, std::uint32_t init) {
  return ~active_fn()(data.data(), data.size(), ~init);
}

std::uint32_t crc32c_with(Crc32cKernel k, ByteView data, std::uint32_t init) {
  return ~kernel_fn(k)(data.data(), data.size(), ~init);
}

}  // namespace dl::storage
