#include "common/cpu.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dl::cpu {

namespace {

#if defined(__x86_64__)

__attribute__((target("xsave")))
unsigned long long read_xcr0() { return _xgetbv(0); }

struct Probe {
  bool ssse3 = false;
  bool sse42 = false;
  bool avx2 = false;
  bool sha_ni = false;

  Probe() {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
      ssse3 = (ecx & (1u << 9)) != 0;
      sse42 = (ecx & (1u << 20)) != 0;
      // AVX2 additionally needs the OS to save YMM state: OSXSAVE set and
      // XCR0 reporting XMM|YMM enabled.
      const bool osxsave = (ecx & (1u << 27)) != 0;
      const bool avx = (ecx & (1u << 28)) != 0;
      bool ymm_enabled = false;
      if (osxsave && avx) {
        // OSXSAVE is set, so xgetbv is available.
        ymm_enabled = (read_xcr0() & 0x6) == 0x6;
      }
      unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
      if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) {
        avx2 = ymm_enabled && (ebx7 & (1u << 5)) != 0;
        sha_ni = (ebx7 & (1u << 29)) != 0;
      }
    }
  }
};

const Probe& probe() {
  static const Probe p;
  return p;
}

#endif  // __x86_64__

}  // namespace

bool has_ssse3() {
#if defined(__x86_64__)
  return probe().ssse3;
#else
  return false;
#endif
}

bool has_sse42() {
#if defined(__x86_64__)
  return probe().sse42;
#else
  return false;
#endif
}

bool has_avx2() {
#if defined(__x86_64__)
  return probe().avx2;
#else
  return false;
#endif
}

bool has_sha_ni() {
#if defined(__x86_64__)
  return probe().sha_ni;
#else
  return false;
#endif
}

bool force_scalar() {
#if defined(DL_FORCE_SCALAR_BUILD)
  return true;
#else
  static const bool forced = [] {
    const char* env = std::getenv("DL_FORCE_SCALAR");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }();
  return forced;
#endif
}

}  // namespace dl::cpu
