/// \file
/// Runtime CPU-feature detection shared by the SIMD data-plane dispatchers:
/// the GF(2^8) row kernels (`src/erasure/gf256_dispatch.hpp`), the SHA-256
/// compression function (`src/crypto/sha256.hpp`) and the store's CRC32C
/// (`src/storage/crc32c.hpp`).
///
/// All probes are executed once (thread-safe function-local statics) and
/// return `false` on non-x86-64 builds, so callers can branch on them
/// unconditionally. Feature bits describe what the *hardware and OS*
/// support; whether a subsystem actually uses a SIMD path is decided by its
/// own dispatcher, which additionally honours \ref force_scalar().
#pragma once

namespace dl::cpu {

/// CPUID.1:ECX.SSSE3 — 128-bit `pshufb` (the nibble-table GF kernels).
bool has_ssse3();

/// CPUID.1:ECX.SSE4.2 — the `crc32` instruction (CRC32C in hardware).
bool has_sse42();

/// CPUID.7.0:EBX.AVX2, plus OSXSAVE/XGETBV confirmation that the OS
/// preserves YMM state across context switches.
bool has_avx2();

/// CPUID.7.0:EBX.SHA — the SHA-NI block extensions.
bool has_sha_ni();

/// True when SIMD paths are administratively disabled: the `DL_FORCE_SCALAR`
/// environment variable is set to a non-empty value other than `"0"`, or the
/// tree was configured with `-DDL_FORCE_SCALAR=ON` (which compiles the SIMD
/// kernels out entirely). Read once at first use; flipping the environment
/// variable after that has no effect. Dispatchers pin their *default* kernel
/// to scalar under this flag — explicitly requested kernels (the
/// `*_with(Kernel, ...)` test entry points) are not affected.
bool force_scalar();

}  // namespace dl::cpu
