// CRC32C (Castagnoli) — the record checksum of the ledger store.
//
// Two kernels compute the same function: the SSE4.2 `crc32` instruction,
// and a portable slicing-by-8 table as the fallback. The default resolves
// once at first use, in the style of the GF(2^8) and SHA-256 dispatchers:
// the hardware kernel when the host has SSE4.2, the table when it does not
// or when `DL_FORCE_SCALAR` (env var or `-DDL_FORCE_SCALAR=ON` build) pins
// the scalar paths. The polynomial (0x1EDC6F41, reflected) is the one
// iSCSI/ext4/leveldb use, so segment files can be checked with standard
// external tooling.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace dl::storage {

enum class Crc32cKernel { Table, Sse42 };

// "table" / "sse42", for reports.
const char* crc32c_kernel_name(Crc32cKernel k);

// Kernels usable on this host, always starting with Crc32cKernel::Table.
// DL_FORCE_SCALAR does not shrink this list; it only pins the default.
std::vector<Crc32cKernel> crc32c_supported_kernels();

// The kernel crc32c() resolves to.
Crc32cKernel crc32c_active_kernel();

// CRC32C of `data`, seeded with `init` (0 for a fresh checksum). Chaining:
// crc32c(b, crc32c(a)) == crc32c(a||b).
std::uint32_t crc32c(ByteView data, std::uint32_t init = 0);

// The same on an explicit kernel (tests, micro_coding). An unsupported
// kernel falls back to the table.
std::uint32_t crc32c_with(Crc32cKernel k, ByteView data,
                          std::uint32_t init = 0);

}  // namespace dl::storage
