// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum the
// integrity plane stamps into the wire-v2 CRC TLV (see msg.hpp).
//
// Two implementations compute the same function. On x86-64 CPUs with
// SSE4.2, crc32c_extend() uses the `crc32` instruction eight bytes at a
// time; the choice is made once, at the first call, from CPUID. Everywhere
// else it falls back to the portable table-driven, byte-at-a-time loop,
// which stays callable on its own as crc32c_extend_portable() so tests can
// cross-check the two. The simulated send path charges CRC cost through
// its own model (Config::send_path_overhead plus a per-covered-byte term),
// so which implementation runs changes host time only, never sim time.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xrdma {

/// One-shot CRC32C over `len` bytes. Standard init/xorout (~0).
std::uint32_t crc32c(const void* data, std::size_t len);

/// Incremental form: feed `crc` from a previous call (or 0 to start) to
/// extend the checksum over a discontiguous region, e.g. header bytes with
/// the CRC field zeroed followed by the payload.
std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                            std::size_t len);

/// The table-driven reference implementation of crc32c_extend().
std::uint32_t crc32c_extend_portable(std::uint32_t crc, const void* data,
                                     std::size_t len);

/// True if crc32c_extend() runs on the SSE4.2 `crc32` instruction.
bool crc32c_hardware();

}  // namespace xrdma
