#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace xrdma {

namespace {

// 256-entry table for the reflected Castagnoli polynomial, generated once
// at static-init time (constexpr, so actually at compile time).
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

using ExtendFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

#if defined(__x86_64__)
// The `crc32` instruction implements the same reflected Castagnoli CRC as
// the table, without the init/xorout inversion.
__attribute__((target("sse4.2"))) std::uint32_t extend_sse42(
    std::uint32_t crc, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = crc ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    c = _mm_crc32_u64(c, v);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; len > 0; ++p, --len) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

ExtendFn pick_extend() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return extend_sse42;
#endif
  return crc32c_extend_portable;
}

ExtendFn extend_fn() {
  static const ExtendFn fn = pick_extend();
  return fn;
}

}  // namespace

std::uint32_t crc32c_extend_portable(std::uint32_t crc, const void* data,
                                     std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                            std::size_t len) {
  return extend_fn()(crc, data, len);
}

std::uint32_t crc32c(const void* data, std::size_t len) {
  return crc32c_extend(0, data, len);
}

bool crc32c_hardware() { return extend_fn() != crc32c_extend_portable; }

}  // namespace xrdma
