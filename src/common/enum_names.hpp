// Named enums: every enum that is printed, parsed or written to a dump is
// declared once, as an X-macro list of X(id, "name") entries in value order
// from 0 — the same style as the counter lists of core/stats.hpp. The
// enumerators and the name table both expand from that list:
//
//   #define XRDMA_FOO_LIST(X) X(first, "first") X(second, "second")
//   enum class Foo : std::uint8_t { XRDMA_FOO_LIST(XRDMA_ENUM_ID) };
//   inline constexpr auto kFooNames =
//       enum_names<Foo>({XRDMA_FOO_LIST(XRDMA_ENUM_NAME)});
//
// kFooNames.size is the count, kFooNames.name(v) the name and
// kFooNames.parse(s) the inverse, so adding a value is one line in its
// list. The name is spelled out rather than stringified from the id: it is
// the external vocabulary (dump name tables, replay files, tool output),
// and renaming an enumerator must not silently change it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#define XRDMA_ENUM_ID(id, name) id,
#define XRDMA_ENUM_NAME(id, name) name,

namespace xrdma {

template <typename E, std::size_t N>
struct EnumNames {
  static constexpr std::size_t size = N;
  std::array<const char*, N> names{};

  /// Name of the raw value `v` (a dump field, a foreign build's number);
  /// "unknown" outside the list.
  constexpr const char* name(std::uint64_t v) const {
    return v < N ? names[static_cast<std::size_t>(v)] : "unknown";
  }
  constexpr const char* name(E e) const {
    return name(static_cast<std::uint64_t>(e));
  }
  constexpr std::optional<E> parse(std::string_view s) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (s == names[i]) return static_cast<E>(i);
    }
    return std::nullopt;
  }
};

template <typename E, std::size_t N>
constexpr EnumNames<E, N> enum_names(const char* const (&names)[N]) {
  EnumNames<E, N> out;
  for (std::size_t i = 0; i < N; ++i) out.names[i] = names[i];
  return out;
}

}  // namespace xrdma
