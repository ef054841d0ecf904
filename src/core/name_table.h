// The compile-time checks shared by the two name tables, obs metric/span
// names (obs/catalog.h) and fault sites (core/faultpoint.h): every name is
// three dot-separated lowercase segments ([a-z][a-z0-9_]* each), and rows
// are strictly ascending by name, so no name appears twice, enumerator
// order is name order, and a by-name lookup is a binary search.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>

namespace csq::names {

// True when `s` is module.sub.metric: exactly three '.'-separated segments,
// each a lowercase identifier.
[[nodiscard]] constexpr bool well_formed(std::string_view s) {
  int segments = 0;
  bool at_start = true;
  for (const char c : s) {
    if (c == '.') {
      if (at_start) return false;  // empty segment
      at_start = true;
      continue;
    }
    const bool lower = c >= 'a' && c <= 'z';
    if (at_start) {
      if (!lower) return false;
      ++segments;
      at_start = false;
    } else if (!lower && !(c >= '0' && c <= '9') && c != '_') {
      return false;
    }
  }
  return !at_start && segments == 3;
}

template <class Row, std::size_t N>
[[nodiscard]] consteval bool all_well_formed(const Row (&rows)[N]) {
  return std::all_of(rows, rows + N, [](const Row& r) { return well_formed(r.name); });
}

template <class Row, std::size_t N>
[[nodiscard]] consteval bool strictly_ascending(const Row (&rows)[N]) {
  for (std::size_t i = 1; i < N; ++i)
    if (!(std::string_view(rows[i - 1].name) < std::string_view(rows[i].name))) return false;
  return true;
}

// Index of the row named `name`, or N when the table has no such row.
template <class Row, std::size_t N>
[[nodiscard]] constexpr std::size_t find(const Row (&rows)[N], std::string_view name) {
  const Row* it = std::lower_bound(rows, rows + N, name, [](const Row& r, std::string_view n) {
    return std::string_view(r.name) < n;
  });
  return it != rows + N && std::string_view(it->name) == name ? static_cast<std::size_t>(it - rows)
                                                                : N;
}

}  // namespace csq::names
