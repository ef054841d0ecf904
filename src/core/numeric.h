// Canonical floating-point comparison helpers.
//
// Raw `==`/`!=` between floating-point expressions does not compile in this
// tree: the build adds -Werror=float-equal (top-level CMakeLists.txt, see
// docs/static-analysis.md). Most call sites actually want a tolerance, and
// the ones that genuinely want bit-exact comparison should say so
// explicitly. These helpers encode both intents, and they are the only
// place the warning is switched off:
//
//   approx_eq / approx_zero — combined absolute + relative tolerance; use
//     for convergence checks, mass/normalization checks, and any comparison
//     of computed quantities.
//   exactly_eq / exactly_zero — bit-exact IEEE comparison; use only where
//     exactness is the semantics (sparse-skip fast paths over entries that
//     are structurally zero, sentinel values, branch on a user-supplied
//     constant). Wrapping the comparison in a named function makes the
//     intent auditable.
#pragma once

#include <algorithm>
#include <cmath>

namespace csq::num {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"

inline constexpr double kDefaultAbsTol = 1e-12;
inline constexpr double kDefaultRelTol = 1e-9;

// True when |a - b| <= abs_tol or |a - b| <= rel_tol * max(|a|, |b|).
// NaN compares unequal to everything; equal infinities compare equal.
[[nodiscard]] inline bool approx_eq(double a, double b, double abs_tol = kDefaultAbsTol,
                                    double rel_tol = kDefaultRelTol) {
  if (a == b) return true;  // equal infinities; also the common exact hit
  const double diff = std::abs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::max(std::abs(a), std::abs(b));
}

[[nodiscard]] inline bool approx_zero(double x, double abs_tol = kDefaultAbsTol) {
  return std::abs(x) <= abs_tol;
}

// Bit-exact equality, named so the intent is explicit at the call site.
[[nodiscard]] constexpr bool exactly_eq(double a, double b) {
  return a == b;
}

// Bit-exact zero test (sparse-skip fast paths: skipping only structural
// zeros never changes the computed result, a tolerance would).
[[nodiscard]] constexpr bool exactly_zero(double x) {
  return x == 0.0;
}

#pragma GCC diagnostic pop

}  // namespace csq::num
