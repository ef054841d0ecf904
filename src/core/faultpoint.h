// Deterministic fault injection: named fault sites compiled in under
// -DCSQ_FAULT_INJECTION, armed by tests/CLI to fire on the Nth pass.
//
// A fault site is a named probe in recovery-relevant code:
//
//   CSQ_FAULT_POINT("qbd.solve.boundary");                  // plain site
//   CSQ_FAULT_POINT_MATRIX("qbd.logred.iterate", ptr, n);   // can corrupt data
//
// Site names are `module.sub.action` (three lowercase dot-separated
// segments; lint rule `fault-site-naming`) and each name appears exactly
// once in the tree, so a site identifies one code location. With the CMake
// option OFF (the default) both macros expand to `((void)0)` — zero code,
// zero data, no hot-path cost.
//
// Arming: `arm(parse_arm_spec("qbd.logred.iterate:3:throw:NotConverged"))` makes
// the third pass through that site throw; the site then disarms itself
// (single-shot), so the retry/fallback machinery that runs after the failure
// sees a healthy site. Kinds:
//
//   throw:<ErrorCode>   throw the matching taxonomy error at the site
//   nan                 overwrite element 0 of a matrix site's data with NaN
//                       (firing at a plain site is an InternalError)
//   burn:<ms>           advance the virtual clock (timebase) by <ms> — makes
//                       deadline expiry testable without sleeping
//
// Everything here is process-global and mutex-protected; sites may be hit
// from worker threads. hits() counts every pass through a site (armed or
// not) for test assertions; counters and armings reset via disarm_all().
//
// Throws csq::InvalidInputError (arm/parse on bad spec, or arm when fault
// injection is not compiled in) and, when an armed site fires, whatever the
// armed kind dictates (any taxonomy error, or csq::InternalError for `nan`
// at a plain site).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/status.h"

namespace csq::fault {

// True when the library was built with -DCSQ_FAULT_INJECTION=ON. Tests that
// need armed sites GTEST_SKIP() when this is false.
constexpr bool enabled() {
#ifdef CSQ_FAULT_INJECTION
  return true;
#else
  return false;
#endif
}

enum class Kind {
  kThrow,  // throw the taxonomy error `code`
  kNan,    // inject NaN into the site's matrix data
  kBurn,   // advance the virtual clock by burn_ms
};

struct ArmSpec {
  std::string site;                       // "module.sub.action"
  long trigger_count = 1;                 // fire on the Nth pass (1-based)
  Kind kind = Kind::kThrow;
  ErrorCode code = ErrorCode::kInternal;  // for kThrow
  double burn_ms = 0.0;                   // for kBurn
};

// Parse "site:count:kind" where kind is "throw:<ErrorCode>", "nan", or
// "burn:<ms>", e.g. "qbd.logred.iterate:1:throw:NotConverged".
[[nodiscard]] ArmSpec parse_arm_spec(const std::string& text);

// Arm a site (replacing any previous arming of the same site). Throws
// InvalidInputError when fault injection is not compiled in or the spec is
// malformed — arming must never silently do nothing.
void arm(const ArmSpec& spec);

// Drop all armings and zero all hit counters.
void disarm_all();

// Total passes through `site` since the last disarm_all() (0 when the flag
// is off — the macros compile away).
[[nodiscard]] long hits(const std::string& site);

// Sites currently armed (for diagnostics).
[[nodiscard]] std::vector<std::string> armed_sites();

namespace detail {
// Macro entry points; never call directly. An armed site throws whatever
// its plan entry configures — any taxonomy class can surface:
// Throws csq::InvalidInputError, csq::UnstableError,
// csq::NotConvergedError, csq::IllConditionedError,
// csq::VerificationFailedError, csq::DeadlineExceededError,
// csq::CancelledError, csq::OverloadedError or
// csq::CorruptJournalError, per the armed plan.
void hit(const char* site);
void hit_matrix(const char* site, double* data, std::size_t size);
}  // namespace detail

}  // namespace csq::fault

#ifdef CSQ_FAULT_INJECTION
#define CSQ_FAULT_POINT(site) ::csq::fault::detail::hit(site)
#define CSQ_FAULT_POINT_MATRIX(site, data, size) \
  ::csq::fault::detail::hit_matrix(site, data, size)
#else
#define CSQ_FAULT_POINT(site) ((void)0)
#define CSQ_FAULT_POINT_MATRIX(site, data, size) ((void)0)
#endif
