// Deterministic fault injection: named fault sites compiled into every
// build, armed by tests/CLI to fire on the Nth pass.
//
// A fault site is a named probe in recovery-relevant code, one row of the
// site table below:
//
//   CSQ_FAULT_POINT(kQbdSolveBoundary);                    // plain site
//   CSQ_FAULT_POINT_MATRIX(kQbdLogredIterate, ptr, n);     // can corrupt data
//
// Sites pass the table's enumerator, so a string literal, an unknown site or
// a plain site used with the matrix macro (or the reverse) fails to compile.
// The table is checked at compile time (core/name_table.h): `module.sub.action`
// names, strictly ascending. Each site appears once in the tree
// (ObsCatalog.EveryRowHasExactlyOneSite), so a site identifies one code
// location. An unarmed pass reads one relaxed process-wide count of armed
// sites and goes on: no lock, no shared write, no allocation.
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
// Everything here is process-global; sites may be hit from worker threads.
// Only while some site is armed does a pass take the registry mutex and
// count a hit, so hits() counts the passes made while any site was armed;
// counters and armings reset via disarm_all().
//
// Throws csq::InvalidInputError (arm/parse on bad spec, or arm of a site
// the table lacks) and, when an armed site fires, whatever the armed kind
// dictates (any taxonomy error, or csq::InternalError for `nan` at a plain
// site).
#pragma once

#include <atomic>
#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "core/name_table.h"
#include "core/status.h"

namespace csq::fault {

enum class SiteKind {
  kPlain,   // CSQ_FAULT_POINT
  kMatrix,  // CSQ_FAULT_POINT_MATRIX: `nan` can poison the site's data
};

// X(enumerator, name, kind), sorted by name. docs/robustness.md §8 lists
// every row (ObsCatalog.DocsTablesMatchEveryRow).
#define CSQ_FAULT_SITES(X)                                              \
  X(kAnalysisCscqSolve,      "analysis.cscq.solve",      kPlain)       \
  X(kAnalysisTruncatedSolve, "analysis.truncated.solve", kPlain)       \
  X(kDurableJournalAppend,   "durable.journal.append",   kPlain)       \
  X(kDurableJournalFsync,    "durable.journal.fsync",    kPlain)       \
  X(kDurableJournalReplay,   "durable.journal.replay",   kPlain)       \
  X(kMg1PkWait,              "mg1.pk.wait",              kPlain)       \
  X(kMg1SetupWait,           "mg1.setup.wait",           kPlain)       \
  X(kQbdLogredIterate,       "qbd.logred.iterate",       kMatrix)      \
  X(kQbdSolveBoundary,       "qbd.solve.boundary",       kPlain)       \
  X(kServeAdmissionShed,     "serve.admission.shed",     kPlain)       \
  X(kServeCacheInsert,       "serve.cache.insert",       kPlain)       \
  X(kServeDispatchRun,       "serve.dispatch.run",       kPlain)       \
  X(kSimReplicationStart,    "sim.replication.start",    kPlain)

enum class Site : unsigned char {
#define CSQ_FAULT_ENUMERATOR_(e, name, kind) e,
  CSQ_FAULT_SITES(CSQ_FAULT_ENUMERATOR_)
#undef CSQ_FAULT_ENUMERATOR_
};

struct SiteRow {
  const char* name;
  SiteKind kind;
};

inline constexpr SiteRow kSites[] = {
#define CSQ_FAULT_ROW_(e, name, kind) {name, SiteKind::kind},
    CSQ_FAULT_SITES(CSQ_FAULT_ROW_)
#undef CSQ_FAULT_ROW_
};
inline constexpr std::size_t kSiteCount = std::size(kSites);

static_assert(names::all_well_formed(kSites),
              "fault sites: every name must be module.sub.action (three lowercase segments)");
static_assert(names::strictly_ascending(kSites),
              "fault sites: rows must be sorted by name, with no name twice");

// The enumerator itself, once `S` is known to be a `K` site (see the macros).
template <Site S, SiteKind K>
consteval Site of_kind() {
  static_assert(kSites[static_cast<std::size_t>(S)].kind == K,
                "fault site used with the macro of the other site kind");
  return S;
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
// InvalidInputError when the site is not in the table or `nan` is armed at
// a kPlain site (it has no data to poison) — arming must never silently do
// nothing or fail later.
void arm(const ArmSpec& spec);

// Parse and arm each item of a comma-separated spec list (the `--fault`
// value of csq_cli and csq_serve); empty items are skipped. Throws as
// parse_arm_spec and arm do, on the first bad item.
void arm_list(const std::string& specs);

// Drop all armings and zero all hit counters.
void disarm_all();

// Passes through `site` made while some site was armed, since the last
// disarm_all() (0 for a site the table lacks).
[[nodiscard]] long hits(const std::string& site);

// Sites currently armed, sorted by name (for diagnostics).
[[nodiscard]] std::vector<std::string> armed_sites();

namespace detail {
// Sites armed and not yet fired. Written under the registry mutex; the
// macros read it relaxed, so an unarmed pass costs one load and a branch.
extern std::atomic<int> armed_count;

[[nodiscard]] inline bool any_armed() {
  return armed_count.load(std::memory_order_relaxed) != 0;
}

// Macro entry points; never call directly. An armed site throws whatever
// its plan entry configures — any taxonomy class can surface:
// Throws csq::InvalidInputError, csq::UnstableError,
// csq::NotConvergedError, csq::IllConditionedError,
// csq::VerificationFailedError, csq::DeadlineExceededError,
// csq::CancelledError, csq::OverloadedError or
// csq::CorruptJournalError, per the armed plan.
void hit(Site site);
void hit_matrix(Site site, double* data, std::size_t size);
}  // namespace detail

}  // namespace csq::fault

// `site` is a bare table enumerator (kQbdSolveBoundary), which this
// qualifies, so anything else fails to compile.
#define CSQ_FAULT_SITE_(site, kind) \
  ::csq::fault::of_kind<::csq::fault::Site::site, ::csq::fault::SiteKind::kind>()

// The site check is consteval, so it holds in both branches; the mutex path
// (and the matrix site's data arguments) run only while a site is armed.
#define CSQ_FAULT_POINT(site)                                    \
  (::csq::fault::detail::any_armed()                             \
       ? ::csq::fault::detail::hit(CSQ_FAULT_SITE_(site, kPlain)) \
       : void())
#define CSQ_FAULT_POINT_MATRIX(site, data, size)                                       \
  (::csq::fault::detail::any_armed()                                                   \
       ? ::csq::fault::detail::hit_matrix(CSQ_FAULT_SITE_(site, kMatrix), data, size) \
       : void())
