// The obs name catalog: every metric and span name, with its kind. Sites
// pass the enumerator (CSQ_OBS_COUNT(kQbdSolveCalls)), so a string literal,
// an unknown name or a name of another kind fails to compile. Fault sites
// are a separate table (core/faultpoint.h), so a name may be both a span and
// a fault site. docs/observability.md and docs/serving.md §6 list every row.
#pragma once

#include <cstddef>
#include <iterator>

#include "core/name_table.h"

namespace csq::obs {

enum class MetricKind { kCounter, kGauge, kSpan };

// X(enumerator, name, kind), sorted by name.
#define CSQ_OBS_CATALOG(X)                                                \
  X(kAnalysisCscqAnalyze,       "analysis.cscq.analyze",       kSpan)     \
  X(kAnalysisCsidAnalyze,       "analysis.csid.analyze",       kSpan)     \
  X(kAnalysisDedicatedAnalyze,  "analysis.dedicated.analyze",  kSpan)     \
  X(kAnalysisResilientLadder,   "analysis.resilient.ladder",   kSpan)     \
  X(kAnalysisTruncatedAnalyze,  "analysis.truncated.analyze",  kSpan)     \
  X(kDurableCheckpointResumed,  "durable.checkpoint.resumed",  kCounter)  \
  X(kDurableJournalAppends,     "durable.journal.appends",     kCounter)  \
  X(kDurableJournalFsyncs,      "durable.journal.fsyncs",      kCounter)  \
  X(kDurableJournalPoisoned,    "durable.journal.poisoned",    kCounter)  \
  X(kDurableJournalReplay,      "durable.journal.replay",      kSpan)     \
  X(kDurableJournalReplayed,    "durable.journal.replayed",    kCounter)  \
  X(kDurableJournalTorn,        "durable.journal.torn",        kCounter)  \
  X(kMg1ErlangTerms,            "mg1.erlang.terms",            kCounter)  \
  X(kPoolTasksExecuted,         "pool.tasks.executed",         kCounter)  \
  X(kPoolWorkersSuspended,      "pool.workers.suspended",      kCounter)  \
  X(kQbdLogredDoublings,        "qbd.logred.doublings",        kCounter)  \
  X(kQbdSolveBoundary,          "qbd.solve.boundary",          kSpan)     \
  X(kQbdSolveCalls,             "qbd.solve.calls",             kCounter)  \
  X(kQbdSolveLogred,            "qbd.solve.logred",            kSpan)     \
  X(kQbdWorkspaceResizes,       "qbd.workspace.resizes",       kCounter)  \
  X(kResilientAttemptsCount,    "resilient.attempts.count",    kCounter)  \
  X(kResilientRungUsed,         "resilient.rung.used",         kGauge)    \
  X(kServeCacheEvictions,       "serve.cache.evictions",       kCounter)  \
  X(kServeCacheHits,            "serve.cache.hits",            kCounter)  \
  X(kServeCacheInserts,         "serve.cache.inserts",         kCounter)  \
  X(kServeCacheMisses,          "serve.cache.misses",          kCounter)  \
  X(kServeCodecInvalidBurst,    "serve.codec.invalid_burst",   kCounter)  \
  X(kServeQueueDepth,           "serve.queue.depth",           kGauge)    \
  X(kServeRequestHandle,        "serve.request.handle",        kSpan)     \
  X(kServeRequestsAdmitted,     "serve.requests.admitted",     kCounter)  \
  X(kServeRequestsCancelled,    "serve.requests.cancelled",    kCounter)  \
  X(kServeRequestsCompleted,    "serve.requests.completed",    kCounter)  \
  X(kServeRequestsDegraded,     "serve.requests.degraded",     kCounter)  \
  X(kServeRequestsInvalid,      "serve.requests.invalid",      kCounter)  \
  X(kServeRequestsReceived,     "serve.requests.received",     kCounter)  \
  X(kServeRequestsRecovered,    "serve.requests.recovered",    kCounter)  \
  X(kServeRequestsShed,         "serve.requests.shed",         kCounter)  \
  X(kSimEngineArrivals,         "sim.engine.arrivals",         kCounter)  \
  X(kSimEngineEvents,           "sim.engine.events",           kCounter)  \
  X(kSimEngineRun,              "sim.engine.run",              kSpan)     \
  X(kSimPolicyDispatches,       "sim.policy.dispatches",       kCounter)  \
  X(kSimPolicyIdleHits,         "sim.policy.idle_hits",        kCounter)  \
  X(kSimPolicyShares,           "sim.policy.shares",           kCounter)  \
  X(kSimPolicySteals,           "sim.policy.steals",           kCounter)  \
  X(kSimRepsRounds,             "sim.reps.rounds",             kCounter)  \
  X(kSimRepsTotal,              "sim.reps.total",              kCounter)  \
  X(kSweepPanelCells,           "sweep.panel.cells",           kCounter)  \
  X(kSweepPanelRun,             "sweep.panel.run",             kSpan)     \
  X(kSweepPointEvaluate,        "sweep.point.evaluate",        kSpan)     \
  X(kSweepPointsEvaluated,      "sweep.points.evaluated",      kCounter)  \
  X(kSweepPointsFailed,         "sweep.points.failed",         kCounter)

enum class Name : unsigned char {
#define CSQ_OBS_ENUMERATOR_(e, name, kind) e,
  CSQ_OBS_CATALOG(CSQ_OBS_ENUMERATOR_)
#undef CSQ_OBS_ENUMERATOR_
};

struct CatalogRow {
  const char* name;
  MetricKind kind;
};

inline constexpr CatalogRow kCatalog[] = {
#define CSQ_OBS_ROW_(e, name, kind) {name, MetricKind::kind},
    CSQ_OBS_CATALOG(CSQ_OBS_ROW_)
#undef CSQ_OBS_ROW_
};
inline constexpr std::size_t kNameCount = std::size(kCatalog);

static_assert(names::all_well_formed(kCatalog),
              "obs catalog: every name must be module.sub.metric (three lowercase segments)");
static_assert(names::strictly_ascending(kCatalog),
              "obs catalog: rows must be sorted by name, with no name twice");

[[nodiscard]] constexpr const CatalogRow& row(Name n) {
  return kCatalog[static_cast<std::size_t>(n)];
}

// `N` itself, once it is known to be a `K`: every CSQ_OBS_* macro passes its
// name through here, in both build flavours.
template <Name N, MetricKind K>
consteval Name of_kind() {
  static_assert(row(N).kind == K, "obs name used with a macro of another kind");
  return N;
}

}  // namespace csq::obs

// `name` is a bare catalog enumerator (kQbdSolveCalls), which this
// qualifies, so anything else fails to compile.
#define CSQ_OBS_NAME_(name, kind) \
  ::csq::obs::of_kind<::csq::obs::Name::name, ::csq::obs::MetricKind::kind>()
