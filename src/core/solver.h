// One-call analytic entry points over the three analyzed policies.
#pragma once

#include "core/config.h"
#include "core/deadline.h"
#include "core/status.h"

namespace csq {

enum class Policy { kDedicated, kCsId, kCsCq };

[[nodiscard]] const char* policy_label(Policy p);

// Analytic mean response times for the given policy. Throws the structured
// taxonomy of core/status.h (csq::UnstableError outside the policy's
// stability region, csq::InvalidInputError on malformed configs, ...), all
// of which derive from the std exceptions historically thrown here.
// `busy_period_moments` selects how many busy-period moments the cycle-
// stealing chains match (3 = paper's setting; 1/2 for ablations); ignored by
// Dedicated. `verify` gates the self-checks run on the result (finite,
// nonnegative metrics; kFull adds Little's-law consistency) — failures throw
// csq::VerificationFailedError. `budget` bounds the underlying QBD solve;
// csq::DeadlineExceededError / csq::CancelledError propagate from it with
// partial SolveStats, as do csq::NotConvergedError when the whole fallback
// chain fails and csq::IllConditionedError from the linear-algebra stages.
[[nodiscard]] PolicyMetrics analyze(Policy policy, const SystemConfig& config,
                                    int busy_period_moments = 3,
                                    VerifyLevel verify = VerifyLevel::kBasic,
                                    const RunBudget& budget = {});

// Non-throwing variant: classifies any failure into a SolverStatus instead
// of propagating exceptions. `metrics` is meaningful iff `status.ok()`.
struct AnalyzeOutcome {
  SolverStatus status;
  PolicyMetrics metrics;

  [[nodiscard]] bool ok() const { return status.ok(); }
};

[[nodiscard]] AnalyzeOutcome try_analyze(Policy policy, const SystemConfig& config,
                                         int busy_period_moments = 3,
                                         VerifyLevel verify = VerifyLevel::kBasic,
                                         const RunBudget& budget = {}) noexcept;

// Self-checks on a computed PolicyMetrics: every metric finite, responses
// positive, waits/numbers nonnegative (up to rounding); kFull additionally
// checks E[N] = lambda E[T] (Little's law) against the config's rates.
[[nodiscard]] SolverStatus verify_metrics(const PolicyMetrics& metrics,
                                          const SystemConfig& config,
                                          VerifyLevel level = VerifyLevel::kBasic);

// True when the policy is stable for the config's loads.
[[nodiscard]] bool is_stable(Policy policy, const SystemConfig& config);

}  // namespace csq
