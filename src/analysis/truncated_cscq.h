// Exact CS-CQ chain for exponential short and long sizes, with the long
// count capped and the short count left infinite, solved as a QBD.
//
// The paper rejects truncating the chain for production use ("truncation is
// neither sufficiently accurate nor robust") — we implement it as an
// exactness oracle: for exponential/exponential workloads and a generous
// long cap it converges to the true chain, letting the test-suite and the
// ablation bench measure (a) the busy-period-transition approximation error
// of the QBD analysis and (b) the truncation error the paper warns about.
//
// State space: (n_S, n_L, c) with
//   c = A — n_L == 0, shorts on min(n_S,2) servers;
//   c = L — n_L >= 1, one server serving longs, the other serving shorts;
//   c = W — n_L >= 1, both servers on shorts (n_S >= 2), longs all waiting.
// The level is n_S (exact, matrix-geometric above level 1); the phase is
// (c, n_L) with n_L <= max_longs, so levels 0-1 carry {A, L(1..N)} and the
// repeating levels >= 2 carry {A, L(1..N), W(1..N)}.
//
// Throws csq::InvalidInputError on malformed arguments,
// csq::UnstableError when the offered load is outside the stability
// region, and the failures of qbd::solve (core/status.h):
// csq::NotConvergedError, csq::IllConditionedError and
// csq::VerificationFailedError from the solve itself, and
// csq::DeadlineExceededError / csq::CancelledError when opts.budget is
// interrupted.
#pragma once

#include "core/config.h"
#include "core/deadline.h"
#include "qbd/qbd.h"

namespace csq::analysis {

struct TruncatedCscqOptions {
  // Cap N on the long count; the solve costs O(N^3). The long count decays
  // about geometrically in rho_L, so at rho_L <= 0.75 the default leaves
  // < 1e-12 of the mass at the cap (see mass_at_long_cap).
  int max_longs = 100;
  // Wall-clock/cancellation budget, forwarded to qbd::solve.
  RunBudget budget;
};

struct TruncatedCscqResult {
  PolicyMetrics metrics;
  double p_region1 = 0.0;         // P(n_L = 0, n_S <= 1)
  double p_region2 = 0.0;         // P(n_L = 0, n_S >= 2)
  double mass_at_long_cap = 0.0;  // truncation health: P(n_L == max_longs)
};

// Geometric decay rate eta of the long count, P(n_L >= n) ~ eta^n, read off
// the paper's long-job model: an M/G/1 queue of longs whose busy cycle
// starts after a setup of 0 or Exp(2 mu_S) (a long arriving while both
// servers run shorts waits for the first of them to finish). The queue
// decays like rho_L and the longs that arrive during the setup like
// lambda_L / (lambda_L + 2 mu_S); the slower of the two sets the tail:
// eta = max(rho_L, lambda_L / (lambda_L + 2 mu_S)), with mu_S = 1 / E[X_S].
[[nodiscard]] double long_count_decay(const SystemConfig& config);

// The chain's QBD blocks. Phase indices, at every level: A -> 0,
// L(n_L) -> n_L, and on levels >= 2 W(n_L) -> max_longs + n_L. Validates its
// arguments and throws as analyze_cscq_truncated does.
[[nodiscard]] qbd::Model cscq_truncated_model(const SystemConfig& config, int max_longs);

[[nodiscard]] TruncatedCscqResult analyze_cscq_truncated(const SystemConfig& config,
                                                         const TruncatedCscqOptions& opts = {});

}  // namespace csq::analysis
