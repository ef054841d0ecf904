// Exact CS-CQ chain for exponential short and long sizes, truncated in both
// dimensions and solved as a finite sparse CTMC.
//
// The paper rejects this approach for production use ("truncation is neither
// sufficiently accurate nor robust") — we implement it as an exactness
// oracle: for exponential/exponential workloads and generous caps it
// converges to the true chain, letting the test-suite and the ablation bench
// measure (a) the busy-period-transition approximation error of the QBD
// analysis and (b) the truncation error the paper warns about.
//
// State space: (n_S, n_L, c) with
//   c = A — n_L == 0, shorts on min(n_S,2) servers;
//   c = L — n_L >= 1, one server serving longs, the other serving shorts;
//   c = W — n_L >= 1, both servers on shorts (n_S >= 2), longs all waiting.
//
// Throws csq::InvalidInputError on malformed arguments,
// csq::UnstableError when the offered load is outside the stability
// region, and csq::DeadlineExceededError / csq::CancelledError when
// opts.budget is interrupted during the Gauss-Seidel solve (core/status.h).
#pragma once

#include "core/config.h"
#include "core/deadline.h"
#include "obs/obs.h"

namespace csq::analysis {

struct TruncatedCscqOptions {
  int max_shorts = 200;
  int max_longs = 200;
  double tolerance = 1e-10;  // L1 change per sweep; see ctmc::StationaryOptions
  int max_sweeps = 50000;
  double sor_omega = 1.0;
  // Wall-clock/cancellation budget, forwarded to ctmc::stationary (polled
  // once per Gauss-Seidel sweep).
  RunBudget budget;
};

struct TruncatedCscqResult {
  PolicyMetrics metrics;
  double p_region1 = 0.0;       // P(n_L = 0, n_S <= 1)
  double p_region2 = 0.0;       // P(n_L = 0, n_S >= 2)
  double mass_at_short_cap = 0.0;  // truncation health: P(n_S == max)
  double mass_at_long_cap = 0.0;
  bool converged = false;
  int sweeps = 0;
  obs::MetricsDelta obs_metrics;   // counter increments during this call
};

// Throws std::invalid_argument unless both size distributions are
// exponential and short arrivals are Poisson; std::domain_error outside the CS-CQ stability region.
// The truncated-chain solve can also surface csq::IllConditionedError
// from the linear-algebra stage.
[[nodiscard]] TruncatedCscqResult analyze_cscq_truncated(const SystemConfig& config,
                                                         const TruncatedCscqOptions& opts = {});

}  // namespace csq::analysis
