// Moment matching: build a small phase-type distribution whose first moments
// agree with a target. This is the approximation engine of the paper — the
// busy-period transitions of the CS-CQ chain are represented by a 2-stage
// Coxian matched to the busy period's first three moments.
//
// Throws csq::InvalidInputError (core/status.h) on malformed arguments.
#pragma once

#include "dist/distribution.h"
#include "dist/phase_type.h"

namespace csq::dist {

struct FitReport {
  int moments_requested = 3;
  int moments_matched = 3;     // how many the returned PH actually matches
  bool used_fallback = false;  // 3-moment Coxian fit infeasible or degenerate
};

// Fit a phase-type distribution to the given raw moments.
//
// max_moments == 3 (default): 2-stage Coxian matching m1, m2, m3 when the
//   classical feasibility condition holds (normalized moments
//   n2 = m2/m1^2 > 2 and n3 = m3 m1 / ... large enough); falls back to a
//   two-moment fit otherwise.
// max_moments == 2: two-moment fit — Coxian-2 for scv > 1, mixed Erlang for
//   scv < 1, exponential at scv == 1.
// max_moments == 1: exponential with the target mean.
//
// Throws std::invalid_argument for non-realizable inputs (m1 <= 0, m2 < m1^2
// beyond numerical slack, a NaN or infinite moment among the first
// max_moments, ...). `report`, when non-null, records what was
// actually matched (used by the moment-matching ablation bench).
//
// Results are memoized per thread, keyed on the exact bit patterns of
// (m1, m2, m3, max_moments): sweeps and batches re-fit the same few
// distributions for every config, and the 3-moment Coxian fit's root search
// is the analysis path's single most expensive scalar computation. Cached
// returns are copies of the originally computed fit, so memoization is
// observationally invisible (cache hit/miss traffic is exported as the
// dist.fit.cache_hits / dist.fit.cache_misses counters).
[[nodiscard]] PhaseType fit_ph(const Moments& target, int max_moments = 3,
                               FitReport* report = nullptr);

// Exact three-moment 2-stage Coxian fit. Returns false when infeasible.
// On success fills rates {mu1, mu2} and continuation probability p.
bool fit_coxian2_3moments(const Moments& target, double* mu1, double* mu2, double* p);

// Two-moment mixed-Erlang fit for scv < 1 (Tijms' construction): mixture of
// Erlang(k-1) and Erlang(k) with common rate, 1/k <= scv <= 1.
[[nodiscard]] PhaseType fit_mixed_erlang(double mean, double scv);

}  // namespace csq::dist
