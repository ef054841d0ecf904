// Public configuration and result types for the cyclesteal library.
//
// Throws csq::InvalidInputError (core/status.h) on malformed arguments.
#pragma once

#include <stdexcept>
#include <string>

#include "dist/distribution.h"
#include "dist/map_process.h"
#include "dist/phase_type.h"

namespace csq {

// A two-class, two-host system: short (beneficiary) and long (donor) jobs
// arrive Poisson with the given rates; sizes are drawn i.i.d. from the given
// distributions. This single object drives both the analytic solvers and the
// discrete-event simulator.
struct SystemConfig {
  double lambda_short = 0.0;
  double lambda_long = 0.0;
  dist::DistPtr short_size;
  dist::DistPtr long_size;
  // Optional Markovian arrival process for the short class (the paper's
  // "can be generalized to a MAP"). When set it replaces the Poisson stream
  // and lambda_short is ignored; the effective rate is its mean rate.
  dist::MapPtr short_arrivals;

  [[nodiscard]] double effective_lambda_short() const {
    return short_arrivals ? short_arrivals->mean_rate() : lambda_short;
  }
  [[nodiscard]] double rho_short() const {
    return effective_lambda_short() * short_size->mean();
  }
  [[nodiscard]] double rho_long() const { return lambda_long * long_size->mean(); }

  // Throws std::invalid_argument on missing distributions / negative rates.
  void validate() const;
  // For models that know only Poisson short arrivals: throws
  // csq::InvalidInputError naming `short_arrivals` when a MAP is set, instead
  // of silently answering for a Poisson stream at lambda_short.
  void require_poisson_shorts(const char* who) const;

  // Convenience: build a config from per-class loads and size distributions
  // (lambda = rho / mean).
  static SystemConfig from_loads(double rho_short, double rho_long, dist::DistPtr short_size,
                                 dist::DistPtr long_size);

  // The paper's canonical setups: exponential shorts with the given mean;
  // longs exponential (scv == 1) or two-moment Coxian (scv > 1).
  static SystemConfig paper_setup(double rho_short, double rho_long, double mean_short,
                                  double mean_long, double long_scv = 1.0);
};

// Per-policy tuning knobs for the simulator's policy plug-ins (the policy
// zoo of docs/policies.md). One block covers every policy: each policy reads
// only the knobs it names and ignores the rest, so a single PolicyConfig can
// drive a whole policy x load sweep panel. Validation happens in the policy
// constructors (sim::simulate throws csq::InvalidInputError on bad knobs).
struct PolicyConfig {
  // Threshold stealing: an idle thief raids the longest queue only when it
  // holds at least steal_threshold jobs...
  int steal_threshold = 2;
  // ...and then takes at most steal_batch of them in one raid.
  int steal_batch = 2;
  // Central work sharing: an arrival that finds a busy host with
  // share_threshold or more queued jobs is pushed to another host instead.
  int share_threshold = 1;
};

// Per-class steady-state metrics.
struct ClassMetrics {
  double mean_response = 0.0;  // E[T] = wait + service
  double mean_wait = 0.0;      // E[T] - E[X]
  double mean_number = 0.0;    // E[N] = lambda E[T] (Little)
};

struct PolicyMetrics {
  ClassMetrics shorts;
  ClassMetrics longs;
};

// Build ClassMetrics from a mean response time.
[[nodiscard]] ClassMetrics class_metrics_from_response(double mean_response, double lambda,
                                                       double mean_size);

// Canonical textual identity of a config, suitable as a memo-cache key: the
// arrival rates and the first three raw moments of each size distribution
// (plus the MAP identity when one is set), every double rendered in hexfloat
// so two configs share a key iff they are bit-identical inputs to the
// analysis. Two distributions with equal moments canonicalize equally — by
// design, since the analytic solvers consume only the moments.
// Throws csq::InvalidInputError (via validate()) on malformed configs.
[[nodiscard]] std::string canonical_key(const SystemConfig& config);

}  // namespace csq
