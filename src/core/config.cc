#include "core/config.h"

#include <cstdio>
#include <memory>
#include <string>

#include "core/status.h"

#include "core/numeric.h"

namespace csq {

void SystemConfig::validate() const {
  if (!short_size || !long_size)
    throw InvalidInputError("SystemConfig: size distributions must be set");
  if (lambda_short < 0.0 || lambda_long < 0.0)
    throw InvalidInputError("SystemConfig: arrival rates must be nonnegative");
}

void SystemConfig::require_poisson_shorts(const char* who) const {
  if (short_arrivals)
    throw InvalidInputError(std::string(who) +
                            ": short_arrivals (a MAP) is set, but this model assumes "
                            "Poisson short arrivals");
}

SystemConfig SystemConfig::from_loads(double rho_short, double rho_long,
                                      dist::DistPtr short_size, dist::DistPtr long_size) {
  if (!short_size || !long_size)
    throw InvalidInputError("SystemConfig::from_loads: distributions must be set");
  if (rho_short < 0.0 || rho_long < 0.0)
    // Name the values in the message: a negative load collides with the
    // Diagnostics "unset" sentinel, so the payload alone can't show it.
    throw InvalidInputError("SystemConfig::from_loads: loads must be nonnegative (rho_short = " +
                                std::to_string(rho_short) + ", rho_long = " +
                                std::to_string(rho_long) + ")",
                            Diagnostics::loads(rho_short, rho_long));
  SystemConfig c;
  c.short_size = std::move(short_size);
  c.long_size = std::move(long_size);
  c.lambda_short = rho_short / c.short_size->mean();
  c.lambda_long = rho_long / c.long_size->mean();
  return c;
}

SystemConfig SystemConfig::paper_setup(double rho_short, double rho_long, double mean_short,
                                       double mean_long, double long_scv) {
  auto shorts = std::make_shared<dist::PhaseType>(dist::PhaseType::exponential(1.0 / mean_short));
  auto longs = std::make_shared<dist::PhaseType>(
      num::approx_eq(long_scv, 1.0) ? dist::PhaseType::exponential(1.0 / mean_long)
                      : dist::PhaseType::coxian_mean_scv(mean_long, long_scv));
  return from_loads(rho_short, rho_long, std::move(shorts), std::move(longs));
}

ClassMetrics class_metrics_from_response(double mean_response, double lambda,
                                         double mean_size) {
  return {mean_response, mean_response - mean_size, lambda * mean_response};
}

namespace {

// Hexfloat rendering: exact, locale-independent, and equal iff the doubles
// are bit-identical (modulo -0.0 == 0.0, which the analysis cannot tell
// apart either).
std::string hexf(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void append_dist(std::string* key, const char* tag, const dist::Distribution& d) {
  *key += tag;
  *key += "{m1=" + hexf(d.moment(1)) + ",m2=" + hexf(d.moment(2)) +
          ",m3=" + hexf(d.moment(3)) + "}";
}

}  // namespace

std::string canonical_key(const SystemConfig& config) {
  config.validate();
  std::string key;
  key.reserve(160);
  key += "lamS=" + hexf(config.effective_lambda_short());
  key += "|lamL=" + hexf(config.lambda_long);
  key += "|";
  append_dist(&key, "S", *config.short_size);
  key += "|";
  append_dist(&key, "L", *config.long_size);
  if (config.short_arrivals) {
    // A MAP replaces the Poisson stream: fold its full (D0, D1) identity in,
    // element by element — two MAPs with equal mean rate but different
    // burstiness must not collide.
    key += "|MAP{";
    const linalg::Matrix& d0 = config.short_arrivals->d0();
    const linalg::Matrix& d1 = config.short_arrivals->d1();
    for (std::size_t i = 0; i < d0.rows(); ++i)
      for (std::size_t j = 0; j < d0.cols(); ++j)
        key += hexf(d0(i, j)) + "," + hexf(d1(i, j)) + ";";
    key += "}";
  }
  return key;
}

}  // namespace csq
