#include "mg1/mmc.h"

#include <cmath>

#include "core/status.h"
#include "obs/obs.h"

namespace csq::mg1 {

double erlang_c(int c, double a) {
  if (c < 1 || a < 0.0) throw InvalidInputError("erlang_c: bad params");
  if (a >= c) throw UnstableError("erlang_c: offered load >= c (unstable)");
  // Iteratively compute the Erlang-B blocking probability, then convert.
  double b = 1.0;
  for (int k = 1; k <= c; ++k) b = a * b / (k + a * b);
  CSQ_OBS_COUNT_N(kMg1ErlangTerms, c);
  return b / (1.0 - (a / c) * (1.0 - b));
}

double mmc_wait(int c, double lambda, double mu) {
  if (mu <= 0.0) throw InvalidInputError("mmc_wait: mu <= 0");
  const double a = lambda / mu;
  const double pw = erlang_c(c, a);
  return pw / (c * mu - lambda);
}

double mmc_response(int c, double lambda, double mu) { return 1.0 / mu + mmc_wait(c, lambda, mu); }

}  // namespace csq::mg1
