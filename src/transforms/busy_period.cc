#include "transforms/busy_period.h"

#include <string>
#include <utility>

#include "core/status.h"

namespace csq::transforms {

namespace {
void require_stable(const dist::Moments& job, double lambda) {
  if (lambda < 0.0) {
    Diagnostics d;
    d.notes.push_back("lambda = " + std::to_string(lambda));
    throw InvalidInputError("busy period: lambda < 0", std::move(d));
  }
  if (lambda * job.m1 >= 1.0) {
    Diagnostics d;
    d.rho_long = lambda * job.m1;
    throw UnstableError("busy period: rho >= 1, busy period has no finite moments",
                        std::move(d));
  }
}

// W = X_0 + X_1 + ... + X_N with N ~ Poisson(lambda Theta), all independent.
// The excess Y = W - X_0 is compound Poisson; N's factorial moments are
// E[N(N-1)...(N-k+1)] = lambda^k E[Theta^k].
dist::Moments random_sum(const dist::Moments& x, double lambda, const dist::Moments& theta) {
  const double n1 = lambda * theta.m1;
  const double n2 = lambda * lambda * theta.m2;
  const double n3 = lambda * lambda * lambda * theta.m3;
  const double y1 = n1 * x.m1;
  const double y2 = n1 * x.m2 + n2 * x.m1 * x.m1;
  const double y3 = n1 * x.m3 + 3.0 * n2 * x.m1 * x.m2 + n3 * x.m1 * x.m1 * x.m1;
  return {x.m1 + y1, x.m2 + 2.0 * x.m1 * y1 + y2,
          x.m3 + 3.0 * (x.m2 * y1 + x.m1 * y2) + y3};
}

// Busy period started by initial work `w` while Poisson(lambda) arrivals
// each start a B_L (moments `bl`): D = W + the B_L's of the arrivals in W.
dist::Moments delay_cycle(const dist::Moments& w, const dist::Moments& bl, double lambda) {
  const double a = 1.0 + lambda * bl.m1;
  return {a * w.m1, a * a * w.m2 + lambda * bl.m2 * w.m1,
          a * a * a * w.m3 + 3.0 * a * lambda * bl.m2 * w.m2 + lambda * bl.m3 * w.m1};
}
}  // namespace

dist::Moments mg1_busy_period(const dist::Moments& job, double lambda) {
  require_stable(job, lambda);
  const double r = 1.0 - lambda * job.m1;  // 1 - rho
  const double b1 = job.m1 / r;
  const double b2 = job.m2 / (r * r * r);
  const double b3 = job.m3 / (r * r * r * r) +
                    3.0 * lambda * job.m2 * job.m2 / (r * r * r * r * r);
  return {b1, b2, b3};
}

dist::Moments batch_busy_period_window(const dist::Moments& job, double lambda,
                                       const dist::Moments& window) {
  if (window.m1 <= 0.0)
    throw InvalidInputError("batch_busy_period_window: window mean <= 0");
  return delay_cycle(random_sum(job, lambda, window), mg1_busy_period(job, lambda), lambda);
}

dist::Moments batch_busy_period(const dist::Moments& job, double lambda, double delta) {
  if (delta <= 0.0) throw InvalidInputError("batch_busy_period: delta <= 0");
  return batch_busy_period_window(job, lambda, dist::Moments::exponential(1.0 / delta));
}

}  // namespace csq::transforms
