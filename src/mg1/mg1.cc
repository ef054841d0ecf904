#include "mg1/mg1.h"

#include <string>
#include <utility>

#include "core/status.h"

#include "core/faultpoint.h"

namespace csq::mg1 {

namespace {
double check_rho(double lambda, const dist::Moments& job) {
  if (lambda < 0.0) throw InvalidInputError("mg1: lambda < 0");
  const double rho = lambda * job.m1;
  if (rho >= 1.0) {
    Diagnostics d;
    d.rho_long = rho;  // the M/G/1 queues here model the long (donor) class
    throw UnstableError("mg1: rho = " + std::to_string(rho) + " >= 1 (unstable)",
                        std::move(d));
  }
  return rho;
}
}  // namespace

double pk_wait(double lambda, const dist::Moments& job) {
  const double rho = check_rho(lambda, job);
  CSQ_FAULT_POINT(kMg1PkWait);
  return lambda * job.m2 / (2.0 * (1.0 - rho));
}

double pk_response(double lambda, const dist::Moments& job) {
  return job.m1 + pk_wait(lambda, job);
}

double setup_wait(double lambda, const dist::Moments& job, const dist::Moments& setup) {
  check_rho(lambda, job);
  CSQ_FAULT_POINT(kMg1SetupWait);
  return pk_wait(lambda, job) +
         (2.0 * setup.m1 + lambda * setup.m2) / (2.0 * (1.0 + lambda * setup.m1));
}

double setup_response(double lambda, const dist::Moments& job, const dist::Moments& setup) {
  return job.m1 + setup_wait(lambda, job, setup);
}

double mm1_response(double lambda, double mu) {
  if (lambda >= mu) {
    Diagnostics d;
    d.rho_long = lambda / mu;
    throw UnstableError("mm1: lambda >= mu (unstable)", std::move(d));
  }
  return 1.0 / (mu - lambda);
}

double pk_wait_second_moment(double lambda, const dist::Moments& job) {
  const double rho = check_rho(lambda, job);
  const double w1 = pk_wait(lambda, job);
  return 2.0 * w1 * w1 + lambda * job.m3 / (3.0 * (1.0 - rho));
}

}  // namespace csq::mg1
