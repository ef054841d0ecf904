// The short-host QBD of analysis/csid.cc, rebuilt in tests from the same
// public pieces (paper setup, three-moment busy-period fits) so a test can
// hold the chain itself: its R, its boundary system. The R of this chain
// has the two busy periods' slow phases as eigenvalues close together, the
// hardest spectra the analyses produce.
#pragma once

#include <cstddef>

#include "core/config.h"
#include "dist/moment_match.h"
#include "qbd/qbd.h"
#include "transforms/busy_period.h"

namespace csq::test {

// Modulator phases I, S0, SW, the B_L stages, the B_{N+1}(mu_S) stages;
// exponential shorts of mean 1 arrive at rate lambda_S in every phase but I.
inline qbd::Model csid_chain(double rho_s, double rho_l, double mean_l, double scv_l) {
  using qbd::Matrix;
  const SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, 1.0, mean_l, scv_l);
  const double ls = c.lambda_short, ll = c.lambda_long, mu_s = 1.0;
  const dist::Moments xl = c.long_size->moments();
  const dist::PhaseType bl = dist::fit_ph(transforms::mg1_busy_period(xl, ll));
  const dist::PhaseType bm = dist::fit_ph(transforms::batch_busy_period(xl, ll, mu_s));
  const std::size_t kl = bl.num_phases(), m = 3 + kl + bm.num_phases();
  Matrix mod(m, m);
  for (std::size_t i = 0; i < kl; ++i) mod(0, 3 + i) = ll * bl.alpha()[i];
  mod(0, 1) = ls;
  mod(1, 0) = mu_s;
  mod(1, 2) = ll;
  for (std::size_t j = 0; j < bm.num_phases(); ++j) mod(2, 3 + kl + j) = mu_s * bm.alpha()[j];
  const auto add_busy = [&mod](const dist::PhaseType& ph, std::size_t first) {
    for (std::size_t i = 0; i < ph.num_phases(); ++i) {
      for (std::size_t j = 0; j < ph.num_phases(); ++j)
        if (i != j) mod(first + i, first + j) += ph.subgenerator()(i, j);
      mod(first + i, 0) += ph.exit_rates()[i];
    }
  };
  add_busy(bl, 3);
  add_busy(bm, 3 + kl);
  qbd::Model model;
  model.a0 = Matrix(m, m);
  for (std::size_t i = 1; i < m; ++i) model.a0(i, i) = ls;
  model.a1 = mod;
  model.a2 = Matrix(m, m);
  for (std::size_t i = 0; i < m; ++i) model.a2(i, i) = mu_s;
  model.first_down = model.a2;
  model.boundary.resize(1);
  model.boundary[0].local = mod;
  model.boundary[0].up = model.a0;
  return model;
}

}  // namespace csq::test
