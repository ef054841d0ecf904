#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "analysis/cscq.h"
#include "mg1/mmc.h"
#include "sim/simulator.h"

namespace csq::analysis {
namespace {

SystemConfig with_shorts(const SystemConfig& base, dist::PhaseType shorts, double rho_s) {
  SystemConfig c = base;
  const double mean = shorts.mean();
  c.short_size = std::make_shared<dist::PhaseType>(std::move(shorts));
  c.lambda_short = rho_s / mean;
  return c;
}

TEST(CscqPh, WindowIsFirstOfTwoServices) {
  // Exponential shorts: Theta = Exp(2 mu), exact in one pass. Erlang-2 and
  // C^2 = 4 Coxian shorts: Theta comes from the pair chain, refined by the
  // fixed point over the pair state an arriving long observes.
  const SystemConfig c = SystemConfig::paper_setup(0.5, 0.5, 1.0, 1.0);
  const CscqResult r = analyze_cscq(c);
  EXPECT_NEAR(r.window.m1, 0.5, 1e-10);
  EXPECT_NEAR(r.window.m2, 2.0 * 0.25, 1e-10);
  EXPECT_EQ(r.window_iterations, 1);

  const SystemConfig erl = with_shorts(c, dist::PhaseType::erlang(2, 2.0), 0.5);
  const CscqResult re = analyze_cscq(erl);
  // First completion among the two in-service Erlang-2 shorts: shorter than
  // a full service; the fixed point used more than one pass.
  EXPECT_LT(re.window.m1, 1.0);
  EXPECT_GT(re.window.m1, 0.0);
  EXPECT_GT(re.window_iterations, 1);

  const SystemConfig cox = with_shorts(c, dist::PhaseType::coxian_mean_scv(1.0, 4.0), 0.5);
  const CscqResult rc = analyze_cscq(cox);
  EXPECT_GT(rc.window.m1, 0.0);
  EXPECT_GT(rc.window_iterations, 1);
}

TEST(CscqPh, MassConservedAndRegionsPositive) {
  const SystemConfig base = SystemConfig::paper_setup(1.0, 0.5, 1.0, 1.0, 8.0);
  const SystemConfig c = with_shorts(base, dist::PhaseType::coxian_mean_scv(1.0, 4.0), 1.0);
  const CscqResult r = analyze_cscq(c);
  EXPECT_LT(r.qbd_mass_error, 1e-8);
  EXPECT_GT(r.p_region1, 0.0);
  EXPECT_GT(r.p_region2, 0.0);
  EXPECT_EQ(r.num_phases, 2u * 3u + 2u * 2u * 2u);  // pairs + busy blocks (k=2)
}

TEST(CscqPh, NoLongsIsMPh2AgainstSimulation) {
  // lambda_L -> 0 turns the chain into an exact M/PH/2 queue.
  const SystemConfig base = SystemConfig::paper_setup(1.2, 1e-12, 1.0, 1.0);
  const SystemConfig c = with_shorts(base, dist::PhaseType::erlang(2, 2.0), 1.2);
  const CscqResult r = analyze_cscq(c);
  sim::SimOptions opts;
  opts.total_completions = 1000000;
  const sim::SimResult s = sim::simulate(sim::PolicyKind::kCsCq, c, opts);
  EXPECT_NEAR(r.metrics.shorts.mean_response, s.shorts.mean_response,
              0.02 * s.shorts.mean_response + 2.0 * s.shorts.ci95);
}

struct PhCase {
  const char* name;
  double rho_s, rho_l, scv_l;
  bool erlang;  // Erlang-2 (scv 0.5) vs Coxian (scv 4) shorts
};

// Print the case by name: the default raw-byte dump includes the name
// pointer and padding, which would make the discovered ctest names differ
// between builds.
void PrintTo(const PhCase& g, std::ostream* os) { *os << g.name; }

class CscqPhVsSim : public ::testing::TestWithParam<PhCase> {};

TEST_P(CscqPhVsSim, WithinFivePercent) {
  const PhCase g = GetParam();
  const SystemConfig base = SystemConfig::paper_setup(g.rho_s, g.rho_l, 1.0, 1.0, g.scv_l);
  const dist::PhaseType shorts = g.erlang ? dist::PhaseType::erlang(2, 2.0)
                                          : dist::PhaseType::coxian_mean_scv(1.0, 4.0);
  const SystemConfig c = with_shorts(base, shorts, g.rho_s);
  const CscqResult r = analyze_cscq(c);
  sim::SimOptions opts;
  opts.total_completions = 1000000;
  const sim::SimResult s = sim::simulate(sim::PolicyKind::kCsCq, c, opts);
  EXPECT_NEAR(r.metrics.shorts.mean_response, s.shorts.mean_response,
              0.05 * s.shorts.mean_response + 2.0 * s.shorts.ci95);
  EXPECT_NEAR(r.metrics.longs.mean_response, s.longs.mean_response,
              0.05 * s.longs.mean_response + 2.0 * s.longs.ci95);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CscqPhVsSim,
    ::testing::Values(PhCase{"erlang_mid", 0.9, 0.5, 1.0, true},
                      PhCase{"erlang_highvar_longs", 0.8, 0.5, 8.0, true},
                      PhCase{"coxian_mid", 0.9, 0.5, 1.0, false},
                      PhCase{"coxian_heavy", 1.2, 0.3, 1.0, false}),
    [](const ::testing::TestParamInfo<PhCase>& info) { return info.param.name; });

TEST(CscqPh, InvalidInputs) {
  // Stability uses the PH mean: rho_S = 1.6 > 2 - rho_L with Erlang-2 shorts.
  const SystemConfig base = SystemConfig::paper_setup(1.6, 0.5, 1.0, 1.0);
  EXPECT_THROW((void)analyze_cscq(with_shorts(base, dist::PhaseType::erlang(2, 2.0), 1.6)),
               std::domain_error);
}

}  // namespace
}  // namespace csq::analysis
