// Golden pins for the paper's figure operating points (Figures 3-6).
//
// Every number below was produced by this repository's own exact analysis
// (analyze_cscq / analyze_csid / analyze_dedicated) and committed as a
// golden: the suite does not re-derive the values, it detects drift. A
// change that moves any pinned mean response by more than one part in 10^6
// fails `ctest -L golden` and must either be fixed or re-pin the goldens in
// the same commit with an explanation.
//
// The operating points cover both workloads the paper plots: exponential
// long jobs (Figures 3-4) and 2-stage Coxian longs with C^2 = 8
// (Figures 5-6), at short loads below, near, and beyond the Dedicated
// frontier rho_S = 1. Points where a policy is outside its stability region
// pin the *rejection* instead (UnstableError), so frontier drift is caught
// too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/csid.h"
#include "analysis/dedicated.h"
#include "core/config.h"
#include "core/solver.h"
#include "core/status.h"
#include "core/sweep.h"
#include "dist/map_process.h"
#include "dist/phase_type.h"
#include "sim/simulator.h"

namespace {

using namespace csq;

// Relative tolerance for a pinned value: tight enough that a perturbed
// busy-period moment, phase-type fit, or QBD tolerance shows up, loose
// enough to absorb compiler/libm variation across rebuilds.
constexpr double kRelTol = 1e-6;

void expect_golden(double actual, double golden) {
  EXPECT_NEAR(actual, golden, std::abs(golden) * kRelTol);
}

struct PinnedPoint {
  const char* tag;  // figure + operating point, for failure messages
  double rho_s, rho_l, mean_l, scv_l;
  // NaN = policy unstable at this point (the pin is the rejection).
  double cscq_short, cscq_long;
  double csid_short, csid_long;
  double ded_short, ded_long;
};

// gtest otherwise prints a parameter as its raw bytes, the tag pointer
// included, into `--gtest_list_tests`; the discovered ctest names would then
// change with the load address on every build.
void PrintTo(const PinnedPoint& p, std::ostream* os) { *os << p.tag; }

constexpr double kUnstable = std::numeric_limits<double>::quiet_NaN();

// clang-format off
const PinnedPoint kPins[] = {
    // Figure 3: equal mean sizes (1/1), exponential, rho_L = 0.5, at the
    // Dedicated frontier rho_S = 1 (the paper's headline comparison).
    {"fig3 rho_S=1.0 rho_L=0.5 exp 1/1", 1.0, 0.5, 1.0, 1.0,
     2.5384248764725692, 2.2414250503734587,
     3.8077995749228268, 2.5,
     kUnstable, kUnstable},
    // Figure 4 panel (b): shorts/longs 1/10, exponential, rho_L = 0.5.
    {"fig4 rho_S=0.5 rho_L=0.5 exp 1/10", 0.5, 0.5, 10.0, 1.0,
     1.4677035546350075, 20.055058775844572,
     1.5195780267208951, 20.333333333333332,
     2.0, 20.0},
    {"fig4 rho_S=0.9 rho_L=0.5 exp 1/10", 0.9, 0.5, 10.0, 1.0,
     3.0969795568265628, 20.169075232550227,
     3.5790878244835156, 20.473684210526315,
     10.000000000000002, 20.0},
    {"fig4 rho_S=1.2 rho_L=0.5 exp 1/10", 1.2, 0.5, 10.0, 1.0,
     10.073928471209303, 20.31217344791121,
     25.396424461300626, 20.545454545454547,
     kUnstable, kUnstable},
    // Figure 5 panel (b): Coxian longs with C^2 = 8.
    {"fig5 rho_S=0.9 rho_L=0.5 cx8 1/10", 0.9, 0.5, 10.0, 8.0,
     3.6374514323514329, 55.164318062857497,
     4.0284627350986479, 55.473684210526315,
     10.000000000000002, 55.0},
    {"fig5 rho_S=1.2 rho_L=0.5 cx8 1/10", 1.2, 0.5, 10.0, 8.0,
     29.738322977613084, 55.309330542908015,
     69.425760788463748, 55.545454545454547,
     kUnstable, kUnstable},
    // Figure 6: rho_S = 1.5 fixed, response vs rho_L. CS-ID's frontier at
    // rho_S = 1.5 is rho_L = 1/6, so it is pinned stable at 0.1 and pinned
    // *unstable* at 0.3; CS-CQ holds until rho_L = 0.5.
    {"fig6 rho_S=1.5 rho_L=0.1 cx8 1/10", 1.5, 0.1, 10.0, 8.0,
     7.0126134838035137, 15.342556280052438,
     44.677320580689049, 15.599999999999998,
     kUnstable, kUnstable},
    {"fig6 rho_S=1.5 rho_L=0.3 cx8 1/10", 1.5, 0.3, 10.0, 8.0,
     37.606977625377851, 29.686401508313619,
     kUnstable, kUnstable,
     kUnstable, kUnstable},
};
// clang-format on

class GoldenFigures : public ::testing::TestWithParam<PinnedPoint> {};

TEST_P(GoldenFigures, CscqMatchesPin) {
  const PinnedPoint& p = GetParam();
  SCOPED_TRACE(p.tag);
  const SystemConfig c = SystemConfig::paper_setup(p.rho_s, p.rho_l, 1.0, p.mean_l, p.scv_l);
  if (std::isnan(p.cscq_short)) {
    EXPECT_THROW((void)analysis::analyze_cscq(c), UnstableError);
    return;
  }
  const analysis::CscqResult r = analysis::analyze_cscq(c);
  expect_golden(r.metrics.shorts.mean_response, p.cscq_short);
  expect_golden(r.metrics.longs.mean_response, p.cscq_long);
}

TEST_P(GoldenFigures, CsidMatchesPin) {
  const PinnedPoint& p = GetParam();
  SCOPED_TRACE(p.tag);
  const SystemConfig c = SystemConfig::paper_setup(p.rho_s, p.rho_l, 1.0, p.mean_l, p.scv_l);
  if (std::isnan(p.csid_short)) {
    EXPECT_THROW((void)analysis::analyze_csid(c), UnstableError);
    return;
  }
  const analysis::CsidResult r = analysis::analyze_csid(c);
  expect_golden(r.metrics.shorts.mean_response, p.csid_short);
  expect_golden(r.metrics.longs.mean_response, p.csid_long);
}

TEST_P(GoldenFigures, DedicatedMatchesPin) {
  const PinnedPoint& p = GetParam();
  SCOPED_TRACE(p.tag);
  const SystemConfig c = SystemConfig::paper_setup(p.rho_s, p.rho_l, 1.0, p.mean_l, p.scv_l);
  if (std::isnan(p.ded_short)) {
    EXPECT_THROW((void)analysis::analyze_dedicated(c), UnstableError);
    return;
  }
  const PolicyMetrics m = analysis::analyze_dedicated(c);
  expect_golden(m.shorts.mean_response, p.ded_short);
  expect_golden(m.longs.mean_response, p.ded_long);
}

INSTANTIATE_TEST_SUITE_P(OperatingPoints, GoldenFigures, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<PinnedPoint>& info) {
                           return "Point" + std::to_string(info.index);
                         });

// The shared sweep grids are part of the golden surface too: the figure
// drivers and any pinned sweep consumers must sample identical abscissae.
TEST(GoldenGrids, FigureGridsArePinned) {
  const std::vector<double> rs = fig_grid_rho_short();
  ASSERT_EQ(rs.size(), 29u);
  EXPECT_DOUBLE_EQ(rs.front(), 0.05);
  EXPECT_DOUBLE_EQ(rs.back(), 1.45);
  const std::vector<double> rls = fig_grid_rho_long_shorts();
  ASSERT_EQ(rls.size(), 25u);
  EXPECT_DOUBLE_EQ(rls.front(), 0.01);
  EXPECT_DOUBLE_EQ(rls.back(), 0.49);
  const std::vector<double> rll = fig_grid_rho_long_longs();
  ASSERT_EQ(rll.size(), 25u);
  EXPECT_DOUBLE_EQ(rll.front(), 0.02);
  EXPECT_DOUBLE_EQ(rll.back(), 0.96);
}

// Every pin through one warm thread — each solve reusing the QBD scratch the
// solves before it left behind, the way the figure drivers run — must match
// the same point analyzed on a fresh thread. The comparison is exact (==),
// not kRelTol: scratch reuse is not allowed to move a result by even one
// bit.
TEST(GoldenFigures, WarmThreadAnalysisReproducesEveryPinBitForBit) {
  constexpr Policy kPolicies[] = {Policy::kCsCq, Policy::kCsId};
  std::vector<AnalyzeOutcome> warm;
  std::thread([&] {
    for (const PinnedPoint& p : kPins)
      for (Policy policy : kPolicies)
        warm.push_back(try_analyze(
            policy, SystemConfig::paper_setup(p.rho_s, p.rho_l, 1.0, p.mean_l, p.scv_l)));
  }).join();
  ASSERT_EQ(warm.size(), std::size(kPins) * std::size(kPolicies));

  std::size_t idx = 0;
  for (const PinnedPoint& p : kPins) {
    SCOPED_TRACE(p.tag);
    const SystemConfig c = SystemConfig::paper_setup(p.rho_s, p.rho_l, 1.0, p.mean_l, p.scv_l);
    for (Policy policy : kPolicies) {
      const AnalyzeOutcome& out = warm[idx++];
      const double golden_short = policy == Policy::kCsCq ? p.cscq_short : p.csid_short;
      const double golden_long = policy == Policy::kCsCq ? p.cscq_long : p.csid_long;
      if (std::isnan(golden_short)) {
        EXPECT_FALSE(out.ok()) << policy_label(policy);
        continue;
      }
      ASSERT_TRUE(out.ok()) << policy_label(policy) << ": " << out.status.message;
      AnalyzeOutcome fresh;
      std::thread([&] { fresh = try_analyze(policy, c); }).join();
      ASSERT_TRUE(fresh.ok()) << policy_label(policy) << ": " << fresh.status.message;
      EXPECT_EQ(out.metrics.shorts.mean_response, fresh.metrics.shorts.mean_response);
      EXPECT_EQ(out.metrics.longs.mean_response, fresh.metrics.longs.mean_response);
      expect_golden(out.metrics.shorts.mean_response, golden_short);
      expect_golden(out.metrics.longs.mean_response, golden_long);
    }
  }
}

// ---------------------------------------------------------------------------
// Full-precision pins of the CS-CQ chain itself.
//
// The figure pins above guard the plotted mean responses at 1e-6. These
// guard every output the chain produces at 1e-12 relative: both mean
// responses, the region probabilities behind the long-job setup time, and
// the short-count tail. A rebuilt chain must reproduce the same arithmetic,
// not just the same curves. The values are hexfloat literals generated once
// from the library; the suite never re-derives them. The short-count decay
// and p99 columns are read on demand from the solved chain; each decay pin
// is within 1.2e-16 of the 60 plain Gelfand squarings tail_decay_rate()
// runs.
//
// Paper-model rows: the figure points above plus the grid rho_S x rho_L x
// C^2_L = {0.3, 0.6, 0.9, 1.1, 1.25} x {0.2, 0.5, 0.7} x {1, 8} at mean
// sizes 1/1. Extension rows: Erlang-2 and C^2 = 4 Coxian short sizes, and
// bursty MMPP short arrivals.
constexpr double kChainRelTol = 1e-12;

void expect_pinned(double actual, double pin) {
  EXPECT_NEAR(actual, pin, std::abs(pin) * kChainRelTol);
}

struct ChainPin {
  const char* tag;
  double rho_s, rho_l, mean_l, scv_l;
  double short_resp, long_resp;
  double p_region1, p_region2, short_count_decay;
  std::size_t short_count_p99;
};

void PrintTo(const ChainPin& p, std::ostream* os) { *os << p.tag; }

// clang-format off
const ChainPin kChainPins[] = {
    {"fig3 1.0/0.5 exp 1/1", 1, 0.5, 1, 1,
     0x1.44eb1b39e995ap+1, 0x1.1ee7041be52d6p+1,
     0x1.08c7df20d6953p-2, 0x1.8b8d01650f111p-3, 0x1.79f89f6c2ae18p-1, 14},
    {"fig4 0.5/0.5 exp 1/10", 0.5, 0.5, 10, 1,
     0x1.77bb6b8f61bc1p+0, 0x1.40e1854f99c39p+4,
     0x1.c79eac198f1b2p-2, 0x1.b80a5ce119b53p-5, 0x1.f1fdd15c9e767p-2, 5},
    {"fig4 0.9/0.5 exp 1/10", 0.9, 0.5, 10, 1,
     0x1.8c69d37c7e7d7p+1, 0x1.42b4883b25e38p+4,
     0x1.52ddf136871dcp-2, 0x1.51d2105d68bf6p-3, 0x1.a99aa7fd17161p-1, 18},
    {"fig4 1.2/0.5 exp 1/10", 1.2, 0.5, 10, 1,
     0x1.425d9f3dd70fbp+3, 0x1.44fea995d76eap+4,
     0x1.80ab351448ae8p-3, 0x1.37de6f793a33fp-2, 0x1.e90958a53df4fp-1, 83},
    {"fig5 0.9/0.5 cx8 1/10", 0.9, 0.5, 10, 8,
     0x1.d198022f8d867p+1, 0x1.b95085fd10f02p+5,
     0x1.57bd017787f26p-2, 0x1.4850c4f14e238p-3, 0x1.c20a0704e5ab8p-1, 25},
    {"fig5 1.2/0.5 cx8 1/10", 1.2, 0.5, 10, 8,
     0x1.dbd02bc1b8cbdp+4, 0x1.ba79824aabbc2p+5,
     0x1.867db55443ecap-3, 0x1.35075c9eb32e9p-2, 0x1.fa1ea3f53b3ap-1, 315},
    {"fig6 1.5/0.1 cx8 1/10", 1.5, 0.1, 10, 8,
     0x1.c0cea8c9381a4p+2, 0x1.eaf638967bba8p+3,
     0x1.2233448a8fa2p-2, 0x1.3a2114aa81c5ep-1, 0x1.f6f93305b0c27p-1, 142},
    {"fig6 1.5/0.3 cx8 1/10", 1.5, 0.3, 10, 8,
     0x1.2cdb17163f01dp+5, 0x1.dafb8025e25fp+4,
     0x1.1cbfe57b23f41p-3, 0x1.1af7d416a2a96p-1, 0x1.fbe32c219b349p-1, 465},
    {"grid 0.3/0.2 C2=1 1/1", 0.3, 0.2, 1, 1,
     0x1.101253cfbb69fp+0, 0x1.459725ea43c8fp+0,
     0x1.87b5ed125a49cp-1, 0x1.043570696a5b4p-5, 0x1.9918a875453fep-3, 2},
    {"grid 0.3/0.2 C2=8 1/1", 0.3, 0.2, 1, 8,
     0x1.12b59e430695ap+0, 0x1.12b989400d836p+1,
     0x1.88295e660feaap-1, 0x1.fb4c8bacbc9b3p-6, 0x1.15dc903741a2p-2, 2},
    {"grid 0.3/0.5 C2=1 1/1", 0.3, 0.5, 1, 1,
     0x1.26a42deeb7a97p+0, 0x1.0355c7c19665dp+1,
     0x1.e551c1f34cd17p-2, 0x1.55831a3c28bap-6, 0x1.045f76be6e92fp-2, 3},
    {"grid 0.3/0.5 C2=8 1/1", 0.3, 0.5, 1, 8,
     0x1.2a194be1f70f6p+0, 0x1.6198f3d359453p+2,
     0x1.e670c2ca6bacep-2, 0x1.472975e10424dp-6, 0x1.273e24a5a22a9p-2, 3},
    {"grid 0.3/0.7 C2=1 1/1", 0.3, 0.7, 1, 1,
     0x1.3bcf9bce2ba4ep+0, 0x1.ae83259ce5f59p+1,
     0x1.20bdb1dbb031ep-2, 0x1.b58bf9e176a29p-7, 0x1.20b87fa0d70d3p-2, 3},
    {"grid 0.3/0.7 C2=8 1/1", 0.3, 0.7, 1, 8,
     0x1.3da313b5b58b4p+0, 0x1.70ee84a2f685ep+3,
     0x1.214fa6fa4f8d6p-2, 0x1.a8083e280a8ccp-7, 0x1.2ed2aa1d8583fp-2, 3},
    {"grid 0.6/0.2 C2=1 1/1", 0.6, 0.2, 1, 1,
     0x1.32f82354ef8d6p+0, 0x1.53fb1963625f4p+0,
     0x1.59a9485b92028p-1, 0x1.d1024eda65bffp-4, 0x1.83f5631c6e5b3p-2, 4},
    {"grid 0.6/0.2 C2=8 1/1", 0.6, 0.2, 1, 8,
     0x1.3d3a86802248dp+0, 0x1.19baf3b94389p+1,
     0x1.5b5381c4b62d2p-1, 0x1.c4e67ec675fep-4, 0x1.094c973c183f3p-1, 4},
    {"grid 0.6/0.5 C2=1 1/1", 0.6, 0.5, 1, 1,
     0x1.73449e42c0045p+0, 0x1.0c2deb1254453p+1,
     0x1.9e90a76d5dd66p-2, 0x1.37cab5086d51fp-4, 0x1.efd0b997532a9p-2, 5},
    {"grid 0.6/0.5 C2=8 1/1", 0.6, 0.5, 1, 8,
     0x1.8658dcc2db124p+0, 0x1.65c52556d9e46p+2,
     0x1.a3adaa9261b9cp-2, 0x1.276dde2b94146p-4, 0x1.20791efe50e2ep-1, 6},
    {"grid 0.6/0.7 C2=1 1/1", 0.6, 0.7, 1, 1,
     0x1.ba49e50c2fe08p+0, 0x1.b8e6c4edf1ebp+1,
     0x1.ddbf03e0872fbp-3, 0x1.94e67940ce436p-5, 0x1.187f9abe62aa3p-1, 6},
    {"grid 0.6/0.7 C2=8 1/1", 0.6, 0.7, 1, 8,
     0x1.c7e9af697840cp+0, 0x1.736553ab9c6e4p+3,
     0x1.e4003fdbbc408p-3, 0x1.825e1361f8252p-5, 0x1.2beeaaf8ab1d2p-1, 7},
    {"grid 0.9/0.2 C2=1 1/1", 0.9, 0.2, 1, 1,
     0x1.778fba41a107cp+0, 0x1.68bada70f0bf6p+0,
     0x1.1743ab636402p-1, 0x1.d9f2a80af16d1p-3, 0x1.156aac80440d1p-1, 7},
    {"grid 0.9/0.2 C2=8 1/1", 0.9, 0.2, 1, 8,
     0x1.977ba27259e12p+0, 0x1.23ee1813a6f8fp+1,
     0x1.1a0c32b56cfa1p-1, 0x1.cfd3a4b216a12p-3, 0x1.6dbaae1124e7p-1, 8},
    {"grid 0.9/0.5 C2=1 1/1", 0.9, 0.5, 1, 1,
     0x1.0f4300e65eab7p+1, 0x1.1987b7bdf820ap+1,
     0x1.33c242103efb4p-2, 0x1.46c92fe601a13p-3, 0x1.5c5592dbc977fp-1, 10},
    {"grid 0.9/0.5 C2=8 1/1", 0.9, 0.5, 1, 8,
     0x1.43e5396188fc3p+1, 0x1.6c20eacb20ef1p+2,
     0x1.3df1534df1114p-2, 0x1.367de11ce4b68p-3, 0x1.973651c9af9b7p-1, 15},
    {"grid 0.9/0.7 C2=1 1/1", 0.9, 0.7, 1, 1,
     0x1.9417a5a6db63cp+1, 0x1.c95672ad720bdp+1,
     0x1.3ff54cb21f8eap-3, 0x1.b435c743f72dep-4, 0x1.8d71a7206d0b8p-1, 16},
    {"grid 0.9/0.7 C2=8 1/1", 0.9, 0.7, 1, 8,
     0x1.e6aee1a369b16p+1, 0x1.773bae89ee403p+3,
     0x1.50a5d1b5dcc3ap-3, 0x1.9b7c1ea6b8f29p-4, 0x1.b1e1b007c131fp-1, 22},
    {"grid 1.1/0.2 C2=1 1/1", 1.1, 0.2, 1, 1,
     0x1.cbaa1fdf92069p+0, 0x1.79511b1e43a06p+0,
     0x1.c45f527182643p-2, 0x1.4d7acc52fdd36p-2, 0x1.4a8498fbd6b16p-1, 10},
    {"grid 1.1/0.2 C2=8 1/1", 1.1, 0.2, 1, 8,
     0x1.05a7cacff795cp+1, 0x1.2c365f151d4f8p+1,
     0x1.ca14d88b55a02p-2, 0x1.484a23de6c575p-2, 0x1.9c080d5f8216p-1, 14},
    {"grid 1.1/0.5 C2=1 1/1", 1.1, 0.5, 1, 1,
     0x1.96aca9df928bep+1, 0x1.24b6eecc7b248p+1,
     0x1.b49113384dba7p-3, 0x1.d5f25706283b8p-3, 0x1.962382348d20bp-1, 18},
    {"grid 1.1/0.5 C2=8 1/1", 1.1, 0.5, 1, 8,
     0x1.1e1959665886bp+2, 0x1.71bf604b14dccp+2,
     0x1.c813f69d6467ap-3, 0x1.c6566de87c793p-3, 0x1.ca1bb9b80817cp-1, 33},
    {"grid 1.1/0.7 C2=1 1/1", 1.1, 0.7, 1, 1,
     0x1.b4abbbdfff416p+2, 0x1.d84152457b6a9p+1,
     0x1.61803ac9f19b6p-4, 0x1.442f5285cc71cp-3, 0x1.cae6c250061bap-1, 40},
    {"grid 1.1/0.7 C2=8 1/1", 1.1, 0.7, 1, 8,
     0x1.6f3f642204e25p+3, 0x1.7b07f50e5515ap+3,
     0x1.7d9ce219acb34p-4, 0x1.39c5e525e5f97p-3, 0x1.e76166b1fe666p-1, 81},
    {"grid 1.25/0.2 C2=1 1/1", 1.25, 0.2, 1, 1,
     0x1.1afeb02cc9e6p+1, 0x1.86f5eb0034b6p+0,
     0x1.6d0d5331e1d98p-2, 0x1.9cdc9d1878802p-2, 0x1.71bc61d189e1bp-1, 14},
    {"grid 1.25/0.2 C2=8 1/1", 1.25, 0.2, 1, 8,
     0x1.4f536f3877b7ap+1, 0x1.33171efb95fbcp+1,
     0x1.720b40388036ep-2, 0x1.9852dce3e8886p-2, 0x1.b4f7071dcc264p-1, 21},
    {"grid 1.25/0.5 C2=1 1/1", 1.25, 0.5, 1, 1,
     0x1.47a2c61924122p+2, 0x1.2e38d78ba0682p+1,
     0x1.1c728745f97ep-3, 0x1.27d2304a69011p-2, 0x1.be8d971a4d21fp-1, 32},
    {"grid 1.25/0.5 C2=8 1/1", 1.25, 0.5, 1, 8,
     0x1.06592eac6e56ap+3, 0x1.76b1739140864p+2,
     0x1.29d18dd7ef386p-3, 0x1.2278fa766d1dcp-2, 0x1.e171f1f9d0851p-1, 65},
    {"grid 1.25/0.7 C2=1 1/1", 1.25, 0.7, 1, 1,
     0x1.d6f6ee1821de6p+4, 0x1.e5bf4940c1a5bp+1,
     0x1.79d06c92b4ac8p-6, 0x1.a420d980a36a7p-3, 0x1.f2f979de031f3p-1, 176},
    {"grid 1.25/0.7 C2=8 1/1", 1.25, 0.7, 1, 8,
     0x1.f3e7b78a4dd18p+5, 0x1.7eacf692dbb22p+3,
     0x1.96d81c91f6eacp-6, 0x1.a170bafbf756cp-3, 0x1.fa6b7789648eep-1, 405},
};
// clang-format on

class ChainPins : public ::testing::TestWithParam<ChainPin> {};

TEST_P(ChainPins, PaperChainMatchesPin) {
  const ChainPin& p = GetParam();
  SCOPED_TRACE(p.tag);
  const analysis::CscqResult r = analysis::analyze_cscq(
      SystemConfig::paper_setup(p.rho_s, p.rho_l, 1.0, p.mean_l, p.scv_l));
  expect_pinned(r.metrics.shorts.mean_response, p.short_resp);
  expect_pinned(r.metrics.longs.mean_response, p.long_resp);
  expect_pinned(r.p_region1, p.p_region1);
  expect_pinned(r.p_region2, p.p_region2);
  expect_pinned(r.chain.tail_decay_rate(), p.short_count_decay);
  EXPECT_EQ(r.chain.level_quantile(0.99), p.short_count_p99);
}

// A pin is only as good as the solve behind it: tightening the R tolerance
// from the default 1e-13 to 1e-16 must move neither mean response by more
// than the pin tolerance, and R must solve its equation to near rounding.
// An R solver that stops on a small update, not a small remainder, leaves
// an error far above its tolerance near the frontier and fails here.
TEST_P(ChainPins, AnswerIsInsensitiveToTheRTolerance) {
  const ChainPin& p = GetParam();
  SCOPED_TRACE(p.tag);
  const SystemConfig c = SystemConfig::paper_setup(p.rho_s, p.rho_l, 1.0, p.mean_l, p.scv_l);
  analysis::CscqOptions tight;
  tight.qbd.tolerance = 1e-16;
  const analysis::CscqResult r = analysis::analyze_cscq(c);
  const analysis::CscqResult t = analysis::analyze_cscq(c, tight);
  expect_pinned(r.metrics.shorts.mean_response, t.metrics.shorts.mean_response);
  expect_pinned(r.metrics.longs.mean_response, t.metrics.longs.mean_response);
  EXPECT_LE(r.chain.stats.residual, 5e-14);
}

INSTANTIATE_TEST_SUITE_P(Grid, ChainPins, ::testing::ValuesIn(kChainPins),
                         [](const ::testing::TestParamInfo<ChainPin>& info) {
                           return "Point" + std::to_string(info.index);
                         });

// Pinned outputs of the extension chains (no short-count tail: the mean
// responses and region probabilities are what their benches report).
struct ExtensionOutputs {
  double short_resp, long_resp, p_region1, p_region2;
};

void expect_pinned(const ExtensionOutputs& actual, const ExtensionOutputs& pin) {
  expect_pinned(actual.short_resp, pin.short_resp);
  expect_pinned(actual.long_resp, pin.long_resp);
  expect_pinned(actual.p_region1, pin.p_region1);
  expect_pinned(actual.p_region2, pin.p_region2);
}

enum class ShortSizes { kErlang2, kCoxian4 };

struct PhShortsPin {
  const char* tag;
  ShortSizes shorts;
  double rho_s, rho_l, scv_l;
  ExtensionOutputs out;
  double window_m1;  // mean B_{N+1} accumulation window
};

// clang-format off
const PhShortsPin kPhShortsPins[] = {
    {"erlang2 0.9/0.5 C2=1", ShortSizes::kErlang2, 0.9, 0.5, 1,
     {0x1.e7d2fb2fba4ep+0, 0x1.143d515fedbfap+1,
      0x1.382f0dca3a1dcp-2, 0x1.4b45940a6fc5dp-3}, 0x1.a69f0cf8747bap-2},
    {"erlang2 0.8/0.5 C2=8", ShortSizes::kErlang2, 0.8, 0.5, 8,
     {0x1.d7cce76fd580ep+0, 0x1.67b4cf6f3db8dp+2,
      0x1.67a22297f87bep-2, 0x1.f956425bb86d3p-4}, 0x1.a602bd811824p-2},
    {"erlang2 1.2/0.3 C2=1", ShortSizes::kErlang2, 1.2, 0.3, 1,
     {0x1.1567bc36521c4p+1, 0x1.a759a7c19f9ecp+0,
      0x1.3ed0195cc8a0cp-2, 0x1.6260e28853c3dp-2}, 0x1.a4089e0000ca4p-2},
    {"erlang2 1/0.5 C2=8", ShortSizes::kErlang2, 1, 0.5, 8,
     {0x1.7326664ec01d2p+1, 0x1.6bc6ef085905p+2,
      0x1.17a89f843b47p-2, 0x1.81224ae616a56p-3}, 0x1.a702ad2b0894cp-2},
    {"coxian4 0.9/0.5 C2=1", ShortSizes::kCoxian4, 0.9, 0.5, 1,
     {0x1.9a09025d994e4p+1, 0x1.325cfc816ce2ep+1,
      0x1.26f2b0d537568p-2, 0x1.3a8c69bef04c7p-3}, 0x1.8535467af992ap-1},
    {"coxian4 0.8/0.5 C2=8", ShortSizes::kCoxian4, 0.8, 0.5, 8,
     {0x1.895936d96d076p+1, 0x1.73a1f52bca77dp+2,
      0x1.57fae6d5c3a74p-2, 0x1.e5f09bd5d3d9ap-4}, 0x1.883e892f2b93ep-1},
    {"coxian4 1.2/0.3 C2=1", ShortSizes::kCoxian4, 1.2, 0.3, 1,
     {0x1.041de6f2caa2ep+2, 0x1.f597c8c1cbd8cp+0,
      0x1.3071319eccf18p-2, 0x1.4c6007c59e002p-2}, 0x1.9ab12e1d85b8cp-1},
    {"coxian4 1/0.5 C2=8", ShortSizes::kCoxian4, 1, 0.5, 8,
     {0x1.4515838a7861ep+2, 0x1.7cdf0004f7e02p+2,
      0x1.061738da641f3p-2, 0x1.6a9f7d97fa123p-3}, 0x1.836c1f8616148p-1},
};

struct MapArrivalsPin {
  const char* tag;
  double rho_s, rho_l, scv_l;
  double peak_to_mean, high_fraction, high_sojourn;  // MapProcess::bursty knobs
  ExtensionOutputs out;
};

const MapArrivalsPin kMapArrivalsPins[] = {
    {"mmpp 1/0.5 C2=8 bursty(4,0.1,3)", 1, 0.5, 8, 4, 0.1, 3,
     {0x1.08960b6581d78p+3, 0x1.70622cde5195fp+2,
      0x1.f3ba6435cd43bp-3, 0x1.a36ae308289acp-3}},
    {"mmpp 0.9/0.5 C2=8 bursty(3,0.2,10)", 0.9, 0.5, 8, 3, 0.2, 10,
     {0x1.73591b5aa171bp+3, 0x1.6ef809c58ff72p+2,
      0x1.107f63a7008e3p-2, 0x1.7f342d5b32502p-3}},
    {"mmpp 0.6/0.3 C2=1 bursty(2,0.25,5)", 0.6, 0.3, 1, 2, 0.25, 5,
     {0x1.7b160460f8acp+0, 0x1.85dced4423f8bp+0,
      0x1.22c89adace7afp-1, 0x1.d65ff7458502p-4}},
};
// clang-format on

TEST(ChainPins, PhaseTypeShortsMatchPins) {
  for (const PhShortsPin& p : kPhShortsPins) {
    SCOPED_TRACE(p.tag);
    SystemConfig c = SystemConfig::paper_setup(p.rho_s, p.rho_l, 1.0, 1.0, p.scv_l);
    dist::PhaseType shorts = p.shorts == ShortSizes::kErlang2
                                 ? dist::PhaseType::erlang(2, 2.0)
                                 : dist::PhaseType::coxian_mean_scv(1.0, 4.0);
    c.lambda_short = p.rho_s / shorts.mean();
    c.short_size = std::make_shared<dist::PhaseType>(std::move(shorts));
    const analysis::CscqResult r = analysis::analyze_cscq(c);
    expect_pinned({r.metrics.shorts.mean_response, r.metrics.longs.mean_response,
                   r.p_region1, r.p_region2},
                  p.out);
    expect_pinned(r.window.m1, p.window_m1);
  }
}

TEST(ChainPins, MapArrivalsMatchPins) {
  for (const MapArrivalsPin& p : kMapArrivalsPins) {
    SCOPED_TRACE(p.tag);
    SystemConfig c = SystemConfig::paper_setup(p.rho_s, p.rho_l, 1.0, 1.0, p.scv_l);
    c.short_arrivals = std::make_shared<dist::MapProcess>(dist::MapProcess::bursty(
        p.rho_s, p.peak_to_mean, p.high_fraction, p.high_sojourn));
    const analysis::CscqResult r = analysis::analyze_cscq(c);
    expect_pinned({r.metrics.shorts.mean_response, r.metrics.longs.mean_response,
                   r.p_region1, r.p_region2},
                  p.out);
  }
}

// ---------------------------------------------------------------------------
// Bit-exact pins of the event simulator.
//
// One row per registered policy on three 2-host workloads: the exponential
// paper setup (rho_S = 0.9, rho_L = 0.5, sizes 1/1); Coxian C^2 = 8 longs
// (mean 10) under bursty MMPP short arrivals (rho_S = 0.8, rho_L = 0.5);
// and the sweep panel's bounded-Pareto longs (panel_workload(kBPareto):
// alpha 1.5, mean 10, exponential shorts of mean 1, rho_S = 0.8,
// rho_L = 0.5), the heavy-tailed family serve's simulates ask for. Each
// run uses seed 15 and stops at 20000 completions. Every
// field of SimResult is pinned: class statistics, clock, per-host
// utilization, the long-host idle fraction, the conservation ledger and the
// arrival hash. Doubles are hexfloat literals compared for exact equality,
// so a change to the event loop, the RNG stream layout or any policy's
// decision order fails here even when the statistics still agree.
struct SimClassPin {
  std::size_t completions;
  double mean_response, ci95;
};

struct SimPin {
  const char* token;
  SimClassPin shorts, longs;
  double sim_time;
  double utilization[2];
  double p_long_host_idle;
  std::size_t arrivals, completions_total, queued_final, in_service_final;
  std::uint64_t arrival_hash;
};

SystemConfig coxian_mmpp_pin_config() {
  SystemConfig c = SystemConfig::paper_setup(0.8, 0.5, 1.0, 10.0, 8.0);
  c.short_arrivals =
      std::make_shared<dist::MapProcess>(dist::MapProcess::bursty(0.8, 4.0, 0.1, 3.0));
  return c;
}

// clang-format off
const SimPin kExponentialPins[] = {
    {"dedicated",
     {11587, 0x1.7e16990195dcbp+3, 0x1.e45bdb34c11e9p+1}, {6413, 0x1.00f68f1018415p+1, 0x1.e43226a2168d7p-4},
     0x1.ba66897a85a3cp+13, {0x1.cb50edd55d1a8p-1, 0x1.0373289baad38p-1}, 0x1.f919aec8aa58fp-2,
     20002, 20000, 1, 1, 0x5f76c0ebee65495bULL},
    {"csid",
     {11588, 0x1.66fa8a1c4dcc2p+1, 0x1.1338295f03dacp-2}, {6412, 0x1.3f11d8c6b34dp+1, 0x1.f7825b9bc78f8p-4},
     0x1.ba60e593c984p+13, {0x1.55a9788028e0dp-1, 0x1.792f19e1fc34ep-1}, 0x1.0da1cc3c07964p-2,
     20000, 20000, 0, 0, 0x19fbc2118989350aULL},
    {"cscq",
     {11588, 0x1.0bcb5b4b6e3a9p+1, 0x1.4a7dca7b4efdp-3}, {6412, 0x1.1955338d6486bp+1, 0x1.079f8af19cbffp-3},
     0x1.ba60e593c984p+13, {0x1.8ad00ed3ff72bp-1, 0x1.4408838e25a2fp-1}, 0x1.77eef8e3b4ba1p-2,
     20000, 20000, 0, 0, 0x19fbc2118989350aULL},
    {"cscq-norename",
     {11588, 0x1.08a24c8358552p+1, 0x1.3d1c6fd4fa045p-3}, {6412, 0x1.51d8d1f7df818p+1, 0x1.24ba54e309818p-3},
     0x1.ba60e593c984p+13, {0x1.3029ec2bb8f7fp-1, 0x1.9eaea6366c1dep-1}, 0x1.854567264f886p-3,
     20000, 20000, 0, 0, 0x19fbc2118989350aULL},
    {"mg2-fcfs",
     {11590, 0x1.eed9231e41991p+0, 0x1.0769091c75b0ep-3}, {6410, 0x1.fc0630ae48ecp+0, 0x1.30840e534dbcp-3},
     0x1.ba60e593c984p+13, {0x1.7ff4f6280647ep-1, 0x1.4ee39c3a1ecdep-1}, 0x1.6238c78bc2646p-2,
     20000, 20000, 0, 0, 0x19fbc2118989350aULL},
    {"mg2-sjf",
     {11589, 0x1.90905dd550163p+0, 0x1.0e92f51b9d375p-4}, {6411, 0x1.943a575efb46ep+0, 0x1.1f48671f1261dp-4},
     0x1.ba60e593c984p+13, {0x1.800e923cbad79p-1, 0x1.4eca00256a3e3p-1}, 0x1.626bffb52b83bp-2,
     20000, 20000, 0, 0, 0x19fbc2118989350aULL},
    {"lwr",
     {11590, 0x1.eed9231e41991p+0, 0x1.0769091c75b0ep-3}, {6410, 0x1.fc0630ae48ecp+0, 0x1.30840e534dbcp-3},
     0x1.ba60e593c984p+13, {0x1.57dcc4800c4d9p-1, 0x1.76fbcde218c83p-1}, 0x1.1208643bce6f9p-2,
     20000, 20000, 0, 0, 0x19fbc2118989350aULL},
    {"tags",
     {11567, 0x1.893fba36b07d6p+6, 0x1.c1d62eb46e6ap+4}, {6433, 0x1.90643e09a6bc2p+6, 0x1.cf5702bdc10fbp+4},
     0x1.bf92d6025994ap+13, {0x1.c846de4b62324p-1, 0x1.fe6fff0075117p-1}, 0x1.9000ff8aee844p-9,
     20241, 20000, 239, 2, 0xb1533caf7ae790f2ULL},
    {"rr",
     {11589, 0x1.4c5ef04e772d9p+1, 0x1.c99cf808a486dp-3}, {6411, 0x1.55a384e59c53bp+1, 0x1.07133d37cf665p-2},
     0x1.ba74bd179896ep+13, {0x1.6360ebaee8dd2p-1, 0x1.6b577cc8c01d9p-1}, 0x1.2951066e7fc4ep-2,
     20009, 20000, 7, 2, 0xc6813074f3488d31ULL},
    {"random",
     {11588, 0x1.a8411a6d681fcp+1, 0x1.e22c286a25e65p-3}, {6412, 0x1.af55e75018816p+1, 0x1.d21c6ad6e9888p-3},
     0x1.ba75d131bc88bp+13, {0x1.69ba8e01f30adp-1, 0x1.6507b8ab1981bp-1}, 0x1.35f08ea9ccfccp-2,
     20009, 20000, 7, 2, 0xc6813074f3488d31ULL},
    {"jiq",
     {11590, 0x1.2b2079461fd16p+1, 0x1.4722a1f6e43a4p-3}, {6410, 0x1.39d4f3eea8899p+1, 0x1.c4dc4a7e4d08ap-3},
     0x1.ba60e593c984p+13, {0x1.6707b3bad88ddp-1, 0x1.67d0dea74c87dp-1}, 0x1.305e42b166f05p-2,
     20000, 20000, 0, 0, 0x19fbc2118989350aULL},
    {"steal-one",
     {11589, 0x1.17a525145a27ep+1, 0x1.0791ac3aba26ap-3}, {6411, 0x1.1d8c003e355p+1, 0x1.123e1d6086554p-3},
     0x1.ba61feb9807a6p+13, {0x1.6a45641dae7bfp-1, 0x1.6491656b6a7b6p-1}, 0x1.36dd35292b096p-2,
     20000, 20000, 0, 0, 0x19fbc2118989350aULL},
    {"steal-half",
     {11590, 0x1.17328a1ca130ap+1, 0x1.0dde727dcf9bp-3}, {6410, 0x1.1ddadad967cc4p+1, 0x1.20ef6f786be2p-3},
     0x1.ba610735046b6p+13, {0x1.6a6addd165accp-1, 0x1.646d7deb22ec7p-1}, 0x1.37250429ba273p-2,
     20000, 20000, 0, 0, 0x19fbc2118989350aULL},
    {"threshold-steal",
     {11589, 0x1.2d01cc7d6a44ep+1, 0x1.17e806b0db1c9p-3}, {6411, 0x1.371443f492bfap+1, 0x1.1585738ba22d9p-3},
     0x1.ba63a38cae1ebp+13, {0x1.6b8a06ebeb297p-1, 0x1.634b528441b28p-1}, 0x1.39695af77c9aep-2,
     20002, 20000, 0, 2, 0x5f76c0ebee65495bULL},
    {"work-sharing",
     {11589, 0x1.1fe6e71cb2df7p+1, 0x1.249d613314e3ep-3}, {6411, 0x1.2968e0b54b4fdp+1, 0x1.3ca2c9b0f8be6p-3},
     0x1.ba60e593c984p+13, {0x1.6ca8c7e7794cep-1, 0x1.622fca7aabc8dp-1}, 0x1.3ba06b0aa86e6p-2,
     20000, 20000, 0, 0, 0x19fbc2118989350aULL},
};

const SimPin kCoxianMmppPins[] = {
    {"dedicated",
     {16893, 0x1.9099db61525b8p+3, 0x1.618e9014a965bp+1}, {1107, 0x1.1ccc11cec7e48p+5, 0x1.3c67b661d9606p+4},
     0x1.737a26fd42dbfp+14, {0x1.8d9d46a13952p-1, 0x1.c28d0dc88f7fbp-2}, 0x1.1eb9791bb8403p-1,
     20005, 20000, 4, 1, 0xedb5d1407a81a333ULL},
    {"csid",
     {16893, 0x1.864f672e7e31ep+2, 0x1.0cb521ef5b419p+0}, {1107, 0x1.2050c20b45fd9p+5, 0x1.3c3f83c41c211p+4},
     0x1.737a26fd42dbfp+14, {0x1.1ea358ed72cb5p-1, 0x1.504074980e46ap-1}, 0x1.5f7f16cfe372dp-2,
     20005, 20000, 4, 1, 0xedb5d1407a81a333ULL},
    {"cscq",
     {16893, 0x1.3b24cc2959eb4p+2, 0x1.ed13c15ce5feap-1}, {1107, 0x1.1e02bd95282e6p+5, 0x1.3c541fb1d3f32p+4},
     0x1.737a26fd42dbfp+14, {0x1.5b5e555e53063p-1, 0x1.138578272e0bcp-1}, 0x1.d8f50fb1a3e89p-2,
     20005, 20000, 3, 2, 0xedb5d1407a81a333ULL},
    {"cscq-norename",
     {16893, 0x1.3acbd94424545p+2, 0x1.eab8b16cb0fa1p-1}, {1107, 0x1.20fbc751b18dep+5, 0x1.3c542813d33fp+4},
     0x1.737a26fd42dbfp+14, {0x1.fd8b37233b9fp-2, 0x1.701e31f3e3428p-1}, 0x1.1fc39c18397b3p-2,
     20005, 20000, 3, 2, 0xedb5d1407a81a333ULL},
    {"mg2-fcfs",
     {16893, 0x1.2282f068f8afep+3, 0x1.2caccfca62d05p+2}, {1107, 0x1.05befea11d1a6p+4, 0x1.ecd46ef3c833bp+2},
     0x1.7371f8fc6c6abp+14, {0x1.55233a77e5b82p-1, 0x1.19cdcf4cb75cbp-1}, 0x1.cc64616691468p-2,
     20004, 20000, 2, 2, 0xf1bb45964f0e125bULL},
    {"mg2-sjf",
     {16893, 0x1.f211e755992acp+1, 0x1.bc3f04df9ae88p+0}, {1107, 0x1.07cc6de33f1cfp+4, 0x1.7d90b8cafda5fp+2},
     0x1.7371f8fc6c6abp+14, {0x1.54e61c9fbee76p-1, 0x1.1a0aed24de2d8p-1}, 0x1.cbea25b643a5p-2,
     20004, 20000, 2, 2, 0xf1bb45964f0e125bULL},
    {"lwr",
     {16893, 0x1.2282f068f8afep+3, 0x1.2caccfca62d05p+2}, {1107, 0x1.05befea11d1a6p+4, 0x1.ecd46ef3c833bp+2},
     0x1.7371f8fc6c6abp+14, {0x1.52966aa1b747ap-1, 0x1.1c5a9f22e5cd3p-1}, 0x1.c74ac1ba3465ap-2,
     20004, 20000, 2, 2, 0xf1bb45964f0e125bULL},
    {"tags",
     {16907, 0x1.79e46f8482d18p+7, 0x1.6106c03543251p+5}, {1093, 0x1.bbd2a9b75bcb6p+8, 0x1.6a057410247a1p+6},
     0x1.76bfd68751bbfp+14, {0x1.1489b794a534ap-1, 0x1.f608cd3b16aeep-1}, 0x1.3ee6589d2a245p-6,
     20167, 20000, 165, 2, 0xd8c3e7b1cd5bc8aeULL},
    {"rr",
     {16893, 0x1.293e222ce0737p+4, 0x1.a0f3cb1978fd9p+2}, {1107, 0x1.9cd4207757dcep+4, 0x1.1adce02244663p+3},
     0x1.73782f0460438p+14, {0x1.43beed09cb00bp-1, 0x1.2b2b85dd44d3p-1}, 0x1.a9a8f4457659fp-2,
     20005, 20000, 3, 2, 0xedb5d1407a81a333ULL},
    {"random",
     {16895, 0x1.34fa67b69ebdep+4, 0x1.811f3f12f9bdfp+2}, {1105, 0x1.bc7787b252a7p+4, 0x1.397ba68cf8051p+3},
     0x1.73a4f3a0ca8a2p+14, {0x1.38a983a1dc238p-1, 0x1.35ab3ca0b54c8p-1}, 0x1.94a986be95671p-2,
     20014, 20000, 13, 1, 0x8244f74c16766a01ULL},
    {"jiq",
     {16893, 0x1.ac41fa6fac5fep+3, 0x1.69d0fa7ff50edp+2}, {1107, 0x1.4287284c88d81p+4, 0x1.103dc75f83005p+3},
     0x1.7371f8fc6c6abp+14, {0x1.39b57bac101a2p-1, 0x1.353b8e188cfacp-1}, 0x1.9588e3cee60a7p-2,
     20004, 20000, 2, 2, 0xf1bb45964f0e125bULL},
    {"steal-one",
     {16893, 0x1.342a1baea64a1p+3, 0x1.36a07c36b1c05p+2}, {1107, 0x1.0e52d95356da7p+4, 0x1.f92c0c80eb77ap+2},
     0x1.7372dbdf9cb8cp+14, {0x1.37501291c8d17p-1, 0x1.379f704c3936bp-1}, 0x1.90c11f678d92ap-2,
     20004, 20000, 2, 2, 0xf1bb45964f0e125bULL},
    {"steal-half",
     {16893, 0x1.344b927def4e1p+3, 0x1.37a6e5d346355p+2}, {1107, 0x1.0d6fff559579cp+4, 0x1.f92b32881a63p+2},
     0x1.7372dbdf9cb8cp+14, {0x1.3861a4467cd98p-1, 0x1.368f8148301b3p-1}, 0x1.92e0fd6f9fc98p-2,
     20004, 20000, 2, 2, 0xf1bb45964f0e125bULL},
    {"threshold-steal",
     {16893, 0x1.38f6d0620ad54p+3, 0x1.370ef777806a9p+2}, {1107, 0x1.12ab6bbfb1fefp+4, 0x1.f8366d4b5ed21p+2},
     0x1.7372dbdf9cb8cp+14, {0x1.36edd3094d0d6p-1, 0x1.3801afd4b4fabp-1}, 0x1.8ffca056960a9p-2,
     20004, 20000, 2, 2, 0xf1bb45964f0e125bULL},
    {"work-sharing",
     {16893, 0x1.8f9e56ed00e01p+3, 0x1.57b6d5d0bd901p+2}, {1107, 0x1.2f879e1098797p+4, 0x1.00dbda56488fcp+3},
     0x1.7372dbdf9cb8cp+14, {0x1.3285ac584e9a3p-1, 0x1.3c6c52658e991p-1}, 0x1.87275b34e2cddp-2,
     20004, 20000, 2, 2, 0xf1bb45964f0e125bULL},
};

const SimPin kBParetoPins[] = {
    {"dedicated",
     {16935, 0x1.5576e05fff4f7p+2, 0x1.a50f40f4feb73p-1}, {1065, 0x1.7913382a8b889p+4, 0x1.4432ebc6011dbp+3},
     0x1.6c5e2b335d445p+14, {0x1.9aef840f54aa4p-1, 0x1.d9e29ae4f4a74p-2}, 0x1.130eb28d85ac6p-1,
     20014, 20000, 12, 2, 0x7e58c0a315a944baULL},
    {"csid",
     {16935, 0x1.493327094fac1p+1, 0x1.b7c290145f3e9p-2}, {1065, 0x1.7f5d4021007a9p+4, 0x1.430f0dc4fe0c6p+3},
     0x1.6c5e2b335d445p+14, {0x1.208c10c43e503p-1, 0x1.6754c0bd90adcp-1}, 0x1.31567e84dea47p-2,
     20014, 20000, 12, 2, 0x7e58c0a315a944baULL},
    {"cscq",
     {16935, 0x1.27b3624d9deefp+1, 0x1.c992047fefda3p-2}, {1065, 0x1.7b09b45e757c4p+4, 0x1.43cbde3aeb8c4p+3},
     0x1.6c5e2b335d445p+14, {0x1.6b4254a54b226p-1, 0x1.1c9e7cdc83dbbp-1}, 0x1.c6c30646f848cp-2,
     20014, 20000, 12, 2, 0x7e58c0a315a944baULL},
    {"cscq-norename",
     {16935, 0x1.2646b7f782bb6p+1, 0x1.cbc8b570b07d7p-2}, {1065, 0x1.801a3d0e9ea9cp+4, 0x1.425c96f01f6a1p+3},
     0x1.6c5e2b335d445p+14, {0x1.09c5d3bf261fcp-1, 0x1.7e1afdc2a8de4p-1}, 0x1.03ca047aae437p-2,
     20014, 20000, 12, 2, 0x7e58c0a315a944baULL},
    {"mg2-fcfs",
     {16929, 0x1.17ced3221516p+2, 0x1.cdbcdc7652ab7p+0}, {1071, 0x1.8dec3293af8b5p+3, 0x1.648e14340ac98p+1},
     0x1.6db2ad4ad3243p+14, {0x1.64aa91f414cbp-1, 0x1.2546603281c7bp-1}, 0x1.b5733f9afc709p-2,
     20099, 20000, 97, 2, 0x1572c0c623077483ULL},
    {"mg2-sjf",
     {16929, 0x1.e8a5ed027985fp+0, 0x1.a1041b82a9b5ap-3}, {1071, 0x1.e9cca6bd3378p+3, 0x1.560f4f0b10fdfp+2},
     0x1.6c52553305578p+14, {0x1.630e72e3ea5eap-1, 0x1.25758e809a40fp-1}, 0x1.b514e2fecb7ep-2,
     20008, 20000, 6, 2, 0xb172a6aac8145423ULL},
    {"lwr",
     {16929, 0x1.17ced3221516p+2, 0x1.cdbcdc7652ab7p+0}, {1071, 0x1.8dec3293af8b5p+3, 0x1.648e14340ac98p+1},
     0x1.6db2ad4ad3243p+14, {0x1.64aa91f414cbp-1, 0x1.2546603281c7bp-1}, 0x1.b5733f9afc709p-2,
     20099, 20000, 97, 2, 0x1572c0c623077483ULL},
    {"tags",
     {16958, 0x1.247b1fc39a9eep+8, 0x1.1531f7b02d265p+6}, {1042, 0x1.9c0726f5c48bap+9, 0x1.657574cc5d58cp+7},
     0x1.73783c6f337e5p+14, {0x1.1ecd78e532a15p-1, 0x1.ff71064796456p-1}, 0x1.1df370d3753a1p-10,
     20398, 20000, 397, 1, 0x52e9f470340d613aULL},
    {"rr",
     {16932, 0x1.bda465e974cf9p+3, 0x1.e21ac3bdfbd54p+2}, {1068, 0x1.5933eddda48d2p+4, 0x1.2a50715ec5035p+3},
     0x1.6e717d3590aecp+14, {0x1.3dffcaa360a61p-1, 0x1.4bc4ce5b54c92p-1}, 0x1.68766349566dbp-2,
     20143, 20000, 141, 2, 0x148f8addfc14f5b7ULL},
    {"random",
     {16931, 0x1.d0ccc1bed0b1fp+3, 0x1.a8a2461bafc68p+2}, {1069, 0x1.5addc25f47e74p+4, 0x1.d2d9384bfc692p+2},
     0x1.6e7caf4a36702p+14, {0x1.45ad56709807bp-1, 0x1.42860b80dd4d2p-1}, 0x1.7af3e8fe4565dp-2,
     20145, 20000, 143, 2, 0x879ed8265a56f5d2ULL},
    {"jiq",
     {16933, 0x1.09934ed161165p+3, 0x1.177052f50f0b6p+2}, {1067, 0x1.ecbcb339982e3p+3, 0x1.22b7640c1b0dap+2},
     0x1.6d434f45eb3bdp+14, {0x1.430e69b97a2b7p-1, 0x1.44a5dec6b04d9p-1}, 0x1.76b442729f64dp-2,
     20064, 20000, 63, 1, 0x889d31eed9bbd585ULL},
    {"steal-one",
     {16929, 0x1.39452822bfaf3p+2, 0x1.ce71192e84ffcp+0}, {1071, 0x1.9b185b4684eecp+3, 0x1.5dec142614e9cp+1},
     0x1.6dbafa9639e0ep+14, {0x1.4753387fe3602p-1, 0x1.4299cd6d6754fp-1}, 0x1.7acc652531562p-2,
     20101, 20000, 99, 2, 0xe96b63b1afe393adULL},
    {"steal-half",
     {16929, 0x1.3915d5687726ap+2, 0x1.ca36e6ef139b9p+0}, {1071, 0x1.9af19943c3715p+3, 0x1.628aa9423e671p+1},
     0x1.6db2634af6199p+14, {0x1.47a67f563836bp-1, 0x1.423dbcea49e99p-1}, 0x1.7b84862b6c2cep-2,
     20099, 20000, 97, 2, 0x1572c0c623077483ULL},
    {"threshold-steal",
     {16931, 0x1.40469370d5377p+2, 0x1.c64596af02c71p+0}, {1069, 0x1.9c9f4b3a62528p+3, 0x1.581b04e92ac46p+1},
     0x1.6c70ca3b9619ep+14, {0x1.462f4af05bdffp-1, 0x1.427101cd006ccp-1}, 0x1.7b1dfc65ff268p-2,
     20019, 20000, 17, 2, 0xed63831d11d90f7cULL},
    {"work-sharing",
     {16935, 0x1.c91adfdabac7dp+2, 0x1.cce197c6fb031p+1}, {1065, 0x1.c5bc3b60826e1p+3, 0x1.ff7cbc1cc76fep+1},
     0x1.6ce8c26547849p+14, {0x1.486e7f4affb31p-1, 0x1.3f234caae9c02p-1}, 0x1.81b966aa2c7fep-2,
     20037, 20000, 35, 2, 0x2bb941834e25f614ULL},
};

// clang-format on

void expect_class_pin(const sim::ClassStats& actual, const SimClassPin& pin) {
  EXPECT_EQ(actual.completions, pin.completions);
  EXPECT_EQ(actual.mean_response, pin.mean_response);
  EXPECT_EQ(actual.ci95, pin.ci95);
}

void expect_sim_pins(const SystemConfig& c, const SimPin (&pins)[15]) {
  ASSERT_EQ(sim::policy_registry().size(), std::size(pins));
  sim::SimOptions o;
  o.seed = 15;
  o.total_completions = 20000;
  for (const SimPin& p : pins) {
    SCOPED_TRACE(p.token);
    const sim::SimResult r = sim::simulate(sim::policy_kind_from_token(p.token), c, o);
    expect_class_pin(r.shorts, p.shorts);
    expect_class_pin(r.longs, p.longs);
    EXPECT_EQ(r.sim_time, p.sim_time);
    ASSERT_EQ(r.utilization.size(), 2u);
    EXPECT_EQ(r.utilization[0], p.utilization[0]);
    EXPECT_EQ(r.utilization[1], p.utilization[1]);
    EXPECT_EQ(r.p_long_host_idle, p.p_long_host_idle);
    EXPECT_EQ(r.arrivals, p.arrivals);
    EXPECT_EQ(r.completions_total, p.completions_total);
    EXPECT_EQ(r.queued_final, p.queued_final);
    EXPECT_EQ(r.in_service_final, p.in_service_final);
    EXPECT_EQ(r.arrival_hash, p.arrival_hash);
  }
}

TEST(SimPins, ExponentialPaperSetupEveryPolicy) {
  expect_sim_pins(SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0, 1.0), kExponentialPins);
}

TEST(SimPins, CoxianLongsMmppShortsEveryPolicy) {
  expect_sim_pins(coxian_mmpp_pin_config(), kCoxianMmppPins);
}

TEST(SimPins, BoundedParetoLongsEveryPolicy) {
  expect_sim_pins(panel_workload(JobSizeDist::kBPareto, 0.8, 0.5, 1.0, 10.0, 1.0), kBParetoPins);
}

}  // namespace
