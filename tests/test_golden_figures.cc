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
// column was regenerated when the sp(R) probe's stop became an extrapolated
// one; each value is within 1.2e-16 of 60 plain Gelfand squarings.
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
  expect_pinned(r.short_count_decay, p.short_count_decay);
  EXPECT_EQ(r.short_count_p99, p.short_count_p99);
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
  EXPECT_LE(r.solve_stats.residual, 5e-14);
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
     {11457, 0x1.17a2e844e21fbp+3, 0x1.a8486c3299402p+0}, {6543, 0x1.000e3ecf5cdcep+1, 0x1.74735e013cf2cp-3},
     0x1.bdd63dd9909ap+13, {0x1.c95c1d59963c8p-1, 0x1.03ff521ea126fp-1}, 0x1.f8015bc2bdb21p-2,
     20011, 20000, 9, 2, 0x08d431c70bb7b48bULL},
    {"csid",
     {11460, 0x1.72c6bd26dfe28p+1, 0x1.10ce771dbe99ap-2}, {6540, 0x1.410a174307f74p+1, 0x1.58d0e674659bcp-3},
     0x1.bd896f1945adcp+13, {0x1.519418ea8d526p-1, 0x1.7c36153ffeab2p-1}, 0x1.0793d58002a9bp-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"cscq",
     {11460, 0x1.16d28637635f7p+1, 0x1.5747b6cbd2c52p-3}, {6540, 0x1.1907ec9cd56d7p+1, 0x1.73a4965910c5dp-3},
     0x1.bd896f1945adcp+13, {0x1.8ccea088d1534p-1, 0x1.40fb8da1baaa3p-1}, 0x1.7e08e4bc8aab8p-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"cscq-norename",
     {11460, 0x1.14384ef8b8001p+1, 0x1.5265e1de7c6a6p-3}, {6540, 0x1.50d41745afc2p+1, 0x1.6979b75453764p-3},
     0x1.bd896f1945adcp+13, {0x1.2c21c196107fcp-1, 0x1.a1a86c947b7ddp-1}, 0x1.795e4dae1208cp-3,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"mg2-fcfs",
     {11460, 0x1.f769410be46bcp+0, 0x1.0cc946cea0684p-3}, {6540, 0x1.003bee98a89fbp+1, 0x1.4a509802432a7p-3},
     0x1.bd896f1945adcp+13, {0x1.7ff0ee7a16cfp-1, 0x1.4dd93fb0752eap-1}, 0x1.644d809f15a2dp-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"mg2-sjf",
     {11460, 0x1.9687a62ed94f4p+0, 0x1.10ac7faddf71ap-4}, {6540, 0x1.92aca789fe0ap+0, 0x1.3fc1d5ed787f1p-4},
     0x1.bd896f1945adcp+13, {0x1.800864bfe1cd6p-1, 0x1.4dc1c96aaa305p-1}, 0x1.647c6d2aab9f6p-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"lwr",
     {11460, 0x1.f769410be46bcp+0, 0x1.0cc946cea0684p-3}, {6540, 0x1.003bee98a89fbp+1, 0x1.4a509802432a7p-3},
     0x1.bd896f1945adcp+13, {0x1.7a8e5f59161b8p-1, 0x1.533bced175e22p-1}, 0x1.5988625d143bdp-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"tags",
     {11467, 0x1.ae3d77dc86d53p+6, 0x1.967d15553d93ap+4}, {6533, 0x1.a7cfccf827adp+6, 0x1.91aa59b8b0ea4p+4},
     0x1.c333d90d96d14p+13, {0x1.c7732e44fbd78p-1, 0x1.fd82587e9c9dfp-1}, 0x1.3ed3c0b1b1053p-8,
     20283, 20000, 281, 2, 0xaee93cb86518dca2ULL},
    {"rr",
     {11460, 0x1.4eaee4d6a629ap+1, 0x1.8a332e9ca148ep-3}, {6540, 0x1.56c2b14213017p+1, 0x1.d4bbe15804886p-3},
     0x1.bd896f1945adcp+13, {0x1.66dab670658fap-1, 0x1.66ef77ba266dfp-1}, 0x1.3221108bb3241p-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"random",
     {11460, 0x1.b561ec223beb1p+1, 0x1.cfd4f165e9921p-3}, {6540, 0x1.b4557c59db85ap+1, 0x1.fe6f7b4e48abbp-3},
     0x1.bd896f1945adcp+13, {0x1.606be33933aa3p-1, 0x1.6d5e4af158535p-1}, 0x1.25436a1d4f596p-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"jiq",
     {11460, 0x1.33c1f77f018acp+1, 0x1.4d2ee0861d9ebp-3}, {6540, 0x1.348adf3733879p+1, 0x1.afcc4213aed62p-3},
     0x1.bd896f1945adcp+13, {0x1.649aa8ab2e09cp-1, 0x1.692f857f5df3cp-1}, 0x1.2da0f50144186p-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"steal-one",
     {11460, 0x1.1c1995db1743cp+1, 0x1.085d71c7afc6ep-3}, {6540, 0x1.1e32f654f819bp+1, 0x1.4d9b7c633d3d1p-3},
     0x1.bd896f1945adcp+13, {0x1.63341b759a9c5p-1, 0x1.6a9612b4f1615p-1}, 0x1.2ad3da961d3d7p-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"steal-half",
     {11460, 0x1.1ea57e0c35c0ap+1, 0x1.17d9948334e7cp-3}, {6540, 0x1.20759606fe802p+1, 0x1.5804688e4ba9ap-3},
     0x1.bd896f1945adcp+13, {0x1.624db75b69df6p-1, 0x1.6b7c76cf221e2p-1}, 0x1.29071261bbc3cp-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"threshold-steal",
     {11460, 0x1.34906d7413483p+1, 0x1.1c53fc5bb96abp-3}, {6540, 0x1.37dafab79bddbp+1, 0x1.63bf5847f6334p-3},
     0x1.bd896f1945adcp+13, {0x1.633aa5b6c6d46p-1, 0x1.6a8f8873c5294p-1}, 0x1.2ae0ef1875adap-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
    {"work-sharing",
     {11460, 0x1.29f05a62fc20ep+1, 0x1.4774964567848p-3}, {6540, 0x1.2f73e2485e993p+1, 0x1.741e730b60247p-3},
     0x1.bd896f1945adcp+13, {0x1.64ce123b092cfp-1, 0x1.68fc1bef82d0bp-1}, 0x1.2e07c820fa5ecp-2,
     20000, 20000, 0, 0, 0xa9e55dee8f288d7bULL},
};

const SimPin kCoxianMmppPins[] = {
    {"dedicated",
     {16933, 0x1.f312d5920188bp+3, 0x1.083dce9484d14p+2}, {1067, 0x1.c2e4e3cd01693p+5, 0x1.c2d126514953fp+4},
     0x1.6390d65107f3bp+14, {0x1.a3d9a8904f17cp-1, 0x1.1131eed298457p-1}, 0x1.dd9c225acf751p-2,
     20018, 20000, 16, 2, 0x39c9439cefc4a681ULL},
    {"csid",
     {16932, 0x1.13258d770740bp+3, 0x1.1cafbc317933cp+1}, {1068, 0x1.c53ab4261e3fep+5, 0x1.c3d9467556ad4p+4},
     0x1.6390d65107f3bp+14, {0x1.4737e26e3af07p-1, 0x1.6dd1ca90bff4cp-1}, 0x1.245c6ade80167p-2,
     20018, 20000, 16, 2, 0x39c9439cefc4a681ULL},
    {"cscq",
     {16932, 0x1.c70d628c872a6p+2, 0x1.e2a80e697aebdp+0}, {1068, 0x1.c38e6c3545d1ap+5, 0x1.c42ad2c1a6b65p+4},
     0x1.6390d65107f3bp+14, {0x1.7be10dbdeee01p-1, 0x1.392a89a4f87d2p-1}, 0x1.8daaecb60f05cp-2,
     20018, 20000, 16, 2, 0x39c9439cefc4a681ULL},
    {"cscq-norename",
     {16932, 0x1.c7246b47fea2bp+2, 0x1.e235b9c75d9cp+0}, {1068, 0x1.c63f6796788dcp+5, 0x1.c3ae390f0319ep+4},
     0x1.6390d65107f3bp+14, {0x1.266cf4c08041fp-1, 0x1.8e9cb83e7aa36p-1}, 0x1.c58d1f061572ep-3,
     20018, 20000, 16, 2, 0x39c9439cefc4a681ULL},
    {"mg2-fcfs",
     {16931, 0x1.9916d749664b3p+3, 0x1.670817ced53fcp+2}, {1069, 0x1.55d6e6001c5c8p+4, 0x1.db111d64f061cp+2},
     0x1.6389f97be26c9p+14, {0x1.71fda5fe638ap-1, 0x1.432d69a86afdep-1}, 0x1.79a52caf2a045p-2,
     20015, 20000, 13, 2, 0xb252f3886661441eULL},
    {"mg2-sjf",
     {16931, 0x1.237de782a0727p+2, 0x1.dae695bdefbc9p+0}, {1069, 0x1.5e03956f0d47cp+4, 0x1.0cd3ba0601db1p+3},
     0x1.63457104ed85cp+14, {0x1.6ef55c613179p-1, 0x1.45f5e1b55c95bp-1}, 0x1.74143c9546d4ap-2,
     20008, 20000, 6, 2, 0x8b271cb0b66765b3ULL},
    {"lwr",
     {16931, 0x1.9916d749664b3p+3, 0x1.670817ced53fcp+2}, {1069, 0x1.55d6e6001c5c8p+4, 0x1.db111d64f061cp+2},
     0x1.6389f97be26c9p+14, {0x1.43cb95f6b3393p-1, 0x1.715f79b01b4ecp-1}, 0x1.1d410c9fc962ap-2,
     20015, 20000, 13, 2, 0xb252f3886661441eULL},
    {"tags",
     {16984, 0x1.4d003aaca014dp+9, 0x1.2525cc5ec9966p+7}, {1016, 0x1.9b10481d93e37p+10, 0x1.4108807284ecep+8},
     0x1.73d5687d85cc7p+14, {0x1.2312fcbf62448p-1, 0x1.fe822f8b80cd6p-1}, 0x1.7dd0747f329edp-9,
     20957, 20000, 956, 1, 0x00e2e6c119cd0260ULL},
    {"rr",
     {16929, 0x1.3c25591bc39d4p+5, 0x1.2006f8b4f69e7p+4}, {1071, 0x1.7f52a254dce7p+5, 0x1.1439bea6cad7p+4},
     0x1.64c2389e9446cp+14, {0x1.56ef9101ed72cp-1, 0x1.5dcd02d7deaffp-1}, 0x1.4465fa5042a03p-2,
     20083, 20000, 82, 1, 0x9d554356617efd19ULL},
    {"random",
     {16931, 0x1.0569cdb194dc4p+5, 0x1.99f64e93a63c6p+3}, {1069, 0x1.3fd4e0802ae6p+5, 0x1.ce51884cae9e2p+3},
     0x1.64e180bee4a5p+14, {0x1.61683955a940cp-1, 0x1.5313010f48fd9p-1}, 0x1.59d9fde16e04fp-2,
     20085, 20000, 84, 1, 0x9e4a65b111634334ULL},
    {"jiq",
     {16930, 0x1.7aeff849333adp+4, 0x1.374b5f468cefp+3}, {1070, 0x1.f74b4189fbc2ep+4, 0x1.80a473fb7d783p+3},
     0x1.63e02a056596cp+14, {0x1.630d7a95f5c4fp-1, 0x1.51e16bfd701e7p-1}, 0x1.5c3d28051fc33p-2,
     20049, 20000, 47, 2, 0xe3f13246436362b5ULL},
    {"steal-one",
     {16930, 0x1.b22cab1750cd4p+3, 0x1.a1e60380384fbp+2}, {1070, 0x1.66294b8adf26cp+4, 0x1.12c1673da177fp+3},
     0x1.63a31cb72e607p+14, {0x1.57a06b9f3b7d5p-1, 0x1.5d8e661f1aba2p-1}, 0x1.44e333c1ca8bcp-2,
     20034, 20000, 32, 2, 0x6ff63303f5df5d44ULL},
    {"steal-half",
     {16930, 0x1.c3731875d53c6p+3, 0x1.a662698eea78dp+2}, {1070, 0x1.5edef933e25dbp+4, 0x1.007d213c8d353p+3},
     0x1.63a31cb72e607p+14, {0x1.58b8fe5d67b14p-1, 0x1.5c75d360ee864p-1}, 0x1.4714593e22f38p-2,
     20034, 20000, 32, 2, 0x6ff63303f5df5d44ULL},
    {"threshold-steal",
     {16930, 0x1.c06529430ac2p+3, 0x1.a4f96349e1835p+2}, {1070, 0x1.673f50a719fc4p+4, 0x1.0a2659606b294p+3},
     0x1.63a255242820ep+14, {0x1.5a388d865c186p-1, 0x1.5af583f0e23dbp-1}, 0x1.4a14f81e3b849p-2,
     20034, 20000, 32, 2, 0x6ff63303f5df5d44ULL},
    {"work-sharing",
     {16930, 0x1.4b3def5bc630cp+4, 0x1.325f90083e388p+3}, {1070, 0x1.bddf63313e295p+4, 0x1.611f591b710e7p+3},
     0x1.63bbe988e785ap+14, {0x1.5da29b74de8aep-1, 0x1.574a04469cf79p-1}, 0x1.516bf772c610fp-2,
     20041, 20000, 39, 2, 0x4e7f045191a3e680ULL},
};

const SimPin kBParetoPins[] = {
    {"dedicated",
     {16907, 0x1.6839e21851158p+2, 0x1.b51e76dd766bdp-1}, {1093, 0x1.709aad9e781c2p+5, 0x1.9750881b5cd3p+4},
     0x1.6d2061c760cf9p+14, {0x1.9d584b6dcfaf6p-1, 0x1.27e3025cf7c11p-1}, 0x1.b039fb46107ep-2,
     20005, 20000, 3, 2, 0x43b2af95e87b0155ULL},
    {"csid",
     {16907, 0x1.6c39224e28712p+1, 0x1.7f0989e260b2bp-2}, {1093, 0x1.74a12e3b321p+5, 0x1.97f77d3ad1fa6p+4},
     0x1.6d2061c760cf9p+14, {0x1.3cf059ee68b2cp-1, 0x1.8838fcc301dbep-1}, 0x1.df1c0cf3f8907p-3,
     20005, 20000, 3, 2, 0x43b2af95e87b0155ULL},
    {"cscq",
     {16907, 0x1.4e8773535bf03p+1, 0x1.96b201a5a8d97p-2}, {1093, 0x1.71a9cf77fe09cp+5, 0x1.96f7639ed43b6p+4},
     0x1.6d2061c760cf9p+14, {0x1.8413d4a6bbe14p-1, 0x1.412779240b8f5p-1}, 0x1.7db10db7e8e17p-2,
     20005, 20000, 3, 2, 0x43b2af95e87b0155ULL},
    {"cscq-norename",
     {16907, 0x1.4d0677fe87a1cp+1, 0x1.960f4424cb42fp-2}, {1093, 0x1.7552e276b4857p+5, 0x1.9798eca569836p+4},
     0x1.6d2061c760cf9p+14, {0x1.2a330ec1d156bp-1, 0x1.9af647ef9937ep-1}, 0x1.9426e0419b206p-3,
     20005, 20000, 3, 2, 0x43b2af95e87b0155ULL},
    {"mg2-fcfs",
     {16913, 0x1.dcb2a65475624p+2, 0x1.18c6c960763c7p+2}, {1087, 0x1.016050ca7fff7p+4, 0x1.3cbb0c398e433p+2},
     0x1.6d7bb61dea0e6p+14, {0x1.7d1ece8879b5ap-1, 0x1.4a1bfda2b8299p-1}, 0x1.6bc804ba8facdp-2,
     20020, 20000, 18, 2, 0x34c65489562aa37aULL},
    {"mg2-sjf",
     {16913, 0x1.226f73f9e88d5p+1, 0x1.a7fff3aa607a7p-2}, {1087, 0x1.30ab3f303333dp+4, 0x1.97b228f8ba619p+2},
     0x1.6d5d3065a4077p+14, {0x1.7cdbe9292aaddp-1, 0x1.4a2f420765a87p-1}, 0x1.6ba17bf134af2p-2,
     20016, 20000, 14, 2, 0x0ce5dcfb422ea220ULL},
    {"lwr",
     {16913, 0x1.dcb2a65475624p+2, 0x1.18c6c960763c7p+2}, {1087, 0x1.016050ca7fff7p+4, 0x1.3cbb0c398e433p+2},
     0x1.6d7bb61dea0e6p+14, {0x1.6f8c6b095dc13p-1, 0x1.57ae6121d41e1p-1}, 0x1.50a33dbc57c3fp-2,
     20020, 20000, 18, 2, 0x34c65489562aa37aULL},
    {"tags",
     {16998, 0x1.8cd0f18dbbaafp+9, 0x1.a9e8b7b6c1029p+6}, {1002, 0x1.2081932a9ee66p+11, 0x1.3cf51fbe0f3a5p+8},
     0x1.821eab6cbb46fp+14, {0x1.1fbeb103af489p-1, 0x1.ff9a5a3add6a5p-1}, 0x1.9697148a56c67p-11,
     21143, 20000, 1142, 1, 0x68c2b763efd9c63bULL},
    {"rr",
     {16914, 0x1.a761756d7f2b6p+4, 0x1.f3444e369c792p+3}, {1086, 0x1.00f7680444f38p+5, 0x1.93c74fe1876eep+3},
     0x1.6f4786b67434bp+14, {0x1.68ca5b19cb003p-1, 0x1.5d35912198f5p-1}, 0x1.4594ddbcce15fp-2,
     20115, 20000, 113, 2, 0x0571323cd6b40f1eULL},
    {"random",
     {16914, 0x1.0be7fde06a71p+5, 0x1.483c92915cb72p+4}, {1086, 0x1.35aa29eab3bcp+5, 0x1.0f729698d68bap+4},
     0x1.6e37af5fb12e4p+14, {0x1.4d8b573afbf07p-1, 0x1.772e0a741217ep-1}, 0x1.11a3eb17dbd03p-2,
     20071, 20000, 69, 2, 0x16138dcee1bc5ebdULL},
    {"jiq",
     {16914, 0x1.375cf0acfe638p+4, 0x1.b9e8417a3151dp+3}, {1086, 0x1.cfc90f3e0cddap+4, 0x1.ffa31b40bc94cp+3},
     0x1.6e3696a0032b6p+14, {0x1.5be39bc915cbfp-1, 0x1.6a9eb17ee682ap-1}, 0x1.2ac29d0232fabp-2,
     20069, 20000, 67, 2, 0xdcb4ed90176abb1aULL},
    {"steal-one",
     {16914, 0x1.f9126916b2519p+2, 0x1.1802e6afc1f6ap+2}, {1086, 0x1.049c5e1ec69d4p+4, 0x1.1f052c92315d5p+2},
     0x1.6d803a4b53bb1p+14, {0x1.60fbd0b41fbe6p-1, 0x1.6631f2c2b3d95p-1}, 0x1.339c1a7a984d7p-2,
     20021, 20000, 19, 2, 0x5b22a6154fd6b5f3ULL},
    {"steal-half",
     {16914, 0x1.fe3fc9b911bc6p+2, 0x1.1b4c1ed45d415p+2}, {1086, 0x1.044d4b53d951p+4, 0x1.22cc037ded6cp+2},
     0x1.6d803a4b53bb1p+14, {0x1.610ad3485844bp-1, 0x1.6622500c78bb5p-1}, 0x1.33bb5fe70e896p-2,
     20021, 20000, 19, 2, 0x5b22a6154fd6b5f3ULL},
    {"threshold-steal",
     {16914, 0x1.0a3ffb6e7a2f1p+3, 0x1.20ac26695dfc9p+2}, {1086, 0x1.0b5a0972b8c42p+4, 0x1.23e03bb99f29bp+2},
     0x1.6d803a4b53bb1p+14, {0x1.5fca2e9505b9p-1, 0x1.67606b67795f9p-1}, 0x1.313f29310d40cp-2,
     20021, 20000, 19, 2, 0x5b22a6154fd6b5f3ULL},
    {"work-sharing",
     {16915, 0x1.b8b5ab15a70c2p+3, 0x1.f3e754d313e65p+2}, {1085, 0x1.6930a3b1e02a5p+4, 0x1.2a96abfa0a9a7p+3},
     0x1.6d944c1f864f2p+14, {0x1.6285f9f3027c2p-1, 0x1.647016d8d2908p-1}, 0x1.371fd24e5adefp-2,
     20025, 20000, 23, 2, 0x1cc33bf8cfb04627ULL},
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
