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

// Every pin through one warm thread — each solve reusing the QBD scratch and
// Coxian fit memo the solves before it left behind, the way the figure
// drivers run — must match the same point analyzed on a fresh thread. The
// comparison is exact (==), not kRelTol: scratch reuse is not allowed to
// move a result by even one bit.
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
// from the library; the suite never re-derives them.
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
     0x1.44eb1b39e99bdp+1, 0x1.1ee7041be52dcp+1,
     0x1.08c7df20d691bp-2, 0x1.8b8d01650f159p-3, 0x1.79f89f6c2c769p-1, 14},
    {"fig4 0.5/0.5 exp 1/10", 0.5, 0.5, 10, 1,
     0x1.77bb6b8f61d46p+0, 0x1.40e1854f99c3ap+4,
     0x1.c79eac198ef88p-2, 0x1.b80a5ce119b9ap-5, 0x1.f1fdd15ca112dp-2, 5},
    {"fig4 0.9/0.5 exp 1/10", 0.9, 0.5, 10, 1,
     0x1.8c69d37c81145p+1, 0x1.42b4883b25e45p+4,
     0x1.52ddf13685e9ap-2, 0x1.51d2105d68204p-3, 0x1.a99aa7fd194dp-1, 18},
    {"fig4 1.2/0.5 exp 1/10", 1.2, 0.5, 10, 1,
     0x1.425d9f3df9c76p+3, 0x1.44fea995d78afp+4,
     0x1.80ab3514353a3p-3, 0x1.37de6f793cd1p-2, 0x1.e90958a54197bp-1, 83},
    {"fig5 0.9/0.5 cx8 1/10", 0.9, 0.5, 10, 8,
     0x1.d198022f87342p+1, 0x1.b95085fd10ee5p+5,
     0x1.57bd01778accp-2, 0x1.4850c4f14e4d4p-3, 0x1.c20a0704e7874p-1, 25},
    {"fig5 1.2/0.5 cx8 1/10", 1.2, 0.5, 10, 8,
     0x1.dbd02bc25500cp+4, 0x1.ba79824aabd4ap+5,
     0x1.867db5541cf79p-3, 0x1.35075c9eb3c16p-2, 0x1.fa1ea3f53ded7p-1, 315},
    {"fig6 1.5/0.1 cx8 1/10", 1.5, 0.1, 10, 8,
     0x1.c0cea8c952ebcp+2, 0x1.eaf638967bc8ep+3,
     0x1.2233448a8c65p-2, 0x1.3a2114aa83601p-1, 0x1.f6f93305b271fp-1, 142},
    {"fig6 1.5/0.3 cx8 1/10", 1.5, 0.3, 10, 8,
     0x1.2cdb17162f218p+5, 0x1.dafb8025e255ap+4,
     0x1.1cbfe57b2aa4p-3, 0x1.1af7d416a1304p-1, 0x1.fbe32c219cfdcp-1, 465},
    {"grid 0.3/0.2 C2=1 1/1", 0.3, 0.2, 1, 1,
     0x1.101253cfbb695p+0, 0x1.459725ea43c8fp+0,
     0x1.87b5ed125a49ep-1, 0x1.043570696a59fp-5, 0x1.9918a87549c21p-3, 2},
    {"grid 0.3/0.2 C2=8 1/1", 0.3, 0.2, 1, 8,
     0x1.12b59e430697cp+0, 0x1.12b989400d836p+1,
     0x1.88295e660feap-1, 0x1.fb4c8bacbca37p-6, 0x1.15dc903745b2ap-2, 2},
    {"grid 0.3/0.5 C2=1 1/1", 0.3, 0.5, 1, 1,
     0x1.26a42deeb7a39p+0, 0x1.0355c7c19665ap+1,
     0x1.e551c1f34cd33p-2, 0x1.55831a3c28a97p-6, 0x1.045f76be72504p-2, 3},
    {"grid 0.3/0.5 C2=8 1/1", 0.3, 0.5, 1, 8,
     0x1.2a194be1f716fp+0, 0x1.6198f3d359454p+2,
     0x1.e670c2ca6ba8ep-2, 0x1.472975e104379p-6, 0x1.273e24a5a5d31p-2, 3},
    {"grid 0.3/0.7 C2=1 1/1", 0.3, 0.7, 1, 1,
     0x1.3bcf9bce2babcp+0, 0x1.ae83259ce5f5cp+1,
     0x1.20bdb1dbb02fcp-2, 0x1.b58bf9e176b6bp-7, 0x1.20b87fa0da931p-2, 3},
    {"grid 0.3/0.7 C2=8 1/1", 0.3, 0.7, 1, 8,
     0x1.3da313b5b5857p+0, 0x1.70ee84a2f685ep+3,
     0x1.214fa6fa4f9aep-2, 0x1.a8083e280aa12p-7, 0x1.2ed2aa1d88a5fp-2, 3},
    {"grid 0.6/0.2 C2=1 1/1", 0.6, 0.2, 1, 1,
     0x1.32f82354ef55ep+0, 0x1.53fb1963625a8p+0,
     0x1.59a9485b92144p-1, 0x1.d1024eda65544p-4, 0x1.83f5631c709a8p-2, 4},
    {"grid 0.6/0.2 C2=8 1/1", 0.6, 0.2, 1, 8,
     0x1.3d3a868022661p+0, 0x1.19baf3b94387ep+1,
     0x1.5b5381c4b6171p-1, 0x1.c4e67ec675a67p-4, 0x1.094c973c19efdp-1, 4},
    {"grid 0.6/0.5 C2=1 1/1", 0.6, 0.5, 1, 1,
     0x1.73449e42c0596p+0, 0x1.0c2deb125447fp+1,
     0x1.9e90a76d5dafcp-2, 0x1.37cab5086d8bfp-4, 0x1.efd0b99756433p-2, 5},
    {"grid 0.6/0.5 C2=8 1/1", 0.6, 0.5, 1, 8,
     0x1.8658dcc2da3b6p+0, 0x1.65c52556d9e31p+2,
     0x1.a3adaa9262614p-2, 0x1.276dde2b94367p-4, 0x1.20791efe52043p-1, 6},
    {"grid 0.6/0.7 C2=1 1/1", 0.6, 0.7, 1, 1,
     0x1.ba49e50c2fbadp+0, 0x1.b8e6c4edf1e9ap+1,
     0x1.ddbf03e087482p-3, 0x1.94e67940ce257p-5, 0x1.187f9abe64261p-1, 6},
    {"grid 0.6/0.7 C2=8 1/1", 0.6, 0.7, 1, 8,
     0x1.c7e9af697890dp+0, 0x1.736553ab9c6f7p+3,
     0x1.e4003fdbbc246p-3, 0x1.825e1361f8bcfp-5, 0x1.2beeaaf8accdfp-1, 7},
    {"grid 0.9/0.2 C2=1 1/1", 0.9, 0.2, 1, 1,
     0x1.778fba41a10afp+0, 0x1.68bada70f0bfbp+0,
     0x1.1743ab636401p-1, 0x1.d9f2a80af1707p-3, 0x1.156aac8045e9p-1, 7},
    {"grid 0.9/0.2 C2=8 1/1", 0.9, 0.2, 1, 8,
     0x1.977ba2725a68ap+0, 0x1.23ee1813a6fccp+1,
     0x1.1a0c32b56ce26p-1, 0x1.cfd3a4b216fb4p-3, 0x1.6dbaae1127395p-1, 8},
    {"grid 0.9/0.5 C2=1 1/1", 0.9, 0.5, 1, 1,
     0x1.0f4300e65f00ep+1, 0x1.1987b7bdf8282p+1,
     0x1.33c242103ec3ep-2, 0x1.46c92fe602063p-3, 0x1.5c5592dbcb222p-1, 10},
    {"grid 0.9/0.5 C2=8 1/1", 0.9, 0.5, 1, 8,
     0x1.43e53961892c6p+1, 0x1.6c20eacb20ef4p+2,
     0x1.3df1534df0ed3p-2, 0x1.367de11ce49b6p-3, 0x1.973651c9b0e92p-1, 15},
    {"grid 0.9/0.7 C2=1 1/1", 0.9, 0.7, 1, 1,
     0x1.9417a5a6db288p+1, 0x1.c95672ad720d8p+1,
     0x1.3ff54cb21fb6fp-3, 0x1.b435c743f793p-4, 0x1.8d71a7206f0f2p-1, 16},
    {"grid 0.9/0.7 C2=8 1/1", 0.9, 0.7, 1, 8,
     0x1.e6aee1a3762dcp+1, 0x1.773bae89ee50dp+3,
     0x1.50a5d1b5d676dp-3, 0x1.9b7c1ea6b7fe2p-4, 0x1.b1e1b007c3ec1p-1, 22},
    {"grid 1.1/0.2 C2=1 1/1", 1.1, 0.2, 1, 1,
     0x1.cbaa1fdf90f56p+0, 0x1.79511b1e4388dp+0,
     0x1.c45f52718302ap-2, 0x1.4d7acc52fd502p-2, 0x1.4a8498fbd88ap-1, 10},
    {"grid 1.1/0.2 C2=8 1/1", 1.1, 0.2, 1, 8,
     0x1.05a7cacff6fbap+1, 0x1.2c365f151d47ep+1,
     0x1.ca14d88b56098p-2, 0x1.484a23de6c047p-2, 0x1.9c080d5f839ap-1, 14},
    {"grid 1.1/0.5 C2=1 1/1", 1.1, 0.5, 1, 1,
     0x1.96aca9df8f80fp+1, 0x1.24b6eecc7af5p+1,
     0x1.b49113385099fp-3, 0x1.d5f2570625c16p-3, 0x1.962382348e9bep-1, 18},
    {"grid 1.1/0.5 C2=8 1/1", 1.1, 0.5, 1, 8,
     0x1.1e1959665a0efp+2, 0x1.71bf604b14dc5p+2,
     0x1.c813f69d634a8p-3, 0x1.c6566de87b432p-3, 0x1.ca1bb9b809b7ep-1, 33},
    {"grid 1.1/0.7 C2=1 1/1", 1.1, 0.7, 1, 1,
     0x1.b4abbbe00bcfcp+2, 0x1.d84152457bda3p+1,
     0x1.61803ac9e8de6p-4, 0x1.442f5285cf35ap-3, 0x1.cae6c25009031p-1, 40},
    {"grid 1.1/0.7 C2=8 1/1", 1.1, 0.7, 1, 8,
     0x1.6f3f64220e45cp+3, 0x1.7b07f50e5512cp+3,
     0x1.7d9ce219a8fbap-4, 0x1.39c5e525e1e5p-3, 0x1.e76166b2007eep-1, 81},
    {"grid 1.25/0.2 C2=1 1/1", 1.25, 0.2, 1, 1,
     0x1.1afeb02cc8742p+1, 0x1.86f5eb003483fp+0,
     0x1.6d0d5331e322ap-2, 0x1.9cdc9d1877662p-2, 0x1.71bc61d18a79dp-1, 14},
    {"grid 1.25/0.2 C2=8 1/1", 1.25, 0.2, 1, 8,
     0x1.4f536f387a5e5p+1, 0x1.33171efb961a9p+1,
     0x1.720b40387e86p-2, 0x1.9852dce3e9c5bp-2, 0x1.b4f7071dcda05p-1, 21},
    {"grid 1.25/0.5 C2=1 1/1", 1.25, 0.5, 1, 1,
     0x1.47a2c6192e9dap+2, 0x1.2e38d78ba0d5ap+1,
     0x1.1c728745f22dp-3, 0x1.27d2304a6b406p-2, 0x1.be8d971a5108bp-1, 32},
    {"grid 1.25/0.5 C2=8 1/1", 1.25, 0.5, 1, 8,
     0x1.06592eac65c5fp+3, 0x1.76b17391404dap+2,
     0x1.29d18dd7f6122p-3, 0x1.2278fa766a0f1p-2, 0x1.e171f1f9d1136p-1, 65},
    {"grid 1.25/0.7 C2=1 1/1", 1.25, 0.7, 1, 1,
     0x1.d6f6ee1609f9dp+4, 0x1.e5bf4940bc44ep+1,
     0x1.79d06c9453c2bp-6, 0x1.a420d9807f716p-3, 0x1.f2f979ddf76f3p-1, 176},
    {"grid 1.25/0.7 C2=8 1/1", 1.25, 0.7, 1, 8,
     0x1.f3e7b78656488p+5, 0x1.7eacf692d9592p+3,
     0x1.96d81c94ca78dp-6, 0x1.a170bafbb6e91p-3, 0x1.fa6b77895c5f1p-1, 405},
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
     {0x1.e7d2fb2fb8dfbp+0, 0x1.143d515fedb48p+1,
      0x1.382f0dca3aad7p-2, 0x1.4b45940a6f36p-3}, 0x1.a69f0cf8747a4p-2},
    {"erlang2 0.8/0.5 C2=8", ShortSizes::kErlang2, 0.8, 0.5, 8,
     {0x1.d7cce76fd30e6p+0, 0x1.67b4cf6f3db6cp+2,
      0x1.67a22297f9babp-2, 0x1.f956425bb96e8p-4}, 0x1.a602bd8118239p-2},
    {"erlang2 1.2/0.3 C2=1", ShortSizes::kErlang2, 1.2, 0.3, 1,
     {0x1.1567bc36521cfp+1, 0x1.a759a7c19fa1bp+0,
      0x1.3ed0195cc889fp-2, 0x1.6260e28853d34p-2}, 0x1.a4089e0000ca3p-2},
    {"erlang2 1/0.5 C2=8", ShortSizes::kErlang2, 1, 0.5, 8,
     {0x1.7326664ebe419p+1, 0x1.6bc6ef0858fb9p+2,
      0x1.17a89f843c18cp-2, 0x1.81224ae61596dp-3}, 0x1.a702ad2b08913p-2},
    {"coxian4 0.9/0.5 C2=1", ShortSizes::kCoxian4, 0.9, 0.5, 1,
     {0x1.9a09025d8f32dp+1, 0x1.325cfc816c2bep+1,
      0x1.26f2b0d53ae11p-2, 0x1.3a8c69beec18ap-3}, 0x1.8535467af9b9ep-1},
    {"coxian4 0.8/0.5 C2=8", ShortSizes::kCoxian4, 0.8, 0.5, 8,
     {0x1.895936d96d3fcp+1, 0x1.73a1f52bca814p+2,
      0x1.57fae6d5c35f9p-2, 0x1.e5f09bd5d4b09p-4}, 0x1.883e892f2ba32p-1},
    {"coxian4 1.2/0.3 C2=1", ShortSizes::kCoxian4, 1.2, 0.3, 1,
     {0x1.041de6f2c3a99p+2, 0x1.f597c8c1ca6e2p+0,
      0x1.3071319ed1759p-2, 0x1.4c6007c59a806p-2}, 0x1.9ab12e1d85dc5p-1},
    {"coxian4 1/0.5 C2=8", ShortSizes::kCoxian4, 1, 0.5, 8,
     {0x1.4515838a80d31p+2, 0x1.7cdf0004f82c6p+2,
      0x1.061738da605c9p-2, 0x1.6a9f7d97fc6ecp-3}, 0x1.836c1f8615f28p-1},
};

struct MapArrivalsPin {
  const char* tag;
  double rho_s, rho_l, scv_l;
  double peak_to_mean, high_fraction, high_sojourn;  // MapProcess::bursty knobs
  ExtensionOutputs out;
};

const MapArrivalsPin kMapArrivalsPins[] = {
    {"mmpp 1/0.5 C2=8 bursty(4,0.1,3)", 1, 0.5, 8, 4, 0.1, 3,
     {0x1.08960b65838e5p+3, 0x1.70622cde51a15p+2,
      0x1.f3ba6435cbaa4p-3, 0x1.a36ae3082996p-3}},
    {"mmpp 0.9/0.5 C2=8 bursty(3,0.2,10)", 0.9, 0.5, 8, 3, 0.2, 10,
     {0x1.73591b5aa4975p+3, 0x1.6ef809c59006cp+2,
      0x1.107f63a6ff6a6p-2, 0x1.7f342d5b33a6p-3}},
    {"mmpp 0.6/0.3 C2=1 bursty(2,0.25,5)", 0.6, 0.3, 1, 2, 0.25, 5,
     {0x1.7b160460f897bp+0, 0x1.85dced4423f76p+0,
      0x1.22c89adace7f2p-1, 0x1.d65ff74584ea6p-4}},
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
// One row per registered policy on two 2-host workloads: the exponential
// paper setup (rho_S = 0.9, rho_L = 0.5, sizes 1/1) and Coxian C^2 = 8
// longs (mean 10) under bursty MMPP short arrivals (rho_S = 0.8,
// rho_L = 0.5). Each run uses seed 15 and stops at 20000 completions. Every
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

SystemConfig sim_pin_config(bool coxian_mmpp) {
  if (!coxian_mmpp) return SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0, 1.0);
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

// clang-format on

void expect_class_pin(const sim::ClassStats& actual, const SimClassPin& pin) {
  EXPECT_EQ(actual.completions, pin.completions);
  EXPECT_EQ(actual.mean_response, pin.mean_response);
  EXPECT_EQ(actual.ci95, pin.ci95);
}

void expect_sim_pins(bool coxian_mmpp, const SimPin (&pins)[15]) {
  ASSERT_EQ(sim::policy_registry().size(), std::size(pins));
  const SystemConfig c = sim_pin_config(coxian_mmpp);
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

TEST(SimPins, ExponentialPaperSetupEveryPolicy) { expect_sim_pins(false, kExponentialPins); }

TEST(SimPins, CoxianLongsMmppShortsEveryPolicy) { expect_sim_pins(true, kCoxianMmppPins); }

}  // namespace
