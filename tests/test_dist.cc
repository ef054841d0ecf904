#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "dist/distribution.h"
#include "dist/map_process.h"
#include "dist/phase_type.h"
#include "sim/rng.h"

namespace csq::dist {
namespace {

constexpr int kSamples = 400000;

double sample_mean(const Distribution& d, int n = kSamples) {
  Rng rng = sim::make_rng(42);
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += d.sample(rng);
  return s / n;
}

TEST(Moments, Derived) {
  const Moments m = Moments::exponential(2.0);
  EXPECT_DOUBLE_EQ(m.mean(), 2.0);
  EXPECT_DOUBLE_EQ(m.variance(), 4.0);
  EXPECT_DOUBLE_EQ(m.scv(), 1.0);
}

TEST(PhaseType, ExponentialMoments) {
  const PhaseType d = PhaseType::exponential(4.0);
  EXPECT_TRUE(d.is_exponential());
  EXPECT_DOUBLE_EQ(d.rate(), 4.0);
  EXPECT_NEAR(d.moment(1), 0.25, 1e-12);
  EXPECT_NEAR(d.moment(2), 2.0 * 0.25 * 0.25, 1e-12);
  EXPECT_NEAR(d.moment(3), 6.0 * std::pow(0.25, 3), 1e-12);
}

TEST(PhaseType, ErlangMoments) {
  const PhaseType d = PhaseType::erlang(3, 3.0);  // mean 1, scv 1/3
  EXPECT_NEAR(d.mean(), 1.0, 1e-12);
  EXPECT_NEAR(d.scv(), 1.0 / 3.0, 1e-12);
  // E[X^3] for Erlang(k, mu): k(k+1)(k+2)/mu^3.
  EXPECT_NEAR(d.moment(3), 3.0 * 4.0 * 5.0 / 27.0, 1e-12);
}

TEST(PhaseType, HyperexpMoments) {
  // Mixture of Exp(1) and Exp(2): a diagonal subgenerator.
  const PhaseType d({0.5, 0.5}, linalg::Matrix{{-1.0, 0.0}, {0.0, -2.0}});
  EXPECT_NEAR(d.mean(), 0.5 * 1.0 + 0.5 * 0.5, 1e-12);
  EXPECT_NEAR(d.moment(2), 0.5 * 2.0 + 0.5 * 2.0 * 0.25, 1e-12);
}

TEST(PhaseType, CoxianMoments) {
  // Cox-2: rates (2, 1), continue w.p. 0.5: E[X] = 1/2 + 0.5 * 1 = 1.
  const PhaseType d = PhaseType::coxian({2.0, 1.0}, {0.5});
  EXPECT_NEAR(d.mean(), 1.0, 1e-12);
  // E[X^2] = 2/mu1^2 + 2p/(mu1 mu2) + 2p/mu2^2 = 0.5 + 0.5 + 1 = 2.
  EXPECT_NEAR(d.moment(2), 2.0, 1e-12);
}

TEST(PhaseType, CoxianMeanScv) {
  const PhaseType d = PhaseType::coxian_mean_scv(10.0, 8.0);
  EXPECT_NEAR(d.mean(), 10.0, 1e-10);
  EXPECT_NEAR(d.scv(), 8.0, 1e-10);
  const PhaseType e = PhaseType::coxian_mean_scv(3.0, 1.0);
  EXPECT_TRUE(e.is_exponential());
}

TEST(PhaseType, SamplingMatchesMean) {
  const PhaseType d = PhaseType::coxian_mean_scv(2.0, 4.0);
  EXPECT_NEAR(sample_mean(d), 2.0, 0.05);
  const PhaseType e = PhaseType::erlang(4, 2.0);
  EXPECT_NEAR(sample_mean(e), 2.0, 0.02);
}

TEST(PhaseType, InvalidInputsThrow) {
  EXPECT_THROW(PhaseType::exponential(0.0), std::invalid_argument);
  EXPECT_THROW(PhaseType::erlang(0, 1.0), std::invalid_argument);
  EXPECT_THROW(PhaseType({0.7, 0.7}, linalg::Matrix{{-1.0, 0.0}, {0.0, -1.0}}),
               std::invalid_argument);
  EXPECT_THROW(PhaseType::coxian({1.0, 1.0}, {1.5}), std::invalid_argument);
  EXPECT_THROW(PhaseType({1.0}, linalg::Matrix{{1.0}}), std::invalid_argument);
  // A phase that can return to an earlier one (lower-triangular rate): the
  // moments are back-substituted, so T must be acyclic.
  EXPECT_THROW(PhaseType({1.0, 0.0}, linalg::Matrix{{-2.0, 1.0}, {1.0, -3.0}}),
               std::invalid_argument);
  const PhaseType d = PhaseType::exponential(1.0);
  EXPECT_THROW((void)d.moment(4), std::invalid_argument);
}

// --- The simulator's random stream (also run by the portable CI stage) -----

// xoshiro256++ from state {1, 2, 3, 4}: the first output is
// rotl(1 + 4, 23) + 1; the rest follow the reference recurrence.
TEST(RngStream, Xoshiro256PlusPlusKnownAnswers) {
  Rng rng({1, 2, 3, 4});
  constexpr std::uint64_t kExpected[] = {41943041ULL,
                                         58720359ULL,
                                         3588806011781223ULL,
                                         3591011842654386ULL,
                                         9228616714210784205ULL,
                                         9973669472204895162ULL};
  for (const std::uint64_t want : kExpected) EXPECT_EQ(rng(), want);
}

// A sample draws only what can change it: an exponential one word (no
// start-phase or exit draw), a two-phase Coxian two words when it absorbs
// from the first phase and three when it continues to the second.
TEST(RngStream, PhaseTypeSamplesConsumeOnlyDecidingDraws) {
  const auto advanced = [](Rng rng, int words) {
    for (int i = 0; i < words; ++i) (void)rng();
    return rng;
  };
  Rng rng = sim::make_rng(3);
  const PhaseType expo = PhaseType::exponential(2.0);
  for (int i = 0; i < 100; ++i) {
    const Rng want = advanced(rng, 1);
    (void)expo.sample(rng);
    ASSERT_TRUE(rng == want) << "sample " << i;
  }
  const PhaseType cox = PhaseType::coxian({2.0, 0.5}, {0.5});
  int absorbed_first = 0;
  int continued = 0;
  for (int i = 0; i < 200; ++i) {
    const Rng two = advanced(rng, 2);
    const Rng three = advanced(rng, 3);
    (void)cox.sample(rng);
    if (rng == two) {
      ++absorbed_first;
    } else {
      ASSERT_TRUE(rng == three) << "sample " << i;
      ++continued;
    }
  }
  EXPECT_GT(absorbed_first, 0);
  EXPECT_GT(continued, 0);
}

TEST(BoundedPareto, MomentsMatchSampling) {
  const BoundedPareto d(1.0, 1000.0, 1.5);
  EXPECT_NEAR(sample_mean(d), d.mean(), 0.05 * d.mean());
}

TEST(BoundedPareto, WithMeanHitsTarget) {
  const BoundedPareto d = BoundedPareto::with_mean(10.0, 1e5, 1.1);
  EXPECT_NEAR(d.mean(), 10.0, 1e-6);
}

TEST(BoundedPareto, AlphaEqualsMomentOrder) {
  // alpha == 2 exercises the logarithmic branch of the moment formula.
  const BoundedPareto d(1.0, 100.0, 2.0);
  const double m2 = d.moment(2);
  // Compare with a slightly perturbed alpha (continuity check).
  const double m2_eps = BoundedPareto(1.0, 100.0, 2.0 + 1e-7).moment(2);
  EXPECT_NEAR(m2, m2_eps, 1e-3 * m2);
}

// --- Markovian arrival processes -----------------------------------------------

TEST(MapProcess, PoissonBasics) {
  const dist::MapProcess m = dist::MapProcess::poisson(2.5);
  EXPECT_EQ(m.num_phases(), 1u);
  EXPECT_NEAR(m.mean_rate(), 2.5, 1e-12);
}

TEST(MapProcess, Mmpp2StationaryAndRate) {
  // Phase 0 fraction = s10/(s01+s10) = 0.75 with s01 = 1, s10 = 3.
  const dist::MapProcess m = dist::MapProcess::mmpp2(1.0, 5.0, 1.0, 3.0);
  EXPECT_NEAR(m.stationary_phases()[0], 0.75, 1e-12);
  EXPECT_NEAR(m.mean_rate(), 0.75 * 1.0 + 0.25 * 5.0, 1e-12);
}

TEST(MapProcess, BurstyHitsTargets) {
  const dist::MapProcess m = dist::MapProcess::bursty(0.9, 3.0, 0.2, 5.0);
  EXPECT_NEAR(m.mean_rate(), 0.9, 1e-12);
  EXPECT_NEAR(m.stationary_phases()[1], 0.2, 1e-12);
  EXPECT_THROW(dist::MapProcess::bursty(1.0, 10.0, 0.5, 1.0), std::invalid_argument);
}

TEST(MapProcess, SamplingMatchesMeanRate) {
  const dist::MapProcess m = dist::MapProcess::bursty(2.0, 4.0, 0.1, 3.0);
  dist::Rng rng = sim::make_rng(5);
  dist::MapProcess::State st = m.stationary_state(rng);
  const int n = 400000;
  double total = 0.0;
  for (int i = 0; i < n; ++i) total += m.next_interarrival(st, rng);
  EXPECT_NEAR(n / total, 2.0, 0.03);
}

TEST(MapProcess, InvalidInputsThrow) {
  EXPECT_THROW(dist::MapProcess(linalg::Matrix{{-1.0}}, linalg::Matrix{{2.0}}),
               std::invalid_argument);
  EXPECT_THROW(dist::MapProcess::poisson(0.0), std::invalid_argument);
  EXPECT_THROW(dist::MapProcess::mmpp2(0.0, 0.0, 1.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace csq::dist {
