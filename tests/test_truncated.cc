#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "analysis/truncated_cscq.h"
#include "mg1/mmc.h"

namespace csq::analysis {
namespace {

TEST(TruncatedCscq, NoLongsIsExactMM2) {
  const SystemConfig c = SystemConfig::paper_setup(1.2, 0.0, 1.0, 1.0);
  TruncatedCscqOptions o;
  o.max_longs = 2;
  const TruncatedCscqResult r = analyze_cscq_truncated(c, o);
  const double expected = mg1::mmc_response(2, c.lambda_short, 1.0);
  EXPECT_NEAR(r.metrics.shorts.mean_response, expected, 1e-12 * expected);
}

TEST(TruncatedCscq, ConvergesMonotonicallyInLongCap) {
  const SystemConfig c = SystemConfig::paper_setup(1.0, 0.5, 1.0, 1.0);
  double prev_mass = 1.0;
  double prev_resp = 0.0;
  for (const int cap : {5, 10, 20, 40}) {
    TruncatedCscqOptions o;
    o.max_longs = cap;
    const TruncatedCscqResult r = analyze_cscq_truncated(c, o);
    // Mass trapped at the cap decays; the response estimate grows toward
    // the true value (the cap turns away longs, which frees the servers).
    EXPECT_LT(r.mass_at_long_cap, prev_mass) << "cap=" << cap;
    EXPECT_GT(r.metrics.shorts.mean_response, prev_resp) << "cap=" << cap;
    prev_mass = r.mass_at_long_cap;
    prev_resp = r.metrics.shorts.mean_response;
  }
  EXPECT_LT(prev_mass, 1e-8);
}

// At (0.5, 0.3) the mass at cap 100 is ~0.3^100, below round-off: the
// unclamped sum of pi came out -2.6e-33, which the --resilient trailer
// printed as "stranded mass -0.0000".
TEST(TruncatedCscq, MassAtTheLongCapIsNeverNegative) {
  const SystemConfig c = SystemConfig::paper_setup(0.5, 0.3, 1.0, 1.0);
  const TruncatedCscqResult r = analyze_cscq_truncated(c);
  EXPECT_GE(r.mass_at_long_cap, 0.0);
  EXPECT_LE(r.mass_at_long_cap, std::pow(long_count_decay(c), 100));
}

// Exp/exp rows (rho_S, rho_L, E[X_S], E[X_L]) on both sides of
// rho_L = lambda_L / (lambda_L + 2 mu_S), which decides the term of
// long_count_decay that holds, and one row on it.
struct DecayRow {
  double rho_s, rho_l, mean_s, mean_l;
};
constexpr DecayRow kDecayRows[] = {{0.5, 0.5, 1, 1},  {0.5, 0.8, 1, 1}, {0.5, 0.9, 1, 1},
                                   {1.2, 0.7, 1, 1},  {0.3, 0.3, 10, 1}, {0.9, 0.3, 10, 1},
                                   {1.1, 0.8, 1, 10}, {0.2, 0.6, 5, 1}};

TEST(TruncatedCscq, MassAtTheLongCapFallsAtTheLongCountDecay) {
  for (const DecayRow& row : kDecayRows) {
    const SystemConfig c =
        SystemConfig::paper_setup(row.rho_s, row.rho_l, row.mean_s, row.mean_l);
    const double eta = long_count_decay(c);
    std::vector<double> mass;
    for (const int cap : {20, 40, 60}) {
      TruncatedCscqOptions o;
      o.max_longs = cap;
      mass.push_back(analyze_cscq_truncated(c, o).mass_at_long_cap);
      // The cap rule's premise: eta^N bounds the mass stranded at cap N.
      EXPECT_LE(mass.back(), std::pow(eta, cap))
          << "rho_s=" << row.rho_s << " rho_l=" << row.rho_l << " cap=" << cap;
    }
    const double ratio = mass[2] / mass[1] / std::pow(eta, 20);
    const double setup = c.lambda_long / (c.lambda_long + 2.0 / row.mean_s);
    if (std::abs(setup - row.rho_l) > 1e-9) {
      EXPECT_NEAR(ratio, 1.0, 0.03) << "rho_s=" << row.rho_s << " rho_l=" << row.rho_l;
    } else {
      // A tie (the last row): the two geometric terms merge into a double
      // root, P(n_L = n) ~ (n + a) eta^n, so the ratio carries a factor
      // (60 + a) / (40 + a) in (1, 1.5]. It reads 1.17.
      EXPECT_GT(ratio, 1.0);
      EXPECT_LE(ratio, 1.5);
    }
  }
}

TEST(TruncatedCscq, RegionProbabilitiesSumToNoLongProbability) {
  const SystemConfig c = SystemConfig::paper_setup(0.8, 0.4, 1.0, 1.0);
  const TruncatedCscqResult r = analyze_cscq_truncated(c);
  // P(region1) + P(region2) = P(n_L = 0) >= 1 - rho_L lower bound sanity.
  EXPECT_GT(r.p_region1 + r.p_region2, 0.3);
  EXPECT_LT(r.p_region1 + r.p_region2, 1.0);
}

TEST(TruncatedCscq, LittleLawConsistencyForLongs) {
  // Longs form a single-server system inside CS-CQ: utilization rho_L, so
  // E[N_L] >= rho_L; response = E[N_L]/lambda_L must exceed service mean.
  const SystemConfig c = SystemConfig::paper_setup(0.8, 0.6, 1.0, 1.0);
  const TruncatedCscqResult r = analyze_cscq_truncated(c);
  EXPECT_GT(r.metrics.longs.mean_response, 1.0);
}

TEST(TruncatedCscq, RejectsNonExponential) {
  SystemConfig c = SystemConfig::paper_setup(0.5, 0.5, 1.0, 1.0, 8.0);
  EXPECT_THROW((void)analyze_cscq_truncated(c), std::invalid_argument);
  SystemConfig c2 = SystemConfig::paper_setup(0.5, 0.5, 1.0, 1.0);
  TruncatedCscqOptions o;
  o.max_longs = 0;
  EXPECT_THROW((void)analyze_cscq_truncated(c2, o), std::invalid_argument);
  EXPECT_THROW((void)analyze_cscq_truncated(SystemConfig::paper_setup(1.8, 0.5, 1, 1)),
               std::domain_error);
}

// One state of the chain, (n_S, n_L, c) with c = A (n_L = 0), L or W.
enum class Config { kA, kL, kW };
struct State {
  int ns, nl;
  Config c;
};

// Every transition out of state s, read off the model description in
// analysis/truncated_cscq.h rather than the block builder.
std::vector<std::pair<State, double>> transitions(const State& s, int nl_max, double ls,
                                                  double ll, double mu_s, double mu_l) {
  std::vector<std::pair<State, double>> out;
  out.push_back({{s.ns + 1, s.nl, s.c}, ls});  // a short arrival queues or starts
  switch (s.c) {
    case Config::kA:
      out.push_back({{s.ns, 1, s.ns >= 2 ? Config::kW : Config::kL}, ll});
      if (s.ns >= 1) out.push_back({{s.ns - 1, 0, Config::kA}, std::min(s.ns, 2) * mu_s});
      break;
    case Config::kL:
      if (s.nl < nl_max) out.push_back({{s.ns, s.nl + 1, Config::kL}, ll});
      out.push_back({s.nl == 1 ? State{s.ns, 0, Config::kA} : State{s.ns, s.nl - 1, Config::kL},
                     mu_l});
      if (s.ns >= 1) out.push_back({{s.ns - 1, s.nl, Config::kL}, mu_s});
      break;
    case Config::kW:
      if (s.nl < nl_max) out.push_back({{s.ns, s.nl + 1, Config::kW}, ll});
      out.push_back({{s.ns - 1, s.nl, Config::kL}, 2.0 * mu_s});
      break;
  }
  return out;
}

TEST(TruncatedCscq, StationaryVectorSolvesTheGenerator) {
  // ||pi Q||_inf over every level that carries mass above 1e-15, with Q
  // taken state by state from transitions() and pi from the QBD solution.
  struct Point {
    double rho_s, rho_l, mean_l;
  };
  for (const Point p : {Point{0.5, 0.3, 1.0}, Point{1.0, 0.3, 1.0}, Point{0.5, 0.6, 1.0},
                        Point{1.0, 0.6, 10.0}, Point{1.4, 0.5, 1.0}, Point{0.2, 0.75, 3.0}}) {
    const SystemConfig c = SystemConfig::paper_setup(p.rho_s, p.rho_l, 1.0, p.mean_l);
    const int nl_max = 30;
    const qbd::Solution sol = qbd::solve(cscq_truncated_model(c, nl_max));
    const double ls = c.lambda_short, ll = c.lambda_long;
    const double mu_s = 1.0, mu_l = 1.0 / p.mean_l;
    const double max_rate = std::max({ls, ll, 2.0 * mu_s, mu_l});

    std::size_t top = 2;
    while (sol.level_tail(top) >= 1e-15) ++top;
    // pi by level, one past `top` so every equation at or below it sees all
    // of its inflow.
    std::vector<std::vector<double>> pi(sol.boundary_pi.begin(), sol.boundary_pi.end());
    for (std::vector<double> v = sol.pi_k; pi.size() <= top + 1; v = v * sol.r) pi.push_back(v);
    const auto phase = [&](const State& s) -> std::size_t {
      if (s.c == Config::kA) return 0;
      return static_cast<std::size_t>(s.c == Config::kW ? nl_max + s.nl : s.nl);
    };
    std::vector<std::vector<double>> flow;
    for (const std::vector<double>& level : pi) flow.emplace_back(level.size(), 0.0);
    for (std::size_t ns = 0; ns < pi.size(); ++ns) {
      const int n = static_cast<int>(ns);
      std::vector<State> states{{n, 0, Config::kA}};
      for (int nl = 1; nl <= nl_max; ++nl) states.push_back({n, nl, Config::kL});
      if (n >= 2)
        for (int nl = 1; nl <= nl_max; ++nl) states.push_back({n, nl, Config::kW});
      ASSERT_EQ(states.size(), pi[ns].size());
      for (const State& s : states) {
        const double mass = pi[ns][phase(s)];
        for (const auto& [to, rate] : transitions(s, nl_max, ls, ll, mu_s, mu_l)) {
          flow[ns][phase(s)] -= mass * rate;
          if (static_cast<std::size_t>(to.ns) < flow.size())
            flow[static_cast<std::size_t>(to.ns)][phase(to)] += mass * rate;
        }
      }
    }
    double residual = 0.0;
    for (std::size_t ns = 0; ns <= top; ++ns)
      for (const double f : flow[ns]) residual = std::max(residual, std::abs(f));
    EXPECT_LE(residual, 1e-12 * max_rate)
        << "rho_s=" << p.rho_s << " rho_l=" << p.rho_l << " levels=" << top;
  }
}

}  // namespace
}  // namespace csq::analysis
