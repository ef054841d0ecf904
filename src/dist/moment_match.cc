#include "dist/moment_match.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "core/numeric.h"
#include "core/status.h"
#include "obs/obs.h"

namespace csq::dist {

namespace {

// Memo key: the exact bit patterns of the target moments plus the requested
// moment count. Keying on bits (not values) keeps the cache a pure
// memoization — two calls hit the same entry only when fit_ph would have
// performed the identical computation, so cached and fresh results are
// indistinguishable (fit_ph is deterministic in its inputs).
struct FitKey {
  std::uint64_t m1, m2, m3;
  int max_moments;

  bool operator==(const FitKey&) const = default;
};

struct FitKeyHash {
  std::size_t operator()(const FitKey& k) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(k.max_moments);
    for (std::uint64_t v : {k.m1, k.m2, k.m3}) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdull;
    }
    return static_cast<std::size_t>(h);
  }
};

struct FitEntry {
  PhaseType ph;
  FitReport report;
};

// The 3-moment Coxian fit runs a 4096-point grid scan plus bisection
// (a few microseconds; BM_FitCoxian3Cold), and a sweep or batch re-fits the
// same few distributions for every config. thread_local keeps the cache
// lock-free; the size cap bounds memory on adversarial workloads (clearing
// is cheap and merely re-pays one fit per distinct key).
constexpr std::size_t kFitCacheCap = 4096;

std::unordered_map<FitKey, FitEntry, FitKeyHash>& fit_cache() {
  thread_local std::unordered_map<FitKey, FitEntry, FitKeyHash> cache;
  return cache;
}

// g(x) from the reduced 3-moment Coxian-2 system; see fit_coxian2_3moments.
double reduced_g(double x, const Moments& m, double* y_out, double* p_out) {
  const double denom = m.m1 - x;
  const double y = (m.m2 / 2.0 - x * x) / denom - x;
  const double p = denom / y;
  if (y_out) *y_out = y;
  if (p_out) *p_out = p;
  return x * x * x + denom * (x * x + x * y + y * y) - m.m3 / 6.0;
}

bool valid_root(double x, double y, double p, double m1) {
  return x > 0.0 && x < m1 && y > 0.0 && p > 0.0 && p <= 1.0 + 1e-12;
}

// The root scan visits x_i = m1 * i/(kGrid+1) for i = 1..kGrid. The
// fractions do not depend on the call, so they are a table; constant
// evaluation rounds i/(kGrid+1) exactly as the runtime division does.
constexpr int kGrid = 4096;
constexpr auto kGridFraction = [] {
  std::array<double, kGrid + 1> f{};
  for (int i = 1; i <= kGrid; ++i) f[i] = static_cast<double>(i) / (kGrid + 1);
  return f;
}();

// g is evaluated kBlock grid points at a time into stack arrays (a loop with
// no early exit, which the compiler vectorises); the scan then walks a block
// in order only when it holds a sign change. kBlock divides kGrid.
constexpr int kBlock = 64;
static_assert(kGrid % kBlock == 0);

}  // namespace

bool fit_coxian2_3moments(const Moments& m, double* mu1, double* mu2, double* p_out) {
  // Coxian-2 with sojourn means x = 1/mu1, y = 1/mu2 and continuation
  // probability p satisfies
  //   m1   = x + p y
  //   m2/2 = x^2 + p y (x + y)
  //   m3/6 = x^3 + p y (x^2 + x y + y^2).
  // Eliminating p and y leaves a single equation g(x) = 0 on (0, m1).
  const double m1 = m.m1;
  if (m1 <= 0.0) return false;
  double prev_x = 0.0;
  double prev_g = 0.0;
  for (int i0 = 1; i0 <= kGrid; i0 += kBlock) {
    double xs[kBlock];
    double gs[kBlock];
    for (int k = 0; k < kBlock; ++k) {
      xs[k] = m1 * kGridFraction[i0 + k];
      gs[k] = reduced_g(xs[k], m, nullptr, nullptr);
    }
    // The ordered scan acts only where prev_g * g <= 0 (NaN products fail
    // it), so a block with no such adjacent pair, counting the one across
    // the block boundary, just hands its last point on.
    int sign_changes = i0 > 1 && prev_g * gs[0] <= 0.0;
    for (int k = 1; k < kBlock; ++k) sign_changes += gs[k - 1] * gs[k] <= 0.0;
    if (sign_changes == 0) {
      prev_x = xs[kBlock - 1];
      prev_g = gs[kBlock - 1];
      continue;
    }
    for (int k = 0; k < kBlock; ++k) {
      const double x = xs[k];
      const double g = gs[k];
      if (i0 + k > 1 && std::isfinite(prev_g) && std::isfinite(g) && prev_g * g <= 0.0) {
        // Bisect on [prev_x, x]. Once mid equals lo or hi the interval has
        // reached adjacent doubles (or a single one), and no later step can
        // move x_root: if the step keeps lo and hi, the next mid is the
        // same; if it collapses them onto mid (hi = mid == lo, or lo = mid
        // == hi), every later mid is 0.5 * (mid + mid) == mid. (glo is
        // always g(lo), so lo = mid == lo rewrites glo with the same
        // value.) Either way 0.5 * (lo + hi) after all 200 steps would be
        // this mid, which is what stopping here leaves it as.
        double lo = prev_x, hi = x, glo = prev_g;
        for (int it = 0; it < 200; ++it) {
          const double mid = 0.5 * (lo + hi);
          if (num::exactly_eq(mid, lo) || num::exactly_eq(mid, hi)) break;
          const double gm = reduced_g(mid, m, nullptr, nullptr);
          if (glo * gm <= 0.0) {
            hi = mid;
          } else {
            lo = mid;
            glo = gm;
          }
        }
        double y = 0.0, p = 0.0;
        const double x_root = 0.5 * (lo + hi);
        reduced_g(x_root, m, &y, &p);
        if (valid_root(x_root, y, p, m1)) {
          *mu1 = 1.0 / x_root;
          *mu2 = 1.0 / y;
          *p_out = std::min(p, 1.0);
          return true;
        }
      }
      prev_x = x;
      prev_g = g;
    }
  }
  return false;
}

PhaseType fit_mixed_erlang(double mean, double scv) {
  if (mean <= 0.0 || scv <= 0.0 || scv > 1.0 + 1e-12)
    throw InvalidInputError("fit_mixed_erlang: need mean > 0, 0 < scv <= 1");
  if (scv > 1.0 - 1e-9) return PhaseType::exponential(1.0 / mean);
  // Tijms: pick k with 1/k <= scv <= 1/(k-1); mix Erlang(k-1) and Erlang(k).
  const int k = static_cast<int>(std::ceil(1.0 / scv));
  const double kd = k;
  const double p =
      (1.0 / (1.0 + scv)) * (kd * scv - std::sqrt(kd * (1.0 + scv) - kd * kd * scv));
  const double rate = (kd - p) / mean;
  // Build as a single Erlang(k) chain entered at stage 2 with probability p
  // (shortening it to k-1 stages).
  const auto n = static_cast<std::size_t>(k);
  std::vector<double> alpha(n, 0.0);
  alpha[0] = 1.0 - p;
  alpha[1] = p;
  linalg::Matrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t(i, i) = -rate;
    if (i + 1 < n) t(i, i + 1) = rate;
  }
  return {std::move(alpha), std::move(t)};
}

PhaseType fit_ph(const Moments& target, int max_moments, FitReport* report) {
  if (report) *report = FitReport{max_moments, 1, false};
  if (target.m1 <= 0.0) throw InvalidInputError("fit_ph: mean must be positive");
  if (max_moments < 1 || max_moments > 3)
    throw InvalidInputError("fit_ph: max_moments must be 1..3");
  // NaN slips past the m1 <= 0 guard; a non-finite moment the fit reads
  // would come back as a NaN-mean PhaseType (or a 3-moment "match"), and be
  // memoised.
  if (!std::isfinite(target.m1) || (max_moments >= 2 && !std::isfinite(target.m2)) ||
      (max_moments == 3 && !std::isfinite(target.m3)))
    throw InvalidInputError("fit_ph: moments must be finite");

  const FitKey key{std::bit_cast<std::uint64_t>(target.m1),
                   std::bit_cast<std::uint64_t>(target.m2),
                   std::bit_cast<std::uint64_t>(target.m3), max_moments};
  auto& cache = fit_cache();
  if (const auto it = cache.find(key); it != cache.end()) {
    CSQ_OBS_COUNT("dist.fit.cache_hits");
    if (report) *report = it->second.report;
    return it->second.ph;
  }
  CSQ_OBS_COUNT("dist.fit.cache_misses");

  FitReport local_report{max_moments, 1, false};
  const auto memoize = [&](PhaseType ph) -> PhaseType {
    if (cache.size() >= kFitCacheCap) cache.clear();
    cache.emplace(key, FitEntry{ph, local_report});
    if (report) *report = local_report;
    return ph;
  };

  if (max_moments == 1) {
    local_report.moments_matched = 1;
    return memoize(PhaseType::exponential(1.0 / target.m1));
  }

  const double scv = target.scv();
  if (scv < -1e-9) throw InvalidInputError("fit_ph: m2 < m1^2 is not realizable");

  const auto two_moment = [&]() -> PhaseType {
    local_report.moments_matched = 2;
    if (std::abs(scv - 1.0) < 1e-9) {
      local_report.moments_matched = 3;  // exponential matches all of them
      return PhaseType::exponential(1.0 / target.m1);
    }
    if (scv < 1.0) return fit_mixed_erlang(target.m1, std::max(scv, 1e-9));
    return PhaseType::coxian_mean_scv(target.m1, scv);
  };

  if (max_moments == 2) return memoize(two_moment());

  double mu1 = 0, mu2 = 0, p = 0;
  if (fit_coxian2_3moments(target, &mu1, &mu2, &p)) {
    local_report.moments_matched = 3;
    return memoize(PhaseType::coxian({mu1, mu2}, {p}));
  }
  local_report.used_fallback = true;
  return memoize(two_moment());
}

}  // namespace csq::dist
