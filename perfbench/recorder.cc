#include <algorithm>
#include <cmath>
#include <utility>

#include "perfbench.h"

namespace perfbench {

namespace {

constexpr std::int64_t kBucketNs = 1'000'000'000;

// Smallest value whose cumulative weight reaches q of the total.
double weighted_percentile(std::vector<std::pair<double, double>> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double total = 0.0;
  for (const auto& [value, weight] : v) total += weight;
  double cum = 0.0;
  for (const auto& [value, weight] : v) {
    cum += weight;
    if (cum >= q * total) return value;
  }
  return v.back().first;
}

}  // namespace

PhaseRecorder::PhaseRecorder(std::int64_t start_ns, double seconds, std::size_t per_bucket)
    : start_ns_(start_ns),
      buckets_(static_cast<std::size_t>(std::ceil(std::max(seconds, 0.0))) + 1) {
  for (Bucket& b : buckets_) b.sample.assign(per_bucket, 0.0);
}

void PhaseRecorder::add(const Completion& c) {
  if (!c.ok) {
    ++not_ok_;
    return;
  }
  ++ok_;
  const std::int64_t since = std::max<std::int64_t>(0, c.t_sink - start_ns_);
  const auto index = static_cast<std::size_t>(since / kBucketNs);
  Bucket& b = buckets_[std::min(buckets_.size() - 1, index)];
  const double ms = static_cast<double>(c.t_sink - c.t_submit) / 1e6;
  const auto seen = static_cast<std::uint64_t>(b.ok++);
  if (b.filled < b.sample.size()) {
    b.sample[b.filled++] = ms;
    return;
  }
  // Algorithm R: keep the new value with probability capacity / (seen + 1).
  std::uint64_t z = (rng_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const std::uint64_t j = z % (seen + 1);
  if (j < b.sample.size()) b.sample[j] = ms;
}

std::vector<PhaseRecorder::Window> PhaseRecorder::windows(std::int64_t end_ns,
                                                          std::int64_t min_ok,
                                                          std::size_t max_windows) const {
  const std::size_t n = buckets_.size();
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(ok_ / std::max<std::int64_t>(1, min_ok)), 1,
      std::max<std::size_t>(1, max_windows));
  // Cut the buckets into k runs of roughly equal ok count, then merge any
  // run left short of min_ok (bucket granularity) into its predecessor.
  std::vector<std::size_t> ends;  // exclusive bucket index of each window
  std::vector<std::int64_t> counts;
  std::int64_t cum = 0, in_window = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += buckets_[i].ok;
    in_window += buckets_[i].ok;
    const auto target =
        static_cast<std::int64_t>((ends.size() + 1) * static_cast<std::size_t>(ok_) / k);
    if (i + 1 == n || (ends.size() + 1 < k && cum >= target)) {
      ends.push_back(i + 1);
      counts.push_back(in_window);
      in_window = 0;
    }
  }
  for (std::size_t j = ends.size(); j-- > 1;) {
    if (counts[j] >= min_ok) continue;
    counts[j - 1] += counts[j];
    ends[j - 1] = ends[j];
    counts.erase(counts.begin() + static_cast<std::ptrdiff_t>(j));
    ends.erase(ends.begin() + static_cast<std::ptrdiff_t>(j));
  }

  std::vector<Window> out;
  std::size_t begin = 0;
  for (const std::size_t stop : ends) {
    Window w;
    std::vector<std::pair<double, double>> samples;  // (latency, weight)
    for (std::size_t i = begin; i < stop; ++i) {
      const Bucket& b = buckets_[i];
      const std::int64_t lo = start_ns_ + static_cast<std::int64_t>(i) * kBucketNs;
      const std::int64_t hi = i + 1 == n ? end_ns : std::min(end_ns, lo + kBucketNs);
      w.seconds += static_cast<double>(std::max<std::int64_t>(0, hi - lo)) / 1e9;
      w.ok += b.ok;
      w.samples += static_cast<std::int64_t>(b.filled);
      // Each kept latency stands for ok / filled completions of its bucket.
      for (std::size_t j = 0; j < b.filled; ++j)
        samples.emplace_back(b.sample[j],
                             static_cast<double>(b.ok) / static_cast<double>(b.filled));
    }
    w.p50_ms = weighted_percentile(samples, 0.50);
    w.p99_ms = weighted_percentile(samples, 0.99);
    out.push_back(w);
    begin = stop;
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
