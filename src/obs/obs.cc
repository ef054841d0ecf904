#include "obs/obs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "core/numeric.h"

namespace csq::obs {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

// Relaxed ordering throughout: the histogram is a statistics sink. Each
// field advances independently (count is monotonic, min/max only tighten,
// sum is a CAS loop on its own cell) and no reader synchronizes-with a
// writer through any of them — snapshots tolerate torn cross-field views.
void Histogram::observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  double old_sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(old_sum, old_sum + v, std::memory_order_relaxed)) {
  }
  double old_min = min_.load(std::memory_order_relaxed);
  while (v < old_min &&
         !min_.compare_exchange_weak(old_min, v, std::memory_order_relaxed)) {
  }
  double old_max = max_.load(std::memory_order_relaxed);
  while (v > old_max &&
         !max_.compare_exchange_weak(old_max, v, std::memory_order_relaxed)) {
  }
}

namespace {

// min_/max_ rest at +/-infinity until the first observation lands; clamp the
// sentinel to 0 so snapshots (and the JSON they feed) never carry an inf.
double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

// Relaxed loads: statistics reads — nothing orders against them.
double Histogram::min() const {
  return finite_or_zero(min_.load(std::memory_order_relaxed));
}

// Relaxed load: statistics read — nothing orders against it.
double Histogram::max() const {
  return finite_or_zero(max_.load(std::memory_order_relaxed));
}

// Relaxed stores: reset is only called from quiesced scopes (tests, snapshot
// epochs); there is no concurrent reader that needs ordering against it.
void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

Registry& Registry::instance() {
  // Intentionally immortal (never destroyed): the shared worker pools live
  // until static teardown and bump counters from their idle loops, so a
  // function-local static Registry could be destroyed while they still hold
  // references. Reachable through this pointer forever, so leak checkers
  // classify it "still reachable", not leaked.
  static Registry* r = new Registry();
  return *r;
}

Registry::Entry& Registry::entry(const std::string& name, MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
    if (kind == MetricKind::kCounter) counters_.push_back({&it->first, &it->second.counter});
  } else if (it->second.kind != kind) {
    throw InternalError(
        "obs metric \"" + name + "\" registered as " + to_string(it->second.kind) +
            " but requested as " + to_string(kind),
        Diagnostics{});
  }
  return it->second;
}

Counter& Registry::counter(const std::string& name) {
  return entry(name, MetricKind::kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name) {
  return entry(name, MetricKind::kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  return entry(name, MetricKind::kHistogram).histogram;
}

std::int64_t Registry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != MetricKind::kCounter) return 0;
  return it->second.counter.value();
}

std::vector<MetricRow> Registry::snapshot() const {
  std::vector<MetricRow> rows;
  std::lock_guard<std::mutex> lock(mu_);
  rows.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricRow row;
    row.name = name;
    row.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        row.value = static_cast<double>(e.counter.value());
        break;
      case MetricKind::kGauge:
        row.value = e.gauge.value();
        break;
      case MetricKind::kHistogram:
        row.value = static_cast<double>(e.histogram.count());
        row.sum = e.histogram.sum();
        row.min = e.histogram.min();
        row.max = e.histogram.max();
        break;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

// Shortest round-trip-safe decimal; integers print without a fraction so
// counters read naturally in the JSON.
std::string number(double v) {
  const auto as_int = static_cast<std::int64_t>(v);
  if (num::exactly_eq(static_cast<double>(as_int), v) && v >= -9.0e15 && v <= 9.0e15) {
    return std::to_string(as_int);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Registry::metrics_json() const {
  const std::vector<MetricRow> rows = snapshot();
  std::ostringstream out;
  out << "{\n";
  bool first = true;
  for (const MetricRow& r : rows) {
    if (!first) out << ",\n";
    first = false;
    out << "  \"" << r.name << "\": ";
    if (r.kind == MetricKind::kHistogram) {
      out << "{\"count\": " << number(r.value) << ", \"sum\": " << number(r.sum)
          << ", \"min\": " << number(r.min) << ", \"max\": " << number(r.max) << "}";
    } else {
      out << number(r.value);
    }
  }
  out << "\n}\n";
  return out.str();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    e.counter.reset();
    e.gauge.reset();
    e.histogram.reset();
  }
}

std::int64_t MetricsDelta::value(const std::string& name) const {
  for (const auto& [n, v] : values)
    if (n == name) return v;
  return 0;
}

Diagnostics MetricsDelta::to_diagnostics() const {
  Diagnostics d;
  const std::int64_t iters = value("qbd.fi.iterations") + value("qbd.relaxed.iterations") +
                             value("qbd.logred.doublings");
  if (iters > 0) d.iterations = static_cast<int>(iters);
  for (const auto& [n, v] : values)
    d.notes.push_back("obs " + n + " += " + std::to_string(v));
  return d;
}

DeltaScope::DeltaScope() {
  const Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mu_);
  base_.reserve(reg.counters_.size());
  for (const Registry::CounterSlot& c : reg.counters_) base_.push_back(c.counter->value());
}

MetricsDelta DeltaScope::delta() const {
  MetricsDelta d;
  const Registry& reg = Registry::instance();
  {
    std::lock_guard<std::mutex> lock(reg.mu_);
    for (std::size_t i = 0; i < reg.counters_.size(); ++i) {
      const std::int64_t before = i < base_.size() ? base_[i] : 0;
      const std::int64_t now = reg.counters_[i].counter->value();
      if (now != before) d.values.emplace_back(*reg.counters_[i].name, now - before);
    }
  }
  std::sort(d.values.begin(), d.values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return d;
}

}  // namespace csq::obs
