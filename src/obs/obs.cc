#include "obs/obs.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "core/numeric.h"

namespace csq::obs {

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

std::int64_t Registry::counter_value(const std::string& name) const {
  if constexpr (compiled_in()) {
    const std::size_t i = names::find(kCatalog, name);
    if (i < kNameCount && kCatalog[i].kind == MetricKind::kCounter)
      return cells_[i].counter.value();
  }
  return 0;
}

std::vector<MetricRow> Registry::snapshot() const {
  std::vector<MetricRow> rows;
  // Compiled out, the catalog's strings stay out of the binary.
  if constexpr (compiled_in()) {
    rows.reserve(kNameCount);
    for (std::size_t i = 0; i < kNameCount; ++i) {
      const Cell& c = cells_[i];
      MetricRow row;
      row.name = kCatalog[i].name;
      row.kind = kCatalog[i].kind;
      switch (row.kind) {
        case MetricKind::kCounter:
          row.value = static_cast<double>(c.counter.value());
          break;
        case MetricKind::kGauge:
          row.value = c.gauge.value();
          break;
        case MetricKind::kSpan:
          continue;  // trace-only: spans carry no registry state
      }
      rows.push_back(std::move(row));
    }
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
    out << "  \"" << r.name << "\": " << number(r.value);
  }
  out << "\n}\n";
  return out.str();
}

void Registry::reset() {
  for (Cell& c : cells_) {
    c.counter.reset();
    c.gauge.reset();
  }
}

std::int64_t MetricsDelta::value(const std::string& name) const {
  for (const auto& [n, v] : values)
    if (n == name) return v;
  return 0;
}

DeltaScope::DeltaScope() {
  const Registry& reg = Registry::instance();
  for (std::size_t i = 0; i < kNameCount; ++i) base_[i] = reg.cells_[i].counter.value();
}

// Catalog order is name order, so the moved counters come out sorted.
MetricsDelta DeltaScope::delta() const {
  MetricsDelta d;
  if constexpr (compiled_in()) {
    const Registry& reg = Registry::instance();
    for (std::size_t i = 0; i < kNameCount; ++i) {
      const std::int64_t moved = reg.cells_[i].counter.value() - base_[i];
      if (moved != 0) d.values.emplace_back(kCatalog[i].name, moved);
    }
  }
  return d;
}

}  // namespace csq::obs
