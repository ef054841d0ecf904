#include "core/faultpoint.h"

#include <array>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>

#include "core/deadline.h"

namespace csq::fault {

namespace detail {
std::atomic<int> armed_count{0};
}  // namespace detail

namespace {

// Indexed by Site: a pass touches two array slots and allocates nothing.
struct Registry {
  std::mutex mutex;
  std::array<std::optional<ArmSpec>, kSiteCount> armed;  // pending arming per site
  std::array<long, kSiteCount> hit_counts{};
};

Registry& registry() {
  static Registry r;
  return r;
}

ErrorCode code_from_name(const std::string& name) {
  if (name == "InvalidInput") return ErrorCode::kInvalidInput;
  if (name == "Unstable") return ErrorCode::kUnstable;
  if (name == "NotConverged") return ErrorCode::kNotConverged;
  if (name == "IllConditioned") return ErrorCode::kIllConditioned;
  if (name == "VerificationFailed") return ErrorCode::kVerificationFailed;
  if (name == "Internal") return ErrorCode::kInternal;
  if (name == "DeadlineExceeded") return ErrorCode::kDeadlineExceeded;
  if (name == "Cancelled") return ErrorCode::kCancelled;
  if (name == "Overloaded") return ErrorCode::kOverloaded;
  if (name == "CorruptJournal") return ErrorCode::kCorruptJournal;
  throw InvalidInputError("unknown ErrorCode in fault spec: '" + name + "'");
}

// Pops the armed spec if this pass is the firing one; counts the hit either way.
bool should_fire(Site site, ArmSpec* out) {
  const auto i = static_cast<std::size_t>(site);
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  ++r.hit_counts[i];
  std::optional<ArmSpec>& armed = r.armed[i];
  if (!armed || --armed->trigger_count > 0) return false;
  *out = *armed;
  armed.reset();  // single-shot: later passes see a healthy site
  detail::armed_count.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

[[noreturn]] void fire_throw(const ArmSpec& spec) {
  Diagnostics d;
  d.stage = spec.site;
  d.notes.push_back("injected fault (core/faultpoint.h)");
  throw_error(spec.code, "injected " + std::string(error_code_name(spec.code)) +
                             " fault at site " + spec.site,
              std::move(d));
}

void fire(const ArmSpec& spec, double* data, std::size_t size) {
  switch (spec.kind) {
    case Kind::kThrow: fire_throw(spec);
    case Kind::kNan:
      if (size == 0) throw InternalError("fault kind 'nan' found no data at site " + spec.site);
      data[0] = std::numeric_limits<double>::quiet_NaN();
      return;
    case Kind::kBurn:
      timebase::advance_virtual_ns(static_cast<std::int64_t>(spec.burn_ms * 1e6));
      return;
  }
}

[[noreturn]] void bad_spec(const std::string& text, const std::string& why) {
  throw InvalidInputError("bad fault spec '" + text + "': " + why +
                          " (expected site:count:kind, kind = throw:<ErrorCode> | nan | "
                          "burn:<ms>)");
}

}  // namespace

ArmSpec parse_arm_spec(const std::string& text) {
  const std::size_t c1 = text.find(':');
  if (c1 == std::string::npos) bad_spec(text, "missing count");
  const std::size_t c2 = text.find(':', c1 + 1);
  if (c2 == std::string::npos) bad_spec(text, "missing kind");

  ArmSpec spec;
  spec.site = text.substr(0, c1);
  if (spec.site.empty()) bad_spec(text, "empty site");
  const std::string count_str = text.substr(c1 + 1, c2 - c1 - 1);
  try {
    std::size_t used = 0;
    spec.trigger_count = std::stol(count_str, &used);
    if (used != count_str.size()) bad_spec(text, "count is not an integer");
  } catch (const std::invalid_argument&) {
    bad_spec(text, "count is not an integer");
  } catch (const std::out_of_range&) {
    bad_spec(text, "count out of range");
  }
  if (spec.trigger_count < 1) bad_spec(text, "count must be >= 1");

  const std::string kind = text.substr(c2 + 1);
  if (kind == "nan") {
    spec.kind = Kind::kNan;
  } else if (kind.rfind("throw:", 0) == 0) {
    spec.kind = Kind::kThrow;
    spec.code = code_from_name(kind.substr(6));
  } else if (kind.rfind("burn:", 0) == 0) {
    spec.kind = Kind::kBurn;
    const std::string ms_str = kind.substr(5);
    try {
      std::size_t used = 0;
      spec.burn_ms = std::stod(ms_str, &used);
      if (used != ms_str.size()) bad_spec(text, "burn duration is not a number");
    } catch (const std::invalid_argument&) {
      bad_spec(text, "burn duration is not a number");
    } catch (const std::out_of_range&) {
      bad_spec(text, "burn duration out of range");
    }
    if (!(spec.burn_ms > 0.0)) bad_spec(text, "burn duration must be > 0");
  } else {
    bad_spec(text, "unknown kind '" + kind + "'");
  }
  return spec;
}

void arm(const ArmSpec& spec) {
  const std::size_t i = names::find(kSites, spec.site);
  if (i == kSiteCount) {
    std::string known;
    for (const SiteRow& row : kSites) known += std::string(known.empty() ? "" : ", ") + row.name;
    throw InvalidInputError("cannot arm fault site '" + spec.site +
                            "': no such site (known sites: " + known + ")");
  }
  if (spec.kind == Kind::kNan && kSites[i].kind != SiteKind::kMatrix)
    throw InvalidInputError("cannot arm fault site '" + spec.site +
                            "' with 'nan': it has no matrix data to poison (use throw or burn)");
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  if (!r.armed[i]) detail::armed_count.fetch_add(1, std::memory_order_relaxed);
  r.armed[i] = spec;
}

void arm_list(const std::string& specs) {
  std::size_t start = 0;
  while (start <= specs.size()) {
    const std::size_t comma = specs.find(',', start);
    const std::string one =
        specs.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!one.empty()) arm(parse_arm_spec(one));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

void disarm_all() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.armed.fill(std::nullopt);
  r.hit_counts.fill(0);
  detail::armed_count.store(0, std::memory_order_relaxed);
}

long hits(const std::string& site) {
  const std::size_t i = names::find(kSites, site);
  if (i == kSiteCount) return 0;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.hit_counts[i];
}

std::vector<std::string> armed_sites() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> sites;
  for (std::size_t i = 0; i < kSiteCount; ++i)
    if (r.armed[i]) sites.emplace_back(kSites[i].name);
  return sites;
}

namespace detail {

void hit(Site site) {
  ArmSpec spec;
  if (should_fire(site, &spec)) fire(spec, nullptr, 0);
}

void hit_matrix(Site site, double* data, std::size_t size) {
  ArmSpec spec;
  if (should_fire(site, &spec)) fire(spec, data, size);
}

}  // namespace detail

}  // namespace csq::fault
