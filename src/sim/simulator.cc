#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>

#include "parallel/task_pool.h"
#include "sim/rng.h"
#include "sim/stats.h"

#include "core/faultpoint.h"
#include "core/status.h"
#include "obs/obs.h"

namespace csq::sim {

namespace {
constexpr PolicyInfo kPolicies[] = {
    {PolicyKind::kDedicated, "dedicated", "Dedicated", true},
    {PolicyKind::kCsId, "csid", "CS-ID", true},
    {PolicyKind::kCsCq, "cscq", "CS-CQ", true},
    {PolicyKind::kCsCqNoRename, "cscq-norename", "CS-CQ-norename", false},
    {PolicyKind::kMg2Fcfs, "mg2-fcfs", "M/G/2-FCFS", false},
    {PolicyKind::kMg2Sjf, "mg2-sjf", "M/G/2-SJF", false},
    {PolicyKind::kLwr, "lwr", "LWR", false},
    {PolicyKind::kTags, "tags", "TAGS", false},
    {PolicyKind::kRoundRobin, "rr", "Round-Robin", false},
    {PolicyKind::kRandom, "random", "Random", false},
    {PolicyKind::kJiq, "jiq", "JIQ", false},
    {PolicyKind::kStealOne, "steal-one", "Steal-One", false},
    {PolicyKind::kStealHalf, "steal-half", "Steal-Half", false},
    {PolicyKind::kThresholdSteal, "threshold-steal", "Threshold-Steal", false},
    {PolicyKind::kWorkSharing, "work-sharing", "Work-Sharing", false},
};

constexpr bool rows_indexed_by_kind() {
  for (std::size_t i = 0; i < std::size(kPolicies); ++i)
    if (static_cast<std::size_t>(kPolicies[i].kind) != i) return false;
  return true;
}
static_assert(rows_indexed_by_kind(),
              "kPolicies row i must describe the PolicyKind with value i");

// The row for `kind`, or nullptr for a value outside the enum.
const PolicyInfo* policy_row(PolicyKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kPolicies) ? &kPolicies[i] : nullptr;
}
}  // namespace

std::span<const PolicyInfo> policy_registry() { return kPolicies; }

const char* policy_name(PolicyKind kind) {
  const PolicyInfo* row = policy_row(kind);
  return row != nullptr ? row->display : "?";
}

PolicyKind policy_kind_from_token(const std::string& token) {
  for (const PolicyInfo& info : policy_registry())
    if (token == info.token) return info.kind;
  std::string valid;
  for (const PolicyInfo& info : policy_registry()) {
    if (!valid.empty()) valid += "|";
    valid += info.token;
  }
  throw InvalidInputError("unknown policy \"" + token + "\" (valid: " + valid + ")");
}

const char* policy_token(PolicyKind kind) {
  const PolicyInfo* row = policy_row(kind);
  if (row == nullptr) throw InvalidInputError("policy_token: unregistered PolicyKind");
  return row->token;
}

Engine::Engine(const SystemConfig& config, const SimOptions& opts)
    : config_(config),
      opts_(opts),
      rng_(make_rng(opts.seed)),
      resp_short_(opts.batches),
      resp_long_(opts.batches) {
  config_.validate();
  if (opts_.short_hosts < 1 || opts_.long_hosts < 1)
    throw InvalidInputError("SimOptions: need >= 1 host per partition");
  if (opts_.total_completions < 100)
    throw InvalidInputError("SimOptions: total_completions too small");
  // Negated so NaN fails too; >= 1 would discard every response.
  if (!(opts_.warmup_fraction >= 0.0 && opts_.warmup_fraction < 1.0))
    throw InvalidInputError("SimOptions: warmup_fraction must be in [0, 1)");
  const std::size_t n = static_cast<std::size_t>(opts_.short_hosts) +
                        static_cast<std::size_t>(opts_.long_hosts);
  if (!opts_.server_speeds.empty() && opts_.server_speeds.size() != n)
    throw InvalidInputError("SimOptions: server_speeds needs one speed per host (" +
                            std::to_string(n) + ")");
  servers_.resize(n);
  for (std::size_t s = 0; s < opts_.server_speeds.size(); ++s) {
    const double v = opts_.server_speeds[s];
    if (!(std::isfinite(v) && v > 0.0))
      throw InvalidInputError("SimOptions: server speeds must be finite and positive");
    servers_[s].speed = v;
  }
  warmup_completions_ =
      static_cast<std::size_t>(opts_.warmup_fraction * static_cast<double>(opts_.total_completions));
}

void Engine::start(int server, const Job& job, double work) {
  Server& s = servers_[static_cast<std::size_t>(server)];
  if (s.busy) throw InternalError("Engine::start: server already busy");
  s.busy = true;
  s.job = job;
  const double amount = work < 0.0 ? job.size : work;
  s.done = now_ + amount / s.speed;
}

void Engine::record_completion(const Job& job) {
  ++completions_;
  if (completions_ <= warmup_completions_) return;
  const double resp = now_ - job.arrival;
  (job.cls == JobClass::kShort ? resp_short_ : resp_long_).add(resp);
}

void Engine::poll_budget() const {
  if (opts_.budget.interrupted()) opts_.budget.check("sim::Engine::run");
}

ClassStats aggregate_replications(const std::vector<ClassStats>& reps) {
  ClassStats agg;
  if (reps.empty()) return agg;
  double sum = 0.0;
  for (const ClassStats& r : reps) {
    agg.completions += r.completions;
    sum += r.mean_response;
  }
  const double n = static_cast<double>(reps.size());
  agg.mean_response = sum / n;
  if (reps.size() >= 2) {
    double ss = 0.0;
    for (const ClassStats& r : reps) {
      const double d = r.mean_response - agg.mean_response;
      ss += d * d;
    }
    agg.ci95 = student_t_975(static_cast<int>(reps.size()) - 1) * std::sqrt(ss / (n - 1.0) / n);
  }
  return agg;
}

namespace {

// ci95 / |mean_response|, or 0 when the mean is zero (no meaningful
// relative width). Drives the adaptive CI-width stopping rule.
double relative_ci(const ClassStats& stats) {
  const double mean = std::abs(stats.mean_response);
  return mean > 0.0 ? stats.ci95 / mean : 0.0;
}

}  // namespace

ReplicatedResult simulate_replications(PolicyKind kind, const SystemConfig& config,
                                       const SimOptions& opts,
                                       const ReplicationOptions& ropts) {
  if (ropts.replications < 1)
    throw InvalidInputError("simulate_replications: need >= 1 replication");
  if (!(ropts.target_rel_ci >= 0.0) || !std::isfinite(ropts.target_rel_ci))
    throw InvalidInputError("simulate_replications: target_rel_ci must be finite and >= 0");
  const bool adaptive = ropts.target_rel_ci > 0.0;
  if (adaptive && ropts.max_replications < ropts.replications)
    throw InvalidInputError("simulate_replications: max_replications < replications");
  const std::size_t n = static_cast<std::size_t>(ropts.replications);
  ReplicatedResult out;
  // Replication r's stream depends only on (opts.seed, r) — which worker
  // runs it is irrelevant — and each worker writes only its own slot, so
  // each batch is thread-count invariant.
  const auto run_batch = [&](std::size_t first, std::size_t count) {
    CSQ_OBS_COUNT(kSimRepsRounds);
    CSQ_OBS_COUNT_N(kSimRepsTotal, count);
    std::vector<SimResult> batch =
        par::parallel_map(count, ropts.threads, [&](std::size_t i) {
          CSQ_FAULT_POINT(kSimReplicationStart);
          SimOptions rep_opts = opts;
          rep_opts.seed = split_seed(opts.seed, first + i);
          return simulate(kind, config, rep_opts);
        });
    out.replications.insert(out.replications.end(), batch.begin(), batch.end());
  };
  const auto reaggregate = [&] {
    std::vector<ClassStats> shorts, longs;
    shorts.reserve(out.replications.size());
    longs.reserve(out.replications.size());
    for (const SimResult& r : out.replications) {
      shorts.push_back(r.shorts);
      longs.push_back(r.longs);
    }
    out.shorts = aggregate_replications(shorts);
    out.longs = aggregate_replications(longs);
  };
  run_batch(0, n);
  reaggregate();
  // Adaptive extension: a budget interrupted between rounds stops it and
  // keeps the finished rounds; one interrupted mid-round has already thrown
  // out of the engine.
  while (adaptive &&
         std::max(relative_ci(out.shorts), relative_ci(out.longs)) > ropts.target_rel_ci &&
         out.replications.size() < static_cast<std::size_t>(ropts.max_replications) &&
         !opts.budget.interrupted()) {
    const std::size_t room =
        static_cast<std::size_t>(ropts.max_replications) - out.replications.size();
    run_batch(out.replications.size(), std::min(n, room));
    reaggregate();
  }
  return out;
}

}  // namespace csq::sim
