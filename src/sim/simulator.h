// Discrete-event simulation of the two-class system on k short + m long
// hosts.
//
// The engine owns the clock, the servers and the arrival streams; a Policy
// object owns the queues and decides which job a freed server runs. Hosts
// [0, k) form the short partition and [k, k + m) the long one; k = m = 1 is
// the paper's 2-host system. This is the validation harness of Section 4 of
// the paper (their C simulator), the only way to evaluate non-analyzed
// policies such as M/G/2/SJF (Section 6), and the way to study cycle
// stealing at the 2-8 host sizes of the paper's Table 1.
//
// Throws csq::InvalidInputError (core/status.h) on malformed arguments, and
// csq::DeadlineExceededError / csq::CancelledError when SimOptions::budget
// is interrupted mid-run.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/deadline.h"
#include "sim/stats.h"

namespace csq::sim {

enum class JobClass : std::uint8_t { kShort = 0, kLong = 1 };

// The fixed underlying type lets downstream headers (core/sweep.h) forward-
// declare the enum instead of pulling the whole simulator in.
enum class PolicyKind : std::uint8_t {
  kDedicated,
  kCsId,
  kCsCq,
  kCsCqNoRename,  // CS-CQ with a fixed long host (ablation: the paper credits
                  // renamable hosts for CS-CQ's lower long-job penalty)
  kMg2Fcfs,       // central queue, FCFS, all servers
  kMg2Sjf,        // central queue, non-preemptive shortest-job-first
  kLwr,           // immediate dispatch to the host with Least Work Remaining
                  // (provably equivalent to central-queue M/G/k FCFS [7])
  kTags,          // TAGS (Task Assignment by Guessing Size, Harchol-Balter
                  // JACM 2002): every job starts at host 0 and is killed and
                  // restarted from scratch at host 1 if it exceeds the
                  // cutoff — size-based segregation without knowing sizes.
                  // 2-host only.
  kRoundRobin,    // cycle arrivals over the hosts, per-host FCFS — the
                  // paper's "by far the most common" blind baseline
  // The class-blind policy zoo (docs/policies.md): random dispatch and its
  // work-stealing / work-sharing / idle-queue refinements, in the frame of
  // Van Houdt's stealing-vs-sharing comparison (arXiv:1810.13186) and
  // Mitzenmacher's JIQ fluid analysis (arXiv:1606.01833).
  kRandom,         // uniform random host per arrival, per-host FCFS
  kJiq,            // Join-Idle-Queue: an arrival takes an idle server when
                   // one exists, else falls back to random dispatch
  kStealOne,       // random dispatch + a host going idle steals one queued
                   // job from the host with the longest queue
  kStealHalf,      // as kStealOne but the thief takes half the victim queue
                   // (ceil(q/2)), serving one and queueing the rest
  kThresholdSteal, // as kStealOne but raids only victims with >=
                   // steal_threshold queued jobs, taking <= steal_batch
  kWorkSharing,    // random dispatch + push-on-arrival: an arrival that finds
                   // its host's queue past share_threshold is pushed to an
                   // idle host, else a random other host (central work
                   // sharing, the donor initiates)
};

// Registry entry for one policy plug-in. `token` is the stable CLI/serve
// spelling ("cscq", "steal-half", ...), `display` is the human-readable name
// policy_name() returns, and `analytic` says whether the library has an
// exact analysis for the policy (CS-CQ / CS-ID / Dedicated) or only the
// simulator.
struct PolicyInfo {
  PolicyKind kind;
  const char* token;
  const char* display;
  bool analytic;
};

// Every registered policy, indexed by PolicyKind: row i describes the kind
// whose underlying value is i (a static_assert in simulator.cc holds the
// table to that). The registry is the single source the CLI, the serve
// layer and the sweep panel resolve names against, so adding a PolicyKind
// means adding exactly one row there, plus the case in simulate()'s policy
// switch that -Werror=switch demands; docs/policies.md carries the same
// rows (a tier-1 test compares them).
[[nodiscard]] std::span<const PolicyInfo> policy_registry();

// Display name of `kind` ("CS-CQ", "Steal-Half", ...); "?" for a value
// outside the enum.
[[nodiscard]] const char* policy_name(PolicyKind kind);

// Resolve a registry token ("cscq", "steal-half", ...) to its PolicyKind.
// Throws csq::InvalidInputError for unknown tokens, listing the valid ones.
[[nodiscard]] PolicyKind policy_kind_from_token(const std::string& token);

// Registry token for a kind (inverse of policy_kind_from_token). Throws
// csq::InvalidInputError for a value outside the enum.
[[nodiscard]] const char* policy_token(PolicyKind kind);

struct Job {
  double arrival = 0.0;
  double size = 0.0;
  JobClass cls = JobClass::kShort;
};

struct SimOptions {
  std::uint64_t seed = 20030701;          // ICDCS'03 vintage
  std::size_t total_completions = 400000; // stop after this many completions
  double warmup_fraction = 0.1;           // discarded prefix (by completions)
  int batches = 20;                       // batch-means batches for the CI
  // Host counts: servers [0, short_hosts) are the short partition and
  // [short_hosts, short_hosts + long_hosts) the long one. Each must be >= 1.
  int short_hosts = 1;
  int long_hosts = 1;
  // Relative host speeds (service duration = size / speed), one per host;
  // empty means unit speed everywhere. The paper's analysis assumes
  // homogeneous hosts "for ease of exposition"; the simulator supports the
  // heterogeneous extension it mentions.
  std::vector<double> server_speeds;
  // TAGS cutoff: work granted at host 0 before kill-and-restart at host 1.
  double tags_cutoff = 1.0;
  // Knobs for the policy zoo (stealing thresholds, sharing threshold);
  // policies without knobs ignore it.
  PolicyConfig policy;
  // Wall-clock/cancellation budget, polled by the event loop at its first
  // event and every 4096 events after (so a deadline overshoots by at most
  // 4096 events). An interrupted budget throws out of the run: no result is
  // ever a mean over a partial run. The poll never draws from the RNG, so a
  // run that finishes is bit-identical to the same run without a budget.
  RunBudget budget;
};

struct ClassStats {
  std::size_t completions = 0;
  double mean_response = 0.0;
  double ci95 = 0.0;  // batch-means half width
};

struct SimResult {
  ClassStats shorts;
  ClassStats longs;
  double sim_time = 0.0;
  std::vector<double> utilization;  // busy fraction per server
  // Fraction of time at least one long host is idle (k = m = 1: the
  // paper's P(long host idle), the window a CS-ID short can steal).
  double p_long_host_idle = 0.0;
  // Conservation ledger: every arrival must end the run completed, queued in
  // the policy, or still on a server — arrivals == completions_total +
  // queued_final + in_service_final, or the policy lost/duplicated a job
  // (the policies test suite asserts this for every registered policy).
  std::size_t arrivals = 0;
  std::size_t completions_total = 0;  // includes the warmup prefix
  std::size_t queued_final = 0;
  std::size_t in_service_final = 0;
  // Hash over the arrival sequence (arrival time, size and class bits, in
  // order, one multiply-xorshift step per word). The engine draws arrivals
  // from its own RNG stream and policies draw decisions from a disjoint
  // stream, so this hash depends only on (seed, config) and on how many
  // arrivals the run drew — never on the policy's decisions. A run stops at
  // its Nth completion, so two runs share a hash when they drew the same
  // number of arrivals; the substream-isolation tests pin that.
  std::uint64_t arrival_hash = 0;
};

// Multi-replication runs (see simulate_replications).
struct ReplicationOptions {
  int replications = 8;
  // Worker threads running replications: 1 = inline on the caller
  // (default), 0 = all hardware threads, n >= 2 = worker pool of n.
  int threads = 1;
  // Adaptive CI-width stopping: when > 0, after the initial batch keep
  // adding rounds of up to `replications` further runs until every class's
  // relative CI half-width (ci95 / |mean_response|) is <= target_rel_ci,
  // max_replications is reached, or SimOptions::budget is interrupted. 0
  // disables the rule (exactly `replications` runs — the historical
  // behaviour).
  double target_rel_ci = 0.0;
  // Hard cap on total replications under the adaptive rule (ignored when
  // target_rel_ci == 0). Must be >= replications.
  int max_replications = 64;
};

struct ReplicatedResult {
  // Per-replication results. Replication r always uses RNG substream
  // split_seed(opts.seed, r), so element r — and therefore the aggregate —
  // is bit-identical for every thread count.
  std::vector<SimResult> replications;
  // Across-replication aggregates: mean of the per-replication means, with
  // a Student-t 95% CI on n - 1 degrees of freedom over the n replications
  // (the independent-replications estimator). At 2 replications the t
  // quantile is 12.71, so that CI is wide by design.
  ClassStats shorts;
  ClassStats longs;
};

class Engine;

// Scheduling policy: owns its queues; reacts to arrivals and completions by
// starting jobs on idle servers through the Engine.
class Policy {
 public:
  virtual ~Policy() = default;
  virtual void on_arrival(Engine& eng, const Job& job) = 0;
  virtual void on_server_free(Engine& eng, int server) = 0;
  // Called when the job on `server` exhausts its allotted service, before
  // the completion is recorded. Return true if the job is genuinely done;
  // return false to claim it instead (e.g. TAGS kills the job at its cutoff
  // and resubmits it to the overflow host) — no response time is recorded.
  virtual bool on_service_end(Engine& eng, int server, const Job& job) {
    (void)eng;
    (void)server;
    (void)job;
    return true;
  }
  // Jobs currently held in the policy's queues — the policy-side term of the
  // conservation ledger (SimResult::queued_final).
  [[nodiscard]] virtual std::size_t queued() const = 0;
};

class Engine {
 public:
  // Throws csq::InvalidInputError on an invalid config, host counts below 1,
  // fewer than 100 completions, a warmup_fraction outside [0, 1), or
  // server_speeds that are not empty / one finite positive speed per host.
  Engine(const SystemConfig& config, const SimOptions& opts);

  // Run to completion with the given policy. The event loop is a template
  // over the policy's static type, defined in the src/sim-private
  // sim/engine_loop.h: simulate() instantiates it for each concrete `final`
  // policy, so every policy hook is a direct call.
  template <std::derived_from<Policy> P>
  [[nodiscard]] SimResult run(P& policy);

  // --- services for Policy implementations --------------------------------
  [[nodiscard]] const SimOptions& options() const { return opts_; }
  [[nodiscard]] int hosts() const { return static_cast<int>(servers_.size()); }
  [[nodiscard]] int short_hosts() const { return opts_.short_hosts; }
  [[nodiscard]] int long_hosts() const { return opts_.long_hosts; }
  [[nodiscard]] bool server_idle(int s) const { return !server(s).busy; }
  // Lowest-index idle server in [lo, hi), or -1.
  [[nodiscard]] int find_idle(int lo, int hi) const {
    for (int s = lo; s < hi; ++s)
      if (server_idle(s)) return s;
    return -1;
  }
  // Servers currently running a long job.
  [[nodiscard]] int servers_serving_longs() const {
    int n = 0;
    for (const Server& s : servers_) n += s.busy && s.job.cls == JobClass::kLong;
    return n;
  }
  // Start `job` on `server`. By default the service requirement is the job's
  // full size; `work` overrides it (TAGS runs a job only up to its cutoff).
  void start(int server, const Job& job, double work = -1.0);
  // Remaining processing time of the job on server s (0 when idle).
  [[nodiscard]] double server_remaining(int s) const {
    return server(s).busy ? server(s).done - now_ : 0.0;
  }
  [[nodiscard]] double server_speed(int s) const { return server(s).speed; }

 private:
  struct Server {
    bool busy = false;
    double done = 0.0;
    double speed = 1.0;
    double busy_time = 0.0;
    Job job;
  };

  [[nodiscard]] const Server& server(int s) const {
    return servers_[static_cast<std::size_t>(s)];
  }
  void record_completion(const Job& job);
  // Throws when opts_.budget is interrupted. Out of line, so the event
  // loop carries one rarely taken call instead of the poll's body.
  void poll_budget() const;

  SystemConfig config_;
  SimOptions opts_;
  dist::Rng rng_;
  double now_ = 0.0;
  std::vector<Server> servers_;
  std::array<double, 2> next_arrival_{};  // indexed by JobClass
  double long_host_idle_time_ = 0.0;
  double last_event_time_ = 0.0;
  std::size_t completions_ = 0;
  std::size_t warmup_completions_ = 0;
  BatchMeans resp_short_;
  BatchMeans resp_long_;
};

// Simulate the given policy on the given system: builds the policy for the
// host counts and options, then runs the event loop on it. Throws
// csq::InvalidInputError for a kind outside the registry, on bad policy
// knobs, and for TAGS on anything but two hosts.
[[nodiscard]] SimResult simulate(PolicyKind kind, const SystemConfig& config,
                                 const SimOptions& opts = {});

// Run ropts.replications independent simulations, replication r seeded with
// the substream split_seed(opts.seed, r), in parallel on ropts.threads
// workers. Results (per replication and aggregated) are bit-identical
// regardless of thread count; see docs/performance.md for the determinism
// contract. With ropts.target_rel_ci > 0, further rounds of replications
// (substream indices continuing where the batch left off) are appended
// until the relative CI target, ropts.max_replications, or an interrupted
// opts.budget is hit.
//
// Every replication runs under opts.budget, so a budget interrupted during
// a round throws out of the call (csq::DeadlineExceededError /
// csq::CancelledError) and no partial replication is ever returned. One
// interrupted between rounds only stops the adaptive extension; the
// extension count then depends on wall-clock time, so adaptive runs under
// a finite deadline are not bit-identical across machines (each individual
// replication still is). Throws csq::InvalidInputError on malformed options
// (core/status.h).
[[nodiscard]] ReplicatedResult simulate_replications(PolicyKind kind,
                                                     const SystemConfig& config,
                                                     const SimOptions& opts = {},
                                                     const ReplicationOptions& ropts = {});

// Across-replication aggregation used by simulate_replications: mean of
// per-replication means plus a 95% Student-t CI over replications. Exposed
// for tests.
[[nodiscard]] ClassStats aggregate_replications(const std::vector<ClassStats>& reps);

}  // namespace csq::sim
