// The task-assignment policies, as simulator schedulers over k short + m
// long hosts. Hosts [0, k) are the short partition and [k, k + m) the long
// (donor) one wherever a policy distinguishes them; under CS-CQ hosts are
// renamable, so the scheduler only maintains the invariant that at most m
// servers serve longs at a time. Every policy reduces to the paper's 2-host
// rule at k = m = 1.
#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/status.h"
#include "obs/obs.h"
#include "sim/engine_loop.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace csq::sim {

namespace {

using JobQueue = std::deque<Job>;

// Start the queue's head on `server`; true if there was one.
bool serve_front(Engine& eng, int server, JobQueue& q) {
  if (q.empty()) return false;
  eng.start(server, q.front());
  q.pop_front();
  return true;
}

// One FCFS queue per host, for the immediate-dispatch policies.
class PerHostQueues : public Policy {
 public:
  explicit PerHostQueues(const Engine& eng)
      : queue_(static_cast<std::size_t>(eng.hosts())) {}
  void on_server_free(Engine& eng, int server) override { serve_front(eng, server, at(server)); }
  [[nodiscard]] std::size_t queued() const override {
    std::size_t n = 0;
    for (const JobQueue& q : queue_) n += q.size();
    return n;
  }

 protected:
  JobQueue& at(int host) { return queue_[static_cast<std::size_t>(host)]; }
  void enqueue_or_start(Engine& eng, int host, const Job& job) {
    if (eng.server_idle(host))
      eng.start(host, job);
    else
      at(host).push_back(job);
  }

  std::vector<JobQueue> queue_;
};

// One central FCFS queue per partition: shorts on the short hosts, longs on
// the long hosts, no stealing (M/G/k per class).
class DedicatedPolicy final : public Policy {
 public:
  void on_arrival(Engine& eng, const Job& job) override {
    const bool is_short = job.cls == JobClass::kShort;
    const int s = is_short ? eng.find_idle(0, eng.short_hosts())
                           : eng.find_idle(eng.short_hosts(), eng.hosts());
    if (s >= 0)
      eng.start(s, job);
    else
      queue_[static_cast<std::size_t>(job.cls)].push_back(job);
  }
  void on_server_free(Engine& eng, int server) override {
    const JobClass cls = server < eng.short_hosts() ? JobClass::kShort : JobClass::kLong;
    serve_front(eng, server, queue_[static_cast<std::size_t>(cls)]);
  }
  [[nodiscard]] std::size_t queued() const override {
    return queue_[0].size() + queue_[1].size();
  }

 private:
  std::array<JobQueue, 2> queue_;  // indexed by JobClass
};

// Immediate dispatch with idle-donor stealing: a short takes an idle long
// host if one exists at this instant, else joins the shortest short-host
// queue (JSQ); longs JSQ among the long hosts. Queued jobs never migrate.
class CsIdPolicy final : public PerHostQueues {
 public:
  using PerHostQueues::PerHostQueues;
  void on_arrival(Engine& eng, const Job& job) override {
    if (job.cls == JobClass::kLong) {
      dispatch_jsq(eng, job, eng.short_hosts(), eng.hosts());
      return;
    }
    const int donor = eng.find_idle(eng.short_hosts(), eng.hosts());
    if (donor >= 0)
      eng.start(donor, job);
    else
      dispatch_jsq(eng, job, 0, eng.short_hosts());
  }

 private:
  // Fewest jobs (queued + in service) in [lo, hi), lowest index on ties.
  void dispatch_jsq(Engine& eng, const Job& job, int lo, int hi) {
    int best = lo;
    std::size_t best_len = std::numeric_limits<std::size_t>::max();
    for (int s = lo; s < hi; ++s) {
      const std::size_t len = at(s).size() + (eng.server_idle(s) ? 0 : 1);
      if (len < best_len) {
        best_len = len;
        best = s;
      }
    }
    enqueue_or_start(eng, best, job);
  }
};

// Central queue per class; a free host takes a long while fewer than m
// hosts serve longs, else a short.
class CsCqPolicy final : public Policy {
 public:
  void on_arrival(Engine& eng, const Job& job) override {
    (job.cls == JobClass::kShort ? short_queue_ : long_queue_).push_back(job);
    schedule(eng);
  }
  void on_server_free(Engine& eng, int server) override {
    (void)server;
    schedule(eng);
  }
  [[nodiscard]] std::size_t queued() const override {
    return short_queue_.size() + long_queue_.size();
  }

 private:
  void schedule(Engine& eng) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (int s = 0; s < eng.hosts(); ++s) {
        if (!eng.server_idle(s)) continue;
        // This server becomes a long host when the long partition has room.
        const bool take_long =
            !long_queue_.empty() && eng.servers_serving_longs() < eng.long_hosts();
        if (serve_front(eng, s, take_long ? long_queue_ : short_queue_)) progress = true;
      }
    }
  }

  JobQueue short_queue_;
  JobQueue long_queue_;
};

// CS-CQ with FIXED long hosts: the short hosts never serve longs, so a long
// arriving while every long host runs a short must wait even if a short
// host is idle. Quantifies what renaming buys (the paper credits renaming
// for CS-CQ's long-job penalty being lower than CS-ID's).
class CsCqNoRenamePolicy final : public Policy {
 public:
  void on_arrival(Engine& eng, const Job& job) override {
    (job.cls == JobClass::kShort ? short_queue_ : long_queue_).push_back(job);
    schedule(eng);
  }
  void on_server_free(Engine& eng, int server) override {
    (void)server;
    schedule(eng);
  }
  [[nodiscard]] std::size_t queued() const override {
    return short_queue_.size() + long_queue_.size();
  }

 private:
  void schedule(Engine& eng) {
    for (int s = eng.short_hosts(); s < eng.hosts(); ++s)
      if (eng.server_idle(s) && !serve_front(eng, s, long_queue_))
        serve_front(eng, s, short_queue_);
    for (int s = 0; s < eng.short_hosts(); ++s)
      if (eng.server_idle(s)) serve_front(eng, s, short_queue_);
  }

  JobQueue short_queue_;
  JobQueue long_queue_;
};

// Least-Work-Remaining immediate dispatch: each arrival goes to the host
// with the smallest backlog (in-service remainder plus queued work, lowest
// index on ties) and is served FCFS there. Provably equivalent to
// central-queue M/G/k FCFS (Harchol-Balter, JACM 2002) — the test-suite
// checks that equivalence.
class LwrPolicy final : public PerHostQueues {
 public:
  explicit LwrPolicy(const Engine& eng)
      : PerHostQueues(eng), queued_work_(static_cast<std::size_t>(eng.hosts()), 0.0) {}
  void on_arrival(Engine& eng, const Job& job) override {
    const auto backlog = [&](int s) {
      return eng.server_remaining(s) + work(s) / eng.server_speed(s);
    };
    int target = 0;
    double best = backlog(0);
    for (int s = 1; s < eng.hosts(); ++s) {
      const double b = backlog(s);
      if (b < best) {
        best = b;
        target = s;
      }
    }
    if (eng.server_idle(target)) {
      eng.start(target, job);
    } else {
      at(target).push_back(job);
      work(target) += job.size;
    }
  }
  void on_server_free(Engine& eng, int server) override {
    JobQueue& q = at(server);
    if (!q.empty()) work(server) -= q.front().size;
    serve_front(eng, server, q);
  }

 private:
  double& work(int s) { return queued_work_[static_cast<std::size_t>(s)]; }

  std::vector<double> queued_work_;
};

// TAGS (Task Assignment by Guessing Size): all jobs start at host 0, FCFS,
// but are only granted `cutoff` units of work there; a job that exceeds the
// cutoff is killed and restarted FROM SCRATCH at host 1, which runs to
// completion. No size or class knowledge is used — the cutoff alone
// segregates shorts from longs (at the price of the wasted cutoff work).
// Defined for two hosts only.
class TagsPolicy final : public Policy {
 public:
  TagsPolicy(const Engine& eng, double cutoff) : cutoff_(cutoff) {
    if (eng.hosts() != 2) throw InvalidInputError("TAGS: needs exactly 2 hosts");
    if (cutoff <= 0.0) throw InvalidInputError("TAGS: cutoff must be positive");
  }

  void on_arrival(Engine& eng, const Job& job) override {
    if (eng.server_idle(0))
      eng.start(0, job, std::min(job.size, cutoff_));
    else
      first_queue_.push_back(job);
  }
  bool on_service_end(Engine& eng, int server, const Job& job) override {
    if (server == 0 && job.size > cutoff_) {
      // Killed at the cutoff: restart from scratch at the overflow host.
      if (eng.server_idle(1))
        eng.start(1, job);
      else
        overflow_queue_.push_back(job);
      return false;
    }
    return true;
  }
  void on_server_free(Engine& eng, int server) override {
    if (server == 0) {
      if (!first_queue_.empty()) {
        eng.start(0, first_queue_.front(), std::min(first_queue_.front().size, cutoff_));
        first_queue_.pop_front();
      }
    } else {
      serve_front(eng, 1, overflow_queue_);
    }
  }
  [[nodiscard]] std::size_t queued() const override {
    return first_queue_.size() + overflow_queue_.size();
  }

 private:
  double cutoff_;
  JobQueue first_queue_;
  JobQueue overflow_queue_;
};

// Round-Robin immediate dispatch, per-host FCFS — the blind baseline the
// paper calls "by far the most common task assignment policy".
class RoundRobinPolicy final : public PerHostQueues {
 public:
  using PerHostQueues::PerHostQueues;
  void on_arrival(Engine& eng, const Job& job) override {
    const int host = next_;
    next_ = (next_ + 1) % eng.hosts();
    enqueue_or_start(eng, host, job);
  }

 private:
  int next_ = 0;
};

// Central FCFS queue over all hosts (M/G/n).
class MgnFcfsPolicy final : public Policy {
 public:
  void on_arrival(Engine& eng, const Job& job) override {
    const int s = eng.find_idle(0, eng.hosts());
    if (s >= 0)
      eng.start(s, job);
    else
      queue_.push_back(job);
  }
  void on_server_free(Engine& eng, int server) override { serve_front(eng, server, queue_); }
  [[nodiscard]] std::size_t queued() const override { return queue_.size(); }

 private:
  JobQueue queue_;
};

// Non-preemptive shortest-job-first over all hosts (Section 6's M/G/2/SJF).
class MgnSjfPolicy final : public Policy {
 public:
  void on_arrival(Engine& eng, const Job& job) override {
    const int s = eng.find_idle(0, eng.hosts());
    if (s >= 0)
      eng.start(s, job);
    else
      queue_.emplace(job.size, job);
  }
  void on_server_free(Engine& eng, int server) override {
    if (!queue_.empty()) {
      eng.start(server, queue_.begin()->second);
      queue_.erase(queue_.begin());
    }
  }
  [[nodiscard]] std::size_t queued() const override { return queue_.size(); }

 private:
  std::multimap<double, Job> queue_;
};

// --- the class-blind policy zoo (docs/policies.md) -------------------------
//
// Every policy below treats the hosts symmetrically and ignores job
// classes: per-host FCFS queues fed by uniform random dispatch, refined by
// stealing (pull), sharing (push) or idle-queue signalling. Policy decisions
// draw from a private RNG on stream kPolicyStream, disjoint from the
// engine's arrival stream (0): the sampled arrival sequence is a function of
// (seed, config) alone, never of the policy — the substream-isolation
// regression test pins SimResult::arrival_hash on that.

constexpr std::uint64_t kPolicyStream = 11;

// The zoo's sim.policy.* counts for one run: plain integers bumped per
// event and added to the registry once, when the policy (one per run) is
// destroyed, instead of one shared atomic add per event.
struct ZooTally {
  std::int64_t dispatches = 0;  // random dispatch decisions
  std::int64_t idle_hits = 0;   // JIQ arrivals that took an idle server
  std::int64_t shares = 0;      // Work-Sharing arrivals pushed elsewhere
  std::int64_t steals = 0;      // jobs moved victim -> thief by any stealer

  ~ZooTally() {
    CSQ_OBS_COUNT_N(kSimPolicyDispatches, dispatches);
    CSQ_OBS_COUNT_N(kSimPolicyIdleHits, idle_hits);
    CSQ_OBS_COUNT_N(kSimPolicyShares, shares);
    CSQ_OBS_COUNT_N(kSimPolicySteals, steals);
  }
};

class RandomDispatchPolicy : public PerHostQueues {
 public:
  explicit RandomDispatchPolicy(const Engine& eng)
      : PerHostQueues(eng), rng_(make_rng(eng.options().seed, kPolicyStream)) {}

 protected:
  // Uniform over all hosts.
  int random_host() {
    ++tally_.dispatches;
    return static_cast<int>(rng_() % queue_.size());
  }
  // Uniform over the hosts other than `host`; no draw when there is one.
  int random_other(int host) {
    if (queue_.size() == 2) return 1 - host;
    const int r = static_cast<int>(rng_() % (queue_.size() - 1));
    return r >= host ? r + 1 : r;
  }

  dist::Rng rng_;
  ZooTally tally_;
};

// Uniform random dispatch, per-host FCFS, no migration: the blind baseline
// the JIQ and stealing refinements are measured against.
class RandomPolicy final : public RandomDispatchPolicy {
 public:
  using RandomDispatchPolicy::RandomDispatchPolicy;
  void on_arrival(Engine& eng, const Job& job) override {
    enqueue_or_start(eng, random_host(), job);
  }
};

// Join-Idle-Queue (Mitzenmacher, arXiv:1606.01833): servers that go idle
// join a FIFO idle queue; an arrival takes the head of that queue when it is
// non-empty and only falls back to random dispatch when every server is
// busy. Jobs never wait while a server idles, which is exactly why JIQ
// dominates blind random dispatch (the property suite pins that).
class JiqPolicy final : public RandomDispatchPolicy {
 public:
  explicit JiqPolicy(const Engine& eng) : RandomDispatchPolicy(eng) {
    for (int s = 0; s < eng.hosts(); ++s) idle_.push_back(s);
  }
  void on_arrival(Engine& eng, const Job& job) override {
    if (!idle_.empty()) {
      const int s = idle_.front();
      idle_.pop_front();
      ++tally_.idle_hits;
      eng.start(s, job);
      return;
    }
    // All busy: the idle queue is empty, so this can only queue.
    at(random_host()).push_back(job);
  }
  void on_server_free(Engine& eng, int server) override {
    if (!serve_front(eng, server, at(server))) idle_.push_back(server);
  }

 private:
  std::deque<int> idle_;  // invariant: exactly the idle servers, FIFO
};

// Randomized work stealing: random dispatch, and a host that goes idle with
// an empty queue raids the longest queue (lowest index on ties), serving the
// first stolen job and queueing the rest locally. The variants differ only
// in how much they take:
//   Steal-One       — one job;
//   Steal-Half      — ceil(q/2), so one raid rebalances the backlog;
//   Threshold-Steal — only victims with >= steal_threshold queued jobs, and
//                     at most steal_batch of them, so work moves only when
//                     the imbalance is worth the migration.
class StealingPolicy final : public RandomDispatchPolicy {
 public:
  StealingPolicy(const Engine& eng, PolicyKind kind)
      : RandomDispatchPolicy(eng), kind_(kind), cfg_(eng.options().policy) {
    if (kind == PolicyKind::kThresholdSteal) {
      if (cfg_.steal_threshold < 1)
        throw InvalidInputError("Threshold-Steal: steal_threshold must be >= 1");
      if (cfg_.steal_batch < 1)
        throw InvalidInputError("Threshold-Steal: steal_batch must be >= 1");
    }
  }
  void on_arrival(Engine& eng, const Job& job) override {
    enqueue_or_start(eng, random_host(), job);
  }
  void on_server_free(Engine& eng, int server) override {
    if (serve_front(eng, server, at(server))) return;
    int victim = -1;
    std::size_t longest = 0;
    for (int s = 0; s < eng.hosts(); ++s) {
      if (s != server && at(s).size() > longest) {
        longest = at(s).size();
        victim = s;
      }
    }
    if (victim < 0) return;
    std::size_t take = 1;
    if (kind_ == PolicyKind::kStealHalf) take = (longest + 1) / 2;
    if (kind_ == PolicyKind::kThresholdSteal) {
      if (longest < static_cast<std::size_t>(cfg_.steal_threshold)) return;
      take = std::min(longest, static_cast<std::size_t>(cfg_.steal_batch));
    }
    tally_.steals += static_cast<std::int64_t>(take);
    JobQueue& from = at(victim);
    serve_front(eng, server, from);
    for (std::size_t i = 1; i < take; ++i) {
      at(server).push_back(from.front());
      from.pop_front();
    }
  }

 private:
  PolicyKind kind_;
  PolicyConfig cfg_;
};

// Central work sharing (push-on-arrival, Van Houdt arXiv:1810.13186's
// "sharing" side): random dispatch, but an arrival that finds its host busy
// with share_threshold or more queued jobs is pushed to an idle host when
// one exists, else to a random other host — the loaded host initiates the
// transfer at arrival instants, where stealing lets the idle host pull at
// departure instants.
class WorkSharingPolicy final : public RandomDispatchPolicy {
 public:
  explicit WorkSharingPolicy(const Engine& eng)
      : RandomDispatchPolicy(eng), cfg_(eng.options().policy) {
    if (cfg_.share_threshold < 0)
      throw InvalidInputError("Work-Sharing: share_threshold must be >= 0");
  }
  void on_arrival(Engine& eng, const Job& job) override {
    const int host = random_host();
    if (!eng.server_idle(host) &&
        at(host).size() >= static_cast<std::size_t>(cfg_.share_threshold)) {
      ++tally_.shares;
      int other = eng.find_idle(0, eng.hosts());
      if (other < 0) other = random_other(host);
      enqueue_or_start(eng, other, job);
      return;
    }
    enqueue_or_start(eng, host, job);
  }

 private:
  PolicyConfig cfg_;
};

// Call f(std::type_identity<P>{}, args...) with the concrete `final` policy
// type P for `kind` and its constructor arguments: the one switch over
// PolicyKind, behind simulate(). -Werror=switch makes a kind it misses a
// build error.
template <class F>
auto with_policy(PolicyKind kind, const Engine& engine, F&& f) {
  switch (kind) {
    case PolicyKind::kDedicated: return f(std::type_identity<DedicatedPolicy>{});
    case PolicyKind::kCsId: return f(std::type_identity<CsIdPolicy>{}, engine);
    case PolicyKind::kCsCq: return f(std::type_identity<CsCqPolicy>{});
    case PolicyKind::kCsCqNoRename: return f(std::type_identity<CsCqNoRenamePolicy>{});
    case PolicyKind::kMg2Fcfs: return f(std::type_identity<MgnFcfsPolicy>{});
    case PolicyKind::kMg2Sjf: return f(std::type_identity<MgnSjfPolicy>{});
    case PolicyKind::kLwr: return f(std::type_identity<LwrPolicy>{}, engine);
    case PolicyKind::kTags:
      return f(std::type_identity<TagsPolicy>{}, engine, engine.options().tags_cutoff);
    case PolicyKind::kRoundRobin: return f(std::type_identity<RoundRobinPolicy>{}, engine);
    case PolicyKind::kRandom: return f(std::type_identity<RandomPolicy>{}, engine);
    case PolicyKind::kJiq: return f(std::type_identity<JiqPolicy>{}, engine);
    case PolicyKind::kStealOne:
    case PolicyKind::kStealHalf:
    case PolicyKind::kThresholdSteal:
      return f(std::type_identity<StealingPolicy>{}, engine, kind);
    case PolicyKind::kWorkSharing: return f(std::type_identity<WorkSharingPolicy>{}, engine);
  }
  throw InvalidInputError("simulate: unknown policy kind");
}

}  // namespace

SimResult simulate(PolicyKind kind, const SystemConfig& config, const SimOptions& opts) {
  Engine engine(config, opts);
  return with_policy(kind, engine, [&engine](auto type, const auto&... args) {
    typename decltype(type)::type policy(args...);
    return engine.run(policy);
  });
}

}  // namespace csq::sim
