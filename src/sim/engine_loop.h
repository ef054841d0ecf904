// Engine::run's event loop, as a template over the policy's static type.
//
// Private to src/sim/: policies.cc's simulate() instantiates it for each
// concrete `final` policy, whose hooks then compile to direct, inlinable
// calls.
//
// Throws csq::InternalError when no event is left to run (both arrival
// rates zero) or a policy starts a busy server,
// csq::DeadlineExceededError / csq::CancelledError when SimOptions::budget
// is interrupted, and passes on the csq::InvalidInputError of the samplers'
// and policies' argument checks.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include "core/numeric.h"
#include "core/status.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace csq::sim {

namespace engine_detail {

// One multiply-xorshift step over a whole word; chained per arrival to
// fingerprint the arrival sequence independently of any policy decision.
// A step is a bijection of the word for fixed h and of h for fixed word,
// so changing any one word of the sequence changes the final hash.
inline std::uint64_t hash_word(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}

inline std::uint64_t double_bits(double x) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(x));
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

}  // namespace engine_detail

template <std::derived_from<Policy> P>
SimResult Engine::run(P& policy) {
  using engine_detail::double_bits;
  using engine_detail::hash_word;
  CSQ_OBS_SPAN(kSimEngineRun);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::uint64_t events = 0;
  std::size_t arrivals = 0;
  std::uint64_t arrival_hash = 14695981039346656037ULL;  // any nonzero start
  dist::MapProcess::State map_state;
  if (config_.short_arrivals) map_state = config_.short_arrivals->stationary_state(rng_);
  const auto draw_interarrival = [this, &map_state](JobClass cls) {
    if (cls == JobClass::kShort && config_.short_arrivals)
      return config_.short_arrivals->next_interarrival(map_state, rng_);
    const double rate = cls == JobClass::kShort ? config_.lambda_short : config_.lambda_long;
    if (rate <= 0.0) return kInf;
    return std::exponential_distribution<double>(rate)(rng_);
  };
  const auto draw_size = [this](JobClass cls) {
    const dist::Distribution& d =
        cls == JobClass::kShort ? *config_.short_size : *config_.long_size;
    return d.sample(rng_);
  };

  next_arrival_[0] = draw_interarrival(JobClass::kShort);
  next_arrival_[1] = draw_interarrival(JobClass::kLong);

  const std::size_t n = servers_.size();
  const std::size_t first_long = static_cast<std::size_t>(opts_.short_hosts);
  while (completions_ < opts_.total_completions) {
    // Budget poll at the first event and every 4096 after. It never reads
    // rng_, so every draw (and arrival_hash) stays as it was.
    if (events % 4096 == 0) poll_budget();
    ++events;
    // Next event: one of two arrivals or a completion on some server.
    double t = next_arrival_[0];
    std::size_t ev = 0;  // 0,1: arrival short/long; 2 + s: completion on server s
    if (next_arrival_[1] < t) {
      t = next_arrival_[1];
      ev = 1;
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (servers_[s].busy && servers_[s].done < t) {
        t = servers_[s].done;
        ev = 2 + s;
      }
    }
    if (num::exactly_eq(t, kInf))
      throw InternalError("Engine::run: no events (both arrival rates zero?)");

    // Accumulate busy/idle time over (last_event_time_, t].
    const double dt = t - last_event_time_;
    bool long_host_idle = false;
    for (std::size_t s = 0; s < n; ++s) {
      if (servers_[s].busy)
        servers_[s].busy_time += dt;
      else if (s >= first_long)
        long_host_idle = true;
    }
    if (long_host_idle) long_host_idle_time_ += dt;
    last_event_time_ = t;
    now_ = t;

    if (ev <= 1) {
      const JobClass cls = static_cast<JobClass>(ev);
      Job job{now_, draw_size(cls), cls};
      next_arrival_[ev] = now_ + draw_interarrival(cls);
      ++arrivals;
      arrival_hash = hash_word(arrival_hash, double_bits(job.arrival));
      arrival_hash = hash_word(arrival_hash, double_bits(job.size));
      arrival_hash = hash_word(arrival_hash, static_cast<std::uint64_t>(job.cls));
      policy.on_arrival(*this, job);
    } else {
      const int s = static_cast<int>(ev - 2);
      Server& freed = servers_[ev - 2];
      const Job done = freed.job;
      freed.busy = false;
      freed.done = 0.0;
      if (policy.on_service_end(*this, s, done)) record_completion(done);
      policy.on_server_free(*this, s);
    }
  }

  CSQ_OBS_COUNT_N(kSimEngineEvents, events);
  CSQ_OBS_COUNT_N(kSimEngineArrivals, arrivals);

  SimResult res;
  res.shorts = {resp_short_.count(), resp_short_.mean(), resp_short_.ci95_halfwidth()};
  res.longs = {resp_long_.count(), resp_long_.mean(), resp_long_.ci95_halfwidth()};
  res.sim_time = now_;
  res.p_long_host_idle = long_host_idle_time_ / now_;
  res.arrivals = arrivals;
  res.completions_total = completions_;
  res.queued_final = policy.queued();
  for (const Server& s : servers_) {
    res.utilization.push_back(s.busy_time / now_);
    if (s.busy) ++res.in_service_final;
  }
  res.arrival_hash = arrival_hash;
  return res;
}

}  // namespace csq::sim
