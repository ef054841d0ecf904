#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "analysis/resilient.h"
#include "core/faultpoint.h"
#include "core/solver.h"
#include "core/sweep.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "sim/simulator.h"

namespace csq::serve {
namespace {

// Best-effort id recovery for lines that fail schema validation: when the
// line is at least a JSON object with a sane string "id", the error response
// echoes it so the client can still match the rejection to its request.
[[nodiscard]] std::string recover_id(const std::string& line) {
  try {
    const JsonValue root = parse_json(line);
    if (!root.is_object()) return "";
    const JsonValue* id = root.find("id");
    if (id == nullptr || !id->is_string()) return "";
    const std::string& s = id->as_string("id");
    return s.size() <= 256 ? s : "";
  } catch (const Error&) {
    return "";
  }
}

}  // namespace

const std::string& Ticket::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return response_;
}

bool Ticket::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

Server::Server(ServerOptions opts) : opts_(std::move(opts)), cache_(opts_.cache_capacity) {
  if (opts_.workers < 0 || opts_.workers > 256)
    throw InvalidInputError("ServerOptions: workers must be in [0, 256]");
  if (opts_.queue_depth < 1)
    throw InvalidInputError("ServerOptions: queue_depth must be >= 1");
  if (!(opts_.max_inflight_cost > 0.0))
    throw InvalidInputError("ServerOptions: max_inflight_cost must be > 0");
  if (std::isnan(opts_.request_timeout_ms) || std::isnan(opts_.drain_timeout_ms))
    throw InvalidInputError("ServerOptions: timeouts must not be NaN");
  // A negative or NaN base would drop the retry_after_ms hint from every
  // shed response; an infinite one would put a non-number on the wire.
  if (!std::isfinite(opts_.shed_retry_after_ms) || opts_.shed_retry_after_ms < 0.0)
    throw InvalidInputError("ServerOptions: shed_retry_after_ms must be finite and >= 0");
  if (opts_.op_threads < 0)
    throw InvalidInputError("ServerOptions: op_threads must be >= 0");
  opts_.retry.validate();
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Server::~Server() { drain(); }

std::shared_ptr<Ticket> Server::submit(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.received;
  }
  CSQ_OBS_COUNT("serve.requests.received");

  auto ticket = std::make_shared<Ticket>();
  auto pending = std::make_shared<Pending>();
  pending->ticket = ticket;
  pending->raw_line = line;
  try {
    pending->request = parse_request(line);
  } catch (const Error& e) {
    const SolverStatus st = e.status();
    note_invalid();
    int run = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (opts_.invalid_burst_limit > 0) {
        run = ++invalid_run_;
        if (run > opts_.invalid_burst_limit) ++stats_.invalid_suppressed;
      }
    }
    if (run > 0 && run == opts_.invalid_burst_limit) {
      // The burst boundary: one response announces the suppression; the
      // garbage that follows is counted but no longer answered line-by-line.
      CSQ_OBS_COUNT("serve.codec.invalid_burst");
      respond_inline(ticket,
                     error_response(recover_id(line), st.code,
                                    std::to_string(run) +
                                        " consecutive malformed lines — suppressing "
                                        "further per-line error responses until a "
                                        "well-formed line arrives"));
    } else if (run > opts_.invalid_burst_limit && opts_.invalid_burst_limit > 0) {
      // Mid-burst: resolve the ticket (empty response, skipped by the sink).
      respond_inline(ticket, "");
    } else {
      respond_inline(ticket, error_response(recover_id(line), st.code, st.message));
    }
    return ticket;
  }
  {
    // A well-formed line ends any malformed-line burst.
    std::lock_guard<std::mutex> lock(mu_);
    invalid_run_ = 0;
  }
  pending->raw_id = pending->request.id;
  pending->cost = pending->request.cost();

  try {
    admit(pending);
  } catch (const Error& e) {
    const SolverStatus st = e.status();
    if (st.code == ErrorCode::kOverloaded) {
      double hint = 0.0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.shed;
        hint = opts_.shed_retry_after_ms * (1.0 + static_cast<double>(pending_.size()));
      }
      CSQ_OBS_COUNT("serve.requests.shed");
      respond_inline(ticket, error_response(pending->raw_id, st.code, st.message, hint));
    } else {
      // A non-overload failure at the admission gate (an armed fault with a
      // different code, or a write-ahead journal append that failed): answer
      // it inline as invalid rather than crash. The client learns its
      // request was refused — never a silent drop.
      note_invalid();
      respond_inline(ticket, error_response(pending->raw_id, st.code, st.message));
    }
  }
  return ticket;
}

std::shared_ptr<Ticket> Server::submit_recovered(const std::string& line,
                                                 std::uint64_t seq) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.received;
    ++stats_.recovered;
  }
  CSQ_OBS_COUNT("serve.requests.recovered");
  auto ticket = std::make_shared<Ticket>();
  auto pending = std::make_shared<Pending>();
  pending->ticket = ticket;
  pending->raw_line = line;
  pending->journal_seq = seq;
  // The response still gets journaled against the original seq, so a second
  // crash + recovery sees this request completed instead of re-running it.
  pending->journaled = opts_.journal != nullptr;
  try {
    pending->request = parse_request(line);
  } catch (const Error& e) {
    // Journaled requests parsed successfully before the crash; failing now
    // means the file was edited. Still answer the ticket.
    const SolverStatus st = e.status();
    note_invalid();
    respond_inline(ticket, error_response(recover_id(line), st.code, st.message));
    return ticket;
  }
  pending->raw_id = pending->request.id;
  pending->cost = pending->request.cost();
  try {
    admit(pending, /*recovered=*/true);
  } catch (const Error& e) {
    // Only a draining server or an armed admission fault can get here (the
    // shed decision is bypassed): answer inline, never drop.
    const SolverStatus st = e.status();
    note_invalid();
    respond_inline(ticket, error_response(pending->raw_id, st.code, st.message));
  }
  return ticket;
}

void Server::note_invalid() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.invalid;
  }
  CSQ_OBS_COUNT("serve.requests.invalid");
}

void Server::admit(const std::shared_ptr<Pending>& p, bool recovered) {
  // Fires before the depth/cost decision so chaos tests can force a shed
  // (armed with throw:Overloaded) or a gate failure with any other code.
  CSQ_FAULT_POINT("serve.admission.shed");
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_)
    throw OverloadedError("server draining: not admitting new requests");
  if (!recovered) {
    // Journal replays bypass the shed decision: they were admitted in a
    // previous life, and refusing them now would break exactly-one-response.
    if (pending_.size() >= opts_.queue_depth)
      throw OverloadedError("request queue at depth limit " +
                            std::to_string(opts_.queue_depth));
    if (inflight_cost_ + p->cost > opts_.max_inflight_cost)
      throw OverloadedError("in-flight cost " + std::to_string(inflight_cost_) + " + " +
                            std::to_string(p->cost) + " exceeds limit " +
                            std::to_string(opts_.max_inflight_cost));
  }
  if (opts_.journal != nullptr && !p->journaled) {
    // Write-ahead: the request record must be durable before the request
    // can run. A throw here (full disk, armed durable.journal.append)
    // escapes to submit(), which refuses the request with an error
    // response — the client is told, nothing is silently dropped.
    p->journal_seq = opts_.journal->append_request(p->raw_line);
    p->journaled = true;
  }
  pending_.push_back(p);  // csq-lint: allow(serve-hygiene): this IS the bounded admit path — depth and cost were checked above under the same lock
  inflight_cost_ += p->cost;
  ++stats_.admitted;
  CSQ_OBS_COUNT("serve.requests.admitted");
  update_depth_gauge();
  work_cv_.notify_one();
}

std::string Server::call(const std::string& line) {
  const std::shared_ptr<Ticket> ticket = submit(line);
  if (opts_.workers == 0)
    while (!ticket->done() && process_one()) {
    }
  return ticket->wait();
}

bool Server::process_one() {
  std::shared_ptr<Pending> p;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return false;
    p = pending_.front();
    pending_.pop_front();
    running_.push_back(p);
    update_depth_gauge();
  }
  execute(p);
  return true;
}

void Server::worker_loop() {
  for (;;) {
    std::shared_ptr<Pending> p;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) {
        if (stop_) return;
        continue;
      }
      p = pending_.front();
      pending_.pop_front();
      running_.push_back(p);
      update_depth_gauge();
    }
    execute(p);
  }
}

void Server::execute(const std::shared_ptr<Pending>& p) {
  CSQ_OBS_SPAN("serve.request.handle");
  const std::string& id = p->raw_id;
  std::string response;
  bool cancelled = false;
  try {
    const RunBudget budget = request_budget(*p);
    response = run_with_retries(*p, budget);
  } catch (const CancelledError&) {
    // Normalized message: the stage the cancel landed in is timing-
    // dependent, and responses must depend only on request content.
    response = error_response(id, ErrorCode::kCancelled, "request cancelled");
    cancelled = true;
  } catch (const DeadlineExceededError&) {
    response = error_response(id, ErrorCode::kDeadlineExceeded, "request budget exhausted");
  } catch (const Error& e) {
    const SolverStatus st = e.status();
    response = error_response(id, st.code, st.message);
  } catch (const std::exception& e) {
    response = error_response(id, ErrorCode::kInternal, e.what());
  }
  finish(p, response, cancelled);
}

RunBudget Server::request_budget(const Pending& p) const {
  double limit = std::numeric_limits<double>::infinity();
  if (opts_.request_timeout_ms > 0.0) limit = opts_.request_timeout_ms;
  if (p.request.timeout_ms >= 0.0) limit = std::min(limit, p.request.timeout_ms);
  const RunBudget base =
      std::isinf(limit) ? RunBudget() : RunBudget::with_timeout_ms(limit);
  return base.with_token(p.cancel);
}

std::string Server::run_with_retries(const Pending& p, const RunBudget& budget) {
  const Request& req = p.request;
  ResponseExtras extras;
  for (int attempt = 1;; ++attempt) {
    try {
      CSQ_FAULT_POINT("serve.dispatch.run");
      budget.check("serve/dispatch");
      return execute_op(req, budget, &extras);
    } catch (const CancelledError&) {
      throw;
    } catch (const DeadlineExceededError&) {
      throw;
    } catch (const Error& e) {
      const SolverStatus st = e.status();
      const bool retryable = transient(st.code) && attempt < opts_.retry.max_attempts &&
                             !budget.interrupted();
      extras.attempts.push_back("attempt " + std::to_string(attempt) + ": " +
                                error_code_name(st.code) + " — " + st.message);
      if (retryable) {
        ++extras.retries;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.retried;
        }
        CSQ_OBS_COUNT("serve.requests.retried");
        const double delay = std::min(backoff_delay_ms(opts_.retry, req.id, extras.retries),
                                      budget.remaining_ms());
        if (delay > 0.0)
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
        continue;
      }
      // Out of retries (or non-transient): a CS-CQ analyze escalates through
      // the degradation ladder — skipping the exact rung already attempted —
      // so the client still gets an answer, marked degraded.
      if (transient(st.code) && req.op == OpKind::kAnalyze && req.policy == Policy::kCsCq &&
          !req.resilient && opts_.allow_degraded && !budget.interrupted())
        return run_resilient(req, budget, &extras, /*skip_exact=*/true);
      return error_response(req.id, st.code, st.message, -1.0, extras.retries);
    }
  }
}

std::string Server::execute_op(const Request& req, const RunBudget& budget,
                               ResponseExtras* extras) {
  switch (req.op) {
    case OpKind::kPing:
      return ok_response(req, "{\"pong\":true}", *extras);

    case OpKind::kAnalyze: {
      if (req.resilient) return run_resilient(req, budget, extras, /*skip_exact=*/false);
      // Unverified solves are never cached: the memo must hold only answers
      // that passed their self-checks.
      const bool cacheable = req.verify != VerifyLevel::kNone;
      const std::string key = cacheable ? req.cache_key() : std::string();
      if (cacheable)
        if (const std::optional<PolicyMetrics> hit = cache_.lookup(key); hit.has_value())
          return ok_response(req, metrics_json(*hit), *extras);
      const PolicyMetrics m = analyze(req.policy, req.config(), 3, req.verify, budget);
      if (cacheable) {
        try {
          cache_.insert(key, m);
        } catch (const Error&) {
          // Armed serve.cache.insert fault: drop the insert, keep the
          // freshly computed (verified) answer.
        }
      }
      return ok_response(req, metrics_json(m), *extras);
    }

    case OpKind::kSweep: {
      SweepOptions sopts;
      sopts.threads = opts_.op_threads;
      sopts.budget = budget;
      const std::vector<double> grid = linspace(req.from, req.to, req.points);
      const std::vector<SweepRow> rows =
          req.axis == SweepAxis::kRhoShort
              ? sweep_rho_short(req.rho_l, req.mean_s, req.mean_l, req.scv_l, grid, sopts)
              : sweep_rho_long(req.rho_s, req.mean_s, req.mean_l, req.scv_l, grid, sopts);
      return ok_response(req, sweep_json(rows), *extras);
    }

    case OpKind::kSimulate: {
      sim::PolicyKind kind = sim::PolicyKind::kCsCq;
      if (req.policy == Policy::kDedicated) kind = sim::PolicyKind::kDedicated;
      if (req.policy == Policy::kCsId) kind = sim::PolicyKind::kCsId;
      // "sim_policy" opens the full registry (already validated at parse).
      if (!req.sim_policy.empty()) kind = sim::policy_kind_from_token(req.sim_policy);
      sim::SimOptions so;
      so.seed = req.seed;
      so.total_completions = static_cast<std::size_t>(req.completions);
      sim::ReplicationOptions ro;
      ro.replications = req.replications;
      ro.threads = opts_.op_threads;
      ro.budget = budget;
      ro.target_rel_ci = 0.0;  // fixed replication count => deterministic
      const SystemConfig cfg = req.config();
      const sim::ReplicatedResult r = sim::simulate_replications(kind, cfg, so, ro);
      const ClassMetrics shorts = class_metrics_from_response(
          r.shorts.mean_response, cfg.effective_lambda_short(), cfg.short_size->mean());
      const ClassMetrics longs = class_metrics_from_response(
          r.longs.mean_response, cfg.lambda_long, cfg.long_size->mean());
      return ok_response(req,
                         simulate_json(shorts, r.shorts.ci95, longs, r.longs.ci95,
                                       static_cast<int>(r.replications.size())),
                         *extras);
    }
  }
  throw InternalError("execute_op: unreachable op", Diagnostics{});
}

std::string Server::run_resilient(const Request& req, const RunBudget& budget,
                                  ResponseExtras* extras, bool skip_exact) {
  analysis::ResilientOptions ropts;
  ropts.budget = budget;
  ropts.verify = req.verify;
  if (skip_exact) ropts.start_rung = analysis::Rung::kTruncated;
  // Serving-tier simulation rung: small fixed batch so the worst-case rung
  // stays interactive and deterministic (no adaptive extension).
  ropts.sim.total_completions = 20000;
  ropts.sim_reps.replications = 2;
  ropts.sim_reps.threads = opts_.op_threads;
  ropts.sim_target_rel_ci = 0.0;
  const analysis::ResilientResult r = analysis::analyze_resilient(req.config(), ropts);
  for (const analysis::RungAttempt& a : r.attempts) {
    std::string note = std::string(analysis::rung_name(a.rung)) + ": ";
    note += a.succeeded
                ? "ok"
                : std::string(error_code_name(a.status.code)) + " — " + a.status.message;
    extras->attempts.push_back(std::move(note));
  }
  if (r.rung_used != analysis::Rung::kExact) {
    extras->degraded = true;
    extras->rung = analysis::rung_name(r.rung_used);
    note_degraded();
  } else if (req.verify != VerifyLevel::kNone) {
    // The ladder's exact rung is the same verified analysis the plain path
    // runs — cacheable; fallback rungs never are.
    try {
      cache_.insert(req.cache_key(), r.metrics);
    } catch (const Error&) {
      // Armed serve.cache.insert fault: drop the insert.
    }
  }
  return ok_response(req, metrics_json(r.metrics), *extras);
}

void Server::finish(const std::shared_ptr<Pending>& p, const std::string& response,
                    bool cancelled) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(running_.begin(), running_.end(), p);
    if (it != running_.end()) running_.erase(it);
    inflight_cost_ -= p->cost;
    if (cancelled) {
      ++stats_.cancelled;
      CSQ_OBS_COUNT("serve.requests.cancelled");
    } else {
      ++stats_.completed;
      CSQ_OBS_COUNT("serve.requests.completed");
    }
    drain_cv_.notify_all();
  }
  if (p->journaled && opts_.journal != nullptr) {
    try {
      // Journal before delivery: any response the client can have observed
      // has its bytes on disk, so recovery re-emits rather than re-executes.
      opts_.journal->append_response(p->journal_seq, response);
    } catch (const Error&) {
      // Response record lost (armed fault / dead disk): recovery will
      // re-execute the request, and determinism reproduces the same bytes.
    }
  }
  deliver(p->ticket, response);
}

void Server::respond_inline(const std::shared_ptr<Ticket>& ticket,
                            const std::string& response) {
  deliver(ticket, response);
}

void Server::deliver(const std::shared_ptr<Ticket>& ticket, const std::string& response) {
  // Empty responses are burst-suppressed invalid lines: the ticket resolves
  // but nothing is written downstream.
  if (opts_.sink && !response.empty()) {
    std::lock_guard<std::mutex> lock(sink_mu_);
    opts_.sink(response);
  }
  {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    ticket->done_ = true;
    ticket->response_ = response;
  }
  ticket->cv_.notify_all();
}

void Server::note_degraded() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.degraded;
  }
  CSQ_OBS_COUNT("serve.requests.degraded");
}

void Server::update_depth_gauge() {
  CSQ_OBS_GAUGE_SET("serve.queue.depth", pending_.size());
}

void Server::drain() {
  std::vector<std::shared_ptr<Pending>> abandoned;
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    // Grace period: let the workers finish what is queued and running.
    if (opts_.workers > 0 && opts_.drain_timeout_ms > 0.0) {
      drain_cv_.wait_for(
          lock,
          std::chrono::duration<double, std::milli>(opts_.drain_timeout_ms),
          [this] { return pending_.empty() && running_.empty(); });
    }
    // Whatever is still queued will never run: answer it as cancelled.
    abandoned.assign(pending_.begin(), pending_.end());
    pending_.clear();
    update_depth_gauge();
    // Whatever is still running gets its cancel token fired; the worker
    // observes it at the next budget poll and responds Cancelled.
    for (const std::shared_ptr<Pending>& p : running_) p->cancel.cancel();
  }
  for (const std::shared_ptr<Pending>& p : abandoned)
    finish(p, error_response(p->raw_id, ErrorCode::kCancelled, "request cancelled"),
           /*cancelled=*/true);
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [this] { return running_.empty(); });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t Server::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

}  // namespace csq::serve
