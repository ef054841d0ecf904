// Output check: the response each request must get, recomputed through the
// public entry points rather than through serve::Server.
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/csid.h"
#include "analysis/dedicated.h"
#include "core/sweep.h"
#include "perfbench.h"
#include "sim/simulator.h"

namespace perfbench {

using csq::serve::OpKind;
using csq::serve::Request;

namespace {

csq::PolicyMetrics analyze(const Request& req) {
  const csq::SystemConfig cfg = req.config();
  switch (req.policy) {
    case csq::Policy::kDedicated:
      return csq::analysis::analyze_dedicated(cfg);
    case csq::Policy::kCsId: {
      csq::analysis::CsidOptions opts;
      opts.qbd.verify = req.verify;
      return csq::analysis::analyze_csid(cfg, opts).metrics;
    }
    case csq::Policy::kCsCq: {
      csq::analysis::CscqOptions opts;
      opts.qbd.verify = req.verify;
      return csq::analysis::analyze_cscq(cfg, opts).metrics;
    }
  }
  throw std::logic_error("analyze: unknown policy");
}

std::string sweep(const Request& req) {
  const std::vector<double> grid = csq::linspace(req.from, req.to, req.points);
  const std::vector<csq::SweepRow> rows =
      req.axis == csq::serve::SweepAxis::kRhoShort
          ? csq::sweep_rho_short(req.rho_l, req.mean_s, req.mean_l, req.scv_l, grid)
          : csq::sweep_rho_long(req.rho_s, req.mean_s, req.mean_l, req.scv_l, grid);
  return csq::serve::sweep_json(rows);
}

std::string simulate(const Request& req) {
  csq::sim::PolicyKind kind = csq::sim::PolicyKind::kCsCq;
  if (req.policy == csq::Policy::kDedicated) kind = csq::sim::PolicyKind::kDedicated;
  if (req.policy == csq::Policy::kCsId) kind = csq::sim::PolicyKind::kCsId;
  if (!req.sim_policy.empty()) kind = csq::sim::policy_kind_from_token(req.sim_policy);
  csq::sim::SimOptions so;
  so.seed = req.seed;
  so.total_completions = static_cast<std::size_t>(req.completions);
  csq::sim::ReplicationOptions ro;
  ro.replications = req.replications;
  ro.target_rel_ci = 0.0;
  const csq::SystemConfig cfg = req.config();
  const csq::sim::ReplicatedResult r = csq::sim::simulate_replications(kind, cfg, so, ro);
  const csq::ClassMetrics shorts = csq::class_metrics_from_response(
      r.shorts.mean_response, cfg.effective_lambda_short(), cfg.short_size->mean());
  const csq::ClassMetrics longs = csq::class_metrics_from_response(
      r.longs.mean_response, cfg.lambda_long, cfg.long_size->mean());
  return csq::serve::simulate_json(shorts, r.shorts.ci95, longs, r.longs.ci95,
                                   static_cast<int>(r.replications.size()));
}

}  // namespace

std::string expected_response(const Request& req) {
  switch (req.op) {
    case OpKind::kPing: return csq::serve::ok_response(req, "{\"pong\":true}");
    case OpKind::kAnalyze:
      return csq::serve::ok_response(req, csq::serve::metrics_json(analyze(req)));
    case OpKind::kSweep: return csq::serve::ok_response(req, sweep(req));
    case OpKind::kSimulate: return csq::serve::ok_response(req, simulate(req));
  }
  throw std::logic_error("expected_response: unknown op");
}

}  // namespace perfbench
