#include "core/solver.h"

#include <cmath>
#include <string>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/csid.h"
#include "analysis/dedicated.h"
#include "analysis/stability.h"

namespace csq {

namespace {

void check_class(const ClassMetrics& m, double lambda, const char* label,
                 VerifyLevel level, std::vector<std::string>& failures) {
  const auto bad = [&](const std::string& what) {
    failures.push_back(std::string(label) + ": " + what);
  };
  if (!std::isfinite(m.mean_response) || !std::isfinite(m.mean_wait) ||
      !std::isfinite(m.mean_number)) {
    bad("non-finite metric");
    return;
  }
  if (m.mean_response <= 0.0) bad("mean response not positive");
  if (m.mean_wait < -1e-6) bad("negative mean wait");
  if (m.mean_number < -1e-9) bad("negative mean number");
  if (level == VerifyLevel::kFull) {
    const double expect = lambda * m.mean_response;
    if (std::abs(m.mean_number - expect) > 1e-6 * std::max(1.0, std::abs(expect)))
      bad("E[N] inconsistent with Little's law");
  }
}

}  // namespace

const char* policy_label(Policy p) {
  switch (p) {
    case Policy::kDedicated: return "Dedicated";
    case Policy::kCsId: return "CS-ID";
    case Policy::kCsCq: return "CS-CQ";
  }
  return "?";
}

SolverStatus verify_metrics(const PolicyMetrics& metrics, const SystemConfig& config,
                            VerifyLevel level) {
  SolverStatus status;
  if (level == VerifyLevel::kNone) return status;
  std::vector<std::string> failures;
  check_class(metrics.shorts, config.effective_lambda_short(), "shorts", level, failures);
  check_class(metrics.longs, config.lambda_long, "longs", level, failures);
  if (!failures.empty()) {
    status.code = ErrorCode::kVerificationFailed;
    status.message = "verify_metrics: " + failures.front() +
                     (failures.size() > 1
                          ? " (+" + std::to_string(failures.size() - 1) + " more)"
                          : "");
    status.diagnostics =
        Diagnostics::loads(config.rho_short(), config.rho_long());
    status.diagnostics.notes = std::move(failures);
  }
  return status;
}

PolicyMetrics analyze(Policy policy, const SystemConfig& config, VerifyLevel verify,
                      const RunBudget& budget) {
  budget.check("analyze");
  PolicyMetrics metrics;
  switch (policy) {
    case Policy::kDedicated:
      metrics = analysis::analyze_dedicated(config);
      break;
    case Policy::kCsId: {
      analysis::CsidOptions opts;
      opts.qbd.verify = verify;
      opts.qbd.budget = budget;
      metrics = analysis::analyze_csid(config, opts).metrics;
      break;
    }
    case Policy::kCsCq: {
      analysis::CscqOptions opts;
      opts.qbd.verify = verify;
      opts.qbd.budget = budget;
      metrics = analysis::analyze_cscq(config, opts).metrics;
      break;
    }
    default: throw InvalidInputError("analyze: unknown policy");
  }
  const SolverStatus v = verify_metrics(metrics, config, verify);
  if (!v.ok()) throw VerificationFailedError(v.message, v.diagnostics);
  return metrics;
}

AnalyzeOutcome try_analyze(Policy policy, const SystemConfig& config, VerifyLevel verify,
                           const RunBudget& budget) noexcept {
  AnalyzeOutcome out;
  try {
    out.metrics = analyze(policy, config, verify, budget);
  } catch (const Error& e) {
    out.status = e.status();
  } catch (const std::exception& e) {
    out.status = status_from_exception(e);
  } catch (...) {
    out.status.code = ErrorCode::kInternal;
    out.status.message = "analyze: unknown exception";
  }
  return out;
}

bool is_stable(Policy policy, const SystemConfig& config) {
  const double rs = config.rho_short();
  const double rl = config.rho_long();
  if (rl >= 1.0) return false;
  switch (policy) {
    case Policy::kDedicated: return analysis::dedicated_stable(rs, rl);
    case Policy::kCsId: return analysis::csid_stable(rs, rl);
    case Policy::kCsCq: return analysis::cscq_stable(rs, rl);
  }
  return false;
}

}  // namespace csq
