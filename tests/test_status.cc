// Failure-path coverage for the structured error taxonomy (core/status.h):
// every numerical failure must surface as the right ErrorCode with useful
// diagnostics attached, not a generic exception, and solve_r's logarithmic
// reduction must solve near-boundary configs where sp(R) -> 1.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "analysis/cscq.h"
#include "core/check.h"
#include "analysis/stability.h"
#include "core/solver.h"
#include "core/status.h"
#include "linalg/lu.h"
#include "mg1/mg1.h"
#include "qbd/qbd.h"

namespace csq {
namespace {

using linalg::Lu;
using linalg::Matrix;

// M/M/1 as a one-phase QBD (same shape as test_qbd.cc).
qbd::Model mm1_model(double lambda, double mu) {
  qbd::Model m;
  m.a0 = Matrix{{lambda}};
  m.a1 = Matrix{{0.0}};
  m.a2 = Matrix{{mu}};
  m.first_down = Matrix{{mu}};
  m.boundary.resize(1);
  m.boundary[0].local = Matrix{{0.0}};
  m.boundary[0].up = Matrix{{lambda}};
  return m;
}

TEST(Status, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kOk), "Ok");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidInput), "InvalidInput");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnstable), "Unstable");
  EXPECT_STREQ(error_code_name(ErrorCode::kNotConverged), "NotConverged");
  EXPECT_STREQ(error_code_name(ErrorCode::kIllConditioned), "IllConditioned");
  EXPECT_STREQ(error_code_name(ErrorCode::kVerificationFailed), "VerificationFailed");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "Internal");
}

TEST(Status, ErrorClassNames) {
  EXPECT_STREQ(error_class_name(ErrorCode::kInvalidInput), "InvalidInputError");
  EXPECT_STREQ(error_class_name(ErrorCode::kUnstable), "UnstableError");
  EXPECT_STREQ(error_class_name(ErrorCode::kInternal), "InternalError");
}

// The exit statuses csq_cli, csq_serve and csq_lint document; scripts
// branch on them, so each is pinned.
TEST(Status, ExitCodesFollowTheTaxonomyTable) {
  EXPECT_EQ(exit_code(ErrorCode::kOk), 0);
  EXPECT_EQ(exit_code(ErrorCode::kInternal), 1);
  EXPECT_EQ(exit_code(ErrorCode::kInvalidInput), 2);
  EXPECT_EQ(exit_code(ErrorCode::kUnstable), 3);
  EXPECT_EQ(exit_code(ErrorCode::kNotConverged), 4);
  EXPECT_EQ(exit_code(ErrorCode::kIllConditioned), 5);
  EXPECT_EQ(exit_code(ErrorCode::kVerificationFailed), 6);
  EXPECT_EQ(exit_code(ErrorCode::kDeadlineExceeded), 7);
  EXPECT_EQ(exit_code(ErrorCode::kCancelled), 8);
  EXPECT_EQ(exit_code(ErrorCode::kOverloaded), 9);
  EXPECT_EQ(exit_code(ErrorCode::kCorruptJournal), 10);
}

TEST(Status, StructuredErrorsRemainStdExceptions) {
  // The taxonomy types must be catchable both as csq::Error (new code) and
  // as the std exception each call site historically threw (old code).
  EXPECT_THROW(throw InvalidInputError("x"), std::invalid_argument);
  EXPECT_THROW(throw UnstableError("x"), std::domain_error);
  EXPECT_THROW(throw NotConvergedError("x"), std::domain_error);
  EXPECT_THROW(throw IllConditionedError("x"), std::domain_error);
  EXPECT_THROW(throw VerificationFailedError("x"), std::runtime_error);
  EXPECT_THROW(throw InternalError("x"), std::logic_error);
  try {
    throw UnstableError("load too high", Diagnostics::loads(1.7, 0.5));
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnstable);
    EXPECT_DOUBLE_EQ(e.diagnostics().rho_short, 1.7);
    EXPECT_DOUBLE_EQ(e.diagnostics().rho_long, 0.5);
  }
}

TEST(Status, StatusFromExceptionClassifies) {
  Diagnostics gave_up;
  gave_up.iterations = 42;
  const SolverStatus s1 = status_from_exception(NotConvergedError("gave up", gave_up));
  EXPECT_EQ(s1.code, ErrorCode::kNotConverged);
  EXPECT_EQ(s1.diagnostics.iterations, 42);
  EXPECT_EQ(status_from_exception(std::invalid_argument("x")).code,
            ErrorCode::kInvalidInput);
  EXPECT_EQ(status_from_exception(std::domain_error("x")).code, ErrorCode::kUnstable);
  EXPECT_EQ(status_from_exception(std::runtime_error("x")).code, ErrorCode::kInternal);
  EXPECT_EQ(status_from_exception(InternalError("x")).code, ErrorCode::kInternal);
}

TEST(Status, ThrowErrorMapsInternal) {
  // kInternal (and kOk, defensively) route to InternalError, keeping every
  // throw_error() call inside the taxonomy (csq_lint rule raw-throw).
  EXPECT_THROW(throw_error(ErrorCode::kInternal, "boom"), InternalError);
  try {
    throw_error(ErrorCode::kInternal, "boom");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
}

TEST(Status, CsqAssertThrowsInternalError) {
  CSQ_ASSERT(1 + 1 == 2);  // passing asserts are silent
  try {
    CSQ_ASSERT(2 + 2 == 5);
    FAIL() << "CSQ_ASSERT did not throw";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("CSQ_ASSERT(2 + 2 == 5)"), std::string::npos);
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
}

TEST(Status, JsonCarriesCodeAndDiagnostics) {
  SolverStatus s;
  s.code = ErrorCode::kUnstable;
  s.message = "rho too high";
  s.diagnostics = Diagnostics::loads(1.9, 0.5);
  s.diagnostics.iterations = 7;
  const std::string j = s.to_json();
  EXPECT_NE(j.find("\"code\":\"Unstable\""), std::string::npos);
  EXPECT_NE(j.find("\"rho_short\":1.9"), std::string::npos);
  EXPECT_NE(j.find("\"iterations\":7"), std::string::npos);
  EXPECT_EQ(SolverStatus{}.to_json(), "{\"ok\":true}");
}

TEST(StatusTaxonomy, UnstableLoadsCarryRho) {
  // rho_L >= 1: no policy is stable; the error must say which load is at
  // fault rather than a bare "domain_error".
  const SystemConfig c = SystemConfig::paper_setup(0.5, 1.2, 1.0, 1.0, 1.0);
  try {
    (void)analysis::analyze_cscq(c);
    FAIL() << "expected UnstableError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnstable);
    EXPECT_NEAR(e.diagnostics().rho_long, 1.2, 1e-12);
  }
}

TEST(StatusTaxonomy, CscqBoundaryViolationIsUnstable) {
  // Just outside rho_S < 2 - rho_L.
  const SystemConfig c = SystemConfig::paper_setup(1.52, 0.5, 1.0, 1.0, 1.0);
  try {
    (void)analysis::analyze_cscq(c);
    FAIL() << "expected UnstableError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnstable);
    EXPECT_NEAR(e.diagnostics().rho_short, 1.52, 1e-12);
  }
}

TEST(StatusTaxonomy, InvalidConfigIsInvalidInput) {
  try {
    (void)SystemConfig::paper_setup(-0.5, 0.5, 1.0, 1.0, 1.0);
    FAIL() << "expected InvalidInputError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
}

TEST(StatusTaxonomy, SingularLuIsIllConditioned) {
  const Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
  try {
    const Lu lu(singular);
    FAIL() << "expected IllConditionedError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIllConditioned);
  }
  // Well-conditioned input: condition estimate is sane and cheap.
  const Lu ok(Matrix{{4.0, 1.0}, {1.0, 3.0}});
  EXPECT_GE(ok.condition_estimate(), 1.0);
  EXPECT_LT(ok.condition_estimate(), 100.0);
}

TEST(StatusTaxonomy, UnstableQbdIsUnstableByDrift) {
  // rho = 1.5: the level drifts up. The drift check must classify this as
  // genuinely unstable, not "did not converge", and name both rates.
  try {
    (void)qbd::solve(mm1_model(1.5, 1.0));
    FAIL() << "expected UnstableError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnstable);
    EXPECT_NE(e.status().message.find("mean up-rate 1.5 >= mean down-rate 1"),
              std::string::npos)
        << e.status().message;
  }
  // Null-recurrent boundary case rho = 1 (drift exactly 0) classifies the
  // same way.
  try {
    (void)qbd::solve(mm1_model(1.0, 1.0));
    FAIL() << "expected UnstableError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnstable);
  }
}

TEST(StatusTaxonomy, ExhaustedIterationBudgetIsNotConverged) {
  // A stable chain that needs several doubling steps, capped at one: a
  // structured NotConverged carrying the step count, the tolerance and the
  // last update — never an UnstableError or a NaN answer.
  qbd::Options o;
  o.max_iterations = 1;
  const Matrix a0{{0.9}}, a1{{-1.9}}, a2{{1.0}};
  qbd::SolveStats stats;
  try {
    (void)qbd::solve_r(a0, a1, a2, o, &stats);
    FAIL() << "expected NotConvergedError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotConverged);
    EXPECT_EQ(e.diagnostics().iterations, 1);
    EXPECT_EQ(e.diagnostics().stage, "logarithmic_reduction");
    EXPECT_DOUBLE_EQ(e.diagnostics().tolerance, o.tolerance);
    ASSERT_FALSE(e.diagnostics().notes.empty());
    EXPECT_NE(e.diagnostics().notes.front().find("last update"), std::string::npos);
  }
  EXPECT_EQ(stats.iterations, 1);
  // The default cap solves the same chain: R = rho = 0.9.
  EXPECT_NEAR(qbd::solve_r(a0, a1, a2)(0, 0), 0.9, 1e-12);
}

TEST(NearFrontier, CscqSolvesViaLogReduction) {
  // A CS-CQ config 0.01% inside the stability boundary rho_S = 2 - rho_L,
  // where sp(R) -> 1. A linear iteration needs ~ 1/(1 - sp(R)) steps per
  // tolerance digit here; logarithmic reduction's doubling steps solve it
  // with a tiny residual.
  const double rho_l = 0.5;
  const double rho_s = 0.9999 * analysis::cscq_max_rho_short(rho_l);
  const SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, 1.0, 1.0, 1.0);

  const analysis::CscqResult res = analysis::analyze_cscq(c);
  const qbd::SolveStats& stats = res.chain.stats;
  EXPECT_LE(stats.iterations, 32);
  EXPECT_LT(stats.residual, 1e-8);
  EXPECT_NEAR(stats.drift, rho_s - (2.0 - rho_l), 1e-12);
  EXPECT_GT(res.chain.tail_decay_rate(), 0.999);
  EXPECT_LT(res.chain.tail_decay_rate(), 1.0);
  EXPECT_GT(stats.boundary_condition, 1.0);
  EXPECT_TRUE(std::isfinite(res.metrics.shorts.mean_response));
  EXPECT_GT(res.metrics.shorts.mean_response, 100.0);  // near-saturation
  EXPECT_TRUE(std::isfinite(res.metrics.longs.mean_response));
}

TEST(Verification, QbdSolutionVerifyPasses) {
  const qbd::Solution sol = qbd::solve(mm1_model(0.7, 1.0));
  EXPECT_TRUE(sol.verify(VerifyLevel::kNone).ok());
  EXPECT_TRUE(sol.verify(VerifyLevel::kBasic).ok());
  EXPECT_TRUE(sol.verify(VerifyLevel::kFull).ok());
}

TEST(Verification, CertificateRejectsSpectralRadiusAboveOne) {
  // R = [[1.2]] with its (I - R)^{-1} = [[-5]], and masses that still sum
  // to one and are nonnegative: only the sp(R) < 1 certificate can reject it.
  qbd::Solution sol;
  sol.boundary_pi = {{1.5}};
  sol.pi_k = {0.1};
  sol.r = Matrix{{1.2}};
  sol.i_minus_r_inv = Matrix{{-5.0}};
  const SolverStatus bad = sol.verify(VerifyLevel::kBasic);
  EXPECT_EQ(bad.code, ErrorCode::kVerificationFailed);
  EXPECT_NE(bad.message.find("sp(R) < 1 not certified"), std::string::npos) << bad.message;
  // A negative entry in R fails it too, though (I - R)^{-1} 1 >= 1 here.
  sol.r = Matrix{{0.5, -0.1}, {0.0, 0.5}};
  sol.i_minus_r_inv = Matrix{{2.0, -0.4}, {0.0, 2.0}};
  sol.pi_k = {0.05, 0.05};
  sol.boundary_pi = {{1.0 - 0.05 * 2.0 - 0.05 * 1.6}};
  EXPECT_NE(sol.verify(VerifyLevel::kBasic).message.find("sp(R) < 1 not certified"),
            std::string::npos);
  // A good solve passes it, also where sp(R) -> 1.
  EXPECT_TRUE(qbd::solve(mm1_model(0.7, 1.0)).verify(VerifyLevel::kBasic).ok());
  EXPECT_TRUE(qbd::solve(mm1_model(1.0 - 1e-6, 1.0)).verify(VerifyLevel::kBasic).ok());
  // Where 1 - sp(R) is finer than R resolves, the solve refuses instead of
  // answering: gap 1e-10 at the CS-CQ frontier, where (I - R)^{-1} 1 reaches
  // ~3e8 and the mean response would be 100 times too small.
  EXPECT_THROW((void)analysis::analyze_cscq(
                   SystemConfig::paper_setup(1.5 - 1e-10, 0.5, 1.0, 1.0, 1.0)),
               VerificationFailedError);
}

TEST(Verification, CorruptedSolutionFailsVerify) {
  qbd::Solution sol = qbd::solve(mm1_model(0.7, 1.0));
  sol.pi_k[0] = -0.2;  // negative probability and broken mass
  const SolverStatus bad = sol.verify(VerifyLevel::kBasic);
  EXPECT_EQ(bad.code, ErrorCode::kVerificationFailed);
  EXPECT_FALSE(bad.diagnostics.notes.empty());
  EXPECT_TRUE(sol.verify(VerifyLevel::kNone).ok());  // kNone skips the checks
}

TEST(Verification, AnalyzeAtFullLevelPassesForAllPolicies) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0, 1.0);
  for (const Policy p : {Policy::kDedicated, Policy::kCsId, Policy::kCsCq}) {
    const PolicyMetrics m = analyze(p, c, VerifyLevel::kFull);
    EXPECT_TRUE(verify_metrics(m, c, VerifyLevel::kFull).ok()) << policy_label(p);
  }
}

TEST(Verification, VerifyMetricsRejectsNonsense) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0, 1.0);
  PolicyMetrics m = analyze(Policy::kCsCq, c);
  m.shorts.mean_response = -3.0;
  EXPECT_EQ(verify_metrics(m, c).code, ErrorCode::kVerificationFailed);
  PolicyMetrics m2 = analyze(Policy::kCsCq, c);
  m2.longs.mean_number = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(verify_metrics(m2, c).code, ErrorCode::kVerificationFailed);
  // Little's-law breakage only trips at kFull.
  PolicyMetrics m3 = analyze(Policy::kCsCq, c);
  m3.shorts.mean_number += 0.5;
  EXPECT_TRUE(verify_metrics(m3, c, VerifyLevel::kBasic).ok());
  EXPECT_EQ(verify_metrics(m3, c, VerifyLevel::kFull).code,
            ErrorCode::kVerificationFailed);
}

TEST(TryAnalyze, ClassifiesWithoutThrowing) {
  const SystemConfig stable = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0, 1.0);
  const AnalyzeOutcome good = try_analyze(Policy::kCsCq, stable);
  ASSERT_TRUE(good.ok());
  EXPECT_GT(good.metrics.shorts.mean_response, 0.0);

  const SystemConfig unstable = SystemConfig::paper_setup(1.9, 0.5, 1.0, 1.0, 1.0);
  const AnalyzeOutcome bad = try_analyze(Policy::kCsCq, unstable);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status.code, ErrorCode::kUnstable);
  EXPECT_NEAR(bad.status.diagnostics.rho_short, 1.9, 1e-12);
  EXPECT_NE(bad.status.to_json().find("\"code\":\"Unstable\""), std::string::npos);
}

TEST(StatusTaxonomy, Mg1OverloadIsUnstable) {
  try {
    (void)mg1::mm1_response(1.3, 1.0);
    FAIL() << "expected UnstableError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnstable);
    EXPECT_NEAR(e.diagnostics().rho_long, 1.3, 1e-12);
  }
}

}  // namespace
}  // namespace csq
