#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "core/config.h"
#include "core/deadline.h"
#include "core/solver.h"
#include "core/sweep.h"
#include "core/table.h"

namespace csq {
namespace {

TEST(Config, FromLoadsComputesRates) {
  const SystemConfig c = SystemConfig::paper_setup(1.2, 0.5, 2.0, 10.0);
  EXPECT_NEAR(c.lambda_short, 0.6, 1e-12);
  EXPECT_NEAR(c.lambda_long, 0.05, 1e-12);
  EXPECT_NEAR(c.rho_short(), 1.2, 1e-12);
  EXPECT_NEAR(c.rho_long(), 0.5, 1e-12);
}

TEST(Config, PaperSetupScv) {
  const SystemConfig c = SystemConfig::paper_setup(0.5, 0.5, 1.0, 10.0, 8.0);
  EXPECT_NEAR(c.long_size->scv(), 8.0, 1e-9);
  const SystemConfig e = SystemConfig::paper_setup(0.5, 0.5, 1.0, 10.0);
  EXPECT_NEAR(e.long_size->scv(), 1.0, 1e-9);
}

TEST(Config, ValidationErrors) {
  SystemConfig c;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  EXPECT_THROW(SystemConfig::from_loads(-0.1, 0.5, nullptr, nullptr), std::invalid_argument);
}

TEST(Config, ClassMetricsLittleLaw) {
  const ClassMetrics m = class_metrics_from_response(4.0, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(m.mean_wait, 3.0);
  EXPECT_DOUBLE_EQ(m.mean_number, 2.0);
}

TEST(Solver, DispatchMatchesDirectCalls) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0);
  for (const Policy p : {Policy::kDedicated, Policy::kCsId, Policy::kCsCq}) {
    EXPECT_TRUE(is_stable(p, c));
    const PolicyMetrics m = analyze(p, c);
    EXPECT_GT(m.shorts.mean_response, 1.0);
    EXPECT_GT(m.longs.mean_response, 1.0);
  }
  EXPECT_STREQ(policy_label(Policy::kCsCq), "CS-CQ");
}

TEST(Solver, StabilityDispatch) {
  const SystemConfig c = SystemConfig::paper_setup(1.4, 0.5, 1.0, 1.0);
  EXPECT_FALSE(is_stable(Policy::kDedicated, c));
  EXPECT_FALSE(is_stable(Policy::kCsId, c));  // frontier 1.28 at rho_L=0.5
  EXPECT_TRUE(is_stable(Policy::kCsCq, c));
}

TEST(Sweep, Linspace) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
  EXPECT_DOUBLE_EQ(v[4], 1.0);
}

TEST(Sweep, LinspaceEdgeCases) {
  // n == 1 collapses to the lower bound instead of dividing by zero.
  const auto single = linspace(0.3, 1.7, 1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single[0], 0.3);
  // lo == hi fills with the exact bound.
  for (const double x : linspace(0.7, 0.7, 4)) EXPECT_EQ(x, 0.7);
  // The last point is exactly hi, no accumulated rounding.
  EXPECT_EQ(linspace(0.1, 1.45, 29).back(), 1.45);
  EXPECT_THROW((void)linspace(0, 1, 0), csq::InvalidInputError);
  EXPECT_THROW((void)linspace(0, 1, -3), std::invalid_argument);
}

TEST(Sweep, ExpiredBudgetMarksEveryPointTimedOutButKeepsRows) {
  SweepOptions opts;
  opts.budget = RunBudget::with_timeout_ms(0);
  const auto rows = sweep_rho_short(0.5, 1.0, 1.0, 1.0, {0.3, 0.6}, opts);
  ASSERT_EQ(rows.size(), 2u);  // rows survive; no exception escapes the pool
  EXPECT_DOUBLE_EQ(rows[0].x, 0.3);
  for (const auto& r : rows) {
    EXPECT_EQ(r.dedicated_status, PointStatus::kTimedOut);
    EXPECT_EQ(r.csid_status, PointStatus::kTimedOut);
    EXPECT_EQ(r.cscq_status, PointStatus::kTimedOut);
    EXPECT_TRUE(std::isnan(r.cscq_short));
  }
}

TEST(Sweep, PointStatusNamesAreStable) {
  EXPECT_STREQ(point_status_name(PointStatus::kOk), "ok");
  EXPECT_STREQ(point_status_name(PointStatus::kUnstable), "unstable");
  EXPECT_STREQ(point_status_name(PointStatus::kFailed), "failed");
  EXPECT_STREQ(point_status_name(PointStatus::kDegraded), "degraded");
  EXPECT_STREQ(point_status_name(PointStatus::kTimedOut), "timed-out");
}

TEST(RunBudget, DefaultIsInertAndUnlimited) {
  const RunBudget b;
  EXPECT_FALSE(b.has_deadline());
  EXPECT_FALSE(b.interrupted());
  EXPECT_EQ(b.remaining_ms(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(b.budget_ms(), std::numeric_limits<double>::infinity());
  EXPECT_NO_THROW(b.check("test"));
}

TEST(RunBudget, NonPositiveTimeoutIsAlreadyExpired) {
  for (const double ms : {0.0, -5.0}) {
    const RunBudget b = RunBudget::with_timeout_ms(ms);
    EXPECT_TRUE(b.has_deadline());
    EXPECT_TRUE(b.expired());
    EXPECT_TRUE(b.interrupted());
    EXPECT_DOUBLE_EQ(b.remaining_ms(), 0.0);
    EXPECT_THROW(b.check("test"), DeadlineExceededError);
  }
}

TEST(RunBudget, InfiniteTimeoutIsUnlimitedNanThrows) {
  const RunBudget b = RunBudget::with_timeout_ms(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(b.has_deadline());
  EXPECT_FALSE(b.expired());
  EXPECT_NO_THROW(b.check("test"));
  EXPECT_THROW((void)RunBudget::with_timeout_ms(std::nan("")), InvalidInputError);
}

TEST(RunBudget, CancelTokenWinsOverDeadline) {
  CancelToken token;
  const RunBudget b = RunBudget::with_timeout_ms(0).with_token(token);
  EXPECT_THROW(b.check("test"), DeadlineExceededError);  // not yet cancelled
  token.cancel();
  // Cancelled *and* expired: check() reports the cancellation, not the
  // deadline — the caller asked to stop.
  EXPECT_TRUE(b.cancelled());
  EXPECT_THROW(b.check("test"), CancelledError);
}

TEST(RunBudget, SliceNeverExtendsPastTheParentDeadline) {
  const RunBudget parent = RunBudget::with_timeout_ms(50);
  const RunBudget slice = parent.slice_ms(10000);
  EXPECT_TRUE(slice.has_deadline());
  EXPECT_LE(slice.remaining_ms(), parent.remaining_ms());
  // Slicing an unlimited budget introduces a deadline.
  const RunBudget capped = RunBudget::unlimited().slice_ms(10);
  EXPECT_TRUE(capped.has_deadline());
  EXPECT_LE(capped.remaining_ms(), 10.0);
}

TEST(RunBudget, VirtualClockAdvanceTripsTheDeadlineWithoutSleeping) {
  timebase::reset_virtual();
  const RunBudget b = RunBudget::with_timeout_ms(10000);
  EXPECT_FALSE(b.expired());
  timebase::advance_virtual_ns(20000LL * 1000 * 1000);  // +20 s, instantly
  EXPECT_TRUE(b.expired());
  EXPECT_THROW(b.check("test"), DeadlineExceededError);
  timebase::reset_virtual();
  EXPECT_FALSE(b.expired());
}

TEST(RunBudget, AnnotateStampsBudgetAndElapsed) {
  const Diagnostics inert = RunBudget().annotate({});
  EXPECT_FALSE(inert.has(inert.budget_ms));
  const Diagnostics d = RunBudget::with_timeout_ms(100).annotate({});
  EXPECT_TRUE(d.has(d.budget_ms));
  EXPECT_TRUE(d.has(d.elapsed_ms));
  EXPECT_NEAR(d.budget_ms, 100.0, 1.0);
}

TEST(Sweep, RhoShortMarksInstabilityWithNaN) {
  const auto rows = sweep_rho_short(0.5, 1.0, 1.0, 1.0, {0.9, 1.1, 1.4});
  ASSERT_EQ(rows.size(), 3u);
  // 0.9: all stable.
  EXPECT_FALSE(std::isnan(rows[0].dedicated_short));
  // 1.1: Dedicated shorts unstable; cycle stealers fine.
  EXPECT_TRUE(std::isnan(rows[1].dedicated_short));
  EXPECT_FALSE(std::isnan(rows[1].csid_short));
  // 1.4: CS-ID shorts also unstable (frontier ~1.28).
  EXPECT_TRUE(std::isnan(rows[2].csid_short));
  EXPECT_FALSE(std::isnan(rows[2].cscq_short));
  // Long columns are always populated while rho_L < 1.
  for (const auto& r : rows) {
    EXPECT_FALSE(std::isnan(r.dedicated_long));
    EXPECT_FALSE(std::isnan(r.csid_long));
    EXPECT_FALSE(std::isnan(r.cscq_long));
  }
}

TEST(Sweep, RhoLongSweepShapes) {
  const auto rows = sweep_rho_long(1.5, 1.0, 1.0, 8.0, {0.1, 0.3, 0.6});
  // CS-ID shorts stable only below rho_L = 1/6.
  EXPECT_FALSE(std::isnan(rows[0].csid_short));
  EXPECT_TRUE(std::isnan(rows[1].csid_short));
  // CS-CQ shorts stable below 0.5.
  EXPECT_FALSE(std::isnan(rows[1].cscq_short));
  EXPECT_TRUE(std::isnan(rows[2].cscq_short));
  // Dedicated shorts never stable at rho_S = 1.5.
  for (const auto& r : rows) EXPECT_TRUE(std::isnan(r.dedicated_short));
}

TEST(Table, PrintAndCsv) {
  Table t({"a", "b"});
  t.add_row({1.0, std::nan("")});
  t.add_row({std::vector<std::string>{"x", "y"}});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.0000"), std::string::npos);
  EXPECT_NE(os.str().find("-"), std::string::npos);
  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_NE(csv.str().find("a,b"), std::string::npos);
  EXPECT_NE(csv.str().find("x,y"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, Errors) {
  EXPECT_THROW(Table{std::vector<std::string>{}}, std::invalid_argument);
  Table t({"a"});
  EXPECT_THROW(t.add_row({1.0, 2.0}), std::invalid_argument);
}

TEST(Format, Cell) {
  EXPECT_EQ(format_cell(std::nan("")), "-");
  EXPECT_EQ(format_cell(1.5, 2), "1.50");
}

}  // namespace
}  // namespace csq
