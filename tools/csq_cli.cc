// csq_cli — command-line front end for the cyclesteal library.
//
//   csq_cli analyze   --policy cscq|csid|dedicated [workload flags]
//                     [--resilient] (cscq only: exact -> truncated ->
//                     simulation degradation ladder)
//   csq_cli simulate  --policy <registry token; see docs/policies.md>
//                     [workload flags] [--dist exp|coxian|bpareto]
//                     [--completions N] [--seed N] [--tags-cutoff X]
//                     [--steal-threshold N] [--steal-batch N]
//                     [--share-threshold N] [--reps N] [--target-ci X]
//                     [--max-reps N]
//   csq_cli sweep     --x rho_s|rho_l --from A --to B --points N
//                     [workload flags] [--csv] [--resilient]
//                     [--checkpoint FILE [--checkpoint-every N]]
//                     (crash-resumable: periodic atomic snapshots; rerun
//                     with the same flags + file to resume byte-identically)
//   csq_cli sweep     --policy a,b,... [--dist exp|coxian|bpareto]
//                     [--from A --to B --points N] [--csv|--json]
//                     (policy x dist x load panel: analysis for
//                     cscq/csid/dedicated, replicated simulation elsewhere;
//                     bit-identical across --threads values)
//   csq_cli stability [--points N]
//
// Workload flags: --rho-s X --rho-l X --mean-s X --mean-l X --scv-l X
// (defaults 0.9, 0.5, 1, 1, 1; shorts exponential as in the paper).
//
// Global flags: --json-errors (emit structured diagnostics as JSON on
// stdout), --metrics[=file] (flat JSON dump of the obs counters after the
// command; stdout without a file), --trace=file (record solver-stage spans
// and write Chrome trace-event JSON — load in chrome://tracing; see
// docs/observability.md), --verify none|basic|full (self-check level for
// analytic results),
// --timeout-ms X (wall-clock RunBudget for the command; exceeded deadlines
// exit 7 unless --resilient degrades to a cheaper answer first), --fault
// site:count:kind[,site:count:kind...] (arm deterministic fault-injection
// sites; requires a -DCSQ_FAULT_INJECTION=ON build, see core/faultpoint.h).
//
// Exit codes follow the error taxonomy: 0 ok, 1 internal error, 2 invalid
// input, 3 unstable (outside the stability region), 4 solver not converged,
// 5 ill-conditioned system, 6 result failed self-verification, 7 deadline
// exceeded, 8 cancelled, 10 corrupt durability artifact.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "csq.h"
#include "core/numeric.h"

namespace {

using namespace csq;

// Bounds for integer flags. kMaxExact is 2^53, the largest range in which
// every integer is exactly representable as the double the flag parses to.
constexpr int kMaxCount = 1 << 30;
constexpr std::int64_t kMaxExact = std::int64_t{1} << 53;
constexpr int kMaxThreads = 256;  // matches csq_serve --op-threads

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    // The whole value must parse: "0.9abc" is not 0.9.
    try {
      std::size_t used = 0;
      const double v = std::stod(it->second, &used);
      if (used == it->second.size()) return v;
    } catch (const std::exception&) {
      // No number at all, or out of range: reported below.
    }
    throw InvalidInputError("invalid number for --" + key + ": '" + it->second + "'");
  }
  // Integer flag: the parsed number must be whole and inside [lo, hi]
  // before it is cast, so NaN, fractions and out-of-range values exit 2
  // instead of being truncated, clamped or cast with undefined behaviour.
  template <typename T>
  [[nodiscard]] T integer(const std::string& key, T fallback, T lo, T hi) const {
    if (!has(key)) return fallback;
    const double v = number(key, 0.0);
    if (!(v >= static_cast<double>(lo) && v <= static_cast<double>(hi)) ||
        !num::exactly_eq(std::trunc(v), v))
      throw InvalidInputError("--" + key + " must be an integer in [" + std::to_string(lo) +
                              ", " + std::to_string(hi) + "], got '" + flags.at(key) + "'");
    return static_cast<T>(v);
  }
  [[nodiscard]] std::string text(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const { return flags.count(key) > 0; }
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) return a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw InvalidInputError("expected --flag, got " + key);
    key = key.substr(2);
    if (key.empty() || key[0] == '=')
      throw InvalidInputError("malformed flag \"" + std::string(argv[i]) +
                              "\": empty flag name");
    // --key=value binds tighter than the next-token form, so values that
    // start with "--" (or look like flags) stay expressible.
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      if (eq + 1 == key.size())
        throw InvalidInputError("malformed flag \"" + std::string(argv[i]) +
                                "\": empty value (drop the '=' for a boolean flag)");
      a.flags[key.substr(0, eq)] = key.substr(eq + 1);
      continue;
    }
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a.flags[key] = argv[++i];
    } else {
      a.flags[key] = "1";  // boolean flag
    }
  }
  return a;
}

SystemConfig workload(const Args& a) {
  return SystemConfig::paper_setup(a.number("rho-s", 0.9), a.number("rho-l", 0.5),
                                   a.number("mean-s", 1.0), a.number("mean-l", 1.0),
                                   a.number("scv-l", 1.0));
}

VerifyLevel verify_level(const Args& a) {
  const std::string v = a.text("verify", "basic");
  if (v == "none") return VerifyLevel::kNone;
  if (v == "basic") return VerifyLevel::kBasic;
  if (v == "full") return VerifyLevel::kFull;
  throw InvalidInputError("unknown --verify level: " + v + " (want none|basic|full)");
}

// The command's RunBudget: inert without --timeout-ms.
RunBudget run_budget(const Args& a) {
  if (!a.has("timeout-ms")) return {};
  return RunBudget::with_timeout_ms(a.number("timeout-ms", 0.0));
}

void print_metrics(const PolicyMetrics& m) {
  Table t({"class", "E[T]", "E[W]", "E[N]"});
  t.add_row({"short", format_cell(m.shorts.mean_response), format_cell(m.shorts.mean_wait),
             format_cell(m.shorts.mean_number)});
  t.add_row({"long", format_cell(m.longs.mean_response), format_cell(m.longs.mean_wait),
             format_cell(m.longs.mean_number)});
  t.print(std::cout);
}

int cmd_analyze(const Args& a) {
  const SystemConfig c = workload(a);
  const std::string p = a.text("policy", "cscq");
  const VerifyLevel verify = verify_level(a);
  const RunBudget budget = run_budget(a);
  if (a.has("resilient")) {
    if (p != "cscq") {
      std::cerr << "--resilient applies to --policy cscq only\n";
      return 2;
    }
    analysis::ResilientOptions opts;
    opts.budget = budget;
    opts.verify = verify;
    const analysis::ResilientResult r = analysis::analyze_resilient(c, opts);
    print_metrics(r.metrics);
    std::cout << "rung: " << analysis::rung_name(r.rung_used);
    if (r.rung_used == analysis::Rung::kTruncated)
      std::cout << " (caps " << r.truncation_cap << ", stranded mass "
                << format_cell(r.truncation_mass) << ")";
    if (r.rung_used == analysis::Rung::kSimulation)
      std::cout << " (" << r.replications_used << " replications, ci95 short "
                << format_cell(r.ci_half_width_short) << ", long "
                << format_cell(r.ci_half_width_long) << ")";
    std::cout << "\n";
    for (const analysis::RungAttempt& at : r.attempts)
      if (!at.succeeded)
        std::cout << "  " << analysis::rung_name(at.rung) << ": "
                  << error_code_name(at.status.code) << " — " << at.status.message << "\n";
    return 0;
  }
  PolicyMetrics m;
  if (p == "cscq") {
    m = analyze(Policy::kCsCq, c, /*busy_period_moments=*/3, verify, budget);
  } else if (p == "csid") {
    m = analyze(Policy::kCsId, c, /*busy_period_moments=*/3, verify, budget);
  } else if (p == "dedicated") {
    m = analyze(Policy::kDedicated, c, /*busy_period_moments=*/3, verify, budget);
  } else {
    std::cerr << "unknown analytic policy: " << p << "\n";
    return 2;
  }
  print_metrics(m);
  return 0;
}

// Per-policy knobs shared by simulate and the sweep panel.
PolicyConfig policy_knobs(const Args& a) {
  PolicyConfig cfg;
  cfg.steal_threshold = a.integer("steal-threshold", cfg.steal_threshold, 0, kMaxCount);
  cfg.steal_batch = a.integer("steal-batch", cfg.steal_batch, 0, kMaxCount);
  cfg.share_threshold = a.integer("share-threshold", cfg.share_threshold, 0, kMaxCount);
  return cfg;
}

// Workload honoring --dist (long-size family); plain --scv-l workload
// otherwise, so existing invocations are unchanged.
SystemConfig sim_workload(const Args& a) {
  if (!a.has("dist")) return workload(a);
  return panel_workload(job_size_dist_from_name(a.text("dist", "exp")),
                        a.number("rho-s", 0.9), a.number("rho-l", 0.5),
                        a.number("mean-s", 1.0), a.number("mean-l", 1.0),
                        a.number("scv-l", 1.0));
}

int cmd_simulate(const Args& a) {
  // Policy tokens resolve through the registry — one source of names for
  // the CLI, serve layer and sweep panel (csq::InvalidInputError exits 2
  // and lists the valid tokens).
  const sim::PolicyKind kind = sim::policy_kind_from_token(a.text("policy", "cscq"));
  sim::SimOptions o;
  o.total_completions = a.integer<std::size_t>("completions", 500000, 1, kMaxExact);
  o.seed = a.integer<std::uint64_t>("seed", o.seed, 0, kMaxExact);
  o.tags_cutoff = a.number("tags-cutoff", o.tags_cutoff);
  o.policy = policy_knobs(a);
  Table t({"class", "E[T]", "ci95", "completions"});
  const int reps = a.integer("reps", 1, 1, kMaxCount);
  if (reps > 1 || a.has("target-ci")) {
    // Independent replications with deterministic per-replication substreams:
    // results are identical for any --threads value (except the adaptive
    // replication *count* under --timeout-ms; see sim::ReplicationOptions).
    sim::ReplicationOptions ropts;
    ropts.replications = reps;
    ropts.threads = a.integer("threads", 1, 0, kMaxThreads);
    ropts.budget = run_budget(a);
    ropts.target_rel_ci = a.number("target-ci", 0.0);
    ropts.max_replications =
        a.integer("max-reps", std::max(ropts.max_replications, reps), 1, kMaxCount);
    const sim::ReplicatedResult r = sim::simulate_replications(kind, sim_workload(a), o, ropts);
    t.add_row({"short", format_cell(r.shorts.mean_response), format_cell(r.shorts.ci95),
               std::to_string(r.shorts.completions)});
    t.add_row({"long", format_cell(r.longs.mean_response), format_cell(r.longs.ci95),
               std::to_string(r.longs.completions)});
  } else {
    const sim::SimResult r = sim::simulate(kind, sim_workload(a), o);
    t.add_row({"short", format_cell(r.shorts.mean_response), format_cell(r.shorts.ci95),
               std::to_string(r.shorts.completions)});
    t.add_row({"long", format_cell(r.longs.mean_response), format_cell(r.longs.ci95),
               std::to_string(r.longs.completions)});
  }
  t.print(std::cout);
  return 0;
}

// JSON numbers rendered with round-trip precision: the acceptance contract
// is byte-identical --json output across thread counts, so every double is
// printed at %.17g (NaN columns become null — JSON has no NaN).
std::string json_number(double v) {
  if (std::isnan(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// sweep --policy a,b,... [--dist exp|coxian|bpareto]: the policy x
// job-size-distribution x load panel. Analytic policies (cscq/csid/
// dedicated) evaluate exactly; the rest run replicated simulation. Rows are
// policy-major and bit-identical for every --threads value.
int cmd_sweep_panel(const Args& a) {
  std::vector<sim::PolicyKind> kinds;
  const std::string spec = a.text("policy", "");
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string one =
        spec.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!one.empty()) kinds.push_back(sim::policy_kind_from_token(one));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (kinds.empty()) {
    std::cerr << "sweep --policy needs a comma-separated policy list\n";
    return 2;
  }
  const JobSizeDist dist = job_size_dist_from_name(a.text("dist", "exp"));
  const auto grid = linspace(a.number("from", 0.1), a.number("to", 1.3),
                             a.integer("points", 7, 1, kMaxCount));
  PanelOptions opts;
  opts.threads = a.integer("threads", 1, 0, kMaxThreads);
  opts.seed = a.integer<std::uint64_t>("seed", opts.seed, 0, kMaxExact);
  opts.sim_completions =
      a.integer<std::size_t>("completions", opts.sim_completions, 1, kMaxExact);
  opts.sim_replications = a.integer("reps", opts.sim_replications, 1, kMaxCount);
  opts.policy = policy_knobs(a);
  opts.budget = run_budget(a);
  const std::vector<PanelRow> rows = sweep_policy_panel(
      kinds, dist, a.number("rho-l", 0.5), a.number("mean-s", 1.0),
      a.number("mean-l", 1.0), a.number("scv-l", 4.0), grid, opts);
  if (a.has("json")) {
    std::cout << "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const PanelRow& r = rows[i];
      std::cout << (i == 0 ? "" : ",") << "\n  {\"policy\":\"" << sim::policy_token(r.policy)
                << "\",\"dist\":\"" << job_size_dist_name(r.dist)
                << "\",\"rho_s\":" << json_number(r.rho_short)
                << ",\"rho_l\":" << json_number(r.rho_long)
                << ",\"short_response\":" << json_number(r.short_response)
                << ",\"short_ci95\":" << json_number(r.short_ci95)
                << ",\"long_response\":" << json_number(r.long_response)
                << ",\"long_ci95\":" << json_number(r.long_ci95) << ",\"status\":\""
                << point_status_name(r.status) << "\",\"analytic\":"
                << (r.analytic ? "true" : "false") << "}";
    }
    std::cout << "\n]\n";
    return 0;
  }
  Table t({"policy", "dist", "rho_s", "short_T", "short_ci95", "long_T", "long_ci95",
           "status", "analytic"});
  for (const PanelRow& r : rows)
    t.add_row({sim::policy_token(r.policy), job_size_dist_name(r.dist),
               format_cell(r.rho_short), format_cell(r.short_response),
               format_cell(r.short_ci95), format_cell(r.long_response),
               format_cell(r.long_ci95), point_status_name(r.status),
               r.analytic ? "yes" : "no"});
  if (a.has("csv"))
    t.write_csv(std::cout);
  else
    t.print(std::cout);
  return 0;
}

int cmd_sweep(const Args& a) {
  if (a.has("policy") || a.has("dist")) return cmd_sweep_panel(a);
  const std::string axis = a.text("x", "rho_s");
  const auto grid =
      linspace(a.number("from", 0.05), a.number("to", 1.45),
               a.integer("points", 15, 1, kMaxCount));
  // Points evaluate on the worker pool; rows are bit-identical for
  // any --threads value (0 = all hardware threads).
  SweepOptions opts;
  opts.threads = a.integer("threads", 1, 0, kMaxThreads);
  opts.budget = run_budget(a);
  opts.resilient = a.has("resilient");
  const std::string checkpoint = a.text("checkpoint", "");
  std::vector<SweepRow> rows;
  if (axis != "rho_s" && axis != "rho_l") {
    std::cerr << "unknown sweep axis: " << axis << "\n";
    return 2;
  }
  if (!checkpoint.empty()) {
    // Checkpointed path: identical stdout rows, crash-resumable. Progress
    // notes go to stderr so --csv output stays machine-readable.
    durable::CheckpointedSweepOptions copts;
    copts.sweep = opts;
    copts.every = a.integer("checkpoint-every", copts.every, 1, kMaxCount);
    const durable::CheckpointedSweepResult r =
        axis == "rho_s"
            ? durable::checkpointed_sweep_rho_short(
                  checkpoint, a.number("rho-l", 0.5), a.number("mean-s", 1.0),
                  a.number("mean-l", 1.0), a.number("scv-l", 1.0), grid, copts)
            : durable::checkpointed_sweep_rho_long(
                  checkpoint, a.number("rho-s", 0.9), a.number("mean-s", 1.0),
                  a.number("mean-l", 1.0), a.number("scv-l", 1.0), grid, copts);
    if (r.resumed > 0)
      std::cerr << "sweep: resumed " << r.resumed << " row(s) from " << checkpoint
                << ", evaluated " << r.evaluated << "\n";
    if (r.incomplete > 0)
      std::cerr << "sweep: " << r.incomplete
                << " row(s) still timed out — rerun with the same --checkpoint to finish\n";
    rows = r.rows;
  } else if (axis == "rho_s") {
    rows = sweep_rho_short(a.number("rho-l", 0.5), a.number("mean-s", 1.0),
                           a.number("mean-l", 1.0), a.number("scv-l", 1.0), grid, opts);
  } else {
    rows = sweep_rho_long(a.number("rho-s", 0.9), a.number("mean-s", 1.0),
                          a.number("mean-l", 1.0), a.number("scv-l", 1.0), grid, opts);
  }
  Table t({axis, "ded_short", "csid_short", "cscq_short", "ded_long", "csid_long",
           "cscq_long", "ded_status", "csid_status", "cscq_status"});
  for (const SweepRow& r : rows)
    t.add_row({format_cell(r.x), format_cell(r.dedicated_short), format_cell(r.csid_short),
               format_cell(r.cscq_short), format_cell(r.dedicated_long),
               format_cell(r.csid_long), format_cell(r.cscq_long),
               point_status_name(r.dedicated_status), point_status_name(r.csid_status),
               point_status_name(r.cscq_status)});
  if (a.has("csv"))
    t.write_csv(std::cout);
  else
    t.print(std::cout);
  return 0;
}

int cmd_stability(const Args& a) {
  const int points = a.integer("points", 20, 1, kMaxCount);
  Table t({"rho_l", "dedicated", "csid", "cscq"});
  for (const double rho_l : linspace(0.0, 0.95, points))
    t.add_row({rho_l, analysis::dedicated_max_rho_short(rho_l),
               analysis::csid_max_rho_short(rho_l), analysis::cscq_max_rho_short(rho_l)});
  if (a.has("csv"))
    t.write_csv(std::cout);
  else
    t.print(std::cout);
  return 0;
}

void usage() {
  std::cout <<
      "csq_cli — cycle-stealing task assignment (ICDCS'03 reproduction)\n"
      "usage: csq_cli <analyze|simulate|sweep|stability> [--flags]\n"
      "  workload: --rho-s X --rho-l X --mean-s X --mean-l X --scv-l X\n"
      "  analyze:  --policy cscq|csid|dedicated [--verify none|basic|full]\n"
      "            [--resilient] (cscq: exact->truncated->simulation ladder)\n"
      "  simulate: --policy <registry token; docs/policies.md lists them>\n"
      "                     [--dist exp|coxian|bpareto] [--completions N]\n"
      "                     [--seed N] [--tags-cutoff X] [--steal-threshold N]\n"
      "                     [--steal-batch N] [--share-threshold N] [--reps N]\n"
      "                     [--target-ci X] [--max-reps N]\n"
      "  sweep:    --x rho_s|rho_l --from A --to B --points N [--csv]\n"
      "            [--resilient] [--checkpoint FILE [--checkpoint-every N]]\n"
      "            (--checkpoint: crash-resumable; rerun with the same flags\n"
      "             and file to resume — output rows are byte-identical)\n"
      "  sweep:    --policy a,b,... [--dist exp|coxian|bpareto] [--csv|--json]\n"
      "            [--from A --to B --points N] [--reps N] [--completions N]\n"
      "            (policy panel: analysis where available, replicated\n"
      "             simulation elsewhere; bit-identical across --threads)\n"
      "  stability: [--points N] [--csv]\n"
      "  global:   --json-errors (structured error JSON on stdout)\n"
      "            --metrics[=file] (obs counter dump; docs/observability.md)\n"
      "            --trace=file (Chrome trace-event JSON of solver spans)\n"
      "            --timeout-ms X (wall-clock budget; deadline exit = 7)\n"
      "            --fault site:count:kind[,...] (needs CSQ_FAULT_INJECTION)\n"
      "exit codes: 0 ok, 1 internal, 2 invalid input, 3 unstable,\n"
      "            4 not converged, 5 ill-conditioned, 6 verification failed,\n"
      "            7 deadline exceeded, 8 cancelled, 9 overloaded (csq_serve),\n"
      "            10 corrupt journal/checkpoint\n";
}

// Exit code per taxonomy code (documented in usage()).
int exit_code(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return 0;
    case ErrorCode::kInvalidInput: return 2;
    case ErrorCode::kUnstable: return 3;
    case ErrorCode::kNotConverged: return 4;
    case ErrorCode::kIllConditioned: return 5;
    case ErrorCode::kVerificationFailed: return 6;
    case ErrorCode::kDeadlineExceeded: return 7;
    case ErrorCode::kCancelled: return 8;
    case ErrorCode::kOverloaded: return 9;
    case ErrorCode::kCorruptJournal: return 10;
    case ErrorCode::kInternal: return 1;
  }
  return 1;
}

int report_error(const SolverStatus& status, bool json) {
  if (json) {
    std::cout << status.to_json() << "\n";
  } else {
    std::cerr << "error [" << error_code_name(status.code) << "]: " << status.message
              << "\n";
    const std::string diag = status.diagnostics.to_json();
    if (diag != "{}") std::cerr << "diagnostics: " << diag << "\n";
  }
  return exit_code(status.code);
}

[[nodiscard]] bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) return false;
  out << content;
  return out.good();
}

// --metrics[=file] and --trace=file run after the command (even a failed
// one: a trace of the run that errored is exactly the interesting trace).
// Returns 0, or exit code 2 when a requested file cannot be written.
int write_observability(const Args& a) {
  int rc = 0;
  if (a.has("metrics")) {
    const std::string dest = a.text("metrics", "1");
    const std::string json = obs::Registry::instance().metrics_json();
    if (dest == "1") {
      std::cout << json;
    } else if (!write_file(dest, json)) {
      std::cerr << "error: cannot write metrics file '" << dest << "'\n";
      rc = 2;
    }
  }
  if (a.has("trace")) {
    const std::string dest = a.text("trace", "1");
    if (dest == "1") {
      std::cerr << "error: --trace needs a file name (--trace=out.json)\n";
      rc = 2;
    } else if (!write_file(dest, obs::chrome_trace_json())) {
      std::cerr << "error: cannot write trace file '" << dest << "'\n";
      rc = 2;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const bool json_errors = a.has("json-errors");
  // Switch tracing on before dispatch so every solver-stage span records.
  if (a.has("trace")) obs::set_tracing(true);
  int rc = 0;
  try {
    if (a.has("fault")) {
      // Arm before dispatch so every command can be chaos-tested. Rejected
      // with InvalidInputError when fault injection is not compiled in.
      std::string specs = a.text("fault", "");
      std::size_t start = 0;
      while (start <= specs.size()) {
        const std::size_t comma = specs.find(',', start);
        const std::string one =
            specs.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!one.empty()) fault::arm(fault::parse_arm_spec(one));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
    const auto dispatch = [&]() -> int {
      if (a.command == "analyze") return cmd_analyze(a);
      if (a.command == "simulate") return cmd_simulate(a);
      if (a.command == "sweep") return cmd_sweep(a);
      if (a.command == "stability") return cmd_stability(a);
      usage();
      return a.command.empty() ? 1 : 2;
    };
    rc = dispatch();
  } catch (const Error& e) {
    rc = report_error(e.status(), json_errors);
  } catch (const std::exception& e) {
    rc = report_error(status_from_exception(e), json_errors);
  }
  const int obs_rc = write_observability(a);
  return rc != 0 ? rc : obs_rc;
}
