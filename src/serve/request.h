// Request parsing and response serialization for the csq_serve protocol.
//
// The wire format is newline-delimited JSON (NDJSON): one request object per
// line in, one response object per line out. The full schema is documented
// in docs/serving.md; the shape in brief:
//
//   {"id":"r1","op":"analyze","policy":"cscq","rho_s":0.9,"rho_l":0.5}
//   {"id":"r2","op":"sweep","axis":"rho_s","from":0.1,"to":1.3,"points":25,
//    "rho_l":0.5}
//   {"id":"r3","op":"simulate","rho_s":0.9,"rho_l":0.5,"completions":20000,
//    "replications":4,"seed":1,"sim_policy":"steal-half","dist":"bpareto"}
//   {"id":"r4","op":"ping"}
//
// Parsing is strict: unknown top-level fields, wrong-kind values and
// out-of-range parameters all raise InvalidInput — a central queue that
// guesses what a malformed request meant is a central queue that melts down
// politely. Responses are built by the helpers below and are deliberately
// free of timestamps and elapsed times so a response depends only on the
// request content (the soak suite asserts bit-identical responses across
// server thread counts).
//
// Throws csq::InvalidInputError (malformed or out-of-range requests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/solver.h"
#include "core/status.h"
#include "core/sweep.h"

namespace csq::serve {

enum class OpKind { kPing, kAnalyze, kSweep, kSimulate };

// "ping", "analyze", "sweep", "simulate".
[[nodiscard]] const char* op_name(OpKind op);

// Sweep axis: vary rho_S at fixed rho_L, or the reverse.
enum class SweepAxis { kRhoShort, kRhoLong };

// One parsed request. Field defaults are the protocol defaults; a Request
// produced by parse_request() has already passed range validation.
struct Request {
  std::string id;  // echoed verbatim in the response ("" when absent)
  OpKind op = OpKind::kPing;

  // Workload (analyze/simulate; sweep uses the fixed-axis subset).
  Policy policy = Policy::kCsCq;
  double rho_s = 0.0;
  double rho_l = 0.0;
  double mean_s = 1.0;
  double mean_l = 1.0;
  double scv_l = 1.0;
  VerifyLevel verify = VerifyLevel::kBasic;

  // Per-request deadline in ms; < 0 means "server default". 0 is honoured
  // as an already-expired budget (useful for deadline testing).
  double timeout_ms = -1.0;

  // analyze only: run the degradation ladder directly instead of the exact
  // analysis (the server also escalates to the ladder on its own after the
  // retry budget is spent).
  bool resilient = false;

  // sweep only.
  SweepAxis axis = SweepAxis::kRhoShort;
  double from = 0.0;
  double to = 0.0;
  int points = 0;

  // simulate only.
  std::uint64_t seed = 20030701;
  int completions = 20000;
  int replications = 4;
  // Optional "sim_policy": any sim::policy_registry() token ("steal-half",
  // "jiq", ...), overriding the analytic-policy mapping — this is how the
  // policy zoo is served. Empty = derive from `policy` (legacy behaviour).
  std::string sim_policy;
  // Optional "dist": long-size family name ("exp"|"coxian"|"bpareto",
  // csq::job_size_dist_from_name). Empty = the paper_setup workload shaped
  // by scv_l alone (legacy behaviour).
  std::string dist;

  // Admission-control weight in abstract cost units: an analyze is 1, a
  // sweep costs its point count, a simulation scales with total simulated
  // completions. Used against ServerOptions::max_inflight_cost.
  [[nodiscard]] double cost() const;

  // The workload as a SystemConfig (paper_setup shape: exponential shorts,
  // exponential or two-moment-Coxian longs).
  [[nodiscard]] SystemConfig config() const;

  // Memo-cache identity: canonical_key(config()) extended with the policy
  // and verify level. Only meaningful for op == kAnalyze.
  [[nodiscard]] std::string cache_key() const;
};

// Parse one NDJSON request line. Throws csq::InvalidInputError naming the
// offending field on any schema violation.
[[nodiscard]] Request parse_request(const std::string& line);

// Extra response annotations accumulated by the server while executing a
// request: degradation rung, attempt trail.
struct ResponseExtras {
  bool degraded = false;      // answer came from a fallback rung
  std::string rung;           // rung_name() of the rung that held (degraded)
  std::vector<std::string> attempts;  // human-readable attempt/ladder trail
};

// {"id":...,"ok":true,"op":...,"result":<result_json>} plus any extras.
// `result_json` must already be a serialized JSON value.
[[nodiscard]] std::string ok_response(const Request& req, const std::string& result_json,
                                      const ResponseExtras& extras = {});

// {"id":...,"ok":false,"error":{"code":...,"message":...}}; retry_after_ms
// is emitted when >= 0 (Overloaded responses).
[[nodiscard]] std::string error_response(const std::string& id, ErrorCode code,
                                         const std::string& message,
                                         double retry_after_ms = -1.0);

// Result payload builders (serialized JSON values for ok_response).
[[nodiscard]] std::string metrics_json(const PolicyMetrics& m);
[[nodiscard]] std::string sweep_json(const std::vector<SweepRow>& rows);
[[nodiscard]] std::string simulate_json(const ClassMetrics& shorts, double ci_short,
                                        const ClassMetrics& longs, double ci_long,
                                        int replications);

}  // namespace csq::serve
