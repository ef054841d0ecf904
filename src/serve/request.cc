#include "serve/request.h"

#include <cmath>
#include <set>
#include <utility>

#include "core/numeric.h"
#include "serve/json.h"
#include "sim/simulator.h"

namespace csq::serve {

const char* op_name(OpKind op) {
  switch (op) {
    case OpKind::kPing: return "ping";
    case OpKind::kAnalyze: return "analyze";
    case OpKind::kSweep: return "sweep";
    case OpKind::kSimulate: return "simulate";
  }
  return "?";
}

namespace {

// Fields every op accepts, plus the per-op extensions. Unknown fields are
// rejected outright: a typoed "rho_i" silently defaulting to 0 would return
// a confidently wrong answer.
const std::set<std::string>& allowed_fields(OpKind op) {
  static const std::set<std::string> ping = {"id", "op"};
  static const std::set<std::string> analyze = {
      "id", "op", "policy", "rho_s", "rho_l", "mean_s", "mean_l",
      "scv_l", "verify", "timeout_ms", "resilient"};
  static const std::set<std::string> sweep = {
      "id", "op", "policy", "axis", "from", "to", "points", "rho_s",
      "rho_l", "mean_s", "mean_l", "scv_l", "timeout_ms"};
  static const std::set<std::string> simulate = {
      "id", "op", "policy", "rho_s", "rho_l", "mean_s", "mean_l", "scv_l",
      "timeout_ms", "seed", "completions", "replications", "sim_policy", "dist"};
  switch (op) {
    case OpKind::kPing: return ping;
    case OpKind::kAnalyze: return analyze;
    case OpKind::kSweep: return sweep;
    case OpKind::kSimulate: return simulate;
  }
  return ping;
}

double number_field(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? fallback : v->as_number(key);
}

double positive_field(const JsonValue& obj, const char* key, double fallback) {
  const double v = number_field(obj, key, fallback);
  if (!(v > 0.0) || !std::isfinite(v))
    throw InvalidInputError(std::string("field \"") + key + "\" must be a positive number");
  return v;
}

double load_field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr)
    throw InvalidInputError(std::string("missing required field \"") + key + "\"");
  const double load = v->as_number(key);
  if (!std::isfinite(load) || load < 0.0)
    throw InvalidInputError(std::string("field \"") + key +
                            "\" must be a finite nonnegative load");
  return load;
}

int int_field(const JsonValue& obj, const char* key, int fallback, int lo, int hi) {
  const double v = number_field(obj, key, fallback);
  const double rounded = std::floor(v);
  if (!num::exactly_eq(rounded, v) || v < lo || v > hi)
    throw InvalidInputError(std::string("field \"") + key + "\" must be an integer in [" +
                            std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<int>(v);
}

Policy policy_field(const JsonValue& obj) {
  const JsonValue* v = obj.find("policy");
  if (v == nullptr) return Policy::kCsCq;
  const std::string& name = v->as_string("policy");
  if (name == "dedicated") return Policy::kDedicated;
  if (name == "csid") return Policy::kCsId;
  if (name == "cscq") return Policy::kCsCq;
  throw InvalidInputError("field \"policy\" must be one of dedicated|csid|cscq, got \"" +
                          name + "\"");
}

VerifyLevel verify_field(const JsonValue& obj) {
  const JsonValue* v = obj.find("verify");
  if (v == nullptr) return VerifyLevel::kBasic;
  const std::string& name = v->as_string("verify");
  if (name == "none") return VerifyLevel::kNone;
  if (name == "basic") return VerifyLevel::kBasic;
  if (name == "full") return VerifyLevel::kFull;
  throw InvalidInputError("field \"verify\" must be one of none|basic|full, got \"" + name +
                          "\"");
}

const char* verify_name(VerifyLevel v) {
  switch (v) {
    case VerifyLevel::kNone: return "none";
    case VerifyLevel::kBasic: return "basic";
    case VerifyLevel::kFull: return "full";
  }
  return "?";
}

void parse_workload(const JsonValue& obj, Request* req) {
  req->rho_s = load_field(obj, "rho_s");
  req->rho_l = load_field(obj, "rho_l");
  req->mean_s = positive_field(obj, "mean_s", 1.0);
  req->mean_l = positive_field(obj, "mean_l", 1.0);
  req->scv_l = positive_field(obj, "scv_l", 1.0);
  if (req->scv_l < 1.0)
    throw InvalidInputError("field \"scv_l\" must be >= 1 (two-moment Coxian fit)");
}

}  // namespace

Request parse_request(const std::string& line) {
  const JsonValue root = parse_json(line);
  if (!root.is_object()) throw InvalidInputError("request must be a JSON object");

  Request req;
  if (const JsonValue* id = root.find("id"); id != nullptr)
    req.id = id->as_string("id");
  if (req.id.size() > 256) throw InvalidInputError("field \"id\" longer than 256 bytes");

  const JsonValue* opv = root.find("op");
  if (opv == nullptr) throw InvalidInputError("missing required field \"op\"");
  const std::string& op = opv->as_string("op");
  if (op == "ping") req.op = OpKind::kPing;
  else if (op == "analyze") req.op = OpKind::kAnalyze;
  else if (op == "sweep") req.op = OpKind::kSweep;
  else if (op == "simulate") req.op = OpKind::kSimulate;
  else
    throw InvalidInputError("field \"op\" must be one of ping|analyze|sweep|simulate, got \"" +
                            op + "\"");

  const std::set<std::string>& allowed = allowed_fields(req.op);
  for (const std::string& key : root.keys())
    if (allowed.find(key) == allowed.end())
      throw InvalidInputError("unknown field \"" + key + "\" for op \"" + op + "\"");

  req.timeout_ms = number_field(root, "timeout_ms", -1.0);
  if (std::isnan(req.timeout_ms))
    throw InvalidInputError("field \"timeout_ms\" must not be NaN");

  switch (req.op) {
    case OpKind::kPing:
      break;
    case OpKind::kAnalyze: {
      req.policy = policy_field(root);
      req.verify = verify_field(root);
      parse_workload(root, &req);
      if (const JsonValue* r = root.find("resilient"); r != nullptr)
        req.resilient = r->as_bool("resilient");
      if (req.resilient && req.policy != Policy::kCsCq)
        throw InvalidInputError("resilient analysis is only available for policy \"cscq\"");
      break;
    }
    case OpKind::kSweep: {
      req.policy = policy_field(root);
      if (const JsonValue* a = root.find("axis"); a != nullptr) {
        const std::string& axis = a->as_string("axis");
        if (axis == "rho_s") req.axis = SweepAxis::kRhoShort;
        else if (axis == "rho_l") req.axis = SweepAxis::kRhoLong;
        else
          throw InvalidInputError("field \"axis\" must be rho_s or rho_l, got \"" + axis +
                                  "\"");
      }
      // Only the fixed axis is required; the swept one comes from from/to.
      const char* fixed = req.axis == SweepAxis::kRhoShort ? "rho_l" : "rho_s";
      const double fixed_load = load_field(root, fixed);
      if (req.axis == SweepAxis::kRhoShort) req.rho_l = fixed_load;
      else req.rho_s = fixed_load;
      req.mean_s = positive_field(root, "mean_s", 1.0);
      req.mean_l = positive_field(root, "mean_l", 1.0);
      req.scv_l = positive_field(root, "scv_l", 1.0);
      const JsonValue* from = root.find("from");
      if (from == nullptr) throw InvalidInputError("missing required field \"from\"");
      req.from = from->as_number("from");
      if (!(req.from > 0.0) || !std::isfinite(req.from))
        throw InvalidInputError("field \"from\" must be a positive number");
      const JsonValue* to = root.find("to");
      if (to == nullptr) throw InvalidInputError("missing required field \"to\"");
      req.to = to->as_number("to");
      if (!(req.to >= req.from) || !std::isfinite(req.to))
        throw InvalidInputError("field \"to\" must be a finite number >= \"from\"");
      if (root.find("points") == nullptr)
        throw InvalidInputError("missing required field \"points\"");
      req.points = int_field(root, "points", 0, 1, 512);
      break;
    }
    case OpKind::kSimulate: {
      req.policy = policy_field(root);
      parse_workload(root, &req);
      const double seed = number_field(root, "seed", 20030701.0);
      if (seed < 0 || seed > 9.0e15 ||
          !num::exactly_eq(std::floor(seed), seed))
        throw InvalidInputError("field \"seed\" must be a nonnegative integer");
      req.seed = static_cast<std::uint64_t>(seed);
      req.completions = int_field(root, "completions", 20000, 1000, 2000000);
      req.replications = int_field(root, "replications", 4, 1, 64);
      // Policy-zoo extensions. Both are validated here, at parse time, so a
      // typoed token fails the request (listing the valid tokens) instead of
      // silently defaulting to CS-CQ under exponential longs.
      if (const JsonValue* sp = root.find("sim_policy"); sp != nullptr) {
        req.sim_policy = sp->as_string("sim_policy");
        (void)sim::policy_kind_from_token(req.sim_policy);
      }
      if (const JsonValue* dv = root.find("dist"); dv != nullptr) {
        req.dist = dv->as_string("dist");
        (void)job_size_dist_from_name(req.dist);
      }
      break;
    }
  }
  return req;
}

double Request::cost() const {
  switch (op) {
    case OpKind::kPing: return 0.0;
    case OpKind::kAnalyze: return 1.0;
    case OpKind::kSweep: return static_cast<double>(points);
    case OpKind::kSimulate:
      // One analyze-equivalent per 100k simulated completions per replication.
      return std::max(1.0, static_cast<double>(completions) * replications / 100000.0);
  }
  return 1.0;
}

SystemConfig Request::config() const {
  if (dist.empty()) return SystemConfig::paper_setup(rho_s, rho_l, mean_s, mean_l, scv_l);
  // "dist" selects the long-size family through the same builder as the
  // CLI's --dist flag, so "bpareto" names the identical distribution on
  // both surfaces.
  return panel_workload(job_size_dist_from_name(dist), rho_s, rho_l, mean_s, mean_l,
                        scv_l);
}

std::string Request::cache_key() const {
  return canonical_key(config()) + "|policy=" + policy_label(policy) +
         "|verify=" + verify_name(verify);
}

namespace {

void append_field(std::string* out, const char* key, const std::string& value_json) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  *out += value_json;
}

std::string quoted(const std::string& s) { return "\"" + json_escape(s) + "\""; }

std::string response_prefix(const std::string& id, bool ok) {
  return "{\"id\":" + quoted(id) + ",\"ok\":" + (ok ? "true" : "false");
}

void append_extras(std::string* out, const ResponseExtras& extras) {
  if (extras.retries > 0)
    append_field(out, "retries", std::to_string(extras.retries));
  if (extras.degraded) {
    append_field(out, "degraded", "true");
    append_field(out, "rung", quoted(extras.rung));
  }
  if (!extras.attempts.empty()) {
    std::string trail = "[";
    for (std::size_t i = 0; i < extras.attempts.size(); ++i) {
      if (i > 0) trail += ",";
      trail += quoted(extras.attempts[i]);
    }
    trail += "]";
    append_field(out, "attempts", trail);
  }
}

std::string class_metrics_json(const ClassMetrics& c) {
  return "{\"mean_response\":" + json_number(c.mean_response) +
         ",\"mean_wait\":" + json_number(c.mean_wait) +
         ",\"mean_number\":" + json_number(c.mean_number) + "}";
}

}  // namespace

std::string ok_response(const Request& req, const std::string& result_json,
                        const ResponseExtras& extras) {
  std::string out = response_prefix(req.id, true);
  append_field(&out, "op", quoted(op_name(req.op)));
  append_field(&out, "result", result_json);
  append_extras(&out, extras);
  out += "}";
  return out;
}

std::string error_response(const std::string& id, ErrorCode code, const std::string& message,
                           double retry_after_ms, int retries) {
  std::string out = response_prefix(id, false);
  std::string err = "{\"code\":" + quoted(error_code_name(code)) +
                    ",\"message\":" + quoted(message);
  if (retry_after_ms >= 0.0) err += ",\"retry_after_ms\":" + json_number(retry_after_ms);
  err += "}";
  append_field(&out, "error", err);
  if (retries > 0) append_field(&out, "retries", std::to_string(retries));
  out += "}";
  return out;
}

std::string metrics_json(const PolicyMetrics& m) {
  return "{\"shorts\":" + class_metrics_json(m.shorts) +
         ",\"longs\":" + class_metrics_json(m.longs) + "}";
}

std::string sweep_json(const std::vector<SweepRow>& rows) {
  std::string out = "{\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    if (i > 0) out += ",";
    out += "{\"x\":" + json_number(r.x);
    out += ",\"dedicated_short\":" + json_number(r.dedicated_short);
    out += ",\"csid_short\":" + json_number(r.csid_short);
    out += ",\"cscq_short\":" + json_number(r.cscq_short);
    out += ",\"dedicated_long\":" + json_number(r.dedicated_long);
    out += ",\"csid_long\":" + json_number(r.csid_long);
    out += ",\"cscq_long\":" + json_number(r.cscq_long);
    out += ",\"dedicated_status\":" + quoted(point_status_name(r.dedicated_status));
    out += ",\"csid_status\":" + quoted(point_status_name(r.csid_status));
    out += ",\"cscq_status\":" + quoted(point_status_name(r.cscq_status));
    out += "}";
  }
  out += "]}";
  return out;
}

std::string simulate_json(const ClassMetrics& shorts, double ci_short,
                          const ClassMetrics& longs, double ci_long, int replications) {
  return "{\"shorts\":" + class_metrics_json(shorts) + ",\"ci95_short\":" +
         json_number(ci_short) + ",\"longs\":" + class_metrics_json(longs) +
         ",\"ci95_long\":" + json_number(ci_long) +
         ",\"replications\":" + std::to_string(replications) + "}";
}

}  // namespace csq::serve
