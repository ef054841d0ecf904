#include "core/status.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/check.h"

namespace csq {

namespace {

// Compact numeric formatting for JSON (shortest round-trippable-ish form).
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "Ok";
    case ErrorCode::kInvalidInput: return "InvalidInput";
    case ErrorCode::kUnstable: return "Unstable";
    case ErrorCode::kNotConverged: return "NotConverged";
    case ErrorCode::kIllConditioned: return "IllConditioned";
    case ErrorCode::kVerificationFailed: return "VerificationFailed";
    case ErrorCode::kInternal: return "Internal";
    case ErrorCode::kDeadlineExceeded: return "DeadlineExceeded";
    case ErrorCode::kCancelled: return "Cancelled";
    case ErrorCode::kOverloaded: return "Overloaded";
    case ErrorCode::kCorruptJournal: return "CorruptJournal";
  }
  return "?";
}

const char* error_class_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "";
    case ErrorCode::kInvalidInput: return "InvalidInputError";
    case ErrorCode::kUnstable: return "UnstableError";
    case ErrorCode::kNotConverged: return "NotConvergedError";
    case ErrorCode::kIllConditioned: return "IllConditionedError";
    case ErrorCode::kVerificationFailed: return "VerificationFailedError";
    case ErrorCode::kInternal: return "InternalError";
    case ErrorCode::kDeadlineExceeded: return "DeadlineExceededError";
    case ErrorCode::kCancelled: return "CancelledError";
    case ErrorCode::kOverloaded: return "OverloadedError";
    case ErrorCode::kCorruptJournal: return "CorruptJournalError";
  }
  return "?";
}

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

Diagnostics Diagnostics::loads(double rho_short, double rho_long) {
  Diagnostics d;
  d.rho_short = rho_short;
  d.rho_long = rho_long;
  return d;
}

std::string Diagnostics::to_json() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  const auto field = [&](const char* key, const std::string& value, bool quoted) {
    if (!first) os << ',';
    first = false;
    os << '"' << key << "\":";
    if (quoted)
      os << '"' << escape(value) << '"';
    else
      os << value;
  };
  if (iterations >= 0) field("iterations", std::to_string(iterations), false);
  if (has(residual)) field("residual", fmt(residual), false);
  if (has(condition_estimate)) field("condition_estimate", fmt(condition_estimate), false);
  if (has(rho_short)) field("rho_short", fmt(rho_short), false);
  if (has(rho_long)) field("rho_long", fmt(rho_long), false);
  if (has(tolerance)) field("tolerance", fmt(tolerance), false);
  if (has(budget_ms)) field("budget_ms", fmt(budget_ms), false);
  if (has(elapsed_ms)) field("elapsed_ms", fmt(elapsed_ms), false);
  if (!stage.empty()) field("stage", stage, true);
  if (!notes.empty()) {
    if (!first) os << ',';
    first = false;
    os << "\"notes\":[";
    for (std::size_t i = 0; i < notes.size(); ++i) {
      if (i > 0) os << ',';
      os << '"' << escape(notes[i]) << '"';
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

std::string SolverStatus::to_json() const {
  if (ok()) return "{\"ok\":true}";
  std::ostringstream os;
  os << "{\"error\":{\"code\":\"" << error_code_name(code) << "\",\"error_class\":\""
     << error_class_name(code) << "\",\"message\":\"" << escape(message)
     << "\",\"diagnostics\":" << diagnostics.to_json() << "}}";
  return os.str();
}

Error::Error(ErrorCode code, const std::string& message, Diagnostics diagnostics)
    : status_{code, message, std::move(diagnostics)} {}

InvalidInputError::InvalidInputError(const std::string& message, Diagnostics diagnostics)
    : std::invalid_argument(message),
      Error(ErrorCode::kInvalidInput, message, std::move(diagnostics)) {}

UnstableError::UnstableError(const std::string& message, Diagnostics diagnostics)
    : std::domain_error(message), Error(ErrorCode::kUnstable, message, std::move(diagnostics)) {}

NotConvergedError::NotConvergedError(const std::string& message, Diagnostics diagnostics)
    : std::domain_error(message),
      Error(ErrorCode::kNotConverged, message, std::move(diagnostics)) {}

IllConditionedError::IllConditionedError(const std::string& message, Diagnostics diagnostics)
    : std::domain_error(message),
      Error(ErrorCode::kIllConditioned, message, std::move(diagnostics)) {}

VerificationFailedError::VerificationFailedError(const std::string& message,
                                                 Diagnostics diagnostics)
    : std::runtime_error(message),
      Error(ErrorCode::kVerificationFailed, message, std::move(diagnostics)) {}

InternalError::InternalError(const std::string& message, Diagnostics diagnostics)
    : std::logic_error(message), Error(ErrorCode::kInternal, message, std::move(diagnostics)) {}

DeadlineExceededError::DeadlineExceededError(const std::string& message, Diagnostics diagnostics)
    : std::runtime_error(message),
      Error(ErrorCode::kDeadlineExceeded, message, std::move(diagnostics)) {}

CancelledError::CancelledError(const std::string& message, Diagnostics diagnostics)
    : std::runtime_error(message), Error(ErrorCode::kCancelled, message, std::move(diagnostics)) {}

OverloadedError::OverloadedError(const std::string& message, Diagnostics diagnostics)
    : std::runtime_error(message),
      Error(ErrorCode::kOverloaded, message, std::move(diagnostics)) {}

CorruptJournalError::CorruptJournalError(const std::string& message, Diagnostics diagnostics)
    : std::runtime_error(message),
      Error(ErrorCode::kCorruptJournal, message, std::move(diagnostics)) {}

void throw_error(ErrorCode code, const std::string& message, Diagnostics diagnostics) {
  switch (code) {
    case ErrorCode::kInvalidInput: throw InvalidInputError(message, std::move(diagnostics));
    case ErrorCode::kUnstable: throw UnstableError(message, std::move(diagnostics));
    case ErrorCode::kNotConverged: throw NotConvergedError(message, std::move(diagnostics));
    case ErrorCode::kIllConditioned:
      throw IllConditionedError(message, std::move(diagnostics));
    case ErrorCode::kVerificationFailed:
      throw VerificationFailedError(message, std::move(diagnostics));
    case ErrorCode::kDeadlineExceeded:
      throw DeadlineExceededError(message, std::move(diagnostics));
    case ErrorCode::kCancelled: throw CancelledError(message, std::move(diagnostics));
    case ErrorCode::kOverloaded: throw OverloadedError(message, std::move(diagnostics));
    case ErrorCode::kCorruptJournal:
      throw CorruptJournalError(message, std::move(diagnostics));
    case ErrorCode::kOk:
    case ErrorCode::kInternal: break;
  }
  throw InternalError(message, std::move(diagnostics));
}

namespace detail {
void assert_fail(const char* expr, const char* file, int line) {
  throw InternalError(std::string(file) + ":" + std::to_string(line) + ": CSQ_ASSERT(" +
                      expr + ") failed");
}
}  // namespace detail

SolverStatus status_from_exception(const std::exception& e) {
  if (const auto* err = dynamic_cast<const Error*>(&e)) return err->status();
  SolverStatus s;
  s.message = e.what();
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr)
    s.code = ErrorCode::kInvalidInput;
  else if (dynamic_cast<const std::domain_error*>(&e) != nullptr)
    s.code = ErrorCode::kUnstable;
  else
    s.code = ErrorCode::kInternal;
  return s;
}

}  // namespace csq
