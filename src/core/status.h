// Structured error taxonomy and solver diagnostics.
//
// Every numerical failure in the library is classified by an ErrorCode and
// carries a Diagnostics payload (iteration counts, residuals, condition
// estimates, offered loads) so callers can distinguish "your
// input is outside the stability region" from "the solver gave up" and react
// programmatically — retry with different options, fall back to simulation,
// or report structured errors upstream (csq_cli --json-errors).
//
// The concrete exception types multiply-inherit from the std exception the
// call site historically threw (std::invalid_argument / std::domain_error /
// std::runtime_error) and from csq::Error, so existing `catch
// (std::domain_error&)` code keeps working while new code can `catch (const
// csq::Error& e)` and read e.status().
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace csq {

enum class ErrorCode {
  kOk = 0,
  kInvalidInput,         // malformed model/config (caller bug)
  kUnstable,             // offered load outside the stability region
  kNotConverged,         // iterative solver stopped without a usable answer
  kIllConditioned,       // singular / numerically untrustworthy linear system
  kVerificationFailed,   // a computed solution failed its self-checks
  kInternal,             // anything else (should not happen)
  kDeadlineExceeded,     // a RunBudget wall-clock deadline expired mid-solve
  kCancelled,            // a cooperative CancelToken was triggered
  kOverloaded,           // admission control shed the request (serve layer)
  kCorruptJournal,       // a durability artifact failed its integrity checks
};

// Stable identifier for the code ("Ok", "InvalidInput", ...).
[[nodiscard]] const char* error_code_name(ErrorCode code);

// Name of the exception class that carries the code ("InvalidInputError",
// "UnstableError", ...) — the `error_class` field of csq_cli --json-errors.
[[nodiscard]] const char* error_class_name(ErrorCode code);

// Process exit status for the code, shared by csq_cli, csq_serve and
// csq_lint: 0 ok, 1 internal, 2 invalid input, 3 unstable, 4 not converged,
// 5 ill-conditioned, 6 verification failed, 7 deadline exceeded,
// 8 cancelled, 9 overloaded, 10 corrupt journal.
[[nodiscard]] int exit_code(ErrorCode code);

// How much self-verification analyze()/qbd::solve() run on their results.
//   kNone  — trust the solver.
//   kBasic — mass ≈ 1, no negative probabilities, finite values, and
//            sp(R) < 1 certified by R >= 0 and (I - R)^{-1} 1 >= 1, with
//            1 - sp(R) not finer than the R solve resolves.
//   kFull  — kBasic plus the R-equation residual and moment sanity checks.
enum class VerifyLevel { kNone = 0, kBasic, kFull };

// Context attached to statuses and errors. Fields default to "unset"
// (NaN / -1) and are serialized only when set.
struct Diagnostics {
  long iterations = -1;              // iterations spent by the failing stage
  double residual = kUnset;          // e.g. ‖A0 + R A1 + R² A2‖_max
  double condition_estimate = kUnset;  // 1-norm condition estimate
  double rho_short = kUnset;
  double rho_long = kUnset;
  double tolerance = kUnset;         // tolerance in force when recorded
  double budget_ms = kUnset;         // RunBudget deadline in force, if any
  double elapsed_ms = kUnset;        // elapsed budget time when recorded
  std::string stage;                 // solver stage ("logarithmic_reduction", ...)
  std::vector<std::string> notes;    // solver / verification trail

  static constexpr double kUnset = -1.0;
  [[nodiscard]] bool has(double field) const { return field >= 0.0; }

  // Convenience for the pervasive "record the offered loads" case.
  [[nodiscard]] static Diagnostics loads(double rho_short, double rho_long);

  // Flat JSON object of the set fields (notes as a string array).
  [[nodiscard]] std::string to_json() const;
};

// Outcome of a solver call or verification pass.
struct SolverStatus {
  ErrorCode code = ErrorCode::kOk;
  std::string message;
  Diagnostics diagnostics;

  [[nodiscard]] bool ok() const { return code == ErrorCode::kOk; }
  // {"ok":true} or {"error":{"code":...,"message":...,"diagnostics":{...}}}.
  [[nodiscard]] std::string to_json() const;
};

// Mixin base for every structured exception. Not derived from
// std::exception — the concrete types inherit their what() from the std
// exception they historically were.
class Error {
 public:
  virtual ~Error() = default;
  [[nodiscard]] ErrorCode code() const { return status_.code; }
  [[nodiscard]] const Diagnostics& diagnostics() const { return status_.diagnostics; }
  [[nodiscard]] const SolverStatus& status() const { return status_; }

 protected:
  Error(ErrorCode code, const std::string& message, Diagnostics diagnostics);

 private:
  SolverStatus status_;
};

class InvalidInputError : public std::invalid_argument, public Error {
 public:
  explicit InvalidInputError(const std::string& message, Diagnostics diagnostics = {});
};

class UnstableError : public std::domain_error, public Error {
 public:
  explicit UnstableError(const std::string& message, Diagnostics diagnostics = {});
};

class NotConvergedError : public std::domain_error, public Error {
 public:
  explicit NotConvergedError(const std::string& message, Diagnostics diagnostics = {});
};

class IllConditionedError : public std::domain_error, public Error {
 public:
  explicit IllConditionedError(const std::string& message, Diagnostics diagnostics = {});
};

class VerificationFailedError : public std::runtime_error, public Error {
 public:
  explicit VerificationFailedError(const std::string& message, Diagnostics diagnostics = {});
};

// A broken internal invariant (CSQ_ASSERT failure, impossible state reached).
// Unlike the other taxonomy types this signals a bug in the library, not a
// property of the input.
class InternalError : public std::logic_error, public Error {
 public:
  explicit InternalError(const std::string& message, Diagnostics diagnostics = {});
};

// A wall-clock RunBudget deadline expired while the solver was still making
// progress. diagnostics carry the budget, elapsed time, and whatever partial
// SolveStats the interrupted stage had accumulated (in stage/notes).
class DeadlineExceededError : public std::runtime_error, public Error {
 public:
  explicit DeadlineExceededError(const std::string& message, Diagnostics diagnostics = {});
};

// A cooperative CancelToken was triggered by the caller; the interrupted
// operation unwound at its next poll point. Not a failure of the input or
// the solver.
class CancelledError : public std::runtime_error, public Error {
 public:
  explicit CancelledError(const std::string& message, Diagnostics diagnostics = {});
};

// Admission control shed the request: the serving tier was at its queue-depth
// or in-flight-cost limit and rejected the work instead of queueing it
// unboundedly (src/serve/). Transient by definition — the caller should back
// off and retry; diagnostics.notes carry a "retry_after_ms=<hint>" entry.
class OverloadedError : public std::runtime_error, public Error {
 public:
  explicit OverloadedError(const std::string& message, Diagnostics diagnostics = {});
};

// A durability artifact (write-ahead journal, sweep checkpoint) failed its
// integrity checks away from the torn tail a crash legitimately leaves: a
// frame whose CRC or framing is broken *mid-file* while valid frames follow
// it. A torn tail is silently discarded by recovery; mid-file corruption
// means the artifact lies about history and must not be trusted
// (src/durable/). diagnostics.stage carries the artifact path, notes the
// byte offset of the bad frame.
class CorruptJournalError : public std::runtime_error, public Error {
 public:
  explicit CorruptJournalError(const std::string& message, Diagnostics diagnostics = {});
};

// Throw the exception type matching `code` (kOk/kInternal -> InternalError).
[[noreturn]] void throw_error(ErrorCode code, const std::string& message,
                              Diagnostics diagnostics = {});

// Classify an exception into a SolverStatus: structured errors keep their
// payload; bare std exceptions are mapped by type (invalid_argument ->
// kInvalidInput, domain_error -> kUnstable, else kInternal).
[[nodiscard]] SolverStatus status_from_exception(const std::exception& e);

}  // namespace csq
