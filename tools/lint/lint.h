// csq_lint — project-invariant static analysis for the cyclesteal repo.
//
// A dependency-free C++17-style lint pass: a lightweight comment/string-aware
// tokenizer (no libclang) plus a registry of project-specific rules that
// mechanically enforce the invariants the QBD/busy-period analysis relies on
// and that no compiler flag or type can carry (see docs/static-analysis.md
// for the rule catalog, and for the retired rules R2/R4/R6/R9/R10/R12/R14/
// R15/R17/R19 and what carries their invariants now):
//
//   raw-throw          (R1) only core/status.h taxonomy types may be thrown
//   nondeterminism     (R3) no std::rand/random_device/time()/..now() in
//                           sim/, parallel/ (bit-determinism gate)
//   header-hygiene     (R5) #pragma once, no `using namespace`, direct
//                           includes for common std symbols
//   catch-all-swallow  (R7) catch (...) must rethrow or convert to Status
//   banned-identifier  (R8) assert()/rand()/srand() are banned (CSQ_ASSERT,
//                           sim::Rng)
//   serve-hygiene      (R11) request-handler code (src/serve/,
//                           tools/csq_serve.cc) must not terminate the
//                           process or push onto a request queue outside
//                           the bounded admit path
//   journal-hygiene    (R18) no direct file I/O in request-handler code
//                           (durability goes through src/durable/)
//   suppression        (meta) malformed or unused `csq-lint: allow(...)`
//                           comments
//
// Findings print as `file:line: [rule-id] message`. A finding on line L is
// suppressed by `// csq-lint: allow(rule-id): reason` on line L or L-1; the
// reason string is mandatory, and a marker that suppresses nothing is itself
// a finding.
//
// Built as a library (csq_lint_lib) so tests/test_lint.cc can drive it
// in-process; tools/lint/main.cc wraps it into the csq_lint binary with
// csq_cli-compatible exit codes.
#pragma once

#include <string>
#include <vector>

#include "core/status.h"

namespace csq::lint {

// --- Tokenizer -------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kChar, kPunct };

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  int line = 0;
};

struct Comment {
  int line = 0;        // line the comment starts on
  std::string text;    // body without the // or /* */ markers
  bool own_line = false;  // no code precedes it on its line
};

// One preprocessor directive (continuation lines folded in).
struct Directive {
  int line = 0;
  std::string text;  // e.g. "#pragma once", "#include <vector>"
};

struct SourceFile {
  std::string path;  // as given to the scanner (used in findings)
  std::string rel;   // repo-relative path with '/' separators (rule scoping)
  std::string content;
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<Directive> directives;
  bool is_header = false;
};

// Lex `content`. Comments, string/char literals and preprocessor lines are
// recognized and set aside so rules never match inside them. Best-effort:
// malformed input cannot fail, it just produces fewer tokens.
[[nodiscard]] SourceFile scan_source(std::string path, std::string rel, std::string content);

// --- Findings and suppressions --------------------------------------------

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

// `file:line: [rule-id] message`
[[nodiscard]] std::string format_finding(const Finding& f);

struct Suppression {
  int line = 0;      // line the marker itself is on (block-comment interior ok)
  int alt_line = 0;  // for block comments: first line after the comment closes
  std::string rule;
  std::string reason;
  bool used = false;  // set by run_rules when the marker covers a finding
};

// Extract well-formed `csq-lint: allow(rule-id): reason` suppressions from a
// file's comments. Malformed ones (missing reason, unknown rule id) are
// appended to `malformed` as findings of the meta-rule "suppression".
[[nodiscard]] std::vector<Suppression> parse_suppressions(const SourceFile& file,
                                                          std::vector<Finding>* malformed);

// --- Rule registry ---------------------------------------------------------

struct RuleInfo {
  const char* id;       // stable kebab-case rule id
  const char* summary;  // one-line description for --list-rules / docs
  const char* detail;   // paragraph for --explain <rule>: why + how to fix
};

// Every registered rule, in catalog order (the suppression meta-rule last).
[[nodiscard]] const std::vector<RuleInfo>& rules();

struct Config {
  // Directories (repo-relative prefixes) that must stay bit-deterministic.
  std::vector<std::string> deterministic_dirs = {"src/sim/", "src/parallel/"};
  // Exception types permitted after a `throw` keyword (last path component).
  std::vector<std::string> allowed_throw_types = {
      "InvalidInputError",  "UnstableError",       "NotConvergedError",
      "IllConditionedError", "VerificationFailedError", "InternalError",
      "DeadlineExceededError", "CancelledError", "OverloadedError",
      "CorruptJournalError"};
  // Identifiers banned everywhere (rule banned-identifier).
  std::vector<std::string> banned_identifiers = {"assert", "rand", "srand", "gets"};
  // serve-hygiene (R11): repo-relative prefixes holding request-handler code.
  std::vector<std::string> serve_paths = {"src/serve/", "tools/csq_serve.cc"};
  // Process-terminating calls banned inside serve paths (a handler converts
  // failures to taxonomy responses; it never takes the process down).
  std::vector<std::string> serve_banned_calls = {"exit",       "_exit",    "_Exit",
                                                 "quick_exit", "abort",    "terminate"};
  // atomic-order (R16): directories where memory_order arguments need an
  // ordering-rationale comment.
  std::vector<std::string> atomic_order_dirs = {"src/parallel/", "src/obs/"};
  // journal-hygiene (R18): request-handler directories that must not do
  // direct file I/O — durability belongs to src/durable/, which owns the
  // CRC framing and the fsync policy. A handler writing its own files
  // bypasses both.
  std::vector<std::string> journal_no_direct_io_paths = {"src/serve/"};
  std::vector<std::string> journal_banned_io_calls = {
      "fopen", "freopen", "fwrite", "fprintf", "ofstream", "fstream",
      "open",  "openat",  "creat",  "write",   "pwrite"};
};

// Run every rule over `files` — the token rules, then the semantic rules
// (R13, R16) on the cross-TU index — apply suppressions, flag
// markers that suppressed nothing, and return the surviving findings sorted
// by (file, line, rule). Cross-file rules see the whole set, so pass related
// .h/.cc files together.
[[nodiscard]] std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                                             const Config& config = {});

// Self-test of the suppression parser (run by tests/test_lint.cc): runs a
// battery of well-formed/malformed suppression comments through
// parse_suppressions and returns a human-readable pass/fail report. `ok` is
// set to false if any expectation fails.
[[nodiscard]] std::string suppression_selftest(bool* ok);

}  // namespace csq::lint
