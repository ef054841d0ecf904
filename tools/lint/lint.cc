#include "lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "callgraph.h"

namespace csq::lint {

namespace {

[[nodiscard]] bool starts_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

[[nodiscard]] bool ends_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(s.size() - p.size(), p.size(), p) == 0;
}

[[nodiscard]] std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

[[nodiscard]] bool is_ident_start(char c) {
  return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_';
}

[[nodiscard]] bool is_ident_char(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

// Multi-character punctuators, longest first so "..." beats "..".
const char* const kPunct3[] = {"...", "<<=", ">>=", "->*"};
const char* const kPunct2[] = {"::", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
                               "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=",
                               "|=", "^="};

}  // namespace

SourceFile scan_source(std::string path, std::string rel, std::string content) {
  SourceFile f;
  f.path = std::move(path);
  f.rel = std::move(rel);
  f.content = std::move(content);
  f.is_header = ends_with(f.rel, ".h") || ends_with(f.rel, ".hpp");

  const std::string& s = f.content;
  const std::size_t n = s.size();
  std::size_t i = 0;
  int line = 1;
  int last_code_line = 0;   // line of the most recent token or directive
  bool at_line_start = true;  // only whitespace seen so far on this line

  const auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k, ++i)
      if (s[i] == '\n') line++;
  };

  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      at_line_start = true;
      advance(1);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      advance(1);
      continue;
    }

    // Preprocessor directive (only at the start of a line).
    if (c == '#' && at_line_start) {
      Directive d;
      d.line = line;
      std::size_t j = i;
      while (j < n && (s[j] != '\n' || (j > 0 && s[j - 1] == '\\'))) ++j;
      d.text = s.substr(i, j - i);
      // `//` comments on the directive's physical lines (including macro
      // continuation lines) still count as comments — suppression markers
      // may sit there.
      {
        std::size_t begin = 0;
        int dline = line;
        while (begin <= d.text.size()) {
          const std::size_t nl = d.text.find('\n', begin);
          const std::string physical =
              d.text.substr(begin, nl == std::string::npos ? std::string::npos : nl - begin);
          const std::size_t cpos = physical.find("//");
          if (cpos != std::string::npos)
            f.comments.push_back({dline, trim(physical.substr(cpos + 2)), false});
          if (nl == std::string::npos) break;
          begin = nl + 1;
          ++dline;
        }
      }
      // Strip a trailing // comment so "#include <x>  // y" stays matchable.
      const std::size_t cpos = d.text.find("//");
      if (cpos != std::string::npos) d.text = d.text.substr(0, cpos);
      d.text = trim(d.text);
      f.directives.push_back(std::move(d));
      last_code_line = line;
      at_line_start = false;
      advance(j - i);
      continue;
    }
    at_line_start = false;

    // Line comment.
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      Comment cm;
      cm.line = line;
      cm.own_line = last_code_line != line;
      std::size_t j = i + 2;
      while (j < n && s[j] != '\n') ++j;
      cm.text = trim(s.substr(i + 2, j - i - 2));
      f.comments.push_back(std::move(cm));
      advance(j - i);
      continue;
    }
    // Block comment. The text keeps its raw interior (newlines included) so
    // consumers can recover per-line offsets — parse_suppressions binds a
    // marker on interior line k to cm.line + k.
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      Comment cm;
      cm.line = line;
      cm.own_line = last_code_line != line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(s[j] == '*' && s[j + 1] == '/')) ++j;
      cm.text = s.substr(i + 2, j - i - 2);
      f.comments.push_back(std::move(cm));
      advance(std::min(n, j + 2) - i);
      continue;
    }

    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && s[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && s[j] != '(') delim += s[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = s.find(closer, j);
      const std::size_t stop = end == std::string::npos ? n : end + closer.size();
      f.tokens.push_back({TokKind::kString, s.substr(i, stop - i), line});
      last_code_line = line;
      advance(stop - i);
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && s[j] != quote) {
        if (s[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      f.tokens.push_back({quote == '"' ? TokKind::kString : TokKind::kChar,
                          s.substr(i, std::min(n, j + 1) - i), line});
      last_code_line = line;
      advance(std::min(n, j + 1) - i);
      continue;
    }

    // Identifier / keyword.
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(s[j])) ++j;
      f.tokens.push_back({TokKind::kIdent, s.substr(i, j - i), line});
      last_code_line = line;
      advance(j - i);
      continue;
    }

    // Number (pp-number approximation: 1.5e-3, 0x1F, 1'000, .5).
    const bool dot_number =
        c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(s[i + 1])) != 0;
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || dot_number) {
      std::size_t j = i + 1;
      while (j < n) {
        const char d = s[j];
        if (is_ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') && j > i &&
                   (s[j - 1] == 'e' || s[j - 1] == 'E' || s[j - 1] == 'p' ||
                    s[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      f.tokens.push_back({TokKind::kNumber, s.substr(i, j - i), line});
      last_code_line = line;
      advance(j - i);
      continue;
    }

    // Punctuation, longest match first.
    std::string p(1, c);
    for (const char* q : kPunct3)
      if (s.compare(i, 3, q) == 0) {
        p = q;
        break;
      }
    if (p.size() == 1)
      for (const char* q : kPunct2)
        if (s.compare(i, 2, q) == 0) {
          p = q;
          break;
        }
    f.tokens.push_back({TokKind::kPunct, p, line});
    last_code_line = line;
    advance(p.size());
  }
  return f;
}

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message;
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"raw-throw", "only core/status.h taxonomy types may be thrown (outside tests/)",
       "Every error the tree raises must be one of the core/status.h taxonomy types\n"
       "(InvalidInputError, UnstableError, NotConvergedError, ...): callers dispatch\n"
       "on the taxonomy, the serve tier maps it onto wire error codes, and the CLI\n"
       "maps it onto exit codes. A raw `throw std::runtime_error(...)` (or any\n"
       "non-taxonomy type) bypasses all three. Fix: pick the taxonomy type whose\n"
       "contract matches the failure; if none fits, the taxonomy is missing a case."},
      {"nondeterminism", "no rand/random_device/time()/now() in sim/, parallel/",
       "The simulator and the parallel runtime promise bit-identical results for a\n"
       "fixed seed (the golden suite and the cross-backend equivalence tests depend\n"
       "on it). std::rand, std::random_device, time() and clock ::now() calls break\n"
       "that promise. Fix: draw from sim::Rng seeded via split_seed substreams; get\n"
       "wall-clock measurements from the obs layer outside the deterministic core."},
      {"header-hygiene", "#pragma once, no `using namespace`, direct std includes in headers",
       "Headers must carry `#pragma once`, must not leak `using namespace` into\n"
       "every includer, and must include the std headers for the std symbols they\n"
       "use (include-what-you-use lite) so refactors cannot orphan a transitive\n"
       "include. Fix: add the pragma / the direct #include, or qualify the name."},
      {"catch-all-swallow", "catch (...) must rethrow or convert to SolverStatus",
       "A catch (...) that neither rethrows nor converts the exception into a\n"
       "SolverStatus/taxonomy response silently discards failures the caller was\n"
       "promised to see (and under fault injection, hides injected faults). Fix:\n"
       "rethrow, capture via std::current_exception, or build a taxonomy error."},
      {"banned-identifier", "assert()/rand()/srand()/gets() are banned (CSQ_ASSERT, sim::Rng)",
       "assert() compiles out under NDEBUG so release builds silently drop the\n"
       "check — use CSQ_ASSERT (core/check.h), which always fires and reports\n"
       "through the taxonomy. rand()/srand() break seeded determinism — use\n"
       "sim::Rng. gets() is unsalvageable."},
      {"serve-hygiene", "serve code must not exit/abort or bypass the bounded admit path",
       "Request-handler code degrades, it never dies: no exit/abort/terminate (a\n"
       "handler converts failures into taxonomy responses), and no pushing onto a\n"
       "request queue outside the bounded admit gate (admission checks queue depth\n"
       "and in-flight cost first)."},
      {"throw-flow",
       "header `Throws csq::*` contracts must match what can escape, directly or "
       "through the call graph (R13)",
       "A src/ header is the API contract, and every taxonomy error that can\n"
       "escape one of its public functions is part of it. Taxonomy throws are\n"
       "propagated through the conservative call graph (catch clauses filter,\n"
       "unresolved calls contribute nothing), and each src/ header is compared\n"
       "against what can actually escape its public functions, whether thrown\n"
       "directly in the .cc or arriving through callees. Undocumented escapes\n"
       "are findings; so are stale `Throws csq::X` entries nothing backs up.\n"
       "InternalError is exempt: invariant breaches are bugs, not contract.\n"
       "Fix: add or drop the contract line, or catch-and-convert at the API\n"
       "boundary."},
      {"atomic-order",
       "non-seq_cst memory orders in src/parallel|obs need a rationale comment; "
       "bare seq_cst in hot loops is flagged (R16)",
       "Every memory_order_relaxed/acquire/release/acq_rel in src/parallel/ and\n"
       "src/obs/ must carry a nearby comment stating why the relaxation is safe\n"
       "(what the release pairs with, why relaxed counters tolerate reordering).\n"
       "Conversely a bare seq_cst inside a src/parallel/ loop is a cost that\n"
       "deserves the same scrutiny — justify the full fence or relax it with a\n"
       "rationale. The comment may sit on the site, just above it, or in the\n"
       "function's doc block."},
      {"journal-hygiene",
       "serve code must not do direct file I/O (durability goes through "
       "src/durable/) (R18)",
       "Durability is a protocol, not a convenience: the journal (src/durable/)\n"
       "owns the CRC framing, the append ordering and the fsync policy that\n"
       "recovery (csq_serve --recover, checkpointed sweeps) depends on.\n"
       "Request-handler code opening files on its own (ofstream, fopen, open,\n"
       "write, ...) creates state no recovery path replays — route it through\n"
       "durable::Journal."},
      {"suppression",
       "csq-lint: allow(...) comments must name a known rule, give a reason and cover a "
       "finding",
       "A suppression is `// csq-lint: allow(rule-id): reason` on the finding's\n"
       "line or the line above (block-comment interiors and stacked\n"
       "`allow(a) allow(b): reason` also work). The reason is mandatory — it is\n"
       "the reviewable justification. Malformed markers (unknown rule, missing\n"
       "reason) are themselves findings, and so is a marker that suppresses no\n"
       "finding (the code it excused is gone: delete the marker). None of these\n"
       "can be suppressed."},
  };
  return kRules;
}

namespace {

[[nodiscard]] bool known_rule(const std::string& id) {
  for (const RuleInfo& r : rules())
    if (id == r.id) return true;
  return false;
}

}  // namespace

std::vector<Suppression> parse_suppressions(const SourceFile& file,
                                            std::vector<Finding>* malformed) {
  std::vector<Suppression> out;
  const std::string kTag = "csq-lint:";
  for (const Comment& c : file.comments) {
    // A comment is scanned one physical line at a time: the marker must open
    // a line (after stripping whitespace and a leading '*' decoration), so
    // prose that merely *mentions* `csq-lint: ...` (docs, this very file) is
    // not a suppression attempt. This makes markers work inside multi-line
    // /* */ comments and on macro-continuation lines alike.
    const int end_line =
        c.line + static_cast<int>(std::count(c.text.begin(), c.text.end(), '\n'));
    std::size_t begin = 0;
    int lineno = c.line;
    while (begin <= c.text.size()) {
      const std::size_t nl = c.text.find('\n', begin);
      std::string ln = trim(
          c.text.substr(begin, nl == std::string::npos ? std::string::npos : nl - begin));
      while (starts_with(ln, "*")) ln = trim(ln.substr(1));  // block-comment gutter
      const int marker_line = lineno;
      if (nl == std::string::npos)
        begin = c.text.size() + 1;
      else {
        begin = nl + 1;
        ++lineno;
      }
      if (!starts_with(ln, kTag)) continue;

      std::string rest = trim(ln.substr(kTag.size()));
      const auto bad = [&](const std::string& why) {
        if (malformed != nullptr)
          malformed->push_back(
              {file.path, marker_line, "suppression", why + ": `" + ln + "`"});
      };
      // One marker may stack several groups: `allow(a) allow(b): reason`
      // (the reason applies to every listed rule).
      std::vector<std::string> rule_ids;
      bool ok = true;
      while (starts_with(rest, "allow(")) {
        const std::size_t close = rest.find(')');
        if (close == std::string::npos) {
          bad("unterminated allow(");
          ok = false;
          break;
        }
        const std::string id = trim(rest.substr(6, close - 6));
        if (!known_rule(id)) {
          bad("unknown rule id `" + id + "`");
          ok = false;
          break;
        }
        rule_ids.push_back(id);
        rest = trim(rest.substr(close + 1));
      }
      if (!ok) continue;
      if (rule_ids.empty()) {
        bad("malformed csq-lint comment (expected `allow(rule-id): reason`)");
        continue;
      }
      if (!starts_with(rest, ":")) {
        bad("missing reason (write `allow(" + rule_ids.front() + "): why this is safe`)");
        continue;
      }
      const std::string reason = trim(rest.substr(1));
      if (reason.empty()) {
        bad("empty reason (write `allow(" + rule_ids.front() + "): why this is safe`)");
        continue;
      }
      for (const std::string& id : rule_ids) {
        Suppression s;
        s.line = marker_line;
        s.alt_line = end_line + 1;  // line after a block comment closes
        s.rule = id;
        s.reason = reason;
        out.push_back(std::move(s));
      }
    }
  }
  return out;
}

namespace {

using Tokens = std::vector<Token>;

[[nodiscard]] bool in_any_dir(const std::string& rel, const std::vector<std::string>& dirs) {
  for (const std::string& d : dirs)
    if (starts_with(rel, d)) return true;
  return false;
}

// Index of the token matching the opener at `open` ("("/")" or "{"/"}"),
// or tokens.size() if unbalanced.
[[nodiscard]] std::size_t matching(const Tokens& toks, std::size_t open, const char* o,
                                   const char* c) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size();
}

void rule_raw_throw(const SourceFile& f, const Config& cfg, std::vector<Finding>* out) {
  if (starts_with(f.rel, "tests/")) return;
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "throw") continue;
    if (i + 1 >= t.size()) continue;
    if (t[i + 1].kind == TokKind::kPunct && t[i + 1].text == ";") continue;  // rethrow
    // Collect the qualified type name up to the constructor '('.
    std::string last_component;
    std::string spelled;
    std::size_t j = i + 1;
    while (j < t.size() &&
           ((t[j].kind == TokKind::kIdent) || (t[j].kind == TokKind::kPunct && t[j].text == "::"))) {
      if (t[j].kind == TokKind::kIdent) last_component = t[j].text;
      spelled += t[j].text;
      ++j;
    }
    const bool allowed =
        std::find(cfg.allowed_throw_types.begin(), cfg.allowed_throw_types.end(),
                  last_component) != cfg.allowed_throw_types.end();
    if (!allowed)
      out->push_back({f.path, t[i].line, "raw-throw",
                      "`throw " + (spelled.empty() ? "<expr>" : spelled) +
                          "` — throw a core/status.h taxonomy type "
                          "(InvalidInputError, UnstableError, ...) instead"});
  }
}

void rule_nondeterminism(const SourceFile& f, const Config& cfg, std::vector<Finding>* out) {
  if (!in_any_dir(f.rel, cfg.deterministic_dirs)) return;
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& id = t[i].text;
    const bool call = i + 1 < t.size() && t[i + 1].text == "(";
    if (id == "rand" || id == "srand" || id == "random_device") {
      out->push_back({f.path, t[i].line, "nondeterminism",
                      "`" + id + "` in a bit-deterministic component — seed sim::Rng "
                          "through split_seed substreams instead"});
    } else if (id == "time" && call) {
      out->push_back({f.path, t[i].line, "nondeterminism",
                      "`time()` in a bit-deterministic component — results must not "
                          "depend on the wall clock"});
    } else if (id == "now" && call && i > 0 && t[i - 1].text == "::") {
      out->push_back({f.path, t[i].line, "nondeterminism",
                      "`::now()` in a bit-deterministic component — results must not "
                          "depend on the wall clock"});
    }
  }
}

void rule_header_hygiene(const SourceFile& f, std::vector<Finding>* out) {
  if (!f.is_header) return;
  bool pragma_once = false;
  for (const Directive& d : f.directives)
    if (d.text == "#pragma once") pragma_once = true;
  if (!pragma_once)
    out->push_back({f.path, 1, "header-hygiene", "missing `#pragma once`"});

  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i)
    if (t[i].kind == TokKind::kIdent && t[i].text == "using" &&
        t[i + 1].kind == TokKind::kIdent && t[i + 1].text == "namespace")
      out->push_back({f.path, t[i].line, "header-hygiene",
                      "`using namespace` in a header leaks into every includer"});

  // Include-what-you-use lite: common std symbols must have their header
  // included directly, not reached transitively.
  static const std::map<std::string, std::vector<std::string>> kStdHeader = {
      {"vector", {"<vector>"}},
      {"string", {"<string>"}},
      {"map", {"<map>"}},
      {"array", {"<array>"}},
      {"deque", {"<deque>"}},
      {"function", {"<functional>"}},
      {"atomic", {"<atomic>"}},
      {"mutex", {"<mutex>"}},
      {"thread", {"<thread>"}},
      {"optional", {"<optional>"}},
      {"unique_ptr", {"<memory>"}},
      {"shared_ptr", {"<memory>"}},
      {"size_t", {"<cstddef>"}},
      {"ptrdiff_t", {"<cstddef>"}},
      {"uint32_t", {"<cstdint>"}},
      {"uint64_t", {"<cstdint>"}},
      {"int64_t", {"<cstdint>"}},
      {"initializer_list", {"<initializer_list>"}},
      {"condition_variable", {"<condition_variable>"}},
      {"exception_ptr", {"<exception>"}},
      {"ostream", {"<ostream>", "<iosfwd>"}},
      {"istream", {"<istream>", "<iosfwd>"}},
  };
  std::set<std::string> reported;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "std" || t[i + 1].text != "::") continue;
    const auto it = kStdHeader.find(t[i + 2].text);
    if (it == kStdHeader.end()) continue;
    bool included = false;
    for (const std::string& hdr : it->second)
      for (const Directive& d : f.directives)
        if (starts_with(d.text, "#include") && d.text.find(hdr) != std::string::npos)
          included = true;
    if (!included && reported.insert(it->second.front()).second)
      out->push_back({f.path, t[i].line, "header-hygiene",
                      "std::" + t[i + 2].text + " used but " + it->second.front() +
                          " not included directly"});
  }
}

void rule_catch_all(const SourceFile& f, std::vector<Finding>* out) {
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "catch") continue;
    if (t[i + 1].text != "(" || t[i + 2].text != "..." || t[i + 3].text != ")") continue;
    std::size_t open = i + 4;
    if (open >= t.size() || t[open].text != "{") continue;
    const std::size_t close = matching(t, open, "{", "}");
    bool handles = false;
    for (std::size_t j = open + 1; j < close; ++j)
      if (t[j].kind == TokKind::kIdent &&
          (t[j].text == "throw" || t[j].text == "rethrow_exception" ||
           t[j].text == "current_exception" || t[j].text == "status_from_exception" ||
           t[j].text == "ErrorCode"))
        handles = true;
    if (!handles)
      out->push_back({f.path, t[i].line, "catch-all-swallow",
                      "catch (...) swallows the exception — rethrow, capture via "
                          "std::current_exception, or convert to a SolverStatus"});
  }
}

void rule_banned_identifier(const SourceFile& f, const Config& cfg,
                            std::vector<Finding>* out) {
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i + 1].text != "(") continue;
    if (std::find(cfg.banned_identifiers.begin(), cfg.banned_identifiers.end(), t[i].text) ==
        cfg.banned_identifiers.end())
      continue;
    const std::string hint = t[i].text == "assert"
                                 ? "use CSQ_ASSERT (core/check.h) — assert() compiles "
                                   "out under NDEBUG"
                                 : "banned by the project rule set (determinism/safety)";
    out->push_back(
        {f.path, t[i].line, "banned-identifier", "`" + t[i].text + "(` — " + hint});
  }
}

// serve-hygiene (R11): request-handler code (Config::serve_paths — the serve
// layer and the csq_serve binary) must degrade, never die, and never grow
// the request queue outside the bounded admit gate:
//   (a) no process-terminating calls (exit/abort/terminate/...): a handler
//       converts failures into taxonomy error responses;
//   (b) no push_back/emplace_back/push on an identifier that names a queue
//       ("queue"/"pending"): all enqueueing goes through the single admit
//       path that checks queue_depth and max_inflight_cost first (that one
//       site carries a csq-lint allow with its justification).
void rule_serve_hygiene(const SourceFile& f, const Config& config,
                        std::vector<Finding>* out) {
  bool in_scope = false;
  for (const std::string& p : config.serve_paths)
    if (starts_with(f.rel, p)) in_scope = true;
  if (!in_scope) return;

  const auto names_queue = [](const std::string& ident) {
    return ident.find("queue") != std::string::npos ||
           ident.find("pending") != std::string::npos;
  };

  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    // (a) process-terminating calls.
    if (i + 1 < t.size() && t[i + 1].text == "(") {
      for (const std::string& banned : config.serve_banned_calls)
        if (t[i].text == banned)
          out->push_back({f.path, t[i].line, "serve-hygiene",
                          "request-handler code must not call " + banned +
                              "() — convert the failure into a taxonomy error "
                              "response instead"});
    }
    // (b) queue growth outside the admit gate.
    if (i + 3 < t.size() && names_queue(t[i].text) &&
        (t[i + 1].text == "." || t[i + 1].text == "->") &&
        (t[i + 2].text == "push_back" || t[i + 2].text == "emplace_back" ||
         t[i + 2].text == "push") &&
        t[i + 3].text == "(")
      out->push_back({f.path, t[i].line, "serve-hygiene",
                      "push onto request queue \"" + t[i].text +
                          "\" outside the bounded admit path — admission must "
                          "check queue depth and in-flight cost first"});
  }
}

// journal-hygiene (R18): request-handler code
// (Config::journal_no_direct_io_paths) must not do direct file I/O — stream
// types (ofstream/fstream/FILE) anywhere, or a banned call
// (fopen/open/write/...) in call position. Durability belongs to
// src/durable/, which owns the CRC framing and fsync policy; a handler
// writing its own files creates state no recovery path replays. Member
// calls (x.open, p->write) are not flagged: the ban is on raw file I/O, not
// on API method names.
void rule_journal_hygiene(const SourceFile& f, const Config& config,
                          std::vector<Finding>* out) {
  bool in_scope = false;
  for (const std::string& p : config.journal_no_direct_io_paths)
    in_scope = in_scope || starts_with(f.rel, p);
  if (!in_scope) return;
  const auto stream_type = [](const std::string& ident) {
    return ident == "FILE" || (ident.size() >= 6 &&
                               ident.compare(ident.size() - 6, 6, "stream") == 0 &&
                               ident.find("string") == std::string::npos);
  };
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    for (const std::string& banned : config.journal_banned_io_calls) {
      if (t[i].text != banned) continue;
      const bool member_call = i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
      const bool call_like = i + 1 < t.size() && t[i + 1].text == "(";
      if (stream_type(banned) || (call_like && !member_call))
        out->push_back({f.path, t[i].line, "journal-hygiene",
                        "direct file I/O (" + banned +
                            ") in request-handler code — durability goes "
                            "through durable::Journal (src/durable/), which "
                            "owns framing and fsync"});
    }
  }
}

}  // namespace

namespace {

[[nodiscard]] bool covers(const Suppression& s, const Finding& fd) {
  return s.rule == fd.rule &&
         (fd.line == s.line || fd.line == s.line + 1 ||
          (s.alt_line != 0 && fd.line == s.alt_line));
}

}  // namespace

std::vector<Finding> run_rules(const std::vector<SourceFile>& files, const Config& config) {
  // Each file's markers are parsed once (malformed ones become unsuppressible
  // findings) and shared by both passes, so `used` records every finding a
  // marker covered.
  std::vector<Finding> all;
  std::vector<std::vector<Suppression>> sups(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) sups[i] = parse_suppressions(files[i], &all);
  const auto suppressed = [&](const Finding& fd) {
    bool hit = false;
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (files[i].path != fd.file) continue;
      for (Suppression& s : sups[i])
        if (covers(s, fd)) {
          s.used = true;
          hit = true;
        }
    }
    return hit;
  };

  std::vector<Finding> found;
  for (const SourceFile& f : files) {
    rule_raw_throw(f, config, &found);
    rule_nondeterminism(f, config, &found);
    rule_header_hygiene(f, &found);
    rule_catch_all(f, &found);
    rule_banned_identifier(f, config, &found);
    rule_serve_hygiene(f, config, &found);
    rule_journal_hygiene(f, config, &found);
  }
  // Cross-file pass: the semantic rules on the FileIndex layer. throw-flow
  // findings attach to headers at line 1, so a suppression comment on the
  // header's first line covers them.
  run_semantic_rules(files, config, &found);
  for (Finding& fd : found)
    if (!suppressed(fd)) all.push_back(std::move(fd));

  // A marker that covers nothing is stale: the finding it accepted is gone.
  for (std::size_t i = 0; i < files.size(); ++i)
    for (const Suppression& s : sups[i])
      if (!s.used)
        all.push_back({files[i].path, s.line, "suppression",
                       "`allow(" + s.rule + ")` suppresses no finding; delete the marker"});

  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return all;
}

std::string suppression_selftest(bool* ok) {
  bool pass = true;
  std::ostringstream report;
  const auto check = [&](bool cond, const std::string& what) {
    report << (cond ? "ok:   " : "FAIL: ") << what << "\n";
    if (!cond) pass = false;
  };

  const std::string sample =
      "int a;  // csq-lint: allow(nondeterminism): fixture draws a seed\n"
      "// csq-lint: allow(raw-throw): exercised by the selftest\n"
      "int b;\n"
      "// csq-lint: allow(raw-throw)\n"            // missing reason
      "// csq-lint: allow(not-a-rule): whatever\n"  // unknown rule
      "// csq-lint: disallow(raw-throw): nope\n"    // malformed verb
      "// see `csq-lint: allow(raw-throw): x` for the syntax\n"  // prose mention
      "// plain comment, no marker\n";
  SourceFile f = scan_source("<selftest>", "<selftest>", sample);
  std::vector<Finding> malformed;
  const std::vector<Suppression> sups = parse_suppressions(f, &malformed);

  check(sups.size() == 2, "two well-formed suppressions parsed (got " +
                              std::to_string(sups.size()) + ")");
  if (sups.size() == 2) {
    check(sups[0].rule == "nondeterminism" && sups[0].line == 1,
          "trailing-comment suppression binds to its own line");
    check(sups[0].reason == "fixture draws a seed", "reason text captured");
    check(sups[1].rule == "raw-throw" && sups[1].line == 2,
          "own-line suppression recorded on the comment line");
  }
  check(malformed.size() == 3, "three malformed markers rejected, prose mention "
                                   "ignored (got " + std::to_string(malformed.size()) + ")");
  for (const Finding& m : malformed)
    check(m.rule == "suppression", "malformed marker reported under rule `suppression`");

  // Block-comment interiors, stacked groups, macro continuation lines.
  const std::string sample2 =
      "/* preamble prose\n"
      " * csq-lint: allow(raw-throw): fixture throws on purpose\n"
      " */\n"
      "int c;\n"
      "// csq-lint: allow(raw-throw) allow(nondeterminism): shared reason\n"
      "int d;\n"
      "#define MX(x) \\\n"
      "  do_thing(x); /* macro */ \\\n"
      "  more(x)  // csq-lint: allow(banned-identifier): macro fixture\n";
  SourceFile f2 = scan_source("<selftest2>", "<selftest2>", sample2);
  std::vector<Finding> malformed2;
  const std::vector<Suppression> sups2 = parse_suppressions(f2, &malformed2);
  check(malformed2.empty(), "second battery has no malformed markers");
  check(sups2.size() == 4, "block + stacked pair + macro-line markers parsed (got " +
                               std::to_string(sups2.size()) + ")");
  if (sups2.size() == 4) {
    check(sups2[0].rule == "raw-throw" && sups2[0].line == 2 && sups2[0].alt_line == 4,
          "block-comment marker binds to its interior line and the line after */");
    check(sups2[1].rule == "raw-throw" && sups2[2].rule == "nondeterminism" &&
              sups2[1].line == 5 && sups2[2].line == 5 &&
              sups2[1].reason == sups2[2].reason,
          "stacked allow(a) allow(b) yields both rules with the shared reason");
    check(sups2[3].rule == "banned-identifier" && sups2[3].line == 9,
          "marker on a macro continuation line binds to that physical line");
  }
  if (ok != nullptr) *ok = pass;
  return report.str();
}

}  // namespace csq::lint
