// Semantic index for csq_lint — the layer between the tokenizer (lint.h)
// and the flow-aware rules of callgraph.h.
//
// For each SourceFile the extractor computes a FileIndex: function/method
// definition extents (with namespace/class scope chains recovered from a
// brace-matched scope stack), the call sites, throw sites, loops, try/catch
// regions and atomic memory_order sites inside each body, plus the file's
// `#include` targets and the module it belongs to (`src/<module>/...`).
// Everything is best-effort token-level analysis: malformed input degrades
// to fewer facts, never to a crash.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint.h"

namespace csq::lint {

// One `#include` directive. `target` is the spelled path between the
// delimiters; resolution against the scanned file set happens in the
// repo-wide layer (callgraph.cc), not here.
struct IncludeRef {
  int line = 0;
  std::string target;
  bool system = false;  // <...> rather than "..."
};

// One call site inside a function body. `name` is the last identifier
// component (`solve` for `qbd::solve(...)` and for `x.solve(...)`).
struct CallRef {
  int line = 0;
  std::size_t tok = 0;        // token index of the name, for region tests
  std::string name;
  std::string qualifier;      // "qbd" for qbd::solve, "" for bare/method calls
  bool is_method = false;     // preceded by `.` or `->`
};

// One `throw <Type>(...)` site. `type` is the last component of the thrown
// type; bare rethrows (`throw;`) are not recorded.
struct ThrowRef {
  int line = 0;
  std::size_t tok = 0;
  std::string type;
};

// A for/while/do loop inside a function body. The token extent covers the
// *body* (header excluded).
struct LoopRef {
  int line = 0;               // line of the loop keyword
  std::size_t body_begin = 0;  // first token of the body
  std::size_t body_end = 0;    // last token of the body (inclusive)
};

// A try block and the union of what its catch clauses handle. `catches_all`
// is set for `catch (...)` and for base-class catches (`std::exception`,
// `csq::Error`) that swallow every taxonomy type.
struct TryRegion {
  std::size_t body_begin = 0;
  std::size_t body_end = 0;    // inclusive, try block only (not the catches)
  bool catches_all = false;
  std::vector<std::string> caught;  // taxonomy last-components caught by type
};

// One explicit std::memory_order_* argument.
struct AtomicOrderRef {
  int line = 0;
  std::string order;          // "relaxed", "acquire", ..., "seq_cst"
  bool justified = false;     // rationale comment nearby (see index.cc)
  bool in_loop = false;       // inside a loop body extent
};

// One function (or method) definition.
struct FunctionDecl {
  std::string name;            // unqualified: "solve"
  std::string scope;           // enclosing scopes joined: "csq::qbd" / "csq::linalg::Lu"
  std::vector<std::string> explicit_quals;  // out-of-line quals: {"Lu"} for Lu::solve
  int line = 0;
  int end_line = 0;
  std::size_t body_begin = 0;  // token index of the opening `{`
  std::size_t body_end = 0;    // token index of the closing `}`
  bool is_method = false;      // defined in a class scope or via Class:: quals
  bool internal = false;       // anonymous namespace or `static` — not API
  bool polls_budget = false;   // body polls interrupted()/expired()/cancelled()/.check()
  std::vector<std::size_t> poll_toks;  // token indices of those poll sites
  bool has_order_rationale = false;  // ordering-rationale comment in/above the body
  std::vector<CallRef> calls;
  std::vector<ThrowRef> throws;
  std::vector<LoopRef> loops;
  std::vector<TryRegion> tries;
  std::vector<AtomicOrderRef> atomics;
};

// Everything the cross-TU rules need to know about one file.
struct FileIndex {
  std::string rel;             // repo-relative path, '/'-separated
  bool is_header = false;
  std::string module;          // "core", "qbd", ..., "tools"; "" for src/csq.h
  std::vector<std::string> namespaces;  // namespace names opened in this file
  std::vector<IncludeRef> includes;
  std::vector<FunctionDecl> functions;
};

// Build the semantic index for one scanned file. `module` is derived from
// `file.rel` (`src/<m>/...` → m, `tools/...` → "tools").
[[nodiscard]] FileIndex build_file_index(const SourceFile& file);

}  // namespace csq::lint
