// Repo-wide layer of the csq_lint semantic engine: the symbol table over all
// FileIndex records, the `#include` graph, the conservative call graph, and
// the flow-aware rules (R13 throw-flow, R14 deadline-poll, R16 atomic-order,
// R17 module-layering) that run on top of them.
//
// Resolution is name-based with overload sets — there is no type checking.
// The conservatism direction is fixed per rule and documented with each:
// an *unresolved* call (std::, external libraries, function pointers) "may
// do anything", which concretely means it never supplies a property the
// rule wants proven (it cannot poll a RunBudget for R14) and never supplies
// a property that would create a finding out of thin air (it throws no
// taxonomy type for R13 — taxonomy types only originate in repo code the
// index can see).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "index.h"
#include "lint.h"

namespace csq::lint {

// A function's position in the repo-wide table.
struct FnRef {
  std::size_t file = 0;  // index into RepoIndex::files
  std::size_t fn = 0;    // index into FileIndex::functions
};

// The cross-TU index: all FileIndex records plus the derived tables the
// rules query. Built once per run by run_semantic_rules (or by hand in
// tests via RepoIndex::build).
class RepoIndex {
 public:
  static RepoIndex build(std::vector<FileIndex> files, const Config& config);

  [[nodiscard]] const std::vector<FileIndex>& files() const { return files_; }
  [[nodiscard]] const FunctionDecl& fn(const FnRef& r) const {
    return files_[r.file].functions[r.fn];
  }

  // Overload-set resolution for one call site in `caller`. Empty result =
  // unresolved ("may do anything").
  [[nodiscard]] std::vector<FnRef> resolve(const CallRef& call, const FnRef& caller) const;

  // --- Fixpoint results, keyed like fn_refs() -------------------------------

  // All functions, in (file, fn) order; the fixpoint vectors align with it.
  [[nodiscard]] const std::vector<FnRef>& fn_refs() const { return fn_refs_; }
  [[nodiscard]] std::size_t fn_id(const FnRef& r) const;

  // Resolved callee ids for call number `call` of function `id` (aligned
  // with FunctionDecl::calls). Empty = unresolved.
  [[nodiscard]] const std::vector<std::size_t>& resolved(std::size_t id,
                                                         std::size_t call) const {
    return resolved_[id][call];
  }

  // Taxonomy error types that can escape each function (local throws minus
  // enclosing catches, plus resolved callees' escapes minus catches at the
  // call site).
  [[nodiscard]] const std::set<std::string>& escapes(std::size_t id) const {
    return escapes_[id];
  }
  // Transitively polls RunBudget/CancelToken through resolved calls.
  [[nodiscard]] bool polls(std::size_t id) const { return polls_[id]; }
  // Is, or transitively reaches, a configured iterative kernel.
  [[nodiscard]] bool reaches_kernel(std::size_t id) const { return reaches_kernel_[id]; }

  // --- Include graph --------------------------------------------------------

  // Resolved include edges: for each file, the indexes of repo files its
  // `#include "..."` directives name. Unresolvable targets are dropped here
  // (R17 falls back to the path's leading segment for module ranking).
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& include_edges() const {
    return include_edges_;
  }
  // Include cycles (SCCs of size > 1, plus self-loops), each sorted by rel.
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& include_cycles() const {
    return include_cycles_;
  }

  // Namespace names seen anywhere in the repo (classifies A::f quals).
  [[nodiscard]] bool is_namespace(const std::string& name) const {
    return namespaces_.count(name) != 0;
  }

 private:
  std::vector<FileIndex> files_;
  std::vector<FnRef> fn_refs_;
  std::map<std::string, std::vector<std::size_t>> by_name_;  // name -> fn ids
  std::vector<std::size_t> offsets_;  // file index -> first fn id
  std::set<std::string> namespaces_;
  std::vector<bool> method_;  // finalized is_method per fn id
  std::vector<std::vector<std::vector<std::size_t>>> resolved_;  // fn -> call -> callee ids
  std::vector<std::set<std::string>> escapes_;
  std::vector<bool> polls_;
  std::vector<bool> reaches_kernel_;
  std::vector<std::vector<std::size_t>> include_edges_;
  std::vector<std::vector<std::size_t>> include_cycles_;

  void finalize_methods();
  void resolve_all(const Config& config);
  void run_fixpoints(const Config& config);
  void build_include_graph();
};

// Index `files` and run the semantic rules over them; `files` also supplies
// the content the doc checks (R13) read. Findings are appended unsuppressed
// — run_rules applies suppressions afterwards.
void run_semantic_rules(const std::vector<SourceFile>& files, const Config& config,
                        std::vector<Finding>* out);

// Self-test of the indexer and call graph driven from synthetic sources:
// symbol resolution across files, include-graph cycle detection, and the
// conservatism contract on unresolved calls. Mirrors suppression_selftest.
[[nodiscard]] std::string index_selftest(bool* ok);

}  // namespace csq::lint
