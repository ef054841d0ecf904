#include "callgraph.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>

namespace csq::lint {

namespace {

[[nodiscard]] bool starts_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

[[nodiscard]] bool ends_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(s.size() - p.size(), p.size(), p) == 0;
}

[[nodiscard]] std::vector<std::string> split_scope(const std::string& scope) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= scope.size()) {
    const std::size_t end = scope.find("::", begin);
    if (end == std::string::npos) {
      if (begin < scope.size()) parts.push_back(scope.substr(begin));
      break;
    }
    if (end > begin) parts.push_back(scope.substr(begin, end - begin));
    begin = end + 2;
  }
  return parts;
}

[[nodiscard]] bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

[[nodiscard]] bool in_region(std::size_t tok, std::size_t begin, std::size_t end) {
  return tok >= begin && tok <= end;
}

// Taxonomy types R13 tracks: the allowed throw set minus InternalError
// (invariant breaches are bugs, not API contract).
[[nodiscard]] bool is_taxonomy_type(const std::string& type, const Config& cfg) {
  return type != "InternalError" && ends_with(type, "Error") &&
         contains(cfg.allowed_throw_types, type);
}

// Remove from `set` what the try regions covering `tok` catch.
void filter_caught(const FunctionDecl& f, std::size_t tok, std::set<std::string>* set) {
  for (const TryRegion& tr : f.tries) {
    if (!in_region(tok, tr.body_begin, tr.body_end)) continue;
    if (tr.catches_all) {
      set->clear();
      return;
    }
    for (const std::string& c : tr.caught) set->erase(c);
  }
}

}  // namespace

std::size_t RepoIndex::fn_id(const FnRef& r) const { return offsets_[r.file] + r.fn; }

RepoIndex RepoIndex::build(std::vector<FileIndex> files, const Config& config) {
  RepoIndex idx;
  idx.files_ = std::move(files);
  for (std::size_t fi = 0; fi < idx.files_.size(); ++fi) {
    idx.offsets_.push_back(idx.fn_refs_.size());
    for (const std::string& ns : idx.files_[fi].namespaces) idx.namespaces_.insert(ns);
    for (std::size_t k = 0; k < idx.files_[fi].functions.size(); ++k)
      idx.fn_refs_.push_back({fi, k});
  }
  for (std::size_t id = 0; id < idx.fn_refs_.size(); ++id)
    idx.by_name_[idx.fn(idx.fn_refs_[id]).name].push_back(id);
  idx.finalize_methods();
  idx.resolve_all(config);
  idx.run_fixpoints(config);
  idx.build_include_graph();
  return idx;
}

void RepoIndex::finalize_methods() {
  // A definition is a method if it sits in a class scope, or if it is an
  // out-of-line `Class::f` whose last explicit qualifier is not a known
  // namespace name anywhere in the repo.
  method_.assign(fn_refs_.size(), false);
  for (std::size_t id = 0; id < fn_refs_.size(); ++id) {
    const FunctionDecl& f = fn(fn_refs_[id]);
    bool m = f.is_method;
    if (!m && !f.explicit_quals.empty() && !is_namespace(f.explicit_quals.back())) m = true;
    method_[id] = m;
  }
}

std::vector<FnRef> RepoIndex::resolve(const CallRef& call, const FnRef& caller) const {
  std::vector<FnRef> out;
  const auto it = by_name_.find(call.name);
  if (it == by_name_.end()) return out;
  const FunctionDecl& caller_fn = fn(caller);
  const std::size_t caller_file = caller.file;
  // C++ unqualified lookup stops at the innermost scope that declares the
  // name: a sibling method of the caller's own class shadows every
  // namespace-scope function of the same name. Detect that case first so
  // `solve(col)` inside Lu::solve never picks up free qbd::solve.
  bool has_sibling_method = false;
  if (!call.is_method && call.qualifier.empty() && !caller_fn.scope.empty())
    for (std::size_t id : it->second) {
      const FnRef& ref = fn_refs_[id];
      if (method_[id] && fn(ref).scope == caller_fn.scope &&
          (!fn(ref).internal || ref.file == caller_file))
        has_sibling_method = true;
    }
  for (std::size_t id : it->second) {
    const FnRef& ref = fn_refs_[id];
    const FunctionDecl& cand = fn(ref);
    if (cand.internal && ref.file != caller_file) continue;
    if (call.is_method) {
      if (!method_[id]) continue;
    } else if (call.qualifier.empty()) {
      // Unqualified: free functions, plus sibling methods of the caller's
      // own class (`helper()` inside another method of the same scope) —
      // and when a sibling exists it shadows the free functions entirely.
      if (method_[id] && cand.scope != caller_fn.scope) continue;
      if (has_sibling_method && !method_[id]) continue;
    } else {
      // `Q::f(...)`: Q must appear in the candidate's scope chain or its
      // explicit qualifiers (matches both namespaces and class statics).
      if (call.qualifier == "std") continue;  // never repo code
      const std::vector<std::string> scope = split_scope(cand.scope);
      if (!contains(scope, call.qualifier) &&
          !contains(cand.explicit_quals, call.qualifier))
        continue;
    }
    out.push_back(ref);
  }
  return out;
}

void RepoIndex::resolve_all(const Config&) {
  resolved_.resize(fn_refs_.size());
  for (std::size_t id = 0; id < fn_refs_.size(); ++id) {
    const FnRef& ref = fn_refs_[id];
    const FunctionDecl& f = fn(ref);
    resolved_[id].resize(f.calls.size());
    for (std::size_t c = 0; c < f.calls.size(); ++c)
      for (const FnRef& callee : resolve(f.calls[c], ref))
        resolved_[id][c].push_back(fn_id(callee));
  }
}

void RepoIndex::run_fixpoints(const Config& config) {
  const std::size_t n = fn_refs_.size();
  escapes_.assign(n, {});
  polls_.assign(n, false);
  reaches_kernel_.assign(n, false);

  // Seeds.
  for (std::size_t id = 0; id < n; ++id) {
    const FnRef& ref = fn_refs_[id];
    const FunctionDecl& f = fn(ref);
    polls_[id] = f.polls_budget;
    if (contains(config.iterative_kernels, f.name) &&
        contains(config.iterative_kernel_modules, files_[ref.file].module))
      reaches_kernel_[id] = true;
    for (const ThrowRef& th : f.throws) {
      if (!is_taxonomy_type(th.type, config)) continue;
      std::set<std::string> one = {th.type};
      filter_caught(f, th.tok, &one);
      escapes_[id].insert(one.begin(), one.end());
    }
  }

  // Propagate through resolved calls until stable. Unresolved calls
  // contribute nothing (see the conservatism note in callgraph.h).
  bool changed = true;
  int guard = 0;
  while (changed && ++guard < 64) {
    changed = false;
    for (std::size_t id = 0; id < n; ++id) {
      const FunctionDecl& f = fn(fn_refs_[id]);
      for (std::size_t c = 0; c < f.calls.size(); ++c) {
        for (std::size_t callee : resolved_[id][c]) {
          if (polls_[callee] && !polls_[id]) {
            polls_[id] = true;
            changed = true;
          }
          if (reaches_kernel_[callee] && !reaches_kernel_[id]) {
            reaches_kernel_[id] = true;
            changed = true;
          }
          if (!escapes_[callee].empty()) {
            std::set<std::string> in = escapes_[callee];
            filter_caught(f, f.calls[c].tok, &in);
            for (const std::string& e : in)
              if (escapes_[id].insert(e).second) changed = true;
          }
        }
      }
    }
  }
}

void RepoIndex::build_include_graph() {
  std::map<std::string, std::size_t> by_rel;
  for (std::size_t fi = 0; fi < files_.size(); ++fi) by_rel[files_[fi].rel] = fi;

  include_edges_.assign(files_.size(), {});
  for (std::size_t fi = 0; fi < files_.size(); ++fi) {
    const std::string& rel = files_[fi].rel;
    const std::size_t slash = rel.rfind('/');
    const std::string dir = slash == std::string::npos ? "" : rel.substr(0, slash + 1);
    for (const IncludeRef& inc : files_[fi].includes) {
      if (inc.system) continue;
      // Quoted includes resolve against src/ (the repo include root) or the
      // including file's own directory.
      std::size_t target = files_.size();
      for (const std::string& cand : {"src/" + inc.target, dir + inc.target, inc.target}) {
        const auto it = by_rel.find(cand);
        if (it != by_rel.end()) {
          target = it->second;
          break;
        }
      }
      if (target < files_.size()) include_edges_[fi].push_back(target);
    }
  }

  // Tarjan SCC over the include edges; components of size > 1 (or with a
  // self-loop) are cycles.
  const std::size_t n = files_.size();
  std::vector<int> index(n, -1);
  std::vector<int> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  int next = 0;

  struct Frame {
    std::size_t v;
    std::size_t edge;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] >= 0) continue;
    std::vector<Frame> call_stack = {{root, 0}};
    index[root] = low[root] = next++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& fr = call_stack.back();
      if (fr.edge < include_edges_[fr.v].size()) {
        const std::size_t w = include_edges_[fr.v][fr.edge++];
        if (index[w] < 0) {
          index[w] = low[w] = next++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          low[fr.v] = std::min(low[fr.v], index[w]);
        }
      } else {
        if (low[fr.v] == index[fr.v]) {
          std::vector<std::size_t> comp;
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp.push_back(w);
            if (w == fr.v) break;
          }
          bool self_loop = false;
          for (const std::size_t w : include_edges_[fr.v])
            if (w == fr.v) self_loop = true;
          if (comp.size() > 1 || self_loop) {
            std::sort(comp.begin(), comp.end(), [&](std::size_t a, std::size_t b) {
              return files_[a].rel < files_[b].rel;
            });
            include_cycles_.push_back(std::move(comp));
          }
        }
        const std::size_t v = fr.v;
        call_stack.pop_back();
        if (!call_stack.empty())
          low[call_stack.back().v] = std::min(low[call_stack.back().v], low[v]);
      }
    }
  }
  std::sort(include_cycles_.begin(), include_cycles_.end(),
            [&](const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
              return files_[a.front()].rel < files_[b.front()].rel;
            });
}

// --- Rules ------------------------------------------------------------------

namespace {

// R13 throw-flow: for each src/ header, compare the `Throws csq::X` contract
// against the taxonomy errors that can actually escape the public functions
// of the header and its implementation file — thrown directly there or
// arriving through callees — and flag stale documented entries.
void rule_throw_flow(const std::vector<SourceFile>& files, const RepoIndex& repo,
                     const Config& cfg, std::vector<Finding>* out) {
  std::map<std::string, std::vector<std::size_t>> by_stem;  // src/ stems
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& rel = files[fi].rel;
    if (!starts_with(rel, "src/")) continue;
    by_stem[rel.substr(0, rel.rfind('.'))].push_back(fi);
  }
  for (const auto& [stem, members] : by_stem) {
    const SourceFile* header = nullptr;
    for (std::size_t fi : members)
      if (files[fi].is_header) header = &files[fi];
    if (header == nullptr) continue;

    // Computed reality over the pair: errors escaping any public function,
    // and the ones thrown directly somewhere in the pair (which picks the
    // finding's wording and backs a documented entry).
    std::set<std::string> escaping;
    std::set<std::string> direct;
    std::map<std::string, std::string> witness;  // error -> function name
    for (std::size_t fi : members) {
      const FileIndex& fx = repo.files()[fi];
      for (std::size_t k = 0; k < fx.functions.size(); ++k) {
        const FunctionDecl& f = fx.functions[k];
        for (const ThrowRef& th : f.throws)
          if (is_taxonomy_type(th.type, cfg)) direct.insert(th.type);
        if (f.internal || f.name == "main") continue;
        const std::size_t id = repo.fn_id({fi, k});
        for (const std::string& e : repo.escapes(id)) {
          escaping.insert(e);
          witness.emplace(e, f.name);
        }
      }
    }

    // Undocumented: escapes the header never mentions.
    for (const std::string& e : escaping) {
      if (header->content.find(e) != std::string::npos) continue;
      const char* how = direct.count(e) != 0 ? "()" : "() via its callees";
      out->push_back({header->path, 1, "throw-flow",
                      "csq::" + e + " can escape " + witness[e] + how +
                          " but is not documented here — add a `Throws csq::" + e +
                          "` note to the API comment"});
    }

    // Stale: explicit `Throws csq::X` entries no computed or direct throw
    // backs up. InternalError entries are never required, never stale.
    const std::string& text = header->content;
    const std::string tag = "Throws csq::";
    std::size_t pos = 0;
    while ((pos = text.find(tag, pos)) != std::string::npos) {
      std::size_t e = pos + tag.size();
      std::string type;
      while (e < text.size() &&
             ((std::isalnum(static_cast<unsigned char>(text[e])) != 0) || text[e] == '_'))
        type += text[e++];
      const int line =
          1 + static_cast<int>(std::count(text.begin(), text.begin() + static_cast<long>(pos), '\n'));
      if (!type.empty() && type != "InternalError" && is_taxonomy_type(type, cfg) &&
          escaping.count(type) == 0 && direct.count(type) == 0)
        out->push_back({header->path, line, "throw-flow",
                        "stale contract: `Throws csq::" + type + "` but csq::" + type +
                            " is neither thrown here nor able to escape through the "
                            "call graph — drop the entry or restore the throw"});
      pos = e;
    }
  }
}

// R14 deadline-poll: a loop in the solver/simulator directories whose body
// reaches an iterative kernel must poll the RunBudget/CancelToken — either
// in the loop itself or inside the (transitively) called kernel. Unresolved
// calls never count as polling, so a loop is only accepted on evidence.
void rule_deadline_poll(const std::vector<SourceFile>& files, const RepoIndex& repo,
                        const Config& cfg, std::vector<Finding>* out) {
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    bool in_scope = false;
    for (const std::string& d : cfg.deadline_poll_dirs)
      if (starts_with(files[fi].rel, d)) in_scope = true;
    if (!in_scope) continue;
    const FileIndex& fx = repo.files()[fi];
    for (std::size_t k = 0; k < fx.functions.size(); ++k) {
      const FunctionDecl& f = fx.functions[k];
      const std::size_t id = repo.fn_id({fi, k});
      for (const LoopRef& loop : f.loops) {
        bool polls_in_loop = false;
        for (std::size_t p : f.poll_toks)
          if (in_region(p, loop.body_begin, loop.body_end)) polls_in_loop = true;
        if (polls_in_loop) continue;
        // First kernel-reaching call whose candidates do not themselves poll.
        for (std::size_t c = 0; c < f.calls.size(); ++c) {
          const CallRef& call = f.calls[c];
          if (!in_region(call.tok, loop.body_begin, loop.body_end)) continue;
          bool reaches = false;
          bool callee_polls = false;
          for (std::size_t callee : repo.resolved(id, c)) {
            if (repo.reaches_kernel(callee)) reaches = true;
            if (repo.polls(callee)) callee_polls = true;
          }
          if (reaches && !callee_polls) {
            out->push_back({files[fi].path, call.line, "deadline-poll",
                            "loop reaches the iterative kernel via " + call.name +
                                "() but neither the loop nor the callee polls the "
                                "RunBudget/CancelToken — add a budget.check()/"
                                "interrupted() poll"});
            break;  // one finding per loop
          }
        }
      }
    }
  }
}

// R16 atomic-order: every relaxed/acquire/release/acq_rel order in the
// concurrency directories needs a nearby ordering-rationale comment, and a
// bare seq_cst inside a src/parallel/ loop (the hot paths) is flagged too —
// either justify the full fence or relax it with a rationale.
void rule_atomic_order(const std::vector<SourceFile>& files, const RepoIndex& repo,
                       const Config& cfg, std::vector<Finding>* out) {
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    bool in_scope = false;
    for (const std::string& d : cfg.atomic_order_dirs)
      if (starts_with(files[fi].rel, d)) in_scope = true;
    if (!in_scope) continue;
    const bool hot_dir = starts_with(files[fi].rel, "src/parallel/");
    const FileIndex& fx = repo.files()[fi];
    for (const FunctionDecl& f : fx.functions) {
      for (const AtomicOrderRef& a : f.atomics) {
        if (a.justified) continue;
        if (a.order != "seq_cst") {
          out->push_back({files[fi].path, a.line, "atomic-order",
                          "memory_order_" + a.order + " without an ordering rationale "
                              "— add a comment stating why this relaxation is safe"});
        } else if (hot_dir && a.in_loop) {
          out->push_back({files[fi].path, a.line, "atomic-order",
                          "seq_cst atomic inside a hot loop — justify the full "
                              "fence in a comment or relax it with a rationale"});
        }
      }
    }
  }
}

// R17 module-layering: `#include` edges must point down the module DAG, and
// include cycles are findings. Cross-cutting modules (obs) may be included
// from anywhere.
void rule_module_layering(const std::vector<SourceFile>& files, const RepoIndex& repo,
                          const Config& cfg, std::vector<Finding>* out) {
  const auto rank_of = [&](const std::string& module) {
    const auto it = cfg.module_ranks.find(module);
    return it == cfg.module_ranks.end() ? -1 : it->second;
  };
  std::map<std::string, std::size_t> by_rel;
  for (std::size_t fi = 0; fi < files.size(); ++fi) by_rel[files[fi].rel] = fi;

  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const FileIndex& fx = repo.files()[fi];
    const int my_rank = rank_of(fx.module);
    if (my_rank < 0) continue;
    for (const IncludeRef& inc : fx.includes) {
      if (inc.system) continue;
      // Module of the include target: leading path segment of the spelled
      // target (the repo convention is `#include "module/file.h"`).
      const std::size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;  // same-dir include
      const std::string target_module = inc.target.substr(0, slash);
      if (target_module == fx.module) continue;
      if (contains(cfg.cross_cutting_modules, target_module)) continue;
      const int target_rank = rank_of(target_module);
      if (target_rank < 0) continue;
      if (target_rank > my_rank)
        out->push_back({files[fi].path, inc.line, "module-layering",
                        "`" + fx.module + "` (layer " + std::to_string(my_rank) +
                            ") includes `" + inc.target + "` from higher layer `" +
                            target_module + "` (layer " + std::to_string(target_rank) +
                            ") — the module DAG points the other way"});
    }
  }

  for (const std::vector<std::size_t>& cycle : repo.include_cycles()) {
    std::string path;
    for (std::size_t m : cycle) {
      if (!path.empty()) path += " -> ";
      path += repo.files()[m].rel;
    }
    const std::size_t anchor = cycle.front();
    int line = 1;
    for (const IncludeRef& inc : repo.files()[anchor].includes)
      if (!inc.system) {
        line = inc.line;
        break;
      }
    out->push_back({files[anchor].path, line, "module-layering",
                    "include cycle: " + path + " — break the cycle with a forward "
                        "declaration or an interface split"});
  }
}

}  // namespace

std::string index_selftest(bool* ok) {
  bool pass = true;
  std::ostringstream report;
  const auto check = [&](bool cond, const std::string& what) {
    report << (cond ? "ok:   " : "FAIL: ") << what << "\n";
    if (!cond) pass = false;
  };

  // Synthetic three-file repo: an iterative kernel that polls and throws, a
  // header-defined method sharing the kernel's name, and a caller file.
  const std::string lu_h =
      "#pragma once\n"
      "namespace csq { namespace linalg {\n"
      "class Lu {\n"
      " public:\n"
      "  int solve(int b) { return b + 1; }\n"
      "};\n"
      "} }\n";
  const std::string qbd_cc =
      "#include \"linalg/lu.h\"\n"
      "namespace csq { namespace qbd {\n"
      "int solve(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    if (budget.interrupted()) break;\n"
      "  }\n"
      "  if (n < 0) throw NotConvergedError(\"no\");\n"
      "  return n;\n"
      "} } }\n";
  const std::string sweep_cc =
      "namespace csq {\n"
      "int sweep_all(int n) { return qbd::solve(n); }\n"
      "int sweep_safe(int n) {\n"
      "  try {\n"
      "    return qbd::solve(n);\n"
      "  } catch (const NotConvergedError& e) {\n"
      "    return 0;\n"
      "  }\n"
      "}\n"
      "int sweep_method(Lu& lu, int n) { return lu.solve(n); }\n"
      "int sweep_external(int n) { return external_helper(n); }\n"
      "}\n";
  // Include cycle pair.
  const std::string x_h = "#pragma once\n#include \"a/y.h\"\n";
  const std::string y_h = "#pragma once\n#include \"a/x.h\"\n";

  std::vector<SourceFile> files;
  files.push_back(scan_source("src/linalg/lu.h", "src/linalg/lu.h", lu_h));
  files.push_back(scan_source("src/qbd/qbd.cc", "src/qbd/qbd.cc", qbd_cc));
  files.push_back(scan_source("src/core/sweep.cc", "src/core/sweep.cc", sweep_cc));
  files.push_back(scan_source("src/a/x.h", "src/a/x.h", x_h));
  files.push_back(scan_source("src/a/y.h", "src/a/y.h", y_h));

  std::vector<FileIndex> indexes;
  for (const SourceFile& f : files) indexes.push_back(build_file_index(f));
  const Config cfg;
  const RepoIndex repo = RepoIndex::build(std::move(indexes), cfg);
  const std::vector<FileIndex>& indexed = repo.files();

  // --- extraction --------------------------------------------------------
  check(indexed[0].functions.size() == 1 && indexed[0].functions[0].name == "solve" &&
            indexed[0].functions[0].is_method,
        "inline class method extracted as a method");
  check(indexed[1].functions.size() == 1 && indexed[1].functions[0].scope == "csq::qbd",
        "namespace scope chain recovered for the kernel");
  check(indexed[1].functions[0].polls_budget, "interrupted() poll detected");
  check(indexed[1].functions[0].throws.size() == 1 &&
            indexed[1].functions[0].throws[0].type == "NotConvergedError",
        "throw site type extracted");
  check(indexed[2].functions.size() == 4, "all four caller functions extracted");

  // --- symbol resolution -------------------------------------------------
  const auto fn_named = [&](std::size_t file, const std::string& name) {
    for (std::size_t k = 0; k < indexed[file].functions.size(); ++k)
      if (indexed[file].functions[k].name == name) return FnRef{file, k};
    return FnRef{file, indexed[file].functions.size()};
  };
  const FnRef sweep_all = fn_named(2, "sweep_all");
  const FnRef sweep_safe = fn_named(2, "sweep_safe");
  const FnRef sweep_method = fn_named(2, "sweep_method");
  const FnRef sweep_external = fn_named(2, "sweep_external");
  {
    const FunctionDecl& f = repo.fn(sweep_all);
    check(f.calls.size() == 1, "sweep_all has one call site");
    const std::vector<FnRef> cands = repo.resolve(f.calls[0], sweep_all);
    check(cands.size() == 1 && cands[0].file == 1,
          "qbd::solve resolves only to the free kernel, not the Lu method");
  }
  {
    const FunctionDecl& f = repo.fn(sweep_method);
    const std::vector<FnRef> cands = repo.resolve(f.calls.back(), sweep_method);
    check(cands.size() == 1 && cands[0].file == 0,
          "lu.solve() resolves only to the Lu method, not the free kernel");
  }

  // --- fixpoints ----------------------------------------------------------
  check(repo.escapes(repo.fn_id(sweep_all)).count("NotConvergedError") == 1,
        "NotConvergedError propagates to the uncaught caller");
  check(repo.escapes(repo.fn_id(sweep_safe)).empty(),
        "catch (NotConvergedError&) stops the propagation");
  check(repo.polls(repo.fn_id(sweep_all)), "polling propagates through the call");
  check(repo.reaches_kernel(repo.fn_id(sweep_all)), "kernel reachability propagates");

  // --- conservatism on unresolved calls -----------------------------------
  const std::size_t ext = repo.fn_id(sweep_external);
  check(repo.escapes(ext).empty() && !repo.polls(ext) && !repo.reaches_kernel(ext),
        "unresolved external_helper() supplies no property (may do anything)");

  // --- include-graph cycles ------------------------------------------------
  check(repo.include_cycles().size() == 1 && repo.include_cycles()[0].size() == 2,
        "x.h <-> y.h include cycle detected as one 2-file SCC");

  if (ok != nullptr) *ok = pass;
  return report.str();
}

void run_semantic_rules(const std::vector<SourceFile>& files, const Config& config,
                        std::vector<Finding>* out) {
  std::vector<FileIndex> indexes;
  indexes.reserve(files.size());
  for (const SourceFile& f : files) indexes.push_back(build_file_index(f));
  const RepoIndex repo = RepoIndex::build(std::move(indexes), config);
  rule_throw_flow(files, repo, config, out);
  rule_deadline_poll(files, repo, config, out);
  rule_atomic_order(files, repo, config, out);
  rule_module_layering(files, repo, config, out);
}

}  // namespace csq::lint
