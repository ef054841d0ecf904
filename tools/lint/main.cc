// csq_lint — command-line driver for the project lint pass (tools/lint/).
//
//   csq_lint [flags] [paths...]        lint .h/.cc files (default: src tools)
//   csq_lint --list-rules              print the rule catalog and exit
//   csq_lint --explain RULE            print the full rationale for one rule
//   csq_lint --selftest                suppression-parser + semantic-index self-tests
//
// Flags:
//   --root DIR        resolve paths against DIR (default: current directory)
//   --format=FMT      text (default) | json | sarif
//   --baseline FILE   grandfathered findings (default: ROOT/lint_baseline.json
//                     when present); exact-count matching, see tools/lint/sarif.h
//   --no-baseline     ignore any baseline file
//   --cache FILE      incremental semantic-index cache (loaded if present,
//                     rewritten after the run)
//
// Paths may be files or directories (walked recursively for *.h / *.cc).
// Findings print one per line as `file:line: [rule-id] message` (text), or
// as a JSON/SARIF document on stdout.
//
// Exit codes follow the csq_cli taxonomy: 0 clean, 2 invalid input (unknown
// flag, unreadable or missing path — the offending path is named), 6
// findings reported (the codebase failed verification against the project
// invariants).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph.h"
#include "core/status.h"
#include "index.h"
#include "lint.h"
#include "sarif.h"

namespace {

namespace fs = std::filesystem;
using csq::lint::Finding;
using csq::lint::SourceFile;

// Exit code per taxonomy code, mirroring csq_cli (documented in the header
// comment above).
[[nodiscard]] int exit_code(csq::ErrorCode code) {
  switch (code) {
    case csq::ErrorCode::kOk: return 0;
    case csq::ErrorCode::kInvalidInput: return 2;
    case csq::ErrorCode::kUnstable: return 3;
    case csq::ErrorCode::kNotConverged: return 4;
    case csq::ErrorCode::kIllConditioned: return 5;
    case csq::ErrorCode::kVerificationFailed: return 6;
    case csq::ErrorCode::kDeadlineExceeded: return 7;
    case csq::ErrorCode::kCancelled: return 8;
    case csq::ErrorCode::kOverloaded: return 9;
    case csq::ErrorCode::kCorruptJournal: return 10;
    case csq::ErrorCode::kInternal: return 1;
  }
  return 1;
}

[[nodiscard]] bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

[[nodiscard]] std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw csq::InvalidInputError("csq_lint: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Repo-relative path with '/' separators, for rule scoping.
[[nodiscard]] std::string rel_path(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  std::string r = fs::relative(p, root, ec).generic_string();
  return ec ? p.generic_string() : r;
}

// Walk `target` collecting lintable sources. Every filesystem failure —
// missing path, unreadable directory, unreadable file — is an
// InvalidInputError naming the offending path; nothing is silently skipped.
void collect(const fs::path& target, const fs::path& root, std::vector<SourceFile>* out) {
  std::error_code ec;
  if (fs::is_directory(target, ec)) {
    std::vector<fs::path> paths;
    fs::recursive_directory_iterator it(target, ec);
    if (ec)
      throw csq::InvalidInputError("csq_lint: cannot open directory " + target.string() +
                                   ": " + ec.message());
    for (fs::recursive_directory_iterator end; it != end; it.increment(ec)) {
      if (ec)
        throw csq::InvalidInputError("csq_lint: cannot walk " + target.string() + ": " +
                                     ec.message());
      if (it->is_regular_file(ec) && lintable(it->path())) paths.push_back(it->path());
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& p : paths)
      out->push_back(csq::lint::scan_source(p.string(), rel_path(p, root), slurp(p)));
    return;
  }
  if (fs::is_regular_file(target, ec)) {
    out->push_back(
        csq::lint::scan_source(target.string(), rel_path(target, root), slurp(target)));
    return;
  }
  throw csq::InvalidInputError("csq_lint: no such file or directory: " + target.string());
}

int run(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool root_given = false;
  std::string format = "text";
  std::string baseline_flag;  // explicit --baseline FILE
  bool no_baseline = false;
  std::string cache_file;
  std::vector<std::string> targets;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const csq::lint::RuleInfo& r : csq::lint::rules())
        std::cout << r.id << "\t" << r.summary << "\n";
      return 0;
    }
    if (arg == "--explain") {
      if (i + 1 >= argc) throw csq::InvalidInputError("csq_lint: --explain needs a rule id");
      const std::string id = argv[++i];
      for (const csq::lint::RuleInfo& r : csq::lint::rules())
        if (id == r.id) {
          std::cout << r.id << " — " << r.summary << "\n\n" << r.detail << "\n";
          return 0;
        }
      throw csq::InvalidInputError("csq_lint: unknown rule `" + id +
                                   "` (see --list-rules)");
    }
    if (arg == "--selftest") {
      bool sup_ok = false;
      bool idx_ok = false;
      std::cout << "--- suppression parser ---\n"
                << csq::lint::suppression_selftest(&sup_ok)
                << "--- semantic index / call graph ---\n"
                << csq::lint::index_selftest(&idx_ok);
      return (sup_ok && idx_ok) ? 0 : exit_code(csq::ErrorCode::kVerificationFailed);
    }
    if (arg == "--root") {
      if (i + 1 >= argc) throw csq::InvalidInputError("csq_lint: --root needs a directory");
      root = fs::path(argv[++i]);
      root_given = true;
      continue;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json" && format != "sarif")
        throw csq::InvalidInputError("csq_lint: unknown format `" + format +
                                     "` (text|json|sarif)");
      continue;
    }
    if (arg == "--baseline") {
      if (i + 1 >= argc) throw csq::InvalidInputError("csq_lint: --baseline needs a file");
      baseline_flag = argv[++i];
      continue;
    }
    if (arg == "--no-baseline") {
      no_baseline = true;
      continue;
    }
    if (arg == "--cache") {
      if (i + 1 >= argc) throw csq::InvalidInputError("csq_lint: --cache needs a file");
      cache_file = argv[++i];
      continue;
    }
    if (arg.rfind("--", 0) == 0)
      throw csq::InvalidInputError("csq_lint: unknown flag " + arg);
    targets.push_back(arg);
  }
  if (targets.empty()) targets = {"src", "tools"};

  {
    std::error_code ec;
    if (root_given && !fs::is_directory(root, ec))
      throw csq::InvalidInputError("csq_lint: --root is not a directory: " + root.string());
  }

  std::vector<SourceFile> files;
  for (const std::string& t : targets) collect(root / t, root, &files);

  // serve-hygiene (R11): the serve metric catalog the serve.* names are
  // checked against. A missing catalog file leaves the text empty, which
  // flags every serve.* metric — the catalog is part of the contract.
  csq::lint::Config config;
  const fs::path serve_docs = root / config.serve_metric_docs_name;
  std::error_code docs_ec;
  if (fs::is_regular_file(serve_docs, docs_ec)) config.serve_metric_docs = slurp(serve_docs);

  // Incremental semantic-index cache: tolerant load (a stale or foreign
  // file is simply rebuilt), best-effort save.
  csq::lint::IndexCache cache;
  if (!cache_file.empty()) {
    std::error_code ec;
    if (fs::is_regular_file(cache_file, ec)) (void)cache.load(slurp(cache_file));
  }

  std::vector<Finding> findings = csq::lint::run_rules(
      files, config, cache_file.empty() ? nullptr : &cache);

  if (!cache_file.empty()) {
    std::ofstream out(cache_file, std::ios::binary | std::ios::trunc);
    if (out)
      out << cache.serialize();
    else
      std::cerr << "csq_lint: warning: cannot write cache " << cache_file << "\n";
  }

  // Baseline: an explicit --baseline FILE must exist; the default
  // ROOT/lint_baseline.json applies only when present.
  if (!no_baseline) {
    fs::path baseline_path = baseline_flag.empty() ? root / "lint_baseline.json"
                                                   : fs::path(baseline_flag);
    std::error_code ec;
    const bool exists = fs::is_regular_file(baseline_path, ec);
    if (!baseline_flag.empty() && !exists)
      throw csq::InvalidInputError("csq_lint: baseline not found: " +
                                   baseline_path.string());
    if (exists) {
      std::vector<csq::lint::BaselineEntry> entries;
      std::string error;
      if (!csq::lint::load_baseline(slurp(baseline_path), &entries, &error))
        throw csq::InvalidInputError("csq_lint: bad baseline " + baseline_path.string() +
                                     ": " + error);
      findings = csq::lint::apply_baseline(std::move(findings), entries,
                                           rel_path(baseline_path, root));
    }
  }

  if (format == "json") {
    std::cout << csq::lint::to_json(findings) << "\n";
  } else if (format == "sarif") {
    std::cout << csq::lint::to_sarif(findings) << "\n";
  } else {
    for (const Finding& f : findings) std::cout << csq::lint::format_finding(f) << "\n";
  }
  if (findings.empty()) {
    std::cerr << "csq_lint: " << files.size() << " files clean\n";
    return 0;
  }
  std::cerr << "csq_lint: " << findings.size() << " finding(s) in " << files.size()
            << " files\n";
  return exit_code(csq::ErrorCode::kVerificationFailed);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const csq::Error& e) {
    std::cerr << e.status().message << "\n";
    return exit_code(e.status().code);
  } catch (const std::exception& e) {
    std::cerr << "csq_lint: " << e.what() << "\n";
    return 1;
  }
}
