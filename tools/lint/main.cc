// csq_lint — command-line driver for the project lint pass (tools/lint/).
//
//   csq_lint [flags] [paths...]        lint .h/.cc files (default: src tools)
//   csq_lint --list-rules              print the rule catalog and exit
//   csq_lint --explain RULE            print the full rationale for one rule
//
// Flags:
//   --root DIR        resolve paths against DIR (default: current directory)
//
// Paths may be files or directories (walked recursively for *.h / *.cc).
// Findings print one per line on stdout as `file:line: [rule-id] message`.
//
// Exit codes follow the taxonomy table (csq::exit_code): 0 clean, 2
// invalid input (unknown flag, unreadable or missing path — the offending
// path is named), 6 findings reported (the codebase failed verification
// against the project invariants).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/status.h"
#include "lint.h"

namespace {

namespace fs = std::filesystem;
using csq::lint::Finding;
using csq::lint::SourceFile;

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
    if (arg == "--root") {
      if (i + 1 >= argc) throw csq::InvalidInputError("csq_lint: --root needs a directory");
      root = fs::path(argv[++i]);
      root_given = true;
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

  const std::vector<Finding> findings = csq::lint::run_rules(files);
  for (const Finding& f : findings) std::cout << csq::lint::format_finding(f) << "\n";
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
