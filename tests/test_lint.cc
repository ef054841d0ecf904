// Drives the csq_lint pass (tools/lint/) as a library: every rule is proven
// by a seeded-violation fixture in tests/lint_fixtures/ with exact rule-id
// and line assertions, and each has a clean twin that must produce nothing.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "callgraph.h"
#include "lint.h"

namespace {

using csq::lint::Config;
using csq::lint::Finding;
using csq::lint::SourceFile;
using csq::lint::TokKind;

// CSQ_LINT_FIXTURE_DIR is injected by tests/CMakeLists.txt.
SourceFile fixture(const std::string& name, const std::string& rel) {
  const std::string path = std::string(CSQ_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return csq::lint::scan_source(name, rel, ss.str());
}

std::vector<Finding> lint_one(const std::string& name, const std::string& rel,
                              const Config& cfg = {}) {
  std::vector<SourceFile> files = {fixture(name, rel)};
  return csq::lint::run_rules(files, cfg);
}

// Multi-file variant for the cross-TU rules (R13, R16): each {fixture, rel}
// pair is scanned and the whole set linted together.
std::vector<Finding> lint_set(const std::vector<std::pair<std::string, std::string>>& specs,
                              const Config& cfg = {}) {
  std::vector<SourceFile> files;
  for (const auto& spec : specs) files.push_back(fixture(spec.first, spec.second));
  return csq::lint::run_rules(files, cfg);
}

std::vector<Finding> by_rule(const std::vector<Finding>& fs, const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : fs)
    if (f.rule == rule) out.push_back(f);
  return out;
}

// --- Tokenizer -------------------------------------------------------------

TEST(LintScanner, SkipsCommentsStringsAndDirectives) {
  const SourceFile f = csq::lint::scan_source(
      "<mem>", "<mem>",
      "#include <vector>\n"
      "int x = 1;  // trailing == comment\n"
      "/* block == */ const char* s = \"a == b\";\n");
  for (const csq::lint::Token& t : f.tokens)
    EXPECT_NE(t.text, "==") << "matched inside comment or string";
  ASSERT_EQ(f.directives.size(), 1u);
  EXPECT_EQ(f.directives[0].text, "#include <vector>");
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_FALSE(f.comments[0].own_line);  // trails `int x = 1;`
  EXPECT_EQ(f.comments[1].line, 3);
  // The string literal is one token, contents untouched.
  bool saw_string = false;
  for (const csq::lint::Token& t : f.tokens)
    if (t.kind == TokKind::kString) {
      saw_string = true;
      EXPECT_EQ(t.text, "\"a == b\"");
    }
  EXPECT_TRUE(saw_string);
}

TEST(LintScanner, TracksLinesAndMultiCharPunct) {
  const SourceFile f =
      csq::lint::scan_source("<mem>", "<mem>", "a\n<=\n...\ncatch(...)\n");
  ASSERT_GE(f.tokens.size(), 4u);
  EXPECT_EQ(f.tokens[0].line, 1);
  EXPECT_EQ(f.tokens[1].text, "<=");
  EXPECT_EQ(f.tokens[1].line, 2);
  EXPECT_EQ(f.tokens[2].text, "...");
  EXPECT_EQ(f.tokens[3].text, "catch");
  EXPECT_EQ(f.tokens[3].line, 4);
}

TEST(LintFormat, FileLineRuleMessage) {
  EXPECT_EQ(csq::lint::format_finding({"a/b.cc", 7, "raw-throw", "boom"}),
            "a/b.cc:7: [raw-throw] boom");
}

// --- Rules, one seeded fixture + clean twin each ---------------------------

TEST(LintRules, RawThrow) {
  const std::vector<Finding> fs = lint_one("raw_throw_bad.cc", "src/x/raw_throw_bad.cc");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "raw-throw");
  EXPECT_EQ(fs[0].line, 5);
  EXPECT_TRUE(lint_one("raw_throw_clean.cc", "src/x/raw_throw_clean.cc").empty());
}

TEST(LintRules, RawThrowSkipsTests) {
  EXPECT_TRUE(lint_one("raw_throw_bad.cc", "tests/raw_throw_bad.cc").empty());
}

TEST(LintRules, Nondeterminism) {
  const std::vector<Finding> fs = lint_one("nondet_bad.cc", "src/sim/nondet_bad.cc");
  ASSERT_EQ(fs.size(), 3u);
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "nondeterminism");
  EXPECT_EQ(fs[0].line, 7);   // std::random_device
  EXPECT_EQ(fs[1].line, 8);   // steady_clock::now()
  EXPECT_EQ(fs[2].line, 10);  // time(nullptr)
  EXPECT_TRUE(lint_one("nondet_clean.cc", "src/sim/nondet_clean.cc").empty());
  // The same file outside a deterministic dir is not the rule's business.
  EXPECT_TRUE(lint_one("nondet_bad.cc", "src/analysis/nondet_bad.cc").empty());
}

TEST(LintRules, HeaderHygiene) {
  const std::vector<Finding> fs = lint_one("header_bad.h", "src/x/header_bad.h");
  ASSERT_EQ(fs.size(), 3u);
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "header-hygiene");
  EXPECT_EQ(fs[0].line, 1);  // missing #pragma once
  EXPECT_EQ(fs[1].line, 5);  // using namespace
  EXPECT_EQ(fs[2].line, 8);  // std::vector without <vector>
  EXPECT_TRUE(lint_one("header_clean.h", "src/x/header_clean.h").empty());
}

// A header that omits an error its .cc throws directly: throw-flow (R13)
// owns this check now that the text-level error-docs rule is folded into it.
TEST(LintRules, ErrorDocs) {
  std::vector<SourceFile> bad = {fixture("error_docs_bad.h", "src/fix/error_docs_bad.h"),
                                 fixture("error_docs_bad.cc", "src/fix/error_docs_bad.cc")};
  const std::vector<Finding> fs = csq::lint::run_rules(bad);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "throw-flow");
  EXPECT_EQ(fs[0].file, "error_docs_bad.h");
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_NE(fs[0].message.find("InvalidInputError"), std::string::npos);
  EXPECT_NE(fs[0].message.find("safe_sqrt()"), std::string::npos);
  EXPECT_EQ(fs[0].message.find("via its callees"), std::string::npos);  // thrown directly

  std::vector<SourceFile> clean = {
      fixture("error_docs_clean.h", "src/fix/error_docs_clean.h"),
      fixture("error_docs_clean.cc", "src/fix/error_docs_clean.cc")};
  EXPECT_TRUE(csq::lint::run_rules(clean).empty());
}

TEST(LintRules, CatchAllSwallow) {
  const std::vector<Finding> fs = lint_one("catch_bad.cc", "src/x/catch_bad.cc");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "catch-all-swallow");
  EXPECT_EQ(fs[0].line, 7);
  EXPECT_TRUE(lint_one("catch_clean.cc", "src/x/catch_clean.cc").empty());
}

TEST(LintRules, BannedIdentifier) {
  const std::vector<Finding> fs = lint_one("banned_bad.cc", "src/x/banned_bad.cc");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "banned-identifier");
  EXPECT_EQ(fs[0].line, 5);  // assert(
  EXPECT_EQ(fs[1].line, 6);  // srand(
  EXPECT_NE(fs[0].message.find("CSQ_ASSERT"), std::string::npos);
  EXPECT_TRUE(lint_one("banned_clean.cc", "src/x/banned_clean.cc").empty());
}

TEST(LintRules, ServeHygieneBad) {
  const std::vector<Finding> fs =
      lint_one("serve_hygiene_bad.cc", "src/serve/serve_hygiene_bad.cc");
  ASSERT_EQ(fs.size(), 4u);
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "serve-hygiene");
  EXPECT_EQ(fs[0].line, 11);  // std::exit
  EXPECT_EQ(fs[1].line, 12);  // std::abort
  EXPECT_EQ(fs[2].line, 13);  // pending_.push_back
  EXPECT_EQ(fs[3].line, 14);  // reply_queue->emplace_back
  EXPECT_NE(fs[0].message.find("must not call exit()"), std::string::npos);
  EXPECT_NE(fs[2].message.find("bounded admit path"), std::string::npos);
}

TEST(LintRules, ServeHygieneAppliesToServeBinary) {
  // tools/csq_serve.cc is request-handler code too.
  const std::vector<Finding> fs =
      lint_one("serve_hygiene_bad.cc", "tools/csq_serve.cc");
  ASSERT_EQ(fs.size(), 4u);
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "serve-hygiene");
}

TEST(LintRules, ServeHygieneScopedToServePaths) {
  // Outside serve paths the same file is not the rule's business.
  EXPECT_TRUE(lint_one("serve_hygiene_bad.cc", "src/x/serve_hygiene_bad.cc").empty());
}

TEST(LintRules, ServeHygieneCleanWithCatalog) {
  // The clean twin's catalog counter and its justified admit-path push.
  EXPECT_TRUE(lint_one("serve_hygiene_clean.cc", "src/serve/serve_hygiene_clean.cc").empty());
}

TEST(LintRules, JournalHygieneDirectIoInServe) {
  const std::vector<Finding> fs = lint_one("journal_bad.cc", "src/serve/journal_bad.cc");
  ASSERT_EQ(fs.size(), 2u);
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "journal-hygiene");
  EXPECT_NE(fs[0].message.find("ofstream"), std::string::npos);
  EXPECT_NE(fs[1].message.find("fwrite"), std::string::npos);
  EXPECT_NE(fs[0].message.find("durable"), std::string::npos);
}

TEST(LintRules, JournalHygieneScopedToItsPaths) {
  // Outside src/serve/ the same file is unconstrained (tools/ owns its own
  // files, and src/durable/ is where the file I/O belongs).
  EXPECT_TRUE(lint_one("journal_bad.cc", "tools/journal_bad.cc").empty());
  EXPECT_TRUE(lint_one("journal_bad.cc", "src/durable/journal_bad.cc").empty());
}

// --- Suppressions ----------------------------------------------------------

TEST(LintSuppress, AllowWithReasonCoversNextLine) {
  EXPECT_TRUE(lint_one("suppress_ok.cc", "src/x/suppress_ok.cc").empty());
}

TEST(LintSuppress, ReasonlessMarkerIsItselfAFinding) {
  const std::vector<Finding> fs = lint_one("suppress_bad.cc", "src/x/suppress_bad.cc");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "suppression");
  EXPECT_EQ(fs[0].line, 4);
  EXPECT_EQ(fs[1].rule, "banned-identifier");  // the violation still fires
  EXPECT_EQ(fs[1].line, 5);
}

TEST(LintSuppress, MarkerThatSuppressesNothingIsAFinding) {
  // Line 1 excuses nothing; in the stacked marker on line 3 only the
  // throw-flow half covers a finding (from the cross-file pass: the stale
  // `Throws` contract below it, which no definition backs).
  std::vector<SourceFile> files = {csq::lint::scan_source(
      "<mem>", "src/linalg/stale.h",
      "// csq-lint: allow(banned-identifier): the assert() this excused is gone\n"
      "#pragma once\n"
      "// csq-lint: allow(throw-flow) allow(raw-throw): fixture contract\n"
      "// Throws csq::UnstableError when the fixture is unstable.\n"
      "int fixture_stale();\n")};
  const std::vector<Finding> fs = csq::lint::run_rules(files);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "suppression");
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_NE(fs[0].message.find("allow(banned-identifier)"), std::string::npos);
  EXPECT_NE(fs[0].message.find("suppresses no finding"), std::string::npos);
  EXPECT_EQ(fs[1].rule, "suppression");
  EXPECT_EQ(fs[1].line, 3);
  EXPECT_NE(fs[1].message.find("allow(raw-throw)"), std::string::npos);
}

TEST(LintSuppress, SelftestPasses) {
  bool ok = false;
  const std::string report = csq::lint::suppression_selftest(&ok);
  EXPECT_TRUE(ok) << report;
  EXPECT_EQ(report.find("FAIL"), std::string::npos) << report;
}

TEST(LintRegistry, CatalogIsStable) {
  const std::vector<csq::lint::RuleInfo>& rs = csq::lint::rules();
  ASSERT_EQ(rs.size(), 10u);  // 9 rules + the suppression meta-rule
  EXPECT_STREQ(rs[0].id, "raw-throw");
  EXPECT_STREQ(rs[1].id, "nondeterminism");
  EXPECT_STREQ(rs[2].id, "header-hygiene");
  EXPECT_STREQ(rs[3].id, "catch-all-swallow");
  EXPECT_STREQ(rs[4].id, "banned-identifier");
  EXPECT_STREQ(rs[5].id, "serve-hygiene");
  EXPECT_STREQ(rs[6].id, "throw-flow");
  EXPECT_STREQ(rs[7].id, "atomic-order");
  EXPECT_STREQ(rs[8].id, "journal-hygiene");
  EXPECT_STREQ(rs[9].id, "suppression");
  // Retired rules are gone for good: their invariants ride on compiler
  // flags, types and tests (docs/static-analysis.md, "Carried elsewhere").
  for (const char* retired : {"no-float-eq", "hot-path-alloc", "error-docs",
                              "hot-path-generic-mult", "hot-path-alloc-transitive",
                              "policy-registry", "baseline", "fault-site-naming",
                              "metric-naming", "deadline-poll"})
    for (const csq::lint::RuleInfo& r : rs) EXPECT_STRNE(r.id, retired);
  // --explain material: every rule ships a full rationale paragraph.
  for (const csq::lint::RuleInfo& r : rs) {
    EXPECT_NE(r.detail, nullptr) << r.id;
    EXPECT_GT(std::string(r.detail).size(), 40u) << r.id;
  }
}

// --- Semantic rules (R13, R16): cross-TU fixtures ------------------------------

TEST(LintSemantic, ThrowFlowUndocumentedAndStale) {
  const std::vector<Finding> fs =
      lint_set({{"throw_flow_bad.h", "src/qbd/throw_flow_bad.h"},
                {"throw_flow_bad.cc", "src/qbd/throw_flow_bad.cc"},
                {"throw_flow_dep.cc", "src/qbd/throw_flow_dep.cc"}});
  ASSERT_EQ(fs.size(), 2u);  // nothing else fires on the set
  const std::vector<Finding> tf = by_rule(fs, "throw-flow");
  ASSERT_EQ(tf.size(), 2u);
  // The escape arrives only through the call graph (dep file).
  EXPECT_EQ(tf[0].file, "throw_flow_bad.h");
  EXPECT_EQ(tf[0].line, 1);
  EXPECT_NE(tf[0].message.find("NotConvergedError"), std::string::npos);
  EXPECT_NE(tf[0].message.find("via its callees"), std::string::npos);
  // Stale contract: the header claims UnstableError, nothing backs it.
  EXPECT_EQ(tf[1].file, "throw_flow_bad.h");
  EXPECT_EQ(tf[1].line, 8);
  EXPECT_NE(tf[1].message.find("stale contract"), std::string::npos);
  EXPECT_NE(tf[1].message.find("UnstableError"), std::string::npos);
}

TEST(LintSemantic, ThrowFlowCleanTwin) {
  const std::vector<Finding> fs =
      lint_set({{"throw_flow_clean.h", "src/qbd/throw_flow_clean.h"},
                {"throw_flow_clean.cc", "src/qbd/throw_flow_clean.cc"},
                {"throw_flow_dep.cc", "src/qbd/throw_flow_dep.cc"}});
  EXPECT_TRUE(fs.empty()) << fs.size() << " unexpected finding(s)";
}

TEST(LintSemantic, AtomicOrderNeedsRationale) {
  const std::vector<Finding> fs =
      lint_one("atomic_order_bad.cc", "src/parallel/atomic_order_bad.cc");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "atomic-order");
  EXPECT_EQ(fs[0].line, 8);  // relaxed load, no rationale anywhere
  EXPECT_NE(fs[0].message.find("memory_order_relaxed"), std::string::npos);
  EXPECT_EQ(fs[1].rule, "atomic-order");
  EXPECT_EQ(fs[1].line, 13);  // bare seq_cst in the spin loop's condition
  EXPECT_NE(fs[1].message.find("seq_cst"), std::string::npos);
}

TEST(LintSemantic, AtomicOrderCleanTwin) {
  EXPECT_TRUE(
      lint_one("atomic_order_clean.cc", "src/parallel/atomic_order_clean.cc").empty());
}

TEST(LintSemantic, IndexSelftestPasses) {
  bool ok = false;
  const std::string report = csq::lint::index_selftest(&ok);
  EXPECT_TRUE(ok) << report;
  EXPECT_EQ(report.find("FAIL"), std::string::npos) << report;
}

// --- Suppression forms (block interiors, stacked allows, macro lines) -----

TEST(LintSuppress, BlockStackedAndMacroFormsAllCover) {
  EXPECT_TRUE(lint_one("suppress_forms.cc", "src/core/suppress_forms.cc").empty());
}

TEST(LintSuppress, FormFixtureParsesToExactLines) {
  const SourceFile f = fixture("suppress_forms.cc", "src/core/suppress_forms.cc");
  std::vector<Finding> malformed;
  const std::vector<csq::lint::Suppression> sups =
      csq::lint::parse_suppressions(f, &malformed);
  EXPECT_TRUE(malformed.empty());
  ASSERT_EQ(sups.size(), 4u);
  // Block-comment interior: binds to its own physical line, and to the
  // first line after the comment closes (the declaration it guards).
  EXPECT_EQ(sups[0].rule, "banned-identifier");
  EXPECT_EQ(sups[0].line, 7);
  EXPECT_EQ(sups[0].alt_line, 9);
  // Stacked allow(a) allow(b): two suppressions sharing line and reason.
  EXPECT_EQ(sups[1].rule, "raw-throw");
  EXPECT_EQ(sups[1].line, 11);
  EXPECT_EQ(sups[2].rule, "banned-identifier");
  EXPECT_EQ(sups[2].line, 11);
  EXPECT_EQ(sups[1].reason, sups[2].reason);
  // Marker on a macro continuation line binds to that physical line.
  EXPECT_EQ(sups[3].rule, "banned-identifier");
  EXPECT_EQ(sups[3].line, 15);
}

}  // namespace
