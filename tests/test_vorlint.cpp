// Self-test for the vorlint static-analysis tool: lexes tricky source
// shapes, classifies paths, and drives the rule engine over the fixture
// corpus in tests/lint_fixtures/ (every rule: positive, negative, and
// suppressed cases, linted as one batch exactly like the repo gate).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vorlint/lint.hpp"

namespace fs = std::filesystem;
using vorlint::ClassifyPath;
using vorlint::FileInput;
using vorlint::Finding;
using vorlint::Lex;
using vorlint::LintFiles;
using vorlint::Report;
using vorlint::Scope;

namespace {

std::vector<FileInput> LoadFixtures() {
  std::vector<FileInput> files;
  for (const auto& entry : fs::recursive_directory_iterator(
           fs::path(VOR_LINT_FIXTURE_DIR))) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back({entry.path().generic_string(), buf.str()});
  }
  std::sort(files.begin(), files.end(),
            [](const FileInput& a, const FileInput& b) {
              return a.path < b.path;
            });
  return files;
}

const Report& FixtureReport() {
  static const Report report = LintFiles(LoadFixtures());
  return report;
}

/// Findings for one fixture basename, one rule, one suppression state.
std::size_t Count(const std::string& basename, const std::string& rule,
                  bool suppressed) {
  std::size_t n = 0;
  for (const Finding& f : FixtureReport().findings) {
    if (f.rule == rule && f.suppressed == suppressed &&
        fs::path(f.file).filename() == basename) {
      ++n;
    }
  }
  return n;
}

std::size_t AllFindingsIn(const std::string& basename) {
  std::size_t n = 0;
  for (const Finding& f : FixtureReport().findings) {
    if (fs::path(f.file).filename() == basename) ++n;
  }
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lexer

TEST(VorlintLexer, StripsCommentsStringsAndDirectives) {
  const auto lexed = Lex(
      "#include <unordered_map>\n"
      "// unordered_map in a comment\n"
      "/* for (auto x : m) */\n"
      "const char* s = \"unordered_map.begin()\";\n"
      "char c = ':';\n");
  for (const auto& tok : lexed.tokens) {
    EXPECT_NE(tok.text, "unordered_map") << "leaked from non-code context";
    EXPECT_NE(tok.text, "include");
  }
}

TEST(VorlintLexer, RawStringsAreOpaque) {
  const auto lexed = Lex(
      "auto j = R\"({\"lock\": \"m.lock()\"})\";\n"
      "auto k = R\"delim(rand() time(0))delim\";\n"
      "int after = 1;\n");
  bool saw_after = false;
  for (const auto& tok : lexed.tokens) {
    EXPECT_NE(tok.text, "lock");
    EXPECT_NE(tok.text, "rand");
    if (tok.text == "after") saw_after = true;
  }
  EXPECT_TRUE(saw_after) << "lexing must resume after the raw string";
}

TEST(VorlintLexer, TracksLinesAndFusesScopeAndArrow) {
  const auto lexed = Lex("a\nb::c\nd->e\n");
  ASSERT_EQ(lexed.tokens.size(), 7u);
  EXPECT_EQ(lexed.tokens[0].line, 1);
  EXPECT_EQ(lexed.tokens[2].text, "::");
  EXPECT_EQ(lexed.tokens[2].line, 2);
  EXPECT_EQ(lexed.tokens[5].text, "->");
  EXPECT_EQ(lexed.tokens[6].line, 3);
}

TEST(VorlintLexer, ParsesSuppressionLists) {
  const auto lexed = Lex(
      "int a;  // vorlint: ok(DET-1)\n"
      "int b;\n"
      "/* vorlint: ok(CONC-1, HYG-1) */ int c;\n");
  ASSERT_EQ(lexed.suppressions.count(1), 1u);
  EXPECT_TRUE(lexed.suppressions.at(1).count("DET-1"));
  EXPECT_EQ(lexed.suppressions.count(2), 0u);
  ASSERT_EQ(lexed.suppressions.count(3), 1u);
  EXPECT_TRUE(lexed.suppressions.at(3).count("CONC-1"));
  EXPECT_TRUE(lexed.suppressions.at(3).count("HYG-1"));
}

TEST(VorlintLexer, DetectsPragmaOnceAndIncludeGuards) {
  EXPECT_TRUE(Lex("#pragma once\nint x;\n").has_pragma_once);
  const auto guarded = Lex("#ifndef G_\n#define G_\n#endif\n");
  EXPECT_FALSE(guarded.has_pragma_once);
  EXPECT_TRUE(guarded.has_include_guard);
  // #include first means the #ifndef/#define pair is not a guard.
  const auto not_guarded = Lex("#include <x>\n#ifndef A\n#define A\n#endif\n");
  EXPECT_FALSE(not_guarded.has_include_guard);
}

// ---------------------------------------------------------------------------
// Scope classification

TEST(VorlintScope, NearestDirectoryWins) {
  EXPECT_EQ(ClassifyPath("src/core/sorp.cpp"), Scope::kDeterministic);
  EXPECT_EQ(ClassifyPath("/abs/repo/src/io/serialize.cpp"),
            Scope::kDeterministic);
  EXPECT_EQ(ClassifyPath("src/svc/reservation_service.hpp"),
            Scope::kDeterministic);
  EXPECT_EQ(ClassifyPath("src/storage/load.cpp"), Scope::kDeterministic);
  // The validator runs in every close's validate-and-halve step and in
  // snapshot restore, so src/sim is commit-path code.
  EXPECT_EQ(ClassifyPath("src/sim/validator.cpp"), Scope::kDeterministic);
  // The wire protocol must encode deterministically (byte-identity
  // across connection counts), so src/rpc lints as deterministic too.
  EXPECT_EQ(ClassifyPath("src/rpc/protocol.cpp"), Scope::kDeterministic);
  EXPECT_EQ(ClassifyPath("src/util/thread_pool.cpp"), Scope::kExempt);
  EXPECT_EQ(ClassifyPath("bench/bench_perf.cpp"), Scope::kExempt);
  EXPECT_EQ(ClassifyPath("tools/vorctl.cpp"), Scope::kExempt);
  EXPECT_EQ(ClassifyPath("src/net/topology.cpp"), Scope::kGeneral);
  EXPECT_EQ(ClassifyPath("src/obs/metrics.hpp"), Scope::kGeneral);
  // Fixture trees mimic the layout they test: the nearest directory,
  // not the outermost, decides.
  EXPECT_EQ(ClassifyPath("tests/lint_fixtures/core/det1_positive.cpp"),
            Scope::kDeterministic);
  EXPECT_EQ(ClassifyPath("tests/lint_fixtures/util/det3_exempt.cpp"),
            Scope::kExempt);
}

// ---------------------------------------------------------------------------
// Rule catalog

TEST(VorlintRules, CatalogHasEveryRuleWithHints) {
  const auto& rules = vorlint::Rules();
  ASSERT_EQ(rules.size(), 9u);
  for (const auto& rule : rules) {
    EXPECT_FALSE(rule.id.empty());
    EXPECT_FALSE(rule.summary.empty());
    EXPECT_FALSE(rule.hint.empty()) << rule.id << " needs a fix-it hint";
  }
}

// ---------------------------------------------------------------------------
// Fixtures: every rule, positive / negative / suppressed

TEST(VorlintFixtures, Det1) {
  EXPECT_EQ(Count("det1_positive.cpp", "DET-1", false), 2u);
  EXPECT_EQ(AllFindingsIn("det1_negative.cpp"), 0u);
  EXPECT_EQ(Count("det1_suppressed.cpp", "DET-1", true), 2u);
  EXPECT_EQ(Count("det1_suppressed.cpp", "DET-1", false), 0u);
}

TEST(VorlintFixtures, Det1CrossFileAlias) {
  EXPECT_EQ(Count("det1_alias_positive.cpp", "DET-1", false), 1u);
  EXPECT_EQ(AllFindingsIn("det_alias.hpp"), 0u);
  // Members declared in a source's same-stem header resolve the same way.
  EXPECT_EQ(Count("det1_member_positive.cpp", "DET-1", false), 2u);
  EXPECT_EQ(AllFindingsIn("det1_member_positive.hpp"), 0u);
  EXPECT_EQ(AllFindingsIn("det1_member_negative.cpp"), 0u);
  EXPECT_EQ(AllFindingsIn("det1_member_negative.hpp"), 0u);
}

TEST(VorlintFixtures, Det1MemberAccessThroughAnotherObject) {
  EXPECT_EQ(AllFindingsIn("det1_through_negative.cpp"), 0u);
  EXPECT_EQ(Count("det1_this_positive.cpp", "DET-1", false), 1u);
}

TEST(VorlintFixtures, Det2) {
  EXPECT_EQ(Count("det2_positive.cpp", "DET-2", false), 2u);
  EXPECT_EQ(AllFindingsIn("det2_negative.cpp"), 0u);
  EXPECT_EQ(Count("det2_suppressed.cpp", "DET-2", true), 1u);
  EXPECT_EQ(Count("det2_suppressed.cpp", "DET-2", false), 0u);
}

TEST(VorlintFixtures, Det3) {
  EXPECT_EQ(Count("det3_positive.cpp", "DET-3", false), 4u);
  EXPECT_EQ(AllFindingsIn("det3_negative.cpp"), 0u);
  EXPECT_EQ(Count("det3_suppressed.cpp", "DET-3", true), 1u);
  EXPECT_EQ(Count("det3_suppressed.cpp", "DET-3", false), 0u);
}

TEST(VorlintFixtures, Det3ScopeExemption) {
  // Same tokens as a DET-3 violation, but in util/ scope.
  EXPECT_EQ(AllFindingsIn("det3_exempt.cpp"), 0u);
}

TEST(VorlintFixtures, Conc1) {
  EXPECT_EQ(Count("conc1_positive.cpp", "CONC-1", false), 2u);
  EXPECT_EQ(AllFindingsIn("conc1_negative.cpp"), 0u);
  EXPECT_EQ(Count("conc1_suppressed.cpp", "CONC-1", true), 2u);
  EXPECT_EQ(Count("conc1_suppressed.cpp", "CONC-1", false), 0u);
}

TEST(VorlintFixtures, Conc2) {
  EXPECT_EQ(Count("conc2_positive.cpp", "CONC-2", false), 2u);
  EXPECT_EQ(AllFindingsIn("conc2_negative.cpp"), 0u);
  EXPECT_EQ(Count("conc2_suppressed.cpp", "CONC-2", true), 1u);
  EXPECT_EQ(Count("conc2_suppressed.cpp", "CONC-2", false), 0u);
}

TEST(VorlintFixtures, Conc3) {
  EXPECT_EQ(Count("conc3_positive.cpp", "CONC-3", false), 3u);
  EXPECT_EQ(Count("conc3_negative.cpp", "CONC-3", false), 0u);
  EXPECT_EQ(Count("conc3_negative.cpp", "CONC-3", true), 0u);
  // The unlock window's manual guard calls are CONC-1, suppressed there.
  EXPECT_EQ(Count("conc3_negative.cpp", "CONC-1", true), 2u);
  EXPECT_EQ(Count("conc3_suppressed.cpp", "CONC-3", true), 1u);
  EXPECT_EQ(Count("conc3_suppressed.cpp", "CONC-3", false), 0u);
}

TEST(VorlintFixtures, Conc4CrossFileCycle) {
  // The cycle spans conc4_cycle_a.cpp / conc4_cycle_b.cpp through a call
  // in each direction; it is reported once, anchored at the canonical
  // (smallest-mutex-first) witness edge, which lives in half B.
  EXPECT_EQ(Count("conc4_cycle_b.cpp", "CONC-4", false), 1u);
  EXPECT_EQ(Count("conc4_cycle_a.cpp", "CONC-4", false), 0u);
  std::string message;
  for (const Finding& f : FixtureReport().findings) {
    if (f.rule == "CONC-4" && !f.suppressed) message = f.message;
  }
  ASSERT_FALSE(message.empty());
  // The witness path names both mutexes, both files, and the call that
  // closes the cycle.
  EXPECT_NE(message.find("c4_intake_order_mu"), std::string::npos) << message;
  EXPECT_NE(message.find("c4_commit_order_mu"), std::string::npos) << message;
  EXPECT_NE(message.find("conc4_cycle_a.cpp"), std::string::npos) << message;
  EXPECT_NE(message.find("conc4_cycle_b.cpp"), std::string::npos) << message;
  EXPECT_NE(message.find("via GrabIntakeSide()"), std::string::npos)
      << message;
}

TEST(VorlintFixtures, Conc4NegativeAndSuppressed) {
  EXPECT_EQ(AllFindingsIn("conc4_negative.cpp"), 0u);
  EXPECT_EQ(Count("conc4_suppressed.cpp", "CONC-4", true), 1u);
  EXPECT_EQ(Count("conc4_suppressed.cpp", "CONC-4", false), 0u);
}

TEST(VorlintFixtures, Conc5) {
  EXPECT_EQ(Count("conc5_positive.cpp", "CONC-5", false), 2u);
  EXPECT_EQ(AllFindingsIn("conc5_negative.cpp"), 0u);
  EXPECT_EQ(Count("conc5_suppressed.cpp", "CONC-5", true), 1u);
  EXPECT_EQ(Count("conc5_suppressed.cpp", "CONC-5", false), 0u);
  // Same tokens in util/ scope: CONC-5 is deterministic-path only.
  EXPECT_EQ(AllFindingsIn("conc5_exempt.cpp"), 0u);
}

TEST(VorlintFixtures, Hyg1) {
  EXPECT_EQ(Count("hyg1_positive.hpp", "HYG-1", false), 2u);
  EXPECT_EQ(Count("hyg1_guard_positive.hpp", "HYG-1", false), 1u);
  EXPECT_EQ(AllFindingsIn("hyg1_negative.hpp"), 0u);
  EXPECT_EQ(Count("hyg1_suppressed.hpp", "HYG-1", true), 1u);
  EXPECT_EQ(Count("hyg1_suppressed.hpp", "HYG-1", false), 0u);
}

// ---------------------------------------------------------------------------
// Report plumbing

TEST(VorlintReport, PerRuleCountsMatchFindings) {
  const Report& report = FixtureReport();
  std::size_t active = 0;
  std::size_t suppressed = 0;
  for (const auto& [rule, counts] : report.per_rule) {
    active += counts.first;
    suppressed += counts.second;
  }
  EXPECT_EQ(active, report.active_count());
  EXPECT_EQ(active + suppressed, report.findings.size());
  EXPECT_GT(report.files_linted, 0u);
}

TEST(VorlintReport, FormatCarriesRuleIdAndHint) {
  std::vector<FileInput> one;
  one.push_back(
      {"src/io/fake.cpp",
       "#include <unordered_map>\n"
       "int f() {\n"
       "  std::unordered_map<int, int> m;\n"
       "  int s = 0;\n"
       "  for (const auto& [k, v] : m) s += v;\n"
       "  return s;\n"
       "}\n"});
  const Report report = LintFiles(one);
  ASSERT_EQ(report.active_count(), 1u);
  EXPECT_EQ(report.findings[0].rule, "DET-1");
  EXPECT_EQ(report.findings[0].line, 5);
  const std::string text = vorlint::FormatReport(report);
  EXPECT_NE(text.find("[DET-1]"), std::string::npos);
  EXPECT_NE(text.find("hint:"), std::string::npos);
  EXPECT_NE(text.find("std::sort"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cross-TU concurrency analysis (inline batches)

TEST(VorlintConc, MemberMutexResolvesAcrossHeaderSourceSiblings) {
  // The header declares the members; the source nests them in opposite
  // orders.  Resolution must agree on `Widget::...` for both files.
  std::vector<FileInput> pair;
  pair.push_back({"src/svc/widget.hpp",
                  "#pragma once\n"
                  "#include <mutex>\n"
                  "class Widget {\n"
                  " public:\n"
                  "  void Forward();\n"
                  "  void Backward();\n"
                  " private:\n"
                  "  std::mutex intake_mu_;\n"
                  "  std::mutex commit_mu_;\n"
                  "};\n"});
  pair.push_back({"src/svc/widget.cpp",
                  "#include \"widget.hpp\"\n"
                  "void Widget::Forward() {\n"
                  "  std::lock_guard a(intake_mu_);\n"
                  "  std::lock_guard b(commit_mu_);\n"
                  "}\n"
                  "void Widget::Backward() {\n"
                  "  std::lock_guard b(commit_mu_);\n"
                  "  std::lock_guard a(intake_mu_);\n"
                  "}\n"});
  const Report report = LintFiles(pair);
  ASSERT_EQ(report.active_count(), 1u);
  EXPECT_EQ(report.findings[0].rule, "CONC-4");
  EXPECT_NE(report.findings[0].message.find("Widget::intake_mu_"),
            std::string::npos)
      << report.findings[0].message;
  EXPECT_NE(report.findings[0].message.find("Widget::commit_mu_"),
            std::string::npos)
      << report.findings[0].message;
}

TEST(VorlintConc, UnlockWindowAndOwnGuardWaitAreClean) {
  std::vector<FileInput> one;
  one.push_back({"src/core/window.cpp",
                 "#include <condition_variable>\n"
                 "#include <mutex>\n"
                 "struct Pool { int Submit(int); };\n"
                 "std::mutex window_mu;\n"
                 "std::condition_variable window_cv;\n"
                 "int Window(Pool& pool) {\n"
                 "  std::unique_lock lock(window_mu);\n"
                 "  lock.unlock();  // vorlint: ok(CONC-1)\n"
                 "  const int r = pool.Submit(1);\n"
                 "  lock.lock();  // vorlint: ok(CONC-1)\n"
                 "  window_cv.wait(lock);\n"
                 "  return r;\n"
                 "}\n"});
  const Report report = LintFiles(one);
  EXPECT_EQ(report.active_count(), 0u) << vorlint::FormatReport(report);
}

TEST(VorlintConc, LambdaBodyDoesNotInheritEnclosingGuards) {
  // The lambda runs later on another thread; the guard held at Submit
  // time is not held inside its body, so the inner Submit is clean —
  // but the outer Submit (made while the guard is live) is not.
  std::vector<FileInput> one;
  one.push_back({"src/core/lambda.cpp",
                 "#include <mutex>\n"
                 "struct Pool { template <class F> int Submit(F f); };\n"
                 "std::mutex lambda_mu;\n"
                 "int Spawn(Pool& pool, Pool& inner) {\n"
                 "  std::lock_guard guard(lambda_mu);\n"
                 "  return pool.Submit([&inner] { return inner.Submit(0); });\n"
                 "}\n"});
  const Report report = LintFiles(one);
  std::size_t conc3 = 0;
  for (const Finding& f : report.findings) {
    if (f.rule == "CONC-3") ++conc3;
  }
  EXPECT_EQ(conc3, 1u) << vorlint::FormatReport(report);
}

TEST(VorlintReport, JsonFormatCarriesFindingsAndRuleTable) {
  std::vector<FileInput> one;
  one.push_back({"src/core/json\"quote.cpp",
                 "#include <mutex>\n"
                 "std::mutex json_mu;\n"
                 "void Bad() {\n"
                 "  json_mu.lock();  // vorlint: ok(CONC-1)\n"
                 "  int x = 0;\n"
                 "  (void)x;\n"
                 "  json_mu.unlock();\n"
                 "}\n"});
  const Report report = LintFiles(one);
  const std::string json = vorlint::FormatReportJson(report);
  EXPECT_NE(json.find("\"files_linted\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"active\": 1"), std::string::npos) << json;
  // Suppressed findings are present and flagged.
  EXPECT_NE(json.find("\"suppressed\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"suppressed\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"CONC-1\": {\"active\": 1, \"suppressed\": 1}"),
            std::string::npos)
      << json;
  // The quote in the path is escaped, never raw.
  EXPECT_NE(json.find("json\\\"quote.cpp"), std::string::npos) << json;
  EXPECT_EQ(json.find("json\"quote.cpp\", "), std::string::npos) << json;
}

TEST(VorlintReport, FixtureBatchIsDeterministic) {
  // Two runs over the same inputs produce identical findings in
  // identical order — the linter obeys the invariant it enforces.
  const Report a = LintFiles(LoadFixtures());
  const Report b = LintFiles(LoadFixtures());
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].file, b.findings[i].file);
    EXPECT_EQ(a.findings[i].line, b.findings[i].line);
    EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
    EXPECT_EQ(a.findings[i].suppressed, b.findings[i].suppressed);
  }
}
