// vorlint — repo-native determinism & concurrency static analysis.
//
// The scheduler's headline invariant is that committed schedules and
// exported metrics are byte-identical at any thread/producer count.
// Runtime tests (DeterminismTest, the service byte-identity suite) defend
// that invariant after the fact; vorlint defends it at build time by
// rejecting the source patterns that break it: hash-order iteration
// leaking into output, pointer-keyed ordered containers, wall clocks and
// entropy inside the commit path, and hand-rolled lock management.
//
// The tool is deliberately self-contained: a real lexer (comments,
// string/char literals, raw strings, preprocessor lines) feeding a rule
// engine over the token stream.  No LLVM/clang dependency — it compiles
// with the project toolchain and runs as an ordinary ctest.
//
// Scope model (per-file, from path components, nearest directory wins):
//   core/ svc/ io/ storage/ rpc/
//   sim/                             -> kDeterministic (all rules)
//   util/ bench/ tools/ tests/
//   examples/                        -> kExempt (DET-* rules off)
//   everything else                  -> kGeneral (DET-* rules off)
// CONC-* and HYG-* apply to every linted file regardless of scope.
//
// Suppressions: `// vorlint: ok(RULE-ID)` (comma-separated list allowed)
// silences matching findings on the comment's own line and the line
// directly below it, so both trailing and line-above styles work.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace vorlint {

// ---------------------------------------------------------------------------
// Scope classification

enum class Scope { kDeterministic, kExempt, kGeneral };

/// Classifies by path components, scanning from the file back toward the
/// root so the nearest enclosing directory wins (tests/lint_fixtures/core/
/// classifies as deterministic-path, like the tree it mimics).
[[nodiscard]] Scope ClassifyPath(std::string_view path);

[[nodiscard]] std::string_view ScopeName(Scope scope);

// ---------------------------------------------------------------------------
// Lexer

enum class TokKind { kIdentifier, kNumber, kPunct };

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
};

/// Token stream plus the side channels the rules need.  Comments, string
/// and character literals, and preprocessor lines never reach `tokens`,
/// so a rule can match identifiers without seeing `"unordered_map"`
/// inside a diagnostic string or an #include path.
struct LexedFile {
  std::vector<Token> tokens;
  /// line -> rule ids named in a `vorlint: ok(...)` comment on that line.
  std::map<int, std::set<std::string>> suppressions;
  bool has_pragma_once = false;
  /// Leading #ifndef/#define pair (classic include guard).
  bool has_include_guard = false;
};

[[nodiscard]] LexedFile Lex(std::string_view source);

// ---------------------------------------------------------------------------
// Rules

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
  std::string_view hint;
  /// Rule only applies to Scope::kDeterministic files.
  bool deterministic_only = false;
};

/// Static catalog, in reporting order.
[[nodiscard]] const std::vector<RuleInfo>& Rules();

struct Finding {
  std::string file;   // path as given to the linter
  int line = 0;
  std::string rule;   // e.g. "DET-1"
  std::string message;
  bool suppressed = false;
};

/// One file queued for linting.  `path` is used for scope classification
/// and reporting; `source` is the file's contents.
struct FileInput {
  std::string path;
  std::string source;
};

struct Report {
  std::vector<Finding> findings;            // file order, then line order
  std::size_t files_linted = 0;
  /// rule id -> {active, suppressed} counts (every rule present).
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_rule;
  [[nodiscard]] std::size_t active_count() const;
};

/// Lints a batch of files as one unit.  A first pass collects global
/// context — type aliases of unordered containers (`using Map =
/// std::unordered_map<...>`), the unordered members each header declares
/// (so DET-1 sees them in the same-stem source), and which file stems
/// contain a join()/joinable() call, so a header's std::thread member is
/// cleared by its sibling .cpp's joining destructor — then each file is
/// checked against every applicable rule.
[[nodiscard]] Report LintFiles(const std::vector<FileInput>& files);

/// Renders the findings (one line each, `file:line: [RULE] message` plus
/// the rule's fix-it hint) followed by a per-rule summary table.
[[nodiscard]] std::string FormatReport(const Report& report);

/// Machine-readable rendering: {"files_linted", "active", "findings":
/// [{file, line, rule, suppressed, message}...], "rules": {id: {active,
/// suppressed}}}.  Findings include suppressed ones (flagged), so CI can
/// audit the suppression inventory as well as the failures.
[[nodiscard]] std::string FormatReportJson(const Report& report);

}  // namespace vorlint
