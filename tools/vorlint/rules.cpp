// Rule engine for vorlint: path scope classification, the global context
// pass (unordered-container aliases, join-bearing file stems, each
// header's unordered declarations), and the per-file rule checks.
#include "vorlint/lint.hpp"

#include <algorithm>
#include <sstream>

#include "vorlint/conc.hpp"

namespace vorlint {

namespace {

// ---------------------------------------------------------------------------
// Catalog

const std::vector<RuleInfo> kRules = {
    {"DET-1",
     "iteration over std::unordered_map/unordered_set in a "
     "deterministic-path file (hash order leaks into output)",
     "copy the keys/entries and std::sort before iterating, or use "
     "std::map / a sorted vector",
     true},
    {"DET-2",
     "pointer-keyed ordered container (std::map<T*,...> / std::set<T*>) "
     "orders by address, which differs run to run",
     "key on a stable id (index, name, packed ref) instead of the pointer",
     true},
    {"DET-3",
     "wall clock / entropy source in a deterministic-path file",
     "take timestamps and seeds from the request stream or options; keep "
     "clock reads in util/, bench/, or the obs layer",
     true},
    {"CONC-1",
     "manual .lock()/.unlock() call instead of an RAII guard",
     "use std::lock_guard / std::unique_lock / std::scoped_lock so every "
     "exit path releases the mutex",
     false},
    {"CONC-2",
     "std::thread member without a join()/joinable() in this file or its "
     "header/source sibling",
     "join in the destructor (or a Stop() the destructor calls), or hold "
     "std::jthread semantics explicitly",
     false},
    {"CONC-3",
     "blocking call (pool submit, condition wait, socket I/O, RPC, future "
     "get) while a lock guard is in scope",
     "shrink the critical section: copy what the call needs under the "
     "lock, release, then block; or hand the work a snapshot",
     false},
    {"CONC-4",
     "lock-order cycle in the batch-global lock graph (two paths acquire "
     "the same mutexes in opposite orders)",
     "pick one order and stick to it everywhere (see the rank table in "
     "docs/vorlint.md); or collapse the two mutexes into one",
     false},
    {"CONC-5",
     "detached/unpooled concurrency (std::thread::detach, std::async) on a "
     "deterministic path",
     "run the work on the shared util::ThreadPool so it is joined, "
     "counted, and replayable",
     true},
    {"HYG-1",
     "header hygiene: missing #pragma once, or using-namespace at header "
     "scope",
     "headers start with #pragma once and never `using namespace`",
     false},
};

// ---------------------------------------------------------------------------
// Helpers over the token stream

using Tokens = std::vector<Token>;

bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

bool PrecededBy(const Tokens& toks, std::size_t i, std::string_view punct) {
  return i > 0 && toks[i - 1].kind == TokKind::kPunct &&
         toks[i - 1].text == punct;
}

bool IsMemberAccess(const Tokens& toks, std::size_t i) {
  return PrecededBy(toks, i, ".") || PrecededBy(toks, i, "->");
}

/// True when toks[i] is `name` in `std::name`.
bool IsStdQualified(const Tokens& toks, std::size_t i) {
  return i >= 2 && PrecededBy(toks, i, "::") && IsIdent(toks[i - 2], "std");
}

/// toks[i] == "<": returns the index one past the matching ">", or npos
/// when the angles don't balance before something that can't be a
/// template argument list (statement end) — a comparison, not a template.
std::size_t SkipAngles(const Tokens& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "<") ++depth;
    if (t.text == ">") {
      if (--depth == 0) return j + 1;
    }
    if (t.text == ";" || t.text == "{") return std::string::npos;
  }
  return std::string::npos;
}

/// Scans the first template argument of the `<` at toks[i]; true when it
/// contains a `*` (pointer key).  Stops at the first depth-1 comma.
bool FirstTemplateArgHasPointer(const Tokens& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "<") ++depth;
    if (t.text == ">" && --depth == 0) return false;
    if (t.text == "," && depth == 1) return false;
    if (t.text == "*" && depth >= 1) return true;
    if (t.text == ";" || t.text == "{") return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Global context (pass 1)

struct GlobalContext {
  /// Right-hand identifiers of `using X = ...unordered_map...;` across
  /// the whole batch, so such an alias reads as unordered everywhere.
  std::set<std::string> unordered_aliases;
  /// Path stems (directory + basename sans extension) whose file contains
  /// a join()/joinable() token; clears CONC-2 for the sibling header.
  std::set<std::string> joining_stems;
  /// Path stem -> names a header declares with an unordered container
  /// type, so DET-1 in the sibling source sees the header's members.
  std::map<std::string, std::set<std::string>> header_unordered_decls;
};

std::string PathStem(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  return std::string(dot == std::string_view::npos ? path
                                                   : path.substr(0, dot));
}

bool IsUnorderedName(const GlobalContext& ctx, const std::string& text) {
  return text == "unordered_map" || text == "unordered_set" ||
         text == "unordered_multimap" || text == "unordered_multiset" ||
         ctx.unordered_aliases.count(text) > 0;
}

void CollectGlobalContext(const FileInput& file, const LexedFile& lexed,
                          GlobalContext& ctx) {
  const Tokens& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (IsIdent(toks[i], "join") || IsIdent(toks[i], "joinable")) {
      ctx.joining_stems.insert(PathStem(file.path));
    }
    // using NAME = ... unordered_xxx ... ;
    if (IsIdent(toks[i], "using") && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdentifier &&
        toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "=") {
      for (std::size_t j = i + 3; j < toks.size(); ++j) {
        if (toks[j].kind == TokKind::kPunct && toks[j].text == ";") break;
        if (toks[j].kind == TokKind::kIdentifier &&
            toks[j].text.rfind("unordered_", 0) == 0) {
          ctx.unordered_aliases.insert(toks[i + 1].text);
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-file checks (pass 2)

struct FileLint {
  const FileInput& file;
  const LexedFile& lexed;
  Scope scope;
  const GlobalContext& ctx;
  std::vector<Finding>& findings;

  void Emit(std::string_view rule, int line, std::string message) const {
    Finding f;
    f.file = file.path;
    f.line = line;
    f.rule = std::string(rule);
    f.message = std::move(message);
    const auto suppressed_at = [&](int l) {
      const auto it = lexed.suppressions.find(l);
      return it != lexed.suppressions.end() && it->second.count(f.rule) > 0;
    };
    f.suppressed = suppressed_at(line) || suppressed_at(line - 1);
    findings.push_back(std::move(f));
  }
};

[[nodiscard]] bool IsHeaderPath(std::string_view path) {
  return path.size() >= 2 &&
         (path.substr(path.size() - 2) == ".h" ||
          (path.size() >= 4 && (path.substr(path.size() - 4) == ".hpp" ||
                                path.substr(path.size() - 4) == ".hxx")));
}

/// Names of variables/members/parameters declared with an unordered
/// container type in this file.  Pattern: the type name, an optional
/// balanced template argument list, any of {&, *, >, const}, then an
/// identifier that is immediately followed by a declarator terminator.
std::set<std::string> UnorderedDecls(const LexedFile& lexed,
                                     const GlobalContext& ctx) {
  const Tokens& toks = lexed.tokens;
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        !IsUnorderedName(ctx, toks[i].text)) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].kind == TokKind::kPunct &&
        toks[j].text == "<") {
      j = SkipAngles(toks, j);
      if (j == std::string::npos) continue;
    }
    while (j < toks.size() &&
           ((toks[j].kind == TokKind::kPunct &&
             (toks[j].text == "&" || toks[j].text == "*" ||
              toks[j].text == ">")) ||
            IsIdent(toks[j], "const"))) {
      ++j;
    }
    if (j + 1 >= toks.size() || toks[j].kind != TokKind::kIdentifier) {
      continue;
    }
    const Token& next = toks[j + 1];
    if (next.kind == TokKind::kPunct &&
        (next.text == ";" || next.text == "=" || next.text == "," ||
         next.text == ")" || next.text == "{")) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

void CheckDet1(const FileLint& fl) {
  const Tokens& toks = fl.lexed.tokens;
  // This file's declarations plus, for a source, its sibling header's
  // (members are declared there and iterated here).
  std::set<std::string> tracked = UnorderedDecls(fl.lexed, fl.ctx);
  if (!IsHeaderPath(fl.file.path)) {
    const auto sibling =
        fl.ctx.header_unordered_decls.find(PathStem(fl.file.path));
    if (sibling != fl.ctx.header_unordered_decls.end()) {
      tracked.insert(sibling->second.begin(), sibling->second.end());
    }
  }
  if (tracked.empty()) return;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    // name.begin() / name->cbegin() / ...  A name reached through another
    // object (`result.name`, `p->name`) is that object's member, not the
    // tracked declaration; `this->name` is the tracked member itself.
    const bool via_other =
        i > 0 && (toks[i - 1].text == "." ||
                  (toks[i - 1].text == "->" &&
                   !(i > 1 && IsIdent(toks[i - 2], "this"))));
    if (!via_other && toks[i].kind == TokKind::kIdentifier &&
        tracked.count(toks[i].text) &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        i + 3 < toks.size() && toks[i + 2].kind == TokKind::kIdentifier &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin" ||
         toks[i + 2].text == "rbegin") &&
        toks[i + 3].text == "(") {
      fl.Emit("DET-1", toks[i].line,
              "iterator over unordered container '" + toks[i].text + "'");
    }
    // for ( decl : expr ) with a tracked root identifier in expr.
    if (!IsIdent(toks[i], "for") || toks[i + 1].text != "(") continue;
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kPunct) continue;
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (toks[j].text == ":" && depth == 1 && colon == std::string::npos) {
        colon = j;
      }
      if (toks[j].text == ";") break;  // classic for, not range-for
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    // The range expression: reject anything with a call or index (its
    // result type is unknowable here); otherwise take the first
    // identifier as the root.
    std::string root;
    bool opaque = false;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == TokKind::kPunct &&
          (toks[j].text == "(" || toks[j].text == "[")) {
        opaque = true;
        break;
      }
      if (toks[j].kind == TokKind::kIdentifier && root.empty()) {
        root = toks[j].text;
      }
    }
    if (!opaque && tracked.count(root) > 0) {
      fl.Emit("DET-1", toks[i].line,
              "range-for over unordered container '" + root + "'");
    }
  }
}

void CheckDet2(const FileLint& fl) {
  const Tokens& toks = fl.lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    const std::string& t = toks[i].text;
    if (t != "map" && t != "set" && t != "multimap" && t != "multiset") {
      continue;
    }
    if (!IsStdQualified(toks, i)) continue;
    if (toks[i + 1].kind != TokKind::kPunct || toks[i + 1].text != "<") {
      continue;
    }
    if (FirstTemplateArgHasPointer(toks, i + 1)) {
      fl.Emit("DET-2", toks[i].line,
              "std::" + t + " keyed on a pointer orders by address");
    }
  }
}

/// toks[i] sits in expression context (preceded by an operator, a scope
/// qualifier, or a return/case keyword) — so `std::time(...)` and
/// `x = time(0)` match while a declaration `double time()` does not.
bool InExprContext(const Tokens& toks, std::size_t i) {
  if (i == 0) return false;
  const Token& prev = toks[i - 1];
  if (prev.kind == TokKind::kIdentifier) {
    return prev.text == "return" || prev.text == "co_return" ||
           prev.text == "case";
  }
  if (prev.kind != TokKind::kPunct) return false;
  static const std::set<std::string> kExprPunct = {
      "::", "=", "(", ",", "{", ";", "+", "-", "*", "/",
      "%",  "<", ">", "&", "|", "!", "?", ":", "["};
  return kExprPunct.count(prev.text) > 0;
}

void CheckDet3(const FileLint& fl) {
  const Tokens& toks = fl.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    const std::string& t = toks[i].text;
    const bool call = i + 1 < toks.size() &&
                      toks[i + 1].kind == TokKind::kPunct &&
                      toks[i + 1].text == "(";
    if (t == "system_clock") {
      fl.Emit("DET-3", toks[i].line, "std::chrono::system_clock is a wall "
                                     "clock");
    } else if (t == "random_device") {
      fl.Emit("DET-3", toks[i].line,
              "std::random_device draws nondeterministic entropy");
    } else if (t == "hardware_concurrency") {
      fl.Emit("DET-3", toks[i].line,
              "hardware_concurrency() varies by host; thread counts must "
              "come from options");
    } else if ((t == "time" || t == "clock" || t == "gettimeofday" ||
                t == "localtime" || t == "gmtime" || t == "rand" ||
                t == "srand") &&
               call && !IsMemberAccess(toks, i) && InExprContext(toks, i)) {
      fl.Emit("DET-3", toks[i].line, t + "() reads wall clock / PRNG state");
    }
  }
}

void CheckConc1(const FileLint& fl) {
  const Tokens& toks = fl.lexed.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        (toks[i].text != "lock" && toks[i].text != "unlock")) {
      continue;
    }
    if (!IsMemberAccess(toks, i)) continue;
    if (toks[i + 1].text != "(" || toks[i + 2].text != ")") continue;
    fl.Emit("CONC-1", toks[i].line,
            "manual ." + toks[i].text + "() call");
  }
}

void CheckConc2(const FileLint& fl) {
  const Tokens& toks = fl.lexed.tokens;
  const std::string stem = PathStem(fl.file.path);
  if (fl.ctx.joining_stems.count(stem) > 0) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "thread") || !IsStdQualified(toks, i)) continue;
    // std::thread name;  or  std::vector<std::thread> name;
    std::size_t j = i + 1;
    while (j < toks.size() && toks[j].kind == TokKind::kPunct &&
           toks[j].text == ">") {
      ++j;
    }
    if (j + 1 < toks.size() && toks[j].kind == TokKind::kIdentifier &&
        toks[j + 1].kind == TokKind::kPunct && toks[j + 1].text == ";") {
      fl.Emit("CONC-2", toks[i].line,
              "std::thread '" + toks[j].text +
                  "' declared but no join()/joinable() in this file or its "
                  "sibling");
    }
  }
}

void CheckHyg1(const FileLint& fl) {
  if (!IsHeaderPath(fl.file.path)) return;
  if (!fl.lexed.has_pragma_once && !fl.lexed.has_include_guard) {
    fl.Emit("HYG-1", 1, "header has neither #pragma once nor an include "
                        "guard");
  } else if (!fl.lexed.has_pragma_once) {
    // Repo convention is #pragma once; classic guards read as drift.
    fl.Emit("HYG-1", 1, "header uses an #ifndef guard; repo convention is "
                        "#pragma once");
  }
  const Tokens& toks = fl.lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (IsIdent(toks[i], "using") && IsIdent(toks[i + 1], "namespace")) {
      fl.Emit("HYG-1", toks[i].line, "using-namespace at header scope");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API

Scope ClassifyPath(std::string_view path) {
  // Split on '/' and scan components from the file backwards; the nearest
  // recognised directory decides.
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (i > start) parts.push_back(path.substr(start, i - start));
      start = i + 1;
    }
  }
  if (!parts.empty()) parts.pop_back();  // drop the filename
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    const std::string_view dir = *it;
    if (dir == "core" || dir == "svc" || dir == "io" || dir == "storage" ||
        dir == "rpc" || dir == "sim") {
      return Scope::kDeterministic;
    }
    if (dir == "util" || dir == "bench" || dir == "tools" ||
        dir == "tests" || dir == "examples") {
      return Scope::kExempt;
    }
  }
  return Scope::kGeneral;
}

std::string_view ScopeName(Scope scope) {
  switch (scope) {
    case Scope::kDeterministic: return "deterministic";
    case Scope::kExempt: return "exempt";
    case Scope::kGeneral: return "general";
  }
  return "general";
}

const std::vector<RuleInfo>& Rules() { return kRules; }

std::size_t Report::active_count() const {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++n;
  }
  return n;
}

Report LintFiles(const std::vector<FileInput>& files) {
  Report report;
  report.files_linted = files.size();

  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  GlobalContext ctx;
  conc::MutexTable mutexes;
  for (const FileInput& file : files) {
    lexed.push_back(Lex(file.source));
    CollectGlobalContext(file, lexed.back(), ctx);
    conc::CollectMutexDecls(lexed.back(), mutexes);
  }
  // Header declarations need the whole batch's aliases, so they follow
  // the first pass.
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (IsHeaderPath(files[i].path)) {
      ctx.header_unordered_decls[PathStem(files[i].path)] =
          UnorderedDecls(lexed[i], ctx);
    }
  }

  std::vector<conc::FileConc> conc_files;
  conc_files.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    const Scope scope = ClassifyPath(files[i].path);
    const FileLint fl{files[i], lexed[i], scope, ctx, report.findings};
    if (scope == Scope::kDeterministic) {
      CheckDet1(fl);
      CheckDet2(fl);
      CheckDet3(fl);
    }
    CheckConc1(fl);
    CheckConc2(fl);
    CheckHyg1(fl);
    conc_files.push_back(conc::AnalyzeFile(
        files[i], lexed[i], scope, mutexes,
        [&fl](std::string_view rule, int line, std::string message) {
          fl.Emit(rule, line, std::move(message));
        }));
  }

  // CONC-4 runs over the whole batch at once; a cycle's suppression can
  // sit on any of its edges, so findings are built here rather than
  // through FileLint::Emit (which checks the finding line only).
  std::map<std::string, const LexedFile*> lexed_by_path;
  for (std::size_t i = 0; i < files.size(); ++i) {
    lexed_by_path.emplace(files[i].path, &lexed[i]);
  }
  const auto conc4_suppressed = [&lexed_by_path](const std::string& file,
                                                 int line) {
    const auto it = lexed_by_path.find(file);
    if (it == lexed_by_path.end()) return false;
    const auto check = [&](int l) {
      const auto s = it->second->suppressions.find(l);
      return s != it->second->suppressions.end() &&
             s->second.count("CONC-4") > 0;
    };
    return check(line) || check(line - 1);
  };
  for (conc::CycleFinding& cycle :
       conc::BuildLockGraph(conc_files, conc4_suppressed)) {
    Finding f;
    f.file = cycle.file;
    f.line = cycle.line;
    f.rule = "CONC-4";
    f.message = std::move(cycle.message);
    f.suppressed = cycle.suppressed;
    report.findings.push_back(std::move(f));
  }

  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  for (const RuleInfo& rule : kRules) {
    report.per_rule.emplace(std::string(rule.id), std::make_pair(0u, 0u));
  }
  for (const Finding& f : report.findings) {
    auto& [active, suppressed] = report.per_rule[f.rule];
    (f.suppressed ? suppressed : active) += 1;
  }
  return report;
}

std::string FormatReport(const Report& report) {
  std::ostringstream os;
  const auto hint_for = [](const std::string& id) -> std::string_view {
    for (const RuleInfo& rule : kRules) {
      if (rule.id == id) return rule.hint;
    }
    return "";
  };
  for (const Finding& f : report.findings) {
    if (f.suppressed) continue;
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n    hint: " << hint_for(f.rule) << "\n";
  }
  os << "vorlint: " << report.files_linted << " files, "
     << report.active_count() << " finding(s)\n";
  os << "  rule    active  suppressed\n";
  for (const RuleInfo& rule : kRules) {
    const auto it = report.per_rule.find(std::string(rule.id));
    const auto counts = it == report.per_rule.end()
                            ? std::make_pair(std::size_t{0}, std::size_t{0})
                            : it->second;
    os << "  " << rule.id;
    for (std::size_t i = rule.id.size(); i < 8; ++i) os << ' ';
    std::string active = std::to_string(counts.first);
    std::string supp = std::to_string(counts.second);
    for (std::size_t i = active.size(); i < 6; ++i) os << ' ';
    os << active << "  ";
    for (std::size_t i = supp.size(); i < 10; ++i) os << ' ';
    os << supp << "\n";
  }
  return os.str();
}

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// finding messages carry file paths and witness text, nothing exotic.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatReportJson(const Report& report) {
  std::ostringstream os;
  os << "{\n  \"files_linted\": " << report.files_linted
     << ",\n  \"active\": " << report.active_count()
     << ",\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : report.findings) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"file\": \"" << JsonEscape(f.file)
       << "\", \"line\": " << f.line << ", \"rule\": \"" << JsonEscape(f.rule)
       << "\", \"suppressed\": " << (f.suppressed ? "true" : "false")
       << ", \"message\": \"" << JsonEscape(f.message) << "\"}";
  }
  os << (first ? "]" : "\n  ]") << ",\n  \"rules\": {";
  first = true;
  for (const RuleInfo& rule : kRules) {
    const auto it = report.per_rule.find(std::string(rule.id));
    const auto counts = it == report.per_rule.end()
                            ? std::make_pair(std::size_t{0}, std::size_t{0})
                            : it->second;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    \"" << rule.id << "\": {\"active\": " << counts.first
       << ", \"suppressed\": " << counts.second << "}";
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
  return os.str();
}

}  // namespace vorlint
