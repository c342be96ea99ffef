// hflint: the in-repo invariant linter, run as a ctest over the full tree.
//
// Walks src/ tests/ bench/ tools/ under the repo root (argv[1], default ".")
// and enforces the conventions documented in docs/STATIC_ANALYSIS.md:
//
//   include-guard        #ifndef/#define guard spelled from the file path
//                        (src/common/check.h -> SRC_COMMON_CHECK_H_)
//   no-include-cc        never #include an implementation file
//   include-path         quoted includes are repo-root-relative, live under
//                        src/ tests/ bench/ tools/, and resolve to a file
//   banned-rand          rand()/srand() are banned; use hybridflow::Rng so
//                        runs stay reproducible from a seed
//   naked-new            no naked new/delete outside src/tensor/ (the one
//                        place that manages raw buffers); use value members
//                        or std::unique_ptr
//   pool-task-capture    lambdas handed to ThreadPool Submit/ParallelFor
//                        must not capture `this` or default-capture [=]:
//                        tasks may outlive `this` (and a shared_ptr copy of
//                        it keeps worker groups alive past their pools)
//   mutex-guards         every mutex member documents what it protects,
//                        via HF_GUARDED_BY on the protected members or a
//                        `// guards:` comment at the declaration
//   condvar-wait         CondVar::Wait (any member `.Wait(arg)` call) sits
//                        inside a while (predicate) loop — never if-guarded
//                        or naked. Spurious wakeups are real and the
//                        schedule fuzzer widens the stolen-wakeup window,
//                        so the predicate must be re-checked on wake
//   unreferenced-guard   (src/ only) a mutex member with zero
//                        HF_GUARDED_BY(<name>) references in its file is
//                        a comment-only guard: nothing ties it to its data
//                        for -Wthread-safety, so the contract can rot
//                        silently. Annotate the protected members instead
//   thread-construction  std::thread is constructed only in
//                        src/common/thread_pool.cc; everything else goes
//                        through ThreadPool
//   annotated-sync       src/rollout/, src/tensor/, src/nn/, src/serving/,
//                        and src/kvcache/ use the
//                        capability-annotated Mutex/MutexLock/CondVar from
//                        src/common/annotations.h, never raw std::mutex /
//                        std::lock_guard / std::condition_variable — these
//                        subsystems run under TSan and -Wthread-safety,
//                        and unannotated primitives opt out silently (the
//                        tensor/nn kernels share mutable state with the
//                        pool via atomics and chunk ownership only)
//   simd-intrinsics      x86 vector intrinsics (immintrin.h and friends,
//                        _mm*/__m* tokens) are confined to
//                        src/tensor/simd.h and src/tensor/simd.cc; every
//                        other file calls the runtime-dispatched simd::
//                        kernels so the scalar<->AVX2 bitwise contract in
//                        docs/KERNELS.md has a single enforcement point
//   one-step-loop        (src/ only) a RolloutScheduler is constructed
//                        only in src/rollout/step_loop.cc: every
//                        generation path runs the one StepLoop with a data
//                        or sim executor, so a fifth scheduler step loop
//                        cannot come back unnoticed
//   borrowed-event-log   (src/ only) outside src/obs/, code only borrows a
//                        SeqEventLog* from its caller and never constructs
//                        one: latency accounting lives on the sequences,
//                        so a hidden always-on log cannot come back behind
//                        the null-log contract
//   closed-form-pricing  no KvBlockManager is constructed in src/perf/ or
//                        src/mapping/: pricing code asks the static
//                        KvBlockManager::CapacitySequences(config, tokens)
//                        instead of building a paged cache per candidate,
//                        so Algorithm 1 stays as cheap as what it prices
//   one-scheduler-config (src/ only) no struct or class other than
//                        RolloutSchedulerConfig declares a member named
//                        prefill_chunk_tokens, projected_peak_admission,
//                        max_running, fair_quantum_tokens, tenant_weights
//                        or expire_overdue: every generation surface takes
//                        the scheduler's one config, so a mirror struct and
//                        a converter that drops fields cannot come back
//   one-algorithm-switch (src/ only) an RlhfAlgorithm enumerator
//                        (`RlhfAlgorithm::k...`) is spelled only in the
//                        dataflow table, src/rlhf/dataflow.{h,cc}: which
//                        models an algorithm runs, its generation passes
//                        and its estimator are read from its RlhfDataflow,
//                        so a second per-algorithm `if` or `switch` cannot
//                        drift away from the table
//   raw-diagnostics      library code under src/ never writes diagnostics
//                        with std::cerr / printf / fprintf; route them
//                        through src/common/logging.h (HF_LOG) or the
//                        src/obs/ sinks so output stays structured and
//                        filterable
//   doc-drift            backtick-quoted `src/...`-style paths and
//                        `ClassName::Member` references in docs/*.md must
//                        resolve against the tree: paths (and `*` globs,
//                        and extension-less tool names) must exist, the
//                        class must be declared somewhere under the walked
//                        directories, and the member must occur in code.
//                        `--docs-selftest` exercises the rule against a
//                        synthetic tree with known-stale references.
//
// `--rules-selftest` is the same style of negative gate for the
// concurrency and confinement rules (condvar-wait, unreferenced-guard,
// simd-intrinsics, one-step-loop, borrowed-event-log,
// closed-form-pricing, one-scheduler-config, one-algorithm-switch): a
// synthetic tree
// with known-bad shapes must produce exactly the expected findings, and
// the allow() hatches must suppress them.
//
// Suppress a finding on one line with: // hflint: allow(<rule>)
//
// Matching runs on comment- and string-stripped text (except the include
// rules, which read the raw line), so documentation never trips a rule.
// No external dependencies; exits non-zero when any finding is reported.

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;  // Repo-root-relative path.
  int line;          // 1-based; 0 for whole-file findings.
  std::string rule;
  std::string message;
};

struct FileText {
  std::string path;                 // Repo-root-relative, '/'-separated.
  std::vector<std::string> raw;     // Original lines.
  std::vector<std::string> code;    // Comment- and string-stripped lines.
  std::vector<std::string> allows;  // Per-line "hflint: allow(...)" payloads.
};

bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

// Removes // and /* */ comments, string and char literal *contents* (the
// quotes remain so expressions keep their shape), collecting per-line
// hflint allow annotations from the comments as they are dropped.
void StripCommentsAndStrings(FileText& file) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  file.code.reserve(file.raw.size());
  file.allows.assign(file.raw.size(), "");
  for (size_t li = 0; li < file.raw.size(); ++li) {
    const std::string& in = file.raw[li];
    // Allow annotations live in comments; harvest from the raw text.
    const size_t allow_pos = in.find("hflint: allow(");
    if (allow_pos != std::string::npos) {
      const size_t open = in.find('(', allow_pos);
      const size_t close = in.find(')', open);
      if (close != std::string::npos) {
        file.allows[li] = in.substr(open + 1, close - open - 1);
      }
    }
    std::string out;
    out.reserve(in.size());
    if (state == State::kLineComment) {
      state = State::kCode;  // Line comments end with the line.
    }
    for (size_t i = 0; i < in.size(); ++i) {
      const char c = in[i];
      const char next = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            i = in.size();
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            ++i;
          } else if (c == '"') {
            state = State::kString;
            out.push_back(c);
          } else if (c == '\'') {
            state = State::kChar;
            out.push_back(c);
          } else {
            out.push_back(c);
          }
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            ++i;
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            state = State::kCode;
            out.push_back(c);
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
            out.push_back(c);
          }
          break;
        case State::kLineComment:
          break;
      }
    }
    file.code.push_back(std::move(out));
  }
}

bool Allowed(const FileText& file, size_t line_index, const std::string& rule) {
  return line_index < file.allows.size() &&
         file.allows[line_index].find(rule) != std::string::npos;
}

// Finds `token` at position >= from where both neighbours are non-identifier
// characters (word-boundary search).
size_t FindToken(const std::string& line, const std::string& token, size_t from = 0) {
  size_t pos = line.find(token, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t after = pos + token.size();
    const bool right_ok = after >= line.size() || !IsIdentChar(line[after]);
    if (left_ok && right_ok) {
      return pos;
    }
    pos = line.find(token, pos + 1);
  }
  return std::string::npos;
}

std::string ExpectedGuard(const std::string& path) {
  std::string guard;
  guard.reserve(path.size() + 1);
  for (char c : path) {
    if (c == '/' || c == '.' || c == '-') {
      guard.push_back('_');
    } else {
      guard.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  guard.push_back('_');
  return guard;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void CheckIncludeGuard(const FileText& file, std::vector<Finding>& findings) {
  if (!EndsWith(file.path, ".h")) {
    return;
  }
  const std::string expected = ExpectedGuard(file.path);
  int ifndef_line = -1;
  bool has_define = false;
  auto trimmed_tail = [](const std::string& line) {
    const size_t end = line.find_last_not_of(" \t");
    return end == std::string::npos ? std::string() : line.substr(8, end - 7);
  };
  for (size_t i = 0; i < file.raw.size(); ++i) {
    const std::string& line = file.raw[i];
    if (ifndef_line < 0 && StartsWith(line, "#ifndef ")) {
      if (trimmed_tail(line) == expected) {
        ifndef_line = static_cast<int>(i);
      } else {
        findings.push_back({file.path, static_cast<int>(i) + 1, "include-guard",
                            "guard '" + line.substr(8) + "' should be '" + expected + "'"});
        return;
      }
    } else if (ifndef_line >= 0 && StartsWith(line, "#define ")) {
      has_define = trimmed_tail(line) == expected;
      break;
    }
  }
  if (ifndef_line < 0 || !has_define) {
    findings.push_back({file.path, 0, "include-guard",
                        "missing #ifndef/#define include guard '" + expected + "'"});
  }
}

void CheckIncludes(const FileText& file, const fs::path& root,
                   std::vector<Finding>& findings) {
  for (size_t i = 0; i < file.raw.size(); ++i) {
    const std::string& line = file.raw[i];
    size_t pos = line.find_first_not_of(" \t");
    if (pos == std::string::npos || line[pos] != '#') {
      continue;
    }
    const size_t inc = line.find("include", pos);
    if (inc == std::string::npos) {
      continue;
    }
    const size_t open = line.find_first_of("\"<", inc);
    if (open == std::string::npos) {
      continue;
    }
    const char closer = line[open] == '"' ? '"' : '>';
    const size_t close = line.find(closer, open + 1);
    if (close == std::string::npos) {
      continue;
    }
    const std::string target = line.substr(open + 1, close - open - 1);
    if (EndsWith(target, ".cc") || EndsWith(target, ".cpp")) {
      if (!Allowed(file, i, "no-include-cc")) {
        findings.push_back({file.path, static_cast<int>(i) + 1, "no-include-cc",
                            "do not #include implementation file '" + target + "'"});
      }
      continue;
    }
    if (closer != '"') {
      continue;  // System includes are free-form.
    }
    const bool rooted = StartsWith(target, "src/") || StartsWith(target, "tests/") ||
                        StartsWith(target, "bench/") || StartsWith(target, "tools/");
    if (!rooted) {
      if (!Allowed(file, i, "include-path")) {
        findings.push_back({file.path, static_cast<int>(i) + 1, "include-path",
                            "quoted include '" + target +
                                "' must be repo-root-relative (src/..., bench/..., ...)"});
      }
    } else if (!fs::exists(root / target)) {
      findings.push_back({file.path, static_cast<int>(i) + 1, "include-path",
                          "include '" + target + "' does not resolve to a file"});
    }
  }
}

void CheckBannedCalls(const FileText& file, std::vector<Finding>& findings) {
  const bool tensor_file = StartsWith(file.path, "src/tensor/");
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    if (line.empty()) {
      continue;
    }
    // banned-rand: non-seeded libc randomness breaks reproducibility.
    for (const char* fn : {"rand", "srand", "drand48"}) {
      const size_t pos = FindToken(line, fn);
      if (pos != std::string::npos && pos + std::string(fn).size() < line.size() &&
          line[pos + std::string(fn).size()] == '(' && !Allowed(file, i, "banned-rand")) {
        findings.push_back({file.path, static_cast<int>(i) + 1, "banned-rand",
                            std::string(fn) + "() is banned; draw from hybridflow::Rng"});
      }
    }
    // naked-new / naked-delete outside src/tensor/.
    if (!tensor_file) {
      const size_t new_pos = FindToken(line, "new");
      if (new_pos != std::string::npos && !Allowed(file, i, "naked-new")) {
        // Only flag expression-new: `new Type...`, not `operator new` decls.
        const size_t after = line.find_first_not_of(" \t", new_pos + 3);
        const bool is_expr = after != std::string::npos &&
                             (IsIdentChar(line[after]) || line[after] == '(' ||
                              line[after] == '[') &&
                             line.find("operator") == std::string::npos;
        if (is_expr) {
          findings.push_back({file.path, static_cast<int>(i) + 1, "naked-new",
                              "naked new outside src/tensor/; use std::make_unique or a "
                              "value member"});
        }
      }
      size_t del_pos = FindToken(line, "delete");
      if (del_pos != std::string::npos && !Allowed(file, i, "naked-delete")) {
        // `= delete;` (deleted functions) and `= delete` in defaulted
        // declarations are language, not deallocation.
        size_t before = line.find_last_not_of(" \t", del_pos == 0 ? 0 : del_pos - 1);
        const bool deleted_fn = before != std::string::npos && line[before] == '=';
        if (!deleted_fn) {
          findings.push_back({file.path, static_cast<int>(i) + 1, "naked-delete",
                              "naked delete outside src/tensor/; prefer owning types"});
        }
      }
    }
    // pool-task-capture: Submit/ParallelFor lambdas must not capture `this`
    // or use [=] (same-line heuristic; multi-line captures are rare here).
    for (const char* entry : {"Submit", "ParallelFor"}) {
      const size_t call = FindToken(line, entry);
      if (call == std::string::npos) {
        continue;
      }
      const size_t paren = line.find('(', call);
      if (paren == std::string::npos || paren != call + std::string(entry).size()) {
        continue;
      }
      const size_t open = line.find('[', paren);
      if (open == std::string::npos) {
        continue;
      }
      const size_t close = line.find(']', open);
      if (close == std::string::npos) {
        continue;
      }
      const std::string capture = line.substr(open + 1, close - open - 1);
      const bool captures_this = FindToken(capture, "this") != std::string::npos ||
                                 capture.find('=') != std::string::npos;
      if (captures_this && !Allowed(file, i, "pool-task-capture")) {
        findings.push_back({file.path, static_cast<int>(i) + 1, "pool-task-capture",
                            "pool task captures `this`/[=]; capture the needed members "
                            "explicitly by reference or value"});
      }
    }
  }
}

// Parses `line` as a mutex *member* declaration (`Mutex foo_;`,
// `mutable std::mutex foo_{...};`) and returns the member name, or "" when
// the line is not one. The repo's naming convention marks members with a
// trailing underscore, which is what separates them from locals and
// parameters. When `skip_references`, reference members (`Mutex& foo_;`)
// return "" — they alias a mutex owned (and documented) elsewhere.
std::string MutexMemberName(const std::string& line, bool skip_references) {
  size_t pos = std::string::npos;
  for (const char* type : {"std::mutex", "std::recursive_mutex", "std::shared_mutex"}) {
    pos = FindToken(line, type);
    if (pos != std::string::npos) {
      pos += std::string(type).size();
      break;
    }
  }
  if (pos == std::string::npos) {
    const size_t mu = FindToken(line, "Mutex");
    if (mu != std::string::npos && (mu < 2 || line.compare(mu - 2, 2, "::") != 0)) {
      pos = mu + 5;
    }
  }
  if (pos == std::string::npos) {
    return "";
  }
  const size_t name_begin = line.find_first_not_of(" \t&*", pos);
  if (name_begin == std::string::npos || !IsIdentChar(line[name_begin])) {
    return "";
  }
  if (skip_references && line.find_first_of("&*", pos) < name_begin) {
    return "";
  }
  size_t name_end = name_begin;
  while (name_end < line.size() && IsIdentChar(line[name_end])) {
    ++name_end;
  }
  const std::string name = line.substr(name_begin, name_end - name_begin);
  if (name.empty() || name.back() != '_') {
    return "";  // Local or parameter, not a member.
  }
  const size_t rest = line.find_first_not_of(" \t", name_end);
  if (rest == std::string::npos || (line[rest] != ';' && line[rest] != '{')) {
    return "";  // Not a plain declaration (e.g. a function taking Mutex&).
  }
  return name;
}

void CheckMutexGuards(const FileText& file, std::vector<Finding>& findings) {
  // Collect the whole file once to look for HF_GUARDED_BY(<mutex>) uses.
  std::string joined;
  for (const std::string& line : file.code) {
    joined += line;
    joined += '\n';
  }
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string name = MutexMemberName(file.code[i], /*skip_references=*/false);
    if (name.empty()) {
      continue;
    }
    const bool has_comment =
        file.raw[i].find("guards:") != std::string::npos ||
        (i > 0 && file.raw[i - 1].find("guards:") != std::string::npos);
    const bool has_annotation = joined.find("HF_GUARDED_BY(" + name + ")") != std::string::npos;
    if (!has_comment && !has_annotation && !Allowed(file, i, "mutex-guards")) {
      findings.push_back({file.path, static_cast<int>(i) + 1, "mutex-guards",
                          "mutex member '" + name +
                              "' must document what it protects (HF_GUARDED_BY on the "
                              "data or a `// guards:` comment)"});
    }
  }
}

// unreferenced-guard: in library code, a `// guards:` comment alone is not
// machine-checked — if no member is HF_GUARDED_BY(<mutex>), -Wthread-safety
// verifies nothing and the documented contract can rot silently.
void CheckUnreferencedGuard(const FileText& file, std::vector<Finding>& findings) {
  if (!StartsWith(file.path, "src/")) {
    return;  // Tests/benches/tools may use ad-hoc locals and fixtures.
  }
  std::string joined;
  for (const std::string& line : file.code) {
    joined += line;
    joined += '\n';
  }
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string name = MutexMemberName(file.code[i], /*skip_references=*/true);
    if (name.empty()) {
      continue;
    }
    if (joined.find("HF_GUARDED_BY(" + name + ")") == std::string::npos &&
        !Allowed(file, i, "unreferenced-guard")) {
      findings.push_back({file.path, static_cast<int>(i) + 1, "unreferenced-guard",
                          "mutex member '" + name + "' has zero HF_GUARDED_BY(" + name +
                              ") references in this file; annotate the protected members "
                              "(a `// guards:` comment alone is not machine-checked)"});
    }
  }
}

// condvar-wait: a condition wait must re-check its predicate in a loop.
// Textual heuristic: a member call `x.Wait(arg)` / `x->Wait(arg)` with a
// non-empty argument list (CondVar::Wait takes the mutex; zero-arg Wait()
// methods on futures etc. stay out of scope) is loop-shaped iff the
// nearest preceding control keyword — same line before the call, else up
// to two previous lines — is `while` or `do`.
void CheckCondVarWait(const FileText& file, std::vector<Finding>& findings) {
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    size_t pos = FindToken(line, "Wait");
    for (; pos != std::string::npos; pos = FindToken(line, "Wait", pos + 4)) {
      const size_t after = pos + 4;
      if (after >= line.size() || line[after] != '(') {
        continue;
      }
      const bool member_call =
          (pos > 0 && line[pos - 1] == '.') ||
          (pos > 1 && line[pos - 2] == '-' && line[pos - 1] == '>');
      const size_t arg = line.find_first_not_of(" \t", after + 1);
      const bool has_arg = arg != std::string::npos && line[arg] != ')';
      if (!member_call || !has_arg || Allowed(file, i, "condvar-wait")) {
        continue;
      }
      std::string context;
      for (size_t back = i >= 2 ? i - 2 : 0; back < i; ++back) {
        context += file.code[back];
        context += '\n';
      }
      context += line.substr(0, pos);
      std::string nearest;
      size_t nearest_pos = 0;
      for (const char* keyword : {"while", "do", "if", "for", "switch"}) {
        size_t k = FindToken(context, keyword);
        for (; k != std::string::npos; k = FindToken(context, keyword, k + 1)) {
          if (nearest.empty() || k >= nearest_pos) {
            nearest = keyword;
            nearest_pos = k;
          }
        }
      }
      if (nearest == "while" || nearest == "do") {
        continue;
      }
      if (nearest == "if") {
        findings.push_back({file.path, static_cast<int>(i) + 1, "condvar-wait",
                            "CondVar::Wait guarded by 'if'; spurious/stolen wakeups "
                            "require re-checking the predicate: while (pred) { Wait; }"});
      } else {
        findings.push_back({file.path, static_cast<int>(i) + 1, "condvar-wait",
                            "CondVar::Wait outside a while (predicate) loop; naked waits "
                            "miss spurious/stolen wakeups"});
      }
    }
  }
}

void CheckRawDiagnostics(const FileText& file, std::vector<Finding>& findings) {
  // Library code only: examples, benches, tests, and tools are user-facing
  // programs whose stdout/stderr IS the product. The logger and the
  // observability sinks are the two sanctioned writers.
  if (!StartsWith(file.path, "src/") || StartsWith(file.path, "src/obs/") ||
      StartsWith(file.path, "src/common/logging.")) {
    return;
  }
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    if (line.empty()) {
      continue;
    }
    if (line.find("std::cerr") != std::string::npos &&
        !Allowed(file, i, "raw-diagnostics")) {
      findings.push_back({file.path, static_cast<int>(i) + 1, "raw-diagnostics",
                          "std::cerr in library code; use HF_LOG (src/common/logging.h) "
                          "or an src/obs/ sink"});
    }
    for (const char* fn : {"printf", "fprintf"}) {
      const size_t pos = FindToken(line, fn);
      if (pos != std::string::npos && pos + std::string(fn).size() < line.size() &&
          line[pos + std::string(fn).size()] == '(' &&
          !Allowed(file, i, "raw-diagnostics")) {
        findings.push_back({file.path, static_cast<int>(i) + 1, "raw-diagnostics",
                            std::string(fn) + "() in library code; use HF_LOG "
                            "(src/common/logging.h) or an src/obs/ sink"});
      }
    }
  }
}

void CheckThreadConstruction(const FileText& file, std::vector<Finding>& findings) {
  if (file.path == "src/common/thread_pool.cc" || file.path == "src/common/thread_pool.h") {
    return;
  }
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (const char* type : {"std::thread", "std::jthread"}) {
      size_t pos = line.find(type);
      while (pos != std::string::npos) {
        const size_t after = pos + std::string(type).size();
        // `std::thread::id`, `std::thread::hardware_concurrency` etc. are
        // type access, not construction; `std::this_thread` never matches.
        const bool scope_access = after + 1 < line.size() && line[after] == ':' &&
                                  line[after + 1] == ':';
        const bool ident_continue = after < line.size() && IsIdentChar(line[after]);
        if (!scope_access && !ident_continue && !Allowed(file, i, "thread-construction")) {
          findings.push_back({file.path, static_cast<int>(i) + 1, "thread-construction",
                              "std::thread outside src/common/thread_pool.cc; use "
                              "ThreadPool (Submit/ParallelFor)"});
        }
        pos = line.find(type, after);
      }
    }
  }
}

void CheckAnnotatedSync(const FileText& file, std::vector<Finding>& findings) {
  bool covered = false;
  for (const char* prefix :
       {"src/rollout/", "src/tensor/", "src/nn/", "src/serving/", "src/kvcache/"}) {
    covered = covered || file.path.rfind(prefix, 0) == 0;
  }
  if (!covered) {
    return;
  }
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (const char* type :
         {"std::mutex", "std::recursive_mutex", "std::shared_mutex", "std::timed_mutex",
          "std::lock_guard", "std::unique_lock", "std::scoped_lock", "std::shared_lock",
          "std::condition_variable", "std::condition_variable_any"}) {
      size_t pos = line.find(type);
      while (pos != std::string::npos) {
        const size_t after = pos + std::string(type).size();
        // Skip longer identifiers (std::condition_variable_any has its own
        // probe; std::mutex_* would be a different name entirely).
        const bool ident_continue = after < line.size() && IsIdentChar(line[after]);
        if (!ident_continue && !Allowed(file, i, "annotated-sync")) {
          findings.push_back({file.path, static_cast<int>(i) + 1, "annotated-sync",
                              std::string(type) +
                                  " in an annotated-sync subsystem (src/rollout/, src/tensor/, "
                                  "src/nn/, src/serving/, src/kvcache/); use the annotated "
                                  "Mutex / MutexLock / CondVar from src/common/annotations.h"});
        }
        pos = line.find(type, after);
      }
    }
  }
}

// SIMD intrinsics stay behind the dispatch layer: only src/tensor/simd.h
// and src/tensor/simd.cc may include intrinsics headers or spell
// _mm*/__m* tokens. Everything else calls the simd:: kernels, which pair
// each AVX2 path with the scalar sequence it must match bitwise — an
// intrinsic elsewhere would dodge that contract.
void CheckSimdIntrinsics(const FileText& file, std::vector<Finding>& findings) {
  if (file.path == "src/tensor/simd.h" || file.path == "src/tensor/simd.cc") {
    return;
  }
  for (size_t i = 0; i < file.raw.size(); ++i) {
    // Include check runs on the raw line (includes never hide in strings
    // that matter, and the directive must start the line).
    const std::string& raw = file.raw[i];
    const size_t first = raw.find_first_not_of(" \t");
    if (first != std::string::npos && raw[first] == '#' &&
        raw.find("include", first) != std::string::npos &&
        raw.find("intrin.h") != std::string::npos) {
      if (!Allowed(file, i, "simd-intrinsics")) {
        findings.push_back({file.path, static_cast<int>(i) + 1, "simd-intrinsics",
                            "intrinsics header include outside src/tensor/simd.{h,cc}; "
                            "use the dispatched simd:: kernels"});
      }
      continue;
    }
    const std::string& line = file.code[i];
    for (const char* needle : {"_mm_", "_mm256_", "_mm512_", "__m128", "__m256", "__m512"}) {
      const size_t pos = line.find(needle);
      if (pos == std::string::npos) {
        continue;
      }
      // `x_mm_...` is some other identifier, not an intrinsic.
      if (pos > 0 && IsIdentChar(line[pos - 1])) {
        continue;
      }
      if (!Allowed(file, i, "simd-intrinsics")) {
        findings.push_back({file.path, static_cast<int>(i) + 1, "simd-intrinsics",
                            std::string(needle) +
                                " intrinsic outside src/tensor/simd.{h,cc}; use the "
                                "dispatched simd:: kernels"});
      }
      break;  // One finding per line is enough.
    }
  }
}

// Flags each line of `file` that constructs a `type` object, unless
// hatched with allow(rule). Construction shapes: `Type name(...)` /
// `{...}` / `;`, a temporary `Type(...)`, `new Type`, or a template
// argument `<Type>` (make_unique, optional, containers). References,
// pointers and `Type::` scope access are fine.
void FlagConstructions(const FileText& file, const std::string& type, const std::string& rule,
                       const std::string& message, std::vector<Finding>& findings) {
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (size_t pos = FindToken(line, type); pos != std::string::npos;
         pos = FindToken(line, type, pos + 1)) {
      size_t at = line.find_first_not_of(' ', pos + type.size());
      const char next = at == std::string::npos ? '\0' : line[at];
      const size_t before = pos == 0 ? std::string::npos : line.find_last_not_of(' ', pos - 1);
      bool constructs = next == '(' || next == '{' ||
                        (before != std::string::npos && line[before] == '<' && next == '>') ||
                        (before != std::string::npos && before >= 2 &&
                         line.compare(before - 2, 3, "new") == 0);
      if (!constructs && at != std::string::npos && IsIdentChar(next)) {
        while (at < line.size() && IsIdentChar(line[at])) {
          ++at;
        }
        at = line.find_first_not_of(' ', at);
        constructs = at == std::string::npos || line[at] == '(' || line[at] == '{' ||
                     line[at] == ';';
      }
      if (constructs && !Allowed(file, i, rule)) {
        findings.push_back({file.path, static_cast<int>(i) + 1, rule, message});
      }
    }
  }
}

// One step loop: RunStepLoop (src/rollout/step_loop.cc) is the only code
// in src/ that constructs a RolloutScheduler and drives its step cycle.
void CheckOneStepLoop(const FileText& file, std::vector<Finding>& findings) {
  if (file.path.rfind("src/", 0) != 0 || file.path == "src/rollout/step_loop.cc" ||
      file.path == "src/rollout/scheduler.h" || file.path == "src/rollout/scheduler.cc") {
    return;
  }
  FlagConstructions(file, "RolloutScheduler", "one-step-loop",
                    "RolloutScheduler constructed outside src/rollout/step_loop.cc; "
                    "run RunStepLoop with a data or sim executor",
                    findings);
}

// One algorithm switch: in src/, only the dataflow table spells an
// RlhfAlgorithm enumerator; everything else reads the algorithm's
// RlhfDataflow.
void CheckOneAlgorithmSwitch(const FileText& file, std::vector<Finding>& findings) {
  if (file.path.rfind("src/", 0) != 0 || file.path == "src/rlhf/dataflow.h" ||
      file.path == "src/rlhf/dataflow.cc") {
    return;
  }
  const std::string type = "RlhfAlgorithm";
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (size_t pos = FindToken(line, type); pos != std::string::npos;
         pos = FindToken(line, type, pos + 1)) {
      if (line.compare(pos + type.size(), 3, "::k") == 0 &&
          !Allowed(file, i, "one-algorithm-switch")) {
        findings.push_back({file.path, static_cast<int>(i) + 1, "one-algorithm-switch",
                            "RlhfAlgorithm enumerator outside src/rlhf/dataflow.{h,cc}; "
                            "read the algorithm's RlhfDataflow (DataflowOf) instead"});
        break;  // One finding per line is enough.
      }
    }
  }
}

// Borrowed event log: outside src/obs/, src/ code records into a
// SeqEventLog only when a caller hands one in, so "null log = one pointer
// compare" holds on every path.
void CheckBorrowedEventLog(const FileText& file, std::vector<Finding>& findings) {
  if (file.path.rfind("src/", 0) != 0 || file.path.rfind("src/obs/", 0) == 0) {
    return;
  }
  FlagConstructions(file, "SeqEventLog", "borrowed-event-log",
                    "SeqEventLog constructed outside src/obs/; borrow the caller's "
                    "SeqEventLog* and read latency from the sequences' stamps",
                    findings);
}

// Closed-form pricing: src/perf/ and src/mapping/ price KV capacity with
// the static KvBlockManager::CapacitySequences, never by building a paged
// cache (and its block vector) per candidate.
void CheckClosedFormPricing(const FileText& file, std::vector<Finding>& findings) {
  if (file.path.rfind("src/perf/", 0) != 0 && file.path.rfind("src/mapping/", 0) != 0) {
    return;
  }
  FlagConstructions(file, "KvBlockManager", "closed-form-pricing",
                    "KvBlockManager constructed in pricing code; use the static "
                    "KvBlockManager::CapacitySequences(config, tokens)",
                    findings);
}

// One scheduler config: in src/, only RolloutSchedulerConfig declares the
// scheduler's settings as members; every surface derives from it or holds
// one, so no hand-written converter can drop a field again. Tracks the
// enclosing struct/class of each brace so that locals and member accesses
// of the same names never match.
void CheckOneSchedulerConfig(const FileText& file, std::vector<Finding>& findings) {
  if (file.path.rfind("src/", 0) != 0) {
    return;
  }
  static const char* const kSettings[] = {"prefill_chunk_tokens", "projected_peak_admission",
                                          "max_running",          "fair_quantum_tokens",
                                          "tenant_weights",       "expire_overdue"};
  std::vector<std::string> scopes;  // Enclosing record name per brace; "" = other.
  std::string pending;              // Record named since the last `{` or `;`.
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    const std::string record = scopes.empty() ? "" : scopes.back();
    if (!record.empty() && record != "RolloutSchedulerConfig") {
      for (const char* name : kSettings) {
        const size_t pos = FindToken(line, name);
        if (pos == std::string::npos) {
          continue;
        }
        // A declaration: a type (identifier, `>`, `*`, `&`) before the
        // name and an initializer or `;` after it.
        const size_t before = pos == 0 ? std::string::npos : line.find_last_not_of(' ', pos - 1);
        const size_t after = line.find_first_not_of(' ', pos + std::string(name).size());
        const bool typed = before != std::string::npos &&
                           (IsIdentChar(line[before]) || line[before] == '>' ||
                            line[before] == '*' || line[before] == '&');
        const bool declares = after == std::string::npos || line[after] == ';' ||
                              line[after] == '{' ||
                              (line[after] == '=' && line.compare(after, 2, "==") != 0);
        if (typed && declares && !Allowed(file, i, "one-scheduler-config")) {
          findings.push_back({file.path, static_cast<int>(i) + 1, "one-scheduler-config",
                              std::string(name) + " declared in " + record +
                                  "; the scheduler's settings live only in "
                                  "RolloutSchedulerConfig (derive from it or hold one)"});
        }
      }
    }
    for (size_t pos = 0; pos < line.size(); ++pos) {
      const char c = line[pos];
      if (c == '{') {
        scopes.push_back(pending);
        pending.clear();
      } else if (c == '}') {
        if (!scopes.empty()) {
          scopes.pop_back();
        }
      } else if (c == ';') {
        pending.clear();  // A forward declaration or a variable of the type.
      } else if (IsIdentChar(c) && (pos == 0 || !IsIdentChar(line[pos - 1]))) {
        size_t end = pos;
        while (end < line.size() && IsIdentChar(line[end])) {
          ++end;
        }
        const std::string word = line.substr(pos, end - pos);
        const size_t before = pos == 0 ? std::string::npos : line.find_last_not_of(' ', pos - 1);
        const bool after_enum = before != std::string::npos && before >= 3 &&
                                line.compare(before - 3, 4, "enum") == 0;
        if ((word == "struct" || word == "class") && !after_enum) {
          // The record's name, unless this is a template parameter
          // (`class T>` / `class T,` / `class T =`).
          size_t name = line.find_first_not_of(' ', end);
          size_t name_end = name;
          while (name_end < line.size() && IsIdentChar(line[name_end])) {
            ++name_end;
          }
          const size_t next = line.find_first_not_of(' ', name_end);
          const bool parameter = next != std::string::npos &&
                                 (line[next] == '>' || line[next] == ',' || line[next] == '=');
          if (name != std::string::npos && name_end > name && !parameter) {
            pending = line.substr(name, name_end - name);
          }
          if (name != std::string::npos) {
            end = name_end;
          }
        }
        pos = end - 1;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// doc-drift: documentation references must resolve against the tree.
// ---------------------------------------------------------------------------

bool IsIdentifier(const std::string& s) {
  if (s.empty() || (std::isalpha(static_cast<unsigned char>(s[0])) == 0 && s[0] != '_')) {
    return false;
  }
  for (char c : s) {
    if (!IsIdentChar(c)) {
      return false;
    }
  }
  return true;
}

// One backtick-quoted span from a docs/*.md file (fenced ``` blocks are
// code examples, not references, and are skipped).
struct DocRef {
  std::string doc;   // Repo-root-relative doc path.
  int line = 0;      // 1-based line of the opening backtick.
  std::string text;  // Span content, newlines collapsed to spaces.
};

std::vector<DocRef> ExtractDocRefs(const fs::path& doc_path, const std::string& rel_path) {
  std::vector<DocRef> refs;
  std::ifstream in(doc_path);
  if (!in) {
    return refs;
  }
  bool in_fence = false;
  bool in_span = false;
  DocRef current;
  int line_number = 0;
  for (std::string line; std::getline(in, line); ) {
    ++line_number;
    const size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line.compare(first, 3, "```") == 0) {
      in_fence = !in_fence;
      in_span = false;  // A fence terminates any dangling inline span.
      continue;
    }
    if (in_fence) {
      continue;
    }
    for (char c : line) {
      if (c == '`') {
        if (in_span) {
          refs.push_back(current);
          current = DocRef();
        } else {
          current.doc = rel_path;
          current.line = line_number;
          current.text.clear();
        }
        in_span = !in_span;
      } else if (in_span) {
        current.text.push_back(c);
      }
    }
    if (in_span) {
      current.text.push_back(' ');  // Inline spans may wrap across lines.
    }
  }
  return refs;
}

// A documentation path reference: rooted at one of the walked top-level
// directories, made of path characters only. `src/...`-style ellipses and
// spans with spaces are prose, not references.
bool LooksLikePathRef(const std::string& text) {
  bool rooted = false;
  for (const char* top : {"src/", "tests/", "bench/", "tools/", "docs/", "configs/",
                          "examples/"}) {
    if (StartsWith(text, top) || text == std::string(top).substr(0, std::string(top).size() - 1)) {
      rooted = true;
      break;
    }
  }
  if (!rooted || text.find("...") != std::string::npos) {
    return false;
  }
  for (char c : text) {
    if (!IsIdentChar(c) && c != '/' && c != '.' && c != '-' && c != '*') {
      return false;
    }
  }
  return true;
}

// Resolves a path reference. Globs check the prefix before the first '*'
// against the directory's entries; extension-less references (binary names
// like `tools/hybridflow_run`) fall back to .cpp/.cc sources.
bool PathRefResolves(const fs::path& root, const std::string& text) {
  const size_t star = text.find('*');
  if (star != std::string::npos) {
    const std::string prefix = text.substr(0, star);
    const size_t slash = prefix.rfind('/');
    const fs::path dir = root / prefix.substr(0, slash == std::string::npos ? 0 : slash);
    const std::string name_prefix = slash == std::string::npos ? prefix : prefix.substr(slash + 1);
    if (!fs::is_directory(dir)) {
      return false;
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (StartsWith(entry.path().filename().string(), name_prefix)) {
        return true;
      }
    }
    return false;
  }
  if (fs::exists(root / text)) {
    return true;
  }
  for (const char* ext : {".cpp", ".cc", ".h"}) {
    if (fs::exists(root / (text + ext))) {
      return true;
    }
  }
  return false;
}

// Word-bounded search in the concatenated stripped-code corpus.
bool CorpusHasWord(const std::string& corpus, const std::string& word) {
  return FindToken(corpus, word) != std::string::npos;
}

// A type is "declared" when `class X` / `struct X` / `enum X` / `using X`
// appears in code (enum class matches via its `class X` substring).
// Attribute-decorated declarations (`class HF_CAPABILITY("mutex") Mutex`)
// defeat the keyword pattern, so any word-bounded occurrence of the name in
// code is accepted as weaker evidence — a renamed type still vanishes from
// the corpus entirely, which is the drift this rule exists to catch.
bool CorpusHasType(const std::string& corpus, const std::string& name) {
  for (const char* keyword : {"class ", "struct ", "enum ", "using "}) {
    const std::string needle = std::string(keyword) + name;
    size_t pos = corpus.find(needle);
    while (pos != std::string::npos) {
      const bool left_ok = pos == 0 || !IsIdentChar(corpus[pos - 1]);
      const size_t after = pos + needle.size();
      const bool right_ok = after >= corpus.size() || !IsIdentChar(corpus[after]);
      if (left_ok && right_ok) {
        return true;
      }
      pos = corpus.find(needle, pos + 1);
    }
  }
  return FindToken(corpus, name) != std::string::npos;
}

// Appends to `out` the body of every class/struct/enum declaring `name`,
// of its bases, and of the type a `using name = X;` alias names, so a
// member reference is checked against the type that must declare it.
// Returns false when no such declaration is found (an attribute-decorated
// class, a namespace), which leaves the caller the corpus-wide check.
bool CollectTypeBodies(const std::string& corpus, const std::string& name, int depth,
                       std::string* out) {
  if (depth > 4) {
    return false;
  }
  bool found = false;
  for (const char* keyword : {"class ", "struct ", "enum ", "using "}) {
    const std::string needle = std::string(keyword) + name;
    for (size_t pos = FindToken(corpus, needle); pos != std::string::npos;
         pos = FindToken(corpus, needle, pos + 1)) {
      const size_t head_end = corpus.find_first_of("{;", pos + needle.size());
      if (head_end == std::string::npos) {
        break;
      }
      // Between the name and `{`: a base list (`: public Base`) or, for an
      // alias, `= Target`. Each identifier there may declare members.
      std::string ident;
      for (size_t i = pos + needle.size(); i <= head_end; ++i) {
        if (i < head_end && IsIdentChar(corpus[i])) {
          ident.push_back(corpus[i]);
          continue;
        }
        if (!ident.empty() && ident != "public" && ident != "private" &&
            ident != "protected" && ident != "virtual" && ident != "final") {
          found = CollectTypeBodies(corpus, ident, depth + 1, out) || found;
        }
        ident.clear();
      }
      if (corpus[head_end] != '{') {
        continue;  // Forward declaration or alias.
      }
      int open = 0;
      size_t end = head_end;
      for (; end < corpus.size(); ++end) {
        open += corpus[end] == '{' ? 1 : corpus[end] == '}' ? -1 : 0;
        if (open == 0) {
          break;
        }
      }
      out->append(corpus, head_end, end - head_end + 1);
      found = true;
    }
  }
  return found;
}

// Splits `head` ("ClassName::Member", "ClassName::{kA, kB}", possibly
// hybridflow::-qualified) into the class token and the member tokens.
// Returns false when the text is not a symbol reference (no `::`, a URL,
// std::, or non-identifier components).
bool ParseSymbolRef(const std::string& text, std::string* type_name,
                    std::vector<std::string>* members) {
  if (text.find("::") == std::string::npos || text.find("://") != std::string::npos) {
    return false;
  }
  std::string head = text.substr(0, text.find('('));
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t sep = head.find("::", start);
    parts.push_back(head.substr(start, sep == std::string::npos ? sep : sep - start));
    if (sep == std::string::npos) {
      break;
    }
    start = sep + 2;
  }
  if (parts.size() < 2 || parts[0] == "std") {
    return false;
  }
  if (parts[0] == "hybridflow") {
    parts.erase(parts.begin());
  }
  if (!IsIdentifier(parts[0])) {
    return false;
  }
  *type_name = parts[0];
  members->clear();
  for (size_t i = 1; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    if (part.empty()) {
      continue;  // `Class::` with nothing usable after it.
    }
    if (part[0] == '{') {
      // Brace list `Class::{kA, kB}`: every identifier inside is a member.
      std::string ident;
      for (char c : part) {
        if (IsIdentChar(c)) {
          ident.push_back(c);
        } else if (!ident.empty()) {
          members->push_back(ident);
          ident.clear();
        }
      }
      if (!ident.empty()) {
        members->push_back(ident);
      }
    } else if (IsIdentifier(part)) {
      members->push_back(part);
    } else {
      return false;  // Templates or operators: out of scope for the rule.
    }
  }
  return true;
}

void CheckDocRefs(const fs::path& root, const std::string& corpus,
                  std::vector<Finding>& findings, int* docs_checked) {
  const fs::path docs_dir = root / "docs";
  if (!fs::exists(docs_dir)) {
    return;
  }
  for (const auto& entry : fs::directory_iterator(docs_dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".md") {
      continue;
    }
    const std::string rel = fs::relative(entry.path(), root).generic_string();
    for (const DocRef& ref : ExtractDocRefs(entry.path(), rel)) {
      if (LooksLikePathRef(ref.text)) {
        if (!PathRefResolves(root, ref.text)) {
          findings.push_back({ref.doc, ref.line, "doc-drift",
                              "path reference `" + ref.text + "` does not resolve"});
        }
        continue;
      }
      std::string type_name;
      std::vector<std::string> members;
      if (!ParseSymbolRef(ref.text, &type_name, &members)) {
        continue;
      }
      if (!CorpusHasType(corpus, type_name)) {
        findings.push_back({ref.doc, ref.line, "doc-drift",
                            "`" + ref.text + "`: type '" + type_name +
                                "' is not declared anywhere in the tree"});
        continue;
      }
      std::string bodies;
      const bool declared = CollectTypeBodies(corpus, type_name, 0, &bodies);
      for (const std::string& member : members) {
        if (declared && !CorpusHasWord(bodies, member)) {
          findings.push_back({ref.doc, ref.line, "doc-drift",
                              "`" + ref.text + "`: member '" + member + "' is not declared in '" +
                                  type_name + "' or its bases"});
        } else if (!CorpusHasWord(corpus, member)) {
          findings.push_back({ref.doc, ref.line, "doc-drift",
                              "`" + ref.text + "`: member '" + member +
                                  "' does not occur in the tree"});
        }
      }
    }
    ++*docs_checked;
  }
}

// Full lint pass over one tree. Returns findings; `files_checked` counts
// C++ sources, `docs_checked` counts docs/*.md files scanned for drift.
std::vector<Finding> LintTree(const fs::path& root, int* files_checked, int* docs_checked) {
  std::vector<Finding> findings;
  std::string corpus;
  for (const char* top : {"src", "tests", "bench", "tools"}) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") {
        continue;
      }
      FileText file;
      file.path = fs::relative(entry.path(), root).generic_string();
      std::ifstream in(entry.path());
      if (!in) {
        findings.push_back({file.path, 0, "io", "cannot read file"});
        continue;
      }
      for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line.back() == '\r') {
          line.pop_back();
        }
        file.raw.push_back(std::move(line));
      }
      StripCommentsAndStrings(file);
      CheckIncludeGuard(file, findings);
      CheckIncludes(file, root, findings);
      CheckBannedCalls(file, findings);
      CheckMutexGuards(file, findings);
      CheckUnreferencedGuard(file, findings);
      CheckCondVarWait(file, findings);
      CheckRawDiagnostics(file, findings);
      CheckThreadConstruction(file, findings);
      CheckAnnotatedSync(file, findings);
      CheckSimdIntrinsics(file, findings);
      CheckOneStepLoop(file, findings);
      CheckBorrowedEventLog(file, findings);
      CheckClosedFormPricing(file, findings);
      CheckOneSchedulerConfig(file, findings);
      CheckOneAlgorithmSwitch(file, findings);
      for (const std::string& line : file.code) {
        corpus += line;
        corpus += '\n';
      }
      ++*files_checked;
    }
  }
  CheckDocRefs(root, corpus, findings, docs_checked);
  return findings;
}

// --docs-selftest: the doc-drift rule must accept valid references and
// flag each kind of stale one (missing path, missing member, missing
// type) in a synthetic tree — a regression gate on the rule itself.
int RunDocsSelftest() {
  const fs::path tree = fs::path("hflint_docs_selftest_tree");
  fs::remove_all(tree);
  fs::create_directories(tree / "src/widget");
  fs::create_directories(tree / "docs");
  {
    std::ofstream header(tree / "src/widget/widget.h");
    header << "#ifndef SRC_WIDGET_WIDGET_H_\n"
           << "#define SRC_WIDGET_WIDGET_H_\n"
           << "namespace hybridflow {\n"
           << "class Widget {\n"
           << " public:\n"
           << "  void Frobnicate();\n"
           << "  int knob_count = 0;\n"
           << "};\n"
           << "enum class WidgetMode { kFast, kSlow };\n"
           << "}  // namespace hybridflow\n"
           << "#endif  // SRC_WIDGET_WIDGET_H_\n";
  }
  {
    std::ofstream good(tree / "docs/GOOD.md");
    good << "# Widgets\n\n"
         << "See `src/widget/widget.h` (also `src/widget/widget.*`) for\n"
         << "`Widget::Frobnicate`, `Widget::knob_count`, and\n"
         << "`WidgetMode::{kFast, kSlow}`. `hybridflow::Widget` works too.\n\n"
         << "```\nfenced blocks are ignored: `src/widget/nonexistent.h`\n```\n";
  }
  {
    std::ofstream stale(tree / "docs/STALE.md");
    stale << "# Stale\n\n"
          << "A removed file `src/widget/gadget.h`, a renamed method\n"
          << "`Widget::Defrobulate`, and a deleted type `Gizmo::Spin`.\n";
  }
  int files_checked = 0;
  int docs_checked = 0;
  const std::vector<Finding> findings = LintTree(tree, &files_checked, &docs_checked);
  fs::remove_all(tree);
  int failures = 0;
  if (docs_checked != 2) {
    std::cerr << "selftest: expected 2 docs scanned, got " << docs_checked << "\n";
    ++failures;
  }
  std::vector<std::string> expected = {"src/widget/gadget.h", "Defrobulate", "Gizmo"};
  for (const Finding& finding : findings) {
    if (finding.rule != "doc-drift") {
      std::cerr << "selftest: unexpected non-doc finding " << finding.file << ":"
                << finding.line << " [" << finding.rule << "] " << finding.message << "\n";
      ++failures;
      continue;
    }
    if (finding.file != "docs/STALE.md") {
      std::cerr << "selftest: false positive in " << finding.file << ": " << finding.message
                << "\n";
      ++failures;
      continue;
    }
    bool matched = false;
    for (auto it = expected.begin(); it != expected.end(); ++it) {
      if (finding.message.find(*it) != std::string::npos) {
        expected.erase(it);
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::cerr << "selftest: unexpected finding: " << finding.message << "\n";
      ++failures;
    }
  }
  for (const std::string& missing : expected) {
    std::cerr << "selftest: stale reference '" << missing << "' was NOT flagged\n";
    ++failures;
  }
  if (failures > 0) {
    std::cerr << "hflint --docs-selftest: " << failures << " failure(s)\n";
    return 1;
  }
  std::cout << "hflint --docs-selftest: ok (3 stale references flagged, 0 false positives)\n";
  return 0;
}

// --rules-selftest: the concurrency and confinement rules must flag each
// known-bad shape (if-guarded wait, naked wait, comment-only guard,
// intrinsics outside src/tensor/simd.*, a RolloutScheduler outside the
// step loop, a SeqEventLog constructed outside src/obs/, a paged KV cache
// built in pricing code, a scheduler setting mirrored in another struct,
// an algorithm `if` outside the dataflow table) and accept the good ones
// (while-looped wait, HF_GUARDED_BY-referenced mutex, intrinsics inside
// simd.h, the step loop's own scheduler, src/obs/'s own log, the static
// capacity call, the scheduler config's own settings, the table's own
// switch, tests naming algorithms, borrowed references, the allow()
// hatches) in a synthetic tree — a regression gate on the rules.
int RunRulesSelftest() {
  const fs::path tree = fs::path("hflint_rules_selftest_tree");
  fs::remove_all(tree);
  fs::create_directories(tree / "src/gadget");
  fs::create_directories(tree / "src/tensor");
  {
    std::ofstream header(tree / "src/gadget/gadget.h");
    header << "#ifndef SRC_GADGET_GADGET_H_\n"
           << "#define SRC_GADGET_GADGET_H_\n"
           << "namespace hybridflow {\n"
           << "class Gadget {\n"
           << " public:\n"
           << "  void IfGuardedWait() {\n"
           << "    if (!ready_) {\n"
           << "      cv_.Wait(mu_);\n"
           << "    }\n"
           << "  }\n"
           << "  void NakedWait() {\n"
           << "    cv_.Wait(mu_);\n"
           << "  }\n"
           << "  void LoopedWait() {\n"
           << "    while (!ready_) {\n"
           << "      cv_.Wait(mu_);\n"
           << "    }\n"
           << "  }\n"
           << "  void SameLineLoopedWait() {\n"
           << "    while (!ready_) cv_.Wait(mu_);\n"
           << "  }\n"
           << "  void AllowedWait() {\n"
           << "    cv_.Wait(mu_);  // hflint: allow(condvar-wait)\n"
           << "  }\n"
           << " private:\n"
           << "  Mutex lonely_mu_;  // guards: ready_ (comment only: unreferenced)\n"
           << "  CondVar cv_;\n"
           << "  bool ready_ = false;\n"
           << "};\n"
           << "class Widget {\n"
           << " private:\n"
           << "  Mutex mu_;\n"
           << "  bool spinning_ HF_GUARDED_BY(mu_) = false;\n"
           << "};\n"
           << "class Escape {\n"
           << " private:\n"
           << "  // guards: a cross-object invariant the analysis cannot express.\n"
           << "  Mutex mu_;  // hflint: allow(unreferenced-guard)\n"
           << "};\n"
           << "}  // namespace hybridflow\n"
           << "#endif  // SRC_GADGET_GADGET_H_\n";
  }
  {
    // Intrinsics in the confined home are fine; anywhere else both the
    // header include and the token forms must be flagged, and the
    // allow() hatch must suppress.
    std::ofstream simd(tree / "src/tensor/simd.h");
    simd << "#ifndef SRC_TENSOR_SIMD_H_\n"
         << "#define SRC_TENSOR_SIMD_H_\n"
         << "#include <immintrin.h>\n"
         << "namespace hybridflow {\n"
         << "inline __m256 LaneZero() { return _mm256_setzero_ps(); }\n"
         << "}  // namespace hybridflow\n"
         << "#endif  // SRC_TENSOR_SIMD_H_\n";
    std::ofstream vec(tree / "src/gadget/vec.cc");
    vec << "#include <immintrin.h>\n"
        << "namespace hybridflow {\n"
        << "float Escaped() {\n"
        << "  __m256 v = _mm256_setzero_ps();\n"
        << "  return v[0];\n"
        << "}\n"
        << "float Hatched() {\n"
        << "  __m256 z = _mm256_setzero_ps();  // hflint: allow(simd-intrinsics)\n"
        << "  return z[0];\n"
        << "}\n"
        << "}  // namespace hybridflow\n";
  }
  {
    // A scheduler constructed in the step loop's home is fine; a fifth
    // loop anywhere else in src/ is flagged unless hatched, and borrowing
    // one by reference never is.
    fs::create_directories(tree / "src/rollout");
    std::ofstream home(tree / "src/rollout/step_loop.cc");
    home << "namespace hybridflow {\n"
         << "void Loop(KvBlockManager* kv, std::vector<RolloutSequence>* s) {\n"
         << "  RolloutScheduler scheduler(RolloutSchedulerConfig(), kv, s);\n"
         << "}\n"
         << "}  // namespace hybridflow\n";
    std::ofstream fifth(tree / "src/gadget/fifth_loop.cc");
    fifth << "namespace hybridflow {\n"
          << "void Fifth(KvBlockManager* kv, std::vector<RolloutSequence>* s) {\n"
          << "  RolloutScheduler scheduler(RolloutSchedulerConfig(), kv, s);\n"
          << "}\n"
          << "void Hatched(KvBlockManager* kv, std::vector<RolloutSequence>* s) {\n"
          << "  RolloutScheduler kept(RolloutSchedulerConfig(), kv, s);"
          << "  // hflint: allow(one-step-loop)\n"
          << "}\n"
          << "int64_t Borrowed(const RolloutScheduler& scheduler) {\n"
          << "  return scheduler.current_step();\n"
          << "}\n"
          << "}  // namespace hybridflow\n";
  }
  {
    // Outside src/obs/, a SeqEventLog is only borrowed: constructing one is
    // flagged unless hatched; src/obs/ may own one.
    fs::create_directories(tree / "src/obs");
    std::ofstream owner(tree / "src/obs/recorder.cc");
    owner << "namespace hybridflow {\n"
          << "void Own() { SeqEventLog owned; }\n"
          << "}  // namespace hybridflow\n";
    std::ofstream hidden(tree / "src/gadget/hidden_log.cc");
    hidden << "namespace hybridflow {\n"
           << "void Hidden() {\n"
           << "  SeqEventLog local_events;\n"
           << "}\n"
           << "void Hatched() {\n"
           << "  SeqEventLog kept;  // hflint: allow(borrowed-event-log)\n"
           << "}\n"
           << "size_t Borrowed(const SeqEventLog* log) { return log->size(); }\n"
           << "}  // namespace hybridflow\n";
  }
  {
    // Pricing code asks the closed form; building a paged cache there is
    // flagged unless hatched, and the same construction outside src/perf/
    // and src/mapping/ is none of this rule's business.
    fs::create_directories(tree / "src/perf");
    std::ofstream pricing(tree / "src/perf/pricing.cc");
    pricing << "namespace hybridflow {\n"
            << "int64_t Paged(const KvBlockConfig& config, int64_t tokens) {\n"
            << "  const KvBlockManager manager(config);\n"
            << "  return manager.CapacitySequences(tokens);\n"
            << "}\n"
            << "int64_t Closed(const KvBlockConfig& config, int64_t tokens) {\n"
            << "  return KvBlockManager::CapacitySequences(config, tokens);\n"
            << "}\n"
            << "int64_t Hatched(const KvBlockConfig& config, int64_t tokens) {\n"
            << "  KvBlockManager kept(config);  // hflint: allow(closed-form-pricing)\n"
            << "  return kept.CapacitySequences(tokens);\n"
            << "}\n"
            << "}  // namespace hybridflow\n";
    fs::create_directories(tree / "src/mapping");
    std::ofstream mapper(tree / "src/mapping/search.cc");
    mapper << "namespace hybridflow {\n"
           << "void Price(const KvBlockConfig& config) {\n"
           << "  auto kv = std::make_unique<KvBlockManager>(config);\n"
           << "}\n"
           << "}  // namespace hybridflow\n";
    std::ofstream rollout(tree / "src/rollout/cache_user.cc");
    rollout << "namespace hybridflow {\n"
            << "void Run(const KvBlockConfig& config) { KvBlockManager manager(config); }\n"
            << "}  // namespace hybridflow\n";
  }
  {
    // Only RolloutSchedulerConfig declares the scheduler's settings; a
    // mirror struct is flagged unless hatched, while deriving from it,
    // locals, parameters and member accesses of the same names are not.
    std::ofstream mirror(tree / "src/gadget/mirror.cc");
    mirror << "namespace hybridflow {\n"
           << "struct RolloutSchedulerConfig {\n"
           << "  int64_t max_running = 0;\n"
           << "  std::map<int64_t, double> tenant_weights;\n"
           << "};\n"
           << "struct MirrorOptions {\n"
           << "  int64_t max_running = 0;\n"
           << "  bool expire_overdue = true;  // hflint: allow(one-scheduler-config)\n"
           << "  void Cap(int64_t max_running);\n"
           << "};\n"
           << "template <class T>\n"
           << "struct Derived : RolloutSchedulerConfig {\n"
           << "  int64_t Budget() const {\n"
           << "    int64_t prefill_chunk_tokens = 4;\n"
           << "    return prefill_chunk_tokens + max_running;\n"
           << "  }\n"
           << "};\n"
           << "void Use(RolloutSchedulerConfig& c) {\n"
           << "  c.max_running = 3;\n"
           << "  const bool projected_peak_admission = c.max_running == 0;\n"
           << "}\n"
           << "}  // namespace hybridflow\n";
  }
  {
    // Only the dataflow table spells RlhfAlgorithm enumerators in src/: a
    // per-algorithm `if` elsewhere is flagged unless hatched, while the
    // type itself, table lookups and tests naming an algorithm are not.
    fs::create_directories(tree / "src/rlhf");
    std::ofstream table(tree / "src/rlhf/dataflow.cc");
    table << "namespace hybridflow {\n"
          << "int Passes(RlhfAlgorithm algorithm) {\n"
          << "  return algorithm == RlhfAlgorithm::kRemax ? 2 : 1;\n"
          << "}\n"
          << "}  // namespace hybridflow\n";
    std::ofstream program(tree / "src/gadget/program.cc");
    program << "namespace hybridflow {\n"
            << "struct ProgramConfig {\n"
            << "  RlhfAlgorithm algorithm = RlhfAlgorithm::kPpo;"
            << "  // hflint: allow(one-algorithm-switch)\n"
            << "};\n"
            << "int Passes(const ProgramConfig& config) {\n"
            << "  if (config.algorithm == RlhfAlgorithm::kRemax) {\n"
            << "    return 2;\n"
            << "  }\n"
            << "  return DataflowOf(config.algorithm).generation_passes;\n"
            << "}\n"
            << "}  // namespace hybridflow\n";
    fs::create_directories(tree / "tests");
    std::ofstream test(tree / "tests/program_test.cc");
    test << "namespace hybridflow {\n"
         << "ProgramConfig Grpo() { return {RlhfAlgorithm::kGrpo}; }\n"
         << "}  // namespace hybridflow\n";
  }
  {
    // A doc's `Type::member` must name a member of that type or its bases:
    // a word that only another type declares is stale.
    std::ofstream options(tree / "src/gadget/options.cc");
    options << "namespace hybridflow {\n"
            << "struct KvBlockConfig {\n"
            << "  bool enable_prefix_cache = false;\n"
            << "};\n"
            << "struct RolloutOptions : RolloutSchedulerConfig {\n"
            << "  int mode = 0;\n"
            << "};\n"
            << "}  // namespace hybridflow\n";
    fs::create_directories(tree / "docs");
    std::ofstream doc(tree / "docs/OPTIONS.md");
    doc << "# Options\n\n"
        << "`RolloutOptions::mode` and the inherited `RolloutOptions::max_running` are\n"
        << "settings; `KvBlockConfig::enable_prefix_cache` is the cache's switch, and\n"
        << "`RolloutOptions::enable_prefix_cache` is not a rollout option.\n";
  }
  int files_checked = 0;
  int docs_checked = 0;
  const std::vector<Finding> findings = LintTree(tree, &files_checked, &docs_checked);
  fs::remove_all(tree);
  int failures = 0;
  // Expected findings, identified by (rule, message needle).
  std::vector<std::pair<std::string, std::string>> expected = {
      {"condvar-wait", "guarded by 'if'"},
      {"condvar-wait", "outside a while"},
      {"unreferenced-guard", "zero HF_GUARDED_BY(lonely_mu_)"},
      {"simd-intrinsics", "intrinsics header include"},
      {"simd-intrinsics", "_mm256_ intrinsic outside"},
      {"one-step-loop", "RolloutScheduler constructed outside"},
      {"borrowed-event-log", "SeqEventLog constructed outside src/obs/"},
      {"closed-form-pricing", "KvBlockManager constructed in pricing code"},
      {"closed-form-pricing", "KvBlockManager constructed in pricing code"},
      {"one-scheduler-config", "max_running declared in MirrorOptions"},
      {"one-algorithm-switch", "RlhfAlgorithm enumerator outside src/rlhf/dataflow"},
      {"doc-drift", "member 'enable_prefix_cache' is not declared in 'RolloutOptions'"},
  };
  for (const Finding& finding : findings) {
    bool matched = false;
    for (auto it = expected.begin(); it != expected.end(); ++it) {
      if (finding.rule == it->first &&
          finding.message.find(it->second) != std::string::npos) {
        expected.erase(it);
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::cerr << "selftest: unexpected finding " << finding.file << ":" << finding.line
                << " [" << finding.rule << "] " << finding.message << "\n";
      ++failures;
    }
  }
  for (const auto& [rule, needle] : expected) {
    std::cerr << "selftest: expected [" << rule << "] finding matching '" << needle
              << "' was NOT flagged\n";
    ++failures;
  }
  if (failures > 0) {
    std::cerr << "hflint --rules-selftest: " << failures << " failure(s)\n";
    return 1;
  }
  std::cout << "hflint --rules-selftest: ok (12 bad shapes flagged, allow() hatches, "
               "loop-shaped waits, confined intrinsics, the step loop's own "
               "scheduler, src/obs/'s own event log, the closed-form capacity "
               "call, the scheduler config's own settings, the dataflow table's "
               "own switch and inherited doc members accepted)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--docs-selftest") {
    return RunDocsSelftest();
  }
  if (argc > 1 && std::string(argv[1]) == "--rules-selftest") {
    return RunRulesSelftest();
  }
  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::path(".");
  if (!fs::exists(root / "src")) {
    std::cerr << "hflint: '" << root.string() << "' does not look like the repo root\n";
    return 2;
  }
  int files_checked = 0;
  int docs_checked = 0;
  const std::vector<Finding> findings = LintTree(root, &files_checked, &docs_checked);
  for (const Finding& finding : findings) {
    std::cerr << finding.file << ":" << finding.line << ": [" << finding.rule << "] "
              << finding.message << "\n";
  }
  if (!findings.empty()) {
    std::cerr << "hflint: " << findings.size() << " finding(s) in " << files_checked
              << " files\n";
    return 1;
  }
  std::cout << "hflint: clean (" << files_checked << " files, " << docs_checked
            << " docs)\n";
  return 0;
}
