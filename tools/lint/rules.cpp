// The project-specific rules. Most are lexical: they see the token stream of
// one file (plus declarations mined from its sibling header) and never
// resolve types. The last three (parallel-capture, tainted-alloc,
// unchecked-result) additionally use the semantic layer in sema.cpp — block
// outline, lambda captures, local declarations — but stay equally
// dependency-free. The price everywhere is documented heuristics rather
// than full semantic precision.
#include "lint.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace ltefp::lint {

namespace {

/// True for tokens rules should skip when looking at code structure.
bool non_code(const Token& t) {
  return t.kind == TokKind::kComment || t.kind == TokKind::kPreproc;
}

/// Index of the next code token at or after `i + 1`, or tokens.size().
std::size_t next_code(const std::vector<Token>& toks, std::size_t i) {
  for (++i; i < toks.size(); ++i) {
    if (!non_code(toks[i])) return i;
  }
  return toks.size();
}

/// Index of the previous code token strictly before `i`, or SIZE_MAX.
std::size_t prev_code(const std::vector<Token>& toks, std::size_t i) {
  while (i-- > 0) {
    if (!non_code(toks[i])) return i;
  }
  return static_cast<std::size_t>(-1);
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

/// True when the code token before index `i` is `.` or `->` — i.e. the
/// identifier at `i` is a member access, not a free/std function.
bool member_access(const std::vector<Token>& toks, std::size_t i) {
  const std::size_t p = prev_code(toks, i);
  if (p == static_cast<std::size_t>(-1)) return false;
  return is_punct(toks[p], ".") || is_punct(toks[p], "->");
}

/// Index of the `(` that opens a call of identifier `i`, either right
/// after it or after an explicit template argument list
/// (`read_value<int>(in)`), or toks.size() when `i` is not called. A `<`
/// opens a template argument list only if what follows up to its matching
/// `>` is type-like (identifiers, numbers, `::`, `,`, `*`, `&`, nested
/// `<>`), so `i < n && m > (k)` stays a comparison.
std::size_t call_open(const std::vector<Token>& toks, std::size_t i) {
  std::size_t n = next_code(toks, i);
  if (n < toks.size() && is_punct(toks[n], "<")) {
    int depth = 1;
    for (n = next_code(toks, n); n < toks.size() && depth > 0; n = next_code(toks, n)) {
      const Token& t = toks[n];
      if (is_punct(t, "<")) {
        ++depth;
      } else if (is_punct(t, ">")) {
        --depth;
      } else if (is_punct(t, ">>")) {
        depth -= 2;
      } else if (t.kind != TokKind::kIdent && t.kind != TokKind::kNumber &&
                 !is_punct(t, "::") && !is_punct(t, ",") && !is_punct(t, "*") &&
                 !is_punct(t, "&")) {
        return toks.size();
      }
    }
    if (depth != 0) return toks.size();
  }
  return n < toks.size() && is_punct(toks[n], "(") ? n : toks.size();
}

/// True when identifier `i` is called (see call_open).
bool called(const std::vector<Token>& toks, std::size_t i) {
  return call_open(toks, i) < toks.size();
}

void add(std::vector<Finding>& out, const Rule& rule, int line, std::string message) {
  Finding f;
  f.line = line;
  f.rule = rule.id();
  f.message = std::move(message);
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// determinism

class DeterminismRule final : public Rule {
 public:
  const char* id() const override { return "determinism"; }
  const char* summary() const override {
    return "bans ambient randomness and wall clocks in library code; all "
           "randomness must flow through common/rng (ltefp::derive_seed)";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    static const std::unordered_set<std::string_view> kBannedCalls = {
        "rand", "srand", "rand_r", "drand48", "random", "time", "clock",
        "gettimeofday", "clock_gettime", "timespec_get", "localtime", "gmtime",
    };
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      if (t.text == "random_device") {
        add(out, *this, t.line,
            "'std::random_device' is nondeterministic; derive seeds with "
            "ltefp::derive_seed / common/rng instead");
        continue;
      }
      // steady_clock::now, system_clock::now, high_resolution_clock::now
      if (t.text.size() > 6 && t.text.ends_with("_clock")) {
        const std::size_t a = next_code(toks, i);
        const std::size_t b = a < toks.size() ? next_code(toks, a) : toks.size();
        if (b < toks.size() && is_punct(toks[a], "::") && is_ident(toks[b], "now")) {
          add(out, *this, t.line,
              "'" + t.text + "::now' reads the wall clock; deterministic library "
              "code must be clocked in simulated TimeMs");
          continue;
        }
      }
      if (kBannedCalls.count(t.text) > 0 && called(toks, i) && !member_access(toks, i)) {
        add(out, *this, t.line,
            "call to '" + t.text + "' is nondeterministic in library code; use "
            "common/rng for randomness and simulated TimeMs for time");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// ordered-iteration

class OrderedIterationRule final : public Rule {
 public:
  const char* id() const override { return "ordered-iteration"; }
  const char* summary() const override {
    return "flags range-for over std::unordered_{map,set}: iteration order is "
           "unspecified and breaks bit-identical reproduction; in src/ml/ also "
           "flags range-for over Dataset::samples, which belongs on the "
           "columnar features::DatasetMatrix; in src/lte/ also flags range-for "
           "over timer-wheel buckets (WheelBucket), whose entry order is an "
           "insertion artifact — dispatch must go through TimerWheel::drain()";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    std::unordered_set<std::string> names;  // membership tests only, never iterated
    collect_unordered_names(file.sibling_decls, names);
    collect_unordered_names(file.tokens, names);
    std::unordered_set<std::string> bucket_names;
    collect_bucket_names(file.sibling_decls, bucket_names);
    collect_bucket_names(file.tokens, bucket_names);

    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!is_ident(toks[i], "for")) continue;
      std::size_t open = next_code(toks, i);
      if (open >= toks.size() || !is_punct(toks[open], "(")) continue;
      // Find the top-level `:` of a range-for and the closing paren.
      int depth = 1;
      std::size_t colon = 0, close = 0;
      for (std::size_t j = next_code(toks, open); j < toks.size();
           j = next_code(toks, j)) {
        const Token& t = toks[j];
        if (t.kind == TokKind::kPunct) {
          if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
          if (t.text == ")" || t.text == "]" || t.text == "}") {
            --depth;
            if (depth == 0) {
              close = j;
              break;
            }
          }
          if (t.text == ":" && depth == 1 && colon == 0) colon = j;
          if (t.text == ";" && depth == 1) break;  // classic for, not range-for
        }
      }
      if (colon == 0 || close == 0) continue;
      // The range expression: flag if it names a known unordered member or
      // mentions an unordered type directly.
      std::string expr;
      bool hit = false;
      bool samples_hit = false;
      bool bucket_hit = false;
      for (std::size_t j = next_code(toks, colon); j < close; j = next_code(toks, j)) {
        if (!expr.empty() && toks[j].kind == TokKind::kIdent) expr += ' ';
        expr += toks[j].text;
        if (toks[j].kind == TokKind::kIdent &&
            (names.count(toks[j].text) > 0 ||
             toks[j].text.find("unordered_") != std::string::npos)) {
          hit = true;
        }
        if (toks[j].kind == TokKind::kIdent && toks[j].text == "samples") {
          samples_hit = true;
        }
        if (toks[j].kind == TokKind::kIdent &&
            (bucket_names.count(toks[j].text) > 0 || toks[j].text == "WheelBucket")) {
          bucket_hit = true;
        }
      }
      if (hit) {
        add(out, *this, toks[i].line,
            "range-for over unordered container '" + expr +
                "': iteration order is unspecified; iterate a sorted copy or "
                "use an ordered container");
      } else if (bucket_hit && file.path.starts_with("src/lte/")) {
        // Wheel buckets hold entries in insertion order (possibly merged
        // from per-cell shards); walking one for dispatch breaks the
        // engine's (time, UeId) ordering guarantee.
        add(out, *this, toks[i].line,
            "range-for over timer-wheel bucket '" + expr +
                "': bucket order is an insertion artifact; dispatch must go "
                "through TimerWheel::drain(), which sorts by (time, UeId)");
      } else if (samples_hit && file.path.starts_with("src/ml/")) {
        // ML hot paths are columnar: per-sample AoS walks re-gather every
        // feature and defeat the presorted trainer's cache layout.
        add(out, *this, toks[i].line,
            "range-for over AoS samples '" + expr +
                "' in an ML hot path: traverse the columnar "
                "features::DatasetMatrix (fit_rows/predict_rows) instead");
      }
    }
  }

 private:
  // Records variable/member names declared with an unordered container type:
  //   std::unordered_map<K, V> name;   const std::unordered_set<T>& name
  static void collect_unordered_names(const std::vector<Token>& toks,
                                      std::unordered_set<std::string>& names) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || !t.text.starts_with("unordered_")) continue;
      std::size_t j = next_code(toks, i);
      if (j >= toks.size() || !is_punct(toks[j], "<")) continue;
      int depth = 0;
      for (; j < toks.size(); j = next_code(toks, j)) {
        if (is_punct(toks[j], "<")) ++depth;
        else if (is_punct(toks[j], ">")) --depth;
        else if (is_punct(toks[j], ">>")) depth -= 2;
        else if (is_punct(toks[j], ";")) break;
        if (depth <= 0) break;
      }
      if (j >= toks.size() || depth > 0) continue;
      j = next_code(toks, j);  // past the closing '>'
      while (j < toks.size() &&
             (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
              is_ident(toks[j], "const"))) {
        j = next_code(toks, j);
      }
      if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
      // `type name(` is a function declaration, not a variable.
      const std::size_t after = next_code(toks, j);
      if (after < toks.size() && is_punct(toks[after], "(")) continue;
      names.insert(toks[j].text);
    }
  }

  // Records variable/member names declared with the timer wheel's bucket
  // type:  WheelBucket name;   WheelBucket& name = buckets_[i];
  static void collect_bucket_names(const std::vector<Token>& toks,
                                   std::unordered_set<std::string>& names) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!is_ident(toks[i], "WheelBucket")) continue;
      std::size_t j = next_code(toks, i);
      while (j < toks.size() &&
             (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
              is_ident(toks[j], "const"))) {
        j = next_code(toks, j);
      }
      if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
      const std::size_t after = next_code(toks, j);
      if (after < toks.size() && is_punct(toks[after], "(")) continue;
      names.insert(toks[j].text);
    }
  }
};

// ---------------------------------------------------------------------------
// decoder-hardening

class DecoderHardeningRule final : public Rule {
 public:
  const char* id() const override { return "decoder-hardening"; }
  const char* summary() const override {
    return "bans atoi/strtol/stoi-family parsing of untrusted input; use "
           "std::from_chars with explicit error checks";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    static const std::unordered_set<std::string_view> kBanned = {
        "atoi",   "atol",   "atoll",   "atof",    "strtol", "strtoll",
        "strtoul", "strtoull", "strtod", "strtof", "strtold",
        "stoi",   "stol",   "stoll",   "stoul",   "stoull", "stof",
        "stod",   "stold",  "sscanf",  "scanf",   "fscanf",
    };
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || kBanned.count(t.text) == 0) continue;
      if (!called(toks, i) || member_access(toks, i)) continue;
      add(out, *this, t.line,
          "'" + t.text + "' parses without mandatory error handling; decode "
          "untrusted input with std::from_chars and check ec and the consumed "
          "range explicitly");
    }
  }
};

// ---------------------------------------------------------------------------
// header-hygiene

class HeaderHygieneRule final : public Rule {
 public:
  const char* id() const override { return "header-hygiene"; }
  const char* summary() const override {
    return "headers must start with #pragma once and must not contain "
           "`using namespace`";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    if (!file.is_header) return;
    const auto& toks = file.tokens;
    bool pragma_once = false;
    for (const Token& t : toks) {
      if (t.kind != TokKind::kPreproc) continue;
      std::string squeezed;
      for (const char c : t.text) {
        if (c != ' ' && c != '\t') squeezed += c;
      }
      if (squeezed == "#pragmaonce") {
        pragma_once = true;
        break;
      }
    }
    if (!pragma_once) {
      add(out, *this, 1, "header is missing '#pragma once'");
    }
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!is_ident(toks[i], "using")) continue;
      const std::size_t n = next_code(toks, i);
      if (n < toks.size() && is_ident(toks[n], "namespace")) {
        add(out, *this, toks[i].line,
            "'using namespace' in a header leaks the namespace into every "
            "includer; qualify names instead");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// float-eq

class FloatEqRule final : public Rule {
 public:
  const char* id() const override { return "float-eq"; }
  const char* summary() const override {
    return "flags ==/!= against a floating-point literal; compare with an "
           "explicit tolerance or restructure the test";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kPunct || (t.text != "==" && t.text != "!=")) continue;
      const std::size_t p = prev_code(toks, i);
      bool hit = p != static_cast<std::size_t>(-1) &&
                 toks[p].kind == TokKind::kNumber && toks[p].is_float;
      // Look right, skipping grouping parens and unary sign.
      std::size_t n = next_code(toks, i);
      while (n < toks.size() && (is_punct(toks[n], "(") || is_punct(toks[n], "+") ||
                                 is_punct(toks[n], "-"))) {
        n = next_code(toks, n);
      }
      if (n < toks.size() && toks[n].kind == TokKind::kNumber && toks[n].is_float) {
        hit = true;
      }
      if (hit) {
        add(out, *this, t.line,
            "exact floating-point '" + t.text +
                "' comparison; use a tolerance, an ordering test, or integers");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// bounded-queues

// The streaming daemon's flow-control contract: every producer/consumer
// hand-off must be a bounded queue that pushes back when full (see
// common/spsc.hpp). An unbounded std:: FIFO in stream code silently
// converts overload into memory growth, which is exactly the failure mode
// the contract exists to prevent — so growable standard queues are banned
// where the contract applies, with `// lint:allow(bounded-queues)` as the
// reviewed escape hatch (e.g. a queue drained before each return).
class BoundedQueuesRule final : public Rule {
 public:
  const char* id() const override { return "bounded-queues"; }
  const char* summary() const override {
    return "flags unbounded std:: FIFOs (deque/queue/priority_queue) in "
           "stream code; use a bounded queue with backpressure";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent ||
          (t.text != "deque" && t.text != "queue" && t.text != "priority_queue")) {
        continue;
      }
      const std::size_t p = prev_code(toks, i);
      if (p == static_cast<std::size_t>(-1) || !is_punct(toks[p], "::")) continue;
      const std::size_t pp = prev_code(toks, p);
      if (pp == static_cast<std::size_t>(-1) || !is_ident(toks[pp], "std")) continue;
      add(out, *this, t.line,
          "std::" + t.text +
              " grows without bound; stream hand-offs must use a bounded "
              "queue with backpressure (common/spsc.hpp)");
    }
  }
};

// ---------------------------------------------------------------------------
// simd-dispatch

// The SIMD containment contract: raw intrinsics (`_mm*` calls, `__m128/
// __m256/__m512` vector types, `*intrin.h` includes) may appear only in
// dedicated kernel translation units — non-header files with "kernels" in
// the basename — and those TUs must include common/cpu.hpp, the runtime
// dispatch shim that selects a kernel by simd_tier(). Everything else calls
// kernels through tier-dispatched function pointers, so a forced-scalar run
// (LTEFP_FORCE_SCALAR=1) provably exercises no vector code and new SIMD
// paths cannot leak into portable TUs or headers unnoticed.
class SimdDispatchRule final : public Rule {
 public:
  const char* id() const override { return "simd-dispatch"; }
  const char* summary() const override {
    return "confines SIMD intrinsics (_mm*, __m128/__m256/__m512, *intrin.h "
           "includes) to non-header '*kernels*' TUs that include "
           "common/cpu.hpp, the runtime dispatch shim";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    std::string base = file.path;
    if (const std::size_t slash = base.rfind('/'); slash != std::string::npos) {
      base.erase(0, slash + 1);
    }
    const bool kernel_tu =
        !file.is_header && base.find("kernels") != std::string::npos;
    bool includes_shim = false;
    for (const Token& t : toks) {
      if (t.kind == TokKind::kPreproc && t.text.find("include") != std::string::npos &&
          t.text.find("common/cpu.hpp") != std::string::npos) {
        includes_shim = true;
        break;
      }
    }
    if (kernel_tu && includes_shim) return;  // the sanctioned home for SIMD

    int last_line = 0;  // kernels are intrinsic-dense; one finding per line
    for (const Token& t : toks) {
      std::string what;
      if (t.kind == TokKind::kIdent &&
          (t.text.starts_with("_mm") || t.text.starts_with("__m128") ||
           t.text.starts_with("__m256") || t.text.starts_with("__m512"))) {
        what = "SIMD intrinsic '" + t.text + "'";
      } else if (t.kind == TokKind::kPreproc &&
                 t.text.find("include") != std::string::npos &&
                 t.text.find("intrin.h") != std::string::npos) {
        what = "intrinsic-header include";
      }
      if (what.empty() || t.line == last_line) continue;
      last_line = t.line;
      if (file.is_header) {
        add(out, *this, t.line,
            what + " in a header: vector code lives in '*kernels*' .cpp TUs "
                   "selected at runtime through common/cpu.hpp");
      } else if (!kernel_tu) {
        add(out, *this, t.line,
            what + " outside a kernel TU: move vector code into a "
                   "'*kernels*' .cpp behind the common/cpu.hpp dispatch shim");
      } else {
        add(out, *this, t.line,
            what + " in a kernel TU that never includes common/cpu.hpp; "
                   "kernels must be selected through the dispatch shim");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// parallel-capture (semantic)

// The deterministic-parallelism contract (common/parallel.hpp): worker
// lambdas may write shared state only through disjoint slots indexed by a
// lambda-local variable (the loop/lane index), through std::atomic, or under
// a lock. This rule statically enforces the shape TSan can only confirm for
// executed interleavings: inside a lambda passed to parallel_for /
// parallel_map / std::thread, every write whose target is captured by
// reference must be slot-indexed by a lambda-local, atomic, or lock-guarded.
class ParallelCaptureRule final : public Rule {
 public:
  const char* id() const override { return "parallel-capture"; }
  const char* summary() const override {
    return "in parallel_for/parallel_map/std::thread worker lambdas, a write "
           "through a by-reference capture must be slot-indexed by a "
           "lambda-local variable, atomic, or lock-guarded";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    const Outline o = build_outline(toks);
    if (o.lambdas.empty()) return;

    // Names declared std::atomic in this file or its sibling header:
    // writes to them are synchronized by construction.
    std::unordered_set<std::string> atomics;
    for (const DeclaredVar& d : declared_vars(toks, 0, toks.size())) {
      if (d.atomic) atomics.insert(d.name);
    }
    for (const DeclaredVar& d :
         declared_vars(file.sibling_decls, 0, file.sibling_decls.size())) {
      if (d.atomic) atomics.insert(d.name);
    }

    // Argument ranges of parallel_for/parallel_map/std::thread calls. For
    // std::thread both the temporary form `std::thread(...)` and the
    // declaration forms `std::thread t(...)` / `std::thread t{...}` count.
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      const bool pool_call =
          (t.text == "parallel_for" || t.text == "parallel_map") && called(toks, i);
      bool thread_ctor = false;
      std::size_t open = toks.size();
      if (pool_call) {
        open = call_open(toks, i);
      } else if (t.text == "thread") {
        const std::size_t p = prev_code(toks, i);
        if (p != static_cast<std::size_t>(-1) && is_punct(toks[p], "::")) {
          std::size_t n = next_code(toks, i);
          if (n < toks.size() && toks[n].kind == TokKind::kIdent) {
            n = next_code(toks, n);  // std::thread NAME (args) / {args}
          }
          if (n < toks.size() && (is_punct(toks[n], "(") || is_punct(toks[n], "{"))) {
            thread_ctor = true;
            open = n;
          }
        }
      }
      if (!pool_call && !thread_ctor) continue;
      const std::size_t close = match_delim(toks, open);
      if (close < toks.size()) ranges.emplace_back(open, close);
    }
    if (ranges.empty()) return;

    for (const Lambda& lam : o.lambdas) {
      if (lam.body < 0) continue;
      bool in_range = false;
      for (const auto& [open, close] : ranges) {
        if (lam.intro > open && lam.intro < close) {
          in_range = true;
          break;
        }
      }
      if (in_range) check_lambda(file, o, lam, atomics, out);
    }
  }

 private:
  // Walks the lvalue chain left of an assignment operator. Returns the base
  // object name ("" when unanalyzable: parenthesized/call/qualified targets).
  // Sets *indexed when any subscript along the chain mentions a local.
  static std::string lvalue_base(const std::vector<Token>& toks, std::size_t assign,
                                 const std::unordered_set<std::string>& locals,
                                 bool* indexed) {
    std::size_t p = prev_code(toks, assign);
    while (p != static_cast<std::size_t>(-1)) {
      const Token& t = toks[p];
      if (is_punct(t, "]")) {
        int depth = 0;
        std::size_t q = p;
        while (true) {
          if (is_punct(toks[q], "]")) ++depth;
          if (is_punct(toks[q], "[")) {
            if (--depth == 0) break;
          }
          if (q == 0) return std::string();
          --q;
        }
        for (std::size_t k = q + 1; k < p; ++k) {
          if (toks[k].kind == TokKind::kIdent && locals.count(toks[k].text) != 0) {
            *indexed = true;
          }
        }
        p = prev_code(toks, q);
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        const std::size_t q = prev_code(toks, p);
        if (q != static_cast<std::size_t>(-1) &&
            (is_punct(toks[q], ".") || is_punct(toks[q], "->"))) {
          p = prev_code(toks, q);  // keep walking toward the chain's base
          continue;
        }
        if (q != static_cast<std::size_t>(-1) && is_punct(toks[q], "::")) {
          return std::string();  // qualified name, not a capture
        }
        return t.text;
      }
      if (is_punct(t, ")")) return std::string();  // (expr) = / f() = — punt
      return std::string();
    }
    return std::string();
  }

  void check_lambda(const SourceFile& file, const Outline& o, const Lambda& lam,
                    const std::unordered_set<std::string>& atomics,
                    std::vector<Finding>& out) const {
    const auto& toks = file.tokens;
    const Block& body = o.blocks[static_cast<std::size_t>(lam.body)];

    // Lambda-local names: parameters, body declarations, and the parameters
    // and by-value captures of nested lambdas (a by-value capture is the
    // inner lambda's own copy; a by-ref one still aliases shared state and
    // must NOT be whitelisted).
    std::unordered_set<std::string> locals(lam.params.begin(), lam.params.end());
    for (const DeclaredVar& d : declared_vars(toks, body.open + 1, body.close)) {
      locals.insert(d.name);
    }
    for (const Lambda& inner : o.lambdas) {
      if (inner.intro <= body.open || inner.intro >= body.close) continue;
      locals.insert(inner.params.begin(), inner.params.end());
      for (const Capture& c : inner.captures) {
        if (!c.by_ref) locals.insert(c.name);
      }
    }

    // First lock acquisition in the body: writes after it are guarded.
    std::size_t guard_from = toks.size();
    for (std::size_t j = body.open + 1; j < body.close; ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      const std::string& s = toks[j].text;
      if (s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
          s == "shared_lock") {
        guard_from = j;
        break;
      }
    }

    auto by_ref = [&](const std::string& name) {
      for (const Capture& c : lam.captures) {
        if (c.name == name) return c.by_ref;
      }
      if (name == "this") {
        // The object itself is shared however `this` got in.
        return lam.captures_this || lam.default_ref || lam.default_copy;
      }
      return lam.default_ref && locals.count(name) == 0;
    };

    auto report = [&](std::size_t at, const std::string& base, const char* how) {
      if (base.empty() || locals.count(base) != 0) return;
      if (!by_ref(base) || atomics.count(base) != 0) return;
      if (at > guard_from) return;
      add(out, *this, toks[at].line,
          std::string(how) + " '" + base +
              "' captured by reference in a parallel worker lambda: "
              "slot-index it by a lambda-local variable, make it "
              "std::atomic, or guard it with a lock");
    };

    static const std::unordered_set<std::string_view> kAssign = {
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
    };
    static const std::unordered_set<std::string_view> kMutators = {
        "push_back", "emplace_back", "pop_back", "insert", "emplace",
        "erase",     "clear",        "resize",   "reserve", "assign", "append",
    };

    for (std::size_t j = body.open + 1; j < body.close && j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.kind == TokKind::kPunct && kAssign.count(t.text) != 0) {
        bool indexed = false;
        const std::string base = lvalue_base(toks, j, locals, &indexed);
        if (!indexed) report(j, base, "write to");
      } else if (t.kind == TokKind::kPunct && (t.text == "++" || t.text == "--")) {
        bool indexed = false;
        std::string base;
        const std::size_t p = prev_code(toks, j);
        const bool postfix = p != static_cast<std::size_t>(-1) &&
                             (toks[p].kind == TokKind::kIdent ||
                              is_punct(toks[p], "]") || is_punct(toks[p], ")"));
        if (postfix) {
          base = lvalue_base(toks, j, locals, &indexed);
        } else {
          const std::size_t n = next_code(toks, j);
          if (n < toks.size() && toks[n].kind == TokKind::kIdent) {
            base = toks[n].text;
            // ++arr[i] — look ahead for a subscript on the target.
            const std::size_t nn = next_code(toks, n);
            if (nn < toks.size() && is_punct(toks[nn], "[")) {
              const std::size_t m = match_delim(toks, nn);
              for (std::size_t k = nn + 1; k < m; ++k) {
                if (toks[k].kind == TokKind::kIdent &&
                    locals.count(toks[k].text) != 0) {
                  indexed = true;
                }
              }
            }
          }
        }
        if (!indexed) report(j, base, "increment/decrement of");
      } else if (t.kind == TokKind::kIdent && kMutators.count(t.text) != 0 &&
                 member_access(toks, j) && called(toks, j)) {
        // obj.push_back(...) — resolve the object chain's base.
        const std::size_t dot = prev_code(toks, j);
        bool indexed = false;
        std::string base;
        std::size_t p = prev_code(toks, dot);
        if (p != static_cast<std::size_t>(-1)) {
          // Reuse the assignment walker by starting it just left of `.`:
          // it expects the index of the operator, so feed it `dot`.
          base = lvalue_base(toks, dot, locals, &indexed);
        }
        if (!indexed) report(j, base, "mutating call on");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// tainted-alloc (semantic)

// Decoded lengths are attacker-controlled: a varint, from_chars or
// read_value<T> (model loader) value that reaches resize/reserve/new[]
// unchecked turns one corrupt byte into a multi-gigabyte allocation (or
// worse). Within each function this rule tracks names assigned from decode
// sources, clears the taint at the first bound check (a relational/equality
// comparison, or std::min/std::clamp / ByteReader::require), and reports
// tainted names — or inline decode calls — in allocation-size argument
// position.
class TaintedAllocRule final : public Rule {
 public:
  const char* id() const override { return "tainted-alloc"; }
  const char* summary() const override {
    return "a length decoded from untrusted bytes (varint/from_chars/read_value) "
           "must pass a bound check before reaching resize/reserve/new[]";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    const Outline o = build_outline(toks);
    for (std::size_t b = 0; b < o.blocks.size(); ++b) {
      const Block& blk = o.blocks[b];
      if (!blk.is_function && blk.lambda < 0) continue;
      bool nested = false;  // lambdas are scanned as part of their enclosing fn
      for (int p = blk.parent; p >= 0;
           p = o.blocks[static_cast<std::size_t>(p)].parent) {
        const Block& pb = o.blocks[static_cast<std::size_t>(p)];
        if (pb.is_function || pb.lambda >= 0) {
          nested = true;
          break;
        }
      }
      if (!nested) scan_function(toks, blk, out);
    }
  }

 private:
  static bool source_call(const std::vector<Token>& toks, std::size_t i) {
    static const std::unordered_set<std::string_view> kSources = {
        "get_varint", "get_signed", "read_frame_varint", "zigzag_decode",
        "read_value",  // ml/serialize.cpp: the model loaders' `istream >>` wrapper
    };
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) return false;
    if (kSources.count(t.text) == 0 && t.text.find("varint") == std::string::npos) {
      return false;
    }
    return called(toks, i);
  }

  void scan_function(const std::vector<Token>& toks, const Block& blk,
                     std::vector<Finding>& out) const {
    std::unordered_map<std::string, std::string> taint;  // name -> source desc

    auto process = [&](std::size_t begin, std::size_t end) {
      // 1. Sanitizers first, so a check and a sink in one statement
      //    (resize(std::min(n, cap))) count as checked.
      for (std::size_t j = begin; j < end; ++j) {
        const Token& t = toks[j];
        // Only relational operators sanitize: `count == 0` pins one value
        // but bounds nothing, so equality is deliberately NOT in this set.
        if (t.kind == TokKind::kPunct &&
            (t.text == "<" || t.text == ">" || t.text == "<=" || t.text == ">=")) {
          const std::size_t p = prev_code(toks, j);
          const std::size_t n = next_code(toks, j);
          if (p != static_cast<std::size_t>(-1) && toks[p].kind == TokKind::kIdent) {
            taint.erase(toks[p].text);
          }
          if (n < end && toks[n].kind == TokKind::kIdent) taint.erase(toks[n].text);
        }
        if (t.kind == TokKind::kIdent &&
            (t.text == "min" || t.text == "max" || t.text == "clamp" ||
             t.text == "require") &&
            called(toks, j)) {
          const std::size_t open = call_open(toks, j);
          const std::size_t close = match_delim(toks, open);
          for (std::size_t k = open + 1; k < close && k < end; ++k) {
            if (toks[k].kind == TokKind::kIdent) taint.erase(toks[k].text);
          }
        }
      }
      // 2. Sinks.
      for (std::size_t j = begin; j < end; ++j) {
        const Token& t = toks[j];
        if (t.kind == TokKind::kIdent && (t.text == "resize" || t.text == "reserve") &&
            member_access(toks, j) && called(toks, j)) {
          const std::size_t open = call_open(toks, j);
          const std::size_t close = match_delim(toks, open);
          for (std::size_t k = open + 1; k < close; ++k) {
            if (toks[k].kind != TokKind::kIdent) continue;
            if (const auto it = taint.find(toks[k].text); it != taint.end()) {
              add(out, *this, t.line,
                  "'" + toks[k].text + "' (decoded by " + it->second +
                      ") reaches " + t.text +
                      "() without a bound check; compare or clamp it against "
                      "a documented maximum first");
              break;
            }
            if (source_call(toks, k)) {
              add(out, *this, t.line,
                  "decoded value flows from " + toks[k].text + "() straight into " +
                      t.text + "(); bound-check it first");
              break;
            }
          }
        }
        if (t.kind == TokKind::kIdent && t.text == "new") {
          // new T[expr] — find the subscript within the declarator.
          std::size_t k = next_code(toks, j);
          for (int hops = 0; hops < 10 && k < end; ++hops) {
            if (is_punct(toks[k], "[")) break;
            if (toks[k].kind != TokKind::kIdent && !is_punct(toks[k], "::") &&
                !is_punct(toks[k], "<") && !is_punct(toks[k], ">") &&
                !is_punct(toks[k], "*")) {
              k = end;
              break;
            }
            k = next_code(toks, k);
          }
          if (k < end && is_punct(toks[k], "[")) {
            const std::size_t close = match_delim(toks, k);
            for (std::size_t m = k + 1; m < close; ++m) {
              if (toks[m].kind != TokKind::kIdent) continue;
              if (const auto it = taint.find(toks[m].text); it != taint.end()) {
                add(out, *this, t.line,
                    "'" + toks[m].text + "' (decoded by " + it->second +
                        ") sizes a new[] without a bound check");
                break;
              }
            }
          }
        }
      }
      // 3. from_chars taints its out-parameter (third argument).
      for (std::size_t j = begin; j < end; ++j) {
        if (toks[j].kind != TokKind::kIdent || toks[j].text != "from_chars" ||
            !called(toks, j)) {
          continue;
        }
        const std::size_t open = call_open(toks, j);
        const std::size_t close = match_delim(toks, open);
        int depth = 0, commas = 0;
        std::string arg3;
        for (std::size_t k = open + 1; k < close; ++k) {
          const Token& u = toks[k];
          if (u.kind == TokKind::kPunct) {
            if (u.text == "(" || u.text == "[" || u.text == "{") ++depth;
            if (u.text == ")" || u.text == "]" || u.text == "}") --depth;
            if (u.text == "," && depth == 0) ++commas;
          }
          if (u.kind == TokKind::kIdent && commas == 2) arg3 = u.text;
        }
        if (!arg3.empty()) taint[arg3] = "from_chars";
      }
      // 4. Assignments: taint (or clear) the assigned name last, so
      //    `n = r.get_varint()` poisons only statements after this one.
      for (std::size_t j = begin; j < end; ++j) {
        const Token& t = toks[j];
        const bool plain = is_punct(t, "=");
        const bool compound =
            t.kind == TokKind::kPunct &&
            (t.text == "+=" || t.text == "-=" || t.text == "*=" || t.text == "<<=");
        if (!plain && !compound) continue;
        const std::size_t p = prev_code(toks, j);
        std::size_t name_tok = static_cast<std::size_t>(-1);
        if (p != static_cast<std::size_t>(-1) && toks[p].kind == TokKind::kIdent) {
          name_tok = p;
        } else if (p != static_cast<std::size_t>(-1) && is_punct(toks[p], "]")) {
          // structured binding or subscripted target: take the last ident
          for (std::size_t k = p; k-- > begin;) {
            if (toks[k].kind == TokKind::kIdent) {
              name_tok = k;
              break;
            }
            if (is_punct(toks[k], "[")) break;
          }
        }
        if (name_tok == static_cast<std::size_t>(-1)) continue;
        const std::string& name = toks[name_tok].text;
        std::string source;
        for (std::size_t k = j + 1; k < end; ++k) {
          if (toks[k].kind != TokKind::kIdent) continue;
          if (source_call(toks, k)) {
            source = toks[k].text;
            break;
          }
          if (const auto it = taint.find(toks[k].text);
              it != taint.end() && k != name_tok) {
            source = it->second;
            break;
          }
        }
        if (!source.empty()) {
          taint[name] = source;
        } else if (plain) {
          taint.erase(name);  // clean reassignment kills the taint
        }
      }
    };

    // Statement split: `;` outside parens, and every brace boundary.
    int paren_depth = 0;
    std::size_t stmt = blk.open + 1;
    for (std::size_t j = blk.open + 1; j < blk.close && j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(") ++paren_depth;
      if (t.text == ")") --paren_depth;
      if ((t.text == ";" && paren_depth == 0) || t.text == "{" || t.text == "}") {
        process(stmt, j);
        stmt = j + 1;
        paren_depth = 0;
      }
    }
    process(stmt, std::min(blk.close, toks.size()));
  }
};

// ---------------------------------------------------------------------------
// unchecked-result (semantic)

// Two contracts: (1) std::from_chars reports failure only through its result
// object — the `.ec` member must be compared before the parsed value can be
// trusted; (2) pull-style `next` calls (MappedReader::Cursor::next, stream
// sources) return false as the ONLY end-of-stream signal, so discarding one
// silently drops data.
class UncheckedResultRule final : public Rule {
 public:
  const char* id() const override { return "unchecked-result"; }
  const char* summary() const override {
    return "from_chars results must have .ec compared before use; status "
           "returns of next() must be consumed";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const auto& toks = file.tokens;
    const Outline o = build_outline(toks);
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || !called(toks, i)) continue;
      if (t.text == "from_chars" && !member_access(toks, i)) {
        check_from_chars(toks, o, i, out);
      } else if (t.text == "next" && member_access(toks, i) && discarded(toks, i)) {
        add(out, *this, t.line,
            "status return of 'next' is discarded; it signals end-of-stream "
            "and must be checked");
      }
    }
  }

 private:
  // True when an ident equal to `name` appears in (from, to) adjacent to an
  // equality operator.
  static bool compared(const std::vector<Token>& toks, std::size_t from,
                       std::size_t to, const std::string& name) {
    for (std::size_t j = from; j < to && j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kIdent || toks[j].text != name) continue;
      const std::size_t p = prev_code(toks, j);
      const std::size_t n = next_code(toks, j);
      if (p != static_cast<std::size_t>(-1) &&
          (is_punct(toks[p], "==") || is_punct(toks[p], "!="))) {
        return true;
      }
      if (n < toks.size() && (is_punct(toks[n], "==") || is_punct(toks[n], "!="))) {
        return true;
      }
    }
    return false;
  }

  void check_from_chars(const std::vector<Token>& toks, const Outline& o,
                        std::size_t i, std::vector<Finding>& out) const {
    const std::size_t open = call_open(toks, i);
    const std::size_t close = match_delim(toks, open);
    if (close >= toks.size()) return;

    // Search horizon: to the end of the enclosing function (or file).
    std::size_t horizon = toks.size();
    if (const int f = o.function_at(i); f >= 0) {
      horizon = o.blocks[static_cast<std::size_t>(f)].close;
    }

    // Inline form: std::from_chars(...).ec == ...
    std::size_t after = next_code(toks, close);
    if (after < toks.size() && is_punct(toks[after], ".")) {
      const std::size_t ec = next_code(toks, after);
      if (ec < toks.size() && is_ident(toks[ec], "ec")) {
        const std::size_t cmp = next_code(toks, ec);
        if (cmp < toks.size() &&
            (is_punct(toks[cmp], "==") || is_punct(toks[cmp], "!="))) {
          return;
        }
      }
    }

    // What receives the result? Walk left over the std:: qualifier.
    std::size_t p = prev_code(toks, i);
    if (p != static_cast<std::size_t>(-1) && is_punct(toks[p], "::")) {
      p = prev_code(toks, p);                                  // std
      if (p != static_cast<std::size_t>(-1)) p = prev_code(toks, p);  // before it
    }
    if (p == static_cast<std::size_t>(-1)) return;

    if (is_punct(toks[p], "=")) {
      const std::size_t lhs = prev_code(toks, p);
      if (lhs == static_cast<std::size_t>(-1)) return;
      if (is_punct(toks[lhs], "]")) {
        // auto [ptr, ec] = std::from_chars(...): the error code is the last
        // binding name.
        std::string ec_name;
        for (std::size_t k = lhs; k-- > 0;) {
          if (toks[k].kind == TokKind::kIdent) {
            ec_name = toks[k].text;
            break;
          }
          if (is_punct(toks[k], "[")) break;
        }
        if (!ec_name.empty() && compared(toks, close, horizon, ec_name)) return;
        add(out, *this, toks[i].line,
            "from_chars error code '" + (ec_name.empty() ? "ec" : ec_name) +
                "' is never compared; check it against std::errc{} before "
                "using the parsed value");
        return;
      }
      if (toks[lhs].kind == TokKind::kIdent) {
        // auto res = std::from_chars(...): require `res . ec` next to ==/!=.
        const std::string res = toks[lhs].text;
        for (std::size_t j = close; j < horizon && j < toks.size(); ++j) {
          if (toks[j].kind != TokKind::kIdent || toks[j].text != res) continue;
          const std::size_t dot = next_code(toks, j);
          if (dot >= toks.size() || !is_punct(toks[dot], ".")) continue;
          const std::size_t ec = next_code(toks, dot);
          if (ec >= toks.size() || !is_ident(toks[ec], "ec")) continue;
          const std::size_t cmp = next_code(toks, ec);
          const std::size_t before = prev_code(toks, j);
          if ((cmp < toks.size() &&
               (is_punct(toks[cmp], "==") || is_punct(toks[cmp], "!="))) ||
              (before != static_cast<std::size_t>(-1) &&
               (is_punct(toks[before], "==") || is_punct(toks[before], "!=")))) {
            return;
          }
        }
        add(out, *this, toks[i].line,
            "'" + res + ".ec' is never compared after from_chars; check it "
            "against std::errc{} before using the parsed value");
        return;
      }
      return;  // exotic target — give the code the benefit of the doubt
    }

    // Not an assignment target: passed to a callee or returned is consumed;
    // a bare statement discards the result object entirely.
    if (is_punct(toks[p], ";") || is_punct(toks[p], "{") || is_punct(toks[p], "}")) {
      add(out, *this, toks[i].line,
          "from_chars result is discarded; its .ec member is the only parse "
          "failure signal");
    }
  }

  // True when the member call at `i` heads a bare expression statement.
  static bool discarded(const std::vector<Token>& toks, std::size_t i) {
    const std::size_t open = call_open(toks, i);
    const std::size_t close = match_delim(toks, open);
    if (close >= toks.size()) return false;
    const std::size_t after = next_code(toks, close);
    if (after >= toks.size() || !is_punct(toks[after], ";")) return false;
    // Walk to the front of the postfix chain: obj.sub->next(...)
    std::size_t j = i;
    while (true) {
      const std::size_t q = prev_code(toks, j);
      if (q == static_cast<std::size_t>(-1)) return true;  // chain opens the file
      if (is_punct(toks[q], ".") || is_punct(toks[q], "->")) {
        const std::size_t obj = prev_code(toks, q);
        if (obj == static_cast<std::size_t>(-1)) return true;
        if (is_punct(toks[obj], "]") || is_punct(toks[obj], ")")) {
          // Backward-match the group and continue from just before it.
          const std::string& close_txt = toks[obj].text;
          const char* open_txt = close_txt == "]" ? "[" : "(";
          int depth = 0;
          std::size_t k = obj;
          while (true) {
            if (toks[k].kind == TokKind::kPunct) {
              if (toks[k].text == close_txt) ++depth;
              else if (toks[k].text == open_txt && --depth == 0) break;
            }
            if (k == 0) return false;
            --k;
          }
          j = k;
          const std::size_t fn = prev_code(toks, j);
          if (fn != static_cast<std::size_t>(-1) &&
              toks[fn].kind == TokKind::kIdent) {
            j = fn;
          }
          continue;
        }
        if (toks[obj].kind == TokKind::kIdent) {
          j = obj;
          continue;
        }
        return false;
      }
      if (is_punct(toks[q], "::")) {
        const std::size_t ns = prev_code(toks, q);
        if (ns == static_cast<std::size_t>(-1)) return true;
        j = ns;
        continue;
      }
      return is_punct(toks[q], ";") || is_punct(toks[q], "{") ||
             is_punct(toks[q], "}");
    }
  }
};

}  // namespace

const std::vector<const Rule*>& all_rules() {
  static const DeterminismRule determinism;
  static const OrderedIterationRule ordered_iteration;
  static const DecoderHardeningRule decoder_hardening;
  static const HeaderHygieneRule header_hygiene;
  static const FloatEqRule float_eq;
  static const BoundedQueuesRule bounded_queues;
  static const SimdDispatchRule simd_dispatch;
  static const ParallelCaptureRule parallel_capture;
  static const TaintedAllocRule tainted_alloc;
  static const UncheckedResultRule unchecked_result;
  static const std::vector<const Rule*> rules = {
      &determinism,      &ordered_iteration, &decoder_hardening,
      &header_hygiene,   &float_eq,          &bounded_queues,
      &simd_dispatch,    &parallel_capture,  &tainted_alloc,
      &unchecked_result,
  };
  return rules;
}

const Rule* find_rule(std::string_view id) {
  for (const Rule* rule : all_rules()) {
    if (id == rule->id()) return rule;
  }
  return nullptr;
}

}  // namespace ltefp::lint
