// ltefp-lint — project-invariant static analysis for the ltefp tree.
//
// A deliberately small, dependency-free linter: its own tokenizer over
// C/C++ source (no libclang), a handful of project-specific rules, a
// minimal TOML-subset config for per-directory rule sets, and line-level
// `// lint:allow(float-eq)`-style suppressions. The rules encode contracts the
// rest of the project relies on but a compiler cannot check:
//
//   determinism        no wall clocks / ambient randomness in library code;
//                      everything stochastic flows through common/rng
//   ordered-iteration  no range-for over unordered containers (iteration
//                      order is unspecified and varies across stdlibs,
//                      which silently breaks bit-identical reproduction)
//   decoder-hardening  no atoi/strtol/stoi-family parsing of untrusted
//                      input; std::from_chars with explicit error checks
//   header-hygiene     headers start with #pragma once and never say
//                      `using namespace`
//   float-eq           no ==/!= against floating-point literals
//   bounded-queues     no unbounded std:: FIFOs (deque/queue/priority_queue)
//                      in stream code; hand-offs use bounded queues with
//                      backpressure (common/spsc.hpp)
//   simd-dispatch      SIMD intrinsics live only in non-header '*kernels*'
//                      TUs that include common/cpu.hpp, so every vector
//                      path sits behind the runtime dispatch shim and a
//                      forced-scalar run exercises no vector code
//
// Three rules sit on the semantic layer (sema.cpp: block outline, lambda
// captures, per-function declarations and def-use), not just the raw
// token stream:
//
//   parallel-capture   inside parallel_for/parallel_map/std::thread
//                      lambdas, a write through a by-reference capture
//                      must be slot-indexed by a lambda-local variable,
//                      atomic, or behind a lock — a static race detector
//                      complementing the TSan gate
//   tainted-alloc      a length decoded from untrusted bytes (varint,
//                      from_chars) must pass a bound check before it
//                      reaches resize/reserve/new[]
//   unchecked-result   from_chars results must have .ec compared before
//                      use; status returns of next() (MappedReader::Cursor,
//                      stream sources) must not be discarded
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ltefp::lint {

// ---------------------------------------------------------------------------
// Tokenizer

enum class TokKind : std::uint8_t {
  kIdent,    // identifier or keyword
  kNumber,   // pp-number (integer or floating literal)
  kString,   // string literal, including raw strings; text is the whole lexeme
  kChar,     // character literal
  kPunct,    // operator / punctuator (multi-char ops are single tokens)
  kPreproc,  // a whole preprocessor logical line, continuations folded in
  kComment,  // // or /* */ comment, text includes the delimiters
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;          // 1-based line where the token starts
  bool is_float = false; // kNumber only: literal has a fractional/exponent part
};

/// Tokenizes C/C++ source. Never throws; malformed input (unterminated
/// strings/comments) is tolerated by closing the token at end of file.
std::vector<Token> lex(std::string_view source);

/// True if `text` spells a floating-point literal (helper exposed for tests).
bool is_float_literal(std::string_view text);

// ---------------------------------------------------------------------------
// Rules

struct Finding {
  std::string file;  // filled by the driver
  int line = 0;
  std::string rule;
  std::string message;
};

/// One source file as seen by the rules.
struct SourceFile {
  std::string path;       // root-relative, forward slashes; used in findings
  bool is_header = false;
  std::vector<Token> tokens;
  // Tokens of the sibling header (foo.hpp next to foo.cpp), if any. Rules
  // may mine these for declarations (e.g. unordered members used by the
  // .cpp) but must report findings only against `tokens`.
  std::vector<Token> sibling_decls;
};

class Rule {
 public:
  virtual ~Rule() = default;
  virtual const char* id() const = 0;
  virtual const char* summary() const = 0;
  virtual void check(const SourceFile& file, std::vector<Finding>& out) const = 0;
};

/// All shipped rules, in stable (documentation) order.
const std::vector<const Rule*>& all_rules();

/// nullptr if no rule has this id.
const Rule* find_rule(std::string_view id);

// ---------------------------------------------------------------------------
// Semantic layer (sema.cpp) — a lightweight function-scope parser over the
// token stream. No type checking and no template instantiation: just a
// brace/paren-matched block outline, lambda introducer + capture-list +
// parameter extraction, function-definition detection, and a heuristic local
// declaration collector. Enough structure for rules that reason about
// captures and def-use without dragging in libclang.

/// Token-stream navigation shared by rules and the semantic layer.
/// Comments and preprocessor lines are "non-code".
bool tok_is_code(const Token& t);
/// Index of the next/previous code token strictly after/before `i`, or
/// `toks.size()` when there is none. `prev_code_tok` accepts toks.size()
/// as "one past the end".
std::size_t next_code_tok(const std::vector<Token>& toks, std::size_t i);
std::size_t prev_code_tok(const std::vector<Token>& toks, std::size_t i);
/// Index of the punct matching the opener at `open` (one of `(` `[` `{`),
/// or toks.size() when unterminated.
std::size_t match_delim(const std::vector<Token>& toks, std::size_t open);

struct Capture {
  std::string name;
  bool by_ref = false;
};

struct Lambda {
  std::size_t intro = 0;  // token index of the '[' introducer
  int body = -1;          // Outline::blocks index of the '{...}' body, -1 if none
  bool default_ref = false;   // [&]  (possibly with explicit captures after)
  bool default_copy = false;  // [=]
  bool captures_this = false; // [this] or [*this]
  std::vector<Capture> captures;  // explicit captures, in source order
  std::vector<std::string> params;
};

struct Block {
  std::size_t open = 0;   // token index of '{'
  std::size_t close = 0;  // matching '}', or tokens.size() when unterminated
  int parent = -1;        // enclosing Block index, -1 at file scope
  int lambda = -1;        // Outline::lambdas index when this is a lambda body
  bool is_function = false;  // body of a named function definition
  std::string name;          // qualified name when is_function ("Reader::next")
  std::vector<std::string> params;  // parameter names when is_function
};

struct Outline {
  std::vector<Block> blocks;    // preorder (parents before children)
  std::vector<Lambda> lambdas;  // by introducer position

  /// Innermost block containing token index `tok`, or -1.
  int block_at(std::size_t tok) const;
  /// Innermost function or lambda body enclosing `tok` (walking parents
  /// from block_at), or -1.
  int function_at(std::size_t tok) const;
};

/// Builds the block/lambda outline for a token stream. Never throws;
/// unbalanced delimiters degrade to open-ended blocks.
Outline build_outline(const std::vector<Token>& tokens);

/// A local variable declaration found by the heuristic collector.
struct DeclaredVar {
  std::string name;
  std::size_t tok = 0;   // token index of the declared name
  bool atomic = false;   // declared with a std::atomic<...> type
};

/// Heuristic declaration scan over [begin, end): `T name = ...`, `T name;`,
/// `T name(...)`, `T name{...}`, range-for variables (`auto& x : xs`) and
/// structured bindings (`auto [a, b] = ...`). Favors recall over precision:
/// rules use it to whitelist lambda-local names, so a rare false declaration
/// only widens the whitelist.
std::vector<DeclaredVar> declared_vars(const std::vector<Token>& toks,
                                       std::size_t begin, std::size_t end);

// ---------------------------------------------------------------------------
// Configuration (.ltefp-lint.toml — a strict line-oriented TOML subset)
//
//   ignore = ["build*", ".git"]      # walker skip patterns (glob: * and ?)
//   [default]
//   rules = ["header-hygiene", ...]  # rule set everywhere, pre-override
//   [dir."src"]
//   enable = ["determinism"]         # added for files under src/
//   disable = ["float-eq"]           # removed for files under src/
//   rules = [...]                    # or: replace the whole set
//
// Longer (more specific) directory prefixes are applied after shorter ones.

struct DirOverride {
  std::string prefix;                // "src/sniffer" matches src/sniffer/**
  std::vector<std::string> rules;    // if non-empty via `rules=`: replaces set
  bool replace = false;
  std::vector<std::string> enable;
  std::vector<std::string> disable;
};

struct Config {
  std::vector<std::string> default_rules;
  std::vector<DirOverride> dirs;
  std::vector<std::string> ignore;
};

/// Parses config text. On error returns false and sets `error`
/// to "line N: what".
bool parse_config(std::string_view text, Config* out, std::string* error);

/// Config used when no .ltefp-lint.toml is present: every rule, everywhere,
/// ignoring build*/ and .git.
Config default_config();

/// The enabled rule ids for a root-relative path, after directory overrides.
std::vector<std::string> rules_for(const Config& config, std::string_view rel_path);

/// Glob match with `*` and `?` (no character classes). Exposed for tests.
bool glob_match(std::string_view pattern, std::string_view text);

// ---------------------------------------------------------------------------
// Driver

/// Lints one in-memory source. `rel_path` selects header-ness and appears in
/// findings; `enabled` is the rule-id set; suppressions are honored.
/// `sibling` may hold the text of the paired header ("" if none).
std::vector<Finding> lint_source(std::string_view rel_path, std::string_view text,
                                 const std::vector<std::string>& enabled,
                                 std::string_view sibling = {});

/// Recursively collects lintable sources (.cpp .cc .cxx .h .hpp .hh .hxx)
/// under `paths` (files or directories, relative to `root`), skipping names
/// and root-relative paths matching `config.ignore`. Returns sorted
/// root-relative paths. Nonexistent inputs are reported in `error`.
bool collect_sources(const std::string& root, const std::vector<std::string>& paths,
                     const Config& config, std::vector<std::string>* out,
                     std::string* error);

/// Full CLI: `ltefp-lint [--config FILE] [--root DIR] [--quiet] [--list-rules]
/// [--json FILE] [--stats] PATH...`. `--json FILE` writes machine-readable
/// findings ({file,line,rule,message} objects) to FILE; `--stats` prints
/// per-rule finding counts and lint wall time to the error stream. Returns
/// the process exit code: 0 clean, 1 findings, 2 usage or config/filesystem
/// error. All output goes to the given streams.
int run_cli(int argc, const char* const* argv, std::ostream& out, std::ostream& err);

}  // namespace ltefp::lint
