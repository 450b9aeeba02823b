// Tests for ltefp-lint (tools/lint/): tokenizer, every shipped rule (a
// seeded violation fires, a lint:allow suppresses), configuration parsing,
// the directory walker, and CLI exit-code semantics.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace lint = ltefp::lint;
namespace fs = std::filesystem;

namespace {

std::vector<std::string> all_ids() {
  std::vector<std::string> ids;
  for (const auto* rule : lint::all_rules()) ids.push_back(rule->id());
  return ids;
}

/// Lints a snippet with every rule enabled (header-hygiene only applies
/// when the path looks like a header).
std::vector<lint::Finding> lint_cpp(std::string_view src,
                                    std::string_view path = "src/x.cpp",
                                    std::string_view sibling = {}) {
  return lint::lint_source(path, src, all_ids(), sibling);
}

bool has_rule(const std::vector<lint::Finding>& fs, std::string_view rule) {
  for (const auto& f : fs) {
    if (f.rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Tokenizer

TEST(Lexer, ClassifiesAndCountsLines) {
  const auto toks = lint::lex("int a = 1;\n// note\ndouble b = 2.5;\n");
  ASSERT_GE(toks.size(), 9u);
  EXPECT_EQ(toks[0].kind, lint::TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].line, 1);
  // The comment is its own token on line 2.
  bool saw_comment = false;
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::kComment) {
      EXPECT_EQ(t.line, 2);
      EXPECT_EQ(t.text, "// note");
      saw_comment = true;
    }
  }
  EXPECT_TRUE(saw_comment);
}

TEST(Lexer, CodeInsideStringsAndCommentsIsNotCode) {
  // rand( appears only inside a string, a char-ish string, a line comment,
  // and a block comment: the determinism rule must stay silent.
  const auto findings = lint_cpp(
      "const char* s = \"rand()\";\n"
      "// rand()\n"
      "/* std::random_device d; */\n"
      "const char* r = R\"(time(nullptr))\";\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Lexer, RawStringsWithDelimiters) {
  const auto toks = lint::lex("auto s = R\"xx(a \" )\" rand() )xx\";\nint z;\n");
  bool saw_string = false;
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::kString) saw_string = true;
    EXPECT_NE(t.text, "rand");
  }
  EXPECT_TRUE(saw_string);
  EXPECT_EQ(toks.back().line, 2);
}

TEST(Lexer, PreprocessorLinesAreSingleTokens) {
  const auto toks = lint::lex("#define F(x) \\\n  ((x) + 1)\nint after;\n");
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, lint::TokKind::kPreproc);
  // The continuation folds into the directive; `after` is on line 3.
  EXPECT_EQ(toks[1].text, "int");
  EXPECT_EQ(toks[1].line, 3);
}

TEST(Lexer, FloatLiteralClassification) {
  EXPECT_TRUE(lint::is_float_literal("1.0"));
  EXPECT_TRUE(lint::is_float_literal("0.5f"));
  EXPECT_TRUE(lint::is_float_literal(".25"));
  EXPECT_TRUE(lint::is_float_literal("1e9"));
  EXPECT_TRUE(lint::is_float_literal("0x1.8p3"));
  EXPECT_FALSE(lint::is_float_literal("42"));
  EXPECT_FALSE(lint::is_float_literal("0x1E"));  // hex digit E is not an exponent
  EXPECT_FALSE(lint::is_float_literal("100ULL"));
}

TEST(Lexer, MultiCharOperatorsStayWhole) {
  const auto toks = lint::lex("a == b; c != d; e::f; g->h;");
  std::vector<std::string> ops;
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::kPunct && t.text.size() > 1) ops.push_back(t.text);
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"==", "!=", "::", "->"}));
}

// ---------------------------------------------------------------------------
// determinism

TEST(DeterminismRule, FiresOnSeededViolations) {
  EXPECT_TRUE(has_rule(lint_cpp("int x = std::rand();\n"), "determinism"));
  EXPECT_TRUE(has_rule(lint_cpp("srand(42);\n"), "determinism"));
  EXPECT_TRUE(has_rule(lint_cpp("std::random_device rd;\n"), "determinism"));
  EXPECT_TRUE(
      has_rule(lint_cpp("auto t = std::chrono::steady_clock::now();\n"), "determinism"));
  EXPECT_TRUE(
      has_rule(lint_cpp("auto t = high_resolution_clock::now();\n"), "determinism"));
  EXPECT_TRUE(has_rule(lint_cpp("std::time_t t = time(nullptr);\n"), "determinism"));
}

TEST(DeterminismRule, IgnoresMemberFunctionsNamedLikeBannedCalls) {
  // sim.time() / obj->clock() are project accessors, not libc calls.
  EXPECT_FALSE(has_rule(lint_cpp("auto t = sim.time();\n"), "determinism"));
  EXPECT_FALSE(has_rule(lint_cpp("auto t = obj->clock();\n"), "determinism"));
  // A variable merely named `time` is not a call.
  EXPECT_FALSE(has_rule(lint_cpp("TimeMs time = 0;\n"), "determinism"));
}

TEST(DeterminismRule, SuppressedByAllow) {
  EXPECT_FALSE(has_rule(
      lint_cpp("int x = std::rand();  // lint:allow(determinism) — test shim\n"),
      "determinism"));
  // A standalone allow-comment covers the following line.
  EXPECT_FALSE(has_rule(lint_cpp("// lint:allow(determinism) — seeding the fixture\n"
                                 "int x = std::rand();\n"),
                        "determinism"));
  // ...but only the following line, not the whole file.
  EXPECT_TRUE(has_rule(lint_cpp("// lint:allow(determinism)\n"
                                "int ok = 0;\n"
                                "int x = std::rand();\n"),
                       "determinism"));
}

// ---------------------------------------------------------------------------
// ordered-iteration

TEST(OrderedIterationRule, FiresOnRangeForOverUnorderedMember) {
  const auto findings = lint_cpp(
      "std::unordered_map<int, double> scores_;\n"
      "void dump() {\n"
      "  for (const auto& [k, v] : scores_) emit(k, v);\n"
      "}\n");
  ASSERT_TRUE(has_rule(findings, "ordered-iteration"));
  EXPECT_EQ(findings[0].line, 3);
}

TEST(OrderedIterationRule, FindsDeclarationsInSiblingHeader) {
  // The member lives in the paired header; the .cpp only iterates it.
  const std::string header = "struct S { std::unordered_set<int> seen_; };\n";
  const auto findings = lint_cpp("void S::dump() { for (int v : seen_) emit(v); }\n",
                                 "src/s.cpp", header);
  EXPECT_TRUE(has_rule(findings, "ordered-iteration"));
}

TEST(OrderedIterationRule, OrderedContainersAndLookupsAreFine) {
  EXPECT_FALSE(has_rule(lint_cpp("std::map<int, int> m_;\n"
                                 "void dump() { for (auto& [k, v] : m_) emit(k); }\n"),
                        "ordered-iteration"));
  // Lookups into an unordered container do not fire; only iteration does.
  EXPECT_FALSE(has_rule(lint_cpp("std::unordered_map<int, int> m_;\n"
                                 "int get(int k) { return m_.at(k); }\n"),
                        "ordered-iteration"));
  // A classic indexed for over a vector is fine.
  EXPECT_FALSE(has_rule(lint_cpp("std::vector<int> v_;\n"
                                 "void f() { for (std::size_t i = 0; i < v_.size(); ++i) g(i); }\n"),
                        "ordered-iteration"));
}

TEST(OrderedIterationRule, SuppressedByAllow) {
  EXPECT_FALSE(has_rule(
      lint_cpp("std::unordered_map<int, int> m_;\n"
               "void f() {\n"
               "  // lint:allow(ordered-iteration) — result is sorted below\n"
               "  for (auto& [k, v] : m_) out.push_back(k);\n"
               "}\n"),
      "ordered-iteration"));
}

TEST(OrderedIterationRule, FlagsAoSSamplesLoopInMlHotPath) {
  const std::string src =
      "void fit(const Dataset& train) {\n"
      "  for (const auto& s : train.samples) use(s.features);\n"
      "}\n";
  const auto findings = lint_cpp(src, "src/ml/model.cpp");
  ASSERT_TRUE(has_rule(findings, "ordered-iteration"));
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("DatasetMatrix"), std::string::npos);
}

TEST(OrderedIterationRule, SamplesLoopOutsideMlIsFine) {
  // Collection/feature-extraction code builds datasets sample-by-sample by
  // design; only src/ml/ hot paths are steered to the columnar matrix.
  const std::string src =
      "void windows(const Dataset& d) {\n"
      "  for (const auto& s : d.samples) use(s);\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_cpp(src, "src/features/window.cpp"), "ordered-iteration"));
  EXPECT_FALSE(has_rule(lint_cpp(src, "tests/test_x.cpp"), "ordered-iteration"));
}

TEST(OrderedIterationRule, IndexedSamplesLoopInMlIsFine) {
  // Indexed loops (fold assembly, histogram builds) are not flagged — only
  // range-fors walking the AoS samples.
  const std::string src =
      "void folds(const Dataset& d) {\n"
      "  for (std::size_t i = 0; i < d.samples.size(); ++i) use(d.samples[i]);\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_cpp(src, "src/ml/crossval.cpp"), "ordered-iteration"));
}

TEST(OrderedIterationRule, FlagsWheelBucketWalkInLte) {
  // Bucket order is an insertion artifact (entries may be merged from
  // per-cell shards); dispatch order must come from TimerWheel::drain().
  const std::string src =
      "void Broken::dispatch(TimeMs now) {\n"
      "  WheelBucket& bucket = buckets_[now & mask_];\n"
      "  for (const WheelEntry& e : bucket) fire(e.ue);\n"
      "}\n";
  const auto findings = lint_cpp(src, "src/lte/broken.cpp");
  ASSERT_TRUE(has_rule(findings, "ordered-iteration"));
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("drain"), std::string::npos);
}

TEST(OrderedIterationRule, WheelBucketDeclarationsInSiblingHeader) {
  const std::string header = "struct W { WheelBucket overflow_; };\n";
  const auto findings = lint_cpp("void W::flush() { for (auto& e : overflow_) fire(e); }\n",
                                 "src/lte/w.cpp", header);
  EXPECT_TRUE(has_rule(findings, "ordered-iteration"));
}

TEST(OrderedIterationRule, WheelBucketOutsideLteAndIndexedScansAreFine) {
  const std::string src =
      "void Broken::dispatch(TimeMs now) {\n"
      "  WheelBucket& bucket = buckets_[now & mask_];\n"
      "  for (const WheelEntry& e : bucket) fire(e.ue);\n"
      "}\n";
  // Path-scoped to the event engine, like the src/ml/ samples rule.
  EXPECT_FALSE(has_rule(lint_cpp(src, "tests/test_wheel.cpp"), "ordered-iteration"));
  // drain()-style indexed compaction over a bucket is the blessed pattern.
  const std::string indexed =
      "void TimerWheel::compact(WheelBucket& bucket) {\n"
      "  for (std::size_t i = 0; i < bucket.size(); ++i) keep(bucket[i]);\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_cpp(indexed, "src/lte/timer_wheel.cpp"), "ordered-iteration"));
  // Iterating the vector OF buckets (ring order) is deterministic and fine.
  const std::string ring =
      "std::vector<WheelBucket> buckets_;\n"
      "std::size_t total() { std::size_t n = 0; for (const auto& b : buckets_) n += b.size(); "
      "return n; }\n";
  EXPECT_FALSE(has_rule(lint_cpp(ring, "src/lte/timer_wheel.cpp"), "ordered-iteration"));
}

TEST(OrderedIterationRule, WheelBucketWalkSuppressedByAllow) {
  EXPECT_FALSE(has_rule(
      lint_cpp("void f(WheelBucket& bucket) {\n"
               "  // lint:allow(ordered-iteration) — membership scan, no dispatch\n"
               "  for (const auto& e : bucket) seen |= e.ue == target;\n"
               "}\n",
               "src/lte/wheel_debug.cpp"),
      "ordered-iteration"));
}

// ---------------------------------------------------------------------------
// decoder-hardening

TEST(DecoderHardeningRule, FiresOnSeededViolations) {
  EXPECT_TRUE(has_rule(lint_cpp("int v = atoi(s);\n"), "decoder-hardening"));
  EXPECT_TRUE(has_rule(lint_cpp("int v = std::stoi(field);\n"), "decoder-hardening"));
  EXPECT_TRUE(has_rule(lint_cpp("long v = strtol(p, &e, 10);\n"), "decoder-hardening"));
  EXPECT_TRUE(has_rule(lint_cpp("sscanf(line, \"%d\", &v);\n"), "decoder-hardening"));
}

TEST(DecoderHardeningRule, FromCharsIsTheBlessedPath) {
  EXPECT_FALSE(has_rule(
      lint_cpp("auto [p, ec] = std::from_chars(b, e, v);\nif (ec != std::errc{}) fail();\n"),
      "decoder-hardening"));
}

TEST(DecoderHardeningRule, SuppressedByAllow) {
  EXPECT_FALSE(has_rule(
      lint_cpp("int v = atoi(s);  // lint:allow(decoder-hardening) — trusted fixture\n"),
      "decoder-hardening"));
}

// ---------------------------------------------------------------------------
// header-hygiene

TEST(HeaderHygieneRule, MissingPragmaOnceFires) {
  const auto findings = lint_cpp("int f();\n", "src/x.hpp");
  ASSERT_TRUE(has_rule(findings, "header-hygiene"));
  EXPECT_EQ(findings[0].line, 1);
}

TEST(HeaderHygieneRule, PragmaOnceSatisfies) {
  EXPECT_FALSE(has_rule(lint_cpp("// doc\n#pragma once\nint f();\n", "src/x.hpp"),
                        "header-hygiene"));
  // Extra whitespace in the directive is fine.
  EXPECT_FALSE(has_rule(lint_cpp("#  pragma   once\nint f();\n", "src/x.hpp"),
                        "header-hygiene"));
}

TEST(HeaderHygieneRule, UsingNamespaceInHeaderFires) {
  EXPECT_TRUE(has_rule(
      lint_cpp("#pragma once\nusing namespace std;\n", "src/x.hpp"), "header-hygiene"));
  // using-declarations and aliases are fine.
  EXPECT_FALSE(has_rule(
      lint_cpp("#pragma once\nusing std::vector;\nnamespace fs = std::filesystem;\n",
               "src/x.hpp"),
      "header-hygiene"));
}

TEST(HeaderHygieneRule, OnlyAppliesToHeaders) {
  EXPECT_FALSE(has_rule(lint_cpp("using namespace std;\nint f();\n", "src/x.cpp"),
                        "header-hygiene"));
}

TEST(HeaderHygieneRule, SuppressedByAllow) {
  EXPECT_FALSE(has_rule(
      lint_cpp("#pragma once\nusing namespace std::chrono_literals;  "
               "// lint:allow(header-hygiene) — literal suffixes only\n",
               "src/x.hpp"),
      "header-hygiene"));
}

// ---------------------------------------------------------------------------
// float-eq

TEST(FloatEqRule, FiresOnSeededViolations) {
  EXPECT_TRUE(has_rule(lint_cpp("if (x == 0.0) f();\n"), "float-eq"));
  EXPECT_TRUE(has_rule(lint_cpp("if (1.5f != y) f();\n"), "float-eq"));
  EXPECT_TRUE(has_rule(lint_cpp("bool b = x == (0.25);\n"), "float-eq"));
  EXPECT_TRUE(has_rule(lint_cpp("bool b = x == -1.0;\n"), "float-eq"));
}

TEST(FloatEqRule, IntegerAndOrderingComparisonsAreFine) {
  EXPECT_FALSE(has_rule(lint_cpp("if (x == 0) f();\n"), "float-eq"));
  EXPECT_FALSE(has_rule(lint_cpp("if (x <= 0.0) f();\n"), "float-eq"));
  EXPECT_FALSE(has_rule(lint_cpp("if (n != 42u) f();\n"), "float-eq"));
}

TEST(FloatEqRule, SuppressedByAllow) {
  EXPECT_FALSE(has_rule(
      lint_cpp("if (x == 0.0) f();  // lint:allow(float-eq) — sentinel check\n"),
      "float-eq"));
}

// ---------------------------------------------------------------------------
// bounded-queues

TEST(BoundedQueuesRule, FiresOnSeededViolations) {
  EXPECT_TRUE(has_rule(lint_cpp("std::deque<Item> backlog;\n"), "bounded-queues"));
  EXPECT_TRUE(has_rule(lint_cpp("std::queue<int> q;\n"), "bounded-queues"));
  EXPECT_TRUE(
      has_rule(lint_cpp("std::priority_queue<Head> heads;\n"), "bounded-queues"));
}

TEST(BoundedQueuesRule, BoundedAndUnqualifiedNamesAreFine) {
  // The project's own bounded ring is the blessed hand-off.
  EXPECT_FALSE(has_rule(lint_cpp("SpscQueue<Item> q(4096);\n"), "bounded-queues"));
  EXPECT_FALSE(
      has_rule(lint_cpp("ltefp::SpscQueue<Item> q(64);\n"), "bounded-queues"));
  // Only std:: FIFOs are banned; a local identifier named `queue` is not.
  EXPECT_FALSE(has_rule(lint_cpp("auto& queue = worker.queue;\n"), "bounded-queues"));
  EXPECT_FALSE(has_rule(lint_cpp("my::queue<int> q;\n"), "bounded-queues"));
}

TEST(BoundedQueuesRule, SuppressedByAllow) {
  EXPECT_FALSE(has_rule(
      lint_cpp("// lint:allow(bounded-queues) — drained before each return\n"
               "std::deque<Item> scratch;\n"),
      "bounded-queues"));
}

// ---------------------------------------------------------------------------
// simd-dispatch

TEST(SimdDispatchRule, FiresOnIntrinsicsOutsideKernelTus) {
  EXPECT_TRUE(has_rule(
      lint_cpp("__m128d v = _mm_load_sd(p);\n", "src/ml/forest.cpp"),
      "simd-dispatch"));
  EXPECT_TRUE(has_rule(
      lint_cpp("#include <immintrin.h>\n", "src/dtw/dtw.cpp"), "simd-dispatch"));
  EXPECT_TRUE(has_rule(
      lint_cpp("__m256i acc = _mm256_setzero_si256();\n", "bench/bench_micro.cpp"),
      "simd-dispatch"));
}

TEST(SimdDispatchRule, FiresOnIntrinsicsInHeadersEvenKernelOnes) {
  // Headers leak intrinsics into every includer; not even a kernel header
  // may carry them.
  EXPECT_TRUE(has_rule(lint_cpp("#pragma once\n"
                                "#include \"common/cpu.hpp\"\n"
                                "__m128d splat(double x);\n",
                                "src/ml/flat_forest_kernels.hpp"),
                       "simd-dispatch"));
}

TEST(SimdDispatchRule, KernelTuWithDispatchShimIsTheBlessedHome) {
  EXPECT_FALSE(has_rule(lint_cpp("#include <emmintrin.h>\n"
                                 "#include \"common/cpu.hpp\"\n"
                                 "__m128d v = _mm_cmple_sd(a, b);\n",
                                 "src/ml/flat_forest_kernels.cpp"),
                        "simd-dispatch"));
}

TEST(SimdDispatchRule, KernelTuWithoutShimIncludeFires) {
  // "kernels" in the basename is not enough: the TU must include the
  // dispatch shim so its entry points are selected by simd_tier().
  EXPECT_TRUE(has_rule(lint_cpp("#include <emmintrin.h>\n"
                                "__m128d v = _mm_setzero_pd();\n",
                                "src/ml/rogue_kernels.cpp"),
               "simd-dispatch"));
}

TEST(SimdDispatchRule, ScalarCodeIsFine) {
  EXPECT_FALSE(has_rule(
      lint_cpp("double max_margin = margin(a, b);\n", "src/ml/forest.cpp"),
      "simd-dispatch"));
}

TEST(SimdDispatchRule, SuppressedByAllow) {
  EXPECT_FALSE(has_rule(
      lint_cpp("// lint:allow(simd-dispatch) — prefetch hint, not a lane op\n"
               "_mm_prefetch(p, _MM_HINT_T0);\n",
               "src/ml/forest.cpp"),
      "simd-dispatch"));
}

// ---------------------------------------------------------------------------
// Suppression hygiene

TEST(Suppressions, UnknownRuleIdIsItselfAFinding) {
  const auto findings = lint_cpp("int x = 1;  // lint:allow(no-such-rule)\n");
  ASSERT_TRUE(has_rule(findings, "bad-suppression"));
}

TEST(Suppressions, EmptyAllowIsItselfAFinding) {
  EXPECT_TRUE(has_rule(lint_cpp("int x = 1;  // lint:allow()\n"), "bad-suppression"));
}

TEST(Suppressions, AllowOnlySilencesTheNamedRule) {
  // The allow names float-eq but the violation is determinism.
  EXPECT_TRUE(has_rule(
      lint_cpp("int x = std::rand();  // lint:allow(float-eq)\n"), "determinism"));
}

// ---------------------------------------------------------------------------
// Configuration

constexpr const char* kConfig =
    "# comment\n"
    "ignore = [\"build*\", \".git\"]\n"
    "\n"
    "[default]\n"
    "rules = [\"header-hygiene\", \"float-eq\"]\n"
    "\n"
    "[dir.\"src\"]\n"
    "enable = [\"determinism\"]\n"
    "\n"
    "[dir.\"src/sniffer\"]\n"
    "enable = [\"decoder-hardening\"]\n"
    "\n"
    "[dir.\"tests\"]\n"
    "disable = [\"float-eq\"]\n";

TEST(Config, ParsesSectionsKeysAndIgnores) {
  lint::Config config;
  std::string error;
  ASSERT_TRUE(lint::parse_config(kConfig, &config, &error)) << error;
  EXPECT_EQ(config.ignore, (std::vector<std::string>{"build*", ".git"}));
  EXPECT_EQ(config.default_rules,
            (std::vector<std::string>{"header-hygiene", "float-eq"}));
  ASSERT_EQ(config.dirs.size(), 3u);
  EXPECT_EQ(config.dirs[0].prefix, "src");
  EXPECT_EQ(config.dirs[0].enable, (std::vector<std::string>{"determinism"}));
}

TEST(Config, RulesForAppliesOverridesBySpecificity) {
  lint::Config config;
  std::string error;
  ASSERT_TRUE(lint::parse_config(kConfig, &config, &error)) << error;

  const auto src = lint::rules_for(config, "src/lte/enb.cpp");
  EXPECT_EQ(src, (std::vector<std::string>{"header-hygiene", "float-eq", "determinism"}));

  const auto sniffer = lint::rules_for(config, "src/sniffer/trace.cpp");
  EXPECT_EQ(sniffer, (std::vector<std::string>{"header-hygiene", "float-eq",
                                               "determinism", "decoder-hardening"}));

  const auto tests = lint::rules_for(config, "tests/test_lint.cpp");
  EXPECT_EQ(tests, (std::vector<std::string>{"header-hygiene"}));

  // Prefix matching is per path component: "src-extra" is not under "src".
  const auto other = lint::rules_for(config, "src-extra/x.cpp");
  EXPECT_EQ(other, (std::vector<std::string>{"header-hygiene", "float-eq"}));
}

TEST(Config, StreamDirStacksBoundedQueuesOnDeterminism) {
  // The shipped config's shape for stream code: the src-wide determinism
  // contract plus the stream-only bounded-queues contract.
  lint::Config config;
  std::string error;
  ASSERT_TRUE(lint::parse_config(
      "[default]\nrules = [\"header-hygiene\"]\n"
      "[dir.\"src\"]\nenable = [\"determinism\"]\n"
      "[dir.\"src/stream\"]\nenable = [\"bounded-queues\"]\n",
      &config, &error))
      << error;
  EXPECT_EQ(lint::rules_for(config, "src/stream/daemon.cpp"),
            (std::vector<std::string>{"header-hygiene", "determinism", "bounded-queues"}));
  EXPECT_EQ(lint::rules_for(config, "src/ml/random_forest.cpp"),
            (std::vector<std::string>{"header-hygiene", "determinism"}));
}

TEST(Config, RulesReplaceOverridesDefaults) {
  lint::Config config;
  std::string error;
  ASSERT_TRUE(lint::parse_config(
      "[default]\nrules = [\"float-eq\"]\n[dir.\"bench\"]\nrules = [\"determinism\"]\n",
      &config, &error))
      << error;
  EXPECT_EQ(lint::rules_for(config, "bench/bench_micro.cpp"),
            (std::vector<std::string>{"determinism"}));
}

TEST(Config, RejectsMalformedInput) {
  lint::Config config;
  std::string error;
  EXPECT_FALSE(lint::parse_config("[default]\nrules = [\"no-such-rule\"]\n", &config,
                                  &error));
  EXPECT_NE(error.find("no-such-rule"), std::string::npos);

  EXPECT_FALSE(lint::parse_config("[bogus-section]\n", &config, &error));
  EXPECT_FALSE(lint::parse_config("[default]\nbogus = [\"x\"]\n", &config, &error));
  EXPECT_FALSE(lint::parse_config("[default]\nrules = \"not-an-array\"\n", &config,
                                  &error));
  EXPECT_FALSE(lint::parse_config("stray line\n", &config, &error));
}

TEST(Config, GlobMatch) {
  EXPECT_TRUE(lint::glob_match("build*", "build-asan"));
  EXPECT_TRUE(lint::glob_match("build*", "build"));
  EXPECT_TRUE(lint::glob_match("*.cpp", "x.cpp"));
  EXPECT_TRUE(lint::glob_match("?.cpp", "x.cpp"));
  EXPECT_FALSE(lint::glob_match("build*", "rebuild"));
  EXPECT_FALSE(lint::glob_match("*.cpp", "x.hpp"));
}

// ---------------------------------------------------------------------------
// Semantic layer (sema.cpp): block outline, lambdas, declarations

TEST(Sema, OutlineBlocksParentsAndFunctionDetection) {
  const auto toks = lint::lex(
      "namespace n {\n"
      "int add(int a, int b) { if (a > b) { return a; } return b; }\n"
      "}\n");
  const auto o = lint::build_outline(toks);
  ASSERT_EQ(o.blocks.size(), 3u);
  EXPECT_FALSE(o.blocks[0].is_function);  // namespace
  EXPECT_TRUE(o.blocks[1].is_function);
  EXPECT_EQ(o.blocks[1].name, "add");
  EXPECT_EQ(o.blocks[1].params, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(o.blocks[1].parent, 0);
  EXPECT_EQ(o.blocks[2].parent, 1);       // the if-block
  EXPECT_FALSE(o.blocks[2].is_function);  // control flow, not a definition
}

TEST(Sema, QualifiedNamesAndConstructorInitLists) {
  const auto toks = lint::lex(
      "Writer::Writer(std::string path) : path_(std::move(path)), n_(0) {\n"
      "  open();\n"
      "}\n"
      "bool Reader::next(int x) { return x > 0; }\n");
  const auto o = lint::build_outline(toks);
  ASSERT_EQ(o.blocks.size(), 2u);
  EXPECT_TRUE(o.blocks[0].is_function);
  EXPECT_EQ(o.blocks[0].name, "Writer::Writer");
  EXPECT_EQ(o.blocks[0].params, (std::vector<std::string>{"path"}));
  EXPECT_TRUE(o.blocks[1].is_function);
  EXPECT_EQ(o.blocks[1].name, "Reader::next");
}

TEST(Sema, LambdaCapturesParamsAndDefaults) {
  const auto toks = lint::lex(
      "auto f = [&a, b, &c](int x, double y) { return x; };\n"
      "auto g = [=, this] { return 1; };\n"
      "auto h = [&] { return 2; };\n");
  const auto o = lint::build_outline(toks);
  ASSERT_EQ(o.lambdas.size(), 3u);

  const auto& f = o.lambdas[0];
  ASSERT_EQ(f.captures.size(), 3u);
  EXPECT_EQ(f.captures[0].name, "a");
  EXPECT_TRUE(f.captures[0].by_ref);
  EXPECT_EQ(f.captures[1].name, "b");
  EXPECT_FALSE(f.captures[1].by_ref);
  EXPECT_EQ(f.captures[2].name, "c");
  EXPECT_TRUE(f.captures[2].by_ref);
  EXPECT_EQ(f.params, (std::vector<std::string>{"x", "y"}));
  EXPECT_FALSE(f.default_ref);
  EXPECT_FALSE(f.default_copy);
  ASSERT_GE(f.body, 0);

  EXPECT_TRUE(o.lambdas[1].default_copy);
  EXPECT_TRUE(o.lambdas[1].captures_this);
  EXPECT_TRUE(o.lambdas[2].default_ref);
}

TEST(Sema, NestedLambdasNestTheirBodies) {
  const auto toks = lint::lex(
      "auto outer = [&](int i) {\n"
      "  auto inner = [i](int j) { return i + j; };\n"
      "  return inner(i);\n"
      "};\n");
  const auto o = lint::build_outline(toks);
  ASSERT_EQ(o.lambdas.size(), 2u);
  ASSERT_GE(o.lambdas[0].body, 0);
  ASSERT_GE(o.lambdas[1].body, 0);
  EXPECT_EQ(o.blocks[static_cast<std::size_t>(o.lambdas[1].body)].parent,
            o.lambdas[0].body);
  EXPECT_EQ(o.lambdas[1].params, (std::vector<std::string>{"j"}));
}

TEST(Sema, SubscriptsAndAttributesAreNotLambdas) {
  const auto toks = lint::lex(
      "[[nodiscard]] int f(std::vector<int>& v) { return v[0] + v[i]; }\n");
  const auto o = lint::build_outline(toks);
  EXPECT_TRUE(o.lambdas.empty());
  ASSERT_EQ(o.blocks.size(), 1u);
  EXPECT_TRUE(o.blocks[0].is_function);
}

TEST(Sema, DeclaredVarsFindsLocalsRangeForBindingsAndAtomics) {
  const auto toks = lint::lex(
      "void f(std::uint64_t seed) {\n"
      "  std::size_t i = 0;\n"
      "  Rng rng(seed);\n"
      "  std::atomic<std::uint64_t> hits{0};\n"
      "  for (auto& idx : boots) idx = 1;\n"
      "  auto [p, ec] = parse(s);\n"
      "}\n");
  const auto vars = lint::declared_vars(toks, 0, toks.size());
  const auto find = [&](std::string_view name) -> const lint::DeclaredVar* {
    for (const auto& v : vars) {
      if (v.name == name) return &v;
    }
    return nullptr;
  };
  for (const char* name : {"i", "rng", "hits", "idx", "p", "ec"}) {
    EXPECT_NE(find(name), nullptr) << name;
  }
  ASSERT_NE(find("hits"), nullptr);
  EXPECT_TRUE(find("hits")->atomic);
  ASSERT_NE(find("i"), nullptr);
  EXPECT_FALSE(find("i")->atomic);
  EXPECT_EQ(find("boots"), nullptr);  // the range is used, not declared
}

TEST(Sema, OutlineOnRealParallelKernelShape) {
  // The dtw similarity-matrix shape: parallel_for over a flattened index
  // with div/mod recovery and a slot-indexed write.
  const auto toks = lint::lex(
      "void similarity_matrix(std::size_t n) {\n"
      "  parallel_for(n * n, 64, [&](std::size_t begin, std::size_t end) {\n"
      "    for (std::size_t k = begin; k < end; ++k) {\n"
      "      const std::size_t i = k / n;\n"
      "      const std::size_t j = k % n;\n"
      "      matrix[i * n + j] = sim(i, j);\n"
      "    }\n"
      "  });\n"
      "}\n");
  const auto o = lint::build_outline(toks);
  ASSERT_EQ(o.lambdas.size(), 1u);
  ASSERT_GE(o.lambdas[0].body, 0);
  ASSERT_EQ(o.blocks.size(), 3u);  // function, lambda body, for body
  // A token deep inside the for-loop resolves to the lambda body scope.
  std::size_t matrix_tok = 0;
  for (std::size_t t = 0; t < toks.size(); ++t) {
    if (toks[t].text == "matrix") matrix_tok = t;
  }
  ASSERT_GT(matrix_tok, 0u);
  EXPECT_EQ(o.function_at(matrix_tok), o.lambdas[0].body);
}

// ---------------------------------------------------------------------------
// parallel-capture

TEST(ParallelCaptureRule, FiresOnScalarAccumulationThroughDefaultRef) {
  const auto findings = lint_cpp(
      "void f(std::size_t n, std::vector<int>& v) {\n"
      "  std::size_t sum = 0;\n"
      "  parallel_for(n, 1, [&](std::size_t b, std::size_t e) {\n"
      "    for (std::size_t i = b; i < e; ++i) sum += v[i];\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "parallel-capture"));
}

TEST(ParallelCaptureRule, FiresOnMutatingCallThroughExplicitRefCapture) {
  const auto findings = lint_cpp(
      "void f(std::size_t n, std::vector<int>& out) {\n"
      "  parallel_for(n, 1, [&out](std::size_t b, std::size_t e) {\n"
      "    out.push_back(static_cast<int>(b));\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "parallel-capture"));
}

TEST(ParallelCaptureRule, FiresInsideStdThreadDeclaration) {
  const auto findings = lint_cpp(
      "void f() {\n"
      "  int shared = 0;\n"
      "  std::thread t([&] { shared += 1; });\n"
      "  t.join();\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "parallel-capture"));
}

TEST(ParallelCaptureRule, SlotIndexedWritesAreTheBlessedPattern) {
  const auto findings = lint_cpp(
      "void f(std::size_t n, std::vector<int>& out) {\n"
      "  parallel_map(n, [&](std::size_t i) { out[i] = compute(i); });\n"
      "  parallel_for(n, 64, [&out](std::size_t b, std::size_t e) {\n"
      "    for (std::size_t i = b; i < e; ++i) out[i] += 1;\n"
      "  });\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "parallel-capture"));
}

TEST(ParallelCaptureRule, AtomicTargetsAreFine) {
  const auto findings = lint_cpp(
      "void f(std::size_t n) {\n"
      "  std::atomic<std::uint64_t> hits{0};\n"
      "  parallel_for(n, 1, [&](std::size_t b, std::size_t e) {\n"
      "    hits += e - b;\n"
      "  });\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "parallel-capture"));
}

TEST(ParallelCaptureRule, AtomicDeclaredInSiblingHeaderIsFine) {
  const auto findings = lint_cpp(
      "void S::run(std::size_t n) {\n"
      "  parallel_for(n, 1, [&](std::size_t b, std::size_t e) { total_ += b; });\n"
      "}\n",
      "src/s.cpp",
      "#pragma once\nstruct S { std::atomic<std::uint64_t> total_; };\n");
  EXPECT_FALSE(has_rule(findings, "parallel-capture"));
}

TEST(ParallelCaptureRule, LockGuardedWritesAreFine) {
  const auto findings = lint_cpp(
      "void f(std::size_t n, std::mutex& m) {\n"
      "  std::size_t total = 0;\n"
      "  parallel_for(n, 1, [&](std::size_t b, std::size_t e) {\n"
      "    std::lock_guard<std::mutex> g(m);\n"
      "    total += e - b;\n"
      "  });\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "parallel-capture"));
}

TEST(ParallelCaptureRule, LambdaLocalStateIsFine) {
  const auto findings = lint_cpp(
      "void f(std::size_t n) {\n"
      "  parallel_map(n, [&](std::size_t i) {\n"
      "    Trace records;\n"
      "    records.reserve(4);\n"
      "    records.push_back(decode(i));\n"
      "    return records;\n"
      "  });\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "parallel-capture"));
}

TEST(ParallelCaptureRule, PlainLambdasOutsideParallelContextsAreFine) {
  const auto findings = lint_cpp(
      "void f() {\n"
      "  int acc = 0;\n"
      "  auto bump = [&] { acc += 1; };\n"
      "  bump();\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "parallel-capture"));
}

TEST(ParallelCaptureRule, SuppressedByAllow) {
  const auto findings = lint_cpp(
      "void f(std::size_t n) {\n"
      "  std::size_t sum = 0;\n"
      "  parallel_for(n, 1, [&](std::size_t b, std::size_t e) {\n"
      "    sum += b;  // lint:allow(parallel-capture) — single-threaded in tests\n"
      "  });\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "parallel-capture"));
}

TEST(ParallelCaptureRule, AllowNamingAnotherRuleDoesNotSuppress) {
  const auto findings = lint_cpp(
      "void f(std::size_t n) {\n"
      "  std::size_t sum = 0;\n"
      "  parallel_for(n, 1, [&](std::size_t b, std::size_t e) {\n"
      "    sum += b;  // lint:allow(float-eq) — wrong rule, must not silence\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "parallel-capture"));
}

// ---------------------------------------------------------------------------
// tainted-alloc

TEST(TaintedAllocRule, FiresOnVarintLengthReachingResize) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r, std::vector<std::uint8_t>& buf) {\n"
      "  const std::uint64_t n = r.get_varint();\n"
      "  buf.resize(n);\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, TaintPropagatesThroughAssignment) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r, std::vector<int>& buf) {\n"
      "  const std::uint64_t n = r.get_varint();\n"
      "  const std::uint64_t bytes = n * 4;\n"
      "  buf.reserve(bytes);\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, FiresOnInlineDecodeInSinkArgument) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r, std::vector<int>& buf) {\n"
      "  buf.resize(r.get_varint());\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, FiresOnNewArraySizedByDecodedValue) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r) {\n"
      "  const std::uint64_t n = r.get_varint();\n"
      "  auto* p = new std::uint8_t[n];\n"
      "  use(p);\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, FiresOnFromCharsValueReachingResize) {
  const auto findings = lint_cpp(
      "void f(const char* b, const char* e, std::vector<int>& buf) {\n"
      "  std::uint64_t len = 0;\n"
      "  std::from_chars(b, e, len);\n"
      "  buf.resize(len);\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, BoundCheckSanitizes) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r, std::vector<std::uint8_t>& buf) {\n"
      "  const std::uint64_t n = r.get_varint();\n"
      "  if (n > kMaxChunkPayload) { fail(\"too big\"); }\n"
      "  buf.resize(n);\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, EqualityAgainstZeroIsNotABoundCheck) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r, std::vector<std::uint8_t>& buf) {\n"
      "  const std::uint64_t n = r.get_varint();\n"
      "  if (n == 0) { return; }\n"
      "  buf.resize(n);\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, ClampInSinkArgumentSanitizes) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r, std::vector<std::uint8_t>& buf) {\n"
      "  const std::uint64_t n = r.get_varint();\n"
      "  buf.resize(std::min(n, kCap));\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, CleanReassignmentKillsTaint) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r, std::vector<std::uint8_t>& buf) {\n"
      "  std::uint64_t n = r.get_varint();\n"
      "  n = 16;\n"
      "  buf.resize(n);\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "tainted-alloc"));
}

// The model loaders read counts through `read_value<T>(in, what)`; the
// explicit template arguments must not hide the call.
TEST(TaintedAllocRule, FiresOnReadValueCountReachingReserve) {
  const auto findings = lint_cpp(
      "void f(std::istream& in, std::vector<Node>& nodes) {\n"
      "  const int count = read_value<int>(in, \"node count\");\n"
      "  nodes.reserve(static_cast<std::size_t>(count));\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, BoundedReadValueCountIsFine) {
  const auto findings = lint_cpp(
      "void f(std::istream& in, std::vector<Node>& nodes) {\n"
      "  const int count = read_value<int>(in, \"node count\");\n"
      "  if (count <= 0 || count > kMaxNodes) { fail(\"bad count\"); }\n"
      "  nodes.reserve(static_cast<std::size_t>(count));\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, ClampWithTemplateArgumentsSanitizes) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r, std::vector<std::uint8_t>& buf) {\n"
      "  const std::uint64_t n = r.get_varint();\n"
      "  buf.resize(std::min<std::uint64_t>(n, kCap));\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, UntaintedSizesAreFine) {
  const auto findings = lint_cpp(
      "void f(std::size_t count, std::vector<std::uint8_t>& buf) {\n"
      "  buf.resize(count);\n"
      "  buf.reserve(count * 2);\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, SuppressedByAllow) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r, std::vector<std::uint8_t>& buf) {\n"
      "  const std::uint64_t n = r.get_varint();\n"
      "  // lint:allow(tainted-alloc) — n is re-validated by the caller\n"
      "  buf.resize(n);\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "tainted-alloc"));
}

TEST(TaintedAllocRule, AllowNamingAnotherRuleDoesNotSuppress) {
  const auto findings = lint_cpp(
      "void f(ByteReader& r, std::vector<std::uint8_t>& buf) {\n"
      "  const std::uint64_t n = r.get_varint();\n"
      "  // lint:allow(decoder-hardening) — wrong rule, must not silence\n"
      "  buf.resize(n);\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "tainted-alloc"));
}

// ---------------------------------------------------------------------------
// unchecked-result

TEST(UncheckedResultRule, StructuredBindingWithEcCompareIsClean) {
  const auto findings = lint_cpp(
      "int parse(const char* b, const char* e) {\n"
      "  int v = 0;\n"
      "  auto [p, ec] = std::from_chars(b, e, v);\n"
      "  if (ec != std::errc{}) { return -1; }\n"
      "  return v;\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "unchecked-result"));
}

TEST(UncheckedResultRule, StructuredBindingWithoutEcCompareFires) {
  const auto findings = lint_cpp(
      "int parse(const char* b, const char* e) {\n"
      "  int v = 0;\n"
      "  auto [p, ec] = std::from_chars(b, e, v);\n"
      "  return v;\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "unchecked-result"));
}

TEST(UncheckedResultRule, ResultObjectWithEcCompareIsClean) {
  const auto findings = lint_cpp(
      "int parse(const char* b, const char* e) {\n"
      "  int v = 0;\n"
      "  auto res = std::from_chars(b, e, v);\n"
      "  if (res.ec == std::errc{}) { return v; }\n"
      "  return -1;\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "unchecked-result"));
}

TEST(UncheckedResultRule, ResultObjectNeverComparedFires) {
  const auto findings = lint_cpp(
      "int parse(const char* b, const char* e) {\n"
      "  int v = 0;\n"
      "  auto res = std::from_chars(b, e, v);\n"
      "  use(res.ptr);\n"
      "  return v;\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "unchecked-result"));
}

TEST(UncheckedResultRule, InlineEcCompareIsClean) {
  const auto findings = lint_cpp(
      "bool parse(const char* b, const char* e, int& v) {\n"
      "  return std::from_chars(b, e, v).ec == std::errc{};\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "unchecked-result"));
}

TEST(UncheckedResultRule, BareFromCharsStatementFires) {
  const auto findings = lint_cpp(
      "void parse(const char* b, const char* e, int& v) {\n"
      "  std::from_chars(b, e, v);\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "unchecked-result"));
}

TEST(UncheckedResultRule, DiscardedStatusReturnFires) {
  const auto findings = lint_cpp(
      "void f(Reader& r, TraceRecord& rec) {\n"
      "  r.next(rec);\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "unchecked-result"));
}

TEST(UncheckedResultRule, DiscardedCursorNextFires) {
  const auto findings = lint_cpp(
      "void f(const MappedReader& reader, sniffer::TraceRecord& rec) {\n"
      "  MappedReader::Cursor cursor = reader.cursor();\n"
      "  cursor.next(rec);\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "unchecked-result"));
}

TEST(UncheckedResultRule, ConsumedStatusReturnsAreClean) {
  const auto findings = lint_cpp(
      "std::size_t f(const MappedReader& reader, TraceRecord& rec) {\n"
      "  std::size_t n = 0;\n"
      "  MappedReader::Cursor cursor = reader.cursor();\n"
      "  while (cursor.next(rec)) { ++n; }\n"
      "  return n;\n"
      "}\n"
      "bool g(StreamSource& s, StreamRecord& r) { return s.next(r); }\n");
  EXPECT_FALSE(has_rule(findings, "unchecked-result"));
}

TEST(UncheckedResultRule, SuppressedByAllow) {
  const auto findings = lint_cpp(
      "void f(Reader& r, TraceRecord& rec) {\n"
      "  // lint:allow(unchecked-result) — draining a known-size prefix\n"
      "  r.next(rec);\n"
      "}\n");
  EXPECT_FALSE(has_rule(findings, "unchecked-result"));
}

TEST(UncheckedResultRule, AllowNamingAnotherRuleDoesNotSuppress) {
  const auto findings = lint_cpp(
      "void f(Reader& r, TraceRecord& rec) {\n"
      "  // lint:allow(determinism) — wrong rule, must not silence\n"
      "  r.next(rec);\n"
      "}\n");
  EXPECT_TRUE(has_rule(findings, "unchecked-result"));
}

// ---------------------------------------------------------------------------
// CLI behavior (exit codes, walking, ignore patterns)

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) / "ltefp_lint_cli" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& text) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p) << text;
  }

  int run(std::vector<std::string> args, std::string* out_text = nullptr,
          std::string* err_text = nullptr) {
    std::vector<std::string> argv_s = {"ltefp-lint", "--root", root_.string()};
    for (auto& a : args) argv_s.push_back(std::move(a));
    std::vector<const char*> argv;
    for (const auto& s : argv_s) argv.push_back(s.c_str());
    std::ostringstream out, err;
    const int rc = lint::run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
    if (out_text) *out_text = out.str();
    if (err_text) *err_text = err.str();
    return rc;
  }

  fs::path root_;
};

TEST_F(CliTest, ExitZeroOnCleanTree) {
  write("src/ok.cpp", "int f() { return 1; }\n");
  write("src/ok.hpp", "#pragma once\nint f();\n");
  EXPECT_EQ(run({"src"}), 0);
}

TEST_F(CliTest, ExitOneOnFindingsAndReportsFileLineRule) {
  write("src/bad.cpp", "int x = std::rand();\n");
  std::string out;
  EXPECT_EQ(run({"src"}, &out), 1);
  EXPECT_NE(out.find("src/bad.cpp:1: determinism:"), std::string::npos);
}

TEST_F(CliTest, ExitTwoOnUsageErrors) {
  EXPECT_EQ(run({"--bogus-flag"}), 2);
  EXPECT_EQ(run({}), 2);                       // no paths
  EXPECT_EQ(run({"no/such/dir"}), 2);          // nonexistent input
  EXPECT_EQ(run({"--config"}), 2);             // flag missing its value
}

TEST_F(CliTest, ExitTwoOnBadConfig) {
  write("src/ok.cpp", "int f();\n");
  write("bad.toml", "[default]\nrules = [\"no-such-rule\"]\n");
  std::string err;
  EXPECT_EQ(run({"--config", (root_ / "bad.toml").string(), "src"}, nullptr, &err), 2);
  EXPECT_NE(err.find("no-such-rule"), std::string::npos);
}

TEST_F(CliTest, ImplicitConfigIsPickedUpFromRoot) {
  // float-eq disabled for src via the root config: the violation passes.
  write(".ltefp-lint.toml", "[default]\nrules = [\"float-eq\"]\n"
                            "[dir.\"src\"]\ndisable = [\"float-eq\"]\n");
  write("src/f.cpp", "bool b = x == 0.5;\n");
  EXPECT_EQ(run({"src"}), 0);
}

TEST_F(CliTest, WalksRecursivelyAndHonorsIgnorePatterns) {
  write(".ltefp-lint.toml", "ignore = [\"build*\", \"vendored\"]\n"
                            "[default]\nrules = [\"determinism\"]\n");
  write("src/deep/nested/bad.cpp", "srand(1);\n");
  write("src/build-asan/generated.cpp", "srand(1);\n");   // ignored
  write("src/vendored/third_party.cpp", "srand(1);\n");   // ignored
  std::string out;
  EXPECT_EQ(run({"src"}, &out), 1);
  EXPECT_NE(out.find("src/deep/nested/bad.cpp:1"), std::string::npos);
  EXPECT_EQ(out.find("build-asan"), std::string::npos);
  EXPECT_EQ(out.find("vendored"), std::string::npos);
}

TEST_F(CliTest, NonSourceFilesAreSkipped) {
  write("src/readme.md", "rand() everywhere\n");
  write("src/data.csv", "time(nullptr)\n");
  EXPECT_EQ(run({"src"}), 0);
}

TEST_F(CliTest, SiblingHeaderInformsOrderedIteration) {
  write("src/s.hpp", "#pragma once\nstruct S { std::unordered_map<int, int> m_; };\n");
  write("src/s.cpp", "void S::f() { for (auto& [k, v] : m_) g(k); }\n");
  std::string out;
  EXPECT_EQ(run({"src"}, &out), 1);
  EXPECT_NE(out.find("src/s.cpp:1: ordered-iteration"), std::string::npos);
}

TEST_F(CliTest, ListRulesPrintsEveryShippedRule) {
  std::string out;
  EXPECT_EQ(run({"--list-rules"}, &out), 0);
  for (const auto* rule : lint::all_rules()) {
    EXPECT_NE(out.find(rule->id()), std::string::npos) << rule->id();
  }
}

TEST_F(CliTest, LintsASingleFileArgument) {
  write("src/bad.cpp", "int v = atoi(s);\n");
  write(".ltefp-lint.toml", "[default]\nrules = [\"decoder-hardening\"]\n");
  EXPECT_EQ(run({"src/bad.cpp"}), 1);
}

TEST_F(CliTest, JsonReportWritesMachineReadableFindings) {
  write("src/bad.cpp", "int x = std::rand();\n");
  const std::string json_path = (root_ / "lint.json").string();
  EXPECT_EQ(run({"--json", json_path, "src"}), 1);
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"file\": \"src/bad.cpp\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"line\": 1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"rule\": \"determinism\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"message\": \""), std::string::npos) << text;
}

TEST_F(CliTest, JsonReportOnCleanTreeHasEmptyFindings) {
  write("src/ok.cpp", "int f() { return 1; }\n");
  const std::string json_path = (root_ / "lint.json").string();
  EXPECT_EQ(run({"--json", json_path, "src"}), 0);
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"files_checked\": 1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"findings\": []"), std::string::npos) << text;
}

TEST_F(CliTest, StatsReportsPerRuleCountsAndWallTime) {
  write("src/bad.cpp", "int x = std::rand();\nbool b = y == 0.5;\n");
  std::string err;
  EXPECT_EQ(run({"--stats", "src"}, nullptr, &err), 1);
  EXPECT_NE(err.find("determinism=1"), std::string::npos) << err;
  EXPECT_NE(err.find("float-eq=1"), std::string::npos) << err;
  EXPECT_NE(err.find("wall "), std::string::npos) << err;
}

}  // namespace
