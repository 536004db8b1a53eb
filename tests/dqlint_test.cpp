// dqlint unit tests: every rule must fire on its bad fixture and stay quiet
// on the clean one; suppression and scope semantics are pinned down here.
//
// Fixtures (tests/dqlint_fixtures/) are lint input only -- never compiled.
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tools/dqlint/graph.h"
#include "tools/dqlint/lint.h"
#include "tools/dqlint/parse.h"

namespace dq::lint {
namespace {

std::string fixture(const std::string& name) {
  const std::string path = std::string(DQLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Lint a fixture with every rule active (scope-free mode).
FileReport lint_fixture(const std::string& name) {
  return lint_source(name, fixture(name), /*apply_scopes=*/false);
}

std::map<std::string, int> rule_counts(const FileReport& fr) {
  std::map<std::string, int> out;
  for (const Diagnostic& d : fr.diagnostics) ++out[d.rule];
  return out;
}

std::map<std::string, int> rule_counts(const RunReport& rr) {
  std::map<std::string, int> out;
  for (const Diagnostic& d : rr.diagnostics) ++out[d.rule];
  return out;
}

// Whole-program fixture mode: each (synthetic path, fixture) pair becomes
// one source; scopes APPLY, so the paths choose which rules are live --
// exactly how the CLI runs over the real tree.
RunReport lint_fixture_program(
    const std::vector<std::pair<std::string, std::string>>& mapping) {
  std::vector<SourceFile> files;
  files.reserve(mapping.size());
  for (const auto& [path, name] : mapping) {
    files.push_back({path, fixture(name)});
  }
  return lint_program(files, /*apply_scopes=*/true);
}

// The clean message-flow program: wire header + visitors + a core-side
// user that sends and dispatches every payload.
std::vector<std::pair<std::string, std::string>> flow_program() {
  return {{"src/msg/wire.h", "flow_wire.h"},
          {"src/msg/wire.cpp", "flow_wire_impl.cpp"},
          {"src/core/user.cpp", "flow_user.cpp"}};
}

// The clean capability program: registry wiring + both protocol impls.
std::vector<std::pair<std::string, std::string>> cap_program() {
  return {{"src/workload/wiring.cpp", "cap_wiring.cpp"},
          {"src/protocols/alpha.cpp", "cap_alpha.cpp"},
          {"src/protocols/beta.cpp", "cap_beta.cpp"}};
}

TEST(DqlintRules, CleanFixtureIsClean) {
  const FileReport fr = lint_fixture("clean.cpp");
  EXPECT_TRUE(fr.diagnostics.empty())
      << fr.diagnostics.front().file << ":" << fr.diagnostics.front().line
      << ": " << fr.diagnostics.front().rule << ": "
      << fr.diagnostics.front().message;
  EXPECT_TRUE(fr.suppressions.empty());
}

TEST(DqlintRules, UnorderedContainers) {
  // Two includes + two declarations.
  const auto counts = rule_counts(lint_fixture("bad_unordered.cpp"));
  EXPECT_EQ(counts.at("det-unordered-container"), 4);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintRules, LibcRand) {
  const auto counts = rule_counts(lint_fixture("bad_rand.cpp"));
  EXPECT_EQ(counts.at("det-rand"), 2);  // srand + rand
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintRules, WallClock) {
  const auto counts = rule_counts(lint_fixture("bad_wall_clock.cpp"));
  EXPECT_EQ(counts.at("det-wall-clock"), 2);  // time(nullptr) + system_clock
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintRules, RngEngines) {
  const auto counts = rule_counts(lint_fixture("bad_rng.cpp"));
  EXPECT_EQ(counts.at("det-random-device"), 1);
  EXPECT_EQ(counts.at("det-rng-engine"), 2);  // mt19937 + unseeded Rng()
  EXPECT_EQ(counts.size(), 2u);
}

TEST(DqlintRules, PointerKeys) {
  const auto counts = rule_counts(lint_fixture("bad_ptr_key.cpp"));
  EXPECT_EQ(counts.at("det-ptr-key"), 2);  // pointer VALUE stays legal
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintRules, ThreadPrimitives) {
  // Two includes + std::thread + std::mutex + std::async; member calls and
  // bare identifiers named `thread` stay quiet.
  const auto counts = rule_counts(lint_fixture("bad_thread.cpp"));
  EXPECT_EQ(counts.at("det-thread"), 5);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintRules, DirectSend) {
  const auto counts = rule_counts(lint_fixture("bad_direct_send.cpp"));
  EXPECT_EQ(counts.at("proto-direct-send"), 2);  // send + send_tagged, not reply
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintRules, EpochCompare) {
  const auto counts = rule_counts(lint_fixture("bad_epoch.cpp"));
  EXPECT_EQ(counts.at("proto-epoch-compare"), 2);  // raw == and std::max
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintRules, DurableState) {
  // Pre-increment through a qualifier, compound assignment, store apply and
  // clear; reads of the same members stay quiet.
  const auto counts = rule_counts(lint_fixture("bad_durable_state.cpp"));
  EXPECT_EQ(counts.at("durable-state"), 4);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintScopes, DurableStateScopedToCoreExemptingOqs) {
  const std::string src = "void f() { objects_.clear(); }\n";
  EXPECT_EQ(lint_source("src/core/iqs_server.cpp", src, true)
                .diagnostics.size(),
            1u);
  // The OQS keeps soft state only (re-derived by renewals), so its wipes
  // are by design.
  EXPECT_TRUE(lint_source("src/core/oqs_server.cpp", src, true)
                  .diagnostics.empty());
  // Baseline protocols are outside the rule's scope.
  EXPECT_TRUE(
      lint_source("src/protocols/majority.cpp", src, true).diagnostics.empty());
}

TEST(DqlintRules, ObsRead) {
  const auto counts = rule_counts(lint_fixture("bad_obs_read.cpp"));
  EXPECT_EQ(counts.at("proto-obs-read"), 1);  // value() read; inc() is fine
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintRules, Assert) {
  const auto counts = rule_counts(lint_fixture("bad_assert.cpp"));
  EXPECT_EQ(counts.at("hyg-assert"), 2);  // <cassert> + assert(); static_assert ok
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintRules, NakedNew) {
  const auto counts = rule_counts(lint_fixture("bad_new.cpp"));
  EXPECT_EQ(counts.at("hyg-naked-new"), 2);  // new + delete; `= delete` is fine
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintSuppression, JustifiedSuppressionSilencesAndRecords) {
  const FileReport fr = lint_fixture("suppressed.cpp");
  EXPECT_TRUE(fr.diagnostics.empty())
      << fr.diagnostics.front().rule << ": " << fr.diagnostics.front().message;
  ASSERT_EQ(fr.suppressions.size(), 2u);
  for (const Suppression& s : fr.suppressions) {
    EXPECT_EQ(s.rule, "det-unordered-container");
    EXPECT_FALSE(s.justification.empty());
  }
  EXPECT_NE(fr.suppressions[1].justification.find("lookup-only cache"),
            std::string::npos);
}

TEST(DqlintSuppression, MalformedAndUnusedDirectivesAreDiagnostics) {
  const auto counts = rule_counts(lint_fixture("bad_suppression.cpp"));
  EXPECT_EQ(counts.at("lint-bad-suppression"), 2);   // no ':', unknown rule
  EXPECT_EQ(counts.at("lint-unused-suppression"), 1);
  // The rand() calls under the two broken directives stay unsuppressed.
  EXPECT_EQ(counts.at("det-rand"), 2);
}

TEST(DqlintScopes, RulesOnlyFireInTheirDirectories) {
  const std::string src = "#include <unordered_map>\n"
                          "std::unordered_map<int, int> m;\n";
  EXPECT_EQ(lint_source("src/core/x.cpp", src, true).diagnostics.size(), 2u);
  EXPECT_EQ(lint_source("src/sim/x.h", src, true).diagnostics.size(), 2u);
  // workload/ and analysis/ may use hash maps (their output is re-sorted).
  EXPECT_TRUE(lint_source("src/workload/x.cpp", src, true).diagnostics.empty());
  EXPECT_TRUE(lint_source("src/analysis/x.cpp", src, true).diagnostics.empty());
}

TEST(DqlintScopes, OpenLoopEngineCarriesDetRules) {
  // The open-loop workload engine is det-scoped by file prefix: its
  // samplers run inside partition workers, so det-* applies to
  // src/workload/open_loop.* while the rest of src/workload/ stays exempt.
  const std::string hash = "#include <unordered_map>\n"
                           "std::unordered_map<int, int> m;\n";
  EXPECT_EQ(
      lint_source("src/workload/open_loop.cpp", hash, true).diagnostics.size(),
      2u);
  EXPECT_EQ(
      lint_source("src/workload/open_loop.h", hash, true).diagnostics.size(),
      2u);
  EXPECT_TRUE(
      lint_source("src/workload/experiment.cpp", hash, true)
          .diagnostics.empty());
  const std::string wall = fixture("bad_wall_clock.cpp");
  EXPECT_FALSE(lint_source("src/workload/open_loop.cpp", wall, true)
                   .diagnostics.empty());
  EXPECT_TRUE(
      lint_source("src/workload/report.cpp", wall, true).diagnostics.empty());
}

TEST(DqlintScopes, ExemptFileSkipsRule) {
  const std::string src = "void check(bool b) { assert(b); }\n";
  EXPECT_EQ(lint_source("src/sim/x.cpp", src, true).diagnostics.size(), 1u);
  EXPECT_TRUE(
      lint_source("src/common/assert.h", src, true).diagnostics.empty());
}

TEST(DqlintScopes, ThreadRuleExemptsParallelRunner) {
  const std::string src = "#include <thread>\nstd::thread t;\n";
  // Everywhere else the rule fires (include + declaration)...
  EXPECT_EQ(lint_source("src/sim/x.cpp", src, true).diagnostics.size(), 2u);
  EXPECT_EQ(lint_source("src/workload/x.cpp", src, true).diagnostics.size(),
            2u);
  // ...but src/run/ owns the trial fan-out and is exempt by prefix.
  EXPECT_TRUE(lint_source("src/run/parallel_runner.cpp", src, true)
                  .diagnostics.empty());
  EXPECT_TRUE(
      lint_source("src/run/parallel_runner.h", src, true).diagnostics.empty());
}

TEST(DqlintScopes, ThreadSuppressionsOnlyHonoredInParallelEngine) {
  const std::string src = fixture("suppressed_thread.cpp");
  // Under the sanctioned prefix the justified suppressions hold: the
  // conservative intra-trial engine owns real threading primitives.
  const FileReport ok = lint_source("src/sim/parallel_world.cpp", src, true);
  EXPECT_TRUE(ok.diagnostics.empty())
      << ok.diagnostics.front().rule << ": " << ok.diagnostics.front().message;
  EXPECT_EQ(ok.suppressions.size(), 2u);
  // Anywhere else in det-thread's scope the directive is itself a
  // diagnostic and the violation stands.
  const FileReport bad = lint_source("src/sim/world.cpp", src, true);
  const auto bad_counts = rule_counts(bad);
  EXPECT_EQ(bad_counts.at("lint-bad-suppression"), 2);
  EXPECT_EQ(bad_counts.at("det-thread"), 2);
  EXPECT_TRUE(bad.suppressions.empty());
  // src/run/ is exempt by prefix, so there is nothing to suppress: the
  // directives are dead weight and flagged as unused.
  const FileReport run = lint_source("src/run/pool.cpp", src, true);
  EXPECT_EQ(rule_counts(run).at("lint-unused-suppression"), 2);
}

TEST(DqlintScopes, DirectSendScopedToCore) {
  const std::string src = "void f() { world_.send(1); }\n";
  EXPECT_EQ(lint_source("src/core/x.cpp", src, true).diagnostics.size(), 1u);
  // Baseline protocols legitimately talk to the network directly.
  EXPECT_TRUE(
      lint_source("src/protocols/x.cpp", src, true).diagnostics.empty());
}

TEST(DqlintEngine, CommentsAndStringsNeverFire) {
  const std::string src =
      "// std::rand() and time() and unordered_map in prose\n"
      "/* assert(new int); system_clock */\n"
      "const char* s = \"rand() unordered_map<int*,int>\";\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src, true).diagnostics.empty());
}

TEST(DqlintEngine, MemberAndNonStdQualifiedCallsDoNotFire) {
  const std::string src =
      "void f(Clock& c) {\n"
      "  c.time(0);             // member named like libc\n"
      "  DriftClock::random(r); // class-qualified, not libc\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/sim/x.cpp", src, true).diagnostics.empty());
  // std:: qualification IS libc-shaped and fires.
  const std::string bad = "long f() { return std::time(nullptr); }\n";
  EXPECT_EQ(lint_source("src/sim/x.cpp", bad, true).diagnostics.size(), 1u);
}

// ---------------------------------------------------------------------------
// Program-level (cross-TU) rules: flow-*, cap-*, part-*
// ---------------------------------------------------------------------------

TEST(DqlintProgram, CleanProgramIsClean) {
  auto mapping = flow_program();
  for (auto& e : cap_program()) mapping.push_back(e);
  mapping.emplace_back("src/sim/lanes.cpp", "part_clean.cpp");
  const RunReport rr = lint_fixture_program(mapping);
  EXPECT_TRUE(rr.diagnostics.empty())
      << rr.diagnostics.front().file << ":" << rr.diagnostics.front().line
      << ": " << rr.diagnostics.front().rule << ": "
      << rr.diagnostics.front().message;
  EXPECT_EQ(rr.files_scanned, 7u);
}

TEST(DqlintProgram, FlowUnregistered) {
  auto mapping = flow_program();
  mapping[0].second = "bad_flow_unregistered.cpp";  // wire.h with dead cargo
  const auto counts = rule_counts(lint_fixture_program(mapping));
  EXPECT_EQ(counts.at("flow-unregistered"), 1);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintProgram, FlowWireStub) {
  auto mapping = flow_program();
  mapping[1].second = "bad_flow_wire_stub.cpp";  // Pong has no row
  const RunReport rr = lint_fixture_program(mapping);
  const auto counts = rule_counts(rr);
  EXPECT_EQ(counts.at("flow-wire-stub"), 1);
  EXPECT_EQ(counts.size(), 1u);
  // The diagnostic anchors to the payload's declaration in the header, not
  // to the impl file where the overload is missing.
  ASSERT_EQ(rr.diagnostics.size(), 1u);
  EXPECT_EQ(rr.diagnostics[0].file, "src/msg/wire.h");
  EXPECT_NE(rr.diagnostics[0].message.find("Pong"), std::string::npos);
}

TEST(DqlintProgram, FlowDeadMessage) {
  auto mapping = flow_program();
  mapping[2].second = "bad_flow_dead_message.cpp";  // Pong never sent
  const auto counts = rule_counts(lint_fixture_program(mapping));
  EXPECT_EQ(counts.at("flow-dead-message"), 1);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintProgram, FlowUnhandledMessage) {
  auto mapping = flow_program();
  mapping[2].second = "bad_flow_unhandled_message.cpp";  // sent, no dispatch
  const auto counts = rule_counts(lint_fixture_program(mapping));
  EXPECT_EQ(counts.at("flow-unhandled-message"), 1);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintProgram, CapWalClaim) {
  const RunReport rr = lint_fixture_program(
      {{"src/workload/wiring.cpp", "bad_cap_wal_claim.cpp"},
       {"src/protocols/beta.cpp", "cap_beta.cpp"}});
  const auto counts = rule_counts(rr);
  EXPECT_EQ(counts.at("cap-wal-claim"), 1);
  EXPECT_EQ(counts.size(), 1u);
  ASSERT_EQ(rr.diagnostics.size(), 1u);
  // Anchored to the registration site in the wiring TU.
  EXPECT_EQ(rr.diagnostics[0].file, "src/workload/wiring.cpp");
}

TEST(DqlintProgram, CapRecoveryClaim) {
  const auto counts = rule_counts(lint_fixture_program(
      {{"src/workload/wiring.cpp", "bad_cap_recovery_claim.cpp"},
       {"src/protocols/alpha.cpp", "cap_alpha.cpp"}}));
  EXPECT_EQ(counts.at("cap-recovery-claim"), 1);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintProgram, CapConsistencyLww) {
  const RunReport rr = lint_fixture_program(
      {{"src/workload/wiring.cpp", "bad_cap_lww.cpp"},
       {"src/protocols/beta.cpp", "cap_beta.cpp"}});
  const auto counts = rule_counts(rr);
  EXPECT_EQ(counts.at("cap-consistency-lww"), 1);
  EXPECT_EQ(counts.size(), 1u);
  EXPECT_NE(rr.diagnostics[0].message.find("lamport_"), std::string::npos);
}

TEST(DqlintProgram, PartMutableGlobal) {
  // Namespace-scope + thread_local + class-static all fire; the instance
  // member stays quiet.
  const auto counts = rule_counts(lint_fixture_program(
      {{"src/sim/state.cpp", "bad_part_mutable_global.cpp"}}));
  EXPECT_EQ(counts.at("part-mutable-global"), 3);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintProgram, PartLocalStatic) {
  const auto counts = rule_counts(lint_fixture_program(
      {{"src/sim/ticket.cpp", "bad_part_local_static.cpp"}}));
  EXPECT_EQ(counts.at("part-local-static"), 1);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DqlintProgram, PartRulesScopedToDetDirs) {
  // The same mutable globals outside the deterministic core (workload/,
  // bench/) are legal: those layers never run inside a partition.
  EXPECT_TRUE(lint_fixture_program(
                  {{"src/workload/state.cpp", "bad_part_mutable_global.cpp"}})
                  .diagnostics.empty());
  EXPECT_TRUE(lint_fixture_program(
                  {{"bench/state.cpp", "bad_part_mutable_global.cpp"}})
                  .diagnostics.empty());
}

TEST(DqlintProgram, PartRulesCoverOpenLoopEngine) {
  // Generators run inside partition workers, so the partition-ownership
  // rules extend to the open-loop files by prefix (and only to them).
  // The fixture holds three offending declarations (namespace-scope,
  // thread_local, class-static).
  const auto counts = rule_counts(lint_fixture_program(
      {{"src/workload/open_loop.cpp", "bad_part_mutable_global.cpp"}}));
  EXPECT_EQ(counts.at("part-mutable-global"), 3);
  const auto local = rule_counts(lint_fixture_program(
      {{"src/workload/open_loop.cpp", "bad_part_local_static.cpp"}}));
  EXPECT_EQ(local.at("part-local-static"), 1);
  EXPECT_TRUE(lint_fixture_program(
                  {{"src/workload/flags.cpp", "bad_part_mutable_global.cpp"}})
                  .diagnostics.empty());
}

TEST(DqlintProgram, ProgramDiagnosticsAreSuppressible) {
  const std::string src =
      "namespace dq::sim {\n"
      "// dqlint:allow(part-mutable-global): test-only counter, never read\n"
      "// by partition workers\n"
      "int g_hits = 0;\n"
      "}  // namespace dq::sim\n";
  const RunReport rr = lint_program({{"src/sim/x.cpp", src}}, true);
  EXPECT_TRUE(rr.diagnostics.empty())
      << rr.diagnostics.front().rule << ": "
      << rr.diagnostics.front().message;
  ASSERT_EQ(rr.suppressions.size(), 1u);
  EXPECT_EQ(rr.suppressions[0].rule, "part-mutable-global");
  EXPECT_NE(rr.suppressions[0].justification.find("test-only counter"),
            std::string::npos);
}

TEST(DqlintProgram, ExtractRegistrationsReadsDescriptors) {
  const ParsedFile wiring =
      parse_file("src/workload/wiring.cpp", fixture("cap_wiring.cpp"));
  const auto regs = extract_registrations(wiring);
  ASSERT_EQ(regs.size(), 2u);
  EXPECT_EQ(regs[0].name, "alpha");
  EXPECT_TRUE(regs[0].supports_wal);             // named kAlphaCaps constant
  EXPECT_TRUE(regs[0].supports_crash_recovery);
  EXPECT_EQ(regs[0].consistency, "kAtomic");
  ASSERT_EQ(regs[0].build_fns.size(), 1u);
  EXPECT_EQ(regs[0].build_fns[0], "build_alpha");
  EXPECT_EQ(regs[1].name, "beta");
  EXPECT_FALSE(regs[1].supports_wal);            // inline brace initializer
  EXPECT_FALSE(regs[1].supports_crash_recovery);
  EXPECT_EQ(regs[1].consistency, "kEventual");
}

TEST(DqlintScopes, DetRulesCoverBench) {
  // Benches emit dq.bench.v1 documents that must stay seed-deterministic,
  // so the det-* family covers bench/ too (wall clocks there carry
  // justified suppressions in the real tree).
  const std::string src = "#include <unordered_map>\n"
                          "std::unordered_map<int, int> m;\n";
  EXPECT_EQ(lint_source("bench/x.cpp", src, true).diagnostics.size(), 2u);
  const std::string clock = "long f() { return std::time(nullptr); }\n";
  EXPECT_EQ(lint_source("bench/x.cpp", clock, true).diagnostics.size(), 1u);
}

TEST(DqlintReport, RuleTableIsSane) {
  std::set<std::string> ids;
  for (const RuleInfo& r : rules()) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule id " << r.id;
    EXPECT_FALSE(r.description.empty()) << r.id;
  }
  EXPECT_GE(ids.size(), 24u);
  // The three program-level families are all represented.
  for (const char* id :
       {kRuleFlowUnregistered, kRuleFlowWireStub, kRuleFlowDeadMessage,
        kRuleFlowUnhandledMessage, kRuleCapWalClaim, kRuleCapRecoveryClaim,
        kRuleCapConsistencyLww, kRulePartMutableGlobal,
        kRulePartLocalStatic}) {
    EXPECT_EQ(ids.count(id), 1u) << id;
  }
}

TEST(DqlintReport, JsonEnvelope) {
  RunReport rr;
  rr.add(lint_fixture("bad_rand.cpp"));
  rr.add(lint_fixture("suppressed.cpp"));
  const std::string json = to_json(rr, "fixtures");
  EXPECT_NE(json.find("\"schema\":\"dq.lint.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\":2"), std::string::npos);
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"det-rand\""), std::string::npos);
  EXPECT_NE(json.find("\"justification\":"), std::string::npos);
  // The per-rule rollup: suppressed.cpp carries two justified
  // det-unordered-container directives.
  EXPECT_NE(json.find("\"suppression_summary\":[{\"rule\":"
                      "\"det-unordered-container\",\"count\":2}]"),
            std::string::npos);

  RunReport clean;
  clean.add(lint_fixture("clean.cpp"));
  const std::string cj = to_json(clean, "fixtures");
  EXPECT_NE(cj.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(cj.find("\"diagnostics\":[]"), std::string::npos);
  EXPECT_NE(cj.find("\"suppression_summary\":[]"), std::string::npos);
}

}  // namespace
}  // namespace dq::lint
