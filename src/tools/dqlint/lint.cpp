#include "tools/dqlint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "tools/dqlint/graph.h"
#include "tools/dqlint/parse.h"

namespace dq::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

// Directories whose code feeds the deterministic simulation schedule.  The
// open-loop workload engine is listed by file prefix: its samplers run
// inside partition workers, so it carries the det-*/part-* guardrails even
// though the rest of src/workload/ (trial setup, reporting) does not.
const std::vector<std::string> kDetScope = {
    "src/sim/", "src/core/", "src/protocols/", "src/quorum/",
    "src/rpc/", "src/store/", "src/msg/", "src/workload/open_loop"};

// det-* additionally covers bench/: benches emit checked-in dq.bench.v1
// baselines, so they carry the same determinism guardrails (wall-clock use
// for timing is the one sanctioned exception, justified per site).
const std::vector<std::string> kDetBenchScope = {
    "src/sim/", "src/core/", "src/protocols/", "src/quorum/",
    "src/rpc/",  "src/store/", "src/msg/", "src/workload/open_loop",
    "bench/"};

const char* kRuleDetUnordered = "det-unordered-container";
const char* kRuleDetRand = "det-rand";
const char* kRuleDetWallClock = "det-wall-clock";
const char* kRuleDetRandomDevice = "det-random-device";
const char* kRuleDetRngEngine = "det-rng-engine";
const char* kRuleDetPtrKey = "det-ptr-key";
const char* kRuleDetThread = "det-thread";
const char* kRuleProtoDirectSend = "proto-direct-send";
const char* kRuleProtoEpochCompare = "proto-epoch-compare";
const char* kRuleProtoObsRead = "proto-obs-read";
const char* kRuleDurableState = "durable-state";
const char* kRuleHygAssert = "hyg-assert";
const char* kRuleHygNakedNew = "hyg-naked-new";
const char* kRuleBadSuppression = "lint-bad-suppression";
const char* kRuleUnusedSuppression = "lint-unused-suppression";

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {kRuleDetUnordered,
       "std::unordered_* containers: iteration order is implementation-"
       "defined, so any walk puts hash order on the wire or in the schedule;"
       " use std::map/std::set",
       kDetBenchScope,
       {},
       {},
       {}},
      {kRuleDetRand,
       "libc rand/random family: unseeded global state outside the "
       "experiment seed; draw from dq::Rng",
       kDetBenchScope,
       {},
       {},
       {}},
      {kRuleDetWallClock,
       "wall-clock read (time/clock/gettimeofday/system_clock/...): real "
       "time breaks simulation determinism; use sim::World::now() or "
       "local_now()",
       kDetBenchScope,
       {},
       {},
       {}},
      {kRuleDetRandomDevice,
       "std::random_device is non-deterministic by design; seed dq::Rng "
       "from the experiment seed",
       kDetBenchScope,
       {},
       {},
       {}},
      {kRuleDetRngEngine,
       "std <random> engine or unseeded Rng(): default seeding hides the "
       "stream from the experiment seed; all randomness flows through a "
       "seeded dq::Rng (split() for child streams)",
       kDetBenchScope,
       {},
       {},
       {}},
      {kRuleDetPtrKey,
       "pointer-keyed ordered container: iteration order follows allocation "
       "addresses, which differ run to run; key by a strong id instead",
       kDetBenchScope,
       {},
       {},
       {}},
      {kRuleDetThread,
       "std threading primitive (thread/async/mutex/atomic/...): a World is "
       "single-threaded by contract -- parallelism lives in src/run/ (whole-"
       "World fan-out, exempt) and src/sim/parallel_* (the conservative "
       "intra-trial engine, each use justified with a suppression); threads "
       "anywhere else race the deterministic schedule",
       {},
       {"src/run/"},
       {},
       {"src/sim/parallel_"}},
      {kRuleProtoDirectSend,
       "direct world_.send/send_tagged in a dual-quorum server: replies "
       "must route through world_.reply or the QRPC engine so retransmission "
       "and reply accounting stay correct",
       {"src/core/"},
       {},
       {},
       {}},
      {kRuleProtoEpochCompare,
       "raw comparison/max on an epoch field: use msg::epoch_matches/"
       "epoch_newer/epoch_max (msg/epoch.h) so both protocol sides agree on "
       "epoch semantics",
       {"src/core/", "src/protocols/"},
       {},
       {},
       {}},
      {kRuleProtoObsRead,
       "obs/ instrument read (m_*->value/max/data) in protocol code: "
       "metrics are write-only in decision paths, else observability "
       "perturbs the protocol",
       {"src/core/", "src/protocols/", "src/rpc/"},
       {},
       {},
       {}},
      {kRuleDurableState,
       "direct mutation of durable state (epoch increment or store_/objects_ "
       "apply/clear) in dual-quorum server code: epochs and store contents "
       "must go through the WAL (append_durable/replay) or crash recovery "
       "silently loses them; route through Wal or justify with a suppression",
       {"src/core/"},
       {},
       {"src/core/oqs_server.cpp"},
       {}},
      {kRuleHygAssert,
       "assert()/<cassert> vanishes under NDEBUG; protocol invariants use "
       "the always-on DQ_INVARIANT (common/assert.h)",
       {},
       {},
       {"src/common/assert.h"},
       {}},
      {kRuleHygNakedNew,
       "naked new/delete in protocol code; own memory with std::unique_ptr/"
       "std::make_shared",
       {"src/core/", "src/protocols/", "src/rpc/", "src/quorum/"},
       {},
       {},
       {}},
      {kRuleFlowUnregistered,
       "struct in wire.h that is neither a Payload alternative nor "
       "referenced anywhere: dead wire-format cargo; add it to the variant "
       "or delete it",
       {"src/msg/"},
       {},
       {},
       {}},
      {kRuleFlowWireStub,
       "Payload alternative without a row in wire.cpp's wire-type table "
       "(the visitor overload giving its name and size): every message "
       "type must carry its name and size accounting",
       {"src/msg/"},
       {},
       {},
       {}},
      {kRuleFlowDeadMessage,
       "Payload alternative never referenced outside the wire layer: no "
       "protocol constructs or sends it; delete it or wire the sender",
       {"src/msg/"},
       {},
       {},
       {}},
      {kRuleFlowUnhandledMessage,
       "Payload alternative with no dispatch site (std::get_if/"
       "holds_alternative/std::get/visitor overload): receivers drop it on "
       "the floor; add a handler arm or justify why a typed dispatch is "
       "unnecessary",
       {"src/msg/"},
       {},
       {},
       {}},
      {kRuleCapWalClaim,
       "registry supports_wal claim contradicts the implementation: the "
       "protocol's closure must reference the store::Wal API exactly when "
       "the descriptor says so",
       {"src/workload/"},
       {},
       {},
       {}},
      {kRuleCapRecoveryClaim,
       "registry supports_crash_recovery claim contradicts the build "
       "function: add_crash_hook must be wired exactly when the descriptor "
       "says so",
       {"src/workload/"},
       {},
       {},
       {}},
      {kRuleCapConsistencyLww,
       "protocol claiming an atomic/linearizable consistency class must not "
       "use LWW/site-timestamp helpers (lamport_/lww): last-writer-wins "
       "clocks admit stale reads",
       {"src/workload/"},
       {},
       {},
       {}},
      {kRulePartMutableGlobal,
       "mutable namespace-scope, thread_local, or class-static state in "
       "det-scoped code: shared across parallel_world partitions, so any "
       "access races the conservative engine; own it per-partition or "
       "justify",
       kDetScope,
       {},
       {},
       {}},
      {kRulePartLocalStatic,
       "function-local mutable static in det-scoped code: hidden state "
       "shared across parallel_world partitions; hoist it into per-"
       "partition context or justify",
       kDetScope,
       {},
       {},
       {}},
      {kRuleBadSuppression,
       "malformed dqlint:allow directive (unknown rule id or missing "
       "': justification')",
       {},
       {},
       {},
       {}},
      {kRuleUnusedSuppression,
       "dqlint:allow directive that suppresses nothing; delete it",
       {},
       {},
       {},
       {}},
  };
  return kRules;
}

namespace {

bool known_rule(const std::string& id) {
  const auto& rs = rules();
  return std::any_of(rs.begin(), rs.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

bool rule_active(const RuleInfo& r, const std::string& path,
                 bool apply_scopes) {
  if (!apply_scopes) return true;
  for (const std::string& f : r.exempt_files) {
    if (path == f) return false;
  }
  for (const std::string& p : r.exempt_prefixes) {
    if (path.compare(0, p.size(), p) == 0) return false;
  }
  if (r.prefixes.empty()) return true;
  return std::any_of(r.prefixes.begin(), r.prefixes.end(),
                     [&](const std::string& p) {
                       return path.compare(0, p.size(), p) == 0;
                     });
}

const RuleInfo* find_rule(const char* id) {
  for (const RuleInfo& r : rules()) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

struct Matcher {
  const std::vector<Token>& t;

  [[nodiscard]] const Token* at(std::size_t i) const {
    return i < t.size() ? &t[i] : nullptr;
  }
  [[nodiscard]] bool text_is(std::size_t i, std::string_view s) const {
    const Token* tok = at(i);
    return tok != nullptr && tok->text == s;
  }
  [[nodiscard]] bool ident_is(std::size_t i, std::string_view s) const {
    const Token* tok = at(i);
    return tok != nullptr && tok->kind == Tok::kIdent && tok->text == s;
  }

  // Member access (x.f / x->f) is never a libc call; a qualified name is
  // only suspect when the qualifier is std:: or the global ::.
  [[nodiscard]] bool non_libc_qualified(std::size_t i) const {
    if (i == 0) return false;
    const Token& p = t[i - 1];
    if (p.text == "." || p.text == "->") return true;
    if (p.text == "::" && i >= 2 && t[i - 2].kind == Tok::kIdent &&
        t[i - 2].text != "std") {
      return true;
    }
    return false;
  }
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool epochish(const Token& tok) {
  return tok.kind == Tok::kIdent &&
         (tok.text == "epoch" || ends_with(tok.text, "_epoch"));
}

bool comparison(const Token* tok) {
  if (tok == nullptr || tok->kind != Tok::kPunct) return false;
  static const std::set<std::string_view> kCmp = {"==", "!=", "<",
                                                  ">",  "<=", ">="};
  return kCmp.count(tok->text) != 0;
}

// Raw (pre-suppression) violations for one file.
std::vector<Diagnostic> run_rules(const std::string& path,
                                  const std::vector<Token>& tokens,
                                  bool apply_scopes) {
  std::vector<Diagnostic> out;
  const Matcher m{tokens};
  auto active = [&](const char* id) {
    const RuleInfo* r = find_rule(id);
    return r != nullptr && rule_active(*r, path, apply_scopes);
  };
  auto flag = [&](const char* id, int line, const std::string& what) {
    const RuleInfo* r = find_rule(id);
    out.push_back({path, line, id, what + " [" + r->description + "]"});
  };

  static const std::set<std::string_view> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static const std::set<std::string_view> kRandCalls = {
      "rand",    "srand",   "rand_r",  "random", "srandom",
      "drand48", "lrand48", "mrand48", "erand48"};
  static const std::set<std::string_view> kClockCalls = {
      "time",  "clock",    "gettimeofday", "clock_gettime", "localtime",
      "gmtime", "mktime",  "difftime",     "timespec_get",  "ftime"};
  static const std::set<std::string_view> kClockTypes = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  static const std::set<std::string_view> kEngines = {
      "mt19937",      "mt19937_64",   "default_random_engine",
      "minstd_rand",  "minstd_rand0", "ranlux24",
      "ranlux48",     "knuth_b"};
  static const std::set<std::string_view> kOrdered = {"map", "set", "multimap",
                                                      "multiset"};
  static const std::set<std::string_view> kObsReads = {"value", "max", "data"};
  static const std::set<std::string_view> kThreadIdents = {
      "thread",         "jthread",        "async",
      "mutex",          "timed_mutex",    "recursive_mutex",
      "shared_mutex",   "shared_timed_mutex",
      "condition_variable",              "condition_variable_any",
      "future",         "shared_future",  "promise",
      "packaged_task",  "atomic",         "atomic_flag",
      "atomic_ref",     "counting_semaphore", "binary_semaphore",
      "latch",          "barrier",        "lock_guard",
      "unique_lock",    "scoped_lock",    "shared_lock",
      "call_once",      "once_flag",      "stop_token"};
  static const std::set<std::string_view> kThreadHeaders = {
      "thread", "mutex",     "shared_mutex", "condition_variable",
      "future", "atomic",    "semaphore",    "latch",
      "barrier", "stop_token"};

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Tok::kIdent) continue;
    const bool calls = m.text_is(i + 1, "(");

    if (active(kRuleDetUnordered) && kUnordered.count(tok.text) != 0) {
      flag(kRuleDetUnordered, tok.line, "std::" + tok.text);
    }
    if (active(kRuleDetRand) && calls && kRandCalls.count(tok.text) != 0 &&
        !m.non_libc_qualified(i)) {
      flag(kRuleDetRand, tok.line, tok.text + "()");
    }
    if (active(kRuleDetWallClock)) {
      if (calls && kClockCalls.count(tok.text) != 0 &&
          !m.non_libc_qualified(i)) {
        flag(kRuleDetWallClock, tok.line, tok.text + "()");
      } else if (kClockTypes.count(tok.text) != 0) {
        flag(kRuleDetWallClock, tok.line, "std::chrono::" + tok.text);
      }
    }
    if (active(kRuleDetRandomDevice) && tok.text == "random_device") {
      flag(kRuleDetRandomDevice, tok.line, "std::random_device");
    }
    if (active(kRuleDetRngEngine)) {
      if (kEngines.count(tok.text) != 0) {
        flag(kRuleDetRngEngine, tok.line, "std::" + tok.text);
      } else if (tok.text == "Rng" && calls && m.text_is(i + 2, ")")) {
        flag(kRuleDetRngEngine, tok.line, "Rng() with the default seed");
      }
    }
    if (active(kRuleDetPtrKey) && kOrdered.count(tok.text) != 0 &&
        m.text_is(i + 1, "<")) {
      // Walk the first template argument; a trailing '*' means the key is a
      // pointer.  Bail out on anything that suggests `<` was a comparison.
      int depth = 1;
      const Token* last = nullptr;
      bool aborted = false;
      for (std::size_t j = i + 2, steps = 0; steps < 64; ++j, ++steps) {
        const Token* u = m.at(j);
        if (u == nullptr) {
          aborted = true;
          break;
        }
        if (u->text == "<") {
          ++depth;
        } else if (u->text == ">" || u->text == ">>") {
          depth -= u->text == ">>" ? 2 : 1;
          if (depth <= 0) break;
        } else if (u->text == "," && depth == 1) {
          break;
        } else if (u->text == ";" || u->text == "{" || u->text == ")") {
          aborted = true;
          break;
        }
        last = u;
      }
      if (!aborted && last != nullptr && last->text == "*") {
        flag(kRuleDetPtrKey, tok.line, "std::" + tok.text + "<T*, ...>");
      }
    }
    if (active(kRuleDetThread)) {
      // std::-qualified uses, plus the headers that supply them.  Bare
      // identifiers named `thread` etc. are legal.
      if (kThreadIdents.count(tok.text) != 0 && i >= 2 &&
          m.text_is(i - 1, "::") && m.ident_is(i - 2, "std")) {
        flag(kRuleDetThread, tok.line, "std::" + tok.text);
      } else if (kThreadHeaders.count(tok.text) != 0 && i >= 2 &&
                 m.text_is(i - 1, "<") && m.ident_is(i - 2, "include")) {
        flag(kRuleDetThread, tok.line, "#include <" + tok.text + ">");
      }
    }
    if (active(kRuleProtoDirectSend) && tok.text == "world_" &&
        (m.text_is(i + 1, ".") || m.text_is(i + 1, "->")) &&
        (m.ident_is(i + 2, "send") || m.ident_is(i + 2, "send_tagged")) &&
        m.text_is(i + 3, "(")) {
      flag(kRuleProtoDirectSend, tok.line,
           "world_." + tokens[i + 2].text + "()");
    }
    if (active(kRuleProtoEpochCompare)) {
      if (epochish(tok) &&
          (comparison(m.at(i + 1)) || (i > 0 && comparison(&tokens[i - 1])))) {
        flag(kRuleProtoEpochCompare, tok.line,
             "'" + tok.text + "' beside a comparison operator");
      } else if ((tok.text == "max" || tok.text == "min") &&
                 m.text_is(i + 1, "(")) {
        int depth = 0;
        for (std::size_t j = i + 1, steps = 0; steps < 48; ++j, ++steps) {
          const Token* u = m.at(j);
          if (u == nullptr) break;
          if (u->text == "(") ++depth;
          if (u->text == ")" && --depth == 0) break;
          if (epochish(*u)) {
            flag(kRuleProtoEpochCompare, u->line,
                 "std::" + tok.text + "() over '" + u->text + "'");
            break;
          }
        }
      }
    }
    if (active(kRuleProtoObsRead) && tok.text.compare(0, 2, "m_") == 0 &&
        (m.text_is(i + 1, "->") || m.text_is(i + 1, ".")) &&
        m.at(i + 2) != nullptr && kObsReads.count(tokens[i + 2].text) != 0 &&
        m.text_is(i + 3, "(")) {
      flag(kRuleProtoObsRead, tok.line,
           tok.text + tokens[i + 1].text + tokens[i + 2].text + "()");
    }
    if (active(kRuleDurableState)) {
      if (epochish(tok)) {
        // Compound assignment / post-increment directly on an epoch field.
        if (m.text_is(i + 1, "++") || m.text_is(i + 1, "--") ||
            m.text_is(i + 1, "+=") || m.text_is(i + 1, "-=")) {
          flag(kRuleDurableState, tok.line,
               "'" + tok.text + "' " + tokens[i + 1].text);
        } else {
          // Pre-increment: walk back through `obj.` / `obj->` qualifiers to
          // find a leading ++/-- (`++ls.epoch`, `--state->node_epoch`).
          std::size_t j = i;
          while (j >= 2 &&
                 (tokens[j - 1].text == "." || tokens[j - 1].text == "->") &&
                 tokens[j - 2].kind == Tok::kIdent) {
            j -= 2;
          }
          if (j > 0 &&
              (tokens[j - 1].text == "++" || tokens[j - 1].text == "--")) {
            flag(kRuleDurableState, tok.line,
                 tokens[j - 1].text + " '" + tok.text + "'");
          }
        }
      }
      if ((tok.text == "store_" || tok.text == "objects_") &&
          (m.text_is(i + 1, ".") || m.text_is(i + 1, "->")) &&
          (m.ident_is(i + 2, "apply") || m.ident_is(i + 2, "clear")) &&
          m.text_is(i + 3, "(")) {
        flag(kRuleDurableState, tok.line,
             tok.text + tokens[i + 1].text + tokens[i + 2].text + "()");
      }
    }
    if (active(kRuleHygAssert)) {
      if (tok.text == "assert" && calls && !m.non_libc_qualified(i)) {
        flag(kRuleHygAssert, tok.line, "assert()");
      } else if (tok.text == "cassert") {
        flag(kRuleHygAssert, tok.line, "#include <cassert>");
      }
    }
    if (active(kRuleHygNakedNew) &&
        (tok.text == "new" || tok.text == "delete")) {
      // `operator new/delete` declarations and `= delete;`d functions are
      // not allocations.
      const bool exempt =
          (i > 0 && tokens[i - 1].text == "operator") ||
          (tok.text == "delete" && i > 0 && tokens[i - 1].text == "=");
      if (!exempt) flag(kRuleHygNakedNew, tok.line, tok.text);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppression directives
// ---------------------------------------------------------------------------

struct Directive {
  int line = 0;  // comment line
  std::vector<std::string> rule_ids;
  std::string justification;
  bool used = false;
  bool scope_error_reported = false;  // one misplaced-directive diag is enough
};

std::string trim(std::string s) {
  const auto issp = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && issp(s.front())) s.erase(s.begin());
  while (!s.empty() && issp(s.back())) s.pop_back();
  return s;
}

// Parse every dqlint:allow(...) in the comment list.  Malformed directives
// become lint-bad-suppression diagnostics immediately.
std::vector<Directive> parse_directives(const std::string& path,
                                        const std::vector<Comment>& comments,
                                        std::vector<Diagnostic>* bad) {
  std::vector<Directive> out;
  static const std::string kKey = "dqlint:allow(";
  for (const Comment& c : comments) {
    std::size_t pos = 0;
    while ((pos = c.text.find(kKey, pos)) != std::string::npos) {
      const std::size_t open = pos + kKey.size();
      const std::size_t close = c.text.find(')', open);
      pos = open;
      if (close == std::string::npos) {
        bad->push_back({path, c.line, kRuleBadSuppression,
                        "unterminated dqlint:allow( directive"});
        continue;
      }
      Directive d;
      d.line = c.line;
      std::string ids = c.text.substr(open, close - open);
      bool ok = true;
      std::size_t start = 0;
      while (start <= ids.size()) {
        const std::size_t comma = ids.find(',', start);
        const std::string id = trim(
            ids.substr(start, comma == std::string::npos ? std::string::npos
                                                         : comma - start));
        if (!id.empty()) {
          if (!known_rule(id)) {
            bad->push_back({path, c.line, kRuleBadSuppression,
                            "unknown rule '" + id + "' in dqlint:allow"});
            ok = false;
          }
          d.rule_ids.push_back(id);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      // Justification: everything after "): " up to end of line (multi-line
      // block comments: up to the first newline).
      std::string rest = c.text.substr(close + 1);
      if (const std::size_t nl = rest.find('\n'); nl != std::string::npos) {
        rest = rest.substr(0, nl);
      }
      rest = trim(rest);
      if (rest.empty() || rest[0] != ':' || trim(rest.substr(1)).empty()) {
        bad->push_back({path, c.line, kRuleBadSuppression,
                        "dqlint:allow needs a ': justification'"});
        ok = false;
      } else {
        d.justification = trim(rest.substr(1));
      }
      if (ok && d.rule_ids.empty()) {
        bad->push_back({path, c.line, kRuleBadSuppression,
                        "dqlint:allow() names no rule"});
        ok = false;
      }
      if (ok) out.push_back(std::move(d));
    }
  }
  return out;
}

// Match raw diagnostics against this file's dqlint:allow directives and
// produce the final per-file report (shared by lint_source and
// lint_program).
FileReport finish_file(const std::string& path, const Lexed& lexed,
                       std::vector<Diagnostic> raw, bool apply_scopes) {
  FileReport fr;
  std::vector<Directive> directives =
      parse_directives(path, lexed.comments, &fr.diagnostics);

  // A directive covers its own line plus the next line that carries code
  // (so a wrapped justification comment still anchors to the statement
  // below it).
  std::set<int> code_lines;
  for (const Token& t : lexed.tokens) code_lines.insert(t.line);
  auto covers = [&](const Directive& d, int line) {
    if (line == d.line) return true;
    auto it = code_lines.upper_bound(d.line);
    return it != code_lines.end() && *it == line;
  };

  for (Diagnostic& d : raw) {
    Directive* match = nullptr;
    for (Directive& dir : directives) {
      if (covers(dir, d.line) &&
          std::find(dir.rule_ids.begin(), dir.rule_ids.end(), d.rule) !=
              dir.rule_ids.end()) {
        match = &dir;
        break;
      }
    }
    if (match != nullptr) {
      match->used = true;
      // Some rules only honor suppressions inside a sanctioned subtree
      // (RuleInfo::suppress_prefixes); elsewhere the directive is itself a
      // diagnostic and the violation stands.
      const RuleInfo* info = find_rule(d.rule.c_str());
      const bool suppressible =
          !apply_scopes || info == nullptr ||
          info->suppress_prefixes.empty() ||
          std::any_of(info->suppress_prefixes.begin(),
                      info->suppress_prefixes.end(),
                      [&](const std::string& p) {
                        return path.compare(0, p.size(), p) == 0;
                      });
      if (suppressible) {
        fr.suppressions.push_back(
            {d.file, match->line, d.rule, match->justification});
      } else {
        if (!match->scope_error_reported) {
          match->scope_error_reported = true;
          fr.diagnostics.push_back(
              {path, match->line, kRuleBadSuppression,
               "dqlint:allow(" + d.rule + ") is only honored under " +
                   info->suppress_prefixes.front() +
                   "*; the violation stands"});
        }
        fr.diagnostics.push_back(std::move(d));
      }
    } else {
      fr.diagnostics.push_back(std::move(d));
    }
  }
  for (const Directive& dir : directives) {
    if (!dir.used) {
      fr.diagnostics.push_back(
          {path, dir.line, kRuleUnusedSuppression,
           "dqlint:allow(" + dir.rule_ids.front() +
               ") suppresses nothing on its line or the next code line"});
    }
  }
  std::sort(fr.diagnostics.begin(), fr.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return fr;
}

}  // namespace

FileReport lint_source(const std::string& path, const std::string& content,
                       bool apply_scopes) {
  const Lexed lexed = lex(content);
  return finish_file(path, lexed, run_rules(path, lexed.tokens, apply_scopes),
                     apply_scopes);
}

RunReport lint_program(const std::vector<SourceFile>& files,
                       bool apply_scopes) {
  RunReport run;
  std::vector<ParsedFile> parsed;
  parsed.reserve(files.size());
  for (const SourceFile& f : files) {
    parsed.push_back(parse_file(f.path, f.content));
  }

  // Program-level diagnostics, scope-filtered by their anchor file and
  // grouped so each file's dqlint:allow directives can cover them.
  std::map<std::string, std::vector<Diagnostic>> prog_by_file;
  for (Diagnostic& d : run_program_rules(parsed)) {
    const RuleInfo* r = find_rule(d.rule.c_str());
    if (r == nullptr || !rule_active(*r, d.file, apply_scopes)) continue;
    d.message += " [" + r->description + "]";
    prog_by_file[d.file].push_back(std::move(d));
  }

  for (const ParsedFile& pf : parsed) {
    std::vector<Diagnostic> raw =
        run_rules(pf.path, pf.lexed.tokens, apply_scopes);
    const auto it = prog_by_file.find(pf.path);
    if (it != prog_by_file.end()) {
      raw.insert(raw.end(), it->second.begin(), it->second.end());
    }
    run.add(finish_file(pf.path, pf.lexed, std::move(raw), apply_scopes));
  }
  return run;
}

// ---------------------------------------------------------------------------
// dq.lint.v1 rendering (same minimal-JSON idiom as workload/report.cpp)
// ---------------------------------------------------------------------------

namespace {

std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += c == '\n' ? "\\n" : " ";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string to_json(const RunReport& report, const std::string& root) {
  std::string out = "{";
  out += "\"schema\":\"dq.lint.v1\"";
  out += ",\"root\":\"" + esc(root) + "\"";
  out += ",\"files_scanned\":" + std::to_string(report.files_scanned);
  out += ",\"clean\":";
  out += report.clean() ? "true" : "false";

  out += ",\"rules\":[";
  bool first = true;
  for (const RuleInfo& r : rules()) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":\"" + esc(r.id) + "\",\"description\":\"" +
           esc(r.description) + "\",\"scopes\":[";
    for (std::size_t i = 0; i < r.prefixes.size(); ++i) {
      if (i != 0) out += ",";
      out += "\"" + esc(r.prefixes[i]) + "\"";
    }
    out += "]}";
  }
  out += "]";

  out += ",\"diagnostics\":[";
  first = true;
  for (const Diagnostic& d : report.diagnostics) {
    if (!first) out += ",";
    first = false;
    out += "{\"file\":\"" + esc(d.file) + "\",\"line\":" +
           std::to_string(d.line) + ",\"rule\":\"" + esc(d.rule) +
           "\",\"message\":\"" + esc(d.message) + "\"}";
  }
  out += "]";

  out += ",\"suppressions\":[";
  first = true;
  for (const Suppression& s : report.suppressions) {
    if (!first) out += ",";
    first = false;
    out += "{\"file\":\"" + esc(s.file) + "\",\"line\":" +
           std::to_string(s.line) + ",\"rule\":\"" + esc(s.rule) +
           "\",\"justification\":\"" + esc(s.justification) + "\"}";
  }
  out += "]";

  // Per-rule suppression totals, so suppression creep is reviewable at a
  // glance (also the table behind `dqlint --list-suppressions`).
  std::map<std::string, std::size_t> summary;
  for (const Suppression& s : report.suppressions) ++summary[s.rule];
  out += ",\"suppression_summary\":[";
  first = true;
  for (const auto& [rule, count] : summary) {
    if (!first) out += ",";
    first = false;
    out += "{\"rule\":\"" + esc(rule) +
           "\",\"count\":" + std::to_string(count) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace dq::lint
