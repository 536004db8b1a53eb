#include "tools/dqlint/graph.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

namespace dq::lint {

namespace {

bool path_ends_with(const std::string& path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

const ParsedFile* find_by_suffix(const std::vector<ParsedFile>& files,
                                 std::string_view suffix) {
  for (const ParsedFile& f : files) {
    if (path_ends_with(f.path, suffix)) return &f;
  }
  return nullptr;
}

bool is_wire_file(const std::string& path) {
  return path_ends_with(path, "msg/wire.h") ||
         path_ends_with(path, "msg/wire.cpp");
}

// ---------------------------------------------------------------------------
// flow-*: message-flow conformance
// ---------------------------------------------------------------------------

// Alternatives of `using Payload = std::variant<...>;`, in declaration
// order.  Qualified names keep only the last component.
std::vector<std::string> payload_alternatives(const ParsedFile& hdr) {
  std::vector<std::string> out;
  const auto& t = hdr.lexed.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(t[i].kind == Tok::kIdent && t[i].text == "Payload")) continue;
    if (!(i > 0 && t[i - 1].kind == Tok::kIdent &&
          t[i - 1].text == "using")) {
      continue;
    }
    // ... = std::variant< ... >
    std::size_t j = i + 1;
    while (j < t.size() && t[j].text != "<") {
      if (t[j].text == ";") break;
      ++j;
    }
    if (j >= t.size() || t[j].text != "<") continue;
    int depth = 1;
    std::string cur;
    for (++j; j < t.size() && depth > 0; ++j) {
      const Token& tok = t[j];
      if (tok.kind == Tok::kPunct) {
        if (tok.text == "<") ++depth;
        if (tok.text == ">") --depth;
        if (tok.text == ">>") depth -= 2;
        if (depth <= 0) break;
        if (tok.text == "," && depth == 1 && !cur.empty()) {
          out.push_back(cur);
          cur.clear();
        }
      } else if (tok.kind == Tok::kIdent && depth == 1) {
        cur = tok.text;  // qualified names: last component wins
      }
    }
    if (!cur.empty()) out.push_back(cur);
    if (!out.empty()) return out;
  }
  return out;
}

// Token index of the decl's own name just before its body (for excluding
// the declaration site from reference counts).
std::size_t decl_name_index(const ParsedFile& f, const Decl& d) {
  if (d.body_begin < 0) return 0;
  const auto& t = f.lexed.tokens;
  const auto begin = static_cast<std::size_t>(d.body_begin);
  const std::size_t floor = begin > 16 ? begin - 16 : 0;
  for (std::size_t i = begin; i-- > floor;) {
    if (t[i].kind == Tok::kIdent && t[i].text == d.name) return i;
  }
  return begin;
}

void flow_rules(const std::vector<ParsedFile>& files,
                std::vector<Diagnostic>* out) {
  const ParsedFile* hdr = find_by_suffix(files, "msg/wire.h");
  if (hdr == nullptr) return;  // no wire layer in this program
  const ParsedFile* impl = find_by_suffix(files, "msg/wire.cpp");

  const std::vector<std::string> alts = payload_alternatives(*hdr);
  const std::set<std::string> alt_set(alts.begin(), alts.end());

  // Payload struct decls at namespace scope in wire.h, name -> decl line.
  std::map<std::string, const Decl*> structs;
  for (const Decl& d : hdr->decls) {
    if (d.kind == DeclKind::kClass && !d.is_forward && !d.is_member &&
        !d.name.empty()) {
      structs.emplace(d.name, &d);
    }
  }
  auto anchor_line = [&](const std::string& name) {
    const auto it = structs.find(name);
    return it != structs.end() ? it->second->line : 1;
  };

  // --- flow-unregistered: a wire.h struct that is neither a Payload
  // alternative nor referenced anywhere else in the program is dead cargo.
  for (const auto& [name, d] : structs) {
    if (alt_set.count(name) != 0) continue;
    const std::size_t own_begin = decl_name_index(*hdr, *d);
    const std::size_t own_end = d->body_end >= 0
                                    ? static_cast<std::size_t>(d->body_end)
                                    : own_begin;
    std::size_t refs = 0;
    for (const ParsedFile& f : files) {
      const auto& t = f.lexed.tokens;
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Tok::kIdent || t[i].text != name) continue;
        if (&f == hdr && i >= own_begin && i <= own_end) continue;
        ++refs;
      }
    }
    if (refs == 0) {
      out->push_back({hdr->path, d->line, kRuleFlowUnregistered,
                      "struct '" + name +
                          "' in wire.h is not a Payload alternative and is "
                          "referenced nowhere"});
    }
  }

  // --- flow-wire-stub: every alternative needs its row in wire.cpp's
  // wire-type table (the one visitor that names and sizes each type), i.e.
  // an `operator()(const T&)` overload.
  if (impl != nullptr) {
    std::set<std::string> rows;
    const auto& t = impl->lexed.tokens;
    for (std::size_t i = 0; i + 4 < t.size(); ++i) {
      if (!(t[i].kind == Tok::kIdent && t[i].text == "operator")) continue;
      if (t[i + 1].text != "(" || t[i + 2].text != ")" ||
          t[i + 3].text != "(") {
        continue;
      }
      std::size_t j = i + 4;
      if (j < t.size() && t[j].kind == Tok::kIdent && t[j].text == "const") {
        ++j;
      }
      // Optional msg:: qualifier, then the parameter type.
      if (j + 2 < t.size() && t[j].kind == Tok::kIdent &&
          t[j + 1].text == "::") {
        j += 2;
      }
      if (j < t.size() && t[j].kind == Tok::kIdent) rows.insert(t[j].text);
    }
    for (const std::string& name : alts) {
      if (rows.count(name) == 0) {
        out->push_back({hdr->path, anchor_line(name), kRuleFlowWireStub,
                        "payload '" + name + "' has no operator()(const " +
                            name +
                            "&) row in wire.cpp's wire-type table (its "
                            "name and size)"});
      }
    }
  }

  // --- flow-dead-message / flow-unhandled-message over the rest of the
  // program.
  std::set<std::string> referenced;  // any use outside the wire layer
  std::set<std::string> handled;     // a dispatch site exists
  for (const ParsedFile& f : files) {
    if (is_wire_file(f.path)) continue;
    const auto& t = f.lexed.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Token& tok = t[i];
      if (tok.kind != Tok::kIdent) continue;
      if (alt_set.count(tok.text) != 0) referenced.insert(tok.text);

      // Dispatch shapes: get_if<T> / holds_alternative<T> / get<T> with an
      // optionally msg::-qualified argument, and visitor overloads
      // `operator()(const [msg::]T`.
      if ((tok.text == "get_if" || tok.text == "holds_alternative" ||
           tok.text == "get") &&
          i + 1 < t.size() && t[i + 1].text == "<") {
        int depth = 1;
        std::string last;
        for (std::size_t j = i + 2; j < t.size() && depth > 0; ++j) {
          if (t[j].kind == Tok::kPunct) {
            if (t[j].text == "<") ++depth;
            if (t[j].text == ">") --depth;
            if (t[j].text == ">>") depth -= 2;
            if (t[j].text == ";" || t[j].text == "{") break;
          } else if (t[j].kind == Tok::kIdent) {
            last = t[j].text;
          }
        }
        if (!last.empty()) handled.insert(last);
      }
      if (tok.text == "operator" && i + 4 < t.size() &&
          t[i + 1].text == "(" && t[i + 2].text == ")" &&
          t[i + 3].text == "(") {
        std::size_t j = i + 4;
        if (t[j].kind == Tok::kIdent && t[j].text == "const") ++j;
        if (j + 2 < t.size() && t[j].kind == Tok::kIdent &&
            t[j + 1].text == "::") {
          j += 2;
        }
        if (j < t.size() && t[j].kind == Tok::kIdent) {
          handled.insert(t[j].text);
        }
      }
    }
  }
  for (const std::string& name : alts) {
    if (referenced.count(name) == 0) {
      out->push_back({hdr->path, anchor_line(name), kRuleFlowDeadMessage,
                      "payload '" + name +
                          "' is never referenced outside the wire layer "
                          "(no send site)"});
    } else if (handled.count(name) == 0) {
      out->push_back({hdr->path, anchor_line(name), kRuleFlowUnhandledMessage,
                      "payload '" + name +
                          "' has no dispatch site (get_if/"
                          "holds_alternative/visitor overload)"});
    }
  }
}

// ---------------------------------------------------------------------------
// cap-*: capability-claim conformance
// ---------------------------------------------------------------------------

// Parse `{true, false, ConsistencyClass::kX}` starting at the '{' at index
// `open`: first bool is supports_wal, second supports_crash_recovery.
void parse_caps_group(const std::vector<Token>& t, std::size_t open,
                      RegistryDescriptor* d) {
  int depth = 0;
  int bools = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind == Tok::kPunct) {
      if (t[i].text == "{") ++depth;
      if (t[i].text == "}" && --depth == 0) return;
      continue;
    }
    if (t[i].kind != Tok::kIdent || depth == 0) continue;
    const std::string& w = t[i].text;
    if (w == "true" || w == "false") {
      if (bools == 0) d->supports_wal = w == "true";
      if (bools == 1) d->supports_crash_recovery = w == "true";
      ++bools;
    } else if (w == "kAtomic" || w == "kRegular" || w == "kEventual") {
      d->consistency = w;
    }
  }
}

std::size_t matching_paren(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tok::kPunct) continue;
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")" && --depth == 0) return i;
  }
  return t.size();
}

}  // namespace

std::vector<RegistryDescriptor> extract_registrations(
    const ParsedFile& wiring) {
  std::vector<RegistryDescriptor> out;
  const auto& t = wiring.lexed.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(t[i].kind == Tok::kIdent && t[i].text == "add")) continue;
    if (t[i + 1].text != "(" || t[i + 2].kind != Tok::kString) continue;
    RegistryDescriptor d;
    d.name = t[i + 2].literal;
    d.line = t[i].line;
    const std::size_t end = matching_paren(t, i + 1);

    // Display string, then the caps argument right after it.
    std::size_t disp = i + 3;
    while (disp < end && t[disp].kind != Tok::kString) ++disp;
    std::size_t k = disp + 1;
    if (k < end && t[k].text == ",") ++k;
    if (k < end && t[k].kind == Tok::kIdent && k + 1 < end &&
        t[k + 1].text == ",") {
      // Named Capability constant: resolve its brace initializer anywhere in
      // this TU (`constexpr Capability kFooCaps{...};`).
      const std::string& var = t[k].text;
      for (std::size_t j = 0; j + 1 < t.size(); ++j) {
        if (t[j].kind == Tok::kIdent && t[j].text == var &&
            t[j + 1].text == "{") {
          parse_caps_group(t, j + 1, &d);
          break;
        }
      }
    } else {
      std::size_t open = k;
      while (open < end && t[open].text != "{") ++open;
      if (open < end) parse_caps_group(t, open, &d);
    }

    // Build functions referenced anywhere in the registration call.
    for (std::size_t j = i + 2; j < end; ++j) {
      if (t[j].kind == Tok::kIdent &&
          t[j].text.compare(0, 6, "build_") == 0 &&
          std::find(d.build_fns.begin(), d.build_fns.end(), t[j].text) ==
              d.build_fns.end()) {
        d.build_fns.push_back(t[j].text);
      }
    }
    out.push_back(std::move(d));
    i = end;
  }
  return out;
}

namespace {

// Idents that constitute "references the store::Wal API".
bool is_wal_ident(const std::string& s) {
  return s == "Wal" || s == "WalParams" || s == "WalRecord" ||
         s == "WalRecordKind";
}

// LWW / site-timestamp helper markers; anything atomic must not use them.
bool is_lww_ident(const std::string& s) {
  if (s == "lamport_" || s == "site_lamport") return true;
  return s.find("lww") != std::string::npos ||
         s.find("Lww") != std::string::npos;
}

// `protocols::X` / `core::X` qualified class references in [begin, end).
void collect_class_refs(const std::vector<Token>& t, std::size_t begin,
                        std::size_t end, std::set<std::string>* names) {
  end = std::min(end, t.size());
  for (std::size_t i = begin; i + 2 < end; ++i) {
    if (t[i].kind == Tok::kIdent &&
        (t[i].text == "protocols" || t[i].text == "core") &&
        t[i + 1].text == "::" && t[i + 2].kind == Tok::kIdent) {
      names->insert(t[i + 2].text);
    }
  }
}

void cap_rules(const std::vector<ParsedFile>& files,
               std::vector<Diagnostic>* out) {
  const ParsedFile* wiring = find_by_suffix(files, "workload/wiring.cpp");
  if (wiring == nullptr) return;
  const std::vector<RegistryDescriptor> regs = extract_registrations(*wiring);
  if (regs.empty()) return;

  // Class name -> files that define it (class body or out-of-line member).
  std::map<std::string, std::set<const ParsedFile*>> class_files;
  for (const ParsedFile& f : files) {
    for (const Decl& d : f.decls) {
      if (d.kind == DeclKind::kClass && !d.is_forward && !d.name.empty()) {
        class_files[d.name].insert(&f);
      }
      if (d.kind == DeclKind::kFunction && !d.owner.empty()) {
        class_files[d.owner].insert(&f);
      }
    }
  }

  // Build-function decls in the wiring TU, name -> body token range.
  std::map<std::string, std::pair<std::size_t, std::size_t>> build_bodies;
  for (const Decl& d : wiring->decls) {
    if (d.kind == DeclKind::kFunction && d.body_begin >= 0 &&
        d.body_end >= 0) {
      build_bodies[d.name] = {static_cast<std::size_t>(d.body_begin),
                              static_cast<std::size_t>(d.body_end)};
    }
  }

  for (const RegistryDescriptor& reg : regs) {
    // The implementation closure: classes the build function wires up,
    // expanded transitively through protocols::/core:: references in their
    // defining files.
    std::set<std::string> classes;
    bool crash_hook = false;
    bool have_body = false;
    for (const std::string& fn : reg.build_fns) {
      const auto it = build_bodies.find(fn);
      if (it == build_bodies.end()) continue;
      have_body = true;
      const auto [b, e] = it->second;
      collect_class_refs(wiring->lexed.tokens, b, e, &classes);
      for (std::size_t i = b; i <= e && i < wiring->lexed.tokens.size();
           ++i) {
        const Token& tok = wiring->lexed.tokens[i];
        if (tok.kind == Tok::kIdent && tok.text == "add_crash_hook") {
          crash_hook = true;
        }
      }
    }
    if (!have_body) continue;  // factory lives elsewhere; nothing to check

    std::set<const ParsedFile*> closure;
    std::vector<std::string> work(classes.begin(), classes.end());
    while (!work.empty()) {
      const std::string cls = work.back();
      work.pop_back();
      const auto it = class_files.find(cls);
      if (it == class_files.end()) continue;
      for (const ParsedFile* f : it->second) {
        if (!closure.insert(f).second) continue;
        std::set<std::string> more;
        collect_class_refs(f->lexed.tokens, 0, f->lexed.tokens.size(),
                           &more);
        for (const std::string& m : more) {
          if (classes.insert(m).second) work.push_back(m);
        }
      }
    }

    bool wal_ref = false;
    bool lww_ref = false;
    std::string lww_what;
    for (const ParsedFile* f : closure) {
      for (const Token& tok : f->lexed.tokens) {
        if (tok.kind != Tok::kIdent) continue;
        if (is_wal_ident(tok.text)) wal_ref = true;
        if (!lww_ref && is_lww_ident(tok.text)) {
          lww_ref = true;
          lww_what = tok.text;
        }
      }
      for (const IncludeEdge& inc : f->includes) {
        if (path_ends_with(inc.target, "store/wal.h")) wal_ref = true;
      }
    }

    if (reg.supports_wal && !wal_ref) {
      out->push_back(
          {wiring->path, reg.line, kRuleCapWalClaim,
           "protocol '" + reg.name +
               "' claims supports_wal=true but its implementation closure "
               "never references the store::Wal API"});
    } else if (!reg.supports_wal && wal_ref) {
      out->push_back(
          {wiring->path, reg.line, kRuleCapWalClaim,
           "protocol '" + reg.name +
               "' claims supports_wal=false but its implementation closure "
               "references the store::Wal API"});
    }
    if (reg.supports_crash_recovery && !crash_hook) {
      out->push_back(
          {wiring->path, reg.line, kRuleCapRecoveryClaim,
           "protocol '" + reg.name +
               "' claims supports_crash_recovery=true but its build "
               "function wires no add_crash_hook"});
    } else if (!reg.supports_crash_recovery && crash_hook) {
      out->push_back(
          {wiring->path, reg.line, kRuleCapRecoveryClaim,
           "protocol '" + reg.name +
               "' claims supports_crash_recovery=false but its build "
               "function wires add_crash_hook"});
    }
    if (reg.consistency == "kAtomic" && lww_ref) {
      out->push_back(
          {wiring->path, reg.line, kRuleCapConsistencyLww,
           "protocol '" + reg.name +
               "' claims an atomic consistency class but its "
               "implementation uses LWW/site-timestamp helper '" +
               lww_what + "'"});
    }
  }
}

// ---------------------------------------------------------------------------
// part-*: partition-ownership
// ---------------------------------------------------------------------------

void part_rules(const std::vector<ParsedFile>& files,
                std::vector<Diagnostic>* out) {
  for (const ParsedFile& f : files) {
    for (const Decl& d : f.decls) {
      if (d.kind != DeclKind::kVariable || d.name.empty() || d.is_const) {
        continue;
      }
      if (d.is_function_local) {
        if (d.is_static) {
          out->push_back(
              {f.path, d.line, kRulePartLocalStatic,
               "function-local mutable static '" + d.name +
                   "' is shared across parallel_world partitions"});
        }
        continue;
      }
      const bool namespace_scope = !d.is_member;
      const bool class_static = d.is_member && d.is_static;
      if (namespace_scope || class_static) {
        std::string what = d.is_thread_local
                               ? "thread_local"
                               : (class_static ? "class-static"
                                               : "namespace-scope");
        out->push_back({f.path, d.line, kRulePartMutableGlobal,
                        "mutable " + what + " state '" + d.name +
                            "' is shared across parallel_world partitions"});
      }
    }
  }
}

}  // namespace

std::vector<Diagnostic> run_program_rules(
    const std::vector<ParsedFile>& files) {
  std::vector<Diagnostic> out;
  flow_rules(files, &out);
  cap_rules(files, &out);
  part_rules(files, &out);
  return out;
}

}  // namespace dq::lint
