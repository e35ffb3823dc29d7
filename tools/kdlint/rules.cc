// Token-mode implementations of R1-R5 plus suppression handling.
//
// The analyses are deliberately structural rather than semantic: each
// rule keys off token patterns that are unambiguous in this codebase's
// idiom (see LINT.md for what each rule intentionally does and does
// not catch). Where a rule needs declaration context that lives in a
// paired header (R2/R5 receiver types for members of a .cc's class),
// the caller passes the sibling header text and we harvest
// declarations from it without emitting findings for it — the header
// is swept as its own input file.
#include "kdlint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "lexer.h"

namespace kdlint {
namespace {

const std::set<std::string>& UnorderedContainers() {
  static const std::set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kSet;
}

const std::set<std::string>& OrderedContainers() {
  static const std::set<std::string> kSet = {"map", "set", "multimap",
                                             "multiset", "priority_queue"};
  return kSet;
}

// R1: ambient-nondeterminism sources. Each of these injects host state
// (wall clock, entropy, environment) that differs run to run.
const std::set<std::string>& BannedIdents() {
  static const std::set<std::string> kSet = {
      "system_clock",   "steady_clock", "high_resolution_clock",
      "random_device",  "gettimeofday", "clock_gettime",
      "localtime",      "localtime_r",  "gmtime",
      "mktime",         "getenv",       "setenv",
      "srand",          "rand",         "drand48",
      "random_shuffle", "sleep_for",    "sleep_until",
      "nanosleep",      "usleep"};
  return kSet;
}

// R2/R4: calls through which iteration order or a closure escapes into
// the event schedule or onto the wire.
const std::set<std::string>& OrderEscapingCalls() {
  static const std::set<std::string> kSet = {
      "ScheduleAt", "ScheduleAfter", "Schedule",    "Send",
      "Enqueue",    "EnqueueAfter",  "Create",      "Update",
      "Delete",     "Upsert",        "Remove",      "MarkInvalid",
      "DropInvalid", "Publish",      "Emit",        "Push",
      "Dispatch"};
  return kSet;
}

const std::set<std::string>& ScheduleEntryPoints() {
  static const std::set<std::string> kSet = {"ScheduleAt", "ScheduleAfter",
                                             "Schedule"};
  return kSet;
}

// R9: raw threading primitives, anywhere in src/ (the engine
// included). The simulator is single-threaded: byte-identical traces
// depend on one thread firing every event in (time, seq) order, so a
// thread, lock, atomic or per-thread (thread_local) variable has no
// sanctioned place. `thread` and `atomic` are common enough words that
// only their std-qualified / template forms are flagged (see RunR9).
const std::set<std::string>& BannedThreadingIdents() {
  static const std::set<std::string> kSet = {
      "jthread",          "mutex",
      "recursive_mutex",  "timed_mutex",
      "recursive_timed_mutex",
      "shared_mutex",     "shared_timed_mutex",
      "condition_variable", "condition_variable_any",
      "atomic_flag",      "atomic_thread_fence",
      "atomic_signal_fence",
      "lock_guard",       "unique_lock",
      "scoped_lock",      "shared_lock",
      "call_once",        "once_flag",
      "thread_local",
      "memory_order_relaxed", "memory_order_acquire",
      "memory_order_release", "memory_order_acq_rel",
      "memory_order_seq_cst"};
  return kSet;
}

// R5: ObjectCache mutators a policy class must not call directly.
const std::set<std::string>& CacheMutators() {
  static const std::set<std::string> kSet = {"Upsert", "Remove", "MarkInvalid",
                                             "DropInvalid", "Clear"};
  return kSet;
}

bool ContainsNoCase(const std::string& haystack, const std::string& needle) {
  auto it = std::search(haystack.begin(), haystack.end(), needle.begin(),
                        needle.end(), [](char a, char b) {
                          return std::tolower(static_cast<unsigned char>(a)) ==
                                 std::tolower(static_cast<unsigned char>(b));
                        });
  return it != haystack.end();
}

using Tokens = std::vector<Token>;

bool Is(const Tokens& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

// Index of the matching closer for the opener at `i`, or t.size().
std::size_t MatchForward(const Tokens& t, std::size_t i, const char* open,
                         const char* close) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != TokKind::kPunct) continue;
    if (t[j].text == open) ++depth;
    if (t[j].text == close && --depth == 0) return j;
  }
  return t.size();
}

// Matches the template argument list opened by `<` at index `i`.
// Counts only angle tokens; `>>` lexes as two `>` so nested closers
// work. `->` inside a template argument list would miscount, but no
// type expression in this codebase (or any sane one) contains one.
std::size_t MatchAngle(const Tokens& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != TokKind::kPunct) continue;
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">" && --depth == 0) return j;
    // A statement terminator inside an "argument list" means this `<`
    // was a comparison after all; bail out.
    if (t[j].text == ";" || t[j].text == "{") return t.size();
  }
  return t.size();
}

// Declaration facts harvested from one token stream.
struct Decls {
  std::set<std::string> unordered_vars;  // names with unordered_* type
  std::set<std::string> cache_vars;      // names with ObjectCache type
};

// Scans container/ObjectCache declarations. Emits R3 findings into
// `out` when it is non-null (null for sibling-header harvesting).
void ScanDecls(const std::string& path, const Tokens& t, Decls& decls,
               std::vector<Finding>* out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const bool unordered = UnorderedContainers().count(t[i].text) > 0;
    const bool ordered = OrderedContainers().count(t[i].text) > 0;
    if (unordered || ordered) {
      if (!Is(t, i + 1, "<")) continue;
      const std::size_t close = MatchAngle(t, i + 1);
      if (close == t.size()) continue;
      // First template argument: tokens at angle depth 1 up to the
      // first comma (or the closer, for sets).
      std::size_t arg_end = close;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (t[j].kind != TokKind::kPunct) continue;
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">") --depth;
        if (t[j].text == "," && depth == 1) {
          arg_end = j;
          break;
        }
      }
      if (out != nullptr && arg_end > i + 2 && Is(t, arg_end - 1, "*")) {
        out->push_back(
            {path, t[i].line, "R3",
             "container '" + t[i].text +
                 "' is keyed by a pointer; pointer values differ across "
                 "runs, so any order or hash derived from them is "
                 "nondeterministic - key by a stable id instead",
             false,
             ""});
      }
      // Variable name, if this is a declaration: skip cv/ref tokens
      // after the closing `>`.
      std::size_t j = close + 1;
      while (j < t.size() &&
             (Is(t, j, "&") || Is(t, j, "*") || t[j].text == "const")) {
        ++j;
      }
      if (j < t.size() && t[j].kind == TokKind::kIdent && unordered) {
        decls.unordered_vars.insert(t[j].text);
      }
      i = close;
      continue;
    }
    if (t[i].text == "ObjectCache") {
      std::size_t j = i + 1;
      while (j < t.size() &&
             (Is(t, j, "&") || Is(t, j, "*") || t[j].text == "const")) {
        ++j;
      }
      if (j < t.size() && t[j].kind == TokKind::kIdent) {
        decls.cache_vars.insert(t[j].text);
      }
    }
  }
}

// R1 over one token stream.
void RunR1(const std::string& path, const Tokens& t,
           std::vector<Finding>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& id = t[i].text;
    bool hit = BannedIdents().count(id) > 0;
    // `time` is too common a word to ban outright; flag the function
    // call forms `std::time(...)` / `::time(...)`.
    if (!hit && id == "time" && Is(t, i + 1, "(") && i >= 2 &&
        Is(t, i - 1, ":") && Is(t, i - 2, ":")) {
      hit = true;
    }
    if (!hit) continue;
    // Member accesses (`foo.rand()`) are somebody else's rand.
    if (i >= 1 && (Is(t, i - 1, ".") ||
                   (i >= 2 && Is(t, i - 1, ">") && Is(t, i - 2, "-")))) {
      continue;
    }
    out.push_back({path, t[i].line, "R1",
                   "nondeterministic source '" + id +
                       "' (wall clock / ambient entropy) - product code "
                       "must use sim::Engine::now() and kd::Rng so runs "
                       "stay bit-reproducible",
                   false,
                   ""});
  }
}

// Returns the index one past the end of the statement or block that
// starts at `i` (the loop body).
std::size_t BodyEnd(const Tokens& t, std::size_t i) {
  if (Is(t, i, "{")) {
    const std::size_t close = MatchForward(t, i, "{", "}");
    return close == t.size() ? close : close + 1;
  }
  int paren = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != TokKind::kPunct) continue;
    if (t[j].text == "(") ++paren;
    if (t[j].text == ")") --paren;
    if (t[j].text == ";" && paren == 0) return j + 1;
  }
  return t.size();
}

// R2 over one token stream, using unordered var names from `decls`.
void RunR2(const std::string& path, const Tokens& t, const Decls& decls,
           std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(t[i].kind == TokKind::kIdent && t[i].text == "for" &&
          Is(t, i + 1, "("))) {
      continue;
    }
    const std::size_t close = MatchForward(t, i + 1, "(", ")");
    if (close == t.size()) continue;
    // Does the loop header iterate an unordered container? Range-for:
    // an unordered name (or unordered_* type of a temporary) appears
    // after the depth-1 `:`. Iterator loop: `x.begin()`/`x.cbegin()`
    // with x unordered. Checking the whole header for either pattern
    // keeps this robust to both forms.
    std::string culprit;
    for (std::size_t j = i + 2; j < close && culprit.empty(); ++j) {
      if (t[j].kind != TokKind::kIdent) continue;
      if (decls.unordered_vars.count(t[j].text) > 0) culprit = t[j].text;
      if (UnorderedContainers().count(t[j].text) > 0) culprit = t[j].text;
    }
    if (culprit.empty()) continue;
    const std::size_t body_end = BodyEnd(t, close + 1);
    for (std::size_t j = close + 1; j < body_end; ++j) {
      if (t[j].kind == TokKind::kIdent &&
          OrderEscapingCalls().count(t[j].text) > 0 && Is(t, j + 1, "(")) {
        out.push_back(
            {path, t[i].line, "R2",
             "iteration over unordered container '" + culprit +
                 "' calls '" + t[j].text +
                 "' - hash-table order escapes into event/wire order; "
                 "iterate an ordered container or a sorted snapshot",
             false,
             ""});
        break;
      }
    }
  }
}

// Returns one past the end of the lambda whose introducer `[` closes
// at `cap_end`: skips the optional parameter list and specifiers, then
// the `{...}` body. Returns cap_end + 1 if no body is found (not a
// lambda after all, e.g. a subscript).
std::size_t LambdaEnd(const Tokens& t, std::size_t cap_end) {
  std::size_t b = cap_end + 1;
  if (Is(t, b, "(")) {
    const std::size_t pc = MatchForward(t, b, "(", ")");
    if (pc == t.size()) return cap_end + 1;
    b = pc + 1;
  }
  // Specifiers / trailing return type up to the body.
  while (b < t.size() && !Is(t, b, "{") && !Is(t, b, ";") &&
         !Is(t, b, ")") && !Is(t, b, ",")) {
    ++b;
  }
  if (!Is(t, b, "{")) return cap_end + 1;
  const std::size_t close = MatchForward(t, b, "{", "}");
  return close == t.size() ? close : close + 1;
}

// R4 over one token stream. Flags blanket [&] capture defaults, and
// blanket [=] defaults whose body touches `this` state (the copy
// default quietly captures the raw `this` pointer, which is the same
// lifetime hazard as [&] once the owner can crash/restart before the
// event fires). Schedule* reached through members or aliases
// (`engine_->ScheduleAt`, `auto& e = engine(); e.ScheduleAt`) match
// the same call pattern, so aliasing cannot dodge the rule.
void RunR4(const std::string& path, const Tokens& t,
           std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(t[i].kind == TokKind::kIdent &&
          ScheduleEntryPoints().count(t[i].text) > 0 && Is(t, i + 1, "("))) {
      continue;
    }
    const std::size_t close = MatchForward(t, i + 1, "(", ")");
    for (std::size_t j = i + 2; j < close; ++j) {
      // Lambda introducer: `[` in argument position.
      if (!Is(t, j, "[") || !(Is(t, j - 1, "(") || Is(t, j - 1, ","))) {
        continue;
      }
      const std::size_t cap_end = MatchForward(t, j, "[", "]");
      for (std::size_t k = j + 1; k < cap_end; ++k) {
        // A blanket `&` capture-default: `&` directly followed by `]`
        // or `,` (explicit `&name` captures are fine).
        if (Is(t, k, "&") && (k + 1 == cap_end || Is(t, k + 1, ","))) {
          out.push_back(
              {path, t[k].line, "R4",
               "closure passed to '" + t[i].text +
                   "' captures by blanket reference [&] - locals it "
                   "captures are dead by the time the event fires; "
                   "capture explicitly by value (guard re-entrancy with "
                   "an epoch or generation capture)",
               false,
               ""});
          break;
        }
      }
      // A blanket `=` capture-default (grammar puts it first) whose
      // body reaches `this` — explicitly or through a member (house
      // style: trailing-underscore names) — smuggles the raw `this`
      // pointer into the deferred closure.
      if (Is(t, j + 1, "=") && (j + 2 == cap_end || Is(t, j + 2, ","))) {
        const std::size_t lam_end = LambdaEnd(t, cap_end);
        for (std::size_t k = cap_end + 1; k < lam_end; ++k) {
          if (t[k].kind != TokKind::kIdent) continue;
          const bool member_style =
              t[k].text.size() > 1 && t[k].text.back() == '_';
          if (t[k].text != "this" && !member_style) continue;
          // `x.member_` is somebody else's member, not ours.
          if (member_style && k >= 1 &&
              (Is(t, k - 1, ".") || Is(t, k - 1, ">"))) {
            continue;
          }
          out.push_back(
              {path, t[j + 1].line, "R4",
               "closure passed to '" + t[i].text +
                   "' uses a blanket [=] capture that implicitly copies "
                   "the raw `this` pointer (body touches '" + t[k].text +
                   "') - capture `this` explicitly and guard re-entrancy "
                   "with an epoch or generation capture",
               false,
               ""});
          break;
        }
      }
    }
  }
}

// R5 over one token stream, using cache var names from `decls`.
void RunR5(const std::string& path, const Tokens& t, const Decls& decls,
           std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const bool known_cache = decls.cache_vars.count(t[i].text) > 0;
    // Fallback for receivers whose declaration we cannot see (e.g. a
    // member of a base class): anything *named* like a cache.
    const bool named_cache = ContainsNoCase(t[i].text, "cache");
    if (!known_cache && !named_cache) continue;
    std::size_t j = i + 1;
    if (Is(t, j, ".")) {
      ++j;
    } else if (Is(t, j, "-") && Is(t, j + 1, ">")) {
      j += 2;
    } else {
      continue;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdent &&
        CacheMutators().count(t[j].text) > 0 && Is(t, j + 1, "(")) {
      out.push_back(
          {path, t[j].line, "R5",
           "policy class mutates ObjectCache '" + t[i].text + "' via '" +
               t[j].text +
               "' - object mutations must flow through runtime::ApiClient "
               "or a harness seam (annotate deliberate ingress/"
               "write-through paths with kdlint: allow(R5))",
           false,
           ""});
    }
  }
}

// R9 over one token stream: no raw threading primitives. Most of the
// banned names (mutex, lock_guard, once_flag, the thread_local
// keyword...) are unambiguous; `thread` and `atomic` are ordinary
// words, so they are flagged only as `std::thread` / `std::atomic` /
// `atomic<...>`.
// Member accesses (`seam.mutex()`) name somebody else's API and stay
// quiet, mirroring R1.
void RunR9(const std::string& path, const Tokens& t,
           std::vector<Finding>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& id = t[i].text;
    bool hit = BannedThreadingIdents().count(id) > 0;
    if (!hit && (id == "thread" || id == "atomic")) {
      const bool std_qualified = i >= 3 && Is(t, i - 1, ":") &&
                                 Is(t, i - 2, ":") && Is(t, i - 3, "std");
      hit = std_qualified || (id == "atomic" && Is(t, i + 1, "<"));
    }
    if (!hit) continue;
    if (i >= 1 && (Is(t, i - 1, ".") ||
                   (i >= 2 && Is(t, i - 1, ">") && Is(t, i - 2, "-")))) {
      continue;
    }
    out.push_back({path, t[i].line, "R9",
                   "raw threading primitive '" + id +
                       "' - the simulator is single-threaded; byte-identical "
                       "traces depend on one thread firing every event "
                       "in (time, seq) order",
                   false,
                   ""});
  }
}

// --- R7/R8: lane-ownership analysis --------------------------------
//
// The ownership model is declared with KD_LANE_OWNED/KD_LANE_SEAM
// (src/common/lane.h) and harvested across every input file into
// Options::lane_of / seam_types / accessor_lane by the driver, which
// is what makes the pass cross-translation-unit: a .cc only mentions
// e.g. `Autoscaler&`, but the annotation lives in autoscaler.h.
//
// Within a *lane region* — the body of a KD_LANE_OWNED class or an
// out-of-line member definition of one — the rules check the reach
// graph from that lane's event handlers to mutable state:
//   R7: a member call through a handle (or accessor chain) whose type
//       is owned by a different lane reaches foreign state directly;
//       sanctioned seams are exempt (they are not lane-owned).
//   R8: a raw pointer/reference member of a foreign-owned type, or a
//       foreign handle mentioned inside a closure passed to
//       Schedule*, stores cross-lane reach across events — the escape
//       that lets a later event touch foreign state outside any seam.
// Instance granularity (this kubelet vs. that kubelet) is the runtime
// lane checker's job (src/sim/lane_checker.h); the static pass proves
// inter-component isolation.

// A token span owned by one lane.
struct LaneRegion {
  std::size_t begin = 0;  // index of the opening `{`
  std::size_t end = 0;    // index of the matching `}`
  std::string lane;
  std::string cls;
  bool class_body = false;  // true for class bodies, false for
                            // out-of-line member definitions
};

// Collects lane regions in one token stream: annotated class bodies
// plus out-of-line `Name::member(...) { ... }` definitions for any
// Name in the lane index.
std::vector<LaneRegion> FindLaneRegions(const Tokens& t,
                                        const Options& opts) {
  std::vector<LaneRegion> regions;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    // Class bodies. The annotation macro may sit between the keyword
    // and the name; the name lookup is what decides (the annotation
    // often lives in the header while the .cc re-opens nothing).
    if (t[i].text == "class" || t[i].text == "struct") {
      std::size_t j = i + 1;
      if (Is(t, j, "KD_LANE_OWNED") && Is(t, j + 1, "(")) {
        const std::size_t pc = MatchForward(t, j + 1, "(", ")");
        if (pc == t.size()) continue;
        j = pc + 1;
      } else if (Is(t, j, "KD_LANE_SEAM")) {
        ++j;
      }
      if (j >= t.size() || t[j].kind != TokKind::kIdent) continue;
      const auto it = opts.lane_of.find(t[j].text);
      if (it == opts.lane_of.end()) continue;
      std::size_t k = j + 1;
      while (k < t.size() && !Is(t, k, "{") && !Is(t, k, ";")) ++k;
      if (!Is(t, k, "{")) continue;  // forward declaration
      const std::size_t close = MatchForward(t, k, "{", "}");
      if (close == t.size()) continue;
      regions.push_back({k, close, it->second, t[j].text, true});
      continue;
    }
    // Out-of-line members: `Name :: member ( ... ) ... { ... }`.
    const auto it = opts.lane_of.find(t[i].text);
    if (it == opts.lane_of.end()) continue;
    if (!(Is(t, i + 1, ":") && Is(t, i + 2, ":"))) continue;
    std::size_t p = i + 3;
    // Scan a short window for the parameter list; `Name::kConstant`
    // or nested qualifiers fall out at `;`/`{` or the window edge.
    const std::size_t window = std::min(t.size(), i + 9);
    while (p < window && !Is(t, p, "(") && !Is(t, p, ";") &&
           !Is(t, p, "{")) {
      ++p;
    }
    if (!Is(t, p, "(")) continue;
    const std::size_t pc = MatchForward(t, p, "(", ")");
    if (pc == t.size()) continue;
    // Skip specifiers and a ctor init list up to the body. Init-list
    // initializers carry their own parens; jump over them so their
    // commas/braces cannot derail the scan.
    std::size_t b = pc + 1;
    while (b < t.size() && !Is(t, b, "{") && !Is(t, b, ";")) {
      if (Is(t, b, "(")) {
        b = MatchForward(t, b, "(", ")");
        if (b == t.size()) break;
      }
      ++b;
    }
    if (b >= t.size() || !Is(t, b, "{")) continue;
    const std::size_t close = MatchForward(t, b, "{", "}");
    if (close == t.size()) continue;
    regions.push_back({b, close, it->second, t[i].text, false});
  }
  return regions;
}

// The innermost lane region containing token index `i` (nullptr if
// none — driver/assembly code carries no lane).
const LaneRegion* RegionAt(const std::vector<LaneRegion>& regions,
                           std::size_t i) {
  const LaneRegion* best = nullptr;
  for (const LaneRegion& r : regions) {
    if (i <= r.begin || i >= r.end) continue;
    if (best == nullptr || r.begin > best->begin) best = &r;
  }
  return best;
}

// Harvests handles to lane-owned state from one token stream:
// `Kubelet* k`, `const Gateway& g`, ... -> var name -> owning lane.
// By-value members are not handles (they *are* the lane's state).
void HarvestLaneVars(const Tokens& t, const Options& opts,
                     std::map<std::string, std::string>& vars) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const auto it = opts.lane_of.find(t[i].text);
    if (it == opts.lane_of.end()) continue;
    std::size_t j = i + 1;
    bool handle = false;
    while (j < t.size() &&
           (Is(t, j, "*") || Is(t, j, "&") || t[j].text == "const")) {
      handle = handle || Is(t, j, "*") || Is(t, j, "&");
      ++j;
    }
    if (!handle || j >= t.size() || t[j].kind != TokKind::kIdent) continue;
    if (Is(t, j + 1, "(")) continue;  // accessor signature, not a var
    vars[t[j].text] = it->second;
  }
}

// After the identifier at `i`, returns the index of a member name in
// `x.member` / `x->member` position, or t.size().
std::size_t MemberNameAfter(const Tokens& t, std::size_t i) {
  std::size_t j = i + 1;
  if (Is(t, j, ".")) {
    ++j;
  } else if (Is(t, j, "-") && Is(t, j + 1, ">")) {
    j += 2;
  } else {
    return t.size();
  }
  return (j < t.size() && t[j].kind == TokKind::kIdent) ? j : t.size();
}

// R7 + R8 over one token stream. `vars` holds foreign-handle names
// harvested from the file and its sibling header.
void RunLaneRules(const std::string& path, const Tokens& t,
                  const std::map<std::string, std::string>& vars,
                  const Options& opts, bool want_r7, bool want_r8,
                  std::vector<Finding>& out) {
  const std::vector<LaneRegion> regions = FindLaneRegions(t, opts);
  if (regions.empty()) return;

  // R8a: raw foreign handles stored as members (class-body regions,
  // brace depth 1 — method bodies and nested scopes sit deeper).
  if (want_r8) {
    for (const LaneRegion& r : regions) {
      if (!r.class_body) continue;
      int depth = 1;
      int parens = 0;  // parameter lists sit at brace depth 1 too
      for (std::size_t i = r.begin + 1; i < r.end; ++i) {
        if (t[i].kind == TokKind::kPunct) {
          if (t[i].text == "{") ++depth;
          if (t[i].text == "}") --depth;
          if (t[i].text == "(") ++parens;
          if (t[i].text == ")") --parens;
          continue;
        }
        if (depth != 1 || parens != 0 || t[i].kind != TokKind::kIdent) {
          continue;
        }
        const auto it = opts.lane_of.find(t[i].text);
        if (it == opts.lane_of.end() || it->second == r.lane) continue;
        std::size_t j = i + 1;
        bool handle = false;
        while (j < r.end &&
               (Is(t, j, "*") || Is(t, j, "&") || t[j].text == "const")) {
          handle = handle || Is(t, j, "*") || Is(t, j, "&");
          ++j;
        }
        if (!handle || j >= r.end || t[j].kind != TokKind::kIdent) continue;
        if (Is(t, j + 1, "(")) continue;  // member function, not state
        out.push_back(
            {path, t[j].line, "R8",
             "'" + r.cls + "' (lane '" + r.lane + "') stores a raw " +
                 "handle '" + t[j].text + "' to lane-'" + it->second +
                 "' state across events - cross-lane reach must go "
                 "through a KD_LANE_SEAM conduit, not a held pointer",
             false,
             ""});
      }
    }
  }

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;

    // R8b: foreign handle mentioned inside a closure passed to
    // Schedule* — captured cross-lane reach deferred to a later event.
    if (want_r8 && ScheduleEntryPoints().count(t[i].text) > 0 &&
        Is(t, i + 1, "(")) {
      const LaneRegion* region = RegionAt(regions, i);
      if (region != nullptr) {
        const std::size_t close = MatchForward(t, i + 1, "(", ")");
        for (std::size_t j = i + 2; j < close; ++j) {
          if (!Is(t, j, "[") || !(Is(t, j - 1, "(") || Is(t, j - 1, ","))) {
            continue;
          }
          const std::size_t cap_end = MatchForward(t, j, "[", "]");
          const std::size_t lam_end = LambdaEnd(t, cap_end);
          for (std::size_t k = j + 1; k < lam_end; ++k) {
            if (t[k].kind != TokKind::kIdent) continue;
            const auto vit = vars.find(t[k].text);
            if (vit == vars.end() || vit->second == region->lane) continue;
            out.push_back(
                {path, t[k].line, "R8",
                 "closure scheduled from lane '" + region->lane +
                     "' captures '" + t[k].text + "', a handle to lane-'" +
                     vit->second +
                     "' state - the event would touch foreign state after "
                     "the lane barrier; route through a KD_LANE_SEAM",
                 false,
                 ""});
            break;
          }
        }
      }
    }

    if (!want_r7) continue;
    const LaneRegion* region = RegionAt(regions, i);
    if (region == nullptr) continue;

    // R7a: member call through a foreign handle: `k->Evict(...)`.
    const auto vit = vars.find(t[i].text);
    if (vit != vars.end() && vit->second != region->lane) {
      const std::size_t m = MemberNameAfter(t, i);
      if (m != t.size() && Is(t, m + 1, "(")) {
        out.push_back(
            {path, t[m].line, "R7",
             "'" + region->cls + "' (lane '" + region->lane +
                 "') reaches lane-'" + vit->second + "' state through '" +
                 t[i].text + "." + t[m].text +
                 "' - cross-lane effects must route through a "
                 "KD_LANE_SEAM conduit (net::, hierarchy, ApiClient, "
                 "watch hub)",
             false,
             ""});
      }
      continue;
    }
    // R7b: accessor chain: `cluster_.autoscaler().ScaleTo(...)` — the
    // accessor returns a foreign-owned reference.
    const auto ait = opts.accessor_lane.find(t[i].text);
    if (ait != opts.accessor_lane.end() && ait->second != region->lane &&
        Is(t, i + 1, "(")) {
      const std::size_t pc = MatchForward(t, i + 1, "(", ")");
      if (pc == t.size()) continue;
      const std::size_t m = MemberNameAfter(t, pc);
      if (m != t.size() && Is(t, m + 1, "(")) {
        out.push_back(
            {path, t[m].line, "R7",
             "'" + region->cls + "' (lane '" + region->lane +
                 "') reaches lane-'" + ait->second + "' state through '" +
                 t[i].text + "()." + t[m].text +
                 "' - cross-lane effects must route through a "
                 "KD_LANE_SEAM conduit (net::, hierarchy, ApiClient, "
                 "watch hub)",
             false,
             ""});
      }
    }
  }
}

}  // namespace

void Suppressions::Apply(Finding& f) const {
  if (whole_file.count(f.rule) > 0) {
    f.suppressed = true;
    f.suppress_reason = whole_file_reason;
    return;
  }
  auto it = by_line.find(f.line);
  if (it != by_line.end() && it->second.count(f.rule) > 0) {
    f.suppressed = true;
    auto rit = reason_by_line.find(f.line);
    if (rit != reason_by_line.end()) f.suppress_reason = rit->second;
  }
}

Suppressions ParseSuppressions(const std::string& source) {
  Suppressions sup;
  std::istringstream stream(source);
  std::string raw;
  int line = 0;
  while (std::getline(stream, raw)) {
    ++line;
    const std::size_t marker = raw.find("kdlint:");
    if (marker == std::string::npos) continue;
    std::size_t p = raw.find_first_not_of(' ', marker + 7);
    if (p == std::string::npos) continue;
    bool file_wide = false;
    if (raw.compare(p, 11, "allow-file(") == 0) {
      file_wide = true;
      p += 11;
    } else if (raw.compare(p, 6, "allow(") == 0) {
      p += 6;
    } else {
      continue;
    }
    const std::size_t close = raw.find(')', p);
    if (close == std::string::npos) continue;
    std::set<std::string> rules;
    std::string rule;
    for (std::size_t q = p; q <= close; ++q) {
      if (q == close || raw[q] == ',') {
        if (!rule.empty()) rules.insert(rule);
        rule.clear();
      } else if (!std::isspace(static_cast<unsigned char>(raw[q]))) {
        rule += raw[q];
      }
    }
    std::string reason = raw.substr(close + 1);
    const std::size_t first = reason.find_first_not_of(" \t");
    reason = first == std::string::npos ? "" : reason.substr(first);
    // A reason is mandatory. An empty one is rejected — the
    // suppression takes no effect — and recorded for R0 so the
    // exception inventory cannot silently rot.
    if (reason.empty()) {
      std::string rule_list;
      for (const std::string& r : rules) {
        if (!rule_list.empty()) rule_list += ",";
        rule_list += r;
      }
      sup.missing_reason[line] = rule_list;
      continue;
    }
    if (file_wide) {
      sup.whole_file.insert(rules.begin(), rules.end());
      sup.whole_file_reason = reason;
      continue;
    }
    // The comment covers its own line; a comment-only line also covers
    // the line below it.
    const std::size_t comment = raw.find("//");
    const bool own_line =
        comment != std::string::npos &&
        raw.find_first_not_of(" \t") == comment;
    for (const std::string& r : rules) {
      sup.by_line[line].insert(r);
      if (own_line) sup.by_line[line + 1].insert(r);
    }
    sup.reason_by_line[line] = reason;
    if (own_line) sup.reason_by_line[line + 1] = reason;
  }
  return sup;
}

bool RuleAppliesTo(const Options& opts, const std::string& rule,
                   const std::string& path) {
  if (!opts.repo_scope) return true;
  auto under = [&path](const char* dir) {
    const std::string d(dir);
    return path.rfind(d, 0) == 0 || path.find("/" + d) != std::string::npos;
  };
  if (!under("src/")) return false;       // tests/bench own their idioms
  if (rule == "R1") return !under("src/sim/");  // the engine owns time
  if (rule == "R5") return under("src/controllers/") || under("src/faas/");
  return true;
}

void HarvestLaneIndex(const std::string& source, Options& opts) {
  const Tokens t = Lex(source);
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const bool class_key = t[i].text == "class" || t[i].text == "struct";
    if (!class_key) continue;
    if (Is(t, i + 1, "KD_LANE_OWNED") && Is(t, i + 2, "(")) {
      const std::size_t pc = MatchForward(t, i + 2, "(", ")");
      if (pc == t.size() || pc != i + 4) continue;  // one-token lane name
      if (t[i + 3].kind != TokKind::kIdent) continue;
      if (pc + 1 < t.size() && t[pc + 1].kind == TokKind::kIdent) {
        opts.lane_of[t[pc + 1].text] = t[i + 3].text;
      }
    } else if (Is(t, i + 1, "KD_LANE_SEAM") && i + 2 < t.size() &&
               t[i + 2].kind == TokKind::kIdent) {
      opts.seam_types.insert(t[i + 2].text);
    }
  }
  // Accessors returning a lane-owned reference/pointer: the chain
  // `x.accessor().Mutate()` reaches foreign state without ever naming
  // the class in the calling file, so the index must know them.
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const auto it = opts.lane_of.find(t[i].text);
    if (it == opts.lane_of.end()) continue;
    std::size_t j = i + 1;
    bool handle = false;
    while (j < t.size() &&
           (Is(t, j, "*") || Is(t, j, "&") || t[j].text == "const")) {
      handle = handle || Is(t, j, "*") || Is(t, j, "&");
      ++j;
    }
    if (!handle || j + 1 >= t.size()) continue;
    if (t[j].kind == TokKind::kIdent && Is(t, j + 1, "(") &&
        t[j].text != t[i].text) {
      opts.accessor_lane[t[j].text] = it->second;
    }
  }
}

std::vector<Finding> AnalyzeSource(const std::string& path,
                                   const std::string& source,
                                   const std::string& sibling_header,
                                   const Options& opts) {
  const Tokens toks = Lex(source);
  const Tokens sib_toks =
      sibling_header.empty() ? Tokens{} : Lex(sibling_header);
  Decls decls;
  if (!sib_toks.empty()) {
    ScanDecls(path, sib_toks, decls, /*out=*/nullptr);
  }

  std::vector<Finding> out;
  auto want = [&opts, &path](const char* rule) {
    return (opts.rules.empty() || opts.rules.count(rule) > 0) &&
           RuleAppliesTo(opts, rule, path);
  };

  // Declaration scan always runs (R2/R5 need the names); R3 findings
  // are dropped afterwards if the rule is off for this file.
  std::vector<Finding> r3;
  ScanDecls(path, toks, decls, &r3);
  if (want("R3")) out.insert(out.end(), r3.begin(), r3.end());
  if (want("R1")) RunR1(path, toks, out);
  if (want("R2")) RunR2(path, toks, decls, out);
  if (want("R4")) RunR4(path, toks, out);
  if (want("R5")) RunR5(path, toks, decls, out);
  if (want("R9")) RunR9(path, toks, out);
  if ((want("R7") || want("R8")) && !opts.lane_of.empty()) {
    std::map<std::string, std::string> lane_vars;
    HarvestLaneVars(toks, opts, lane_vars);
    if (!sib_toks.empty()) HarvestLaneVars(sib_toks, opts, lane_vars);
    RunLaneRules(path, toks, lane_vars, opts, want("R7"), want("R8"),
                 out);
  }

  const Suppressions sup = ParseSuppressions(source);
  if (want("R0")) {
    for (const auto& [line, rule_list] : sup.missing_reason) {
      out.push_back({path, line, "R0",
                     "suppression 'allow(" + rule_list +
                         ")' carries no reason, so it is rejected - every "
                         "kdlint exception must say why (see LINT.md)",
                     false,
                     ""});
    }
  }
  for (Finding& f : out) {
    sup.Apply(f);
    if (!f.suppressed &&
        opts.baseline.count(f.file + ":" + std::to_string(f.line) + ":" +
                            f.rule) > 0) {
      f.suppressed = true;
      f.suppress_reason = "baseline";
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToJson(const Finding& f) {
  std::string out = "{\"file\":\"" + JsonEscape(f.file) + "\"";
  out += ",\"line\":" + std::to_string(f.line);
  out += ",\"rule\":\"" + f.rule + "\"";
  out += ",\"message\":\"" + JsonEscape(f.message) + "\"";
  out += std::string(",\"suppressed\":") + (f.suppressed ? "true" : "false");
  out += ",\"reason\":\"" + JsonEscape(f.suppress_reason) + "\"}";
  return out;
}

std::string ToSarif(const std::vector<Finding>& findings) {
  // Rule catalogue for tool.driver.rules; GitHub code scanning keys
  // its UI off these ids.
  static const std::pair<const char*, const char*> kRules[] = {
      {"R0", "kdlint suppressions must carry a reason"},
      {"R1", "no wall clock / ambient entropy in product code"},
      {"R2", "unordered-container iteration must not feed event order"},
      {"R3", "no pointer values as container keys"},
      {"R4", "no blanket [&] / this-smuggling [=] captures into Schedule*"},
      {"R5", "controllers never mutate ObjectCache directly"},
      {"R7", "events may only reach state owned by their lane"},
      {"R8", "no raw cross-lane handles stored or captured across events"},
      {"R9", "no raw threading primitives: the simulator is single-threaded"},
  };
  std::string out;
  out += "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",";
  out += "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{";
  out += "\"name\":\"kdlint\",\"informationUri\":";
  out += "\"LINT.md\",\"rules\":[";
  bool first = true;
  for (const auto& [id, text] : kRules) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":\"" + std::string(id) +
           "\",\"shortDescription\":{\"text\":\"" + JsonEscape(text) +
           "\"}}";
  }
  out += "]}},\"results\":[";
  first = true;
  for (const Finding& f : findings) {
    if (!first) out += ",";
    first = false;
    out += "{\"ruleId\":\"" + f.rule + "\",\"level\":\"error\",";
    out += "\"message\":{\"text\":\"" + JsonEscape(f.message) + "\"},";
    out += "\"locations\":[{\"physicalLocation\":{\"artifactLocation\":";
    out += "{\"uri\":\"" + JsonEscape(f.file) + "\"},\"region\":";
    out += "{\"startLine\":" + std::to_string(f.line) + "}}}]";
    if (f.suppressed) {
      out += ",\"suppressions\":[{\"kind\":\"inSource\",";
      out += "\"justification\":\"" + JsonEscape(f.suppress_reason) +
             "\"}]";
    }
    out += "}";
  }
  out += "]}]}";
  return out;
}

}  // namespace kdlint
