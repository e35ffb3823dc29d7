// kdlint — repo-specific determinism & protocol lint for KubeDirect.
//
// The simulator's correctness oracle is bit-determinism (the replay
// fingerprints in tests/determinism_test.cc). These rules statically
// forbid the bug classes that break it, plus the narrow-waist API
// contract from the paper (§3.1). See LINT.md for the full rationale.
//
//   R0  suppression comments must carry a reason (audit hygiene)
//   R1  no wall clock / ambient entropy in product code
//   R2  unordered-container iteration must not feed event schedules
//   R3  no pointer values as container keys / ordering criteria
//   R4  closures passed to sim::Engine::Schedule* must not capture [&]
//       or smuggle `this` through a blanket [=] copy default
//   R5  controller policy classes never mutate ObjectCache directly
//   R6  retired with the sharded control plane; the ID is not reused
//   R7  lane ownership: code in a KD_LANE_OWNED class may not reach
//       another lane's state except through a KD_LANE_SEAM conduit
//   R8  no raw pointer/reference to another lane's KD_LANE_OWNED state
//       stored as a member or captured into a scheduled closure
//   R9  no raw threading primitives (std::thread/mutex/atomics)
//       anywhere in src/, the engine included — the simulator is
//       single-threaded, and its byte-identical traces depend on it
//
// R7/R8 read the ownership model declared in src/common/lane.h; the
// driver harvests every KD_LANE_OWNED/KD_LANE_SEAM annotation across
// all input files (and sibling headers) into Options before analysis,
// which is what makes the pass cross-translation-unit in both modes.
//
// Suppressions: `// kdlint: allow(R2) reason` on the offending line or
// the line directly above; `// kdlint: allow-file(R1) reason` anywhere
// in the file for a file-wide waiver. The reason is mandatory: an
// empty one is rejected (the suppression does not take effect) and
// reported as R0.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace kdlint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;     // "R0".."R9"
  std::string message;
  bool suppressed = false;
  std::string suppress_reason;  // inline reason text or "baseline"
};

struct Options {
  // Rules to run (empty = all).
  std::set<std::string> rules;
  // With repo scoping on, each rule only applies to its home layers
  // (R1-R4: src/ outside src/sim/ for R1; R5: controllers/ and faas/).
  // Off (the default) every rule runs on every input file — that is
  // what the fixture tests exercise.
  bool repo_scope = false;
  // Report suppressed findings too (they never affect the exit code).
  bool show_suppressed = false;
  // Baseline entries ("file:line:rule") that demote matching findings
  // to suppressed. Transitional tool only; see LINT.md.
  std::set<std::string> baseline;
  // Cross-TU lane-ownership index for R7/R8, harvested by the driver
  // from every input file (plus sibling headers) before analysis so
  // both backends see the same model regardless of include graphs.
  std::map<std::string, std::string> lane_of;  // class name -> lane
  std::set<std::string> seam_types;            // KD_LANE_SEAM classes
  // Accessor functions returning a lane-owned type by ref/pointer
  // (e.g. `Autoscaler& autoscaler()`): name -> lane of the returned
  // class. Lets R7 see cross-lane reach through getter chains.
  std::map<std::string, std::string> accessor_lane;
};

// Per-file suppression state parsed from raw source lines.
struct Suppressions {
  // line -> rules allowed on that line (an entry covering line N also
  // covers findings reported on line N when the comment sits on N-1).
  std::map<int, std::set<std::string>> by_line;
  std::map<int, std::string> reason_by_line;
  std::set<std::string> whole_file;
  std::string whole_file_reason;
  // Suppression comments with an empty reason: line -> the rule list
  // text. They are rejected (no suppression effect) and reported as
  // R0 so the exception inventory stays auditable.
  std::map<int, std::string> missing_reason;

  // Applies suppression state to `f`, setting suppressed/reason.
  void Apply(Finding& f) const;
};

Suppressions ParseSuppressions(const std::string& source);

// Harvests KD_LANE_OWNED/KD_LANE_SEAM class annotations and
// lane-owned accessor signatures from one source file into the
// options' cross-TU lane index. The driver calls this over every
// input file (and sibling header) before any analysis runs.
void HarvestLaneIndex(const std::string& source, Options& opts);

// Runs all (selected) token-mode rules over one file. `sibling_header`
// is the text of the paired .h for a .cc input ("" if none): R5 needs
// it to learn member declarations that live in the header.
std::vector<Finding> AnalyzeSource(const std::string& path,
                                   const std::string& source,
                                   const std::string& sibling_header,
                                   const Options& opts);

// True if `rule` applies to `path` under --repo-scope (always true
// when repo scoping is off).
bool RuleAppliesTo(const Options& opts, const std::string& rule,
                   const std::string& path);

// JSON-escapes a string body (no surrounding quotes).
std::string JsonEscape(const std::string& s);

// One finding as a single-line JSON object (stable field order; the
// test suite and CI log scrapers rely on one-object-per-line).
std::string ToJson(const Finding& f);

// All findings as a SARIF 2.1.0 document (GitHub code scanning).
// Suppressed findings are emitted with an inSource suppression so the
// exception inventory shows up in the scanning UI too.
std::string ToSarif(const std::vector<Finding>& findings);

#if defined(KDLINT_HAVE_LIBCLANG)
// AST-accurate backend over compile_commands.json. Returns false (with
// a message on stderr) if the compilation database cannot be loaded.
bool RunClangMode(const std::vector<std::string>& files,
                  const std::string& compile_commands_dir,
                  const Options& opts, std::vector<Finding>& out);
#endif

}  // namespace kdlint
