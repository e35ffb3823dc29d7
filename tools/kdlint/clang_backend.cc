// AST-accurate kdlint backend on the libclang C API, driven by the
// project's compile_commands.json. Only compiled when CMake finds
// clang-c/Index.h (see CMakeLists.txt); the token-mode fallback in
// rules.cc covers toolchains without libclang and is the mode the
// fixture tests always exercise.
//
// Headers and any file without a compile command fall back to the
// token analyzer, so one invocation always covers every input file.
#if defined(KDLINT_HAVE_LIBCLANG)

#include <clang-c/CXCompilationDatabase.h>
#include <clang-c/Index.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "kdlint.h"

namespace kdlint {
namespace {

std::string ToStd(CXString s) {
  const char* c = clang_getCString(s);
  std::string out = c != nullptr ? c : "";
  clang_disposeString(s);
  return out;
}

int LineOf(CXCursor cursor) {
  unsigned line = 0;
  clang_getExpansionLocation(clang_getCursorLocation(cursor), nullptr, &line,
                             nullptr, nullptr);
  return static_cast<int>(line);
}

bool InMainFile(CXCursor cursor) {
  return clang_Location_isFromMainFile(clang_getCursorLocation(cursor)) != 0;
}

const std::set<std::string>& BannedIdents() {
  static const std::set<std::string> kSet = {
      "system_clock",   "steady_clock", "high_resolution_clock",
      "random_device",  "gettimeofday", "clock_gettime",
      "localtime",      "localtime_r",  "gmtime",
      "mktime",         "getenv",       "setenv",
      "srand",          "rand",         "drand48",
      "random_shuffle", "sleep_for",    "sleep_until",
      "nanosleep",      "usleep",       "time"};
  return kSet;
}

// R9 (mirrors rules.cc): raw threading primitives; `thread`/`atomic`
// are resolved through the referenced declaration's parent namespace
// instead of token context. `thread_local` is a storage class, not a
// referenced name, so Visit asks each variable declaration for it.
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
      "memory_order_relaxed", "memory_order_acquire",
      "memory_order_release", "memory_order_acq_rel",
      "memory_order_seq_cst"};
  return kSet;
}

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

const std::set<std::string>& CacheMutators() {
  static const std::set<std::string> kSet = {"Upsert", "Remove", "MarkInvalid",
                                             "DropInvalid", "Clear"};
  return kSet;
}

std::string CanonicalTypeSpelling(CXCursor cursor) {
  return ToStd(clang_getTypeSpelling(
      clang_getCanonicalType(clang_getCursorType(cursor))));
}

// First template argument of a container type spelling, e.g.
// "std::map<kd::Pod *, int>" -> "kd::Pod *".
std::string FirstTemplateArg(const std::string& type) {
  const std::size_t open = type.find('<');
  if (open == std::string::npos) return "";
  int depth = 0;
  for (std::size_t i = open; i < type.size(); ++i) {
    if (type[i] == '<') ++depth;
    if (type[i] == '>') --depth;
    if ((type[i] == ',' && depth == 1) || depth == 0) {
      return type.substr(open + 1, i - open - 1);
    }
  }
  return "";
}

bool IsAssociativeContainer(const std::string& type) {
  for (const char* name :
       {"std::map<", "std::set<", "std::multimap<", "std::multiset<",
        "std::unordered_map<", "std::unordered_set<",
        "std::unordered_multimap<", "std::unordered_multiset<",
        "std::priority_queue<"}) {
    if (type.find(name) != std::string::npos) return true;
  }
  return false;
}

struct Ctx {
  std::string file;
  const Options* opts;
  std::vector<Finding>* out;
  CXTranslationUnit tu;

  bool Want(const char* rule) const {
    return (opts->rules.empty() || opts->rules.count(rule) > 0) &&
           RuleAppliesTo(*opts, rule, file);
  }
  void Add(int line, const char* rule, std::string message) {
    out->push_back({file, line, rule, std::move(message), false, ""});
  }
};

// --- lane-ownership helpers (R7/R8) --------------------------------
//
// The ownership model comes from the driver's cross-TU harvest
// (Options::lane_of / seam_types), shared with the token analyzer so
// both backends judge against the same declared map; the AST side
// resolves receivers by canonical *type* rather than by name, which
// also catches accessor chains (`cluster_.autoscaler().ScaleTo()`).

// Lane of the first lane-owned class named (with identifier
// boundaries) in a canonical type spelling; "" if none.
std::string LaneInTypeSpelling(const std::string& type,
                               const Options& opts) {
  auto ident_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  for (const auto& [cls, lane] : opts.lane_of) {
    for (std::size_t pos = type.find(cls); pos != std::string::npos;
         pos = type.find(cls, pos + 1)) {
      const bool left_ok = pos == 0 || !ident_char(type[pos - 1]);
      const std::size_t end = pos + cls.size();
      const bool right_ok = end >= type.size() || !ident_char(type[end]);
      if (left_ok && right_ok) return lane;
    }
  }
  return "";
}

bool IsHandleSpelling(const std::string& type) {
  return type.find('*') != std::string::npos ||
         type.find('&') != std::string::npos;
}

// Lane owning a declaration, found by walking semantic parents until a
// KD_LANE_OWNED class; "" when the decl belongs to no lane. Works for
// out-of-line member definitions too (semantic, not lexical, parent).
std::string LaneOfDecl(CXCursor decl, const Options& opts,
                       std::string* cls_out) {
  CXCursor p = clang_getCursorSemanticParent(decl);
  for (int depth = 0; depth < 64 && !clang_Cursor_isNull(p); ++depth) {
    const CXCursorKind k = clang_getCursorKind(p);
    if (k == CXCursor_TranslationUnit) break;
    if (k == CXCursor_ClassDecl || k == CXCursor_StructDecl) {
      const std::string name = ToStd(clang_getCursorSpelling(p));
      const auto it = opts.lane_of.find(name);
      if (it != opts.lane_of.end()) {
        if (cls_out != nullptr) *cls_out = name;
        return it->second;
      }
    }
    const CXCursor next = clang_getCursorSemanticParent(p);
    if (clang_equalCursors(next, p) != 0) break;
    p = next;
  }
  return "";
}

// --- subtree scans used by R2/R4 -----------------------------------

struct SubtreeScan {
  bool unordered_range = false;
  std::string escape_call;
  int escape_line = 0;
  bool blanket_ref_lambda = false;
  int lambda_line = 0;
  bool copy_this_lambda = false;  // [=] lambda whose body uses `this`
  int copy_lambda_line = 0;
  CXTranslationUnit tu;
};

// First tokens of a lambda: `[ & ]` / `[ & ,` is a blanket by-ref
// capture default, `[ = ]` / `[ = ,` a blanket copy default (libclang
// does not expose capture defaults in the C API, so we look at the
// spelling). Returns '&', '=', or 0.
char LambdaCaptureDefault(CXTranslationUnit tu, CXCursor lambda) {
  CXToken* toks = nullptr;
  unsigned n = 0;
  clang_tokenize(tu, clang_getCursorExtent(lambda), &toks, &n);
  char result = 0;
  if (n >= 3 && ToStd(clang_getTokenSpelling(tu, toks[0])) == "[") {
    const std::string second = ToStd(clang_getTokenSpelling(tu, toks[1]));
    const std::string third = ToStd(clang_getTokenSpelling(tu, toks[2]));
    if ((second == "&" || second == "=") &&
        (third == "]" || third == ",")) {
      result = second[0];
    }
  }
  clang_disposeTokens(tu, toks, n);
  return result;
}

CXChildVisitResult FindThisExpr(CXCursor cursor, CXCursor,
                                CXClientData data) {
  if (clang_getCursorKind(cursor) == CXCursor_CXXThisExpr) {
    *static_cast<bool*>(data) = true;
    return CXChildVisit_Break;
  }
  return CXChildVisit_Recurse;
}

// True if the lambda body reaches `this` (explicitly or through an
// implicit member access, which the AST still models as CXXThisExpr).
bool LambdaTouchesThis(CXCursor lambda) {
  bool found = false;
  clang_visitChildren(lambda, FindThisExpr, &found);
  return found;
}

CXChildVisitResult ScanSubtree(CXCursor cursor, CXCursor, CXClientData data) {
  auto* scan = static_cast<SubtreeScan*>(data);
  const CXCursorKind kind = clang_getCursorKind(cursor);
  if (kind == CXCursor_CallExpr) {
    const std::string name = ToStd(clang_getCursorSpelling(cursor));
    if (OrderEscapingCalls().count(name) > 0 && scan->escape_call.empty()) {
      scan->escape_call = name;
      scan->escape_line = LineOf(cursor);
    }
  }
  if (kind == CXCursor_LambdaExpr) {
    const char dflt = LambdaCaptureDefault(scan->tu, cursor);
    if (dflt == '&' && !scan->blanket_ref_lambda) {
      scan->blanket_ref_lambda = true;
      scan->lambda_line = LineOf(cursor);
    }
    if (dflt == '=' && !scan->copy_this_lambda &&
        LambdaTouchesThis(cursor)) {
      scan->copy_this_lambda = true;
      scan->copy_lambda_line = LineOf(cursor);
    }
  }
  if (clang_getCursorKind(cursor) != CXCursor_LambdaExpr) {
    const std::string type = CanonicalTypeSpelling(cursor);
    if (type.find("unordered_") != std::string::npos) {
      scan->unordered_range = true;
    }
  }
  return CXChildVisit_Recurse;
}

// Base object of a member call, for R5 receiver typing.
struct FirstChild {
  CXCursor cursor = clang_getNullCursor();
};
CXChildVisitResult TakeFirstChild(CXCursor cursor, CXCursor,
                                  CXClientData data) {
  static_cast<FirstChild*>(data)->cursor = cursor;
  return CXChildVisit_Break;
}

// Canonical type of the receiver of a member call ("" when the call
// has no member-ref callee). Shared by R5 and R7.
std::string MemberCallReceiverType(CXCursor call) {
  FirstChild callee;
  clang_visitChildren(call, TakeFirstChild, &callee);
  if (clang_getCursorKind(callee.cursor) != CXCursor_MemberRefExpr) {
    return "";
  }
  FirstChild base;
  clang_visitChildren(callee.cursor, TakeFirstChild, &base);
  if (clang_Cursor_isNull(base.cursor)) return "";
  return CanonicalTypeSpelling(base.cursor);
}

// --- R7/R8 subtree visitors ----------------------------------------

struct LaneScan {
  Ctx* ctx;
  std::string lane;  // lane owning the enclosing method
  std::string cls;
};

struct LambdaCaptureCheck {
  Ctx* ctx;
  std::string lane;
  bool reported = false;
};

// Flags references, inside a scheduled lambda, to declarations whose
// type is a raw handle to another lane's state (R8: the handle would
// cross the lane barrier when the event later fires).
CXChildVisitResult CheckCaptureRefs(CXCursor cursor, CXCursor,
                                    CXClientData data) {
  auto* chk = static_cast<LambdaCaptureCheck*>(data);
  if (chk->reported) return CXChildVisit_Break;
  if (clang_getCursorKind(cursor) == CXCursor_DeclRefExpr) {
    const CXCursor decl = clang_getCursorReferenced(cursor);
    if (!clang_Cursor_isNull(decl)) {
      const CXCursorKind dk = clang_getCursorKind(decl);
      if (dk == CXCursor_VarDecl || dk == CXCursor_ParmDecl ||
          dk == CXCursor_FieldDecl) {
        const std::string type = ToStd(clang_getTypeSpelling(
            clang_getCanonicalType(clang_getCursorType(decl))));
        const std::string foreign =
            LaneInTypeSpelling(type, *chk->ctx->opts);
        if (!foreign.empty() && foreign != chk->lane &&
            IsHandleSpelling(type)) {
          chk->ctx->Add(
              LineOf(cursor), "R8",
              "closure scheduled from lane '" + chk->lane +
                  "' captures '" + ToStd(clang_getCursorSpelling(cursor)) +
                  "', a handle to lane-'" + foreign +
                  "' state - the event would touch foreign state after "
                  "the lane barrier; route through a KD_LANE_SEAM");
          chk->reported = true;
          return CXChildVisit_Break;
        }
      }
    }
  }
  return CXChildVisit_Recurse;
}

CXChildVisitResult FindLambdasForR8(CXCursor cursor, CXCursor,
                                    CXClientData data) {
  if (clang_getCursorKind(cursor) == CXCursor_LambdaExpr) {
    clang_visitChildren(cursor, CheckCaptureRefs, data);
    return CXChildVisit_Continue;
  }
  return CXChildVisit_Recurse;
}

// Walks one lane-owned method body: member calls on foreign-lane
// receivers (R7) and scheduled closures capturing foreign handles
// (R8). Sanctioned KD_LANE_SEAM types are exempt by construction —
// they are not in lane_of, so their receivers resolve to no lane.
CXChildVisitResult VisitLaneSubtree(CXCursor cursor, CXCursor,
                                    CXClientData data) {
  auto* scan = static_cast<LaneScan*>(data);
  Ctx* ctx = scan->ctx;
  if (clang_getCursorKind(cursor) == CXCursor_CallExpr) {
    const std::string name = ToStd(clang_getCursorSpelling(cursor));
    if (ctx->Want("R7")) {
      const std::string recv = MemberCallReceiverType(cursor);
      if (!recv.empty()) {
        const std::string foreign = LaneInTypeSpelling(recv, *ctx->opts);
        if (!foreign.empty() && foreign != scan->lane) {
          ctx->Add(LineOf(cursor), "R7",
                   "'" + scan->cls + "' (lane '" + scan->lane +
                       "') reaches lane-'" + foreign + "' state through '" +
                       name +
                       "' - cross-lane effects must route through a "
                       "KD_LANE_SEAM conduit (net::, hierarchy, "
                       "ApiClient, watch hub)");
        }
      }
    }
    if (ctx->Want("R8") && ScheduleEntryPoints().count(name) > 0) {
      LambdaCaptureCheck chk{ctx, scan->lane, false};
      clang_visitChildren(cursor, FindLambdasForR8, &chk);
    }
  }
  return CXChildVisit_Recurse;
}

CXChildVisitResult Visit(CXCursor cursor, CXCursor, CXClientData data) {
  auto* ctx = static_cast<Ctx*>(data);
  if (!InMainFile(cursor)) return CXChildVisit_Continue;
  const CXCursorKind kind = clang_getCursorKind(cursor);

  if (ctx->Want("R1") && (kind == CXCursor_DeclRefExpr ||
                          kind == CXCursor_MemberRefExpr ||
                          kind == CXCursor_TypeRef)) {
    const std::string name = ToStd(clang_getCursorSpelling(cursor));
    // Strip any "class "/"struct " prefix a TypeRef spelling carries.
    const std::size_t space = name.rfind(' ');
    const std::string bare =
        space == std::string::npos ? name : name.substr(space + 1);
    if (BannedIdents().count(bare) > 0) {
      // Only flag `time` for the libc function, not arbitrary members.
      bool flag = bare != "time" || kind == CXCursor_DeclRefExpr;
      if (flag) {
        ctx->Add(LineOf(cursor), "R1",
                 "nondeterministic source '" + bare +
                     "' (wall clock / ambient entropy) - product code "
                     "must use sim::Engine::now() and kd::Rng so runs "
                     "stay bit-reproducible");
      }
    }
  }

  if (ctx->Want("R9") && (kind == CXCursor_DeclRefExpr ||
                          kind == CXCursor_MemberRefExpr ||
                          kind == CXCursor_TypeRef ||
                          kind == CXCursor_TemplateRef)) {
    const std::string name = ToStd(clang_getCursorSpelling(cursor));
    const std::size_t space = name.rfind(' ');
    const std::string bare =
        space == std::string::npos ? name : name.substr(space + 1);
    bool hit = BannedThreadingIdents().count(bare) > 0;
    if (!hit && (bare == "thread" || bare == "atomic")) {
      // Only the std:: types, not arbitrary identifiers that happen to
      // share the word: resolve through the referenced declaration.
      const CXCursor ref = clang_getCursorReferenced(cursor);
      const std::string parent =
          ToStd(clang_getCursorSpelling(clang_getCursorSemanticParent(ref)));
      hit = parent == "std";
    }
    if (hit) {
      ctx->Add(LineOf(cursor), "R9",
               "raw threading primitive '" + bare +
                   "' - the simulator is single-threaded; byte-identical "
                   "traces depend on one thread firing every event "
                   "in (time, seq) order");
    }
  }

  if (ctx->Want("R9") && kind == CXCursor_VarDecl &&
      clang_getCursorTLSKind(cursor) != CXTLS_None) {
    ctx->Add(LineOf(cursor), "R9",
             "raw threading primitive 'thread_local' - the simulator is "
             "single-threaded; byte-identical traces depend on one thread "
             "firing every event in (time, seq) order");
  }

  if (ctx->Want("R2") && kind == CXCursor_CXXForRangeStmt) {
    SubtreeScan scan;
    scan.tu = ctx->tu;
    clang_visitChildren(cursor, ScanSubtree, &scan);
    if (scan.unordered_range && !scan.escape_call.empty()) {
      ctx->Add(LineOf(cursor), "R2",
               "iteration over an unordered container calls '" +
                   scan.escape_call +
                   "' - hash-table order escapes into event/wire order; "
                   "iterate an ordered container or a sorted snapshot");
    }
  }

  if (kind == CXCursor_FieldDecl && ctx->Want("R8")) {
    std::string cls;
    const std::string lane = LaneOfDecl(cursor, *ctx->opts, &cls);
    if (!lane.empty()) {
      const std::string type = CanonicalTypeSpelling(cursor);
      const std::string foreign = LaneInTypeSpelling(type, *ctx->opts);
      if (!foreign.empty() && foreign != lane && IsHandleSpelling(type)) {
        ctx->Add(LineOf(cursor), "R8",
                 "'" + cls + "' (lane '" + lane + "') stores a raw handle '" +
                     ToStd(clang_getCursorSpelling(cursor)) +
                     "' to lane-'" + foreign +
                     "' state across events - cross-lane reach must go "
                     "through a KD_LANE_SEAM conduit, not a held pointer");
      }
    }
  }

  if ((ctx->Want("R7") || ctx->Want("R8")) &&
      (kind == CXCursor_CXXMethod || kind == CXCursor_Constructor ||
       kind == CXCursor_Destructor || kind == CXCursor_FunctionDecl) &&
      clang_isCursorDefinition(cursor) != 0) {
    LaneScan scan{ctx, "", ""};
    scan.lane = LaneOfDecl(cursor, *ctx->opts, &scan.cls);
    if (!scan.lane.empty()) {
      clang_visitChildren(cursor, VisitLaneSubtree, &scan);
    }
  }

  if ((kind == CXCursor_VarDecl || kind == CXCursor_FieldDecl) &&
      ctx->Want("R3")) {
    const std::string type = CanonicalTypeSpelling(cursor);
    if (IsAssociativeContainer(type)) {
      std::string arg = FirstTemplateArg(type);
      while (!arg.empty() && arg.back() == ' ') arg.pop_back();
      if (!arg.empty() && arg.back() == '*') {
        ctx->Add(LineOf(cursor), "R3",
                 "container '" + ToStd(clang_getCursorSpelling(cursor)) +
                     "' is keyed by a pointer; pointer values differ "
                     "across runs, so any order or hash derived from them "
                     "is nondeterministic - key by a stable id instead");
      }
    }
  }

  if (kind == CXCursor_CallExpr) {
    const std::string name = ToStd(clang_getCursorSpelling(cursor));
    if (ctx->Want("R4") && ScheduleEntryPoints().count(name) > 0) {
      SubtreeScan scan;
      scan.tu = ctx->tu;
      clang_visitChildren(cursor, ScanSubtree, &scan);
      if (scan.blanket_ref_lambda) {
        ctx->Add(scan.lambda_line, "R4",
                 "closure passed to '" + name +
                     "' captures by blanket reference [&] - locals it "
                     "captures are dead by the time the event fires; "
                     "capture explicitly by value (guard re-entrancy "
                     "with an epoch or generation capture)");
      }
      if (scan.copy_this_lambda) {
        ctx->Add(scan.copy_lambda_line, "R4",
                 "closure passed to '" + name +
                     "' uses a blanket [=] capture that implicitly "
                     "copies the raw `this` pointer - capture `this` "
                     "explicitly and guard re-entrancy with an epoch "
                     "or generation capture");
      }
    }
    if (ctx->Want("R5") && CacheMutators().count(name) > 0) {
      FirstChild callee;
      clang_visitChildren(cursor, TakeFirstChild, &callee);
      if (clang_getCursorKind(callee.cursor) == CXCursor_MemberRefExpr) {
        FirstChild base;
        clang_visitChildren(callee.cursor, TakeFirstChild, &base);
        const std::string type = CanonicalTypeSpelling(base.cursor);
        if (type.find("ObjectCache") != std::string::npos) {
          ctx->Add(LineOf(cursor), "R5",
                   "policy class mutates an ObjectCache via '" + name +
                       "' - object mutations must flow through "
                       "runtime::ApiClient or a harness seam (annotate "
                       "deliberate ingress/write-through paths with "
                       "kdlint: allow(R5))");
        }
      }
    }
  }
  return CXChildVisit_Recurse;
}

bool ReadAll(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

bool RunClangMode(const std::vector<std::string>& files,
                  const std::string& compile_commands_dir,
                  const Options& opts, std::vector<Finding>& out) {
  std::string dir = compile_commands_dir;
  if (dir.empty()) dir = "build";
  CXCompilationDatabase_Error err = CXCompilationDatabase_NoError;
  CXCompilationDatabase db =
      clang_CompilationDatabase_fromDirectory(dir.c_str(), &err);
  if (err != CXCompilationDatabase_NoError) {
    std::cerr << "kdlint: cannot load compile_commands.json from '" << dir
              << "' (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)\n";
    return false;
  }
  CXIndex index = clang_createIndex(/*excludeDeclsFromPCH=*/0,
                                    /*displayDiagnostics=*/0);

  for (const std::string& file : files) {
    const std::string abs =
        std::filesystem::absolute(file).generic_string();
    CXCompileCommands cmds =
        clang_CompilationDatabase_getCompileCommands(db, abs.c_str());
    const unsigned ncmds = clang_CompileCommands_getSize(cmds);
    if (ncmds == 0) {
      // Headers and un-built files: token fallback keeps coverage.
      clang_CompileCommands_dispose(cmds);
      std::string source;
      if (ReadAll(file, source)) {
        std::vector<Finding> per_file = AnalyzeSource(file, source, "", opts);
        out.insert(out.end(), per_file.begin(), per_file.end());
      }
      continue;
    }
    CXCompileCommand cmd = clang_CompileCommands_getCommand(cmds, 0);
    std::vector<std::string> args;
    const unsigned nargs = clang_CompileCommand_getNumArgs(cmd);
    for (unsigned i = 1; i < nargs; ++i) {  // skip compiler argv[0]
      std::string arg = ToStd(clang_CompileCommand_getArg(cmd, i));
      if (arg == "-o" || arg == "-c") {
        if (arg == "-o") ++i;  // drop the output path too
        continue;
      }
      if (arg == abs || arg == file) continue;
      args.push_back(std::move(arg));
    }
    std::vector<const char*> argv;
    argv.reserve(args.size());
    for (const std::string& a : args) argv.push_back(a.c_str());

    CXTranslationUnit tu = clang_parseTranslationUnit(
        index, abs.c_str(), argv.data(), static_cast<int>(argv.size()),
        nullptr, 0, CXTranslationUnit_None);
    clang_CompileCommands_dispose(cmds);
    if (tu == nullptr) {
      std::cerr << "kdlint: failed to parse " << file << "\n";
      continue;
    }

    std::vector<Finding> per_file;
    Ctx ctx{file, &opts, &per_file, tu};
    clang_visitChildren(clang_getTranslationUnitCursor(tu), Visit, &ctx);
    clang_disposeTranslationUnit(tu);

    // R0 is purely lexical (a suppression comment with no reason), so
    // clang mode reuses the token rule rather than duplicating an AST
    // walk; AnalyzeSource applies suppressions itself, and re-applying
    // them below is idempotent.
    {
      std::string lex_source;
      if (ReadAll(file, lex_source)) {
        Options lexical = opts;
        lexical.rules.clear();
        if ((opts.rules.empty() || opts.rules.count("R0") > 0) &&
            RuleAppliesTo(opts, "R0", file)) {
          lexical.rules.insert("R0");
        }
        if (!lexical.rules.empty()) {
          std::vector<Finding> lex =
              AnalyzeSource(file, lex_source, "", lexical);
          per_file.insert(per_file.end(), lex.begin(), lex.end());
        }
      }
    }

    std::string source;
    if (ReadAll(file, source)) {
      const Suppressions sup = ParseSuppressions(source);
      for (Finding& f : per_file) {
        sup.Apply(f);
        if (!f.suppressed &&
            opts.baseline.count(f.file + ":" + std::to_string(f.line) + ":" +
                                f.rule) > 0) {
          f.suppressed = true;
          f.suppress_reason = "baseline";
        }
      }
    }
    std::stable_sort(per_file.begin(), per_file.end(),
                     [](const Finding& a, const Finding& b) {
                       return a.line < b.line;
                     });
    out.insert(out.end(), per_file.begin(), per_file.end());
  }

  clang_disposeIndex(index);
  clang_CompilationDatabase_dispose(db);
  return true;
}

}  // namespace kdlint

#endif  // KDLINT_HAVE_LIBCLANG
