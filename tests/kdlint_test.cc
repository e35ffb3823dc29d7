// Fixture tests for kdlint (tools/kdlint): every rule R1-R9 must fire
// on its seeded-violation fixture at the exact line, the clean fixture
// must pass, and suppression comments must demote findings without
// hiding them. The same assertions run once per available mode: token
// always; clang when the binary was built with libclang (fixtures are
// not in the compilation database, so clang mode exercises its
// documented token fallback on them — the mode plumbing itself is what
// the second pass covers).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#ifndef KDLINT_BINARY
#error "KDLINT_BINARY must be defined by the build"
#endif
#ifndef KDLINT_FIXTURE_DIR
#error "KDLINT_FIXTURE_DIR must be defined by the build"
#endif
#ifndef KDLINT_BUILD_DIR
#error "KDLINT_BUILD_DIR must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout only; stderr carries the summary line
};

RunResult RunKdlint(const std::string& args,
                    bool capture_stderr = false) {
  const std::string cmd = std::string(KDLINT_BINARY) + " " + args +
                          (capture_stderr ? " 2>&1" : " 2>/dev/null");
  RunResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string Fixture(const std::string& name) {
  return std::string(KDLINT_FIXTURE_DIR) + "/" + name;
}

bool HasFinding(const std::string& json, int line, const std::string& rule,
                bool suppressed) {
  const std::string needle =
      "\"line\":" + std::to_string(line) + ",\"rule\":\"" + rule + "\"";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  const std::size_t end = json.find('\n', pos);
  const std::string line_text = json.substr(pos, end - pos);
  return line_text.find(suppressed ? "\"suppressed\":true"
                                   : "\"suppressed\":false") !=
         std::string::npos;
}

int CountFindings(const std::string& json) {
  int count = 0;
  for (std::size_t pos = json.find("\"rule\":"); pos != std::string::npos;
       pos = json.find("\"rule\":", pos + 1)) {
    ++count;
  }
  return count;
}

bool ClangModeAvailable() {
  const RunResult caps = RunKdlint("--capabilities");
  return caps.output.find(" clang") != std::string::npos;
}

class KdlintModeTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "clang" && !ClangModeAvailable()) {
      // Skip loudly, never pass silently: the executed matrix is also
      // reported by KdlintTest.ExecutedModeMatrixIsReported.
      GTEST_SKIP() << "kdlint built without libclang; clang-mode case "
                      "skipped (token-mode case still covers the rule)";
    }
  }
  // The test runner's cwd is not the repo root, so clang mode gets the
  // compilation database location explicitly. Fixtures are not in the
  // database and exercise clang mode's documented token fallback.
  std::string ModeFlag() const {
    std::string flags = "--mode=" + GetParam();
    if (GetParam() == "clang") {
      flags += " --compile-commands=" + std::string(KDLINT_BUILD_DIR);
    }
    return flags;
  }
};

TEST_P(KdlintModeTest, R1FiresOnWallClockAndEntropy) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("r1_violation.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(HasFinding(r.output, 9, "R1", false)) << r.output;
  EXPECT_TRUE(HasFinding(r.output, 14, "R1", false)) << r.output;
  EXPECT_TRUE(HasFinding(r.output, 18, "R1", false)) << r.output;
  EXPECT_EQ(CountFindings(r.output), 3) << r.output;
}

TEST_P(KdlintModeTest, R2FiresOnUnorderedIterationFeedingSchedule) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("r2_violation.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(HasFinding(r.output, 18, "R2", false)) << r.output;
  EXPECT_EQ(CountFindings(r.output), 1) << r.output;
}

TEST_P(KdlintModeTest, R3FiresOnPointerKeys) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("r3_violation.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(HasFinding(r.output, 11, "R3", false)) << r.output;
  EXPECT_TRUE(HasFinding(r.output, 12, "R3", false)) << r.output;
  EXPECT_EQ(CountFindings(r.output), 2) << r.output;
}

TEST_P(KdlintModeTest, R4FiresOnBlanketRefCapture) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("r4_violation.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(HasFinding(r.output, 12, "R4", false)) << r.output;
  EXPECT_EQ(CountFindings(r.output), 1) << r.output;
}

TEST_P(KdlintModeTest, R5FiresOnDirectCacheMutation) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("r5_violation.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(HasFinding(r.output, 17, "R5", false)) << r.output;
  EXPECT_TRUE(HasFinding(r.output, 18, "R5", false)) << r.output;
  EXPECT_EQ(CountFindings(r.output), 2) << r.output;
}

TEST_P(KdlintModeTest, R4FiresThroughAliasesAndCopyDefaultCaptures) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("r4_alias_violation.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(HasFinding(r.output, 15, "R4", false)) << r.output;  // member
  EXPECT_TRUE(HasFinding(r.output, 18, "R4", false)) << r.output;  // [=]
  EXPECT_EQ(CountFindings(r.output), 2) << r.output;
}

TEST_P(KdlintModeTest, R7FiresOnCrossLaneReach) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("r7_violation.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(HasFinding(r.output, 23, "R7", false)) << r.output;  // direct
  EXPECT_TRUE(HasFinding(r.output, 25, "R7", false)) << r.output;  // chain
  EXPECT_EQ(CountFindings(r.output), 2) << r.output;
}

TEST_P(KdlintModeTest, R8FiresOnStoredAndCapturedCrossLaneHandles) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("r8_violation.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(HasFinding(r.output, 19, "R8", false)) << r.output;  // capture
  EXPECT_TRUE(HasFinding(r.output, 23, "R8", false)) << r.output;  // member
  EXPECT_EQ(CountFindings(r.output), 2) << r.output;
}

TEST_P(KdlintModeTest, R9FiresOnRawThreadingPrimitives) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("r9_violation.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(HasFinding(r.output, 11, "R9", false)) << r.output;  // mutex
  EXPECT_TRUE(HasFinding(r.output, 12, "R9", false)) << r.output;  // atomic<>
  EXPECT_TRUE(HasFinding(r.output, 15, "R9", false)) << r.output;  // thread
  EXPECT_TRUE(HasFinding(r.output, 20, "R9", false)) << r.output;  // lock_guard
  EXPECT_TRUE(HasFinding(r.output, 34, "R9", false))
      << r.output;  // thread_local
  // lock_guard and its mutex template argument both fire on line 20;
  // the seam.mutex() member access stays quiet.
  EXPECT_EQ(CountFindings(r.output), 6) << r.output;
}

TEST_P(KdlintModeTest, LaneCleanFixturePasses) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("lane_clean.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(CountFindings(r.output), 0) << r.output;
}

TEST_P(KdlintModeTest, LaneSuppressionsDemoteWithReasons) {
  const RunResult quiet =
      RunKdlint(ModeFlag() + " --json " + Fixture("lane_suppressed.cc"));
  EXPECT_EQ(quiet.exit_code, 0);
  EXPECT_EQ(CountFindings(quiet.output), 0) << quiet.output;

  const RunResult shown = RunKdlint(ModeFlag() + " --json --show-suppressed " +
                                    Fixture("lane_suppressed.cc"));
  EXPECT_EQ(shown.exit_code, 0);
  EXPECT_TRUE(HasFinding(shown.output, 13, "R7", true)) << shown.output;
  EXPECT_TRUE(HasFinding(shown.output, 17, "R8", true)) << shown.output;
  EXPECT_EQ(CountFindings(shown.output), 2) << shown.output;
}

TEST_P(KdlintModeTest, SuppressionWithoutReasonIsRejectedAsR0) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json " + Fixture("suppressed_noreason.cc"));
  EXPECT_EQ(r.exit_code, 1);
  // The empty waiver does NOT demote the R1 finding it tried to cover,
  // and the waiver itself is reported as R0.
  EXPECT_TRUE(HasFinding(r.output, 9, "R1", false)) << r.output;
  EXPECT_TRUE(HasFinding(r.output, 9, "R0", false)) << r.output;
  EXPECT_EQ(CountFindings(r.output), 2) << r.output;
}

TEST_P(KdlintModeTest, CleanFixturePasses) {
  const RunResult r = RunKdlint(ModeFlag() + " --json " + Fixture("clean.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(CountFindings(r.output), 0) << r.output;
}

TEST_P(KdlintModeTest, SuppressionCommentsDemoteFindings) {
  const RunResult quiet =
      RunKdlint(ModeFlag() + " --json " + Fixture("suppressed.cc"));
  EXPECT_EQ(quiet.exit_code, 0);
  EXPECT_EQ(CountFindings(quiet.output), 0) << quiet.output;

  const RunResult shown = RunKdlint(ModeFlag() + " --json --show-suppressed " +
                              Fixture("suppressed.cc"));
  EXPECT_EQ(shown.exit_code, 0);  // suppressed findings never fail the run
  EXPECT_TRUE(HasFinding(shown.output, 15, "R1", true)) << shown.output;
  EXPECT_TRUE(HasFinding(shown.output, 24, "R2", true)) << shown.output;
  EXPECT_EQ(CountFindings(shown.output), 2) << shown.output;
}

TEST_P(KdlintModeTest, RuleFilterRestrictsFindings) {
  const RunResult r =
      RunKdlint(ModeFlag() + " --json --rules=R3 " +
                Fixture("r3_violation.cc") + " " + Fixture("r1_violation.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(CountFindings(r.output), 2) << r.output;
  EXPECT_EQ(r.output.find("\"rule\":\"R1\""), std::string::npos) << r.output;
}

INSTANTIATE_TEST_SUITE_P(Modes, KdlintModeTest,
                         ::testing::Values(std::string("token"),
                                           std::string("clang")),
                         [](const ::testing::TestParamInfo<std::string>&
                                param_info) { return param_info.param; });

TEST(KdlintTest, BaselineDemotesKnownFindingsUntilDeleted) {
  const std::string baseline =
      ::testing::TempDir() + "/kdlint_baseline.txt";
  const RunResult write = RunKdlint("--write-baseline=" + baseline + " " +
                              Fixture("r1_violation.cc"));
  EXPECT_EQ(write.exit_code, 1);  // findings still reported on first pass

  const RunResult masked = RunKdlint("--json --baseline=" + baseline + " " +
                                     Fixture("r1_violation.cc"));
  EXPECT_EQ(masked.exit_code, 0) << masked.output;
  EXPECT_EQ(CountFindings(masked.output), 0) << masked.output;

  // A regression not in the baseline still fails.
  const RunResult regression = RunKdlint("--json --baseline=" + baseline +
                                         " " + Fixture("r4_violation.cc"));
  EXPECT_EQ(regression.exit_code, 1);
  std::remove(baseline.c_str());
}

TEST(KdlintTest, RepoScopeLimitsRulesToTheirLayers) {
  // Outside src/ nothing applies under --repo-scope; the violation
  // fixtures live in tools/, so a scoped run over them is clean.
  const RunResult r =
      RunKdlint("--json --repo-scope " + Fixture("r1_violation.cc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(CountFindings(r.output), 0) << r.output;
}

TEST(KdlintTest, CapabilitiesListsTokenMode) {
  const RunResult r = RunKdlint("--capabilities");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("modes: token"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("R5"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("R8"), std::string::npos) << r.output;
}

TEST(KdlintTest, ExecutedModeMatrixIsReported) {
  // Report which modes this run actually exercised, so a CI log (or a
  // ctest XML scrape) shows at a glance whether clang-mode coverage
  // ran or was skipped — a silent skip is how backend-only
  // regressions slip through.
  const bool clang = ClangModeAvailable();
  const std::string matrix = std::string("token=run clang=") +
                             (clang ? "run" : "skipped(no libclang)");
  ::testing::Test::RecordProperty("kdlint_mode_matrix", matrix);
  std::cout << "[kdlint] executed mode matrix: " << matrix << "\n";

  const RunResult tok =
      RunKdlint("--mode=token " + Fixture("clean.cc"), /*capture_stderr=*/true);
  EXPECT_EQ(tok.exit_code, 0) << tok.output;
  EXPECT_NE(tok.output.find("[token mode]"), std::string::npos) << tok.output;
}

TEST(KdlintTest, ModeFlagsMatchAdvertisedCapabilities) {
  // --capabilities and --mode must not drift: every advertised mode
  // runs, and an unadvertised clang mode is refused loudly (exit 2),
  // never silently served by the token analyzer.
  if (!ClangModeAvailable()) {
    const RunResult refuse = RunKdlint("--mode=clang " + Fixture("clean.cc"),
                                       /*capture_stderr=*/true);
    EXPECT_EQ(refuse.exit_code, 2) << refuse.output;
    EXPECT_NE(refuse.output.find("clang mode unavailable"),
              std::string::npos)
        << refuse.output;
  } else {
    const RunResult run =
        RunKdlint("--mode=clang --compile-commands=" +
                      std::string(KDLINT_BUILD_DIR) + " " + Fixture("clean.cc"),
                  /*capture_stderr=*/true);
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("[clang mode]"), std::string::npos)
        << run.output;
  }
}

TEST(KdlintTest, SarifOutputCarriesResultsAndSuppressions) {
  const RunResult r = RunKdlint("--sarif " + Fixture("r7_violation.cc") + " " +
                                Fixture("lane_suppressed.cc"));
  EXPECT_EQ(r.exit_code, 1);  // unsuppressed findings still fail the run
  EXPECT_NE(r.output.find("\"version\":\"2.1.0\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"ruleId\":\"R7\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"startLine\":23"), std::string::npos) << r.output;
  // The suppressed inventory rides along as SARIF suppressions with
  // their in-source justifications.
  EXPECT_NE(r.output.find("\"kind\":\"inSource\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("fixture: transitional handle"), std::string::npos)
      << r.output;
}

TEST(KdlintTest, SweepOverProductTreeIsClean) {
  // The same gate as the kdlint_sweep ctest target, kept here too so a
  // plain `ctest -R kdlint` covers fixtures and sweep together.
  const RunResult r =
      RunKdlint("--repo-scope " + std::string(KDLINT_SOURCE_DIR) + "/src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(KdlintTest, SweepIsCleanInEveryAvailableMode) {
  // `--repo-scope src` must report zero unsuppressed findings in every
  // mode the binary carries — a clang-only (or token-only) regression
  // must not slip through the other backend's sweep.
  const RunResult tok = RunKdlint("--mode=token --repo-scope " +
                                  std::string(KDLINT_SOURCE_DIR) + "/src");
  EXPECT_EQ(tok.exit_code, 0) << tok.output;
  if (ClangModeAvailable()) {
    const RunResult cl = RunKdlint(
        "--mode=clang --compile-commands=" + std::string(KDLINT_BUILD_DIR) +
        " --repo-scope " + std::string(KDLINT_SOURCE_DIR) + "/src");
    EXPECT_EQ(cl.exit_code, 0) << cl.output;
  }
}

TEST(KdlintTest, LiveSuppressionInventoryCarriesReasons) {
  // The audited exception inventory (LINT.md): every suppression in the
  // product tree must parse out of --show-suppressed --json with a
  // non-empty reason, and the count per rule is pinned, so a new
  // suppression fails here until its diff updates the pin. Token mode
  // is the one every build carries.
  const RunResult r =
      RunKdlint("--mode=token --json --repo-scope --show-suppressed " +
                std::string(KDLINT_SOURCE_DIR) + "/src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::map<std::string, int> per_rule;
  std::size_t pos = 0;
  while ((pos = r.output.find("\"suppressed\":true", pos)) !=
         std::string::npos) {
    const std::size_t line_start = r.output.rfind('\n', pos);
    const std::size_t line_end = r.output.find('\n', pos);
    const std::string entry = r.output.substr(
        line_start + 1, line_end - line_start - 1);
    EXPECT_EQ(entry.find("\"reason\":\"\""), std::string::npos)
        << "suppression without a reason: " << entry;
    const std::string rule_key = "\"rule\":\"";
    const std::size_t rule_at = entry.find(rule_key);
    ASSERT_NE(rule_at, std::string::npos) << entry;
    const std::size_t rule_start = rule_at + rule_key.size();
    ++per_rule[entry.substr(rule_start,
                            entry.find('"', rule_start) - rule_start)];
    pos += 1;
  }
  const std::map<std::string, int> pinned = {{"R5", 25}};
  EXPECT_EQ(per_rule, pinned) << r.output;
}

}  // namespace
