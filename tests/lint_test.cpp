// Regression tests for the static determinism-contract layer (DESIGN.md
// §15): every rdp-* check fires on its purpose-built bad fixture, stays
// silent on its good twin, and the full src/ tree is clean.
#include "lint_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using rdp::lint::Finding;

namespace {

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<Finding> check_fixture(const std::string& check,
                                   const std::string& fixture_name) {
    const fs::path path = fs::path(RDP_LINT_FIXTURE_DIR) / fixture_name;
    return rdp::lint::run_check(check, path.string(), read_file(path));
}

}  // namespace

// ---- the comment/string stripper the portable checks rely on --------------

TEST(LintStrip, RemovesCommentsAndStringsPreservingLines) {
    const std::string src =
        "int a; // std::exp(1.0)\n"
        "/* std::getenv(\"X\")\n"
        "   more */ int b;\n"
        "const char* s = \"std::thread t;\";\n"
        "char c = '\\'';\n";
    const std::string out = rdp::lint::strip_comments_and_strings(src);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
              std::count(src.begin(), src.end(), '\n'));
    EXPECT_EQ(out.find("exp"), std::string::npos);
    EXPECT_EQ(out.find("getenv"), std::string::npos);
    EXPECT_EQ(out.find("thread"), std::string::npos);
    EXPECT_NE(out.find("int a;"), std::string::npos);
    EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(LintStrip, DigitSeparatorIsNotACharLiteral) {
    const std::string src = "int n = 1'000'000; double d = std::exp(1.0);\n";
    const std::string out = rdp::lint::strip_comments_and_strings(src);
    EXPECT_NE(out.find("std::exp"), std::string::npos)
        << "digit separators must not open a char literal and swallow code";
}

// ---- one firing + one non-firing fixture per check ------------------------

TEST(RdpRawExp, FiresOnBadFixture) {
    const auto findings = check_fixture("rdp-raw-exp", "bad_raw_exp.cpp");
    EXPECT_EQ(findings.size(), 3u);
    for (const Finding& f : findings) EXPECT_EQ(f.check, "rdp-raw-exp");
}

TEST(RdpRawExp, SilentOnGoodFixture) {
    const auto findings = check_fixture("rdp-raw-exp", "good_raw_exp.cpp");
    EXPECT_TRUE(findings.empty())
        << "unexpected: " << findings.front().message;
}

TEST(RdpUnorderedIteration, FiresOnBadFixture) {
    const auto findings = check_fixture("rdp-unordered-iteration",
                                        "bad_unordered_iteration.cpp");
    EXPECT_EQ(findings.size(), 2u);  // the range-for and the begin() walk
    for (const Finding& f : findings)
        EXPECT_EQ(f.check, "rdp-unordered-iteration");
}

TEST(RdpUnorderedIteration, SilentOnGoodFixture) {
    const auto findings = check_fixture("rdp-unordered-iteration",
                                        "good_unordered_iteration.cpp");
    EXPECT_TRUE(findings.empty())
        << "unexpected: " << findings.front().message;
}

TEST(RdpRawThread, FiresOnBadFixture) {
    const auto findings =
        check_fixture("rdp-raw-thread", "bad_raw_thread.cpp");
    EXPECT_EQ(findings.size(), 2u);  // std::thread and std::async
    for (const Finding& f : findings) EXPECT_EQ(f.check, "rdp-raw-thread");
}

TEST(RdpRawThread, SilentOnGoodFixture) {
    const auto findings =
        check_fixture("rdp-raw-thread", "good_raw_thread.cpp");
    EXPECT_TRUE(findings.empty())
        << "unexpected: " << findings.front().message;
}

TEST(RdpRawGetenv, FiresOnBadFixture) {
    const auto findings =
        check_fixture("rdp-raw-getenv", "bad_raw_getenv.cpp");
    EXPECT_EQ(findings.size(), 2u);  // std::getenv and ::getenv
    for (const Finding& f : findings) EXPECT_EQ(f.check, "rdp-raw-getenv");
}

TEST(RdpRawGetenv, SilentOnGoodFixture) {
    const auto findings =
        check_fixture("rdp-raw-getenv", "good_raw_getenv.cpp");
    EXPECT_TRUE(findings.empty())
        << "unexpected: " << findings.front().message;
}

TEST(RdpEnvReader, FiresOnBadFixture) {
    const auto findings =
        check_fixture("rdp-env-reader", "bad_env_reader.cpp");
    EXPECT_EQ(findings.size(), 2u);  // rdp::env::int_or and env::raw
    for (const Finding& f : findings) EXPECT_EQ(f.check, "rdp-env-reader");
}

TEST(RdpEnvReader, SilentOnGoodFixture) {
    const auto findings =
        check_fixture("rdp-env-reader", "good_env_reader.cpp");
    EXPECT_TRUE(findings.empty())
        << "unexpected: " << findings.front().message;
}

TEST(RdpRawFileWrite, FiresOnBadFixture) {
    const auto findings =
        check_fixture("rdp-raw-file-write", "bad_raw_file_write.cpp");
    EXPECT_EQ(findings.size(), 3u);  // ofstream, fstream, fopen
    for (const Finding& f : findings)
        EXPECT_EQ(f.check, "rdp-raw-file-write");
}

TEST(RdpRawFileWrite, SilentOnGoodFixture) {
    const auto findings =
        check_fixture("rdp-raw-file-write", "good_raw_file_write.cpp");
    EXPECT_TRUE(findings.empty())
        << "unexpected: " << findings.front().message;
}

TEST(RdpHotLoopAlloc, FiresOnBadFixture) {
    const auto findings =
        check_fixture("rdp-hot-loop-alloc", "bad_wa_kernel.hpp");
    EXPECT_GE(findings.size(), 5u);  // decl, reserve, push_back, new, resize
    for (const Finding& f : findings)
        EXPECT_EQ(f.check, "rdp-hot-loop-alloc");
}

TEST(RdpHotLoopAlloc, SilentOnGoodFixture) {
    const auto findings =
        check_fixture("rdp-hot-loop-alloc", "good_wa_kernel.hpp");
    EXPECT_TRUE(findings.empty())
        << "unexpected: " << findings.front().message;
}

TEST(RdpThreadLocal, FiresOnBadFixture) {
    const auto findings =
        check_fixture("rdp-thread-local", "bad_thread_local.cpp");
    EXPECT_EQ(findings.size(), 2u);  // the function-local and static buffers
    for (const Finding& f : findings) EXPECT_EQ(f.check, "rdp-thread-local");
}

TEST(RdpThreadLocal, SilentOnGoodFixture) {
    const auto findings =
        check_fixture("rdp-thread-local", "good_thread_local.cpp");
    EXPECT_TRUE(findings.empty())
        << "unexpected: " << findings.front().message;
}

// ---- path-based applicability (run_file) ----------------------------------

TEST(LintPathRules, SimdLayerMayCallRawExp) {
    const std::string code = "double f() { return std::exp(1.0); }\n";
    EXPECT_TRUE(rdp::lint::run_file("src/util/simd.cpp", code).empty());
    EXPECT_EQ(rdp::lint::run_file("src/wirelength/wa_model.cpp", code).size(),
              1u);
}

TEST(LintPathRules, EnvLayerMayCallGetenv) {
    const std::string code =
        "const char* f() { return std::getenv(\"X\"); }\n";
    EXPECT_TRUE(rdp::lint::run_file("src/util/env.cpp", code).empty());
    EXPECT_EQ(rdp::lint::run_file("src/util/log.cpp", code).size(), 1u);
}

TEST(LintPathRules, OnlyTheConfigResolversMayReadTheEnvironment) {
    const std::string code =
        "bool f() { return rdp::env::flag_or(\"RDP_X\", true); }\n";
    for (const char* path :
         {"src/util/env.cpp", "src/place/global_placer.cpp",
          "src/util/parallel.cpp", "src/util/log.cpp", "src/util/check.cpp",
          "src/recover/fault_injection.cpp", "src/recover/kill_points.cpp"})
        EXPECT_TRUE(rdp::lint::run_file(path, code).empty()) << path;
    for (const char* path :
         {"src/place/routability_loop.cpp", "src/recover/stage_guard.cpp",
          "src/recover/durable_checkpoint.cpp", "src/util/grid2d.cpp"})
        EXPECT_EQ(rdp::lint::run_file(path, code).size(), 1u) << path;
}

TEST(LintPathRules, ParallelLayerMayOwnThreads) {
    const std::string code = "void f() { std::thread t; t.join(); }\n";
    EXPECT_TRUE(rdp::lint::run_file("src/util/parallel.cpp", code).empty());
    EXPECT_EQ(rdp::lint::run_file("src/router/maze_route.cpp", code).size(),
              1u);
}

TEST(LintPathRules, OnlyTheParallelLayerMayHoldThreadLocals) {
    const std::string code = "thread_local bool in_region = false;\n";
    EXPECT_TRUE(rdp::lint::run_file("src/util/parallel.cpp", code).empty());
    for (const char* path :
         {"src/util/parallel.hpp", "src/router/maze_route.cpp",
          "src/router/global_router.cpp", "src/util/simd.cpp"})
        EXPECT_EQ(rdp::lint::run_file(path, code).size(), 1u) << path;
}

TEST(LintPathRules, AtomicWriteLayerMayOpenFiles) {
    const std::string code =
        "void f() { std::ofstream os(\"x\"); os << 1; }\n";
    EXPECT_TRUE(rdp::lint::run_file("src/util/io_atomic.cpp", code).empty());
    EXPECT_EQ(rdp::lint::run_file("src/db/netlist_io.cpp", code).size(), 1u);
}

TEST(LintPathRules, AllocRuleOnlyAppliesToKernelHeaders) {
    const std::string code =
        "inline void f(std::vector<double>& v) { v.push_back(1.0); }\n";
    EXPECT_FALSE(rdp::lint::run_file("src/fft/fft_kernel.hpp", code).empty());
    EXPECT_TRUE(rdp::lint::run_file("src/fft/fft.cpp", code).empty());
}

// ---- the real tree must be clean ------------------------------------------

TEST(LintFullTree, SrcIsClean) {
    const fs::path src_dir = RDP_SRC_DIR;
    ASSERT_TRUE(fs::exists(src_dir)) << src_dir;
    size_t files = 0;
    std::vector<Finding> all;
    for (const auto& entry : fs::recursive_directory_iterator(src_dir)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".cpp" && ext != ".hpp") continue;
        ++files;
        const auto findings = rdp::lint::run_file(entry.path().string(),
                                                  read_file(entry.path()));
        all.insert(all.end(), findings.begin(), findings.end());
    }
    EXPECT_GT(files, 50u) << "src/ scan looks incomplete";
    std::ostringstream report;
    for (const Finding& f : all)
        report << f.file << ":" << f.line << ": [" << f.check << "] "
               << f.message << "\n";
    EXPECT_TRUE(all.empty()) << "determinism-contract violations in src/:\n"
                             << report.str();
}
