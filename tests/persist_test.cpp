// Durable crash-consistent checkpointing (DESIGN.md §16), both layers:
//
//  * In-process: the snapshot format round-trips bitwise, every section's
//    checksum catches byte flips, truncation anywhere is detected, the
//    two-slot journal alternates and resumes the newest valid generation,
//    and I/O failure degrades loudly to in-memory-only recovery.
//  * End-to-end (POSIX): a child `place_file` run is killed at every
//    RDP_CRASH site, resumed with --resume=auto, and the resumed run's
//    final placement must be byte-for-byte identical to the uninterrupted
//    reference, and corrupted/truncated journals must fall back (or start
//    clean), never crash or produce silent garbage.
//
// `ctest -L persist` selects this suite; run_checks.sh also drives the
// label under ASan+UBSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "db/netlist_io.hpp"
#include "recover/durable_checkpoint.hpp"
#include "recover/kill_points.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define RDP_PERSIST_CHILD_TESTS 1
#endif

namespace fs = std::filesystem;

namespace rdp {
namespace {

using recover::DurableCheckpointer;
using recover::DurableOptions;
using recover::PipelineSnapshot;

constexpr uint64_t kFingerprint = 0x1234abcd5678ef01ull;
constexpr size_t kHeaderSize = 48;
constexpr size_t kSectionHeaderSize = 24;

/// A snapshot with every field populated (no zero-default left that a
/// broken round-trip could hide behind).
PipelineSnapshot make_snapshot() {
    PipelineSnapshot s;
    s.stage = recover::kStageRoutability;
    s.iter = 7;
    s.cur.lambda1 = 3.25;
    s.cur.gamma = 41.5;
    s.lambda1_growth = 1.05;
    s.initial_step = 2.5e-4;
    s.cur.last_wl = 123456.75;
    s.cur.pos = {{1.5, 2.5}, {3.0, -4.0}, {5.25, 6.125}};
    s.opt.u = {{0.5, 0.25}, {1.0, 2.0}, {3.5, 4.5}};
    s.opt.v = {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}};
    s.opt.prev_v = {{9.0, 8.0}, {7.0, 6.0}, {5.0, 4.0}};
    s.opt.prev_g = {{-1.0, -2.0}, {-3.0, -4.0}, {-5.0, -6.0}};
    s.opt.a = 5.5;
    s.opt.k = 12;
    s.opt.last_alpha = 0.0625;
    s.opt.have_prev = true;
    s.cur.ratios = {1.0, 1.25, 1.5};
    s.cur.inflation.r = {1.0, 1.1, 1.2};
    s.cur.inflation.dr = {0.0, 0.05, 0.1};
    s.cur.inflation.prev_c = {0.5, 0.6, 0.7};
    s.cur.inflation.prev_avg = 0.375;
    s.cur.inflation.t = 3;
    s.best.at.pos = {{10.0, 20.0}, {30.0, 40.0}, {50.0, 60.0}};
    s.best.at.ratios = {1.0, 1.0, 1.125};
    s.best.at.inflation = s.cur.inflation;
    s.best.at.inflation.t = 2;
    s.best_metric = 77.5;
    s.best.overflow = 88.25;
    s.best.extra_area = 12.5;
    s.best.iter = 4;
    s.stall = 1;
    s.dc = true;
    s.dpa = true;
    s.use_ckpt_cmap = true;
    s.router_overflow_penalty = 2.5;
    s.router_layer_capacity = {12.0, 14.0};
    s.extra = GridF(2, 2);
    s.extra.at(0, 0) = 0.5;
    s.extra.at(1, 1) = 0.75;
    s.cmap_demand = GridF(3, 2);
    s.cmap_demand.at(2, 1) = 9.5;
    s.cmap_capacity = GridF(3, 2);
    s.cmap_capacity.at(0, 0) = 16.0;
    s.osc_window = {1.0, 64.0, 1.5, 63.5};
    return s;
}

void expect_snapshot_eq(const PipelineSnapshot& a, const PipelineSnapshot& b) {
    EXPECT_EQ(a.stage, b.stage);
    EXPECT_EQ(a.iter, b.iter);
    EXPECT_EQ(a.cur.lambda1, b.cur.lambda1);
    EXPECT_EQ(a.cur.gamma, b.cur.gamma);
    EXPECT_EQ(a.lambda1_growth, b.lambda1_growth);
    EXPECT_EQ(a.initial_step, b.initial_step);
    EXPECT_EQ(a.cur.last_wl, b.cur.last_wl);
    EXPECT_EQ(a.cur.pos, b.cur.pos);
    EXPECT_EQ(a.opt.u, b.opt.u);
    EXPECT_EQ(a.opt.v, b.opt.v);
    EXPECT_EQ(a.opt.prev_v, b.opt.prev_v);
    EXPECT_EQ(a.opt.prev_g, b.opt.prev_g);
    EXPECT_EQ(a.opt.a, b.opt.a);
    EXPECT_EQ(a.opt.k, b.opt.k);
    EXPECT_EQ(a.opt.last_alpha, b.opt.last_alpha);
    EXPECT_EQ(a.opt.have_prev, b.opt.have_prev);
    EXPECT_EQ(a.cur.ratios, b.cur.ratios);
    EXPECT_EQ(a.cur.inflation.r, b.cur.inflation.r);
    EXPECT_EQ(a.cur.inflation.dr, b.cur.inflation.dr);
    EXPECT_EQ(a.cur.inflation.prev_c, b.cur.inflation.prev_c);
    EXPECT_EQ(a.cur.inflation.prev_avg, b.cur.inflation.prev_avg);
    EXPECT_EQ(a.cur.inflation.t, b.cur.inflation.t);
    EXPECT_EQ(a.best.at.pos, b.best.at.pos);
    EXPECT_EQ(a.best.at.ratios, b.best.at.ratios);
    EXPECT_EQ(a.best.at.inflation.r, b.best.at.inflation.r);
    EXPECT_EQ(a.best.at.inflation.t, b.best.at.inflation.t);
    EXPECT_EQ(a.best_metric, b.best_metric);
    EXPECT_EQ(a.best.overflow, b.best.overflow);
    EXPECT_EQ(a.best.extra_area, b.best.extra_area);
    EXPECT_EQ(a.best.iter, b.best.iter);
    EXPECT_EQ(a.stall, b.stall);
    EXPECT_EQ(a.dc, b.dc);
    EXPECT_EQ(a.dpa, b.dpa);
    EXPECT_EQ(a.use_ckpt_cmap, b.use_ckpt_cmap);
    EXPECT_EQ(a.router_overflow_penalty, b.router_overflow_penalty);
    EXPECT_EQ(a.router_layer_capacity, b.router_layer_capacity);
    EXPECT_EQ(a.extra.raw(), b.extra.raw());
    EXPECT_EQ(a.cmap_demand.raw(), b.cmap_demand.raw());
    EXPECT_EQ(a.cmap_capacity.raw(), b.cmap_capacity.raw());
    EXPECT_EQ(a.osc_window, b.osc_window);
}

/// (tag, payload offset, payload size) of every section in `bytes`.
struct SectionSpan {
    uint32_t tag;
    size_t offset;
    size_t size;
};

std::vector<SectionSpan> section_spans(const std::vector<uint8_t>& bytes) {
    std::vector<SectionSpan> spans;
    uint32_t nsections = 0;
    std::memcpy(&nsections, bytes.data() + 12, 4);
    size_t pos = kHeaderSize;
    for (uint32_t i = 0; i < nsections; ++i) {
        SectionSpan span;
        std::memcpy(&span.tag, bytes.data() + pos, 4);
        uint64_t size = 0;
        std::memcpy(&size, bytes.data() + pos + 8, 8);
        span.offset = pos + kSectionHeaderSize;
        span.size = static_cast<size_t>(size);
        spans.push_back(span);
        pos = span.offset + span.size;
    }
    return spans;
}

std::string fresh_dir(const std::string& leaf) {
#ifdef RDP_PERSIST_CHILD_TESTS
    const std::string run = "rdp_persist_" + std::to_string(::getpid());
#else
    const std::string run = "rdp_persist";
#endif
    const fs::path dir = fs::path(testing::TempDir()) / run / leaf;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void flip_byte(const std::string& path, size_t offset) {
    std::string bytes = read_bytes(path);
    ASSERT_LT(offset, bytes.size());
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Snapshot format
// ---------------------------------------------------------------------------

TEST(PersistFormat, RoundTripsEveryFieldBitwise) {
    const PipelineSnapshot in = make_snapshot();
    const std::vector<uint8_t> bytes =
        recover::serialize_snapshot(in, kFingerprint, 9);
    PipelineSnapshot out;
    uint64_t gen = 0;
    std::string err;
    ASSERT_TRUE(
        recover::deserialize_snapshot(bytes, kFingerprint, &out, &gen, &err))
        << err;
    EXPECT_EQ(gen, 9u);
    expect_snapshot_eq(in, out);
}

TEST(PersistFormat, SnapshotLayoutIsPinned) {
    // The kVersion-1 byte layout is a contract with every journal already
    // on disk: the same snapshot must serialize to the same bytes.
    const std::vector<uint8_t> bytes =
        recover::serialize_snapshot(make_snapshot(), kFingerprint, 1);
    const uint64_t digest = recover::fnv1a64(bytes.data(), bytes.size());
    EXPECT_EQ(digest, 0xed5147cc9cb78935ull) << std::hex << "actual digest 0x" << digest;
}

TEST(PersistFormat, RejectsForeignFingerprint) {
    const std::vector<uint8_t> bytes =
        recover::serialize_snapshot(make_snapshot(), kFingerprint, 1);
    std::string err;
    EXPECT_FALSE(recover::deserialize_snapshot(bytes, kFingerprint + 1,
                                               nullptr, nullptr, &err));
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

TEST(PersistFormat, RejectsBadMagicAndHeaderFlips) {
    std::vector<uint8_t> bytes =
        recover::serialize_snapshot(make_snapshot(), kFingerprint, 1);
    std::string err;
    {
        std::vector<uint8_t> bad = bytes;
        bad[2] ^= 0xff;  // inside the magic
        EXPECT_FALSE(recover::deserialize_snapshot(bad, kFingerprint, nullptr,
                                                   nullptr, &err));
        EXPECT_NE(err.find("magic"), std::string::npos) << err;
    }
    // Every non-magic header byte (version, nsections, fingerprint,
    // generation, stage/iter cursor, the checksum itself) is covered.
    for (size_t off = 8; off < kHeaderSize; ++off) {
        std::vector<uint8_t> bad = bytes;
        bad[off] ^= 0x5a;
        EXPECT_FALSE(recover::deserialize_snapshot(bad, kFingerprint, nullptr,
                                                   nullptr, &err))
            << "header byte " << off << " flip went undetected";
    }
}

TEST(PersistFormat, EverySectionChecksumCatchesFlips) {
    const std::vector<uint8_t> bytes =
        recover::serialize_snapshot(make_snapshot(), kFingerprint, 1);
    const std::vector<SectionSpan> spans = section_spans(bytes);
    EXPECT_EQ(spans.size(), 7u);
    for (const SectionSpan& span : spans) {
        ASSERT_GT(span.size, 0u) << "section " << span.tag;
        // First, middle, and last byte of every payload.
        for (const size_t at :
             {span.offset, span.offset + span.size / 2,
              span.offset + span.size - 1}) {
            std::vector<uint8_t> bad = bytes;
            bad[at] ^= 0x5a;
            std::string err;
            EXPECT_FALSE(recover::deserialize_snapshot(
                bad, kFingerprint, nullptr, nullptr, &err))
                << "section " << span.tag << " flip at " << at;
            EXPECT_NE(err.find("checksum"), std::string::npos)
                << "section " << span.tag << ": " << err;
        }
    }
}

TEST(PersistFormat, TruncationAnywhereIsDetected) {
    const std::vector<uint8_t> bytes =
        recover::serialize_snapshot(make_snapshot(), kFingerprint, 1);
    // A sweep of prefixes: inside the header, header-only, mid-section
    // table, mid-payload, one byte short of complete.
    for (const size_t len :
         {size_t{0}, size_t{7}, kHeaderSize - 1, kHeaderSize,
          kHeaderSize + kSectionHeaderSize - 1, bytes.size() / 2,
          bytes.size() - 1}) {
        const std::vector<uint8_t> cut(bytes.begin(),
                                       bytes.begin() + static_cast<long>(len));
        std::string err;
        EXPECT_FALSE(recover::deserialize_snapshot(cut, kFingerprint, nullptr,
                                                   nullptr, &err))
            << "truncation to " << len << " bytes went undetected";
        EXPECT_FALSE(err.empty());
    }
    // Trailing garbage is rejected too, not silently ignored.
    std::vector<uint8_t> fat = bytes;
    fat.push_back(0x42);
    std::string err;
    EXPECT_FALSE(recover::deserialize_snapshot(fat, kFingerprint, nullptr,
                                               nullptr, &err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Two-slot generation journal
// ---------------------------------------------------------------------------

TEST(PersistJournal, SlotsAlternateAndAutoResumePicksNewest) {
    const std::string dir = fresh_dir("journal");
    DurableOptions opts;
    opts.dir = dir;
    opts.resume = "auto";
    DurableCheckpointer writer(opts, kFingerprint);
    ASSERT_TRUE(writer.enabled());
    EXPECT_EQ(writer.generation(), 0u);

    PipelineSnapshot snap = make_snapshot();
    snap.iter = 1;
    writer.save(snap);
    EXPECT_EQ(writer.generation(), 1u);
    snap.iter = 2;
    writer.save(snap);
    EXPECT_EQ(writer.generation(), 2u);
    EXPECT_TRUE(fs::exists(dir + "/ckpt-a.bin"));
    EXPECT_TRUE(fs::exists(dir + "/ckpt-b.bin"));
    EXPECT_NE(writer.slot_path(1), writer.slot_path(2));

    // A fresh process: construction rescans the journal, resume returns
    // the newest generation, and the next save continues the sequence.
    DurableCheckpointer reader(opts, kFingerprint);
    EXPECT_EQ(reader.generation(), 2u);
    const auto resumed = reader.load_resume();
    ASSERT_TRUE(resumed.has_value());
    EXPECT_EQ(resumed->iter, 2);
    snap.iter = 3;
    reader.save(snap);
    EXPECT_EQ(reader.generation(), 3u);
}

TEST(PersistJournal, CorruptNewestFallsBackToPreviousGeneration) {
    const std::string dir = fresh_dir("journal_fallback");
    DurableOptions opts;
    opts.dir = dir;
    opts.resume = "auto";
    DurableCheckpointer writer(opts, kFingerprint);
    PipelineSnapshot snap = make_snapshot();
    snap.iter = 1;
    writer.save(snap);
    snap.iter = 2;
    writer.save(snap);

    // Generation 2 lives in slot_path(2); damage a payload byte.
    flip_byte(writer.slot_path(2), kHeaderSize + kSectionHeaderSize + 3);
    DurableCheckpointer reader(opts, kFingerprint);
    const auto resumed = reader.load_resume();
    ASSERT_TRUE(resumed.has_value());
    EXPECT_EQ(resumed->iter, 1);
}

TEST(PersistJournal, BothGenerationsCorruptMeansCleanStart) {
    const std::string dir = fresh_dir("journal_clean");
    DurableOptions opts;
    opts.dir = dir;
    opts.resume = "auto";
    DurableCheckpointer writer(opts, kFingerprint);
    PipelineSnapshot snap = make_snapshot();
    writer.save(snap);
    writer.save(snap);
    flip_byte(writer.slot_path(1), kHeaderSize + 5);
    flip_byte(writer.slot_path(2), kHeaderSize + 5);
    DurableCheckpointer reader(opts, kFingerprint);
    EXPECT_FALSE(reader.load_resume().has_value());
}

TEST(PersistJournal, ForeignSnapshotsRejectedButNeverOutranked) {
    // A journal written for a different design/config: resume must refuse
    // it, but new saves must still outrank it (generation continues past
    // the foreign files so the next "auto" picks OUR snapshot).
    const std::string dir = fresh_dir("journal_foreign");
    DurableOptions opts;
    opts.dir = dir;
    opts.resume = "auto";
    DurableCheckpointer foreign(opts, kFingerprint + 7);
    PipelineSnapshot snap = make_snapshot();
    foreign.save(snap);
    foreign.save(snap);

    DurableCheckpointer ours(opts, kFingerprint);
    EXPECT_FALSE(ours.load_resume().has_value());
    EXPECT_EQ(ours.generation(), 2u);
    snap.iter = 42;
    ours.save(snap);
    EXPECT_EQ(ours.generation(), 3u);
    DurableCheckpointer again(opts, kFingerprint);
    const auto resumed = again.load_resume();
    ASSERT_TRUE(resumed.has_value());
    EXPECT_EQ(resumed->iter, 42);
}

TEST(PersistJournal, ExplicitPathResumeLoadsThatSnapshot) {
    const std::string dir = fresh_dir("journal_explicit");
    DurableOptions opts;
    opts.dir = dir;
    DurableCheckpointer writer(opts, kFingerprint);
    PipelineSnapshot snap = make_snapshot();
    snap.iter = 11;
    writer.save(snap);

    DurableOptions explicit_opts;
    explicit_opts.dir = dir;
    explicit_opts.resume = writer.slot_path(1);
    DurableCheckpointer reader(explicit_opts, kFingerprint);
    const auto resumed = reader.load_resume();
    ASSERT_TRUE(resumed.has_value());
    EXPECT_EQ(resumed->iter, 11);

    DurableOptions missing = explicit_opts;
    missing.resume = dir + "/no-such-file.bin";
    EXPECT_FALSE(
        DurableCheckpointer(missing, kFingerprint).load_resume().has_value());
}

// ---------------------------------------------------------------------------
// Degradation: I/O failure never kills the run
// ---------------------------------------------------------------------------

TEST(PersistDegrade, UncreatableDirectoryWarnsOnceAndDisables) {
    const std::string parent = fresh_dir("degrade");
    const std::string blocker = parent + "/blocker";
    {
        std::ofstream f(blocker);
        f << "not a directory";
    }
    DurableOptions opts;
    opts.dir = blocker + "/sub";  // mkdir under a regular file must fail
    testing::internal::CaptureStderr();
    DurableCheckpointer ckpt(opts, kFingerprint);
    EXPECT_FALSE(ckpt.enabled());
    ckpt.save(make_snapshot());  // silent no-op, no crash, no second warning
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("durable checkpointing disabled"), std::string::npos)
        << err;
    EXPECT_EQ(err.find("disabled", err.find("disabled") + 1),
              std::string::npos)
        << "warned more than once:\n"
        << err;
}

TEST(PersistDegrade, DisabledByDefault) {
    DurableCheckpointer ckpt;
    EXPECT_FALSE(ckpt.enabled());
    ckpt.save(make_snapshot());  // no directory, no effect
    EXPECT_FALSE(ckpt.load_resume().has_value());
}

// ---------------------------------------------------------------------------
// Kill-point harness plumbing
// ---------------------------------------------------------------------------

TEST(KillPointTest, UnarmedSiteNeverFires) {
    recover::crash::clear();
    recover::crash::maybe_kill("ckpt-mid-write");  // must not exit
    recover::crash::maybe_kill("wl-mid");
    SUCCEED();
}

TEST(KillPointTest, ExitCodeIsDistinctive) {
    // The child-process driver keys on this value; 86 collides with no
    // shell, signal, or sanitizer convention in use here.
    EXPECT_EQ(recover::crash::kExitCode, 86);
}

#ifdef RDP_PERSIST_CHILD_TESTS

// ---------------------------------------------------------------------------
// End-to-end: kill the real binary at every site, resume, compare bytes
// ---------------------------------------------------------------------------

class PersistEndToEnd : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        ASSERT_TRUE(fs::exists(RDP_PLACE_FILE_BIN))
            << RDP_PLACE_FILE_BIN << " was not built";
        dir_ = new std::string(fresh_dir("e2e"));
        GeneratorConfig cfg;
        cfg.name = "persist-e2e";
        cfg.seed = 19;
        cfg.num_cells = 180;
        cfg.num_macros = 1;
        cfg.macro_area_frac = 0.06;
        cfg.utilization = 0.7;
        cfg.num_ios = 8;
        write_design_file(generate_circuit(cfg), design_path());
        // Uninterrupted reference.
        ASSERT_EQ(run_child("", ref_path(), ""), 0);
    }
    static void TearDownTestSuite() {
        delete dir_;
        dir_ = nullptr;
    }

    static std::string design_path() { return *dir_ + "/design.txt"; }
    static std::string ref_path() { return *dir_ + "/ref.txt"; }
    static std::string log_path() { return *dir_ + "/child.log"; }

    /// Run place_file on the shared design. `extra_env` is a shell
    /// prefix like "RDP_CRASH='wl-mid:15'"; `flags` appends CLI options.
    /// Returns the child's exit code (-1 when it did not exit normally).
    static int run_child(const std::string& extra_env,
                         const std::string& out_path,
                         const std::string& flags) {
        const std::string cmd =
            extra_env + " '" + RDP_PLACE_FILE_BIN + "' '" + design_path() +
            "' '" + out_path + "' --bins=16 --seed=7 --wl-iters=60 --route-iters=4"
            " --inner-iters=6 --no-eval " +
            flags + " > '" + log_path() + "' 2>&1";
        const int rc = std::system(cmd.c_str());
        return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    }

    static std::string child_log() { return read_bytes(log_path()); }

    /// Crash at `site`, then resume; the resumed output must match the
    /// uninterrupted reference byte for byte. A non-empty `fault` arms that
    /// RDP_FAULT spec in the killed, the resumed, and a fresh uninterrupted
    /// reference run, so the resume starts from recovery-adjusted state.
    /// Non-empty `run_flags` (e.g. "--rudy") are passed to all three runs
    /// and must change the placement.
    void crash_and_resume(const std::string& site,
                          const std::string& fault = "",
                          const std::string& run_flags = "") {
        const std::string label = site + (fault.empty() ? "" : " " + fault) +
                                  (run_flags.empty() ? "" : " " + run_flags);
        const std::string ckpt = fresh_dir("e2e_" + site + fault + run_flags);
        const std::string out = ckpt + "/out.txt";
        const std::string flags = run_flags + " --checkpoint-dir='" + ckpt +
                                  "' --checkpoint-every=10";
        const std::string fault_env =
            fault.empty() ? "" : "RDP_FAULT='" + fault + "' ";
        std::string ref = ref_path();
        if (!fault.empty() || !run_flags.empty()) {
            ref = ckpt + "/ref.txt";
            ASSERT_EQ(run_child(fault_env, ref, run_flags), 0)
                << label << " reference run failed:\n"
                << child_log();
        }
        ASSERT_EQ(
            run_child(fault_env + "RDP_CRASH='" + site + "'", out, flags),
            recover::crash::kExitCode)
            << label << " did not die at the kill point:\n"
            << child_log();
        EXPECT_FALSE(fs::exists(out))
            << label << ": the killed run must not have published output";
        ASSERT_EQ(run_child(fault_env, out, flags + " --resume=auto"), 0)
            << label << " failed to resume:\n"
            << child_log();
        EXPECT_NE(child_log().find("resuming from generation"),
                  std::string::npos)
            << label << " did not actually resume:\n"
            << child_log();
        EXPECT_TRUE(read_bytes(out) == read_bytes(ref))
            << label << ": resumed placement differs from the "
            << "uninterrupted run";
        if (!run_flags.empty()) {
            EXPECT_FALSE(read_bytes(ref) == read_bytes(ref_path()))
                << label << ": the flags did not change the placement";
        }
    }

    static std::string* dir_;
};

std::string* PersistEndToEnd::dir_ = nullptr;

TEST_F(PersistEndToEnd, CheckpointingIsByteInvisible) {
    // Writing checkpoints must not perturb the placement: same bytes with
    // and without the journal.
    const std::string ckpt = fresh_dir("e2e_noop");
    const std::string out = ckpt + "/out.txt";
    ASSERT_EQ(
        run_child("", out,
                  "--checkpoint-dir='" + ckpt + "' --checkpoint-every=10"),
        0)
        << child_log();
    EXPECT_TRUE(read_bytes(out) == read_bytes(ref_path()));
    EXPECT_TRUE(fs::exists(ckpt + "/ckpt-a.bin"));
}

TEST_F(PersistEndToEnd, MalformedNumericFlagExitsWithUsage) {
    // A bad flag value must stop place_file with the usage line and exit
    // status 2 before it places or writes anything — not abort from an
    // uncaught std::stoi exception.
    for (const std::string flag : {"--bins=abc", "--checkpoint-every=x"}) {
        const std::string out = fresh_dir("e2e_bad_flag") + "/out.txt";
        EXPECT_EQ(run_child("", out, flag), 2) << flag << ":\n"
                                               << child_log();
        EXPECT_NE(child_log().find("usage:"), std::string::npos)
            << flag << ":\n"
            << child_log();
        EXPECT_FALSE(fs::exists(out)) << flag;
    }
}

TEST_F(PersistEndToEnd, KilledMidWirelengthStageResumesBitwise) {
    crash_and_resume("wl-mid:15");
}

TEST_F(PersistEndToEnd, KilledMidRoutabilityStageResumesBitwise) {
    crash_and_resume("route-mid:2");
}

// Resume after a recovery action: the snapshot must carry the rolled-back
// iterate and the damped knobs. Each kill lands after the faulted iteration
// was re-executed — the fault harness is per-process, so a resume from
// before the fault would re-fire it and differ for that reason alone.
TEST_F(PersistEndToEnd, ResumesAfterRoutabilityRollbackBitwise) {
    crash_and_resume("route-mid:4", "routability-gp:gradient-nan:1");
}

TEST_F(PersistEndToEnd, ResumesAfterRouterRelaxationBitwise) {
    crash_and_resume("route-mid:4", "routability-gp:router-no-progress:0");
}

// RUDY congestion in the loop: the map is rebuilt from the restored
// placement on resume and after a rollback.
TEST_F(PersistEndToEnd, KilledMidRoutabilityStageWithRudyResumesBitwise) {
    crash_and_resume("route-mid:2", "", "--rudy");
}

TEST_F(PersistEndToEnd, ResumesAfterRoutabilityRollbackWithRudyBitwise) {
    crash_and_resume("route-mid:4", "routability-gp:gradient-nan:1", "--rudy");
}

TEST_F(PersistEndToEnd, ResumesAfterWirelengthRollbackBitwise) {
    crash_and_resume("wl-mid:55", "wirelength-gp:gradient-nan:20");
}

TEST_F(PersistEndToEnd, KilledMidCheckpointWriteResumesBitwise) {
    // The hardest case: death halfway through the journal write itself —
    // the torn temp file must be ignored and the previous generation used.
    crash_and_resume("ckpt-mid-write:3");
}

TEST_F(PersistEndToEnd, KilledAfterCheckpointPublishResumesBitwise) {
    crash_and_resume("ckpt-post-write:4");
}

TEST_F(PersistEndToEnd, CorruptedNewestGenerationFallsBackBitwise) {
    const std::string ckpt = fresh_dir("e2e_corrupt");
    const std::string out = ckpt + "/out.txt";
    const std::string flags =
        "--checkpoint-dir='" + ckpt + "' --checkpoint-every=10";
    ASSERT_EQ(run_child("", out, flags), 0) << child_log();
    // Damage whichever slot holds the newest generation, then resume.
    const std::string a = read_bytes(ckpt + "/ckpt-a.bin");
    const std::string b = read_bytes(ckpt + "/ckpt-b.bin");
    uint64_t gen_a = 0, gen_b = 0;
    std::memcpy(&gen_a, a.data() + 24, 8);
    std::memcpy(&gen_b, b.data() + 24, 8);
    flip_byte(ckpt + (gen_a > gen_b ? "/ckpt-a.bin" : "/ckpt-b.bin"),
              kHeaderSize + kSectionHeaderSize + 9);
    const std::string out2 = ckpt + "/out2.txt";
    ASSERT_EQ(run_child("", out2, flags + " --resume=auto"), 0)
        << child_log();
    const std::string log = child_log();
    EXPECT_NE(log.find("rejected"), std::string::npos) << log;
    EXPECT_NE(log.find("trying the previous generation"), std::string::npos)
        << log;
    EXPECT_NE(log.find("resuming from generation"), std::string::npos) << log;
    EXPECT_TRUE(read_bytes(out2) == read_bytes(ref_path()));
}

TEST_F(PersistEndToEnd, BothGenerationsUnusableStartsCleanBitwise) {
    const std::string ckpt = fresh_dir("e2e_both_bad");
    const std::string out = ckpt + "/out.txt";
    const std::string flags =
        "--checkpoint-dir='" + ckpt + "' --checkpoint-every=10";
    ASSERT_EQ(run_child("", out, flags), 0) << child_log();
    flip_byte(ckpt + "/ckpt-a.bin", kHeaderSize + 2);
    // Truncate the other mid-payload: a different damage class.
    const std::string b = read_bytes(ckpt + "/ckpt-b.bin");
    {
        std::ofstream trunc(ckpt + "/ckpt-b.bin",
                            std::ios::binary | std::ios::trunc);
        trunc.write(b.data(), static_cast<std::streamsize>(b.size() / 3));
    }
    const std::string out2 = ckpt + "/out2.txt";
    ASSERT_EQ(run_child("", out2, flags + " --resume=auto"), 0)
        << child_log();
    const std::string log = child_log();
    EXPECT_NE(log.find("no usable checkpoint"), std::string::npos) << log;
    EXPECT_TRUE(read_bytes(out2) == read_bytes(ref_path()))
        << "a clean restart must still match the reference bitwise";
}

TEST_F(PersistEndToEnd, UnwritableCheckpointDirDegradesAndFinishes) {
    const std::string parent = fresh_dir("e2e_unwritable");
    const std::string blocker = parent + "/blocker";
    {
        std::ofstream f(blocker);
        f << "file, not dir";
    }
    const std::string out = parent + "/out.txt";
    ASSERT_EQ(run_child("", out,
                        "--checkpoint-dir='" + blocker + "/sub'"),
              0)
        << child_log();
    EXPECT_NE(child_log().find("durable checkpointing disabled"),
              std::string::npos)
        << child_log();
    EXPECT_TRUE(read_bytes(out) == read_bytes(ref_path()))
        << "the degraded run must still place identically";
}

#endif  // RDP_PERSIST_CHILD_TESTS

}  // namespace
}  // namespace rdp
