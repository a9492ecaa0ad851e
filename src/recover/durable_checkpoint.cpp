#include "recover/durable_checkpoint.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "recover/kill_points.hpp"
#include "util/io_atomic.hpp"

namespace rdp::recover {

namespace {

// ---- binary layout --------------------------------------------------------
// Header (48 bytes, checksummed over its first 40):
//   magic[8] version:u32 nsections:u32 fingerprint:u64 generation:u64
//   stage:i32 iter:i32 header_cksum:u64
// Then `nsections` sections, each:
//   tag:u32 pad:u32 payload_size:u64 payload_cksum:u64 payload[...]
// All integers and doubles are host-endian: a checkpoint is a per-host
// artifact (written and resumed on the same machine), not an interchange
// format, and memcpy'ing native representations keeps the resume bitwise
// trivially faithful.

constexpr char kMagic[8] = {'R', 'D', 'P', 'C', 'K', 'P', 'T', '\0'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderSize = 48;
constexpr size_t kSectionHeaderSize = 24;

enum SectionTag : uint32_t {
    kSecMeta = 1,
    kSecPos = 2,
    kSecOpt = 3,
    kSecInfl = 4,
    kSecBest = 5,
    kSecMaps = 6,
    kSecHist = 7,
};
constexpr uint32_t kSectionTags[] = {kSecMeta, kSecPos,  kSecOpt, kSecInfl,
                                     kSecBest, kSecMaps, kSecHist};
constexpr uint32_t kSectionCount =
    static_cast<uint32_t>(sizeof(kSectionTags) / sizeof(kSectionTags[0]));

// Writer and Reader share one overload set per field type, so a single
// field list (section_fields) drives both directions.
struct Writer {
    std::vector<uint8_t> out;

    void bytes(const void* p, size_t n) {
        const auto* b = static_cast<const uint8_t*>(p);
        out.insert(out.end(), b, b + n);
    }
    void u32(uint32_t v) { bytes(&v, 4); }
    void u64(uint64_t v) { bytes(&v, 8); }
    void operator()(int v) {
        const int32_t x = v;
        bytes(&x, 4);
    }
    void operator()(double v) { bytes(&v, 8); }
    void operator()(bool v) {
        const uint8_t x = v ? 1 : 0;
        bytes(&x, 1);
    }
    void operator()(const std::vector<double>& v) {
        u64(v.size());
        if (!v.empty()) bytes(v.data(), v.size() * sizeof(double));
    }
    void operator()(const std::vector<Vec2>& v) {
        u64(v.size());
        for (const Vec2& p : v) {
            (*this)(p.x);
            (*this)(p.y);
        }
    }
    void operator()(const GridF& g) {
        (*this)(g.width());
        (*this)(g.height());
        if (!g.raw().empty())
            bytes(g.raw().data(), g.raw().size() * sizeof(double));
    }
    void operator()(const InflationSnapshot& s) {
        (*this)(s.r);
        (*this)(s.dr);
        (*this)(s.prev_c);
        (*this)(s.prev_avg);
        (*this)(s.t);
    }
};

struct Reader {
    const uint8_t* p = nullptr;
    size_t n = 0;
    size_t pos = 0;
    bool ok = true;

    size_t remaining() const { return n - pos; }
    bool take(void* dst, size_t k) {
        if (!ok || k > remaining()) {
            ok = false;
            return false;
        }
        std::memcpy(dst, p + pos, k);
        pos += k;
        return true;
    }
    uint32_t u32() {
        uint32_t v = 0;
        take(&v, 4);
        return v;
    }
    uint64_t u64() {
        uint64_t v = 0;
        take(&v, 8);
        return v;
    }
    void operator()(int& v) {
        int32_t x = 0;
        take(&x, 4);
        v = x;
    }
    void operator()(double& v) { take(&v, 8); }
    void operator()(bool& v) {
        uint8_t x = 0;
        take(&x, 1);
        v = x != 0;
    }
    // Element counts are bounds-checked against the bytes actually present
    // before any allocation: a corrupt count must fail cleanly, not OOM.
    void operator()(std::vector<double>& v) {
        const uint64_t c = u64();
        if (!ok || c > remaining() / sizeof(double)) {
            ok = false;
            return;
        }
        v.assign(static_cast<size_t>(c), 0.0);
        if (c > 0) take(v.data(), v.size() * sizeof(double));
    }
    void operator()(std::vector<Vec2>& v) {
        const uint64_t c = u64();
        if (!ok || c > remaining() / (2 * sizeof(double))) {
            ok = false;
            return;
        }
        v.assign(static_cast<size_t>(c), Vec2{});
        for (Vec2& q : v) {
            (*this)(q.x);
            (*this)(q.y);
        }
    }
    void operator()(GridF& g) {
        int w = 0;
        int h = 0;
        (*this)(w);
        (*this)(h);
        if (!ok || w < 0 || h < 0 ||
            (w > 0 &&
             static_cast<uint64_t>(w) * static_cast<uint64_t>(h) >
                 remaining() / sizeof(double))) {
            ok = false;
            return;
        }
        g = GridF(w, h);
        if (!g.raw().empty())
            take(g.raw().data(), g.raw().size() * sizeof(double));
    }
    void operator()(InflationSnapshot& s) {
        (*this)(s.r);
        (*this)(s.dr);
        (*this)(s.prev_c);
        (*this)(s.prev_avg);
        (*this)(s.t);
    }
};

/// The fields of section `tag` in layout order, visited by a Writer (with
/// a const snapshot) or a Reader. False for an unknown tag.
template <typename IO, typename Snap>
bool section_fields(uint32_t tag, IO& io, Snap& s) {
    switch (tag) {
        case kSecMeta:
            io(s.cur.lambda1);
            io(s.cur.gamma);
            io(s.lambda1_growth);
            io(s.initial_step);
            io(s.cur.last_wl);
            io(s.best_metric);
            io(s.best.overflow);
            io(s.best.extra_area);
            io(s.router_overflow_penalty);
            io(s.best.iter);
            io(s.stall);
            io(s.dc);
            io(s.dpa);
            io(s.use_ckpt_cmap);
            io(s.router_layer_capacity);
            return true;
        case kSecPos:
            io(s.cur.pos);
            return true;
        case kSecOpt:
            io(s.opt.u);
            io(s.opt.v);
            io(s.opt.prev_v);
            io(s.opt.prev_g);
            io(s.opt.a);
            io(s.opt.k);
            io(s.opt.last_alpha);
            io(s.opt.have_prev);
            return true;
        case kSecInfl:
            io(s.cur.ratios);
            io(s.cur.inflation);
            return true;
        case kSecBest:
            io(s.best.at.pos);
            io(s.best.at.ratios);
            io(s.best.at.inflation);
            return true;
        case kSecMaps:
            io(s.extra);
            io(s.cmap_demand);
            io(s.cmap_capacity);
            return true;
        case kSecHist:
            io(s.osc_window);
            return true;
        default:
            return false;
    }
}

bool parse_section(uint32_t tag, Reader& r, PipelineSnapshot& s) {
    // The payload length must match the fields exactly: trailing bytes
    // mean the writer and reader disagree about the format.
    return section_fields(tag, r, s) && r.ok && r.remaining() == 0;
}

bool fail(std::string* error, const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
}

std::optional<std::vector<uint8_t>> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::vector<uint8_t> bytes{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
    if (in.bad()) return std::nullopt;
    return bytes;
}

/// Generation of a structurally plausible snapshot, ignoring fingerprint
/// and section payloads: used at construction to continue the sequence
/// past whatever the directory already holds (even foreign snapshots —
/// our new generations must outrank them at the next "auto" resume).
std::optional<uint64_t> peek_generation(const std::vector<uint8_t>& bytes) {
    if (bytes.size() < kHeaderSize) return std::nullopt;
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return std::nullopt;
    uint64_t stored_cksum = 0;
    std::memcpy(&stored_cksum, bytes.data() + 40, 8);
    if (fnv1a64(bytes.data(), 40) != stored_cksum) return std::nullopt;
    uint64_t generation = 0;
    std::memcpy(&generation, bytes.data() + 24, 8);
    return generation;
}

}  // namespace

uint64_t fnv1a64(const void* data, size_t n, uint64_t seed) {
    constexpr uint64_t kPrime = 1099511628211ull;
    const auto* p = static_cast<const uint8_t*>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kPrime;
    }
    return h;
}

std::vector<uint8_t> serialize_snapshot(const PipelineSnapshot& snap,
                                        uint64_t fingerprint,
                                        uint64_t generation) {
    Writer w;
    w.bytes(kMagic, sizeof(kMagic));
    w.u32(kVersion);
    w.u32(kSectionCount);
    w.u64(fingerprint);
    w.u64(generation);
    w(snap.stage);
    w(snap.iter);
    w.u64(fnv1a64(w.out.data(), w.out.size()));
    for (const uint32_t tag : kSectionTags) {
        Writer sec;
        section_fields(tag, sec, snap);
        const std::vector<uint8_t>& payload = sec.out;
        w.u32(tag);
        w.u32(0);
        w.u64(payload.size());
        w.u64(fnv1a64(payload.data(), payload.size()));
        w.bytes(payload.data(), payload.size());
    }
    return w.out;
}

bool deserialize_snapshot(const std::vector<uint8_t>& bytes,
                          uint64_t fingerprint, PipelineSnapshot* out,
                          uint64_t* generation, std::string* error) {
    if (bytes.size() < kHeaderSize)
        return fail(error, "file shorter than the snapshot header");
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return fail(error, "bad magic (not an RDP checkpoint)");
    Reader r{bytes.data(), bytes.size(), sizeof(kMagic), true};
    const uint32_t version = r.u32();
    const uint32_t nsections = r.u32();
    const uint64_t fp = r.u64();
    const uint64_t gen = r.u64();
    PipelineSnapshot snap;
    r(snap.stage);
    r(snap.iter);
    const uint64_t header_cksum = r.u64();
    if (fnv1a64(bytes.data(), 40) != header_cksum)
        return fail(error, "header checksum mismatch");
    if (version != kVersion)
        return fail(error,
                    "unsupported format version " + std::to_string(version));
    if (fp != fingerprint)
        return fail(error,
                    "design/config fingerprint mismatch (snapshot is from "
                    "a different design, seed, or configuration)");
    for (uint32_t i = 0; i < nsections; ++i) {
        if (r.remaining() < kSectionHeaderSize)
            return fail(error, "truncated section table");
        const uint32_t tag = r.u32();
        // The pad is always written as zero; the section headers carry no
        // checksum of their own, so validating it closes the one window
        // where a bit flip could go unnoticed (harmlessly, but noisily is
        // better than silently).
        if (r.u32() != 0)
            return fail(error, "section " + std::to_string(tag) +
                                   " header corrupted (nonzero pad)");
        const uint64_t size = r.u64();
        const uint64_t cksum = r.u64();
        if (size > r.remaining())
            return fail(error, "section " + std::to_string(tag) +
                                   " truncated (payload past end of file)");
        if (fnv1a64(bytes.data() + r.pos, static_cast<size_t>(size)) != cksum)
            return fail(error, "section " + std::to_string(tag) +
                                   " checksum mismatch");
        Reader sec{bytes.data() + r.pos, static_cast<size_t>(size), 0, true};
        if (!parse_section(tag, sec, snap))
            return fail(error, "section " + std::to_string(tag) +
                                   " malformed or unknown");
        r.pos += static_cast<size_t>(size);
    }
    if (r.remaining() != 0)
        return fail(error, "trailing bytes after the last section");
    if (out != nullptr) *out = std::move(snap);
    if (generation != nullptr) *generation = gen;
    return true;
}

DurableCheckpointer::DurableCheckpointer(const DurableOptions& opts,
                                         uint64_t fingerprint)
    : opts_(opts), fingerprint_(fingerprint) {
    if (opts_.dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(opts_.dir, ec);
    if (ec) {
        std::cerr << "[W] durable checkpointing disabled: cannot create '"
                  << opts_.dir << "' (" << ec.message()
                  << "); continuing with in-memory recovery only\n";
        degraded_ = true;
        return;
    }
    for (uint64_t slot = 0; slot < 2; ++slot) {
        if (const auto bytes = read_file(slot_path(slot)))
            if (const auto gen = peek_generation(*bytes))
                generation_ = std::max(generation_, *gen);
    }
}

std::string DurableCheckpointer::slot_path(uint64_t generation) const {
    return opts_.dir + (generation % 2 == 0 ? "/ckpt-a.bin" : "/ckpt-b.bin");
}

void DurableCheckpointer::save(const PipelineSnapshot& snap) {
    if (!enabled()) return;
    const uint64_t gen = generation_ + 1;
    const std::vector<uint8_t> bytes =
        serialize_snapshot(snap, fingerprint_, gen);
    io::AtomicWriteOptions wopts;
    wopts.durable = true;
    wopts.mid_write = [] { crash::maybe_kill("ckpt-mid-write"); };
    std::string err;
    if (!io::atomic_write(slot_path(gen), bytes.data(), bytes.size(), &err,
                          wopts)) {
        std::cerr << "[W] durable checkpointing disabled: " << err
                  << "; continuing with in-memory recovery only\n";
        degraded_ = true;
        return;
    }
    generation_ = gen;
    crash::maybe_kill("ckpt-post-write");
}

std::optional<PipelineSnapshot> DurableCheckpointer::load_resume() {
    if (opts_.resume.empty()) return std::nullopt;
    if (opts_.resume != "auto") {
        const auto bytes = read_file(opts_.resume);
        if (!bytes) {
            std::cerr << "[W] RDP_RESUME: cannot read '" << opts_.resume
                      << "'; starting fresh\n";
            return std::nullopt;
        }
        PipelineSnapshot snap;
        uint64_t gen = 0;
        std::string err;
        if (!deserialize_snapshot(*bytes, fingerprint_, &snap, &gen, &err)) {
            std::cerr << "[W] RDP_RESUME: checkpoint '" << opts_.resume
                      << "' rejected: " << err << "; starting fresh\n";
            return std::nullopt;
        }
        generation_ = std::max(generation_, gen);
        std::cerr << "[I] resuming from '" << opts_.resume << "' (stage "
                  << snap.stage << ", iteration " << snap.iter << ")\n";
        return snap;
    }
    if (opts_.dir.empty()) {
        std::cerr << "[W] RDP_RESUME=auto needs RDP_CHECKPOINT_DIR; "
                     "starting fresh\n";
        return std::nullopt;
    }
    std::optional<PipelineSnapshot> best;
    uint64_t best_gen = 0;
    for (uint64_t slot = 0; slot < 2; ++slot) {
        const std::string path = slot_path(slot);
        const auto bytes = read_file(path);
        if (!bytes) continue;
        PipelineSnapshot snap;
        uint64_t gen = 0;
        std::string err;
        if (!deserialize_snapshot(*bytes, fingerprint_, &snap, &gen, &err)) {
            std::cerr << "[W] checkpoint '" << path << "' rejected: " << err
                      << "; trying the previous generation\n";
            continue;
        }
        if (!best || gen > best_gen) {
            best = std::move(snap);
            best_gen = gen;
        }
    }
    if (!best) {
        std::cerr << "[W] RDP_RESUME=auto: no usable checkpoint in '"
                  << opts_.dir << "'; starting fresh\n";
        return std::nullopt;
    }
    generation_ = std::max(generation_, best_gen);
    std::cerr << "[I] resuming from generation " << best_gen << " (stage "
              << best->stage << ", iteration " << best->iter << ")\n";
    return best;
}

}  // namespace rdp::recover
