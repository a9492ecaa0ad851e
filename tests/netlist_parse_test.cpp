// Equivalence harness for the streaming design reader (db/netlist_io.cpp).
//
// The oracle is the iostream reader that read_design replaced: one
// std::istringstream per line, every field parsed with the C-locale
// operator>>. It is kept verbatim apart from the rules both readers gained
// since: the row cap, a number that must end at whitespace, no field left
// over after a directive's last, and a bad pin index anywhere in a net's
// list. Every input below, whether a workload design, a
// fixture or one of the seeded mutants, must give the oracle's outcome
// exactly: a bitwise-equal Design, or a ParseError with the same line and
// reason, or the same other exception.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "benchgen/generator.hpp"
#include "benchgen/ispd_suite.hpp"
#include "db/netlist_io.hpp"
#include "util/rng.hpp"

namespace rdp {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the iostream reader, verbatim
// ---------------------------------------------------------------------------

namespace oracle {

/// operator>> into `v`, which must end at whitespace or at the line's end.
template <typename T>
bool field(std::istream& ss, T& v) {
    return (ss >> v) && (ss.eof() || std::isspace(ss.peek()));
}

CellKind parse_kind(const std::string& s, int line) {
    if (s == "mov") return CellKind::Movable;
    if (s == "fix") return CellKind::Fixed;
    if (s == "mac") return CellKind::Macro;
    throw ParseError(line, "bad cell kind '" + s + "'");
}

Design read_design(std::istream& is) {
    Design d;
    std::string line;
    int line_no = 0;
    int rows_line = 0;
    auto fail = [&](const std::string& msg) {
        throw ParseError(line_no, msg);
    };
    auto finite = [&](double v, const char* what) {
        if (!std::isfinite(v)) fail(std::string("non-finite ") + what);
    };
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ss(line);
        std::string tok;
        ss >> tok;
        if (tok == "design") {
            ss >> d.name;
        } else if (tok == "region") {
            if (!(field(ss, d.region.lx) && field(ss, d.region.ly) &&
                  field(ss, d.region.hx) && field(ss, d.region.hy)))
                fail("bad region");
            finite(d.region.lx, "region coordinate");
            finite(d.region.ly, "region coordinate");
            finite(d.region.hx, "region coordinate");
            finite(d.region.hy, "region coordinate");
            if (d.region.hx <= d.region.lx || d.region.hy <= d.region.ly)
                fail("region has non-positive extent");
            rows_line = line_no;
        } else if (tok == "rowheight") {
            if (!field(ss, d.row_height)) fail("bad rowheight");
            if (!std::isfinite(d.row_height) || d.row_height <= 0.0)
                fail("rowheight must be finite and positive");
            rows_line = line_no;
        } else if (tok == "sitewidth") {
            if (!field(ss, d.site_width)) fail("bad sitewidth");
            if (!std::isfinite(d.site_width) || d.site_width <= 0.0)
                fail("sitewidth must be finite and positive");
        } else if (tok == "cell") {
            std::string nm, kind;
            double w, h, cx, cy;
            if (!((ss >> nm >> kind) && field(ss, w) && field(ss, h) &&
                  field(ss, cx) && field(ss, cy)))
                fail("bad cell");
            finite(w, "cell width");
            finite(h, "cell height");
            finite(cx, "cell position");
            finite(cy, "cell position");
            if (w < 0.0 || h < 0.0) fail("negative cell dimensions");
            d.add_cell(nm, w, h, parse_kind(kind, line_no), {cx, cy});
        } else if (tok == "pin") {
            int cell;
            double dx, dy;
            if (!(field(ss, cell) && field(ss, dx) && field(ss, dy)))
                fail("bad pin");
            if (cell < 0 || cell >= d.num_cells()) fail("pin on missing cell");
            finite(dx, "pin offset");
            finite(dy, "pin offset");
            d.add_pin(cell, {dx, dy});
        } else if (tok == "net") {
            std::string nm;
            double wgt;
            if (!((ss >> nm) && field(ss, wgt))) fail("bad net");
            if (!std::isfinite(wgt) || wgt < 0.0)
                fail("net weight must be finite and non-negative");
            const int net = d.add_net(nm, wgt);
            int pin;
            while (!(ss >> std::ws).eof()) {
                if (!field(ss, pin)) fail("bad pin index");
                if (pin < 0 || pin >= d.num_pins()) fail("net on missing pin");
                if (d.pins[static_cast<size_t>(pin)].net != -1)
                    fail("pin " + std::to_string(pin) +
                         " is already connected");
                d.connect(net, pin);
            }
        } else if (tok == "blockage") {
            Rect b;
            if (!(field(ss, b.lx) && field(ss, b.ly) && field(ss, b.hx) &&
                  field(ss, b.hy)))
                fail("bad blockage");
            finite(b.lx, "blockage coordinate");
            finite(b.ly, "blockage coordinate");
            finite(b.hx, "blockage coordinate");
            finite(b.hy, "blockage coordinate");
            d.routing_blockages.push_back(b);
        } else if (tok == "rail") {
            std::string o;
            Rect b;
            if (!((ss >> o) && field(ss, b.lx) && field(ss, b.ly) &&
                  field(ss, b.hx) && field(ss, b.hy)))
                fail("bad rail");
            if (o != "h" && o != "v")
                fail("bad rail orientation '" + o + "'");
            finite(b.lx, "rail coordinate");
            finite(b.ly, "rail coordinate");
            finite(b.hx, "rail coordinate");
            finite(b.hy, "rail coordinate");
            PGRail r;
            r.box = b;
            r.orient = (o == "h") ? Orient::Horizontal : Orient::Vertical;
            d.pg_rails.push_back(r);
        } else {
            fail("unknown directive '" + tok + "'");
        }
        std::string extra;
        if (ss >> extra) fail("extra field '" + extra + "'");
    }
    // The row cap: at most 1,000,000 rows, named by the last line that set
    // the region or the row height.
    const double rows =
        std::max(std::floor((d.region.hy - d.region.ly) / d.row_height), 0.0);
    if (!(rows <= 1e6))
        throw ParseError(rows_line, "region holds more than 1000000 rows");
    d.build_rows();
    return d;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

template <typename T>
void put(std::string& out, const T& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put(std::string& out, const std::string& s) {
    put(out, s.size());
    out += s;
}
void put(std::string& out, const std::vector<int>& v) {
    put(out, v.size());
    for (int x : v) put(out, x);
}
void put(std::string& out, const Rect& r) {
    put(out, r.lx);
    put(out, r.ly);
    put(out, r.hx);
    put(out, r.hy);
}

/// Every field of a Design as raw bytes: equal strings mean bitwise-equal
/// designs, signed zeros and NaN payloads included.
std::string design_bytes(const Design& d) {
    std::string out;
    put(out, d.name);
    put(out, d.region);
    put(out, d.row_height);
    put(out, d.site_width);
    put(out, d.cells.size());
    for (const Cell& c : d.cells) {
        put(out, c.name);
        put(out, c.width);
        put(out, c.height);
        put(out, static_cast<int>(c.kind));
        put(out, c.pos.x);
        put(out, c.pos.y);
        put(out, c.pins);
    }
    put(out, d.pins.size());
    for (const Pin& p : d.pins) {
        put(out, p.cell);
        put(out, p.net);
        put(out, p.offset.x);
        put(out, p.offset.y);
    }
    put(out, d.nets.size());
    for (const Net& n : d.nets) {
        put(out, n.name);
        put(out, n.pins);
        put(out, n.weight);
    }
    put(out, d.rows.size());
    for (const Row& r : d.rows) {
        put(out, r.y);
        put(out, r.height);
        put(out, r.lx);
        put(out, r.hx);
    }
    put(out, d.pg_rails.size());
    for (const PGRail& r : d.pg_rails) {
        put(out, r.box);
        put(out, static_cast<int>(r.orient));
    }
    put(out, d.routing_blockages.size());
    for (const Rect& b : d.routing_blockages) put(out, b);
    return out;
}

/// What one reader made of one input.
struct Outcome {
    bool parsed = false;
    std::string design;  ///< design_bytes when parsed
    std::string error;   ///< the exception otherwise

    bool operator==(const Outcome& o) const {
        return parsed == o.parsed && design == o.design && error == o.error;
    }
};

template <typename Reader>
Outcome outcome(Reader read, const std::string& text) {
    std::istringstream is(text);
    Outcome o;
    try {
        o.design = design_bytes(read(is));
        o.parsed = true;
    } catch (const ParseError& e) {
        o.error = "ParseError at line " + std::to_string(e.line()) + ": " +
                  e.reason();
    } catch (const std::exception& e) {
        o.error = std::string(typeid(e).name()) + ": " + e.what();
    }
    return o;
}

std::string describe(const Outcome& o) {
    return o.parsed ? "a design of " + std::to_string(o.design.size()) +
                          " bytes"
                    : o.error;
}

/// The reader's outcome on `text`, after checking it against the oracle's.
Outcome expect_same(const std::string& text, const std::string& label) {
    const Outcome want = outcome(oracle::read_design, text);
    const Outcome got =
        outcome([](std::istream& is) { return read_design(is); }, text);
    EXPECT_TRUE(got == want)
        << label << ": oracle gave " << describe(want) << ", reader gave "
        << describe(got) << "\ninput (first 300 bytes): "
        << testing::PrintToString(text.substr(0, 300));
    return got;
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

/// The designs of the four bench_e2e workloads (route_congested and
/// route_congested_1t share one).
struct Workload {
    const char* design;
    double scale;
    uint64_t seed;
};
constexpr Workload kWorkloads[] = {
    {"des_perf_a", 0.5, 12},
    {"superblue12", 1.0, 27},
    {"fft_1", 1.0, 15},
};

/// The workload designs and their texts, generated once per process.
struct Corpus {
    std::vector<Design> designs;
    std::vector<std::string> texts;
};

std::string text_of(const Design& d) {
    std::ostringstream os;
    write_design(d, os);
    return os.str();
}

const Corpus& workloads() {
    static const Corpus corpus = [] {
        Corpus c;
        for (const Workload& w : kWorkloads) {
            SuiteEntry e = suite_entry(w.design, w.scale);
            e.gen.seed = w.seed;
            c.designs.push_back(generate_circuit(e.gen));
            c.texts.push_back(text_of(c.designs.back()));
        }
        return c;
    }();
    return corpus;
}

/// NetlistParseErrorTest's fixtures (recover_test.cpp), as seeds.
const char* const kFixtures[] = {
    "cell broken\n",
    "region 0 0 10 10\ncell a xyz 1 1 5 5\n",
    "region 0 0 10 10\ncell a mov 1 1 five 5\n",
    "region 0 0 10 10\ncell a mov -5 5 0 0\n",
    "region 10 10 0 0\n",
    "rowheight -3\n",
    "sitewidth 0\n",
    "region 0 0 1e999 10\n",
    "region 0 0 10 10\ncell a mov 1 1 5 5\npin 3 0 0\n",
    "region 0 0 10 10\nnet n1 1.0 0\n",
    "region 0 0 10 10\ncell a mov 1 1 5 5\npin 0 0 0\nnet n1 1 0\nnet n2 1 0\n",
    "region 0 0 10 10\nnet n1 -2\n",
    "region 0 0 10 10\ncell a mov 1 1 5 5\npin 0 0 0\nnet n 1 0 junk\n",
    "rail x 0 0 1 1\n",
    "bogus 1 2\n",
};

/// A small, consistent piece of `d` to mutate: `count` cells from `first`
/// on, their pins, every net restricted to those pins, and a few rails and
/// blockages. Small texts keep 10,000 mutants cheap to parse twice.
std::string excerpt(const Design& d, int first, int count, Rng& rng) {
    Design e;
    e.name = d.name;
    e.region = d.region;
    e.row_height = d.row_height;
    e.site_width = d.site_width;
    const int last = std::min(first + count, d.num_cells());
    std::vector<int> pins;  // the kept pins, in index order
    for (int i = first; i < last; ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        e.add_cell(c.name, c.width, c.height, c.kind, c.pos);
        pins.insert(pins.end(), c.pins.begin(), c.pins.end());
    }
    std::sort(pins.begin(), pins.end());
    std::unordered_map<int, int> pin_map;
    std::vector<int> nets;
    for (int p : pins) {
        const Pin& pin = d.pins[static_cast<size_t>(p)];
        pin_map[p] = e.add_pin(pin.cell - first, pin.offset);
        if (pin.net >= 0) nets.push_back(pin.net);
    }
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
    for (int n : nets) {
        const Net& net = d.nets[static_cast<size_t>(n)];
        const int kept = e.add_net(net.name, net.weight);
        for (int p : net.pins)
            if (const auto it = pin_map.find(p); it != pin_map.end())
                e.connect(kept, it->second);
    }
    for (int k = 0; k < 3 && !d.pg_rails.empty(); ++k)
        e.pg_rails.push_back(d.pg_rails[static_cast<size_t>(rng.uniform_int(
            0, static_cast<int>(d.pg_rails.size()) - 1))]);
    e.routing_blockages.push_back({10, 20, 30.25, 40});
    return text_of(e);
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

/// Number spellings where operator>> and from_chars part ways, or nearly.
const std::vector<std::string> kNumbers = [] {
    std::vector<std::string> v = {
        "+5", "+.5", ".5", "5.", "1.e5", ".5e-3", "-0", "+0", "0.0", "-0.0",
        "00012.50",
        "1e-400", "-1e-400", "1e-310", "4.9e-324", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "1.7976931348623157e308",
        "1.7976931348623158e308", "1.7976931348623159e308", "1e308", "1e309",
        "1e999", "-1e999", "inf", "-inf", "+inf", "infinity", "INF", "nan",
        "NaN", "-nan", "nan(0x1)", "1e", "1e+", "1e-", "1E5", "1e+5", "1e5e3",
        "1.2.3", "--1", "+-1", "-+1", "++1", ".", "+", "-", "e5", ".e5",
        "0x10", "0x1p3", "4junk", "4.5junk", "1,5", "1e400x", "1e-400e",
        "1e0000000000000000000000000000005", "1e-99999999999999999999999",
        "1e99999999999999999999999",
        "3.14159265358979323846264338327950288419716939937510",
        "123456789012345678901234567890e-20", "0.1e-323", "10e-325",
        "0.000000000000000000000000000000000000000000001e-280"};
    // Out-of-range mantissas without an exponent, and with a bad one.
    const std::string big = "1" + std::string(400, '0');
    const std::string tiny = "0." + std::string(400, '0') + "1";
    for (const std::string& m : {big, tiny, "-" + tiny})
        for (const char* tail : {"", "e", "e+", "e-1", "e+400", "x"})
            v.push_back(m + tail);
    return v;
}();
/// Huge counts and indices, for the integer fields.
const char* const kIntegers[] = {
    "0", "-0", "+0", "+1", "007", "2147483647", "2147483648",
    "-2147483648", "-2147483649", "4294967296", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809",
    "99999999999999999999999", "1.5", "1e3", "0x1", "1-", "3+4",
};
const char kInterestingBytes[] = {' ',  '\t', '\r', '\n', '\0', '#', '-',
                                  '+',  '.',  'e',  'E',  '0',  '9', 'x',
                                  '\v', '\f', '\x80', '\xff'};

size_t pick_index(Rng& rng, size_t n) {
    return static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
}

template <typename T, size_t N>
const T& pick(Rng& rng, const T (&items)[N]) {
    return items[pick_index(rng, N)];
}
const std::string& pick(Rng& rng, const std::vector<std::string>& items) {
    return items[pick_index(rng, items.size())];
}

struct Line {
    size_t begin, end;  ///< [begin, end), without the '\n'
};

std::vector<Line> lines_of(const std::string& text) {
    std::vector<Line> out;
    size_t at = 0;
    while (at < text.size()) {
        size_t nl = text.find('\n', at);
        if (nl == std::string::npos) nl = text.size();
        out.push_back({at, nl});
        at = nl + 1;
    }
    return out;
}

/// The space-separated fields of one line, as [begin, end) offsets.
std::vector<Line> fields_of(const std::string& text, const Line& l) {
    std::vector<Line> out;
    size_t at = l.begin;
    while (at < l.end) {
        while (at < l.end && text[at] == ' ') ++at;
        const size_t start = at;
        while (at < l.end && text[at] != ' ') ++at;
        if (at > start) out.push_back({start, at});
    }
    return out;
}

/// Applies one random mutation to `text`.
void mutate(std::string& text, Rng& rng) {
    const std::vector<Line> lines = lines_of(text);
    if (lines.empty()) {
        text += pick(rng, kFixtures);
        return;
    }
    const Line& l = lines[pick_index(rng, lines.size())];
    switch (rng.uniform_int(0, 13)) {
        case 0: {  // byte flip, to any byte or to a telling one
            if (l.end == l.begin) return;
            const size_t at = l.begin + pick_index(rng, l.end - l.begin);
            text[at] = rng.bernoulli(0.5)
                           ? static_cast<char>(rng.uniform_int(0, 255))
                           : pick(rng, kInterestingBytes);
            return;
        }
        case 1:  // truncation inside a line
            text.resize(l.begin + pick_index(rng, l.end - l.begin + 1));
            return;
        case 2:  // truncation at a line end
            text.resize(std::min(text.size(), l.end + 1));
            return;
        case 3: {  // a number spelled differently
            const std::vector<Line> f = fields_of(text, l);
            if (f.size() < 2) return;
            const Line& field = f[1 + pick_index(rng, f.size() - 1)];
            text.replace(field.begin, field.end - field.begin,
                         pick(rng, kNumbers));
            return;
        }
        case 4: {  // a huge count or index in an integer field
            const std::vector<Line> f = fields_of(text, l);
            const std::string_view head(text.data() + l.begin,
                                        l.end - l.begin);
            size_t k = 0;
            if (head.rfind("pin ", 0) == 0 && f.size() > 1) {
                k = 1;
            } else if (head.rfind("net ", 0) == 0 && f.size() > 3) {
                k = 3 + pick_index(rng, f.size() - 3);
            } else {
                return;
            }
            text.replace(f[k].begin, f[k].end - f[k].begin,
                         pick(rng, kIntegers));
            return;
        }
        case 5: {  // a tail glued onto a field: "4junk"
            const std::vector<Line> f = fields_of(text, l);
            if (f.empty()) return;
            static const char* const kTails[] = {"junk", "x", "e", ".",
                                                 ".5", "e5", "-", "#"};
            text.insert(f[pick_index(rng, f.size())].end, pick(rng, kTails));
            return;
        }
        case 6: {  // CRLF line endings, everywhere or on one line
            if (rng.bernoulli(0.3)) {
                std::string out;
                out.reserve(text.size() + lines.size());
                for (char c : text) {
                    if (c == '\n') out += '\r';
                    out += c;
                }
                text = std::move(out);
            } else {
                text.insert(l.end, "\r");
            }
            return;
        }
        case 7: {  // a zero-area, inverted or overlong region
            static const char* const kRegions[] = {
                "region 0 0 0 0",    "region 0 0 10 0",   "region 5 5 5 5",
                "region 10 10 0 0",  "region 0 0 -0 1",   "region 0 0 1e-400 1",
                "region 0 0 10 3e9", "rowheight 1e-7"};
            text.insert(l.begin, std::string(pick(rng, kRegions)) + "\n");
            return;
        }
        case 8: {  // a duplicate line: duplicate cell, net or design names
            const std::string copy = text.substr(l.begin, l.end - l.begin);
            text.insert(rng.bernoulli(0.5) ? l.end : text.size(),
                        rng.bernoulli(0.5) ? "\n" + copy : copy + "\n");
            return;
        }
        case 9: {  // whitespace and comment variants
            static const char* const kLines[] = {
                "",   "   ", "\t", "\r", "#", "# comment", " # not a comment",
                "\v", "\f",  " design y", "design", "design  \t"};
            static const char* const kSpaces[] = {"\t", "\v", "\f", "\r",
                                                  "  ", " \t "};
            if (rng.bernoulli(0.5)) {
                text.insert(l.begin, std::string(pick(rng, kLines)) + "\n");
            } else {
                const size_t sp = text.find(' ', l.begin);
                if (sp < l.end) text.replace(sp, 1, pick(rng, kSpaces));
            }
            return;
        }
        case 10: {  // a line or a field removed
            if (rng.bernoulli(0.5)) {
                text.erase(l.begin, std::min(text.size(), l.end + 1) - l.begin);
            } else {
                const std::vector<Line> f = fields_of(text, l);
                if (f.empty()) return;
                const Line& field = f[pick_index(rng, f.size())];
                text.erase(field.begin, field.end - field.begin);
            }
            return;
        }
        case 11: {  // two lines swapped
            const Line& m = lines[pick_index(rng, lines.size())];
            if (m.begin == l.begin) return;
            const Line& a = m.begin < l.begin ? m : l;
            const Line& b = m.begin < l.begin ? l : m;
            const std::string la = text.substr(a.begin, a.end - a.begin);
            const std::string lb = text.substr(b.begin, b.end - b.begin);
            text.replace(b.begin, b.end - b.begin, la);
            text.replace(a.begin, a.end - a.begin, lb);
            return;
        }
        case 12:  // no final newline
            if (!text.empty() && text.back() == '\n') text.pop_back();
            return;
        default: {  // a net listing thousands of pins: a line past 64 KiB
            std::string net = "\nnet huge 1";
            const int n = rng.uniform_int(1, 20000);
            for (int i = 0; i < n; ++i) {
                net += ' ';
                net += std::to_string(i % 97);
            }
            text.insert(l.end, net);
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(ReaderEquivalenceTest, WorkloadDesignsRoundTripBitForBit) {
    for (size_t i = 0; i < std::size(kWorkloads); ++i) {
        const Design& d = workloads().designs[i];
        const std::string& text = workloads().texts[i];
        const Outcome got = expect_same(text, kWorkloads[i].design);
        ASSERT_TRUE(got.parsed) << kWorkloads[i].design << ": " << got.error;
        // write_design -> read_design is the identity, rows included.
        Design want = d;
        want.build_rows();
        EXPECT_TRUE(got.design == design_bytes(want)) << kWorkloads[i].design;
    }
}

TEST(ReaderEquivalenceTest, ReadDesignFileSharesTheParser) {
    const Design& d = workloads().designs[1];  // superblue12
    const std::string path = testing::TempDir() + "rdp_parse_superblue12.txt";
    write_design_file(d, path);
    std::istringstream is(workloads().texts[1]);
    EXPECT_EQ(design_bytes(read_design_file(path)),
              design_bytes(oracle::read_design(is)));
    std::remove(path.c_str());
    EXPECT_THROW(read_design_file(path), std::runtime_error);
}

TEST(ReaderEquivalenceTest, NumberSyntaxMatchesOperatorExtraction) {
    const std::string head = "region 0 0 100 100\ncell a mov 1 1 5 5\n";
    auto read = [](const std::string& text) {
        std::istringstream is(text);
        return read_design(is);
    };
    for (const std::string& s : kNumbers) {
        expect_same(head + "cell b mov 1 1 " + s + " 5\n", "x = " + s);
        expect_same(head + "cell b mov 1 1 5 " + s + "\n", "y = " + s);
        expect_same(head + "cell b mov 1 1 5 " + s + " tail\n", "tail " + s);
        expect_same(head + "pin 0 " + s + " 0\n", "pin dx = " + s);
        expect_same(head + "net n " + s + "\n", "weight = " + s);
        expect_same("region 0 0 " + s + " 100\n", "region = " + s);
        expect_same("rowheight " + s + "\n", "rowheight = " + s);
    }
    for (const char* n : kIntegers) {
        const std::string s(n);
        expect_same(head + "pin " + s + " 0 0\n", "pin cell = " + s);
        expect_same(head + "pin 0 0 0\nnet n 1 " + s + "\n", "net = " + s);
        expect_same(head + "pin 0 0 0\nnet n 1 " + s + " \n", "net_ = " + s);
        expect_same(head + "pin 0 0 0\npin 0 0 0\nnet n 1 " + s + " 1\n",
                    "net 1 = " + s);
    }

    // The cases the reader's number syntax spells out (DESIGN.md).
    const Design d = read(head +
                          "cell b mov +1 .5 5. 1e-400\n"
                          "cell c mov 1 1 -1e-400 4\n"
                          "pin 0 0 0\npin 0 0 0\nnet n 1 0 +1\t\r\n");
    EXPECT_EQ(d.cells[1].width, 1.0);
    EXPECT_EQ(d.cells[1].height, 0.5);
    EXPECT_EQ(d.cells[1].pos.x, 5.0);
    EXPECT_EQ(d.cells[1].pos.y, 0.0);
    EXPECT_FALSE(std::signbit(d.cells[1].pos.y));
    EXPECT_TRUE(std::signbit(d.cells[2].pos.x));
    EXPECT_EQ(d.cells[2].pos.y, 4.0);
    EXPECT_EQ(d.nets[0].pins, (std::vector<int>{0, 1}));
    for (const char* bad : {"inf", "nan", "1e", "1e+", "--1", "1e999"})
        EXPECT_THROW(read(head + "cell b mov 1 1 " + bad + " 5\n"), ParseError)
            << bad;
    EXPECT_THROW(read(head + "pin 2147483648 0 0\n"), ParseError);
    // A number ends at whitespace, a line ends after its last field, and
    // every index of a net's list must parse, the last one included.
    const struct {
        const char* text;
        const char* reason;
    } kRejected[] = {
        {"pin 1.5 0 0\n", "bad pin"},
        {"cell c mov 1 1 5 5junk\n", "bad cell"},
        {"cell c mov 1 1 5 4.5.\n", "bad cell"},
        {"pin 0 0 0\nnet n 1 0junk\n", "bad pin index"},
        {"pin 0 0 0\nnet n 1 0 2147483648\n", "bad pin index"},
        {"pin 0 0 0\nnet n 1 0 +\n", "bad pin index"},
        {"pin 0 0 0\nnet n 1 0 -\r\n", "bad pin index"},
        {"pin 0 0 0 7\n", "extra field '7'"},
        {"cell c mov 1 1 5 5 tail\n", "extra field 'tail'"},
        {"rowheight 1 # comment\n", "extra field '#'"},
    };
    for (const auto& c : kRejected) {
        const Outcome o = expect_same(head + c.text, c.text);
        EXPECT_TRUE(o.error.starts_with("ParseError at line ")) << c.text;
        EXPECT_TRUE(o.error.ends_with(std::string(": ") + c.reason))
            << c.text << " gave " << o.error;
    }
    const Outcome named = expect_same("design a b\n", "two design names");
    EXPECT_EQ(named.error, "ParseError at line 1: extra field 'b'");
}

TEST(ReaderEquivalenceTest, RowCountAboveTheCapIsAParseError) {
    // Each used to reach Design::build_rows: 3e9 rows overflowed its int
    // cast into a std::length_error, 1e7 rows took 308 MiB.
    const struct {
        const char* text;
        int line;
    } kCases[] = {
        {"region 0 0 10 3e9\n", 1},
        {"design d\nregion 0 0 10 1e7\nrowheight 1\n", 3},
        {"rowheight 1e-300\n# the region comes later\nregion 0 0 10 10\n", 3},
        {"region 0 0 10 1000001\n", 1},
        {"region 0 -1e308 10 1e308\n", 1},
        {"region 0 0 10 10\nrowheight 4.9e-324\ncell a mov 1 1 5 5\n", 2},
    };
    for (const auto& c : kCases) {
        SCOPED_TRACE(c.text);
        const Outcome o = expect_same(c.text, "row cap");
        EXPECT_EQ(o.error, "ParseError at line " + std::to_string(c.line) +
                               ": region holds more than 1000000 rows");
    }
    // Rows are counted after the last line: a later row height can bring
    // a large region back under the cap.
    const Outcome o = expect_same(
        "region 0 0 10 3e9\nrowheight 3000\n", "row height after region");
    EXPECT_TRUE(o.parsed) << o.error;
    Design d;
    d.region = {0, 0, 10, 1e6};
    EXPECT_EQ(d.row_count(), Design::kMaxRows);
    d.region.hy = 1e6 + 1;
    EXPECT_THROW(d.build_rows(), std::length_error);
    // An inverted region built in code fails as it did before the cap.
    d.region = {0, 10, 10, 0};
    EXPECT_LT(d.row_count(), 0.0);
    EXPECT_THROW(d.build_rows(), std::length_error);
}

TEST(ReaderEquivalenceTest, LinesAcrossBufferBoundaries) {
    const std::string header = "design b\nregion 0 0 100 100\n";
    const std::string body =
        "cell a mov 1 1 12.5 7.25\npin 0 -0.5 0.25\npin 0 .5 1e-1\n"
        "net n 1 0 1\nrail h 0 0 100 1\n";
    // Every split of `body` at each power-of-two offset from 4 KiB to
    // 256 KiB, the read buffer's size among them.
    for (size_t boundary = 4096; boundary <= (size_t{1} << 18);
         boundary *= 2) {
        for (size_t shift = 0; shift <= body.size(); ++shift) {
            const size_t pad = boundary - header.size() - shift - 1;
            std::string text = header + "#" + std::string(pad - 1, 'x') +
                               "\n" + body;
            expect_same(text, "boundary " + std::to_string(boundary) +
                                  " shift " + std::to_string(shift));
            text.pop_back();  // the last line without its '\n'
            expect_same(text, "no final newline, shift " +
                                  std::to_string(shift));
        }
    }
    // Lines longer than the buffer: a 200 KiB name, a 35,000-pin net, and
    // both again as a final line without '\n'.
    std::string pins = "cell a mov 1 1 5 5\n";
    std::string net = "net n 1";
    for (int i = 0; i < 35000; ++i) {
        pins += "pin 0 0 0\n";
        net += ' ';
        net += std::to_string(i);
    }
    const std::string long_name(200 << 10, 'n');
    for (const std::string& last : {net, "cell " + long_name + " mov 1 1 5 5",
                                    "design " + long_name}) {
        const std::string text = header + pins + last;
        const Outcome got = expect_same(text + "\n", "long line");
        EXPECT_TRUE(got.parsed) << got.error;
        expect_same(text, "long final line");
        expect_same(text + "\r\n\r\n", "long line, CRLF");
    }
    expect_same("", "empty input");
    expect_same("\n", "one empty line");
    expect_same("\n\n#\n", "blank lines and a comment");
}

TEST(ReaderEquivalenceTest, FullSizeMutants) {
    // Whole workload designs, so every mutation crosses many buffer refills.
    Rng rng(2025);
    for (int i = 0; i < 12; ++i) {
        const size_t w = pick_index(rng, std::size(kWorkloads));
        std::string text = workloads().texts[w];
        const int ops = rng.uniform_int(1, 3);
        for (int k = 0; k < ops; ++k) mutate(text, rng);
        expect_same(text, "full-size mutant " + std::to_string(i));
    }
}

TEST(ReaderEquivalenceTest, TenThousandSeededMutants) {
    const std::vector<Design>& designs = workloads().designs;
    Rng rng(25);
    int parsed = 0, rejected = 0, row_cap = 0;
    constexpr int kMutants = 10000;
    for (int i = 0; i < kMutants; ++i) {
        std::string text;
        if (i % 10 == 0) {
            text = pick(rng, kFixtures);
        } else {
            const Design& d = designs[pick_index(rng, designs.size())];
            text = excerpt(d, rng.uniform_int(0, d.num_cells() - 1),
                           rng.uniform_int(1, 40), rng);
        }
        const int ops = rng.uniform_int(1, 3);
        for (int k = 0; k < ops; ++k) mutate(text, rng);
        const Outcome o = expect_same(text, "mutant " + std::to_string(i));
        (o.parsed ? parsed : rejected) += 1;
        if (o.error.ends_with("rows")) ++row_cap;
        if (HasFailure()) break;
    }
    // Both outcomes are common, so neither path goes untested.
    EXPECT_GT(parsed, kMutants / 10);
    EXPECT_GT(rejected, kMutants / 10);
    std::printf("%d mutants: %d parsed, %d rejected (%d on the row cap)\n",
                parsed + rejected, parsed, rejected, row_cap);
}

}  // namespace
}  // namespace rdp
