#include "db/netlist_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/io_atomic.hpp"

namespace rdp {

ParseError::ParseError(int line, const std::string& reason)
    : std::runtime_error("netlist_io: " + reason + " at line " +
                         std::to_string(line)),
      line_(line),
      reason_(reason) {}

namespace {
const char* kind_tag(CellKind k) {
    switch (k) {
        case CellKind::Movable: return "mov";
        case CellKind::Fixed: return "fix";
        case CellKind::Macro: return "mac";
    }
    return "mov";
}
}  // namespace

void write_design(const Design& d, std::ostream& os) {
    // Round-trip exactness: every double survives write -> read bitwise.
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "design " << d.name << "\n";
    os << "region " << d.region.lx << " " << d.region.ly << " " << d.region.hx
       << " " << d.region.hy << "\n";
    os << "rowheight " << d.row_height << "\n";
    os << "sitewidth " << d.site_width << "\n";
    for (const Cell& c : d.cells) {
        os << "cell " << c.name << " " << kind_tag(c.kind) << " " << c.width
           << " " << c.height << " " << c.pos.x << " " << c.pos.y << "\n";
    }
    for (const Pin& p : d.pins) {
        os << "pin " << p.cell << " " << p.offset.x << " " << p.offset.y
           << "\n";
    }
    for (const Net& n : d.nets) {
        os << "net " << n.name << " " << n.weight;
        for (int p : n.pins) os << " " << p;
        os << "\n";
    }
    for (const PGRail& r : d.pg_rails) {
        os << "rail " << (r.orient == Orient::Horizontal ? "h" : "v") << " "
           << r.box.lx << " " << r.box.ly << " " << r.box.hx << " " << r.box.hy
           << "\n";
    }
    for (const Rect& b : d.routing_blockages) {
        os << "blockage " << b.lx << " " << b.ly << " " << b.hx << " " << b.hy
           << "\n";
    }
}

void write_design_file(const Design& d, const std::string& path) {
    // Serialize to memory, then publish with one atomic rename: a crash
    // (or a concurrent reader) can never observe a torn design file.
    std::ostringstream os;
    write_design(d, os);
    std::string err;
    if (!io::atomic_write(path, os.str(), &err))
        throw std::runtime_error("netlist_io: cannot write " + path + " (" +
                                 err + ")");
}

namespace {
/// The read buffer's size. The input is never held whole: freeing a
/// multi-megabyte block would raise glibc's dynamic mmap threshold for the
/// rest of the process (DESIGN.md §18).
constexpr size_t kReadBufferBytes = size_t{64} << 10;

/// C-locale isspace, which operator>> used to split fields.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Splits an input stream at '\n'; a final line without one still counts.
/// Lines are handed out of the buffer in place. A line that a refill
/// splits moves to the front first, and the buffer grows only for a line
/// longer than itself.
class LineReader {
public:
    explicit LineReader(std::istream& is) : is_(is), buf_(kReadBufferBytes) {}

    /// The next line, without its '\n'; false at the end of the input. The
    /// view stays valid until the next call.
    bool next(std::string_view& line) {
        size_t scan = begin_;
        for (;;) {
            char* const data = buf_.data();
            if (const void* nl = std::memchr(data + scan, '\n', end_ - scan)) {
                const size_t at = static_cast<size_t>(
                    static_cast<const char*>(nl) - data);
                line = {data + begin_, at - begin_};
                begin_ = at + 1;
                return true;
            }
            if (eof_) {
                if (begin_ == end_) return false;
                line = {data + begin_, end_ - begin_};
                begin_ = end_;
                return true;
            }
            // Refill behind the unfinished line, moved to the front.
            const size_t keep = end_ - begin_;
            std::memmove(data, data + begin_, keep);
            begin_ = 0;
            end_ = scan = keep;
            if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
            is_.read(buf_.data() + end_,
                     static_cast<std::streamsize>(buf_.size() - end_));
            end_ += static_cast<size_t>(is_.gcount());
            eof_ = !is_;
        }
    }

private:
    std::istream& is_;
    std::vector<char> buf_;
    size_t begin_ = 0;  ///< unread bytes are [begin_, end_)
    size_t end_ = 0;
    bool eof_ = false;
};

/// Whether an out-of-range decimal (digits with one '.', then an optional
/// exponent with digits) underflows rather than overflows. from_chars
/// reports both alike; such a value lies beyond 1e+-300, so the sign of the
/// decimal exponent of its leading nonzero digit tells them apart.
bool underflows(const char* p, const char* end) {
    long long lead = -1;  // leading digit's exponent, before the 'e' part
    bool seen = false, dot = false;
    for (; p != end && *p != 'e' && *p != 'E'; ++p) {
        if (*p == '.') {
            dot = true;
        } else if (seen) {
            if (!dot) ++lead;
        } else if (*p != '0') {
            seen = true;
            if (!dot) lead = 0;
        } else if (dot) {
            --lead;
        }
    }
    long long exp = 0;
    bool neg_exp = false;
    if (p != end) {  // at the 'e' of an exponent that has digits
        ++p;
        neg_exp = *p == '-';
        if (*p == '+' || *p == '-') ++p;
        for (; p != end; ++p)
            exp = std::min(10 * exp + (*p - '0'), 1LL << 40);
    }
    return lead + (neg_exp ? -exp : exp) < 0;
}

/// Extracts the fields of one line the way the C-locale operator>> did:
/// each extraction skips whitespace. A number must also end at whitespace
/// or at the end of the line ("4junk" and "1.5" as an integer fail).
struct Fields {
    const char* p;
    const char* end;

    void skip_space() {
        while (p != end && is_space(*p)) ++p;
    }
    bool at_end() {
        skip_space();
        return p == end;
    }

    /// A run of non-space bytes; false (out untouched) if none is left.
    bool word(std::string_view& out) {
        if (at_end()) return false;
        const char* const start = p;
        while (p != end && !is_space(*p)) ++p;
        out = {start, static_cast<size_t>(p - start)};
        return true;
    }

    /// Does the field just scanned end here?
    bool field_ends() const { return p == end || is_space(*p); }

    /// [+-]digits within int range, ending the field.
    bool integer(int& v) {
        skip_space();
        const char* const start = p;
        if (p != end && (*p == '+' || *p == '-')) ++p;
        const char* const digits = p;
        while (p != end && is_digit(*p)) ++p;
        if (p == digits || !field_ends()) return false;
        // from_chars takes a '-' but no '+'.
        return std::from_chars(*start == '+' ? digits : start, p, v).ec ==
               std::errc();
    }

    /// [+-]digits with one '.', then [eE][+-]digits, ending the field.
    /// Rejects no mantissa digit, an exponent without digits ("1e", "1e+")
    /// and overflow, as operator>> did; reads underflow as a signed zero.
    /// Never "inf"/"nan".
    bool number(double& v) {
        skip_space();
        const bool neg = p != end && *p == '-';
        if (p != end && (*p == '+' || *p == '-')) ++p;
        const char* const mant = p;
        bool digit = false, dot = false;
        for (; p != end; ++p) {
            if (is_digit(*p)) {
                digit = true;
            } else if (*p == '.' && !dot) {
                dot = true;
            } else {
                break;
            }
        }
        if (!digit) return false;
        if (p != end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p != end && (*p == '+' || *p == '-')) ++p;
            while (p != end && is_digit(*p)) ++p;
        }
        if (!field_ends()) return false;
        // from_chars stops before an exponent without digits: "1e", "1e+".
        const std::from_chars_result r = std::from_chars(mant, p, v);
        if (r.ptr != p) return false;
        if (r.ec == std::errc::result_out_of_range && underflows(mant, p)) {
            v = 0.0;
        } else if (r.ec != std::errc()) {
            return false;
        }
        if (neg) v = -v;
        return true;
    }
};

CellKind parse_kind(std::string_view s, int line) {
    if (s == "mov") return CellKind::Movable;
    if (s == "fix") return CellKind::Fixed;
    if (s == "mac") return CellKind::Macro;
    throw ParseError(line, "bad cell kind '" + std::string(s) + "'");
}
}  // namespace

Design read_design(std::istream& is) {
    Design d;
    LineReader lines(is);
    std::string_view line;
    int line_no = 0;
    int rows_line = 0;  // the last region or rowheight line
    auto fail = [&](const std::string& msg) {
        throw ParseError(line_no, msg);
    };
    auto finite = [&](double v, const char* what) {
        if (!std::isfinite(v)) fail(std::string("non-finite ") + what);
    };
    while (lines.next(line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        Fields ss{line.data(), line.data() + line.size()};
        std::string_view tok;
        ss.word(tok);
        if (tok == "design") {
            std::string_view nm;
            if (ss.word(nm)) d.name.assign(nm);
        } else if (tok == "region") {
            if (!(ss.number(d.region.lx) && ss.number(d.region.ly) &&
                  ss.number(d.region.hx) && ss.number(d.region.hy)))
                fail("bad region");
            finite(d.region.lx, "region coordinate");
            finite(d.region.ly, "region coordinate");
            finite(d.region.hx, "region coordinate");
            finite(d.region.hy, "region coordinate");
            if (d.region.hx <= d.region.lx || d.region.hy <= d.region.ly)
                fail("region has non-positive extent");
            rows_line = line_no;
        } else if (tok == "rowheight") {
            if (!ss.number(d.row_height)) fail("bad rowheight");
            if (!std::isfinite(d.row_height) || d.row_height <= 0.0)
                fail("rowheight must be finite and positive");
            rows_line = line_no;
        } else if (tok == "sitewidth") {
            if (!ss.number(d.site_width)) fail("bad sitewidth");
            if (!std::isfinite(d.site_width) || d.site_width <= 0.0)
                fail("sitewidth must be finite and positive");
        } else if (tok == "cell") {
            std::string_view nm, kind;
            double w, h, cx, cy;
            if (!(ss.word(nm) && ss.word(kind) && ss.number(w) &&
                  ss.number(h) && ss.number(cx) && ss.number(cy)))
                fail("bad cell");
            finite(w, "cell width");
            finite(h, "cell height");
            finite(cx, "cell position");
            finite(cy, "cell position");
            if (w < 0.0 || h < 0.0) fail("negative cell dimensions");
            d.add_cell(std::string(nm), w, h, parse_kind(kind, line_no),
                       {cx, cy});
        } else if (tok == "pin") {
            int cell;
            double dx, dy;
            if (!(ss.integer(cell) && ss.number(dx) && ss.number(dy)))
                fail("bad pin");
            if (cell < 0 || cell >= d.num_cells()) fail("pin on missing cell");
            finite(dx, "pin offset");
            finite(dy, "pin offset");
            d.add_pin(cell, {dx, dy});
        } else if (tok == "net") {
            std::string_view nm;
            double wgt;
            if (!(ss.word(nm) && ss.number(wgt))) fail("bad net");
            if (!std::isfinite(wgt) || wgt < 0.0)
                fail("net weight must be finite and non-negative");
            const int net = d.add_net(std::string(nm), wgt);
            int pin;
            while (!ss.at_end()) {
                if (!ss.integer(pin)) fail("bad pin index");
                if (pin < 0 || pin >= d.num_pins()) fail("net on missing pin");
                if (d.pins[static_cast<size_t>(pin)].net != -1)
                    fail("pin " + std::to_string(pin) +
                         " is already connected");
                d.connect(net, pin);
            }
        } else if (tok == "blockage") {
            Rect b;
            if (!(ss.number(b.lx) && ss.number(b.ly) && ss.number(b.hx) &&
                  ss.number(b.hy)))
                fail("bad blockage");
            finite(b.lx, "blockage coordinate");
            finite(b.ly, "blockage coordinate");
            finite(b.hx, "blockage coordinate");
            finite(b.hy, "blockage coordinate");
            d.routing_blockages.push_back(b);
        } else if (tok == "rail") {
            std::string_view o;
            Rect b;
            if (!(ss.word(o) && ss.number(b.lx) && ss.number(b.ly) &&
                  ss.number(b.hx) && ss.number(b.hy)))
                fail("bad rail");
            if (o != "h" && o != "v")
                fail("bad rail orientation '" + std::string(o) + "'");
            finite(b.lx, "rail coordinate");
            finite(b.ly, "rail coordinate");
            finite(b.hx, "rail coordinate");
            finite(b.hy, "rail coordinate");
            PGRail r;
            r.box = b;
            r.orient = (o == "h") ? Orient::Horizontal : Orient::Vertical;
            d.pg_rails.push_back(r);
        } else {
            fail("unknown directive '" + std::string(tok) + "'");
        }
        std::string_view extra;
        if (ss.word(extra)) fail("extra field '" + std::string(extra) + "'");
    }
    if (!(d.row_count() <= Design::kMaxRows))
        throw ParseError(rows_line, "region holds more than " +
                                        std::to_string(Design::kMaxRows) +
                                        " rows");
    d.build_rows();
    return d;
}

Design read_design_file(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("netlist_io: cannot open " + path);
    return read_design(is);
}

}  // namespace rdp
