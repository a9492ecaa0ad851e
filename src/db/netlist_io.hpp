#pragma once
// Plain-text netlist serialization ("bookshelf-lite"). One file carries the
// floorplan, cells, pins, nets, rows, and PG rails, so a generated benchmark
// can be saved, diffed, and re-loaded deterministically.
//
// Format (line oriented, '#' comments):
//   design <name>
//   region <lx> <ly> <hx> <hy>
//   rowheight <h>
//   sitewidth <w>
//   cell <name> <kind:mov|fix|mac> <w> <h> <cx> <cy>
//   pin <cellIndex> <dx> <dy>
//   net <name> <weight> <pinIndex> <pinIndex> ...
//   rail <h|v> <lx> <ly> <hx> <hy>
//   blockage <lx> <ly> <hx> <hy>

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "db/design.hpp"

namespace rdp {

/// Typed parse failure: carries the 1-based input line and the reason.
/// Derives from std::runtime_error, so callers that only care about
/// "malformed input" keep working; what() reads
///   netlist_io: <reason> at line <line>
class ParseError : public std::runtime_error {
public:
    ParseError(int line, const std::string& reason);

    int line() const { return line_; }
    const std::string& reason() const { return reason_; }

private:
    int line_;
    std::string reason_;
};

void write_design(const Design& d, std::ostream& os);
void write_design_file(const Design& d, const std::string& path);

/// Parses a design in one pass through a fixed 64 KiB read buffer; numbers
/// follow the C-locale operator>> syntax (DESIGN.md §18). Throws
/// ParseError naming the offending line on any malformed input: unknown
/// directives, missing or extra fields, a number that does not end at
/// whitespace, a bad pin index anywhere in a net's list, non-finite or
/// overflowing numbers, non-positive dimensions, inverted regions, a
/// region holding more than Design::kMaxRows rows, out-of-range cell/pin
/// indices, and doubly-connected pins.
Design read_design(std::istream& is);
Design read_design_file(const std::string& path);

}  // namespace rdp
