#pragma once
// Netlist / floorplan database. Index-based references (ints) rather than
// pointers: cells, pins and nets live in flat vectors owned by Design, which
// keeps the hot placement loops cache-friendly and makes copies cheap.
//
// Conventions:
//  * Cell `pos` is the cell CENTER in DBU.
//  * Pin `offset` is relative to the owning cell's center.
//  * Macros are pre-placed and fixed (the ISPD 2015 designs we model have
//    fixed macro blocks); standard cells are movable.
//  * PG rails model the M2 power/ground stripes whose pin-accessibility the
//    paper's DPA technique optimizes (Section III-C).

#include <string>
#include <vector>

#include "util/geometry.hpp"

namespace rdp {

enum class CellKind {
    Movable,  ///< standard cell optimized by the placer
    Fixed,    ///< pre-placed standard cell / blockage
    Macro,    ///< fixed macro block
};

struct Pin {
    int cell = -1;   ///< owning cell index
    int net = -1;    ///< connected net index (-1 while unconnected)
    Vec2 offset;     ///< offset from the owning cell's center
};

struct Cell {
    std::string name;
    double width = 0.0;
    double height = 0.0;
    CellKind kind = CellKind::Movable;
    Vec2 pos;                ///< center position
    std::vector<int> pins;   ///< pin indices on this cell

    bool movable() const { return kind == CellKind::Movable; }
    bool is_macro() const { return kind == CellKind::Macro; }
    double area() const { return width * height; }
    Rect bbox() const { return Rect::from_center(pos, width, height); }
};

struct Net {
    std::string name;
    std::vector<int> pins;  ///< pin indices
    double weight = 1.0;

    int degree() const { return static_cast<int>(pins.size()); }
};

/// One standard-cell row of the core area.
struct Row {
    double y = 0.0;       ///< bottom edge
    double height = 0.0;
    double lx = 0.0;
    double hx = 0.0;
};

/// One M2 power/ground rail segment projected to 2D.
struct PGRail {
    Rect box;
    Orient orient = Orient::Horizontal;

    double length() const {
        return orient == Orient::Horizontal ? box.width() : box.height();
    }
};

/// Whole-design container: floorplan, cells, pins, nets, rows, PG rails.
class Design {
public:
    std::string name;
    Rect region;              ///< placement region
    double row_height = 1.0;  ///< standard row height
    double site_width = 1.0;  ///< legalization site width

    std::vector<Cell> cells;
    std::vector<Pin> pins;
    std::vector<Net> nets;
    std::vector<Row> rows;
    std::vector<PGRail> pg_rails;
    /// Routing blockage rectangles (the ISPD 2015 benchmarks ship these):
    /// routing capacity inside them is reduced; placement is unaffected.
    std::vector<Rect> routing_blockages;

    // ---- construction helpers -------------------------------------------
    /// Add a cell; returns its index.
    int add_cell(std::string cell_name, double w, double h, CellKind kind,
                 Vec2 pos = {});
    /// Add an (unconnected) pin on a cell; returns the pin index.
    int add_pin(int cell, Vec2 offset);
    /// Add an empty net; returns its index.
    int add_net(std::string net_name, double weight = 1.0);
    /// Connect an existing pin to an existing net.
    void connect(int net, int pin);
    /// The most rows build_rows makes: far beyond any real floorplan, and
    /// ~31 MiB of rows. read_design rejects a region and row height that
    /// give more with a ParseError (DESIGN.md §18).
    static constexpr int kMaxRows = 1'000'000;
    /// The rows build_rows makes: floor(region height / row_height), and 0
    /// for a non-positive row height. Negative for an inverted region; may
    /// exceed kMaxRows, or be +inf.
    double row_count() const;
    /// Create uniform rows covering the region. Throws std::length_error
    /// when row_count() is negative (an inverted region) or exceeds
    /// kMaxRows.
    void build_rows();

    // ---- queries ----------------------------------------------------------
    int num_cells() const { return static_cast<int>(cells.size()); }
    int num_pins() const { return static_cast<int>(pins.size()); }
    int num_nets() const { return static_cast<int>(nets.size()); }

    /// Absolute position of a pin.
    Vec2 pin_position(int pin) const {
        const Pin& p = pins[pin];
        return cells[p.cell].pos + p.offset;
    }

    /// Indices of all movable cells.
    std::vector<int> movable_cells() const;
    /// Positions of cells `ids`, in order, and the matching write-back.
    std::vector<Vec2> positions(const std::vector<int>& ids) const;
    void set_positions(const std::vector<int>& ids,
                       const std::vector<Vec2>& pos);
    /// Indices of all macros.
    std::vector<int> macro_cells() const;

    double total_movable_area() const;
    double total_fixed_area() const;  ///< fixed + macro area inside region
    /// movable area / (region area - fixed area)
    double utilization() const;
    /// Mean pin count over all cells (the \bar{n} of Algorithm 2).
    double average_pins_per_cell() const;

    /// Clamp every movable cell center so its box stays inside the region.
    void clamp_movables_to_region();

    /// Structural consistency check; returns a list of human-readable
    /// problems (empty when the design is well-formed).
    std::vector<std::string> validate() const;
};

}  // namespace rdp
