#pragma once
// Tetris-style legalization: movable standard cells are processed in
// ascending x order and greedily packed into nearby rows at the first legal
// site at or right of their global-placement position, avoiding fixed cells
// and macros. This is the classic fast legalizer used after electrostatic
// global placement; Abacus (abacus.hpp) then refines each row.

#include <string>
#include <vector>

#include "db/design.hpp"

namespace rdp {

struct TetrisConfig {
    /// Rows examined around the cell's desired row on each side.
    int row_search_radius = 12;
    /// Weight of vertical displacement vs horizontal in the row-choice cost.
    double vertical_weight = 1.0;
};

struct LegalizeStats {
    int cells_placed = 0;
    int cells_failed = 0;     ///< could not fit (pathological utilization)
    double total_displacement = 0.0;
    double max_displacement = 0.0;
};

/// Legalize all movable cells of `d` in place. Cell heights must equal the
/// row height (single-row standard cells). Returns displacement statistics.
LegalizeStats tetris_legalize(Design& d, const TetrisConfig& cfg = {});

/// The first legality violation, in words; empty when every movable cell
/// sits on a row and site boundary inside the region (tolerance `eps`) and
/// overlaps no other movable cell and no fixed cell or macro. Cells are
/// checked in index order, rows bottom-up, and each row left to right.
std::string legality_violation(const Design& d, double eps = 1e-6);

/// True if legality_violation finds nothing.
bool is_legal(const Design& d, double eps = 1e-6);

}  // namespace rdp
