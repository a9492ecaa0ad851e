#pragma once
// Weighted-average (WA) wirelength model (Hsu, Chang, Balabanov, DAC'11),
// the smooth HPWL surrogate of paper Section II-A:
//
//   WA_x(e) = sum_i x_i e^{x_i/g} / sum_i e^{x_i/g}
//           - sum_i x_i e^{-x_i/g} / sum_i e^{-x_i/g}
//
// As gamma -> 0 the model converges to HPWL from below. The implementation
// shifts exponents by the pin max/min, so it is stable for any gamma and
// coordinate magnitude.
//
// evaluate() is parallel over nets with deterministic chunking (see
// util/parallel.hpp): each net writes one gradient term per pin slot
// (db/pin_slots.hpp), each chunk keeps a private total, and every cell
// gathers its slots with a partial sum closed at each chunk boundary, so
// the result is bitwise identical for any RDP_THREADS value. Nets of degree
// 2-4 run four at a time through the lane-per-net kernel wa::wa_lanes.

#include <memory>
#include <vector>

#include "db/design.hpp"
#include "db/pin_slots.hpp"

namespace rdp {

/// Result of one full-netlist WA evaluation.
struct WirelengthResult {
    double total = 0.0;           ///< weighted WA wirelength over all nets
    std::vector<Vec2> cell_grad;  ///< d(total)/d(cell center), all cells
};

/// Reusable per-call scratch for wa_1d: the exponential weight buffers,
/// padded to the SIMD lane width (wa::padded_size). Callers (and each
/// parallel chunk) keep one instance so the inner loop is allocation-free
/// after warm-up.
struct WaScratch {
    std::vector<double> wp;  ///< max-side weights e^{(x_i - xmax)/g}
    std::vector<double> wm;  ///< min-side weights e^{(xmin - x_i)/g}
};

class WAWirelength {
public:
    /// gamma is the smoothing parameter of the exponent (same units as
    /// coordinates). A common choice is a few bin widths.
    explicit WAWirelength(double gamma) : gamma_(gamma) {}

    double gamma() const { return gamma_; }
    void set_gamma(double g) { gamma_ = g; }

    /// WA wirelength of one net (unweighted).
    double net_wa(const Design& d, const Net& net) const;

    /// Evaluate through `slots` from now on, with term buffers this object
    /// keeps between calls (PlacementObjective::bind). evaluate() then needs
    /// a design of the layout's netlist shape, and one instance must not
    /// evaluate concurrently. nullptr (the default): a layout per call.
    void set_slots(std::shared_ptr<const PinSlots> slots) {
        slots_ = std::move(slots);
    }

    /// Total weighted WA wirelength and analytic gradient wrt every cell
    /// center. Fixed cells receive gradient entries too; the optimizer simply
    /// ignores them.
    WirelengthResult evaluate(const Design& d) const;

    /// One-dimensional WA and d(WA)/d(coordinate) for a pin coordinate list.
    /// Overwrites `grad` (same length as xs); `scratch` provides the weight
    /// buffers and is resized as needed.
    double wa_1d(const std::vector<double>& xs, std::vector<double>& grad,
                 WaScratch& scratch) const;

private:
    /// Per-slot gradient terms and per-net x + y wirelengths.
    struct Buffers {
        std::vector<Vec2> terms;
        std::vector<double> net_wl;
    };
    WirelengthResult evaluate_with(const Design& d, const PinSlots& slots,
                                   Buffers& buf) const;

    double gamma_;
    std::shared_ptr<const PinSlots> slots_;
    mutable Buffers buf_;
};

}  // namespace rdp
