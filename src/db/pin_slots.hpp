#pragma once
// Pin-slot layout of a netlist: the shared index behind the pin-level WA and
// net-moving gradients (DESIGN.md §9, "Pin-level gradients").
//
// Slot s is one (net, pin) incidence. The nets' pin lists are laid end to
// end in net order, so net n owns slots [net_begin(n), net_begin(n + 1)).
// A kernel writes one gradient term per slot (disjoint writes, parallel over
// nets), and each cell's gradient is gathered through a cell -> slot CSR in
// ascending slot order.
//
// The gather gives the per-chunk accumulators it replaced bit for bit. Those
// summed a cell's terms in net order within each chunk of
// par::plan(nets, 256, 16), starting from +0.0, and added the chunk partials
// in chunk order. The CSR marks the first entry of each chunk a cell has
// terms in; the gather closes its partial sum there, so a cell's gradient
// is still 0 + p_0 + p_1 + ... . A chunk without the cell's pins added
// +0.0, which is exact because such a running sum is never -0.0; that is
// also why a slot with no term can hold +0.0 and still be added.
//
// The layout depends on the netlist only (pins, nets, cell count), never on
// positions or the thread count. Build it once per placement run.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "db/design.hpp"
#include "util/parallel.hpp"

namespace rdp {

class PinSlots {
public:
    /// Largest degree the lane-per-net WA kernel batches (wa_kernel.hpp).
    static constexpr int kMaxBatchDegree = 4;

    PinSlots() = default;
    explicit PinSlots(const Design& d);

    /// The chunk plan over nets whose boundaries the gather reproduces.
    const par::ChunkPlan& net_plan() const { return plan_; }
    size_t num_slots() const {
        return net_begin_.empty() ? 0 : net_begin_.back();
    }
    size_t num_cells() const {
        return cell_begin_.empty() ? 0 : cell_begin_.size() - 1;
    }
    size_t net_begin(size_t net) const { return net_begin_[net]; }

    /// True when `d` has the netlist shape this layout was built from: the
    /// cell and net counts and every net's degree.
    bool matches(const Design& d) const;

    /// Nets of `degree` (2 .. kMaxBatchDegree) in chunk `chunk`, ascending.
    const int* batch_begin(size_t chunk, int degree) const {
        return batch_nets_.data() + batch_offset_[batch_key(chunk, degree)];
    }
    const int* batch_end(size_t chunk, int degree) const {
        return batch_nets_.data() + batch_offset_[batch_key(chunk, degree) + 1];
    }

    /// Cell `cell`'s gradient: the sum of terms[s] over its slots s, with a
    /// partial sum closed at each chunk boundary (see the file comment).
    Vec2 gather(size_t cell, const Vec2* terms) const {
        Vec2 acc{}, part{};
        for (uint32_t k = cell_begin_[cell]; k < cell_begin_[cell + 1]; ++k) {
            const uint32_t e = entries_[k];
            if (e & kChunkStart) {
                acc += part;
                part = Vec2{};
            }
            part += terms[e & kSlotMask];
        }
        return acc + part;
    }

    /// As gather(), with `per_pin` also added once per slot after each net's
    /// terms: the order in which the net-moving pass visited a net (its
    /// two-pin or MST terms first, then one multi-pin term per pin of the
    /// cell on that net).
    Vec2 gather(size_t cell, const Vec2* terms, Vec2 per_pin) const {
        Vec2 acc{}, part{};
        const uint32_t end = cell_begin_[cell + 1];
        uint32_t k = cell_begin_[cell];
        while (k < end) {
            if (entries_[k] & kChunkStart) {
                acc += part;
                part = Vec2{};
            }
            uint32_t g = k + 1;
            while (g < end && (entries_[g] & kSameNet)) ++g;
            for (uint32_t j = k; j < g; ++j)
                part += terms[entries_[j] & kSlotMask];
            for (uint32_t j = k; j < g; ++j) part += per_pin;
            k = g;
        }
        return acc + part;
    }

private:
    // A CSR entry is a slot index with two flags in its top bits: the
    // first entry of a chunk, and an entry on the same net as the one
    // before it.
    static constexpr uint32_t kChunkStart = 1u << 31;
    static constexpr uint32_t kSameNet = 1u << 30;
    static constexpr uint32_t kSlotMask = kSameNet - 1;

    size_t batch_key(size_t chunk, int degree) const {
        return chunk * (kMaxBatchDegree - 1) + static_cast<size_t>(degree - 2);
    }

    par::ChunkPlan plan_;
    std::vector<uint32_t> net_begin_;   ///< nets + 1 slot offsets
    std::vector<uint32_t> cell_begin_;  ///< cells + 1 offsets into entries_
    std::vector<uint32_t> entries_;     ///< per cell: flagged slots, ascending
    std::vector<int> batch_nets_;       ///< per chunk, per degree 2..4
    std::vector<uint32_t> batch_offset_;
};

}  // namespace rdp
