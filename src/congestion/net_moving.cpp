#include "congestion/net_moving.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "congestion/virtual_cell.hpp"
#include "router/net_decompose.hpp"
#include "util/parallel.hpp"

namespace rdp {

NetMovingGradient::TwoPinTerms NetMovingGradient::two_pin_terms(
    Vec2 p1, Vec2 p2, double virtual_area, const CongestionMap& cmap,
    const CongestionField& field) const {
    TwoPinTerms out;
    // Alg. 1 line 1-2: virtual cell at the most congested candidate point.
    out.vc = find_virtual_cell(p1, p2, cmap);
    const VirtualCell& vc = out.vc;
    if (!vc.valid || vc.congestion <= cfg_.min_virtual_congestion) return out;

    // Alg. 1 line 3: congestion gradient of c_v from the electric field
    // model: grad C_cv = A_v * grad(psi) = -A_v * E.
    const Vec2 grad_cv = field.charge_gradient(vc.pos, virtual_area);
    if (grad_cv.norm2() == 0.0) return out;

    // Alg. 1 lines 4-5: segment length L and the unit normal n of the
    // segment, oriented to form an acute angle with grad C_cv.
    const Vec2 seg = p2 - p1;
    const double len = seg.norm();
    if (len <= 0.0) return out;
    Vec2 n = seg.perp() / len;
    if (n.dot(grad_cv) < 0.0) n = n * -1.0;

    // Alg. 1 lines 6-10 / Eq. (9): project the gradient onto n and scale by
    // L / (2 d_iv) per endpoint.
    const Vec2 grad_perp = n * n.dot(grad_cv);
    const double diag =
        std::hypot(cmap.grid().bin_w(), cmap.grid().bin_h());
    const double dmin = cfg_.min_pin_distance_frac * diag;
    const Vec2 pin_pos[2] = {p1, p2};
    for (int i = 0; i < 2; ++i) {
        const double div = std::max((pin_pos[i] - vc.pos).norm(), dmin);
        const double scale =
            std::min(len / (2.0 * div), cfg_.max_distance_scale);
        out.grad[i] = grad_perp * scale;
    }
    out.applied = true;
    return out;
}

VirtualCell NetMovingGradient::two_pin_gradient(
    const Design& d, Vec2 p1, Vec2 p2, int cell1, int cell2,
    double virtual_area, const CongestionMap& cmap,
    const CongestionField& field, std::vector<Vec2>& grad) const {
    (void)d;
    const TwoPinTerms t = two_pin_terms(p1, p2, virtual_area, cmap, field);
    if (t.applied) {
        grad[static_cast<size_t>(cell1)] += t.grad[0];
        grad[static_cast<size_t>(cell2)] += t.grad[1];
    }
    return t.vc;
}

NetMovingResult NetMovingGradient::compute(const Design& d,
                                           const CongestionMap& cmap,
                                           const CongestionField& field) const {
    if (slots_) {
        if (!slots_->matches(d))
            throw std::invalid_argument(
                "NetMovingGradient::compute: the design does not match the "
                "netlist of its pin-slot layout");
        return compute_with(d, cmap, field, *slots_, buf_);
    }
    const PinSlots slots(d);
    Buffers buf;
    return compute_with(d, cmap, field, slots, buf);
}

NetMovingResult NetMovingGradient::compute_with(
    const Design& d, const CongestionMap& cmap, const CongestionField& field,
    const PinSlots& slots, Buffers& buf) const {
    assert(field.built());
    NetMovingResult res;
    const size_t num_cells = static_cast<size_t>(d.num_cells());
    res.cell_grad.resize(num_cells);
    buf.cells.resize(num_cells);
    MultiPin* multi = buf.cells.data();

    // \bar{n}: average number of pins over all cells (Alg. 2 line 1).
    const double avg_pins = d.average_pins_per_cell();
    // Virtual cells have "the same size as a standard cell": use the mean
    // movable cell area of the design. Chunked reduction in fixed order.
    // The same pass makes Alg. 2's multi-pin selection (lines 7-15), which
    // depends on the cell alone, once per cell (disjoint writes).
    struct AreaAcc {
        double area = 0.0;
        long long n_mov = 0;
        int congested = 0;
    };
    const AreaAcc cells_acc = par::parallel_reduce(
        num_cells, 2048, AreaAcc{},
        [&](size_t b, size_t e) {
            AreaAcc acc;
            for (size_t i = b; i < e; ++i) {
                const Cell& c = d.cells[i];
                MultiPin& m = multi[i];
                m.selected = false;
                if (!c.movable()) continue;
                acc.area += c.area();
                ++acc.n_mov;
                // N_C for the lambda_2 schedule: movable cells in congested
                // G-cells.
                const double cong = cmap.congestion_at_point(c.pos);
                if (cong > 0.0) ++acc.congested;
                // Multi-pin cells: pins above the average and Eq. (3)
                // congestion above the threshold.
                if (static_cast<double>(c.pins.size()) <= avg_pins) continue;
                if (cong <= cfg_.multi_pin_congestion_threshold) continue;
                m.selected = true;
                m.grad = field.charge_gradient(c.pos, c.area());
                m.penalty = 0.5 * c.area() * field.potential_at(c.pos);
            }
            return acc;
        },
        [](AreaAcc a, AreaAcc b) {
            a.area += b.area;
            a.n_mov += b.n_mov;
            a.congested += b.congested;
            return a;
        });
    const double virtual_area =
        cells_acc.n_mov > 0 ? cells_acc.area / static_cast<double>(cells_acc.n_mov)
                            : 1.0;
    res.num_congested_cells = cells_acc.congested;

    // Parallel over nets: each net writes its own pin slots, and each chunk
    // sums its penalty and counters in net order; chunk partials merge in
    // fixed chunk order, so the result is bitwise identical for any
    // RDP_THREADS value.
    struct ChunkAcc {
        double penalty = 0.0;
        int virtual_cells = 0;
        int multi_pin = 0;
    };
    const par::ChunkPlan& cp = slots.net_plan();
    std::vector<ChunkAcc> acc(cp.num_chunks);
    buf.terms.resize(slots.num_slots());
    Vec2* terms = buf.terms.data();
    par::run_chunks(cp, [&](size_t nb, size_t ne, size_t c) {
        ChunkAcc& a = acc[c];
        std::vector<Vec2> pts;
        for (size_t ni = nb; ni < ne; ++ni) {
            const Net& net = d.nets[ni];
            Vec2* t = terms + slots.net_begin(ni);
            for (size_t i = 0; i < net.pins.size(); ++i) t[i] = Vec2{};
            // Alg. 2 lines 4-6: two-pin nets get the net-moving gradient.
            if (net.degree() == 2) {
                const int pin1 = net.pins[0];
                const int pin2 = net.pins[1];
                const int c1 = d.pins[pin1].cell;
                const int c2 = d.pins[pin2].cell;
                // Only movable endpoints can be moved; a net between two
                // fixed cells gets no gradient. Mixed nets still get the
                // pivot so the movable endpoint is pushed.
                if (d.cells[c1].movable() || d.cells[c2].movable()) {
                    const TwoPinTerms tp =
                        two_pin_terms(d.pin_position(pin1),
                                      d.pin_position(pin2), virtual_area,
                                      cmap, field);
                    if (tp.applied) {
                        t[0] = tp.grad[0];
                        t[1] = tp.grad[1];
                    }
                    if (tp.vc.valid &&
                        tp.vc.congestion > cfg_.min_virtual_congestion) {
                        ++a.virtual_cells;
                        a.penalty +=
                            0.5 * virtual_area * field.potential_at(tp.vc.pos);
                    }
                }
            }
            // Extension: net moving on the MST edges of multi-pin nets (off
            // by default; the paper's Algorithm 2 only moves selected cells).
            if (cfg_.move_multi_pin_edges && net.degree() >= 3 &&
                net.degree() <= cfg_.max_multi_pin_degree) {
                pts.clear();
                for (int pin : net.pins) pts.push_back(d.pin_position(pin));
                const double edge_weight = 1.0 / (net.degree() - 1);
                for (const auto& [i, j] : manhattan_mst(pts)) {
                    const size_t si = static_cast<size_t>(i);
                    const size_t sj = static_cast<size_t>(j);
                    const int ci = d.pins[net.pins[si]].cell;
                    const int cj = d.pins[net.pins[sj]].cell;
                    if (!d.cells[static_cast<size_t>(ci)].movable() &&
                        !d.cells[static_cast<size_t>(cj)].movable())
                        continue;
                    const TwoPinTerms tp = two_pin_terms(
                        pts[si], pts[sj], virtual_area, cmap, field);
                    if (!tp.vc.valid ||
                        tp.vc.congestion <= cfg_.min_virtual_congestion)
                        continue;
                    ++a.virtual_cells;
                    a.penalty += 0.5 * edge_weight * virtual_area *
                                 field.potential_at(tp.vc.pos);
                    if (tp.applied) {
                        t[si] += tp.grad[0] * edge_weight;
                        t[sj] += tp.grad[1] * edge_weight;
                    }
                }
            }
            // Alg. 2 lines 7-15: the selected multi-pin cells on this net
            // add their penalty once per pin; their gradient is added in
            // the gather below.
            for (int pin : net.pins) {
                const MultiPin& m =
                    multi[static_cast<size_t>(d.pins[pin].cell)];
                if (!m.selected) continue;
                a.penalty += m.penalty;
                ++a.multi_pin;
            }
        }
    });

    for (size_t c = 0; c < cp.num_chunks; ++c) {
        res.penalty += acc[c].penalty;
        res.virtual_cells_created += acc[c].virtual_cells;
        res.multi_pin_updates += acc[c].multi_pin;
    }
    // Gather each movable cell's slots, with its multi-pin term once per
    // pin after each net's two-pin / MST terms (fixed cells never move:
    // their gradients stay zero).
    par::parallel_for(num_cells, 4096, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            if (!d.cells[i].movable()) continue;
            res.cell_grad[i] = multi[i].selected
                                   ? slots.gather(i, terms, multi[i].grad)
                                   : slots.gather(i, terms);
        }
    });
    return res;
}

}  // namespace rdp
