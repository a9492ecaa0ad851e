#pragma once
// Test oracles for the pin-level objective kernels: WAWirelength::evaluate
// and NetMovingGradient::compute as they were before the pin-slot layout
// (db/pin_slots.hpp), kept verbatim: each chunk of nets accumulates into a
// private whole-design gradient vector, and the vectors are merged cell by
// cell in chunk order. The production kernels must give these bits for
// every design and thread count (with move_multi_pin_edges off: the
// extension's gradient is defined per pin slot now, DESIGN.md §9).
//
// Also a seeded netlist generator with the shapes that stress the gather:
// 16 net chunks, hub cells with pins in every chunk, one cell on both pins
// of a net, degree-0 and degree-1 nets, fixed cells and macros, and
// per-chunk degree counts that are not multiples of 4.

#include <gtest/gtest.h>

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "congestion/net_moving.hpp"
#include "router/net_decompose.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "wirelength/wa_model.hpp"

namespace rdp::oracle {

inline bool same_bits(double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Bitwise equality of two gradient vectors (+0.0 and -0.0 differ).
inline ::testing::AssertionResult same_bits(const std::vector<Vec2>& got,
                                            const std::vector<Vec2>& want) {
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << "size " << got.size() << " vs " << want.size();
    for (size_t i = 0; i < got.size(); ++i)
        if (!same_bits(got[i].x, want[i].x) || !same_bits(got[i].y, want[i].y))
            return ::testing::AssertionFailure()
                   << "cell " << i << ": (" << got[i].x << ", " << got[i].y
                   << ") vs (" << want[i].x << ", " << want[i].y << ")";
    return ::testing::AssertionSuccess();
}

inline WirelengthResult wa_evaluate(const WAWirelength& wa, const Design& d) {
    WirelengthResult res;
    const size_t num_cells = static_cast<size_t>(d.num_cells());
    res.cell_grad.assign(num_cells, Vec2{});
    // No nets: run_chunks would never invoke the chunk body, leaving the
    // per-chunk accumulators unallocated for the merge below.
    if (d.nets.empty()) return res;

    // Parallel over nets. Each chunk owns a full-size gradient accumulator
    // (bounded by max_chunks = 16) plus a scalar total; partials are merged
    // in fixed chunk order below, so any thread count gives the same bits.
    const par::ChunkPlan cp = par::plan(d.nets.size(), 256, 16);
    std::vector<double> totals(cp.num_chunks, 0.0);
    std::vector<std::vector<Vec2>> partial(cp.num_chunks);
    par::run_chunks(cp, [&](size_t nb, size_t ne, size_t c) {
        std::vector<Vec2>& grad = partial[c];
        grad.assign(num_cells, Vec2{});
        std::vector<double> xs, ys, gx, gy;
        WaScratch scratch;
        double total = 0.0;
        for (size_t ni = nb; ni < ne; ++ni) {
            const Net& net = d.nets[ni];
            if (net.degree() < 2) continue;
            xs.clear();
            ys.clear();
            for (int p : net.pins) {
                const Vec2 pos = d.pin_position(p);
                xs.push_back(pos.x);
                ys.push_back(pos.y);
            }
            const double wx = wa.wa_1d(xs, gx, scratch);
            const double wy = wa.wa_1d(ys, gy, scratch);
            total += net.weight * (wx + wy);
            for (size_t i = 0; i < net.pins.size(); ++i) {
                const int cell = d.pins[net.pins[i]].cell;
                grad[static_cast<size_t>(cell)] +=
                    Vec2{gx[i], gy[i]} * net.weight;
            }
        }
        totals[c] = total;
    });

    for (size_t c = 0; c < cp.num_chunks; ++c) res.total += totals[c];
    // Ordered merge of the per-chunk gradients, parallel over cells.
    par::parallel_for(num_cells, 4096, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            Vec2 acc{};
            for (size_t c = 0; c < cp.num_chunks; ++c) acc += partial[c][i];
            res.cell_grad[i] = acc;
        }
    });
    return res;
}

inline NetMovingResult net_moving_compute(const NetMovingGradient& nm,
                                          const Design& d,
                                          const CongestionMap& cmap,
                                          const CongestionField& field) {
    const NetMovingConfig& cfg_ = nm.config();
    assert(field.built());
    NetMovingResult res;
    const size_t num_cells = static_cast<size_t>(d.num_cells());
    res.cell_grad.assign(num_cells, Vec2{});

    // \bar{n}: average number of pins over all cells (Alg. 2 line 1).
    const double avg_pins = d.average_pins_per_cell();
    // Virtual cells have "the same size as a standard cell": use the mean
    // movable cell area of the design. Chunked reduction in fixed order.
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
                if (!c.movable()) continue;
                acc.area += c.area();
                ++acc.n_mov;
                // N_C for the lambda_2 schedule: movable cells in congested
                // G-cells.
                if (cmap.congestion_at_point(c.pos) > 0.0) ++acc.congested;
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

    // Parallel over nets: each chunk accumulates into its own gradient
    // vector and scalar counters; partials merge in fixed chunk order, so
    // the result is bitwise identical for any RDP_THREADS value.
    struct ChunkAcc {
        double penalty = 0.0;
        int virtual_cells = 0;
        int multi_pin = 0;
    };
    // No nets: run_chunks would never invoke the chunk body, leaving the
    // per-chunk accumulators unallocated for the merge below.
    if (d.nets.empty()) return res;
    const par::ChunkPlan cp = par::plan(d.nets.size(), 256, 16);
    std::vector<ChunkAcc> acc(cp.num_chunks);
    std::vector<std::vector<Vec2>> partial(cp.num_chunks);
    par::run_chunks(cp, [&](size_t nb, size_t ne, size_t c) {
        std::vector<Vec2>& grad = partial[c];
        grad.assign(num_cells, Vec2{});
        ChunkAcc& a = acc[c];
        for (size_t ni = nb; ni < ne; ++ni) {
            const Net& net = d.nets[ni];
            // Alg. 2 lines 4-6: two-pin nets get the net-moving gradient.
            if (net.degree() == 2) {
                const int pin1 = net.pins[0];
                const int pin2 = net.pins[1];
                const int c1 = d.pins[pin1].cell;
                const int c2 = d.pins[pin2].cell;
                const Vec2 p1 = d.pin_position(pin1);
                const Vec2 p2 = d.pin_position(pin2);
                // Only movable endpoints can be moved; a net between two
                // fixed cells gets no gradient. Mixed nets still get the
                // pivot so the movable endpoint is pushed.
                if (d.cells[c1].movable() || d.cells[c2].movable()) {
                    const VirtualCell vc =
                        nm.two_pin_gradient(d, p1, p2, c1, c2, virtual_area,
                                         cmap, field, grad);
                    if (vc.valid &&
                        vc.congestion > cfg_.min_virtual_congestion) {
                        ++a.virtual_cells;
                        a.penalty +=
                            0.5 * virtual_area * field.potential_at(vc.pos);
                    }
                }
            }
            // Extension: net moving on the MST edges of multi-pin nets (off
            // by default; the paper's Algorithm 2 only moves selected cells).
            if (cfg_.move_multi_pin_edges && net.degree() >= 3 &&
                net.degree() <= cfg_.max_multi_pin_degree) {
                std::vector<Vec2> pts;
                pts.reserve(net.pins.size());
                for (int pin : net.pins) pts.push_back(d.pin_position(pin));
                const double edge_weight = 1.0 / (net.degree() - 1);
                for (const auto& [i, j] : manhattan_mst(pts)) {
                    const int ci =
                        d.pins[net.pins[static_cast<size_t>(i)]].cell;
                    const int cj =
                        d.pins[net.pins[static_cast<size_t>(j)]].cell;
                    if (!d.cells[static_cast<size_t>(ci)].movable() &&
                        !d.cells[static_cast<size_t>(cj)].movable())
                        continue;
                    // Scale just this edge's contribution: snapshot the two
                    // affected entries instead of clearing a full scratch
                    // grid.
                    const Vec2 gi0 = grad[static_cast<size_t>(ci)];
                    const Vec2 gj0 = grad[static_cast<size_t>(cj)];
                    const VirtualCell vc = nm.two_pin_gradient(
                        d, pts[static_cast<size_t>(i)],
                        pts[static_cast<size_t>(j)], ci, cj, virtual_area,
                        cmap, field, grad);
                    if (!vc.valid ||
                        vc.congestion <= cfg_.min_virtual_congestion) {
                        grad[static_cast<size_t>(ci)] = gi0;
                        grad[static_cast<size_t>(cj)] = gj0;
                        continue;
                    }
                    ++a.virtual_cells;
                    a.penalty += 0.5 * edge_weight * virtual_area *
                                 field.potential_at(vc.pos);
                    auto& gi = grad[static_cast<size_t>(ci)];
                    gi = gi0 + (gi - gi0) * edge_weight;
                    if (cj != ci) {
                        auto& gj = grad[static_cast<size_t>(cj)];
                        gj = gj0 + (gj - gj0) * edge_weight;
                    }
                }
            }

            // Alg. 2 lines 7-15: selected multi-pin cells on this net.
            for (int pin : net.pins) {
                const int ci = d.pins[pin].cell;
                const Cell& cell = d.cells[static_cast<size_t>(ci)];
                if (!cell.movable()) continue;
                const int n_pins = static_cast<int>(cell.pins.size());
                if (static_cast<double>(n_pins) <= avg_pins) continue;
                const double cong = cmap.congestion_at_point(cell.pos);
                if (cong <= cfg_.multi_pin_congestion_threshold) continue;
                grad[static_cast<size_t>(ci)] +=
                    field.charge_gradient(cell.pos, cell.area());
                a.penalty +=
                    0.5 * cell.area() * field.potential_at(cell.pos);
                ++a.multi_pin;
            }
        }
    });

    for (size_t c = 0; c < cp.num_chunks; ++c) {
        res.penalty += acc[c].penalty;
        res.virtual_cells_created += acc[c].virtual_cells;
        res.multi_pin_updates += acc[c].multi_pin;
    }
    // Ordered merge of the per-chunk gradients (fixed cells never move:
    // their gradients stay zero).
    par::parallel_for(num_cells, 4096, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            if (!d.cells[i].movable()) continue;
            Vec2 g{};
            for (size_t c = 0; c < cp.num_chunks; ++c) g += partial[c][i];
            res.cell_grad[i] = g;
        }
    });
    return res;
}

/// Seeded netlist on a 1000 x 1000 region: `num_nets` nets (4,096 or more
/// give par::plan(nets, 256, 16) its 16 chunks) over ~3,000 movable cells,
/// 40 fixed cells and 4 macros.
inline Design seeded_netlist(uint64_t seed, int num_nets = 4500) {
    Rng rng(seed);
    Design d;
    d.region = {0, 0, 1000, 1000};
    d.row_height = 8;
    const auto place = [&](double w, double h) {
        return Vec2{rng.uniform(w / 2, 1000 - w / 2),
                    rng.uniform(h / 2, 1000 - h / 2)};
    };
    // Cells 0-3 are wide hubs: a 2-pin net between two of a hub's pins
    // spans G-cells, so it gets a virtual cell.
    for (int i = 0; i < 3000; ++i)
        d.add_cell("m" + std::to_string(i), i < 4 ? 90 : rng.uniform(2, 12),
                   8, CellKind::Movable, place(i < 4 ? 90 : 12, 8));
    for (int i = 0; i < 40; ++i)
        d.add_cell("f" + std::to_string(i), 10, 8, CellKind::Fixed,
                   place(10, 8));
    for (int i = 0; i < 4; ++i)
        d.add_cell("macro" + std::to_string(i), 80, 64, CellKind::Macro,
                   place(80, 64));
    const int cells = d.num_cells();
    const auto pin_on = [&](int net, int cell) {
        const Cell& c = d.cells[static_cast<size_t>(cell)];
        d.connect(net, d.add_pin(cell, {rng.uniform(-c.width / 2, c.width / 2),
                                        rng.uniform(-c.height / 2,
                                                    c.height / 2)}));
    };
    for (int n = 0; n < num_nets; ++n) {
        const int net = d.add_net("n" + std::to_string(n),
                                  rng.bernoulli(0.2) ? 1.5 : 1.0);
        const double u = rng.uniform();
        const int deg = u < 0.01   ? 0
                        : u < 0.03 ? 1
                        : u < 0.60 ? 2
                        : u < 0.78 ? 3
                        : u < 0.90 ? 4
                        : u < 0.999 ? rng.uniform_int(5, 24)
                                    : 60;
        // Hubs: cells 0-3 have a pin on every 7th net, so their pins span
        // all 16 chunks and they carry far more pins than the average.
        int placed = 0;
        if (deg >= 1 && n % 7 == 0) {
            pin_on(net, n % 4);
            ++placed;
        }
        // One cell on two pins of the net: every 50th net, 2-pin or not,
        // every other time a hub.
        if (deg - placed >= 2 && n % 50 == 1) {
            const int c = n % 100 == 1 ? n % 4 : rng.uniform_int(0, cells - 1);
            pin_on(net, c);
            pin_on(net, c);
            placed += 2;
        }
        for (; placed < deg; ++placed)
            pin_on(net, rng.uniform_int(0, cells - 1));
    }
    return d;
}

}  // namespace rdp::oracle
