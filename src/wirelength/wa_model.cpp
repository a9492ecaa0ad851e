#include "wirelength/wa_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "wirelength/wa_kernel.hpp"

namespace rdp {

double WAWirelength::wa_1d(const std::vector<double>& xs,
                           std::vector<double>& grad,
                           WaScratch& scratch) const {
    const size_t n = xs.size();
    grad.assign(n, 0.0);
    if (n < 2) return 0.0;

    // The kernel stores the tail lane group as a full vector, so the weight
    // scratch is padded to the lane width (see wa::padded_size).
    const size_t cap = wa::padded_size(n);
    if (scratch.wp.size() < cap) {
        scratch.wp.resize(cap);
        scratch.wm.resize(cap);
    }
    return wa::wa_1d_core<simd::VecD>(xs.data(), n, gamma_,
                                      scratch.wp.data(), scratch.wm.data(),
                                      grad.data());
}

double WAWirelength::net_wa(const Design& d, const Net& net) const {
    if (net.degree() < 2) return 0.0;
    std::vector<double> xs, ys, tmp;
    WaScratch scratch;
    xs.reserve(net.pins.size());
    ys.reserve(net.pins.size());
    for (int p : net.pins) {
        const Vec2 pos = d.pin_position(p);
        xs.push_back(pos.x);
        ys.push_back(pos.y);
    }
    return wa_1d(xs, tmp, scratch) + wa_1d(ys, tmp, scratch);
}

namespace {

/// WA of chunk `chunk`'s nets of degree N, four nets per vector: one net
/// per lane (wa::wa_lanes). A short last batch repeats its last net in the
/// dead lanes and discards them.
template <int N>
void wa_batches(const Design& d, const PinSlots& slots, size_t chunk,
                double gamma, Vec2* terms, double* net_wl) {
    using V = simd::VecD;
    constexpr int L = simd::kLanes;
    const int* last = slots.batch_end(chunk, N);
    for (const int* b = slots.batch_begin(chunk, N); b < last; b += L) {
        const int live = static_cast<int>(std::min<ptrdiff_t>(L, last - b));
        int nets[L];
        double xb[N][L], yb[N][L];
        for (int l = 0; l < L; ++l) {
            nets[l] = b[std::min(l, live - 1)];
            const Net& net = d.nets[static_cast<size_t>(nets[l])];
            for (int j = 0; j < N; ++j) {
                const Vec2 pos =
                    d.pin_position(net.pins[static_cast<size_t>(j)]);
                xb[j][l] = pos.x;
                yb[j][l] = pos.y;
            }
        }
        V x[N], y[N], gx[N], gy[N];
        for (int j = 0; j < N; ++j) {
            x[j] = V::loadu(xb[j]);
            y[j] = V::loadu(yb[j]);
        }
        double wx[L], wy[L];
        wa::wa_lanes<V, N>(x, gamma, gx).storeu(wx);
        wa::wa_lanes<V, N>(y, gamma, gy).storeu(wy);
        for (int j = 0; j < N; ++j) {
            gx[j].storeu(xb[j]);
            gy[j].storeu(yb[j]);
        }
        for (int l = 0; l < live; ++l) {
            const size_t ni = static_cast<size_t>(nets[l]);
            const double w = d.nets[ni].weight;
            net_wl[ni] = wx[l] + wy[l];
            Vec2* t = terms + slots.net_begin(ni);
            for (int j = 0; j < N; ++j) t[j] = Vec2{xb[j][l], yb[j][l]} * w;
        }
    }
}

}  // namespace

WirelengthResult WAWirelength::evaluate(const Design& d) const {
    if (slots_) {
        if (!slots_->matches(d))
            throw std::invalid_argument(
                "WAWirelength::evaluate: the design does not match the "
                "netlist of its pin-slot layout");
        return evaluate_with(d, *slots_, buf_);
    }
    const PinSlots slots(d);
    Buffers buf;
    return evaluate_with(d, slots, buf);
}

WirelengthResult WAWirelength::evaluate_with(const Design& d,
                                             const PinSlots& slots,
                                             Buffers& buf) const {
    WirelengthResult res;
    const size_t num_cells = static_cast<size_t>(d.num_cells());
    res.cell_grad.resize(num_cells);
    buf.terms.resize(slots.num_slots());
    buf.net_wl.resize(d.nets.size());
    Vec2* terms = buf.terms.data();
    double* net_wl = buf.net_wl.data();

    // Parallel over nets: every net writes its own slots and its own
    // net_wl entry, and each chunk sums its nets' weighted wirelengths in
    // net order; chunk totals are added in chunk order below.
    const par::ChunkPlan& cp = slots.net_plan();
    std::vector<double> totals(cp.num_chunks, 0.0);
    par::run_chunks(cp, [&](size_t nb, size_t ne, size_t c) {
        wa_batches<2>(d, slots, c, gamma_, terms, net_wl);
        wa_batches<3>(d, slots, c, gamma_, terms, net_wl);
        wa_batches<4>(d, slots, c, gamma_, terms, net_wl);
        std::vector<double> xs, ys, gx, gy;
        WaScratch scratch;
        for (size_t ni = nb; ni < ne; ++ni) {
            const Net& net = d.nets[ni];
            const int deg = net.degree();
            if (deg >= 2 && deg <= PinSlots::kMaxBatchDegree) continue;
            Vec2* t = terms + slots.net_begin(ni);
            if (deg < 2) {
                for (int i = 0; i < deg; ++i) t[i] = Vec2{};
                continue;
            }
            xs.clear();
            ys.clear();
            for (int p : net.pins) {
                const Vec2 pos = d.pin_position(p);
                xs.push_back(pos.x);
                ys.push_back(pos.y);
            }
            const double wx = wa_1d(xs, gx, scratch);
            const double wy = wa_1d(ys, gy, scratch);
            net_wl[ni] = wx + wy;
            for (size_t i = 0; i < net.pins.size(); ++i)
                t[i] = Vec2{gx[i], gy[i]} * net.weight;
        }
        double total = 0.0;
        for (size_t ni = nb; ni < ne; ++ni) {
            const Net& net = d.nets[ni];
            if (net.degree() >= 2) total += net.weight * net_wl[ni];
        }
        totals[c] = total;
    });

    for (size_t c = 0; c < cp.num_chunks; ++c) res.total += totals[c];
    par::parallel_for(num_cells, 4096, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            res.cell_grad[i] = slots.gather(i, terms);
    });
    return res;
}

}  // namespace rdp
