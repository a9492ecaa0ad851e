#include "place/objective.hpp"

#include <cassert>
#include <memory>

#include "audit/invariant_audit.hpp"
#include "congestion/lambda_schedule.hpp"

namespace rdp {

PlacementObjective::PlacementObjective(BinGrid grid, DensityConfig density_cfg,
                                       NetMovingConfig netmove_cfg,
                                       double gamma)
    : wa_(gamma), density_(grid, density_cfg), netmove_(netmove_cfg) {}

void PlacementObjective::bind(const Design& d) {
    const auto slots = std::make_shared<const PinSlots>(d);
    wa_.set_slots(slots);
    netmove_.set_slots(slots);
    density_.set_fixed(d);
}

ObjectiveTerms PlacementObjective::evaluate(Design& d,
                                            const std::vector<int>& movable,
                                            const std::vector<Vec2>& pos,
                                            std::vector<Vec2>& grad_out) const {
    assert(movable.size() == pos.size());
    // Input positions are audited before they touch the design: a NaN
    // coordinate would otherwise flow into the density splat (and cast to an
    // int bin index) before the gradient checks below could see it.
    if (audit_enabled())
        audit::check_gradients_finite("input position", pos);
    d.set_positions(movable, pos);

    ObjectiveTerms terms;
    terms.lambda1 = lambda1_;

    const WirelengthResult wl = wa_.evaluate(d);
    terms.wirelength = wl.total;

    const DensityResult den =
        density_.evaluate(d, inflation_, extra_density_);
    terms.density = den.penalty;
    terms.overflow = den.overflow;
    terms.wl_grad_l1 = gradient_l1(wl.cell_grad);
    terms.density_grad_l1 = gradient_l1(den.cell_grad);

    // Congestion term: either the paper's net-moving gradients or the
    // bounding-box baseline, both weighted by the Eq. (10) lambda_2.
    std::vector<Vec2> cong_grad;
    const bool dc = cmap_ != nullptr &&
                    (dc_model_ == DcModel::BoundingBox || cfield_ != nullptr);
    if (dc) {
        if (dc_model_ == DcModel::NetMoving) {
            NetMovingResult cong = netmove_.compute(d, *cmap_, *cfield_);
            terms.congestion = cong.penalty;
            terms.num_congested_cells = cong.num_congested_cells;
            cong_grad = std::move(cong.cell_grad);
        } else {
            BBoxPenaltyResult cong = bbox_.compute(d, *cmap_);
            terms.congestion = cong.penalty;
            for (const Cell& c : d.cells) {
                if (!c.movable()) continue;
                if (cmap_->congestion_at_point(c.pos) > 0.0)
                    ++terms.num_congested_cells;
            }
            cong_grad = std::move(cong.cell_grad);
        }
        terms.lambda2 =
            lambda2_scale_ *
            compute_lambda2(terms.num_congested_cells, d.num_cells(),
                            terms.wl_grad_l1, gradient_l1(cong_grad));
    }

    // Invariant audit: every gradient term the Nesterov step consumes must
    // be finite and NaN-free (a single NaN coordinate silently corrupts the
    // whole trajectory through the BB steplength estimate).
    if (audit_enabled()) {
        audit::check_gradients_finite("wirelength gradient", wl.cell_grad);
        audit::check_gradients_finite("density gradient", den.cell_grad);
        if (dc)
            audit::check_gradients_finite(dc_model_ == DcModel::NetMoving
                                              ? "net-moving gradient"
                                              : "bounding-box gradient",
                                          cong_grad);
    }

    grad_out.assign(movable.size(), Vec2{});
    for (size_t i = 0; i < movable.size(); ++i) {
        const size_t ci = static_cast<size_t>(movable[i]);
        Vec2 g = wl.cell_grad[ci] + den.cell_grad[ci] * lambda1_;
        if (dc) g += cong_grad[ci] * terms.lambda2;
        grad_out[i] = g;
    }
    return terms;
}

}  // namespace rdp
