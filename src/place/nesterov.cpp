#include "place/nesterov.hpp"

#include <cassert>
#include <cmath>

#include "util/check.hpp"

namespace rdp {

NesterovSolver::NesterovSolver(std::vector<Vec2> initial, NesterovConfig cfg)
    : cfg_(cfg) {
    s_.u = initial;
    s_.v = std::move(initial);
}

void NesterovSolver::step(const std::vector<Vec2>& grad,
                          const std::function<Vec2(size_t, Vec2)>& project) {
    RDP_ASSERT(grad.size() == s_.v.size(),
               "gradient has " << grad.size() << " entries for "
                               << s_.v.size() << " solver points");
    assert(grad.size() == s_.v.size());
    const size_t n = s_.v.size();

    // Steplength: BB inverse-Lipschitz estimate once history exists, with
    // growth clamped so one noisy estimate cannot blow up the trajectory.
    double alpha = cfg_.initial_step;
    if (s_.have_prev) {
        double dv2 = 0.0, dg2 = 0.0;
        for (size_t i = 0; i < n; ++i) {
            dv2 += (s_.v[i] - s_.prev_v[i]).norm2();
            dg2 += (grad[i] - s_.prev_g[i]).norm2();
        }
        if (dg2 > 0.0) alpha = std::sqrt(dv2 / dg2);
        if (!(alpha > 0.0) || !std::isfinite(alpha)) alpha = cfg_.initial_step;
        if (s_.last_alpha > 0.0)
            alpha = std::min(alpha, cfg_.max_step_growth * s_.last_alpha);
    }
    alpha = std::clamp(alpha, cfg_.min_step, cfg_.max_step);
    RDP_CHECK_FINITE(alpha, "Barzilai-Borwein steplength");
    s_.last_alpha = alpha;

    // Adaptive restart (O'Donoghue & Candes): when the gradient points
    // along the momentum direction, the momentum is carrying the iterate
    // uphill — drop it. Prevents the oscillation/divergence BB steps can
    // trigger on ill-conditioned objectives.
    if (s_.have_prev) {
        double along = 0.0;
        for (size_t i = 0; i < n; ++i)
            along += grad[i].dot(s_.v[i] - s_.u[i]);
        if (along > 0.0) s_.a = 1.0;
    }

    s_.prev_v = s_.v;
    s_.prev_g = grad;
    s_.have_prev = true;

    // u_{k+1} = v_k - alpha grad; v_{k+1} = u_{k+1} + coef (u_{k+1} - u_k).
    const double a_next = (1.0 + std::sqrt(4.0 * s_.a * s_.a + 1.0)) / 2.0;
    const double coef = (s_.a - 1.0) / a_next;
    for (size_t i = 0; i < n; ++i) {
        Vec2 u_next = s_.v[i] - grad[i] * alpha;
        if (project) u_next = project(i, u_next);
        Vec2 v_next = u_next + (u_next - s_.u[i]) * coef;
        if (project) v_next = project(i, v_next);
        s_.u[i] = u_next;
        s_.v[i] = v_next;
    }
    s_.a = a_next;
    ++s_.k;
}

}  // namespace rdp
