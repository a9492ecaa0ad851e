#include "recover/divergence.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "recover/fault_injection.hpp"

namespace rdp::recover {

DivergenceChecks::DivergenceChecks(const Design& d,
                                   const std::vector<int>& movable,
                                   const RecoverConfig& cfg, bool active,
                                   const char* stage, const char* iter_word)
    : stage_(stage),
      iter_word_(iter_word),
      active_(active),
      explosion_factor_(cfg.hpwl_explosion_factor),
      center_(d.region.center()) {
    int nets = 0;
    for (const Net& n : d.nets)
        if (n.degree() >= 2) ++nets;
    die_bound_ = (d.region.width() + d.region.height()) *
                 static_cast<double>(std::max(nets, 1));
    project_ = [&d, &movable](size_t slot, Vec2 p) {
        const Cell& c = d.cells[static_cast<size_t>(movable[slot])];
        const Rect r = d.region;
        return Vec2{std::clamp(p.x, r.lx + c.width / 2, r.hx - c.width / 2),
                    std::clamp(p.y, r.ly + c.height / 2, r.hy - c.height / 2)};
    };
}

void DivergenceChecks::gradient(std::vector<Vec2>& grad, bool site,
                                int fault_iter, int iter) const {
    if (!active_) return;
    if (site && !grad.empty() &&
        fault::fire(stage_, FaultKind::GradientNaN, fault_iter))
        grad[0].x = std::numeric_limits<double>::quiet_NaN();
    for (size_t gi = 0; gi < grad.size(); ++gi) {
        if (std::isfinite(grad[gi].x) && std::isfinite(grad[gi].y)) continue;
        std::ostringstream oss;
        oss << "non-finite gradient of slot " << gi << " at " << iter_word_
            << " " << iter;
        throw RecoverableError(FaultKind::GradientNaN, stage_, oss.str());
    }
}

void DivergenceChecks::objective(double term_sum, double wirelength,
                                 double base_wl, int iter) const {
    if (!active_) return;
    if (!std::isfinite(term_sum)) {
        std::ostringstream oss;
        oss << "non-finite objective terms at " << iter_word_ << " " << iter;
        throw RecoverableError(FaultKind::GradientNaN, stage_, oss.str());
    }
    const double bound = explosion_factor_ * std::max(base_wl, die_bound_);
    if (wirelength > bound) {
        std::ostringstream oss;
        oss << "WA wirelength " << wirelength
            << " exceeds the explosion bound " << bound;
        throw RecoverableError(FaultKind::HpwlExplosion, stage_, oss.str());
    }
}

bool DivergenceChecks::explosion_fires(int fault_iter) const {
    return active_ &&
           fault::fire(stage_, FaultKind::HpwlExplosion, fault_iter);
}

std::vector<Vec2> DivergenceChecks::fling(std::vector<Vec2> pos) const {
    const Vec2 c = center_;
    for (Vec2& p : pos) p = {c.x + (p.x - c.x) * 1e4, c.y + (p.y - c.y) * 1e4};
    return pos;
}

}  // namespace rdp::recover
