#pragma once
// Divergence detectors and fault-injection sites both guarded GP stages
// share (DESIGN.md §11). On a clean run every check only observes; a
// tripped one throws a typed RecoverableError naming the stage. All checks
// are inert while the stage's guard is inactive.

#include <functional>
#include <vector>

#include "db/design.hpp"
#include "recover/recover.hpp"
#include "util/geometry.hpp"

namespace rdp::recover {

class DivergenceChecks {
public:
    /// `iter_word` names the checked iteration in messages ("iteration",
    /// "inner iteration").
    DivergenceChecks(const Design& d, const std::vector<int>& movable,
                     const RecoverConfig& cfg, bool active, const char* stage,
                     const char* iter_word);

    /// The solver's projection: clamps a movable cell into the region.
    const std::function<Vec2(size_t, Vec2)>& project() const {
        return project_;
    }

    /// GradientNaN fault site (consulted for `fault_iter` when `site`),
    /// then the scan for non-finite gradients: a NaN position would poison
    /// every later evaluation (and the grid index casts behind it).
    void gradient(std::vector<Vec2>& grad, bool site, int fault_iter,
                  int iter) const;

    /// Non-finite objective terms (`term_sum`), or a WA total beyond
    /// hpwl_explosion_factor x max(`base_wl`, die bound).
    void objective(double term_sum, double wirelength, double base_wl,
                   int iter) const;

    /// HpwlExplosion fault site: true when armed for `fault_iter`.
    bool explosion_fires(int fault_iter) const;
    /// The injected explosion: `pos` flung 1e4x away from the die center.
    std::vector<Vec2> fling(std::vector<Vec2> pos) const;

private:
    const char* stage_;
    const char* iter_word_;
    bool active_;
    double explosion_factor_;
    /// Physical wirelength bound, one die span (width + height) per routed
    /// net: the floor of the explosion threshold, so early spreading that
    /// legitimately grows the WA total many-fold never false-positives.
    double die_bound_;
    Vec2 center_;
    std::function<Vec2(size_t, Vec2)> project_;
};

}  // namespace rdp::recover
