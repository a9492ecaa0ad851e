#pragma once
// Nesterov's accelerated gradient method as used by ePlace (paper Section
// II-A references [15]): the optimizer keeps a solution sequence u_k and a
// reference (lookahead) sequence v_k; gradients are evaluated at v_k, the
// steplength comes from a Barzilai-Borwein-style inverse-Lipschitz estimate
//   alpha_k = ||v_k - v_{k-1}|| / ||grad_k - grad_{k-1}||
// and the momentum coefficient follows a_{k+1} = (1 + sqrt(4 a_k^2 + 1))/2.
//
// The solver is a plain stepper over vectors of 2D points; the caller
// evaluates its objective gradient at reference() and calls step().

#include <functional>
#include <vector>

#include "recover/durable_checkpoint.hpp"
#include "util/geometry.hpp"

namespace rdp {

struct NesterovConfig {
    /// Steplength of the very first iteration, before a BB estimate exists.
    /// Deliberately tiny: it is only a probe displacement for the first
    /// Barzilai-Borwein ratio; a large first step can fling a converged
    /// placement far from its optimum.
    double initial_step = 1e-3;
    double min_step = 1e-12;
    double max_step = 1e6;
    /// Maximum per-iteration growth factor of the BB steplength.
    double max_step_growth = 10.0;
};

class NesterovSolver {
public:
    NesterovSolver(std::vector<Vec2> initial, NesterovConfig cfg = {});

    /// Point to evaluate the objective gradient at (v_k).
    const std::vector<Vec2>& reference() const { return s_.v; }
    /// Best-known solution (u_k).
    const std::vector<Vec2>& solution() const { return s_.u; }

    /// Advance one iteration using grad = d f / d v evaluated at reference().
    /// `project` is applied to every proposed point (e.g. clamping into the
    /// placement region); pass nullptr for unconstrained steps.
    void step(const std::vector<Vec2>& grad,
              const std::function<Vec2(size_t, Vec2)>& project);

    int iteration() const { return s_.k; }
    double last_step_length() const { return s_.last_alpha; }

    /// Complete momentum state for durable checkpoints (DESIGN.md §16).
    /// restore() onto a freshly constructed solver reproduces the iterate
    /// sequence bit for bit from the captured iteration.
    const recover::OptimizerSnapshot& snapshot() const { return s_; }
    void restore(const recover::OptimizerSnapshot& s) { s_ = s; }

private:
    NesterovConfig cfg_;
    recover::OptimizerSnapshot s_;  // the whole iterate/momentum state
};

}  // namespace rdp
