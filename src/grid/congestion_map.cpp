#include "grid/congestion_map.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rdp {

CongestionMap::CongestionMap(BinGrid grid, GridF demand, GridF capacity)
    : grid_(grid),
      demand_(std::move(demand)),
      capacity_(std::move(capacity)),
      congestion_(demand_.width(), demand_.height()) {
    assert(grid_.compatible(demand_) && grid_.compatible(capacity_));
    for (int y = 0; y < congestion_.height(); ++y)
        for (int x = 0; x < congestion_.width(); ++x)
            congestion_.at(x, y) = std::max(utilization_at(x, y) - 1.0, 0.0);
}

double CongestionMap::utilization_at(int ix, int iy) const {
    const double cap = capacity_.at(ix, iy);
    if (cap <= 0.0) return demand_.at(ix, iy) > 0.0 ? 1.0 : 0.0;
    return demand_.at(ix, iy) / cap;
}

double CongestionMap::congestion_at_point(Vec2 p) const {
    const GridIndex g = grid_.index_of(p);
    return congestion_at(g.ix, g.iy);
}

GridF CongestionMap::utilization_grid() const {
    GridF out(demand_.width(), demand_.height());
    for (int y = 0; y < out.height(); ++y)
        for (int x = 0; x < out.width(); ++x)
            out.at(x, y) = utilization_at(x, y);
    return out;
}

double CongestionMap::average_congestion() const {
    if (demand_.empty()) return 0.0;
    double acc = 0.0;
    for (int y = 0; y < demand_.height(); ++y)
        for (int x = 0; x < demand_.width(); ++x)
            acc += congestion_at(x, y);
    return acc / static_cast<double>(demand_.size());
}

int CongestionMap::overflowed_cells() const {
    int n = 0;
    for (int y = 0; y < demand_.height(); ++y)
        for (int x = 0; x < demand_.width(); ++x)
            if (congestion_at(x, y) > 0.0) ++n;
    return n;
}

double CongestionMap::total_overflow() const {
    double acc = 0.0;
    for (int y = 0; y < demand_.height(); ++y)
        for (int x = 0; x < demand_.width(); ++x)
            acc += std::max(demand_.at(x, y) - capacity_.at(x, y), 0.0);
    return acc;
}

double CongestionMap::weighted_overflow(double slack, double exponent) const {
    double acc = 0.0;
    for (int y = 0; y < demand_.height(); ++y) {
        for (int x = 0; x < demand_.width(); ++x) {
            const double cap = capacity_.at(x, y);
            const double dmd = demand_.at(x, y);
            const double over = std::max(dmd - slack * cap, 0.0);
            if (over <= 0.0) continue;
            const double util = cap > 0.0 ? dmd / cap : 1.0;
            acc += over * std::pow(util, exponent);
        }
    }
    return acc;
}

double CongestionMap::peak_utilization() const {
    double peak = 0.0;
    for (int y = 0; y < demand_.height(); ++y)
        for (int x = 0; x < demand_.width(); ++x)
            peak = std::max(peak, utilization_at(x, y));
    return peak;
}

}  // namespace rdp
