#include "audit/invariant_audit.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

namespace rdp::audit {

namespace {

constexpr size_t kNumAuditors = 7;

constexpr std::array<AuditorInfo, kNumAuditors> kAuditors = {{
    {"finite-gradients",
     "WA/density/net-moving gradients are finite and NaN-free"},
    {"density-mass",
     "density-grid mass equals total clipped movable+fixed charge"},
    {"router-accounting",
     "edge demand equals committed route segments; history costs >= 0"},
    {"congestion-finite",
     "congestion-map demand and capacity are finite and non-negative"},
    {"spectral-finite",
     "spectral Poisson potential and field grids are finite and NaN-free"},
    {"inflation-budget",
     "inflated-area bookkeeping balances against the filler budget"},
    {"legalized", "legalized cells are row/site-aligned and overlap-free"},
}};

std::array<long long, kNumAuditors> g_runs{};

size_t auditor_index(std::string_view name) {
    for (size_t i = 0; i < kAuditors.size(); ++i)
        if (name == kAuditors[i].name) return i;
    return kAuditors.size();
}

void note_run(std::string_view name) {
    const size_t i = auditor_index(name);
    if (i < g_runs.size()) ++g_runs[i];
}

[[noreturn]] void fail(const char* auditor, const std::string& msg) {
    detail::audit_fail(auditor, msg);
}

/// Shared by the router-accounting checks: recompute wire demand
/// and bend vias from the committed paths with the same unit increments
/// RouteState::commit applies; integer-valued sums in double are exact, so
/// the comparison is exact equality.
void check_demand_matches_paths(const char* auditor, const GridF& dem_h,
                                const GridF& dem_v, const GridF& bend_vias,
                                const std::vector<RoutePath>& paths) {
    GridF ref_h(dem_h.width(), dem_h.height());
    GridF ref_v(dem_v.width(), dem_v.height());
    GridF ref_b(bend_vias.width(), bend_vias.height());
    for (const RoutePath& p : paths) {
        for (const RouteSeg& s : p.segs) {
            if (s.horizontal()) {
                const int lo = std::min(s.x0, s.x1), hi = std::max(s.x0, s.x1);
                for (int x = lo; x <= hi; ++x) ref_h.at(x, s.y0) += 1.0;
            } else {
                const int lo = std::min(s.y0, s.y1), hi = std::max(s.y0, s.y1);
                for (int y = lo; y <= hi; ++y) ref_v.at(s.x0, y) += 1.0;
            }
        }
        for (size_t i = 0; i + 1 < p.segs.size(); ++i)
            ref_b.at(p.segs[i].x1, p.segs[i].y1) += 1.0;
    }

    auto compare = [auditor](const GridF& got, const GridF& want,
                             const char* map) {
        for (int y = 0; y < got.height(); ++y) {
            for (int x = 0; x < got.width(); ++x) {
                if (got.at(x, y) == want.at(x, y)) continue;
                std::ostringstream oss;
                oss << map << " demand at G-cell (" << x << ", " << y << ") is "
                    << got.at(x, y) << " but the committed route segments sum"
                    << " to " << want.at(x, y);
                fail(auditor, oss.str());
            }
        }
    };
    compare(dem_h, ref_h, "horizontal");
    compare(dem_v, ref_v, "vertical");
    compare(bend_vias, ref_b, "bend-via");
}

}  // namespace

const std::vector<AuditorInfo>& registered_auditors() {
    static const std::vector<AuditorInfo> v(kAuditors.begin(), kAuditors.end());
    return v;
}

long long runs(std::string_view name) {
    const size_t i = auditor_index(name);
    return i < g_runs.size() ? g_runs[i] : -1;
}

void reset_runs() { g_runs.fill(0); }

void check_gradients_finite(const char* what, const std::vector<Vec2>& grad) {
    if (!audit_enabled()) return;
    note_run("finite-gradients");
    for (size_t i = 0; i < grad.size(); ++i) {
        if (std::isfinite(grad[i].x) && std::isfinite(grad[i].y)) continue;
        std::ostringstream oss;
        oss << what << " of cell " << i << " is not finite: ("
            << grad[i].x << ", " << grad[i].y << ")";
        fail("finite-gradients", oss.str());
    }
}

void check_density_mass(const GridF& density, double expected_area,
                        double rel_tol) {
    if (!audit_enabled()) return;
    note_run("density-mass");
    const double mass = grid_sum(density);
    const double tol = rel_tol * std::max(std::abs(expected_area), 1.0);
    if (!std::isfinite(mass) || std::abs(mass - expected_area) > tol) {
        std::ostringstream oss;
        oss << "density grid mass " << mass << " != expected charge "
            << expected_area << " (|diff| = " << std::abs(mass - expected_area)
            << " > tol " << tol << ")";
        fail("density-mass", oss.str());
    }
}

void check_router_accounting(const GridF& dem_h, const GridF& dem_v,
                             const GridF& bend_vias,
                             const std::vector<RoutePath>& paths,
                             const GridF& hist_h, const GridF& hist_v) {
    if (!audit_enabled()) return;
    note_run("router-accounting");

    check_demand_matches_paths("router-accounting", dem_h, dem_v, bend_vias,
                               paths);

    auto nonneg = [](const GridF& hist, const char* map) {
        for (int y = 0; y < hist.height(); ++y) {
            for (int x = 0; x < hist.width(); ++x) {
                if (hist.at(x, y) >= 0.0) continue;
                std::ostringstream oss;
                oss << map << " history cost at G-cell (" << x << ", " << y
                    << ") is negative: " << hist.at(x, y);
                fail("router-accounting", oss.str());
            }
        }
    };
    nonneg(hist_h, "horizontal");
    nonneg(hist_v, "vertical");
}

void check_incremental_route(const GridF& dem_h, const GridF& dem_v,
                             const GridF& bend_vias,
                             const std::vector<RoutePath>& paths) {
    if (!audit_enabled()) return;
    check_demand_matches_paths("router-accounting", dem_h, dem_v, bend_vias,
                               paths);
}

bool congestion_map_valid(const CongestionMap& cmap, std::string& msg) {
    const GridF& dmd = cmap.demand();
    const GridF& cap = cmap.capacity();
    for (int y = 0; y < dmd.height(); ++y) {
        for (int x = 0; x < dmd.width(); ++x) {
            const double dv = dmd.at(x, y);
            const double cv = cap.at(x, y);
            if (std::isfinite(dv) && dv >= 0.0 && std::isfinite(cv) &&
                cv >= 0.0)
                continue;
            std::ostringstream oss;
            oss << "congestion map at G-cell (" << x << ", " << y
                << ") is invalid: demand " << dv << ", capacity " << cv;
            msg = oss.str();
            return false;
        }
    }
    return true;
}

void check_congestion_map(const CongestionMap& cmap) {
    if (!audit_enabled()) return;
    note_run("congestion-finite");
    std::string msg;
    if (!congestion_map_valid(cmap, msg)) fail("congestion-finite", msg);
}

void check_spectral_finite(const char* what, const GridF& potential,
                           const GridF& field_x, const GridF& field_y) {
    if (!audit_enabled()) return;
    note_run("spectral-finite");
    auto scan = [what](const GridF& g, const char* map) {
        const double* p = g.data();
        const size_t n = g.size();
        for (size_t i = 0; i < n; ++i) {
            if (std::isfinite(p[i])) continue;
            const int x = static_cast<int>(i) % g.width();
            const int y = static_cast<int>(i) / g.width();
            std::ostringstream oss;
            oss << what << " solve produced a non-finite " << map
                << " value at bin (" << x << ", " << y << "): " << p[i];
            fail("spectral-finite", oss.str());
        }
    };
    scan(potential, "potential");
    scan(field_x, "field-x");
    scan(field_y, "field-y");
}

void check_inflation_budget(const Design& d, int first_filler,
                            const std::vector<double>& ratios,
                            double usable_filler_frac, double extra_area) {
    if (!audit_enabled()) return;
    note_run("inflation-budget");
    if (ratios.size() != static_cast<size_t>(d.num_cells())) {
        std::ostringstream oss;
        oss << "ratio vector has " << ratios.size() << " entries for "
            << d.num_cells() << " cells";
        fail("inflation-budget", oss.str());
    }

    double growth = 0.0;
    for (int i = 0; i < first_filler; ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        const double r = ratios[static_cast<size_t>(i)];
        if (!std::isfinite(r) || r <= 0.0) {
            std::ostringstream oss;
            oss << "inflation ratio of cell " << i << " ('" << c.name
                << "') is invalid: " << r;
            fail("inflation-budget", oss.str());
        }
        if (c.movable()) growth += c.area() * (r - 1.0);
    }

    double filler_area = 0.0;
    for (int i = first_filler; i < d.num_cells(); ++i)
        filler_area += d.cells[static_cast<size_t>(i)].area();
    const double budget =
        std::max(usable_filler_frac * filler_area - extra_area, 0.0);
    const double tol = 1e-6 * std::max(usable_filler_frac * filler_area, 1.0);
    if (growth > budget + tol) {
        std::ostringstream oss;
        oss << "real-cell inflated area growth " << growth
            << " exceeds the filler budget " << budget << " (filler area "
            << filler_area << ", PG charge " << extra_area << ")";
        fail("inflation-budget", oss.str());
    }

    // budget_inflation assigns one uniform shrink ratio in (0, 1] to every
    // filler; a diverging entry means the bookkeeping was corrupted.
    for (int i = first_filler; i < d.num_cells(); ++i) {
        const double r = ratios[static_cast<size_t>(i)];
        const double r0 = ratios[static_cast<size_t>(first_filler)];
        if (!std::isfinite(r) || r <= 0.0 || r > 1.0 + 1e-12 || r != r0) {
            std::ostringstream oss;
            oss << "filler " << i << " shrink ratio " << r
                << " is not the uniform in-(0,1] budget ratio (" << r0 << ")";
            fail("inflation-budget", oss.str());
        }
    }
}

void check_legalized(const Design& d, double eps) {
    if (!audit_enabled()) return;
    note_run("legalized");

    for (int i = 0; i < d.num_cells(); ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (!c.movable()) continue;
        const Rect b = c.bbox();
        if (b.lx < d.region.lx - eps || b.hx > d.region.hx + eps ||
            b.ly < d.region.ly - eps || b.hy > d.region.hy + eps) {
            std::ostringstream oss;
            oss << "cell " << i << " ('" << c.name << "') leaves the region: ["
                << b.lx << ", " << b.ly << ", " << b.hx << ", " << b.hy << "]";
            fail("legalized", oss.str());
        }
        const double row_rel = (b.ly - d.region.ly) / d.row_height;
        if (std::abs(row_rel - std::round(row_rel)) > 1e-4) {
            std::ostringstream oss;
            oss << "cell " << i << " ('" << c.name << "') is not row-aligned:"
                << " bottom edge " << b.ly << " (row height " << d.row_height
                << ")";
            fail("legalized", oss.str());
        }
        const double site_rel = (b.lx - d.region.lx) / d.site_width;
        if (std::abs(site_rel - std::round(site_rel)) > 1e-4) {
            std::ostringstream oss;
            oss << "cell " << i << " ('" << c.name << "') is not site-aligned:"
                << " left edge " << b.lx << " (site width " << d.site_width
                << ")";
            fail("legalized", oss.str());
        }
    }

    // Overlaps via a row-bucketed sweep (mirrors legal/tetris.cpp is_legal,
    // but reports the offending pair).
    const size_t nrows = d.rows.size();
    std::vector<std::vector<int>> by_row(nrows);
    for (int i = 0; i < d.num_cells(); ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (!c.movable()) continue;
        const int r = static_cast<int>(
            std::round((c.bbox().ly - d.region.ly) / d.row_height));
        if (r < 0 || r >= static_cast<int>(nrows)) {
            std::ostringstream oss;
            oss << "cell " << i << " ('" << c.name << "') sits outside the "
                << nrows << " rows (row index " << r << ")";
            fail("legalized", oss.str());
        }
        by_row[static_cast<size_t>(r)].push_back(i);
    }
    for (auto& row : by_row) {
        std::sort(row.begin(), row.end(), [&](int a, int b) {
            return d.cells[static_cast<size_t>(a)].bbox().lx <
                   d.cells[static_cast<size_t>(b)].bbox().lx;
        });
        for (size_t i = 0; i + 1 < row.size(); ++i) {
            const Rect a = d.cells[static_cast<size_t>(row[i])].bbox();
            const Rect b = d.cells[static_cast<size_t>(row[i + 1])].bbox();
            if (a.hx > b.lx + eps) {
                std::ostringstream oss;
                oss << "cells " << row[i] << " ('"
                    << d.cells[static_cast<size_t>(row[i])].name << "') and "
                    << row[i + 1] << " ('"
                    << d.cells[static_cast<size_t>(row[i + 1])].name
                    << "') overlap in a row by " << a.hx - b.lx;
                fail("legalized", oss.str());
            }
        }
        for (int ci : row) {
            const Rect b =
                d.cells[static_cast<size_t>(ci)].bbox().expanded(-eps);
            if (b.empty()) continue;
            for (int fi = 0; fi < d.num_cells(); ++fi) {
                const Cell& f = d.cells[static_cast<size_t>(fi)];
                if (f.movable()) continue;
                if (!b.intersects(f.bbox())) continue;
                std::ostringstream oss;
                oss << "cell " << ci << " ('"
                    << d.cells[static_cast<size_t>(ci)].name
                    << "') overlaps fixed cell " << fi << " ('" << f.name
                    << "')";
                fail("legalized", oss.str());
            }
        }
    }
}

}  // namespace rdp::audit
