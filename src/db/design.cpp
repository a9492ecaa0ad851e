#include "db/design.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace rdp {

int Design::add_cell(std::string cell_name, double w, double h, CellKind kind,
                     Vec2 pos) {
    Cell c;
    c.name = std::move(cell_name);
    c.width = w;
    c.height = h;
    c.kind = kind;
    c.pos = pos;
    cells.push_back(std::move(c));
    return num_cells() - 1;
}

int Design::add_pin(int cell, Vec2 offset) {
    assert(cell >= 0 && cell < num_cells());
    Pin p;
    p.cell = cell;
    p.offset = offset;
    pins.push_back(p);
    const int idx = num_pins() - 1;
    cells[cell].pins.push_back(idx);
    return idx;
}

int Design::add_net(std::string net_name, double weight) {
    Net n;
    n.name = std::move(net_name);
    n.weight = weight;
    nets.push_back(std::move(n));
    return num_nets() - 1;
}

void Design::connect(int net, int pin) {
    assert(net >= 0 && net < num_nets());
    assert(pin >= 0 && pin < num_pins());
    assert(pins[pin].net == -1 && "pin already connected");
    pins[pin].net = net;
    nets[net].pins.push_back(pin);
}

double Design::row_count() const {
    if (!(row_height > 0.0)) return 0.0;
    return std::floor(region.height() / row_height);
}

void Design::build_rows() {
    rows.clear();
    const double count = row_count();
    if (count < 0.0)
        throw std::length_error("Design::build_rows: inverted region");
    if (!(count <= kMaxRows))
        throw std::length_error("Design::build_rows: more than " +
                                std::to_string(kMaxRows) + " rows");
    const int n = static_cast<int>(count);
    rows.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        Row r;
        r.y = region.ly + i * row_height;
        r.height = row_height;
        r.lx = region.lx;
        r.hx = region.hx;
        rows.push_back(r);
    }
}

std::vector<int> Design::movable_cells() const {
    std::vector<int> out;
    for (int i = 0; i < num_cells(); ++i)
        if (cells[i].movable()) out.push_back(i);
    return out;
}

std::vector<Vec2> Design::positions(const std::vector<int>& ids) const {
    std::vector<Vec2> pos(ids.size());
    for (size_t i = 0; i < ids.size(); ++i)
        pos[i] = cells[static_cast<size_t>(ids[i])].pos;
    return pos;
}

void Design::set_positions(const std::vector<int>& ids,
                           const std::vector<Vec2>& pos) {
    for (size_t i = 0; i < ids.size(); ++i)
        cells[static_cast<size_t>(ids[i])].pos = pos[i];
}

std::vector<int> Design::macro_cells() const {
    std::vector<int> out;
    for (int i = 0; i < num_cells(); ++i)
        if (cells[i].is_macro()) out.push_back(i);
    return out;
}

double Design::total_movable_area() const {
    double a = 0.0;
    for (const Cell& c : cells)
        if (c.movable()) a += c.area();
    return a;
}

double Design::total_fixed_area() const {
    double a = 0.0;
    for (const Cell& c : cells)
        if (!c.movable()) a += c.bbox().overlap_area(region);
    return a;
}

double Design::utilization() const {
    const double free_area = region.area() - total_fixed_area();
    return free_area > 0.0 ? total_movable_area() / free_area : 0.0;
}

double Design::average_pins_per_cell() const {
    if (cells.empty()) return 0.0;
    return static_cast<double>(num_pins()) / num_cells();
}

void Design::clamp_movables_to_region() {
    for (Cell& c : cells) {
        if (!c.movable()) continue;
        const double hw = c.width / 2.0, hh = c.height / 2.0;
        c.pos.x = std::clamp(c.pos.x, region.lx + hw, region.hx - hw);
        c.pos.y = std::clamp(c.pos.y, region.ly + hh, region.hy - hh);
    }
}

std::vector<std::string> Design::validate() const {
    std::vector<std::string> problems;
    if (region.empty()) problems.push_back("empty placement region");
    for (int i = 0; i < num_pins(); ++i) {
        const Pin& p = pins[i];
        if (p.cell < 0 || p.cell >= num_cells())
            problems.push_back("pin " + std::to_string(i) + " has bad cell");
        if (p.net < -1 || p.net >= num_nets())
            problems.push_back("pin " + std::to_string(i) + " has bad net");
    }
    for (int i = 0; i < num_nets(); ++i) {
        for (int p : nets[i].pins) {
            if (p < 0 || p >= num_pins() || pins[p].net != i) {
                problems.push_back("net " + std::to_string(i) +
                                   " pin list inconsistent");
                break;
            }
        }
    }
    for (int i = 0; i < num_cells(); ++i) {
        const Cell& c = cells[i];
        if (c.width <= 0.0 || c.height <= 0.0)
            problems.push_back("cell " + c.name + " has non-positive size");
        for (int p : c.pins) {
            if (p < 0 || p >= num_pins() || pins[p].cell != i) {
                problems.push_back("cell " + c.name + " pin list inconsistent");
                break;
            }
        }
    }
    return problems;
}

}  // namespace rdp
