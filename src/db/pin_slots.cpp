#include "db/pin_slots.hpp"

#include <stdexcept>

namespace rdp {

PinSlots::PinSlots(const Design& d)
    : plan_(par::plan(d.nets.size(), 256, 16)) {
    const size_t num_nets = d.nets.size();
    net_begin_.resize(num_nets + 1);
    size_t slots = 0;
    for (size_t n = 0; n < num_nets; ++n) {
        net_begin_[n] = static_cast<uint32_t>(slots);
        slots += d.nets[n].pins.size();
        if (slots > kSlotMask)
            throw std::length_error("PinSlots: more than 2^30 net pins");
    }
    net_begin_[num_nets] = static_cast<uint32_t>(slots);

    // Cell -> slot CSR by counting sort; slots are visited in ascending
    // order, so each cell's entries come out ascending (net order, then pin
    // order within a net).
    const size_t num_cells = d.cells.size();
    cell_begin_.assign(num_cells + 1, 0);
    const auto cell_of = [&](int pin) {
        return static_cast<size_t>(d.pins[static_cast<size_t>(pin)].cell);
    };
    for (const Net& net : d.nets)
        for (int p : net.pins) ++cell_begin_[cell_of(p) + 1];
    for (size_t c = 0; c < num_cells; ++c) cell_begin_[c + 1] += cell_begin_[c];
    entries_.resize(slots);
    std::vector<uint32_t> fill(cell_begin_.begin(), cell_begin_.end() - 1);
    // Chunk and net of each cell's previous entry, to set the flags.
    std::vector<uint32_t> last_chunk(num_cells, UINT32_MAX);
    std::vector<uint32_t> last_net(num_cells, UINT32_MAX);
    for (size_t c = 0; c < plan_.num_chunks; ++c) {
        for (size_t n = plan_.begin(c); n < plan_.end(c); ++n) {
            const Net& net = d.nets[n];
            for (size_t i = 0; i < net.pins.size(); ++i) {
                const size_t cell = cell_of(net.pins[i]);
                uint32_t e = net_begin_[n] + static_cast<uint32_t>(i);
                if (last_chunk[cell] != c) e |= kChunkStart;
                if (last_net[cell] == n) e |= kSameNet;
                last_chunk[cell] = static_cast<uint32_t>(c);
                last_net[cell] = static_cast<uint32_t>(n);
                entries_[fill[cell]++] = e;
            }
        }
    }

    // Lane-per-net WA batches: each chunk's nets of degree 2, 3 and 4.
    batch_offset_.reserve(plan_.num_chunks * (kMaxBatchDegree - 1) + 1);
    batch_offset_.push_back(0);
    for (size_t c = 0; c < plan_.num_chunks; ++c) {
        for (int deg = 2; deg <= kMaxBatchDegree; ++deg) {
            for (size_t n = plan_.begin(c); n < plan_.end(c); ++n)
                if (d.nets[n].degree() == deg)
                    batch_nets_.push_back(static_cast<int>(n));
            batch_offset_.push_back(static_cast<uint32_t>(batch_nets_.size()));
        }
    }
}

bool PinSlots::matches(const Design& d) const {
    if (d.cells.size() != num_cells() || d.nets.size() + 1 != net_begin_.size())
        return false;
    for (size_t n = 0; n < d.nets.size(); ++n)
        if (net_begin_[n + 1] - net_begin_[n] != d.nets[n].pins.size())
            return false;
    return true;
}

}  // namespace rdp
