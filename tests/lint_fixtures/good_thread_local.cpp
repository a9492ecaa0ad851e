// Non-firing fixture for rdp-thread-local: buffers live for one call or
// in a workspace the caller owns and passes in, plus look-alike tokens
// the check must not trip on.
#include <cstddef>
#include <memory>
#include <vector>

struct Workspace {
    std::vector<double> grid;  // reserved once by the owner
};

// A thread_local buffer here would hold its high-water mark forever.
double search(Workspace& ws, std::size_t n) {
    auto block = std::make_unique<double[]>(n);  // freed on return
    double sum = 0.0;
    for (std::size_t i = 0; i < n && i < ws.grid.size(); ++i)
        sum += block[i] = ws.grid[i];
    return sum;
}

const char* note() { return "thread_local is reserved for util/parallel"; }
int my_thread_local_count = 0;  // an identifier, not the keyword
