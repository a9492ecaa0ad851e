// Firing fixture for rdp-thread-local: per-thread buffers that outlive
// every call, sized by the largest request any thread ever made.
#include <vector>

double* search_buffer(std::size_t n) {
    thread_local std::vector<double> buf;  // finding: thread_local
    if (buf.size() < n) buf.resize(n);
    return buf.data();
}

static thread_local int calls = 0;  // finding: thread_local

int count_call() { return ++calls; }
