// Lint fixture (lint-unordered-iter, local shape): iterating an
// unordered_map parameter and writing each entry to the epoch store
// in hash order. The store's record order then follows the map's
// insertion history, which no run-vs-run test can see. Never compiled.
#include <cstdint>
#include <string>
#include <unordered_map>

namespace fix {

struct Store
{
    void put(const std::string &key, double value);
};

void
flushCells(Store &store,
           const std::unordered_map<std::string, double> &cells)
{
    for (const auto &kv : cells) {
        store.put(kv.first, kv.second);
    }
}

} // namespace fix
