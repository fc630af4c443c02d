// Lint fixture (lint-wallclock): a host-clock deadline that only
// steers control flow. On an idle host every run-vs-run test passes;
// under load the loop stops early and the journal loses epochs.
// Never compiled.
#include <chrono>
#include <cstdint>

namespace fix {

struct Obs
{
    void emit(const char *name, double value);
};

void
recordEpochs(Obs &obs, std::uint64_t epochs)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    for (std::uint64_t e = 0; e < epochs; ++e) {
        if (std::chrono::steady_clock::now() > deadline)
            break;
        obs.emit("epoch", static_cast<double>(e));
    }
}

} // namespace fix
