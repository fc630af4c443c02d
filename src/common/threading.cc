#include "common/threading.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sadapt {

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("SPARSEADAPT_JOBS")) {
        const long v = std::strtol(env, nullptr, 10);
        return static_cast<unsigned>(std::clamp(v, 1L, 256L));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    if (jobs <= 1 || n <= 1) {
        // The exact serial path: no threads, no locks, caller's thread.
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::exception_ptr firstError; //!< guarded by mu
    auto work = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!firstError)
                    firstError = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };
    {
        // Declared after everything `work` references; jthread joins
        // on destruction, so every worker is joined on the throw path
        // of emplace_back too.
        std::vector<std::jthread> workers;
        const std::size_t count = std::min<std::size_t>(jobs, n);
        workers.reserve(count);
        for (std::size_t w = 0; w < count; ++w)
            workers.emplace_back(work);
    }
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace sadapt
