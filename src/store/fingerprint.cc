#include "store/fingerprint.hh"

#include <bit>

namespace sadapt::store {

Fnv1a &
Fnv1a::f64(double v)
{
    return u64(std::bit_cast<std::uint64_t>(v));
}

namespace {

// xxHash64's primes; the lane round below is its accumulator round.
constexpr std::uint64_t laneP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t laneP2 = 0xc2b2ae3d27d4eb4full;

constexpr std::uint64_t
laneRound(std::uint64_t acc, std::uint64_t v)
{
    return std::rotl(acc + v * laneP2, 31) * laneP1;
}

/**
 * Hash one core stream: op i folds `addr` and then `pc | kind << 16`
 * into lane i mod 4, so the four lanes are independent multiply
 * chains (kept in registers, hence no array); the op count and then
 * the four lane states are folded into `h` at stream end.
 */
void
hashStream(Fnv1a &h, const StreamView &stream)
{
    const std::size_t n = stream.size;
    std::uint64_t lane0 = laneP1 + laneP2;
    std::uint64_t lane1 = laneP2;
    std::uint64_t lane2 = 0;
    std::uint64_t lane3 = 0 - laneP1;
    auto fold = [&stream](std::uint64_t &acc, std::size_t i) {
        const std::uint64_t site =
            stream.pc[i] | std::uint64_t{stream.kind[i]} << 16;
        acc = laneRound(laneRound(acc, stream.addr[i]), site);
    };
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        fold(lane0, i);
        fold(lane1, i + 1);
        fold(lane2, i + 2);
        fold(lane3, i + 3);
    }
    if (i < n)
        fold(lane0, i++);
    if (i < n)
        fold(lane1, i++);
    if (i < n)
        fold(lane2, i++);
    h.u64(n);
    h.u64(lane0);
    h.u64(lane1);
    h.u64(lane2);
    h.u64(lane3);
}

void
hashEnergyParams(Fnv1a &h, const EnergyParams &e)
{
    h.f64(e.sramRead4k);
    h.f64(e.sramWriteFactor);
    h.f64(e.spmFactor);
    h.f64(e.sramLeak4k);
    h.f64(e.intOpEnergy);
    h.f64(e.fpOpEnergy);
    h.f64(e.idleCycleEnergy);
    h.f64(e.coreLeak);
    h.f64(e.xbarTraversal);
    h.f64(e.xbarArbitration);
    h.f64(e.xbarLeak);
    h.f64(e.dramPerByte);
}

} // namespace

std::uint64_t
workloadFingerprint(const Trace &trace, const RunParams &params,
                    MemType l1_type)
{
    Fnv1a h;
    h.u64(static_cast<std::uint64_t>(l1_type));
    h.u64(params.shape.tiles);
    h.u64(params.shape.gpesPerTile);
    h.f64(params.memBandwidth);
    h.u64(params.epochFpOps);
    hashEnergyParams(h, params.energy);

    const TraceView v = trace.view();
    h.u64(v.shape.tiles);
    h.u64(v.shape.gpesPerTile);
    for (const StreamView &stream : v.streams)
        hashStream(h, stream);
    h.u64(v.phases.size());
    for (const std::string &name : v.phases)
        h.str(name);
    return h.value();
}

std::uint64_t
buildSimSalt()
{
#ifdef SADAPT_GIT_REV
    const char *rev = SADAPT_GIT_REV;
#else
    const char *rev = "unknown";
#endif
    Fnv1a h;
    h.str("sadapt-sim-salt");
    h.str(rev);
    return h.value();
}

} // namespace sadapt::store
