#include "store/fingerprint.hh"

#include <bit>

namespace sadapt::store {

Fnv1a &
Fnv1a::f64(double v)
{
    return u64(std::bit_cast<std::uint64_t>(v));
}

namespace {

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

    // The stream digests are the per-op work; the trace hashes them
    // once and re-hashes only after it grew.
    h.u64(trace.shape().tiles);
    h.u64(trace.shape().gpesPerTile);
    for (const StreamDigest &d : *trace.streamDigests()) {
        h.u64(d.ops);
        for (std::uint64_t lane : d.lanes)
            h.u64(lane);
    }
    h.u64(trace.phaseNames().size());
    for (const std::string &name : trace.phaseNames())
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
