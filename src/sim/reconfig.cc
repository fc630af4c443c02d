#include "sim/reconfig.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "sim/transmuter.hh"

namespace sadapt {

HwConfig
partialReconfig(const HwConfig &from, const HwConfig &to,
                std::uint32_t missed_mask)
{
    HwConfig out = to;
    const auto &params = allParams();
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (missed_mask & (1u << i))
            out = withParam(out, params[i],
                            paramValue(from, params[i]));
    }
    return out;
}

ReconfigCostModel::ReconfigCostModel(SystemShape shape,
                                     double mem_bandwidth,
                                     const EnergyParams &energy)
    : shapeV(shape), memBw(mem_bandwidth), ep(energy), sram(energy)
{
    SADAPT_ASSERT(memBw > 0.0, "bandwidth must be positive");
}

ReconfigCostModel::ReconfigCostModel(const RunParams &params)
    : ReconfigCostModel(params.shape, params.memBandwidth, params.energy)
{
}

bool
ReconfigCostModel::needsL1Flush(const HwConfig &from, const HwConfig &to)
{
    if (from.l1Type == MemType::Spm)
        return false; // SPM contents are software-managed; cap is fixed
    return from.l1Sharing != to.l1Sharing ||
        to.l1CapIdx < from.l1CapIdx;
}

bool
ReconfigCostModel::needsL2Flush(const HwConfig &from, const HwConfig &to)
{
    return from.l2Sharing != to.l2Sharing ||
        to.l2CapIdx < from.l2CapIdx;
}

Hertz
ReconfigCostModel::flushClock(const HwConfig &from,
                              bool energy_efficient_mode) const
{
    // The host's lookup table is indexed by (mode, L1 cap, L2 cap). The
    // flush is bandwidth-bound, so Energy-Efficient mode drains at a low
    // clock (bigger caches take longer, so the clock rises with
    // capacity to bound the fixed-overhead portion), and
    // Power-Performance mode always drains at the nominal clock.
    if (!energy_efficient_mode)
        return 1e9;
    const std::uint32_t cap_idx =
        std::max(from.l1CapIdx, from.l2CapIdx);
    static constexpr Hertz table[5] = {125e6, 125e6, 250e6, 250e6,
                                       500e6};
    return table[std::min<std::uint32_t>(cap_idx, 4)];
}

ReconfigCost
ReconfigCostModel::cost(const HwConfig &from, const HwConfig &to,
                        bool energy_efficient_mode) const
{
    ReconfigCost rc;
    if (from == to)
        return rc;

    const Hertz fclk = flushClock(from, energy_efficient_mode);
    rc.seconds = hostOverhead;

    bool super_fine = false;
    for (Param p : allParams()) {
        if (paramValue(from, p) == paramValue(to, p))
            continue;
        switch (paramCostClass(p)) {
          case CostClass::SuperFine:
            super_fine = true;
            break;
          case CostClass::Fine:
            // Capacity increases are super-fine (Section 5.2): the
            // sub-banked implementation can grow without flushing.
            if (p == Param::L1Cap && to.l1CapIdx > from.l1CapIdx)
                super_fine = true;
            else if (p == Param::L2Cap && to.l2CapIdx > from.l2CapIdx)
                super_fine = true;
            break;
          case CostClass::Coarse:
            break;
        }
    }
    rc.flushL1 = needsL1Flush(from, to);
    rc.flushL2 = needsL2Flush(from, to);

    if (super_fine || rc.flushL1 || rc.flushL2)
        rc.seconds += superFineCycles / fclk;

    const std::uint32_t line = lineSize;
    // Leakage of the memory arrays stays on while flushing; everything
    // else (cores, ICaches, queues, sync SPM) is power-gated.
    const bool spm = from.l1Type == MemType::Spm;
    const Watts flush_leak =
        shapeV.numGpes() *
            sram.leakage(spm ? 4096 : from.l1CapBytes(), spm) +
        shapeV.tiles * sram.leakage(from.l2CapBytes(), false);

    if (rc.flushL1) {
        // Pessimistically all-dirty L1 drains to L2; the volume beyond
        // the L2 capacity spills to main memory at off-chip bandwidth.
        const double bytes =
            double(shapeV.numGpes()) * from.l1CapBytes();
        const double l2_total =
            double(shapeV.tiles) * from.l2CapBytes();
        const double spill = std::max(0.0, bytes - l2_total);
        const Seconds internal = bytes / (8.0 * fclk); // 8 B/cyc drain
        const Seconds external = spill / memBw;
        const Seconds t = std::max(internal, external);
        rc.seconds += t;
        rc.energy += bytes * (sram.readEnergy(from.l1CapBytes(), false) +
                              sram.writeEnergy(from.l2CapBytes(),
                                               false)) / line +
            spill * ep.dramPerByte + flush_leak * t;
    }
    if (rc.flushL2) {
        const double bytes = double(shapeV.tiles) * from.l2CapBytes();
        const Seconds t = bytes / memBw;
        rc.seconds += t;
        rc.energy +=
            bytes * sram.readEnergy(from.l2CapBytes(), false) / line +
            bytes * ep.dramPerByte + flush_leak * t;
    }
    return rc;
}

Seconds
ReconfigCostModel::dimensionCost(const HwConfig &from, Param p,
                                 std::uint32_t new_value,
                                 bool energy_efficient_mode) const
{
    return cost(from, withParam(from, p, new_value),
                energy_efficient_mode).seconds;
}

} // namespace sadapt
