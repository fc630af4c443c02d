/**
 * @file
 * Reconfiguration cost model (Sections 3.4 and 5.2).
 *
 * Super-fine-grained parameter changes (clock, prefetch degree, capacity
 * increases) cost a fixed 100 cycles. Fine-grained changes (sharing
 * modes, capacity decreases) require flushing the affected cache level,
 * pessimistically assuming every line is dirty: L1 flushes drain to L2
 * and spill past it to memory; L2 flushes drain to main memory at the
 * off-chip bandwidth. The host picks the flush clock from a lookup table
 * indexed by operating mode and cache capacities, and cores/ICaches/
 * queues are power-gated while flushing.
 */

#ifndef SADAPT_SIM_RECONFIG_HH
#define SADAPT_SIM_RECONFIG_HH

#include "sim/config.hh"
#include "sim/dvfs.hh"
#include "sim/energy.hh"
#include "sim/trace.hh"

namespace sadapt {

struct RunParams;

/**
 * The configuration a device lands in when a reconfiguration command
 * from `from` to `to` is only partially applied: parameters whose bit
 * (by allParams() position) is set in `missed_mask` keep their `from`
 * value. Used by the fault injector to model single-parameter command
 * misses.
 */
HwConfig partialReconfig(const HwConfig &from, const HwConfig &to,
                         std::uint32_t missed_mask);

/** Time/energy penalty of one reconfiguration. */
struct ReconfigCost
{
    Seconds seconds = 0.0;
    Joules energy = 0.0;
    bool flushL1 = false;
    bool flushL2 = false;

    /**
     * True when the transition carries no penalty at all. Costs are
     * sums of non-negative terms, so "no penalty" is exactly "no
     * term contributed" — test with <= instead of exact equality.
     */
    bool isZero() const { return seconds <= 0.0 && energy <= 0.0; }
};

/**
 * Computes the penalty of switching between two hardware
 * configurations on a given system.
 */
class ReconfigCostModel
{
  public:
    /**
     * @param shape system shape (bank counts scale flush volumes).
     * @param mem_bandwidth off-chip bandwidth, bytes/s.
     * @param energy energy model constants.
     */
    ReconfigCostModel(SystemShape shape, double mem_bandwidth,
                      const EnergyParams &energy);

    /** The cost model of the system a workload's RunParams describe. */
    explicit ReconfigCostModel(const RunParams &params);

    /**
     * Cost of switching from one configuration to another.
     *
     * @param from configuration running before the switch.
     * @param to configuration to switch to.
     * @param energy_efficient_mode true selects the low-power flush
     *        clock from the lookup table; false the high-speed one.
     */
    ReconfigCost cost(const HwConfig &from, const HwConfig &to,
                      bool energy_efficient_mode) const;

    /**
     * Flush clock selected by the host's lookup table (Section 5.2),
     * indexed by operational mode and the L1/L2 bank capacities.
     */
    Hertz flushClock(const HwConfig &from,
                     bool energy_efficient_mode) const;

    /** True if the parameter change between from and to needs an L1
     * flush. */
    static bool needsL1Flush(const HwConfig &from, const HwConfig &to);

    /** True if the parameter change needs an L2 flush. */
    static bool needsL2Flush(const HwConfig &from, const HwConfig &to);

    /**
     * Time cost of reconfiguring a single parameter dimension in
     * isolation (used by the Hybrid hysteresis policy, Section 4.4).
     */
    Seconds dimensionCost(const HwConfig &from, Param p,
                          std::uint32_t new_value,
                          bool energy_efficient_mode) const;

  private:
    SystemShape shapeV;
    double memBw;
    EnergyParams ep;
    SramModel sram;
    DvfsModel dvfs;

    /** Fixed super-fine reconfiguration cost, cycles. */
    static constexpr Cycles superFineCycles = 100;

    /** Host decision + telemetry round trip (Section 3.4), seconds. */
    static constexpr Seconds hostOverhead = 100e-9;
};

} // namespace sadapt

#endif // SADAPT_SIM_RECONFIG_HH
