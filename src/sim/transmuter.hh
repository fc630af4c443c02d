/**
 * @file
 * The Transmuter timing/energy simulator.
 *
 * Replays a functional Trace under a fixed HwConfig, interleaving core
 * streams by earliest-local-cycle through a shared memory hierarchy
 * (R-DCaches, R-XBars, stride prefetchers, one HBM channel), and
 * produces one EpochRecord per FP-op epoch: elapsed cycles/seconds,
 * energy breakdown, and the Table 2 performance-counter sample.
 */

#ifndef SADAPT_SIM_TRANSMUTER_HH
#define SADAPT_SIM_TRANSMUTER_HH

#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.hh"
#include "sim/config.hh"
#include "sim/counters.hh"
#include "sim/dvfs.hh"
#include "sim/energy.hh"
#include "sim/reconfig.hh"
#include "sim/schedule.hh"
#include "sim/trace.hh"

namespace sadapt {


/**
 * Per-GPE scratchpad bank size in SPM L1 mode (Section 3.4: the SPM
 * address space is bank-local, so every SPM op address must fall
 * inside one bank).
 */
constexpr std::uint32_t spmBankBytes = 4 * 1024;

/** Parameters of one simulated system instance. */
struct RunParams
{
    SystemShape shape;

    /** Off-chip memory bandwidth (Section 5.2 default: 1 GB/s). */
    double memBandwidth = 1e9;

    /**
     * Epoch size in FP-ops per GPE (spatial average), Section 5.4:
     * 5k for SpMSpM, 500 for SpMSpV.
     */
    std::uint64_t epochFpOps = 5000;

    EnergyParams energy;
};

/** Per-epoch energy, split by component. */
struct EnergyBreakdown
{
    Joules core = 0.0;       //!< GPE/LCP dynamic op energy
    Joules cache = 0.0;      //!< R-DCache / SPM access energy
    Joules xbar = 0.0;       //!< crossbar traversal energy
    Joules dram = 0.0;       //!< HBM transfer energy
    Joules background = 0.0; //!< leakage + per-cycle clock overhead

    Joules
    total() const
    {
        return core + cache + xbar + dram + background;
    }
};

/** Timing, energy and telemetry of one epoch. */
struct EpochRecord
{
    std::uint32_t index = 0;
    int phase = 0;          //!< explicit phase id active in this epoch
    Cycles cycles = 0;
    Seconds seconds = 0.0;
    double flops = 0.0;     //!< FP-ops executed (incl. FP loads/stores)
    EnergyBreakdown energy;
    PerfCounterSample counters;

    /**
     * Always true: the replay engine injects no faults (the control
     * loop injects telemetry faults on its own copy of the sample).
     * Kept because it is a byte of the epoch store's v1 payload.
     */
    bool telemetryValid = true;

    Joules totalEnergy() const { return energy.total(); }

    double
    gflops() const
    {
        return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
    }
};

/** Result of replaying one trace under one configuration. */
struct SimResult
{
    HwConfig config;
    std::vector<EpochRecord> epochs;

    Seconds totalSeconds() const;
    Joules totalEnergy() const;
    double totalFlops() const;

    /** Average performance, GFLOPS. */
    double gflops() const;

    /** Average energy efficiency, GFLOPS/W. */
    double gflopsPerWatt() const;
};

/**
 * The simulator. Stateless between run() calls: each run models a fresh
 * (cold) device execution under one configuration. run() and
 * runSchedule() are loops over one Replay, the engine's only body.
 */
class Transmuter
{
  public:
    explicit Transmuter(const RunParams &params);

    /**
     * Replay a trace under a configuration. The engine reads the
     * trace's columns in place (Trace::view()), so a replay copies no
     * ops and concurrent replays may share one trace.
     *
     * @param trace functional trace (shape must match RunParams).
     * @param cfg the hardware configuration to model.
     */
    SimResult run(const Trace &trace, const HwConfig &cfg) const;

    /**
     * Live dynamic execution: replay the trace while switching to
     * schedule.configs[e] at the start of epoch e, carrying cache
     * state across epochs and applying flush/penalty effects in-band.
     * This is the ground truth the epoch-stitching methodology
     * (EpochDb/evaluateSchedule) approximates; see the
     * StitchingValidation tests.
     *
     * @param schedule one configuration per epoch (length must match
     *        the trace's epoch count; extra entries are ignored).
     */
    SimResult runSchedule(const Trace &trace, const Schedule &schedule,
                          const ReconfigCostModel &cost_model,
                          bool energy_efficient_mode) const;

    /**
     * The number of epoch records a replay of `trace` closes, without
     * replaying it: min(budget, max(1, ceil(G / target))), where G is
     * the trace's GPE FP ops plus its SPM words (the ops the engine
     * counts toward an epoch) and target is epochFpOps x GPEs. A
     * budget of 0 means no limit. Every configuration closes the same
     * count, because epochs are delimited by FP-op counts.
     */
    std::size_t epochCount(const Trace &trace, std::size_t budget) const;

    const RunParams &params() const { return paramsV; }

    /**
     * Register the simulator's components (caches, xbar, memory,
     * prefetchers, DVFS) into a metrics registry; every subsequent
     * run exports per-epoch totals under sim/. Pure observer — the
     * simulated timing/energy is bit-identical with or without one
     * attached. Null detaches.
     */
    void setMetrics(obs::MetricRegistry *metrics)
    {
        metricsV = metrics;
    }

  private:
    friend class Replay;

    RunParams paramsV;
    DvfsModel dvfs;
    obs::MetricRegistry *metricsV = nullptr;
};

/**
 * One replay of a trace, suspended at epoch boundaries: the engine's
 * cache, prefetcher, crossbar, memory and event state between two
 * step() calls. step() runs to the next epoch close and returns its
 * record; between two steps the replay may switch configuration,
 * exactly as a live reconfiguration at that boundary. A replay that
 * is stepped to its end without switching produces the records of
 * Transmuter::run, bit for bit, however many calls that takes.
 *
 * The replay copies the simulator's parameters, DVFS model and
 * metrics target at construction and reads the trace's columns in
 * place: the trace must outlive the replay and stay unmodified. Each
 * replay is independent of every other, so replays of one trace may
 * run on different threads.
 */
class Replay
{
  public:
    /**
     * @param sim the simulator whose parameters (and metrics target)
     *        to replay with.
     * @param trace functional trace (shape must match the simulator).
     * @param cfg the configuration of the first epoch.
     */
    Replay(const Transmuter &sim, const Trace &trace, const HwConfig &cfg);
    ~Replay();
    Replay(Replay &&other) noexcept;
    Replay &operator=(Replay &&other) noexcept;

    /**
     * Run to the next epoch close and return that record; nothing
     * once the trace ends without closing another epoch.
     */
    std::optional<EpochRecord> step();

    /** True once step() has run out of ops: no record follows. */
    bool done() const;

    /**
     * Reconfigure at the boundary the last step() closed: a change
     * resizes and flushes the caches as the cost model says, charges
     * its penalty into the next epoch and rescales every pending event
     * into the new clock domain.
     */
    void switchTo(const HwConfig &next,
                  const ReconfigCostModel &cost_model,
                  bool energy_efficient_mode);

  private:
    struct State;
    std::unique_ptr<State> st;
};

} // namespace sadapt

#endif // SADAPT_SIM_TRANSMUTER_HH
