#include "sim/transmuter.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "sim/cache.hh"
#include "sim/event_queue.hh"
#include "sim/faults.hh"
#include "sim/memory.hh"
#include "sim/prefetcher.hh"
#include "sim/reconfig.hh"
#include "sim/xbar.hh"

namespace sadapt {

Seconds
SimResult::totalSeconds() const
{
    Seconds t = 0.0;
    for (const auto &e : epochs)
        t += e.seconds;
    return t;
}

Joules
SimResult::totalEnergy() const
{
    Joules j = 0.0;
    for (const auto &e : epochs)
        j += e.totalEnergy();
    return j;
}

double
SimResult::totalFlops() const
{
    double f = 0.0;
    for (const auto &e : epochs)
        f += e.flops;
    return f;
}

double
SimResult::gflops() const
{
    const Seconds t = totalSeconds();
    return t > 0.0 ? totalFlops() / t / 1e9 : 0.0;
}

double
SimResult::gflopsPerWatt() const
{
    const Joules j = totalEnergy();
    return j > 0.0 ? totalFlops() / j / 1e9 : 0.0;
}

Transmuter::Transmuter(const RunParams &params)
    : paramsV(params)
{
    SADAPT_ASSERT(paramsV.shape.tiles > 0 && paramsV.shape.gpesPerTile > 0,
                  "empty system shape");
    SADAPT_ASSERT(paramsV.epochFpOps > 0, "epoch size must be positive");
}

namespace {

/** L2 hit latency on top of crossbar traversal, cycles. */
constexpr Cycles l2HitCycles = 6;

/**
 * All mutable simulation state for one run() call.
 */
struct Engine
{
    const RunParams &rp;
    HwConfig cfg;
    const DvfsModel &dvfs;
    const TraceView &trace;

    /** Optional per-epoch metric export target (pure observer). */
    obs::MetricRegistry *metrics = nullptr;

    std::uint32_t numGpes;
    std::uint32_t tiles;
    std::uint32_t gpesPerTile;
    std::uint32_t numCores; //!< GPEs then LCPs

    // Shape-derived strength reductions: practical shapes use
    // power-of-two tile/GPE counts, where the per-access `% tiles`,
    // `% gpesPerTile` and `/ gpesPerTile` reduce to a mask or shift
    // with the identical result; the flags keep arbitrary shapes
    // exact through the div/mod fallback.
    bool tilesPow2;
    std::uint32_t tilesMask;  //!< tiles - 1 (valid when tilesPow2)
    bool gptPow2;
    std::uint32_t gptMask;    //!< gpesPerTile - 1 (valid when gptPow2)
    std::uint32_t gptShift;   //!< log2(gpesPerTile) (valid when gptPow2)

    bool spmMode;
    Hertz freq;
    Seconds secPerCycle;
    double dynScale;
    Watts backgroundPower;

    // Per-configuration constants hoisted out of the per-op path
    // (refreshed by hoistConfig() whenever cfg changes). Each is the
    // exact double the old per-access computation produced — the
    // SramModel energies in particular hide a sqrt per call.
    bool l1Shared = false;       //!< cfg.l1Sharing == Shared
    bool l2Shared = false;       //!< cfg.l2Sharing == Shared
    std::uint32_t pfDegree = 0;  //!< cfg.prefetchDegree()
    Joules l1ReadE = 0.0, l1WriteE = 0.0;
    Joules l2ReadE = 0.0, l2WriteE = 0.0;
    Joules spmReadE = 0.0, spmWriteE = 0.0;
    Joules l2XbarReqE = 0.0;    //!< traversal (+ arbitration if shared)
    Joules l1XbarSharedE = 0.0; //!< traversal + arbitration
    Joules dramLineE = 0.0;     //!< lineSize * dramPerByte

    SramModel sram;
    std::vector<CacheBank> l1;
    std::vector<SpmBank> spm;
    std::vector<CacheBank> l2;
    std::vector<StridePrefetcher> l1Pf;
    std::vector<StridePrefetcher> l2Pf;
    std::vector<Crossbar> l1Xbar; //!< one per tile
    Crossbar l2Xbar;
    MainMemory mem;

    std::vector<Addr> pfBuf; //!< scratch for prefetch targets

    // Epoch accumulators (raw, unscaled energies).
    struct Accum
    {
        std::uint64_t l1Acc = 0, l1Miss = 0, l1PfIssued = 0;
        std::uint64_t l2Acc = 0, l2Miss = 0, l2PfIssued = 0;
        std::uint64_t gpeOps = 0, gpeFpOps = 0;
        std::uint64_t lcpOps = 0, lcpFpOps = 0;
        Joules coreE = 0.0, cacheE = 0.0, xbarE = 0.0, dramE = 0.0;

        // Deterministic replay profile: every executed op tallied by
        // kind, and DRAM line transfers by direction. Pure counts of
        // simulated events — no wall clock anywhere near these.
        std::array<std::uint64_t, 9> opKind{};
        std::uint64_t memLineReads = 0, memLineWrites = 0;
    } ac;

    /** Phase each core is currently executing (per program order). */
    std::vector<int> corePhase;

    /** FP-ops executed per phase within the current epoch; the epoch is
     * attributed to the phase where most of its FP work happened. */
    std::vector<double> epochFpByPhase;

    /** All ops (GPE + LCP) executed per trace phase this epoch, for
     * the phase-attributed replay profile. */
    std::vector<std::uint64_t> epochOpsByPhase;

    Engine(const RunParams &rp_, const HwConfig &cfg_,
           const DvfsModel &dvfs_, const TraceView &trace_)
        : rp(rp_), cfg(cfg_), dvfs(dvfs_), trace(trace_),
          numGpes(rp_.shape.numGpes()),
          tiles(rp_.shape.tiles),
          gpesPerTile(rp_.shape.gpesPerTile),
          numCores(numGpes + tiles),
          tilesPow2((tiles & (tiles - 1)) == 0),
          tilesMask(tiles - 1),
          gptPow2((gpesPerTile & (gpesPerTile - 1)) == 0),
          gptMask(gpesPerTile - 1),
          gptShift(static_cast<std::uint32_t>(
              std::countr_zero(gpesPerTile))),
          spmMode(cfg_.l1Type == MemType::Spm),
          freq(cfg_.clockHz()),
          secPerCycle(1.0 / cfg_.clockHz()),
          dynScale(dvfs_.dynamicScale(cfg_.clockHz())),
          sram(rp_.energy),
          l2Xbar(tiles,
                 cfg_.l2Sharing == SharingMode::Shared ? 1 : 0),
          mem(rp_.memBandwidth)
    {
        if (spmMode) {
            spm.assign(numGpes, SpmBank(spmBankBytes));
        } else {
            l1.assign(numGpes, CacheBank(cfg.l1CapBytes()));
            l1Pf.assign(numGpes, StridePrefetcher(cfg.prefetchDegree()));
        }
        l2.assign(tiles, CacheBank(cfg.l2CapBytes()));
        l2Pf.assign(tiles, StridePrefetcher(cfg.prefetchDegree()));
        const Cycles l1_arb =
            cfg.l1Sharing == SharingMode::Shared ? 1 : 0;
        l1Xbar.assign(tiles, Crossbar(gpesPerTile, l1_arb));
        backgroundPower = computeBackgroundPower();
        hoistConfig();
        corePhase.assign(numCores, 0);
        epochFpByPhase.assign(
            std::max<std::size_t>(1, trace.phases.size()), 0.0);
        epochOpsByPhase.assign(epochFpByPhase.size(), 0);
    }

    /** Refresh the hoisted per-configuration constants from cfg. */
    void
    hoistConfig()
    {
        l1Shared = cfg.l1Sharing == SharingMode::Shared;
        l2Shared = cfg.l2Sharing == SharingMode::Shared;
        pfDegree = cfg.prefetchDegree();
        if (!spmMode) {
            l1ReadE = sram.readEnergy(cfg.l1CapBytes(), false);
            l1WriteE = sram.writeEnergy(cfg.l1CapBytes(), false);
        }
        l2ReadE = sram.readEnergy(cfg.l2CapBytes(), false);
        l2WriteE = sram.writeEnergy(cfg.l2CapBytes(), false);
        spmReadE = sram.readEnergy(spmBankBytes, true);
        spmWriteE = sram.writeEnergy(spmBankBytes, true);
        l2XbarReqE = rp.energy.xbarTraversal +
            (l2Shared ? rp.energy.xbarArbitration : 0.0);
        l1XbarSharedE = rp.energy.xbarTraversal +
            rp.energy.xbarArbitration;
        dramLineE = lineSize * rp.energy.dramPerByte;
    }

    Watts
    computeBackgroundPower() const
    {
        const EnergyParams &ep = rp.energy;
        Watts leak = numCores * ep.coreLeak;
        if (spmMode)
            leak += numGpes * sram.leakage(spmBankBytes, true);
        else
            leak += numGpes * sram.leakage(cfg.l1CapBytes(), false);
        leak += tiles * sram.leakage(cfg.l2CapBytes(), false);
        leak += (tiles + 1) * ep.xbarLeak;
        const Watts idle_dyn =
            numCores * ep.idleCycleEnergy * freq * dynScale;
        return leak * dvfs.leakageScale(freq) + idle_dyn;
    }

    /**
     * Live mid-run reconfiguration: resize/flush the affected cache
     * levels, retune the prefetchers and crossbars, and switch the
     * clock domain. Core-local times must be rescaled by the caller
     * using the returned old->new cycle ratio.
     */
    double
    reconfigure(const HwConfig &to, bool flush_l1, bool flush_l2)
    {
        SADAPT_ASSERT(to.l1Type == cfg.l1Type,
                      "L1 memory type is a compile-time choice");
        const Hertz old_freq = freq;
        if (!spmMode) {
            for (auto &bank : l1) {
                if (to.l1CapBytes() != cfg.l1CapBytes())
                    bank.setCapacity(to.l1CapBytes());
                else if (flush_l1)
                    bank.invalidateAll();
            }
            for (auto &pf : l1Pf)
                pf.setDegree(to.prefetchDegree());
        }
        for (auto &bank : l2) {
            if (to.l2CapBytes() != cfg.l2CapBytes())
                bank.setCapacity(to.l2CapBytes());
            else if (flush_l2)
                bank.invalidateAll();
        }
        for (auto &pf : l2Pf)
            pf.setDegree(to.prefetchDegree());
        const Cycles l1_arb =
            to.l1Sharing == SharingMode::Shared ? 1 : 0;
        l1Xbar.assign(tiles, Crossbar(gpesPerTile, l1_arb));
        l2Xbar = Crossbar(
            tiles, to.l2Sharing == SharingMode::Shared ? 1 : 0);
        cfg = to;
        freq = cfg.clockHz();
        secPerCycle = 1.0 / freq;
        dynScale = dvfs.dynamicScale(freq);
        backgroundPower = computeBackgroundPower();
        hoistConfig();
        return freq / old_freq;
    }

    /** Reconfiguration energy charged into the next closing epoch. */
    Joules pendingPenaltyEnergy = 0.0;

    /**
     * Access the L2 layer. Updates cache state, energy and memory busy
     * time; returns the latency in cycles (callers modeling write
     * buffers / prefetch fills may ignore it).
     */
    Cycles
    accessL2(std::uint32_t tile, Addr addr, bool write, std::uint16_t pc,
             Cycles now, bool allow_prefetch)
    {
        const Addr line = addr / lineSize;
        const std::uint32_t bank = !l2Shared ? tile
            : tilesPow2 ? (static_cast<std::uint32_t>(line) & tilesMask)
                        : static_cast<std::uint32_t>(line % tiles);
        const Cycles xdelay = l2Xbar.request(bank, now, 2);
        ac.xbarE += l2XbarReqE;
        ++ac.l2Acc;
        ac.cacheE += write ? l2WriteE : l2ReadE;
        auto res = l2[bank].access(addr, write);
        Cycles lat = xdelay + l2HitCycles;
        if (!res.hit) {
            ++ac.l2Miss;
            const Seconds t_req = (now + lat) * secPerCycle;
            const Seconds done = mem.transferLine(t_req, false);
            lat += static_cast<Cycles>(
                std::ceil((done - t_req) * freq));
            ++ac.memLineReads;
            ac.dramE += dramLineE;
            if (res.writeback) {
                mem.transferLine(t_req, true);
                ++ac.memLineWrites;
                ac.dramE += dramLineE;
            }
        }
        if (allow_prefetch && pfDegree > 0) {
            pfBuf.clear();
            l2Pf[bank].observe(pc, addr, pfBuf);
            for (Addr a : pfBuf) {
                ++ac.l2PfIssued;
                if (l2[bank].contains(a))
                    continue;
                auto fill = l2[bank].installAbsent(a);
                ac.cacheE += l2WriteE;
                const Seconds t_pf = now * secPerCycle;
                mem.transferLine(t_pf, false);
                ++ac.memLineReads;
                ac.dramE += dramLineE;
                if (fill.writeback) {
                    mem.transferLine(t_pf, true);
                    ++ac.memLineWrites;
                    ac.dramE += dramLineE;
                }
            }
        }
        return lat;
    }

    /** Demand access from a GPE through the L1 cache layer. */
    Cycles
    accessL1(std::uint32_t gpe, Addr addr, bool write, std::uint16_t pc,
             Cycles now)
    {
        const std::uint32_t tile =
            gptPow2 ? gpe >> gptShift : gpe / gpesPerTile;
        const Addr line = addr / lineSize;
        std::uint32_t bank;
        Cycles lat = 1;
        if (l1Shared) {
            const std::uint32_t local = gptPow2
                ? (static_cast<std::uint32_t>(line) & gptMask)
                : static_cast<std::uint32_t>(line % gpesPerTile);
            lat += l1Xbar[tile].request(local, now, 1);
            ac.xbarE += l1XbarSharedE;
            bank = tile * gpesPerTile + local;
        } else {
            bank = gpe;
            ac.xbarE += rp.energy.xbarTraversal;
        }
        ++ac.l1Acc;
        ac.cacheE += write ? l1WriteE : l1ReadE;
        auto res = l1[bank].access(addr, write);
        if (res.writeback) {
            // Dirty victim drains to L2 through a write buffer: state,
            // energy and bandwidth are charged but the core not stalled.
            accessL2(tile, res.writebackAddr, true, 0, now, false);
        }
        if (!res.hit) {
            ++ac.l1Miss;
            lat += accessL2(tile, addr, false, pc, now + lat, true);
        }
        // L1 stride prefetcher: fills are non-blocking.
        if (pfDegree > 0) {
            pfBuf.clear();
            l1Pf[bank].observe(pc, addr, pfBuf);
            // Iterating pfBuf directly is safe: the accessL2() calls
            // below pass allow_prefetch=false, so none touches it.
            for (Addr a : pfBuf) {
                ++ac.l1PfIssued;
                if (l1[bank].contains(a))
                    continue;
                auto fill = l1[bank].installAbsent(a);
                ac.cacheE += l1WriteE;
                if (fill.writeback)
                    accessL2(tile, fill.writebackAddr, true, 0, now,
                             false);
                accessL2(tile, a, false, 0, now, false);
            }
        }
        return lat;
    }

    /** Access from a GPE to its scratchpad bank (SPM L1 mode). */
    Cycles
    spmAccess(std::uint32_t gpe, Addr addr, bool write, Cycles now)
    {
        const std::uint32_t tile =
            gptPow2 ? gpe >> gptShift : gpe / gpesPerTile;
        Cycles lat = 1;
        std::uint32_t bank = gpe;
        if (l1Shared) {
            const std::uint32_t local = gptPow2
                ? (static_cast<std::uint32_t>(addr / lineSize) & gptMask)
                : static_cast<std::uint32_t>(
                      (addr / lineSize) % gpesPerTile);
            lat += l1Xbar[tile].request(local, now, 1);
            ac.xbarE += l1XbarSharedE;
            bank = tile * gpesPerTile + local;
        }
        spm[bank].access();
        ++ac.l1Acc;
        ac.cacheE += write ? spmWriteE : spmReadE;
        return lat;
    }

    /** Build the Table 2 counter sample and close the epoch. */
    EpochRecord
    closeEpoch(std::uint32_t index, Cycles start, Cycles end)
    {
        EpochRecord rec;
        rec.index = index;
        rec.phase = static_cast<int>(
            std::max_element(epochFpByPhase.begin(),
                             epochFpByPhase.end()) -
            epochFpByPhase.begin());
        rec.cycles = std::max<Cycles>(1, end - start);
        rec.seconds = rec.cycles * secPerCycle;
        rec.flops = static_cast<double>(ac.gpeFpOps);

        const double cyc = static_cast<double>(rec.cycles);
        PerfCounterSample &c = rec.counters;
        const std::uint32_t n_l1 = numGpes;
        c.l1AccessThroughput = ac.l1Acc / cyc / n_l1;
        c.l1MissRate = ac.l1Acc ? double(ac.l1Miss) / ac.l1Acc : 0.0;
        c.l1PrefetchPerAccess =
            ac.l1Acc ? double(ac.l1PfIssued) / ac.l1Acc : 0.0;
        if (spmMode) {
            c.l1Occupancy = 1.0;
            c.l1CapNorm = double(spmBankBytes) / (64 * 1024);
        } else {
            double occ = 0.0;
            for (const auto &b : l1)
                occ += b.occupancy();
            c.l1Occupancy = occ / l1.size();
            c.l1CapNorm = double(cfg.l1CapBytes()) / (64 * 1024);
        }
        c.l2AccessThroughput = ac.l2Acc / cyc / tiles;
        c.l2MissRate = ac.l2Acc ? double(ac.l2Miss) / ac.l2Acc : 0.0;
        c.l2PrefetchPerAccess =
            ac.l2Acc ? double(ac.l2PfIssued) / ac.l2Acc : 0.0;
        double occ2 = 0.0;
        for (const auto &b : l2)
            occ2 += b.occupancy();
        c.l2Occupancy = occ2 / l2.size();
        c.l2CapNorm = double(cfg.l2CapBytes()) / (64 * 1024);

        std::uint64_t xa = 0, xc = 0;
        for (const auto &x : l1Xbar) {
            xa += x.accesses();
            xc += x.contentions();
        }
        c.l1XbarContentionRatio = xa ? double(xc) / xa : 0.0;
        c.l2XbarContentionRatio = l2Xbar.contentionRatio();

        c.gpeIpc = ac.gpeOps / cyc / numGpes;
        c.gpeFpIpc = ac.gpeFpOps / cyc / numGpes;
        c.lcpIpc = ac.lcpOps / cyc / tiles;
        c.lcpFpIpc = ac.lcpFpOps / cyc / tiles;
        c.clockNorm = freq / dvfs.nominalHz();

        // Bandwidth utilization: only the part of this epoch's window
        // where the channel was busy counts. Approximate with bytes
        // moved this epoch over capacity of the epoch window.
        const double window_bytes = mem.bandwidth() * rec.seconds;
        c.memReadBwUtil =
            std::min(1.0, mem.bytesRead() / std::max(1.0, window_bytes));
        c.memWriteBwUtil = std::min(
            1.0, mem.bytesWritten() / std::max(1.0, window_bytes));

        rec.energy.core = ac.coreE * dynScale;
        rec.energy.cache = ac.cacheE * dynScale;
        rec.energy.xbar = ac.xbarE * dynScale;
        rec.energy.dram = ac.dramE;
        rec.energy.background = backgroundPower * rec.seconds;
        rec.energy.background += pendingPenaltyEnergy;
        pendingPenaltyEnergy = 0.0;

        if (metrics != nullptr)
            exportMetrics(rec, xa, xc);

        // Reset accumulators for the next epoch.
        ac = Accum{};
        std::fill(epochFpByPhase.begin(), epochFpByPhase.end(), 0.0);
        std::fill(epochOpsByPhase.begin(), epochOpsByPhase.end(),
                  std::uint64_t{0});
        for (auto &x : l1Xbar)
            x.resetStats();
        l2Xbar.resetStats();
        mem.resetStats();
        return rec;
    }

    /** Roll this epoch's accumulators into the metrics registry. */
    void
    exportMetrics(const EpochRecord &rec, std::uint64_t l1_xbar_acc,
                  std::uint64_t l1_xbar_cont)
    {
        obs::MetricRegistry &m = *metrics;
        m.counter("sim/l1/accesses").add(ac.l1Acc);
        m.counter("sim/l1/misses").add(ac.l1Miss);
        m.counter("sim/l1/prefetches").add(ac.l1PfIssued);
        m.counter("sim/l2/accesses").add(ac.l2Acc);
        m.counter("sim/l2/misses").add(ac.l2Miss);
        m.counter("sim/l2/prefetches").add(ac.l2PfIssued);
        m.counter("sim/xbar/l1_accesses").add(l1_xbar_acc);
        m.counter("sim/xbar/l1_contentions").add(l1_xbar_cont);
        m.counter("sim/xbar/l2_accesses").add(l2Xbar.accesses());
        m.counter("sim/xbar/l2_contentions").add(l2Xbar.contentions());
        m.counter("sim/mem/bytes_read")
            .add(static_cast<std::uint64_t>(mem.bytesRead()));
        m.counter("sim/mem/bytes_written")
            .add(static_cast<std::uint64_t>(mem.bytesWritten()));
        m.counter("sim/core/gpe_ops").add(ac.gpeOps);
        m.counter("sim/core/gpe_fp_ops").add(ac.gpeFpOps);
        m.counter("sim/core/lcp_ops").add(ac.lcpOps);
        m.histogram("sim/epoch_cycles").observe(rec.cycles);
        m.gauge("sim/dvfs/clock_norm").set(rec.counters.clockNorm);

        exportProfile(m);
    }

    /**
     * The deterministic replay profile (profile/ namespace). Every
     * executed op is attributed to exactly one op kind, one hardware
     * component and one trace phase, so the three views each account
     * for 100% of the replay's executed ops; auxiliary interconnect /
     * memory / prefetcher event tallies ride alongside. Pure counts of
     * simulated events — bit-identical whether or not anyone reads
     * them.
     */
    void
    exportProfile(obs::MetricRegistry &m)
    {
        auto kindCount = [&](OpKind k) {
            return ac.opKind[static_cast<std::size_t>(k)];
        };
        std::uint64_t total_ops = 0;
        for (std::size_t k = 0; k < ac.opKind.size(); ++k) {
            total_ops += ac.opKind[k];
            if (ac.opKind[k] != 0)
                m.counter(str("profile/op/",
                              opKindName(static_cast<OpKind>(k))))
                    .add(ac.opKind[k]);
        }

        const std::uint64_t mem_ops =
            kindCount(OpKind::Load) + kindCount(OpKind::Store) +
            kindCount(OpKind::FpLoad) + kindCount(OpKind::FpStore);
        // In cache mode every GPE mem-kind op is an L1 demand access
        // (ac.l1Acc); the remainder (LCP traffic, and all GPE mem ops
        // in SPM mode) goes straight to the L2 layer.
        const std::uint64_t l1_ops = spmMode ? 0 : ac.l1Acc;
        m.counter("profile/component/core/ops")
            .add(kindCount(OpKind::IntOp) + kindCount(OpKind::FpOp));
        m.counter("profile/component/barrier/ops")
            .add(kindCount(OpKind::Phase));
        m.counter("profile/component/spm/ops")
            .add(kindCount(OpKind::SpmLoad) +
                 kindCount(OpKind::SpmStore));
        m.counter("profile/component/l1/ops").add(l1_ops);
        m.counter("profile/component/l2/ops").add(mem_ops - l1_ops);
        m.counter("profile/total_ops").add(total_ops);

        std::uint64_t l1_xbar = 0;
        for (const auto &x : l1Xbar)
            l1_xbar += x.accesses();
        m.counter("profile/component/xbar/requests")
            .add(l1_xbar + l2Xbar.accesses());
        m.counter("profile/component/mem/line_reads")
            .add(ac.memLineReads);
        m.counter("profile/component/mem/line_writes")
            .add(ac.memLineWrites);
        m.counter("profile/component/prefetcher/issued")
            .add(ac.l1PfIssued + ac.l2PfIssued);

        const auto &names = trace.phases;
        for (std::size_t p = 0; p < epochOpsByPhase.size(); ++p) {
            if (epochOpsByPhase[p] == 0)
                continue;
            std::string name =
                p < names.size() ? names[p] : str("p", p);
            for (char &ch : name)
                if (ch == ' ' || ch == '\t' || ch == '/')
                    ch = '_';
            m.counter(str("profile/phase/", name, "/ops"))
                .add(epochOpsByPhase[p]);
        }
        m.histogram("profile/epoch_ops").observe(total_ops);
    }
};

} // namespace

namespace {

/**
 * Telemetry-path fault injection on a just-closed epoch: the record
 * keeps its true timing/energy (those are physical), but the counter
 * sample the host would read is dropped/delayed/corrupted in-band.
 */
void
injectTelemetryFaults(FaultInjector *faults, EpochRecord &rec)
{
    if (faults == nullptr)
        return;
    const auto delivered = faults->filterSample(rec.index,
                                                rec.counters);
    if (delivered) {
        rec.counters = *delivered;
    } else {
        rec.counters = PerfCounterSample{};
        rec.telemetryValid = false;
    }
}

} // namespace

/**
 * Everything a suspended replay keeps between two epochs: the engine
 * (with copies of the parameters and DVFS model it references), its
 * own view of the trace, the event tree, the stream cursors, the
 * barrier state and the epoch boundary bookkeeping.
 */
struct Replay::State
{
    RunParams params;
    DvfsModel dvfs;
    TraceView trace;
    Engine eng;
    FaultInjector *faults;

    EventTree events;
    std::vector<std::size_t> cursor;
    std::uint32_t participants = 0;

    // Phase markers are barriers: merge cannot start before every
    // producer finished multiplying. A core arriving at a marker parks
    // until all participating cores arrive.
    std::vector<std::uint32_t> barrierArrivals;
    std::vector<std::vector<std::uint32_t>> barrierWaiters;
    std::vector<Cycles> barrierTime;

    std::uint64_t epochFpTarget;
    std::uint32_t epochIndex = 0;
    Cycles epochStart = 0;
    Cycles maxCycle = 0;
    bool done = false;

    State(const RunParams &rp, const DvfsModel &dv, const Trace &t,
          const HwConfig &cfg, FaultInjector *f)
        : params(rp), dvfs(dv), trace(t.view()),
          eng(params, cfg, dvfs, trace), faults(f),
          events(eng.numCores), cursor(eng.numCores, 0),
          barrierArrivals(trace.phases.size(), 0),
          barrierWaiters(trace.phases.size()),
          barrierTime(trace.phases.size(), 0),
          epochFpTarget(params.epochFpOps * eng.numGpes)
    {
        SADAPT_ASSERT(trace.shape == params.shape,
                      "trace shape does not match simulator shape");
        for (std::uint32_t c = 0; c < eng.numCores; ++c) {
            if (trace.streams[c].size != 0) {
                events.set(c, events.pack(0, c));
                ++participants;
            }
        }
    }
};

Replay::Replay(const Transmuter &sim, const Trace &trace,
               const HwConfig &cfg, FaultInjector *faults)
    : st(std::make_unique<State>(sim.paramsV, sim.dvfs, trace, cfg,
                                 faults))
{
    st->eng.metrics = sim.metricsV;
}

Replay::~Replay() = default;
Replay::Replay(Replay &&other) noexcept = default;
Replay &Replay::operator=(Replay &&other) noexcept = default;

bool
Replay::done() const
{
    return st->done;
}

/*
 * The replay loop. Each step executes ONE op of the core with the
 * earliest pending event, ties going to the lower core id, and hands
 * that core's next event back to the EventTree (sim/event_queue.hh).
 * This global op order fixes every integer timing and every
 * floating-point accumulation order, so it is the engine's whole
 * determinism contract: tests/test_replay_golden.cc pins its output.
 *
 * The tree keeps one packed key per core, `cycle << coreBits | core`
 * (7 core bits for the 4x16 shape), so the order is one unsigned
 * compare and a step costs one leaf-to-root walk. EventTree::pack()
 * panics before a cycle could overflow into the core bits, the way
 * CacheBank::bumpTick() guards its LRU clock. A core parked at a
 * barrier or out of ops holds EventTree::idle. Barrier release, the
 * step's own reschedule and the reconfiguration rescale all go through
 * EventTree::set().
 *
 * There is no multi-op lookahead. A core's next op could only run
 * without consulting the queue while the core is still the earliest
 * event, and over the candidate replays of fig08-style sweeps 95% of
 * such runs were a single op, so batching saved almost no queue
 * traffic and cost a per-run setup.
 *
 * The epoch closes at the GPE op whose FP-op (or SPM word) count
 * reaches the epoch target, right after that core's next event is
 * set, so a reconfiguration at the boundary (switchTo) rescales every
 * pending event. A core's local cycle lives only in its pending key:
 * a parked core gets the barrier's release cycle and a finished core
 * is never read again. When the ops run out, a last epoch closes if
 * it executed any FP work, or if no epoch closed at all.
 *
 * The loop's per-op state lives in locals and goes back into the
 * State once per epoch, so a resumable replay costs the hot loop
 * nothing over a one-shot one.
 */
std::optional<EpochRecord>
Replay::step()
{
    State &s = *st;
    if (s.done)
        return std::nullopt;
    Engine &eng = s.eng;
    EventTree &events = s.events;
    const std::uint32_t num_gpes = eng.numGpes;
    const StreamView *streams = s.trace.streams.data();
    std::size_t *cursor = s.cursor.data();
    const std::uint32_t participants = s.participants;
    const std::uint64_t epoch_fp_target = s.epochFpTarget;
    const Joules int_e = eng.rp.energy.intOpEnergy;
    const Joules fp_e = eng.rp.energy.fpOpEnergy;
    Cycles max_cycle = s.maxCycle;

    for (std::uint64_t key; (key = events.min()) != EventTree::idle;) {
        const std::uint32_t core = events.coreOf(key);
        Cycles t = events.cycleOf(key);
        const StreamView &sv = streams[core];
        const std::size_t i = cursor[core]++;
        const std::uint8_t kb = sv.kind[i];
        const OpKind kind = static_cast<OpKind>(kb);
        const bool is_gpe = core < num_gpes;
        ++eng.ac.opKind[kb];
        ++eng.epochOpsByPhase[eng.corePhase[core]];

        if (kind == OpKind::Phase) {
            const auto pid = static_cast<std::size_t>(sv.addr[i]);
            eng.corePhase[core] = static_cast<int>(sv.addr[i]);
            max_cycle = std::max(max_cycle, t);
            s.barrierTime[pid] = std::max(s.barrierTime[pid], t);
            std::uint64_t next = EventTree::idle;
            if (++s.barrierArrivals[pid] == participants) {
                const Cycles release = s.barrierTime[pid];
                max_cycle = std::max(max_cycle, release);
                if (i + 1 < sv.size)
                    next = events.pack(release, core);
                for (std::uint32_t w : s.barrierWaiters[pid]) {
                    if (cursor[w] < streams[w].size)
                        events.set(w, events.pack(release, w));
                }
            } else {
                s.barrierWaiters[pid].push_back(core);
            }
            events.set(core, next);
            continue;
        }

        ++(is_gpe ? eng.ac.gpeOps : eng.ac.lcpOps);
        bool fp_op = false;
        if (kind == OpKind::IntOp) {
            eng.ac.coreE += int_e;
            t += 1;
        } else if (kind == OpKind::FpOp) {
            fp_op = true;
            eng.ac.coreE += fp_e;
            t += 2;
        } else if (isSpmKind(kind)) {
            SADAPT_ASSERT(eng.spmMode && is_gpe,
                          "SPM op outside SPM mode GPE stream");
            fp_op = true; // SPM ops move FP words (Table 2)
            eng.ac.coreE += int_e;
            t += eng.spmAccess(core, sv.addr[i],
                               kind == OpKind::SpmStore, t);
        } else {
            // Load / Store / FpLoad / FpStore.
            fp_op = isFpKind(kind);
            const bool write =
                kind == OpKind::Store || kind == OpKind::FpStore;
            eng.ac.coreE += int_e;
            if (is_gpe && !eng.spmMode) {
                t += eng.accessL1(core, sv.addr[i], write, sv.pc[i], t);
            } else {
                // LCPs, and GPEs in SPM mode, go straight to L2.
                const std::uint32_t tile =
                    is_gpe ? core / eng.gpesPerTile : core - num_gpes;
                t += eng.accessL2(tile, sv.addr[i], write, sv.pc[i], t,
                                  true);
            }
        }
        if (fp_op) {
            ++(is_gpe ? eng.ac.gpeFpOps : eng.ac.lcpFpOps);
            if (is_gpe)
                eng.epochFpByPhase[eng.corePhase[core]] += 1.0;
        }
        max_cycle = std::max(max_cycle, t);
        events.set(core, i + 1 < sv.size ? events.pack(t, core)
                                         : EventTree::idle);
        if (!(fp_op && is_gpe && eng.ac.gpeFpOps >= epoch_fp_target))
            continue;

        // Every closed record depends only on ops already executed,
        // so a caller that stops here holds a bit-exact prefix of the
        // full run.
        s.maxCycle = max_cycle;
        EpochRecord rec = eng.closeEpoch(s.epochIndex++, s.epochStart, t);
        injectTelemetryFaults(s.faults, rec);
        s.epochStart = t;
        return rec;
    }
    s.done = true;
    s.maxCycle = max_cycle;
    if (eng.ac.gpeFpOps == 0 && s.epochIndex > 0)
        return std::nullopt;
    EpochRecord rec = eng.closeEpoch(s.epochIndex++, s.epochStart,
                                     std::max(max_cycle, s.epochStart + 1));
    injectTelemetryFaults(s.faults, rec);
    return rec;
}

void
Replay::switchTo(HwConfig next, const ReconfigCostModel &cost_model,
                 bool energy_efficient_mode)
{
    State &s = *st;
    Engine &eng = s.eng;
    if (s.faults != nullptr)
        next = s.faults->applyCommand(s.epochIndex, eng.cfg, next);
    if (next == eng.cfg)
        return;
    // Live reconfiguration at the epoch boundary: charge the penalty
    // as a global stall and rescale every pending event into the new
    // clock domain. (Background power during the stall is charged by
    // both the cost model and the epoch window — a small, documented
    // overlap.)
    const ReconfigCost rc =
        cost_model.cost(eng.cfg, next, energy_efficient_mode);
    const double ratio = eng.reconfigure(next, rc.flushL1, rc.flushL2);
    eng.pendingPenaltyEnergy += rc.energy;
    const auto penalty =
        static_cast<Cycles>(std::ceil(rc.seconds * eng.freq));
    auto rescale = [&](Cycles tt) {
        return static_cast<Cycles>(std::llround(double(tt) * ratio));
    };
    EventTree &events = s.events;
    for (std::uint32_t c = 0; c < eng.numCores; ++c) {
        const std::uint64_t pending = events.key(c);
        if (pending != EventTree::idle)
            events.set(c, events.pack(
                rescale(events.cycleOf(pending)) + penalty, c));
    }
    for (auto &tt : s.barrierTime)
        tt = rescale(tt);
    s.epochStart = rescale(s.epochStart);
    s.maxCycle = rescale(s.maxCycle) + penalty;
}

std::size_t
Transmuter::epochCount(const Trace &trace, std::size_t budget) const
{
    const std::uint64_t target =
        paramsV.epochFpOps * paramsV.shape.numGpes();
    const auto counted =
        static_cast<std::uint64_t>(trace.totalFlops()) +
        trace.totalSpmOps();
    const auto n = static_cast<std::size_t>(
        std::max<std::uint64_t>(1, (counted + target - 1) / target));
    return budget > 0 ? std::min(budget, n) : n;
}

SimResult
Transmuter::run(const Trace &trace, const HwConfig &cfg,
                std::size_t max_epochs) const
{
    SimResult result;
    result.config = cfg;
    const std::size_t n = epochCount(trace, max_epochs);
    result.epochs.reserve(n);
    Replay replay(*this, trace, cfg);
    while (result.epochs.size() < n) {
        std::optional<EpochRecord> rec = replay.step();
        SADAPT_ASSERT(rec.has_value(), "replay closed fewer epochs "
                                       "than epochCount()");
        result.epochs.push_back(*rec);
    }
    return result;
}

SimResult
Transmuter::runSchedule(const Trace &trace, const Schedule &schedule,
                        const ReconfigCostModel &cost_model,
                        bool energy_efficient_mode,
                        FaultInjector *faults) const
{
    SADAPT_ASSERT(!schedule.configs.empty(), "empty schedule");
    SimResult result;
    result.config = schedule.configs.front();
    result.epochs.reserve(epochCount(trace, 0));
    Replay replay(*this, trace, result.config, faults);
    while (std::optional<EpochRecord> rec = replay.step()) {
        result.epochs.push_back(*rec);
        const std::size_t e = result.epochs.size();
        if (!replay.done() && e < schedule.configs.size())
            replay.switchTo(schedule.configs[e], cost_model,
                            energy_efficient_mode);
    }
    return result;
}

} // namespace sadapt
