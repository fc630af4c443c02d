/**
 * @file
 * Command-line driver: run any kernel on any dataset under every
 * control scheme and print the comparison table.
 *
 *   sparseadapt_cli --kernel spmspv --dataset P3 --mode ee
 *   sparseadapt_cli --kernel spmspm --matrix path/to/matrix.mtx \
 *                   --scale 0.5 --samples 48 --policy hybrid \
 *                   --tolerance 0.2 --bandwidth 2e9 --model pp.model
 *
 * Datasets are Table 5 suite ids (U1-U3, P1-P3, R01-R16) or a Matrix
 * Market file via --matrix. Without --model, SparseAdapt is skipped
 * and only the static/ideal/oracle schemes run.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "adapt/runner.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "obs/observer.hh"
#include "sim/config.hh"
#include "sim/faults.hh"
#include "sparse/io.hh"
#include "sparse/stats.hh"
#include "sparse/suite.hh"
#include "store/epoch_store.hh"

using namespace sadapt;

namespace {

struct CliOptions
{
    std::string kernel = "spmspv";
    std::string dataset = "P3";
    std::string matrixFile;
    std::string modelFile;
    std::string policy = "hybrid";
    std::string faultSpec;
    std::string staticConfig;
    std::string journalFile;
    std::string metricsFile;
    std::string storeFile; //!< --store, or $SPARSEADAPT_STORE
    double tolerance = 0.4;
    double scale = 0.25;
    double bandwidth = 1e9;
    std::size_t samples = 24;
    unsigned jobs = 0; //!< 0: defaultJobs() (SPARSEADAPT_JOBS / cores)
    OptMode mode = OptMode::EnergyEfficient;
    MemType l1 = MemType::Cache;
    std::uint64_t seed = 1;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --kernel spmspm|spmspv     kernel to run (default spmspv)\n"
        "  --dataset <id>             Table 5 suite id (default P3)\n"
        "  --matrix <file.mtx>        Matrix Market file instead\n"
        "  --scale <f>                suite dataset scale (default "
        "0.25)\n"
        "  --mode ee|pp               objective (default ee)\n"
        "  --l1 cache|spm             L1 memory type (default cache)\n"
        "  --bandwidth <B/s>          off-chip bandwidth (default "
        "1e9)\n"
        "  --samples <n>              oracle candidate samples, 1 to "
        "the\n"
        "                             config space size (default 24)\n"
        "  --policy conservative|aggressive|hybrid (default hybrid)\n"
        "  --tolerance <f>            hybrid tolerance (default 0.4)\n"
        "  --model <file>             trained predictor (enables "
        "SparseAdapt)\n"
        "  --faults <spec>            fault injection, e.g. "
        "drop=0.01,corrupt=0.05\n"
        "                             (adds guarded/unguarded "
        "SparseAdapt rows)\n"
        "  --config <spec>            extra static config row, e.g. "
        "type=spm,l1_cap=32\n"
        "  --journal <file.jsonl>     write the decision event "
        "journal\n"
        "  --metrics <file>           write the metrics registry "
        "snapshot\n"
        "  --store <file>             persistent epoch-result store:\n"
        "                             sweeps warm-start from it and\n"
        "                             checkpoint into it (default\n"
        "                             $SPARSEADAPT_STORE; results are\n"
        "                             identical with or without it)\n"
        "  --seed <n>                 RNG seed (default 1)\n"
        "  --jobs <n>                 parallel sweep replays (default\n"
        "                             $SPARSEADAPT_JOBS or all cores;\n"
        "                             results are identical for any "
        "n)\n",
        argv0);
    std::exit(2);
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions o;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--kernel") {
            o.kernel = need(i);
        } else if (arg == "--dataset") {
            o.dataset = need(i);
        } else if (arg == "--matrix") {
            o.matrixFile = need(i);
        } else if (arg == "--scale") {
            o.scale = std::atof(need(i));
        } else if (arg == "--mode") {
            const std::string m = need(i);
            if (m != "ee" && m != "pp")
                usage(argv[0]);
            o.mode = m == "pp" ? OptMode::PowerPerformance
                               : OptMode::EnergyEfficient;
        } else if (arg == "--l1") {
            const std::string l1 = need(i);
            if (l1 != "cache" && l1 != "spm")
                usage(argv[0]);
            o.l1 = l1 == "spm" ? MemType::Spm : MemType::Cache;
        } else if (arg == "--bandwidth") {
            o.bandwidth = std::atof(need(i));
        } else if (arg == "--samples") {
            const char *n = need(i);
            char *end = nullptr;
            o.samples = std::strtoull(n, &end, 10);
            if (*n < '0' || *n > '9' || *end != '\0')
                usage(argv[0]);
        } else if (arg == "--policy") {
            o.policy = need(i);
        } else if (arg == "--tolerance") {
            o.tolerance = std::atof(need(i));
        } else if (arg == "--model") {
            o.modelFile = need(i);
        } else if (arg == "--faults") {
            o.faultSpec = need(i);
        } else if (arg == "--config") {
            o.staticConfig = need(i);
        } else if (arg == "--journal") {
            o.journalFile = need(i);
        } else if (arg == "--metrics") {
            o.metricsFile = need(i);
        } else if (arg == "--store") {
            o.storeFile = need(i);
        } else if (arg == "--jobs") {
            o.jobs = std::atoi(need(i));
        } else if (arg == "--seed") {
            o.seed = std::atoll(need(i));
        } else {
            usage(argv[0]);
        }
    }
    // The oracle samples distinct configurations, so there can be no
    // more samples than the space of the chosen L1 type holds.
    if (o.samples == 0 || o.samples > ConfigSpace(o.l1).size())
        usage(argv[0]);
    if (o.storeFile.empty()) {
        const char *env = std::getenv("SPARSEADAPT_STORE");
        if (env != nullptr)
            o.storeFile = env;
    }
    return o;
}

PolicyKind
policyKindOf(const std::string &name)
{
    if (name == "conservative")
        return PolicyKind::Conservative;
    if (name == "aggressive")
        return PolicyKind::Aggressive;
    if (name == "hybrid")
        return PolicyKind::Hybrid;
    fatal("unknown policy: " + name);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions o = parse(argc, argv);

    CsrMatrix matrix = o.matrixFile.empty()
        ? makeSuiteMatrix(o.dataset, o.scale, o.seed)
        : readMatrixMarketFile(o.matrixFile);
    std::printf("dataset: %s\n", computeStats(matrix).summary().c_str());

    WorkloadOptions wo;
    wo.l1Type = o.l1;
    wo.memBandwidth = o.bandwidth;
    Workload wl;
    if (o.kernel == "spmspm") {
        if (matrix.rows() != matrix.cols())
            fatal("spmspm (C = A*A^T) needs a square matrix");
        wl = makeSpMSpMWorkload("cli", matrix, wo);
    } else if (o.kernel == "spmspv") {
        Rng rng(o.seed);
        SparseVector x =
            SparseVector::random(matrix.cols(), 0.5, rng);
        wl = makeSpMSpVWorkload("cli", matrix, x, wo);
    } else {
        fatal("unknown kernel: " + o.kernel);
    }
    std::printf("kernel: %s, %llu trace ops, %.0f FP-ops, mode %s\n",
                o.kernel.c_str(),
                static_cast<unsigned long long>(wl.trace.totalOps()),
                wl.trace.totalFlops(), optModeName(o.mode).c_str());

    std::optional<Predictor> pred;
    if (!o.modelFile.empty()) {
        std::ifstream in(o.modelFile);
        if (!in)
            fatal("cannot open model file: " + o.modelFile);
        pred = Predictor::load(in);
    }

    // The library parsers return recoverable Results; the CLI is the
    // place where a bad spec should still terminate the run.
    std::optional<HwConfig> customCfg;
    if (!o.staticConfig.empty()) {
        auto r = parseConfig(o.staticConfig);
        if (!r.isOk())
            fatal("--config: " + r.message());
        customCfg = r.value();
    }
    std::optional<FaultSpec> faults;
    if (!o.faultSpec.empty()) {
        auto r = FaultSpec::parse(o.faultSpec);
        if (!r.isOk())
            fatal("--faults: " + r.message());
        faults = r.value();
        if (!pred)
            fatal("--faults needs --model (it exercises the "
                  "SparseAdapt control loop)");
    }

    obs::RunObserver observer;
    const bool observing =
        !o.journalFile.empty() || !o.metricsFile.empty();
    if (!o.journalFile.empty()) {
        const Status st = observer.openJournal(o.journalFile);
        if (!st.isOk())
            fatal("--journal: " + st.message());
        observer.emit("cli", "run",
                      {{"kernel", o.kernel},
                       {"dataset",
                        o.matrixFile.empty() ? o.dataset
                                             : o.matrixFile},
                       {"mode", optModeName(o.mode)},
                       {"policy", o.policy},
                       {"seed", static_cast<std::int64_t>(o.seed)}});
    }

    // Interactive tool: attach the *full* observer (store journal
    // events included) — unlike the bench harness, which exports
    // store counters only to keep its journals byte-identical across
    // cold and warm runs.
    store::EpochStore epochStore;
    if (!o.storeFile.empty()) {
        if (observing)
            epochStore.attachObserver(&observer);
        const Status st = epochStore.open(o.storeFile);
        if (!st.isOk())
            fatal("--store: " + st.message());
        std::printf("epoch store: %s (%llu results on disk)\n",
                    o.storeFile.c_str(),
                    static_cast<unsigned long long>(
                        epochStore.stats().diskResults));
    }

    ComparisonOptions co;
    co.mode = o.mode;
    co.oracleSamples = o.samples;
    co.policy = Policy(policyKindOf(o.policy), o.tolerance);
    co.seed = o.seed;
    co.jobs = o.jobs;
    co.observer = observing ? &observer : nullptr;
    co.store = epochStore.isOpen() ? &epochStore : nullptr;
    Comparison cmp(wl, pred ? &*pred : nullptr, co);

    Table table;
    table.header({"scheme", "GFLOPS", "GFLOPS/W", "metric",
                  "switches"});
    auto row = [&](const char *name, const ScheduleEval &ev) {
        table.row({name, Table::num(ev.gflops(), 4),
                   Table::num(ev.gflopsPerWatt(), 3),
                   Table::num(ev.metric(o.mode), 4),
                   Table::num(ev.reconfigCount, 0)});
    };
    row("Baseline", cmp.baseline());
    row("Best Avg", cmp.bestAvg());
    row("Max Cfg", cmp.maxCfg());
    row("Ideal Static", cmp.idealStatic());
    row("Ideal Greedy", cmp.idealGreedy());
    row("Oracle", cmp.oracle());
    row("ProfileAdapt (naive)", cmp.profileAdapt(false));
    row("ProfileAdapt (ideal)", cmp.profileAdapt(true));
    if (customCfg)
        row(("Static [" + customCfg->label() + "]").c_str(),
            cmp.staticEval(*customCfg));
    if (pred)
        row("SparseAdapt", cmp.sparseAdapt());
    std::optional<Comparison::RobustEval> guarded, unguarded;
    if (faults) {
        guarded = cmp.sparseAdaptRobust(*faults, true);
        unguarded = cmp.sparseAdaptRobust(*faults, false);
        row("SparseAdapt (guarded)", guarded->eval);
        row("SparseAdapt (unguarded)", unguarded->eval);
    }
    table.print();
    if (faults) {
        std::printf("\nfault injection: %s\n",
                    faults->toString().c_str());
        std::printf("  faults injected   %llu (dropped %llu, "
                    "corrupted %llu, delayed %llu, reconfig %llu)\n",
                    (unsigned long long)guarded->faults.faultsInjected,
                    (unsigned long long)guarded->faults.samplesDropped,
                    (unsigned long long)
                        guarded->faults.samplesCorrupted,
                    (unsigned long long)guarded->faults.samplesDelayed,
                    (unsigned long long)
                        guarded->faults.reconfigFailures);
        std::printf("  guard verdicts    ok %llu, clamped %llu, "
                    "discarded %llu, missing %llu\n",
                    (unsigned long long)guarded->guard.samplesOk,
                    (unsigned long long)guarded->guard.samplesClamped,
                    (unsigned long long)
                        guarded->guard.samplesDiscarded,
                    (unsigned long long)guarded->guard.samplesMissing);
        std::printf("  watchdog          reverts %llu, held epochs "
                    "%llu\n",
                    (unsigned long long)guarded->watchdogReverts,
                    (unsigned long long)guarded->watchdogHeldEpochs);
    }
    if (!pred)
        std::printf("\n(no --model given: SparseAdapt row skipped; "
                    "train one with the bench harness)\n");

    if (epochStore.isOpen()) {
        epochStore.flush();
        const store::StoreStats &ss = epochStore.stats();
        std::printf("\nepoch store: %llu hits, %llu misses, %llu "
                    "records written (%llu results on disk; inspect "
                    "with sadapt_check store)\n",
                    static_cast<unsigned long long>(ss.hits),
                    static_cast<unsigned long long>(ss.misses),
                    static_cast<unsigned long long>(ss.putRecords),
                    static_cast<unsigned long long>(ss.diskResults));
    }

    if (!o.metricsFile.empty()) {
        std::ofstream out(o.metricsFile);
        if (!out)
            fatal("--metrics: cannot create " + o.metricsFile);
        observer.metrics().writeText(out);
        std::printf("\nmetrics snapshot: %s\n", o.metricsFile.c_str());
    }
    if (!o.journalFile.empty()) {
        observer.flush();
        std::printf("%sjournal: %s (%llu events; inspect with "
                    "sadapt_report)\n",
                    o.metricsFile.empty() ? "\n" : "",
                    o.journalFile.c_str(),
                    static_cast<unsigned long long>(
                        observer.journal()->eventsWritten()));
    }
    return 0;
}
