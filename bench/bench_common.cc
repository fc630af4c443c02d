#include "bench/bench_common.hh"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>

#include "adapt/predictor.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/threading.hh"
#include "sparse/suite.hh"

namespace sadapt::bench {

namespace {

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr ? std::atof(v) : fallback;
}

/**
 * Store flushed on SIGTERM/SIGINT so an interrupted bench keeps every
 * replayed configuration it finished. EpochStore::flush is not
 * async-signal-safe (it allocates and does buffered I/O); this is an
 * accepted risk: the handler fires once on the way out of a process
 * that is otherwise idle-at-a-syscall or mid-simulation, the store's
 * CRC framing makes a torn flush detectable and truncatable on the
 * next open, and the alternative (losing the whole sweep) is strictly
 * worse.
 */
store::EpochStore *signalStore = nullptr;

extern "C" void
onBenchTermSignal(int sig)
{
    if (signalStore != nullptr)
        signalStore->flush();
    // Restore the default disposition and re-raise so the parent still
    // observes death-by-signal (exit status, shell ^C semantics).
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

std::string
modelDir()
{
    const char *v = std::getenv("SPARSEADAPT_MODEL_DIR");
    return v != nullptr ? v : "bench_results/models";
}

} // namespace

double
datasetScale()
{
    return envDouble("SPARSEADAPT_BENCH_SCALE", 0.12);
}

double
spmspvScale()
{
    return std::min(1.0, 4.0 * datasetScale());
}

Workload
suiteSpMSpV(const std::string &id, MemType l1_type,
            double mem_bandwidth)
{
    const double scale = spmspvScale();
    CsrMatrix m = makeSuiteMatrix(id, scale);
    Rng rng(0x5adaull * 31 + m.rows());
    SparseVector x = SparseVector::random(m.cols(), 0.5, rng);
    WorkloadOptions wo;
    wo.l1Type = l1_type;
    wo.memBandwidth = mem_bandwidth;
    // Keep the epoch count paper-like: FLOPs scale linearly with the
    // dataset, so the 500 FP-op epoch (Section 5.4) scales too.
    wo.epochFpOps = std::max<std::uint64_t>(
        100, static_cast<std::uint64_t>(500 * scale));
    return makeSpMSpVWorkload(id, m, x, wo);
}

Workload
suiteSpMSpM(const std::string &id, MemType l1_type,
            double mem_bandwidth, SystemShape shape)
{
    const double scale = datasetScale();
    CsrMatrix m = makeSuiteMatrix(id, scale);
    WorkloadOptions wo;
    wo.l1Type = l1_type;
    wo.memBandwidth = mem_bandwidth;
    wo.shape = shape;
    wo.epochFpOps = std::max<std::uint64_t>(
        250, static_cast<std::uint64_t>(5000 * scale));
    return makeSpMSpMWorkload(id, m, wo);
}

std::size_t
sampleCount()
{
    return static_cast<std::size_t>(
        envDouble("SPARSEADAPT_SAMPLES", 24));
}

unsigned
benchJobs()
{
    return defaultJobs();
}

std::vector<HwConfig>
standardStatics(MemType l1_type)
{
    return {baselineConfig(l1_type), bestAvgConfig(l1_type),
            maxConfig(l1_type)};
}

void
prefetchConfigs(Comparison &cmp, std::span<const HwConfig> cfgs,
                BenchReport *report)
{
    const std::size_t before = cmp.db().simulatedConfigs();
    const auto start = std::chrono::steady_clock::now();
    cmp.db().ensure(cfgs);
    // Sweep phase boundary: make every replay of this batch durable,
    // so a killed bench resumes with only the missing cells. This is
    // the one crash-resume path: rerun with the same SPARSEADAPT_STORE.
    if (store::EpochStore *st = cmp.db().epochStore())
        st->flush();
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (report != nullptr)
        report->noteSweep(wall,
                          cmp.db().simulatedConfigs() - before);
}

const Predictor &
predictorFor(OptMode mode, MemType l1_type)
{
    static std::map<std::pair<int, int>, Predictor> cache;
    const auto key = std::make_pair(static_cast<int>(mode),
                                    static_cast<int>(l1_type));
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;

    const std::string path = modelDir() + "/" +
        (mode == OptMode::EnergyEfficient ? "ee" : "pp") + "_" +
        (l1_type == MemType::Cache ? "cache" : "spm") + ".model";
    {
        std::ifstream in(path);
        if (in) {
            inform("loading cached predictor: " + path);
            return cache.emplace(key, Predictor::load(in))
                .first->second;
        }
    }

    inform("training predictor (" + optModeName(mode) + ", " +
           (l1_type == MemType::Cache ? "cache" : "SPM") +
           ") -- cached to " + path);
    TrainerOptions opts;
    opts.mode = mode;
    opts.l1Type = l1_type;
    opts.spmspmDims = {128, 256};
    opts.spmspvDims = {256, 512};
    opts.densities = {0.004, 0.016, 0.064};
    opts.bandwidths = {0.1e9, 1e9, 10e9};
    opts.search.randomSamples = 12;
    opts.search.neighborCap = 24;
    opts.seed = 17;
    const TrainingSet set = buildTrainingSet(opts);

    Predictor pred;
    Rng rng(23);
    auto report = pred.train(set, rng);
    for (std::size_t i = 0; i < numParams; ++i) {
        inform(str("  ", paramName(allParams()[i]),
                   ": cv-accuracy ", Table::num(report.cvAccuracy[i], 3),
                   " depth ", report.chosen[i].maxDepth));
    }

    std::filesystem::create_directories(modelDir());
    std::ofstream out(path);
    pred.save(out);
    return cache.emplace(key, std::move(pred)).first->second;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        SADAPT_ASSERT(v > 0.0, "geomean of non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
printHeader(const std::string &title, const std::string &paper_reference)
{
    std::printf("\n==========================================="
                "=====================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_reference.c_str());
    std::printf("scale=%.2f samples=%zu\n", datasetScale(),
                sampleCount());
    std::printf("============================================"
                "====================\n");
}

void
printPaperComparison(const std::string &what, double measured,
                     const std::string &paper_reported)
{
    std::printf("  %-52s %6.2fx  (paper: %s)\n", what.c_str(), measured,
                paper_reported.c_str());
}

std::string
csvPath(const std::string &name)
{
    std::filesystem::create_directories("bench_results");
    return "bench_results/" + name + ".csv";
}

ComparisonOptions
defaultComparison(OptMode mode, PolicyKind policy, double tolerance)
{
    ComparisonOptions co;
    co.mode = mode;
    co.oracleSamples = sampleCount();
    co.policy = Policy(policy, tolerance);
    co.seed = 11;
    co.jobs = benchJobs();
    co.observer = benchObserver();
    co.store = benchStore();
    return co;
}

store::EpochStore *
benchStore()
{
    static store::EpochStore epoch_store;
    static bool initialized = false;
    static bool active = false;
    if (!initialized) {
        initialized = true;
        const char *path = std::getenv("SPARSEADAPT_STORE");
        if (path != nullptr && path[0] != '\0') {
            // Counters only, attached before open() so the open-time
            // stats are exported too; the journal is deliberately not
            // wired up (bench journals must be byte-identical across
            // cold and warm runs).
            if (obs::RunObserver *observer = benchObserver())
                epoch_store.attachMetrics(&observer->metrics());
            const Status st = epoch_store.open(path);
            if (!st.isOk())
                fatal("SPARSEADAPT_STORE: " + st.message());
            inform(str("epoch store: ", path, " (",
                       epoch_store.stats().diskResults,
                       " results on disk)"));
            active = true;
            // From here on, an interrupted bench flushes what it has
            // before dying (see onBenchTermSignal above).
            signalStore = &epoch_store;
            std::signal(SIGTERM, onBenchTermSignal);
            std::signal(SIGINT, onBenchTermSignal);
        }
    }
    return active ? &epoch_store : nullptr;
}

obs::RunObserver *
benchObserver()
{
    struct State
    {
        obs::RunObserver observer;
        bool active = false;
    };
    static State state;
    static bool initialized = false;
    if (!initialized) {
        initialized = true;
        const char *journal = std::getenv("SPARSEADAPT_JOURNAL");
        const char *metrics = std::getenv("SPARSEADAPT_METRICS");
        if (journal != nullptr) {
            const Status st = state.observer.openJournal(journal);
            if (!st.isOk())
                fatal("SPARSEADAPT_JOURNAL: " + st.message());
            state.active = true;
        }
        if (metrics != nullptr)
            state.active = true;
    }
    return state.active ? &state.observer : nullptr;
}

void
writeObserverOutputs()
{
    if (store::EpochStore *st = benchStore())
        st->flush();
    obs::RunObserver *observer = benchObserver();
    if (observer == nullptr)
        return;
    const char *metrics = std::getenv("SPARSEADAPT_METRICS");
    if (metrics != nullptr) {
        std::ofstream out(metrics);
        if (!out)
            fatal(str("SPARSEADAPT_METRICS: cannot create ", metrics));
        observer->metrics().writeText(out);
        inform(str("metrics snapshot: ", metrics));
    }
    if (observer->journal() != nullptr) {
        observer->flush();
        inform(str("journal: ", std::getenv("SPARSEADAPT_JOURNAL"),
                   " (", observer->journal()->eventsWritten(),
                   " events)"));
    }
}

namespace {

/** Escape a string for embedding in a JSON document. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

BenchReport::BenchReport(const std::string &name)
    : nameV(name), startV(std::chrono::steady_clock::now())
{
}

void
BenchReport::add(const std::string &kernel, const std::string &config,
                 double gflops, double gflops_per_watt)
{
    entriesV.push_back(Entry{kernel, config, gflops, gflops_per_watt});
}

void
BenchReport::noteSweep(double wall_seconds, std::uint64_t configs)
{
    sweepSecondsV += wall_seconds;
    configsSimulatedV += configs;
}

void
BenchReport::noteTraceDecode(double wall_seconds)
{
    traceDecodeSecondsV += wall_seconds;
}

void
BenchReport::setTraceFormat(std::string format)
{
    traceFormatV = std::move(format);
}

void
BenchReport::noteServe(std::uint64_t sessions, double serve_scale,
                       double sessions_per_second, double p50_ms,
                       double p99_ms, double epochs_per_second)
{
    serveSessionsV = sessions;
    serveScaleV = serve_scale;
    if (sessions_per_second < sessionsPerSecondV)
        return; // keep the best rep, like best-of-N wall trending
    sessionsPerSecondV = sessions_per_second;
    decisionP50MsV = p50_ms;
    decisionP99MsV = p99_ms;
    serveEpochsPerSecondV = epochs_per_second;
}

void
BenchReport::write() const
{
    std::filesystem::create_directories("bench_results");
    const std::string path = "bench_results/BENCH_" + nameV + ".json";
    std::ofstream out(path);
    if (!out) {
        warn("cannot create " + path);
        return;
    }
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - startV)
            .count();
#ifdef SADAPT_GIT_REV
    const char *rev = SADAPT_GIT_REV;
#else
    const char *rev = "unknown";
#endif
    out << "{\n";
    out << "  \"bench\": \"" << jsonEscape(nameV) << "\",\n";
    out << "  \"git_rev\": \"" << jsonEscape(rev) << "\",\n";
    out << "  \"host_wall_seconds\": " << wall << ",\n";
    out << "  \"scale\": " << datasetScale() << ",\n";
    out << "  \"samples\": " << sampleCount() << ",\n";
    out << "  \"jobs\": " << benchJobs() << ",\n";
    out << "  \"sweep_wall_seconds\": " << sweepSecondsV << ",\n";
    out << "  \"configs_simulated\": " << configsSimulatedV << ",\n";
    out << "  \"trace_format\": \"" << jsonEscape(traceFormatV)
        << "\",\n";
    out << "  \"trace_decode_seconds\": " << traceDecodeSecondsV
        << ",\n";
    out << "  \"serve_sessions\": " << serveSessionsV << ",\n";
    out << "  \"serve_scale\": " << serveScaleV << ",\n";
    out << "  \"sessions_per_second\": " << sessionsPerSecondV
        << ",\n";
    out << "  \"decision_p50_ms\": " << decisionP50MsV << ",\n";
    out << "  \"decision_p99_ms\": " << decisionP99MsV << ",\n";
    out << "  \"serve_epochs_per_second\": " << serveEpochsPerSecondV
        << ",\n";
    {
        // Store provenance: zeros and an empty path when no store is
        // attached, so the schema is stable either way.
        const store::EpochStore *st = benchStore();
        const std::uint64_t hits = st != nullptr ? st->stats().hits : 0;
        const std::uint64_t misses =
            st != nullptr ? st->stats().misses : 0;
        const std::string store_path =
            st != nullptr ? st->stats().path : "";
        out << "  \"store_hits\": " << hits << ",\n";
        out << "  \"store_misses\": " << misses << ",\n";
        out << "  \"store_path\": \"" << jsonEscape(store_path)
            << "\",\n";
    }
    out << "  \"results\": [";
    for (std::size_t i = 0; i < entriesV.size(); ++i) {
        const Entry &e = entriesV[i];
        out << (i == 0 ? "\n" : ",\n");
        out << "    {\"kernel\": \"" << jsonEscape(e.kernel)
            << "\", \"config\": \"" << jsonEscape(e.config)
            << "\", \"gflops\": " << e.gflops
            << ", \"gflops_per_watt\": " << e.gflopsPerWatt << "}";
    }
    out << "\n  ]\n}\n";
    inform("bench report: " + path);
}

} // namespace sadapt::bench
