/**
 * @file
 * The adaptation-as-a-service CLI: generate deterministic traffic
 * scripts, replay them through the multi-tenant control server, and
 * self-check the serve determinism contract.
 *
 *   sadapt_serve generate --sessions 16 --seed 7 --out traffic.txt
 *   sadapt_serve replay --script traffic.txt --sessions 4 \
 *                       --journal serve.jsonl --metrics serve.metrics
 *   sadapt_serve selfcheck --script traffic.txt --sessions 4
 *
 * replay writes the merged journal/metrics artifacts, which are
 * byte-identical for any --sessions window and worker count (DESIGN.md
 * section 14), and prints the epochs its sessions replayed against the
 * epochs served. Sessions run on SPARSEADAPT_JOBS workers (default: the
 * hardware concurrency), at most one per window slot. selfcheck proves
 * the byte-identity on the spot by comparing that replay against the
 * fully serial one (window 1, one job) and exits non-zero on any
 * mismatch.
 * Without --model, a small deterministic built-in model is trained
 * (same recipe every run, so artifacts stay reproducible).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "adapt/predictor.hh"
#include "adapt/trainer.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/threading.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"

using namespace sadapt;

namespace {

struct CliOptions
{
    std::string command;
    std::string scriptFile;
    std::string outFile;
    std::string modelFile;
    std::string journalFile;
    std::string metricsFile;
    std::string policy = "hybrid";
    double tolerance = 0.4;
    double scale = 0.12;
    std::size_t sessions = 16; //!< generate: count; replay: window
    OptMode mode = OptMode::EnergyEfficient;
    std::uint64_t seed = 7;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> [options]\n"
        "commands:\n"
        "  generate   write a deterministic traffic script\n"
        "  replay     serve a traffic script, write merged artifacts\n"
        "  selfcheck  assert concurrent replay == serial replay\n"
        "options:\n"
        "  --script <file>      traffic script (replay/selfcheck)\n"
        "  --out <file>         generate: output path (default "
        "stdout)\n"
        "  --sessions <n>       generate: arrivals to script "
        "(default 16)\n"
        "                       replay: max concurrently open "
        "sessions\n"
        "                       (0 = no admission window)\n"
        "  --seed <n>           generate: script seed (default 7)\n"
        "  --scale <f>          dataset scale (default 0.12)\n"
        "  --mode ee|pp         objective (default ee)\n"
        "  --policy conservative|aggressive|hybrid (default hybrid)\n"
        "  --tolerance <f>      hybrid tolerance (default 0.4)\n"
        "  --model <file>       trained predictor (default: built-in\n"
        "                       deterministic mini-model)\n"
        "  --journal <file>     replay: write the merged journal\n"
        "  --metrics <file>     replay: write the merged metrics\n",
        argv0);
    std::exit(2);
}

CliOptions
parse(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    CliOptions o;
    o.command = argv[1];
    if (o.command != "generate" && o.command != "replay" &&
        o.command != "selfcheck")
        usage(argv[0]);
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--script") {
            o.scriptFile = need(i);
        } else if (arg == "--out") {
            o.outFile = need(i);
        } else if (arg == "--sessions") {
            o.sessions = std::strtoull(need(i), nullptr, 10);
        } else if (arg == "--seed") {
            o.seed = std::strtoull(need(i), nullptr, 10);
        } else if (arg == "--scale") {
            o.scale = std::strtod(need(i), nullptr);
        } else if (arg == "--mode") {
            const std::string m = need(i);
            if (m == "ee")
                o.mode = OptMode::EnergyEfficient;
            else if (m == "pp")
                o.mode = OptMode::PowerPerformance;
            else
                usage(argv[0]);
        } else if (arg == "--policy") {
            o.policy = need(i);
        } else if (arg == "--tolerance") {
            o.tolerance = std::strtod(need(i), nullptr);
        } else if (arg == "--model") {
            o.modelFile = need(i);
        } else if (arg == "--journal") {
            o.journalFile = need(i);
        } else if (arg == "--metrics") {
            o.metricsFile = need(i);
        } else {
            usage(argv[0]);
        }
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

/**
 * The predictor every serve run shares: either --model from disk or
 * a small fixed-recipe model trained on the spot — deterministic, so
 * replay artifacts are reproducible without shipping a model file.
 */
Predictor
loadOrTrainPredictor(const CliOptions &o)
{
    if (!o.modelFile.empty()) {
        std::ifstream in(o.modelFile);
        if (!in)
            fatal("cannot open model file: " + o.modelFile);
        return Predictor::load(in);
    }
    TrainerOptions opts;
    opts.mode = o.mode;
    opts.includeSpMSpM = false;
    opts.spmspvDims = {256};
    opts.densities = {0.01, 0.04};
    opts.bandwidths = {1e9};
    opts.search.randomSamples = 10;
    opts.search.neighborCap = 12;
    opts.seed = 5;
    Predictor p;
    Rng rng(13);
    p.train(buildTrainingSet(opts), rng);
    return p;
}

serve::TrafficScript
loadScript(const CliOptions &o)
{
    if (o.scriptFile.empty())
        fatal(o.command + " needs --script");
    auto r = serve::readTrafficScriptFile(o.scriptFile);
    if (!r.isOk())
        fatal(r.message());
    return r.value();
}

int
runGenerate(const CliOptions &o)
{
    const serve::TrafficScript script =
        serve::makeTrafficScript(o.sessions, o.seed);
    const std::string text = serve::writeTrafficScript(script);
    if (o.outFile.empty()) {
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    std::ofstream out(o.outFile);
    if (!out)
        fatal("cannot write: " + o.outFile);
    out << text;
    std::printf("wrote %zu-session script to %s\n", o.sessions,
                o.outFile.c_str());
    return 0;
}

serve::ServeOptions
serveOptions(const CliOptions &o, const Predictor &pred)
{
    serve::ServeOptions so;
    so.sessions = static_cast<unsigned>(o.sessions);
    so.jobs = defaultJobs();
    so.scale = o.scale;
    so.predictor = &pred;
    so.policy = policyKindOf(o.policy);
    so.tolerance = o.tolerance;
    so.mode = o.mode;
    so.nowNs = [] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now()
                    .time_since_epoch())
                .count());
    };
    return so;
}

void
writeFileOrDie(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write: " + path);
    out << text;
}

int
runReplay(const CliOptions &o)
{
    const serve::TrafficScript script = loadScript(o);
    const Predictor pred = loadOrTrainPredictor(o);

    const auto wall0 = std::chrono::steady_clock::now();
    auto r = serve::runServe(script, serveOptions(o, pred));
    if (!r.isOk())
        fatal(r.message());
    const serve::ServeResult &res = r.value();
    const double wallS =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall0)
            .count();

    if (!o.journalFile.empty())
        writeFileOrDie(o.journalFile, res.journalText);
    if (!o.metricsFile.empty())
        writeFileOrDie(o.metricsFile, res.metricsText);

    std::printf("served %zu sessions, %llu epochs, %llu decisions "
                "in %llu ticks (%.2fs wall)\n",
                res.outcomes.size(),
                static_cast<unsigned long long>(res.epochsServed),
                static_cast<unsigned long long>(res.decisions),
                static_cast<unsigned long long>(res.ticks), wallS);
    std::printf("replayed %llu epochs for %llu served\n",
                static_cast<unsigned long long>(res.epochsReplayed),
                static_cast<unsigned long long>(res.epochsServed));
    std::printf("decision latency p50 %.3f ms, p99 %.3f ms; "
                "%.1f sessions/s\n",
                res.decisionP50Ms, res.decisionP99Ms,
                wallS > 0 ? res.outcomes.size() / wallS : 0.0);
    for (const serve::SessionOutcome &s : res.outcomes)
        std::printf("  session %llu %-4s %-6s epochs %zu "
                    "reconfigs %u gflops %.3f\n",
                    static_cast<unsigned long long>(s.id),
                    s.dataset.c_str(), s.kernel.c_str(), s.epochs,
                    s.reconfigs, s.gflops);
    return 0;
}

int
runSelfcheck(const CliOptions &o)
{
    const serve::TrafficScript script = loadScript(o);
    const Predictor pred = loadOrTrainPredictor(o);

    serve::ServeOptions concurrent = serveOptions(o, pred);
    auto a = serve::runServe(script, concurrent);
    if (!a.isOk())
        fatal(a.message());

    serve::ServeOptions serial = concurrent;
    serial.sessions = 1;
    serial.jobs = 1;
    auto b = serve::runServe(script, serial);
    if (!b.isOk())
        fatal(b.message());

    bool ok = true;
    if (a.value().journalText != b.value().journalText) {
        std::fprintf(stderr, "selfcheck: merged journal differs "
                             "between concurrent and serial replay\n");
        ok = false;
    }
    if (a.value().metricsText != b.value().metricsText) {
        std::fprintf(stderr, "selfcheck: merged metrics differ "
                             "between concurrent and serial replay\n");
        ok = false;
    }
    if (ok)
        std::printf("selfcheck ok: sessions=%zu replay is "
                    "byte-identical to serial\n",
                    o.sessions);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions o = parse(argc, argv);
    if (o.command == "generate")
        return runGenerate(o);
    if (o.command == "replay")
        return runReplay(o);
    return runSelfcheck(o);
}
