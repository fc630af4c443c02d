#include "serve/traffic.hh"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string_view>
#include <tuple>

#include "common/rng.hh"
#include "sparse/suite.hh"

namespace sadapt::serve {

namespace {

constexpr const char *kHeader = "sadapt-traffic v1";

/** The three workload families the generator rotates through. */
struct Family
{
    const char *kernel;
    std::vector<std::string> datasets;
};

std::vector<Family>
trafficFamilies()
{
    return {
        {"spmspv", syntheticIds()},       // fig05 synthetics
        {"spmspm", spmspmRealWorldIds()}, // fig08 real-world
        {"spmspv", spmspvRealWorldIds()}, // table6 graph kernels
    };
}

} // namespace

TrafficScript
makeTrafficScript(std::size_t sessions, std::uint64_t seed)
{
    const std::vector<Family> families = trafficFamilies();
    Rng rng(seed ^ 0x5ada5e55u);
    TrafficScript script;
    script.sessions.reserve(sessions);
    std::uint64_t tick = 0;
    for (std::size_t i = 0; i < sessions; ++i) {
        const Family &fam = families[i % families.size()];
        SessionSpec s;
        s.id = i;
        s.dataset = fam.datasets[rng.below(fam.datasets.size())];
        s.kernel = fam.kernel;
        // Seeded arrival jitter: 0-2 ticks between arrivals, so some
        // sessions land on the same tick and contend for the batch.
        tick += rng.below(3);
        s.arrivalTick = tick;
        // Bounded epoch budget keeps one slow tenant from serializing
        // the whole replay tail.
        s.maxEpochs = 8 + static_cast<std::size_t>(rng.below(9));
        script.sessions.push_back(std::move(s));
    }
    return script;
}

std::string
writeTrafficScript(const TrafficScript &script)
{
    std::ostringstream out;
    out << kHeader << "\n";
    for (const SessionSpec &s : script.sessions) {
        out << "session " << s.id << ' ' << s.dataset << ' '
            << s.kernel << ' ' << s.arrivalTick << ' ' << s.maxEpochs
            << "\n";
    }
    out << "end\n";
    return out.str();
}

Result<TrafficScript>
parseTrafficScript(std::istream &in)
{
    std::string line;
    if (!std::getline(in, line) || line != kHeader)
        return Status::error(
            str("traffic script must start with '", kHeader, "'"));

    TrafficScript script;
    bool ended = false;
    std::uint64_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        if (ended)
            return Status::error(
                str("traffic line ", line_no, ": content after 'end'"));
        if (line == "end") {
            ended = true;
            continue;
        }
        std::istringstream ls(line);
        std::string tag;
        SessionSpec s;
        if (!(ls >> tag >> s.id >> s.dataset >> s.kernel >>
              s.arrivalTick >> s.maxEpochs) ||
            tag != "session")
            return Status::error(
                str("traffic line ", line_no, ": expected 'session "
                    "<id> <dataset> <kernel> <tick> <epochs>'"));
        std::string extra;
        if (ls >> extra)
            return Status::error(str("traffic line ", line_no,
                                     ": trailing token '", extra,
                                     "'"));
        if (s.kernel != "spmspv" && s.kernel != "spmspm")
            return Status::error(str("traffic line ", line_no,
                                     ": unknown kernel '", s.kernel,
                                     "'"));
        if (s.id != script.sessions.size())
            return Status::error(
                str("traffic line ", line_no, ": session id ", s.id,
                    " out of order (expected ",
                    script.sessions.size(), ")"));
        if (!script.sessions.empty() &&
            s.arrivalTick < script.sessions.back().arrivalTick)
            return Status::error(
                str("traffic line ", line_no, ": arrival tick ",
                    s.arrivalTick, " regresses"));
        script.sessions.push_back(std::move(s));
    }
    if (!ended)
        return Status::error("traffic script missing 'end' line");
    return script;
}

Result<TrafficScript>
readTrafficScriptFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::error("cannot open traffic script: " + path);
    return parseTrafficScript(in);
}

Workload
buildSessionWorkload(const SessionSpec &spec, double scale,
                     MemType l1_type)
{
    WorkloadOptions wo;
    wo.l1Type = l1_type;
    if (spec.kernel == "spmspm") {
        CsrMatrix m = makeSuiteMatrix(spec.dataset, scale);
        wo.epochFpOps = std::max<std::uint64_t>(
            250, static_cast<std::uint64_t>(5000 * scale));
        return makeSpMSpMWorkload(spec.dataset, m, wo);
    }
    // SpMSpV traces are lighter; same scale boost as the bench suite.
    const double v_scale = std::min(1.0, 4.0 * scale);
    CsrMatrix m = makeSuiteMatrix(spec.dataset, v_scale);
    Rng rng(0x5adaull * 31 + m.rows());
    SparseVector x = SparseVector::random(m.cols(), 0.5, rng);
    wo.epochFpOps = std::max<std::uint64_t>(
        100, static_cast<std::uint64_t>(500 * v_scale));
    return makeSpMSpVWorkload(spec.dataset, m, x, wo);
}

std::vector<std::size_t>
largestFirst(const TrafficScript &script)
{
    // Each kernel scales every dataset alike (buildSessionWorkload),
    // so the paper-reported NNZ ranks the sessions of one kernel. Equal
    // NNZ (U1 and P1, say) falls back to the dataset id, not arrival.
    // Ranks sort ascending: SpMSpM first, ~nnz puts the largest first.
    const auto rank = [&](std::size_t i) {
        const SessionSpec &s = script.sessions[i];
        return std::tuple(s.kernel != "spmspm", ~suiteEntry(s.dataset).nnz,
                          std::string_view(s.dataset), i);
    };
    std::vector<std::size_t> order(script.sessions.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return rank(a) < rank(b);
    });
    return order;
}

} // namespace sadapt::serve
