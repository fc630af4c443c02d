#include "analysis/determinism_check.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/symbols.hh"
#include "common/logging.hh"

namespace sadapt::analysis {

namespace {

/**
 * Deterministic-output sinks reached through a member or qualified
 * call: writing any of these bakes the current value into an
 * artifact the determinism contract covers. Method names like `add`
 * or `write` are too common to trust alone, so each sink carries the
 * sink class (matched against a written qualifier) and receiver-name
 * hints (matched against the call's receiver identifier).
 */
struct MemberSink
{
    std::string label;  //!< Class::method reported in findings
    std::string klass;  //!< sink class, matched inside c.qual
    std::vector<std::string> recvHints;
};

const std::map<std::string, MemberSink> &
memberSinks()
{
    static const std::map<std::string, MemberSink> sinks = {
        {"emit",
         {"RunObserver::emit", "RunObserver", {"o", "obs", "observer"}}},
        {"put",
         {"EpochStore::put", "EpochStore",
          {"store", "shard", "db", "main"}}},
        {"write",
         {"JournalWriter::write", "JournalWriter",
          {"writer", "journal"}}},
        {"writeText",
         {"MetricRegistry::writeText", "MetricRegistry",
          {"reg", "registry", "metric"}}},
        {"noteSweep",
         {"BenchReport::noteSweep", "BenchReport",
          {"report", "bench"}}},
        {"add",
         {"BenchReport::add", "BenchReport", {"report", "bench"}}},
        {"append",
         {"RecordLog::append", "RecordLog", {"log"}}},
    };
    return sinks;
}

/** Free-function sinks, matched by unqualified name. */
const std::set<std::string> &
freeSinks()
{
    static const std::set<std::string> sinks = {
        "writeMetricsText",
        "writeBenchJson",
        "writeObserverOutputs",
    };
    return sinks;
}

/**
 * True when the receiver identifier suggests the sink object: an
 * exact match for short hints, a substring match for descriptive
 * ones ("epochStore" matches "store", "obsV" matches "obs").
 */
bool
recvMatchesHint(const std::string &recv, const MemberSink &sink)
{
    std::string r = recv;
    std::transform(r.begin(), r.end(), r.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    for (const std::string &h : sink.recvHints)
        if (h.size() < 3 ? r == h : r.find(h) != std::string::npos)
            return true;
    return false;
}

/** Sink label for a call site, or empty when it is not a sink. */
std::string
sinkLabel(const CallSite &c)
{
    if (freeSinks().contains(c.name))
        return c.name;
    auto it = memberSinks().find(c.name);
    if (it == memberSinks().end())
        return {};
    // Method names need corroboration: a bare `put(x)` is some local
    // helper, `cache.add(x)` is someone else's add — only a receiver
    // that names the sink object (`store.put`) or a written qualifier
    // naming the sink class (`EpochStore::put`) counts.
    if (!c.qual.empty() &&
        c.qual.find(it->second.klass) != std::string::npos)
        return it->second.label;
    if (c.member && recvMatchesHint(c.recv, it->second))
        return it->second.label;
    return {};
}

/** The lint rule an allowance must name to permit a taint kind. */
std::string
kindRule(TaintKind k)
{
    switch (k) {
      case TaintKind::WallClock: return "lint-wallclock";
      case TaintKind::MutableGlobal: return "lint-mutable-global";
      case TaintKind::UnorderedIter: return "lint-unordered-iter";
      case TaintKind::PointerOrder: return "lint-pointer-order";
      case TaintKind::RawRandom: return "lint-banned-call";
      case TaintKind::ThreadId: return {};
    }
    panic("bad TaintKind");
}

/**
 * True when `pathPrefix` matches `rel_path` anchored at a path
 * component boundary: at the start of the path or right after a '/'.
 * A bare substring match would let "common/rng" silence rules in any
 * file whose path merely contains it (e.g. "mycommon/rng_x.cc").
 */
bool
prefixAtComponent(const std::string &rel_path,
                  const std::string &pathPrefix)
{
    for (std::size_t pos = 0;;) {
        if (rel_path.compare(pos, pathPrefix.size(), pathPrefix) == 0)
            return true;
        pos = rel_path.find('/', pos);
        if (pos == std::string::npos)
            return false;
        ++pos;
    }
}

/**
 * True for files inside the serve layer: a path component literally
 * named "serve". The trailing slash in the probe keeps neighbours
 * like "server/" or "serve_utils.cc" from matching.
 */
bool
underServeDir(const std::string &rel_path)
{
    return prefixAtComponent(rel_path, "serve/");
}

bool
allowed(const std::string &rule, const std::string &rel_path)
{
    if (rule.empty())
        return false;
    for (const RuleAllowance &a : determinismAllowances())
        if (a.rule == rule &&
            prefixAtComponent(rel_path, a.pathPrefix))
            return true;
    return false;
}

/**
 * Canonicalize-then-sort: an explicit sort AFTER the loop body, of a
 * container the body touched, restores a deterministic order before
 * anything can sink it. A sort inside the body, or of an unrelated
 * container, defuses nothing.
 */
bool
sortedAfterLoop(const FunctionDef &f, const UnorderedLoop &loop)
{
    for (const CallSite &c : f.calls) {
        if (c.name != "sort" && c.name != "stable_sort")
            continue;
        if (c.line <= loop.endLine)
            continue;
        for (const std::string &a : c.argIdents)
            if (std::binary_search(loop.bodyIdents.begin(),
                                   loop.bodyIdents.end(), a))
                return true;
    }
    return false;
}

/** How a taint kind arrived at a function. */
struct TaintOrigin
{
    bool direct = false;
    SourceMark mark;              //!< when direct
    std::size_t via = SIZE_MAX;   //!< callee index when not direct
    std::uint64_t edgeLine = 0;   //!< line of the call to `via`
};

/** How a sink is reached from a function. */
struct SinkPath
{
    std::size_t via = SIZE_MAX; //!< callee index; SIZE_MAX = direct
};

} // namespace

const std::vector<RuleAllowance> &
determinismAllowances()
{
    static const std::vector<RuleAllowance> table = {
        {"lint-mutable-global", "common/logging",
         "process-wide log-level cache; stderr diagnostics only, "
         "never a deterministic artifact"},
        {"lint-banned-call", "common/rng",
         "the one home of randomness; every stream is seeded from "
         "the run config so draws are reproducible"},
    };
    return table;
}

Report
checkDeterminism(
    const std::vector<std::pair<std::string, std::string>> &files)
{
    Report report;

    std::vector<std::pair<std::string, std::string>> sorted = files;
    std::sort(sorted.begin(), sorted.end());

    Program prog;
    for (const auto &[rel, content] : sorted)
        prog.addTu(parseTu(content, rel));
    prog.link();

    // ---- symbol-aware lint rules ---------------------------------

    for (const TuSymbols &tu : prog.tus()) {
        if (!allowed("lint-wallclock", tu.file)) {
            for (const RuleSite &s : tu.wallclockSites)
                report.add(
                    "lint-wallclock", tu.file, s.line,
                    Severity::Error,
                    str("wall-clock read (", s.detail,
                        "): use the simulated clock, or add a scoped "
                        "allowance with a justification"));
        }
        if (!allowed("lint-pointer-order", tu.file)) {
            for (const RuleSite &s : tu.pointerOrderSites)
                report.add(
                    "lint-pointer-order", tu.file, s.line,
                    Severity::Error,
                    str(s.detail, ": key or sort by a stable id "
                                  "instead of an address"));
        }
    }

    for (const GlobalVar &g : prog.globals()) {
        if (g.isConst)
            continue;
        // The serve layer gets the stricter, separately-named rule:
        // a mutable global there is shared across tenant sessions,
        // which breaks session isolation outright.
        if (underServeDir(g.file)) {
            if (allowed("lint-serve-session-state", g.file))
                continue;
            report.add(
                "lint-serve-session-state", g.file, g.line,
                Severity::Error,
                str("mutable ", g.storage, " state '", g.name,
                    "' in the serve layer: sessions may share the "
                    "store/pool/registry only via handles injected "
                    "through ServeOptions (DESIGN S14)"));
            continue;
        }
        if (allowed("lint-mutable-global", g.file))
            continue;
        report.add(
            "lint-mutable-global", g.file, g.line, Severity::Error,
            str("mutable ", g.storage, " state '", g.name,
                "': thread the value through explicit parameters, "
                "or add a scoped allowance with a justification"));
    }

    const auto &fns = prog.functions();
    const std::size_t n = fns.size();

    for (const FunctionDef &f : fns) {
        if (allowed("lint-unordered-iter", f.file))
            continue;
        for (const UnorderedLoop &loop : f.unorderedLoops) {
            bool sinky = false;
            std::string sink;
            for (const CallSite &c : loop.bodyCalls) {
                sink = sinkLabel(c);
                if (!sink.empty()) {
                    sinky = true;
                    break;
                }
            }
            if (!sinky && !loop.accumulatesFloat)
                continue;
            // Collecting into a container and sorting it afterwards
            // is fine — see sortedAfterLoop().
            if (sortedAfterLoop(f, loop))
                continue;
            report.add(
                "lint-unordered-iter", f.file, loop.line,
                Severity::Error,
                str("iteration over unordered container '", loop.var,
                    "' ",
                    sinky ? str("writes to sink ", sink)
                          : std::string(
                                "accumulates floating-point values"),
                    " in hash order: iterate a sorted view or sort "
                    "before emitting"));
        }
    }

    // ---- cross-TU taint pass -------------------------------------

    // Seed taint from source marks, minus allowance-covered sites.
    std::vector<std::map<TaintKind, TaintOrigin>> taint(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (const SourceMark &m : fns[i].sources) {
            if (allowed(kindRule(m.kind), fns[i].file) ||
                allowed("det-taint-" + taintKindSlug(m.kind),
                        fns[i].file))
                continue;
            // Canonicalize-then-sort also defuses the taint seed,
            // under the same conditions as the lint rule.
            if (m.kind == TaintKind::UnorderedIter) {
                bool defused = false;
                for (const UnorderedLoop &loop :
                     fns[i].unorderedLoops)
                    if (loop.line == m.line &&
                        sortedAfterLoop(fns[i], loop))
                        defused = true;
                if (defused)
                    continue;
            }
            if (!taint[i].contains(m.kind))
                taint[i][m.kind] =
                    TaintOrigin{true, m, SIZE_MAX, m.line};
        }
    }

    // Junction line of an edge, as resolved during Program::link();
    // a by-name re-derivation here could pick the wrong call site
    // when a function calls two same-named callees.
    auto edgeLine = [&](std::size_t i, std::size_t c) {
        return prog.edgeLine(i, c);
    };

    // Callee→caller propagation to a fixed point. Deterministic:
    // functions are visited in index order and callee lists are
    // sorted, and a kind is only recorded once per function.
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t c : prog.callees(i)) {
                for (const auto &[kind, origin] : taint[c]) {
                    if (taint[i].contains(kind))
                        continue;
                    taint[i][kind] = TaintOrigin{
                        false, {}, c, edgeLine(i, c)};
                    changed = true;
                }
            }
        }
    }

    // Direct sink calls per function, in line order.
    std::vector<std::vector<std::pair<std::string, std::uint64_t>>>
        directSinks(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (const CallSite &c : fns[i].calls) {
            const std::string label = sinkLabel(c);
            if (!label.empty())
                directSinks[i].push_back({label, c.line});
        }
        std::sort(directSinks[i].begin(), directSinks[i].end(),
                  [](const auto &a, const auto &b) {
                      return a.second < b.second;
                  });
    }

    // Sink reachability, also callee→caller to a fixed point.
    std::vector<std::optional<SinkPath>> sinkReach(n);
    for (std::size_t i = 0; i < n; ++i)
        if (!directSinks[i].empty())
            sinkReach[i] = SinkPath{SIZE_MAX};
    changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (sinkReach[i])
                continue;
            for (std::size_t c : prog.callees(i)) {
                if (sinkReach[c]) {
                    sinkReach[i] = SinkPath{c};
                    changed = true;
                    break;
                }
            }
        }
    }

    // Walk a taint origin back to its direct source mark, collecting
    // the function path origin→...→junction.
    auto sourceChain = [&](std::size_t junction, TaintKind kind) {
        std::vector<std::size_t> path{junction};
        std::size_t cur = junction;
        while (!taint[cur].at(kind).direct)
            path.push_back(cur = taint[cur].at(kind).via);
        std::reverse(path.begin(), path.end());
        return path;
    };

    // Walk a sink path down to the function with the direct call;
    // returns (intermediate function indices, sink label).
    auto sinkChain = [&](std::size_t from) {
        std::vector<std::size_t> path;
        std::size_t cur = from;
        while (directSinks[cur].empty()) {
            cur = sinkReach[cur]->via;
            path.push_back(cur);
        }
        return std::pair{path, directSinks[cur].front().first};
    };

    // Junction findings: a tainted input meeting a sink output
    // through different edges is a new flow; the same callee on both
    // sides was already reported at (or below) that callee.
    std::set<std::string> emitted;
    for (std::size_t i = 0; i < n; ++i) {
        if (taint[i].empty())
            continue;

        // Outputs: direct sink calls, then sink-reaching callees.
        std::vector<std::pair<std::size_t, std::string>> outputs;
        if (!directSinks[i].empty())
            outputs.push_back({SIZE_MAX, directSinks[i].front().first});
        for (std::size_t c : prog.callees(i))
            if (sinkReach[c])
                outputs.push_back({c, {}});

        for (const auto &[kind, origin] : taint[i]) {
            for (const auto &[outVia, outLabel] : outputs) {
                if (!origin.direct && outVia != SIZE_MAX &&
                    origin.via == outVia)
                    continue; // same edge: reported below already

                // Build the chain: source path up to here, then the
                // sink path down, then the sink itself.
                std::vector<std::string> chain;
                for (std::size_t fi : sourceChain(i, kind))
                    chain.push_back(fns[fi].qualified);
                std::string label;
                if (outVia == SIZE_MAX) {
                    label = outLabel;
                } else {
                    auto [mids, l] = sinkChain(outVia);
                    chain.push_back(fns[outVia].qualified);
                    for (std::size_t fi : mids)
                        chain.push_back(fns[fi].qualified);
                    label = l;
                }
                chain.push_back(label);

                // Origin detail: the direct mark at the chain head.
                std::size_t head = i;
                while (!taint[head].at(kind).direct)
                    head = taint[head].at(kind).via;
                const SourceMark &m = taint[head].at(kind).mark;

                Finding f;
                f.checkId = "det-taint-" + taintKindSlug(kind);
                f.file = fns[i].file;
                f.line = origin.direct ? origin.mark.line
                                       : origin.edgeLine;
                f.severity = Severity::Error;
                f.message =
                    str("nondeterminism (", m.detail,
                        ") reaches deterministic output ", label);
                f.chain = chain;
                if (emitted.insert(f.key() + " " + label).second)
                    report.add(std::move(f));
            }
        }
    }

    report.sort();
    return report;
}

Report
checkDeterminismTree(const std::vector<std::string> &dirs,
                     const std::string &root)
{
    namespace fs = std::filesystem;
    Report report;
    std::vector<std::pair<std::string, std::string>> files;
    auto addFile = [&](const std::string &path) {
        std::ifstream in(path);
        if (!in) {
            report.add("lint-io", path, 0, Severity::Error,
                       "cannot open source file");
            return;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string rel = path;
        const std::string prefix = root.empty() || root == "."
            ? std::string()
            : (root.back() == '/' ? root : root + "/");
        if (!prefix.empty() && rel.rfind(prefix, 0) == 0)
            rel = rel.substr(prefix.size());
        files.push_back({rel, buf.str()});
    };
    for (const std::string &dir : dirs) {
        std::error_code ec;
        if (!fs::is_directory(dir, ec)) {
            addFile(dir);
            continue;
        }
        for (fs::recursive_directory_iterator it(dir, ec), end;
             it != end && !ec; it.increment(ec)) {
            if (!it->is_regular_file())
                continue;
            const std::string ext =
                it->path().extension().string();
            if (ext != ".cc" && ext != ".hh" && ext != ".cpp" &&
                ext != ".h")
                continue;
            addFile(it->path().string());
        }
        if (ec) {
            report.add("lint-io", dir, 0, Severity::Error,
                       "cannot walk directory: " + ec.message());
            return report;
        }
    }
    report.merge(checkDeterminism(files));
    report.sort();
    return report;
}

} // namespace sadapt::analysis
