#include "obs/bench_json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace sadapt::obs {

namespace {

/**
 * Minimal JSON value model — just enough to read BenchReport output.
 * Numbers are kept as doubles (bench reports never need 64-bit
 * exactness beyond 2^53) and objects as ordered key/value pairs.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text)
        : text(text)
    {
    }

    Result<JsonValue>
    parse()
    {
        JsonValue v;
        Status s = parseValue(v);
        if (!s.isOk())
            return s;
        skipWs();
        if (pos != text.size())
            return fail("trailing content after JSON value");
        return v;
    }

  private:
    std::string_view text;
    std::size_t pos = 0;

    Status
    fail(const std::string &what) const
    {
        return Status::error("bench json: " + what + " at byte " +
                             std::to_string(pos));
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    Status
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"')
            return parseString(out);
        if (c == 't' || c == 'f')
            return parseBool(out);
        if (c == 'n')
            return parseNull(out);
        return parseNumber(out);
    }

    Status
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos; // '{'
        if (consume('}'))
            return Status::ok();
        while (true) {
            skipWs();
            JsonValue key;
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected object key");
            SADAPT_TRY_STATUS(parseString(key));
            if (!consume(':'))
                return fail("expected ':' after object key");
            JsonValue value;
            SADAPT_TRY_STATUS(parseValue(value));
            out.members.emplace_back(std::move(key.string),
                                     std::move(value));
            if (consume(','))
                continue;
            if (consume('}'))
                return Status::ok();
            return fail("expected ',' or '}' in object");
        }
    }

    Status
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos; // '['
        if (consume(']'))
            return Status::ok();
        while (true) {
            JsonValue value;
            SADAPT_TRY_STATUS(parseValue(value));
            out.items.push_back(std::move(value));
            if (consume(','))
                continue;
            if (consume(']'))
                return Status::ok();
            return fail("expected ',' or ']' in array");
        }
    }

    Status
    parseString(JsonValue &out)
    {
        out.kind = JsonValue::Kind::String;
        ++pos; // '"'
        std::string s;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                s += c;
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated escape");
            const char esc = text[pos++];
            switch (esc) {
            case '"': s += '"'; break;
            case '\\': s += '\\'; break;
            case '/': s += '/'; break;
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            case 'r': s += '\r'; break;
            case 'b': s += '\b'; break;
            case 'f': s += '\f'; break;
            case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // Bench reports only ever escape controls and ASCII;
                // anything beyond Latin-1 would need surrogate
                // handling this reader deliberately omits.
                if (code > 0xff)
                    return fail("\\u escape beyond Latin-1");
                s += static_cast<char>(code);
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos; // closing '"'
        out.string = std::move(s);
        return Status::ok();
    }

    Status
    parseBool(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Bool;
        if (text.substr(pos, 4) == "true") {
            out.boolean = true;
            pos += 4;
            return Status::ok();
        }
        if (text.substr(pos, 5) == "false") {
            out.boolean = false;
            pos += 5;
            return Status::ok();
        }
        return fail("bad literal");
    }

    Status
    parseNull(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Null;
        if (text.substr(pos, 4) == "null") {
            pos += 4;
            return Status::ok();
        }
        return fail("bad literal");
    }

    Status
    parseNumber(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Number;
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) !=
                    0 ||
                text[pos] == '-' || text[pos] == '+' ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E'))
            ++pos;
        if (pos == start)
            return fail("expected a value");
        const std::string tok(text.substr(start, pos - start));
        char *end = nullptr;
        out.number = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number '" + tok + "'");
        return Status::ok();
    }
};

double
numberOr(const JsonValue &obj, const std::string &key, double fallback)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr || v->kind != JsonValue::Kind::Number)
        return fallback;
    return v->number;
}

std::uint64_t
countOr(const JsonValue &obj, const std::string &key,
        std::uint64_t fallback)
{
    const double d = numberOr(obj, key,
                              static_cast<double>(fallback));
    if (d < 0)
        return fallback;
    return static_cast<std::uint64_t>(d);
}

std::string
stringOr(const JsonValue &obj, const std::string &key,
         const std::string &fallback)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr || v->kind != JsonValue::Kind::String)
        return fallback;
    return v->string;
}

} // namespace

Result<BenchRun>
parseBenchJson(std::string_view text)
{
    JsonParser parser(text);
    Result<JsonValue> parsed = parser.parse();
    if (!parsed.isOk())
        return parsed.status();
    const JsonValue &root = parsed.value();
    if (root.kind != JsonValue::Kind::Object)
        return Status::error(
            "bench json: top-level value is not an object");

    BenchRun run;
    run.bench = stringOr(root, "bench", "");
    if (run.bench.empty())
        return Status::error("bench json: missing \"bench\" name");
    run.gitRev = stringOr(root, "git_rev", "unknown");
    run.hostWallSeconds = numberOr(root, "host_wall_seconds", 0.0);
    run.sweepWallSeconds = numberOr(root, "sweep_wall_seconds", 0.0);
    run.configsSimulated = countOr(root, "configs_simulated", 0);
    run.scale = numberOr(root, "scale", 0.0);
    run.samples = countOr(root, "samples", 0);
    run.jobs = countOr(root, "jobs", 0);
    run.serveSessions = countOr(root, "serve_sessions", 0);
    run.serveScale = numberOr(root, "serve_scale", 0.0);
    run.sessionsPerSecond =
        numberOr(root, "sessions_per_second", 0.0);
    run.decisionP50Ms = numberOr(root, "decision_p50_ms", 0.0);
    run.decisionP99Ms = numberOr(root, "decision_p99_ms", 0.0);
    run.serveEpochsPerSecond =
        numberOr(root, "serve_epochs_per_second", 0.0);
    run.storeHits = countOr(root, "store_hits", 0);
    run.storeMisses = countOr(root, "store_misses", 0);
    run.storePath = stringOr(root, "store_path", "");

    if (const JsonValue *results = root.find("results");
        results != nullptr &&
        results->kind == JsonValue::Kind::Array) {
        for (const JsonValue &item : results->items) {
            if (item.kind != JsonValue::Kind::Object)
                continue;
            BenchResultEntry e;
            e.kernel = stringOr(item, "kernel", "");
            e.config = stringOr(item, "config", "");
            e.gflops = numberOr(item, "gflops", 0.0);
            e.gflopsPerWatt =
                numberOr(item, "gflops_per_watt", 0.0);
            run.results.push_back(std::move(e));
        }
    }
    return run;
}

Result<BenchRun>
readBenchJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::error("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    Result<BenchRun> run = parseBenchJson(buf.str());
    if (!run.isOk())
        return Status::error(path + ": " + run.message());
    run.value().sourcePath = path;
    return run;
}

double
benchWallSeconds(const BenchRun &run)
{
    return run.sweepWallSeconds > 0.0 ? run.sweepWallSeconds
                                      : run.hostWallSeconds;
}

double
benchGeomeanGflops(const BenchRun &run)
{
    double logSum = 0.0;
    std::size_t n = 0;
    for (const BenchResultEntry &e : run.results) {
        if (e.gflops <= 0.0)
            continue;
        logSum += std::log(e.gflops);
        ++n;
    }
    return n == 0 ? 0.0
                  : std::exp(logSum / static_cast<double>(n));
}

std::size_t
bestRunIndex(const std::vector<BenchRun> &runs)
{
    std::size_t best = static_cast<std::size_t>(-1);
    double bestWall = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const double wall = benchWallSeconds(runs[i]);
        if (best == static_cast<std::size_t>(-1) ||
            wall < bestWall) {
            best = i;
            bestWall = wall;
        }
    }
    return best;
}

bool
benchComparable(const BenchRun &a, const BenchRun &b)
{
    return a.bench == b.bench && a.scale == b.scale &&
           a.samples == b.samples && a.serveSessions == b.serveSessions &&
           a.serveScale == b.serveScale;
}

} // namespace sadapt::obs
