#include "obs/journal.hh"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace sadapt::obs {

const FieldValue *
JournalEvent::field(std::string_view key) const
{
    for (const auto &[k, v] : fields) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::optional<std::int64_t>
JournalEvent::intField(std::string_view key) const
{
    const FieldValue *v = field(key);
    if (v == nullptr || !std::holds_alternative<std::int64_t>(*v))
        return std::nullopt;
    return std::get<std::int64_t>(*v);
}

std::optional<double>
JournalEvent::numField(std::string_view key) const
{
    const FieldValue *v = field(key);
    if (v == nullptr)
        return std::nullopt;
    if (std::holds_alternative<double>(*v))
        return std::get<double>(*v);
    if (std::holds_alternative<std::int64_t>(*v))
        return static_cast<double>(std::get<std::int64_t>(*v));
    return std::nullopt;
}

std::optional<std::string>
JournalEvent::strField(std::string_view key) const
{
    const FieldValue *v = field(key);
    if (v == nullptr || !std::holds_alternative<std::string>(*v))
        return std::nullopt;
    return std::get<std::string>(*v);
}

std::optional<bool>
JournalEvent::boolField(std::string_view key) const
{
    const FieldValue *v = field(key);
    if (v == nullptr || !std::holds_alternative<bool>(*v))
        return std::nullopt;
    return std::get<bool>(*v);
}

namespace {

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Shortest decimal that round-trips the double, valid as JSON. */
std::string
formatJsonNumber(double v)
{
    char buf[64];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(buf, "%lf", &back);
        if (back == v)
            break;
    }
    // JSON requires a fractional or exponent part to stay a number
    // type distinguishable from integers; leave plain integers as-is
    // (readers accept both), but rewrite non-finite values, which JSON
    // cannot represent, as null-safe strings is overkill here — the
    // journal only ever records finite doubles.
    return buf;
}

void
appendFieldValue(std::string &out, const FieldValue &v)
{
    if (std::holds_alternative<std::int64_t>(v)) {
        out += std::to_string(std::get<std::int64_t>(v));
    } else if (std::holds_alternative<double>(v)) {
        out += formatJsonNumber(std::get<double>(v));
    } else if (std::holds_alternative<bool>(v)) {
        out += std::get<bool>(v) ? "true" : "false";
    } else {
        appendJsonString(out, std::get<std::string>(v));
    }
}

} // namespace

void
JournalWriter::write(JournalEvent ev)
{
    ev.seq = seqV++;
    std::string line;
    line.reserve(96);
    line += "{\"v\":";
    line += std::to_string(journalSchemaVersion);
    line += ",\"seq\":";
    line += std::to_string(ev.seq);
    line += ",\"epoch\":";
    line += std::to_string(ev.epoch);
    line += ",\"t\":";
    line += formatJsonNumber(ev.simTime);
    line += ",\"path\":";
    appendJsonString(line, ev.path);
    line += ",\"type\":";
    appendJsonString(line, ev.type);
    for (const auto &[k, v] : ev.fields) {
        line += ',';
        appendJsonString(line, k);
        line += ':';
        appendFieldValue(line, v);
    }
    line += "}\n";
    *outV << line;
}

Status
JournalWriter::appendShard(std::string_view text)
{
    const std::string prefix =
        str("{\"v\":", journalSchemaVersion, ",\"seq\":");
    std::string out;
    out.reserve(text.size());
    std::uint64_t seq = seqV;
    while (!text.empty()) {
        const std::size_t eol = text.find('\n');
        const std::string_view line = text.substr(0, eol);
        std::size_t digits = prefix.size();
        while (digits < line.size() &&
               std::isdigit(static_cast<unsigned char>(line[digits])))
            ++digits;
        if (eol == std::string_view::npos ||
            !line.starts_with(prefix) || digits == prefix.size() ||
            digits == line.size() || line[digits] != ',')
            return Status::error(
                str("journal shard line lacks a newline or the ",
                    prefix, "N, prefix: ", line));
        out += prefix;
        out += std::to_string(seq++);
        out += line.substr(digits);
        out += '\n';
        text.remove_prefix(eol + 1);
    }
    *outV << out;
    seqV = seq;
    return Status::ok();
}

namespace {

/**
 * Minimal parser for the flat JSON objects the journal writes: one
 * object per line, string keys, scalar values only (no nesting).
 */
class LineParser
{
  public:
    explicit LineParser(const std::string &line)
        : s(line)
    {
    }

    [[nodiscard]] Status
    parse(std::vector<std::pair<std::string, FieldValue>> &out)
    {
        skipWs();
        if (!consume('{'))
            return Status::error("expected '{'");
        skipWs();
        if (consume('}'))
            return finish();
        for (;;) {
            std::string key;
            SADAPT_TRY_STATUS(parseString(key));
            skipWs();
            if (!consume(':'))
                return Status::error("expected ':' after key");
            skipWs();
            FieldValue value;
            SADAPT_TRY_STATUS(parseValue(value));
            out.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (consume(',')) {
                skipWs();
                continue;
            }
            if (consume('}'))
                return finish();
            return Status::error("expected ',' or '}'");
        }
    }

  private:
    Status
    finish()
    {
        skipWs();
        if (pos != s.size())
            return Status::error("trailing characters after object");
        return Status::ok();
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])) != 0)
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    [[nodiscard]] Status
    parseString(std::string &out)
    {
        if (!consume('"'))
            return Status::error("expected '\"'");
        out.clear();
        while (pos < s.size()) {
            char c = s[pos++];
            if (c == '"')
                return Status::ok();
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= s.size())
                return Status::error("dangling escape");
            char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos + 4 > s.size())
                    return Status::error("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return Status::error("bad \\u escape");
                }
                // The writer only emits \u for control bytes; decode
                // the basic-plane code point as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return Status::error("bad escape character");
            }
        }
        return Status::error("unterminated string");
    }

    [[nodiscard]] Status
    parseValue(FieldValue &out)
    {
        if (pos >= s.size())
            return Status::error("expected value");
        char c = s[pos];
        if (c == '"') {
            std::string str;
            SADAPT_TRY_STATUS(parseString(str));
            out = std::move(str);
            return Status::ok();
        }
        if (s.compare(pos, 4, "true") == 0) {
            pos += 4;
            out = true;
            return Status::ok();
        }
        if (s.compare(pos, 5, "false") == 0) {
            pos += 5;
            out = false;
            return Status::ok();
        }
        // Number: scan the JSON number grammar's character set, then
        // decide integer vs double by the presence of '.', 'e', 'E'.
        std::size_t start = pos;
        bool is_double = false;
        while (pos < s.size()) {
            char n = s[pos];
            if (n == '.' || n == 'e' || n == 'E') {
                is_double = true;
            } else if (n != '-' && n != '+' &&
                       (n < '0' || n > '9')) {
                break;
            }
            ++pos;
        }
        if (pos == start)
            return Status::error("expected value");
        const std::string tok = s.substr(start, pos - start);
        try {
            if (is_double) {
                std::size_t used = 0;
                double d = std::stod(tok, &used);
                if (used != tok.size())
                    return Status::error("bad number '" + tok + "'");
                out = d;
            } else {
                std::size_t used = 0;
                std::int64_t i = std::stoll(tok, &used);
                if (used != tok.size())
                    return Status::error("bad number '" + tok + "'");
                out = i;
            }
        } catch (const std::exception &) {
            return Status::error("bad number '" + tok + "'");
        }
        return Status::ok();
    }

    const std::string &s;
    std::size_t pos = 0;
};

/** Parse one journal line into an event (envelope extracted). */
[[nodiscard]] Status
parseEventLine(const std::string &line, JournalEvent &ev)
{
    std::vector<std::pair<std::string, FieldValue>> fields;
    SADAPT_TRY_STATUS(LineParser(line).parse(fields));

    bool saw_v = false, saw_seq = false, saw_epoch = false;
    bool saw_t = false, saw_path = false, saw_type = false;
    ev = JournalEvent{};
    for (auto &[k, v] : fields) {
        if (k == "v") {
            if (!std::holds_alternative<std::int64_t>(v))
                return Status::error("'v' must be an integer");
            const std::int64_t got = std::get<std::int64_t>(v);
            if (got < journalMinSchemaVersion ||
                got > journalSchemaVersion)
                return Status::error(
                    str("unsupported schema version ", got,
                        " (supported ", journalMinSchemaVersion, "..",
                        journalSchemaVersion, ")"));
            ev.schemaVersion = got;
            saw_v = true;
        } else if (k == "seq") {
            if (!std::holds_alternative<std::int64_t>(v) ||
                std::get<std::int64_t>(v) < 0)
                return Status::error("'seq' must be a non-negative "
                                     "integer");
            ev.seq = static_cast<std::uint64_t>(
                std::get<std::int64_t>(v));
            saw_seq = true;
        } else if (k == "epoch") {
            if (!std::holds_alternative<std::int64_t>(v) ||
                std::get<std::int64_t>(v) < 0)
                return Status::error("'epoch' must be a non-negative "
                                     "integer");
            ev.epoch = static_cast<std::uint64_t>(
                std::get<std::int64_t>(v));
            saw_epoch = true;
        } else if (k == "t") {
            if (std::holds_alternative<double>(v))
                ev.simTime = std::get<double>(v);
            else if (std::holds_alternative<std::int64_t>(v))
                ev.simTime = static_cast<double>(
                    std::get<std::int64_t>(v));
            else
                return Status::error("'t' must be a number");
            saw_t = true;
        } else if (k == "path") {
            if (!std::holds_alternative<std::string>(v))
                return Status::error("'path' must be a string");
            ev.path = std::move(std::get<std::string>(v));
            saw_path = true;
        } else if (k == "type") {
            if (!std::holds_alternative<std::string>(v))
                return Status::error("'type' must be a string");
            ev.type = std::move(std::get<std::string>(v));
            saw_type = true;
        } else {
            ev.fields.emplace_back(std::move(k), std::move(v));
        }
    }
    if (!saw_v || !saw_seq || !saw_epoch || !saw_t || !saw_path ||
        !saw_type)
        return Status::error("missing envelope key (need v, seq, "
                             "epoch, t, path, type)");
    return Status::ok();
}

} // namespace

Result<JournalRead>
readJournal(std::istream &in)
{
    JournalRead out;
    std::string line;
    std::uint64_t line_no = 0;
    bool pending_error = false;
    std::string pending_msg;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        if (pending_error) {
            // The bad line was not the last one: corruption mid-file.
            return Status::error(pending_msg);
        }
        JournalEvent ev;
        Status st = parseEventLine(line, ev);
        if (!st.isOk()) {
            // Remember the failure; if no further lines follow, treat
            // it as a torn final append and recover.
            pending_error = true;
            pending_msg =
                str("journal line ", line_no, ": ", st.message());
            continue;
        }
        out.events.push_back(std::move(ev));
    }
    if (pending_error)
        out.truncated = true;
    return out;
}

Result<JournalRead>
readJournalFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::error("cannot open journal: " + path);
    return readJournal(in);
}

const std::vector<std::string> &
journalEventTypes()
{
    static const std::vector<std::string> types = {
        "run",      "epoch",    "prediction", "policy",
        "reconfig", "guard",    "watchdog",   "fault",
        "store",    "session",
    };
    return types;
}

} // namespace sadapt::obs
