#include "analysis/finding.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <unordered_set>

#include "common/logging.hh"

namespace sadapt::analysis {

std::string
severityName(Severity s)
{
    switch (s) {
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    panic("bad Severity");
}

std::string
Finding::format() const
{
    std::string loc = file;
    if (line > 0)
        loc += str(":", line);
    return str(loc, ": [", severityName(severity), "] ", checkId, ": ",
               message);
}

std::string
Finding::key() const
{
    std::string loc = file;
    if (line > 0)
        loc += str(":", line);
    return str(checkId, " ", loc);
}

void
Report::add(std::string check_id, std::string file, std::uint64_t line,
            Severity severity, std::string message)
{
    add(Finding{std::move(check_id), std::move(file), line, severity,
                std::move(message)});
}

std::size_t
Report::errorCount() const
{
    return static_cast<std::size_t>(
        std::count_if(findingsV.begin(), findingsV.end(),
                      [](const Finding &f) {
                          return f.severity == Severity::Error;
                      }));
}

std::size_t
Report::warningCount() const
{
    return findingsV.size() - errorCount();
}

void
Report::applyBaseline(const std::vector<std::string> &baseline_keys)
{
    const std::unordered_set<std::string> keys(baseline_keys.begin(),
                                               baseline_keys.end());
    const std::size_t before = findingsV.size();
    std::erase_if(findingsV, [&](const Finding &f) {
        return keys.contains(f.key());
    });
    suppressedV += before - findingsV.size();
}

std::vector<BaselineEntry>
Report::applyBaseline(const std::vector<BaselineEntry> &entries)
{
    std::unordered_set<std::string> used;
    for (const Finding &f : findingsV)
        used.insert(f.key());

    std::unordered_set<std::string> keys;
    std::vector<BaselineEntry> stale;
    for (const BaselineEntry &e : entries) {
        keys.insert(e.key);
        if (!used.contains(e.key))
            stale.push_back(e);
    }

    const std::size_t before = findingsV.size();
    std::erase_if(findingsV, [&](const Finding &f) {
        return keys.contains(f.key());
    });
    suppressedV += before - findingsV.size();
    return stale;
}

void
Report::sort()
{
    std::stable_sort(findingsV.begin(), findingsV.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.checkId < b.checkId;
                     });
}

void
Report::merge(Report other)
{
    for (auto &f : other.findingsV)
        findingsV.push_back(std::move(f));
    suppressedV += other.suppressedV;
}

void
Report::print(std::ostream &out) const
{
    for (const auto &f : findingsV)
        out << f.format() << '\n';
    out << "sadapt-check: " << errorCount() << " error(s), "
        << warningCount() << " warning(s)";
    if (suppressedV > 0)
        out << ", " << suppressedV << " baseline-suppressed";
    out << '\n';
}

void
Report::printJson(std::ostream &out) const
{
    auto esc = [](const std::string &s) {
        std::string r;
        r.reserve(s.size() + 2);
        for (char c : s) {
            switch (c) {
              case '"': r += "\\\""; break;
              case '\\': r += "\\\\"; break;
              case '\n': r += "\\n"; break;
              case '\t': r += "\\t"; break;
              case '\r': r += "\\r"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    static const char hex[] = "0123456789abcdef";
                    r += "\\u00";
                    r += hex[(c >> 4) & 0xF];
                    r += hex[c & 0xF];
                } else {
                    r += c;
                }
            }
        }
        return r;
    };

    out << "{\n"
        << "  \"version\": 1,\n"
        << "  \"errors\": " << errorCount() << ",\n"
        << "  \"warnings\": " << warningCount() << ",\n"
        << "  \"suppressed\": " << suppressedV << ",\n"
        << "  \"findings\": [";
    for (std::size_t i = 0; i < findingsV.size(); ++i) {
        const Finding &f = findingsV[i];
        out << (i == 0 ? "\n" : ",\n");
        out << "    {\"rule\": \"" << esc(f.checkId)
            << "\", \"file\": \"" << esc(f.file)
            << "\", \"line\": " << f.line << ", \"severity\": \""
            << severityName(f.severity) << "\", \"message\": \""
            << esc(f.message) << "\"}";
    }
    out << (findingsV.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

Result<std::vector<BaselineEntry>>
loadBaselineEntries(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::error("cannot open baseline file: " + path);
    std::vector<BaselineEntry> entries;
    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#')
            continue;
        const auto end = line.find_last_not_of(" \t\r");
        entries.push_back(
            {line.substr(start, end - start + 1), lineno});
    }
    return entries;
}

Result<std::vector<std::string>>
loadBaseline(const std::string &path)
{
    auto entries = loadBaselineEntries(path);
    if (!entries.isOk())
        return entries.status();
    std::vector<std::string> keys;
    keys.reserve(entries.value().size());
    for (const BaselineEntry &e : entries.value())
        keys.push_back(e.key);
    return keys;
}

} // namespace sadapt::analysis
