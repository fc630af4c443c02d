#include "analysis/lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/lexer.hh"
#include "common/logging.hh"

namespace sadapt::analysis {

namespace {

/**
 * Functions whose Status/Result return value must never be discarded.
 * Qualified entries ("FaultSpec::parse") match only when preceded by
 * the qualifier; bare entries match the identifier anywhere.
 */
const std::vector<std::string> &
statusRegistry()
{
    static const std::vector<std::string> names = {
        "parseConfig",
        "tryReadMatrixMarket",
        "tryReadMatrixMarketFile",
        "readTraceText",
        "readTraceTextFile",
        "tryPushGpe",
        "tryPushLcp",
        "loadBaseline",
        "FaultSpec::parse",
    };
    return names;
}

/** True when path (already '/'-normalized) is under a directory. */
bool
underDir(const std::string &rel_path, const std::string &dir)
{
    return rel_path.rfind(dir + "/", 0) == 0 ||
        rel_path.find("/" + dir + "/") != std::string::npos;
}

} // namespace

Report
lintSource(const std::string &source, const std::string &rel_path)
{
    Report report;
    const std::vector<Token> toks = lex(source);
    const bool float_eq_scope =
        underDir(rel_path, "sim") || underDir(rel_path, "adapt");
    // common/threading.{hh,cc} is the one home allowed to touch raw
    // std::thread; everything else goes through its pool.
    const bool threading_home =
        rel_path.find("common/threading") != std::string::npos;
    // store/record_log.{hh,cc} is the one home allowed to touch raw
    // file streams; the rest of store/ goes through RecordLog's
    // framed, CRC-guarded appends.
    const bool store_raw_io_scope = underDir(rel_path, "store") &&
        rel_path.find("store/record_log") == std::string::npos;

    auto tok = [&](std::size_t i) -> const Token * {
        return i < toks.size() ? &toks[i] : nullptr;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];

        // lint-banned-call: rand/srand/time used as a free function.
        if (t.kind == Token::Kind::Ident &&
            (t.text == "rand" || t.text == "srand" ||
             t.text == "time")) {
            const Token *next = tok(i + 1);
            const Token *prev = i > 0 ? &toks[i - 1] : nullptr;
            // Exclude member calls (x.time()) and class-qualified
            // statics; std:: and global :: still count as banned.
            bool member = prev != nullptr &&
                (prev->text == "." || prev->text == "->");
            if (prev != nullptr && prev->text == "::" && i >= 2 &&
                toks[i - 2].kind == Token::Kind::Ident &&
                toks[i - 2].text != "std")
                member = true;
            if (next && next->text == "(" && !member) {
                report.add(
                    "lint-banned-call", rel_path, t.line,
                    Severity::Error,
                    str("call to ", t.text, "(): use common/rng for "
                        "randomness and simulated clocks for time"));
            }
        }

        // lint-naked-thread: raw thread spawning (or detaching)
        // outside common/threading, which owns every worker thread.
        if (!threading_home && t.kind == Token::Kind::Ident &&
            t.text == "std") {
            const Token *colons = tok(i + 1);
            const Token *name = tok(i + 2);
            if (colons && colons->text == "::" && name &&
                name->kind == Token::Kind::Ident &&
                (name->text == "thread" || name->text == "jthread" ||
                 name->text == "async")) {
                report.add(
                    "lint-naked-thread", rel_path, name->line,
                    Severity::Error,
                    str("std::", name->text, ": spawn workers through "
                        "common/threading (parallelFor)"));
            }
        }
        if (!threading_home && t.kind == Token::Kind::Punct &&
            (t.text == "." || t.text == "->")) {
            const Token *name = tok(i + 1);
            const Token *paren = tok(i + 2);
            if (name && name->kind == Token::Kind::Ident &&
                name->text == "detach" && paren &&
                paren->text == "(") {
                report.add(
                    "lint-naked-thread", rel_path, name->line,
                    Severity::Error,
                    "detach(): detached threads escape parallelFor's "
                    "join-before-return guarantee; join via "
                    "common/threading instead");
            }
        }

        // lint-store-raw-io: raw file I/O in store/ outside the
        // framed-record writer.
        if (store_raw_io_scope && t.kind == Token::Kind::Ident &&
            (t.text == "fopen" || t.text == "fwrite" ||
             t.text == "fread" || t.text == "fprintf" ||
             t.text == "fputs" || t.text == "FILE" ||
             t.text == "ofstream" || t.text == "ifstream" ||
             t.text == "fstream" || t.text == "filebuf")) {
            report.add(
                "lint-store-raw-io", rel_path, t.line, Severity::Error,
                str(t.text, ": store files are written only through "
                            "store/record_log's framed CRC records"));
        }

        // lint-process-control: process control anywhere in src/.
        // Sweeps run in-process (jobs=N threads), so a stray fork
        // duplicates open record-log buffers and a stray kill/waitpid
        // has no child of the library to act on.
        if (t.kind == Token::Kind::Ident &&
            (t.text == "fork" || t.text == "vfork" ||
             t.text == "execv" || t.text == "execve" ||
             t.text == "execvp" || t.text == "execl" ||
             t.text == "execlp" || t.text == "execle" ||
             t.text == "kill" || t.text == "waitpid" ||
             t.text == "posix_spawn")) {
            const Token *next = tok(i + 1);
            const Token *prev = i > 0 ? &toks[i - 1] : nullptr;
            // Member calls (task.kill()) and class-qualified statics
            // are fine; bare and ::-qualified calls are not.
            bool member = prev != nullptr &&
                (prev->text == "." || prev->text == "->");
            if (prev != nullptr && prev->text == "::" && i >= 2 &&
                toks[i - 2].kind == Token::Kind::Ident)
                member = true;
            if (next && next->text == "(" && !member) {
                report.add(
                    "lint-process-control", rel_path, t.line,
                    Severity::Error,
                    str("call to ", t.text, "(): process control "
                        "(fork/exec/kill/wait) has no home in the "
                        "library; sweeps run in-process"));
            }
        }

        // lint-trace-raw-mmap: memory mapping and raw-descriptor
        // I/O anywhere. Files are read through streams into owned
        // memory, so a TraceView only ever points into a Trace and no
        // view outlives the bytes it reads.
        if (t.kind == Token::Kind::Ident &&
            (t.text == "mmap" || t.text == "munmap" ||
             t.text == "madvise" || t.text == "mremap" ||
             t.text == "pread" || t.text == "pwrite")) {
            const Token *next = tok(i + 1);
            const Token *prev = i > 0 ? &toks[i - 1] : nullptr;
            // Member calls (m.mmap()) and class-qualified statics
            // are fine; bare and ::-qualified calls are not.
            bool member = prev != nullptr &&
                (prev->text == "." || prev->text == "->");
            if (prev != nullptr && prev->text == "::" && i >= 2 &&
                toks[i - 2].kind == Token::Kind::Ident)
                member = true;
            if (next && next->text == "(" && !member) {
                report.add(
                    "lint-trace-raw-mmap", rel_path, t.line,
                    Severity::Error,
                    str("call to ", t.text, "(): no code maps files "
                        "or does raw-descriptor I/O; read the file "
                        "into a buffer instead"));
            }
        }

        // lint-naked-new: any new-expression.
        if (t.kind == Token::Kind::Ident && t.text == "new") {
            const Token *next = tok(i + 1);
            if (next &&
                (next->kind == Token::Kind::Ident ||
                 next->text == "(")) {
                report.add("lint-naked-new", rel_path, t.line,
                           Severity::Error,
                           "naked new-expression: use containers or "
                           "std::make_unique");
            }
        }

        // lint-float-eq: ==/!= with a float-literal operand.
        if (float_eq_scope && t.kind == Token::Kind::Punct &&
            (t.text == "==" || t.text == "!=")) {
            const Token *prev = i > 0 ? &toks[i - 1] : nullptr;
            const Token *next = tok(i + 1);
            const bool prev_float = prev &&
                prev->kind == Token::Kind::Number &&
                isFloatLiteral(prev->text);
            const bool next_float = next &&
                next->kind == Token::Kind::Number &&
                isFloatLiteral(next->text);
            if (prev_float || next_float) {
                report.add(
                    "lint-float-eq", rel_path, t.line, Severity::Error,
                    str("exact floating-point ", t.text,
                        " comparison: compare against a tolerance "
                        "or restructure"));
            }
        }

        // lint-unchecked-status: registry call as a bare
        // expression statement.
        if (t.kind == Token::Kind::Ident) {
            bool matches = false;
            std::size_t call_start = i; // first token of the call
            for (const std::string &entry : statusRegistry()) {
                const auto sep = entry.find("::");
                if (sep == std::string::npos) {
                    matches = t.text == entry;
                } else if (t.text == entry.substr(sep + 2) && i >= 2 &&
                           toks[i - 1].text == "::" &&
                           toks[i - 2].text == entry.substr(0, sep)) {
                    matches = true;
                    call_start = i - 2;
                }
                if (matches)
                    break;
            }
            const Token *next = tok(i + 1);
            if (matches && next && next->text == "(") {
                // Statement start: preceded by ; { } or nothing.
                const Token *before = call_start > 0
                    ? &toks[call_start - 1]
                    : nullptr;
                const bool stmt_start = before == nullptr ||
                    before->text == ";" || before->text == "{" ||
                    before->text == "}";
                if (stmt_start) {
                    // Find the matching ')' and check for ';'.
                    std::size_t depth = 0;
                    std::size_t j = i + 1;
                    for (; j < toks.size(); ++j) {
                        if (toks[j].text == "(")
                            ++depth;
                        else if (toks[j].text == ")" && --depth == 0)
                            break;
                    }
                    const Token *after = tok(j + 1);
                    if (after && after->text == ";") {
                        report.add(
                            "lint-unchecked-status", rel_path, t.line,
                            Severity::Error,
                            str("discarded Status/Result of ", t.text,
                                "(): check isOk() or propagate"));
                    }
                }
            }
        }
    }
    report.sort();
    return report;
}

Report
lintFile(const std::string &path, const std::string &root)
{
    std::ifstream in(path);
    if (!in) {
        Report report;
        report.add("lint-io", path, 0, Severity::Error,
                   "cannot open source file");
        return report;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string rel = path;
    const std::string prefix = root.empty() || root == "."
        ? std::string()
        : (root.back() == '/' ? root : root + "/");
    if (!prefix.empty() && rel.rfind(prefix, 0) == 0)
        rel = rel.substr(prefix.size());
    return lintSource(buf.str(), rel);
}

Report
lintTree(const std::string &dir, const std::string &root)
{
    namespace fs = std::filesystem;
    Report report;
    std::error_code ec;
    std::vector<std::string> files;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file())
            continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
            ext == ".h")
            files.push_back(it->path().string());
    }
    if (ec) {
        report.add("lint-io", dir, 0, Severity::Error,
                   "cannot walk directory: " + ec.message());
        return report;
    }
    std::sort(files.begin(), files.end());
    for (const std::string &f : files)
        report.merge(lintFile(f, root));
    return report;
}

} // namespace sadapt::analysis
