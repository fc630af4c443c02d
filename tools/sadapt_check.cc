/**
 * @file
 * sadapt-check: domain-aware static analysis for SparseAdapt
 * artifacts and sources.
 *
 *   sadapt_check model tests/data/analysis/good.model
 *   sadapt_check specs tools/known_specs.txt
 *   sadapt_check lint --root . src
 *   sadapt_check all --root . --src src --model m.model \
 *                --specs s.txt
 *
 * Every subcommand accepts --baseline <file> to suppress accepted
 * findings. Exit code: 0 when no error-severity findings remain,
 * 1 when findings remain, 2 on usage errors.
 */

#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/finding.hh"
#include "analysis/journal_check.hh"
#include "analysis/lint.hh"
#include "analysis/model_check.hh"
#include "analysis/spec_check.hh"
#include "analysis/store_check.hh"

using namespace sadapt;
using namespace sadapt::analysis;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: sadapt_check <subcommand> [options] <args>\n"
        "\n"
        "subcommands:\n"
        "  model <file>...    verify decision-tree model files\n"
        "  specs <file>...    validate config/fault spec-list files\n"
        "  journal <file>...  validate observability event journals\n"
        "  store <file>...    validate persistent epoch-store files\n"
        "  config-space       self-check the config space encoding\n"
        "  lint <path>...     lint .cc/.hh files or directories\n"
        "  all                run everything (see options)\n"
        "\n"
        "options:\n"
        "  --baseline <file>  suppress findings listed in <file>;\n"
        "                     entries matching no finding are errors\n"
        "  --format=json      machine-readable findings on stdout\n"
        "  --root <dir>       report lint paths relative to <dir>\n"
        "  --src <dir>        (all) lint this directory; repeatable\n"
        "  --model <file>     (all) verify this model; repeatable\n"
        "  --specs <file>     (all) validate this spec list; "
        "repeatable\n"
        "  --journal <file>   (all) validate this journal; "
        "repeatable\n"
        "  --store <file>     (all) validate this store; "
        "repeatable\n"
        "  --salt <n>         (store) expected simulator\n"
        "                     salt; 0\n"
        "                     (default) skips salt checks\n");
    std::exit(2);
}

struct Options
{
    std::string subcommand;
    std::string baseline;
    std::string root = ".";
    std::vector<std::string> args;
    std::vector<std::string> srcDirs;
    std::vector<std::string> models;
    std::vector<std::string> specs;
    std::vector<std::string> journals;
    std::vector<std::string> stores;
    std::uint64_t salt = 0;
    bool json = false;
};

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Options o;
    o.subcommand = argv[1];
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--baseline")
            o.baseline = need(i);
        else if (arg == "--root")
            o.root = need(i);
        else if (arg == "--src")
            o.srcDirs.push_back(need(i));
        else if (arg == "--model")
            o.models.push_back(need(i));
        else if (arg == "--specs")
            o.specs.push_back(need(i));
        else if (arg == "--journal")
            o.journals.push_back(need(i));
        else if (arg == "--store")
            o.stores.push_back(need(i));
        else if (arg == "--salt")
            o.salt = std::strtoull(need(i), nullptr, 0);
        else if (arg == "--format=json" || arg == "--json")
            o.json = true;
        else if (arg.rfind("--", 0) == 0)
            usage();
        else
            o.args.push_back(arg);
    }
    return o;
}

Report
runLint(const Options &o, const std::vector<std::string> &paths)
{
    Report report;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (std::filesystem::is_directory(p, ec))
            report.merge(lintTree(p, o.root));
        else
            report.merge(lintFile(p, o.root));
    }
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    Report report;

    if (o.subcommand == "model") {
        if (o.args.empty())
            usage();
        for (const auto &f : o.args)
            report.merge(checkModelFile(f));
    } else if (o.subcommand == "specs") {
        if (o.args.empty())
            usage();
        for (const auto &f : o.args)
            report.merge(checkSpecFile(f));
    } else if (o.subcommand == "journal") {
        if (o.args.empty())
            usage();
        for (const auto &f : o.args)
            report.merge(checkJournalFile(f));
    } else if (o.subcommand == "store") {
        if (o.args.empty())
            usage();
        for (const auto &f : o.args)
            report.merge(checkStoreFile(f, o.salt));
    } else if (o.subcommand == "config-space") {
        report.merge(checkConfigSpaceInvariants());
    } else if (o.subcommand == "lint") {
        if (o.args.empty())
            usage();
        report.merge(runLint(o, o.args));
    } else if (o.subcommand == "all") {
        report.merge(checkConfigSpaceInvariants());
        report.merge(runLint(o, o.srcDirs));
        for (const auto &f : o.models)
            report.merge(checkModelFile(f));
        for (const auto &f : o.specs)
            report.merge(checkSpecFile(f));
        for (const auto &f : o.journals)
            report.merge(checkJournalFile(f));
        for (const auto &f : o.stores)
            report.merge(checkStoreFile(f, o.salt));
    } else {
        usage();
    }

    if (!o.baseline.empty()) {
        auto entries = loadBaselineEntries(o.baseline);
        if (!entries) {
            std::fprintf(stderr, "sadapt_check: %s\n",
                         entries.message().c_str());
            return 2;
        }
        // A baseline entry that matches no finding is dead: it
        // would silently mask the next regression at that site.
        for (const BaselineEntry &e :
             report.applyBaseline(entries.value()))
            report.add("baseline-stale", o.baseline, e.line,
                       Severity::Error,
                       str("baseline entry '", e.key,
                           "' matches no finding; remove it"));
    }

    report.sort();
    if (o.json)
        report.printJson(std::cout);
    else
        report.print(std::cout);
    return report.clean() ? 0 : 1;
}
