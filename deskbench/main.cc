/**
 * @file
 * deskbench — the DeskPar benchmark.
 *
 *   deskbench --workload suite|trace_cold|serve_warm --seed N
 *             --seconds S --trace 0|1
 *
 * Generates the workload's inputs from the seed, measures for S
 * seconds, checks every output, and prints the metrics; the last line
 * of stdout is one JSON object (correct, attempted, failed, metrics).
 * --trace 0 reports the end-to-end metrics, --trace 1 runs the same
 * workload with the benchmark's spans on and reports the per-layer
 * metrics, with the names and units BENCHMARK.json (read from the
 * working directory) declares. Exits 1 when an output check fails or
 * the run cannot be measured, 2 on a usage error. See NOTES.md for
 * the workloads.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hh"
#include "serve/json_value.hh"

using namespace deskbench;
using namespace deskpar;

namespace {

/** One metric BENCHMARK.json declares. */
struct Declared
{
    std::string name;
    std::string unit;
};

/**
 * The metrics BENCHMARK.json (in the working directory, the repository
 * root) declares in @p section, in order: the one list of names and
 * units the result line carries.
 */
std::vector<Declared>
declaredMetrics(const char *section)
{
    std::ifstream in("BENCHMARK.json");
    std::ostringstream text;
    text << in.rdbuf();
    serve::JsonValue bench;
    std::string error = "cannot read the file";
    const serve::JsonValue *list = nullptr;
    if (!in || !serve::parseJson(text.str(), bench, error) ||
        !(list = bench.find(section)) || !list->isArray()) {
        std::fprintf(stderr, "deskbench: BENCHMARK.json has no %s list: %s\n",
                     section, error.c_str());
        std::exit(1);
    }
    std::vector<Declared> out;
    for (const serve::JsonValue &m : list->array())
        out.push_back({m.stringOr("name", ""), m.stringOr("unit", "")});
    return out;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "deskbench: %s\nusage: deskbench --workload "
                 "suite|trace_cold|serve_warm --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    std::exit(2);
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || !end || *end || text[0] == '-' || text[0] == '\0')
        return false;
    out = v;
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, args.seed))
                usage("--seed expects a non-negative integer");
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, n) || n == 0 || n > 3600)
                usage("--seconds expects an integer in 1..3600");
            args.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (!parseUnsigned(value, n) || n > 1)
                usage("--trace expects 0 or 1");
            args.trace = n == 1;
        } else {
            usage(("unknown option " + flag).c_str());
        }
    }
    if (args.workload.empty() || !haveSeconds)
        usage("--workload and --seconds are required");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const std::vector<Declared> declared =
        declaredMetrics(args.trace ? "per_layer" : "end_to_end");

    // The whole load — runner, decoders, server workers, clients —
    // stays within four threads: every DeskPar fan-out resolves its
    // width from DESKPAR_JOBS.
    unsigned hw = std::thread::hardware_concurrency();
    unsigned jobs = hw == 0 || hw > 4 ? 4 : hw;
    setenv("DESKPAR_JOBS", std::to_string(jobs).c_str(), 1);

    std::error_code ec;
    std::filesystem::create_directories(workDir(args.workload), ec);
    if (ec) {
        std::fprintf(stderr, "deskbench: cannot create %s: %s\n",
                     workDir(args.workload).c_str(),
                     ec.message().c_str());
        return 1;
    }

    Outcome outcome;
    try {
        if (args.workload == "suite")
            outcome = runSuite(args);
        else if (args.workload == "trace_cold")
            outcome = runTraceCold(args);
        else if (args.workload == "serve_warm")
            outcome = runServeWarm(args);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "deskbench: %s: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }

    if (!outcome.correct) {
        std::fprintf(stderr, "deskbench: %s: output check failed\n",
                     args.workload.c_str());
        return 1;
    }
    if (outcome.attempted == 0) {
        std::fprintf(stderr, "deskbench: %s: no op was attempted\n",
                     args.workload.c_str());
        return 1;
    }

    std::vector<Metric> metrics;
    if (args.trace) {
        std::string spanPath = workDir(args.workload) + "/spans-seed" +
                               std::to_string(args.seed) + ".jsonl";
        if (!Tracer::get().write(spanPath))
            std::fprintf(stderr, "deskbench: cannot write %s\n",
                         spanPath.c_str());
        else
            note("spans written to %s", spanPath.c_str());
        for (const Declared &d : declared) {
            auto it = outcome.layers.find(d.name);
            metrics.push_back(
                {d.name, it == outcome.layers.end() ? 0.0 : it->second,
                 d.unit});
        }
        for (const auto &[name, value] : outcome.layers) {
            bool known = false;
            for (const Declared &d : declared)
                known = known || d.name == name;
            if (!known) {
                std::fprintf(stderr,
                             "deskbench: per-layer metric %s is not "
                             "declared in BENCHMARK.json\n",
                             name.c_str());
                return 1;
            }
        }
    } else {
        metrics = outcome.metrics;
        bool same = metrics.size() == declared.size();
        for (std::size_t i = 0; same && i < metrics.size(); ++i)
            same = metrics[i].name == declared[i].name &&
                   metrics[i].unit == declared[i].unit;
        if (!same) {
            std::fprintf(stderr, "deskbench: the end-to-end metrics differ "
                                 "from BENCHMARK.json's\n");
            return 1;
        }
    }
    printResult(outcome.correct, outcome.attempted, outcome.failed,
                metrics);
    return 0;
}
