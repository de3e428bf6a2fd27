/**
 * @file
 * Corpus generation shared by the trace_cold and serve_warm
 * workloads: simulate apps at a given length and seed, and write or
 * pack their traces exactly as the CLI commands do. NOTES.md lists
 * the equivalent `deskpar` command for every file.
 */

#ifndef DESKBENCH_CORPUS_HH
#define DESKBENCH_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/harness.hh"
#include "common.hh"

namespace deskbench {

/**
 * The paper protocol's seed base, which every corpus is simulated
 * with. The simulated event count of one app moves by up to a third
 * from one seed to another, so the workload seed varies the order of
 * the work (suite job order, trace rotation, request sequence), not
 * its size.
 */
constexpr std::uint64_t kProtocolSeed = 42;

struct Simulation
{
    std::vector<deskpar::apps::AppRunResult> results;
    /** cswitches + GPU packets over every simulated iteration. */
    std::uint64_t iterationEvents = 0;
    /** The same count over the retained (last-iteration) bundles. */
    std::uint64_t retainedEvents = 0;
};

/**
 * `deskpar run <id> --seconds S` for each id: 3 iterations at seed
 * base kProtocolSeed, each timed as a sim.iteration span. They run on
 * a one-thread SuiteRunner, serially like `deskpar run`: with the
 * iterations in parallel, the set-up's peak memory moved by a tenth
 * from run to run with the threads' timing.
 */
Simulation simulate(const std::vector<std::string> &ids, double seconds);

/**
 * sim.iteration_ms, sim.events (retained bundles of the last set-up)
 * and sim.events_per_s from the traced set-ups' sim.iteration spans;
 * @p iterationEvents counts every iteration of every set-up.
 */
void addSimMetrics(Outcome &outcome, const SpanSummary &spans,
                   std::uint64_t retainedEvents,
                   std::uint64_t iterationEvents);

/** Size of @p path in bytes (0 when missing). */
std::uint64_t fileBytes(const std::string &path);

/** `deskpar run ... --etl PATH`: writeEtl on the raw bundle. */
void writeEtlFile(const deskpar::trace::TraceBundle &bundle,
                  const std::string &path);

/** `deskpar run ... --cpu-csv PATH`. */
void writeCsvFile(const deskpar::trace::TraceBundle &bundle,
                  const std::string &path);

/**
 * `deskpar pack ETL -o ETLC [--index]`: decode the .etl, sort, write
 * the .etlc and, with @p index, re-decode it and write the .dpidx
 * beside it.
 */
void pack(const std::string &etlPath, const std::string &etlcPath,
          bool index);

} // namespace deskbench

#endif // DESKBENCH_CORPUS_HH
