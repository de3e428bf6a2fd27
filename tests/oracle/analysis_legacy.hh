/**
 * @file
 * The direct-sweep reference metrics: one straight pass over the
 * bundle per call, nothing cached or shared. They exist only to prove
 * the product's index-backed paths (analysis::Session, TraceIndex and
 * the fused QueryPlan) bit-identical, and to give the benches their
 * "sequential per-metric calls" baseline, so they live in the
 * test-only deskpar_oracle library and are never linked into the
 * shipped binaries.
 *
 * Each reference keeps the operation order of the implementation the
 * product replaced: the integer time-at-level sums, the stream-order
 * floating-point folds and the fatal checks (empty window, unknown
 * CPU count) all match, so differential tests compare with EXPECT_EQ
 * and compare failures by message.
 */

#ifndef DESKPAR_ORACLE_ANALYSIS_LEGACY_HH
#define DESKPAR_ORACLE_ANALYSIS_LEGACY_HH

#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "analysis/gpu_util.hh"
#include "analysis/intervals.hh"
#include "analysis/power.hh"
#include "analysis/query.hh"
#include "analysis/responsiveness.hh"
#include "analysis/tlp.hh"
#include "sim/cpu.hh"
#include "sim/gpu.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

namespace legacy {

/**
 * The concurrency profile of @p bundle over [@p t0, @p t1) for the
 * processes in @p pids, by one direct sweep (Session::concurrency's
 * reference). An empty @p pids means every non-idle process.
 * @p num_cpus caps the histogram; the default 0 means
 * bundle.numLogicalCpus. Emits the out-of-range-cpu warning on every
 * call, as the pre-index function did.
 */
ConcurrencyProfile
computeConcurrency(const TraceBundle &bundle, const PidSet &pids,
                   sim::SimTime t0, sim::SimTime t1,
                   unsigned num_cpus = 0);

/** Convenience: whole-bundle window. */
ConcurrencyProfile
computeConcurrency(const TraceBundle &bundle, const PidSet &pids);

/**
 * GPU utilization over [@p t0, @p t1) for processes in @p pids
 * (empty set = all processes), by a full scan of the packet stream
 * (Session::gpuUtil's reference).
 */
GpuUtilization computeGpuUtil(const TraceBundle &bundle,
                              const PidSet &pids, sim::SimTime t0,
                              sim::SimTime t1);

/** Convenience: whole-bundle window. */
GpuUtilization computeGpuUtil(const TraceBundle &bundle,
                              const PidSet &pids);

/**
 * Responsiveness of the application @p pids (empty = any non-idle
 * process): per input marker, the time to the next switch-in of one
 * of its threads, with the dispatch column collected per call
 * (Session::responsiveness's reference).
 */
Responsiveness computeResponsiveness(const trace::TraceBundle &bundle,
                                     const trace::PidSet &pids);

/**
 * Average power over the whole bundle window, every process
 * contributing (Session::power's reference).
 */
PowerEstimate estimatePower(const trace::TraceBundle &bundle,
                            const sim::CpuSpec &cpu,
                            const sim::GpuSpec &gpu);

/**
 * Evaluate @p query with one independent full-trace sweep per row —
 * computeConcurrency / computeGpuUtil / direct event scans, nothing
 * shared, warnings emitted per sweep. The fused planner
 * (query_plan.hh) is differentially tested against this, and it is
 * the sequential baseline of bench_query_fusion.
 */
QueryResult runQuery(const trace::TraceBundle &bundle,
                     const Query &query);

/** runQuery over a batch, in order. */
std::vector<QueryResult> runQueries(const trace::TraceBundle &bundle,
                                    const std::vector<Query> &queries);

} // namespace legacy

namespace detail {

/**
 * Reference concurrency profile for an arbitrary filter: the fatal
 * checks, one direct sweep with @p num_cpus levels (0 = the header's
 * count), and the out-of-range-cpu warning on every call. With a
 * default-shaped spec this is legacy::computeConcurrency.
 */
ConcurrencyProfile referenceConcurrency(
    const trace::TraceBundle &bundle, const TimelineSpec &spec,
    sim::SimTime t0, sim::SimTime t1, unsigned num_cpus = 0);

/**
 * Busy bursts of @p spec in stream order (unsorted, inverted bursts
 * dropped): the reference for the planner's sorted burst columns,
 * written independently of the column builder.
 */
std::vector<Interval> collectBursts(const trace::TraceBundle &bundle,
                                    const TimelineSpec &spec);

/**
 * Ready-wait intervals of @p spec in stream order: one
 * [readyTime, timestamp) interval per target switch-in, zero-length
 * waits included, inverted ready times clamped to the timestamp. The
 * reference for the planner's end-sorted wait columns.
 */
std::vector<Interval> collectWaits(const trace::TraceBundle &bundle,
                                   const TimelineSpec &spec);

/** Accumulate @p waits (as collectWaits emits them) over a window. */
WaitFold foldWaits(const std::vector<Interval> &waits, sim::SimTime t0,
                   sim::SimTime t1);

} // namespace detail

} // namespace deskpar::analysis

#endif // DESKPAR_ORACLE_ANALYSIS_LEGACY_HH
