/**
 * @file
 * The one front door to trace analysis: a Session owns (or borrows)
 * one TraceBundle plus its lazily-built TraceIndex and answers every
 * metric query the toolkit knows.
 *
 * It is the one metric API: every metric is a Session method, and a
 * Session builds its index once, on first query, so every later query
 * of any metric reuses the cached columns. The direct-sweep
 * references that the differential tests prove these methods
 * bit-identical against live in the test-only oracle library
 * (tests/oracle/), not in the product.
 *
 * Lifetime: the borrowing constructor aliases the caller's bundle,
 * which must outlive the Session (the same contract TraceIndex had);
 * the owning constructor moves the bundle in, which is what pipeline
 * code that ingests-then-analyzes wants. Sessions are immovable —
 * the index holds a reference into the bundle storage.
 *
 * Thread safety: same as TraceIndex — concurrent queries are fine,
 * column builds serialize internally.
 */

#ifndef DESKPAR_ANALYSIS_SESSION_HH
#define DESKPAR_ANALYSIS_SESSION_HH

#include <memory>
#include <mutex>
#include <string>

#include "analysis/analyzer.hh"
#include "analysis/blocking.hh"
#include "analysis/power.hh"
#include "analysis/query_plan.hh"
#include "analysis/responsiveness.hh"
#include "analysis/timeseries.hh"
#include "analysis/trace_index.hh"

namespace deskpar::analysis {

class Session
{
  public:
    /** Borrow @p bundle; it must outlive the Session. */
    explicit Session(const TraceBundle &bundle);

    /** Take ownership of @p bundle. */
    explicit Session(TraceBundle &&bundle);

    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** The analyzed bundle. */
    const TraceBundle &bundle() const { return *bundle_; }

    /** The shared index (built on first use). */
    const TraceIndex &index() const;

    /**
     * Install a pre-built index — the warm-reopen path of the index
     * cache (analysis/index_cache.hh), which restores columns from
     * disk and hands the Session an index that borrows this
     * Session's bundle. Fatal if the Session already built its own
     * index. Metrics needing the raw cswitch stream (plan()/query()/
     * bottlenecks()) refuse cache-restored Sessions.
     */
    void adoptIndex(std::unique_ptr<TraceIndex> index) const;

    /**
     * Pids of the application whose process names start with
     * @p prefix; an empty prefix selects every non-idle application
     * process. May be empty (no match) — queries over an empty set
     * mean "system-wide", so check when a specific app was asked for.
     */
    PidSet pids(const std::string &prefix) const;

    /** Fused per-app metrics (concurrency + GPU + frames). */
    AppMetrics app(const PidSet &pids) const;

    /**
     * As above for the processes whose names start with @p prefix;
     * an empty prefix is system-wide (every non-idle process).
     * Fatals when a non-empty @p prefix matches no process.
     */
    AppMetrics app(const std::string &prefix) const;

    /**
     * Windowed concurrency histogram (Equation 1 inputs) over
     * [@p t0, @p t1), one level per logical CPU of the bundle header.
     * An empty @p pids means every non-idle process.
     */
    ConcurrencyProfile concurrency(const PidSet &pids, sim::SimTime t0,
                                   sim::SimTime t1) const;

    /** Whole-bundle window. */
    ConcurrencyProfile concurrency(const PidSet &pids) const;

    /** Windowed GPU utilization. */
    GpuUtilization gpuUtil(const PidSet &pids, sim::SimTime t0,
                           sim::SimTime t1) const;

    /** Whole-bundle window. */
    GpuUtilization gpuUtil(const PidSet &pids) const;

    /** Frame statistics. */
    FrameStats frameStats(const PidSet &pids) const;

    /** Input-to-dispatch latency. */
    Responsiveness responsiveness(const PidSet &pids) const;

    /** Machine-level power estimate. */
    PowerEstimate power(const sim::CpuSpec &cpu,
                        const sim::GpuSpec &gpu) const;

    /**
     * Per-window TLP curve (0 for fully idle windows). Windows of
     * length @p window tile [startTime, stopTime); a zero window is
     * fatal. The other *Series methods tile the same way.
     */
    TimeSeries tlpSeries(const PidSet &pids,
                         sim::SimDuration window) const;

    /** Per-window average concurrency (Figures 5-7). */
    TimeSeries concurrencySeries(const PidSet &pids,
                                 sim::SimDuration window) const;

    /** Per-window GPU utilization percent. */
    TimeSeries gpuUtilSeries(const PidSet &pids,
                             sim::SimDuration window) const;

    /** Per-window presented FPS. */
    TimeSeries frameRateSeries(const PidSet &pids,
                               sim::SimDuration window) const;

    /**
     * Compile a query batch into a fused plan (query_plan.hh): each
     * distinct filter reads its columns from one source — the
     * index's shared column store, one partitioned pass per group-by,
     * or one plan-local pass — instead of one sweep per row. The plan
     * borrows the Session's index and can be inspected (explain())
     * and run repeatedly.
     */
    QueryPlan plan(const std::vector<Query> &queries) const;

    /**
     * Compile and run a query batch; results are bit-identical to the
     * oracle's row-by-row reference at any thread count (@p threads 0
     * means DESKPAR_JOBS / hardware concurrency).
     */
    std::vector<QueryResult> query(const std::vector<Query> &queries,
                                   unsigned threads = 0) const;

    /**
     * Wakeup-chain serialization-bottleneck report (blocking.hh):
     * ready-queue waits, wakeup-edge culprits, and the critical
     * path, identical at any thread count.
     */
    blocking::BlockingReport bottlenecks(const PidSet &pids,
                                         unsigned threads = 0) const;

  private:
    /** Set iff constructed by move (bundle_ points into it). */
    std::unique_ptr<TraceBundle> owned_;
    const TraceBundle *bundle_;

    mutable std::once_flag indexOnce_;
    mutable std::unique_ptr<TraceIndex> index_;
};

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_SESSION_HH
