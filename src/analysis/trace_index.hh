/**
 * @file
 * Columnar trace index: one structure-of-arrays view of a TraceBundle
 * that every metric queries instead of re-sweeping the event vectors.
 *
 * A direct analysis performs its own full linear scan, once per pid
 * set and once per time window, so the timeline figures would pay
 * O(windows x events) and the Table II suite re-read the same cswitch
 * stream several times per iteration. The index is built once per
 * (bundle, pid set) and answers windowed queries with two binary
 * searches plus prefix-sum differences:
 *
 *  - Concurrency: the cswitch stream is compressed into a sorted
 *    breakpoint column (times[], levels[]), levels[i] holding the
 *    number of busy target CPUs on [times[i], times[i+1)). Strided
 *    checkpoint rows carry per-level prefix sums of busy time, so a
 *    windowed histogram costs two binary searches, two checkpoint
 *    diffs, and at most one stride of edge segments per side.
 *  - GPU: a start-time column plus a running-max finish column bound
 *    the packets that can intersect a window; the candidates are then
 *    folded with the exact full-scan loop, in stream order, so the
 *    floating-point sums are bit-identical.
 *  - Frames / responsiveness / power columns are built in the same
 *    fused sweeps and cached per pid set.
 *
 * Every query is bit-identical to the direct single-sweep references
 * of the test-only oracle library (tests/oracle/analysis_legacy.hh),
 * which the differential tests run against it: the integer
 * time-at-level decomposition is exact, and floating-point folds
 * reuse the sweeps' operation order. A disordered stream whose
 * timeline would go negative is the one trace the checkpoints cannot
 * represent; its concurrency queries take the direct sweep, panics
 * and all (detail::windowedConcurrency).
 *
 * Thread safety: each column family is built at most once, under its
 * own build lock — per pid set for the cswitch and frame columns, per
 * index for the GPU and per-CPU busy columns — so builds of different
 * keys run concurrently, and a reader of an already-built family
 * takes one atomic load and never waits for a build. The index
 * borrows the bundle — the caller keeps the bundle alive and
 * unmodified for the index's lifetime.
 */

#ifndef DESKPAR_ANALYSIS_TRACE_INDEX_HH
#define DESKPAR_ANALYSIS_TRACE_INDEX_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "analysis/framerate.hh"
#include "analysis/gpu_util.hh"
#include "analysis/power.hh"
#include "analysis/responsiveness.hh"
#include "analysis/tlp.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

class TraceIndex
{
  public:
    /** Borrow @p bundle; columns are built lazily on first query. */
    explicit TraceIndex(const TraceBundle &bundle);
    ~TraceIndex();

    TraceIndex(const TraceIndex &) = delete;
    TraceIndex &operator=(const TraceIndex &) = delete;

    /** The indexed bundle. */
    const TraceBundle &bundle() const { return bundle_; }

    /**
     * Concurrency histogram over [@p t0, @p t1) with the header's CPU
     * count as the level ceiling; fatal on an empty window or a
     * bundle without a CPU count (detail::windowedConcurrency).
     */
    ConcurrencyProfile concurrency(const PidSet &pids, sim::SimTime t0,
                                   sim::SimTime t1) const;

    /** Whole-bundle window. */
    ConcurrencyProfile concurrency(const PidSet &pids) const;

    /** GPU utilization over [@p t0, @p t1); fatal on an empty window. */
    GpuUtilization gpuUtil(const PidSet &pids, sim::SimTime t0,
                           sim::SimTime t1) const;

    /** Whole-bundle window. */
    GpuUtilization gpuUtil(const PidSet &pids) const;

    /** Frame statistics (detail::sweepFrameStats, cached per pid set). */
    FrameStats frameStats(const PidSet &pids) const;

    /**
     * Input-to-dispatch latency, from the cached sorted dispatch
     * column of the pid set.
     */
    Responsiveness responsiveness(const PidSet &pids) const;

    /**
     * Machine-level power estimate, from the cached per-CPU busy
     * intervals and the GPU columns.
     */
    PowerEstimate power(const sim::CpuSpec &cpu,
                        const sim::GpuSpec &gpu) const;

    /**
     * Eagerly build every column the fused Session::app sweep needs
     * for @p pids (useful before sharing the index across threads).
     */
    void warm(const PidSet &pids) const;

    /**
     * Emit the out-of-range-cpu warning for @p count excluded events
     * at most once over this index's lifetime (any thread). Queries
     * against one trace used to repeat the warning once per window /
     * per batch entry; the count is still reported per profile via
     * ConcurrencyProfile::outOfRangeCpuEvents. No-op when @p count or
     * @p num_cpus is zero. Used by the index's own column builds and
     * by the fused query planner (query_plan.hh).
     */
    void warnOutOfRangeOnce(std::uint64_t count,
                            unsigned num_cpus) const;

    /**
     * Serialize every built column family — GPU and per-CPU-busy
     * columns (built here if missing), plus each cached pid set's
     * concurrency checkpoints, dispatch column, wait intervals and
     * frame statistics — into a portable byte blob for the on-disk
     * index cache (analysis/index_cache.hh). Returns an empty string
     * when any built timeline is unusable (disordered stream): such
     * an index answers concurrency queries with the direct sweep,
     * which a warm reopen cannot reproduce, so it is not cacheable.
     */
    std::string serializeColumns() const;

    /**
     * Populate a freshly constructed index from a serializeColumns()
     * blob instead of sweeping the bundle. Only legal before any
     * column build (fatal otherwise). Returns false with @p error set
     * when the blob is malformed; the index is left empty and usable
     * for a normal cold build; a blob whose columns do not fit
     * together (a timeline for another CPU count, a level column of
     * another length than its times, checkpoint rows of the wrong
     * shape) is malformed. On success the index is marked restored():
     * queries against pid sets absent from the blob fail loudly
     * instead of silently recomputing from a bundle whose cswitch
     * stream the cache intentionally omits.
     */
    bool adoptColumns(std::string_view data, std::string *error);

    /** True when the columns came from adoptColumns(). */
    bool restored() const { return restored_; }

    /** True when the cswitch columns of @p pids are already built. */
    bool hasCswitchColumns(const PidSet &pids) const;

    /**
     * The shared column store: the cswitch columns of @p pids under
     * the default filter (no tid, all cpus) — concurrency timeline,
     * sorted dispatches and end-sorted ready waits (no bursts). Built
     * at most once per pid set; @p built (optional) reports whether
     * this call performed the build. Emits no out-of-range warning
     * (callers fold the count through warnOutOfRangeOnce in their own
     * order). Fatal on a restored index that lacks the pid set.
     */
    const detail::FilterColumns &storeColumns(const PidSet &pids,
                                              bool *built = nullptr) const;

    /**
     * Heap bytes of every column built so far (cswitch, frame, GPU
     * and per-CPU busy columns), for the resident-cache budget. Safe
     * to call while other threads build or query.
     */
    std::uint64_t columnBytes() const;

    /**
     * Column layouts; defined in trace_index.cc (opaque to callers,
     * named here so the build/query helpers can take them).
     */
    struct PidColumns;
    struct GpuColumns;
    struct CpuBusyColumns;

  private:
    PidColumns &pidColumns(const PidSet &pids) const;
    /** Build @p cols' cswitch family unless built (per-key once). */
    const PidColumns &ensureCswitch(PidColumns &cols, bool *built) const;
    /** storeColumns plus the once-per-trace out-of-range warning. */
    const PidColumns &cswitchColumns(const PidSet &pids) const;
    const GpuColumns &gpuColumns() const;
    const CpuBusyColumns &cpuBusyColumns() const;

    const TraceBundle &bundle_;

    /** One warning per indexed trace (warnOutOfRangeOnce). */
    mutable std::atomic<bool> warnedOutOfRange_{false};

    /** Columns restored from a cache blob (adoptColumns). */
    mutable bool restored_ = false;

    /**
     * Guards the perPid_ map structure only (find / insert), never a
     * build: a slot's columns are guarded by the slot's own build
     * locks and published through its built flags.
     */
    mutable std::shared_mutex mapMutex_;
    /** Per-pid-set columns, keyed by the sorted pid list. */
    mutable std::map<std::vector<trace::Pid>,
                     std::unique_ptr<PidColumns>>
        perPid_;

    /** Build lock + published flag of gpu_ and cpuBusy_. */
    mutable std::mutex gpuMutex_;
    mutable std::atomic<bool> gpuBuilt_{false};
    mutable std::unique_ptr<GpuColumns> gpu_;
    mutable std::mutex cpuBusyMutex_;
    mutable std::atomic<bool> cpuBusyBuilt_{false};
    mutable std::unique_ptr<CpuBusyColumns> cpuBusy_;
};

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_TRACE_INDEX_HH
