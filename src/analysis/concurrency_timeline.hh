/**
 * @file
 * The shared concurrency-timeline machinery behind TraceIndex and the
 * fused query planner (analysis/query_plan.hh).
 *
 * PR 3 introduced the compressed breakpoint timeline inside
 * trace_index.cc; the query layer needs the same structure for
 * arbitrary filters (pid set, single thread, cpu mask), so the build
 * and query algorithms live here, parameterized by a TimelineSpec.
 * With the default spec (no tid, all cpus) the builder reproduces the
 * original TraceIndex sweep event for event, which is what keeps the
 * index-backed queries bit-identical to the direct-sweep references
 * of the test oracle (tests/oracle/analysis_legacy.hh).
 *
 * The builder can additionally collect, in the same single pass:
 *  - the sorted switch-in (dispatch) column, used by responsiveness
 *    and by the context-switch-rate metric,
 *  - per-CPU busy-burst intervals (one contiguous run of target work
 *    on one CPU), used by the duration-histogram metric, and
 *  - per-dispatch ready-wait intervals ([readyTime, timestamp)),
 *    used by the ready-wait metrics (waitfrac/readylat/topblocked).
 *
 * A partitioned pass (sweepPartition) builds the same columns for
 * every process or thread of a group-by at once: one sweep routes
 * each switch to its group, instead of one sweep per group.
 */

#ifndef DESKPAR_ANALYSIS_CONCURRENCY_TIMELINE_HH
#define DESKPAR_ANALYSIS_CONCURRENCY_TIMELINE_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/intervals.hh"
#include "analysis/tlp.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis::detail {

/**
 * CPU selection mask for a query filter. Bit i selects logical CPU i;
 * kAllCpus (the default) disables masking entirely. CPUs with id >=
 * 64 can only be selected by kAllCpus — no real desktop trace in the
 * paper's corpus exceeds that, and the mask stays one word.
 */
using CpuMask = std::uint64_t;
inline constexpr CpuMask kAllCpus = ~static_cast<CpuMask>(0);

inline bool
cpuInMask(CpuMask mask, trace::CpuId cpu)
{
    if (mask == kAllCpus)
        return true;
    return cpu < 64 && ((mask >> cpu) & 1u) != 0;
}

/**
 * What counts as "target work" for one timeline: a pid set (empty =
 * every non-idle process), optionally narrowed to one thread and/or a
 * cpu mask. Events on masked-out CPUs are invisible to the sweep —
 * they produce no dispatches, no occupancy deltas, and no
 * out-of-range accounting.
 */
struct TimelineSpec
{
    trace::PidSet pids;
    bool hasTid = false;
    trace::Tid tid = 0;
    CpuMask cpuMask = kAllCpus;
};

/** The spec's switch-in predicate (pid 0 is the idle process). */
inline bool
isTargetSwitch(const TimelineSpec &spec, trace::Pid pid, trace::Tid tid)
{
    if (pid == 0)
        return false;
    if (!spec.pids.empty() && spec.pids.count(pid) == 0)
        return false;
    return !spec.hasTid || tid == spec.tid;
}

/**
 * The concurrency level of one filter as a piecewise-constant
 * function of time, compressed to its breakpoints.
 *
 * levels[i] is the number of CPUs running target threads on
 * [times[i], times[i+1)); the level is 0 before times[0] and
 * levels.back() extends past the last breakpoint. Zero-net groups of
 * equal-timestamp deltas are dropped, so consecutive levels differ.
 *
 * cum holds strided checkpoint rows of kStride segments, each row
 * width entries wide: cum[k*width + l] is the (integer) time spent at
 * clamped level l over [times[0], times[k*kStride]). width is the
 * highest clamped level the timeline reaches plus one, so the rows
 * cost what the trace uses, not what its header CPU count (cutoff)
 * allows. A windowed query therefore costs two binary searches, one
 * checkpoint-row difference, and at most kStride edge segments per
 * side.
 *
 * usable is false when the stream cannot be represented faithfully:
 * the header reports zero CPUs, or disorder produced a negative
 * cumulative level (whether the direct sweep panics on such a trace
 * depends on the queried window, so those queries take the sweep
 * path verbatim).
 */
struct ConcurrencyTimeline
{
    static constexpr std::size_t kStride = 32;

    bool usable = false;
    unsigned cutoff = 0;
    std::uint64_t outOfRangeCpuEvents = 0;
    std::vector<sim::SimTime> times;
    std::vector<int> levels;
    std::size_t width = 0;
    std::vector<sim::SimDuration> cum;
};

/** Checkpoint rows of a timeline with @p breakpoints breakpoints. */
inline std::size_t
checkpointRows(std::size_t breakpoints)
{
    return breakpoints == 0
               ? 0
               : (breakpoints - 1) / ConcurrencyTimeline::kStride + 1;
}

/**
 * Checkpoint row width of a level column under ceiling @p cutoff:
 * the highest clamped level plus one (0 for no breakpoints).
 */
std::size_t checkpointWidth(const std::vector<int> &levels,
                            unsigned cutoff);

/**
 * Per-CPU busy bursts of one filter: each interval is one contiguous
 * run of target work on a single CPU (open bursts close at the
 * bundle's stopTime). Sorted by begin; maxEnd[i] is the running
 * maximum of bursts[0..i].end, so the bursts that can intersect a
 * window are a binary-searchable candidate range, exactly like the
 * GPU packet columns.
 */
struct BurstColumns
{
    std::vector<Interval> bursts;
    std::vector<sim::SimTime> maxEnd;
};

/**
 * Ready-wait columns of one filter: one [readyTime, timestamp) wait
 * interval per target switch-in, zero-length waits kept (the latency
 * mean counts every dispatch), sorted by end (the dispatch time).
 * minBegin[i] is the suffix minimum of begin[i..), so a windowed
 * fold stops scanning as soon as no remaining interval can reach
 * back into the window — the mirror image of BurstColumns::maxEnd,
 * because waits sort naturally by their *end*.
 */
struct WaitColumns
{
    std::vector<sim::SimTime> begin;
    std::vector<sim::SimTime> end;
    std::vector<sim::SimTime> minBegin;
};

/** The optional column families a pass collects besides the timeline. */
struct ColumnNeeds
{
    bool dispatches = false;
    bool bursts = false;
    bool waits = false;
};

/** Every cswitch-derived column family of one filter. */
struct FilterColumns
{
    ConcurrencyTimeline timeline;
    /** Sorted switch-in (dispatch) times of target threads. */
    std::vector<sim::SimTime> dispatches;
    BurstColumns bursts;
    WaitColumns waits;

    /** Heap bytes the columns hold (capacity, not size). */
    std::uint64_t bytes() const;
};

/**
 * One fused pass over the cswitch stream: build the compressed
 * timeline for @p spec plus the families @p needs asks for. With a
 * default-constructed filter (beyond the pid set) this is the
 * original TraceIndex sweep, preserved operation for operation.
 */
FilterColumns buildFilterColumns(const trace::TraceBundle &bundle,
                                 const TimelineSpec &spec,
                                 const ColumnNeeds &needs);

/**
 * One group's output of a cswitch sweep before finishColumns: the
 * dispatch/wait/burst columns and the raw (timestamp, +1/-1)
 * occupancy deltas, all in stream order.
 */
struct PendingColumns
{
    FilterColumns columns;
    std::vector<std::pair<sim::SimTime, int>> deltas;
    /** False when the swept stream was out of timestamp order. */
    bool sorted = true;
};

/**
 * A direct-mapped memo in front of a per-switch-target lookup: a trace
 * switches among few threads many times, so nearly every get() is a
 * table hit and only a miss runs @p lookup. @p pid must not be 0 (a
 * zero key marks a free slot).
 */
class TargetMemo
{
  public:
    template <typename Lookup>
    std::uint32_t
    get(trace::Pid pid, trace::Tid tid, Lookup lookup)
    {
        std::uint64_t key =
            (static_cast<std::uint64_t>(pid) << 32) | tid;
        Slot &slot = slots_[(key * 0x9E3779B97F4A7C15ull) >> 56];
        if (slot.key != key) {
            slot.key = key;
            slot.value = lookup();
        }
        return slot.value;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t value = 0;
    };
    std::array<Slot, 256> slots_{};
};

/** How a partitioned pass assigns a switch-in to a group. */
enum class PartitionBy : std::uint8_t { Process, Thread };

/**
 * One cswitch sweep for a set of disjoint groups — one group per
 * process (@p keys hold pids, tids ignored) or per thread (@p keys
 * hold (pid, tid)) — under cpu mask @p mask. @p keys must be sorted
 * and unique. A per-CPU "current group" replaces the per-filter busy
 * flags: when a CPU switches from group a to group b, a receives -1
 * and b +1 at that timestamp, and the same transition closes a's
 * burst and opens b's. Each group's lists therefore hold exactly the
 * stream-order emission of a separate buildFilterColumns pass over
 * the group's spec ({pid}, optional tid, @p mask), so after
 * finishColumns every group's columns are bit-identical to it.
 * Returns one PendingColumns per key, in key order.
 */
std::vector<PendingColumns> sweepPartition(
    const trace::TraceBundle &bundle, PartitionBy by,
    const std::vector<std::pair<trace::Pid, trace::Tid>> &keys,
    CpuMask mask, const ColumnNeeds &needs);

/**
 * Sort the dispatch, wait and burst columns of @p pending, compress
 * its deltas into the timeline (stable-sorting them first when the
 * stream was out of order) and add the checkpoint rows. Independent
 * per group, so the groups of one partitioned sweep can finish on
 * different threads.
 */
void finishColumns(const ColumnNeeds &needs, PendingColumns &pending);

/**
 * Windowed histogram from a usable timeline. Bit-identical to the
 * direct sweep: the time-at-level decomposition is the same integer
 * sum split differently, and the single divide-by-window per level is
 * the only floating-point operation.
 */
ConcurrencyProfile queryConcurrencyTimeline(
    const ConcurrencyTimeline &timeline, sim::SimTime t0,
    sim::SimTime t1);

/**
 * The direct single-sweep concurrency histogram of @p spec over
 * [@p t0, @p t1) with @p num_cpus levels (nonzero; the window must be
 * non-empty). Panics on a negative level, which only a disordered
 * stream produces. Emits no out-of-range-cpu warning; the count is
 * in ConcurrencyProfile::outOfRangeCpuEvents.
 */
ConcurrencyProfile sweepConcurrency(const trace::TraceBundle &bundle,
                                    const TimelineSpec &spec,
                                    sim::SimTime t0, sim::SimTime t1,
                                    unsigned num_cpus);

/**
 * The one windowed concurrency evaluation, behind
 * TraceIndex::concurrency and the query planner's TLP and busy rows:
 * fatal when @p bundle has no CPU count or the window is empty; then
 * @p timeline (the columns of @p spec) answers when it is usable,
 * and otherwise — a disordered stream poisoned it — the direct sweep
 * of @p spec does, panics and all.
 */
ConcurrencyProfile windowedConcurrency(
    const trace::TraceBundle &bundle, const TimelineSpec &spec,
    const ConcurrencyTimeline &timeline, sim::SimTime t0,
    sim::SimTime t1);

} // namespace deskpar::analysis::detail

#endif // DESKPAR_ANALYSIS_CONCURRENCY_TIMELINE_HH
