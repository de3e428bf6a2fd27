/**
 * @file
 * The fusing query planner: compile a *batch* of Query values into an
 * execution plan that reads each distinct filter's columns from one
 * source, then answers every row of every query from those columns.
 *
 * A naive batch evaluation (the test oracle's legacy::runQueries)
 * pays one full event sweep per row — a 16-query
 * TLP/busy/csrate/dhist batch over the same application re-reads the
 * same cswitch vector dozens of times.
 * The planner deduplicates the per-row event filters (pid set, tid,
 * cpu mask), records which columns any of a filter's rows need —
 * concurrency timeline, dispatch column, burst columns, wait columns
 * — and takes them from one of three sources:
 *
 *  - shared-store: a filter over a pid set with no tid and no cpu
 *    mask, needing no bursts, reads the index's column store
 *    (TraceIndex::storeColumns). The store builds a key once and
 *    keeps it, so a resident Session pays the sweep on the first
 *    request only;
 *  - partitioned: the rows of a by=thread / by=process group share
 *    one partitioned sweep (detail::sweepPartition) that routes each
 *    switch to its group, instead of one sweep per group;
 *  - plan-local: every other filter (cpu-masked, or needing bursts)
 *    gets one fused buildFilterColumns pass owned by the run.
 *
 * Row evaluation is then binary searches and checkpoint diffs. GPU
 * rows are answered from the index's shared packet columns and need
 * no columns of their own.
 *
 * Both phases fan out with sim::parallelFor, and the results are
 * bit-identical at any DESKPAR_JOBS:
 *  - every task writes only its own result rows, reading immutable
 *    shared columns, so values never depend on scheduling;
 *  - every source builds the columns a separate per-filter pass would
 *    build, bit for bit, so the source never changes a value;
 *  - the floating-point fold of each row is the same operation
 *    sequence the oracle's reference runner performs, via the shared
 *    detail:: fold helpers and the proven timeline/GPU query paths;
 *  - errors are captured per task and the lowest-index one is
 *    rethrown after the join, which is exactly the error the serial
 *    reference would hit first.
 *
 * The out-of-range-cpu warning is emitted at most once per trace
 * (TraceIndex::warnOutOfRangeOnce), not once per query in the batch.
 */

#ifndef DESKPAR_ANALYSIS_QUERY_PLAN_HH
#define DESKPAR_ANALYSIS_QUERY_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "analysis/query.hh"

namespace deskpar::analysis {

class TraceIndex;

/** Explain entry: one distinct filter (= at most one column pass). */
struct QueryPlanPass
{
    /** Human description of the filter ("pids={5,6} cpus=0-3"). */
    std::string filter;
    /** Metric names answered from this filter, first-use order. */
    std::vector<std::string> metrics;
    /** Result rows answered from this filter. */
    std::size_t rows = 0;
    /** Columns the fused pass builds (all false: no pass needed). */
    bool buildsTimeline = false;
    bool buildsDispatches = false;
    bool buildsBursts = false;
    bool buildsWaits = false;
    /**
     * Where the columns come from: "shared-store", "plan-local" or
     * "partitioned:thread" / "partitioned:process"; empty when the
     * filter needs no cswitch columns.
     */
    std::string source;
};

/** What `deskpar query --explain` prints. */
struct QueryPlanExplain
{
    std::size_t queries = 0;
    std::size_t rows = 0;
    std::size_t distinctFilters = 0;
    /**
     * Distinct column sources: one per shared-store or plan-local
     * filter, one per partitioned group-by sweep.
     */
    std::size_t columnPasses = 0;
    std::vector<QueryPlanPass> passes;

    /** Render as the multi-line --explain text. */
    std::string str() const;
};

/**
 * A compiled batch. Compilation resolves name prefixes and expands
 * groups (so it touches the bundle's lazy name index single-threaded)
 * and is cheap — all event work happens in run(). A plan can be run
 * any number of times; @p threads 0 means resolveJobs (DESKPAR_JOBS).
 */
class QueryPlan
{
  public:
    /**
     * Compile @p queries against @p index's bundle. The index must
     * outlive the plan. Fatal on invalid queries (unmatched prefix,
     * empty window, invalid metric/group combination).
     */
    static QueryPlan compile(const TraceIndex &index,
                             const std::vector<Query> &queries);

    /** Execute: one QueryResult per compiled query, in order. */
    std::vector<QueryResult> run(unsigned threads = 0) const;

    const QueryPlanExplain &explain() const { return explain_; }

  private:
    QueryPlan() = default;

    enum class Source : std::uint8_t { None, Store, PlanLocal, Partition };

    /** One distinct row filter and the columns its rows need. */
    struct Filter
    {
        detail::TimelineSpec spec;
        bool needTimeline = false;
        detail::ColumnNeeds needs;
        /** Set when a by=process/by=thread group row uses it. */
        std::optional<detail::PartitionBy> groupBy;
        Source source = Source::None;
        /** Source::Partition: partitions_[partition], key group. */
        std::size_t partition = 0;
        std::size_t group = 0;
    };

    /** One partitioned sweep: the groups of one (kind, cpu mask). */
    struct Partition
    {
        detail::PartitionBy by = detail::PartitionBy::Process;
        detail::CpuMask mask = detail::kAllCpus;
        /** Sorted, unique group keys ((pid, 0) for processes). */
        std::vector<std::pair<trace::Pid, trace::Tid>> keys;
        detail::ColumnNeeds needs;
    };

    /** One unit of phase A: a filter's source or a partition. */
    struct SourceJob
    {
        Source source = Source::None;
        /** Filter index (Store/PlanLocal) or partition index. */
        std::size_t index = 0;
    };

    /**
     * One evaluation unit: fills rows [firstRow, firstRow+rowCount)
     * of results[queryIdx]. rowCount > 1 only for a GpuEngine group,
     * whose five rows share one packet fold (row k = engine k).
     */
    struct Task
    {
        std::size_t queryIdx = 0;
        std::size_t filterIdx = 0;
        std::size_t firstRow = 0;
        std::size_t rowCount = 1;
        QueryMetric metric = QueryMetric::Tlp;
        detail::QueryRowSpec spec;
    };

    const TraceIndex *index_ = nullptr;
    /** Per-query results with rows pre-shaped (values unset). */
    std::vector<QueryResult> skeleton_;
    std::vector<Filter> filters_;
    std::vector<Partition> partitions_;
    std::vector<SourceJob> sourceJobs_;
    std::vector<Task> tasks_;
    QueryPlanExplain explain_;
};

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_QUERY_PLAN_HH
