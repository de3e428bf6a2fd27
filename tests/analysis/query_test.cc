/**
 * @file
 * Differential tests for the query layer: every fused batch
 * (Session::query / QueryPlan) must be bit-identical to the
 * straight-line reference (legacy::runQueries) — on randomized
 * bundles, disordered streams, out-of-range-cpu bundles and
 * fault-corpus survivors, at 1, 2 and 7 worker threads. Double
 * comparisons deliberately use EXPECT_EQ: "close" is not the
 * contract, equality is. Also covers the fusion counts the planner
 * reports, the once-per-trace out-of-range warning, the spec syntax
 * round-trip, and the canned queries' equivalence to the existing
 * Session entry points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "analysis/query.hh"
#include "analysis/query_plan.hh"
#include "analysis/session.hh"
#include "analysis/timeseries.hh"
#include "analysis/tlp.hh"
#include "oracle/analysis_legacy.hh"
#include "oracle/corrupt.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "trace/diagnostic.hh"
#include "trace/etl.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;
using trace::CSwitchEvent;
using trace::FrameEvent;
using trace::GpuPacketEvent;
using trace::MarkerEvent;
using trace::Pid;
using trace::TraceBundle;

/** Deterministic LCG so failures reproduce across runs and machines. */
struct Rng
{
    std::uint64_t state;

    explicit Rng(std::uint64_t seed) : state(seed * 2654435761ull + 1) {}

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    }

    std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }
};

constexpr sim::SimTime kTraceLen = 10'000'000; // 10 simulated ms

struct BundleSpec
{
    unsigned cpus = 8;
    std::size_t cswitches = 300;
    std::size_t gpuPackets = 60;
    std::size_t frames = 40;
    std::size_t markers = 16;
    bool shuffleCswitches = false;
    bool outOfRangeCpus = false;
};

template <typename Event>
void
shuffleEvents(std::vector<Event> &events, Rng &rng)
{
    for (std::size_t i = events.size(); i > 1; --i)
        std::swap(events[i - 1], events[rng.below(i)]);
}

/**
 * A random but structurally plausible bundle: the same generator
 * shape as the trace-index differential tests, so the two suites
 * exercise the same hostile inputs.
 */
TraceBundle
randomBundle(std::uint64_t seed, const BundleSpec &spec = {})
{
    Rng rng(seed);
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = kTraceLen;
    bundle.numLogicalCpus = spec.cpus;
    bundle.processNames = {{5, "handbrake"},
                           {6, "handbrake_worker"},
                           {7, "chrome"},
                           {9, "system"}};
    static const Pid kPids[] = {0, 5, 5, 6, 7, 9};

    sim::SimTime t = 0;
    for (std::size_t i = 0; i < spec.cswitches; ++i) {
        t += rng.below(2 * kTraceLen / spec.cswitches);
        CSwitchEvent e;
        e.timestamp = t;
        e.cpu = spec.outOfRangeCpus && rng.below(8) == 0
                    ? spec.cpus + static_cast<unsigned>(rng.below(3))
                    : static_cast<unsigned>(rng.below(spec.cpus));
        e.oldPid = kPids[rng.below(6)];
        e.oldTid = e.oldPid * 10;
        e.newPid = kPids[rng.below(6)];
        e.newTid = e.newPid ? e.newPid * 10 + rng.below(3) : 0;
        e.readyTime = t > 1000 ? t - rng.below(1000) : t;
        bundle.cswitches.push_back(e);
    }
    if (spec.shuffleCswitches)
        shuffleEvents(bundle.cswitches, rng);

    sim::SimTime g = 0;
    for (std::size_t i = 0; i < spec.gpuPackets; ++i) {
        g += rng.below(2 * kTraceLen / spec.gpuPackets);
        GpuPacketEvent p;
        p.queued = g;
        p.start = g;
        p.finish = g + 1 + rng.below(300'000);
        p.pid = kPids[rng.below(6)];
        p.engine = static_cast<trace::GpuEngineId>(rng.below(5));
        p.packetId = static_cast<std::uint32_t>(i);
        p.queueSlot = static_cast<std::uint8_t>(rng.below(2));
        bundle.gpuPackets.push_back(p);
    }

    sim::SimTime f = 0;
    for (std::size_t i = 0; i < spec.frames; ++i) {
        f += rng.below(2 * kTraceLen / spec.frames);
        FrameEvent fe;
        fe.timestamp = f;
        fe.pid = rng.below(2) ? 5 : 7;
        fe.frameId = static_cast<std::uint32_t>(i);
        fe.synthesized = rng.below(5) == 0;
        bundle.frames.push_back(fe);
    }

    sim::SimTime m = 0;
    for (std::size_t i = 0; i < spec.markers; ++i) {
        m += rng.below(kTraceLen / spec.markers);
        MarkerEvent me;
        me.timestamp = m;
        me.label = rng.below(3) == 0 ? "phase:steady" : "input:mouse";
        bundle.markers.push_back(me);
    }
    return bundle;
}

/** Pid sets the randomized batches draw filters from. */
const std::vector<trace::PidSet> &
pidSets()
{
    static const std::vector<trace::PidSet> kSets = {
        {}, {5}, {5, 6}, {7}, {42}};
    return kSets;
}

std::pair<sim::SimTime, sim::SimTime>
randomWindow(Rng &rng, const TraceBundle &bundle)
{
    sim::SimTime span = bundle.stopTime + kTraceLen / 4;
    sim::SimTime a = rng.below(span);
    sim::SimTime b = rng.below(span);
    if (a == b)
        ++b;
    return {std::min(a, b), std::max(a, b)};
}

/** A random valid query (no fatal metric/group combinations). */
Query
randomQuery(Rng &rng, const TraceBundle &bundle)
{
    Query q;
    q.metric = static_cast<QueryMetric>(rng.below(8));
    q.filter.pids = pidSets()[rng.below(pidSets().size())];
    if (rng.below(2)) {
        auto [a, b] = randomWindow(rng, bundle);
        q.filter.t0 = a;
        q.filter.t1 = b;
    }
    if (rng.below(4) == 0)
        q.filter.cpuMask = rng.below(255) + 1;
    switch (rng.below(6)) {
      case 1:
        q.groupBy = QueryGroupBy::Process;
        break;
      case 2:
        q.groupBy = q.metric == QueryMetric::GpuOccupancy
                        ? QueryGroupBy::GpuEngine
                        : QueryGroupBy::Thread;
        break;
      case 3:
        q.groupBy = QueryGroupBy::Phase;
        break;
      case 4:
        q.groupBy = QueryGroupBy::TimeBucket;
        q.bucket = kTraceLen / (1 + rng.below(24));
        break;
      default:
        q.groupBy = QueryGroupBy::None;
        break;
    }
    return q;
}

void
expectResultsEqual(const std::vector<QueryResult> &got,
                   const std::vector<QueryResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < got.size(); ++q) {
        EXPECT_EQ(got[q].query.label, want[q].query.label);
        ASSERT_EQ(got[q].rows.size(), want[q].rows.size())
            << "query " << q << " (" << want[q].query.label << ")";
        for (std::size_t r = 0; r < got[q].rows.size(); ++r) {
            const QueryRow &a = got[q].rows[r];
            const QueryRow &b = want[q].rows[r];
            SCOPED_TRACE("query " + want[q].query.label + " row " +
                         std::to_string(r));
            EXPECT_EQ(a.key, b.key);
            EXPECT_EQ(a.t0, b.t0);
            EXPECT_EQ(a.t1, b.t1);
            EXPECT_EQ(a.pid, b.pid);
            EXPECT_EQ(a.tid, b.tid);
            EXPECT_EQ(a.value, b.value);
            EXPECT_EQ(a.histogram, b.histogram);
        }
    }
}

/** Exact hexfloat dump, so "same value or same failure" is a string. */
std::string
fingerprintResults(const std::vector<QueryResult> &results)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (const QueryResult &result : results) {
        os << result.query.label << '\n';
        for (const QueryRow &row : result.rows) {
            os << row.key << ',' << row.t0 << ',' << row.t1 << ','
               << row.pid << ',' << row.tid << ',' << row.value;
            for (std::uint64_t h : row.histogram)
                os << ',' << h;
            os << '\n';
        }
    }
    return os.str();
}

template <typename Fn>
std::string
outcome(Fn &&fn)
{
    try {
        return fn();
    } catch (const PanicError &e) {
        return std::string("panic: ") + e.what();
    } catch (const FatalError &e) {
        return std::string("fatal: ") + e.what();
    }
}

TEST(QueryDiff, RandomBatchesMatchReferenceAtEveryThreadCount)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        TraceBundle bundle = randomBundle(seed);
        Rng rng(seed ^ 0x5EED);
        std::vector<Query> batch;
        for (int i = 0; i < 12; ++i)
            batch.push_back(randomQuery(rng, bundle));

        std::vector<QueryResult> reference =
            legacy::runQueries(bundle, batch);
        Session session(bundle);
        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            expectResultsEqual(session.query(batch, threads),
                               reference);
        }
    }
}

/**
 * Disordered streams may legitimately panic ("negative concurrency")
 * depending on the query window; the fused plan must produce the
 * same value — or the same first failure — as the serial reference,
 * at any thread count.
 */
TEST(QueryDiff, DisorderedStreamsFailIdentically)
{
    BundleSpec spec;
    spec.shuffleCswitches = true;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TraceBundle bundle = randomBundle(seed, spec);
        Rng rng(seed + 23);
        std::vector<Query> batch;
        for (int i = 0; i < 10; ++i)
            batch.push_back(randomQuery(rng, bundle));

        std::string want = outcome([&] {
            return fingerprintResults(
                legacy::runQueries(bundle, batch));
        });
        Session session(bundle);
        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            EXPECT_EQ(outcome([&] {
                          return fingerprintResults(
                              session.query(batch, threads));
                      }),
                      want);
        }
    }
}

TEST(QueryDiff, OutOfRangeCpuBundlesMatchReference)
{
    // Swallow the expected warnings so ctest output stays clean.
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    BundleSpec spec;
    spec.outOfRangeCpus = true;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        TraceBundle bundle = randomBundle(seed, spec);
        Rng rng(seed + 41);
        std::vector<Query> batch;
        for (int i = 0; i < 10; ++i)
            batch.push_back(randomQuery(rng, bundle));

        std::vector<QueryResult> reference =
            legacy::runQueries(bundle, batch);
        Session session(bundle);
        for (unsigned threads : {1u, 2u, 7u})
            expectResultsEqual(session.query(batch, threads),
                               reference);
    }
}

/**
 * The out-of-range-cpu warning is per *trace*, not per query: a whole
 * fused batch emits exactly one, re-running the batch on the same
 * Session emits none, a fresh Session (fresh TraceIndex) emits one
 * more — while the pre-fusion reference still spams one per sweep.
 */
TEST(QueryWarn, OutOfRangeCpuWarnedOncePerTrace)
{
    BundleSpec spec;
    spec.outOfRangeCpus = true;
    TraceBundle bundle = randomBundle(11, spec);

    std::vector<Query> batch;
    for (const auto &pids :
         {trace::PidSet{}, trace::PidSet{5}, trace::PidSet{5, 6}}) {
        batch.push_back(tlpQuery(pids));
        Query busy;
        busy.metric = QueryMetric::BusyFraction;
        busy.filter.pids = pids;
        batch.push_back(busy);
    }

    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    Session session(bundle);
    session.query(batch, 2);
    EXPECT_EQ(sink.count(trace::Severity::Warning), 1u);
    session.query(batch, 2); // same trace: already warned
    EXPECT_EQ(sink.count(trace::Severity::Warning), 1u);

    Session fresh(bundle);
    fresh.query(batch, 2);
    EXPECT_EQ(sink.count(trace::Severity::Warning), 2u);

    std::size_t before = sink.count(trace::Severity::Warning);
    legacy::runQueries(bundle, batch);
    EXPECT_GT(sink.count(trace::Severity::Warning), before + 1);
}

/**
 * The dedup flag behind emitDiagnosticOnce lives in the TraceIndex,
 * not in process-global state: a second trace analyzed in the same
 * process must warn again, and neither trace's re-queries may.
 */
TEST(QueryWarn, DedupStateDoesNotLeakAcrossTracesInOneProcess)
{
    BundleSpec spec;
    spec.outOfRangeCpus = true;
    TraceBundle first = randomBundle(13, spec);
    TraceBundle second = randomBundle(17, spec);

    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    Session a(first);
    a.query({tlpQuery({})}, 2);
    EXPECT_EQ(sink.count(trace::Severity::Warning), 1u);
    Session b(second);
    b.query({tlpQuery({})}, 2);
    EXPECT_EQ(sink.count(trace::Severity::Warning), 2u);
    a.query({tlpQuery({})}, 2);
    b.query({tlpQuery({})}, 2);
    EXPECT_EQ(sink.count(trace::Severity::Warning), 2u);
}

TEST(QueryPlanTest, FusesSharedFiltersIntoOnePass)
{
    TraceBundle bundle = randomBundle(2);
    Session session(bundle);

    std::vector<Query> batch;
    batch.push_back(tlpQuery({5}));
    Query busy;
    busy.metric = QueryMetric::BusyFraction;
    busy.filter.pids = {5};
    batch.push_back(busy);
    Query csrate;
    csrate.metric = QueryMetric::ContextSwitchRate;
    csrate.filter.pids = {5};
    batch.push_back(csrate);
    Query dhist;
    dhist.metric = QueryMetric::DurationHistogram;
    dhist.filter.pids = {5};
    batch.push_back(dhist);
    batch.push_back(tlpSeriesQuery({5}, sim::msec(1.0)));
    batch.push_back(tlpQuery({}));
    Query gpu;
    gpu.metric = QueryMetric::GpuOccupancy;
    gpu.filter.pids = {5};
    batch.push_back(gpu);
    gpu.groupBy = QueryGroupBy::GpuEngine;
    batch.push_back(gpu);

    QueryPlan plan = session.plan(batch);
    const QueryPlanExplain &explain = plan.explain();
    EXPECT_EQ(explain.queries, batch.size());
    // Eight queries collapse onto two distinct filters ({5} and
    // system-wide); the GPU queries ride the shared packet columns.
    EXPECT_EQ(explain.distinctFilters, 2u);
    EXPECT_EQ(explain.columnPasses, 2u);
    ASSERT_EQ(explain.passes.size(), 2u);
    EXPECT_TRUE(explain.passes[0].buildsTimeline);
    EXPECT_TRUE(explain.passes[0].buildsDispatches);
    EXPECT_TRUE(explain.passes[0].buildsBursts);
    // Bursts are not in the shared store, so {5} gets a plan-local
    // pass; the system-wide filter reads the store.
    EXPECT_EQ(explain.passes[0].source, "plan-local");
    EXPECT_EQ(explain.passes[1].source, "shared-store");
    EXPECT_FALSE(explain.str().empty());

    std::vector<QueryResult> first = plan.run(2);
    std::size_t rows = 0;
    for (const QueryResult &result : first)
        rows += result.rows.size();
    EXPECT_EQ(explain.rows, rows);
    std::size_t passRows = 0;
    for (const QueryPlanPass &pass : explain.passes)
        passRows += pass.rows;
    EXPECT_EQ(passRows, rows);

    // A compiled plan is reusable and deterministic run over run.
    expectResultsEqual(plan.run(2), first);
    expectResultsEqual(session.query(batch, 2), first);

    EXPECT_TRUE(session.query({}).empty());
}

/** Every cswitch metric (everything but gpu). */
const std::vector<QueryMetric> &
cswitchMetrics()
{
    static const std::vector<QueryMetric> kMetrics = {
        QueryMetric::Tlp,          QueryMetric::BusyFraction,
        QueryMetric::ContextSwitchRate,
        QueryMetric::DurationHistogram,
        QueryMetric::WaitFraction, QueryMetric::ReadyLatency,
        QueryMetric::TopBlocked};
    return kMetrics;
}

/** A random batch that leans on the shared store's filter shape. */
std::vector<Query>
storeBatch(Rng &rng, const TraceBundle &bundle)
{
    std::vector<Query> batch;
    for (int i = 0; i < 10; ++i) {
        Query q = randomQuery(rng, bundle);
        // Half the queries take the store's shape: no cpu mask, no
        // group-by, a non-burst metric.
        if (rng.below(2)) {
            q.filter.cpuMask = detail::kAllCpus;
            q.groupBy = QueryGroupBy::None;
            if (q.metric == QueryMetric::DurationHistogram)
                q.metric = QueryMetric::Tlp;
        }
        batch.push_back(q);
    }
    return batch;
}

/**
 * The shared column store changes where columns live, never a value:
 * a fresh Session, a Session whose store is already warm, and a
 * second run of an identical plan (pure store hits) all match the
 * reference at every thread count.
 */
TEST(QueryStore, FreshWarmedAndRepeatedPlansMatchReference)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TraceBundle bundle = randomBundle(seed + 100);
        Rng rng(seed ^ 0x570E);
        std::vector<Query> batch = storeBatch(rng, bundle);
        std::vector<QueryResult> reference =
            legacy::runQueries(bundle, batch);

        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            Session fresh(bundle);
            expectResultsEqual(fresh.query(batch, threads), reference);

            Session warmed(bundle);
            for (const auto &pids : pidSets())
                warmed.index().warm(pids);
            QueryPlan plan = warmed.plan(batch);
            expectResultsEqual(plan.run(threads), reference);
            expectResultsEqual(plan.run(threads), reference);
            expectResultsEqual(warmed.plan(batch).run(threads),
                               reference);
        }
    }
}

/**
 * Store timelines poisoned by a disordered stream fall back to the
 * per-row sweep exactly as plan-local ones do: same value or same
 * first failure, fresh or warm, at any thread count.
 */
TEST(QueryStore, DisorderedStreamsFallBackIdentically)
{
    BundleSpec spec;
    spec.shuffleCswitches = true;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TraceBundle bundle = randomBundle(seed + 200, spec);
        Rng rng(seed + 77);
        std::vector<Query> batch = storeBatch(rng, bundle);

        std::string want = outcome([&] {
            return fingerprintResults(
                legacy::runQueries(bundle, batch));
        });
        Session warmed(bundle);
        warmed.index().warm({});
        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            Session fresh(bundle);
            EXPECT_EQ(outcome([&] {
                          return fingerprintResults(
                              fresh.query(batch, threads));
                      }),
                      want);
            EXPECT_EQ(outcome([&] {
                          return fingerprintResults(
                              warmed.query(batch, threads));
                      }),
                      want);
        }
    }
}

/**
 * Out-of-range cpus: store-backed rows match the reference, and the
 * warning stays once per trace whether the store built the columns
 * (index warm, then a plan) or the plan did.
 */
TEST(QueryStore, OutOfRangeCpusWarnOnceAcrossStoreAndPlans)
{
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    BundleSpec spec;
    spec.outOfRangeCpus = true;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        TraceBundle bundle = randomBundle(seed + 300, spec);
        Rng rng(seed + 5);
        std::vector<Query> batch = storeBatch(rng, bundle);
        batch.push_back(tlpQuery({}));
        std::vector<QueryResult> reference =
            legacy::runQueries(bundle, batch);

        std::size_t before = sink.count(trace::Severity::Warning);
        Session session(bundle);
        session.index().warm({});
        for (unsigned threads : {1u, 2u, 7u})
            expectResultsEqual(session.query(batch, threads),
                               reference);
        EXPECT_EQ(sink.count(trace::Severity::Warning), before + 1);
    }
}

/**
 * Concurrent plans on one Session that need different store keys
 * build them at the same time (per-key once-init) and still match
 * the reference; each key is built exactly once.
 */
TEST(QueryStore, ConcurrentPlansBuildDifferentKeys)
{
    TraceBundle bundle = randomBundle(31, BundleSpec{8, 2000});
    Session session(bundle);

    std::vector<std::vector<Query>> batches;
    for (const auto &pids : pidSets()) {
        std::vector<Query> batch;
        for (QueryMetric metric :
             {QueryMetric::Tlp, QueryMetric::ContextSwitchRate,
              QueryMetric::WaitFraction}) {
            Query q;
            q.metric = metric;
            q.filter.pids = pids;
            batch.push_back(q);
        }
        batches.push_back(batch);
    }
    std::vector<std::vector<QueryResult>> references;
    for (const auto &batch : batches)
        references.push_back(legacy::runQueries(bundle, batch));

    constexpr unsigned kRounds = 3;
    std::vector<std::vector<QueryResult>> results(batches.size() *
                                                  kRounds);
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < results.size(); ++i) {
        threads.emplace_back([&, i] {
            ready.fetch_add(1);
            while (ready.load() < results.size()) {
            }
            results[i] =
                session.query(batches[i % batches.size()], 2);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("plan " + std::to_string(i));
        expectResultsEqual(results[i],
                           references[i % batches.size()]);
    }
    for (const auto &pids : pidSets())
        EXPECT_TRUE(session.index().hasCswitchColumns(pids));
}

/** Columns of one group, compared family by family. */
void
expectColumnsEqual(const detail::FilterColumns &got,
                   const detail::FilterColumns &want)
{
    EXPECT_EQ(got.timeline.usable, want.timeline.usable);
    EXPECT_EQ(got.timeline.cutoff, want.timeline.cutoff);
    EXPECT_EQ(got.timeline.outOfRangeCpuEvents,
              want.timeline.outOfRangeCpuEvents);
    EXPECT_EQ(got.timeline.times, want.timeline.times);
    EXPECT_EQ(got.timeline.levels, want.timeline.levels);
    EXPECT_EQ(got.timeline.cum, want.timeline.cum);
    EXPECT_EQ(got.dispatches, want.dispatches);
    ASSERT_EQ(got.bursts.bursts.size(), want.bursts.bursts.size());
    for (std::size_t i = 0; i < got.bursts.bursts.size(); ++i) {
        EXPECT_EQ(got.bursts.bursts[i].begin,
                  want.bursts.bursts[i].begin);
        EXPECT_EQ(got.bursts.bursts[i].end, want.bursts.bursts[i].end);
    }
    EXPECT_EQ(got.bursts.maxEnd, want.bursts.maxEnd);
    EXPECT_EQ(got.waits.begin, want.waits.begin);
    EXPECT_EQ(got.waits.end, want.waits.end);
    EXPECT_EQ(got.waits.minBegin, want.waits.minBegin);
}

/**
 * The partitioned sweep hands every group exactly the columns a
 * separate per-filter pass over that group's spec builds — on sorted,
 * disordered and out-of-range-cpu streams, with and without a cpu
 * mask, for thread and process groups, including a pid-0 group that
 * no switch may target.
 */
TEST(QueryGroupBy, PartitionedColumnsEqualPerFilterColumns)
{
    detail::ColumnNeeds needs;
    needs.dispatches = true;
    needs.bursts = true;
    needs.waits = true;
    for (std::uint64_t seed = 0; seed < 9; ++seed) {
        BundleSpec spec;
        spec.shuffleCswitches = seed % 3 == 1;
        spec.outOfRangeCpus = seed % 3 == 2;
        TraceBundle bundle = randomBundle(seed + 400, spec);
        for (detail::CpuMask mask :
             {detail::kAllCpus, detail::CpuMask{0x5B}}) {
            std::vector<std::pair<Pid, trace::Tid>> threadKeys;
            for (Pid pid : {5, 6, 7, 9})
                for (trace::Tid k = 0; k < 3; ++k)
                    threadKeys.emplace_back(pid, pid * 10 + k);
            std::vector<std::pair<Pid, trace::Tid>> processKeys = {
                {0, 0}, {5, 0}, {7, 0}, {9, 0}};

            for (bool byThread : {true, false}) {
                SCOPED_TRACE("seed " + std::to_string(seed) +
                             (byThread ? " thread" : " process") +
                             " mask " + std::to_string(mask));
                const auto &keys = byThread ? threadKeys : processKeys;
                std::vector<detail::PendingColumns> groups =
                    detail::sweepPartition(
                        bundle,
                        byThread ? detail::PartitionBy::Thread
                                 : detail::PartitionBy::Process,
                        keys, mask, needs);
                ASSERT_EQ(groups.size(), keys.size());
                for (std::size_t g = 0; g < keys.size(); ++g) {
                    detail::finishColumns(needs, groups[g]);
                    detail::TimelineSpec one;
                    one.pids = {keys[g].first};
                    one.hasTid = byThread;
                    one.tid = byThread ? keys[g].second : 0;
                    one.cpuMask = mask;
                    expectColumnsEqual(
                        groups[g].columns,
                        detail::buildFilterColumns(bundle, one, needs));
                }
            }
        }
    }
}

/**
 * An in-order stream skips finishColumns' dispatch sort and wait-row
 * sort, which are the identity there. With runs of equal timestamps
 * (equal wait ends with different begins) the skip must land on
 * exactly the columns the sort path builds from the same emission —
 * for partitioned groups and for a lone group, which reserves its
 * columns up front.
 */
TEST(QueryGroupBy, InOrderStreamSkipsSortsWithIdenticalColumns)
{
    detail::ColumnNeeds needs;
    needs.dispatches = true;
    needs.bursts = true;
    needs.waits = true;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        BundleSpec spec;
        spec.cswitches = 600;
        TraceBundle bundle = randomBundle(seed + 700, spec);
        Rng rng(seed);
        auto &events = bundle.cswitches;
        for (std::size_t i = 0; i < events.size();) {
            std::size_t run = 1 + rng.below(5);
            for (std::size_t j = i + 1; j < std::min(i + run, events.size());
                 ++j) {
                events[j].timestamp = events[i].timestamp;
                events[j].readyTime = std::min(events[j].readyTime,
                                               events[j].timestamp);
            }
            i += run;
        }
        const std::vector<std::vector<std::pair<Pid, trace::Tid>>>
            keySets = {{{5, 0}, {6, 0}, {7, 0}, {9, 0}}, {{5, 0}}};
        for (const auto &keys : keySets) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " groups " +
                         std::to_string(keys.size()));
            std::vector<detail::PendingColumns> groups =
                detail::sweepPartition(bundle,
                                       detail::PartitionBy::Process,
                                       keys, detail::kAllCpus, needs);
            for (detail::PendingColumns &group : groups) {
                ASSERT_TRUE(group.sorted);
                detail::PendingColumns forced = group;
                forced.sorted = false;
                detail::finishColumns(needs, group);
                detail::finishColumns(needs, forced);
                EXPECT_FALSE(group.columns.dispatches.empty());
                expectColumnsEqual(group.columns, forced.columns);
            }
        }
    }
}

/**
 * by=thread and by=process with every cswitch metric, cpu masks and
 * time windows: the one-pass group-by matches the per-filter
 * reference at 1/2/7 threads, and a lone group-by query costs one
 * column pass.
 */
TEST(QueryGroupBy, EveryMetricMatchesReferenceInOnePass)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        TraceBundle bundle = randomBundle(seed + 500);
        Rng rng(seed + 9);
        Session session(bundle);
        for (QueryGroupBy groupBy :
             {QueryGroupBy::Thread, QueryGroupBy::Process}) {
            std::vector<Query> batch;
            for (QueryMetric metric : cswitchMetrics()) {
                for (int variant = 0; variant < 3; ++variant) {
                    Query q;
                    q.metric = metric;
                    q.groupBy = groupBy;
                    if (variant == 1)
                        q.filter.cpuMask = rng.below(255) + 1;
                    if (variant == 2) {
                        auto [a, b] = randomWindow(rng, bundle);
                        q.filter.t0 = a;
                        q.filter.t1 = b;
                        q.filter.pids = pidSets()[rng.below(4)];
                    }
                    // Each query alone: one partitioned pass.
                    QueryPlan lone = session.plan({q});
                    EXPECT_EQ(lone.explain().columnPasses, 1u)
                        << querySpecString(q);
                    batch.push_back(q);
                }
            }
            std::vector<QueryResult> reference =
                legacy::runQueries(bundle, batch);
            for (unsigned threads : {1u, 2u, 7u}) {
                SCOPED_TRACE("seed " + std::to_string(seed) +
                             " threads " + std::to_string(threads));
                expectResultsEqual(session.query(batch, threads),
                                   reference);
            }
        }
    }
}

TEST(QueryGroupBy, ExplainMarksPartitionedFilters)
{
    TraceBundle bundle = randomBundle(4);
    Session session(bundle);
    QueryPlan plan = session.plan({parseQuerySpec("tlp/by=thread"),
                                   parseQuerySpec("csrate/by=thread")});
    const QueryPlanExplain &explain = plan.explain();
    EXPECT_GT(explain.distinctFilters, 1u);
    EXPECT_EQ(explain.columnPasses, 1u);
    for (const QueryPlanPass &pass : explain.passes) {
        EXPECT_EQ(pass.source, "partitioned:thread");
        EXPECT_TRUE(pass.buildsTimeline);
        EXPECT_TRUE(pass.buildsDispatches);
    }
    EXPECT_NE(explain.str().find("source=partitioned:thread"),
              std::string::npos);

    // Thread and process groups are separate partitions; a masked
    // group-by is a third one.
    QueryPlan mixed =
        session.plan({parseQuerySpec("tlp/by=thread"),
                      parseQuerySpec("busy/by=process"),
                      parseQuerySpec("busy/by=process/cpus=0,1")});
    EXPECT_EQ(mixed.explain().columnPasses, 3u);
}

TEST(QuerySpec, RoundTripsCanonically)
{
    // Already-canonical specs survive a parse -> print round trip
    // verbatim.
    for (const char *spec :
         {"tlp", "busy/pids=5,6", "gpu/app=chrome/by=engine",
          "tlp/t0=0.001/t1=0.009", "csrate/cpus=0,2,3,4,5",
          "dhist/pids=5/by=process", "tlp/app=handbrake/by=phase",
          "waitfrac", "readylat/pids=5/by=thread",
          "topblocked/app=chrome"}) {
        EXPECT_EQ(querySpecString(parseQuerySpec(spec)), spec);
    }

    // Non-canonical inputs normalize (ranges expand, durations print
    // in seconds) and are then stable.
    EXPECT_EQ(querySpecString(parseQuerySpec("csrate/cpus=0,2-5")),
              "csrate/cpus=0,2,3,4,5");
    std::string bucket =
        querySpecString(parseQuerySpec("tlp/by=bucket:250ms"));
    EXPECT_EQ(bucket, "tlp/by=bucket:0.25s");
    EXPECT_EQ(querySpecString(parseQuerySpec(bucket)), bucket);

    for (const char *bad :
         {"", "bogus", "tlp/by=bucket", "tlp/cpus=64", "tlp/pids=",
          "tlp/t0=oops", "tlp/nope=1", "tlp/by=weird"}) {
        EXPECT_THROW(parseQuerySpec(bad), FatalError) << bad;
    }
}

/**
 * Sub-millisecond (and arbitrary) bucket widths and window bounds
 * survive a print -> parse round trip exactly. This is the %g
 * precision-loss regression: "tlp/by=bucket:0.000097s" used to come
 * back as 96999 ns.
 */
TEST(QuerySpec, RandomizedDurationsRoundTripExactly)
{
    Rng rng(0xB0C4E7);
    for (int i = 0; i < 500; ++i) {
        Query q = tlpQuery({});
        q.groupBy = QueryGroupBy::TimeBucket;
        switch (rng.below(4)) {
          case 0: // sub-millisecond, the regression range
            q.bucket = 1 + rng.below(1'000'000);
            break;
          case 1: // sub-second
            q.bucket = 1 + rng.below(1'000'000'000);
            break;
          case 2: // up to an hour
            q.bucket = 1 + rng.below(3'600'000'000'000ull);
            break;
          default: // anything representable
            q.bucket = 1 + rng.below(~0ull / 2);
            break;
        }
        std::string spec = querySpecString(q);
        Query parsed = parseQuerySpec(spec);
        EXPECT_EQ(parsed.bucket, q.bucket) << spec;
        EXPECT_EQ(querySpecString(parsed), spec) << spec;
    }

    // t0/t1 ride the same decimal-seconds printer and parser.
    for (int i = 0; i < 200; ++i) {
        Query q = tlpQuery({});
        q.filter.t0 = 1 + rng.below(10'000'000'000ull);
        q.filter.t1 =
            q.filter.t0 + 1 + rng.below(10'000'000'000ull);
        std::string spec = querySpecString(q);
        Query parsed = parseQuerySpec(spec);
        EXPECT_EQ(parsed.filter.t0, q.filter.t0) << spec;
        EXPECT_EQ(parsed.filter.t1, q.filter.t1) << spec;
    }
}

TEST(QuerySpec, InvalidQueriesFailIdenticallyOnBothPaths)
{
    TraceBundle bundle = randomBundle(3);
    Session session(bundle);
    for (const char *spec :
         {"gpu/by=thread", "busy/by=engine", "tlp/app=notepad",
          "tlp/t0=0.005/t1=0.001"}) {
        std::vector<Query> batch = {parseQuerySpec(spec)};
        EXPECT_EQ(outcome([&] {
                      return fingerprintResults(
                          legacy::runQueries(bundle, batch));
                  }),
                  outcome([&] {
                      return fingerprintResults(
                          session.query(batch, 2));
                  }))
            << spec;
    }
}

/**
 * The canned queries are exact re-expressions of the existing entry
 * points: same windows, same values, bit for bit.
 */
TEST(QueryCanned, MatchSessionEntryPoints)
{
    TraceBundle bundle = randomBundle(7);
    Session session(bundle);
    const sim::SimDuration window = sim::msec(1.0);
    for (const auto &pids : {trace::PidSet{}, trace::PidSet{5}}) {
        std::vector<QueryResult> results = session.query(
            {tlpQuery(pids), tlpSeriesQuery(pids, window),
             gpuUtilSeriesQuery(pids, window)},
            2);

        ASSERT_EQ(results[0].rows.size(), 1u);
        EXPECT_EQ(results[0].rows[0].value,
                  session.concurrency(pids).tlp());

        TimeSeries tlp = session.tlpSeries(pids, window);
        ASSERT_EQ(results[1].rows.size(), tlp.points.size());
        for (std::size_t i = 0; i < tlp.points.size(); ++i) {
            EXPECT_EQ(results[1].rows[i].t0, tlp.points[i].t);
            EXPECT_EQ(results[1].rows[i].value, tlp.points[i].value)
                << "window " << i;
        }

        TimeSeries gpu = session.gpuUtilSeries(pids, window);
        ASSERT_EQ(results[2].rows.size(), gpu.points.size());
        for (std::size_t i = 0; i < gpu.points.size(); ++i) {
            EXPECT_EQ(results[2].rows[i].value, gpu.points[i].value)
                << "window " << i;
        }
    }
}

/**
 * Lenient-mode survivors of the fault-injection corpus: for every
 * survivor the fused batch and the reference must produce the same
 * rows — or fail the same way — at 1 and 7 threads.
 */
TEST(QueryCorpus, SurvivorsMatchReference)
{
    TraceBundle original = randomBundle(99);
    std::ostringstream serialized;
    trace::writeEtl(original, serialized);
    trace::FaultInjector injector(serialized.str(), 0xfeedf00dull);

    trace::ParseOptions options;
    options.mode = trace::ParseMode::Lenient;
    options.source = "corpus";

    // Swallow the mutants' expected warnings.
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    // No TimeBucket queries here: a mutated stopTime could tile an
    // absurd number of rows. The bounded group-bys stay.
    std::vector<Query> batch;
    batch.push_back(tlpQuery({}));
    Query busy;
    busy.metric = QueryMetric::BusyFraction;
    batch.push_back(busy);
    Query csrate;
    csrate.metric = QueryMetric::ContextSwitchRate;
    batch.push_back(csrate);
    Query dhist;
    dhist.metric = QueryMetric::DurationHistogram;
    batch.push_back(dhist);
    Query gpu;
    gpu.metric = QueryMetric::GpuOccupancy;
    gpu.groupBy = QueryGroupBy::GpuEngine;
    batch.push_back(gpu);
    Query byProcess = tlpQuery({});
    byProcess.groupBy = QueryGroupBy::Process;
    batch.push_back(byProcess);
    Query byPhase = tlpQuery({});
    byPhase.groupBy = QueryGroupBy::Phase;
    batch.push_back(byPhase);
    Query waitfrac;
    waitfrac.metric = QueryMetric::WaitFraction;
    batch.push_back(waitfrac);
    Query topblocked;
    topblocked.metric = QueryMetric::TopBlocked;
    topblocked.groupBy = QueryGroupBy::Process;
    batch.push_back(topblocked);

    std::size_t compared = 0;
    for (std::size_t i = 0; i < 96; ++i) {
        std::istringstream in(injector.mutant(i));
        trace::IngestReport report;
        TraceBundle mutant = trace::readEtl(in, options, report);
        if (mutant.numLogicalCpus == 0 ||
            mutant.numLogicalCpus > 1024) {
            continue;
        }
        ++compared;
        SCOPED_TRACE("mutant " + std::to_string(i) + ": " +
                     injector.mutationFor(i).describe());

        std::string want = outcome([&] {
            return fingerprintResults(
                legacy::runQueries(mutant, batch));
        });
        Session session(mutant);
        for (unsigned threads : {1u, 7u}) {
            EXPECT_EQ(outcome([&] {
                          return fingerprintResults(
                              session.query(batch, threads));
                      }),
                      want)
                << "threads " << threads;
        }
    }
    EXPECT_GT(compared, 10u);
}

} // namespace
