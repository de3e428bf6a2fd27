/**
 * @file
 * Tests for the wakeup-chain bottleneck analyzer: the fused path
 * (blocking::analyze over a Session/TraceIndex) must be EXPECT_EQ-
 * identical to the sequential reference (blocking::legacy::analyze)
 * on randomized bundles at 1, 2 and 7 worker threads — whole reports
 * and rendered text alike. Hand-built bundles pin down the edge
 * semantics satellite 4 asks for: self-wakeups, cross-CPU dispatch
 * attribution, readyTime == timestamp zero waits, and idle (pid 0)
 * transitions. CriticalPath* covers the chain DP, tie-breaking, and
 * the 64-hop backwalk cap. The BlockingDiff edge cases aim at the
 * fused path's dense ids: disordered streams, CPU ids at and past the
 * header's count, pid/tid extremes, enough threads to collide in the
 * 256-slot memo, and fault-corpus survivors.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/blocking.hh"
#include "analysis/session.hh"
#include "oracle/blocking_legacy.hh"
#include "oracle/corrupt.hh"
#include "sim/types.hh"
#include "trace/diagnostic.hh"
#include "trace/etl.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;
using blocking::BlockingReport;
using blocking::CriticalPathHop;
using blocking::ThreadBlocking;
using blocking::WakeupEdge;
using trace::CSwitchEvent;
using trace::Pid;
using trace::Tid;
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

/**
 * A random but structurally plausible cswitch stream — the same
 * generator shape as the query differential tests, so both suites
 * face the same hostile inputs (idle pids, self switches, zero and
 * nonzero waits, repeated thread keys across CPUs).
 */
TraceBundle
randomBundle(std::uint64_t seed, std::size_t cswitches = 400)
{
    Rng rng(seed);
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = kTraceLen;
    bundle.numLogicalCpus = 8;
    bundle.processNames = {{5, "handbrake"},
                           {6, "handbrake_worker"},
                           {7, "chrome"},
                           {9, "system"}};
    static const Pid kPids[] = {0, 5, 5, 6, 7, 9};

    sim::SimTime t = 0;
    for (std::size_t i = 0; i < cswitches; ++i) {
        t += rng.below(2 * kTraceLen / cswitches);
        CSwitchEvent e;
        e.timestamp = t;
        e.cpu = static_cast<unsigned>(rng.below(8));
        e.oldPid = kPids[rng.below(6)];
        e.oldTid = e.oldPid * 10;
        e.newPid = kPids[rng.below(6)];
        e.newTid = e.newPid ? e.newPid * 10 + rng.below(3) : 0;
        e.readyTime = t > 1000 ? t - rng.below(1000) : t;
        bundle.cswitches.push_back(e);
    }
    return bundle;
}

/** Pid sets the randomized differentials draw filters from. */
const std::vector<trace::PidSet> &
pidSets()
{
    static const std::vector<trace::PidSet> kSets = {
        {}, {5}, {5, 6}, {7}, {42}};
    return kSets;
}

/** Append one context switch to @p bundle. */
void
sw(TraceBundle &bundle, sim::SimTime ts, unsigned cpu, Pid oldPid,
   Tid oldTid, Pid newPid, Tid newTid, sim::SimTime ready)
{
    CSwitchEvent e;
    e.timestamp = ts;
    e.cpu = cpu;
    e.oldPid = oldPid;
    e.oldTid = oldTid;
    e.newPid = newPid;
    e.newTid = newTid;
    e.readyTime = ready;
    bundle.cswitches.push_back(e);
}

/** A bundle shell with a [0, stop) window and @p cpus CPUs. */
TraceBundle
shell(sim::SimTime stop, unsigned cpus)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = stop;
    bundle.numLogicalCpus = cpus;
    return bundle;
}

const ThreadBlocking *
findThread(const BlockingReport &report, Pid pid, Tid tid)
{
    for (const ThreadBlocking &t : report.threads) {
        if (t.pid == pid && t.tid == tid)
            return &t;
    }
    return nullptr;
}

const WakeupEdge *
findEdge(const BlockingReport &report, Pid fromPid, Tid fromTid,
         Pid toPid, Tid toTid)
{
    for (const WakeupEdge &e : report.edges) {
        if (e.fromPid == fromPid && e.fromTid == fromTid &&
            e.toPid == toPid && e.toTid == toTid)
            return &e;
    }
    return nullptr;
}

/**
 * The fused path at 1, 2 and 7 threads must equal the reference on
 * @p bundle: whole reports and both renderings.
 */
void
expectFusedMatchesReference(const TraceBundle &bundle,
                            const trace::PidSet &pids)
{
    BlockingReport reference = blocking::legacy::analyze(bundle, pids);
    Session session(bundle);
    for (unsigned threads : {1u, 2u, 7u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        BlockingReport fused =
            blocking::analyze(session.index(), pids, threads);
        EXPECT_EQ(fused, reference);
        EXPECT_EQ(blocking::renderReport(fused),
                  blocking::renderReport(reference));
        EXPECT_EQ(blocking::renderReportJson(fused),
                  blocking::renderReportJson(reference));
    }
}

TEST(BlockingDiff, RandomBundlesMatchReferenceAtEveryThreadCount)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TraceBundle bundle = randomBundle(seed);
        Session session(bundle);
        for (const trace::PidSet &pids : pidSets()) {
            BlockingReport reference =
                blocking::legacy::analyze(bundle, pids);
            for (unsigned threads : {1u, 2u, 7u}) {
                SCOPED_TRACE("seed " + std::to_string(seed) +
                             " threads " + std::to_string(threads));
                BlockingReport fused =
                    blocking::analyze(session.index(), pids, threads);
                EXPECT_EQ(fused, reference);
                // The user-facing reports must match verbatim too.
                EXPECT_EQ(blocking::renderReport(fused),
                          blocking::renderReport(reference));
                EXPECT_EQ(blocking::renderReportJson(fused),
                          blocking::renderReportJson(reference));
            }
        }
    }
}

TEST(BlockingDiff, SessionEntryPointMatchesReference)
{
    TraceBundle bundle = randomBundle(42);
    Session session(bundle);
    EXPECT_EQ(session.bottlenecks({}, 3),
              blocking::legacy::analyze(bundle, {}));
    EXPECT_EQ(session.bottlenecks({5, 6}, 2),
              blocking::legacy::analyze(bundle, {5, 6}));
}

TEST(BlockingDiff, HeaderlessBundlesMatchReference)
{
    // Bare CPU-Usage CSVs decode with no header: both paths must
    // fall back to the observed stream extent identically.
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);
    for (std::uint64_t seed : {7u, 300u, 301u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        TraceBundle bundle = randomBundle(seed);
        bundle.startTime = 0;
        bundle.stopTime = 0;
        bundle.numLogicalCpus = 0;
        for (const trace::PidSet &pids : pidSets())
            expectFusedMatchesReference(bundle, pids);
    }
}

TEST(BlockingDiff, DisorderedStreamsMatchReference)
{
    // Shuffled timestamps invert run segments; both paths must drop
    // the same ones and derive the same window.
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        TraceBundle bundle = randomBundle(100 + seed);
        Rng rng(seed);
        auto &events = bundle.cswitches;
        for (std::size_t i = events.size(); i > 1; --i)
            std::swap(events[i - 1].timestamp,
                      events[rng.below(i)].timestamp);
        for (const trace::PidSet &pids : pidSets())
            expectFusedMatchesReference(bundle, pids);
        bundle.stopTime = 0; // headerless and disordered
        bundle.numLogicalCpus = 0;
        expectFusedMatchesReference(bundle, {});
    }
}

TEST(BlockingDiff, CpuIdsAtAndPastHeaderCountMatchReference)
{
    // CPU ids the header does not admit, up to the largest id a
    // reader can produce: the fused path keeps them in its overflow
    // map, so a forged id allocates nothing per id.
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);
    static const trace::CpuId kHostile[] = {
        8, 9, 63, 64, 1023, 1024, 5000, 0x7FFFFFFFu, 0xFFFFFFFEu,
        0xFFFFFFFFu};
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        TraceBundle bundle = randomBundle(200 + seed);
        Rng rng(seed);
        for (auto &e : bundle.cswitches) {
            if (rng.below(3) == 0)
                e.cpu = kHostile[rng.below(std::size(kHostile))];
        }
        for (const trace::PidSet &pids : pidSets())
            expectFusedMatchesReference(bundle, pids);
        bundle.stopTime = 0;
        bundle.numLogicalCpus = 0; // the CPU count comes from the stream
        expectFusedMatchesReference(bundle, {});
    }
}

TEST(BlockingDiff, PidTidExtremesMatchReference)
{
    // Keys at the ends of both 32-bit ranges, where a packed (pid,
    // tid) key or a dense id offset could wrap.
    static const Pid kPids[] = {0, 1, 0x7FFFFFFFu, 0xFFFFFFFEu,
                                0xFFFFFFFFu};
    static const Tid kTids[] = {0, 1, 0xFFFFFFFEu, 0xFFFFFFFFu};
    TraceBundle bundle = shell(kTraceLen, 4);
    bundle.processNames = {{0xFFFFFFFFu, "max"}, {1, "one"}};
    Rng rng(5);
    sim::SimTime t = 0;
    for (std::size_t i = 0; i < 600; ++i) {
        t += rng.below(2 * kTraceLen / 600);
        Pid oldPid = kPids[rng.below(std::size(kPids))];
        Pid newPid = kPids[rng.below(std::size(kPids))];
        sw(bundle, t, static_cast<unsigned>(rng.below(4)), oldPid,
           kTids[rng.below(std::size(kTids))], newPid,
           kTids[rng.below(std::size(kTids))],
           t > 500 ? t - rng.below(500) : t);
    }
    for (const trace::PidSet &pids :
         {trace::PidSet{}, trace::PidSet{0xFFFFFFFFu},
          trace::PidSet{1, 0xFFFFFFFEu}})
        expectFusedMatchesReference(bundle, pids);
}

TEST(BlockingDiff, ManyThreadsCollideInTheMemoAndMatchReference)
{
    // 900 distinct threads over 16 CPUs: far more keys than the
    // 256-slot memo holds, so lookups collide and evict constantly.
    TraceBundle bundle = shell(kTraceLen, 16);
    Rng rng(17);
    sim::SimTime t = 0;
    auto pick = [&rng](Pid &pid, Tid &tid) {
        std::uint64_t k = rng.below(901);
        pid = k == 900 ? 0 : static_cast<Pid>(10 + k % 30);
        tid = pid == 0 ? 0 : static_cast<Tid>(1000 + k);
    };
    for (std::size_t i = 0; i < 20000; ++i) {
        t += rng.below(2 * kTraceLen / 20000);
        Pid oldPid, newPid;
        Tid oldTid, newTid;
        pick(oldPid, oldTid);
        pick(newPid, newTid);
        sw(bundle, t, static_cast<unsigned>(rng.below(16)), oldPid,
           oldTid, newPid, newTid, t > 2000 ? t - rng.below(2000) : t);
    }
    BlockingReport reference = blocking::legacy::analyze(bundle, {});
    EXPECT_GT(reference.threads.size(), 256u);
    EXPECT_GT(reference.edges.size(), 256u);
    for (const trace::PidSet &pids :
         {trace::PidSet{}, trace::PidSet{10, 11, 12},
          trace::PidSet{39}})
        expectFusedMatchesReference(bundle, pids);
}

TEST(BlockingDiff, FaultCorpusSurvivorsMatchReference)
{
    TraceBundle original = randomBundle(99, 600);
    std::ostringstream serialized;
    trace::writeEtl(original, serialized);
    trace::FaultInjector injector(serialized.str(), 0xb10cull);

    trace::ParseOptions options;
    options.mode = trace::ParseMode::Lenient;
    options.source = "corpus";
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    std::size_t compared = 0;
    for (std::size_t i = 0; i < 96; ++i) {
        std::istringstream in(injector.mutant(i));
        trace::IngestReport report;
        TraceBundle mutant = trace::readEtl(in, options, report);
        if (mutant.cswitches.empty())
            continue;
        ++compared;
        SCOPED_TRACE("mutant " + std::to_string(i) + ": " +
                     injector.mutationFor(i).describe());
        expectFusedMatchesReference(mutant, {});
        expectFusedMatchesReference(mutant, {5, 6});
    }
    EXPECT_GT(compared, 10u);
}

TEST(BlockingSemantics, ZeroWaitDispatchCountsButAddsNoWait)
{
    TraceBundle bundle = shell(300, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    sw(bundle, 100, 0, 5, 50, 6, 60, 100); // readyTime == timestamp
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    EXPECT_EQ(report.dispatches, 2u);
    EXPECT_EQ(report.totalWaitNs, 0u);
    const ThreadBlocking *worker = findThread(report, 6, 60);
    ASSERT_NE(worker, nullptr);
    EXPECT_EQ(worker->dispatches, 1u);
    EXPECT_EQ(worker->waitNs, 0u);
    EXPECT_EQ(worker->maxWaitNs, 0u);
    // The wakeup edge still exists — it just carried no wait.
    const WakeupEdge *edge = findEdge(report, 5, 50, 6, 60);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(edge->count, 1u);
    EXPECT_EQ(edge->waitNs, 0u);
}

TEST(BlockingSemantics, IdleTransitionsCarryNoEdge)
{
    TraceBundle bundle = shell(400, 1);
    // Idle hands the CPU to thread A: a dispatch with a wait but no
    // culprit — the CPU was free, nothing on it serialized A.
    sw(bundle, 100, 0, 0, 0, 5, 50, 40);
    // A yields back to idle, then idle hands it to B.
    sw(bundle, 200, 0, 5, 50, 0, 0, 0);
    sw(bundle, 300, 0, 0, 0, 6, 60, 250);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    EXPECT_EQ(report.dispatches, 2u);
    EXPECT_EQ(report.totalWaitNs, 110u); // 60 + 50
    EXPECT_TRUE(report.edges.empty());
    // Idle itself never shows up as a thread.
    EXPECT_EQ(findThread(report, 0, 0), nullptr);
    // A ran exactly [100, 200); the idle gap [200, 300) counts for
    // nobody.
    const ThreadBlocking *a = findThread(report, 5, 50);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->runNs, 100u);
    EXPECT_EQ(report.totalRunNs, 200u); // A 100 + B [300, 400)
}

TEST(BlockingSemantics, SelfWakeupKeepsSelfEdge)
{
    TraceBundle bundle = shell(300, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    // Quantum-limited: the thread switches out and right back in,
    // having waited 30 ns behind its own switch-out.
    sw(bundle, 100, 0, 5, 50, 5, 50, 70);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    const WakeupEdge *self = findEdge(report, 5, 50, 5, 50);
    ASSERT_NE(self, nullptr);
    EXPECT_EQ(self->count, 1u);
    EXPECT_EQ(self->waitNs, 30u);
    const ThreadBlocking *t = findThread(report, 5, 50);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->blockedNs, 30u); // blocked behind itself
    EXPECT_EQ(t->waitNs, 30u);
    EXPECT_NE(blocking::renderReport(report).find("(self)"),
              std::string::npos);
}

TEST(BlockingSemantics, CrossCpuDispatchesAttributeToCpuLocalPredecessor)
{
    TraceBundle bundle = shell(500, 2);
    // Thread A occupies cpu 0 the whole time; thread B occupies
    // cpu 1 until C displaces it there. C's wait is attributed to B
    // (the cpu-1 occupant), never to A.
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    sw(bundle, 0, 1, 0, 0, 6, 60, 0);
    sw(bundle, 300, 1, 6, 60, 7, 70, 120);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    const WakeupEdge *edge = findEdge(report, 6, 60, 7, 70);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(edge->waitNs, 180u);
    EXPECT_EQ(findEdge(report, 5, 50, 7, 70), nullptr);
    const ThreadBlocking *a = findThread(report, 5, 50);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->blockedNs, 0u);
    // Per-CPU segments close independently: A [0,500), B [0,300),
    // C [300,500).
    EXPECT_EQ(a->runNs, 500u);
    EXPECT_EQ(findThread(report, 6, 60)->runNs, 300u);
    EXPECT_EQ(findThread(report, 7, 70)->runNs, 200u);
}

TEST(BlockingSemantics, PidFilterExcludesForeignVictimsAndCulprits)
{
    TraceBundle bundle = shell(400, 1);
    sw(bundle, 0, 0, 0, 0, 7, 70, 0);    // foreign
    sw(bundle, 100, 0, 7, 70, 5, 50, 20); // foreign -> target
    sw(bundle, 300, 0, 5, 50, 7, 70, 150); // target -> foreign
    BlockingReport report = blocking::legacy::analyze(bundle, {5});

    // Only the target thread has a row; the foreign pid is neither a
    // victim nor a culprit, and no edge crosses the filter boundary.
    ASSERT_EQ(report.threads.size(), 1u);
    EXPECT_EQ(report.threads[0].pid, 5);
    EXPECT_EQ(report.threads[0].runNs, 200u); // [100, 300)
    EXPECT_EQ(report.threads[0].blockedNs, 0u);
    EXPECT_TRUE(report.edges.empty());
    EXPECT_EQ(report.dispatches, 1u);
    EXPECT_EQ(report.totalWaitNs, 80u);
}

TEST(BlockingSemantics, HeaderlessBundleDerivesWindowFromStream)
{
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    TraceBundle bundle = shell(0, 0); // no header fields at all
    sw(bundle, 100, 0, 0, 0, 5, 50, 100);
    sw(bundle, 400, 1, 0, 0, 6, 60, 380);
    sw(bundle, 900, 0, 5, 50, 0, 0, 0);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    EXPECT_EQ(report.t0, 100u);
    EXPECT_EQ(report.t1, 900u);
    EXPECT_EQ(report.numCpus, 2u);
    // The cpu-1 occupant's final segment closes at the observed
    // stream end: [400, 900).
    EXPECT_EQ(findThread(report, 6, 60)->runNs, 500u);
}

TEST(BlockingReportTest, ClassificationFollowsWaitTlpThreshold)
{
    BlockingReport report;
    report.t0 = 0;
    report.t1 = 1'000'000'000; // 1 s
    report.totalWaitNs = 600'000'000;
    EXPECT_DOUBLE_EQ(report.waitTlp(), 0.6);
    EXPECT_TRUE(report.bottleneckLimited());
    EXPECT_STREQ(report.classification(), "bottleneck-limited");

    report.totalWaitNs = 400'000'000;
    EXPECT_FALSE(report.bottleneckLimited());
    EXPECT_STREQ(report.classification(), "structurally serial");

    report.criticalPathNs = 250'000'000;
    EXPECT_DOUBLE_EQ(report.serialFraction(), 0.25);
}

TEST(BlockingRender, JsonCarriesSummaryAndClassification)
{
    TraceBundle bundle = shell(300, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    sw(bundle, 100, 0, 5, 50, 6, 60, 40);
    std::string json = blocking::renderReportJson(
        blocking::legacy::analyze(bundle, {}));

    for (const char *key :
         {"\"window_s\"", "\"wait_tlp\"", "\"classification\"",
          "\"serial_fraction\"", "\"threads\"", "\"edges\"",
          "\"critical_path\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(CriticalPath, ChainsRunSegmentsThroughWakeupEdges)
{
    TraceBundle bundle = shell(200, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    sw(bundle, 100, 0, 5, 50, 6, 60, 50);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    // B adopts A's 100 ns chain at the wakeup, then runs 100 ns of
    // its own: one serialized 200 ns sequence spanning one wakeup.
    EXPECT_EQ(report.criticalPathNs, 200u);
    EXPECT_EQ(report.criticalPathSwitches, 1u);
    ASSERT_EQ(report.criticalPath.size(), 2u);
    EXPECT_EQ(report.criticalPath[0], (CriticalPathHop{5, 50}));
    EXPECT_EQ(report.criticalPath[1], (CriticalPathHop{6, 60}));
    EXPECT_DOUBLE_EQ(report.serialFraction(), 1.0);
}

TEST(CriticalPath, TiesResolveToLowestThreadKey)
{
    TraceBundle bundle = shell(100, 2);
    // Two independent 100 ns chains of equal length on separate CPUs.
    sw(bundle, 0, 0, 0, 0, 7, 70, 0);
    sw(bundle, 0, 1, 0, 0, 5, 50, 0);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    EXPECT_EQ(report.criticalPathNs, 100u);
    EXPECT_EQ(report.criticalPathSwitches, 0u);
    ASSERT_EQ(report.criticalPath.size(), 1u);
    EXPECT_EQ(report.criticalPath[0], (CriticalPathHop{5, 50}));

    // The fused path meets (7, 70) first, so its dense id order is
    // not the key order; the tie must still go to (5, 50).
    expectFusedMatchesReference(bundle, {});
}

TEST(CriticalPath, BackwalkIsCappedOnWakeupCycles)
{
    // A tight ping-pong: two threads alternately displace each other
    // on one CPU. The chain DP's predecessor pointers end up mutually
    // recursive (A <- B <- A ...), so the backwalk must stop at its
    // 64-hop cap instead of looping forever, and the text report
    // elides the middle of the loop.
    TraceBundle bundle = shell(2010, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    for (sim::SimTime t = 10; t <= 2000; t += 10) {
        bool even = (t / 10) % 2 == 0;
        Pid from = even ? 5 : 6;
        Pid to = even ? 6 : 5;
        sw(bundle, t, 0, from, from * 10, to, to * 10, t - 5);
    }
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    EXPECT_EQ(report.criticalPath.size(), 64u);
    EXPECT_GT(report.criticalPathSwitches, 64u);
    std::string text = blocking::renderReport(report);
    EXPECT_NE(text.find("more hops)"), std::string::npos);

    // The capped summary must still be deterministic across paths.
    Session session(bundle);
    for (unsigned threads : {1u, 2u, 7u})
        EXPECT_EQ(blocking::analyze(session.index(), {}, threads),
                  report);
}

} // namespace
