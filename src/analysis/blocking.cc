#include "analysis/blocking.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "analysis/session.hh"
#include "analysis/trace_index.hh"
#include "obs/obs.hh"

namespace deskpar::analysis::blocking {

using sim::SimTime;
using trace::Pid;
using trace::Tid;

namespace {

std::string
threadName(const trace::TraceBundle &bundle, Pid pid)
{
    auto it = bundle.processNames.find(pid);
    if (it != bundle.processNames.end() && !it->second.empty())
        return it->second;
    return "pid" + std::to_string(pid);
}

} // namespace

namespace detail {

void
finishReport(const trace::TraceBundle &bundle, const StreamTotals &r,
             std::vector<ThreadBlocking> rows,
             std::vector<WakeupEdge> edges, BlockingReport &report)
{
    // Headerless bundles (bare CPU-Usage CSVs) get the observed
    // stream extent so the wait-TLP and serial-fraction ratios stay
    // meaningful; ETL headers win when present.
    if (bundle.stopTime > bundle.startTime) {
        report.t0 = bundle.startTime;
        report.t1 = std::max(bundle.stopTime, r.maxTs);
    } else if (r.sawEvents) {
        report.t0 = r.minTs;
        report.t1 = r.maxTs;
    }
    report.numCpus = bundle.numLogicalCpus != 0
                         ? bundle.numLogicalCpus
                         : static_cast<unsigned>(r.cpusSeen);
    report.totalRunNs = r.totalRunNs;
    report.totalWaitNs = r.totalWaitNs;
    report.dispatches = r.dispatches;

    for (ThreadBlocking &row : rows)
        row.name = threadName(bundle, row.pid);
    std::sort(rows.begin(), rows.end(),
              [](const ThreadBlocking &a, const ThreadBlocking &b) {
                  if (a.waitNs != b.waitNs)
                      return a.waitNs > b.waitNs;
                  if (a.pid != b.pid)
                      return a.pid < b.pid;
                  return a.tid < b.tid;
              });
    report.threads = std::move(rows);

    std::sort(edges.begin(), edges.end(),
              [](const WakeupEdge &a, const WakeupEdge &b) {
                  if (a.waitNs != b.waitNs)
                      return a.waitNs > b.waitNs;
                  return std::tie(a.fromPid, a.fromTid, a.toPid,
                                  a.toTid) <
                         std::tie(b.fromPid, b.fromTid, b.toPid,
                                  b.toTid);
              });
    report.edges = std::move(edges);
}

WakeupEdge
makeEdge(Key from, Key to, const EdgeAgg &agg)
{
    WakeupEdge edge;
    edge.fromPid = from.first;
    edge.fromTid = from.second;
    edge.toPid = to.first;
    edge.toTid = to.second;
    edge.count = agg.count;
    edge.waitNs = agg.waitNs;
    return edge;
}

} // namespace detail

namespace {

using detail::EdgeAgg;
using detail::Key;
using detail::kMaxPathHops;

constexpr std::uint32_t kNone = ~static_cast<std::uint32_t>(0);

/**
 * CPU ids below this live in a flat vector; larger ones go to an
 * ordered map, so a forged CPU id costs one map node, not a vector
 * sized by the id.
 */
constexpr trace::CpuId kMaxFlatCpus = 1024;

std::uint64_t
packPair(std::uint32_t hi, std::uint32_t lo)
{
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/**
 * The chain sweep: a per-CPU running-thread state machine over the
 * cswitch stream, on dense thread ids. The serialization chain is a
 * DP whose order matters, so it is sequential. Each target (pid, tid)
 * is interned once, on the switch that first names it; every
 * per-thread fold then lives in one vector slot, the per-CPU
 * occupants in a flat vector, and the wakeup edges in a vector keyed
 * by the packed pair of dense ids. A thread is interned exactly when
 * it gets a report row (a target switch-in, or a target predecessor
 * of one), and every fold is an integer sum or maximum, so the report
 * equals the test oracle's ordered-map sweep once finish() sorts the
 * ids by (pid, tid).
 */
class DenseSweep
{
  public:
    DenseSweep(const trace::TraceBundle &bundle,
               const trace::PidSet &pids)
        : bundle_(bundle), pids_(pids),
          flat_(std::min(bundle.numLogicalCpus, kMaxFlatCpus))
    {
    }

    void
    run()
    {
        for (const auto &e : bundle_.cswitches)
            step(e);
        // Threads still on a CPU when the trace stops: their final
        // segment runs to the observation-window end (the header's
        // if it has one, else the last timestamp the stream showed).
        SimTime stop = std::max(bundle_.stopTime, totals_.maxTs);
        for (const Occupant &occ : flat_) {
            closeSegment(occ, stop);
            totals_.cpusSeen += occ.seen ? 1 : 0;
        }
        for (const auto &[cpu, occ] : overflow_)
            closeSegment(occ, stop);
        totals_.cpusSeen += overflow_.size();
    }

    BlockingReport
    finish() const
    {
        // Rows and the critical-path tie-break follow (pid, tid).
        std::vector<std::uint32_t> order(threads_.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return threads_[a].key < threads_[b].key;
                  });

        std::vector<ThreadBlocking> rows;
        rows.reserve(order.size());
        for (std::uint32_t id : order) {
            const Thread &t = threads_[id];
            ThreadBlocking row;
            row.pid = t.key.first;
            row.tid = t.key.second;
            row.runNs = t.runNs;
            row.waitNs = t.waitNs;
            row.maxWaitNs = t.maxWaitNs;
            row.blockedNs = t.blockedNs;
            row.dispatches = t.dispatches;
            rows.push_back(std::move(row));
        }
        std::vector<WakeupEdge> edges;
        edges.reserve(edges_.size());
        for (const Edge &e : edges_)
            edges.push_back(detail::makeEdge(threads_[e.from].key,
                                     threads_[e.to].key, e.agg));

        BlockingReport report;
        detail::finishReport(bundle_, totals_, std::move(rows),
                     std::move(edges), report);

        // The longest chain; ties resolve to the lowest (pid, tid),
        // as the oracle's map order does. The predecessor pointers
        // summarize a DP whose state mutates as the sweep advances,
        // so the backwalk is a bounded summary, not an exact segment
        // list.
        std::uint32_t best = kNone;
        for (std::uint32_t id : order) {
            if (best == kNone ||
                threads_[id].chainNs > threads_[best].chainNs)
                best = id;
        }
        if (best != kNone && threads_[best].chainNs > 0) {
            report.criticalPathNs = threads_[best].chainNs;
            report.criticalPathSwitches = threads_[best].links;
            std::vector<CriticalPathHop> hops;
            for (std::uint32_t cur = best;
                 cur != kNone && hops.size() < kMaxPathHops;
                 cur = threads_[cur].prev)
                hops.push_back(CriticalPathHop{threads_[cur].key.first,
                                               threads_[cur].key.second});
            std::reverse(hops.begin(), hops.end());
            report.criticalPath = std::move(hops);
        }
        return report;
    }

  private:
    struct Thread
    {
        Key key;
        std::uint64_t runNs = 0;
        std::uint64_t blockedNs = 0;
        std::uint64_t waitNs = 0;
        std::uint64_t maxWaitNs = 0;
        std::uint64_t dispatches = 0;
        std::uint64_t chainNs = 0;
        std::uint64_t links = 0;
        std::uint32_t prev = kNone;
    };

    struct Edge
    {
        std::uint32_t from;
        std::uint32_t to;
        EdgeAgg agg;
    };

    /** A CPU's running target thread (kNone: idle or foreign). */
    struct Occupant
    {
        std::uint32_t thread = kNone;
        bool seen = false;
        SimTime since = 0;
    };

    void
    step(const trace::CSwitchEvent &e)
    {
        totals_.observe(e.timestamp);
        Occupant &occ = cpu(e.cpu);
        occ.seen = true;
        closeSegment(occ, e.timestamp);

        std::uint32_t to = threadOf(e.newPid, e.newTid);
        if (to != kNone) {
            // Readers clamp inverted ready times; clamp again so a
            // hand-built bundle cannot wrap the wait.
            SimTime ready = std::min(e.readyTime, e.timestamp);
            std::uint64_t wait = e.timestamp - ready;
            ++totals_.dispatches;
            totals_.totalWaitNs += wait;
            // Intern the predecessor before taking references: it
            // may grow threads_.
            std::uint32_t from = threadOf(e.oldPid, e.oldTid);
            Thread &dst = threads_[to];
            dst.waitNs += wait;
            dst.maxWaitNs = std::max(dst.maxWaitNs, wait);
            ++dst.dispatches;
            if (from != kNone) {
                // The wakeup edge: old held this CPU for the tail of
                // the wait, so the chain may continue through it.
                EdgeAgg &edge = edges_[edgeOf(from, to)].agg;
                ++edge.count;
                edge.waitNs += wait;
                Thread &src = threads_[from];
                src.blockedNs += wait;
                if (src.chainNs > dst.chainNs) {
                    dst.chainNs = src.chainNs;
                    dst.links = src.links + 1;
                    dst.prev = from;
                }
            }
        }
        occ.thread = to;
        occ.since = e.timestamp;
    }

    void
    closeSegment(const Occupant &occ, SimTime now)
    {
        // Disordered streams can invert a segment; drop it rather
        // than wrap the unsigned subtraction.
        if (occ.thread == kNone || now <= occ.since)
            return;
        std::uint64_t seg = now - occ.since;
        Thread &t = threads_[occ.thread];
        t.runNs += seg;
        t.chainNs += seg;
        totals_.totalRunNs += seg;
    }

    Occupant &
    cpu(trace::CpuId id)
    {
        if (id >= kMaxFlatCpus)
            return overflow_[id];
        if (id >= flat_.size())
            flat_.resize(static_cast<std::size_t>(id) + 1);
        return flat_[id];
    }

    /** Dense id of a target thread; kNone for idle or foreign pids. */
    std::uint32_t
    threadOf(Pid pid, Tid tid)
    {
        if (pid == 0)
            return kNone;
        return threadMemo_.get(pid, tid, [&] {
            if (!pids_.empty() && pids_.count(pid) == 0)
                return kNone;
            auto [it, fresh] = threadIds_.try_emplace(
                packPair(pid, tid),
                static_cast<std::uint32_t>(threads_.size()));
            if (fresh)
                threads_.push_back(Thread{Key{pid, tid}});
            return it->second;
        });
    }

    std::uint32_t
    edgeOf(std::uint32_t from, std::uint32_t to)
    {
        // The memo's zero key marks a free slot, so offset from by 1.
        return edgeMemo_.get(from + 1, to, [&] {
            auto [it, fresh] = edgeIds_.try_emplace(
                packPair(from, to),
                static_cast<std::uint32_t>(edges_.size()));
            if (fresh)
                edges_.push_back(Edge{from, to, EdgeAgg{}});
            return it->second;
        });
    }

    const trace::TraceBundle &bundle_;
    const trace::PidSet &pids_;
    detail::StreamTotals totals_;
    std::vector<Thread> threads_;
    std::unordered_map<std::uint64_t, std::uint32_t> threadIds_;
    analysis::detail::TargetMemo threadMemo_;
    std::vector<Edge> edges_;
    std::unordered_map<std::uint64_t, std::uint32_t> edgeIds_;
    analysis::detail::TargetMemo edgeMemo_;
    std::vector<Occupant> flat_;
    /** CPU ids at or past kMaxFlatCpus. */
    std::map<trace::CpuId, Occupant> overflow_;
};

} // namespace

double
BlockingReport::windowSeconds() const
{
    return sim::toSeconds(t1 - t0);
}

double
BlockingReport::waitTlp() const
{
    double window = windowSeconds();
    return window > 0.0 ? sim::toSeconds(totalWaitNs) / window : 0.0;
}

double
BlockingReport::serialFraction() const
{
    double window = windowSeconds();
    return window > 0.0 ? sim::toSeconds(criticalPathNs) / window
                        : 0.0;
}

const char *
BlockingReport::classification() const
{
    return bottleneckLimited() ? "bottleneck-limited"
                               : "structurally serial";
}

BlockingReport
analyze(const TraceIndex &index, const trace::PidSet &pids,
        unsigned threads)
{
    // The dense sweep is sequential and already a fraction of a
    // decode; every fold is an integer sum, so the report does not
    // depend on @p threads.
    (void)threads;
    const trace::TraceBundle &bundle = index.bundle();
    obs::Span span("blocking.analyze", obs::SpanKind::Query,
                   bundle.cswitches.size());
    DenseSweep sweep(bundle, pids);
    sweep.run();
    return sweep.finish();
}

BlockingReport
analyze(const Session &session, const trace::PidSet &pids,
        unsigned threads)
{
    return analyze(session.index(), pids, threads);
}

namespace {

std::string
fmtMs(std::uint64_t ns)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(ns) / 1e6);
    return buf;
}

std::string
fmt3(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

std::string
threadLabel(const ThreadBlocking &t)
{
    return t.name + "/tid" + std::to_string(t.tid);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out;
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

std::string
hopLabel(const BlockingReport &report, const CriticalPathHop &hop)
{
    if (const ThreadBlocking *t =
            findThread(report, hop.pid, hop.tid))
        return threadLabel(*t);
    return "pid" + std::to_string(hop.pid) + "/tid" +
           std::to_string(hop.tid);
}

} // namespace

std::string
renderReport(const BlockingReport &report, std::size_t top)
{
    std::string out;
    out += "window " + fmt3(report.windowSeconds()) + " s, " +
           std::to_string(report.numCpus) + " cpus, " +
           std::to_string(report.dispatches) + " dispatches\n";
    out += "on-cpu " + fmtMs(report.totalRunNs) + " ms, ready-wait " +
           fmtMs(report.totalWaitNs) + " ms (wait-TLP " +
           fmt3(report.waitTlp()) + ")\n";
    out += "critical path " + fmtMs(report.criticalPathNs) +
           " ms across " +
           std::to_string(report.criticalPathSwitches) +
           " wakeups (serial fraction " +
           fmt3(report.serialFraction()) + ")\n";
    out += std::string("classification: ") + report.classification() +
           "\n";

    out += "\ntop blocked threads (victims):\n";
    std::size_t shown = 0;
    for (const ThreadBlocking &t : report.threads) {
        if (shown >= top)
            break;
        if (t.waitNs == 0)
            break; // sorted by waitNs: nothing further waited
        ++shown;
        out += "  " + threadLabel(t) + "  wait " + fmtMs(t.waitNs) +
               " ms over " + std::to_string(t.dispatches) +
               " dispatches (max " + fmtMs(t.maxWaitNs) +
               " ms), on-cpu " + fmtMs(t.runNs) + " ms\n";
    }
    if (shown == 0)
        out += "  (none)\n";

    out += "\ntop blocking threads (culprits):\n";
    std::vector<const ThreadBlocking *> culprits;
    for (const ThreadBlocking &t : report.threads) {
        if (t.blockedNs > 0)
            culprits.push_back(&t);
    }
    std::sort(culprits.begin(), culprits.end(),
              [](const ThreadBlocking *a, const ThreadBlocking *b) {
                  if (a->blockedNs != b->blockedNs)
                      return a->blockedNs > b->blockedNs;
                  if (a->pid != b->pid)
                      return a->pid < b->pid;
                  return a->tid < b->tid;
              });
    if (culprits.size() > top)
        culprits.resize(top);
    for (const ThreadBlocking *t : culprits) {
        out += "  " + threadLabel(*t) + "  others waited " +
               fmtMs(t->blockedNs) + " ms behind it, on-cpu " +
               fmtMs(t->runNs) + " ms\n";
    }
    if (culprits.empty())
        out += "  (none)\n";

    out += "\nhottest wakeup edges:\n";
    std::size_t edgeCount = std::min(top, report.edges.size());
    for (std::size_t i = 0; i < edgeCount; ++i) {
        const WakeupEdge &e = report.edges[i];
        if (e.waitNs == 0)
            break;
        std::string from = "pid" + std::to_string(e.fromPid) +
                           "/tid" + std::to_string(e.fromTid);
        std::string to = "pid" + std::to_string(e.toPid) + "/tid" +
                         std::to_string(e.toTid);
        if (const ThreadBlocking *t =
                findThread(report, e.fromPid, e.fromTid))
            from = threadLabel(*t);
        if (const ThreadBlocking *t =
                findThread(report, e.toPid, e.toTid))
            to = threadLabel(*t);
        out += "  " + from + " -> " + to + "  " + fmtMs(e.waitNs) +
               " ms over " + std::to_string(e.count) + " wakeups" +
               (e.fromPid == e.toPid && e.fromTid == e.toTid
                    ? " (self)"
                    : "") +
               "\n";
    }
    if (edgeCount == 0 ||
        (edgeCount > 0 && report.edges[0].waitNs == 0))
        out += "  (none)\n";

    out += "\ncritical path (root -> terminal):\n";
    if (report.criticalPath.empty()) {
        out += "  (empty)\n";
    } else {
        // The backwalk can cycle through a tight wakeup loop for all
        // 64 capped hops; the text report shows the head and tail of
        // the path instead of the full loop (the JSON has it all).
        constexpr std::size_t kMaxHops = 12;
        std::size_t n = report.criticalPath.size();
        if (n <= kMaxHops) {
            for (const CriticalPathHop &hop : report.criticalPath)
                out += "  " + hopLabel(report, hop) + "\n";
        } else {
            for (std::size_t i = 0; i < kMaxHops - 2; ++i)
                out += "  " +
                       hopLabel(report, report.criticalPath[i]) +
                       "\n";
            out += "  ... (" +
                   std::to_string(n - (kMaxHops - 1)) +
                   " more hops)\n";
            out += "  " +
                   hopLabel(report, report.criticalPath[n - 1]) +
                   "\n";
        }
    }
    return out;
}

std::string
renderReportJson(const BlockingReport &report, std::size_t top)
{
    std::string out = "{\n";
    out += "  \"window_s\": " + fmt3(report.windowSeconds()) + ",\n";
    out += "  \"num_cpus\": " + std::to_string(report.numCpus) +
           ",\n";
    out += "  \"dispatches\": " + std::to_string(report.dispatches) +
           ",\n";
    out += "  \"run_ms\": " + fmtMs(report.totalRunNs) + ",\n";
    out += "  \"wait_ms\": " + fmtMs(report.totalWaitNs) + ",\n";
    out += "  \"wait_tlp\": " + fmt3(report.waitTlp()) + ",\n";
    out += "  \"critical_path_ms\": " + fmtMs(report.criticalPathNs) +
           ",\n";
    out += "  \"critical_path_switches\": " +
           std::to_string(report.criticalPathSwitches) + ",\n";
    out += "  \"serial_fraction\": " + fmt3(report.serialFraction()) +
           ",\n";
    out += "  \"classification\": \"" +
           std::string(report.classification()) + "\",\n";

    out += "  \"threads\": [\n";
    std::size_t count = std::min(top, report.threads.size());
    for (std::size_t i = 0; i < count; ++i) {
        const ThreadBlocking &t = report.threads[i];
        out += "    {\"pid\": " + std::to_string(t.pid) +
               ", \"tid\": " + std::to_string(t.tid) +
               ", \"name\": \"" + jsonEscape(t.name) +
               "\", \"run_ms\": " + fmtMs(t.runNs) +
               ", \"wait_ms\": " + fmtMs(t.waitNs) +
               ", \"max_wait_ms\": " + fmtMs(t.maxWaitNs) +
               ", \"blocked_behind_ms\": " + fmtMs(t.blockedNs) +
               ", \"dispatches\": " + std::to_string(t.dispatches) +
               "}";
        out += i + 1 < count ? ",\n" : "\n";
    }
    out += "  ],\n";

    out += "  \"edges\": [\n";
    count = std::min(top, report.edges.size());
    for (std::size_t i = 0; i < count; ++i) {
        const WakeupEdge &e = report.edges[i];
        out += "    {\"from_pid\": " + std::to_string(e.fromPid) +
               ", \"from_tid\": " + std::to_string(e.fromTid) +
               ", \"to_pid\": " + std::to_string(e.toPid) +
               ", \"to_tid\": " + std::to_string(e.toTid) +
               ", \"count\": " + std::to_string(e.count) +
               ", \"wait_ms\": " + fmtMs(e.waitNs) + "}";
        out += i + 1 < count ? ",\n" : "\n";
    }
    out += "  ],\n";

    out += "  \"critical_path\": [";
    for (std::size_t i = 0; i < report.criticalPath.size(); ++i) {
        const CriticalPathHop &hop = report.criticalPath[i];
        out += i == 0 ? "" : ", ";
        out += "{\"pid\": " + std::to_string(hop.pid) +
               ", \"tid\": " + std::to_string(hop.tid) + "}";
    }
    out += "]\n";
    out += "}\n";
    return out;
}

} // namespace deskpar::analysis::blocking
