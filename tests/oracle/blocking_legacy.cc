#include "oracle/blocking_legacy.hh"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace deskpar::analysis::blocking::legacy {

using detail::EdgeAgg;
using detail::Key;
using sim::SimTime;
using trace::Pid;
using trace::Tid;

namespace {

struct ChainState
{
    std::uint64_t chainNs = 0;
    std::uint64_t links = 0;
    Key prev{0, 0};
    bool hasPrev = false;
};

/**
 * Everything one pass of the reference sweep yields, in ordered maps
 * keyed by (pid, tid). The per-thread wait folds are not done here:
 * the wait samples stay a flat stream-ordered vector that analyze
 * folds afterwards.
 */
struct SweepResult : detail::StreamTotals
{
    std::map<Key, std::uint64_t> runNs;
    std::map<Key, std::uint64_t> blockedNs;
    std::map<std::pair<Key, Key>, EdgeAgg> edges;
    std::map<Key, ChainState> chains;
    /** (thread, wait ns) per target switch-in, stream order. */
    std::vector<std::pair<Key, std::uint64_t>> waitSamples;
};

/**
 * The reference chain sweep: a per-CPU running-thread state machine
 * over the cswitch stream, every per-thread aggregate in an ordered
 * map.
 */
void
sweep(const trace::TraceBundle &bundle, const trace::PidSet &pids,
      SweepResult &r)
{
    auto target = [&pids](Pid pid, Tid tid) {
        (void)tid;
        if (pid == 0)
            return false;
        return pids.empty() || pids.count(pid) != 0;
    };

    struct Occupant
    {
        Pid pid = 0;
        Tid tid = 0;
        SimTime since = 0;
        bool valid = false;
    };
    // Ordered so the end-of-stream close below visits CPUs
    // deterministically.
    std::map<trace::CpuId, Occupant> cpus;

    auto closeSegment = [&r, &target](const Occupant &occ,
                                      SimTime now) {
        // Disordered streams can invert a segment; drop it rather
        // than wrap the unsigned subtraction.
        if (!occ.valid || now <= occ.since)
            return;
        if (!target(occ.pid, occ.tid))
            return;
        std::uint64_t seg = now - occ.since;
        Key key{occ.pid, occ.tid};
        r.runNs[key] += seg;
        r.totalRunNs += seg;
        r.chains[key].chainNs += seg;
    };

    for (const auto &e : bundle.cswitches) {
        r.observe(e.timestamp);
        Occupant &occ = cpus[e.cpu];
        closeSegment(occ, e.timestamp);

        if (target(e.newPid, e.newTid)) {
            // Readers clamp inverted ready times; clamp again so a
            // hand-built bundle cannot wrap the wait.
            SimTime ready = std::min(e.readyTime, e.timestamp);
            std::uint64_t wait = e.timestamp - ready;
            Key to{e.newPid, e.newTid};
            r.waitSamples.emplace_back(to, wait);
            r.totalWaitNs += wait;
            if (e.oldPid != 0 && target(e.oldPid, e.oldTid)) {
                // The wakeup edge: old held this CPU for the tail of
                // the wait, so the chain may continue through it.
                Key from{e.oldPid, e.oldTid};
                EdgeAgg &edge = r.edges[{from, to}];
                ++edge.count;
                edge.waitNs += wait;
                r.blockedNs[from] += wait;
                ChainState &fromChain = r.chains[from];
                ChainState &toChain = r.chains[to];
                if (fromChain.chainNs > toChain.chainNs) {
                    toChain.chainNs = fromChain.chainNs;
                    toChain.links = fromChain.links + 1;
                    toChain.prev = from;
                    toChain.hasPrev = true;
                }
            }
        }

        if (e.newPid == 0) {
            occ.valid = false;
        } else {
            occ = Occupant{e.newPid, e.newTid, e.timestamp, true};
        }
    }

    // Threads still on a CPU when the trace stops: their final
    // segment runs to the observation-window end (the header's if it
    // has one, else the last timestamp the stream showed us).
    SimTime stop = std::max(bundle.stopTime, r.maxTs);
    for (const auto &[cpu, occ] : cpus)
        closeSegment(occ, stop);
    r.cpusSeen = cpus.size();
}

/**
 * Critical path of the reference sweep: the thread whose chain is
 * longest; ties resolve to the lowest (pid, tid) by map order. The
 * predecessor pointers summarize a DP whose state mutates as the
 * sweep advances, so the backwalk is a bounded summary, not an exact
 * segment list.
 */
void
legacyCriticalPath(const SweepResult &r, BlockingReport &report)
{
    Key best{0, 0};
    const ChainState *bestChain = nullptr;
    for (const auto &[key, chain] : r.chains) {
        if (!bestChain || chain.chainNs > bestChain->chainNs) {
            best = key;
            bestChain = &chain;
        }
    }
    if (bestChain && bestChain->chainNs > 0) {
        report.criticalPathNs = bestChain->chainNs;
        report.criticalPathSwitches = bestChain->links;
        std::vector<CriticalPathHop> hops;
        Key cur = best;
        for (std::size_t i = 0; i < detail::kMaxPathHops; ++i) {
            hops.push_back(CriticalPathHop{cur.first, cur.second});
            auto it = r.chains.find(cur);
            if (it == r.chains.end() || !it->second.hasPrev)
                break;
            cur = it->second.prev;
        }
        std::reverse(hops.begin(), hops.end());
        report.criticalPath = std::move(hops);
    }
}

std::uint64_t
lookupNs(const std::map<Key, std::uint64_t> &map, Key key)
{
    auto it = map.find(key);
    return it == map.end() ? 0 : it->second;
}

/** Sorted distinct thread keys the reference report has rows for. */
std::vector<Key>
threadKeys(const SweepResult &r)
{
    std::vector<Key> keys;
    for (const auto &[key, ns] : r.runNs)
        keys.push_back(key);
    for (const auto &[key, ns] : r.blockedNs)
        keys.push_back(key);
    for (const auto &[key, wait] : r.waitSamples)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

} // namespace

BlockingReport
analyze(const trace::TraceBundle &bundle, const trace::PidSet &pids)
{
    SweepResult r;
    sweep(bundle, pids, r);

    // Inline sequential fold: one ordered map, stream-order adds.
    struct WaitAgg
    {
        std::uint64_t waitNs = 0;
        std::uint64_t maxWaitNs = 0;
        std::uint64_t dispatches = 0;
    };
    std::map<Key, WaitAgg> waits;
    for (const auto &[key, wait] : r.waitSamples) {
        WaitAgg &agg = waits[key];
        agg.waitNs += wait;
        agg.maxWaitNs = std::max(agg.maxWaitNs, wait);
        ++agg.dispatches;
    }

    std::vector<ThreadBlocking> rows;
    for (Key key : threadKeys(r)) {
        ThreadBlocking row;
        row.pid = key.first;
        row.tid = key.second;
        row.runNs = lookupNs(r.runNs, key);
        row.blockedNs = lookupNs(r.blockedNs, key);
        auto it = waits.find(key);
        if (it != waits.end()) {
            row.waitNs = it->second.waitNs;
            row.maxWaitNs = it->second.maxWaitNs;
            row.dispatches = it->second.dispatches;
        }
        rows.push_back(std::move(row));
    }
    std::vector<WakeupEdge> edges;
    edges.reserve(r.edges.size());
    for (const auto &[key, agg] : r.edges)
        edges.push_back(detail::makeEdge(key.first, key.second, agg));

    r.dispatches = r.waitSamples.size();
    BlockingReport report;
    detail::finishReport(bundle, r, std::move(rows), std::move(edges),
                         report);
    legacyCriticalPath(r, report);
    return report;
}

} // namespace deskpar::analysis::blocking::legacy
