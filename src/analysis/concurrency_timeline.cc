#include "analysis/concurrency_timeline.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace deskpar::analysis::detail {

using sim::SimDuration;
using sim::SimTime;

namespace {

constexpr std::uint32_t kNoGroup = ~static_cast<std::uint32_t>(0);

/**
 * The cswitch state machine behind every column pass. @p groupOf maps
 * a switch-in's (pid, tid) to the index of the group it targets, or
 * kNoGroup. Per CPU the sweep tracks which group currently occupies
 * it; each change of that group at a timestamp emits -1 to the old
 * group and +1 to the new one, and the same transition closes the old
 * group's burst and opens the new one's. With a single group this is
 * exactly the per-filter busy-flag sweep. Returns one PendingColumns
 * per group, each delta list in stream order.
 */
template <typename GroupOf>
std::vector<PendingColumns>
sweepGroups(const trace::TraceBundle &bundle, CpuMask mask,
            const ColumnNeeds &needs, GroupOf groupOf,
            std::size_t groupCount)
{
    std::vector<PendingColumns> groups(groupCount);
    // A lone group gets at most one delta, dispatch and wait per
    // switch; finishColumns returns a narrow filter's surplus.
    if (groupCount == 1) {
        const std::size_t n = bundle.cswitches.size();
        PendingColumns &lone = groups[0];
        lone.deltas.reserve(n);
        if (needs.dispatches)
            lone.columns.dispatches.reserve(n);
        if (needs.waits) {
            lone.columns.waits.begin.reserve(n);
            lone.columns.waits.end.reserve(n);
        }
    }
    const unsigned cutoff = bundle.numLogicalCpus;
    std::vector<std::uint32_t> current(cutoff, kNoGroup);
    std::vector<SimTime> burstStart;
    if (needs.bursts)
        burstStart.assign(cutoff, 0);
    bool sorted = true;
    SimTime prev_ts = 0;
    std::uint64_t outOfRange = 0;

    for (const auto &e : bundle.cswitches) {
        if (!cpuInMask(mask, e.cpu))
            continue;
        std::uint32_t group = groupOf(e.newPid, e.newTid);
        if (group != kNoGroup) {
            FilterColumns &cols = groups[group].columns;
            if (needs.dispatches)
                cols.dispatches.push_back(e.timestamp);
            if (needs.waits) {
                // Readers clamp inverted ready times; clamp again so
                // a hand-built bundle cannot wrap the wait.
                cols.waits.begin.push_back(
                    std::min(e.readyTime, e.timestamp));
                cols.waits.end.push_back(e.timestamp);
            }
        }
        if (e.timestamp < prev_ts)
            sorted = false;
        prev_ts = e.timestamp;
        if (cutoff == 0)
            continue;
        if (e.cpu >= cutoff) {
            ++outOfRange;
            continue;
        }
        std::uint32_t &occupant = current[e.cpu];
        if (occupant == group)
            continue;
        if (occupant != kNoGroup) {
            PendingColumns &old = groups[occupant];
            old.deltas.emplace_back(e.timestamp, -1);
            // Disordered streams can produce inverted bursts; those
            // are dropped on emission.
            if (needs.bursts && e.timestamp > burstStart[e.cpu])
                old.columns.bursts.bursts.push_back(
                    Interval{burstStart[e.cpu], e.timestamp});
        }
        if (group != kNoGroup) {
            groups[group].deltas.emplace_back(e.timestamp, 1);
            if (needs.bursts)
                burstStart[e.cpu] = e.timestamp;
        }
        occupant = group;
    }

    for (PendingColumns &pending : groups) {
        pending.sorted = sorted;
        pending.columns.timeline.cutoff = cutoff;
        pending.columns.timeline.outOfRangeCpuEvents = outOfRange;
    }
    if (needs.bursts) {
        // CPUs still busy at the end of the stream: close the burst
        // at the observation-window end.
        for (unsigned cpu = 0; cpu < cutoff; ++cpu) {
            if (current[cpu] != kNoGroup &&
                bundle.stopTime > burstStart[cpu])
                groups[current[cpu]].columns.bursts.bursts.push_back(
                    Interval{burstStart[cpu], bundle.stopTime});
        }
    }
    return groups;
}

template <typename T>
std::uint64_t
vectorBytes(const std::vector<T> &v)
{
    return v.capacity() * sizeof(T);
}

/**
 * Give back a reserve that overshot the column by more than vector
 * growth would have, so a narrow filter's columns cost (and report
 * through FilterColumns::bytes) about what they hold.
 */
template <typename T>
void
shrinkSurplus(std::vector<T> &v)
{
    if (v.capacity() / 2 > v.size())
        v.shrink_to_fit();
}

} // namespace

std::uint64_t
FilterColumns::bytes() const
{
    return vectorBytes(timeline.times) + vectorBytes(timeline.levels) +
           vectorBytes(timeline.cum) + vectorBytes(dispatches) +
           vectorBytes(bursts.bursts) + vectorBytes(bursts.maxEnd) +
           vectorBytes(waits.begin) + vectorBytes(waits.end) +
           vectorBytes(waits.minBegin);
}

FilterColumns
buildFilterColumns(const trace::TraceBundle &bundle,
                   const TimelineSpec &spec, const ColumnNeeds &needs)
{
    std::vector<PendingColumns> one = sweepGroups(
        bundle, spec.cpuMask, needs,
        [&spec](trace::Pid pid, trace::Tid tid) {
            return isTargetSwitch(spec, pid, tid) ? 0u : kNoGroup;
        },
        1);
    finishColumns(needs, one[0]);
    return std::move(one[0].columns);
}

std::vector<PendingColumns>
sweepPartition(const trace::TraceBundle &bundle, PartitionBy by,
               const std::vector<std::pair<trace::Pid, trace::Tid>> &keys,
               CpuMask mask, const ColumnNeeds &needs)
{
    // Group lookup: a binary search over the sorted keys, memoized.
    TargetMemo memo;
    const bool byThread = by == PartitionBy::Thread;
    auto groupOf = [&](trace::Pid pid, trace::Tid tid) {
        if (pid == 0)
            return kNoGroup;
        if (!byThread)
            tid = 0;
        return memo.get(pid, tid, [&] {
            auto it = std::lower_bound(
                keys.begin(), keys.end(), std::make_pair(pid, tid),
                [byThread](const auto &a, const auto &b) {
                    return byThread ? a < b : a.first < b.first;
                });
            bool found = it != keys.end() && it->first == pid &&
                         (!byThread || it->second == tid);
            return found ? static_cast<std::uint32_t>(it - keys.begin())
                         : kNoGroup;
        });
    };
    return sweepGroups(bundle, mask, needs, groupOf, keys.size());
}

void
finishColumns(const ColumnNeeds &needs, PendingColumns &pending)
{
    FilterColumns &cols = pending.columns;
    // An in-order stream emits dispatches and waits in timestamp
    // order, so both sorts below would be the identity permutation.
    if (needs.dispatches) {
        if (!pending.sorted)
            std::sort(cols.dispatches.begin(), cols.dispatches.end());
        shrinkSurplus(cols.dispatches);
    }
    if (needs.waits) {
        // Sort by end (a stable sort keeps equal-end rows paired) and
        // compute the suffix-minimum begin column.
        WaitColumns &waits = cols.waits;
        const std::size_t n = waits.end.size();
        if (!pending.sorted) {
            std::vector<std::pair<SimTime, SimTime>> rows;
            rows.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                rows.emplace_back(waits.end[i], waits.begin[i]);
            std::stable_sort(rows.begin(), rows.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first < b.first;
                             });
            for (std::size_t i = 0; i < n; ++i) {
                waits.end[i] = rows[i].first;
                waits.begin[i] = rows[i].second;
            }
        }
        shrinkSurplus(waits.begin);
        shrinkSurplus(waits.end);
        waits.minBegin.resize(n);
        SimTime mn = 0;
        for (std::size_t i = n; i-- > 0;) {
            mn = i + 1 == n ? waits.begin[i]
                            : std::min(mn, waits.begin[i]);
            waits.minBegin[i] = mn;
        }
    }
    if (needs.bursts) {
        BurstColumns &bursts = cols.bursts;
        std::sort(bursts.bursts.begin(), bursts.bursts.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.begin < b.begin;
                  });
        bursts.maxEnd.reserve(bursts.bursts.size());
        SimTime mx = 0;
        for (std::size_t i = 0; i < bursts.bursts.size(); ++i) {
            mx = i == 0 ? bursts.bursts[i].end
                        : std::max(mx, bursts.bursts[i].end);
            bursts.maxEnd.push_back(mx);
        }
    }

    ConcurrencyTimeline &tl = cols.timeline;
    if (tl.cutoff == 0)
        return; // every query must take the sweep path (it fatals)

    // The reference sweep stable-sorts its (clamped) deltas; sorting
    // the unclamped emission stably yields the same per-timestamp
    // group sums for every window, which is all the level function
    // depends on.
    std::vector<std::pair<SimTime, int>> deltas =
        std::move(pending.deltas);
    if (!pending.sorted) {
        std::stable_sort(deltas.begin(), deltas.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
    }

    // Compress equal-timestamp groups into breakpoints. A negative
    // cumulative level means the (disordered) stream closed a CPU
    // before opening it; poison the timeline so queries fall back.
    long long level = 0;
    for (std::size_t i = 0; i < deltas.size();) {
        SimTime ts = deltas[i].first;
        long long sum = 0;
        for (; i < deltas.size() && deltas[i].first == ts; ++i)
            sum += deltas[i].second;
        if (sum == 0)
            continue;
        level += sum;
        if (level < 0) {
            tl.times.clear();
            tl.levels.clear();
            return;
        }
        tl.times.push_back(ts);
        tl.levels.push_back(static_cast<int>(level));
    }
    deltas = {};
    tl.usable = true;

    // Checkpoint rows: running per-level time at every kStride-th
    // breakpoint, one entry per level up to the highest one reached.
    // Integer sums, so checkpoint differences decompose a window
    // exactly.
    const unsigned cutoff = tl.cutoff;
    auto clampLvl = [cutoff](int l) {
        return static_cast<unsigned>(
            std::clamp(l, 0, static_cast<int>(cutoff)));
    };
    const std::size_t n = tl.times.size();
    const std::size_t W = checkpointWidth(tl.levels, cutoff);
    tl.width = W;
    tl.cum.assign(checkpointRows(n) * W, 0);
    std::vector<SimDuration> acc(W, 0);
    for (std::size_t j = 0; j < n; ++j) {
        if (j % ConcurrencyTimeline::kStride == 0) {
            std::copy(acc.begin(), acc.end(),
                      tl.cum.begin() +
                          static_cast<std::ptrdiff_t>(
                              (j / ConcurrencyTimeline::kStride) *
                              W));
        }
        if (j + 1 < n)
            acc[clampLvl(tl.levels[j])] += tl.times[j + 1] - tl.times[j];
    }
}

std::size_t
checkpointWidth(const std::vector<int> &levels, unsigned cutoff)
{
    if (levels.empty())
        return 0;
    int top = 0;
    for (int level : levels)
        top = std::max(top, level);
    return static_cast<std::size_t>(
               std::min(top, static_cast<int>(cutoff))) +
           1;
}

ConcurrencyProfile
queryConcurrencyTimeline(const ConcurrencyTimeline &tl, SimTime t0,
                         SimTime t1)
{
    constexpr std::size_t kStride = ConcurrencyTimeline::kStride;
    const unsigned num_cpus = tl.cutoff;
    const std::size_t L = num_cpus + 1;
    const std::size_t W = tl.width;

    ConcurrencyProfile profile;
    profile.numCpus = num_cpus;
    profile.window = t1 - t0;
    profile.c.assign(L, 0.0);
    profile.outOfRangeCpuEvents = tl.outOfRangeCpuEvents;

    std::vector<SimDuration> timeAt(L, 0);
    const std::vector<SimTime> &times = tl.times;
    const std::size_t n = times.size();
    auto clampLvl = [num_cpus](int level) {
        return static_cast<unsigned>(
            std::clamp(level, 0, static_cast<int>(num_cpus)));
    };

    // First breakpoint strictly inside the window.
    std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(times.begin(), times.end(), t0) -
        times.begin());

    // Head: the tail of the segment containing t0.
    SimTime headEnd = (idx < n && times[idx] < t1) ? times[idx] : t1;
    int headLevel = idx == 0 ? 0 : tl.levels[idx - 1];
    timeAt[clampLvl(headLevel)] += headEnd - t0;

    if (idx < n && times[idx] < t1) {
        std::size_t j = idx; // position: exactly at breakpoint j
        while (true) {
            if (j % kStride == 0) {
                // Jump over whole checkpoint rows: the largest
                // aligned breakpoint k2*kStride still <= t1.
                std::size_t k1 = j / kStride;
                std::size_t maxk = (n - 1) / kStride;
                std::size_t k2 = k1;
                for (std::size_t lo = k1 + 1, hi = maxk; lo <= hi;) {
                    std::size_t mid = lo + (hi - lo) / 2;
                    if (times[mid * kStride] <= t1) {
                        k2 = mid;
                        lo = mid + 1;
                    } else {
                        hi = mid - 1;
                    }
                }
                if (k2 > k1) {
                    const SimDuration *a = &tl.cum[k1 * W];
                    const SimDuration *b = &tl.cum[k2 * W];
                    for (std::size_t l = 0; l < W; ++l)
                        timeAt[l] += b[l] - a[l];
                    j = k2 * kStride;
                    continue;
                }
            }
            // Segment j = [times[j], times[j+1)); the last level
            // extends past the final breakpoint.
            SimTime segEnd = (j + 1 < n) ? times[j + 1] : t1;
            if (segEnd >= t1) {
                timeAt[clampLvl(tl.levels[j])] += t1 - times[j];
                break;
            }
            timeAt[clampLvl(tl.levels[j])] += segEnd - times[j];
            ++j;
        }
    }

    double window = static_cast<double>(profile.window);
    for (std::size_t i = 0; i < L; ++i)
        profile.c[i] = static_cast<double>(timeAt[i]) / window;
    return profile;
}

ConcurrencyProfile
sweepConcurrency(const trace::TraceBundle &bundle,
                 const TimelineSpec &spec, SimTime t0, SimTime t1,
                 unsigned num_cpus)
{
    // Sweep the per-CPU run timelines into +1/-1 deltas at the times
    // a target thread starts/stops occupying a CPU. A flat sorted
    // vector replaces the old std::map: one O(n log n) sort instead
    // of a red-black-tree insert per context switch, and the per-CPU
    // busy flags are a flat array indexed by CpuId.
    std::vector<std::pair<SimTime, int>> deltas;
    deltas.reserve(bundle.cswitches.size());
    std::vector<std::uint8_t> cpuBusy(num_cpus, 0);
    std::uint64_t out_of_range = 0;

    for (const auto &e : bundle.cswitches) {
        if (!cpuInMask(spec.cpuMask, e.cpu))
            continue;
        if (e.cpu >= cpuBusy.size()) {
            // A cpu id past the header's CPU count contradicts the
            // trace; count it instead of growing the histogram and
            // clamp-folding the phantom CPU into the top level.
            ++out_of_range;
            continue;
        }
        std::uint8_t now_busy =
            isTargetSwitch(spec, e.newPid, e.newTid) ? 1 : 0;
        if (cpuBusy[e.cpu] == now_busy)
            continue;
        SimTime ts = std::clamp(e.timestamp, t0, t1);
        deltas.emplace_back(ts, now_busy ? 1 : -1);
        cpuBusy[e.cpu] = now_busy;
    }
    // Threads still on a CPU at the window end: close at t1 (the
    // delta list records the +1; no -1 needed since the sweep ends).

    // cswitches are chronological, so a stable sort keeps each CPU's
    // +1 ahead of its matching -1 even when clamping collapses both
    // onto a window edge.
    std::stable_sort(deltas.begin(), deltas.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    ConcurrencyProfile profile;
    profile.numCpus = num_cpus;
    profile.window = t1 - t0;
    profile.c.assign(num_cpus + 1, 0.0);
    profile.outOfRangeCpuEvents = out_of_range;

    SimTime prev = t0;
    int level = 0;
    std::vector<SimDuration> timeAt(num_cpus + 1, 0);
    for (const auto &[ts, delta] : deltas) {
        if (ts > prev) {
            if (level < 0)
                deskpar::panic("concurrency: negative level");
            auto lvl = static_cast<unsigned>(std::clamp(
                level, 0, static_cast<int>(num_cpus)));
            timeAt[lvl] += ts - prev;
            prev = ts;
        }
        level += delta;
    }
    if (level < 0)
        deskpar::panic("concurrency: negative level");
    if (t1 > prev) {
        auto lvl = static_cast<unsigned>(
            std::clamp(level, 0, static_cast<int>(num_cpus)));
        timeAt[lvl] += t1 - prev;
    }

    double window = static_cast<double>(profile.window);
    for (unsigned i = 0; i <= num_cpus; ++i)
        profile.c[i] = static_cast<double>(timeAt[i]) / window;
    return profile;
}

ConcurrencyProfile
windowedConcurrency(const trace::TraceBundle &bundle,
                    const TimelineSpec &spec,
                    const ConcurrencyTimeline &timeline, SimTime t0,
                    SimTime t1)
{
    if (bundle.numLogicalCpus == 0)
        deskpar::fatal("concurrency: unknown CPU count");
    if (t1 <= t0)
        deskpar::fatal("concurrency: empty window");
    if (timeline.usable)
        return queryConcurrencyTimeline(timeline, t0, t1);
    return sweepConcurrency(bundle, spec, t0, t1, bundle.numLogicalCpus);
}

} // namespace deskpar::analysis::detail
