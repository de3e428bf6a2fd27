#include "analysis/gpu_util.hh"

#include "analysis/intervals.hh"

namespace deskpar::analysis {

namespace detail {

GpuUtilization
foldGpuPackets(const TraceBundle &bundle, const PidSet &pids,
               sim::SimTime t0, sim::SimTime t1, std::size_t first,
               std::size_t last)
{
    GpuUtilization out;
    double window = static_cast<double>(t1 - t0);

    std::vector<Interval> busy;
    for (std::size_t i = first; i < last; ++i) {
        const auto &e = bundle.gpuPackets[i];
        if (!pids.empty() && pids.count(e.pid) == 0)
            continue;
        Interval iv = Interval{e.start, e.finish}.clampTo(t0, t1);
        if (iv.empty())
            continue;
        ++out.packetCount;
        double share = static_cast<double>(iv.length()) / window;
        out.aggregateRatio += share;
        out.perEngine[static_cast<unsigned>(e.engine)] += share;
        busy.push_back(iv);
    }

    out.busyRatio =
        static_cast<double>(unionLengthInPlace(busy)) / window;
    out.overlapped = out.aggregateRatio > out.busyRatio + 1e-9;
    return out;
}

} // namespace detail

} // namespace deskpar::analysis
