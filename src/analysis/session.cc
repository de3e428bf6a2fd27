#include "analysis/session.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "trace/filter.hh"

namespace deskpar::analysis {

namespace {

/** Tile [startTime, stopTime) with @p window and sample each tile. */
template <typename PerWindow>
TimeSeries
buildSeries(const TraceBundle &bundle, sim::SimDuration window,
            std::string name, PerWindow per_window)
{
    if (window == 0)
        deskpar::fatal("timeseries: zero window");
    TimeSeries series;
    series.name = std::move(name);
    series.window = window;
    for (sim::SimTime t = bundle.startTime; t < bundle.stopTime;
         t += window) {
        sim::SimTime end = std::min(t + window, bundle.stopTime);
        if (end <= t)
            break;
        series.points.push_back(TimePoint{t, per_window(t, end)});
    }
    return series;
}

} // namespace

Session::Session(const TraceBundle &bundle) : bundle_(&bundle) {}

Session::Session(TraceBundle &&bundle)
    : owned_(std::make_unique<TraceBundle>(std::move(bundle))),
      bundle_(owned_.get())
{}

Session::~Session() = default;

const TraceIndex &
Session::index() const
{
    std::call_once(indexOnce_, [this] {
        index_ = std::make_unique<TraceIndex>(*bundle_);
    });
    return *index_;
}

void
Session::adoptIndex(std::unique_ptr<TraceIndex> index) const
{
    bool installed = false;
    std::call_once(indexOnce_, [&] {
        index_ = std::move(index);
        installed = true;
    });
    if (!installed)
        deskpar::fatal("Session::adoptIndex: index already built");
}

PidSet
Session::pids(const std::string &prefix) const
{
    return prefix.empty() ? trace::allApplicationPids(*bundle_)
                          : trace::pidsWithPrefix(*bundle_, prefix);
}

AppMetrics
Session::app(const PidSet &pids) const
{
    // One cswitch sweep, one frame sweep and one GPU column build fill
    // every field; columns already cached on the index are reused.
    const TraceIndex &idx = index();
    AppMetrics metrics;
    metrics.concurrency = idx.concurrency(pids);
    metrics.gpu = idx.gpuUtil(pids);
    metrics.frames = idx.frameStats(pids);
    return metrics;
}

AppMetrics
Session::app(const std::string &prefix) const
{
    PidSet set;
    if (!prefix.empty()) {
        set = trace::pidsWithPrefix(*bundle_, prefix);
        if (set.empty())
            deskpar::fatal("Session::app: no process named " + prefix);
    }
    return app(set);
}

ConcurrencyProfile
Session::concurrency(const PidSet &pids, sim::SimTime t0,
                     sim::SimTime t1) const
{
    return index().concurrency(pids, t0, t1);
}

ConcurrencyProfile
Session::concurrency(const PidSet &pids) const
{
    return index().concurrency(pids);
}

GpuUtilization
Session::gpuUtil(const PidSet &pids, sim::SimTime t0,
                 sim::SimTime t1) const
{
    return index().gpuUtil(pids, t0, t1);
}

GpuUtilization
Session::gpuUtil(const PidSet &pids) const
{
    return index().gpuUtil(pids);
}

FrameStats
Session::frameStats(const PidSet &pids) const
{
    return index().frameStats(pids);
}

Responsiveness
Session::responsiveness(const PidSet &pids) const
{
    return index().responsiveness(pids);
}

PowerEstimate
Session::power(const sim::CpuSpec &cpu, const sim::GpuSpec &gpu) const
{
    return index().power(cpu, gpu);
}

TimeSeries
Session::tlpSeries(const PidSet &pids, sim::SimDuration window) const
{
    const TraceIndex &idx = index();
    return buildSeries(*bundle_, window, "TLP",
                       [&](sim::SimTime t0, sim::SimTime t1) {
                           return idx.concurrency(pids, t0, t1).tlp();
                       });
}

TimeSeries
Session::concurrencySeries(const PidSet &pids,
                           sim::SimDuration window) const
{
    const TraceIndex &idx = index();
    return buildSeries(
        *bundle_, window, "Concurrency",
        [&](sim::SimTime t0, sim::SimTime t1) {
            return idx.concurrency(pids, t0, t1).utilization();
        });
}

TimeSeries
Session::gpuUtilSeries(const PidSet &pids,
                       sim::SimDuration window) const
{
    const TraceIndex &idx = index();
    return buildSeries(
        *bundle_, window, "GPU Utilization (%)",
        [&](sim::SimTime t0, sim::SimTime t1) {
            return idx.gpuUtil(pids, t0, t1).utilizationPercent();
        });
}

TimeSeries
Session::frameRateSeries(const PidSet &pids,
                         sim::SimDuration window) const
{
    const TraceBundle &b = *bundle_;
    TimeSeries series =
        buildSeries(b, window, "Frame Rate (FPS)",
                    [](sim::SimTime, sim::SimTime) { return 0.0; });
    if (series.points.empty())
        return series;

    for (const auto &frame : b.frames) {
        if (!pids.empty() && pids.count(frame.pid) == 0)
            continue;
        if (frame.timestamp < b.startTime ||
            frame.timestamp >= b.stopTime) {
            continue;
        }
        auto idx = static_cast<std::size_t>(
            (frame.timestamp - b.startTime) / window);
        if (idx < series.points.size())
            series.points[idx].value += 1.0;
    }
    // Convert counts to frames per second.
    for (auto &point : series.points) {
        sim::SimTime end = std::min(point.t + window, b.stopTime);
        double span = sim::toSeconds(end - point.t);
        if (span > 0.0)
            point.value /= span;
    }
    return series;
}

QueryPlan
Session::plan(const std::vector<Query> &queries) const
{
    // The planner sweeps the raw cswitch stream, which a warm
    // (cache-restored) Session intentionally does not carry.
    if (index().restored())
        deskpar::fatal(
            "Session::plan: query plans are not supported on a "
            "cache-restored Session; reopen the trace with a cold "
            "ingest");
    return QueryPlan::compile(index(), queries);
}

std::vector<QueryResult>
Session::query(const std::vector<Query> &queries,
               unsigned threads) const
{
    return plan(queries).run(threads);
}

blocking::BlockingReport
Session::bottlenecks(const PidSet &pids, unsigned threads) const
{
    // The wakeup-chain sweep also needs the raw cswitch stream.
    if (index().restored())
        deskpar::fatal(
            "Session::bottlenecks: bottleneck analysis is not "
            "supported on a cache-restored Session; reopen the "
            "trace with a cold ingest");
    return blocking::analyze(index(), pids, threads);
}

} // namespace deskpar::analysis
