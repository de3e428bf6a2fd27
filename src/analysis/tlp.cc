#include "analysis/tlp.hh"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "sim/logging.hh"
#include "trace/diagnostic.hh"
#include "trace/parse.hh"

namespace deskpar::analysis {

double
ConcurrencyProfile::tlp() const
{
    if (c.empty())
        return 0.0;
    double busy = 1.0 - c[0];
    if (busy <= 0.0)
        return 0.0;
    double weighted = 0.0;
    for (std::size_t i = 1; i < c.size(); ++i)
        weighted += c[i] * static_cast<double>(i);
    return weighted / busy;
}

unsigned
ConcurrencyProfile::maxConcurrency() const
{
    for (std::size_t i = c.size(); i-- > 1;) {
        if (c[i] > 0.0)
            return static_cast<unsigned>(i);
    }
    return 0;
}

double
ConcurrencyProfile::utilization() const
{
    double weighted = 0.0;
    for (std::size_t i = 1; i < c.size(); ++i)
        weighted += c[i] * static_cast<double>(i);
    return weighted;
}

namespace detail {

trace::Diagnostic
outOfRangeCpusDiagnostic(std::uint64_t count, unsigned num_cpus)
{
    trace::ParseError err;
    err.section = "CSwitch";
    err.field = "cpu";
    err.reason = std::to_string(count) +
                 " context switch(es) on cpu ids >= the header's " +
                 std::to_string(num_cpus) +
                 " logical CPUs; excluded from the concurrency "
                 "histogram";
    trace::Diagnostic diag;
    diag.severity = trace::Severity::Warning;
    diag.component = "analysis";
    diag.detail = std::move(err);
    return diag;
}

void
warnOutOfRangeCpus(std::uint64_t count, unsigned num_cpus)
{
    trace::emitDiagnostic(outOfRangeCpusDiagnostic(count, num_cpus));
}

} // namespace detail

namespace legacy {

ConcurrencyProfile
computeConcurrency(const TraceBundle &bundle, const PidSet &pids,
                   sim::SimTime t0, sim::SimTime t1, unsigned num_cpus)
{
    if (num_cpus == 0)
        num_cpus = bundle.numLogicalCpus;
    if (num_cpus == 0)
        deskpar::fatal("computeConcurrency: unknown CPU count");
    if (t1 <= t0)
        deskpar::fatal("computeConcurrency: empty window");

    // The sweep body lives in concurrency_timeline.cc so the query
    // planner can run it for arbitrary filters (tid, cpu mask) and
    // with the out-of-range warning deduped; the default spec below
    // is this function's historical behavior, warning included.
    detail::TimelineSpec spec;
    spec.pids = pids;
    return detail::sweepConcurrency(bundle, spec, t0, t1, num_cpus,
                                    /*emit_warning=*/true);
}

ConcurrencyProfile
computeConcurrency(const TraceBundle &bundle, const PidSet &pids)
{
    return computeConcurrency(bundle, pids, bundle.startTime,
                              bundle.stopTime);
}

} // namespace legacy

} // namespace deskpar::analysis
