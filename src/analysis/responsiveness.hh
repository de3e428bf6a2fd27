/**
 * @file
 * Interactive responsiveness: the latency from a user-input delivery
 * to the application's first CPU dispatch afterwards.
 *
 * This extends the reproduction toward the 2000-era methodology the
 * paper builds on: Flautner et al. found that a second processor
 * improved the *responsiveness* of interactive applications even
 * when average TLP stayed below 2 (Section II). The input drivers
 * mark every delivery in the trace, so responsiveness can be
 * computed from the same bundles as TLP.
 */

#ifndef DESKPAR_ANALYSIS_RESPONSIVENESS_HH
#define DESKPAR_ANALYSIS_RESPONSIVENESS_HH

#include <vector>

#include "analysis/stats.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

/** Marker-label prefix the input drivers stamp on deliveries. */
inline constexpr const char *kInputMarkerPrefix = "input:";

/**
 * Input-to-dispatch latency statistics.
 */
struct Responsiveness
{
    /** Inputs found in the trace window. */
    std::size_t inputs = 0;
    /** Inputs that saw a subsequent dispatch of the application. */
    std::size_t answered = 0;
    /** Latency stats over answered inputs, in nanoseconds. */
    RunningStat latency;

    double meanLatencyMs() const { return latency.mean() * 1e-6; }
    double maxLatencyMs() const { return latency.max() * 1e-6; }
};

namespace detail {

/**
 * Responsiveness from a sorted dispatch column: for each input
 * marker, the time until the next dispatch at or after it. The index
 * passes the column it caches per pid set (Session::responsiveness).
 */
Responsiveness
responsivenessFromDispatches(const trace::TraceBundle &bundle,
                             const std::vector<sim::SimTime> &dispatches);

} // namespace detail

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_RESPONSIVENESS_HH
