/**
 * @file
 * The map-based reference of the wakeup-chain bottleneck analysis:
 * one straight sweep of bundle.cswitches with every per-thread
 * aggregate in an ordered map keyed by (pid, tid). blocking::analyze
 * runs the same state machine over dense thread ids; the
 * differential tests (BlockingDiff, CriticalPath) and bench_blocking
 * compare the two. Test-only: part of the deskpar_oracle library.
 */

#ifndef DESKPAR_ORACLE_BLOCKING_LEGACY_HH
#define DESKPAR_ORACLE_BLOCKING_LEGACY_HH

#include "analysis/blocking.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis::blocking::legacy {

/**
 * The sequential reference report of @p bundle for @p pids (empty =
 * every non-idle process).
 */
BlockingReport analyze(const trace::TraceBundle &bundle,
                       const trace::PidSet &pids);

} // namespace deskpar::analysis::blocking::legacy

#endif // DESKPAR_ORACLE_BLOCKING_LEGACY_HH
