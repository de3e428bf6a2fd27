/**
 * @file
 * The one front door to a trace file: map it, pick the reader its
 * format calls for, and decode it.
 *
 * Every production path that opens a trace by name (replay jobs,
 * the analysis service's session cache, the index-cache cold path
 * and `deskpar pack`) goes through decodeFile and then checkIngest,
 * so the sniff rule and the accept/reject rule live here and nowhere
 * else.
 */

#ifndef DESKPAR_TRACE_OPEN_HH
#define DESKPAR_TRACE_OPEN_HH

#include <cstdint>
#include <string>

#include "trace/parse.hh"
#include "trace/session.hh"

namespace deskpar::trace {

/**
 * Map @p path and decode it. A `.csv` suffix selects the CPU-Usage
 * CSV reader; otherwise the `.etlc` magic selects the
 * block-compressed reader; anything else is read as .etl v3.
 *
 * Malformed content never throws: @p report is overwritten with the
 * outcome per @p options, exactly as the chosen reader reports it.
 * A file that cannot be opened is a FatalError whose message starts
 * with @p who (the caller's label, e.g. "replay"). When @p bytes is
 * set it receives the mapped file size.
 */
TraceBundle decodeFile(const std::string &path,
                       const ParseOptions &options,
                       IngestReport &report, const char *who,
                       std::uint64_t *bytes = nullptr);

/**
 * The one verdict on a decodeFile outcome, applied by every caller:
 * throw the first stored error (a summary error when none is stored)
 * when the file is rejected — any defect in strict mode, and in both
 * modes a rejected header (bad magic, version or CPU count, a foreign
 * CSV header line), past which no reader decodes anything. Returns
 * for a clean ingest and for a degraded lenient one; callers tell the
 * two apart with report.ok().
 */
void checkIngest(const IngestReport &report);

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_OPEN_HH
