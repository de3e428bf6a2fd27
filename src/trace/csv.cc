#include "trace/csv.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <ostream>

#include "obs/obs.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace deskpar::trace {

namespace {

/** std::string_view pieces concatenate via std::string only. */
std::string
str(std::string_view v)
{
    return std::string(v);
}

std::string
quote(const std::string &s)
{
    if (s.find(',') == std::string::npos &&
        s.find('"') == std::string::npos) {
        return s;
    }
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

std::string
processLabel(const TraceBundle &bundle, Pid pid)
{
    auto it = bundle.processNames.find(pid);
    std::string name =
        it == bundle.processNames.end() ? "Unknown" : it->second;
    return name + " (" + std::to_string(pid) + ")";
}

std::string
sourceLabel(const ParseOptions &options)
{
    return options.source.empty() ? "<stream>" : options.source;
}

/** Base error for one CSV row; the caller fills field/reason. */
ParseError
rowError(const std::string &source, std::uint64_t line,
         std::string field, std::string reason)
{
    ParseError e;
    e.source = source;
    e.section = "row";
    e.field = std::move(field);
    e.line = line;
    e.reason = std::move(reason);
    return e;
}

/**
 * Parse a bounded unsigned decimal field into @p out; on failure
 * fills @p reason. Shared by every numeric column so Pid/Tid/CpuId
 * truncation can't corrupt values silently.
 */
bool
parseBounded(std::string_view text, std::uint64_t max,
             std::uint64_t &out, std::string &reason)
{
    auto parsed = parseCsvU64(text);
    if (!parsed) {
        reason = parsed.error().reason;
        return false;
    }
    if (*parsed > max) {
        reason = "value " + str(text) + " out of range (max " +
                 std::to_string(max) + ")";
        return false;
    }
    out = *parsed;
    return true;
}

/**
 * Parse "name (pid)" back into its parts; fills @p reason on error.
 * @p name is a view into @p label — valid as long as the backing row
 * is (the caller copies it into the name table).
 */
bool
parseProcessLabel(std::string_view label, std::string_view &name,
                  Pid &pid, std::string &reason)
{
    auto open = label.rfind(" (");
    if (open == std::string_view::npos || label.empty() ||
        label.back() != ')') {
        reason = "malformed process label '" + str(label) +
                 "' (want 'name (pid)')";
        return false;
    }
    std::uint64_t value = 0;
    if (!parseBounded(
            label.substr(open + 2, label.size() - open - 3),
            std::numeric_limits<Pid>::max(), value, reason)) {
        reason = "process label '" + str(label) + "': " + reason;
        return false;
    }
    name = label.substr(0, open);
    pid = static_cast<Pid>(value);
    return true;
}

/**
 * Decode the numeric column @p index of @p fields into @p out
 * (bounded by @p max); on failure produces the row's ParseError.
 * Templated over the field container so the legacy std::string rows
 * and the zero-copy std::string_view rows share one decoder.
 */
template <typename Fields>
bool
numericColumn(const Fields &fields, std::size_t index,
              const char *name, std::uint64_t max,
              std::uint64_t &out, const std::string &source,
              std::uint64_t line, ParseError &err)
{
    std::string reason;
    if (parseBounded(fields[index], max, out, reason))
        return true;
    err = rowError(source, line, name, reason);
    return false;
}

/** Decode a "name (pid)" column with a PID cross-check column. */
template <typename Fields>
bool
labelColumn(const Fields &fields, std::size_t labelIndex,
            const char *labelName, std::size_t pidIndex,
            const char *pidName, std::string_view &name, Pid &pid,
            const std::string &source, std::uint64_t line,
            ParseError &err)
{
    std::string reason;
    if (!parseProcessLabel(fields[labelIndex], name, pid, reason)) {
        err = rowError(source, line, labelName, reason);
        return false;
    }
    std::uint64_t pidField = 0;
    if (!numericColumn(fields, pidIndex, pidName,
                       std::numeric_limits<Pid>::max(), pidField,
                       source, line, err)) {
        return false;
    }
    if (pidField != pid) {
        err = rowError(source, line, pidName,
                       "label/PID mismatch ('" +
                           str(fields[labelIndex]) + "' vs " +
                           str(fields[pidIndex]) + ")");
        return false;
    }
    return true;
}

/**
 * processNames[pid] = name without allocating when the entry already
 * holds that name (replays assign the same few names per row).
 */
void
assignName(TraceBundle &bundle, Pid pid, std::string_view name)
{
    auto it = bundle.processNames.find(pid);
    if (it == bundle.processNames.end())
        bundle.processNames.emplace(pid, std::string(name));
    else if (it->second != name)
        it->second.assign(name);
}

constexpr std::uint64_t kU64Max =
    std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kU32Max =
    std::numeric_limits<std::uint32_t>::max();

/**
 * Decode one "CPU Usage (Precise)" row into @p bundle. Shared by the
 * legacy istream reader (Fields = vector<string>) and the zero-copy
 * span reader (Fields = vector<string_view>).
 */
template <typename Fields>
bool
parseCpuRow(const Fields &fields, TraceBundle &bundle,
            const std::string &source, std::uint64_t line,
            ParseMode mode, bool &clamped, ParseError &err)
{
    CSwitchEvent e;
    std::string_view newName, oldName;
    Pid newPid = 0, oldPid = 0;
    std::uint64_t v = 0;
    if (!labelColumn(fields, 0, "New Process", 1, "New PID", newName,
                     newPid, source, line, err))
        return false;
    e.newPid = newPid;
    if (!numericColumn(fields, 2, "New TID", kU32Max, v, source,
                       line, err))
        return false;
    e.newTid = static_cast<Tid>(v);
    if (!numericColumn(fields, 3, "CPU", kU32Max, v, source, line,
                       err))
        return false;
    e.cpu = static_cast<CpuId>(v);
    if (!numericColumn(fields, 4, "Ready Time (ns)", kU64Max,
                       e.readyTime, source, line, err))
        return false;
    if (!numericColumn(fields, 5, "Switch-In Time (ns)", kU64Max,
                       e.timestamp, source, line, err))
        return false;
    if (e.readyTime > e.timestamp) {
        // A thread cannot be dispatched before it became runnable;
        // downstream wait math (timestamp - readyTime) would wrap.
        err = rowError(source, line, "Ready Time (ns)",
                       "ready time " + std::to_string(e.readyTime) +
                           " after switch-in time " +
                           std::to_string(e.timestamp));
        if (mode == ParseMode::Strict)
            return false;
        e.readyTime = e.timestamp;
        clamped = true;
    }
    if (!labelColumn(fields, 6, "Old Process", 7, "Old PID", oldName,
                     oldPid, source, line, err))
        return false;
    e.oldPid = oldPid;
    if (!numericColumn(fields, 8, "Old TID", kU32Max, v, source,
                       line, err))
        return false;
    e.oldTid = static_cast<Tid>(v);

    assignName(bundle, e.newPid, newName);
    assignName(bundle, e.oldPid, oldName);
    bundle.cswitches.push_back(e);
    return true;
}

/** Decode one "GPU Utilization" row into @p bundle. */
template <typename Fields>
bool
parseGpuRow(const Fields &fields, TraceBundle &bundle,
            const std::string &source, std::uint64_t line,
            ParseError &err)
{
    GpuPacketEvent e;
    std::string_view name;
    Pid pid = 0;
    std::uint64_t v = 0;
    if (!labelColumn(fields, 0, "Process", 1, "PID", name, pid,
                     source, line, err))
        return false;
    e.pid = pid;

    std::string_view engine = fields[2];
    bool found = false;
    for (unsigned i = 0; i < kNumGpuEngines; ++i) {
        auto id = static_cast<GpuEngineId>(i);
        if (engine == gpuEngineName(id)) {
            e.engine = id;
            found = true;
            break;
        }
    }
    if (!found) {
        err = rowError(source, line, "Engine",
                       "unknown engine '" + str(engine) + "'");
        return false;
    }

    if (!numericColumn(fields, 3, "Queue Slot", 0xff, v, source,
                       line, err))
        return false;
    e.queueSlot = static_cast<std::uint8_t>(v);
    if (!numericColumn(fields, 4, "Queued (ns)", kU64Max, e.queued,
                       source, line, err))
        return false;
    if (!numericColumn(fields, 5, "Start Execution (ns)", kU64Max,
                       e.start, source, line, err))
        return false;
    if (!numericColumn(fields, 6, "Finished (ns)", kU64Max, e.finish,
                       source, line, err))
        return false;

    assignName(bundle, e.pid, name);
    bundle.gpuPackets.push_back(e);
    return true;
}

/**
 * Read the header line and all rows of @p in, dispatching each
 * well-split row to @p parseRow. Implements the strict/lenient
 * record-skipping contract shared by both CSV readers. This is the
 * legacy serial reader — the differential reference for the
 * zero-copy span path below; keep their row semantics in lockstep.
 */
template <typename RowFn>
IngestReport
readCsv(std::istream &in, const ParseOptions &options,
        const char *headerPrefix, std::size_t fieldCount,
        RowFn &&parseRow)
{
    obs::Span ingestSpan("ingest.csv", obs::SpanKind::Ingest);
    IngestReport report;
    report.source = sourceLabel(options);
    report.mode = options.mode;

    std::string line;
    if (!std::getline(in, line)) {
        ParseError e;
        e.source = report.source;
        e.section = "header";
        e.line = 1;
        e.reason = "empty input";
        report.note(std::move(e), options.maxStoredErrors);
        return report;
    }
    if (line.rfind(headerPrefix, 0) != 0) {
        ParseError e;
        e.source = report.source;
        e.section = "header";
        e.line = 1;
        e.reason = std::string("unexpected header (want '") +
                   headerPrefix + "...')";
        report.note(std::move(e), options.maxStoredErrors);
        return report;
    }

    std::uint64_t lineNo = 1;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;

        ParseError err;
        bool good = false;
        bool clamped = false;
        auto fields = splitCsvFields(line);
        if (!fields) {
            err = fields.error();
            err.source = report.source;
            err.section = "row";
            err.line = lineNo;
        } else if (fields->size() != fieldCount) {
            err = rowError(report.source, lineNo, "",
                           "bad field count (" +
                               std::to_string(fields->size()) +
                               ", want " +
                               std::to_string(fieldCount) + ")");
        } else {
            good = parseRow(*fields, lineNo, clamped, err);
        }

        if (good) {
            ++report.recordsParsed;
            if (clamped)
                report.noteRepair(std::move(err),
                                  options.maxStoredErrors);
            continue;
        }
        ++report.recordsSkipped;
        report.note(std::move(err), options.maxStoredErrors);
        if (options.mode == ParseMode::Strict)
            break;
    }
    return report;
}

/* ------------------------------------------------------------------ */
/*  Zero-copy span path                                                */
/* ------------------------------------------------------------------ */

/**
 * getline-equivalent over a span: yields each '\n'-delimited line
 * (terminator excluded; a final unterminated line is still yielded).
 */
struct LineCursor
{
    io::ByteSpan data;
    std::size_t pos = 0;

    bool
    next(std::string_view &line)
    {
        if (pos >= data.size())
            return false;
        std::size_t nl = data.find('\n', pos);
        if (nl == std::string_view::npos) {
            line = data.substr(pos);
            pos = data.size();
        } else {
            line = data.substr(pos, nl - pos);
            pos = nl + 1;
        }
        return true;
    }
};

/** Lines std::getline would produce from @p chunk. */
std::uint64_t
lineCount(io::ByteSpan chunk)
{
    auto lines = static_cast<std::uint64_t>(
        std::count(chunk.begin(), chunk.end(), '\n'));
    if (!chunk.empty() && chunk.back() != '\n')
        ++lines; // final line without trailing newline
    return lines;
}

/**
 * Cut @p body into at most @p want chunks at newline boundaries.
 * Interior chunks always end just past a '\n'; concatenating the
 * chunks in order reproduces @p body byte for byte.
 */
std::vector<io::ByteSpan>
splitAtNewlines(io::ByteSpan body, unsigned want)
{
    std::vector<io::ByteSpan> chunks;
    std::size_t target =
        std::max<std::size_t>(1, body.size() / std::max(1u, want));
    std::size_t begin = 0;
    for (unsigned c = 0; c + 1 < want && begin < body.size(); ++c) {
        std::size_t cut = begin + target;
        if (cut >= body.size())
            break;
        std::size_t nl = body.find('\n', cut);
        if (nl == std::string_view::npos)
            break;
        chunks.push_back(body.substr(begin, nl + 1 - begin));
        begin = nl + 1;
    }
    chunks.push_back(body.substr(begin));
    return chunks;
}

/**
 * Parse the rows of one chunk into @p part with absolute line
 * numbers starting at @p startLine. Mirrors the legacy readCsv row
 * loop exactly; the fields/scratch buffers are reused across rows so
 * steady-state rows allocate nothing.
 */
template <typename RowFn>
IngestReport
parseCsvChunk(io::ByteSpan chunk, std::uint64_t startLine,
              const ParseOptions &options, const std::string &source,
              std::size_t fieldCount, RowFn &&parseRow,
              TraceBundle &part)
{
    IngestReport report;
    report.source = source;
    report.mode = options.mode;

    LineCursor cursor{chunk, 0};
    std::vector<std::string_view> fields;
    fields.reserve(fieldCount + 2);
    std::string scratch;
    std::string_view line;
    std::uint64_t lineNo = startLine - 1;
    while (cursor.next(line)) {
        ++lineNo;
        if (line.empty())
            continue;

        ParseError err;
        bool good = false;
        bool clamped = false;
        if (!splitCsvFieldsView(line, fields, scratch, err)) {
            err.source = source;
            err.section = "row";
            err.line = lineNo;
        } else if (fields.size() != fieldCount) {
            err = rowError(source, lineNo, "",
                           "bad field count (" +
                               std::to_string(fields.size()) +
                               ", want " +
                               std::to_string(fieldCount) + ")");
        } else {
            good = parseRow(fields, part, source, lineNo, clamped,
                            err);
        }

        if (good) {
            ++report.recordsParsed;
            if (clamped)
                report.noteRepair(std::move(err),
                                  options.maxStoredErrors);
            continue;
        }
        ++report.recordsSkipped;
        report.note(std::move(err), options.maxStoredErrors);
        if (options.mode == ParseMode::Strict)
            break;
    }
    return report;
}

/** Splice one chunk's decoded events into the output bundle. */
void
appendPart(TraceBundle &bundle, TraceBundle &part)
{
    bundle.cswitches.insert(bundle.cswitches.end(),
                            part.cswitches.begin(),
                            part.cswitches.end());
    bundle.gpuPackets.insert(bundle.gpuPackets.end(),
                             part.gpuPackets.begin(),
                             part.gpuPackets.end());
    // Later chunks overwrite earlier names, matching the serial
    // reader's per-row assignment order (keys are unique per part).
    for (auto &[pid, name] : part.processNames)
        bundle.processNames[pid] = std::move(name);
}

/** Span inputs below this parse serially unless threads is forced. */
constexpr std::size_t kMinParallelBytes = 1 << 16;

/**
 * The zero-copy CSV reader: header check, chunk split, parallel
 * decode, deterministic merge. Byte-identical to readCsv(istream)
 * over the same bytes: bundle contents, report counters, and every
 * error payload.
 */
template <typename RowFn>
IngestReport
readCsvSpan(io::ByteSpan data, TraceBundle &bundle,
            const ParseOptions &options, const char *headerPrefix,
            std::size_t fieldCount, std::size_t bytesPerRow,
            std::size_t reserved, RowFn &&parseRow)
{
    obs::Span ingestSpan("ingest.csv", obs::SpanKind::Ingest,
                         data.size());
    obs::counterAdd("ingest.csv.bytes",
                    static_cast<std::int64_t>(data.size()));
    const std::string source = sourceLabel(options);

    LineCursor cursor{data, 0};
    std::string_view header;
    if (!cursor.next(header)) {
        IngestReport report;
        report.source = source;
        report.mode = options.mode;
        ParseError e;
        e.source = source;
        e.section = "header";
        e.line = 1;
        e.reason = "empty input";
        report.note(std::move(e), options.maxStoredErrors);
        return report;
    }
    if (header.substr(0, std::string_view(headerPrefix).size()) !=
        headerPrefix) {
        IngestReport report;
        report.source = source;
        report.mode = options.mode;
        ParseError e;
        e.source = source;
        e.section = "header";
        e.line = 1;
        e.reason = std::string("unexpected header (want '") +
                   headerPrefix + "...')";
        report.note(std::move(e), options.maxStoredErrors);
        return report;
    }

    io::ByteSpan body = data.substr(cursor.pos);

    // Chunk-count policy: an explicit ParseOptions::threads forces
    // that many chunks (tests exercise tiny inputs at 7 chunks); auto
    // mode fans out only when the input is big enough to amortize
    // thread start. Quoted fields fall back to one serial chunk: a
    // '"' anywhere means field boundaries may not be derivable
    // chunk-locally, and correctness beats speed on the rare
    // quote-bearing trace.
    unsigned jobs = options.threads;
    if (jobs == 0) {
        jobs = body.size() >= kMinParallelBytes ? sim::resolveJobs()
                                                : 1;
    }
    if (jobs > 1 && body.find('"') != std::string_view::npos)
        jobs = 1;

    // Reserve estimate: the bytes-per-row divisor alone over-reserves
    // badly on traces with long process names (a 300-byte row is
    // still one event), holding ~2x peak memory through the parallel
    // merge. One event needs one line, so the newline pre-scan count
    // is a hard upper bound — take the smaller of the two.
    if (jobs <= 1) {
        auto rows = std::min<std::uint64_t>(
            body.size() / bytesPerRow + 1, lineCount(body));
        if (reserved == 0)
            bundle.cswitches.reserve(bundle.cswitches.size() + rows);
        else
            bundle.gpuPackets.reserve(bundle.gpuPackets.size() + rows);
        return parseCsvChunk(body, 2, options, source, fieldCount,
                             parseRow, bundle);
    }

    std::vector<io::ByteSpan> chunks = splitAtNewlines(body, jobs);
    std::vector<std::uint64_t> startLines(chunks.size());
    std::vector<std::uint64_t> chunkLines(chunks.size());
    std::uint64_t nextLine = 2; // line 1 is the header
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        startLines[i] = nextLine;
        chunkLines[i] = lineCount(chunks[i]);
        nextLine += chunkLines[i];
    }

    std::vector<TraceBundle> parts(chunks.size());
    std::vector<IngestReport> reports(chunks.size());
    sim::parallelFor(jobs, chunks.size(), [&](std::size_t i) {
        obs::Span chunkSpan("ingest.csv.chunk", obs::SpanKind::Ingest,
                            chunks[i].size());
        auto rows = std::min<std::uint64_t>(
            chunks[i].size() / bytesPerRow + 1, chunkLines[i]);
        if (reserved == 0)
            parts[i].cswitches.reserve(rows);
        else
            parts[i].gpuPackets.reserve(rows);
        reports[i] =
            parseCsvChunk(chunks[i], startLines[i], options, source,
                          fieldCount, parseRow, parts[i]);
    });

    // Deterministic merge in chunk (= file) order. In strict mode the
    // serial reader stops at the first defective row, so everything
    // past the first defective chunk is discarded unread.
    IngestReport report;
    report.source = source;
    report.mode = options.mode;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        bool stop = options.mode == ParseMode::Strict &&
                    reports[i].errorCount > 0;
        appendPart(bundle, parts[i]);
        report.absorb(std::move(reports[i]),
                      options.maxStoredErrors);
        if (stop)
            break;
    }
    return report;
}

/** Observed wpaexporter row widths, for the reserve() estimate. */
constexpr std::size_t kCpuCsvBytesPerRow = 64;
constexpr std::size_t kGpuCsvBytesPerRow = 48;

} // namespace

ParseResult<std::uint64_t>
parseCsvU64(std::string_view field)
{
    if (field.empty()) {
        ParseError e;
        e.reason = "empty numeric field";
        return e;
    }
    std::uint64_t value = 0;
    for (char c : field) {
        if (c < '0' || c > '9') {
            ParseError e;
            e.reason = "non-numeric character '" +
                       std::string(1, c) + "' in field '" +
                       str(field) + "'";
            return e;
        }
        auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (kU64Max - digit) / 10) {
            ParseError e;
            e.reason = "field '" + str(field) + "' overflows 64 bits";
            return e;
        }
        value = value * 10 + digit;
    }
    return value;
}

ParseResult<std::vector<std::string>>
splitCsvFields(std::string_view line)
{
    std::size_t size = line.size();
    if (size && line[size - 1] == '\r')
        --size;

    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;     // inside a quoted region
    bool wasQuoted = false;  // current field had a closing quote
    bool atStart = true;     // at the first byte of the field
    std::size_t openQuoteCol = 0;

    auto fail = [&](std::size_t column, std::string reason) {
        ParseError e;
        e.column = column;
        e.reason = std::move(reason);
        return e;
    };

    for (std::size_t i = 0; i < size; ++i) {
        char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < size && line[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    quoted = false;
                    wasQuoted = true;
                }
            } else {
                field += c;
            }
        } else if (c == ',') {
            fields.push_back(std::move(field));
            field.clear();
            quoted = wasQuoted = false;
            atStart = true;
        } else if (wasQuoted) {
            return fail(i + 1,
                        "text after closing quote in field " +
                            std::to_string(fields.size() + 1));
        } else if (c == '"') {
            if (!atStart) {
                return fail(i + 1,
                            "quote inside unquoted field " +
                                std::to_string(fields.size() + 1));
            }
            quoted = true;
            atStart = false;
            openQuoteCol = i + 1;
        } else {
            field += c;
            atStart = false;
        }
    }
    if (quoted) {
        return fail(openQuoteCol,
                    "unterminated quoted field " +
                        std::to_string(fields.size() + 1));
    }
    fields.push_back(std::move(field));
    return fields;
}

bool
splitCsvFieldsView(std::string_view line,
                   std::vector<std::string_view> &fields,
                   std::string &scratch, ParseError &err)
{
    std::size_t size = line.size();
    if (size && line[size - 1] == '\r')
        --size;

    fields.clear();
    scratch.clear();
    // Unescaped content never exceeds the line length, so appends
    // below cannot reallocate — views into scratch stay valid across
    // multiple escaped fields on one line.
    scratch.reserve(size);

    auto fail = [&](std::size_t column, std::string reason) {
        err = ParseError{};
        err.column = column;
        err.reason = std::move(reason);
        return false;
    };

    std::size_t i = 0;
    while (true) {
        if (i < size && line[i] == '"') {
            // Quoted field: view into the line unless it contains a
            // doubled quote, in which case it unescapes into scratch.
            std::size_t openQuoteCol = i + 1;
            ++i;
            std::size_t start = i;
            std::size_t scratchStart = scratch.size();
            bool escaped = false;
            while (true) {
                if (i >= size) {
                    return fail(openQuoteCol,
                                "unterminated quoted field " +
                                    std::to_string(fields.size() +
                                                   1));
                }
                char c = line[i];
                if (c == '"') {
                    if (i + 1 < size && line[i + 1] == '"') {
                        if (!escaped) {
                            scratch.append(line.data() + start,
                                           i - start);
                            escaped = true;
                        }
                        scratch += '"';
                        i += 2;
                    } else {
                        ++i; // past the closing quote
                        break;
                    }
                } else {
                    if (escaped)
                        scratch += c;
                    ++i;
                }
            }
            std::string_view field =
                escaped ? std::string_view(scratch)
                              .substr(scratchStart)
                        : line.substr(start, i - 1 - start);
            if (i < size && line[i] != ',') {
                return fail(i + 1,
                            "text after closing quote in field " +
                                std::to_string(fields.size() + 1));
            }
            fields.push_back(field);
            if (i >= size)
                return true;
            ++i; // past the comma
        } else {
            std::size_t start = i;
            while (i < size && line[i] != ',') {
                if (line[i] == '"') {
                    return fail(i + 1,
                                "quote inside unquoted field " +
                                    std::to_string(fields.size() +
                                                   1));
                }
                ++i;
            }
            fields.push_back(line.substr(start, i - start));
            if (i >= size)
                return true;
            ++i; // past the comma
        }
    }
}

std::vector<std::string>
splitCsvLine(std::string_view line)
{
    return splitCsvFields(line).take();
}

void
writeCpuUsageCsv(const TraceBundle &bundle, std::ostream &out)
{
    // Emitting an inverted ready time would manufacture corrupt
    // wakeup data that every reader then has to repair; refuse at
    // the source (writeEtl rejects it via validateEncoding()).
    for (std::size_t i = 0; i < bundle.cswitches.size(); ++i) {
        const auto &e = bundle.cswitches[i];
        if (e.readyTime > e.timestamp) {
            ParseError err;
            err.section = "CSwitch";
            err.record = i;
            err.reason = "writeCpuUsageCsv: ready time " +
                         std::to_string(e.readyTime) +
                         " after switch-in time " +
                         std::to_string(e.timestamp);
            throw TraceParseError(std::move(err));
        }
    }
    out << "New Process,New PID,New TID,CPU,Ready Time (ns),"
           "Switch-In Time (ns),Old Process,Old PID,Old TID\n";
    for (const auto &e : bundle.cswitches) {
        out << quote(processLabel(bundle, e.newPid)) << ','
            << e.newPid << ',' << e.newTid << ',' << e.cpu << ','
            << e.readyTime << ',' << e.timestamp << ','
            << quote(processLabel(bundle, e.oldPid)) << ','
            << e.oldPid << ',' << e.oldTid << '\n';
    }
    if (!out)
        fatal("writeCpuUsageCsv: stream write failed");
}

void
writeCpuUsageCsv(const TraceBundle &bundle, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("writeCpuUsageCsv: cannot open " + path);
    writeCpuUsageCsv(bundle, out);
}

void
writeGpuUtilCsv(const TraceBundle &bundle, std::ostream &out)
{
    out << "Process,PID,Engine,Queue Slot,Queued (ns),"
           "Start Execution (ns),Finished (ns)\n";
    for (const auto &e : bundle.gpuPackets) {
        out << quote(processLabel(bundle, e.pid)) << ',' << e.pid
            << ',' << gpuEngineName(e.engine) << ','
            << static_cast<unsigned>(e.queueSlot) << ',' << e.queued
            << ',' << e.start << ',' << e.finish << '\n';
    }
    if (!out)
        fatal("writeGpuUtilCsv: stream write failed");
}

void
writeGpuUtilCsv(const TraceBundle &bundle, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("writeGpuUtilCsv: cannot open " + path);
    writeGpuUtilCsv(bundle, out);
}

IngestReport
readCpuUsageCsv(std::istream &in, TraceBundle &bundle,
                const ParseOptions &options)
{
    std::string source = sourceLabel(options);
    auto row = [&](const std::vector<std::string> &fields,
                   std::uint64_t line, bool &clamped,
                   ParseError &err) {
        return parseCpuRow(fields, bundle, source, line,
                           options.mode, clamped, err);
    };
    return readCsv(in, options, "New Process,", 9, row);
}

IngestReport
readGpuUtilCsv(std::istream &in, TraceBundle &bundle,
               const ParseOptions &options)
{
    std::string source = sourceLabel(options);
    auto row = [&](const std::vector<std::string> &fields,
                   std::uint64_t line, bool &, ParseError &err) {
        return parseGpuRow(fields, bundle, source, line, err);
    };
    return readCsv(in, options, "Process,", 7, row);
}

IngestReport
decodeCpuUsageCsv(io::ByteSpan data, TraceBundle &bundle,
                  const ParseOptions &options)
{
    return readCsvSpan(
        data, bundle, options, "New Process,", 9,
        kCpuCsvBytesPerRow, 0,
        [mode = options.mode](
            const std::vector<std::string_view> &fields,
            TraceBundle &part, const std::string &source,
            std::uint64_t line, bool &clamped, ParseError &err) {
            return parseCpuRow(fields, part, source, line, mode,
                               clamped, err);
        });
}

IngestReport
decodeGpuUtilCsv(io::ByteSpan data, TraceBundle &bundle,
                 const ParseOptions &options)
{
    return readCsvSpan(
        data, bundle, options, "Process,", 7, kGpuCsvBytesPerRow, 1,
        [](const std::vector<std::string_view> &fields,
           TraceBundle &part, const std::string &source,
           std::uint64_t line, bool &, ParseError &err) {
            return parseGpuRow(fields, part, source, line, err);
        });
}

void
readCpuUsageCsv(std::istream &in, TraceBundle &bundle)
{
    IngestReport report = readCpuUsageCsv(in, bundle, ParseOptions{});
    if (!report.ok())
        throw TraceParseError(report.errors.front());
}

void
readGpuUtilCsv(std::istream &in, TraceBundle &bundle)
{
    IngestReport report = readGpuUtilCsv(in, bundle, ParseOptions{});
    if (!report.ok())
        throw TraceParseError(report.errors.front());
}

} // namespace deskpar::trace
