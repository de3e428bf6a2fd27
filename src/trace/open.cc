#include "trace/open.hh"

#include <utility>

#include "trace/csv.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/io.hh"

namespace deskpar::trace {

TraceBundle
decodeFile(const std::string &path, const ParseOptions &options,
           IngestReport &report, const char *who, std::uint64_t *bytes)
{
    io::MappedFile file = io::MappedFile::openOrThrow(path, who);
    if (bytes)
        *bytes = file.size();
    TraceBundle bundle;
    if (path.size() > 4 &&
        path.compare(path.size() - 4, 4, ".csv") == 0) {
        report = decodeCpuUsageCsv(file.span(), bundle, options);
    } else if (isEtlcData(file.span())) {
        bundle = decodeEtlc(file.span(), options, report);
    } else {
        bundle = decodeEtl(file.span(), options, report);
    }
    return bundle;
}

void
checkIngest(const IngestReport &report)
{
    if (report.ok())
        return;
    bool headerRejected = !report.errors.empty() &&
                          report.errors.front().section == "header";
    if (report.mode == ParseMode::Lenient && !headerRejected)
        return;
    if (!report.errors.empty())
        throw TraceParseError(report.errors.front());
    ParseError generic;
    generic.source = report.source;
    generic.section = "ingest";
    generic.reason = report.summary();
    throw TraceParseError(std::move(generic));
}

} // namespace deskpar::trace
