#include "trace/open.hh"

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

} // namespace deskpar::trace
