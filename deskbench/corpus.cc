#include "corpus.hh"

#include <atomic>
#include <filesystem>
#include <stdexcept>

#include "analysis/index_cache.hh"
#include "analysis/session.hh"
#include "apps/registry.hh"
#include "apps/runner.hh"
#include "common.hh"
#include "trace/csv.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/io.hh"
#include "trace/merge.hh"

namespace deskbench {

using namespace deskpar;

Simulation
simulate(const std::vector<std::string> &ids, double seconds)
{
    apps::RunOptions options;
    options.iterations = 3;
    options.duration = sim::sec(seconds);
    options.seedBase = kProtocolSeed;

    Span runnerSpan("apps.runner");
    std::int64_t parent = runnerSpan.index();
    std::atomic<std::uint64_t> events{0};
    std::vector<apps::SuiteJob> jobs;
    for (const std::string &id : ids) {
        apps::SuiteJob job;
        job.label = id;
        job.options = options;
        job.direct = [id, parent, &events](const apps::RunOptions &o,
                                           unsigned iter) {
            apps::WorkloadPtr model = apps::makeWorkload(id);
            Span span("sim.iteration", 0, parent);
            apps::IterationOutput out = apps::runIteration(*model, o, iter);
            events += out.bundle.cswitches.size() +
                      out.bundle.gpuPackets.size();
            return out;
        };
        jobs.push_back(std::move(job));
    }
    apps::SuiteOutcome outcome = apps::SuiteRunner(1).runRecoverable(jobs);
    if (!outcome.ok())
        throw std::runtime_error(
            "corpus simulation failed: " +
            outcome.failures.front().diagnostic().str());
    Simulation sim;
    sim.results = std::move(outcome.results);
    sim.iterationEvents = events;
    for (const apps::AppRunResult &r : sim.results)
        sim.retainedEvents +=
            r.lastBundle.cswitches.size() + r.lastBundle.gpuPackets.size();
    return sim;
}

void
addSimMetrics(Outcome &outcome, const SpanSummary &spans,
              std::uint64_t retainedEvents, std::uint64_t iterationEvents)
{
    double ms = 0.0;
    for (double d : spans.durationsMs("sim.iteration"))
        ms += d;
    outcome.layers["sim.iteration_ms"] = spans.medianMs("sim.iteration");
    outcome.layers["sim.events"] = static_cast<double>(retainedEvents);
    outcome.layers["sim.events_per_s"] =
        ms > 0 ? static_cast<double>(iterationEvents) / (ms / 1e3) : 0.0;
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : n;
}

void
writeEtlFile(const trace::TraceBundle &bundle, const std::string &path)
{
    Span span("trace.writeEtl");
    trace::writeEtl(bundle, path);
}

void
writeCsvFile(const trace::TraceBundle &bundle, const std::string &path)
{
    Span span("trace.writeCsv");
    trace::writeCpuUsageCsv(bundle, path);
}

void
pack(const std::string &etlPath, const std::string &etlcPath, bool index)
{
    trace::ParseOptions popts;
    popts.source = etlPath;
    trace::IngestReport report;
    trace::TraceBundle bundle;
    {
        trace::io::MappedFile file =
            trace::io::MappedFile::openOrThrow(etlPath, "pack");
        Span span("trace.decode.pack");
        bundle = trace::decodeEtl(file.span(), popts, report);
    }
    if (!report.ok())
        throw trace::TraceParseError(report.errors.front());
    {
        Span span("trace.sortBundle");
        trace::sortBundle(bundle);
    }
    {
        Span span("trace.writeEtlc");
        trace::writeEtlc(bundle, etlcPath);
    }
    if (!index)
        return;
    Span span("analysis.saveIndexCache");
    trace::ParseOptions vpopts;
    vpopts.source = etlcPath;
    trace::IngestReport vreport;
    trace::TraceBundle packed = trace::readEtlc(etlcPath, vpopts, vreport);
    if (!vreport.ok())
        throw trace::TraceParseError(vreport.errors.front());
    analysis::Session session(std::move(packed));
    session.index().warm(trace::PidSet{});
    std::string error;
    if (!analysis::saveIndexCache(session, etlcPath, error))
        throw std::runtime_error("pack --index: " + error);
}

} // namespace deskbench
