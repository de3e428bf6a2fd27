/**
 * @file
 * Workload `trace_cold`: one client in a closed loop over a seeded
 * rotation of one 600 s projectcars2 trace held in three formats
 * (.etl; .etlc with its .dpidx beside it, as `pack --index` leaves
 * it; CPU-Usage .csv). Every op is cold: a fresh analysis::Service
 * runs the query batch, then `bottlenecks`, and both documents are
 * rendered. Decode, index build and the cswitch passes dominate, with
 * no cache reuse and no simulation.
 *
 * An op's two requests are counted separately in attempted/failed;
 * its latency is a sample only when both succeed. The traced run
 * makes the Service's calls one layer at a time (identity probe, map,
 * decode, Session and index, plan compile and run, bottlenecks,
 * render) so each gets a span, and checks that its documents equal
 * the Service's.
 */

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>

#include "analysis/index_cache.hh"
#include "analysis/service.hh"
#include "analysis/session.hh"
#include "common.hh"
#include "corpus.hh"
#include "report/documents.hh"
#include "trace/csv.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/io.hh"

namespace deskbench {

namespace {

using namespace deskpar;

const std::vector<std::string> kSpecs = {
    "tlp", "busy", "csrate", "tlp/by=thread", "tlp/by=process",
    "gpu/by=engine", "waitfrac"};

const char *const kFormats[] = {"etl", "etlc", "csv"};

/**
 * How far the traced op's p50 may stray from the Service op's before
 * the traced run fails: op_p50_ms's bound in BENCHMARK.json.
 */
constexpr double kTraceDriftBound = 0.25;

struct ColdResult
{
    std::string queryDoc;
    std::string bottlenecksDoc;
    bool queryOk = false;
    bool bottlenecksOk = false;
    std::string queryError;
    /** From the traced path only. */
    std::size_t planFilters = 0;
    std::size_t planColumnPasses = 0;
};

/** The op as a user runs it: a fresh Service, query, bottlenecks. */
ColdResult
serviceOp(const std::string &path)
{
    ColdResult r;
    analysis::Service service;
    analysis::ServiceQueryRequest q;
    q.trace.path = path;
    q.trace.jobs = 0;
    q.specs = kSpecs;
    try {
        analysis::ServiceQueryResult result = service.query(q);
        std::ostringstream doc;
        report::writeQueryDocument(doc, result);
        r.queryDoc = doc.str();
        r.queryOk = true;
    } catch (const std::exception &e) {
        r.queryError = e.what();
    }
    analysis::ServiceBottlenecksRequest b;
    b.trace.path = path;
    b.trace.jobs = 0;
    try {
        analysis::ServiceBottlenecksResult result = service.bottlenecks(b);
        std::ostringstream doc;
        report::writeBottlenecksDocument(doc, result);
        r.bottlenecksDoc = doc.str();
        r.bottlenecksOk = true;
    } catch (const std::exception &) {
    }
    return r;
}

/** Probe @p path's identity as SessionCache does on every acquire. */
void
probeIdentity(const std::string &path, std::uint64_t op)
{
    Span span("analysis.probe_identity", op);
    analysis::TraceIdentity identity;
    std::string error;
    if (!analysis::probeTraceIdentity(path, identity, error))
        throw std::runtime_error(error);
}

/**
 * The same op, one layer call per span. It follows the Service's path
 * call for call: SessionCache::fill (identity probe, map, decode,
 * Session, index warm) for the query, Service::query's plan compile
 * and run, then the cache hit's identity re-probe and
 * Session::bottlenecks. When that path changes, this one has to
 * follow; the traced run fails when the two drift apart in time (see
 * kTraceDriftBound) or in their documents.
 */
ColdResult
tracedOp(const std::string &path, const std::string &format,
         std::uint64_t op)
{
    ColdResult r;
    Span opSpan("bench.coldop", op);
    std::unique_ptr<analysis::Session> session;
    try {
        probeIdentity(path, op);
        trace::ParseOptions popts;
        popts.source = path;
        trace::IngestReport report;
        trace::TraceBundle bundle;
        {
            trace::io::MappedFile file;
            {
                Span span("trace.map", op);
                file = trace::io::MappedFile::openOrThrow(path, "deskbench");
            }
            Span span("trace.decode." + format, op);
            if (format == "csv")
                report = trace::decodeCpuUsageCsv(file.span(), bundle, popts);
            else if (trace::isEtlcData(file.span()))
                bundle = trace::decodeEtlc(file.span(), popts, report);
            else
                bundle = trace::decodeEtl(file.span(), popts, report);
        }
        if (!report.ok())
            throw std::runtime_error(report.errors.empty()
                                         ? report.summary()
                                         : report.errors.front().str());
        Span span("analysis.index_build", op);
        session = std::make_unique<analysis::Session>(std::move(bundle));
        session->index().warm(trace::PidSet{});
    } catch (const std::exception &e) {
        // Both requests fail when the trace cannot be opened, as
        // they do through the Service.
        r.queryError = e.what();
        return r;
    }
    try {
        std::vector<analysis::Query> queries;
        for (const std::string &spec : kSpecs)
            queries.push_back(analysis::parseQuerySpec(spec));
        std::unique_ptr<analysis::QueryPlan> plan;
        {
            Span span("analysis.plan_compile", op);
            plan = std::make_unique<analysis::QueryPlan>(
                session->plan(queries));
        }
        r.planFilters = plan->explain().distinctFilters;
        r.planColumnPasses = plan->explain().columnPasses;
        analysis::ServiceQueryResult result;
        {
            Span span("analysis.plan_run", op);
            result.results = plan->run(0);
        }
        Span span("report.render", op);
        std::ostringstream doc;
        report::writeQueryDocument(doc, result);
        r.queryDoc = doc.str();
        r.queryOk = true;
    } catch (const std::exception &e) {
        r.queryError = e.what();
    }
    try {
        probeIdentity(path, op);
        analysis::ServiceBottlenecksResult result;
        {
            Span span("analysis.blocking", op);
            result.report = session->bottlenecks(trace::PidSet{}, 0);
        }
        Span span("report.render", op);
        std::ostringstream doc;
        report::writeBottlenecksDocument(doc, result);
        r.bottlenecksDoc = doc.str();
        r.bottlenecksOk = true;
    } catch (const std::exception &) {
    }
    return r;
}

struct Corpus
{
    std::string etl, etlc, csv;

    const std::string &
    path(int format) const
    {
        return format == 0 ? etl : format == 1 ? etlc : csv;
    }
};

/** Simulate, write and pack the corpus; returns the simulation's counts. */
Simulation
buildCorpus(const Corpus &c)
{
    Simulation sim = simulate({"projectcars2"}, 600.0);
    const trace::TraceBundle &bundle = sim.results.front().lastBundle;
    writeEtlFile(bundle, c.etl);
    writeCsvFile(bundle, c.csv);
    pack(c.etl, c.etlc, true);
    sim.results.clear();
    return sim;
}

} // namespace

Outcome
runTraceCold(const Args &args)
{
    Outcome outcome;
    const std::string dir = workDir("trace_cold");
    const Corpus corpus{dir + "/projectcars2.etl",
                        dir + "/projectcars2.etlc",
                        dir + "/projectcars2.csv"};
    Simulation sim;
    std::uint64_t iterationEvents = 0;
    Tracer::get().setEnabled(args.trace);
    std::vector<double> setupSeconds = repeatSetup([&] {
        sim = buildCorpus(corpus);
        iterationEvents += sim.iterationEvents;
    });
    Tracer::get().setEnabled(false);
    std::uint64_t bytes[3] = {fileBytes(corpus.etl),
                              fileBytes(corpus.etlc),
                              fileBytes(corpus.csv)};
    note("trace_cold corpus (simulation seed %llu, rotation seed %llu): "
         "%s %llu B, %s %llu B (+ .dpidx %llu B), %s %llu B",
         static_cast<unsigned long long>(kProtocolSeed),
         static_cast<unsigned long long>(args.seed), corpus.etl.c_str(),
         static_cast<unsigned long long>(bytes[0]), corpus.etlc.c_str(),
         static_cast<unsigned long long>(bytes[1]),
         static_cast<unsigned long long>(
             fileBytes(corpus.etlc + ".dpidx")),
         corpus.csv.c_str(), static_cast<unsigned long long>(bytes[2]));

    // Seeded rotation: each cycle visits the three files once, in an
    // order drawn from the seed.
    std::mt19937_64 rng(args.seed);
    std::vector<int> cycle;
    auto nextFormat = [&] {
        if (cycle.empty()) {
            cycle = {0, 1, 2};
            for (int i = 2; i > 0; --i)
                std::swap(cycle[i], cycle[rng() % (i + 1)]);
        }
        int f = cycle.back();
        cycle.pop_back();
        return f;
    };

    // Reference documents: the first op per format; .etl and .etlc
    // must agree byte for byte.
    ColdResult ref[3];
    bool haveRef[3] = {false, false, false};
    std::vector<double> latencyMs, untracedMs, tracedMs;
    std::map<int, std::vector<double>> perFormatMs;
    std::vector<ColdResult> tracedResults;
    std::uint64_t ops = 0;
    std::string csvQueryError;

    Clock::time_point start = Clock::now();
    Clock::time_point traceFrom =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds / 3));
    // Whole cycles only: every run then holds each file equally often,
    // so its share of failed requests (the .csv query) is the same in
    // every run, whatever the run's length.
    while (!cycle.empty() ||
           keepMeasuring(start, args.seconds, latencyMs.size())) {
        int f = nextFormat();
        const std::string &path = corpus.path(f);
        bool tracing = args.trace && Clock::now() >= traceFrom;
        Tracer::get().setEnabled(tracing);
        ++ops;
        Clock::time_point t0 = Clock::now();
        ColdResult r = tracing ? tracedOp(path, kFormats[f], ops)
                               : serviceOp(path);
        double ms = msBetween(t0, Clock::now());
        Tracer::get().setEnabled(false);
        // A user's cold op is a fresh CLI process. Hand the op's freed
        // heap back before the next one, untimed, so no op starts from
        // memory an earlier op left mapped and peak RSS does not depend
        // on the rotation order.
        malloc_trim(0);

        outcome.attempted += 2;
        outcome.failed += (r.queryOk ? 0 : 1) + (r.bottlenecksOk ? 0 : 1);
        if (f == 2 && !r.queryOk)
            csvQueryError = r.queryError;
        if (r.queryOk && r.bottlenecksOk) {
            latencyMs.push_back(ms);
            perFormatMs[f].push_back(ms);
            if (args.trace)
                (tracing ? tracedMs : untracedMs).push_back(ms);
        }

        // Byte identity against the first result of the same format
        // (Service or traced path alike); .etl against .etlc below.
        if (!haveRef[f]) {
            ref[f] = r;
            haveRef[f] = true;
        } else if (r.queryOk != ref[f].queryOk ||
                   r.bottlenecksOk != ref[f].bottlenecksOk ||
                   r.queryDoc != ref[f].queryDoc ||
                   r.bottlenecksDoc != ref[f].bottlenecksDoc) {
            std::fprintf(stderr,
                         "deskbench: op %llu on .%s: documents differ "
                         "from the first .%s op\n",
                         static_cast<unsigned long long>(ops),
                         kFormats[f], kFormats[f]);
            outcome.correct = false;
        }
        if (tracing)
            tracedResults.push_back(std::move(r));
    }
    double wallS = msBetween(start, Clock::now()) / 1e3;
    if (haveRef[0] && haveRef[1] &&
        (ref[0].queryDoc != ref[1].queryDoc ||
         ref[0].bottlenecksDoc != ref[1].bottlenecksDoc)) {
        std::fprintf(stderr, "deskbench: .etl and .etlc documents "
                             "differ\n");
        outcome.correct = false;
    }
    if (!csvQueryError.empty())
        note("csv query failed (expected, counted as failed ops): %s",
             csvQueryError.c_str());
    for (int f = 0; f < 3; ++f)
        note("cold op on .%-4s p50 %.3f ms (n=%zu)", kFormats[f],
             median(perFormatMs[f]), perFormatMs[f].size());
    Tail tail = tailOf(latencyMs);
    note("cold_p50_ms  %.3f ms per cold op (n=%zu)", median(latencyMs),
         latencyMs.size());
    note("cold_tail_ms %.3f ms (p%.1f, n=%zu)", tail.value, tail.pct,
         tail.n);

    if (!args.trace) {
        outcome.metrics =
            endToEnd(setupSeconds, outcome.attempted, outcome.failed,
                     latencyMs, static_cast<double>(ops) / wallS);
        return outcome;
    }

    SpanSummary spans{Tracer::get().spans()};
    auto &L = outcome.layers;
    addSimMetrics(outcome, spans, sim.retainedEvents, iterationEvents);
    L["trace.write_etl_ms"] = spans.medianMs("trace.writeEtl");
    L["trace.write_etlc_ms"] = spans.medianMs("trace.writeEtlc");
    L["trace.write_bytes_etl"] = static_cast<double>(bytes[0]);
    L["trace.write_bytes_etlc"] = static_cast<double>(bytes[1]);
    L["trace.map_ms"] = spans.medianMs("trace.map");
    for (int f = 0; f < 3; ++f) {
        double ms = spans.medianMs(std::string("trace.decode.") +
                                   kFormats[f]);
        L[std::string("trace.decode_ms.") + kFormats[f]] = ms;
        L[std::string("trace.decode_mb_per_s.") + kFormats[f]] =
            ms > 0 ? static_cast<double>(bytes[f]) / 1e6 / (ms / 1e3)
                   : 0.0;
    }
    L["analysis.index_build_ms"] = spans.medianMs("analysis.index_build");
    L["analysis.plan_compile_ms"] =
        spans.medianMs("analysis.plan_compile");
    L["analysis.plan_run_ms"] = spans.medianMs("analysis.plan_run");
    L["analysis.blocking_ms"] = spans.medianMs("analysis.blocking");
    L["report.render_ms"] = spans.medianMs("report.render");
    std::vector<double> docBytes;
    for (std::size_t i = 0; i < tracedResults.size(); ++i) {
        const ColdResult &r = tracedResults[i];
        if (r.queryOk) {
            L["analysis.plan_filters"] = static_cast<double>(r.planFilters);
            L["analysis.plan_column_passes"] =
                static_cast<double>(r.planColumnPasses);
        }
        docBytes.push_back(static_cast<double>(r.queryDoc.size() +
                                               r.bottlenecksDoc.size()));
    }
    L["report.bytes"] = median(docBytes);
    note("layers: map %.3f ms; decode etl %.1f / etlc %.1f / csv %.1f ms; "
         "index %.1f ms; plan compile %.3f ms, run %.1f ms (%g filters, "
         "%g column passes); blocking %.1f ms; render %.3f ms",
         L["trace.map_ms"], L["trace.decode_ms.etl"],
         L["trace.decode_ms.etlc"], L["trace.decode_ms.csv"],
         L["analysis.index_build_ms"], L["analysis.plan_compile_ms"],
         L["analysis.plan_run_ms"], L["analysis.plan_filters"],
         L["analysis.plan_column_passes"], L["analysis.blocking_ms"],
         L["report.render_ms"]);
    addSelfTimes(outcome, spans);
    noteOverhead(outcome, median(untracedMs), median(tracedMs));
    double drift = outcome.layers["bench.trace_overhead_frac"];
    if (!untracedMs.empty() && !tracedMs.empty() &&
        std::abs(drift) > kTraceDriftBound) {
        std::fprintf(stderr,
                     "deskbench: the traced op's p50 is %+.1f%% off the "
                     "Service op's; tracedOp no longer follows the "
                     "Service's path\n",
                     100.0 * drift);
        outcome.correct = false;
    }
    return outcome;
}

} // namespace deskbench
