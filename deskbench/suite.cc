/**
 * @file
 * Workload `suite`: the `deskpar suite` Table II run at the paper
 * protocol (30 apps, 3 iterations x 30 simulated seconds) on the
 * SuiteRunner, in back-to-back closed-loop passes. Each app's
 * retained bundle is written as `deskpar run --etl` writes it
 * (writeEtl on the raw bundle) and packed as `deskpar pack` packs it
 * (sortBundle + writeEtlc). The simulator, the apps layer and the
 * write side of the trace layer do nearly all the work; decode, plan
 * and serve do none.
 *
 * One op is one app job of a pass (simulate, write .etl, pack). An
 * op fails when its .etl write is refused; the pack then has no
 * input and is not run, as in the CLI pipeline.
 */

#include <cstdio>
#include <map>
#include <mutex>
#include <random>

#include "analysis/session.hh"
#include "apps/harness.hh"
#include "apps/registry.hh"
#include "apps/runner.hh"
#include "common.hh"
#include "corpus.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/merge.hh"

namespace deskbench {

namespace {

using namespace deskpar;

/** Table II operating points (paper values): TLP, GPU %. */
const std::map<std::string, std::pair<double, double>> &
tableTwo()
{
    static const std::map<std::string, std::pair<double, double>> k = {
        {"photoshop", {8.6, 1.6}},    {"maya", {2.7, 9.9}},
        {"autocad", {1.2, 9.0}},      {"acrobat", {1.3, 0.0}},
        {"excel", {2.1, 2.1}},        {"powerpoint", {1.2, 4.0}},
        {"word", {1.3, 1.7}},         {"outlook", {1.3, 2.5}},
        {"quicktime", {1.1, 16.4}},   {"wmplayer", {1.3, 16.1}},
        {"vlc", {1.8, 15.7}},         {"powerdirector", {4.3, 6.3}},
        {"premiere", {1.8, 0.6}},     {"handbrake", {9.4, 0.4}},
        {"winx", {9.2, 13.6}},        {"firefox", {2.2, 8.6}},
        {"chrome", {2.2, 5.1}},       {"edge", {2.0, 4.0}},
        {"azsunshine", {3.4, 68.2}},  {"fallout4", {4.0, 84.9}},
        {"rawdata", {2.6, 90.9}},     {"serioussam", {2.4, 72.2}},
        {"spacepirate", {2.7, 61.6}}, {"projectcars2", {3.8, 80.2}},
        {"bitcoinminer", {5.4, 98.9}}, {"easyminer", {11.9, 96.1}},
        {"phoenixminer", {1.0, 100.0}}, {"wineth", {1.0, 99.7}},
        {"cortana", {1.4, 2.7}},      {"braina", {1.1, 0.0}},
    };
    return k;
}

/** What the runner's threads record during one pass. */
struct PassCounters
{
    /** Summed task time per app job, by app index. */
    std::vector<double> jobMs;
    std::uint64_t iterationEvents = 0;
    std::uint64_t writeBytesEtl = 0;
    std::uint64_t writeBytesEtlc = 0;
    std::vector<std::string> writeErrors;
};

struct PassState
{
    std::mutex mutex;
    PassCounters counters;
};

struct PassResult
{
    double wallMs = 0.0;
    double runnerMs = 0.0;
    /** By app index. */
    std::vector<std::string> digests;
    std::vector<apps::AppRunResult> results;
    std::uint64_t retainedEvents = 0;
    PassCounters counters;
};

std::uint64_t
eventsOf(const trace::TraceBundle &bundle)
{
    return bundle.cswitches.size() + bundle.gpuPackets.size();
}

/**
 * One suite job whose last iteration also writes and packs the
 * retained bundle on the worker thread.
 */
apps::SuiteJob
makeJob(std::size_t j, const std::string &id,
        const apps::RunOptions &options, const std::string &dir,
        PassState &state, std::uint64_t op, std::int64_t parent)
{
    apps::SuiteJob job;
    job.label = id;
    job.options = options;
    job.direct = [j, id, dir, &state, op,
                  parent](const apps::RunOptions &o, unsigned iter) {
        Clock::time_point t0 = Clock::now();
        apps::WorkloadPtr model = apps::makeWorkload(id);
        apps::IterationOutput out;
        {
            Span span("sim.iteration", op, parent);
            out = apps::runIteration(*model, o, iter);
        }
        std::uint64_t bytesEtl = 0, bytesEtlc = 0;
        std::string writeError;
        if (iter + 1 == o.iterations) {
            std::string etl = dir + "/" + id + ".etl";
            bool written = false;
            try {
                Span span("trace.writeEtl", op, parent);
                trace::writeEtl(out.bundle, etl);
                written = true;
            } catch (const std::exception &e) {
                writeError = id + ": " + e.what();
            }
            bytesEtl = fileBytes(etl);
            if (written) {
                trace::TraceBundle packed = out.bundle;
                {
                    Span span("trace.sortBundle", op, parent);
                    trace::sortBundle(packed);
                }
                std::string etlc = dir + "/" + id + ".etlc";
                {
                    Span span("trace.writeEtlc", op, parent);
                    trace::writeEtlc(packed, etlc);
                }
                bytesEtlc = fileBytes(etlc);
            }
        }
        double taskMs = msBetween(t0, Clock::now());
        std::lock_guard<std::mutex> lock(state.mutex);
        PassCounters &c = state.counters;
        c.jobMs[j] += taskMs;
        c.iterationEvents += eventsOf(out.bundle);
        c.writeBytesEtl += bytesEtl;
        c.writeBytesEtlc += bytesEtlc;
        if (!writeError.empty())
            c.writeErrors.push_back(writeError);
        return out;
    };
    return job;
}

PassResult
runPass(const apps::SuiteRunner &runner, const apps::RunOptions &options,
        const std::string &dir, const std::vector<std::size_t> &order,
        std::uint64_t op)
{
    const auto &suite = apps::tableTwoSuite();
    PassState state;
    state.counters.jobMs.assign(suite.size(), 0.0);
    PassResult pass;
    pass.digests.resize(suite.size());
    pass.results.resize(suite.size());
    Clock::time_point t0 = Clock::now();
    {
        Span passSpan("bench.pass", op);
        apps::SuiteOutcome outcome;
        {
            Span runnerSpan("apps.runner", op);
            std::vector<apps::SuiteJob> jobs;
            for (std::size_t j : order)
                jobs.push_back(makeJob(j, suite[j].id, options, dir,
                                       state, op, runnerSpan.index()));
            Clock::time_point r0 = Clock::now();
            outcome = runner.runRecoverable(jobs);
            pass.runnerMs = msBetween(r0, Clock::now());
        }
        if (!outcome.ok())
            throw std::runtime_error(
                "suite job failed: " +
                outcome.failures.front().diagnostic().str());
        for (std::size_t i = 0; i < order.size(); ++i) {
            std::size_t j = order[i];
            apps::AppRunResult &r = outcome.results[i];
            char buf[256];
            std::snprintf(buf, sizeof buf, "%s %.17g %.17g %.17g %.17g",
                          suite[j].id.c_str(), r.agg.tlp.mean(),
                          r.agg.tlp.stddev(), r.agg.gpuUtil.mean(),
                          r.agg.gpuUtil.stddev());
            pass.digests[j] = buf;
            pass.retainedEvents += eventsOf(r.lastBundle);
            pass.results[j] = std::move(r);
        }
    }
    pass.wallMs = msBetween(t0, Clock::now());
    pass.counters = std::move(state.counters);
    std::sort(pass.counters.writeErrors.begin(),
              pass.counters.writeErrors.end());
    return pass;
}

/** Table II within the repository's pinned tolerance. */
bool
checkTableTwo(const PassResult &pass)
{
    const auto &suite = apps::tableTwoSuite();
    bool ok = true;
    for (std::size_t j = 0; j < suite.size(); ++j) {
        auto it = tableTwo().find(suite[j].id);
        if (it == tableTwo().end()) {
            std::fprintf(stderr, "deskbench: %s has no Table II row\n",
                         suite[j].id.c_str());
            ok = false;
            continue;
        }
        auto [tlp0, gpu0] = it->second;
        double tlp = pass.results[j].tlp();
        double gpu = pass.results[j].gpuUtil();
        if (std::abs(tlp - tlp0) > std::max(0.25, tlp0 * 0.20) ||
            std::abs(gpu - gpu0) > std::max(1.5, gpu0 * 0.20)) {
            std::fprintf(stderr,
                         "deskbench: %s off Table II: TLP %.2f (paper "
                         "%.1f), GPU %.1f%% (paper %.1f%%)\n",
                         suite[j].id.c_str(), tlp, tlp0, gpu, gpu0);
            ok = false;
        }
    }
    return ok;
}

} // namespace

Outcome
runSuite(const Args &args)
{
    apps::RunOptions options;
    options.iterations = 3;
    options.duration = sim::sec(30.0);
    options.seedBase = kProtocolSeed;
    const std::string dir = workDir("suite");
    apps::SuiteRunner runner;
    const std::size_t apps = apps::tableTwoSuite().size();

    // The workload seed picks the order jobs are submitted in; the
    // runner's results must not depend on it.
    std::vector<std::size_t> order(apps);
    for (std::size_t j = 0; j < apps; ++j)
        order[j] = j;
    std::mt19937_64 rng(args.seed);
    for (std::size_t i = apps - 1; i > 0; --i)
        std::swap(order[i], order[rng() % (i + 1)]);

    Outcome outcome;

    // Set-up: one warm-up pass; the last one's digests are the
    // reference every measured pass must reproduce bit for bit.
    PassResult reference;
    std::vector<double> setupSeconds = repeatSetup(
        [&] { reference = runPass(runner, options, dir, order, 0); });
    if (!checkTableTwo(reference))
        outcome.correct = false;
    const PassCounters &ref = reference.counters;
    for (const std::string &e : ref.writeErrors)
        note("write failed (counted as a failed op): %s", e.c_str());
    note("suite: %zu apps x %u iterations x 30 s, seed base %llu, job "
         "order from seed %llu, %u runner threads; %llu retained events "
         "per pass",
         apps, options.iterations,
         static_cast<unsigned long long>(kProtocolSeed),
         static_cast<unsigned long long>(args.seed), runner.threads(),
         static_cast<unsigned long long>(reference.retainedEvents));

    // Measured passes. A traced run spends its first third untraced,
    // for the overhead comparison.
    std::vector<double> passMs, untracedMs, tracedMs;
    std::vector<PassResult> traced;
    std::uint64_t op = 0;
    Clock::time_point start = Clock::now();
    Clock::time_point traceFrom =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds / 3));
    while (keepMeasuring(start, args.seconds, passMs.size())) {
        bool tracing = args.trace && Clock::now() >= traceFrom;
        Tracer::get().setEnabled(tracing);
        PassResult pass = runPass(runner, options, dir, order, ++op);
        Tracer::get().setEnabled(false);
        if (pass.digests != reference.digests) {
            std::fprintf(stderr, "deskbench: pass %llu digests differ "
                                 "from the first pass\n",
                         static_cast<unsigned long long>(op));
            outcome.correct = false;
        }
        outcome.attempted += apps;
        outcome.failed += pass.counters.writeErrors.size();
        passMs.push_back(pass.wallMs);
        if (args.trace) {
            (tracing ? tracedMs : untracedMs).push_back(pass.wallMs);
            if (tracing) {
                // Re-time Session::app on each retained bundle, outside
                // the op (op id 0), so the pass timing is unaffected.
                Tracer::get().setEnabled(true);
                for (const apps::AppRunResult &r : pass.results) {
                    Span span("analysis.app");
                    analysis::Session session(r.lastBundle);
                    (void)session.app(r.lastPids);
                }
                Tracer::get().setEnabled(false);
                pass.results.clear();
                traced.push_back(std::move(pass));
            }
        }
    }
    double wallS = msBetween(start, Clock::now()) / 1e3;
    note("suite_s      %.4f s per Table II pass (median of %zu passes)",
         median(passMs) / 1e3, passMs.size());

    if (!args.trace) {
        outcome.metrics =
            endToEnd(setupSeconds, outcome.attempted, outcome.failed,
                     passMs, static_cast<double>(outcome.attempted) /
                                 wallS);
        return outcome;
    }

    SpanSummary spans{Tracer::get().spans()};
    std::vector<double> jobMs, busy;
    std::uint64_t iterationEvents = 0;
    for (const PassResult &p : traced) {
        const std::vector<double> &ms = p.counters.jobMs;
        jobMs.insert(jobMs.end(), ms.begin(), ms.end());
        double sum = 0.0;
        for (double m : ms)
            sum += m;
        busy.push_back(sum / (runner.threads() * p.runnerMs));
        iterationEvents += p.counters.iterationEvents;
    }
    auto &L = outcome.layers;
    L["apps.job_ms_p50"] = median(jobMs);
    L["apps.job_ms_max"] = jobMs.empty() ? 0.0 : percentile(jobMs, 100);
    L["apps.runner_busy_frac"] = median(busy);
    addSimMetrics(outcome, spans, reference.retainedEvents,
                  iterationEvents);
    L["analysis.app_ms"] = spans.medianMs("analysis.app");
    L["trace.write_etl_ms"] = spans.medianMs("trace.writeEtl");
    L["trace.write_etlc_ms"] = spans.medianMs("trace.writeEtlc");
    L["trace.write_bytes_etl"] = static_cast<double>(ref.writeBytesEtl);
    L["trace.write_bytes_etlc"] = static_cast<double>(ref.writeBytesEtlc);
    L["trace.write_failed"] = static_cast<double>(ref.writeErrors.size());
    note("apps: job p50 %.1f ms, max %.1f ms, runner busy %.3f; sim "
         "iteration p50 %.1f ms; writeEtl p50 %.2f ms, writeEtlc p50 "
         "%.2f ms, %zu writes refused per pass",
         L["apps.job_ms_p50"], L["apps.job_ms_max"],
         L["apps.runner_busy_frac"], L["sim.iteration_ms"],
         L["trace.write_etl_ms"], L["trace.write_etlc_ms"],
         ref.writeErrors.size());
    addSelfTimes(outcome, spans);
    noteOverhead(outcome, median(untracedMs), median(tracedMs));
    return outcome;
}

} // namespace deskbench
