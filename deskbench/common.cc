#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

namespace deskbench {

namespace {

thread_local std::int64_t tCurrentSpan = -1;

/** "trace.decode.etl" -> "trace". */
std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

void
printNumber(double value)
{
    // All digits, as measured; JSON has no inf/nan.
    if (!std::isfinite(value))
        value = 0.0;
    std::printf("%.17g", value);
}

} // namespace

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string
workDir(const std::string &workload)
{
    return ".bench_work/" + workload;
}

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

std::int64_t
Tracer::open(const std::string &name, std::uint64_t op,
             std::int64_t parent)
{
    if (!enabled_)
        return -1;
    SpanRecord rec;
    rec.name = name;
    rec.op = op;
    rec.parent = parent;
    std::lock_guard<std::mutex> lock(mutex_);
    rec.start = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
    spans_.push_back(std::move(rec));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void
Tracer::close(std::int64_t index)
{
    if (index < 0)
        return;
    std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = now;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start
            << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << "}\n";
    }
    return static_cast<bool>(out);
}

Span::Span(const std::string &name, std::uint64_t op,
           std::int64_t parent)
{
    Tracer &tracer = Tracer::get();
    if (!tracer.enabled())
        return;
    if (parent == kThreadParent)
        parent = tCurrentSpan;
    index_ = tracer.open(name, op, parent);
    saved_ = tCurrentSpan;
    tCurrentSpan = index_;
}

Span::~Span()
{
    if (index_ < 0)
        return;
    Tracer::get().close(index_);
    tCurrentSpan = saved_;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double rank = std::ceil(p / 100.0 *
                            static_cast<double>(samples.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

double
median(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    std::vector<double> s = samples;
    std::sort(s.begin(), s.end());
    std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

Tail
tailOf(std::vector<double> samples)
{
    Tail tail;
    tail.n = samples.size();
    if (tail.n < kTailSamples)
        return tail;
    std::sort(samples.begin(), samples.end());
    tail.value = samples[tail.n - 11];
    tail.pct = 100.0 * static_cast<double>(tail.n - 10) /
               static_cast<double>(tail.n);
    return tail;
}

bool
keepMeasuring(Clock::time_point start, double seconds,
              std::size_t samples)
{
    double elapsed = msBetween(start, Clock::now()) / 1e3;
    return elapsed < seconds ||
           (samples < kTailSamples && elapsed < 2.0 * seconds);
}

std::vector<double>
SpanSummary::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const SpanRecord &s : spans)
        if (s.name == name && s.end >= s.start)
            out.push_back(static_cast<double>(s.end - s.start) / 1e6);
    return out;
}

double
SpanSummary::medianMs(const std::string &name) const
{
    return median(durationsMs(name));
}

std::map<std::string, double>
SpanSummary::selfMsByLayer() const
{
    // Children of each span, then self = duration minus the union of
    // the children's intervals clipped to the parent.
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)]
                .push_back(i);

    // (layer, op) -> summed self ns.
    std::map<std::string, std::map<std::uint64_t, double>> perOp;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        if (s.op == 0 || s.end < s.start)
            continue;
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (std::size_t c : children[i]) {
            std::int64_t a = std::max(spans[c].start, s.start);
            std::int64_t b = std::min(spans[c].end, s.end);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, curA = 0, curB = -1;
        for (const auto &[a, b] : iv) {
            if (a > curB) {
                if (curB > curA)
                    covered += curB - curA;
                curA = a;
                curB = b;
            } else {
                curB = std::max(curB, b);
            }
        }
        if (curB > curA)
            covered += curB - curA;
        perOp[layerOf(s.name)][s.op] +=
            static_cast<double>(s.end - s.start - covered) / 1e6;
    }

    std::map<std::string, double> out;
    for (const auto &[layer, ops] : perOp) {
        std::vector<double> v;
        for (const auto &[op, ms] : ops)
            v.push_back(ms);
        out[layer] = median(v);
    }
    return out;
}

const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> kLayers = {
        "sim", "apps", "trace", "analysis", "report", "serve"};
    return kLayers;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
printResult(bool correct, std::uint64_t attempted,
            std::uint64_t failed, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                    metrics[i].name.c_str());
        printNumber(metrics[i].value);
        std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

void
note(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
}

std::vector<double>
repeatSetup(const std::function<void()> &setup)
{
    std::vector<double> seconds;
    for (int k = 0; k < 3; ++k) {
        Clock::time_point t0 = Clock::now();
        setup();
        seconds.push_back(msBetween(t0, Clock::now()) / 1e3);
    }
    note("peak RSS after set-up: %.1f MB", peakRssMb());
    return seconds;
}

std::vector<Metric>
endToEnd(const std::vector<double> &setupSeconds,
         std::uint64_t attempted, std::uint64_t failed,
         const std::vector<double> &latenciesMs, double opsPerSecond)
{
    std::string all;
    for (double s : setupSeconds) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.3f", all.empty() ? "" : " ",
                      s);
        all += buf;
    }
    double okFrac = attempted ? static_cast<double>(attempted - failed) /
                                    static_cast<double>(attempted)
                              : 0.0;
    Tail tail = tailOf(latenciesMs);
    double rss = peakRssMb();
    note("setup_s      %.3f s (median of %zu set-ups: %s)",
         median(setupSeconds), setupSeconds.size(), all.c_str());
    note("peak_rss_mb  %.1f MB", rss);
    note("ok_frac      %.4f (%llu of %llu ops completed; failed_frac "
         "%.4f)",
         okFrac,
         static_cast<unsigned long long>(attempted - failed),
         static_cast<unsigned long long>(attempted), 1.0 - okFrac);
    note("op_p50_ms    %.3f ms (n=%zu)", median(latenciesMs),
         latenciesMs.size());
    note("op_tail_ms   %.3f ms (p%.1f, n=%zu, 10 samples beyond)",
         tail.value, tail.pct, tail.n);
    note("ops_per_s    %.4f 1/s", opsPerSecond);
    return {
        {"setup_s", median(setupSeconds), "s"},
        {"peak_rss_mb", rss, "MB"},
        {"ok_frac", okFrac, "frac"},
        {"op_p50_ms", median(latenciesMs), "ms"},
        {"op_tail_ms", tail.value, "ms"},
        {"ops_per_s", opsPerSecond, "1/s"},
    };
}

void
noteOverhead(Outcome &outcome, double untracedP50Ms, double tracedP50Ms)
{
    outcome.layers["bench.op_p50_ms.untraced"] = untracedP50Ms;
    outcome.layers["bench.op_p50_ms.traced"] = tracedP50Ms;
    double overhead =
        untracedP50Ms > 0 ? tracedP50Ms / untracedP50Ms - 1.0 : 0.0;
    outcome.layers["bench.trace_overhead_frac"] = overhead;
    note("tracing overhead: op p50 %.3f ms traced vs %.3f ms untraced "
         "(%+.1f%%)",
         tracedP50Ms, untracedP50Ms, 100.0 * overhead);
}

void
addSelfTimes(Outcome &outcome, const SpanSummary &summary)
{
    std::map<std::string, double> self = summary.selfMsByLayer();
    for (const std::string &layer : layerNames()) {
        double ms = self.count(layer) ? self[layer] : 0.0;
        outcome.layers["self_ms." + layer] = ms;
        note("self time %-9s %10.3f ms per op (median)", layer.c_str(),
             ms);
    }
    outcome.layers["bench.spans"] =
        static_cast<double>(summary.spans.size());
}

} // namespace deskbench
