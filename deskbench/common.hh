/**
 * @file
 * Shared pieces of the DeskPar benchmark: command-line arguments,
 * the benchmark's own span recorder, sample statistics, and the
 * result line the benchmark prints last.
 *
 * Spans are recorded only by the benchmark, around each call it makes
 * into a DeskPar layer (sim, apps, trace, analysis, report, serve);
 * the span name's first component names the layer. They are kept in
 * memory and written out when the run ends. With tracing off no span
 * is recorded, so the end-to-end numbers carry no tracing cost.
 */

#ifndef DESKBENCH_COMMON_HH
#define DESKBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace deskbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock points. */
double msBetween(Clock::time_point a, Clock::time_point b);

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
};

/** Where a workload keeps its generated corpus (inside the cwd). */
std::string workDir(const std::string &workload);

/** One recorded span. Times are ns since the recorder's epoch. */
struct SpanRecord
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the parent span, or -1 for a root. */
    std::int64_t parent = -1;
    /** Operation the span belongs to (0 = set-up / none). */
    std::uint64_t op = 0;
};

/**
 * In-memory span store. Thread-safe; the parent of a span opened
 * without an explicit parent is the innermost span open on the same
 * thread.
 */
class Tracer
{
  public:
    static Tracer &get();

    bool enabled() const { return enabled_.load(); }
    void setEnabled(bool on) { enabled_.store(on); }

    /** Open a span; returns its index (or -1 when disabled). */
    std::int64_t open(const std::string &name, std::uint64_t op,
                      std::int64_t parent);
    void close(std::int64_t index);

    /** Copy of every span recorded so far. */
    std::vector<SpanRecord> spans() const;

    /** Write every span as JSON lines to @p path. */
    bool write(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** Sentinel: take the parent from the current thread's open span. */
constexpr std::int64_t kThreadParent = -2;

/** RAII span; a no-op while tracing is off. */
class Span
{
  public:
    explicit Span(const std::string &name, std::uint64_t op = 0,
                  std::int64_t parent = kThreadParent);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::int64_t index() const { return index_; }

  private:
    std::int64_t index_ = -1;
    std::int64_t saved_ = -1;
};

/** Nearest-rank percentile @p p (0..100) of @p samples. */
double percentile(std::vector<double> samples, double p);
double median(const std::vector<double> &samples);

/**
 * The tail: the highest percentile with at least ten samples beyond
 * it, i.e. the 11th-largest sample. Needs kTailSamples samples (value
 * 0 otherwise).
 */
struct Tail
{
    double value = 0.0;
    double pct = 0.0;
    std::size_t n = 0;
};
Tail tailOf(std::vector<double> samples);

constexpr std::size_t kTailSamples = 11;

/**
 * Whether a closed loop that started at @p start goes on: for
 * @p seconds, then while it has fewer than kTailSamples latency
 * samples, but never past twice @p seconds. A loop whose ops stop
 * completing therefore ends on time, with its failures counted.
 */
bool keepMeasuring(Clock::time_point start, double seconds,
                   std::size_t samples);

/** One metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Per-layer metrics derived from the recorded spans. */
struct SpanSummary
{
    /** Median duration (ms) of the spans called @p name; 0 if none. */
    double medianMs(const std::string &name) const;
    /** Every duration (ms) of the spans called @p name. */
    std::vector<double> durationsMs(const std::string &name) const;
    /** Median over ops of each layer's per-op self time (ms). */
    std::map<std::string, double> selfMsByLayer() const;

    std::vector<SpanRecord> spans;
};

/** The layers the benchmark names, in report order. */
const std::vector<std::string> &layerNames();

/** Peak resident set size of this process in MB. */
double peakRssMb();

/**
 * Print the contract's last line: one JSON object with correct,
 * attempted, failed and metrics.
 */
void printResult(bool correct, std::uint64_t attempted,
                 std::uint64_t failed,
                 const std::vector<Metric> &metrics);

/** Print one human-readable metric line (stdout, before the JSON). */
void note(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** What each workload hands back to main(). */
struct Outcome
{
    bool correct = true;
    /** Ops attempted and failed (the result line's counts). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Untraced run: the end-to-end metrics, in contract order. */
    std::vector<Metric> metrics;
    /** Traced run: per-layer metric values by name. */
    std::map<std::string, double> layers;
};

/**
 * Run a workload's set-up three times (the last one's state is kept)
 * and return each run's seconds, for setup_s.
 */
std::vector<double> repeatSetup(const std::function<void()> &setup);

/**
 * The end-to-end metrics every workload reports: set-up time (median
 * of the repeated set-ups), peak RSS, the share of ops that
 * completed, the op latency median and tail, and ops per second.
 */
std::vector<Metric> endToEnd(const std::vector<double> &setupSeconds,
                             std::uint64_t attempted,
                             std::uint64_t failed,
                             const std::vector<double> &latenciesMs,
                             double opsPerSecond);

/** Record the traced run's overhead against its untraced phase. */
void noteOverhead(Outcome &outcome, double untracedP50Ms,
                  double tracedP50Ms);

/** Fill the per-layer self times and span count from the spans. */
void addSelfTimes(Outcome &outcome, const SpanSummary &summary);

Outcome runSuite(const Args &args);
Outcome runTraceCold(const Args &args);
Outcome runServeWarm(const Args &args);

} // namespace deskbench

#endif // DESKBENCH_COMMON_HH
