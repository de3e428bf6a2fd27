#include "analysis/trace_index.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "analysis/concurrency_timeline.hh"
#include "analysis/intervals.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"
#include "trace/etl.hh"

namespace deskpar::analysis {

using sim::SimDuration;
using sim::SimTime;

/**
 * Columns derived from the events of one pid set. The cswitch-derived
 * pieces (timeline, dispatch column, ready waits) are built in one
 * fused sweep (detail::buildFilterColumns, shared with the query
 * planner); frame statistics sweep a different event vector and build
 * on first use. Each family has its own build lock, held only while
 * that family of this pid set builds, and a flag that publishes the
 * finished columns to lock-free readers.
 */
struct TraceIndex::PidColumns
{
    /** The pid set's default filter (no tid, all cpus). */
    detail::TimelineSpec spec;

    std::mutex cswitchMutex;
    std::atomic<bool> cswitchBuilt{false};
    /** Timeline + dispatches + waits (the index cache spills the
     *  waits so a warm `deskpar serve` reopen keeps them). */
    detail::FilterColumns cswitch;

    std::mutex framesMutex;
    std::atomic<bool> framesBuilt{false};
    FrameStats frames;
};

/**
 * Pid-agnostic GPU packet columns: the start-time column is binary
 * searchable when the stream is sorted, and the running-max finish
 * column bounds how far back a window's candidates can reach.
 */
struct TraceIndex::GpuColumns
{
    bool sortedByStart = true;
    std::vector<SimTime> starts;
    std::vector<SimTime> maxFinish;
};

/** Per-CPU busy intervals (pid-agnostic; the power estimate). */
struct TraceIndex::CpuBusyColumns
{
    std::map<trace::CpuId, std::vector<Interval>> busy;
};

namespace {

/**
 * Fused sweep: concurrency timeline, dispatch column and ready waits,
 * via the shared builder with this pid set's default filter (no tid,
 * all cpus) — the exact historical TraceIndex sweep.
 */
void
buildCswitchColumns(const trace::TraceBundle &bundle,
                    TraceIndex::PidColumns &cols)
{
    obs::Span span("index.build.cswitch", obs::SpanKind::Index,
                   bundle.cswitches.size());
    detail::ColumnNeeds needs;
    needs.dispatches = true;
    needs.waits = true;
    cols.cswitch = detail::buildFilterColumns(bundle, cols.spec, needs);
}

// ---- column-blob primitives (index cache serialization) ----

void
putZigzag(std::string &out, std::int64_t v)
{
    trace::putVarint(out, (static_cast<std::uint64_t>(v) << 1) ^
                              static_cast<std::uint64_t>(v >> 63));
}

void
putDoubleBits(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
}

bool
getU64(std::string_view data, std::size_t &pos, std::uint64_t &value)
{
    value = 0;
    unsigned shift = 0;
    while (true) {
        if (pos >= data.size() || shift >= 64)
            return false;
        auto byte = static_cast<std::uint8_t>(data[pos++]);
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
        shift += 7;
    }
}

bool
getZigzag(std::string_view data, std::size_t &pos,
          std::int64_t &value)
{
    std::uint64_t z = 0;
    if (!getU64(data, pos, z))
        return false;
    value = static_cast<std::int64_t>(z >> 1) ^
            -static_cast<std::int64_t>(z & 1);
    return true;
}

bool
getByte(std::string_view data, std::size_t &pos, std::uint8_t &value)
{
    if (pos >= data.size())
        return false;
    value = static_cast<std::uint8_t>(data[pos++]);
    return true;
}

bool
getDoubleBits(std::string_view data, std::size_t &pos, double &value)
{
    if (data.size() - pos < 8)
        return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
        bits |= static_cast<std::uint64_t>(
                    static_cast<std::uint8_t>(data[pos + i]))
                << (8 * i);
    pos += 8;
    std::memcpy(&value, &bits, sizeof value);
    return true;
}

/** Bound an element count by the bytes left (each takes ≥ 1 byte). */
bool
getCount(std::string_view data, std::size_t &pos, std::uint64_t &n)
{
    return getU64(data, pos, n) && n <= data.size() - pos;
}

/**
 * The serializeColumns()/adoptColumns() blob format version (layout
 * in DESIGN.md §15).
 */
constexpr std::uint64_t kColumnsVersion = 2;

} // namespace

TraceIndex::TraceIndex(const TraceBundle &bundle) : bundle_(bundle) {}

TraceIndex::~TraceIndex() = default;

TraceIndex::PidColumns &
TraceIndex::pidColumns(const PidSet &pids) const
{
    std::vector<trace::Pid> key(pids.begin(), pids.end());
    std::sort(key.begin(), key.end());
    {
        std::shared_lock<std::shared_mutex> lock(mapMutex_);
        auto it = perPid_.find(key);
        if (it != perPid_.end())
            return *it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mapMutex_);
    std::unique_ptr<PidColumns> &slot = perPid_[std::move(key)];
    if (!slot) {
        slot = std::make_unique<PidColumns>();
        slot->spec.pids = pids;
    }
    return *slot;
}

const TraceIndex::PidColumns &
TraceIndex::ensureCswitch(PidColumns &cols, bool *built) const
{
    if (built)
        *built = false;
    if (cols.cswitchBuilt.load(std::memory_order_acquire))
        return cols;
    std::lock_guard<std::mutex> lock(cols.cswitchMutex);
    if (!cols.cswitchBuilt.load(std::memory_order_relaxed)) {
        // A restored index has no cswitch stream to sweep — the
        // cache intentionally drops it. Recomputing here would
        // silently return empty columns; fail loudly instead.
        if (restored_)
            deskpar::fatal(
                "TraceIndex: pid set not present in the restored "
                "index cache (reopen the trace with a cold ingest)");
        buildCswitchColumns(bundle_, cols);
        cols.cswitchBuilt.store(true, std::memory_order_release);
        if (built)
            *built = true;
    }
    return cols;
}

const detail::FilterColumns &
TraceIndex::storeColumns(const PidSet &pids, bool *built) const
{
    return ensureCswitch(pidColumns(pids), built).cswitch;
}

const TraceIndex::PidColumns &
TraceIndex::cswitchColumns(const PidSet &pids) const
{
    const PidColumns &cols = ensureCswitch(pidColumns(pids), nullptr);
    warnOutOfRangeOnce(cols.cswitch.timeline.outOfRangeCpuEvents,
                       cols.cswitch.timeline.cutoff);
    return cols;
}

void
TraceIndex::warnOutOfRangeOnce(std::uint64_t count,
                               unsigned num_cpus) const
{
    if (count == 0 || num_cpus == 0)
        return;
    trace::emitDiagnosticOnce(
        warnedOutOfRange_,
        detail::outOfRangeCpusDiagnostic(count, num_cpus));
}

const TraceIndex::GpuColumns &
TraceIndex::gpuColumns() const
{
    if (gpuBuilt_.load(std::memory_order_acquire))
        return *gpu_;
    std::lock_guard<std::mutex> lock(gpuMutex_);
    if (!gpu_) {
        obs::Span span("index.build.gpu", obs::SpanKind::Index,
                       bundle_.gpuPackets.size());
        auto gc = std::make_unique<GpuColumns>();
        const auto &packets = bundle_.gpuPackets;
        gc->starts.reserve(packets.size());
        gc->maxFinish.reserve(packets.size());
        SimTime mx = 0;
        for (std::size_t i = 0; i < packets.size(); ++i) {
            if (i > 0 && packets[i].start < packets[i - 1].start)
                gc->sortedByStart = false;
            gc->starts.push_back(packets[i].start);
            mx = i == 0 ? packets[i].finish
                        : std::max(mx, packets[i].finish);
            gc->maxFinish.push_back(mx);
        }
        gpu_ = std::move(gc);
    }
    gpuBuilt_.store(true, std::memory_order_release);
    return *gpu_;
}

const TraceIndex::CpuBusyColumns &
TraceIndex::cpuBusyColumns() const
{
    if (cpuBusyBuilt_.load(std::memory_order_acquire))
        return *cpuBusy_;
    std::lock_guard<std::mutex> lock(cpuBusyMutex_);
    if (!cpuBusy_) {
        if (restored_)
            deskpar::fatal(
                "TraceIndex: per-CPU busy columns missing from the "
                "restored index cache (reopen the trace with a cold "
                "ingest)");
        obs::Span span("index.build.cpubusy", obs::SpanKind::Index,
                       bundle_.cswitches.size());
        auto cb = std::make_unique<CpuBusyColumns>();
        cb->busy = detail::cpuBusyIntervals(bundle_);
        cpuBusy_ = std::move(cb);
    }
    cpuBusyBuilt_.store(true, std::memory_order_release);
    return *cpuBusy_;
}

ConcurrencyProfile
TraceIndex::concurrency(const PidSet &pids, SimTime t0,
                        SimTime t1) const
{
    obs::Span span("index.query.concurrency", obs::SpanKind::Query);
    const PidColumns &cols = cswitchColumns(pids);
    return detail::windowedConcurrency(bundle_, cols.spec,
                                       cols.cswitch.timeline, t0, t1);
}

ConcurrencyProfile
TraceIndex::concurrency(const PidSet &pids) const
{
    return concurrency(pids, bundle_.startTime, bundle_.stopTime);
}

GpuUtilization
TraceIndex::gpuUtil(const PidSet &pids, SimTime t0, SimTime t1) const
{
    obs::Span span("index.query.gpu", obs::SpanKind::Query);
    if (t1 <= t0)
        deskpar::fatal("gpuUtil: empty window");

    const GpuColumns &gc = gpuColumns();
    std::size_t first = 0;
    std::size_t last = bundle_.gpuPackets.size();
    if (gc.sortedByStart) {
        // Packets intersecting [t0, t1) start before t1 and have not
        // finished by t0; the running-max finish column is monotone,
        // so both bounds are binary searches.
        last = static_cast<std::size_t>(
            std::lower_bound(gc.starts.begin(), gc.starts.end(), t1) -
            gc.starts.begin());
        first = static_cast<std::size_t>(
            std::upper_bound(gc.maxFinish.begin(),
                             gc.maxFinish.begin() +
                                 static_cast<std::ptrdiff_t>(last),
                             t0) -
            gc.maxFinish.begin());
    }
    return detail::foldGpuPackets(bundle_, pids, t0, t1, first, last);
}

GpuUtilization
TraceIndex::gpuUtil(const PidSet &pids) const
{
    return gpuUtil(pids, bundle_.startTime, bundle_.stopTime);
}

FrameStats
TraceIndex::frameStats(const PidSet &pids) const
{
    obs::Span span("index.query.frames", obs::SpanKind::Query);
    PidColumns &cols = pidColumns(pids);
    if (!cols.framesBuilt.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(cols.framesMutex);
        if (!cols.framesBuilt.load(std::memory_order_relaxed)) {
            obs::Span buildSpan("index.build.frames",
                                obs::SpanKind::Index,
                                bundle_.frames.size());
            cols.frames = detail::sweepFrameStats(bundle_, pids);
            cols.framesBuilt.store(true, std::memory_order_release);
        }
    }
    return cols.frames;
}

Responsiveness
TraceIndex::responsiveness(const PidSet &pids) const
{
    obs::Span span("index.query.responsiveness",
                   obs::SpanKind::Query);
    return detail::responsivenessFromDispatches(
        bundle_, cswitchColumns(pids).cswitch.dispatches);
}

PowerEstimate
TraceIndex::power(const sim::CpuSpec &cpu,
                  const sim::GpuSpec &gpu) const
{
    obs::Span span("index.query.power", obs::SpanKind::Query);
    PowerEstimate out;
    out.seconds = sim::toSeconds(bundle_.duration());
    if (bundle_.duration() == 0)
        return out;
    GpuUtilization util = gpuUtil(PidSet{});
    return detail::powerFromBusyIntervals(cpuBusyColumns().busy,
                                          out.seconds,
                                          util.busyRatio, cpu, gpu);
}

void
TraceIndex::warm(const PidSet &pids) const
{
    cswitchColumns(pids);
    frameStats(pids);
    gpuColumns();
}

bool
TraceIndex::hasCswitchColumns(const PidSet &pids) const
{
    std::vector<trace::Pid> key(pids.begin(), pids.end());
    std::sort(key.begin(), key.end());
    std::shared_lock<std::shared_mutex> lock(mapMutex_);
    auto it = perPid_.find(key);
    return it != perPid_.end() &&
           it->second->cswitchBuilt.load(std::memory_order_acquire);
}

std::uint64_t
TraceIndex::columnBytes() const
{
    std::uint64_t bytes = 0;
    {
        std::shared_lock<std::shared_mutex> lock(mapMutex_);
        for (const auto &[key, slot] : perPid_) {
            bytes += sizeof(PidColumns) +
                     key.capacity() * sizeof(trace::Pid);
            if (slot->cswitchBuilt.load(std::memory_order_acquire))
                bytes += slot->cswitch.bytes();
        }
    }
    if (gpuBuilt_.load(std::memory_order_acquire))
        bytes += (gpu_->starts.capacity() +
                  gpu_->maxFinish.capacity()) *
                 sizeof(SimTime);
    if (cpuBusyBuilt_.load(std::memory_order_acquire)) {
        for (const auto &[cpu, intervals] : cpuBusy_->busy)
            bytes += intervals.capacity() * sizeof(Interval);
    }
    return bytes;
}

std::string
TraceIndex::serializeColumns() const
{
    const GpuColumns &gc = gpuColumns();
    const CpuBusyColumns &cb = cpuBusyColumns();

    std::shared_lock<std::shared_mutex> lock(mapMutex_);
    obs::Span span("index.serialize", obs::SpanKind::Index);

    // A pid set whose build is still in flight on another thread
    // serializes as not built; a finished one is immutable.
    for (const auto &[key, slot] : perPid_) {
        if (slot->cswitchBuilt.load(std::memory_order_acquire) &&
            !slot->cswitch.timeline.usable)
            return std::string(); // sweep-fallback index: no cache
    }

    std::string out;
    trace::putVarint(out, kColumnsVersion);

    out.push_back(gc.sortedByStart ? 1 : 0);
    trace::putVarint(out, gc.starts.size());
    SimTime prev = 0;
    for (SimTime s : gc.starts) { // may be unsorted → zigzag deltas
        putZigzag(out, static_cast<std::int64_t>(s - prev));
        prev = s;
    }
    prev = 0;
    for (SimTime f : gc.maxFinish) { // running max → plain deltas
        trace::putVarint(out, f - prev);
        prev = f;
    }

    trace::putVarint(out, cb.busy.size());
    for (const auto &[cpu, intervals] : cb.busy) {
        trace::putVarint(out, cpu);
        trace::putVarint(out, intervals.size());
        prev = 0;
        for (const Interval &iv : intervals) {
            putZigzag(out, static_cast<std::int64_t>(iv.begin - prev));
            prev = iv.begin;
            trace::putVarint(out, iv.end - iv.begin);
        }
    }

    trace::putVarint(out, perPid_.size());
    for (const auto &[key, slot] : perPid_) {
        trace::putVarint(out, key.size());
        trace::Pid prevPid = 0;
        for (trace::Pid pid : key) { // key is sorted
            trace::putVarint(out, pid - prevPid);
            prevPid = pid;
        }
        const PidColumns &c = *slot;
        bool cswitchBuilt =
            c.cswitchBuilt.load(std::memory_order_acquire);
        out.push_back(cswitchBuilt ? 1 : 0);
        if (cswitchBuilt) {
            const detail::ConcurrencyTimeline &tl = c.cswitch.timeline;
            trace::putVarint(out, tl.cutoff);
            trace::putVarint(out, tl.outOfRangeCpuEvents);
            trace::putVarint(out, tl.times.size());
            prev = 0;
            for (SimTime t : tl.times) { // sorted breakpoints
                trace::putVarint(out, t - prev);
                prev = t;
            }
            trace::putVarint(out, tl.levels.size());
            for (int level : tl.levels)
                putZigzag(out, level);
            trace::putVarint(out, tl.cum.size());
            for (SimDuration d : tl.cum)
                trace::putVarint(out, d);
            trace::putVarint(out, c.cswitch.dispatches.size());
            prev = 0;
            for (SimTime t : c.cswitch.dispatches) { // sorted
                trace::putVarint(out, t - prev);
                prev = t;
            }
            trace::putVarint(out, c.cswitch.waits.begin.size());
            prev = 0;
            for (SimTime t : c.cswitch.waits.begin) {
                putZigzag(out, static_cast<std::int64_t>(t - prev));
                prev = t;
            }
            prev = 0;
            for (SimTime t : c.cswitch.waits.end) { // end-sorted
                trace::putVarint(out, t - prev);
                prev = t;
            }
            // minBegin is the suffix minimum of the begin column in
            // this order — recomputed on adopt, never stored.
        }
        bool framesBuilt = c.framesBuilt.load(std::memory_order_acquire);
        out.push_back(framesBuilt ? 1 : 0);
        if (framesBuilt) {
            trace::putVarint(out, c.frames.frames);
            trace::putVarint(out, c.frames.synthesizedFrames);
            putDoubleBits(out, c.frames.avgFps);
            putDoubleBits(out, c.frames.fpsStddev);
            putDoubleBits(out, c.frames.onePercentLowFps);
        }
    }
    return out;
}

bool
TraceIndex::adoptColumns(std::string_view data, std::string *error)
{
    std::unique_lock<std::shared_mutex> lock(mapMutex_);
    if (gpu_ || cpuBusy_ || !perPid_.empty())
        deskpar::fatal(
            "TraceIndex::adoptColumns: columns already built");
    obs::Span span("index.adopt", obs::SpanKind::Index, data.size());

    auto fail = [&](const char *what) {
        if (error)
            *error = what;
        gpu_.reset();
        cpuBusy_.reset();
        perPid_.clear();
        return false;
    };

    std::size_t pos = 0;
    std::uint64_t v = 0;
    if (!getU64(data, pos, v) || v != kColumnsVersion)
        return fail("unsupported index-columns version");

    std::uint8_t flag = 0;
    if (!getByte(data, pos, flag))
        return fail("truncated GPU columns");
    auto gc = std::make_unique<GpuColumns>();
    gc->sortedByStart = flag != 0;
    std::uint64_t n = 0;
    if (!getCount(data, pos, n))
        return fail("corrupt GPU column count");
    gc->starts.reserve(static_cast<std::size_t>(n));
    gc->maxFinish.reserve(static_cast<std::size_t>(n));
    SimTime prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::int64_t d = 0;
        if (!getZigzag(data, pos, d))
            return fail("truncated GPU start column");
        prev += static_cast<std::uint64_t>(d);
        gc->starts.push_back(prev);
    }
    prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t d = 0;
        if (!getU64(data, pos, d))
            return fail("truncated GPU finish column");
        prev += d;
        gc->maxFinish.push_back(prev);
    }

    auto cb = std::make_unique<CpuBusyColumns>();
    std::uint64_t cpus = 0;
    if (!getCount(data, pos, cpus))
        return fail("corrupt CPU-busy map size");
    for (std::uint64_t c = 0; c < cpus; ++c) {
        std::uint64_t cpu = 0, count = 0;
        if (!getU64(data, pos, cpu) || !getCount(data, pos, count))
            return fail("corrupt CPU-busy entry");
        auto &intervals = cb->busy[static_cast<trace::CpuId>(cpu)];
        intervals.reserve(static_cast<std::size_t>(count));
        prev = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            std::int64_t db = 0;
            std::uint64_t len = 0;
            if (!getZigzag(data, pos, db) || !getU64(data, pos, len))
                return fail("truncated CPU-busy intervals");
            prev += static_cast<std::uint64_t>(db);
            intervals.push_back(Interval{prev, prev + len});
        }
    }

    std::uint64_t sets = 0;
    if (!getCount(data, pos, sets))
        return fail("corrupt pid-set count");
    for (std::uint64_t s = 0; s < sets; ++s) {
        std::uint64_t pidCount = 0;
        if (!getCount(data, pos, pidCount))
            return fail("corrupt pid-set size");
        std::vector<trace::Pid> key;
        key.reserve(static_cast<std::size_t>(pidCount));
        trace::Pid prevPid = 0;
        for (std::uint64_t i = 0; i < pidCount; ++i) {
            std::uint64_t d = 0;
            if (!getU64(data, pos, d))
                return fail("truncated pid set");
            prevPid += static_cast<trace::Pid>(d);
            key.push_back(prevPid);
        }
        auto cols = std::make_unique<PidColumns>();
        cols->spec.pids = PidSet(key.begin(), key.end());

        if (!getByte(data, pos, flag))
            return fail("truncated cswitch-built flag");
        if (flag) {
            detail::ConcurrencyTimeline &tl = cols->cswitch.timeline;
            tl.usable = true;
            std::uint64_t cutoff = 0;
            if (!getU64(data, pos, cutoff) ||
                !getU64(data, pos, tl.outOfRangeCpuEvents))
                return fail("truncated timeline header");
            if (cutoff == 0 || cutoff != bundle_.numLogicalCpus)
                return fail("timeline CPU count differs from the trace");
            tl.cutoff = static_cast<unsigned>(cutoff);
            if (!getCount(data, pos, n))
                return fail("corrupt timeline size");
            tl.times.reserve(static_cast<std::size_t>(n));
            prev = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t d = 0;
                if (!getU64(data, pos, d))
                    return fail("truncated timeline times");
                prev += d;
                tl.times.push_back(prev);
            }
            if (!getCount(data, pos, n))
                return fail("corrupt level-column size");
            tl.levels.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                std::int64_t level = 0;
                if (!getZigzag(data, pos, level))
                    return fail("truncated level column");
                tl.levels.push_back(static_cast<int>(level));
            }
            if (tl.levels.size() != tl.times.size())
                return fail("level column does not match the times");
            // A checkpoint column of any other shape than its levels
            // imply would be read out of bounds by windowed queries.
            tl.width = detail::checkpointWidth(tl.levels, tl.cutoff);
            if (!getCount(data, pos, n))
                return fail("corrupt checkpoint size");
            if (n != detail::checkpointRows(tl.times.size()) * tl.width)
                return fail("checkpoint column does not match the "
                            "timeline");
            tl.cum.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t d = 0;
                if (!getU64(data, pos, d))
                    return fail("truncated checkpoint column");
                tl.cum.push_back(d);
            }
            if (!getCount(data, pos, n))
                return fail("corrupt dispatch-column size");
            cols->cswitch.dispatches.reserve(
                static_cast<std::size_t>(n));
            prev = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t d = 0;
                if (!getU64(data, pos, d))
                    return fail("truncated dispatch column");
                prev += d;
                cols->cswitch.dispatches.push_back(prev);
            }
            if (!getCount(data, pos, n))
                return fail("corrupt wait-column size");
            detail::WaitColumns &w = cols->cswitch.waits;
            w.begin.reserve(static_cast<std::size_t>(n));
            w.end.reserve(static_cast<std::size_t>(n));
            w.minBegin.reserve(static_cast<std::size_t>(n));
            prev = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                std::int64_t d = 0;
                if (!getZigzag(data, pos, d))
                    return fail("truncated wait begins");
                prev += static_cast<std::uint64_t>(d);
                w.begin.push_back(prev);
            }
            prev = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t d = 0;
                if (!getU64(data, pos, d))
                    return fail("truncated wait ends");
                prev += d;
                w.end.push_back(prev);
            }
            // Rebuild the suffix-minimum column the serializer
            // elides; one reverse pass over the decoded begins.
            w.minBegin.assign(w.begin.size(), 0);
            SimTime mn = 0;
            for (std::size_t i = w.begin.size(); i-- > 0;) {
                mn = i + 1 == w.begin.size()
                         ? w.begin[i]
                         : std::min(mn, w.begin[i]);
                w.minBegin[i] = mn;
            }
            cols->cswitchBuilt = true;
        }

        if (!getByte(data, pos, flag))
            return fail("truncated frames-built flag");
        if (flag) {
            std::uint64_t frames = 0, synth = 0;
            if (!getU64(data, pos, frames) ||
                !getU64(data, pos, synth) ||
                !getDoubleBits(data, pos, cols->frames.avgFps) ||
                !getDoubleBits(data, pos, cols->frames.fpsStddev) ||
                !getDoubleBits(data, pos,
                               cols->frames.onePercentLowFps))
                return fail("truncated frame statistics");
            cols->frames.frames = static_cast<std::size_t>(frames);
            cols->frames.synthesizedFrames =
                static_cast<std::size_t>(synth);
            cols->framesBuilt = true;
        }
        perPid_[std::move(key)] = std::move(cols);
    }
    if (pos != data.size())
        return fail("trailing bytes in index-columns blob");

    gpu_ = std::move(gc);
    cpuBusy_ = std::move(cb);
    gpuBuilt_.store(true, std::memory_order_release);
    cpuBusyBuilt_.store(true, std::memory_order_release);
    restored_ = true;
    return true;
}

} // namespace deskpar::analysis
