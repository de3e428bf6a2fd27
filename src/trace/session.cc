#include "trace/session.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace deskpar::trace {

const char *
gpuEngineName(GpuEngineId engine)
{
    switch (engine) {
      case GpuEngineId::Graphics3D:
        return "3D";
      case GpuEngineId::Compute:
        return "Compute";
      case GpuEngineId::Copy:
        return "Copy";
      case GpuEngineId::VideoDecode:
        return "VideoDecode";
      case GpuEngineId::VideoEncode:
        return "VideoEncode";
    }
    return "Unknown";
}

std::size_t
TraceBundle::totalEvents() const
{
    return cswitches.size() + gpuPackets.size() + frames.size() +
           threadEvents.size() + processEvents.size() + markers.size();
}

std::size_t
TraceBundle::memoryBytes() const
{
    std::size_t bytes = sizeof(*this);
    bytes += cswitches.capacity() * sizeof(CSwitchEvent);
    bytes += gpuPackets.capacity() * sizeof(GpuPacketEvent);
    bytes += frames.capacity() * sizeof(FrameEvent);
    bytes += threadEvents.capacity() * sizeof(ThreadLifeEvent);
    bytes += processEvents.capacity() * sizeof(ProcessLifeEvent);
    bytes += markers.capacity() * sizeof(MarkerEvent);
    for (const auto &[pid, name] : processNames) {
        bytes += sizeof(Pid) + sizeof(std::string) + name.capacity();
        // Hash-node overhead (bucket pointer + next + hash).
        bytes += 3 * sizeof(void *);
    }
    for (const MarkerEvent &marker : markers)
        bytes += marker.label.capacity();
    return bytes;
}

/**
 * One snapshot of the name table, in both lookup directions the
 * analyses need: exact name -> sorted pids, and a lexicographically
 * sorted (name, pid) column so prefix queries are one lower_bound
 * plus a contiguous scan of the matching range.
 */
struct TraceBundle::NameIndex
{
    /** processNames.size() when the snapshot was built. */
    std::size_t stamp = 0;
    std::unordered_map<std::string, std::vector<Pid>> byName;
    std::vector<std::pair<std::string, Pid>> ordered;
};

const TraceBundle::NameIndex &
TraceBundle::nameIndex() const
{
    if (!nameIndex_ || nameIndex_->stamp != processNames.size()) {
        auto index = std::make_shared<NameIndex>();
        index->stamp = processNames.size();
        index->ordered.reserve(processNames.size());
        for (const auto &[pid, name] : processNames) {
            index->byName[name].push_back(pid);
            index->ordered.emplace_back(name, pid);
        }
        for (auto &[name, pids] : index->byName)
            std::sort(pids.begin(), pids.end());
        std::sort(index->ordered.begin(), index->ordered.end());
        nameIndex_ = std::move(index);
    }
    return *nameIndex_;
}

std::vector<Pid>
TraceBundle::pidsByName(const std::string &name) const
{
    const NameIndex &index = nameIndex();
    auto it = index.byName.find(name);
    if (it == index.byName.end())
        return {};
    return it->second;
}

std::vector<Pid>
TraceBundle::pidsByPrefix(const std::string &prefix) const
{
    const NameIndex &index = nameIndex();
    // Names starting with the prefix form one contiguous range of the
    // sorted column, beginning at lower_bound(prefix).
    auto first = std::lower_bound(
        index.ordered.begin(), index.ordered.end(), prefix,
        [](const std::pair<std::string, Pid> &entry,
           const std::string &p) { return entry.first < p; });
    std::vector<Pid> pids;
    for (auto it = first; it != index.ordered.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        pids.push_back(it->second);
    }
    std::sort(pids.begin(), pids.end());
    return pids;
}

bool
checkLogicalCpuCount(std::uint64_t count, ParseError &err)
{
    if (count <= kMaxLogicalCpus)
        return true;
    err.field = "numLogicalCpus";
    err.reason = "CPU count " + std::to_string(count) +
                 " exceeds the cap of " +
                 std::to_string(kMaxLogicalCpus);
    return false;
}

std::vector<ParseError>
TraceBundle::validateEncoding() const
{
    std::vector<ParseError> errors;
    auto add = [&](const char *section, std::uint64_t record,
                   std::string reason) {
        ParseError e;
        e.section = section;
        e.record = record;
        e.reason = std::move(reason);
        errors.push_back(std::move(e));
    };

    if (stopTime < startTime) {
        add("header", ParseError::kNoPosition,
            "stopTime " + std::to_string(stopTime) +
                " precedes startTime " + std::to_string(startTime));
    }
    ParseError cpus;
    if (!checkLogicalCpuCount(numLogicalCpus, cpus)) {
        cpus.section = "header";
        errors.push_back(std::move(cpus));
    }

    auto checkSorted = [&](const auto &events, const char *section,
                           auto key, const char *what) {
        for (std::size_t i = 1; i < events.size(); ++i) {
            if (key(events[i]) < key(events[i - 1])) {
                add(section, i,
                    std::string(what) + " " +
                        std::to_string(key(events[i])) +
                        " precedes predecessor " +
                        std::to_string(key(events[i - 1])) +
                        " (stream not sorted)");
            }
        }
    };
    auto byTimestamp = [](const auto &e) { return e.timestamp; };
    checkSorted(cswitches, "CSwitch", byTimestamp, "timestamp");
    checkSorted(gpuPackets, "GpuPackets",
                [](const GpuPacketEvent &e) { return e.start; },
                "start");
    checkSorted(frames, "Frames", byTimestamp, "timestamp");

    for (std::size_t i = 0; i < cswitches.size(); ++i) {
        const CSwitchEvent &e = cswitches[i];
        if (e.readyTime > e.timestamp) {
            add("CSwitch", i,
                "ready time " + std::to_string(e.readyTime) +
                    " after switch-in time " +
                    std::to_string(e.timestamp));
        }
    }

    for (std::size_t i = 0; i < gpuPackets.size(); ++i) {
        const GpuPacketEvent &e = gpuPackets[i];
        if (e.queued > e.start) {
            add("GpuPackets", i,
                "queued " + std::to_string(e.queued) +
                    " after start " + std::to_string(e.start));
        }
        if (e.finish < e.start) {
            add("GpuPackets", i,
                "finish " + std::to_string(e.finish) +
                    " before start " + std::to_string(e.start));
        }
    }
    return errors;
}

void
TraceSession::start(SimTime now)
{
    if (recording_)
        fatal("TraceSession::start: already recording");
    recording_ = true;
    active_ = providers_;
    bundle_.startTime = now;
}

void
TraceSession::stop(SimTime now)
{
    if (!recording_)
        fatal("TraceSession::stop: not recording");
    if (now < bundle_.startTime)
        panic("TraceSession::stop: time went backwards");
    recording_ = false;
    active_ = 0;
    bundle_.stopTime = now;
}

void
TraceSession::registerProcess(Pid pid, const std::string &name)
{
    auto [it, inserted] = bundle_.processNames.emplace(pid, name);
    if (!inserted && it->second != name) {
        // A same-size rename is invisible to the size stamp.
        it->second = name;
        bundle_.nameIndex_.reset();
    }
}

void
TraceSession::recordProcessLife(const ProcessLifeEvent &e)
{
    if (e.created)
        registerProcess(e.pid, e.name);
    if (active_ & kProviderLifecycle)
        bundle_.processEvents.push_back(e);
}

TraceBundle
TraceSession::takeBundle()
{
    TraceBundle out = std::move(bundle_);
    bundle_ = TraceBundle{};
    return out;
}

} // namespace deskpar::trace
