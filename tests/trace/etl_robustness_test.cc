/**
 * @file
 * Failure-injection tests for the .etl reader: truncations and byte
 * corruption must produce FatalError (or, for payload-only flips, a
 * successfully parsed bundle) — never crashes, hangs, or unbounded
 * allocation.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "sim/logging.hh"
#include "trace/etl.hh"

namespace {

using namespace deskpar;
using namespace deskpar::trace;

std::string
serializedSample()
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = 100000;
    bundle.numLogicalCpus = 12;
    bundle.processNames[0] = "Idle";
    bundle.processNames[7] = "app";
    for (int i = 0; i < 40; ++i) {
        CSwitchEvent e;
        e.timestamp = static_cast<SimTime>(i * 1000);
        e.cpu = static_cast<CpuId>(i % 12);
        e.newPid = i % 2 ? 7 : 0;
        e.newTid = i % 2 ? 71 : 0;
        bundle.cswitches.push_back(e);
        GpuPacketEvent g;
        g.start = static_cast<SimTime>(i * 1000);
        g.finish = g.start + 500;
        g.pid = 7;
        bundle.gpuPackets.push_back(g);
    }
    std::ostringstream out;
    writeEtl(bundle, out);
    return out.str();
}

/** Parse arbitrary bytes; success or FatalError are both fine. */
void
mustNotCrash(const std::string &data)
{
    std::istringstream in(data);
    try {
        TraceBundle bundle = readEtl(in);
        // If it parsed, basic sanity must hold.
        EXPECT_LE(bundle.startTime, bundle.stopTime + (1ull << 40));
    } catch (const FatalError &) {
        // Expected for malformed input.
    }
}

class EtlTruncation : public ::testing::TestWithParam<int>
{};

TEST_P(EtlTruncation, TruncatedPrefixNeverCrashes)
{
    std::string data = serializedSample();
    auto fraction = static_cast<std::size_t>(GetParam());
    mustNotCrash(data.substr(0, data.size() * fraction / 16));
}

INSTANTIATE_TEST_SUITE_P(Fractions, EtlTruncation,
                         ::testing::Range(0, 16));

TEST(EtlRobustness, SingleByteCorruptionSweep)
{
    std::string data = serializedSample();
    std::mt19937 rng(1234);
    // Flip one byte at 200 random positions.
    for (int trial = 0; trial < 200; ++trial) {
        std::string corrupted = data;
        std::size_t pos = rng() % corrupted.size();
        corrupted[pos] = static_cast<char>(rng() & 0xff);
        mustNotCrash(corrupted);
    }
}

TEST(EtlRobustness, RandomGarbageInput)
{
    std::mt19937 rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        std::string garbage(rng() % 300, '\0');
        for (char &c : garbage)
            c = static_cast<char>(rng() & 0xff);
        mustNotCrash(garbage);
    }
}

TEST(EtlRobustness, HugeDeclaredCountDoesNotAllocate)
{
    // Magic + version + header, then a CSwitch section claiming 2^40
    // events with no payload: the reader must fail on truncation,
    // not attempt a 2^40-element reserve.
    std::string body;
    putVarint(body, 1);       // version
    putVarint(body, 0);       // start
    putVarint(body, 100);     // stop
    putVarint(body, 12);      // cpus
    body.push_back('\x02');   // CSwitch section
    putVarint(body, 1ull << 40);

    std::string data = "DPETL\x01";
    data.push_back('\0');
    data.push_back('\0');
    data += body;
    mustNotCrash(data);
}

/**
 * A well-formed .etl whose only section is @p tag, declaring
 * @p count records in a @p frameBytes payload of zero bytes after the
 * count varint. Zero bytes decode as records of zero-valued varints
 * and empty strings, so the records that fit decode cleanly and the
 * rest of the declared count is a truncation defect.
 */
std::string
forgedCountEtl(std::uint8_t tag, std::uint64_t count,
               std::size_t frameBytes)
{
    std::string data = "DPETL\x01";
    data.push_back('\0');
    data.push_back('\0');
    putVarint(data, kEtlVersion);
    putVarint(data, 0);   // start
    putVarint(data, 100); // stop
    putVarint(data, 12);  // cpus
    std::string payload;
    putVarint(payload, count);
    payload.resize(frameBytes, '\0');
    data.push_back(static_cast<char>(tag));
    putVarint(data, payload.size());
    data += payload;
    data.push_back('\xff'); // End
    return data;
}

TEST(EtlRobustness, ForgedCountReservesNoMoreThanTheFrameHolds)
{
    // A 1 MB CSwitch frame declaring 1M records (a count the frame
    // length admits, at one byte per record): a record is at least 7
    // bytes (seven varints), so the frame holds at most 1 MB / 7 of
    // them and the reserve must stop there instead of allocating 40
    // bytes of events per byte of input.
    constexpr std::size_t kFrame = 1 << 20;
    constexpr std::uint64_t kCount = 1'000'000;
    const std::string cswitch = forgedCountEtl(2, kCount, kFrame);
    // A ThreadLife record is at least 5 bytes (four varints and a
    // string length), and each event holds a std::string.
    const std::string threads = forgedCountEtl(5, kCount, kFrame);
    for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
        SCOPED_TRACE(mode == ParseMode::Strict ? "strict" : "lenient");
        ParseOptions options;
        options.mode = mode;

        IngestReport report;
        TraceBundle bundle = decodeEtl(cswitch, options, report);
        EXPECT_FALSE(report.ok());
        EXPECT_EQ(bundle.cswitches.size(), (kFrame - 3) / 7);
        EXPECT_LE(bundle.cswitches.capacity(), kFrame / 7);

        bundle = decodeEtl(threads, options, report);
        EXPECT_FALSE(report.ok());
        EXPECT_EQ(bundle.threadEvents.size(), (kFrame - 3) / 5);
        EXPECT_LE(bundle.threadEvents.capacity(), kFrame / 5);
    }
}

} // namespace
