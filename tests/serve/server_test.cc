/**
 * @file
 * End-to-end `deskpar serve` over a real AF_UNIX socket.
 *
 * Contract under test — the acceptance criterion of the serve API:
 * N simultaneous clients get responses whose result documents are
 * byte-identical to the documents a local Service renders for the
 * same requests; malformed requests get typed error envelopes
 * instead of connection drops; the stats op reports the cache and
 * per-op counters; and the shutdown op releases wait().
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/index_cache.hh"
#include "analysis/service.hh"
#include "report/documents.hh"
#include "serve/client.hh"
#include "serve/json_value.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "trace/etl.hh"

namespace {

using namespace deskpar;
using namespace deskpar::serve;

trace::TraceBundle
serverBundle()
{
    trace::TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.stopTime = 2000000;
    bundle.numLogicalCpus = 8;
    bundle.processNames[0] = "Idle";
    for (trace::Pid pid = 1000; pid < 1006; ++pid)
        bundle.processNames[pid] =
            "app-" + std::to_string(pid - 1000);

    std::uint64_t state = 42;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (unsigned i = 0; i < 4000; ++i) {
        trace::CSwitchEvent cs;
        cs.timestamp = 1000 + 400 * i + next() % 100;
        cs.cpu = static_cast<unsigned>(next() % 8);
        cs.oldPid = i % 2 ? 1000 + trace::Pid(next() % 6) : 0;
        cs.oldTid = cs.oldPid * 10 + 1;
        cs.newPid = i % 2 ? 0 : 1000 + trace::Pid(next() % 6);
        cs.newTid = cs.newPid * 10 + 1;
        cs.readyTime = cs.timestamp - next() % 900;
        bundle.cswitches.push_back(cs);
    }
    for (unsigned i = 0; i < 60; ++i) {
        trace::FrameEvent fr;
        fr.timestamp = 5000 + 16000 * i;
        fr.pid = 1000;
        fr.frameId = i;
        fr.synthesized = false;
        bundle.frames.push_back(fr);
    }
    return bundle;
}

/**
 * A running server plus the trace it serves. The socket lives
 * directly under /tmp with a pid-tagged name: TempDir paths can
 * exceed the ~107-byte AF_UNIX limit, /tmp never does.
 */
class ServerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Pid-unique: ctest runs each test case as its own process,
        // concurrently, against the same TempDir.
        tracePath_ = ::testing::TempDir() + "/server_test_" +
                     std::to_string(::getpid()) + ".etl";
        trace::writeEtl(serverBundle(), tracePath_);
        std::filesystem::remove(
            analysis::indexCachePath(tracePath_));

        socketPath_ = "/tmp/dsrvt_" + std::to_string(::getpid()) +
                      "_" + std::to_string(instance_++) + ".sock";
        ServerOptions options;
        options.socketPath = socketPath_;
        options.workers = 4;
        server_ = std::make_unique<Server>(options);
        server_->start();
    }

    void TearDown() override
    {
        server_->stop();
        server_.reset();
        EXPECT_FALSE(std::filesystem::exists(socketPath_));
    }

    /** One round-trip on a fresh connection. */
    std::string roundTrip(const std::string &request)
    {
        Client client;
        std::string error;
        EXPECT_TRUE(client.connect(socketPath_, error)) << error;
        std::string response;
        EXPECT_TRUE(client.call(request, response, error)) << error;
        return response;
    }

    JsonValue envelope(const std::string &request)
    {
        JsonValue v;
        std::string error;
        EXPECT_TRUE(parseJson(roundTrip(request), v, error)) << error;
        return v;
    }

    std::string queryRequestLine(std::uint64_t id) const
    {
        return R"({"op":"query","id":)" + std::to_string(id) +
               R"(,"trace":")" + tracePath_ +
               R"(","app":"app-","specs":["tlp","busy"]})";
    }

    static unsigned instance_;
    std::string tracePath_;
    std::string socketPath_;
    std::unique_ptr<Server> server_;
};

unsigned ServerTest::instance_ = 0;

TEST_F(ServerTest, PingEchoesTheRequestId)
{
    JsonValue v = envelope(R"({"op":"ping","id":123})");
    EXPECT_EQ(v.numberOr("schema", 0), 1.0);
    EXPECT_EQ(v.numberOr("id", 0), 123.0);
    EXPECT_TRUE(v.boolOr("ok", false));
}

TEST_F(ServerTest, ConcurrentClientsMatchLocalServiceByteForByte)
{
    // The reference: the same requests rendered by a local Service.
    // Server requests run with requestJobs=1; the default
    // ServiceTraceRequest::jobs is also 1, so the computations align.
    analysis::Service local;
    analysis::ServiceQueryRequest queryRequest;
    queryRequest.trace.path = tracePath_;
    queryRequest.trace.appPrefix = "app-";
    queryRequest.specs = {"tlp", "busy"};
    std::ostringstream queryDoc;
    report::writeQueryDocument(queryDoc, local.query(queryRequest));

    analysis::ServiceBottlenecksRequest bottRequest;
    bottRequest.trace.path = tracePath_;
    bottRequest.top = 5;
    std::ostringstream bottDoc;
    report::writeBottlenecksDocument(bottDoc,
                                     local.bottlenecks(bottRequest));

    const std::string bottLine = R"({"op":"bottlenecks","trace":")" +
                                 tracePath_ + R"(","top":5})";

    constexpr unsigned kClients = 6;
    std::vector<std::string> queryResults(kClients);
    std::vector<std::string> bottResults(kClients);
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            Client client;
            std::string error;
            if (!client.connect(socketPath_, error)) {
                failures[i] = error;
                return;
            }
            std::string response;
            if (!client.call(queryRequestLine(i), response, error) ||
                !extractResult(response, queryResults[i])) {
                failures[i] = "query: " + error + " " + response;
                return;
            }
            if (!client.call(bottLine, response, error) ||
                !extractResult(response, bottResults[i])) {
                failures[i] = "bott: " + error + " " + response;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (unsigned i = 0; i < kClients; ++i) {
        EXPECT_TRUE(failures[i].empty()) << failures[i];
        EXPECT_EQ(queryResults[i], queryDoc.str()) << i;
        EXPECT_EQ(bottResults[i], bottDoc.str()) << i;
    }

    // All six clients hit one resident entry: one ingest, not six.
    EXPECT_EQ(server_->service().cacheStats().ingests, 1u);
}

TEST_F(ServerTest, MalformedRequestsGetParseErrorEnvelopes)
{
    JsonValue bad = envelope("this is not json");
    EXPECT_FALSE(bad.boolOr("ok", true));
    const JsonValue *err = bad.find("error");
    ASSERT_TRUE(err && err->isObject());
    EXPECT_EQ(err->stringOr("kind", ""), "parse");
    EXPECT_FALSE(err->stringOr("message", "").empty());

    JsonValue unknown = envelope(R"({"op":"transmogrify","id":4})");
    EXPECT_FALSE(unknown.boolOr("ok", true));
    EXPECT_EQ(unknown.numberOr("id", -1), 0.0); // id unknown: 0
    EXPECT_EQ(unknown.find("error")->stringOr("kind", ""), "parse");
}

TEST_F(ServerTest, MissingTraceFileGetsAFatalErrorEnvelope)
{
    JsonValue v = envelope(
        R"({"op":"analyze","id":9,"trace":"/tmp/dsrvt_absent.etl"})");
    EXPECT_FALSE(v.boolOr("ok", true));
    EXPECT_EQ(v.numberOr("id", 0), 9.0);
    const JsonValue *err = v.find("error");
    ASSERT_TRUE(err && err->isObject());
    EXPECT_EQ(err->stringOr("kind", ""), "fatal");
}

TEST_F(ServerTest, SequentialRequestsPipelineOnOneConnection)
{
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(socketPath_, error)) << error;

    std::string first, second;
    ASSERT_TRUE(client.call(queryRequestLine(1), first, error))
        << error;
    ASSERT_TRUE(client.call(queryRequestLine(2), second, error))
        << error;

    std::string firstDoc, secondDoc;
    ASSERT_TRUE(extractResult(first, firstDoc));
    ASSERT_TRUE(extractResult(second, secondDoc));
    EXPECT_EQ(firstDoc, secondDoc);
}

TEST_F(ServerTest, StatsReportsCacheCountersAndPerOpLatencies)
{
    roundTrip(queryRequestLine(1));
    roundTrip(queryRequestLine(2));

    JsonValue v = envelope(R"({"op":"stats","id":5})");
    ASSERT_TRUE(v.boolOr("ok", false));
    const JsonValue *result = v.find("result");
    ASSERT_TRUE(result && result->isObject());
    EXPECT_EQ(result->stringOr("command", ""), "server_stats");
    EXPECT_GE(result->numberOr("uptime_s", -1), 0.0);
    EXPECT_EQ(result->numberOr("workers", 0), 4.0);

    const JsonValue *cache = result->find("cache");
    ASSERT_TRUE(cache && cache->isObject());
    EXPECT_EQ(cache->numberOr("ingests", 0), 1.0);
    EXPECT_EQ(cache->numberOr("hits", 0), 1.0);
    EXPECT_GT(cache->numberOr("resident_bytes", 0), 0.0);

    const JsonValue *ops = result->find("requests");
    ASSERT_TRUE(ops && ops->isObject());
    const JsonValue *query = ops->find("query");
    ASSERT_TRUE(query && query->isObject());
    EXPECT_EQ(query->numberOr("count", 0), 2.0);
    EXPECT_EQ(query->numberOr("errors", 1), 0.0);
    EXPECT_GE(query->numberOr("p99_ms", -1),
              query->numberOr("p50_ms", -1));
}

TEST_F(ServerTest, ShutdownOpReleasesWait)
{
    std::thread waiter([this] { server_->wait(); });
    JsonValue v = envelope(R"({"op":"shutdown","id":1})");
    EXPECT_TRUE(v.boolOr("ok", false));
    waiter.join(); // hangs here if the shutdown op never signals
}

std::atomic<int> interruptSignals{0};

void
countInterrupt(int)
{
    interruptSignals.fetch_add(1);
}

/**
 * A reply written while the peer's receive buffer is full blocks in
 * send(); a signal delivered then (handler without SA_RESTART) makes
 * send() fail with EINTR. That must not drop the reply: every byte
 * still arrives once the peer reads.
 */
TEST(ServerWrite, SendAllRetriesInterruptedSends)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    int small = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);

    struct sigaction action = {};
    struct sigaction previous = {};
    action.sa_handler = countInterrupt;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: blocked sends see EINTR
    ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
    interruptSignals.store(0);

    std::string payload(1u << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>('a' + i % 26);
    std::atomic<bool> done{false};
    bool ok = false;
    std::thread writer([&] {
        ok = sendAll(fds[0], payload);
        // EOF for the reader, even when the send gave up early.
        ::shutdown(fds[0], SHUT_WR);
        done.store(true);
    });
    // The writer fills the socket buffer and blocks; interrupt it.
    for (int i = 0; i < 20 && !done.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ::pthread_kill(writer.native_handle(), SIGUSR1);
    }

    std::string received;
    char buf[65536];
    while (received.size() < payload.size()) {
        ssize_t n = ::read(fds[1], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        received.append(buf, static_cast<std::size_t>(n));
    }
    writer.join();
    ::sigaction(SIGUSR1, &previous, nullptr);
    ::close(fds[0]);
    ::close(fds[1]);

    EXPECT_GT(interruptSignals.load(), 0);
    EXPECT_TRUE(ok);
    EXPECT_EQ(received.size(), payload.size());
    EXPECT_TRUE(received == payload);
}

} // namespace
