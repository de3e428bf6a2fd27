/**
 * @file
 * Workload `serve_warm`: an in-process serve::Server (2 workers, the
 * default session cache) keeps a 600 s handbrake .etl and a 600 s
 * projectcars2 .etlc resident. The seeded request mix is 60% `query
 * tlp busy`, 15% `query tlp/by=thread`, 10% `bottlenecks` and 15%
 * `series` (tlp, 100 ms windows), each on either trace.
 *
 * Two phases share one generator thread (with the demux thread and
 * the two workers, four threads in all):
 *  - open loop on one connection at kOpenLoopRps, about half the
 *    measured capacity; each latency is timed from the request's due
 *    time, so a stall also counts against the requests behind it;
 *  - closed loop over four connections, for capacity (requests/s).
 *
 * Every served result document must equal, byte for byte, the
 * document an in-process analysis::Service renders for the same
 * request, computed in set-up. The generator speaks the serve
 * protocol on non-blocking sockets because serve::Client blocks on
 * one connection, and an open loop must send while replies are
 * outstanding; serve::Client carries the warm-up and stats calls.
 */

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>

#include "analysis/blocking.hh"
#include "analysis/service.hh"
#include "analysis/session.hh"
#include "common.hh"
#include "corpus.hh"
#include "report/documents.hh"
#include "serve/client.hh"
#include "serve/json_value.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"

namespace deskbench {

namespace {

using namespace deskpar;

/**
 * Open-loop arrival rate: about half the closed-loop capacity of the
 * two-worker server measured on a 4-vCPU x86-64 host (see NOTES.md).
 * A constant, so a faster server shows as lower latency at the same
 * offered load rather than as a different load.
 */
constexpr double kOpenLoopRps = 25.0;

constexpr unsigned kWorkers = 2;
constexpr unsigned kClosedConnections = 4;

enum Kind { QueryTlpBusy = 0, QueryByThread, Bottlenecks, Series, kKinds };
const char *const kKindNames[kKinds] = {"query_tlp_busy",
                                        "query_by_thread", "bottlenecks",
                                        "series"};
/** The stats op's name for each kind. */
const char *const kServerOp[kKinds] = {"query", "query", "bottlenecks",
                                       "series"};

struct Request
{
    Kind kind = QueryTlpBusy;
    int trace = 0;
};

/**
 * The seeded request sequence: decks of 40 requests, each holding the
 * 60/15/10/15 mix exactly on both traces, shuffled from the seed. A
 * whole-deck mix keeps the share of slow requests in a phase from
 * drifting between runs.
 */
class RequestDeck
{
  public:
    static constexpr std::size_t kSize = 40;

    explicit RequestDeck(std::uint64_t seed) : rng_(seed) {}

    Request
    next()
    {
        if (deck_.empty()) {
            const int counts[kKinds] = {12, 3, 2, 3};
            for (int t = 0; t < 2; ++t)
                for (int k = 0; k < kKinds; ++k)
                    for (int n = 0; n < counts[k]; ++n)
                        deck_.push_back({static_cast<Kind>(k), t});
            for (std::size_t i = deck_.size() - 1; i > 0; --i)
                std::swap(deck_[i], deck_[rng_() % (i + 1)]);
        }
        Request r = deck_.back();
        deck_.pop_back();
        return r;
    }

  private:
    std::mt19937_64 rng_;
    std::vector<Request> deck_;
};

std::string
requestLine(const Request &req, const std::string &trace, std::uint64_t id)
{
    std::string head = "{\"op\":\"";
    head += req.kind == Bottlenecks ? "bottlenecks"
            : req.kind == Series    ? "series"
                                    : "query";
    head += "\",\"id\":" + std::to_string(id) + ",\"trace\":\"" + trace +
            "\"";
    switch (req.kind) {
      case QueryTlpBusy:
        return head + ",\"specs\":[\"tlp\",\"busy\"]}";
      case QueryByThread:
        return head + ",\"specs\":[\"tlp/by=thread\"]}";
      case Bottlenecks:
        return head + ",\"top\":10}";
      default:
        return head + ",\"kind\":\"tlp\",\"window_ns\":100000000}";
    }
}

/** The document an in-process Service renders for @p kind. */
std::string
serviceDocument(analysis::Service &service, Kind kind,
                const std::string &trace)
{
    std::ostringstream doc;
    analysis::ServiceTraceRequest t;
    t.path = trace;
    t.jobs = 1;
    if (kind == QueryTlpBusy || kind == QueryByThread) {
        analysis::ServiceQueryRequest q;
        q.trace = t;
        q.specs = kind == QueryTlpBusy
                      ? std::vector<std::string>{"tlp", "busy"}
                      : std::vector<std::string>{"tlp/by=thread"};
        report::writeQueryDocument(doc, service.query(q));
    } else if (kind == Bottlenecks) {
        analysis::ServiceBottlenecksRequest b;
        b.trace = t;
        b.top = 10;
        report::writeBottlenecksDocument(doc, service.bottlenecks(b));
    } else {
        analysis::ServiceSeriesRequest s;
        s.trace = t;
        s.kind = analysis::ServiceSeriesKind::Tlp;
        s.window = sim::msec(100.0);
        report::writeSeriesDocument(doc, service.series(s));
    }
    return doc.str();
}

/** A non-blocking serve connection that splits replies into lines. */
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path)
            throw std::runtime_error("socket path too long: " + path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof addr) < 0) {
            std::string why = std::strerror(errno);
            if (fd_ >= 0)
                ::close(fd_);
            throw std::runtime_error("connect " + path + ": " + why);
        }
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd() const { return fd_; }

    void
    send(std::string line)
    {
        line += '\n';
        std::size_t done = 0;
        while (done < line.size()) {
            ssize_t n = ::send(fd_, line.data() + done, line.size() - done,
                               MSG_NOSIGNAL);
            if (n > 0) {
                done += static_cast<std::size_t>(n);
            } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
                pollfd p{fd_, POLLOUT, 0};
                ::poll(&p, 1, 1000);
            } else {
                throw std::runtime_error(std::string("send: ") +
                                         std::strerror(errno));
            }
        }
    }

    /** Append every complete reply line now readable to @p lines. */
    void
    receive(std::vector<std::string> &lines)
    {
        char chunk[1 << 16];
        while (true) {
            ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n > 0) {
                buffer_.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EINTR))
                break;
            throw std::runtime_error("serve connection closed");
        }
        std::size_t from = 0, nl;
        while ((nl = buffer_.find('\n', from)) != std::string::npos) {
            lines.push_back(buffer_.substr(from, nl - from));
            from = nl + 1;
        }
        buffer_.erase(0, from);
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** The id a reply envelope echoes (`{"schema":1,"id":N,...`). */
bool
replyId(const std::string &envelope, std::uint64_t &id)
{
    std::size_t at = envelope.find("\"id\":");
    if (at == std::string::npos)
        return false;
    id = std::strtoull(envelope.c_str() + at + 5, nullptr, 10);
    return true;
}

/** The envelope's own "ok" flag, which precedes the spliced result. */
bool
replyOk(const std::string &envelope)
{
    std::size_t at = envelope.find("\"ok\":");
    return at != std::string::npos &&
           envelope.compare(at + 5, 4, "true") == 0;
}

struct Setup
{
    std::string traces[2];
    /** docs[trace][kind]. */
    std::string docs[2][kKinds];
    std::unique_ptr<serve::Server> server;
    std::uint64_t bytes[2] = {0, 0};
    std::uint64_t events[2] = {0, 0};
    /** Simulated events over every iteration of every set-up. */
    std::uint64_t iterationEvents = 0;
};

void
buildSetup(Setup &s)
{
    s.server.reset();
    const std::string dir = workDir("serve_warm");
    Simulation sim = simulate({"handbrake", "projectcars2"}, 600.0);
    s.iterationEvents += sim.iterationEvents;
    s.traces[0] = dir + "/handbrake.etl";
    s.traces[1] = dir + "/projectcars2.etlc";
    writeEtlFile(sim.results[0].lastBundle, s.traces[0]);
    writeEtlFile(sim.results[1].lastBundle, dir + "/projectcars2.etl");
    pack(dir + "/projectcars2.etl", s.traces[1], false);
    for (int t = 0; t < 2; ++t) {
        s.bytes[t] = fileBytes(s.traces[t]);
        s.events[t] = sim.results[t].lastBundle.cswitches.size() +
                      sim.results[t].lastBundle.gpuPackets.size();
    }
    sim.results.clear();

    {
        analysis::Service reference;
        for (int t = 0; t < 2; ++t)
            for (int k = 0; k < kKinds; ++k)
                s.docs[t][k] = serviceDocument(
                    reference, static_cast<Kind>(k), s.traces[t]);
    }

    serve::ServerOptions options;
    options.socketPath = dir + "/serve.sock";
    options.workers = kWorkers;
    s.server = std::make_unique<serve::Server>(options);
    {
        Span span("serve.start");
        s.server->start();
    }

    // Warm-up: every (trace, kind) once, so both traces are resident.
    serve::Client client;
    std::string error;
    if (!client.connect(options.socketPath, error))
        throw std::runtime_error("warm-up connect: " + error);
    for (int t = 0; t < 2; ++t) {
        for (int k = 0; k < kKinds; ++k) {
            std::string reply, doc;
            Request req{static_cast<Kind>(k), t};
            if (!client.call(requestLine(req, s.traces[t], 0), reply,
                             error) ||
                !serve::extractResult(reply, doc) || doc != s.docs[t][k])
                throw std::runtime_error(
                    std::string("warm-up ") + kKindNames[k] + " on " +
                    s.traces[t] + " did not return the Service document");
        }
    }
}

/** Per-request bookkeeping of the load phases. */
struct Load
{
    Load(const Setup &s, std::uint64_t seed) : setup(&s), deck(seed) {}

    const Setup *setup;
    RequestDeck deck;
    std::vector<Request> requests;
    /** Due (open loop) or send (closed loop) time per id. */
    std::vector<Clock::time_point> due;
    std::vector<std::int64_t> spans;
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;

    std::uint64_t
    next()
    {
        requests.push_back(deck.next());
        due.push_back(Clock::time_point{});
        spans.push_back(-1);
        ++attempted;
        return requests.size() - 1;
    }

    std::string
    line(std::uint64_t id) const
    {
        const Request &r = requests[id];
        return requestLine(r, setup->traces[r.trace], id);
    }

    /** Check one reply; returns its latency in ms (or -1 if failed). */
    double
    complete(const std::string &envelope, Clock::time_point now)
    {
        std::uint64_t id = 0;
        if (!replyId(envelope, id) || id >= requests.size()) {
            correct = false;
            return -1;
        }
        Tracer::get().close(spans[id]);
        const Request &r = requests[id];
        std::string doc;
        if (!replyOk(envelope) ||
            !serve::extractResult(envelope, doc)) {
            ++failed;
            return -1;
        }
        if (doc != setup->docs[r.trace][r.kind]) {
            std::fprintf(stderr,
                         "deskbench: request %llu (%s) returned a "
                         "document that differs from the Service's\n",
                         static_cast<unsigned long long>(id),
                         kKindNames[r.kind]);
            correct = false;
        }
        return msBetween(due[id], now);
    }

    void
    open(std::uint64_t id, std::uint64_t op)
    {
        spans[id] = Tracer::get().open(
            std::string("serve.rtt.") + kKindNames[requests[id].kind], op,
            -1);
    }
};

Clock::time_point
after(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/** Wait for the replies still outstanding, at most 60 s. */
void
drain(std::vector<std::unique_ptr<Conn>> &conns, std::size_t outstanding,
      Load &load, std::vector<double> &latencies)
{
    Clock::time_point limit = after(Clock::now(), 60.0);
    std::vector<pollfd> fds;
    for (auto &c : conns)
        fds.push_back({c->fd(), POLLIN, 0});
    while (outstanding > 0 && Clock::now() < limit) {
        ::poll(fds.data(), fds.size(), 100);
        for (std::size_t i = 0; i < conns.size(); ++i) {
            std::vector<std::string> lines;
            conns[i]->receive(lines);
            for (const std::string &l : lines) {
                double ms = load.complete(l, Clock::now());
                if (ms >= 0)
                    latencies.push_back(ms);
                --outstanding;
            }
        }
    }
    load.failed += outstanding;
}

/**
 * Open loop on one connection for about @p seconds; returns latencies
 * from due time and appends how late each send was to @p lateMs. It
 * sends whole decks only (at least one), so every run's open loop
 * holds the same requests and its p50 and tail compare like with like.
 */
std::vector<double>
openLoop(const std::string &socket, Load &load, double seconds,
         std::vector<double> &lateMs, std::uint64_t &opBase)
{
    std::vector<std::unique_ptr<Conn>> conns;
    conns.push_back(std::make_unique<Conn>(socket));
    Conn &conn = *conns.front();
    std::vector<double> latencies;
    const std::size_t total =
        std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds * kOpenLoopRps) /
                   RequestDeck::kSize) *
        RequestDeck::kSize;
    Clock::time_point start = Clock::now();
    std::size_t sent = 0, outstanding = 0;
    while (sent < total) {
        Clock::time_point due = after(start, sent / kOpenLoopRps);
        Clock::time_point now = Clock::now();
        if (now >= due) {
            std::uint64_t id = load.next();
            load.due[id] = due;
            load.open(id, ++opBase);
            conn.send(load.line(id));
            lateMs.push_back(msBetween(due, Clock::now()));
            ++sent;
            ++outstanding;
            continue;
        }
        auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
            due - now);
        timespec ts{static_cast<time_t>(wait.count() / 1000000000),
                    static_cast<long>(wait.count() % 1000000000)};
        pollfd p{conn.fd(), POLLIN, 0};
        ::ppoll(&p, 1, &ts, nullptr);
        std::vector<std::string> lines;
        conn.receive(lines);
        for (const std::string &l : lines) {
            double ms = load.complete(l, Clock::now());
            if (ms >= 0)
                latencies.push_back(ms);
            --outstanding;
        }
    }
    drain(conns, outstanding, load, latencies);
    return latencies;
}

/** Closed loop over kClosedConnections; returns completed req/s. */
double
closedLoop(const std::string &socket, Load &load, double seconds,
           std::uint64_t &opBase)
{
    std::vector<std::unique_ptr<Conn>> conns;
    std::vector<pollfd> fds;
    for (unsigned c = 0; c < kClosedConnections; ++c) {
        conns.push_back(std::make_unique<Conn>(socket));
        fds.push_back({conns.back()->fd(), POLLIN, 0});
    }
    std::vector<double> latencies;
    Clock::time_point start = Clock::now();
    Clock::time_point end = after(start, seconds);
    auto sendNext = [&](Conn &conn) {
        std::uint64_t id = load.next();
        load.due[id] = Clock::now();
        load.open(id, ++opBase);
        conn.send(load.line(id));
    };
    for (auto &c : conns)
        sendNext(*c);
    std::size_t outstanding = conns.size();
    std::uint64_t completed = 0;
    while (Clock::now() < end) {
        ::poll(fds.data(), fds.size(), 100);
        for (std::size_t i = 0; i < conns.size(); ++i) {
            std::vector<std::string> lines;
            conns[i]->receive(lines);
            for (const std::string &l : lines) {
                if (load.complete(l, Clock::now()) >= 0)
                    ++completed;
                --outstanding;
                if (Clock::now() < end) {
                    sendNext(*conns[i]);
                    ++outstanding;
                }
            }
        }
    }
    double wallS = msBetween(start, Clock::now()) / 1e3;
    drain(conns, outstanding, load, latencies);
    return static_cast<double>(completed) / wallS;
}

/** p50 latency per stats op from the server's stats document. */
std::map<std::string, double>
serverP50(const std::string &socket)
{
    serve::Client client;
    std::string error, reply, doc;
    if (!client.connect(socket, error) ||
        !client.call("{\"op\":\"stats\",\"id\":0}", reply, error) ||
        !serve::extractResult(reply, doc))
        throw std::runtime_error("stats request failed: " + error);
    serve::JsonValue stats;
    if (!serve::parseJson(doc, stats, error))
        throw std::runtime_error("stats document: " + error);
    std::map<std::string, double> out;
    if (const serve::JsonValue *requests = stats.find("requests"))
        for (const char *op : {"query", "bottlenecks", "series"})
            if (const serve::JsonValue *s = requests->find(op))
                out[op] = s->numberOr("p50_ms", 0.0);
    return out;
}

/**
 * The traced run's in-process layer timings on the warm path: the
 * Service on the request sequence, and the plan, blocking and render
 * calls on resident Sessions.
 */
void
warmLayers(const Setup &setup, Load &load, double seconds,
           std::uint64_t &opBase, Outcome &outcome)
{
    analysis::Service service;
    for (int t = 0; t < 2; ++t)
        serviceDocument(service, QueryTlpBusy, setup.traces[t]);
    Clock::time_point end = after(Clock::now(), seconds / 2);
    // At least the first deck, so every kind has samples.
    std::size_t i = 0;
    while ((Clock::now() < end || i < 40) && i < load.requests.size()) {
        const Request &r = load.requests[i++];
        Span span(std::string("analysis.service.") + kKindNames[r.kind],
                  ++opBase);
        if (serviceDocument(service, r.kind, setup.traces[r.trace]) !=
            setup.docs[r.trace][r.kind])
            outcome.correct = false;
    }

    std::unique_ptr<analysis::Session> sessions[2];
    for (int t = 0; t < 2; ++t) {
        trace::ParseOptions popts;
        popts.source = setup.traces[t];
        trace::IngestReport report;
        trace::TraceBundle bundle =
            t == 0 ? trace::readEtl(setup.traces[t], popts, report)
                   : trace::readEtlc(setup.traces[t], popts, report);
        if (!report.ok())
            throw trace::TraceParseError(report.errors.front());
        sessions[t] = std::make_unique<analysis::Session>(std::move(bundle));
        sessions[t]->index().warm(trace::PidSet{});
    }
    // One op: both query batches, bottlenecks and the three renders on
    // one resident trace; counts and bytes are summed per op.
    end = after(Clock::now(), seconds / 2);
    std::vector<double> filters, passes, bytes;
    for (std::size_t n = 0; Clock::now() < end || n < 4; ++n) {
        const analysis::Session &session = *sessions[n % 2];
        std::uint64_t op = ++opBase;
        double opFilters = 0, opPasses = 0, opBytes = 0;
        for (const auto &specs :
             {std::vector<std::string>{"tlp", "busy"},
              std::vector<std::string>{"tlp/by=thread"}}) {
            std::vector<analysis::Query> queries;
            for (const std::string &spec : specs)
                queries.push_back(analysis::parseQuerySpec(spec));
            std::unique_ptr<analysis::QueryPlan> plan;
            {
                Span span("analysis.plan_compile", op);
                plan = std::make_unique<analysis::QueryPlan>(
                    session.plan(queries));
            }
            opFilters += static_cast<double>(plan->explain().distinctFilters);
            opPasses += static_cast<double>(plan->explain().columnPasses);
            analysis::ServiceQueryResult result;
            {
                Span span("analysis.plan_run", op);
                result.results = plan->run(1);
            }
            Span span("report.render", op);
            std::ostringstream doc;
            report::writeQueryDocument(doc, result);
            opBytes += static_cast<double>(doc.str().size());
        }
        analysis::ServiceBottlenecksResult result;
        {
            Span span("analysis.blocking", op);
            result.report =
                analysis::blocking::analyze(session, trace::PidSet{}, 1);
        }
        Span span("report.render", op);
        std::ostringstream doc;
        report::writeBottlenecksDocument(doc, result);
        opBytes += static_cast<double>(doc.str().size());
        filters.push_back(opFilters);
        passes.push_back(opPasses);
        bytes.push_back(opBytes);
    }
    auto &L = outcome.layers;
    L["analysis.plan_filters"] = median(filters);
    L["analysis.plan_column_passes"] = median(passes);
    L["report.bytes"] = median(bytes);
}

} // namespace

Outcome
runServeWarm(const Args &args)
{
    Outcome outcome;
    Tracer::get().setEnabled(args.trace);
    Setup setup;
    std::vector<double> setupSeconds =
        repeatSetup([&] { buildSetup(setup); });
    Tracer::get().setEnabled(false);
    const std::string socket = setup.server->socketPath();
    note("serve_warm corpus (simulation seed %llu, request seed %llu): "
         "%s %llu B (%llu events), %s %llu B (%llu events); %u workers, "
         "open loop %.1f req/s on 1 connection, closed loop on %u "
         "connections",
         static_cast<unsigned long long>(kProtocolSeed),
         static_cast<unsigned long long>(args.seed),
         setup.traces[0].c_str(),
         static_cast<unsigned long long>(setup.bytes[0]),
         static_cast<unsigned long long>(setup.events[0]),
         setup.traces[1].c_str(),
         static_cast<unsigned long long>(setup.bytes[1]),
         static_cast<unsigned long long>(setup.events[1]), kWorkers,
         kOpenLoopRps, kClosedConnections);

    Load load(setup, args.seed);
    std::uint64_t opBase = 0;
    std::vector<double> lateMs;
    std::vector<double> openMs, untracedMs;
    double rps = 0.0;
    if (!args.trace) {
        // Two thirds of the run go to the open loop: its p50 is one
        // short request's service time, which follows the host's speed
        // from one ten-second stretch to the next, so it needs the
        // longer window to come out the same from run to run.
        openMs = openLoop(socket, load, args.seconds * 2 / 3, lateMs,
                          opBase);
        rps = closedLoop(socket, load, args.seconds / 3, opBase);
    } else {
        untracedMs =
            openLoop(socket, load, args.seconds / 4, lateMs, opBase);
        Tracer::get().setEnabled(true);
        openMs = openLoop(socket, load, args.seconds / 4, lateMs, opBase);
        Tracer::get().setEnabled(false);
        rps = closedLoop(socket, load, args.seconds / 4, opBase);
    }
    outcome.attempted = load.attempted;
    outcome.failed = load.failed;
    outcome.correct = load.correct;

    std::map<std::string, double> serverMs = serverP50(socket);
    analysis::SessionCacheStats cache = setup.server->service().cacheStats();
    Tail tail = tailOf(openMs);
    note("serve_p50_ms  %.3f ms from due time (open loop, n=%zu)",
         median(openMs), openMs.size());
    note("serve_tail_ms %.3f ms (p%.1f, n=%zu)", tail.value, tail.pct,
         tail.n);
    note("serve_rps     %.3f completed req/s (closed loop)", rps);
    note("generator late: p50 %.3f ms, max %.3f ms", median(lateMs),
         lateMs.empty() ? 0.0 : percentile(lateMs, 100));
    note("cache: %llu hits, %llu misses, %llu evictions, %.1f MB "
         "resident",
         static_cast<unsigned long long>(cache.hits),
         static_cast<unsigned long long>(cache.misses),
         static_cast<unsigned long long>(cache.evictions),
         static_cast<double>(cache.residentBytes) / 1e6);

    if (!args.trace) {
        outcome.metrics = endToEnd(setupSeconds, outcome.attempted,
                                   outcome.failed, openMs, rps);
        setup.server->stop();
        return outcome;
    }

    Tracer::get().setEnabled(true);
    warmLayers(setup, load, args.seconds / 4, opBase, outcome);
    Tracer::get().setEnabled(false);
    setup.server->stop();

    SpanSummary spans{Tracer::get().spans()};
    auto &L = outcome.layers;
    addSimMetrics(outcome, spans, setup.events[0] + setup.events[1],
                  setup.iterationEvents);
    L["trace.write_etl_ms"] = spans.medianMs("trace.writeEtl");
    L["trace.write_etlc_ms"] = spans.medianMs("trace.writeEtlc");
    L["trace.write_bytes_etl"] = static_cast<double>(setup.bytes[0]);
    L["trace.write_bytes_etlc"] = static_cast<double>(setup.bytes[1]);
    L["analysis.plan_compile_ms"] =
        spans.medianMs("analysis.plan_compile");
    L["analysis.plan_run_ms"] = spans.medianMs("analysis.plan_run");
    L["analysis.blocking_ms"] = spans.medianMs("analysis.blocking");
    L["report.render_ms"] = spans.medianMs("report.render");
    // Wait per stats op: the p50 round trip of the op's requests minus
    // the server's p50 for that op, weighted by request count.
    std::map<std::string, std::vector<double>> rttByOp;
    for (int k = 0; k < kKinds; ++k) {
        L[std::string("analysis.service_ms.") + kKindNames[k]] =
            spans.medianMs(std::string("analysis.service.") +
                           kKindNames[k]);
        std::vector<double> rtt =
            spans.durationsMs(std::string("serve.rtt.") + kKindNames[k]);
        L[std::string("serve.rtt_ms.") + kKindNames[k]] = median(rtt);
        auto &all = rttByOp[kServerOp[k]];
        all.insert(all.end(), rtt.begin(), rtt.end());
    }
    double waitSum = 0.0, waitN = 0.0;
    for (const auto &[op, rtt] : rttByOp) {
        L["serve.server_ms." + op] = serverMs[op];
        waitSum += static_cast<double>(rtt.size()) *
                   (median(rtt) - serverMs[op]);
        waitN += static_cast<double>(rtt.size());
    }
    L["serve.wait_ms"] = waitN > 0 ? waitSum / waitN : 0.0;
    L["analysis.cache_hits"] = static_cast<double>(cache.hits);
    L["analysis.cache_misses"] = static_cast<double>(cache.misses);
    L["analysis.cache_lookups"] =
        static_cast<double>(cache.hits + cache.misses);
    L["analysis.cache_hit_ratio"] =
        cache.hits + cache.misses
            ? static_cast<double>(cache.hits) /
                  static_cast<double>(cache.hits + cache.misses)
            : 0.0;
    L["analysis.cache_resident_mb"] =
        static_cast<double>(cache.residentBytes) / 1e6;
    L["serve.generator_late_ms.p50"] = median(lateMs);
    L["serve.generator_late_ms.max"] =
        lateMs.empty() ? 0.0 : percentile(lateMs, 100);
    for (int k = 0; k < kKinds; ++k)
        note("%-16s rtt p50 %8.3f ms, server p50 %8.3f ms (%s), "
             "in-process Service p50 %8.3f ms",
             kKindNames[k], L[std::string("serve.rtt_ms.") + kKindNames[k]],
             serverMs[kServerOp[k]], kServerOp[k],
             L[std::string("analysis.service_ms.") + kKindNames[k]]);
    addSelfTimes(outcome, spans);
    noteOverhead(outcome, median(untracedMs), median(openMs));
    return outcome;
}

} // namespace deskbench
