/**
 * @file
 * Loopback integration tests for the epoll serving front end: a
 * blocking client socket speaks the wire protocol against a real
 * NetServer + sharded FleetServer on 127.0.0.1, exercising the open
 * handshake, step/decision round trips, every typed rejection, the
 * stats snapshot, and protocol-violation teardown.
 *
 * Linux-only like the server itself; the whole suite is skipped
 * elsewhere.
 */

#include <gtest/gtest.h>

#ifdef __linux__

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "hw/model.hpp"
#include "ml/predictor.hpp"
#include "serve/net_server.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "workload/benchmarks.hpp"

namespace gpupm::serve {
namespace {

/** Blocking test client: send frames, read replies one at a time. */
class WireClient
{
  public:
    explicit WireClient(std::uint16_t port)
    {
        _fd = ::socket(AF_INET, SOCK_STREAM, 0);
        GPUPM_ASSERT(_fd >= 0, "client socket");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        const int rc = ::connect(
            _fd, reinterpret_cast<const sockaddr *>(&addr),
            sizeof(addr));
        GPUPM_ASSERT(rc == 0, "client connect");
        const int one = 1;
        ::setsockopt(_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }

    ~WireClient()
    {
        if (_fd >= 0)
            ::close(_fd);
    }

    void sendBytes(const std::vector<std::uint8_t> &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(_fd, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
            off += static_cast<std::size_t>(n);
        }
    }

    /** Next frame; nullopt on orderly EOF. Fails the test on corrupt. */
    std::optional<wire::Frame> readFrame()
    {
        while (true) {
            if (auto f = _reader.next())
                return f;
            EXPECT_FALSE(_reader.corrupt());
            std::uint8_t buf[4096];
            const ssize_t n = ::recv(_fd, buf, sizeof(buf), 0);
            if (n == 0)
                return std::nullopt; // server closed
            EXPECT_GT(n, 0) << "recv failed: " << std::strerror(errno);
            if (n <= 0)
                return std::nullopt;
            _reader.append(buf, static_cast<std::size_t>(n));
        }
    }

    wire::OpenedMsg open(std::uint64_t tenant, const std::string &bench,
                         std::uint32_t runs = 1)
    {
        std::vector<std::uint8_t> out;
        wire::encodeOpen(out, {tenant, runs, 0, bench});
        sendBytes(out);
        const auto frame = readFrame();
        EXPECT_TRUE(frame && frame->type == wire::MsgType::Opened);
        const auto opened = wire::decodeOpened(frame->payload);
        EXPECT_TRUE(opened.has_value());
        return opened.value_or(wire::OpenedMsg{});
    }

    void step(std::uint64_t session)
    {
        std::vector<std::uint8_t> out;
        wire::encodeStep(out, {session});
        sendBytes(out);
    }

  private:
    int _fd = -1;
    wire::FrameReader _reader;
};

/** A live NetServer on port 0 with its event loop on a thread. */
class ServerFixture
{
  public:
    explicit ServerFixture(std::size_t shards = 2, std::size_t jobs = 2)
    {
        FleetServerOptions sopts;
        sopts.jobs = jobs;
        sopts.shards = shards;
        _fleet = std::make_unique<FleetServer>(
            std::make_shared<ml::GroundTruthPredictor>(hw::ApuParams::defaults()), sopts);
        NetServerOptions nopts;
        nopts.session.optimizedRuns = 1;
        _net = std::make_unique<NetServer>(*_fleet, nopts);
        _loop = std::thread([this] { _net->run(); });
    }

    ~ServerFixture()
    {
        _net->stop();
        _loop.join();
        _net.reset();
        _fleet->stop();
    }

    std::uint16_t port() const { return _net->port(); }
    NetServer &net() { return *_net; }
    FleetServer &fleet() { return *_fleet; }

  private:
    std::unique_ptr<FleetServer> _fleet;
    std::unique_ptr<NetServer> _net;
    std::thread _loop;
};

TEST(NetServer, OpenStepDecisionFullSessionLifecycle)
{
    ServerFixture server;
    WireClient client(server.port());

    const auto opened = client.open(7, "color");
    EXPECT_EQ(opened.tenant, 7u);
    EXPECT_GT(opened.session, 0u);
    ASSERT_GT(opened.totalDecisions, 0u);

    // Drive the session to completion one step at a time; decisions
    // must arrive in (run, index) order with monotone progress.
    std::uint32_t seen = 0;
    std::uint32_t lastRun = 0, lastIndex = 0;
    for (; seen < opened.totalDecisions; ++seen) {
        client.step(opened.session);
        const auto frame = client.readFrame();
        ASSERT_TRUE(frame && frame->type == wire::MsgType::Decision);
        const auto d = wire::decodeDecision(frame->payload);
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(d->session, opened.session);
        EXPECT_EQ(d->degraded, 0u);
        if (seen > 0) {
            EXPECT_TRUE(d->run > lastRun ||
                        (d->run == lastRun && d->index > lastIndex));
        }
        lastRun = d->run;
        lastIndex = d->index;
    }

    // One more step past the end: typed Finished rejection.
    client.step(opened.session);
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Reject);
    const auto rej = wire::decodeReject(frame->payload);
    ASSERT_TRUE(rej.has_value());
    EXPECT_EQ(rej->session, opened.session);
    EXPECT_EQ(rej->reason, wire::RejectReason::Finished);
}

TEST(NetServer, OpenIsIdempotentPerTenant)
{
    ServerFixture server;
    WireClient client(server.port());
    const auto first = client.open(42, "mis");
    const auto again = client.open(42, "mis");
    EXPECT_EQ(again.session, first.session);
    EXPECT_EQ(again.totalDecisions, first.totalDecisions);
}

TEST(NetServer, UnknownBenchmarkIsRejectedWithTenantCorrelation)
{
    ServerFixture server;
    WireClient client(server.port());
    std::vector<std::uint8_t> out;
    wire::encodeOpen(out, {99, 1, 0, "no-such-benchmark"});
    client.sendBytes(out);
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Reject);
    const auto rej = wire::decodeReject(frame->payload);
    ASSERT_TRUE(rej.has_value());
    EXPECT_EQ(rej->session, 99u); // tenant rides in the session slot
    EXPECT_EQ(rej->reason, wire::RejectReason::BadBench);
}

TEST(NetServer, V2OpenSelectsModelAndDeadlineQos)
{
    // A v2 Open naming a non-default catalog model with a deadline QoS
    // must run end to end: session created, decisions served, and the
    // per-model session counter visible in Stats.
    ServerFixture server;
    WireClient client(server.port());
    std::vector<std::uint8_t> out;
    wire::OpenMsg open;
    open.tenant = 21;
    open.optimizedRuns = 1;
    open.kernelCacheCap = 0;
    open.bench = "color";
    open.hwModel = "eco-apu";
    open.qosKind = wire::WireQosKind::Deadline;
    open.qosValue = 1.25;
    wire::encodeOpen(out, open);
    client.sendBytes(out);
    auto frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Opened);
    const auto opened = wire::decodeOpened(frame->payload);
    ASSERT_TRUE(opened.has_value());
    ASSERT_GT(opened->totalDecisions, 0u);

    client.step(opened->session);
    frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Decision);
    const auto decision = wire::decodeDecision(frame->payload);
    ASSERT_TRUE(decision.has_value());
    // eco-apu is a 6-CU part; no decision can name a config outside
    // its space, and dense indices encode the CU count directly.
    EXPECT_LE(hw::denseConfigAt(decision->configIndex).cus, 6);

    out.clear();
    wire::encodeStatsReq(out);
    client.sendBytes(out);
    frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Stats);
    const auto stats = wire::decodeStats(frame->payload);
    ASSERT_TRUE(stats.has_value());
    std::uint64_t eco_sessions = 0;
    for (const auto &[key, value] : stats->entries)
        if (key == "serve.model.eco-apu.sessions")
            eco_sessions = value;
    EXPECT_EQ(eco_sessions, 1u);
}

TEST(NetServer, V1OpenStillWorksWithCatalogDefaults)
{
    // Mixed-version fleet: a legacy client (no tail on Open) keeps
    // working against a v2 server, landing on the default model.
    ServerFixture server;
    WireClient client(server.port());
    std::vector<std::uint8_t> out;
    wire::OpenMsg open;
    open.tenant = 31;
    open.optimizedRuns = 1;
    open.kernelCacheCap = 0;
    open.bench = "mis";
    open.version = 1; // encode the legacy frame layout
    wire::encodeOpen(out, open);
    client.sendBytes(out);
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Opened);
    const auto opened = wire::decodeOpened(frame->payload);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->tenant, 31u);
    EXPECT_GT(opened->totalDecisions, 0u);
}

TEST(NetServer, UnknownHardwareModelIsRejected)
{
    ServerFixture server;
    WireClient client(server.port());
    std::vector<std::uint8_t> out;
    wire::OpenMsg open;
    open.tenant = 41;
    open.bench = "color";
    open.hwModel = "no-such-apu";
    wire::encodeOpen(out, open);
    client.sendBytes(out);
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Reject);
    const auto rej = wire::decodeReject(frame->payload);
    ASSERT_TRUE(rej.has_value());
    EXPECT_EQ(rej->session, 41u);
    EXPECT_EQ(rej->reason, wire::RejectReason::BadModel);
}

TEST(NetServer, NonPositiveDeadlineIsRejected)
{
    ServerFixture server;
    WireClient client(server.port());
    std::vector<std::uint8_t> out;
    wire::OpenMsg open;
    open.tenant = 51;
    open.bench = "color";
    open.qosKind = wire::WireQosKind::Deadline;
    open.qosValue = 0.0;
    wire::encodeOpen(out, open);
    client.sendBytes(out);
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Reject);
    const auto rej = wire::decodeReject(frame->payload);
    ASSERT_TRUE(rej.has_value());
    EXPECT_EQ(rej->session, 51u);
    EXPECT_EQ(rej->reason, wire::RejectReason::BadQos);
}

TEST(NetServer, TruncatedV2OpenTailIsAProtocolError)
{
    // A half-sent v2 tail must not silently open a default session:
    // the server answers Error and closes.
    ServerFixture server;
    WireClient client(server.port());
    std::vector<std::uint8_t> out;
    wire::OpenMsg open;
    open.tenant = 61;
    open.bench = "color";
    open.hwModel = "eco-apu";
    wire::encodeOpen(out, open);
    // Drop the last byte of the payload and patch the length prefix.
    out.pop_back();
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(out[static_cast<std::size_t>(
                   i)])
               << (8 * i);
    --len;
    for (int i = 0; i < 4; ++i)
        out[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(len >> (8 * i));
    client.sendBytes(out);
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Error);
}

TEST(NetServer, StepOnUnknownSessionIsRejected)
{
    ServerFixture server;
    WireClient client(server.port());
    client.step(123456789);
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Reject);
    const auto rej = wire::decodeReject(frame->payload);
    ASSERT_TRUE(rej.has_value());
    EXPECT_EQ(rej->session, 123456789u);
    EXPECT_EQ(rej->reason, wire::RejectReason::UnknownSession);
}

TEST(NetServer, SecondStepInFlightIsBusyOrServed)
{
    ServerFixture server;
    WireClient client(server.port());
    const auto opened = client.open(5, "color");
    ASSERT_GE(opened.totalDecisions, 2u);

    // Two Steps back to back: the second normally finds the first
    // still in flight (Reject Busy), but a fast worker may legally
    // finish first, in which case both decisions arrive. Either way
    // exactly two replies come back and none is a protocol error.
    client.step(opened.session);
    client.step(opened.session);
    int decisions = 0, busy = 0;
    for (int i = 0; i < 2; ++i) {
        const auto frame = client.readFrame();
        ASSERT_TRUE(frame.has_value());
        if (frame->type == wire::MsgType::Decision) {
            ++decisions;
        } else {
            ASSERT_EQ(frame->type, wire::MsgType::Reject);
            const auto rej = wire::decodeReject(frame->payload);
            ASSERT_TRUE(rej.has_value());
            EXPECT_EQ(rej->reason, wire::RejectReason::Busy);
            ++busy;
        }
    }
    EXPECT_GE(decisions, 1);
    EXPECT_EQ(decisions + busy, 2);
}

TEST(NetServer, StatsSnapshotCountsServedDecisions)
{
    ServerFixture server;
    WireClient client(server.port());
    const auto opened = client.open(3, "color");
    client.step(opened.session);
    const auto reply = client.readFrame();
    ASSERT_TRUE(reply && reply->type == wire::MsgType::Decision);

    std::vector<std::uint8_t> out;
    wire::encodeStatsReq(out);
    client.sendBytes(out);
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame && frame->type == wire::MsgType::Stats);
    const auto stats = wire::decodeStats(frame->payload);
    ASSERT_TRUE(stats.has_value());
    std::uint64_t decisions = 0, connections = 0;
    for (const auto &[key, value] : stats->entries) {
        if (key == "serve.decisions")
            decisions = value;
        else if (key == "serve.connections")
            connections = value;
    }
    EXPECT_GE(decisions, 1u);
    EXPECT_EQ(connections, 1u);
    EXPECT_EQ(server.net().accepted(), 1u);
}

TEST(NetServer, CorruptFrameGetsErrorThenClose)
{
    ServerFixture server;
    WireClient client(server.port());
    // Impossible frame length: larger than kMaxFrameBytes.
    const std::vector<std::uint8_t> garbage = {0xff, 0xff, 0xff, 0xff,
                                               0x01};
    client.sendBytes(garbage);
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, wire::MsgType::Error);
    const auto err = wire::decodeError(frame->payload);
    ASSERT_TRUE(err.has_value());
    EXPECT_FALSE(err->message.empty());
    // After the Error frame the server closes the connection.
    EXPECT_FALSE(client.readFrame().has_value());
}

TEST(NetServer, ServesMultipleConcurrentConnections)
{
    ServerFixture server(4);
    constexpr int kClients = 4;
    std::vector<std::thread> threads;
    std::atomic<int> completed{0};
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            WireClient client(server.port());
            const auto opened = client.open(
                static_cast<std::uint64_t>(c) + 1,
                c % 2 == 0 ? "color" : "mis");
            for (std::uint32_t i = 0; i < opened.totalDecisions; ++i) {
                client.step(opened.session);
                const auto frame = client.readFrame();
                ASSERT_TRUE(frame &&
                            frame->type == wire::MsgType::Decision);
            }
            completed.fetch_add(1);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(completed.load(), kClients);
    EXPECT_EQ(server.net().accepted(),
              static_cast<std::uint64_t>(kClients));
}

/** Sessions resident across every shard of @p fleet. */
std::size_t
residentSessions(FleetServer &fleet)
{
    std::size_t n = 0;
    for (std::size_t s = 0; s < fleet.shardCount(); ++s)
        n += fleet.shardSessions(s).size();
    return n;
}

/** Poll until @p fleet holds @p want sessions; false after 2 s. */
bool
waitForResident(FleetServer &fleet, std::size_t want)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (residentSessions(fleet) != want) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

/** Sets a flag when it goes out of scope, however the test exits. */
struct SetOnExit
{
    std::atomic<bool> &flag;
    ~SetOnExit() { flag = true; }
};

TEST(NetServer, ClosingAConnectionReleasesItsSessions)
{
    // One worker, held busy by a request from outside any connection,
    // so the client's Step is still in flight when its socket closes.
    ServerFixture server(2, 1);
    FleetServer &fleet = server.fleet();
    std::atomic<bool> busy{false}, go{false};
    const SetOnExit unblock{go}; // frees the worker before teardown
    DecisionRequest hold;
    hold.session = fleet.createSession(workload::makeBenchmark("color"));
    const SessionId blocker = hold.session;
    hold.onDone = [&busy, &go](SessionId, const DecisionRecord *) {
        busy = true;
        while (!go)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    ASSERT_TRUE(fleet.submit(std::move(hold)));
    while (!busy)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    {
        WireClient client(server.port());
        const auto stepped = client.open(1, "color");
        client.open(2, "mis");
        client.open(3, "NBody");
        client.step(stepped.session);
        // The event loop handles one connection's frames in order, so
        // once the Stats reply arrives the Step is queued.
        std::vector<std::uint8_t> out;
        wire::encodeStatsReq(out);
        client.sendBytes(out);
        const auto frame = client.readFrame();
        ASSERT_TRUE(frame && frame->type == wire::MsgType::Stats);
        ASSERT_EQ(residentSessions(fleet), 4u);
    } // the client closes its socket here

    // The two idle sessions go at once; the one in flight stays until
    // its Step completes, and then releases itself.
    EXPECT_TRUE(waitForResident(fleet, 2));
    go = true;
    // The blocker belongs to no connection, so the test evicts it.
    // Its completion runs after checkin, so it is evictable already.
    EXPECT_TRUE(fleet.shardSessions(fleet.shardOf(blocker)).evict(blocker));
    EXPECT_TRUE(waitForResident(fleet, 0))
        << residentSessions(fleet) << " sessions still resident";
}

/** One Stats round trip; the named counter, or 0 if absent. */
std::uint64_t
statsCounter(WireClient &client, const std::string &name)
{
    std::vector<std::uint8_t> out;
    wire::encodeStatsReq(out);
    client.sendBytes(out);
    const auto frame = client.readFrame();
    EXPECT_TRUE(frame && frame->type == wire::MsgType::Stats);
    if (!frame || frame->type != wire::MsgType::Stats)
        return 0;
    const auto stats = wire::decodeStats(frame->payload);
    EXPECT_TRUE(stats.has_value());
    if (!stats)
        return 0;
    for (const auto &[key, value] : stats->entries)
        if (key == name)
            return value;
    return 0;
}

TEST(NetServer, SurvivesFileDescriptorExhaustion)
{
    // The server runs in a child whose descriptor limit leaves room for
    // its listen socket, epoll fd and eventfd plus two connections; the
    // parent connects until the child's accept fails with EMFILE.
    int port_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::close(port_pipe[0]);
        const int lowest_free = ::open("/dev/null", O_RDONLY);
        ::close(lowest_free);
        const rlimit lim{static_cast<rlim_t>(lowest_free + 5),
                         static_cast<rlim_t>(lowest_free + 5)};
        if (lowest_free < 0 || ::setrlimit(RLIMIT_NOFILE, &lim) != 0)
            ::_exit(2);
        FleetServerOptions sopts;
        sopts.jobs = 1;
        FleetServer fleet(std::make_shared<ml::GroundTruthPredictor>(
                              hw::ApuParams::defaults()),
                          sopts);
        NetServerOptions nopts;
        nopts.session.optimizedRuns = 1;
        NetServer net(fleet, nopts);
        const std::uint16_t port = net.port();
        if (::write(port_pipe[1], &port, sizeof(port)) != sizeof(port))
            ::_exit(3);
        ::close(port_pipe[1]);
        net.run(); // until the parent kills us
        ::_exit(0);
    }
    ::close(port_pipe[1]);
    std::uint16_t port = 0;
    const ssize_t got = ::read(port_pipe[0], &port, sizeof(port));
    ::close(port_pipe[0]);
    ASSERT_EQ(got, static_cast<ssize_t>(sizeof(port)));

    {
        WireClient first(port);
        const auto opened = first.open(1, "color");
        std::vector<std::unique_ptr<WireClient>> extra;
        for (int i = 0; i < 6; ++i)
            extra.push_back(std::make_unique<WireClient>(port));

        std::uint64_t failures = 0;
        for (int attempt = 0; attempt < 200 && failures == 0; ++attempt) {
            failures = statsCounter(first, "serve.accept_failures");
            if (failures == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        EXPECT_GT(failures, 0u);

        // The connections the server has keep being served...
        for (int i = 0; i < 3; ++i) {
            first.step(opened.session);
            const auto frame = first.readFrame();
            ASSERT_TRUE(frame.has_value());
            EXPECT_EQ(frame->type, wire::MsgType::Decision);
        }
        // ...and the still-readable listen socket is retried after a
        // backoff rather than spun on: a busy loop would fail accept
        // thousands of times in this window.
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        const std::uint64_t later =
            statsCounter(first, "serve.accept_failures");
        EXPECT_GE(later, failures);
        EXPECT_LT(later - failures, 50u);
    }
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    // Killed by us, not dead on its own.
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
}

TEST(NetServer, StopUnblocksRunFromAnotherThread)
{
    FleetServerOptions sopts;
    sopts.jobs = 1;
    FleetServer fleet(std::make_shared<ml::GroundTruthPredictor>(hw::ApuParams::defaults()),
                      sopts);
    NetServer net(fleet, {});
    EXPECT_GT(net.port(), 0u); // port 0 resolved at bind time
    std::thread loop([&net] { net.run(); });
    net.stop();
    loop.join(); // run() must return promptly after stop()
    fleet.stop();
}

} // namespace
} // namespace gpupm::serve

#endif // __linux__
