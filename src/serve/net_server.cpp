#include "serve/net_server.hpp"

#include "common/logging.hpp"
#include "serve/wire.hpp"
#include "workload/benchmarks.hpp"

#ifdef __linux__

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

namespace gpupm::serve {

/**
 * Per-connection state. The epoll thread owns fd lifecycle, reads and
 * the tenant map; `mutex` guards everything worker completions touch:
 * the write buffer, the per-session step state and the closed flag. A
 * worker holding a shared_ptr to a closed connection simply observes
 * `closed` and drops its reply.
 */
struct NetServer::Connection
{
    int fd = -1;
    wire::FrameReader reader;

    std::mutex mutex;
    std::vector<std::uint8_t> writeBuf; ///< Guarded by mutex.
    bool closed = false;                ///< Guarded by mutex.
    struct SessionState
    {
        std::uint32_t remaining = 0;
        bool inflight = false;
    };
    /** Sessions opened on this connection; guarded by mutex. */
    std::unordered_map<SessionId, SessionState> sessions;

    /* Epoll-thread-only state below. */
    std::unordered_map<std::uint64_t, wire::OpenedMsg> tenants;
    bool wantWrite = false;
    bool pendingClose = false; ///< Close once writeBuf drains.
};

struct NetServer::Impl
{
    int listenFd = -1;
    int epollFd = -1;
    int eventFd = -1;
    std::atomic<bool> stopRequested{false};

    /* Event-loop-thread-only state below. */
    /// accept4 failures other than "nothing pending" (EMFILE, ENFILE,
    /// ENOBUFS, ...); exported as serve.accept_failures.
    std::uint64_t acceptFailures = 0;
    /// While set, the listen fd is not polled until acceptResume.
    bool acceptPaused = false;
    std::chrono::steady_clock::time_point acceptResume;

    std::unordered_map<int, std::shared_ptr<Connection>> conns;

    std::mutex dirtyMutex;
    std::vector<std::shared_ptr<Connection>> dirty;

    ~Impl()
    {
        for (auto &entry : conns)
            ::close(entry.first);
        if (listenFd >= 0)
            ::close(listenFd);
        if (epollFd >= 0)
            ::close(epollFd);
        if (eventFd >= 0)
            ::close(eventFd);
    }

    void
    wake()
    {
        const std::uint64_t one = 1;
        // A full eventfd counter still wakes the loop; ignore EAGAIN.
        [[maybe_unused]] ssize_t n =
            ::write(eventFd, &one, sizeof(one));
    }

    void
    markDirty(const std::shared_ptr<Connection> &conn)
    {
        {
            std::lock_guard lock(dirtyMutex);
            dirty.push_back(conn);
        }
        wake();
    }
};

namespace {

bool
knownBenchmark(const std::string &name)
{
    const auto &names = workload::benchmarkNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

NetServer::NetServer(FleetServer &server, const NetServerOptions &opts)
    : _server(server), _opts(opts), _impl(std::make_unique<Impl>())
{
    _impl->listenFd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    GPUPM_ASSERT(_impl->listenFd >= 0, "socket() failed: ",
                 std::strerror(errno));

    const int one = 1;
    ::setsockopt(_impl->listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(_opts.port);
    GPUPM_ASSERT(::inet_pton(AF_INET, _opts.host.c_str(),
                             &addr.sin_addr) == 1,
                 "invalid listen address: ", _opts.host);
    GPUPM_ASSERT(::bind(_impl->listenFd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)) == 0,
                 "bind(", _opts.host, ":", _opts.port,
                 ") failed: ", std::strerror(errno));
    GPUPM_ASSERT(::listen(_impl->listenFd, _opts.backlog) == 0,
                 "listen() failed: ", std::strerror(errno));

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    GPUPM_ASSERT(::getsockname(_impl->listenFd,
                               reinterpret_cast<sockaddr *>(&bound),
                               &len) == 0,
                 "getsockname() failed: ", std::strerror(errno));
    _port = ntohs(bound.sin_port);

    _impl->epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    GPUPM_ASSERT(_impl->epollFd >= 0, "epoll_create1 failed: ",
                 std::strerror(errno));
    _impl->eventFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    GPUPM_ASSERT(_impl->eventFd >= 0, "eventfd failed: ",
                 std::strerror(errno));

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = _impl->listenFd;
    GPUPM_ASSERT(::epoll_ctl(_impl->epollFd, EPOLL_CTL_ADD,
                             _impl->listenFd, &ev) == 0,
                 "epoll_ctl(listen) failed");
    ev.data.fd = _impl->eventFd;
    GPUPM_ASSERT(::epoll_ctl(_impl->epollFd, EPOLL_CTL_ADD,
                             _impl->eventFd, &ev) == 0,
                 "epoll_ctl(eventfd) failed");
}

NetServer::~NetServer()
{
    stop();
    // Drain the decision server before connection state goes away:
    // every in-flight completion holds a shared_ptr<Connection> and may
    // call markDirty on _impl, so workers must be joined first. (The
    // caller has already joined run(); stop() makes that return.)
    _server.stop();
}

void
NetServer::stop()
{
    _impl->stopRequested.store(true, std::memory_order_release);
    _impl->wake();
}

void
NetServer::run()
{
    eventLoop();
}

namespace {

/** epoll registration helper: (re)arm interest for one connection. */
void
armConnection(int epollFd, int fd, bool wantWrite)
{
    epoll_event ev{};
    ev.events = EPOLLIN | (wantWrite ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    GPUPM_ASSERT(::epoll_ctl(epollFd, EPOLL_CTL_MOD, fd, &ev) == 0,
                 "epoll_ctl(MOD) failed: ", std::strerror(errno));
}

/** Poll the listen socket for connections, or stop polling it. */
void
armListen(int epollFd, int listenFd, bool on)
{
    epoll_event ev{};
    ev.events = on ? EPOLLIN : 0u;
    ev.data.fd = listenFd;
    GPUPM_ASSERT(::epoll_ctl(epollFd, EPOLL_CTL_MOD, listenFd, &ev) == 0,
                 "epoll_ctl(MOD listen) failed: ", std::strerror(errno));
}

/**
 * How long the loop stops polling the listen socket after accept4
 * fails for lack of a resource (EMFILE, ENFILE, ...). The socket stays
 * readable while connections wait in the backlog, so polling it at
 * once would spin on the same failure; the waiting connections are
 * accepted once descriptors free up.
 */
constexpr std::chrono::milliseconds kAcceptBackoff{50};

} // namespace

void
NetServer::eventLoop()
{
    auto &impl = *_impl;

    auto closeConn = [&](const std::shared_ptr<Connection> &conn) {
        {
            std::lock_guard lock(conn->mutex);
            conn->closed = true;
        }
        ::epoll_ctl(impl.epollFd, EPOLL_CTL_DEL, conn->fd, nullptr);
        ::close(conn->fd);
        impl.conns.erase(conn->fd);
        // Sessions stay resident in their shards; the LRU evicts them
        // once the manager needs the slots.
    };

    /*
     * Flush a connection's write buffer (epoll thread only). Returns
     * false when the connection died. Short writes arm EPOLLOUT; a
     * drained buffer disarms it and completes any deferred close.
     */
    auto flushConn = [&](const std::shared_ptr<Connection> &conn) {
        bool drained = false;
        bool dead = false;
        {
            std::lock_guard lock(conn->mutex);
            if (conn->closed)
                return false;
            while (!conn->writeBuf.empty()) {
                const ssize_t n =
                    ::send(conn->fd, conn->writeBuf.data(),
                           conn->writeBuf.size(), MSG_NOSIGNAL);
                if (n > 0) {
                    conn->writeBuf.erase(
                        conn->writeBuf.begin(),
                        conn->writeBuf.begin() + n);
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                    break;
                if (n < 0 && errno == EINTR)
                    continue;
                dead = true;
                break;
            }
            drained = conn->writeBuf.empty();
        }
        if (dead) {
            closeConn(conn);
            return false;
        }
        if (!drained && !conn->wantWrite) {
            conn->wantWrite = true;
            armConnection(impl.epollFd, conn->fd, true);
        } else if (drained && conn->wantWrite) {
            conn->wantWrite = false;
            armConnection(impl.epollFd, conn->fd, false);
        }
        if (drained && conn->pendingClose) {
            closeConn(conn);
            return false;
        }
        return true;
    };

    /** Queue a protocol Error and close once it is on the wire. */
    auto protocolError = [&](const std::shared_ptr<Connection> &conn,
                             const std::string &message) {
        {
            std::lock_guard lock(conn->mutex);
            wire::encodeError(conn->writeBuf, {message});
        }
        conn->pendingClose = true;
        flushConn(conn);
    };

    auto sendReject = [&](const std::shared_ptr<Connection> &conn,
                          SessionId session, wire::RejectReason why) {
        std::lock_guard lock(conn->mutex);
        wire::encodeReject(conn->writeBuf, {session, why});
    };

    auto handleOpen = [&](const std::shared_ptr<Connection> &conn,
                          const wire::OpenMsg &m) {
        // Idempotent per tenant: a retried Open re-sends the original
        // Opened instead of creating a second session.
        if (auto it = conn->tenants.find(m.tenant);
            it != conn->tenants.end()) {
            std::lock_guard lock(conn->mutex);
            wire::encodeOpened(conn->writeBuf, it->second);
            return;
        }
        if (!knownBenchmark(m.bench)) {
            // No session exists yet, so the tenant id travels in the
            // session slot for client-side correlation.
            sendReject(conn, m.tenant, wire::RejectReason::BadBench);
            return;
        }
        SessionOptions sopts = _opts.session;
        if (m.optimizedRuns > 0)
            sopts.optimizedRuns = m.optimizedRuns;
        if (m.kernelCacheCap > 0)
            sopts.kernelCacheCap = m.kernelCacheCap;
        // v2 extensions; v1 Opens decode with the defaults (empty model
        // name, uniform kind, value 0) and change nothing here.
        if (!m.hwModel.empty()) {
            sopts.model = hw::HardwareCatalog::instance().find(m.hwModel);
            if (!sopts.model) {
                sendReject(conn, m.tenant,
                           wire::RejectReason::BadModel);
                return;
            }
        }
        if (m.qosKind == wire::WireQosKind::Deadline) {
            if (!(m.qosValue > 0.0)) {
                sendReject(conn, m.tenant, wire::RejectReason::BadQos);
                return;
            }
            sopts.mpc.qos = mpc::QosSpec::deadline(m.qosValue);
        } else if (m.qosValue > 0.0) {
            sopts.mpc.qos = mpc::QosSpec::uniform(m.qosValue);
        }
        // Session creation runs the Turbo baseline inline here (event
        // loop thread); see the file comment for the trade-off.
        const workload::Application app =
            workload::makeBenchmark(m.bench);
        const SessionId id = _server.createSession(app, sopts);
        const auto total = static_cast<std::uint32_t>(
            (1 + sopts.optimizedRuns) * app.trace.size());
        const wire::OpenedMsg opened{m.tenant, id, total};
        conn->tenants.emplace(m.tenant, opened);
        {
            std::lock_guard lock(conn->mutex);
            conn->sessions.emplace(
                id, Connection::SessionState{total, false});
            wire::encodeOpened(conn->writeBuf, opened);
        }
    };

    auto handleStep = [&](const std::shared_ptr<Connection> &conn,
                          const wire::StepMsg &m) {
        {
            std::lock_guard lock(conn->mutex);
            auto it = conn->sessions.find(m.session);
            if (it == conn->sessions.end()) {
                wire::encodeReject(
                    conn->writeBuf,
                    {m.session, wire::RejectReason::UnknownSession});
                return;
            }
            if (it->second.inflight) {
                wire::encodeReject(
                    conn->writeBuf,
                    {m.session, wire::RejectReason::Busy});
                return;
            }
            if (it->second.remaining == 0) {
                wire::encodeReject(
                    conn->writeBuf,
                    {m.session, wire::RejectReason::Finished});
                return;
            }
            it->second.inflight = true;
        }

        Impl *impl_ = &impl;
        DecisionRequest req;
        req.session = m.session;
        req.onDone = [impl_, conn](SessionId id,
                                   const DecisionRecord *rec) {
            {
                std::lock_guard lock(conn->mutex);
                if (auto it = conn->sessions.find(id);
                    it != conn->sessions.end()) {
                    it->second.inflight = false;
                    if (rec != nullptr && it->second.remaining > 0)
                        --it->second.remaining;
                }
                if (conn->closed)
                    return;
                if (rec == nullptr) {
                    wire::encodeReject(
                        conn->writeBuf,
                        {id, wire::RejectReason::UnknownSession});
                } else {
                    wire::DecisionMsg d;
                    d.session = id;
                    d.run = static_cast<std::uint32_t>(rec->run);
                    d.index = static_cast<std::uint32_t>(rec->index);
                    d.configIndex =
                        static_cast<std::uint32_t>(rec->configIndex);
                    d.kernelTag =
                        static_cast<std::uint8_t>(rec->tag);
                    d.degraded = rec->degraded ? 1 : 0;
                    d.kernelTime = rec->kernelTime;
                    d.overheadTime = rec->overheadTime;
                    d.cpuEnergy = rec->cpuEnergy;
                    d.gpuEnergy = rec->gpuEnergy;
                    d.evaluations =
                        static_cast<std::uint32_t>(rec->evaluations);
                    wire::encodeDecision(conn->writeBuf, d);
                }
            }
            impl_->markDirty(conn);
        };

        if (!_server.trySubmit(std::move(req))) {
            std::lock_guard lock(conn->mutex);
            if (auto it = conn->sessions.find(m.session);
                it != conn->sessions.end())
                it->second.inflight = false;
            wire::encodeReject(
                conn->writeBuf,
                {m.session, wire::RejectReason::QueueFull});
        }
    };

    auto handleStats = [&](const std::shared_ptr<Connection> &conn) {
        const telemetry::Snapshot snap = _server.metrics();
        wire::StatsMsg stats;
        stats.entries.reserve(snap.counters.size() + 2);
        for (const auto &[name, value] : snap.counters)
            stats.entries.emplace_back(name, value);
        stats.entries.emplace_back("serve.connections", accepted());
        stats.entries.emplace_back("serve.accept_failures",
                                   impl.acceptFailures);
        if (const auto *arbiter = _server.capArbiter()) {
            stats.fleetBudgetWatts = arbiter->budgetWatts();
            stats.capViolations = arbiter->violations();
            stats.arbiterTicks = arbiter->ticks();
        }
        if (const auto it =
                snap.counters.find("serve.deadline_misses");
            it != snap.counters.end())
            stats.deadlineMisses = it->second;
        std::lock_guard lock(conn->mutex);
        wire::encodeStats(conn->writeBuf, stats);
    };

    // Returns false when the connection was torn down mid-frame.
    auto handleFrame = [&](const std::shared_ptr<Connection> &conn,
                           const wire::Frame &frame) {
        switch (frame.type) {
        case wire::MsgType::Open:
            if (auto m = wire::decodeOpen(frame.payload)) {
                handleOpen(conn, *m);
                return true;
            }
            break;
        case wire::MsgType::Step:
            if (auto m = wire::decodeStep(frame.payload)) {
                handleStep(conn, *m);
                return true;
            }
            break;
        case wire::MsgType::StatsReq:
            if (frame.payload.empty()) {
                handleStats(conn);
                return true;
            }
            break;
        default:
            break;
        }
        protocolError(conn, "malformed or unexpected frame");
        return false;
    };

    auto handleReadable = [&](const std::shared_ptr<Connection> &conn) {
        std::uint8_t buf[65536];
        for (;;) {
            const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
            if (n > 0) {
                conn->reader.append(buf,
                                    static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                closeConn(conn);
                return;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            if (errno == EINTR)
                continue;
            closeConn(conn);
            return;
        }
        while (auto frame = conn->reader.next()) {
            if (!handleFrame(conn, *frame))
                return;
        }
        if (conn->reader.corrupt()) {
            protocolError(conn, "corrupt frame stream");
            return;
        }
        flushConn(conn);
    };

    auto handleAccept = [&] {
        for (;;) {
            const int fd = ::accept4(impl.listenFd, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    return;
                if (errno == EINTR || errno == ECONNABORTED)
                    continue;
                // Out of descriptors or buffers: keep serving the
                // connections we have and try again after a pause.
                ++impl.acceptFailures;
                armListen(impl.epollFd, impl.listenFd, false);
                impl.acceptPaused = true;
                impl.acceptResume =
                    std::chrono::steady_clock::now() + kAcceptBackoff;
                return;
            }
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            auto conn = std::make_shared<Connection>();
            conn->fd = fd;
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.fd = fd;
            GPUPM_ASSERT(::epoll_ctl(impl.epollFd, EPOLL_CTL_ADD, fd,
                                     &ev) == 0,
                         "epoll_ctl(ADD conn) failed");
            impl.conns.emplace(fd, std::move(conn));
            _accepted.fetch_add(1, std::memory_order_relaxed);
        }
    };

    std::array<epoll_event, 64> events;
    while (!impl.stopRequested.load(std::memory_order_acquire)) {
        int timeout_ms = -1;
        if (impl.acceptPaused) {
            const auto left =
                std::chrono::ceil<std::chrono::milliseconds>(
                    impl.acceptResume - std::chrono::steady_clock::now());
            if (left.count() > 0) {
                timeout_ms = static_cast<int>(left.count());
            } else {
                armListen(impl.epollFd, impl.listenFd, true);
                impl.acceptPaused = false;
            }
        }
        const int n = ::epoll_wait(impl.epollFd, events.data(),
                                   static_cast<int>(events.size()),
                                   timeout_ms);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            GPUPM_PANIC("epoll_wait failed: ", std::strerror(errno));
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[static_cast<std::size_t>(i)].data.fd;
            const std::uint32_t ev =
                events[static_cast<std::size_t>(i)].events;
            if (fd == impl.listenFd) {
                handleAccept();
                continue;
            }
            if (fd == impl.eventFd) {
                std::uint64_t drain = 0;
                while (::read(impl.eventFd, &drain, sizeof(drain)) > 0)
                    ;
                std::vector<std::shared_ptr<Connection>> dirty;
                {
                    std::lock_guard lock(impl.dirtyMutex);
                    dirty.swap(impl.dirty);
                }
                for (const auto &conn : dirty) {
                    // A connection can be marked dirty after close;
                    // its fd is gone, so only live ones flush.
                    if (impl.conns.count(conn->fd) != 0 &&
                        impl.conns.at(conn->fd) == conn)
                        flushConn(conn);
                }
                continue;
            }
            auto it = impl.conns.find(fd);
            if (it == impl.conns.end())
                continue; // Closed earlier in this batch.
            std::shared_ptr<Connection> conn = it->second;
            if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
                closeConn(conn);
                continue;
            }
            if ((ev & EPOLLOUT) != 0 && !flushConn(conn))
                continue;
            if ((ev & EPOLLIN) != 0)
                handleReadable(conn);
        }
    }

    // Shutdown: close every connection so workers drop late replies.
    std::vector<std::shared_ptr<Connection>> open;
    open.reserve(impl.conns.size());
    for (auto &entry : impl.conns)
        open.push_back(entry.second);
    for (const auto &conn : open)
        closeConn(conn);
}

} // namespace gpupm::serve

#else // !__linux__

namespace gpupm::serve {

struct NetServer::Connection
{
};
struct NetServer::Impl
{
};

NetServer::NetServer(FleetServer &server, const NetServerOptions &opts)
    : _server(server), _opts(opts)
{
    GPUPM_PANIC("gpupm serve requires Linux (epoll); use the "
                "in-process fleet driver instead");
}

NetServer::~NetServer() = default;
void
NetServer::run()
{
}
void
NetServer::stop()
{
}
void
NetServer::eventLoop()
{
}

} // namespace gpupm::serve

#endif
