/**
 * @file
 * Epoll front end for the fleet decision server (`gpupm serve`).
 *
 * One event-loop thread owns the listening socket and every
 * connection's reads; decision work itself never runs here - Step
 * frames are admitted into the sharded FleetServer (trySubmit, i.e.
 * bounded queues with explicit rejection) and the server's worker
 * threads call back when a step completes. A completion appends the
 * Decision frame to the connection's write buffer under a small
 * per-connection mutex, marks the connection dirty, and kicks the
 * event loop through an eventfd; the loop flushes dirty buffers,
 * falling back to EPOLLOUT registration when a socket's send buffer
 * fills. So the wire path is: epoll thread parses and admits, worker
 * threads compute and enqueue replies, epoll thread writes.
 *
 * Backpressure is end-to-end explicit: a full shard queue surfaces as
 * Reject(QueueFull) - the wire face of load shedding - and a degraded
 * shard's decisions arrive marked degraded=1. The protocol itself is
 * in serve/wire.hpp.
 *
 * Session creation (Open) runs the Turbo baseline inline on the event
 * loop; that is milliseconds per new tenant and keeps the loop single
 * threaded. Fine for the load generator and CI smoke; a production
 * front end would hand Opens to the pool too.
 *
 * Running out of descriptors does not stop the server: when accept
 * fails (EMFILE, ENFILE, ...) the loop counts the failure, exported in
 * Stats as serve.accept_failures, stops polling the listen socket for
 * a short backoff and keeps serving the connections it has; waiting
 * connections stay in the backlog until descriptors free up.
 *
 * Linux-only (epoll + eventfd); other hosts get a panicking stub -
 * the in-process fleet driver works everywhere.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/server.hpp"

namespace gpupm::serve {

struct NetServerOptions
{
    std::string host = "127.0.0.1";
    /** 0 = kernel-assigned (the bound port is readable via port()). */
    std::uint16_t port = 0;
    /** Default session shape for Open frames that pass 0 values. */
    SessionOptions session;
    /** accept() backlog. */
    int backlog = 128;
};

class NetServer
{
  public:
    /**
     * Bind and listen immediately (fatal on bind failure, so a CLI
     * user sees the error before the loop starts); the event loop
     * itself runs in run().
     *
     * @param server The sharded decision server; must outlive this.
     */
    NetServer(FleetServer &server, const NetServerOptions &opts);
    ~NetServer();

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /** The bound port (after construction; resolves port 0). */
    std::uint16_t port() const { return _port; }

    /** Run the event loop on the calling thread until stop(). */
    void run();

    /**
     * Request shutdown from any thread or a signal handler (one
     * eventfd write; async-signal-safe). Idempotent.
     */
    void stop();

    /** Connections accepted over the server's lifetime. */
    std::uint64_t accepted() const
    {
        return _accepted.load(std::memory_order_relaxed);
    }

  private:
    struct Connection;
    struct Impl;

    void eventLoop();

    FleetServer &_server;
    NetServerOptions _opts;
    std::uint16_t _port = 0;
    std::atomic<std::uint64_t> _accepted{0};
    std::unique_ptr<Impl> _impl;
};

} // namespace gpupm::serve
