/**
 * @file
 * Session lifecycle: create / checkout / reset / evict with an LRU cap.
 *
 * The manager bounds fleet memory: each session carries a kernel memo
 * of up to kernelCacheCap dense per-config prediction tables
 * (ml::KernelMemo), so an unbounded tenant count would grow without
 * limit. When a create
 * would exceed maxSessions the least-recently-used *idle* session is
 * evicted (checked-out sessions are pinned; evicting a session mid-step
 * would pull state out from under a worker).
 *
 * checkout()/checkin() give workers exclusive access: a session is
 * processed by one worker at a time, which is what lets Session and
 * its kernel memo stay lock-free internally. The manager itself is
 * thread-safe.
 */

#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/session.hpp"

namespace gpupm::serve {

struct SessionManagerOptions
{
    /** LRU cap on resident sessions; 0 means unbounded. */
    std::size_t maxSessions = 256;
};

class SessionManager
{
  public:
    /**
     * @param base Shared predictor handed to every session.
     * @param handle Hot-swap publication point handed to every
     *        session; null = static forests.
     * @param model Default hardware model for sessions that do not
     *        carry their own override (SessionOptions::model).
     * @param telemetry Registry for manager/session metrics; may be
     *        null.
     * @param arbiter Fleet cap arbiter handed to every session; null =
     *        no fleet budget.
     */
    SessionManager(std::shared_ptr<const ml::PerfPowerPredictor> base,
                   const ml::ForestHandle *handle,
                   const SessionManagerOptions &opts,
                   hw::HardwareModelPtr model,
                   telemetry::Registry *telemetry = nullptr,
                   powercap::FleetCapArbiter *arbiter = nullptr);

    /**
     * Create a session for @p app; evicts the LRU idle session when at
     * the cap (fatal when the cap is exceeded with every session
     * pinned - the server sizes the cap above its worker count).
     */
    SessionId create(const workload::Application &app,
                     const SessionOptions &opts = {});

    /**
     * Create a session under a caller-assigned id. The sharded server
     * allocates ids from one global counter - identities then do not
     * depend on how tenants hash across shards - and hands each id to
     * its home shard's manager through here. Also advances the local
     * id allocator past @p id so create() and createWithId() can mix.
     * Fatal when the id is 0 or already resident. Same LRU/eviction
     * semantics as create().
     */
    SessionId createWithId(SessionId id,
                           const workload::Application &app,
                           const SessionOptions &opts = {});

    /**
     * Claim exclusive access; null when the id is unknown (e.g. the
     * session was evicted) or already checked out. Touches LRU order.
     */
    Session *checkout(SessionId id);
    void checkin(SessionId id);

    /** Reset a session's learned state; false when unknown or busy. */
    bool reset(SessionId id);

    /** Remove a session; false when unknown or busy (checked out). */
    bool evict(SessionId id);

    std::size_t size() const;
    /** Sessions evicted by the LRU cap (not explicit evict calls). */
    std::size_t lruEvictions() const;

    /** Ids of resident sessions, in creation order. */
    std::vector<SessionId> ids() const;

  private:
    struct Slot
    {
        std::unique_ptr<Session> session;
        std::uint64_t lastUse = 0;
        bool pinned = false;
    };

    void evictLruLocked();

    std::shared_ptr<const ml::PerfPowerPredictor> _base;
    const ml::ForestHandle *_forestHandle;
    SessionManagerOptions _opts;
    hw::HardwareModelPtr _model;
    telemetry::Registry *_telemetry;
    powercap::FleetCapArbiter *_arbiter;

    mutable std::mutex _mutex;
    std::unordered_map<SessionId, Slot> _slots;
    SessionId _nextId = 1;
    std::uint64_t _clock = 0;
    std::size_t _lruEvictions = 0;
    telemetry::Counter *_evictionCounter = nullptr;
};

} // namespace gpupm::serve
