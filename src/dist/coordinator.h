/**
 * @file
 * Fault-tolerant campaign coordinator: the server side of the
 * distributed fabric, and the dispatcher of every out-of-process
 * campaign.
 *
 * The coordinator owns the campaign plan. Workers handshake (protocol
 * version checked, campaign spec shipped down) and are streamed
 * *leases* — batches of opaque unit requests. They reach it one of two
 * ways: over TCP, accepted on its listener, or as a local sandboxed
 * fleet (src/dist/fleet.h) whose already-connected socketpairs it
 * adopts without binding any port. The client callbacks (request /
 * result / loss) are the same either way, and the merged summary is
 * bit-identical to a serial in-process run at any fleet size: per-unit
 * seeds are fixed by the plan, results land in per-unit slots, and the
 * fold happens in unit order after run().
 *
 * Robustness properties (see tests/dist_test.cpp for the matrix):
 *  - liveness is heartbeat-based: a silent worker past the timeout is
 *    presumed dead, its leases revoked, its units reassigned;
 *  - a worker death mid-batch (socket EOF, torn frame) forfeits only
 *    its unreported units — one Result per unit, not per lease;
 *  - revoked units re-executing elsewhere cannot double-count: the
 *    lease table's per-unit done flag drops stale duplicates;
 *  - handshakes from mismatched protocol versions are rejected;
 *  - backpressure: at most maxInFlightPerWorker open leases per
 *    worker, so a slow worker throttles itself, not the fleet;
 *  - per-worker error budgets: a worker name that keeps dying is
 *    banned and its reconnects refused (the fabric's circuit
 *    breaker), while its units migrate to healthy workers.
 *
 * A sandboxed fleet changes what a loss is. Its leases are one unit
 * each, so a death is charged to exactly the unit that was running;
 * the fleet reaps and classifies the dead child (WorkerLoss) and the
 * coordinator adopts its respawn. Heartbeats are off (EOF is the
 * liveness signal), and the lease timeout is a hard deadline: past
 * it the worker is SIGKILLed and the loss is HardKill.
 *
 * Single-threaded poll loop; no threads are created, so the fleet may
 * fork (and respawn) workers while the Coordinator exists.
 */

#ifndef MTC_DIST_COORDINATOR_H
#define MTC_DIST_COORDINATOR_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dist/fleet.h"
#include "dist/protocol.h"
#include "support/fault_transport.h"
#include "support/framing.h"
#include "support/socket.h"

namespace mtc
{

/** Coordinator knobs. */
struct FabricConfig
{
    /** TCP port to listen on; 0 = ephemeral (read back via port()). */
    std::uint16_t port = 0;

    /** Bind address. Loopback by default: crossing machines is an
     * explicit operator decision, not a default exposure. */
    std::string host = "127.0.0.1";

    /** Units per lease. Small batches bound the blast radius of a
     * worker death; large ones amortize round trips. */
    unsigned batchSize = 2;

    /** Open leases per worker — the backpressure bound. */
    unsigned maxInFlightPerWorker = 2;

    /** A worker silent this long is presumed dead; 0 disables. */
    std::uint64_t heartbeatTimeoutMs = 10000;

    /** A lease unfinished this long is revoked and its units
     * reassigned (the worker stays connected); for a sandboxed
     * fleet's worker it is the hard deadline past which the worker
     * is SIGKILLed. 0 disables. */
    std::uint64_t leaseTimeoutMs = 0;

    /** Worker losses tolerated per worker name before its reconnects
     * are refused; 0 = unlimited. */
    unsigned workerLossBudget = 0;

    /** With units pending but zero connected workers for this long,
     * run() throws instead of waiting forever (loopback fleets that
     * all died and gave up reconnecting); 0 = wait indefinitely,
     * which is right for external fleets an operator attaches. */
    std::uint64_t stallTimeoutMs = 0;

    /** Per-frame payload ceiling on worker connections (applied once
     * a connection is handshaken; before that the far tighter
     * kPreAuthFramePayloadBytes ceiling holds). */
    std::uint32_t maxFrameBytes = kMaxFramePayloadBytes;

    /** Version to require in handshakes. Exposed for tests; leave at
     * the default everywhere else. */
    std::uint32_t protocolVersion = kDistProtocolVersion;

    /** Pre-shared fabric key (loadFabricKey). Empty = keyless
     * loopback mode: no challenge, no per-frame MACs. When set, every
     * worker must prove possession before any lease, and all
     * post-handshake frames carry MAC + sequence numbers. */
    std::vector<std::uint8_t> key;

    /** A connection that has not completed its handshake within this
     * window is dropped — a silent peer cannot pin a poll-loop slot.
     * 0 disables. */
    std::uint64_t handshakeTimeoutMs = 5000;

    /** Seeded network faults injected on every accepted connection
     * (chaos drills); inert when no rate is set. */
    NetFaultConfig netFault;

    /** Fraction of units re-executed by a second worker and
     * cross-compared (Byzantine audit); 0 disables. */
    double auditRate = 0.0;

    /** Seed for the deterministic audit sample. */
    std::uint64_t auditSeed = 0;
};

/** Byzantine-audit counters (all zero when auditing is off). */
struct ByzantineStats
{
    unsigned auditsScheduled = 0; ///< units double-leased for audit
    unsigned auditsPassed = 0;    ///< digests agreed
    unsigned auditMismatches = 0; ///< digests disagreed
    unsigned auditsSkipped = 0;   ///< no auditor or arbiter; trusted
    unsigned localArbitrations = 0; ///< coordinator re-executed a unit
    unsigned resultsInvalidated = 0; ///< results voided by conviction
    std::vector<std::string> quarantined; ///< convicted worker names
};

/** Fabric-level counters for reporting and tests. */
struct FabricStats
{
    unsigned workersConnected = 0; ///< handshakes accepted
    unsigned workersRejected = 0;  ///< handshakes refused
    unsigned workersLost = 0;      ///< accepted workers later lost
    unsigned leasesGranted = 0;
    unsigned leasesRevoked = 0;    ///< by loss or lease timeout
    unsigned unitsReassigned = 0;  ///< units re-queued after a loss
    unsigned duplicateResults = 0; ///< stale results dropped
    unsigned heartbeats = 0;
    unsigned authFailures = 0;     ///< wrong-key / keyless rejections
    unsigned handshakeTimeouts = 0; ///< silent pre-Hello peers dropped
    ByzantineStats byzantine;
};

/** See file comment. */
class Coordinator
{
  public:
    /** Produces the request payload for a unit, or nullopt when the
     * unit resolves without running (journal replay, tripped
     * breaker). */
    using RequestFn = std::function<std::optional<
        std::vector<std::uint8_t>>(std::size_t unit)>;

    /** Receives a completed unit's response payload. */
    using ResultFn =
        std::function<void(std::size_t unit,
                           const std::vector<std::uint8_t> &payload)>;

    /** Receives a lost unit with its per-unit loss count and the
     * loss: classified from the exit status for a sandboxed worker,
     * Remote (with the reason) for a TCP one. Returning true
     * re-queues the unit, false abandons it (the client records the
     * failure). */
    using LossFn = std::function<bool(std::size_t unit, unsigned losses,
                                      const WorkerLoss &loss)>;

    /**
     * Byzantine-audit callbacks. The fabric stays payload-agnostic:
     * it cannot compare two unit results itself, so the client
     * supplies a deterministic digest (wall-clock fields excluded)
     * and, optionally, a local re-execution arbiter that returns the
     * ground-truth payload for a unit. With no arbiter, conviction
     * falls back to majority-over-time: a worker on the losing side
     * of two digest mismatches is quarantined.
     */
    struct AuditHooks
    {
        std::function<std::uint64_t(
            std::size_t unit, const std::vector<std::uint8_t> &payload)>
            digest;
        std::function<std::vector<std::uint8_t>(std::size_t unit)>
            arbiter;
    };

    /**
     * Bind the listening socket (so port() is known before any worker
     * is launched) and stage @p spec for Welcome messages.
     * @throws SocketError if the port cannot be bound.
     */
    Coordinator(FabricConfig cfg, std::vector<std::uint8_t> spec);

    /**
     * Serve sandboxed @p fleet's workers over their channels; binds no
     * port. Forces one-unit leases (batchSize = maxInFlightPerWorker
     * = 1) and turns heartbeat liveness off; cfg.leaseTimeoutMs is
     * the hard deadline. run() may respawn the fleet's slots, so keep
     * the process single-threaded while it runs.
     */
    Coordinator(FabricConfig cfg, std::vector<std::uint8_t> spec,
                WorkerFleet &fleet);

    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Bound TCP port (the ephemeral port when cfg.port was 0); 0
     * when serving a fleet. */
    std::uint16_t port() const { return listener ? listener->port() : 0; }

    /** The listening descriptor, -1 when serving a fleet. Every
     * loopback worker must close it (WorkerFleet does); see
     * WorkerFleet's loopback constructor for why. */
    int listenerFd() const { return listener ? listener->fd() : -1; }

    /**
     * Serve the campaign: accept workers, stream leases, merge
     * results, until every unit of 0..@p unit_count-1 is resolved.
     * Broadcasts Done and disconnects everyone before returning.
     *
     * @throws DistError if progress becomes impossible (every unit's
     *         loss budget can still be absorbed, but a campaign with
     *         pending units and every worker name banned is stuck).
     */
    void run(std::size_t unit_count, const RequestFn &request,
             const ResultFn &result, const LossFn &loss);

    /** run() with Byzantine auditing: when cfg.auditRate > 0 and
     * hooks.digest is set, a deterministic sample of units is
     * re-executed by a second worker and cross-compared; a convicted
     * deviator is quarantined, its unverified results invalidated and
     * re-executed, so the merged campaign matches an honest serial
     * run bit-for-bit. */
    void run(std::size_t unit_count, const RequestFn &request,
             const ResultFn &result, const LossFn &loss,
             const AuditHooks &hooks);

    const FabricStats &stats() const { return fabricStats; }

  private:
    FabricConfig cfg;
    std::vector<std::uint8_t> spec;
    std::optional<TcpListener> listener;
    WorkerFleet *fleet = nullptr;
    FabricStats fabricStats;
};

} // namespace mtc

#endif // MTC_DIST_COORDINATOR_H
