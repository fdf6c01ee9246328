/**
 * @file
 * Worker side of the distributed campaign fabric.
 *
 * A worker connects to the coordinator, handshakes (protocol version,
 * worker name), receives the opaque campaign spec, then executes
 * leased units and streams one Result per unit. Liveness is active: a
 * heartbeat thread pings while units run, so a coordinator never
 * confuses "slow unit" with "dead worker" inside the heartbeat
 * window.
 *
 * Connection loss is survivable: the client reconnects with capped
 * exponential backoff and re-handshakes; the coordinator's lease
 * table guarantees whatever the dead session left unreported is
 * reassigned, and anything this client re-reports after a revocation
 * is dropped as a stale duplicate. Exhausting reconnects after at
 * least one good session returns cleanly — the likeliest cause is
 * the campaign finishing and the coordinator going away.
 *
 * Payload-agnostic like the rest of the fabric: the unit callback
 * maps request bytes to response bytes, and the spec callback hands
 * the campaign spec to whoever can decode it (the harness layer).
 */

#ifndef MTC_DIST_WORKER_CLIENT_H
#define MTC_DIST_WORKER_CLIENT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "support/fault_transport.h"
#include "support/framing.h"
#include "support/transport.h"

namespace mtc
{

/** Worker-side knobs. */
struct WorkerClientConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    /** Identity reported in Hello; the coordinator's per-worker loss
     * budget is keyed on it, so keep it stable across reconnects. */
    std::string name = "worker";

    /** Heartbeat period; 0 disables (tests only — a silent worker
     * trips the coordinator's liveness timeout). */
    std::uint64_t heartbeatMs = 2000;

    /** Consecutive connection failures (or lost sessions) tolerated
     * before giving up. */
    unsigned maxReconnects = 5;

    /** Reconnect backoff: base delay, doubled per attempt, capped. */
    std::uint64_t backoffBaseMs = 100;
    std::uint64_t backoffCapMs = 5000;

    /** Per-frame payload ceiling on the coordinator connection. */
    std::uint32_t maxFrameBytes = kMaxFramePayloadBytes;

    /** Version to claim in Hello. Exposed for the handshake-rejection
     * tests; leave at the default everywhere else. */
    std::uint32_t protocolVersion = kDistProtocolVersion;

    /** Pre-shared fabric key (loadFabricKey). Empty = keyless. When
     * set, the worker demands the challenge/response handshake and
     * treats a keyless or wrong-key coordinator as fatal, and all
     * post-handshake frames carry MAC + sequence numbers. */
    std::vector<std::uint8_t> key;

    /** Seeded network faults injected on this worker's connection
     * (chaos drills); inert when no rate is set. */
    NetFaultConfig netFault;

    /** Failure drill: sleep this long before each unit (a "slow
     * worker" for the backpressure tests); 0 = off. */
    std::uint64_t unitDelayMs = 0;

    /** Failure drill: _exit() abruptly after sending this many
     * results, mid-lease — the "worker dies mid-batch" scenario;
     * 0 = off. */
    std::uint64_t exitAfterUnits = 0;
};

/** What a completed worker run did. */
struct WorkerRunStats
{
    std::uint64_t unitsExecuted = 0;
    unsigned reconnects = 0; ///< successful re-handshakes after the first
};

/** Receives the campaign spec after each successful handshake. */
using WorkerSpecFn =
    std::function<void(const std::vector<std::uint8_t> &spec)>;

/** Executes one unit: request bytes in, response bytes out. */
using WorkerUnitFn = std::function<std::vector<std::uint8_t>(
    std::uint64_t unit_index, const std::vector<std::uint8_t> &request)>;

/**
 * Serve the coordinator until it says Done (normal return), the
 * handshake is rejected (@throws DistError — fatal, do not retry a
 * version mismatch), or reconnects are exhausted (DistError if no
 * session ever succeeded, clean return otherwise; see file comment).
 */
WorkerRunStats runWorkerClient(const WorkerClientConfig &cfg,
                               const WorkerSpecFn &spec_fn,
                               const WorkerUnitFn &unit_fn);

/** How one worker session ended. */
enum class SessionEnd : std::uint8_t
{
    Done,     ///< the coordinator said Done: the campaign is over
    Lost,     ///< the link dropped after a completed handshake
    NoSession ///< the handshake did not complete (retryable)
};

/**
 * Serve one session on a connected @p link: handshake (version, key
 * proof when cfg.key is set, spec to @p spec_fn), then run leased
 * units through @p unit_fn, one Result each, until Done or the link
 * drops. runWorkerClient() calls it once per connection; a sandboxed
 * local worker (src/dist/fleet.h) once on its socketpair. Counts
 * units in @p stats; @p anomaly receives the reason when an
 * unexpected handshake reply ends a NoSession.
 *
 * @throws DistError on a rejection or an authentication dead end.
 */
SessionEnd serveWorkerSession(Transport &link,
                              const WorkerClientConfig &cfg,
                              const WorkerSpecFn &spec_fn,
                              const WorkerUnitFn &unit_fn,
                              WorkerRunStats &stats, std::string &anomaly);

} // namespace mtc

#endif // MTC_DIST_WORKER_CLIENT_H
