#include "dist/worker_client.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <memory>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "support/hmac.h"
#include "support/log.h"
#include "support/rng.h"
#include "support/socket.h"
#include "support/transport.h"

namespace mtc
{

namespace
{

/** See the coordinator's SigpipeGuard: EPIPE, not process death. */
class SigpipeGuard
{
  public:
    SigpipeGuard() { old = ::signal(SIGPIPE, SIG_IGN); }
    ~SigpipeGuard() { ::signal(SIGPIPE, old); }

  private:
    void (*old)(int) = nullptr;
};

/**
 * Heartbeat sender: pings the link every period until stopped. Sends
 * share a mutex with the main loop's Result sends — the Transport is
 * thread-compatible, not thread-safe. A send failure just ends the
 * thread; the main loop sees the dead link on its own.
 */
class Heartbeat
{
  public:
    Heartbeat(Transport &link_arg, std::mutex &send_mtx_arg,
              std::uint64_t period_ms)
        : link(link_arg), sendMtx(send_mtx_arg)
    {
        if (period_ms == 0)
            return;
        thread = std::thread([this, period_ms] {
            std::unique_lock<std::mutex> lock(mtx);
            while (!cv.wait_for(
                lock, std::chrono::milliseconds(period_ms),
                [this] { return stop; })) {
                try {
                    const std::lock_guard<std::mutex> send(sendMtx);
                    link.send(encodeHeartbeat());
                } catch (const FramingError &) {
                    return; // link died; the main loop will notice
                }
            }
        });
    }

    ~Heartbeat()
    {
        {
            const std::lock_guard<std::mutex> lock(mtx);
            stop = true;
        }
        cv.notify_all();
        if (thread.joinable())
            thread.join();
    }

  private:
    Transport &link;
    std::mutex &sendMtx;
    std::mutex mtx;
    std::condition_variable cv;
    bool stop = false;
    std::thread thread;
};

} // anonymous namespace

SessionEnd
serveWorkerSession(Transport &link, const WorkerClientConfig &cfg,
                   const WorkerSpecFn &spec_fn, const WorkerUnitFn &unit_fn,
                   WorkerRunStats &stats, std::string &anomaly)
{
    const bool keyed = !cfg.key.empty();
    // In keyed mode nothing big arrives before auth completes
    // (Challenge / Reject / Done), so hold the conservative ceiling
    // until the session key is armed. Keyless mode gets the campaign
    // spec in the handshake reply itself.
    link.setMaxFramePayload(keyed ? std::min(kPreAuthFramePayloadBytes,
                                             cfg.maxFrameBytes)
                                  : cfg.maxFrameBytes);

    // Handshake. A Reject is fatal (a version mismatch or a ban does
    // not heal by retrying), as is an authentication dead end (wrong
    // key, keyless coordinator answering a keyless worker's demands);
    // a dead connection is not. Crucially, an *unexpected* reply is
    // also not fatal: pre-auth frames are unauthenticated, so a single
    // injected / duplicated / reordered frame must never be able to
    // kill a worker for good — it costs one reconnect out of the
    // budget, and a coordinator that really keeps misbehaving
    // exhausts the budget with the anomaly preserved in the final
    // error.
    struct SessionRetry
    {
        std::string why;
    };
    bool session_ok = false;
    try {
        HelloMsg hello;
        hello.version = cfg.protocolVersion;
        hello.name = cfg.name;
        hello.wantAuth = keyed;
        if (keyed)
            hello.nonce = randomNonce();
        link.send(encodeHello(hello));
        std::vector<std::uint8_t> reply;
        if (link.receive(reply)) {
            FabricMsg type = peekType(reply);
            if (type == FabricMsg::Done) {
                // We arrived after the campaign resolved (e.g. a
                // fully journal-replayed resume): clean exit, not an
                // error and not a reconnect.
                return SessionEnd::Done;
            }
            if (type == FabricMsg::Reject) {
                throw DistError("worker '" + cfg.name + "' rejected: " +
                                decodeReject(reply).reason);
            }
            if (keyed) {
                if (type == FabricMsg::Welcome)
                    throw SessionRetry{
                        "coordinator answered without authenticating "
                        "(it has no fabric key, or the challenge was "
                        "lost in transit); refusing to join "
                        "unauthenticated"};
                if (type != FabricMsg::Challenge)
                    throw SessionRetry{"unexpected handshake reply"};
                const ChallengeMsg ch = decodeChallenge(reply);
                const auto expect =
                    fabricServerProof(cfg.key, hello.nonce, ch.nonce);
                if (!constantTimeEqual(ch.proof.data(), expect.data(),
                                       kFabricProofBytes))
                    throw DistError("worker '" + cfg.name +
                                    "': coordinator failed its key proof "
                                    "(wrong or stale key file?)");
                AuthProofMsg ap;
                ap.proof = fabricClientProof(cfg.key, hello.nonce,
                                             ch.nonce, cfg.name);
                link.send(encodeAuthProof(ap));
                link.enableFrameAuth(
                    fabricSessionKey(cfg.key, hello.nonce, ch.nonce),
                    /*is_client=*/true);
                link.setMaxFramePayload(cfg.maxFrameBytes);
                std::vector<std::uint8_t> welcome;
                if (!link.receive(welcome))
                    throw FramingError(
                        "coordinator hung up mid-handshake");
                type = peekType(welcome);
                if (type == FabricMsg::Reject)
                    throw DistError("worker '" + cfg.name +
                                    "' rejected: " +
                                    decodeReject(welcome).reason);
                if (type != FabricMsg::Welcome)
                    throw SessionRetry{"unexpected post-auth reply"};
                spec_fn(decodeWelcome(welcome).spec);
                session_ok = true;
            } else {
                if (type == FabricMsg::Challenge)
                    throw DistError(
                        "worker '" + cfg.name +
                        "': coordinator requires a fabric key "
                        "(--fabric-key-file) and this worker has none");
                if (type != FabricMsg::Welcome)
                    throw SessionRetry{"unexpected handshake reply"};
                spec_fn(decodeWelcome(reply).spec);
                session_ok = true;
            }
        }
    } catch (const SessionRetry &retry) {
        anomaly = retry.why;
    } catch (const AuthError &) {
        // The post-auth stream failed its MAC/sequence check:
        // indistinguishable from an injected fault or a torn
        // connection — reconnect, don't die.
    } catch (const FramingError &) {
        // Fall through: handshake died mid-flight.
    }
    if (!session_ok)
        return SessionEnd::NoSession;

    std::mutex send_mtx;
    const Heartbeat heartbeat(link, send_mtx, cfg.heartbeatMs);
    try {
        for (;;) {
            std::vector<std::uint8_t> msg;
            if (!link.receive(msg))
                return SessionEnd::Lost; // lost the coordinator
            const FabricMsg type = peekType(msg);
            if (type == FabricMsg::Done)
                return SessionEnd::Done;
            if (type != FabricMsg::Lease) {
                // A duplicated / replayed frame (chaos drill or a
                // confused peer), not a reason to die: drop the
                // session and reconnect on budget.
                warn("worker '" + cfg.name +
                     "': unexpected mid-session message; dropping "
                     "session");
                return SessionEnd::Lost;
            }
            const LeaseMsg lease = decodeLease(msg);
            for (const LeaseUnit &unit : lease.units) {
                if (cfg.unitDelayMs) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(cfg.unitDelayMs));
                }
                ResultMsg res;
                res.leaseId = lease.leaseId;
                res.unitIndex = unit.unitIndex;
                res.response = unit_fn(unit.unitIndex, unit.request);
                {
                    const std::lock_guard<std::mutex> send(send_mtx);
                    link.send(encodeResult(res));
                }
                ++stats.unitsExecuted;
                if (cfg.exitAfterUnits &&
                    stats.unitsExecuted >= cfg.exitAfterUnits) {
                    // Crash drill: die abruptly mid-batch, leaving
                    // the rest of the lease unreported. No unwinding,
                    // no goodbyes — the closest _exit gets to a
                    // SIGKILL.
                    ::_exit(17);
                }
            }
        }
    } catch (const FramingError &) {
        return SessionEnd::Lost; // torn mid-session
    }
}

WorkerRunStats
runWorkerClient(const WorkerClientConfig &cfg,
                const WorkerSpecFn &spec_fn, const WorkerUnitFn &unit_fn)
{
    const SigpipeGuard sigpipe;

    WorkerRunStats stats;
    unsigned failures = 0; ///< consecutive connect failures / lost sessions
    unsigned handshakes = 0;
    std::uint64_t backoff = std::max<std::uint64_t>(cfg.backoffBaseMs, 1);

    const auto back_off = [&](const std::string &why) {
        ++failures;
        if (failures > cfg.maxReconnects)
            return false;
        debug("worker '" + cfg.name + "': " + why + "; retrying in " +
              std::to_string(backoff) + "ms (" +
              std::to_string(failures) + "/" +
              std::to_string(cfg.maxReconnects) + ")");
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        backoff = std::min(backoff * 2, std::max<std::uint64_t>(
                                            cfg.backoffCapMs, 1));
        return true;
    };

    std::uint64_t session_counter = 0; ///< per-session fault seeding
    std::string last_anomaly; ///< most recent non-fatal handshake oddity

    for (;;) {
        int fd = -1;
        try {
            fd = connectTcp(cfg.host, cfg.port);
        } catch (const SocketError &err) {
            if (back_off(std::string("connect failed: ") + err.what()))
                continue;
            if (handshakes > 0)
                return stats; // campaign likely over; see file comment
            throw DistError("worker '" + cfg.name +
                            "': cannot reach coordinator at " +
                            cfg.host + ":" + std::to_string(cfg.port));
        }
        Transport base(fd, "worker '" + cfg.name + "' link");
        std::unique_ptr<Transport> link;
        if (cfg.netFault.any()) {
            NetFaultConfig nf = cfg.netFault;
            std::uint64_t s =
                nf.seed ^ (0xbb67ae8584caa73bull * ++session_counter);
            nf.seed = splitMix64(s);
            link = std::make_unique<FaultyTransport>(std::move(base), nf);
        } else {
            link = std::make_unique<Transport>(std::move(base));
        }
        // Symmetric to the coordinator side: a frame that starts must
        // finish within the fabric deadline or the connection is torn
        // down and retried, instead of this worker hanging forever on
        // a coordinator whose frame got mangled in flight.
        link->setReceiveDeadlineMs(kFabricFrameDeadlineMs);
        const SessionEnd end = serveWorkerSession(
            *link, cfg, spec_fn, unit_fn, stats, last_anomaly);
        link->close();
        if (end == SessionEnd::Done)
            return stats;
        if (end == SessionEnd::NoSession) {
            if (back_off("handshake did not complete" +
                         (last_anomaly.empty()
                              ? std::string()
                              : " (" + last_anomaly + ")")))
                continue;
            if (handshakes > 0)
                return stats;
            throw DistError(
                "worker '" + cfg.name + "': handshake never completed" +
                (last_anomaly.empty()
                     ? std::string()
                     : "; last anomaly: " + last_anomaly));
        }
        if (handshakes++ > 0)
            ++stats.reconnects;
        failures = 0;
        backoff = std::max<std::uint64_t>(cfg.backoffBaseMs, 1);
        if (!back_off("session lost"))
            return stats; // at least one handshake succeeded
    }
}

} // namespace mtc
