#include "dist/coordinator.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include <poll.h>

#include "dist/lease_table.h"
#include "support/hmac.h"
#include "support/log.h"
#include "support/rng.h"
#include "support/transport.h"

namespace mtc
{

namespace
{

/** Dead workers raise EPIPE on our next send; we want the errno path
 * (a classified loss), not process death. Restores on scope exit so
 * run() can throw without leaving the disposition changed. */
class SigpipeGuard
{
  public:
    SigpipeGuard() { old = ::signal(SIGPIPE, SIG_IGN); }
    ~SigpipeGuard() { ::signal(SIGPIPE, old); }

  private:
    void (*old)(int) = nullptr;
};

} // anonymous namespace

Coordinator::Coordinator(FabricConfig cfg_arg,
                         std::vector<std::uint8_t> spec_arg)
    : cfg(cfg_arg), spec(std::move(spec_arg))
{
    listener.emplace(cfg.port, cfg.host);
    if (cfg.batchSize == 0)
        cfg.batchSize = 1;
    if (cfg.maxInFlightPerWorker == 0)
        cfg.maxInFlightPerWorker = 1;
}

Coordinator::Coordinator(FabricConfig cfg_arg,
                         std::vector<std::uint8_t> spec_arg,
                         WorkerFleet &fleet_arg)
    : cfg(cfg_arg), spec(std::move(spec_arg)), fleet(&fleet_arg)
{
    // One unit per lease, one lease per worker: a death is charged to
    // exactly the unit that was running.
    cfg.batchSize = 1;
    cfg.maxInFlightPerWorker = 1;
    cfg.heartbeatTimeoutMs = 0;
}

Coordinator::~Coordinator() = default;

void
Coordinator::run(std::size_t unit_count, const RequestFn &request,
                 const ResultFn &result, const LossFn &loss)
{
    run(unit_count, request, result, loss, AuditHooks{});
}

void
Coordinator::run(std::size_t unit_count, const RequestFn &request,
                 const ResultFn &result, const LossFn &loss,
                 const AuditHooks &hooks)
{
    using Clock = LeaseTable::Clock;

    struct Conn
    {
        std::unique_ptr<Transport> link;
        std::string name; ///< worker identity once Ready
        std::string pendingName; ///< from Hello, until proof verifies
        enum class Phase : std::uint8_t
        {
            AwaitHello,
            AwaitProof,
            Ready
        } phase = Phase::AwaitHello;
        Clock::time_point lastSeen{};
        Clock::time_point acceptedAt{};
        int slot = -1; ///< fleet slot of an adopted worker; -1 for TCP
        std::array<std::uint8_t, kFabricNonceBytes> clientNonce{};
        std::array<std::uint8_t, kFabricNonceBytes> serverNonce{};
    };

    /** Held primary result of a unit awaiting its audit verdict. */
    struct AuditInfo
    {
        std::vector<std::uint8_t> payload;
        std::uint64_t digest = 0;
        std::string primaryName;
    };

    const SigpipeGuard sigpipe;

    LeaseTable table(unit_count);
    std::map<std::uint64_t, Conn> conns;
    std::uint64_t nextConnId = 1;
    std::vector<unsigned> lossCounts(unit_count, 0);
    std::map<std::string, unsigned> nameLosses;
    std::set<std::string> banned;

    const bool auditing = cfg.auditRate > 0.0 && bool(hooks.digest);
    std::map<std::size_t, AuditInfo> audits;
    std::vector<std::string> unitSource(unit_count);
    std::vector<bool> unitVerified(unit_count, false);
    std::set<std::string> quarantined;
    std::map<std::string, unsigned> mismatchCounts;

    /** Deterministic audit sample: same seed, same campaign → same
     * audited units, so chaos drills are reproducible. */
    const auto sampled = [&](std::size_t unit) {
        if (!auditing)
            return false;
        if (cfg.auditRate >= 1.0)
            return true;
        std::uint64_t s = cfg.auditSeed ^
                          (0x9e3779b97f4a7c15ull *
                           (static_cast<std::uint64_t>(unit) + 1));
        const double draw =
            static_cast<double>(splitMix64(s) >> 11) * 0x1.0p-53;
        return draw < cfg.auditRate;
    };

    // One loss event per unit the dying lease still owed. The client
    // decides retry vs give-up; revokeLease already re-queued, so a
    // give-up only needs the done mark.
    const auto charge_lost = [&](const std::vector<std::size_t> &units,
                                 const WorkerLoss &why) {
        for (const std::size_t unit : units) {
            ++lossCounts[unit];
            if (loss(unit, lossCounts[unit], why)) {
                ++fabricStats.unitsReassigned;
            } else {
                table.markDone(unit);
            }
        }
    };

    const auto remote_loss = [](const std::string &why) {
        WorkerLoss lost;
        lost.kind = WorkerLossKind::Remote;
        lost.why = why;
        return lost;
    };

    const auto add_conn = [&](std::unique_ptr<Transport> link, int slot) {
        Conn c;
        c.link = std::move(link);
        c.slot = slot;
        // Until this peer proves anything it gets the conservative
        // ceiling: a forged length word must not drive a large
        // allocation pre-handshake.
        c.link->setMaxFramePayload(
            std::min(kPreAuthFramePayloadBytes, cfg.maxFrameBytes));
        // This loop is the fabric's only thread: a started frame must
        // finish promptly or be declared dead, or every timer below
        // stops firing. A fleet worker needs no such bound (and saves
        // its polls per frame): it writes every frame with one write()
        // to a socketpair we drain, and its death is EOF.
        if (slot < 0)
            c.link->setReceiveDeadlineMs(kFabricFrameDeadlineMs);
        c.lastSeen = Clock::now();
        c.acceptedAt = c.lastSeen;
        conns.emplace(nextConnId++, std::move(c));
    };
    const auto adopt = [&](unsigned slot) {
        add_conn(std::make_unique<Transport>(fleet->takeLink(slot)),
                 static_cast<int>(slot));
    };

    const auto drop_conn = [&](std::uint64_t id, const std::string &why,
                               bool torn = false) {
        const auto it = conns.find(id);
        if (it == conns.end())
            return;
        Conn &c = it->second;
        const bool was_ready = c.phase == Conn::Phase::Ready;
        const int slot = c.slot;
        const std::string name =
            c.name.empty() ? "conn#" + std::to_string(id) : c.name;
        std::vector<std::size_t> lost_units;
        for (const std::uint64_t lease : table.leasesOf(id)) {
            // An unfinished audit lease re-queues inside the table
            // (its units' primary results are still held); only
            // primary units feed the unit-loss budget.
            const bool is_audit = table.leaseIsAudit(lease);
            const std::vector<std::size_t> units =
                table.revokeLease(lease);
            ++fabricStats.leasesRevoked;
            if (!is_audit)
                lost_units.insert(lost_units.end(), units.begin(),
                                  units.end());
        }
        c.link->close();
        conns.erase(it);
        if (slot >= 0) {
            // A sandboxed worker: the fleet reaps and classifies it and
            // forks the slot's next generation, which we adopt.
            const WorkerLoss lost = fleet->replace(
                static_cast<unsigned>(slot), torn, unit_count);
            adopt(static_cast<unsigned>(slot));
            if (was_ready)
                ++fabricStats.workersLost;
            if (lost_units.empty())
                warn("sandbox: worker " + std::to_string(slot) +
                     " died while idle: " + lost.describe());
            charge_lost(lost_units, lost);
            return;
        }
        if (was_ready) {
            ++fabricStats.workersLost;
            warn("fabric: lost worker '" + name + "' (" + why + "); " +
                 std::to_string(lost_units.size()) +
                 " unit(s) to reassign");
            if (cfg.workerLossBudget) {
                const unsigned losses = ++nameLosses[name];
                if (losses >= cfg.workerLossBudget &&
                    banned.insert(name).second) {
                    warn("fabric: worker '" + name +
                         "' exhausted its loss budget (" +
                         std::to_string(losses) +
                         "); refusing its reconnects");
                }
            }
        }
        charge_lost(lost_units, remote_loss(why));
    };

    // Handshake refusal: the connection never became a worker, so no
    // leases to revoke and no loss budget to charge.
    const auto refuse = [&](std::uint64_t id,
                            const std::string &reason) {
        const auto it = conns.find(id);
        if (it == conns.end())
            return;
        warn("fabric: rejecting worker: " + reason);
        RejectMsg rej;
        rej.reason = reason;
        try {
            it->second.link->send(encodeReject(rej));
        } catch (const FramingError &) {
            // It hung up before hearing the verdict; same outcome.
        }
        it->second.link->close();
        conns.erase(it);
        ++fabricStats.workersRejected;
    };

    /** Quarantine @p name: drop its connections, refuse reconnects,
     * void every unverified result it produced (those units return
     * to the pending queue for honest re-execution). */
    const std::function<void(const std::string &)> convict =
        [&](const std::string &name) {
            if (name.empty() || !quarantined.insert(name).second)
                return;
            fabricStats.byzantine.quarantined.push_back(name);
            warn("fabric: quarantining worker '" + name +
                 "' — Byzantine behavior detected; invalidating its "
                 "unverified results");
            std::vector<std::uint64_t> ids;
            for (const auto &[id, c] : conns) {
                if (c.name == name || c.pendingName == name)
                    ids.push_back(id);
            }
            for (const std::uint64_t id : ids)
                drop_conn(id, "quarantined");
            for (std::size_t u = 0; u < unit_count; ++u) {
                if (unitSource[u] == name && !unitVerified[u] &&
                    table.isDone(u)) {
                    table.reopenUnit(u);
                    unitSource[u].clear();
                    ++fabricStats.byzantine.resultsInvalidated;
                }
            }
            for (auto it = audits.begin(); it != audits.end();) {
                if (it->second.primaryName == name) {
                    table.reopenUnit(it->first);
                    ++fabricStats.byzantine.resultsInvalidated;
                    it = audits.erase(it);
                } else {
                    ++it;
                }
            }
        };

    /** Hand a unit result to the client. A payload the harness
     * rejects (undecodable, seed mismatch) is Byzantine by
     * definition: the unit re-executes and its producer is convicted
     * instead of the whole campaign dying. */
    const auto deliver = [&](std::size_t unit,
                             const std::vector<std::uint8_t> &payload,
                             const std::string &producer) {
        try {
            result(unit, payload);
            unitSource[unit] = producer;
        } catch (const DistError &err) {
            // A fleet's workers are this binary: a rejected result is
            // a harness bug, not Byzantine behaviour to route around.
            if (fleet)
                throw;
            warn("fabric: result for unit " + std::to_string(unit) +
                 (producer.empty() ? std::string()
                                   : " from '" + producer + "'") +
                 " rejected: " + err.what());
            unitVerified[unit] = false;
            unitSource[unit].clear();
            table.reopenUnit(unit);
            convict(producer);
        }
    };

    /** Resolve a queued audit without a second worker: re-execute
     * locally when the client gave us an arbiter, otherwise trust the
     * primary (counted, so the report shows the coverage gap). */
    const auto local_resolve = [&](std::size_t unit) {
        const auto it = audits.find(unit);
        if (it == audits.end()) {
            table.resolveAudit(unit);
            return;
        }
        AuditInfo info = std::move(it->second);
        audits.erase(it);
        table.resolveAudit(unit);
        if (hooks.arbiter) {
            ++fabricStats.byzantine.localArbitrations;
            const std::vector<std::uint8_t> truth =
                hooks.arbiter(unit);
            if (hooks.digest(unit, truth) == info.digest) {
                ++fabricStats.byzantine.auditsPassed;
                unitVerified[unit] = true;
                deliver(unit, info.payload, info.primaryName);
            } else {
                ++fabricStats.byzantine.auditMismatches;
                warn("fabric: local arbitration convicts worker '" +
                     info.primaryName + "' on unit " +
                     std::to_string(unit));
                unitVerified[unit] = true;
                deliver(unit, truth, "");
                convict(info.primaryName);
            }
        } else {
            ++fabricStats.byzantine.auditsSkipped;
            deliver(unit, info.payload, info.primaryName);
        }
    };

    /** Digest mismatch between primary and auditor: someone is lying.
     * A local re-execution is the decisive vote; without one, both
     * parties take a strike and the unit re-executes (two strikes
     * convict — majority over time). */
    const auto arbitrate = [&](std::size_t unit, AuditInfo info,
                               const std::vector<std::uint8_t>
                                   &audit_payload,
                               std::uint64_t audit_digest,
                               const std::string &auditor) {
        ++fabricStats.byzantine.auditMismatches;
        warn("fabric: audit mismatch on unit " + std::to_string(unit) +
             ": primary '" + info.primaryName + "' vs auditor '" +
             auditor + "'");
        if (hooks.arbiter) {
            ++fabricStats.byzantine.localArbitrations;
            const std::vector<std::uint8_t> truth =
                hooks.arbiter(unit);
            const std::uint64_t truth_digest =
                hooks.digest(unit, truth);
            table.resolveAudit(unit);
            if (truth_digest == info.digest) {
                unitVerified[unit] = true;
                deliver(unit, info.payload, info.primaryName);
                convict(auditor);
            } else if (truth_digest == audit_digest) {
                unitVerified[unit] = true;
                deliver(unit, audit_payload, auditor);
                convict(info.primaryName);
            } else {
                // Neither matches the local ground truth: deliver the
                // local result and convict both reporters.
                unitVerified[unit] = true;
                deliver(unit, truth, "");
                convict(info.primaryName);
                convict(auditor);
            }
        } else {
            const unsigned p = ++mismatchCounts[info.primaryName];
            const unsigned a = ++mismatchCounts[auditor];
            table.reopenUnit(unit); // discard both, re-execute
            if (p >= 2)
                convict(info.primaryName);
            if (a >= 2)
                convict(auditor);
        }
    };

    const auto handle_hello =
        [&](std::uint64_t id, const std::vector<std::uint8_t> &payload) {
            const HelloMsg hello = decodeHello(payload);
            if (hello.version != cfg.protocolVersion) {
                refuse(id,
                       "protocol version mismatch: coordinator speaks " +
                           std::to_string(cfg.protocolVersion) +
                           ", worker '" + hello.name + "' speaks " +
                           std::to_string(hello.version));
                return;
            }
            if (banned.count(hello.name)) {
                refuse(id, "worker '" + hello.name +
                               "' exhausted its loss budget");
                return;
            }
            if (quarantined.count(hello.name)) {
                refuse(id, "worker '" + hello.name +
                               "' is quarantined for Byzantine "
                               "behavior");
                return;
            }
            Conn &c = conns.at(id);
            if (!cfg.key.empty()) {
                if (!hello.wantAuth) {
                    ++fabricStats.authFailures;
                    refuse(id, "this fabric requires key "
                               "authentication; worker '" +
                                   hello.name +
                                   "' connected without a key");
                    return;
                }
                c.pendingName = hello.name;
                c.clientNonce = hello.nonce;
                c.serverNonce = randomNonce();
                ChallengeMsg ch;
                ch.nonce = c.serverNonce;
                ch.proof = fabricServerProof(cfg.key, c.clientNonce,
                                             c.serverNonce);
                try {
                    c.link->send(encodeChallenge(ch));
                } catch (const FramingError &err) {
                    drop_conn(id,
                              std::string("challenge send failed: ") +
                                  err.what());
                    return;
                }
                c.phase = Conn::Phase::AwaitProof;
                return;
            }
            if (hello.wantAuth) {
                ++fabricStats.authFailures;
                refuse(id, "worker '" + hello.name +
                               "' requires key authentication but "
                               "this coordinator has no fabric key");
                return;
            }
            c.name = hello.name;
            c.phase = Conn::Phase::Ready;
            c.link->setMaxFramePayload(cfg.maxFrameBytes);
            ++fabricStats.workersConnected;
            WelcomeMsg welcome;
            welcome.spec = spec;
            try {
                c.link->send(encodeWelcome(welcome));
            } catch (const FramingError &err) {
                drop_conn(id, std::string("welcome send failed: ") +
                                  err.what());
            }
        };

    const auto handle_proof =
        [&](std::uint64_t id, const std::vector<std::uint8_t> &payload) {
            const AuthProofMsg proof = decodeAuthProof(payload);
            Conn &c = conns.at(id);
            const auto expect = fabricClientProof(
                cfg.key, c.clientNonce, c.serverNonce, c.pendingName);
            if (!constantTimeEqual(proof.proof.data(), expect.data(),
                                   kFabricProofBytes)) {
                ++fabricStats.authFailures;
                refuse(id, "fabric key proof mismatch for worker '" +
                               c.pendingName +
                               "' (wrong or stale key file?)");
                return;
            }
            c.link->enableFrameAuth(
                fabricSessionKey(cfg.key, c.clientNonce,
                                 c.serverNonce),
                /*is_client=*/false);
            c.link->setMaxFramePayload(cfg.maxFrameBytes);
            c.name = c.pendingName;
            c.phase = Conn::Phase::Ready;
            ++fabricStats.workersConnected;
            WelcomeMsg welcome;
            welcome.spec = spec;
            try {
                c.link->send(encodeWelcome(welcome));
            } catch (const FramingError &err) {
                drop_conn(id, std::string("welcome send failed: ") +
                                  err.what());
            }
        };

    // Fill every handshaken worker to its in-flight bound, units in
    // dispatch order. Audit leases go first (they gate completion and
    // there are few); then fresh work. With no worker available,
    // still resolve the leading units that need no execution (journal
    // replay, tripped breaker) so a fully-replayed campaign finishes
    // without one. A fleet starts once its whole initial generation
    // has handshaken, so the first units go out in slot order
    // whichever worker said Hello first (slot 0 runs unit 0, where the
    // --die-after drill is armed).
    bool fleet_starting = fleet != nullptr;
    std::vector<std::uint64_t> ready_ids;
    const auto grant_leases = [&]() {
        ready_ids.clear();
        for (const auto &[id, c] : conns) {
            if (c.phase == Conn::Phase::Ready)
                ready_ids.push_back(id);
            else if (fleet_starting)
                return;
        }
        fleet_starting = false;
        if (ready_ids.empty()) {
            while (table.pendingCount() > 0) {
                const std::vector<std::size_t> front =
                    table.takePending(1);
                const std::optional<std::vector<std::uint8_t>> req =
                    request(front[0]);
                if (!req) {
                    table.markDone(front[0]);
                    continue;
                }
                table.requeueFront(front);
                break;
            }
        }
        for (const std::uint64_t id : ready_ids) {
            const auto cit = conns.find(id);
            if (cit == conns.end())
                continue; // dropped by an earlier send failure
            const std::string cname = cit->second.name;
            // Audit grants: a unit's auditor must not be its primary.
            while (table.openLeaseCount(id) <
                       cfg.maxInFlightPerWorker &&
                   table.auditQueuedCount() > 0) {
                const std::vector<std::size_t> taken =
                    table.takeAuditPending(
                        cfg.batchSize, [&](std::size_t u) {
                            const auto ait = audits.find(u);
                            return ait != audits.end() &&
                                   ait->second.primaryName != cname;
                        });
                if (taken.empty())
                    break;
                LeaseMsg msg;
                std::vector<std::size_t> granted;
                for (const std::size_t unit : taken) {
                    const std::optional<std::vector<std::uint8_t>>
                        req = request(unit);
                    if (!req) {
                        // The client cannot re-issue the request
                        // (shouldn't happen for an executed unit);
                        // settle the audit locally.
                        local_resolve(unit);
                        continue;
                    }
                    LeaseUnit lu;
                    lu.unitIndex = unit;
                    lu.request = *req;
                    msg.units.push_back(std::move(lu));
                    granted.push_back(unit);
                }
                if (granted.empty())
                    continue;
                const Clock::time_point deadline = cfg.leaseTimeoutMs
                    ? Clock::now() +
                        std::chrono::milliseconds(cfg.leaseTimeoutMs)
                    : Clock::time_point::max();
                msg.leaseId = table.openLease(id, granted, deadline,
                                              /*is_audit=*/true);
                ++fabricStats.leasesGranted;
                try {
                    conns.at(id).link->send(encodeLease(msg));
                } catch (const FramingError &err) {
                    drop_conn(id, std::string("lease send failed: ") +
                                      err.what());
                    break;
                }
            }
            if (conns.find(id) == conns.end())
                continue;
            while (table.openLeaseCount(id) <
                       cfg.maxInFlightPerWorker &&
                   table.pendingCount() > 0) {
                LeaseMsg msg;
                std::vector<std::size_t> granted;
                while (granted.size() < cfg.batchSize &&
                       table.pendingCount() > 0) {
                    const std::size_t unit = table.takePending(1)[0];
                    const std::optional<std::vector<std::uint8_t>>
                        req = request(unit);
                    if (!req) {
                        table.markDone(unit);
                        continue;
                    }
                    LeaseUnit lu;
                    lu.unitIndex = unit;
                    lu.request = *req;
                    msg.units.push_back(std::move(lu));
                    granted.push_back(unit);
                }
                if (granted.empty())
                    break;
                const Clock::time_point deadline = cfg.leaseTimeoutMs
                    ? Clock::now() +
                        std::chrono::milliseconds(cfg.leaseTimeoutMs)
                    : Clock::time_point::max();
                msg.leaseId = table.openLease(id, granted, deadline);
                ++fabricStats.leasesGranted;
                try {
                    conns.at(id).link->send(encodeLease(msg));
                } catch (const FramingError &err) {
                    drop_conn(id, std::string("lease send failed: ") +
                                      err.what());
                    break;
                }
            }
        }
        // Audits no connected worker is eligible to take (every live
        // worker IS the primary — single-worker fleets, or the rest
        // of the fleet died): settle them now rather than stalling
        // the campaign on a grant that can never happen.
        if (table.auditQueuedCount() > 0) {
            std::set<std::string> names;
            for (const auto &[id, c] : conns) {
                if (c.phase == Conn::Phase::Ready)
                    names.insert(c.name);
            }
            const std::vector<std::size_t> stranded =
                table.takeAuditPending(
                    static_cast<std::size_t>(-1), [&](std::size_t u) {
                        const auto ait = audits.find(u);
                        if (ait == audits.end())
                            return true;
                        for (const std::string &n : names) {
                            if (n != ait->second.primaryName)
                                return false; // an auditor exists
                        }
                        return true;
                    });
            for (const std::size_t unit : stranded)
                local_resolve(unit);
        }
    };

    if (fleet) {
        for (unsigned slot = 0; slot < fleet->size(); ++slot)
            adopt(slot);
    }

    Clock::time_point idle_since = Clock::now();
    std::vector<pollfd> pfds;
    std::vector<std::uint64_t> poll_ids;
    while (!table.allDone()) {
        grant_leases();
        if (table.allDone())
            break;

        pfds.clear();
        poll_ids.clear();
        pfds.push_back({listenerFd(), POLLIN, 0});
        poll_ids.push_back(0);
        for (const auto &[id, c] : conns) {
            pfds.push_back({c.link->receiveFd(), POLLIN, 0});
            poll_ids.push_back(id);
        }
        const int rc = ::poll(pfds.data(), pfds.size(), 50);
        if (rc < 0 && errno != EINTR)
            throw DistError(std::string("fabric poll failed: ") +
                            std::strerror(errno));

        if (rc > 0 && (pfds[0].revents & POLLIN)) {
            try {
                Transport base(listener->acceptClient(),
                               "fabric worker link");
                if (cfg.netFault.any()) {
                    NetFaultConfig nf = cfg.netFault;
                    std::uint64_t s =
                        nf.seed ^
                        (0x6a09e667f3bcc909ull * nextConnId);
                    nf.seed = splitMix64(s);
                    add_conn(std::make_unique<FaultyTransport>(
                                 std::move(base), nf),
                             -1);
                } else {
                    add_conn(
                        std::make_unique<Transport>(std::move(base)), -1);
                }
            } catch (const SocketError &err) {
                warn(std::string("fabric: accept failed: ") +
                     err.what());
            }
        }

        for (std::size_t i = 1; rc > 0 && i < pfds.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const std::uint64_t id = poll_ids[i];
            const auto it = conns.find(id);
            if (it == conns.end())
                continue; // dropped earlier this round
            Conn &c = it->second;
            std::vector<std::uint8_t> payload;
            bool got = false;
            try {
                got = c.link->receive(payload);
            } catch (const FramingError &err) {
                drop_conn(id,
                          std::string("framing fault: ") + err.what(),
                          /*torn=*/true);
                continue;
            }
            if (!got) {
                drop_conn(id, "connection closed");
                continue;
            }
            c.lastSeen = Clock::now();
            try {
                const FabricMsg type = peekType(payload);
                if (c.phase == Conn::Phase::AwaitHello) {
                    if (type != FabricMsg::Hello) {
                        drop_conn(id, "message before handshake");
                        continue;
                    }
                    handle_hello(id, payload);
                    continue;
                }
                if (c.phase == Conn::Phase::AwaitProof) {
                    if (type != FabricMsg::AuthProof) {
                        ++fabricStats.authFailures;
                        drop_conn(id, "message before authentication");
                        continue;
                    }
                    handle_proof(id, payload);
                    continue;
                }
                switch (type) {
                  case FabricMsg::Result: {
                    const ResultMsg res = decodeResult(payload);
                    if (res.unitIndex >= unit_count) {
                        drop_conn(id, "result for out-of-range unit");
                        break;
                    }
                    // convict()/deliver() below can drop this very
                    // connection; the reference dies with it.
                    const std::string worker_name = c.name;
                    switch (table.completeUnit(res.leaseId,
                                               res.unitIndex)) {
                      case LeaseResult::Accepted:
                        if (sampled(res.unitIndex)) {
                            AuditInfo info;
                            info.payload = res.response;
                            info.digest = hooks.digest(res.unitIndex,
                                                       res.response);
                            info.primaryName = worker_name;
                            audits.emplace(res.unitIndex,
                                           std::move(info));
                            table.requireAudit(res.unitIndex);
                            ++fabricStats.byzantine.auditsScheduled;
                        } else {
                            deliver(res.unitIndex, res.response,
                                    worker_name);
                        }
                        break;
                      case LeaseResult::AcceptedAudit: {
                        const auto ait = audits.find(res.unitIndex);
                        if (ait == audits.end()) {
                            table.resolveAudit(res.unitIndex);
                            break;
                        }
                        const std::uint64_t audit_digest =
                            hooks.digest(res.unitIndex, res.response);
                        AuditInfo info = std::move(ait->second);
                        audits.erase(ait);
                        if (audit_digest == info.digest) {
                            ++fabricStats.byzantine.auditsPassed;
                            table.resolveAudit(res.unitIndex);
                            unitVerified[res.unitIndex] = true;
                            deliver(res.unitIndex, info.payload,
                                    info.primaryName);
                        } else {
                            arbitrate(res.unitIndex, std::move(info),
                                      res.response, audit_digest,
                                      worker_name);
                        }
                        break;
                      }
                      case LeaseResult::Duplicate:
                      case LeaseResult::Unknown:
                        // A revoked lease's owner limping in late;
                        // the reassignment owns the unit now.
                        ++fabricStats.duplicateResults;
                        break;
                    }
                    break;
                  }
                  case FabricMsg::Heartbeat:
                    ++fabricStats.heartbeats;
                    break;
                  default:
                    drop_conn(id, "unexpected message type");
                    break;
                }
            } catch (const DistError &err) {
                drop_conn(id, err.what());
            }
        }

        const Clock::time_point now = Clock::now();
        if (cfg.handshakeTimeoutMs) {
            std::vector<std::uint64_t> stale;
            for (const auto &[id, c] : conns) {
                if (c.phase != Conn::Phase::Ready &&
                    now - c.acceptedAt >
                        std::chrono::milliseconds(
                            cfg.handshakeTimeoutMs))
                    stale.push_back(id);
            }
            for (const std::uint64_t id : stale) {
                ++fabricStats.handshakeTimeouts;
                drop_conn(id, "handshake timeout");
            }
        }
        if (cfg.heartbeatTimeoutMs) {
            std::vector<std::uint64_t> silent;
            for (const auto &[id, c] : conns) {
                if (now - c.lastSeen >
                    std::chrono::milliseconds(cfg.heartbeatTimeoutMs))
                    silent.push_back(id);
            }
            for (const std::uint64_t id : silent)
                drop_conn(id, "heartbeat timeout");
        }
        if (cfg.leaseTimeoutMs) {
            for (const std::uint64_t lease : table.expired(now)) {
                const auto owner = conns.find(table.leaseOwner(lease));
                if (owner == conns.end())
                    continue; // revoked earlier in this sweep
                if (owner->second.slot >= 0) {
                    // A sandboxed worker past the hard deadline ignored
                    // its own watchdog: SIGKILL it; the loss is
                    // HardKill.
                    warn("sandbox: worker " +
                         std::to_string(owner->second.slot) +
                         " blew the hard deadline; SIGKILLing it");
                    fleet->hardKill(
                        static_cast<unsigned>(owner->second.slot));
                    drop_conn(owner->first, "hard deadline");
                    continue;
                }
                const bool is_audit = table.leaseIsAudit(lease);
                const std::vector<std::size_t> units =
                    table.revokeLease(lease);
                ++fabricStats.leasesRevoked;
                warn("fabric: lease " + std::to_string(lease) +
                     " expired; reassigning " +
                     std::to_string(units.size()) + " unit(s)");
                if (!is_audit)
                    charge_lost(units, remote_loss("lease timeout"));
            }
        }
        if (!conns.empty()) {
            idle_since = now;
        } else if (cfg.stallTimeoutMs &&
                   now - idle_since >
                       std::chrono::milliseconds(cfg.stallTimeoutMs)) {
            throw DistError(
                "fabric: " + std::to_string(table.pendingCount()) +
                " unit(s) pending but no worker has been connected "
                "for " +
                std::to_string(cfg.stallTimeoutMs) + "ms; giving up");
        }
    }

    for (auto &[id, c] : conns) {
        if (c.phase == Conn::Phase::Ready) {
            try {
                c.link->send(encodeDone());
            } catch (const FramingError &) {
                // It died after its last unit; nothing left to say.
            }
        }
        c.link->close();
    }
    conns.clear();

    if (!listener)
        return;
    // A campaign can resolve before late workers are ever accepted —
    // a fully journal-replayed resume finishes without executing a
    // single unit, and a small remainder can drain while a worker is
    // still connecting. Those connections sit in the accept backlog
    // waiting for a Welcome that will never come, while our caller
    // waits on the workers: a deadlock. Answer each queued connection
    // with Done, then close the listener so anything later is refused
    // outright instead of queued unanswered.
    for (int drained = 0; drained < 64; ++drained) {
        pollfd pfd{listener->fd(), POLLIN, 0};
        if (::poll(&pfd, 1, 0) <= 0 || !(pfd.revents & POLLIN))
            break;
        try {
            Transport late(listener->acceptClient(),
                           "fabric late worker link");
            late.setReceiveDeadlineMs(kFabricFrameDeadlineMs);
            try {
                late.send(encodeDone());
            } catch (const FramingError &) {
                // It hung up first; the close below says the same.
            }
            late.close();
        } catch (const SocketError &) {
            break;
        }
    }
    listener->close();
}

} // namespace mtc
