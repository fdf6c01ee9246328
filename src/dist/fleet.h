/**
 * @file
 * Local worker fleet: the one launcher that forks every worker process
 * a campaign runs on this host.
 *
 * The in-process engine contains *simulated* failures, but a real
 * SIGSEGV, std::bad_alloc or runaway allocation inside an executor
 * takes the whole campaign down with it. Post-silicon harnesses cannot
 * afford that: the device under test genuinely wedges and kills its
 * harness (the paper's bug-injected platforms deadlock for real). So
 * out-of-process campaigns fork their workers here, in one of two
 * shapes that share the fork path:
 *
 *  - a sandboxed fleet: each slot is a child serving one keyless
 *    fabric session (src/dist/worker_client.h) over a socketpair, with
 *    a crash-report pipe and rlimits. A Coordinator built on the fleet
 *    adopts every slot's channel instead of listening on a port. When
 *    a slot's channel drops, replace() reaps the child, classifies the
 *    loss from its exit status (WorkerLoss) and forks the slot's next
 *    generation, which the coordinator adopts in turn;
 *  - a loopback fleet: children that connect to the coordinator's TCP
 *    listener on their own (distributed mode, whose chaos drills
 *    reconnect). They are reaped at shutdown, never respawned.
 *
 * Every child, of either shape: dies with its parent (PDEATHSIG), drops
 * the parent-only descriptors (the journal flock) and its siblings'
 * parent-side channels, closes the listener, and maps an escaping
 * std::bad_alloc to kWorkerExitOom.
 *
 * The fleet is payload-agnostic: a sandboxed slot maps request bytes
 * to response bytes, and campaign semantics stay in the caller.
 *
 * Fork-before-threads: construct the fleet, and let the coordinator
 * respawn slots, only while the calling process is single-threaded.
 * fork() copies just the calling thread, so a watchdog or pool thread
 * in the parent would leave every child with a lock nobody releases.
 */

#ifndef MTC_DIST_FLEET_H
#define MTC_DIST_FLEET_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "support/transport.h"

namespace mtc
{

/** Why a unit lost its worker. */
enum class WorkerLossKind : std::uint8_t
{
    Crash,     ///< fatal signal (SIGSEGV, SIGABRT, ...)
    CpuBudget, ///< SIGXCPU: RLIMIT_CPU soft limit hit
    OomBudget, ///< allocation failure under the memory budget
    ExitCode,  ///< worker exited with a nonzero status
    HardKill,  ///< parent SIGKILLed a wedged worker at the deadline
    Protocol,  ///< the worker's stream violated framing
    Remote     ///< a TCP worker's session or lease was lost (`why`)
};

/** One worker loss, classified for the loss callback. */
struct WorkerLoss
{
    WorkerLossKind kind = WorkerLossKind::Crash;
    int signal = 0;   ///< terminating signal for Crash
    int exitCode = 0; ///< status for ExitCode

    /** One-line crash report the dying worker managed to emit from
     * its fatal-signal handler (signal, unit id, seed); empty when it
     * died without reporting (SIGKILL, rlimit hard cap). */
    std::string crashNote;

    /** What the coordinator saw of a Remote loss ("connection
     * closed", "lease timeout", ...). */
    std::string why;

    std::string describe() const;

    /** describe(), for loss callbacks that only log or record the
     * reason as text. */
    operator std::string() const { return describe(); }
};

/** Knobs of a sandboxed fleet. */
struct FleetConfig
{
    /** Worker slots forked up front. */
    unsigned workers = 1;

    /** Per-child RLIMIT_AS budget in MB; 0 = unlimited. Ignored (with
     * a warning) in sanitizer builds; see applySandboxLimits(). */
    std::uint64_t memLimitMb = 0;

    /** Per-child RLIMIT_CPU budget in seconds; 0 = unlimited. */
    std::uint64_t cpuLimitS = 0;
};

/** Identity of a forked worker, so callers can scope drills (arm
 * --die-after only in the initial fleet's first slot). */
struct WorkerSlot
{
    unsigned index = 0;

    /** 0 in the initial fleet; incremented per respawn of the slot. */
    unsigned generation = 0;
};

/** See file comment. */
class WorkerFleet
{
  public:
    /** Executes one request in a sandboxed child; its return value is
     * the response payload. */
    using UnitFn = std::function<std::vector<std::uint8_t>(
        const std::vector<std::uint8_t> &request, const WorkerSlot &slot)>;

    /** Body of a loopback child: serve the coordinator until Done. */
    using ClientFn = std::function<void(unsigned index)>;

    /** Fork a sandboxed fleet of cfg.workers slots running @p unit.
     * @throws DistError if a worker cannot be forked. */
    WorkerFleet(FleetConfig cfg, UnitFn unit);

    /** Fork @p workers loopback children running @p client; each
     * closes @p listener_fd first (an inherited copy would keep the
     * listener alive after the coordinator closes it, so a late
     * worker's connect would queue unanswered instead of being
     * refused). @throws DistError if a worker cannot be forked. */
    WorkerFleet(unsigned workers, int listener_fd, ClientFn client);

    /** Reap the fleet: close any channel nobody adopted, wait for
     * every child to exit (they do on Done or EOF), and SIGKILL only
     * those still alive after a grace period. */
    ~WorkerFleet();

    WorkerFleet(const WorkerFleet &) = delete;
    WorkerFleet &operator=(const WorkerFleet &) = delete;

    unsigned size() const { return static_cast<unsigned>(slots.size()); }

    /** The parent end of sandboxed slot @p index's channel; the
     * caller owns it from here on. */
    Transport takeLink(unsigned index);

    /** SIGKILL sandboxed slot @p index (a non-cooperative hang past
     * the hard deadline); its replace() reports HardKill. */
    void hardKill(unsigned index);

    /**
     * Reap sandboxed slot @p index after its channel dropped (SIGKILL
     * first, in case a live child broke the protocol), classify the
     * loss from its exit status and crash report, and fork the slot's
     * next generation; takeLink() then yields the new channel. @p torn
     * says the stream broke mid-frame.
     *
     * @throws DistError once the fleet has respawned more than
     *         2 x @p units + 4 x size() times: it is dying faster than
     *         it completes units.
     */
    WorkerLoss replace(unsigned index, bool torn, std::size_t units);

    /** SIGKILL every child now (a campaign that is unwinding). */
    void kill();

    /** Children respawned over the fleet's lifetime. */
    unsigned respawns() const { return respawnCount; }

  private:
    struct Slot
    {
        pid_t pid = -1;
        unsigned generation = 0;
        int channelFd = -1; ///< parent end, closed in later siblings
        Transport link;     ///< owns channelFd until takeLink()
        int crashFd = -1;   ///< parent reads crash reports (nonblocking)
        bool hardKilled = false;
    };

    bool sandboxed() const { return bool(unitFn); }
    void spawn(unsigned index, unsigned generation);

    FleetConfig cfg;
    UnitFn unitFn;
    ClientFn clientFn;
    int listenerFd = -1;
    std::vector<Slot> slots;
    unsigned respawnCount = 0;
};

} // namespace mtc

#endif // MTC_DIST_FLEET_H
