#include "dist/fleet.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <new>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "dist/protocol.h"
#include "dist/worker_client.h"
#include "support/process.h"

namespace mtc
{

namespace
{

const char *
lossSignalName(int sig)
{
    switch (sig) {
      case SIGSEGV:
        return "SIGSEGV";
      case SIGABRT:
        return "SIGABRT";
      case SIGBUS:
        return "SIGBUS";
      case SIGFPE:
        return "SIGFPE";
      case SIGILL:
        return "SIGILL";
      case SIGKILL:
        return "SIGKILL";
      case SIGXCPU:
        return "SIGXCPU";
      default:
        return "?";
    }
}

void
closeFd(int &fd)
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

std::string
drainCrashNote(int fd)
{
    std::string note;
    char buf[512];
    for (;;) {
        // Nonblocking fd: EAGAIN (n < 0) means drained. readEintr
        // keeps a signal delivered mid-drain from truncating the note.
        const ssize_t n = readEintr(fd, buf, sizeof(buf));
        if (n <= 0)
            break;
        note.append(buf, static_cast<std::size_t>(n));
    }
    // One-line report: trim the trailing newline(s).
    while (!note.empty() && (note.back() == '\n' || note.back() == '\r'))
        note.pop_back();
    return note;
}

/** Wait up to @p ms for @p pid to exit without reaping it (a pidfd
 * turns readable at exit); false on timeout. Without pidfds the
 * caller's blocking waitpid is the wait. */
bool
awaitExit(pid_t pid, int ms)
{
#ifdef SYS_pidfd_open
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (pidfd >= 0) {
        pollfd pfd{pidfd, POLLIN, 0};
        int rc;
        do {
            rc = ::poll(&pfd, 1, ms);
        } while (rc < 0 && errno == EINTR);
        ::close(pidfd);
        return rc != 0;
    }
#endif
    (void)pid;
    (void)ms;
    return true;
}

} // anonymous namespace

std::string
WorkerLoss::describe() const
{
    std::string text;
    switch (kind) {
      case WorkerLossKind::Crash:
        text = "worker killed by signal " + std::to_string(signal) +
            " (" + lossSignalName(signal) + ")";
        if (signal == SIGKILL)
            text += " — CPU hard limit or external OOM kill";
        break;
      case WorkerLossKind::CpuBudget:
        text = "worker exceeded its CPU budget (SIGXCPU)";
        break;
      case WorkerLossKind::OomBudget:
        text = "worker exhausted its memory budget "
               "(allocation failure)";
        break;
      case WorkerLossKind::ExitCode:
        text = "worker exited with code " + std::to_string(exitCode);
        break;
      case WorkerLossKind::HardKill:
        text = "worker SIGKILLed by the sandbox hard deadline "
               "(non-cooperative hang)";
        break;
      case WorkerLossKind::Protocol:
        text = "worker response stream violated framing";
        break;
      case WorkerLossKind::Remote:
        text = why;
        break;
    }
    if (!crashNote.empty())
        text += "; report: " + crashNote;
    return text;
}

WorkerFleet::WorkerFleet(FleetConfig cfg_arg, UnitFn unit)
    : cfg(cfg_arg), unitFn(std::move(unit))
{
    slots.resize(cfg.workers ? cfg.workers : 1);
    for (unsigned i = 0; i < slots.size(); ++i)
        spawn(i, 0);
}

WorkerFleet::WorkerFleet(unsigned workers, int listener_fd,
                         ClientFn client)
    : clientFn(std::move(client)), listenerFd(listener_fd)
{
    slots.resize(workers);
    for (unsigned i = 0; i < slots.size(); ++i)
        spawn(i, 0);
}

WorkerFleet::~WorkerFleet()
{
    // A channel nobody adopted (the coordinator never ran) is the
    // shutdown signal its child still waits for.
    for (Slot &s : slots)
        s.link.close();
    const auto grace_end = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(2000);
    for (Slot &s : slots) {
        if (s.pid >= 0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    grace_end - std::chrono::steady_clock::now())
                    .count();
            if (!awaitExit(s.pid, left > 0 ? static_cast<int>(left) : 0))
                ::kill(s.pid, SIGKILL);
            try {
                waitChild(s.pid);
            } catch (const ProcessError &) {
                // Already reaped; nothing left to wait for.
            }
        }
        closeFd(s.crashFd);
    }
}

void
WorkerFleet::spawn(unsigned index, unsigned generation)
{
    Slot &slot = slots[index];
    int channel[2] = {-1, -1};
    int crash[2] = {-1, -1};
    if (sandboxed() &&
        (::socketpair(AF_UNIX, SOCK_STREAM, 0, channel) != 0 ||
         ::pipe(crash) != 0)) {
        const std::string err = std::strerror(errno);
        closeFd(channel[0]);
        closeFd(channel[1]);
        throw DistError("worker fleet: channel setup failed: " + err);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        const std::string err = std::strerror(errno);
        for (int *fd : {&channel[0], &channel[1], &crash[0], &crash[1]})
            closeFd(*fd);
        throw DistError("worker fork failed: " + err);
    }
    if (pid == 0) {
        // --- worker child ---
#ifdef __linux__
        // Die with the parent: a SIGKILLed campaign must not leave an
        // orphan fleet burning CPU or spinning in reconnect backoff
        // (the ci.sh kill-and-resume smokes do exactly that to it).
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() == 1)
            ::_exit(kWorkerExitInternal); // parent raced away already
#endif
        // The journal flock must die with the parent, not with the
        // slowest child the PDEATHSIG reaches.
        closeParentOnlyFds();
        if (listenerFd >= 0)
            ::close(listenerFd);
        // A sibling holding a copy of worker X's channel would keep X
        // from ever seeing EOF, and the coordinator from seeing X die.
        for (unsigned i = 0; i < slots.size(); ++i) {
            if (i == index)
                continue;
            if (slots[i].channelFd >= 0)
                ::close(slots[i].channelFd);
            if (slots[i].crashFd >= 0)
                ::close(slots[i].crashFd);
        }
        // Every path below ends in _exit with the channel still open:
        // the parent must not see EOF before the exit status is set,
        // or its reaping SIGKILL could beat the status it classifies.
        Transport link;
        try {
            if (!sandboxed()) {
                clientFn(index);
                ::_exit(0);
            }
            ::close(channel[0]);
            ::close(crash[0]);
            link = Transport(channel[1], "sandbox worker link");
            // EPIPE on a vanished parent, not death by SIGPIPE.
            ::signal(SIGPIPE, SIG_IGN);
            installCrashReporter(crash[1]);
            applySandboxLimits(cfg.memLimitMb, cfg.cpuLimitS);
            const WorkerSlot self{index, generation};
            WorkerClientConfig session;
            session.name = "sandbox-" + std::to_string(index);
            // EOF and the hard deadline are the parent's liveness
            // signals; the worker starts no thread of its own.
            session.heartbeatMs = 0;
            WorkerRunStats stats;
            std::string anomaly;
            serveWorkerSession(
                link, session, [](const std::vector<std::uint8_t> &) {},
                [&](std::uint64_t,
                    const std::vector<std::uint8_t> &request) {
                    return unitFn(request, self);
                },
                stats, anomaly);
        } catch (const std::bad_alloc &) {
            ::_exit(kWorkerExitOom);
        } catch (...) {
            ::_exit(kWorkerExitInternal);
        }
        ::_exit(0);
    }
    // --- parent ---
    slot.pid = pid;
    slot.generation = generation;
    slot.hardKilled = false;
    if (sandboxed()) {
        ::close(channel[1]);
        ::close(crash[1]);
        slot.channelFd = channel[0];
        slot.link = Transport(channel[0],
                              "sandbox worker " + std::to_string(index));
        slot.crashFd = crash[0];
        const int flags = ::fcntl(slot.crashFd, F_GETFL, 0);
        if (flags >= 0)
            ::fcntl(slot.crashFd, F_SETFL, flags | O_NONBLOCK);
    }
}

Transport
WorkerFleet::takeLink(unsigned index)
{
    return std::move(slots[index].link);
}

void
WorkerFleet::hardKill(unsigned index)
{
    slots[index].hardKilled = true;
    ::kill(slots[index].pid, SIGKILL);
}

void
WorkerFleet::kill()
{
    for (const Slot &s : slots) {
        if (s.pid >= 0)
            ::kill(s.pid, SIGKILL);
    }
}

WorkerLoss
WorkerFleet::replace(unsigned index, bool torn, std::size_t units)
{
    Slot &s = slots[index];
    // If the child is somehow still alive with a poisoned stream (a
    // live writer breaking the protocol), make it dead so waitpid
    // terminates. A SIGKILL to an already-exited child is harmless:
    // the zombie keeps its original exit status.
    ::kill(s.pid, SIGKILL);
    ChildExit status;
    try {
        status = waitChild(s.pid);
    } catch (const ProcessError &) {
        // Unreapable (should not happen); report what we know.
    }
    s.pid = -1;

    WorkerLoss loss;
    loss.crashNote = drainCrashNote(s.crashFd);
    closeFd(s.crashFd);
    if (s.hardKilled) {
        loss.kind = WorkerLossKind::HardKill;
        loss.signal = SIGKILL;
    } else if (status.signaled) {
        loss.signal = status.signal;
        loss.kind = status.signal == SIGXCPU ? WorkerLossKind::CpuBudget
                                             : WorkerLossKind::Crash;
    } else if (status.exitCode == kWorkerExitOom) {
        loss.kind = WorkerLossKind::OomBudget;
        loss.exitCode = status.exitCode;
    } else if (status.exitCode != 0 &&
               !(torn && status.exitCode == kWorkerExitInternal)) {
        loss.kind = WorkerLossKind::ExitCode;
        loss.exitCode = status.exitCode;
    } else {
        // Clean exit mid-unit, or a stream that tore: either way the
        // protocol was violated.
        loss.kind = WorkerLossKind::Protocol;
    }

    if (++respawnCount > 2 * units + 4 * slots.size()) {
        throw DistError(
            "sandbox: worker fleet is dying faster than it completes "
            "units (" +
            std::to_string(respawnCount) +
            " respawns); aborting instead of thrashing");
    }
    spawn(index, s.generation + 1);
    return loss;
}

} // namespace mtc
