#include "support/process.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/log.h"

namespace mtc
{

ssize_t
readEintr(int fd, void *buf, std::size_t len)
{
    for (;;) {
        const ssize_t n = ::read(fd, buf, len);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

ssize_t
writeEintr(int fd, const void *buf, std::size_t len)
{
    for (;;) {
        const ssize_t n = ::write(fd, buf, len);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

namespace
{

ChildExit
classifyStatus(int status)
{
    ChildExit e;
    if (WIFSIGNALED(status)) {
        e.signaled = true;
        e.signal = WTERMSIG(status);
    } else if (WIFEXITED(status)) {
        e.exitCode = WEXITSTATUS(status);
    }
    return e;
}

/** Parent-only fd table, stored as fd+1 so the zero-initialized
 * static state means "empty slot". Lock-free (CAS per slot) because
 * the post-fork child of a multithreaded parent must be able to walk
 * it without taking a mutex some other thread held at fork time. */
constexpr std::size_t kMaxParentOnlyFds = 16;
std::atomic<int> parentOnlyFdsPlus1[kMaxParentOnlyFds];

} // anonymous namespace

void
registerParentOnlyFd(int fd)
{
    if (fd < 0)
        return;
    for (auto &slot : parentOnlyFdsPlus1) {
        int expect = 0;
        if (slot.compare_exchange_strong(expect, fd + 1))
            return;
    }
    throw ProcessError("parent-only fd registry full");
}

void
unregisterParentOnlyFd(int fd)
{
    if (fd < 0)
        return;
    for (auto &slot : parentOnlyFdsPlus1) {
        int expect = fd + 1;
        if (slot.compare_exchange_strong(expect, 0))
            return;
    }
}

void
closeParentOnlyFds()
{
    for (auto &slot : parentOnlyFdsPlus1) {
        const int plus1 = slot.load(std::memory_order_relaxed);
        if (plus1 > 0)
            ::close(plus1 - 1);
    }
}

ChildExit
waitChild(pid_t pid)
{
    int status = 0;
    for (;;) {
        if (::waitpid(pid, &status, 0) >= 0)
            break;
        if (errno == EINTR)
            continue;
        throw ProcessError("waitpid failed: " +
                           std::string(std::strerror(errno)));
    }
    return classifyStatus(status);
}

bool
sandboxMemLimitSupported()
{
#ifdef MTC_SANITIZE_BUILD
    return false;
#else
    return true;
#endif
}

void
applySandboxLimits(std::uint64_t mem_mb, std::uint64_t cpu_s)
{
    if (mem_mb) {
        if (!sandboxMemLimitSupported()) {
            warn("sandbox: address-space budget ignored: sanitizer "
                 "builds need unlimited shadow mappings");
        } else {
            struct rlimit lim;
            lim.rlim_cur = static_cast<rlim_t>(mem_mb) << 20;
            lim.rlim_max = lim.rlim_cur;
            if (::setrlimit(RLIMIT_AS, &lim) != 0) {
                throw ProcessError(
                    "setrlimit(RLIMIT_AS) failed: " +
                    std::string(std::strerror(errno)));
            }
        }
    }
    if (cpu_s) {
        // Hard limit two seconds above soft: SIGXCPU at the soft
        // limit is catchable/ignorable in principle, SIGKILL at the
        // hard limit is the backstop.
        struct rlimit lim;
        lim.rlim_cur = static_cast<rlim_t>(cpu_s);
        lim.rlim_max = static_cast<rlim_t>(cpu_s) + 2;
        if (::setrlimit(RLIMIT_CPU, &lim) != 0) {
            throw ProcessError("setrlimit(RLIMIT_CPU) failed: " +
                               std::string(std::strerror(errno)));
        }
    }
}

namespace
{

int g_report_fd = -1;
char g_crash_unit[128] = "?";
std::uint64_t g_crash_seed = 0;

const char *
signalName(int sig)
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
      case SIGXCPU:
        return "SIGXCPU";
      case SIGKILL:
        return "SIGKILL";
      default:
        return "signal";
    }
}

extern "C" void
crashReportHandler(int sig)
{
    // Async-signal-safe only: EmergencyLine formats into a stack
    // buffer and emits with a single write(2).
    EmergencyLine line;
    line.text("crash signal=")
        .num(static_cast<unsigned long long>(sig))
        .text(" (")
        .text(signalName(sig))
        .text(") unit=")
        .text(g_crash_unit)
        .text(" seed=")
        .hex(g_crash_seed);
    if (g_report_fd >= 0)
        line.writeTo(g_report_fd);
    emergencyLog(line.cstr());

    // Re-raise with the default disposition so the parent's waitpid
    // sees the genuine termination signal, core pattern intact.
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

} // anonymous namespace

void
installCrashReporter(int report_fd)
{
    g_report_fd = report_fd;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crashReportHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_NODEFER;
    const int signals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
    for (const int sig : signals)
        ::sigaction(sig, &sa, nullptr);
}

void
setCrashContext(const std::string &unit, std::uint64_t seed)
{
    const std::size_t n =
        std::min(unit.size(), sizeof(g_crash_unit) - 1);
    std::memcpy(g_crash_unit, unit.data(), n);
    g_crash_unit[n] = '\0';
    g_crash_seed = seed;
}

void
clearCrashContext()
{
    g_crash_unit[0] = '?';
    g_crash_unit[1] = '\0';
    g_crash_seed = 0;
}

void
allocationBomb()
{
    // Touch one byte per page so the pages are actually committed and
    // an RLIMIT_AS budget (or, failing that, the self-cap) trips.
    constexpr std::size_t kChunkBytes = 16u << 20;
    constexpr std::size_t kMaxChunks = 32; // 512 MB self-cap
    std::vector<std::unique_ptr<char[]>> hoard;
    hoard.reserve(kMaxChunks);
    for (std::size_t i = 0; i < kMaxChunks; ++i) {
        hoard.emplace_back(new char[kChunkBytes]);
        char *chunk = hoard.back().get();
        for (std::size_t off = 0; off < kChunkBytes; off += 4096)
            chunk[off] = static_cast<char>(off);
    }
    throw std::bad_alloc();
}

} // namespace mtc
