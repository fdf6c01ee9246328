/**
 * @file
 * POSIX process plumbing for forked workers.
 *
 * Everything here is harness-agnostic: child exit status, per-child
 * resource budgets, the parent-only descriptor registry, and the
 * async-signal-safe crash reporter a sandboxed worker installs so a
 * real SIGSEGV still produces a one-line report (signal, unit, seed)
 * on a pipe the parent can read. The launcher that uses these lives
 * in src/dist/fleet.h.
 */

#ifndef MTC_SUPPORT_PROCESS_H
#define MTC_SUPPORT_PROCESS_H

#include <cstdint>
#include <string>

#include <sys/types.h>

#include "support/error.h"

namespace mtc
{

/** A failed process-layer call (waitpid, setrlimit, a full registry). */
class ProcessError : public Error
{
  public:
    explicit ProcessError(const std::string &what_arg) : Error(what_arg)
    {}
};

/** Worker exit sentinel: allocation failure under the memory budget
 * (std::bad_alloc escaped the unit). */
constexpr int kWorkerExitOom = 97;

/** Worker exit sentinel: unclassified internal error (a non-OOM
 * exception escaped the worker loop, or its stream tore). */
constexpr int kWorkerExitInternal = 98;

/** How a reaped child terminated. */
struct ChildExit
{
    bool signaled = false;
    int signal = 0;   ///< terminating signal when signaled
    int exitCode = 0; ///< exit status when not signaled
};

/**
 * read(2), retrying EINTR. Returns read's result: bytes read, 0 on
 * EOF, or -1 with errno set for any failure other than EINTR. Every
 * blocking read in the harness goes through this (or the framing
 * layer, which uses it): a signal delivered mid-I/O — a watchdog
 * alarm, a profiler tick, a shell-forwarded SIGWINCH — must never be
 * misread as an I/O failure.
 */
ssize_t readEintr(int fd, void *buf, std::size_t len);

/** write(2), retrying EINTR; see readEintr(). May still return a
 * short count — callers loop for full writes. */
ssize_t writeEintr(int fd, const void *buf, std::size_t len);

/**
 * Register @p fd as parent-only: every worker child forked after this
 * closes its inherited copy first thing (closeParentOnlyFds()). For
 * descriptors whose kernel-side state must die with the parent — the
 * campaign journal's advisory flock lives on the open-file
 * description, so a forked worker's inherited copy keeps the journal
 * "locked by another campaign" for as long as the worker lives, even
 * after the parent was SIGKILLed and a resume is trying to take over.
 * Bounded registry; @throws ProcessError when full.
 */
void registerParentOnlyFd(int fd);

/** Remove @p fd from the parent-only registry (call before closing
 * it); unknown fds are ignored. */
void unregisterParentOnlyFd(int fd);

/** Close every registered parent-only fd in the calling process.
 * Called by worker children immediately after fork; uses only close()
 * on a lock-free table, so it is safe in the post-fork child of a
 * multithreaded parent. */
void closeParentOnlyFds();

/** Blocking waitpid for @p pid. @throws ProcessError on failure. */
ChildExit waitChild(pid_t pid);

/**
 * Apply the sandbox resource budgets to the calling process (a worker
 * child, post-fork). @p mem_mb caps RLIMIT_AS so a runaway allocation
 * fails with std::bad_alloc instead of an OOM kill; under a sanitizer
 * build (MTC_SANITIZE) the address-space cap is skipped, because ASan
 * reserves terabytes of shadow mappings that an AS limit would break.
 * @p cpu_s caps RLIMIT_CPU (soft = N, hard = N + 2) so a spinning
 * child dies with SIGXCPU the parent can classify. Zero disables the
 * respective budget.
 */
void applySandboxLimits(std::uint64_t mem_mb, std::uint64_t cpu_s);

/** True when the binary was built with MTC_SANITIZE (the address-
 * space budget is then a warn-and-ignore no-op). */
bool sandboxMemLimitSupported();

/**
 * Install fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
 * SIGILL) that write a one-line crash report to @p report_fd using
 * only async-signal-safe calls, then re-raise with the default
 * disposition so the parent still observes the real signal.
 */
void installCrashReporter(int report_fd);

/** Label the unit the calling worker is about to run; the crash
 * reporter includes it (with @p seed) in the report line. Copies into
 * static storage — async-signal-safe to read at crash time. */
void setCrashContext(const std::string &unit, std::uint64_t seed);

/** Clear the crash context (unit finished cleanly). */
void clearCrashContext();

/**
 * Allocation-bomb drill: retain and touch heap chunks until operator
 * new fails. Self-capped (512 MB) so that even without an RLIMIT_AS
 * budget — e.g. under ASan — it terminates by throwing.
 *
 * @throws std::bad_alloc always (either from new or the cap).
 */
void allocationBomb();

} // namespace mtc

#endif // MTC_SUPPORT_PROCESS_H
