/**
 * @file
 * Configuration of the multicore platform substitute.
 *
 * The paper validates real silicon; we validate a simulated platform
 * whose non-determinism has the same knobs. Two scheduling policies are
 * provided:
 *
 *  - UniformRandom: every model-eligible memory operation is equally
 *    likely to perform next. This matches the paper's "in-house
 *    architectural simulator, which selects memory operations to
 *    execute in a uniformly random fashion" (Section 4.1, used for the
 *    k-medoids limit study) and is the workhorse for checker unit
 *    tests.
 *
 *  - Timed: a latency-driven model with per-core issue slots, private
 *    cache line states (MESI-lite), coherence-transfer latencies with
 *    random jitter, capacity evictions, and optional OS preemption
 *    noise. Silicon-like behaviour: interleavings are mostly
 *    repeatable, diversify under contention (more threads, fewer
 *    locations, false sharing), and the relative diversity across test
 *    configurations follows the paper's Figure 8.
 *
 * Bug-injection hooks reproduce the paper's Section 7 case studies.
 */

#ifndef MTC_SIM_EXECUTOR_CONFIG_H
#define MTC_SIM_EXECUTOR_CONFIG_H

#include <cstdint>

#include "mcm/memory_model.h"

namespace mtc
{

/** How the executor picks the next operation to perform. */
enum class SchedulingPolicy : std::uint8_t
{
    UniformRandom,
    Timed,
};

/** Injected design bugs (paper Section 7). */
enum class BugKind : std::uint8_t
{
    None,

    /**
     * Bug 1: load->load violation, protocol issue (Peekaboo variant).
     * A load is served a stale value when its line is invalidated while
     * transitioning from shared to modified (an own store to the same
     * line is in flight).
     */
    StaleLoadOnUpgrade,

    /**
     * Bug 2: load->load violation, LSQ issue. The LSQ fails to squash
     * a load when its line is invalidated between issue and
     * completion, regardless of transition state (easier to hit than
     * bug 1, matching the paper's detection counts).
     */
    LsqNoSquash,

    /**
     * Bug 3: PUTX/GETX race. A dirty-ownership transfer request that
     * races with the owner's concurrent writeback eviction is lost,
     * deadlocking the requester (the paper reports gem5 crashing on
     * all tests).
     */
    PutxGetxRace,
};

/** Latency model of the Timed policy, in arbitrary cycles. */
struct TimingParams
{
    std::uint64_t hitLatency = 2;        ///< L1 hit
    std::uint64_t missLatency = 40;      ///< fill from next level
    std::uint64_t transferLatency = 60;  ///< dirty transfer, other core
    std::uint64_t upgradeLatency = 30;   ///< invalidate sharers
    std::uint64_t jitterMax = 3;         ///< jitter magnitude bound

    /** Probability an op suffers latency jitter at all. Silicon is
     * mostly repeatable; only occasional arbitration/refresh noise
     * perturbs a memory access. */
    double jitterProbability = 0.1;
    std::uint64_t issueCost = 1;         ///< per-op slot occupancy
    std::uint64_t startSkewMax = 4;      ///< initial core misalignment

    /** Per-op probability of an OS preemption (OS-interference mode). */
    double preemptProbability = 0.0;

    /** Preemption slice length in cycles. */
    std::uint64_t preemptSlice = 2000;

    /** Per-core L1 capacity in cache lines (0 = unbounded, no
     * evictions; the bug-3 study shrinks this like the paper shrinks
     * gem5's L1 to 1 kB). */
    std::uint32_t cacheLines = 0;
};

/** Full executor configuration. */
struct ExecutorConfig
{
    MemoryModel model = MemoryModel::TSO;
    SchedulingPolicy policy = SchedulingPolicy::UniformRandom;

    /** Max in-flight window per thread (out-of-order lookahead). */
    std::uint32_t reorderWindow = 8;

    /** Export ground-truth coherence order into the Execution. */
    bool exportCoherenceOrder = false;

    TimingParams timing;

    BugKind bug = BugKind::None;

    /** Probability the bug fires when its trigger condition occurs. */
    double bugProbability = 1.0;

    /**
     * Liveness drill: after this many scheduler steps in one run the
     * platform wedges — it stops making progress and spins (sleeping)
     * until a cancellation token is observed, then raises
     * TestHungError. 0 (default) never stalls. This models the
     * infinite-stall hangs real silicon produces and exists so the
     * watchdog path can be exercised deterministically; without a
     * watchdog the run genuinely never returns, which is the point.
     */
    std::uint64_t stallAfterSteps = 0;

    /**
     * Crash drill: the Nth runInto() call on one executor instance
     * (1-based) throws ProtocolDeadlockError before executing. 0
     * (default) never fires. Used to schedule a crash into a specific
     * pipeline stage — e.g. a confirmation re-execution — which random
     * bug injection cannot target.
     */
    std::uint64_t crashOnRun = 0;

    /**
     * Hard-crash drill: the Nth runInto() call (1-based) raises a
     * real fatal signal (`dieSignal`, default SIGSEGV) instead of a
     * catchable exception. In-process this genuinely kills the
     * campaign — which is the point: only a sandboxed worker fleet
     * (src/dist/fleet.h) survives it, and the drill is what
     * proves that end to end. 0 (default) never fires.
     */
    std::uint64_t dieAfterRuns = 0;

    /** Signal dieAfterRuns raises; 11 = SIGSEGV (SIGABRT = 6 drills
     * the abort path). Kept as a plain int so this header stays free
     * of <csignal>. */
    int dieSignal = 11;

    /**
     * Allocation-bomb drill: the Nth runInto() call retains and
     * touches heap until operator new fails (self-capped at 512 MB),
     * then lets std::bad_alloc fly. Under a sandbox RLIMIT_AS budget
     * the worker dies with the OOM exit sentinel and is classified as
     * a memory-budget breach. 0 (default) never fires.
     */
    std::uint64_t leakAfterRuns = 0;

    /**
     * Make the stallAfterSteps wedge non-cooperative: the stalled run
     * ignores its cancellation token, so only an out-of-process
     * reclaim (the sandbox's hard-deadline SIGKILL) can recover the
     * worker. Models firmware that wedges with interrupts masked.
     */
    bool stallIgnoresCancel = false;
};

} // namespace mtc

#endif // MTC_SIM_EXECUTOR_CONFIG_H
