/**
 * @file
 * Campaign runner: the paper's evaluation grid.
 *
 * A campaign runs a batch of constrained-random tests for each test
 * configuration (Table 2 / Figure 8 x-axis) on a chosen platform
 * variant and aggregates per-configuration metrics for every figure.
 * Scale knobs (iterations, tests per configuration) default to values
 * that finish in seconds per configuration; the environment variables
 * MTC_ITERATIONS and MTC_TESTS override them for paper-scale runs
 * (see EXPERIMENTS.md).
 */

#ifndef MTC_HARNESS_CAMPAIGN_H
#define MTC_HARNESS_CAMPAIGN_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/validation_flow.h"
#include "support/fault_transport.h"
#include "testgen/test_config.h"

namespace mtc
{

struct FabricStats;

/** Platform variant of a campaign: the simulated system under
 * validation. */
enum class PlatformVariant : std::uint8_t
{
    BareMetal, ///< timed executor: the paper's bare-metal environment
    Linux,     ///< timed executor with OS interference (Figure 8)
    Uniform,   ///< uniform-random scheduler (the paper's Section 4.1)
    Mesi,      ///< message-level MESI directory (the gem5 stand-in)
};

/** Where a campaign's (config, test) units execute. */
enum class ExecutionMode : std::uint8_t
{
    /** Units run inside the campaign process (threads per
     * CampaignConfig::threads). Fast, but a real crash in any unit
     * kills the whole campaign. */
    InProcess,

    /** Units run in a pool of pre-forked sandbox worker processes
     * (src/harness/sandbox.h); `threads` sets the worker count. A
     * worker death is contained, classified, charged, and respawned.
     * Summaries stay bit-identical to InProcess at any worker
     * count. */
    Sandboxed,

    /** Units run on a fleet of worker processes connected over TCP
     * (src/dist/coordinator.h): `distWorkers` loopback workers are
     * forked locally, and external `mtc_worker` processes may attach
     * to the same port. A lost worker's leased units are reassigned
     * and re-executed from their pre-derived seeds, so summaries stay
     * bit-identical to InProcess at any fleet size even across
     * mid-batch worker deaths. */
    Distributed,
};

/** Campaign-wide knobs. */
struct CampaignConfig
{
    std::uint64_t iterations = 2048;
    unsigned testsPerConfig = 3;
    std::uint64_t seed = 2017;
    PlatformVariant variant = PlatformVariant::BareMetal;

    /** Memory model the platform implements and the checker checks;
     * unset = the ISA's default (defaultModel). */
    std::optional<MemoryModel> model;

    /** Injected design bug (paper Section 7) and the probability it
     * fires when its trigger occurs. Timed and Mesi platforms only. */
    BugKind bug = BugKind::None;
    double bugProbability = 0.1;

    /** Per-core L1 capacity in cache lines (0 = unbounded). */
    std::uint32_t cacheLines = 0;

    bool runConventional = true;

    /** Readout-path fault injection applied to every test (all rates
     * 0 keeps the campaign bit-identical to the fault-free runner). */
    FaultConfig fault;

    /** Per-test graceful-degradation knobs, forwarded to the flow. */
    RecoveryConfig recovery;

    /** How many times a test that dies on an internal error is
     * regenerated-and-retried (with fresh seeds) before the config
     * marks it failed and moves on. */
    unsigned testRetries = 1;

    /**
     * Worker threads the campaign fans its (config, test) units
     * across. 1 (default) runs the classic serial campaign; 0 resolves
     * to the hardware concurrency. Summaries are bit-identical at any
     * value: every test's seeds are pre-derived from the canonical
     * serial sequence, each unit writes its own result slot, and
     * per-config aggregation folds the slots in test order.
     */
    unsigned threads = 1;

    /**
     * Lockstep batch width forwarded to every test's flow (see
     * FlowConfig::batch): iterations dispatched per batched-engine
     * call. 0 (default) lets the flow pick; 1 is scalar stepping.
     * Operational knob — summaries are bit-identical at any width, so
     * it is excluded from the campaign identity and a journal written
     * at one width resumes at another.
     */
    std::uint32_t batch = 0;

    /** Collect every unit's per-phase wall-clock breakdown (see
     * FlowConfig::profile); ConfigSummary::profile sums it.
     * Operational knob. */
    bool profile = false;

    /**
     * Write-ahead journal path (src/support/journal.h). Every
     * completed (config, test) unit is logged durably; empty (the
     * default) journals nothing. See `resume`.
     */
    std::string journalPath;

    /**
     * Offline-trace dump path (src/core/trace_format.h): after the
     * campaign completes, every (config, test) unit record — including
     * its sorted unique signature stream — is written in deterministic
     * (config, test) order, in every execution mode (distributed
     * workers ship their streams back inside unit records and the
     * coordinator-side slots are walked in unit order). `mtc_check`
     * re-runs the checking stage over the file and reproduces the
     * campaign summary byte-identically. Empty (the default) dumps
     * nothing. Operational knob — excluded from the campaign identity;
     * the trace records which campaign it belongs to, not the other
     * way around.
     */
    std::string dumpTracePath;

    /** Keep each unit's sorted signature stream in its FlowResult
     * (see FlowConfig::keepSignatures). Implied by `dumpTracePath`;
     * exposed separately so a caller can retain streams without
     * writing a file. Operational knob. */
    bool keepSignatureStreams = false;

    /**
     * Resume from an existing journal at `journalPath`: units already
     * logged are replayed from their records instead of re-run, so a
     * SIGKILLed campaign continues where it stopped — and, because
     * every per-test seed is pre-derived from the canonical serial
     * sequence, the resumed summary is bit-identical (deterministic
     * fields; wall-clock ms fields replay the journaled values) to an
     * uninterrupted run at any thread count. A journal written by a
     * different campaign (seed, scale, configs, platform or fault
     * knobs differ) is rejected with ConfigError.
     */
    bool resume = false;

    /**
     * Watchdog deadline per test attempt in milliseconds; 0 (default)
     * disables the watchdog. An attempt exceeding the deadline is
     * cooperatively cancelled, recorded as TestStatus::Hung, and
     * retried under the normal retry budget.
     */
    std::uint64_t testTimeoutMs = 0;

    /**
     * Per-config circuit breaker: after this many error events in one
     * configuration — hung attempts, failed tests, platform crashes,
     * quarantined signatures — the config trips, its remaining units
     * are skipped, and the summary reports it tripped/degraded
     * instead of letting a poisoned config burn the campaign's
     * wall-clock. 0 (default) never trips. At threads > 1 the trip
     * point depends on completion order; breaker verdicts are
     * advisory, not part of the bit-identical summary contract.
     */
    unsigned errorBudget = 0;

    /**
     * Liveness drill forwarded to the platform: every run wedges
     * after this many scheduler steps (see
     * ExecutorConfig::stallAfterSteps). 0 = off. Only meaningful with
     * `testTimeoutMs` set — an unwatched stalled run never returns.
     */
    std::uint64_t stallAfterSteps = 0;

    /** Make the stall drill ignore cancellation (see
     * ExecutorConfig::stallIgnoresCancel): only the sandbox's
     * hard-deadline SIGKILL can then reclaim the worker. */
    bool stallUncooperative = false;

    /** Where units execute; see ExecutionMode. Operational knob: a
     * journal written in one mode resumes in the other. */
    ExecutionMode mode = ExecutionMode::InProcess;

    /** Sandboxed mode: per-worker RLIMIT_AS budget in MB (0 =
     * unlimited; ignored with a warning in sanitizer builds). */
    std::uint64_t sandboxMemMb = 0;

    /** Sandboxed mode: per-worker RLIMIT_CPU budget in seconds
     * (0 = unlimited). */
    std::uint64_t sandboxCpuS = 0;

    /** Hard-crash drill forwarded to the platform (see
     * ExecutorConfig::dieAfterRuns): the Nth run raises a real fatal
     * signal. In sandboxed mode only the initial fleet's first worker
     * arms it, so containment is observable exactly once. */
    std::uint64_t dieAfterRuns = 0;

    /** Signal the die drill raises (default 11 = SIGSEGV). */
    int dieSignal = 11;

    /** Allocation-bomb drill forwarded to the platform (see
     * ExecutorConfig::leakAfterRuns); sandbox-gated like
     * dieAfterRuns. */
    std::uint64_t leakAfterRuns = 0;

    /** Distributed mode: loopback workers forked by the campaign
     * itself. 0 forks none — the coordinator then waits for external
     * `mtc_worker` processes to attach. */
    unsigned distWorkers = 2;

    /** Distributed mode: coordinator TCP port; 0 = ephemeral. */
    std::uint16_t distPort = 0;

    /** Distributed mode: the coordinator's IPv4 bind address
     * (FabricConfig::host). A deployment address, not a behaviour
     * knob: loopback unless an operator opens it up. */
    std::string distHost = "127.0.0.1";

    /** Distributed mode: units per lease (see FabricConfig). */
    unsigned distBatch = 2;

    /** Distributed mode: open leases per worker (backpressure). */
    unsigned distMaxInFlight = 2;

    /** Distributed mode: heartbeat liveness timeout; 0 disables. */
    std::uint64_t distHeartbeatTimeoutMs = 10000;

    /** Distributed mode: lease expiry; 0 disables. An expired lease's
     * units are reassigned while the slow worker stays connected. */
    std::uint64_t distLeaseTimeoutMs = 0;

    /** Distributed mode: write the coordinator's bound port (decimal,
     * one line) to this file once listening — how scripts learn an
     * ephemeral port. Empty writes nothing. */
    std::string distPortFile;

    /** Failure drill, distributed mode: loopback worker 0 _exit()s
     * abruptly after sending this many results — the worker-dies-
     * mid-batch scenario, whose leased units must be reassigned with
     * a bit-identical summary. 0 = off. */
    std::uint64_t distDrillExitAfter = 0;

    /** Distributed mode: path to the pre-shared fabric key file (see
     * loadFabricKey). Empty = keyless loopback fabric. When set, the
     * coordinator demands the challenge/response handshake, loopback
     * workers authenticate with the same key, and all post-handshake
     * frames carry MACs + sequence numbers. Operational knob: not
     * part of the campaign identity or the shipped spec. */
    std::string distKeyFile;

    /** Distributed mode: fraction of units re-executed by a second
     * worker and cross-compared (Byzantine audit; see
     * Coordinator::AuditHooks). 0 disables. Operational knob — the
     * merged summary is bit-identical at any rate. */
    double distAuditRate = 0.0;

    /** Distributed mode: seeded network faults injected on every
     * fabric connection, both coordinator- and loopback-worker-side
     * (chaos drills); inert when no rate is set. Operational knob. */
    NetFaultConfig distNetFault;

    /** Failure drill, distributed mode: the LAST loopback worker
     * silently corrupts every result it returns — decodable,
     * plausible, wrong. Only a Byzantine audit (distAuditRate > 0)
     * can catch and quarantine it. Needs distWorkers >= 2 so an
     * honest worker exists to audit against. */
    bool distDrillCorrupt = false;

    /** Distributed mode: when non-null, the coordinator's final
     * FabricStats (including the Byzantine-audit block) are copied
     * here after the run — how tools report quarantines without the
     * campaign layer growing a reporting dependency. Not owned. */
    FabricStats *distStatsOut = nullptr;

    /**
     * Apply MTC_ITERATIONS / MTC_TESTS / MTC_SEED / MTC_THREADS /
     * MTC_BATCH / MTC_JOURNAL / MTC_TEST_TIMEOUT_MS / MTC_SANDBOX /
     * MTC_SANDBOX_MEM_MB / MTC_SANDBOX_CPU_S overrides (MTC_THREADS=0
     * means "use every hardware thread"; MTC_BATCH=0 means "flow
     * default"; MTC_TEST_TIMEOUT_MS=0 means no watchdog;
     * MTC_SANDBOX=0/1 selects in-process/sandboxed).
     *
     * Fabric overrides: MTC_FABRIC_KEY_FILE (key path; the key itself
     * never transits argv or the environment), MTC_AUDIT_RATE (a
     * fraction in [0,1]), and the chaos knobs MTC_NET_FAULT_DROP /
     * _DUP / _CORRUPT / _DELAY / _REORDER / _DRIP / _DISCONNECT
     * (fractions applied to both directions), MTC_NET_FAULT_DELAY_MS
     * and MTC_NET_FAULT_SEED (counts).
     *
     * Offline checking: MTC_DUMP_TRACE (trace file path; see
     * `dumpTracePath`).
     *
     * @throws ConfigError if a set variable is non-numeric, or zero
     *         where zero is meaningless (iterations, tests), or empty
     *         where text is required (MTC_JOURNAL, MTC_DUMP_TRACE,
     *         MTC_FABRIC_KEY_FILE), or outside [0,1] where a rate is
     *         required.
     */
    static CampaignConfig fromEnv(CampaignConfig defaults);
    static CampaignConfig fromEnv();
};

/** Terminal status of one (config, test) unit. */
enum class TestStatus : std::uint8_t
{
    Ok = 0,     ///< flow completed (possibly after retries)
    Failed = 1, ///< abandoned after the retry budget
    Hung = 2,   ///< last attempt reclaimed by the watchdog
    Skipped = 3 ///< never ran: the config's circuit breaker tripped
};

/**
 * One (config, test) unit's result slot — the campaign's unit of
 * parallel work, of journaling, and of resume: exactly this struct
 * (minus FlowResult::executions) round-trips through a journal
 * UnitRecord.
 */
struct TestOutcome
{
    FlowResult result;
    TestStatus status = TestStatus::Failed;
    bool ok = false;
    unsigned retriesUsed = 0;

    /** Attempts reclaimed by the watchdog (includes attempts whose
     * retry then succeeded). */
    unsigned hungAttempts = 0;
};

/** Aggregated per-configuration metrics (means over tests). */
struct ConfigSummary
{
    TestConfig cfg;
    unsigned tests = 0;

    double avgUniqueSignatures = 0.0;
    double avgSignatureBytes = 0.0;
    double avgUnrelatedAccesses = 0.0; ///< Figure 11 y-axis
    double avgCodeRatio = 0.0;         ///< Figure 12
    double avgOriginalKB = 0.0;
    double avgInstrumentedKB = 0.0;

    double collectiveMs = 0.0;   ///< summed over tests
    double conventionalMs = 0.0; ///< summed over tests

    std::uint64_t collectiveWork = 0;   ///< vertices+edges processed
    std::uint64_t conventionalWork = 0;

    /** Figure 14 classification fractions. */
    double fracComplete = 0.0;
    double fracNoResort = 0.0;
    double fracIncremental = 0.0;
    double avgAffectedFraction = 0.0;

    /** Raw collective-checker classification totals (the fractions
     * above are these normalized by graphs checked); the scaling
     * bench's shard sweep checks its unsharded point against them. */
    std::uint64_t collectiveGraphs = 0;
    std::uint64_t collectiveCompleteSorts = 0;

    /** Figure 10 components (means of per-test overheads). */
    double avgComputationOverhead = 0.0;
    double avgSortingOverhead = 0.0;

    std::uint64_t violations = 0;

    /** Fault-tolerance aggregates (all zero on a clean campaign). */
    InjectionCounts injected;               ///< injector ground truth
    std::uint64_t quarantinedSignatures = 0;
    std::uint64_t quarantinedIterations = 0;
    std::uint64_t confirmedViolations = 0;
    std::uint64_t transientViolations = 0;  ///< unreproduced, reclassified
    unsigned crashRetries = 0;
    unsigned testRetriesUsed = 0;
    unsigned failedTests = 0; ///< tests abandoned after retry budget
    unsigned hungTests = 0;   ///< tests whose final attempt hung
    unsigned hungAttempts = 0; ///< watchdog reclaims, incl. retried-ok
    unsigned skippedTests = 0; ///< skipped after the breaker tripped
    unsigned errorEvents = 0;  ///< breaker accounting for this config
    bool tripped = false;      ///< circuit breaker opened mid-config

    /** The configuration did not run to plan. Set with an empty
     * stats block when setup failed outright (runCampaign substitutes
     * this degraded summary instead of letting one poisoned config
     * kill the campaign), and set alongside the partial stats when
     * the circuit breaker tripped (`tripped` distinguishes the two);
     * `error` says which and why. */
    bool degraded = false;
    std::string error;

    /** Reporting extras, deliberately outside foldSummary (so no
     * digest depends on them). `platformCrashes` is the share of
     * `violations` that are platform crashes — deadlocks and
     * contained worker deaths, not MCM violations. */
    std::uint64_t platformCrashes = 0;
    unsigned replayedUnits = 0;   ///< slots replayed from the journal
    std::string violationWitness; ///< first one, in test order
    PhaseBreakdown profile;       ///< summed (CampaignConfig::profile)

    /** Normalized collective / conventional sorting time (Fig. 9). */
    double
    speedupRatio() const
    {
        return conventionalMs > 0.0 ? collectiveMs / conventionalMs
                                    : 0.0;
    }

    /** Same ratio on work counters (host-independent). */
    double
    workRatio() const
    {
        return conventionalWork
            ? static_cast<double>(collectiveWork) / conventionalWork
            : 0.0;
    }
};

/**
 * Strictly parse a counting environment override.
 *
 * Used by CampaignConfig::fromEnv and by the bench binaries' private
 * scale knobs (MTC_BUG_TESTS, MTC_KM_RUNS, ...) so that a garbled
 * value fails fast with the variable's name instead of silently
 * running zero iterations.
 *
 * @throws ConfigError on empty/non-numeric/signed/overflowing text,
 *         or on zero unless @p allow_zero.
 */
std::uint64_t parseEnvCount(const char *name, const char *text,
                            bool allow_zero = false);

/**
 * Strictly parse a fractional environment override: a decimal in
 * [0, 1]. Same philosophy as parseEnvCount — MTC_AUDIT_RATE=lots must
 * fail fast, not silently audit nothing.
 *
 * @throws ConfigError on empty/non-numeric/out-of-range text.
 */
double parseEnvRate(const char *name, const char *text);

/**
 * Apply the MTC_NET_FAULT_* chaos overrides (see
 * CampaignConfig::fromEnv) on top of @p defaults. Shared by fromEnv
 * and by mtc_worker, which has no CampaignConfig of its own.
 *
 * @throws ConfigError on malformed values, like parseEnvRate.
 */
NetFaultConfig netFaultFromEnv(NetFaultConfig defaults = {});

/** Operational-executor configuration a campaign variant starts from
 * for @p cfg (Mesi runs the coherent platform instead; flowTemplate
 * builds that). */
ExecutorConfig platformFor(const TestConfig &cfg, PlatformVariant variant);

/**
 * Fold one configuration's outcome slots (strictly in test order) into
 * its ConfigSummary, including the circuit-breaker verdict derived
 * from the slots' own error events against @p error_budget. Shared by
 * the inline campaign and the offline trace checker (mtc_check), so a
 * replayed outcome stream summarizes byte-identically to the run that
 * recorded it.
 */
ConfigSummary summarizeConfig(const TestConfig &cfg,
                              const std::vector<TestOutcome> &outcomes,
                              unsigned error_budget);

/** Run one configuration's batch of tests and aggregate. */
ConfigSummary runConfig(const TestConfig &cfg,
                        const CampaignConfig &campaign);

/** Run a list of configurations. */
std::vector<ConfigSummary> runCampaign(
    const std::vector<TestConfig> &configs,
    const CampaignConfig &campaign);

} // namespace mtc

#endif // MTC_HARNESS_CAMPAIGN_H
