#include "harness/campaign.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include <arpa/inet.h>

#include "dist/coordinator.h"
#include "harness/campaign_journal.h"
#include "harness/campaign_plan.h"
#include "harness/dist_campaign.h"
#include "harness/sandbox.h"
#include "harness/trace_check.h"
#include "harness/watchdog.h"
#include "sim/executor.h"
#include "support/hmac.h"
#include "support/log.h"
#include "support/process.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "testgen/generator.h"

namespace mtc
{

/**
 * Parse an environment override strictly. strtoull's permissiveness is
 * a campaign killer: MTC_ITERATIONS=abc silently became 0 iterations
 * (an entire campaign measuring nothing), so non-numeric, negative,
 * out-of-range and — where meaningless — zero values all fail fast
 * with the variable's name.
 */
std::uint64_t
parseEnvCount(const char *name, const char *text, bool allow_zero)
{
    if (*text == '\0' || *text == '-' || *text == '+') {
        throw ConfigError(std::string(name) +
                          " must be an unsigned integer, got \"" +
                          text + "\"");
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
        throw ConfigError(std::string(name) +
                          " must be an unsigned integer, got \"" +
                          text + "\"");
    }
    if (!allow_zero && value == 0) {
        throw ConfigError(std::string(name) +
                          " must be non-zero (a zero value would run "
                          "an empty campaign)");
    }
    return value;
}

double
parseEnvRate(const char *name, const char *text)
{
    if (*text == '\0' || *text == '-' || *text == '+') {
        throw ConfigError(std::string(name) +
                          " must be a fraction in [0, 1], got \"" +
                          text + "\"");
    }
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !(value >= 0.0 && value <= 1.0)) {
        throw ConfigError(std::string(name) +
                          " must be a fraction in [0, 1], got \"" +
                          text + "\"");
    }
    return value;
}

CampaignConfig
CampaignConfig::fromEnv(CampaignConfig defaults)
{
    if (const char *iters = std::getenv("MTC_ITERATIONS"))
        defaults.iterations =
            parseEnvCount("MTC_ITERATIONS", iters, false);
    if (const char *tests = std::getenv("MTC_TESTS"))
        defaults.testsPerConfig = static_cast<unsigned>(
            parseEnvCount("MTC_TESTS", tests, false));
    if (const char *seed = std::getenv("MTC_SEED"))
        defaults.seed = parseEnvCount("MTC_SEED", seed, true);
    // Zero is meaningful: MTC_THREADS=0 asks for every hardware thread.
    if (const char *threads = std::getenv("MTC_THREADS"))
        defaults.threads = static_cast<unsigned>(
            parseEnvCount("MTC_THREADS", threads, true));
    // MTC_BATCH=0 defers to the flow's default width; any width is
    // purely operational (bit-identical summaries).
    if (const char *batch = std::getenv("MTC_BATCH"))
        defaults.batch = static_cast<std::uint32_t>(
            parseEnvCount("MTC_BATCH", batch, true));
    // MTC_JOURNAL is a path, not a count, but gets the same strictness:
    // an empty value is a misconfiguration (probably MTC_JOURNAL= left
    // over from a shell edit), not a request for no journal.
    if (const char *journal = std::getenv("MTC_JOURNAL")) {
        if (*journal == '\0')
            throw ConfigError(
                "MTC_JOURNAL is set but empty; unset it or give a path");
        defaults.journalPath = journal;
    }
    // MTC_DUMP_TRACE gets MTC_JOURNAL's path strictness for the same
    // reason: an empty value is a shell-edit leftover, not a request
    // to dump nowhere.
    if (const char *trace = std::getenv("MTC_DUMP_TRACE")) {
        if (*trace == '\0')
            throw ConfigError("MTC_DUMP_TRACE is set but empty; unset "
                              "it or give a path");
        defaults.dumpTracePath = trace;
    }
    if (const char *timeout = std::getenv("MTC_TEST_TIMEOUT_MS"))
        defaults.testTimeoutMs =
            parseEnvCount("MTC_TEST_TIMEOUT_MS", timeout, true);
    // The sandbox knobs get the same strictness: MTC_SANDBOX=yes must
    // fail fast, not silently run unsandboxed.
    if (const char *sandbox = std::getenv("MTC_SANDBOX")) {
        defaults.mode = parseEnvCount("MTC_SANDBOX", sandbox, true)
            ? ExecutionMode::Sandboxed
            : ExecutionMode::InProcess;
    }
    if (const char *mem = std::getenv("MTC_SANDBOX_MEM_MB"))
        defaults.sandboxMemMb =
            parseEnvCount("MTC_SANDBOX_MEM_MB", mem, true);
    if (const char *cpu = std::getenv("MTC_SANDBOX_CPU_S"))
        defaults.sandboxCpuS =
            parseEnvCount("MTC_SANDBOX_CPU_S", cpu, true);
    // Fabric security/chaos knobs. The key variable carries a *path*
    // so the key bytes never transit the environment or a process
    // listing; like MTC_JOURNAL, an empty value is a misconfiguration.
    if (const char *key_file = std::getenv("MTC_FABRIC_KEY_FILE")) {
        if (*key_file == '\0')
            throw ConfigError("MTC_FABRIC_KEY_FILE is set but empty; "
                              "unset it or give a path");
        defaults.distKeyFile = key_file;
    }
    if (const char *rate = std::getenv("MTC_AUDIT_RATE"))
        defaults.distAuditRate = parseEnvRate("MTC_AUDIT_RATE", rate);
    defaults.distNetFault = netFaultFromEnv(defaults.distNetFault);
    return defaults;
}

NetFaultConfig
netFaultFromEnv(NetFaultConfig defaults)
{
    // Chaos rates apply to both directions of every fabric
    // connection; the per-direction split is test/API surface only.
    const auto fault_rate = [&](const char *name,
                                double NetFaultRates::*field) {
        if (const char *text = std::getenv(name)) {
            const double r = parseEnvRate(name, text);
            defaults.send.*field = r;
            defaults.recv.*field = r;
        }
    };
    fault_rate("MTC_NET_FAULT_DROP", &NetFaultRates::drop);
    fault_rate("MTC_NET_FAULT_DUP", &NetFaultRates::duplicate);
    fault_rate("MTC_NET_FAULT_CORRUPT", &NetFaultRates::corrupt);
    fault_rate("MTC_NET_FAULT_DELAY", &NetFaultRates::delay);
    fault_rate("MTC_NET_FAULT_REORDER", &NetFaultRates::reorder);
    fault_rate("MTC_NET_FAULT_DRIP", &NetFaultRates::drip);
    fault_rate("MTC_NET_FAULT_DISCONNECT", &NetFaultRates::disconnect);
    if (const char *ms = std::getenv("MTC_NET_FAULT_DELAY_MS"))
        defaults.delayMs =
            parseEnvCount("MTC_NET_FAULT_DELAY_MS", ms, true);
    if (const char *seed = std::getenv("MTC_NET_FAULT_SEED"))
        defaults.seed =
            parseEnvCount("MTC_NET_FAULT_SEED", seed, true);
    return defaults;
}

CampaignConfig
CampaignConfig::fromEnv()
{
    return fromEnv(CampaignConfig{});
}

ExecutorConfig
platformFor(const TestConfig &cfg, PlatformVariant variant)
{
    if (variant == PlatformVariant::Linux)
        return osConfig(cfg.isa);
    if (variant == PlatformVariant::Uniform) {
        ExecutorConfig exec;
        exec.policy = SchedulingPolicy::UniformRandom;
        exec.model = defaultModel(cfg.isa);
        return exec;
    }
    return bareMetalConfig(cfg.isa);
}

// The deterministic plan — deriveTestPlans, flowTemplate,
// runPlannedTest — is exported via campaign_plan.h (see its file
// comment for the bit-identity argument); the distributed worker
// rebuilds the same plans from the campaign spec alone.

std::vector<TestPlan>
deriveTestPlans(const TestConfig &cfg, const CampaignConfig &campaign)
{
    // Tests are derived from one seed per configuration so every
    // figure sees the same test programs (the paper reuses one set of
    // generated tests across experiments for fairness).
    Rng seeder(campaign.seed ^
               (static_cast<std::uint64_t>(cfg.numThreads) << 40) ^
               (static_cast<std::uint64_t>(cfg.opsPerThread) << 20) ^
               (static_cast<std::uint64_t>(cfg.numLocations) << 8) ^
               static_cast<std::uint64_t>(cfg.wordsPerLine) ^
               (cfg.isa == Isa::X86 ? 0x5a5a5a5aull : 0ull));

    std::vector<TestPlan> plans(campaign.testsPerConfig);
    for (TestPlan &plan : plans) {
        plan.genSeed = seeder();
        plan.flowSeed = seeder();
        std::uint64_t mix =
            plan.genSeed ^ (plan.flowSeed * 0x9e3779b97f4a7c15ULL);
        plan.retrySeed = splitMix64(mix);
    }
    return plans;
}

FlowConfig
flowTemplate(const TestConfig &cfg, const CampaignConfig &campaign)
{
    if (!(campaign.bugProbability >= 0.0 &&
          campaign.bugProbability <= 1.0))
        throw ConfigError("bug probability must lie in [0, 1]");
    const MemoryModel model =
        campaign.model.value_or(defaultModel(cfg.isa));

    FlowConfig flow_cfg;
    flow_cfg.iterations = campaign.iterations;
    if (campaign.variant == PlatformVariant::Mesi) {
        if (campaign.dieAfterRuns || campaign.leakAfterRuns)
            throw ConfigError("the die/leak drills are operational-"
                              "executor drills; pick a non-mesi "
                              "platform");
        CoherentConfig coh = gem5LikeConfig();
        coh.model = model;
        coh.bug = campaign.bug;
        coh.bugProbability = campaign.bugProbability;
        coh.cacheLines = campaign.cacheLines;
        coh.stallAfterSteps = campaign.stallAfterSteps;
        flow_cfg.coherent = coh;
    } else {
        if (campaign.variant == PlatformVariant::Uniform &&
            campaign.bug != BugKind::None)
            throw ConfigError("bug injection needs a timed platform "
                              "(timed, linux or mesi), not uniform");
        flow_cfg.exec = platformFor(cfg, campaign.variant);
        flow_cfg.exec.model = model;
        if (campaign.variant == PlatformVariant::Uniform)
            flow_cfg.exec.reorderWindow = model == MemoryModel::SC ? 1 : 8;
        flow_cfg.exec.bug = campaign.bug;
        flow_cfg.exec.bugProbability = campaign.bugProbability;
        flow_cfg.exec.timing.cacheLines = campaign.cacheLines;
        flow_cfg.exec.stallAfterSteps = campaign.stallAfterSteps;
        flow_cfg.exec.stallIgnoresCancel = campaign.stallUncooperative;
        flow_cfg.exec.dieAfterRuns = campaign.dieAfterRuns;
        flow_cfg.exec.dieSignal = campaign.dieSignal;
        flow_cfg.exec.leakAfterRuns = campaign.leakAfterRuns;
    }
    flow_cfg.runConventional = campaign.runConventional;
    flow_cfg.fault = campaign.fault;
    flow_cfg.recovery = campaign.recovery;
    // The campaign parallelizes at test granularity; each flow stays
    // serial inside so campaign.threads workers mean campaign.threads
    // busy cores, not threads^2 oversubscription.
    flow_cfg.threads = 1;
    flow_cfg.batch = campaign.batch;
    flow_cfg.profile = campaign.profile;
    // Trace dumps need every unit's sorted unique signature stream
    // kept in the FlowResult; the stream is derived state (not a
    // result-determining knob), so this stays out of the identity.
    flow_cfg.keepSignatures = campaign.keepSignatureStreams ||
        !campaign.dumpTracePath.empty();
    return flow_cfg;
}

TestOutcome
runPlannedTest(const TestConfig &cfg, const FlowConfig &flow_template,
               const TestPlan &plan, const CampaignConfig &campaign,
               unsigned test_index, Watchdog *watchdog)
{
    TestOutcome outcome;
    Rng retry_seeder(plan.retrySeed);
    for (unsigned attempt = 0;
         attempt <= campaign.testRetries && !outcome.ok; ++attempt) {
        std::uint64_t gen_seed = plan.genSeed;
        std::uint64_t flow_seed = plan.flowSeed;
        if (attempt) {
            ++outcome.retriesUsed;
            gen_seed = retry_seeder();
            flow_seed = retry_seeder();
        }
        try {
            const TestProgram program = generateTest(cfg, gen_seed);
            FlowConfig flow_cfg = flow_template;
            flow_cfg.seed = flow_seed;
            CancellationToken token;
            std::optional<Watchdog::Guard> deadline;
            if (watchdog && campaign.testTimeoutMs) {
                flow_cfg.cancel = &token;
                deadline.emplace(watchdog->watch(
                    token,
                    std::chrono::milliseconds(campaign.testTimeoutMs)));
            }
            ValidationFlow flow(flow_cfg);
            outcome.result = flow.runTest(program);
            outcome.ok = true;
            outcome.status = TestStatus::Ok;
        } catch (const TestHungError &err) {
            // Must precede the Error handler: a hang is an error
            // event for the breaker AND a distinct verdict — "this
            // config wedges the platform" is the paper's most
            // interesting post-silicon outcome after a violation.
            ++outcome.hungAttempts;
            outcome.status = TestStatus::Hung;
            warn("test " + std::to_string(test_index) + " of " +
                 cfg.name() + " hung (attempt " +
                 std::to_string(attempt + 1) + "): " + err.what());
        } catch (const Error &err) {
            outcome.status = TestStatus::Failed;
            warn("test " + std::to_string(test_index) + " of " +
                 cfg.name() + " failed (attempt " +
                 std::to_string(attempt + 1) + "): " + err.what());
        }
    }
    return outcome;
}

namespace
{

/**
 * Error events one finished unit contributes to its config's circuit
 * breaker: watchdog reclaims, a final failed verdict, platform
 * crashes, and quarantined (undecodable) signatures — every way a
 * config can show it is poisoning the campaign.
 */
unsigned
breakerEvents(const TestOutcome &outcome)
{
    std::uint64_t events = outcome.hungAttempts;
    if (outcome.status == TestStatus::Failed)
        ++events;
    events += outcome.result.platformCrashes;
    events += outcome.result.fault.quarantinedCount();
    return static_cast<unsigned>(events);
}

/**
 * Fold the outcome slots into a ConfigSummary, strictly in test
 * order: double accumulation is order-sensitive, so folding slots in
 * index order is what makes the summary bit-identical to the serial
 * runner's at any worker count.
 */
ConfigSummary
summarize(const TestConfig &cfg,
          const std::vector<TestOutcome> &outcomes, bool tripped,
          unsigned error_events)
{
    ConfigSummary summary;
    summary.cfg = cfg;
    summary.tripped = tripped;
    summary.errorEvents = error_events;

    std::uint64_t complete = 0, no_resort = 0, incremental = 0;
    std::uint64_t graphs = 0;
    double affected_weighted = 0.0;
    std::uint64_t affected_count = 0;

    for (const TestOutcome &outcome : outcomes) {
        summary.testRetriesUsed += outcome.retriesUsed;
        summary.hungAttempts += outcome.hungAttempts;
        if (outcome.status == TestStatus::Skipped) {
            ++summary.skippedTests;
            continue;
        }
        if (!outcome.ok) {
            if (outcome.status == TestStatus::Hung)
                ++summary.hungTests;
            else
                ++summary.failedTests;
            continue;
        }
        const FlowResult &result = outcome.result;

        ++summary.tests;
        summary.avgUniqueSignatures += result.uniqueSignatures;
        summary.avgSignatureBytes += result.intrusive.signatureBytes;
        summary.avgUnrelatedAccesses +=
            result.intrusive.normalizedUnrelated();
        summary.avgCodeRatio += result.code.ratio();
        summary.avgOriginalKB += result.code.originalBytes / 1024.0;
        summary.avgInstrumentedKB +=
            result.code.instrumentedBytes / 1024.0;

        summary.collectiveMs += result.collectiveMs;
        summary.conventionalMs += result.conventionalMs;
        summary.collectiveWork += result.collective.verticesProcessed +
            result.collective.edgesProcessed;
        summary.conventionalWork +=
            result.conventional.verticesProcessed +
            result.conventional.edgesProcessed;

        complete += result.collective.completeSorts;
        no_resort += result.collective.noResortNeeded;
        incremental += result.collective.incrementalResorts;
        graphs += result.collective.graphsChecked;
        affected_weighted +=
            result.collective.affectedFraction.sum();
        affected_count += result.collective.affectedFraction.count();

        summary.avgComputationOverhead += result.computationOverhead;
        summary.avgSortingOverhead += result.sortingOverhead;
        summary.violations += result.violatingSignatures +
            result.assertionFailures + result.platformCrashes;
        summary.platformCrashes += result.platformCrashes;
        if (summary.violationWitness.empty())
            summary.violationWitness = result.violationWitness;
        summary.profile.merge(result.profile);

        summary.injected += result.fault.injected;
        summary.quarantinedSignatures += result.fault.quarantinedCount();
        summary.quarantinedIterations += result.fault.quarantinedIterations;
        summary.confirmedViolations += result.fault.confirmedViolations;
        summary.transientViolations += result.fault.transientViolations;
        summary.crashRetries += result.fault.crashRetries;
    }

    const double n = summary.tests ? summary.tests : 1;
    summary.avgUniqueSignatures /= n;
    summary.avgSignatureBytes /= n;
    summary.avgUnrelatedAccesses /= n;
    summary.avgCodeRatio /= n;
    summary.avgOriginalKB /= n;
    summary.avgInstrumentedKB /= n;
    summary.avgComputationOverhead /= n;
    summary.avgSortingOverhead /= n;

    summary.collectiveGraphs = graphs;
    summary.collectiveCompleteSorts = complete;
    if (graphs) {
        summary.fracComplete = static_cast<double>(complete) / graphs;
        summary.fracNoResort = static_cast<double>(no_resort) / graphs;
        summary.fracIncremental =
            static_cast<double>(incremental) / graphs;
    }
    if (affected_count) {
        summary.avgAffectedFraction =
            affected_weighted / static_cast<double>(affected_count);
    }
    return summary;
}

/** One configuration's pre-derived execution plan. */
struct ConfigPlan
{
    FlowConfig flow;
    std::vector<TestPlan> tests;
    bool setupOk = false;
    std::string error;
};

/** "a; b" note concatenation that tolerates empty operands. */
void
appendNote(std::string &note, const std::string &addition)
{
    if (addition.empty())
        return;
    if (!note.empty())
        note += "; ";
    note += addition;
}

/**
 * Sandboxed unit engine: dispatch every unit to the pre-forked worker
 * fleet over framed pipes. The parent keeps the journal, the breaker
 * and the outcome slots; the children run runPlannedTest and nothing
 * else. Determinism is preserved exactly as in the threaded engine —
 * pre-derived seeds, per-unit slots, in-order aggregation — so the
 * summary is bit-identical to in-process at any worker count.
 *
 * A worker loss is charged like an in-flow platform crash: retried on
 * a fresh worker while the unit's crash budget
 * (recovery.crashRetries) lasts, every consumed death merged into the
 * final outcome's platformCrashes + fault.crashRetries (which feed
 * the violation count, the breaker, and the CLI's crash exit code),
 * and the child's last-gasp crash report attached to the fault note.
 * A hard-deadline SIGKILL (non-cooperative hang) is recorded as Hung
 * without retry: the child's own watchdog and in-child retries
 * already had their chance — a unit that wedges past them would only
 * wedge the respawn too.
 */
void
runUnitsSandboxed(
    const std::vector<TestConfig> &configs,
    const CampaignConfig &campaign,
    const std::vector<ConfigPlan> &plans,
    const std::vector<std::pair<std::size_t, std::size_t>> &units,
    std::vector<std::vector<TestOutcome>> &outcomes,
    const std::function<bool(std::size_t)> &resolve_without_running,
    const std::function<void(std::size_t)> &record_outcome)
{
    SandboxConfig sandbox;
    sandbox.workers = ThreadPool::resolveThreads(campaign.threads);
    sandbox.memLimitMb = campaign.sandboxMemMb;
    sandbox.cpuLimitS = campaign.sandboxCpuS;
    // 2x the per-attempt watchdog deadline, per attempt the child may
    // legitimately burn: the cooperative path always wins the race
    // when it works at all, and the SIGKILL bound stays within the
    // documented 2x-timeout reclaim guarantee.
    if (campaign.testTimeoutMs) {
        sandbox.hardDeadlineMs = 2 * campaign.testTimeoutMs *
            (campaign.testRetries + 1);
    }

    // Child-side state, materialized per worker process after the
    // fork (a watchdog thread must never exist in the forking
    // parent).
    struct ChildRuntime
    {
        std::unique_ptr<Watchdog> watchdog;
    };
    auto child_runtime = std::make_shared<ChildRuntime>();

    SandboxPool::WorkerFn worker_fn =
        [&configs, &plans, &campaign, child_runtime](
            const std::vector<std::uint8_t> &request,
            const WorkerEnv &env) -> std::vector<std::uint8_t> {
        const auto [c, t] = decodeUnitRequest(request);

        FlowConfig flow = plans[c].flow;
        if (env.workerIndex != 0 || env.generation != 0) {
            // The hard-failure drills arm only the initial fleet's
            // first worker: one observable containment event, then
            // the retried unit completes on an unarmed respawn.
            flow.exec.dieAfterRuns = 0;
            flow.exec.leakAfterRuns = 0;
        }
        if (campaign.testTimeoutMs && !child_runtime->watchdog)
            child_runtime->watchdog = std::make_unique<Watchdog>();

        setCrashContext(configs[c].name() + "#" + std::to_string(t),
                        plans[c].tests[t].genSeed);
        UnitRecord record;
        record.configName = configs[c].name();
        record.testIndex = static_cast<std::uint32_t>(t);
        record.genSeed = plans[c].tests[t].genSeed;
        record.flowSeed = plans[c].tests[t].flowSeed;
        record.outcome = runPlannedTest(
            configs[c], flow, plans[c].tests[t], campaign,
            static_cast<unsigned>(t), child_runtime->watchdog.get());
        clearCrashContext();
        record.outcome.result.executions.clear();
        return encodeUnitRecord(record);
    };

    SandboxPool pool(sandbox, worker_fn);

    std::vector<unsigned> crash_attempts(units.size(), 0);
    std::vector<std::string> crash_notes(units.size());

    const SandboxPool::RequestFn request_fn =
        [&](std::size_t u) -> std::optional<std::vector<std::uint8_t>> {
        if (resolve_without_running(u))
            return std::nullopt;
        const auto [c, t] = units[u];
        return encodeUnitRequest(c, t);
    };

    const SandboxPool::ResultFn result_fn =
        [&](std::size_t u, const std::vector<std::uint8_t> &payload) {
        const auto [c, t] = units[u];
        UnitRecord record = decodeUnitRecord(payload);
        const TestPlan &plan = plans[c].tests[t];
        if (record.configName != configs[c].name() ||
            record.testIndex != t || record.genSeed != plan.genSeed ||
            record.flowSeed != plan.flowSeed) {
            throw SandboxError(
                "sandbox: worker response does not match the "
                "dispatched unit (test " + std::to_string(t) + " of " +
                configs[c].name() + ")");
        }
        TestOutcome &slot = outcomes[c][t];
        slot = record.outcome;
        if (crash_attempts[u]) {
            // Deaths consumed on the way to this success are charged
            // exactly like in-flow platform crashes.
            slot.result.platformCrashes += crash_attempts[u];
            slot.result.fault.crashRetries += crash_attempts[u];
            appendNote(slot.result.fault.note,
                       "sandbox: " + crash_notes[u]);
        }
        record_outcome(u);
    };

    const SandboxPool::LossFn loss_fn =
        [&](std::size_t u, const WorkerLoss &loss) -> bool {
        const auto [c, t] = units[u];
        TestOutcome &slot = outcomes[c][t];

        if (loss.kind == WorkerLossKind::HardKill) {
            slot = TestOutcome{};
            slot.status = TestStatus::Hung;
            slot.ok = false;
            slot.hungAttempts = 1;
            slot.result.fault.note = "sandbox: " + loss.describe();
            warn("test " + std::to_string(t) + " of " +
                 configs[c].name() +
                 " hung non-cooperatively; worker reclaimed by "
                 "SIGKILL");
            record_outcome(u);
            return false;
        }

        ++crash_attempts[u];
        appendNote(crash_notes[u], loss.describe());
        warn("test " + std::to_string(t) + " of " + configs[c].name() +
             " lost its worker (death " +
             std::to_string(crash_attempts[u]) + "): " +
             loss.describe());
        if (crash_attempts[u] <= campaign.recovery.crashRetries)
            return true; // retry on the freshly respawned worker

        slot = TestOutcome{};
        slot.status = TestStatus::Failed;
        slot.ok = false;
        slot.result.platformCrashes = crash_attempts[u];
        slot.result.fault.crashRetries = campaign.recovery.crashRetries;
        slot.result.fault.note = "sandbox: " + crash_notes[u];
        record_outcome(u);
        return false;
    };

    pool.run(units.size(), request_fn, result_fn, loss_fn);
}

/**
 * Distributed unit engine: serve the campaign's flat unit list over
 * the TCP fabric (src/dist/coordinator.h) to a forked loopback fleet
 * plus any externally attached mtc_worker processes. The parent keeps
 * the journal, the breaker and the outcome slots, exactly as in
 * sandboxed mode.
 *
 * The loss policy is where distributed deliberately differs from
 * sandboxed: a lost worker is a *fabric* event, not a platform crash
 * — the unit's leased work simply never happened, and reassignment
 * re-executes it from its pre-derived seeds to the very same result.
 * So losses are not charged to the outcome (no platformCrashes, no
 * crash-retry budget), which is what keeps the summary bit-identical
 * to a serial run even when workers die mid-batch. Only a unit that
 * keeps losing workers past the reassignment cap is abandoned and
 * recorded Failed.
 */
void
runUnitsDistributed(
    const std::vector<TestConfig> &configs,
    const CampaignConfig &campaign,
    const std::vector<ConfigPlan> &plans,
    const std::vector<std::pair<std::size_t, std::size_t>> &units,
    std::vector<std::vector<TestOutcome>> &outcomes,
    const std::function<bool(std::size_t)> &resolve_without_running,
    const std::function<void(std::size_t)> &record_outcome)
{
    FabricConfig fabric;
    fabric.port = campaign.distPort;
    fabric.host = campaign.distHost;
    fabric.batchSize = campaign.distBatch;
    fabric.maxInFlightPerWorker = campaign.distMaxInFlight;
    fabric.heartbeatTimeoutMs = campaign.distHeartbeatTimeoutMs;
    fabric.leaseTimeoutMs = campaign.distLeaseTimeoutMs;
    fabric.netFault = campaign.distNetFault;
    // Chaos mode needs lease revocation for liveness: a dropped Lease
    // (or Result) frame leaves a healthy, heartbeating worker that
    // will never serve that lease, and only the lease timeout can
    // reclaim it. Heartbeat liveness cannot — the worker isn't dead.
    if (fabric.netFault.any() && fabric.leaseTimeoutMs == 0)
        fabric.leaseTimeoutMs = 5000;
    // A loopback fleet that died for good must fail the campaign, not
    // hang it; an external fleet is the operator's to attach whenever.
    fabric.stallTimeoutMs = campaign.distWorkers ? 60000 : 0;
    if (!campaign.distKeyFile.empty())
        fabric.key = loadFabricKey(campaign.distKeyFile);
    fabric.auditRate = campaign.distAuditRate;
    // The audit sample must be reproducible for a given campaign but
    // uncorrelated with every other consumer of the seed.
    std::uint64_t audit_seed_src =
        campaign.seed ^ 0xa5a5a5a55a5a5a5aull;
    fabric.auditSeed = splitMix64(audit_seed_src);

    CampaignSpec spec;
    spec.configs = configs;
    spec.campaign = campaign;
    Coordinator coordinator(fabric, encodeCampaignSpec(spec));

    if (!campaign.distPortFile.empty()) {
        std::ofstream port_file(campaign.distPortFile,
                                std::ios::trunc);
        port_file << coordinator.port() << '\n';
        if (!port_file)
            throw ConfigError("cannot write coordinator port to '" +
                              campaign.distPortFile + "'");
    }

    // Fork-before-threads: the coordinator is poll-based (no threads
    // yet), so the loopback fleet forks clean. Worker 0 carries the
    // die-mid-batch drill when armed.
    std::vector<pid_t> fleet;
    fleet.reserve(campaign.distWorkers);
    for (unsigned i = 0; i < campaign.distWorkers; ++i) {
        LoopbackWorkerOptions wopts;
        wopts.exitAfterUnits =
            i == 0 ? campaign.distDrillExitAfter : 0;
        // The Byzantine drill rides on the LAST worker so it never
        // collides with worker 0's exit drill, and an honest worker
        // exists to audit against whenever distWorkers >= 2.
        wopts.corruptResults = campaign.distDrillCorrupt &&
            i + 1 == campaign.distWorkers;
        wopts.key = fabric.key;
        wopts.netFault = campaign.distNetFault;
        wopts.listenerFd = coordinator.listenerFd();
        fleet.push_back(
            forkCampaignWorker(coordinator.port(), i, wopts));
    }
    const auto reap_fleet = [&fleet](bool kill_first) {
        for (const pid_t pid : fleet) {
            if (kill_first)
                ::kill(pid, SIGKILL);
            try {
                waitChild(pid);
            } catch (const ProcessError &) {
                // Already reaped or never existed; nothing to do.
            }
        }
        fleet.clear();
    };

    const Coordinator::RequestFn request_fn =
        [&](std::size_t u) -> std::optional<std::vector<std::uint8_t>> {
        if (resolve_without_running(u))
            return std::nullopt;
        const auto [c, t] = units[u];
        return encodeUnitRequest(c, t);
    };

    const Coordinator::ResultFn result_fn =
        [&](std::size_t u, const std::vector<std::uint8_t> &payload) {
        const auto [c, t] = units[u];
        UnitRecord record = decodeUnitRecord(payload);
        const TestPlan &plan = plans[c].tests[t];
        if (record.configName != configs[c].name() ||
            record.testIndex != t || record.genSeed != plan.genSeed ||
            record.flowSeed != plan.flowSeed) {
            throw DistError(
                "fabric: worker response does not match the leased "
                "unit (test " + std::to_string(t) + " of " +
                configs[c].name() + ")");
        }
        outcomes[c][t] = record.outcome;
        record_outcome(u);
    };

    // Reassignments per unit before giving up. Generous on purpose: a
    // reassigned unit costs one re-execution, an abandoned unit costs
    // a campaign hole.
    constexpr unsigned kMaxUnitLosses = 8;
    const Coordinator::LossFn loss_fn =
        [&](std::size_t u, unsigned losses,
            const std::string &why) -> bool {
        const auto [c, t] = units[u];
        if (losses <= kMaxUnitLosses)
            return true; // reassign; the re-execution is bit-identical
        TestOutcome &slot = outcomes[c][t];
        slot = TestOutcome{};
        slot.status = TestStatus::Failed;
        slot.ok = false;
        slot.result.fault.note = "fabric: abandoned after " +
            std::to_string(losses) + " worker losses (" + why + ")";
        warn("test " + std::to_string(t) + " of " + configs[c].name() +
             " abandoned after " + std::to_string(losses) +
             " worker losses");
        record_outcome(u);
        return false;
    };

    // Byzantine-audit hooks. The digest is payload-level and
    // timing-blind; the arbiter re-executes a unit in the coordinator
    // process from the same pre-derived plan the workers use, so its
    // record is the ground truth any honest worker reproduces. Its
    // watchdog is created lazily on first arbitration — after every
    // fork above, preserving fork-before-threads.
    std::unique_ptr<Watchdog> arbiter_watchdog;
    Coordinator::AuditHooks hooks;
    hooks.digest = [](std::size_t,
                      const std::vector<std::uint8_t> &payload) {
        return unitRecordDigest(payload);
    };
    hooks.arbiter =
        [&](std::size_t u) -> std::vector<std::uint8_t> {
        const auto [c, t] = units[u];
        if (campaign.testTimeoutMs && !arbiter_watchdog)
            arbiter_watchdog = std::make_unique<Watchdog>();
        UnitRecord record;
        record.configName = configs[c].name();
        record.testIndex = static_cast<std::uint32_t>(t);
        record.genSeed = plans[c].tests[t].genSeed;
        record.flowSeed = plans[c].tests[t].flowSeed;
        // Match the worker-side runner exactly: hard-failure drills
        // are sandbox-scoped and zeroed on the fabric (see
        // dist_campaign.h).
        FlowConfig flow = plans[c].flow;
        flow.exec.dieAfterRuns = 0;
        flow.exec.leakAfterRuns = 0;
        record.outcome = runPlannedTest(
            configs[c], flow, plans[c].tests[t], campaign,
            static_cast<unsigned>(t), arbiter_watchdog.get());
        record.outcome.result.executions.clear();
        return encodeUnitRecord(record);
    };

    try {
        coordinator.run(units.size(), request_fn, result_fn, loss_fn,
                        hooks);
    } catch (...) {
        if (campaign.distStatsOut)
            *campaign.distStatsOut = coordinator.stats();
        reap_fleet(true);
        throw;
    }
    if (campaign.distStatsOut)
        *campaign.distStatsOut = coordinator.stats();
    // Done has been broadcast; the fleet drains and exits on its own.
    reap_fleet(false);
}

/**
 * Shared engine of runConfig and runCampaign. Plans every
 * configuration up front so the whole campaign is one flat list of
 * independent (config, test) units — the pool then keeps every worker
 * busy across configuration boundaries instead of draining at the
 * tail of each configuration — and runs each unit through the full
 * resilience stack: journal replay, circuit breaker, watchdog,
 * retries, journal append.
 *
 * @param propagate_setup_errors true (runConfig) rethrows a config
 *        whose setup fails; false (runCampaign) degrades its summary
 *        and continues.
 */
std::vector<ConfigSummary>
runUnits(const std::vector<TestConfig> &configs,
         const CampaignConfig &campaign, bool propagate_setup_errors)
{
    if (campaign.resume && campaign.journalPath.empty())
        throw ConfigError(
            "resume needs a journal (--journal PATH or MTC_JOURNAL)");
    if (campaign.mode == ExecutionMode::Distributed) {
        in_addr probe{};
        if (::inet_pton(AF_INET, campaign.distHost.c_str(), &probe) != 1)
            throw ConfigError("coordinator host must be an IPv4 "
                              "address, got \"" + campaign.distHost +
                              "\"");
    }

    std::vector<ConfigPlan> plans(configs.size());
    std::vector<std::pair<std::size_t, std::size_t>> units;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        // Degraded-summary path: a configuration that cannot even be
        // set up yields a marked summary instead of unwinding the
        // remaining configurations.
        try {
            plans[c].flow = flowTemplate(configs[c], campaign);
            plans[c].tests = deriveTestPlans(configs[c], campaign);
            plans[c].setupOk = true;
        } catch (const Error &err) {
            if (propagate_setup_errors)
                throw;
            warn("configuration " + configs[c].name() +
                 " failed, continuing campaign: " + err.what());
            plans[c].error = err.what();
            continue;
        }
        for (std::size_t t = 0; t < plans[c].tests.size(); ++t)
            units.emplace_back(c, t);
    }

    std::vector<std::vector<TestOutcome>> outcomes(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        outcomes[c].resize(plans[c].tests.size());
    // Written once per unit, by whichever thread resolves it.
    std::vector<std::uint8_t> replayed(units.size(), 0);

    std::unique_ptr<CampaignJournal> journal;
    if (!campaign.journalPath.empty()) {
        journal = std::make_unique<CampaignJournal>(
            campaign.journalPath, campaignIdentity(configs, campaign),
            campaign.resume);
    }
    // Fork-before-threads: in sandboxed mode the parent spawns NO
    // watchdog (and, below, no thread pool) — the fleet is forked
    // from a single-threaded parent, and each worker child lazily
    // builds its own watchdog after the fork. The parent-side reclaim
    // for non-cooperative hangs is the sandbox's hard-deadline
    // SIGKILL, not a thread.
    std::unique_ptr<Watchdog> watchdog;
    if (campaign.testTimeoutMs &&
        campaign.mode == ExecutionMode::InProcess)
        watchdog = std::make_unique<Watchdog>();

    // One breaker per configuration; value-initialized to zero.
    std::vector<std::atomic<unsigned>> error_events(configs.size());
    const auto config_tripped = [&](std::size_t c) {
        return campaign.errorBudget != 0 &&
            error_events[c].load(std::memory_order_relaxed) >=
            campaign.errorBudget;
    };

    // True when unit u resolves without running — tripped breaker or
    // journal replay — filling its slot. Shared by both execution
    // modes so replay/skip semantics cannot drift between them.
    const auto resolve_without_running = [&](std::size_t u) -> bool {
        const auto [c, t] = units[u];
        TestOutcome &slot = outcomes[c][t];

        if (config_tripped(c)) {
            slot.status = TestStatus::Skipped;
            return true;
        }

        if (journal) {
            if (const UnitRecord *record = journal->find(
                    configs[c].name(), static_cast<std::uint32_t>(t))) {
                const TestPlan &plan = plans[c].tests[t];
                if (record->genSeed != plan.genSeed ||
                    record->flowSeed != plan.flowSeed) {
                    throw ConfigError(
                        "--resume: journal record for test " +
                        std::to_string(t) + " of " + configs[c].name() +
                        " carries different seeds than the campaign "
                        "derives — the journal belongs to another run");
                }
                slot = record->outcome;
                replayed[u] = 1;
                // Replayed errors still arm the breaker: a resumed
                // campaign must not forget the poison it already saw.
                error_events[c].fetch_add(breakerEvents(slot),
                                          std::memory_order_relaxed);
                return true;
            }
        }
        return false;
    };

    // Journal unit u's finished slot and charge its breaker.
    const auto record_outcome = [&](std::size_t u) {
        const auto [c, t] = units[u];
        const TestOutcome &slot = outcomes[c][t];
        if (journal) {
            UnitRecord record;
            record.configName = configs[c].name();
            record.testIndex = static_cast<std::uint32_t>(t);
            record.genSeed = plans[c].tests[t].genSeed;
            record.flowSeed = plans[c].tests[t].flowSeed;
            record.outcome = slot;
            record.outcome.result.executions.clear();
            journal->append(record);
        }
        error_events[c].fetch_add(breakerEvents(slot),
                                  std::memory_order_relaxed);
    };

    const auto run_unit = [&](std::size_t u) {
        if (resolve_without_running(u))
            return;
        const auto [c, t] = units[u];
        outcomes[c][t] = runPlannedTest(configs[c], plans[c].flow,
                                        plans[c].tests[t], campaign,
                                        static_cast<unsigned>(t),
                                        watchdog.get());
        record_outcome(u);
    };

    if (campaign.mode == ExecutionMode::Sandboxed) {
        runUnitsSandboxed(configs, campaign, plans, units, outcomes,
                          resolve_without_running, record_outcome);
    } else if (campaign.mode == ExecutionMode::Distributed) {
        runUnitsDistributed(configs, campaign, plans, units, outcomes,
                            resolve_without_running, record_outcome);
    } else {
        const unsigned workers =
            ThreadPool::resolveThreads(campaign.threads);
        if (workers > 1 && units.size() > 1) {
            ThreadPool pool(workers);
            pool.parallelFor(units.size(), run_unit);
        } else {
            for (std::size_t u = 0; u < units.size(); ++u)
                run_unit(u);
        }
    }

    if (!campaign.dumpTracePath.empty()) {
        std::vector<std::vector<TestPlan>> trace_plans(configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c)
            trace_plans[c] = plans[c].tests;
        writeCampaignTrace(campaign.dumpTracePath, configs, campaign,
                           trace_plans, outcomes);
    }

    std::vector<ConfigSummary> summaries;
    summaries.reserve(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        if (!plans[c].setupOk) {
            ConfigSummary degraded;
            degraded.cfg = configs[c];
            degraded.degraded = true;
            degraded.error = plans[c].error;
            summaries.push_back(std::move(degraded));
            continue;
        }
        summaries.push_back(summarizeConfig(configs[c], outcomes[c],
                                            campaign.errorBudget));
    }
    for (std::size_t u = 0; u < units.size(); ++u)
        summaries[units[u].first].replayedUnits += replayed[u];
    return summaries;
}

} // anonymous namespace

CampaignJournal::Identity
campaignIdentity(const std::vector<TestConfig> &configs,
                 const CampaignConfig &campaign)
{
    // Everything that determines a campaign's deterministic result
    // stream is folded in; operational knobs (threads, watchdog
    // timeout, error budget) are deliberately left out — they may
    // change between a run and its resume, or between a dump and its
    // offline re-check.
    ByteWriter w;
    w.u64(campaign.iterations);
    w.u32(campaign.testsPerConfig);
    w.u64(campaign.seed);
    w.u8(static_cast<std::uint8_t>(campaign.variant));
    w.u8(campaign.model ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(campaign.model.value_or(MemoryModel{})));
    w.u8(static_cast<std::uint8_t>(campaign.bug));
    w.f64(campaign.bugProbability);
    w.u32(campaign.cacheLines);
    w.u8(campaign.runConventional ? 1 : 0);
    w.f64(campaign.fault.bitFlipRate);
    w.f64(campaign.fault.tornStoreRate);
    w.f64(campaign.fault.truncationRate);
    w.f64(campaign.fault.dropRate);
    w.f64(campaign.fault.duplicateRate);
    w.u64(campaign.fault.seed);
    w.u32(campaign.recovery.confirmationRuns);
    w.u64(campaign.recovery.confirmationIterations);
    w.u32(campaign.recovery.crashRetries);
    w.u32(campaign.testRetries);
    // Retired slot: the collective checker's shard size. It keeps
    // its old default, 0, so journals and traces written by unsharded
    // campaigns before sharding was removed keep their identity.
    w.u64(0);
    w.u64(campaign.stallAfterSteps);
    // The drills change the deterministic result stream; the
    // execution mode and sandbox budgets do not (a journal written in
    // one mode resumes in the other), so only the former are folded.
    w.u8(campaign.stallUncooperative ? 1 : 0);
    w.u64(campaign.dieAfterRuns);
    w.u32(static_cast<std::uint32_t>(campaign.dieSignal));
    w.u64(campaign.leakAfterRuns);
    w.u32(static_cast<std::uint32_t>(configs.size()));
    std::string names;
    for (const TestConfig &cfg : configs) {
        w.str(cfg.name());
        names += names.empty() ? "" : ",";
        names += cfg.name();
    }

    CampaignJournal::Identity identity;
    identity.digest =
        fnv1a64(w.bytes().data(), w.bytes().size());
    identity.description = "seed=" + std::to_string(campaign.seed) +
        " iterations=" + std::to_string(campaign.iterations) +
        " tests=" + std::to_string(campaign.testsPerConfig) +
        " configs=" + names;
    return identity;
}

ConfigSummary
summarizeConfig(const TestConfig &cfg,
                const std::vector<TestOutcome> &outcomes,
                unsigned error_budget)
{
    // Recompute the breaker charge from the slots. Inline this equals
    // the engine's live counter — every non-skipped slot was charged
    // exactly once (run, replay, or loss path) and skipped slots
    // charge nothing — so the offline checker reproduces tripped /
    // degraded verdicts from the trace alone.
    unsigned events = 0;
    for (const TestOutcome &outcome : outcomes)
        events += breakerEvents(outcome);
    const bool tripped = error_budget != 0 && events >= error_budget;

    ConfigSummary summary = summarize(cfg, outcomes, tripped, events);
    if (summary.tripped) {
        summary.degraded = true;
        summary.error = "circuit breaker tripped after " +
            std::to_string(summary.errorEvents) +
            " error events (budget " + std::to_string(error_budget) +
            "); " + std::to_string(summary.skippedTests) + " of " +
            std::to_string(outcomes.size()) + " tests skipped";
    }
    return summary;
}

ConfigSummary
runConfig(const TestConfig &cfg, const CampaignConfig &campaign)
{
    return runUnits({cfg}, campaign, true).front();
}

std::vector<ConfigSummary>
runCampaign(const std::vector<TestConfig> &configs,
            const CampaignConfig &campaign)
{
    return runUnits(configs, campaign, false);
}

} // namespace mtc
