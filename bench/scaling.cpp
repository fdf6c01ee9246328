/**
 * @file
 * Parallel-scaling sweep of the validation engine: campaign
 * throughput across worker-thread counts and the collective checker's
 * sharding tax, emitted as BENCH_scaling.json so the perf trajectory
 * is tracked from PR to PR.
 *
 * Two sweeps:
 *  - threads: the same campaign run with 1, 2, 4, 8 workers.
 *    Summaries must be bit-identical to the 1-thread baseline (the
 *    sweep hard-checks this and reports `deterministic` per point);
 *    speedup is wall-clock relative to 1 thread.
 *  - shards: the baseline campaign's units re-derived from their
 *    plans and their unique executions checked by
 *    checkCollectiveSharded (below; no shipped path shards) across
 *    shard sizes. Each shard trades one extra complete sort for
 *    independence from the others — the paper's parallelization
 *    tax — so the sweep records the checker work and complete sorts
 *    per shard size, and fails unless every sharded verdict equals
 *    the unsharded one and no shard costs more than one extra
 *    complete sort.
 *
 * A third measurement prices the crash-resilience layer: the serial
 * baseline re-run with a write-ahead campaign journal attached
 * (one fsync-batched record per completed test), then resumed from
 * that journal so the replay path is timed too.  Summaries must stay
 * bit-identical in both modes; the JSON records the overhead as a
 * fraction of baseline wall-clock.
 *
 * A companion measurement prices the offline-checking split: the
 * baseline re-run with a trace dump attached (the --dump-trace
 * producer), the dumped trace re-verified standalone by checkTrace
 * (what mtc_check runs), and a 10%-truncated copy recovered through
 * the degraded path. Dump overhead, standalone-check speedup versus
 * the inline run, and recovery time land in the `trace_check` block;
 * the intact check must reproduce the baseline summaries bit-for-bit
 * and the torn check must yield only classified faults.
 *
 * With --sandbox a fourth sweep prices the out-of-process execution
 * sandbox: the same campaign dispatched by the fabric coordinator to a
 * pre-forked worker fleet over socketpairs at several worker counts. The
 * overhead fraction against the serial in-process baseline and its
 * per-unit amortization (fork is paid once, dispatch per unit) land
 * in the JSON; summaries must stay bit-identical at every count.
 *
 * With --distributed a fifth sweep prices the TCP campaign fabric:
 * the same campaign served by a loopback coordinator to forked
 * mtc_worker-equivalent fleets at several fleet sizes (the sandbox's
 * protocol over TCP, plus heartbeats and two-unit leases).
 * Summaries must stay bit-identical at every fleet size.
 *
 * Wall-clock speedup is bounded by the machine: the JSON records
 * hardwareConcurrency so a 1-core CI container's speedup of ~1.0 is
 * read as "no cores", not "no scaling".
 *
 * Scale with MTC_SCALING_TESTS / MTC_ITERATIONS; --smoke runs a
 * seconds-scale version of the full sweep (CI keeps the emitter from
 * rotting).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/collective_checker.h"
#include "graph/graph_builder.h"
#include "harness/campaign.h"
#include "harness/campaign_plan.h"
#include "harness/trace_check.h"
#include "harness/validation_flow.h"
#include "support/table.h"
#include "support/timer.h"
#include "testgen/generator.h"

using namespace mtc;

namespace
{

/** Deterministic-summary comparison: every field except wall-clock. */
bool
summariesMatch(const std::vector<ConfigSummary> &a,
               const std::vector<ConfigSummary> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const ConfigSummary &x = a[i], &y = b[i];
        if (x.tests != y.tests ||
            x.avgUniqueSignatures != y.avgUniqueSignatures ||
            x.avgSignatureBytes != y.avgSignatureBytes ||
            x.avgCodeRatio != y.avgCodeRatio ||
            x.collectiveWork != y.collectiveWork ||
            x.conventionalWork != y.conventionalWork ||
            x.collectiveGraphs != y.collectiveGraphs ||
            x.collectiveCompleteSorts != y.collectiveCompleteSorts ||
            x.fracComplete != y.fracComplete ||
            x.fracNoResort != y.fracNoResort ||
            x.fracIncremental != y.fracIncremental ||
            x.avgAffectedFraction != y.avgAffectedFraction ||
            x.avgComputationOverhead != y.avgComputationOverhead ||
            x.avgSortingOverhead != y.avgSortingOverhead ||
            x.violations != y.violations ||
            x.quarantinedSignatures != y.quarantinedSignatures ||
            x.confirmedViolations != y.confirmedViolations ||
            x.failedTests != y.failedTests ||
            x.degraded != y.degraded)
            return false;
    }
    return true;
}

struct SweepPoint
{
    unsigned threads = 1;
    double ms = 0.0;
    double speedup = 1.0;
    std::uint64_t collectiveWork = 0;
    std::uint64_t completeSorts = 0;
    bool deterministic = true;
};

std::uint64_t
totalCollectiveWork(const std::vector<ConfigSummary> &summaries)
{
    std::uint64_t work = 0;
    for (const ConfigSummary &s : summaries)
        work += s.collectiveWork;
    return work;
}

std::uint64_t
totalCompleteSorts(const std::vector<ConfigSummary> &summaries)
{
    std::uint64_t sorts = 0;
    for (const ConfigSummary &s : summaries)
        sorts += s.collectiveCompleteSorts;
    return sorts;
}

/**
 * Check an ordered batch cut into contiguous shards of @p shard_size
 * edge sets, one fresh CollectiveChecker per shard, shard after shard.
 * Each shard starts without a maintained order and so pays one extra
 * complete sort, but shards share no state, so the verdicts equal an
 * unsharded check's. @p shard_size 0 checks unsharded. Verdicts come
 * back in batch order; @p stats receives the merged accounting of all
 * shards.
 */
std::vector<bool>
checkCollectiveSharded(const TestProgram &program, MemoryModel model,
                       const std::vector<DynamicEdgeSet> &ordered,
                       std::size_t shard_size, CollectiveStats &stats)
{
    const std::size_t step = shard_size ? shard_size : ordered.size();
    std::vector<bool> verdicts;
    verdicts.reserve(ordered.size());
    for (std::size_t begin = 0; begin < ordered.size(); begin += step) {
        const std::size_t end = std::min(begin + step, ordered.size());
        CollectiveChecker checker(program, model);
        for (std::size_t i = begin; i < end; ++i)
            verdicts.push_back(checker.checkNext(ordered[i]));
        stats.merge(checker.stats());
    }
    return verdicts;
}

/** Totals of checkCollectiveSharded over a campaign at one shard size. */
struct ShardPoint
{
    std::size_t shardSize = 0;
    std::uint64_t shards = 0;
    std::uint64_t collectiveWork = 0;
    std::uint64_t completeSorts = 0;
    bool verdictsMatch = true; ///< every verdict equals the unsharded one
    bool taxBounded = true;    ///< <= 1 extra complete sort per shard
};

/**
 * Re-derive every unit of @p campaign over @p configs from its plan
 * (deriveTestPlans and flowTemplate, the seeds runCampaign's first
 * attempt uses), keep its unique executions in ascending signature
 * order, and check their edge sets at each of @p shard_sizes, whose
 * first entry must be 0 (the unsharded reference).
 */
std::vector<ShardPoint>
shardSweep(const std::vector<TestConfig> &configs,
           const CampaignConfig &campaign,
           const std::vector<std::size_t> &shard_sizes)
{
    std::vector<ShardPoint> points(shard_sizes.size());
    for (std::size_t i = 0; i < shard_sizes.size(); ++i)
        points[i].shardSize = shard_sizes[i];
    for (const TestConfig &cfg : configs) {
        FlowConfig flow = flowTemplate(cfg, campaign);
        flow.keepExecutions = true;
        const MemoryModel model =
            flow.coherent ? flow.coherent->model : flow.exec.model;
        for (const TestPlan &plan : deriveTestPlans(cfg, campaign)) {
            const TestProgram program = generateTest(cfg, plan.genSeed);
            flow.seed = plan.flowSeed;
            const FlowResult result = ValidationFlow(flow).runTest(program);
            std::vector<DynamicEdgeSet> ordered;
            ordered.reserve(result.executions.size());
            for (const Execution &execution : result.executions)
                ordered.push_back(dynamicEdges(program, execution));

            std::vector<bool> unsharded;
            std::uint64_t unsharded_sorts = 0;
            for (ShardPoint &point : points) {
                CollectiveStats stats;
                const std::vector<bool> verdicts = checkCollectiveSharded(
                    program, model, ordered, point.shardSize, stats);
                const std::uint64_t shards = point.shardSize
                    ? (ordered.size() + point.shardSize - 1) /
                        point.shardSize
                    : 1;
                if (point.shardSize == 0) {
                    unsharded = verdicts;
                    unsharded_sorts = stats.completeSorts;
                }
                point.shards += shards;
                point.collectiveWork +=
                    stats.verticesProcessed + stats.edgesProcessed;
                point.completeSorts += stats.completeSorts;
                point.verdictsMatch =
                    point.verdictsMatch && verdicts == unsharded;
                point.taxBounded = point.taxBounded &&
                    stats.completeSorts <= unsharded_sorts + shards;
            }
        }
    }
    return points;
}

std::string
jsonEscapeless(double v)
{
    std::ostringstream out;
    out << v;
    return out.str();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool sandbox = false;
    bool distributed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--sandbox") {
            sandbox = true;
        } else if (arg == "--distributed") {
            distributed = true;
        } else {
            std::cerr << "scaling: unknown option " << arg
                      << " (only --smoke, --sandbox and "
                         "--distributed)\n";
            return 1;
        }
    }

    unsigned tests = smoke ? 2 : 12;
    std::uint64_t iterations = smoke ? 48 : 512;
    try {
        if (const char *env = std::getenv("MTC_SCALING_TESTS"))
            tests = static_cast<unsigned>(
                parseEnvCount("MTC_SCALING_TESTS", env));
        if (const char *env = std::getenv("MTC_ITERATIONS"))
            iterations = parseEnvCount("MTC_ITERATIONS", env);
    } catch (const Error &err) {
        std::cerr << "scaling: " << err.what() << "\n";
        return 1;
    }

    const std::vector<TestConfig> configs = {
        parseConfigName("x86-4-100-64"),
        parseConfigName("ARM-4-100-64"),
    };

    CampaignConfig base;
    base.iterations = iterations;
    base.testsPerConfig = tests;
    base.runConventional = false;

    const unsigned hw = std::thread::hardware_concurrency();
    std::cout << "Parallel-scaling sweep: " << configs.size()
              << " configs x " << tests << " tests x " << iterations
              << " iterations (hardware threads: " << hw << ")\n\n";

    // --- Baseline (1 worker, unsharded) ------------------------------
    CampaignConfig serial = base;
    serial.threads = 1;
    std::vector<ConfigSummary> baseline_summaries;
    double baseline_ms = 0.0;
    {
        WallTimer timer;
        ScopedTimer scope(timer);
        baseline_summaries = runCampaign(configs, serial);
        baseline_ms = timer.milliseconds();
    }

    std::vector<SweepPoint> points;

    // --- Thread sweep ------------------------------------------------
    const std::vector<unsigned> thread_counts =
        smoke ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 4, 8};
    for (unsigned threads : thread_counts) {
        CampaignConfig cfg = base;
        cfg.threads = threads;
        WallTimer timer;
        timer.start();
        const auto summaries = runCampaign(configs, cfg);
        timer.stop();

        SweepPoint point;
        point.threads = threads;
        point.ms = timer.milliseconds();
        point.speedup = point.ms > 0.0 ? baseline_ms / point.ms : 0.0;
        point.collectiveWork = totalCollectiveWork(summaries);
        point.completeSorts = totalCompleteSorts(summaries);
        point.deterministic =
            summariesMatch(summaries, baseline_summaries);
        points.push_back(point);
    }

    // --- Batch-width sweep (serial) ----------------------------------
    // Methodology: the serial baseline campaign re-run at several
    // lockstep batch widths (FlowConfig::batch). B=1 is scalar
    // stepping; wider batches amortize instruction dispatch and the
    // per-batch OrderTable across lanes. Summaries must stay
    // bit-identical at every width (pre-derived per-iteration RNG
    // streams make the width purely operational); speedup is
    // wall-clock against the B=1 point of this sweep, so the number
    // isolates the lockstep engine from everything else.
    struct BatchPoint
    {
        std::uint32_t batch = 1;
        double ms = 0.0;
        double speedupVsScalar = 1.0;
        bool deterministic = true;
    };
    std::vector<BatchPoint> batch_points;
    {
        const std::vector<std::uint32_t> widths =
            smoke ? std::vector<std::uint32_t>{1, 8}
                  : std::vector<std::uint32_t>{1, 4, 8, 16, 32, 64};
        double scalar_ms = 0.0;
        for (std::uint32_t width : widths) {
            CampaignConfig cfg = serial;
            cfg.batch = width;
            WallTimer timer;
            timer.start();
            const auto summaries = runCampaign(configs, cfg);
            timer.stop();

            BatchPoint point;
            point.batch = width;
            point.ms = timer.milliseconds();
            if (width == 1)
                scalar_ms = point.ms;
            point.speedupVsScalar =
                point.ms > 0.0 && scalar_ms > 0.0
                ? scalar_ms / point.ms
                : 1.0;
            point.deterministic =
                summariesMatch(summaries, baseline_summaries);
            batch_points.push_back(point);
        }
    }

    // --- Shard sweep (serial work counts) -----------------------------
    // The tax is a count of checker work, so the shards are checked
    // one after another and no wall-clock is recorded. The unsharded
    // point must reproduce the baseline campaign's own checker work:
    // the sweep re-derives exactly the units runCampaign checked.
    const std::vector<ShardPoint> shard_points = shardSweep(
        configs, serial,
        smoke ? std::vector<std::size_t>{0, 8}
              : std::vector<std::size_t>{0, 8, 32, 128});
    const bool shard_reproduces_campaign =
        shard_points.front().collectiveWork ==
            totalCollectiveWork(baseline_summaries) &&
        shard_points.front().completeSorts ==
            totalCompleteSorts(baseline_summaries);

    // --- Journal overhead (serial, journaled, then resumed) ----------
    // Methodology: the journal run is the exact serial baseline
    // campaign with --journal attached, so the delta is purely the
    // checkpoint layer (record encode + append + batched fsync).  The
    // resume run replays every test from the same journal, pricing the
    // decode/replay path.  Both must reproduce the baseline summaries
    // bit-for-bit or the resilience layer is broken, not just slow.
    const std::string journal_path =
        (std::filesystem::temp_directory_path() /
         ("mtc_scaling_journal." + std::to_string(::getpid())))
            .string();
    double journal_ms = 0.0, resume_ms = 0.0;
    bool journal_deterministic = true;
    {
        CampaignConfig cfg = serial;
        cfg.journalPath = journal_path;
        WallTimer timer;
        timer.start();
        const auto summaries = runCampaign(configs, cfg);
        timer.stop();
        journal_ms = timer.milliseconds();
        journal_deterministic =
            summariesMatch(summaries, baseline_summaries);

        cfg.resume = true;
        WallTimer resume_timer;
        resume_timer.start();
        const auto replayed = runCampaign(configs, cfg);
        resume_timer.stop();
        resume_ms = resume_timer.milliseconds();
        journal_deterministic =
            journal_deterministic &&
            summariesMatch(replayed, baseline_summaries);
    }
    std::remove(journal_path.c_str());
    const double journal_overhead =
        baseline_ms > 0.0 ? (journal_ms - baseline_ms) / baseline_ms
                          : 0.0;

    // --- Offline trace check (dump, standalone check, recovery) ------
    // Methodology: the serial baseline campaign re-run with a trace
    // dump attached, so the delta prices the producer alone (header +
    // one framed signature-stream record per unit, written from the
    // parent-side slots after the campaign). The standalone check
    // then re-verifies the dumped trace with checkTrace — re-deriving
    // every test from the spec's seeds and re-running the checking
    // stage, but never the platform executions — and must reproduce
    // the baseline summaries bit-for-bit. The recovery point
    // re-checks a copy truncated to 90% of its bytes: the degraded
    // path must land on classified faults over the longest intact
    // prefix (never a throw), and its wall-clock prices recovery.
    const std::string trace_path =
        (std::filesystem::temp_directory_path() /
         ("mtc_scaling_trace." + std::to_string(::getpid())))
            .string();
    const std::string torn_trace_path = trace_path + ".torn";
    double dump_ms = 0.0, check_ms = 0.0, recovery_ms = 0.0;
    std::size_t recovery_verified = 0, recovery_missing = 0;
    std::size_t recovery_faults = 0;
    bool trace_deterministic = true;
    bool recovery_classified = true;
    {
        CampaignConfig cfg = serial;
        cfg.dumpTracePath = trace_path;
        WallTimer timer;
        timer.start();
        const auto summaries = runCampaign(configs, cfg);
        timer.stop();
        dump_ms = timer.milliseconds();
        trace_deterministic =
            summariesMatch(summaries, baseline_summaries);

        TraceCheckOptions check;
        check.tracePath = trace_path;
        WallTimer check_timer;
        check_timer.start();
        const TraceCheckReport report = checkTrace(check);
        check_timer.stop();
        check_ms = check_timer.milliseconds();
        trace_deterministic = trace_deterministic &&
            !report.anyFault() &&
            summariesMatch(report.summaries, baseline_summaries);

        const std::uintmax_t full_bytes =
            std::filesystem::file_size(trace_path);
        std::filesystem::copy_file(
            trace_path, torn_trace_path,
            std::filesystem::copy_options::overwrite_existing);
        std::filesystem::resize_file(torn_trace_path,
                                     full_bytes - full_bytes / 10);
        TraceCheckOptions torn = check;
        torn.tracePath = torn_trace_path;
        WallTimer torn_timer;
        torn_timer.start();
        try {
            const TraceCheckReport degraded = checkTrace(torn);
            recovery_verified = degraded.unitsVerified;
            recovery_missing = degraded.missingUnits;
            recovery_faults = degraded.faults.size();
            recovery_classified = degraded.anyFault();
        } catch (const TraceError &) {
            recovery_classified = false; // degraded mode must degrade
        }
        torn_timer.stop();
        recovery_ms = torn_timer.milliseconds();
    }
    std::remove(trace_path.c_str());
    std::remove(torn_trace_path.c_str());
    const double dump_overhead =
        baseline_ms > 0.0 ? (dump_ms - baseline_ms) / baseline_ms
                          : 0.0;
    const double check_speedup =
        check_ms > 0.0 ? baseline_ms / check_ms : 0.0;

    // --- Sandbox dispatch overhead (--sandbox) -----------------------
    // Methodology: the exact serial baseline campaign re-run with
    // ExecutionMode::Sandboxed — every unit leased to a pre-forked
    // worker process over a socketpair — at several worker counts.
    // The fleet fork is paid once per campaign, the lease/result
    // frames per unit, so the JSON records both the total overhead
    // fraction against the in-process baseline and its per-unit
    // amortization. Summaries must stay bit-identical at every count
    // or the sandbox is broken, not just slow.
    struct SandboxPoint
    {
        unsigned workers = 1;
        double ms = 0.0;
        double overheadFraction = 0.0;
        double dispatchMsPerUnit = 0.0;
        bool deterministic = true;
    };
    std::vector<SandboxPoint> sandbox_points;
    if (sandbox) {
        const std::size_t unit_count = configs.size() * tests;
        const std::vector<unsigned> worker_counts =
            smoke ? std::vector<unsigned>{1, 2}
                  : std::vector<unsigned>{1, 2, 4, 8};
        for (unsigned workers : worker_counts) {
            CampaignConfig cfg = base;
            cfg.mode = ExecutionMode::Sandboxed;
            cfg.threads = workers;
            WallTimer timer;
            timer.start();
            const auto summaries = runCampaign(configs, cfg);
            timer.stop();

            SandboxPoint point;
            point.workers = workers;
            point.ms = timer.milliseconds();
            point.overheadFraction = baseline_ms > 0.0
                ? (point.ms - baseline_ms) / baseline_ms
                : 0.0;
            point.dispatchMsPerUnit = unit_count
                ? (point.ms - baseline_ms) /
                    static_cast<double>(unit_count)
                : 0.0;
            point.deterministic =
                summariesMatch(summaries, baseline_summaries);
            sandbox_points.push_back(point);
        }
    }

    // --- Distributed fabric overhead (--distributed) -----------------
    // Methodology: the exact serial baseline campaign re-run with
    // ExecutionMode::Distributed — a loopback TCP coordinator leasing
    // units to a forked worker fleet — at several fleet sizes. The
    // sandbox's coordinator and protocol over TCP instead of
    // socketpairs, plus heartbeats and the spec shipped down per
    // worker. Summaries must stay bit-identical at every
    // fleet size or the fabric is broken, not just slow.
    struct DistPoint
    {
        unsigned workers = 1;
        double ms = 0.0;
        double overheadFraction = 0.0;
        double dispatchMsPerUnit = 0.0;
        bool deterministic = true;
    };
    std::vector<DistPoint> dist_points;
    if (distributed) {
        const std::size_t unit_count = configs.size() * tests;
        const std::vector<unsigned> fleet_sizes =
            smoke ? std::vector<unsigned>{1, 2}
                  : std::vector<unsigned>{1, 2, 4, 8};
        for (unsigned workers : fleet_sizes) {
            CampaignConfig cfg = base;
            cfg.mode = ExecutionMode::Distributed;
            cfg.distWorkers = workers;
            WallTimer timer;
            timer.start();
            const auto summaries = runCampaign(configs, cfg);
            timer.stop();

            DistPoint point;
            point.workers = workers;
            point.ms = timer.milliseconds();
            point.overheadFraction = baseline_ms > 0.0
                ? (point.ms - baseline_ms) / baseline_ms
                : 0.0;
            point.dispatchMsPerUnit = unit_count
                ? (point.ms - baseline_ms) /
                    static_cast<double>(unit_count)
                : 0.0;
            point.deterministic =
                summariesMatch(summaries, baseline_summaries);
            dist_points.push_back(point);
        }
    }

    // --- Authenticated-fabric overhead (--distributed) ---------------
    // Methodology: the largest keyless fleet point re-run with a
    // pre-shared fabric key, so every session pays the HMAC-SHA256
    // challenge handshake once and every post-handshake frame carries
    // a 16-byte MAC plus an 8-byte sequence number. The overhead
    // fraction is measured against the keyless run of the same fleet
    // size — it prices authentication alone, not distribution.
    struct AuthPoint
    {
        double ms = 0.0;
        double overheadFraction = 0.0; ///< vs keyless, same fleet
        bool deterministic = true;
    };
    bool auth_measured = false;
    AuthPoint auth_point;
    // --- Chaos inflation (--distributed) -----------------------------
    // Methodology: the same fleet re-run under seeded symmetric
    // network faults (drop = dup = rate, corrupt = rate/2, both
    // directions). Faults cost reconnects, lease revocations and
    // re-sent frames, so completion time inflates with the rate —
    // but the summary must stay bit-identical to the serial baseline
    // at every rate, which is the property being priced.
    struct ChaosPoint
    {
        double rate = 0.0;
        double ms = 0.0;
        double inflationFraction = 0.0; ///< vs fault-free, same fleet
        bool deterministic = true;
    };
    std::vector<ChaosPoint> chaos_points;
    if (distributed && !dist_points.empty()) {
        const double plain_ms = dist_points.back().ms;
        const unsigned fleet = dist_points.back().workers;

        const std::string key_path = "BENCH_scaling.fabric.key";
        writeFile(key_path, std::string(32, 'b') + "\n");
        {
            CampaignConfig cfg = base;
            cfg.mode = ExecutionMode::Distributed;
            cfg.distWorkers = fleet;
            cfg.distKeyFile = key_path;
            WallTimer timer;
            timer.start();
            const auto summaries = runCampaign(configs, cfg);
            timer.stop();
            auth_point.ms = timer.milliseconds();
            auth_point.overheadFraction = plain_ms > 0.0
                ? (auth_point.ms - plain_ms) / plain_ms
                : 0.0;
            auth_point.deterministic =
                summariesMatch(summaries, baseline_summaries);
            auth_measured = true;
        }
        std::remove(key_path.c_str());

        const std::vector<double> fault_rates =
            smoke ? std::vector<double>{0.01}
                  : std::vector<double>{0.01, 0.03, 0.05};
        for (const double rate : fault_rates) {
            CampaignConfig cfg = base;
            cfg.mode = ExecutionMode::Distributed;
            cfg.distWorkers = fleet;
            cfg.distNetFault.send.drop = rate;
            cfg.distNetFault.recv.drop = rate;
            cfg.distNetFault.send.duplicate = rate;
            cfg.distNetFault.recv.duplicate = rate;
            cfg.distNetFault.send.corrupt = rate / 2;
            cfg.distNetFault.recv.corrupt = rate / 2;
            cfg.distNetFault.seed = 29;
            WallTimer timer;
            timer.start();
            const auto summaries = runCampaign(configs, cfg);
            timer.stop();

            ChaosPoint point;
            point.rate = rate;
            point.ms = timer.milliseconds();
            point.inflationFraction = plain_ms > 0.0
                ? (point.ms - plain_ms) / plain_ms
                : 0.0;
            point.deterministic =
                summariesMatch(summaries, baseline_summaries);
            chaos_points.push_back(point);
        }
    }

    // --- Report ------------------------------------------------------
    TablePrinter table({"threads", "ms", "speedup",
                        "collective work", "complete sorts",
                        "deterministic"});
    for (const SweepPoint &p : points) {
        table.addRow({TablePrinter::fmt(std::uint64_t(p.threads)),
                      TablePrinter::fmt(p.ms, 1),
                      TablePrinter::fmt(p.speedup, 2),
                      TablePrinter::fmt(p.collectiveWork),
                      TablePrinter::fmt(p.completeSorts),
                      p.deterministic ? "yes" : "NO"});
    }
    table.print(std::cout);
    std::cout << "\nWall-clock speedup is bounded by hardware threads ("
              << hw << " here).\n";

    std::cout << "\nCollective-checker shard tax (serial work counts; "
                 "shard 0 = unsharded):\n";
    TablePrinter st({"shard", "shards", "collective work",
                     "complete sorts", "verdicts", "tax <= 1 sort"});
    for (const ShardPoint &p : shard_points) {
        st.addRow({TablePrinter::fmt(std::uint64_t(p.shardSize)),
                   TablePrinter::fmt(p.shards),
                   TablePrinter::fmt(p.collectiveWork),
                   TablePrinter::fmt(p.completeSorts),
                   p.verdictsMatch ? "same" : "DIFFER",
                   p.taxBounded ? "yes" : "NO"});
    }
    st.print(std::cout);
    std::cout << "Each shard pays one extra complete sort (the paper's "
                 "parallelization tax);\n`collective work` rises "
                 "accordingly as shards shrink. Unsharded work "
              << (shard_reproduces_campaign ? "matches"
                                            : "DIFFERS FROM")
              << " the campaign's.\n";

    std::cout << "\nLockstep batch-width sweep (serial, speedup vs "
                 "B=1):\n";
    TablePrinter bt({"batch", "ms", "speedup", "deterministic"});
    for (const BatchPoint &p : batch_points) {
        bt.addRow({TablePrinter::fmt(std::uint64_t(p.batch)),
                   TablePrinter::fmt(p.ms, 1),
                   TablePrinter::fmt(p.speedupVsScalar, 2),
                   p.deterministic ? "yes" : "NO"});
    }
    bt.print(std::cout);

    std::cout << "\nJournal overhead (serial): baseline "
              << TablePrinter::fmt(baseline_ms, 1) << " ms, journaled "
              << TablePrinter::fmt(journal_ms, 1) << " ms ("
              << TablePrinter::fmt(100.0 * journal_overhead, 1)
              << "% overhead), full resume replay "
              << TablePrinter::fmt(resume_ms, 1) << " ms, summaries "
              << (journal_deterministic ? "bit-identical"
                                        : "DIVERGED")
              << "\n";

    std::cout << "\nOffline trace check (serial): dump "
              << TablePrinter::fmt(dump_ms, 1) << " ms ("
              << TablePrinter::fmt(100.0 * dump_overhead, 1)
              << "% overhead), standalone check "
              << TablePrinter::fmt(check_ms, 1) << " ms ("
              << TablePrinter::fmt(check_speedup, 2)
              << "x vs inline run), 10%-torn recovery "
              << TablePrinter::fmt(recovery_ms, 1) << " ms ("
              << recovery_verified << " verified, " << recovery_missing
              << " missing, " << recovery_faults
              << " classified faults), summaries "
              << (trace_deterministic ? "bit-identical" : "DIVERGED")
              << "\n";

    if (!sandbox_points.empty()) {
        std::cout << "\nSandbox dispatch overhead (vs serial "
                     "in-process baseline):\n";
        TablePrinter sbx({"workers", "ms", "overhead", "ms/unit",
                          "deterministic"});
        for (const SandboxPoint &p : sandbox_points) {
            sbx.addRow({TablePrinter::fmt(std::uint64_t(p.workers)),
                        TablePrinter::fmt(p.ms, 1),
                        TablePrinter::fmt(100.0 * p.overheadFraction,
                                          1) + "%",
                        TablePrinter::fmt(p.dispatchMsPerUnit, 3),
                        p.deterministic ? "yes" : "NO"});
        }
        sbx.print(std::cout);
    }

    if (!dist_points.empty()) {
        std::cout << "\nDistributed fabric overhead (vs serial "
                     "in-process baseline):\n";
        TablePrinter dst({"workers", "ms", "overhead", "ms/unit",
                          "deterministic"});
        for (const DistPoint &p : dist_points) {
            dst.addRow({TablePrinter::fmt(std::uint64_t(p.workers)),
                        TablePrinter::fmt(p.ms, 1),
                        TablePrinter::fmt(100.0 * p.overheadFraction,
                                          1) + "%",
                        TablePrinter::fmt(p.dispatchMsPerUnit, 3),
                        p.deterministic ? "yes" : "NO"});
        }
        dst.print(std::cout);
    }

    if (auth_measured) {
        std::cout << "\nAuthenticated fabric (HMAC handshake + "
                     "per-frame MAC, vs keyless fleet): "
                  << TablePrinter::fmt(auth_point.ms, 1) << " ms ("
                  << TablePrinter::fmt(
                         100.0 * auth_point.overheadFraction, 1)
                  << "% overhead), summaries "
                  << (auth_point.deterministic ? "bit-identical"
                                               : "DIVERGED")
                  << "\n";
    }
    if (!chaos_points.empty()) {
        std::cout << "\nChaos inflation (seeded network faults, vs "
                     "fault-free fleet):\n";
        TablePrinter cht({"fault rate", "ms", "inflation",
                          "deterministic"});
        for (const ChaosPoint &p : chaos_points) {
            cht.addRow({TablePrinter::fmt(p.rate, 3),
                        TablePrinter::fmt(p.ms, 1),
                        TablePrinter::fmt(
                            100.0 * p.inflationFraction, 1) + "%",
                        p.deterministic ? "yes" : "NO"});
        }
        cht.print(std::cout);
    }

    bool all_deterministic = journal_deterministic &&
        trace_deterministic && recovery_classified;
    for (const SweepPoint &p : points)
        all_deterministic = all_deterministic && p.deterministic;
    for (const BatchPoint &p : batch_points)
        all_deterministic = all_deterministic && p.deterministic;
    for (const SandboxPoint &p : sandbox_points)
        all_deterministic = all_deterministic && p.deterministic;
    for (const DistPoint &p : dist_points)
        all_deterministic = all_deterministic && p.deterministic;
    if (auth_measured)
        all_deterministic =
            all_deterministic && auth_point.deterministic;
    for (const ChaosPoint &p : chaos_points)
        all_deterministic = all_deterministic && p.deterministic;
    if (!all_deterministic)
        std::cerr << "scaling: DETERMINISM VIOLATION — parallel "
                     "summaries diverged from serial baseline\n";
    bool shard_ok = shard_reproduces_campaign;
    for (const ShardPoint &p : shard_points)
        shard_ok = shard_ok && p.verdictsMatch && p.taxBounded;
    if (!shard_ok)
        std::cerr << "scaling: SHARD SWEEP FAILED — a sharded verdict "
                     "differs from the unsharded one, a shard cost more "
                     "than one extra complete sort, or the unsharded "
                     "work differs from the campaign's\n";

    // --- JSON emission ----------------------------------------------
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"scaling\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"hardwareConcurrency\": " << hw << ",\n"
         << "  \"configs\": [";
    for (std::size_t i = 0; i < configs.size(); ++i)
        json << (i ? ", " : "") << '"' << configs[i].name() << '"';
    json << "],\n"
         << "  \"testsPerConfig\": " << tests << ",\n"
         << "  \"iterations\": " << iterations << ",\n"
         << "  \"baselineMs\": " << jsonEscapeless(baseline_ms) << ",\n"
         << "  \"deterministic\": "
         << (all_deterministic ? "true" : "false") << ",\n"
         << "  \"batchSweep\": {\n"
         << "    \"methodology\": \"serial baseline campaign re-run "
            "at several lockstep batch widths (FlowConfig::batch; "
            "B=1 is scalar stepping); speedupVsScalar is wall-clock "
            "against this sweep's own B=1 point so it isolates the "
            "lockstep engine; summaries must stay bit-identical at "
            "every width\",\n"
         << "    \"sweep\": [\n";
    for (std::size_t i = 0; i < batch_points.size(); ++i) {
        const BatchPoint &p = batch_points[i];
        json << "      {\"batch\": " << p.batch
             << ", \"ms\": " << jsonEscapeless(p.ms)
             << ", \"speedupVsScalar\": "
             << jsonEscapeless(p.speedupVsScalar)
             << ", \"deterministic\": "
             << (p.deterministic ? "true" : "false") << "}"
             << (i + 1 < batch_points.size() ? "," : "") << "\n";
    }
    json << "    ]\n  },\n"
         << "  \"journal\": {\n"
         << "    \"methodology\": \"serial baseline campaign re-run "
            "with a write-ahead journal (one record per completed "
            "test, fsync batched), then fully resumed from that "
            "journal; overhead is (journaledMs - baselineMs) / "
            "baselineMs and both runs must reproduce the baseline "
            "summaries bit-for-bit\",\n"
         << "    \"journaledMs\": " << jsonEscapeless(journal_ms)
         << ",\n"
         << "    \"resumeReplayMs\": " << jsonEscapeless(resume_ms)
         << ",\n"
         << "    \"overheadFraction\": "
         << jsonEscapeless(journal_overhead) << ",\n"
         << "    \"deterministic\": "
         << (journal_deterministic ? "true" : "false") << "\n"
         << "  },\n"
         << "  \"trace_check\": {\n"
         << "    \"methodology\": \"serial baseline campaign re-run "
            "with a trace dump attached (header fingerprinting the "
            "campaign spec + one framed signature-stream record per "
            "unit, written after the campaign); dumpOverheadFraction "
            "is (dumpMs - baselineMs) / baselineMs; the standalone "
            "check re-verifies the trace with checkTrace — re-deriving "
            "every test from the spec's seeds, skipping platform "
            "execution — and must reproduce the baseline summaries "
            "bit-for-bit; the recovery point re-checks a copy "
            "truncated to 90% of its bytes, which must yield only "
            "classified faults over the longest intact prefix\",\n"
         << "    \"dumpMs\": " << jsonEscapeless(dump_ms) << ",\n"
         << "    \"dumpOverheadFraction\": "
         << jsonEscapeless(dump_overhead) << ",\n"
         << "    \"checkMs\": " << jsonEscapeless(check_ms) << ",\n"
         << "    \"checkSpeedupVsInline\": "
         << jsonEscapeless(check_speedup) << ",\n"
         << "    \"recoveryMs\": " << jsonEscapeless(recovery_ms)
         << ",\n"
         << "    \"recoveryVerifiedUnits\": " << recovery_verified
         << ",\n"
         << "    \"recoveryMissingUnits\": " << recovery_missing
         << ",\n"
         << "    \"recoveryClassifiedFaults\": " << recovery_faults
         << ",\n"
         << "    \"deterministic\": "
         << (trace_deterministic && recovery_classified ? "true"
                                                        : "false")
         << "\n  },\n";
    if (!sandbox_points.empty()) {
        json << "  \"sandbox\": {\n"
             << "    \"methodology\": \"serial baseline campaign "
                "re-run with ExecutionMode::Sandboxed: every unit "
                "leased by the fabric coordinator to a pre-forked "
                "worker process over a socketpair; overheadFraction is "
                "(sandboxMs - baselineMs) / baselineMs against the "
                "in-process serial baseline, dispatchMsPerUnit "
                "amortizes the same delta over all units (fleet fork "
                "paid once, one lease/result frame pair per unit); "
                "summaries must stay bit-identical at every "
                "worker count\",\n"
             << "    \"sweep\": [\n";
        for (std::size_t i = 0; i < sandbox_points.size(); ++i) {
            const SandboxPoint &p = sandbox_points[i];
            json << "      {\"workers\": " << p.workers
                 << ", \"ms\": " << jsonEscapeless(p.ms)
                 << ", \"overheadFraction\": "
                 << jsonEscapeless(p.overheadFraction)
                 << ", \"dispatchMsPerUnit\": "
                 << jsonEscapeless(p.dispatchMsPerUnit)
                 << ", \"deterministic\": "
                 << (p.deterministic ? "true" : "false") << "}"
                 << (i + 1 < sandbox_points.size() ? "," : "") << "\n";
        }
        json << "    ]\n  },\n";
    }
    if (!dist_points.empty()) {
        json << "  \"distributed\": {\n"
             << "    \"methodology\": \"serial baseline campaign "
                "re-run with ExecutionMode::Distributed: a loopback "
                "TCP coordinator leasing units to a forked worker "
                "fleet: the sandbox's coordinator and protocol over "
                "TCP instead of socketpairs, plus the campaign spec "
                "shipped per worker and heartbeats; overheadFraction is "
                "(distributedMs - baselineMs) / baselineMs against "
                "the in-process serial baseline, dispatchMsPerUnit "
                "amortizes the same delta over all units; summaries "
                "must stay bit-identical at every fleet size\",\n"
             << "    \"sweep\": [\n";
        for (std::size_t i = 0; i < dist_points.size(); ++i) {
            const DistPoint &p = dist_points[i];
            json << "      {\"workers\": " << p.workers
                 << ", \"ms\": " << jsonEscapeless(p.ms)
                 << ", \"overheadFraction\": "
                 << jsonEscapeless(p.overheadFraction)
                 << ", \"dispatchMsPerUnit\": "
                 << jsonEscapeless(p.dispatchMsPerUnit)
                 << ", \"deterministic\": "
                 << (p.deterministic ? "true" : "false") << "}"
                 << (i + 1 < dist_points.size() ? "," : "") << "\n";
        }
        json << "    ]";
        if (auth_measured) {
            json << ",\n    \"auth\": {\n"
                 << "      \"methodology\": \"largest keyless fleet "
                    "point re-run with a pre-shared fabric key: one "
                    "HMAC-SHA256 challenge/response handshake per "
                    "session plus a 16-byte MAC and 8-byte sequence "
                    "number on every post-handshake frame; "
                    "overheadFraction is (authMs - keylessMs) / "
                    "keylessMs against the keyless run of the same "
                    "fleet size, pricing authentication alone; "
                    "summaries must stay bit-identical\",\n"
                 << "      \"ms\": " << jsonEscapeless(auth_point.ms)
                 << ",\n"
                 << "      \"overheadFraction\": "
                 << jsonEscapeless(auth_point.overheadFraction) << ",\n"
                 << "      \"deterministic\": "
                 << (auth_point.deterministic ? "true" : "false")
                 << "\n    }";
        }
        if (!chaos_points.empty()) {
            json << ",\n    \"chaos\": {\n"
                 << "      \"methodology\": \"same fleet re-run under "
                    "seeded symmetric network faults (drop = dup = "
                    "rate, corrupt = rate/2, both directions, fixed "
                    "seed); inflationFraction is (chaosMs - "
                    "faultFreeMs) / faultFreeMs against the fault-free "
                    "fleet of the same size — faults cost reconnects "
                    "and re-leases, never bits, so summaries must "
                    "stay bit-identical at every rate\",\n"
                 << "      \"sweep\": [\n";
            for (std::size_t i = 0; i < chaos_points.size(); ++i) {
                const ChaosPoint &p = chaos_points[i];
                json << "        {\"faultRate\": "
                     << jsonEscapeless(p.rate)
                     << ", \"ms\": " << jsonEscapeless(p.ms)
                     << ", \"inflationFraction\": "
                     << jsonEscapeless(p.inflationFraction)
                     << ", \"deterministic\": "
                     << (p.deterministic ? "true" : "false") << "}"
                     << (i + 1 < chaos_points.size() ? "," : "")
                     << "\n";
            }
            json << "      ]\n    }";
        }
        json << "\n  },\n";
    }
    json << "  \"shardSweep\": {\n"
         << "    \"methodology\": \"every unit of the serial baseline "
            "campaign re-derived from its plan, its unique executions "
            "kept in ascending signature order as full edge sets, then "
            "checked by checkCollectiveSharded: contiguous shards of "
            "shardSize edge sets, one fresh collective checker per "
            "shard, shards checked one after another (the tax is a work "
            "count; shardSize 0 is unsharded and must reproduce the "
            "baseline campaign's checker work); verdictsMatch: every "
            "sharded verdict equals the unsharded one; taxBounded: per "
            "unit, complete sorts <= unsharded complete sorts + "
            "shards\",\n"
         << "    \"reproducesCampaign\": "
         << (shard_reproduces_campaign ? "true" : "false") << ",\n"
         << "    \"sweep\": [\n";
    for (std::size_t i = 0; i < shard_points.size(); ++i) {
        const ShardPoint &p = shard_points[i];
        json << "      {\"shardSize\": " << p.shardSize
             << ", \"shards\": " << p.shards
             << ", \"collectiveWork\": " << p.collectiveWork
             << ", \"completeSorts\": " << p.completeSorts
             << ", \"verdictsMatch\": "
             << (p.verdictsMatch ? "true" : "false")
             << ", \"taxBounded\": "
             << (p.taxBounded ? "true" : "false") << "}"
             << (i + 1 < shard_points.size() ? "," : "") << "\n";
    }
    json << "    ]\n  },\n";
    json << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        json << "    {\"threads\": " << p.threads
             << ", \"ms\": " << jsonEscapeless(p.ms)
             << ", \"speedup\": " << jsonEscapeless(p.speedup)
             << ", \"collectiveWork\": " << p.collectiveWork
             << ", \"completeSorts\": " << p.completeSorts
             << ", \"deterministic\": "
             << (p.deterministic ? "true" : "false") << "}"
             << (i + 1 < points.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    // Smoke runs (CI) write to a side file so they never clobber the
    // recorded full-sweep artifact at the repository root.
    const std::string out =
        smoke ? "BENCH_scaling.smoke.json" : "BENCH_scaling.json";
    writeFile(out, json.str());
    std::cout << "\n(json written to " << out << ")\n";
    return all_deterministic && shard_ok ? 0 : 1;
}
