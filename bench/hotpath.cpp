/**
 * @file
 * Execution hot-path sweep: single-thread campaign throughput with the
 * batched lockstep engine versus scalar stepping, emitted as
 * BENCH_hotpath.json so the hot-path trajectory is tracked from PR to
 * PR.
 *
 * The sweep runs the scaling bench's config set through ValidationFlow
 * with one seed stream per config (two draws per test: program, then
 * flow), so every pass sees the very same programs and iteration
 * seeds. That is the bench's own seeding, not a campaign's
 * (deriveTestPlans), so its numbers are comparable only with its own
 * earlier records. `deterministic` asserts that both passes produced
 * identical per-test results INCLUDING the signature-set digest —
 * batched and scalar runs must observe the exact same signature
 * multiset; a divergence is a lockstep-engine bug and fails the bench.
 * sliceReuseRate records how much of the decode the sorted-stream
 * delta skipped in the batched pass.
 *
 * The per-phase wall-clock breakdown (FlowConfig::profile) of the
 * batched run is recorded so "where does an iteration go" stays a
 * measured fact. Set MTC_HOTPATH_BASELINE to a reference
 * iterations/sec (e.g. the previous release's number from this file)
 * to record an honest speedup; recorded marks drift with the
 * container, so MTC_HOTPATH_BASELINE_REMEASURED additionally records
 * the reference engine re-measured on *this* machine (build the
 * pre-change commit in a worktree, run its bench back to back) — the
 * same-machine A/B is the number that means something. Scale with
 * MTC_HOTPATH_TESTS / MTC_ITERATIONS / --batch; --smoke runs a
 * seconds-scale version for CI.
 */

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/campaign.h"
#include "harness/validation_flow.h"
#include "sim/executor.h"
#include "support/table.h"
#include "support/timer.h"
#include "testgen/generator.h"

using namespace mtc;

namespace
{

/** The comparable outcome of one test (everything but wall-clock). */
struct TestOutcome
{
    std::uint64_t unique = 0;
    std::uint64_t digest = 0; ///< signature-multiset fingerprint
    std::uint64_t violating = 0;
    std::uint64_t assertions = 0;
    std::uint64_t crashes = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t collectiveWork = 0;

    bool
    operator==(const TestOutcome &other) const
    {
        return unique == other.unique && digest == other.digest &&
            violating == other.violating &&
            assertions == other.assertions &&
            crashes == other.crashes &&
            quarantined == other.quarantined &&
            collectiveWork == other.collectiveWork;
    }
};

struct RunResult
{
    double ms = 0.0;
    std::uint64_t iterations = 0;
    std::vector<TestOutcome> outcomes;
    PhaseBreakdown profile;
    std::uint64_t sliceReuses = 0;  ///< delta-decode slices skipped
    std::uint64_t sliceDecodes = 0; ///< slices peeled in full
};

/** One pass over every config, one seed stream per config, at lockstep
 * width @p batch (FlowConfig::batch; 1 = scalar). */
RunResult
runPass(const std::vector<TestConfig> &configs, unsigned tests,
        std::uint64_t iterations, std::uint64_t seed, std::uint32_t batch)
{
    RunResult result;
    WallTimer timer;
    ScopedTimer scope(timer);
    for (const TestConfig &cfg : configs) {
        FlowConfig flow_cfg;
        flow_cfg.iterations = iterations;
        flow_cfg.runConventional = false;
        flow_cfg.exec = bareMetalConfig(cfg.isa);
        flow_cfg.profile = true;
        flow_cfg.batch = batch;

        Rng seeder(seed);
        for (unsigned t = 0; t < tests; ++t) {
            const TestProgram program = generateTest(cfg, seeder());
            flow_cfg.seed = seeder();
            ValidationFlow flow(flow_cfg);
            const FlowResult r = flow.runTest(program);

            TestOutcome outcome;
            outcome.unique = r.uniqueSignatures;
            outcome.digest = r.signatureSetDigest;
            outcome.violating = r.violatingSignatures;
            outcome.assertions = r.assertionFailures;
            outcome.crashes = r.platformCrashes;
            outcome.quarantined = r.fault.quarantinedCount();
            outcome.collectiveWork = r.collective.verticesProcessed +
                r.collective.edgesProcessed;
            result.outcomes.push_back(outcome);
            result.iterations += r.iterationsRun;
            result.profile.merge(r.profile);
            result.sliceReuses += r.sliceReuses;
            result.sliceDecodes += r.sliceDecodes;
        }
    }
    timer.stop();
    result.ms = timer.milliseconds();
    return result;
}

double
itersPerSec(const RunResult &run)
{
    return run.ms > 0.0
        ? static_cast<double>(run.iterations) / (run.ms / 1000.0)
        : 0.0;
}

double
phaseMs(const RunResult &run, Phase phase)
{
    return static_cast<double>(run.profile.phaseNs(phase)) / 1e6;
}

std::string
fmtDouble(double v)
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
    std::uint32_t batch = 32;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--smoke") {
                smoke = true;
            } else if (arg == "--batch" && i + 1 < argc) {
                batch = static_cast<std::uint32_t>(
                    parseEnvCount("--batch", argv[++i], false));
            } else {
                std::cerr << "hotpath: unknown option " << arg
                          << " (only --smoke, --batch N)\n";
                return 1;
            }
        }
    } catch (const Error &err) {
        std::cerr << "hotpath: " << err.what() << "\n";
        return 1;
    }

    unsigned tests = smoke ? 2 : 8;
    std::uint64_t iterations = smoke ? 48 : 2048;
    double baseline_ips = 0.0;
    double baseline_remeasured_ips = 0.0;
    try {
        if (const char *env = std::getenv("MTC_HOTPATH_TESTS"))
            tests = static_cast<unsigned>(
                parseEnvCount("MTC_HOTPATH_TESTS", env));
        if (const char *env = std::getenv("MTC_ITERATIONS"))
            iterations = parseEnvCount("MTC_ITERATIONS", env);
        if (const char *env = std::getenv("MTC_HOTPATH_BASELINE"))
            baseline_ips = std::atof(env);
        if (const char *env =
                std::getenv("MTC_HOTPATH_BASELINE_REMEASURED"))
            baseline_remeasured_ips = std::atof(env);
    } catch (const Error &err) {
        std::cerr << "hotpath: " << err.what() << "\n";
        return 1;
    }

    const std::vector<TestConfig> configs = {
        parseConfigName("x86-4-100-64"),
        parseConfigName("ARM-4-100-64"),
    };
    const std::uint64_t seed = 2017;

    std::cout << "Hot-path sweep: " << configs.size() << " configs x "
              << tests << " tests x " << iterations
              << " iterations; batched (B=" << batch
              << ") vs scalar\n\n";

    // Untimed warm-up (one config, one test) so no timed pass pays the
    // process cold-start (page faults, lazy PLT, predictor warm-up) —
    // without it, whichever pass runs first loses ~2%.
    runPass({configs.front()}, 1, iterations, seed, batch);

    // Batched pass: the shipping configuration (lockstep engine).
    const RunResult batched =
        runPass(configs, tests, iterations, seed, batch);
    // Scalar pass: same hot path at width 1 — the lockstep-speedup
    // baseline.
    const RunResult scalar = runPass(configs, tests, iterations, seed, 1);

    const bool deterministic = batched.outcomes == scalar.outcomes;
    const double batched_ips = itersPerSec(batched);
    const double scalar_ips = itersPerSec(scalar);
    const double batch_speedup =
        batched.ms > 0.0 ? scalar.ms / batched.ms : 0.0;
    const double exec_speedup = phaseMs(batched, Phase::Execute) > 0.0
        ? phaseMs(scalar, Phase::Execute) /
            phaseMs(batched, Phase::Execute)
        : 0.0;

    const std::uint64_t slice_total =
        batched.sliceReuses + batched.sliceDecodes;
    const double slice_reuse_rate = slice_total
        ? static_cast<double>(batched.sliceReuses) /
            static_cast<double>(slice_total)
        : 0.0;

    TablePrinter table({"mode", "ms", "iters/sec"});
    table.addRow({"batched (B=" + std::to_string(batch) + ")",
                  TablePrinter::fmt(batched.ms, 1),
                  TablePrinter::fmt(batched_ips, 0)});
    table.addRow({"scalar (B=1)", TablePrinter::fmt(scalar.ms, 1),
                  TablePrinter::fmt(scalar_ips, 0)});
    table.print(std::cout);

    std::cout << "\nbatched vs scalar: "
              << TablePrinter::fmt(batch_speedup, 2) << "x overall, "
              << TablePrinter::fmt(exec_speedup, 2)
              << "x execute phase\n";
    std::cout << "delta decode slice reuse: "
              << TablePrinter::fmt(100.0 * slice_reuse_rate, 1)
              << "%\n";

    std::cout << "\nhot-path profile (batched run, campaign totals):\n";
    TablePrinter phases({"phase", "time (ms)", "share", "calls"});
    const std::uint64_t sum_ns = batched.profile.sumNs();
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
        const Phase phase = static_cast<Phase>(p);
        const double ms = phaseMs(batched, phase);
        const double share = sum_ns
            ? 100.0 *
                static_cast<double>(batched.profile.phaseNs(phase)) /
                static_cast<double>(sum_ns)
            : 0.0;
        phases.addRow(
            {phaseName(phase), TablePrinter::fmt(ms, 3),
             TablePrinter::fmt(share, 1) + "%",
             TablePrinter::fmt(batched.profile.phaseCount(phase))});
    }
    phases.print(std::cout);

    if (baseline_ips > 0.0) {
        std::cout << "\nspeedup vs recorded baseline ("
                  << TablePrinter::fmt(baseline_ips, 0)
                  << " iters/sec): "
                  << TablePrinter::fmt(batched_ips / baseline_ips, 2)
                  << "x\n";
    }
    if (baseline_remeasured_ips > 0.0) {
        std::cout << "speedup vs same-machine re-measured baseline ("
                  << TablePrinter::fmt(baseline_remeasured_ips, 0)
                  << " iters/sec): "
                  << TablePrinter::fmt(
                         batched_ips / baseline_remeasured_ips, 2)
                  << "x\n";
    }
    if (!deterministic)
        std::cerr << "hotpath: DETERMINISM VIOLATION — batched and "
                     "scalar passes diverged\n";

    // --- JSON emission ----------------------------------------------
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"hotpath\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"configs\": [";
    for (std::size_t i = 0; i < configs.size(); ++i)
        json << (i ? ", " : "") << '"' << configs[i].name() << '"';
    json << "],\n"
         << "  \"testsPerConfig\": " << tests << ",\n"
         << "  \"iterations\": " << iterations << ",\n"
         << "  \"batch\": " << batch << ",\n"
         << "  \"arenaMs\": " << fmtDouble(batched.ms) << ",\n"
         << "  \"arenaItersPerSec\": " << fmtDouble(batched_ips)
         << ",\n"
         << "  \"scalarMs\": " << fmtDouble(scalar.ms) << ",\n"
         << "  \"scalarItersPerSec\": " << fmtDouble(scalar_ips)
         << ",\n"
         << "  \"batchSpeedupVsScalar\": " << fmtDouble(batch_speedup)
         << ",\n"
         << "  \"executeSpeedupVsScalar\": " << fmtDouble(exec_speedup)
         << ",\n"
         << "  \"sliceReuseRate\": " << fmtDouble(slice_reuse_rate)
         << ",\n"
         << "  \"baselineItersPerSec\": " << fmtDouble(baseline_ips)
         << ",\n"
         << "  \"speedupVsBaseline\": "
         << fmtDouble(baseline_ips > 0.0 ? batched_ips / baseline_ips
                                         : 0.0)
         << ",\n"
         << "  \"baselineRemeasuredItersPerSec\": "
         << fmtDouble(baseline_remeasured_ips) << ",\n"
         << "  \"speedupVsRemeasuredBaseline\": "
         << fmtDouble(baseline_remeasured_ips > 0.0
                          ? batched_ips / baseline_remeasured_ips
                          : 0.0)
         << ",\n"
         << "  \"deterministic\": "
         << (deterministic ? "true" : "false") << ",\n"
         << "  \"profile\": [\n";
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
        const Phase phase = static_cast<Phase>(p);
        json << "    {\"phase\": \"" << phaseName(phase)
             << "\", \"ms\": " << fmtDouble(phaseMs(batched, phase))
             << ", \"calls\": " << batched.profile.phaseCount(phase)
             << "}" << (p + 1 < kPhaseCount ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    // Smoke runs (CI) write to a side file so they never clobber the
    // recorded full-sweep artifact at the repository root.
    const std::string out =
        smoke ? "BENCH_hotpath.smoke.json" : "BENCH_hotpath.json";
    writeFile(out, json.str());
    std::cout << "\n(json written to " << out << ")\n";
    return deterministic ? 0 : 1;
}
