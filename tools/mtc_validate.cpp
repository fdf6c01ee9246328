/**
 * @file
 * mtc_validate — command-line MCM validation campaigns.
 *
 * Runs the full MTraceCheck flow (generate -> instrument -> execute ->
 * collect signatures -> collectively check) over one test
 * configuration on a simulated platform. A flag layer only: the MTC_*
 * environment defaults (CampaignConfig::fromEnv) and the flags below
 * become one CampaignConfig, runCampaign runs it — in process, in
 * sandboxed worker processes, or over the TCP fabric — and the report
 * and exit code are the ones mtc_coordinator and mtc_check print for
 * the same campaign, byte for byte.
 *
 * Usage:
 *   mtc_validate [options]
 *     --config NAME     test configuration, e.g. x86-4-50-64 or
 *                       "x86-7-200-32 (16 words/line)"  [x86-4-50-64]
 *     --tests N         tests in the campaign                 [10]
 *     --iterations N    runs per test                         [2048]
 *     --seed N          campaign seed                         [2017]
 *     --platform KIND   timed | uniform | mesi | linux        [timed]
 *     --model M         override checked model: sc|tso|rmo
 *     --bug KIND        none | upgrade | lsq | putx           [none]
 *     --bug-prob P      bug firing probability                [0.1]
 *     --cache-lines N   per-core L1 capacity (0 = unbounded)  [0]
 *     --fault-bitflip P / --fault-torn P / --fault-truncate P /
 *     --fault-drop P / --fault-dup P / --fault-seed N
 *                       readout-path fault injection          [0]
 *     --confirm-k N     K-re-execution confirmation budget    [2]
 *     --crash-retries N reseeded retries after platform crash [0]
 *     --threads N       tests run in parallel (sandbox workers
 *                       with --sandbox); 0 = all cores        [1]
 *     --batch N         lockstep batch width; 0 = default     [0]
 *     --journal PATH    write-ahead unit journal (crash-safe)
 *     --resume          replay completed units from --journal
 *     --test-timeout-ms N  per-test watchdog deadline          [off]
 *     --error-budget N  circuit breaker: stop after N errors  [off]
 *     --stall-after N   drill: wedge every run after N steps  [off]
 *     --sandbox         run each test in a forked worker process
 *     --sandbox-mem-mb N / --sandbox-cpu-s N  worker budgets  [off]
 *     --distributed N   run each test on a fleet of N loopback TCP
 *                       workers (the fabric of mtc_coordinator) [off]
 *     --fabric-key-file PATH / --audit-rate P  fabric security
 *     --die-after N     drill: Nth run raises a real SIGSEGV  [off]
 *     --leak-after N    drill: Nth run allocation-bombs       [off]
 *     --profile         per-phase wall-clock breakdown
 *     --verbose         per-config detail table
 *     --help
 *
 * Exit status: see harness/exit_codes.h (0 clean, 1 config error,
 * 2 confirmed violation, 3 corruption only, 4 platform crash or
 * failed test, 5 hang, 6 circuit breaker tripped).
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "harness/campaign.h"
#include "harness/campaign_plan.h"
#include "harness/campaign_report.h"
#include "harness/exit_codes.h"
#include "support/table.h"
#include "cli_common.h"

using namespace mtc;

namespace
{

void
usage()
{
    std::cout <<
        "mtc_validate: MTraceCheck validation campaign runner\n"
        "  --config NAME     test configuration [x86-4-50-64]\n"
        "  --tests N         tests in the campaign [10]\n"
        "  --iterations N    runs per test [2048]\n"
        "  --seed N          campaign seed; selects the same tests as\n"
        "                    mtc_coordinator with the same seed [2017]\n"
        "  --platform KIND   timed | uniform | mesi | linux [timed]\n"
        "  --model M         override checked model: sc|tso|rmo\n"
        "  --bug KIND        none | upgrade | lsq | putx [none]\n"
        "  --bug-prob P      bug firing probability [0.1]\n"
        "  --cache-lines N   per-core L1 capacity, 0=unbounded [0]\n"
        "  --fault-bitflip P per-word signature bit-flip rate [0]\n"
        "  --fault-torn P    torn multi-word store rate [0]\n"
        "  --fault-truncate P per-thread stream truncation rate [0]\n"
        "  --fault-drop P    lost-iteration rate [0]\n"
        "  --fault-dup P     duplicated-iteration rate [0]\n"
        "  --fault-seed N    fault injector seed [0xfa017]\n"
        "  --confirm-k N     K-re-execution confirmation budget [2]\n"
        "  --crash-retries N reseeded retries after crash [0]\n"
        "  --threads N       tests run in parallel (with --sandbox:\n"
        "                    worker processes); 0 = all hardware\n"
        "                    threads; summaries are bit-identical at\n"
        "                    any value (default: MTC_THREADS, else 1)\n"
        "  --batch N         lockstep batch width of the test loop:\n"
        "                    iterations dispatched per batched-engine\n"
        "                    call; 1 = scalar stepping; summaries are\n"
        "                    bit-identical at any width; 0 = default\n"
        "                    width (default: MTC_BATCH if set, else 0)\n"
        "  --journal PATH    append each completed test to a crash-safe\n"
        "                    write-ahead journal at PATH\n"
        "  --resume          replay tests already in the journal and\n"
        "                    run only what is missing; the final\n"
        "                    summary is bit-identical to an\n"
        "                    uninterrupted run (requires --journal)\n"
        "  --test-timeout-ms N  watchdog: cancel any test attempt\n"
        "                    still running after N ms and report it\n"
        "                    hung; 0 = no watchdog [0]\n"
        "  --error-budget N  circuit breaker: once hung attempts +\n"
        "                    failed tests + platform crashes +\n"
        "                    quarantined signatures reach N, skip the\n"
        "                    remaining tests; 0 = never [0]\n"
        "  --stall-after N   liveness drill: wedge every platform run\n"
        "                    after N scheduler steps (use with\n"
        "                    --test-timeout-ms to exercise the\n"
        "                    watchdog); 0 = off [0]\n"
        "  --sandbox         run every test in a pre-forked worker\n"
        "                    process: a real crash (SIGSEGV, abort,\n"
        "                    rlimit breach) is contained, charged to\n"
        "                    --crash-retries and --error-budget, and\n"
        "                    the worker respawned; the summary stays\n"
        "                    bit-identical to in-process. --threads\n"
        "                    sets the worker process count\n"
        "  --sandbox-mem-mb N  per-worker address-space budget in MB;\n"
        "                    a breach is classified as an OOM loss;\n"
        "                    0 = unlimited [0]\n"
        "  --sandbox-cpu-s N per-worker CPU budget in seconds; a\n"
        "                    breach dies with SIGXCPU; 0 = off [0]\n"
        "  --distributed N   run every test on a fleet of N loopback\n"
        "                    TCP workers over the mtc_coordinator\n"
        "                    fabric; a worker death reassigns its\n"
        "                    leased tests and the summary stays\n"
        "                    bit-identical; 0 = off [0]\n"
        "  --fabric-key-file PATH  authenticate the --distributed\n"
        "                    fleet with this pre-shared key (env:\n"
        "                    MTC_FABRIC_KEY_FILE) [keyless]\n"
        "  --audit-rate P    Byzantine audit: re-execute this\n"
        "                    fraction of tests on a second worker and\n"
        "                    cross-compare (env: MTC_AUDIT_RATE) [0]\n"
        "  --die-after N     hard-crash drill: the Nth platform run\n"
        "                    raises a REAL SIGSEGV. Without --sandbox\n"
        "                    this kills the campaign (that is the\n"
        "                    point); with it, containment is proven\n"
        "                    end to end; 0 = off [0]\n"
        "  --leak-after N    allocation-bomb drill: the Nth run leaks\n"
        "                    until new fails; exercises the\n"
        "                    --sandbox-mem-mb path; 0 = off [0]\n"
        "  --profile         per-phase wall-clock breakdown (execute,\n"
        "                    encode, accumulate, sort-unique, decode,\n"
        "                    check, ...) aggregated over the campaign\n"
        "  --verbose         per-config detail table\n"
        "env: every MTC_* campaign variable (MTC_ITERATIONS, MTC_TESTS,\n"
        "     MTC_SEED, MTC_THREADS, MTC_BATCH, MTC_JOURNAL,\n"
        "     MTC_DUMP_TRACE, MTC_SANDBOX, ...) sets a default; an\n"
        "     explicit flag wins\n"
        "exit codes: 0 clean, 1 config error, 2 confirmed violation,\n"
        "            3 corruption only, 4 platform crash (including a\n"
        "            contained sandbox worker crash) or failed test,\n"
        "            5 hang, 6 circuit breaker tripped\n";
}

PlatformVariant
parsePlatform(const std::string &text)
{
    if (text == "timed")
        return PlatformVariant::BareMetal;
    if (text == "linux")
        return PlatformVariant::Linux;
    if (text == "uniform")
        return PlatformVariant::Uniform;
    if (text == "mesi")
        return PlatformVariant::Mesi;
    throw ConfigError("unknown platform: " + text);
}

BugKind
parseBug(const std::string &text)
{
    if (text == "none")
        return BugKind::None;
    if (text == "upgrade")
        return BugKind::StaleLoadOnUpgrade;
    if (text == "lsq")
        return BugKind::LsqNoSquash;
    if (text == "putx")
        return BugKind::PutxGetxRace;
    throw ConfigError("unknown bug kind: " + text);
}

/** The campaign to run, its one configuration, and the flags that
 * only shape the printout. */
struct Invocation
{
    CampaignConfig campaign;
    std::string configName = "x86-4-50-64";
    std::string platformName = "timed";
    bool verbose = false;
};

Invocation
parseArgs(int argc, char **argv)
{
    CampaignConfig defaults;
    defaults.testsPerConfig = 10;
    defaults.runConventional = false;
    Invocation inv;
    // Environment defaults first so explicit flags win.
    inv.campaign = CampaignConfig::fromEnv(defaults);
    CampaignConfig &c = inv.campaign;
    bool sandbox = false;
    unsigned distributed = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (++i >= argc)
                throw ConfigError("missing value after " + arg);
            return argv[i];
        };
        if (cli::applyCampaignFlag(c, arg, next))
            continue;
        if (arg == "--config") {
            inv.configName = next();
        } else if (arg == "--platform") {
            inv.platformName = next();
            c.variant = parsePlatform(inv.platformName);
        } else if (arg == "--model")
            c.model = parseModel(next());
        else if (arg == "--bug")
            c.bug = parseBug(next());
        else if (arg == "--bug-prob")
            c.bugProbability = cli::parseRate(arg, next());
        else if (arg == "--cache-lines")
            c.cacheLines =
                static_cast<std::uint32_t>(cli::parseCount(arg, next()));
        else if (arg == "--crash-retries")
            c.recovery.crashRetries =
                static_cast<unsigned>(cli::parseCount(arg, next()));
        else if (arg == "--threads")
            c.threads = static_cast<unsigned>(cli::parseCount(arg, next()));
        else if (arg == "--batch")
            c.batch = static_cast<std::uint32_t>(
                cli::parseCount(arg, next(), 0));
        else if (arg == "--error-budget")
            c.errorBudget =
                static_cast<unsigned>(cli::parseCount(arg, next()));
        else if (arg == "--stall-after")
            c.stallAfterSteps = cli::parseCount(arg, next());
        else if (arg == "--sandbox")
            sandbox = true;
        else if (arg == "--sandbox-mem-mb")
            c.sandboxMemMb = cli::parseCount(arg, next());
        else if (arg == "--sandbox-cpu-s")
            c.sandboxCpuS = cli::parseCount(arg, next());
        else if (arg == "--distributed")
            distributed =
                static_cast<unsigned>(cli::parseCount(arg, next()));
        else if (arg == "--die-after")
            c.dieAfterRuns = cli::parseCount(arg, next());
        else if (arg == "--leak-after")
            c.leakAfterRuns = cli::parseCount(arg, next());
        else if (arg == "--profile")
            c.profile = true;
        else if (arg == "--verbose")
            inv.verbose = true;
        else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            throw ConfigError("unknown option: " + arg);
        }
    }
    if (distributed && sandbox)
        throw ConfigError("--distributed and --sandbox are mutually "
                          "exclusive execution modes");
    if (sandbox)
        c.mode = ExecutionMode::Sandboxed;
    if (distributed) {
        if (c.dieAfterRuns || c.leakAfterRuns)
            throw ConfigError(
                "--die-after/--leak-after are sandbox containment "
                "drills; a distributed worker would re-arm them on "
                "every reassignment (use mtc_coordinator "
                "--drill-exit-after for the fabric's death drill)");
        c.mode = ExecutionMode::Distributed;
        c.distWorkers = distributed;
    }
    return inv;
}

void
printProfile(const PhaseBreakdown &profile)
{
    std::cout << "\nhot-path profile (campaign totals):\n";
    TablePrinter phases({"phase", "time (ms)", "share", "calls",
                         "ms/call"});
    const double sum_ms = static_cast<double>(profile.sumNs()) / 1e6;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
        const Phase phase = static_cast<Phase>(p);
        const double ms = static_cast<double>(profile.phaseNs(phase)) / 1e6;
        const double share = sum_ms > 0.0 ? 100.0 * ms / sum_ms : 0.0;
        const std::uint64_t calls = profile.phaseCount(phase);
        phases.addRow(
            {phaseName(phase), TablePrinter::fmt(ms, 3),
             TablePrinter::fmt(share, 1) + "%", TablePrinter::fmt(calls),
             calls ? TablePrinter::fmt(ms / static_cast<double>(calls), 6)
                   : "-"});
    }
    phases.print(std::cout);
    std::cout << "phases account for "
              << TablePrinter::fmt(100.0 * profile.coverage(), 1)
              << "% of "
              << TablePrinter::fmt(
                     static_cast<double>(profile.totalNs) / 1e6, 3)
              << " ms total flow wall-clock\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        Invocation inv = parseArgs(argc, argv);
        CampaignConfig &c = inv.campaign;
        const TestConfig cfg = parseConfigName(inv.configName);
        // The flow template validates the platform knobs, so a bad
        // combination is a config error before anything runs.
        const FlowConfig flow = flowTemplate(cfg, c);
        std::cout << "MTraceCheck campaign: " << cfg.name() << " on "
                  << inv.platformName << " platform, "
                  << c.testsPerConfig << " tests x " << c.iterations
                  << " iterations\n"
                  << "checked model: "
                  << modelName(flow.coherent ? flow.coherent->model
                                             : flow.exec.model)
                  << "\n\n";

        FabricStats fabric;
        if (c.mode == ExecutionMode::Distributed)
            c.distStatsOut = &fabric;
        const std::vector<ConfigSummary> summaries = runCampaign({cfg}, c);
        const ConfigSummary &s = summaries.front();

        if (c.resume)
            std::cout << "resume: " << s.replayedUnits
                      << " completed tests replayed from "
                      << c.journalPath << "\n";
        if (inv.verbose)
            printConfigTable(std::cout, summaries);
        // The deterministic block: byte-identical to mtc_coordinator
        // and mtc_check for the same campaign.
        const CampaignTotals totals = printCampaignReport(
            std::cout, std::cerr, "mtc_validate", summaries);

        if (s.platformCrashes)
            std::cout << "platform crashes: " << s.platformCrashes
                      << "\n";
        if (c.fault.enabled()) {
            std::cout << "fault summary: " << s.injected.totalEvents()
                      << " injected readout faults, "
                      << s.quarantinedSignatures
                      << " signatures quarantined, "
                      << s.confirmedViolations << " violations confirmed, "
                      << s.transientViolations
                      << " reclassified as transient corruption\n";
        }
        if (c.mode == ExecutionMode::Distributed) {
            std::cout << "distributed: " << c.distWorkers
                      << " loopback workers, " << fabric.workersLost
                      << " workers lost, " << fabric.unitsReassigned
                      << " units reassigned\n";
            if (c.distAuditRate > 0.0)
                cli::printAuditReport(std::cout, fabric.byzantine);
        }
        if (c.profile)
            printProfile(s.profile);
        if (!s.violationWitness.empty())
            std::cout << "\nfirst violation witness:\n"
                      << s.violationWitness;

        return campaignExitCode(totals);
    } catch (const Error &err) {
        std::cerr << "mtc_validate: " << err.what() << "\n";
        return kExitConfigError;
    } catch (const std::exception &err) {
        // Standard-library failures are configuration errors too,
        // not crashes.
        std::cerr << "mtc_validate: " << err.what() << "\n";
        return kExitConfigError;
    }
}
