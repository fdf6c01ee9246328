/**
 * @file
 * mtc_coordinator — distributed MCM validation campaigns.
 *
 * Owns a campaign plan and serves its (config, test) units over the
 * TCP fabric (src/dist/) to a fleet of workers: `--workers N` loopback
 * processes forked locally, plus any external `mtc_worker` processes
 * that attach to the same port. Results are merged into per-config
 * summaries that are bit-identical to a serial in-process run
 * (`--serial`) at any fleet size — the CI smoke byte-diffs the two.
 *
 * Usage:
 *   mtc_coordinator [options]
 *     --config NAME       test configuration, repeatable
 *                         [x86-4-50-64]
 *     --tests N           tests per configuration            [3]
 *     --iterations N      runs per test                      [512]
 *     --seed N            campaign seed                      [2017]
 *     --fault-bitflip P   per-word signature bit-flip rate   [0]
 *     --fault-torn P      torn multi-word store rate         [0]
 *     --fault-truncate P  per-thread stream truncation rate  [0]
 *     --fault-drop P      lost-iteration rate                [0]
 *     --fault-dup P       duplicated-iteration rate          [0]
 *     --fault-seed N      fault injector seed                [0xfa017]
 *     --confirm-k N       K-re-execution confirmation budget [2]
 *     --journal PATH      write-ahead unit journal (crash-safe)
 *     --resume            replay completed units from --journal
 *     --dump-trace PATH   dump the finished campaign's signature
 *                         streams for offline checking (mtc_check)
 *     --test-timeout-ms N per-test watchdog deadline (worker-side)
 *     --port N            TCP port; 0 = ephemeral            [0]
 *     --host ADDR         IPv4 bind address          [127.0.0.1]
 *     --port-file PATH    write the bound port here once listening
 *     --workers N         loopback workers to fork; 0 waits for
 *                         external mtc_worker processes      [2]
 *     --batch N           units per lease                    [2]
 *     --max-in-flight N   open leases per worker             [2]
 *     --heartbeat-timeout-ms N  drop a silent worker after N ms
 *                         [10000]
 *     --lease-timeout-ms N  reassign a lease older than N ms [off]
 *     --serial            run in-process instead (the baseline the
 *                         distributed summary must match byte for
 *                         byte)
 *     --fabric-key-file PATH  pre-shared key: workers must prove
 *                         possession before any lease, and all
 *                         post-handshake frames carry MACs
 *     --audit-rate P      Byzantine audit: fraction of units
 *                         re-executed by a second worker and
 *                         cross-compared                     [0]
 *     --net-fault-drop P / --net-fault-dup P / --net-fault-corrupt P
 *     --net-fault-delay P / --net-fault-reorder P / --net-fault-drip P
 *     --net-fault-disconnect P
 *                         chaos drills: seeded per-frame fault rates
 *                         on every fabric connection         [0]
 *     --net-fault-delay-ms N  injected delay length          [20]
 *     --net-fault-seed N  chaos RNG seed                     [0]
 *     --drill-exit-after N  failure drill: loopback worker 0 _exit()s
 *                         abruptly after N results (dies mid-batch)
 *     --drill-corrupt-results  failure drill: the last loopback
 *                         worker silently corrupts every result; an
 *                         audit must quarantine it
 *     --verbose           per-config detail table
 *     --help
 *
 * Every MTC_* campaign variable (CampaignConfig::fromEnv) sets a
 * default — MTC_DUMP_TRACE, MTC_FABRIC_KEY_FILE, MTC_AUDIT_RATE, the
 * MTC_NET_FAULT_* chaos knobs, ... — and an explicit flag wins.
 *
 * Exit status mirrors mtc_validate:
 *   0 clean, 1 config error, 2 confirmed violation, 3 corruption
 *   only, 4 platform crash or failed/abandoned units, 5 hang,
 *   6 breaker tripped.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "harness/campaign.h"
#include "harness/campaign_report.h"
#include "harness/exit_codes.h"
#include "testgen/test_config.h"
#include "cli_common.h"

using namespace mtc;

namespace
{

struct Options
{
    std::vector<std::string> configNames;
    CampaignConfig campaign;
    bool serial = false;
    bool verbose = false;
};

void
usage()
{
    std::cout <<
        "mtc_coordinator: distributed MCM validation campaigns\n"
        "  --config NAME     test configuration, repeatable\n"
        "                    [x86-4-50-64]\n"
        "  --tests N         tests per configuration [3]\n"
        "  --iterations N    runs per test [512]\n"
        "  --seed N          campaign seed [2017]\n"
        "  --fault-bitflip P per-word signature bit-flip rate [0]\n"
        "  --fault-torn P    torn multi-word store rate [0]\n"
        "  --fault-truncate P per-thread stream truncation rate [0]\n"
        "  --fault-drop P    lost-iteration rate [0]\n"
        "  --fault-dup P     duplicated-iteration rate [0]\n"
        "  --fault-seed N    fault injector seed [0xfa017]\n"
        "  --confirm-k N     K-re-execution confirmation budget [2]\n"
        "  --journal PATH    crash-safe write-ahead unit journal; a\n"
        "                    SIGKILLed coordinator resumes from it\n"
        "  --resume          replay completed units from --journal;\n"
        "                    the summary is bit-identical to an\n"
        "                    uninterrupted run\n"
        "  --dump-trace PATH dump the finished campaign's signature\n"
        "                    streams as a versioned trace; mtc_check\n"
        "                    re-checks it offline to byte-identical\n"
        "                    summaries (env: MTC_DUMP_TRACE)\n"
        "  --test-timeout-ms N  worker-side watchdog deadline [off]\n"
        "  --port N          TCP port; 0 = ephemeral [0]\n"
        "  --host ADDR       IPv4 address to listen on; 0.0.0.0 opens\n"
        "                    the fabric to other hosts [127.0.0.1]\n"
        "  --port-file PATH  write the bound port (decimal, one line)\n"
        "                    once listening — how scripts find an\n"
        "                    ephemeral port\n"
        "  --workers N       loopback workers to fork; 0 forks none\n"
        "                    and waits for external mtc_worker\n"
        "                    processes [2]\n"
        "  --batch N         units per lease [2]\n"
        "  --max-in-flight N open leases per worker (backpressure:\n"
        "                    a slow worker holds few units while fast\n"
        "                    ones drain the queue) [2]\n"
        "  --heartbeat-timeout-ms N  declare a silent worker dead\n"
        "                    after N ms and reassign its leases\n"
        "                    [10000]\n"
        "  --lease-timeout-ms N  reassign any lease still open after\n"
        "                    N ms (the worker may stay connected);\n"
        "                    0 = off [0]\n"
        "  --serial          run the campaign in-process instead of\n"
        "                    over the fabric: the baseline the\n"
        "                    distributed summary must match byte for\n"
        "                    byte\n"
        "  --fabric-key-file PATH  pre-shared key file (generate:\n"
        "                    head -c 32 /dev/urandom | base64 > f).\n"
        "                    Workers must prove possession before any\n"
        "                    lease; post-handshake frames carry MACs\n"
        "                    and sequence numbers [keyless]\n"
        "  --audit-rate P    Byzantine audit: fraction of units\n"
        "                    re-executed by a second worker and\n"
        "                    cross-compared; a deviating worker is\n"
        "                    quarantined and its results re-run [0]\n"
        "  --net-fault-drop P / --net-fault-dup P /\n"
        "  --net-fault-corrupt P / --net-fault-delay P /\n"
        "  --net-fault-reorder P / --net-fault-drip P /\n"
        "  --net-fault-disconnect P\n"
        "                    chaos drills: seeded per-frame fault\n"
        "                    rates on every fabric connection [0]\n"
        "  --net-fault-delay-ms N  injected delay length [20]\n"
        "  --net-fault-seed N  chaos RNG seed [0]\n"
        "  --drill-exit-after N  failure drill: loopback worker 0\n"
        "                    _exit()s abruptly after sending N\n"
        "                    results, leaving its lease unreported;\n"
        "                    the summary must not change; 0 = off [0]\n"
        "  --drill-corrupt-results  failure drill: the last loopback\n"
        "                    worker silently corrupts every result\n"
        "                    it returns; only --audit-rate > 0 can\n"
        "                    catch and quarantine it [off]\n"
        "  --verbose         per-config detail table\n"
        "env: every MTC_* campaign variable (MTC_DUMP_TRACE,\n"
        "     MTC_FABRIC_KEY_FILE, MTC_AUDIT_RATE, MTC_NET_FAULT_*, ...)\n"
        "     sets a default; an explicit flag wins\n"
        "exit codes: 0 clean, 1 config error, 2 confirmed violation,\n"
        "            3 corruption only, 4 platform crash or\n"
        "            failed/abandoned units, 5 hang, 6 circuit breaker\n"
        "            tripped\n";
}

/** Chaos flags hit both directions; the split is API surface only. */
void
setFaultRate(CampaignConfig &c, double NetFaultRates::*field,
             double rate)
{
    c.distNetFault.send.*field = rate;
    c.distNetFault.recv.*field = rate;
}

Options
parseArgs(int argc, char **argv)
{
    using cli::parseCount;
    using cli::parseRate01;
    CampaignConfig defaults;
    defaults.iterations = 512;
    defaults.testsPerConfig = 3;
    defaults.runConventional = false;
    Options opt;
    // Environment defaults first so explicit flags win.
    opt.campaign = CampaignConfig::fromEnv(defaults);
    CampaignConfig &c = opt.campaign;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (++i >= argc)
                throw ConfigError("missing value after " + arg);
            return argv[i];
        };
        if (cli::applyCampaignFlag(c, arg, next))
            continue;
        if (arg == "--config")
            opt.configNames.push_back(next());
        else if (arg == "--dump-trace")
            c.dumpTracePath = cli::parsePath(arg, next());
        else if (arg == "--port")
            c.distPort =
                static_cast<std::uint16_t>(parseCount(arg, next()));
        else if (arg == "--host")
            c.distHost = next();
        else if (arg == "--port-file")
            c.distPortFile = next();
        else if (arg == "--workers")
            c.distWorkers =
                static_cast<unsigned>(parseCount(arg, next()));
        else if (arg == "--batch")
            c.distBatch =
                static_cast<unsigned>(parseCount(arg, next()));
        else if (arg == "--max-in-flight")
            c.distMaxInFlight =
                static_cast<unsigned>(parseCount(arg, next()));
        else if (arg == "--heartbeat-timeout-ms")
            c.distHeartbeatTimeoutMs = parseCount(arg, next());
        else if (arg == "--lease-timeout-ms")
            c.distLeaseTimeoutMs = parseCount(arg, next());
        else if (arg == "--serial")
            opt.serial = true;
        else if (arg == "--net-fault-drop")
            setFaultRate(c, &NetFaultRates::drop,
                         parseRate01(arg, next()));
        else if (arg == "--net-fault-dup")
            setFaultRate(c, &NetFaultRates::duplicate,
                         parseRate01(arg, next()));
        else if (arg == "--net-fault-corrupt")
            setFaultRate(c, &NetFaultRates::corrupt,
                         parseRate01(arg, next()));
        else if (arg == "--net-fault-delay")
            setFaultRate(c, &NetFaultRates::delay,
                         parseRate01(arg, next()));
        else if (arg == "--net-fault-reorder")
            setFaultRate(c, &NetFaultRates::reorder,
                         parseRate01(arg, next()));
        else if (arg == "--net-fault-drip")
            setFaultRate(c, &NetFaultRates::drip,
                         parseRate01(arg, next()));
        else if (arg == "--net-fault-disconnect")
            setFaultRate(c, &NetFaultRates::disconnect,
                         parseRate01(arg, next()));
        else if (arg == "--net-fault-delay-ms")
            c.distNetFault.delayMs = parseCount(arg, next());
        else if (arg == "--net-fault-seed")
            c.distNetFault.seed = parseCount(arg, next(), 0);
        else if (arg == "--drill-exit-after")
            c.distDrillExitAfter = parseCount(arg, next());
        else if (arg == "--drill-corrupt-results")
            c.distDrillCorrupt = true;
        else if (arg == "--verbose")
            opt.verbose = true;
        else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            throw ConfigError("unknown option: " + arg);
        }
    }
    if (opt.configNames.empty())
        opt.configNames.push_back("x86-4-50-64");
    c.mode = opt.serial ? ExecutionMode::InProcess
                        : ExecutionMode::Distributed;
    return opt;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        Options opt = parseArgs(argc, argv);
        FabricStats fabric_stats;
        if (!opt.serial)
            opt.campaign.distStatsOut = &fabric_stats;
        std::vector<TestConfig> configs;
        configs.reserve(opt.configNames.size());
        for (const std::string &name : opt.configNames)
            configs.push_back(parseConfigName(name));

        const CampaignConfig &c = opt.campaign;
        std::cout << "MTraceCheck "
                  << (opt.serial ? "serial" : "distributed")
                  << " campaign: " << configs.size() << " configs x "
                  << c.testsPerConfig << " tests x " << c.iterations
                  << " iterations";
        if (!opt.serial)
            std::cout << ", " << c.distWorkers
                      << " loopback workers, batch " << c.distBatch
                      << ", max in-flight " << c.distMaxInFlight;
        std::cout << "\n\n";

        const std::vector<ConfigSummary> summaries =
            runCampaign(configs, opt.campaign);

        if (opt.verbose)
            printConfigTable(std::cout, summaries);

        // Deterministic summary block: one line per config plus a
        // campaign digest, all free of wall-clock — this is what the
        // CI smoke byte-diffs between --serial and distributed runs,
        // and what mtc_check reproduces from a dumped trace
        // (campaign_report.h is the single source of those bytes).
        const CampaignTotals totals = printCampaignReport(
            std::cout, std::cerr, "mtc_coordinator", summaries);

        if (!opt.serial && opt.campaign.distAuditRate > 0.0)
            cli::printAuditReport(std::cout, fabric_stats.byzantine);

        return campaignExitCode(totals);
    } catch (const Error &err) {
        std::cerr << "mtc_coordinator: " << err.what() << "\n";
        return kExitConfigError;
    } catch (const std::exception &err) {
        std::cerr << "mtc_coordinator: " << err.what() << "\n";
        return kExitConfigError;
    }
}
