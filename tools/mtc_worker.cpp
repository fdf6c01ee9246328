/**
 * @file
 * mtc_worker — external worker for distributed validation campaigns.
 *
 * Connects to an mtc_coordinator, handshakes (protocol version,
 * worker name), receives the campaign spec, and executes leased
 * (config, test) units until the coordinator broadcasts Done. Every
 * unit re-derives its seeds from the spec's canonical plan, so the
 * merged summary is bit-identical no matter which worker runs what.
 *
 * A lost connection is retried with capped exponential backoff; a
 * handshake rejection (version mismatch, loss-budget ban) is fatal —
 * it will not heal by retrying.
 *
 * Usage:
 *   mtc_worker --connect HOST:PORT [options]
 *     --connect HOST:PORT  coordinator address (required)
 *     --name S             worker identity in the coordinator's logs
 *                          and loss budgets             [worker-<pid>]
 *     --heartbeat-ms N     liveness ping period         [2000]
 *     --reconnects N       reconnect budget             [5]
 *     --backoff-ms N       reconnect backoff base       [100]
 *     --backoff-cap-ms N   reconnect backoff ceiling    [5000]
 *     --protocol-version N claim this protocol version in the
 *                          handshake (rejection drill)  [current]
 *     --unit-delay-ms N    drill: sleep before each unit (a "slow
 *                          worker" for backpressure tests)   [off]
 *     --exit-after N       drill: _exit() abruptly after sending N
 *                          results (dies mid-batch)          [off]
 *     --fabric-key-file PATH  pre-shared key file; required to join
 *                          a keyed coordinator (also honoured from
 *                          MTC_FABRIC_KEY_FILE)
 *     --drill-corrupt-results  Byzantine drill: silently corrupt
 *                          every result — decodable, plausible,
 *                          wrong; a coordinator audit must catch it
 *     --help
 *
 * The MTC_NET_FAULT_* chaos variables (see mtc_coordinator --help)
 * apply seeded faults to this worker's connection.
 *
 * Exit status:
 *   0  served until Done (or the coordinator went away after at
 *      least one good session — the campaign likely finished)
 *   1  usage / configuration error
 *   3  fatal fabric error: handshake rejected, coordinator never
 *      reachable, or a malformed spec
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "dist/worker_client.h"
#include "harness/campaign_journal.h"
#include "harness/dist_campaign.h"
#include "support/error.h"
#include "support/hmac.h"
#include "cli_common.h"

using namespace mtc;

namespace
{

void
usage()
{
    std::cout <<
        "mtc_worker: external worker for distributed campaigns\n"
        "  --connect HOST:PORT  coordinator address (required)\n"
        "  --name S          worker identity (stable across\n"
        "                    reconnects; the coordinator's loss\n"
        "                    budget is keyed on it) [worker-<pid>]\n"
        "  --heartbeat-ms N  liveness ping period [2000]\n"
        "  --reconnects N    consecutive connection failures\n"
        "                    tolerated before giving up [5]\n"
        "  --backoff-ms N    reconnect backoff base, doubled per\n"
        "                    attempt [100]\n"
        "  --backoff-cap-ms N  reconnect backoff ceiling [5000]\n"
        "  --protocol-version N  claim this version in the handshake\n"
        "                    (handshake-rejection drill) [current]\n"
        "  --unit-delay-ms N drill: sleep N ms before each unit [off]\n"
        "  --exit-after N    drill: _exit() abruptly after N results\n"
        "                    [off]\n"
        "  --fabric-key-file PATH  pre-shared key file; required to\n"
        "                    join a keyed coordinator (env:\n"
        "                    MTC_FABRIC_KEY_FILE) [keyless]\n"
        "  --drill-corrupt-results  Byzantine drill: silently corrupt\n"
        "                    every result; a coordinator audit\n"
        "                    (--audit-rate) must quarantine this\n"
        "                    worker [off]\n"
        "MTC_NET_FAULT_{DROP,DUP,CORRUPT,DELAY,REORDER,DRIP,\n"
        "DISCONNECT,DELAY_MS,SEED} inject seeded connection faults\n"
        "exit codes: 0 done, 1 usage error, 3 fatal fabric error\n"
        "            (rejected handshake / unreachable coordinator)\n";
}

struct Options
{
    WorkerClientConfig client;
    bool corruptResults = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    WorkerClientConfig &cfg = opt.client;
    cfg.name = "worker-" + std::to_string(::getpid());
    std::string key_file;
    if (const char *env = std::getenv("MTC_FABRIC_KEY_FILE")) {
        if (*env == '\0')
            throw ConfigError("MTC_FABRIC_KEY_FILE is set but empty; "
                              "unset it or give a path");
        key_file = env;
    }
    bool connected = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                throw ConfigError("missing value after " + arg);
            return argv[i];
        };
        if (arg == "--connect") {
            const std::string addr = next();
            const std::size_t colon = addr.rfind(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 == addr.size())
                throw ConfigError(
                    "--connect expects HOST:PORT, got \"" + addr +
                    "\"");
            cfg.host = addr.substr(0, colon);
            cfg.port = static_cast<std::uint16_t>(
                cli::parseCount("--connect port", addr.substr(colon + 1)));
            connected = true;
        } else if (arg == "--name")
            cfg.name = next();
        else if (arg == "--heartbeat-ms")
            cfg.heartbeatMs = cli::parseCount(arg, next());
        else if (arg == "--reconnects")
            cfg.maxReconnects =
                static_cast<unsigned>(cli::parseCount(arg, next()));
        else if (arg == "--backoff-ms")
            cfg.backoffBaseMs = cli::parseCount(arg, next());
        else if (arg == "--backoff-cap-ms")
            cfg.backoffCapMs = cli::parseCount(arg, next());
        else if (arg == "--protocol-version")
            cfg.protocolVersion =
                static_cast<std::uint32_t>(cli::parseCount(arg, next()));
        else if (arg == "--unit-delay-ms")
            cfg.unitDelayMs = cli::parseCount(arg, next());
        else if (arg == "--exit-after")
            cfg.exitAfterUnits = cli::parseCount(arg, next());
        else if (arg == "--fabric-key-file") {
            key_file = next();
            if (key_file.empty())
                throw ConfigError(
                    "--fabric-key-file expects a non-empty path");
        } else if (arg == "--drill-corrupt-results")
            opt.corruptResults = true;
        else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            throw ConfigError("unknown option: " + arg);
        }
    }
    if (!connected)
        throw ConfigError("--connect HOST:PORT is required");
    if (!key_file.empty())
        cfg.key = loadFabricKey(key_file);
    cfg.netFault = netFaultFromEnv(cfg.netFault);
    return opt;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseArgs(argc, argv);
    } catch (const Error &err) {
        std::cerr << "mtc_worker: " << err.what() << "\n";
        return 1;
    }
    const WorkerClientConfig &cfg = opt.client;

    try {
        std::cout << "mtc_worker '" << cfg.name << "': connecting to "
                  << cfg.host << ":" << cfg.port
                  << (cfg.key.empty() ? "" : " (authenticated)")
                  << "\n";
        // The runner is rebuilt on every handshake: after a
        // coordinator restart the spec may legitimately differ, and a
        // stale plan must never execute a new campaign's units.
        std::unique_ptr<CampaignUnitRunner> runner;
        const bool corrupt = opt.corruptResults;
        const WorkerRunStats stats = runWorkerClient(
            cfg,
            [&runner](const std::vector<std::uint8_t> &spec_bytes) {
                runner = std::make_unique<CampaignUnitRunner>(
                    decodeCampaignSpec(spec_bytes));
            },
            [&runner, corrupt](
                std::uint64_t,
                const std::vector<std::uint8_t> &request) {
                std::vector<std::uint8_t> response =
                    runner->run(request);
                if (corrupt) {
                    // Byzantine drill: a plausible lie, same shape as
                    // the loopback drill in dist_campaign.cc.
                    UnitRecord rec = decodeUnitRecord(response);
                    rec.outcome.result.uniqueSignatures += 1;
                    rec.outcome.result.signatureSetDigest ^=
                        0x5851f42d4c957f2dull;
                    response = encodeUnitRecord(rec);
                }
                return response;
            });
        std::cout << "mtc_worker '" << cfg.name << "': done, "
                  << stats.unitsExecuted << " units executed, "
                  << stats.reconnects << " reconnects\n";
        return 0;
    } catch (const Error &err) {
        std::cerr << "mtc_worker: " << err.what() << "\n";
        return 3;
    } catch (const std::exception &err) {
        std::cerr << "mtc_worker: " << err.what() << "\n";
        return 3;
    }
}
