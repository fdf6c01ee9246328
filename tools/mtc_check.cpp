/**
 * @file
 * mtc_check — standalone offline trace checker.
 *
 * Ingests a trace dumped by a campaign run (`mtc_coordinator
 * --dump-trace` / MTC_DUMP_TRACE), re-derives every test program from
 * the spec embedded in the trace header, re-runs the streaming
 * collective checker over each recorded signature stream, and prints
 * the same deterministic "campaign summary:" / "campaign digest:"
 * block as the producing run — byte-identical when the trace is
 * intact (the CI smoke diffs the two).
 *
 * Usage:
 *   mtc_check [options] TRACE
 *     --strict            abort on the first classified trace fault
 *                         instead of degrading the summary
 *     --checkpoint PATH   append per-unit progress records here
 *     --resume            replay verdicts from --checkpoint whose
 *                         payload digests still match the trace
 *     --threads N         checker worker threads (bit-identical) [1]
 *     --no-stream         barrier pipeline instead of streaming
 *     --stream-window N   streaming decode→check window [64]
 *     --help
 *
 * Exit status extends mtc_validate/mtc_coordinator:
 *   0 clean, 1 config error, 2 confirmed violation, 3 corruption
 *   only, 4 failed/abandoned units, 5 hang, 6 breaker tripped,
 *   7 trace fault (torn/corrupt/version-skew/fingerprint-mismatch).
 *   A violation outranks a trace fault; a trace fault outranks every
 *   lesser verdict.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/campaign_report.h"
#include "harness/exit_codes.h"
#include "harness/trace_check.h"
#include "cli_common.h"

using namespace mtc;

namespace
{

void
usage()
{
    std::cout <<
        "mtc_check: offline trace checker\n"
        "  mtc_check [options] TRACE\n"
        "  --strict          abort on the first classified trace\n"
        "                    fault instead of degrading the summary\n"
        "  --checkpoint PATH append per-unit progress records (a\n"
        "                    trace-format file) so a killed check\n"
        "                    resumes\n"
        "  --resume          replay verdicts from --checkpoint whose\n"
        "                    payload digests still match the trace;\n"
        "                    stale entries are re-checked\n"
        "  --threads N       checker worker threads; results are\n"
        "                    bit-identical at any value [1]\n"
        "  --no-stream       barrier decode-all/check-all pipeline\n"
        "                    instead of streaming (A/B baseline)\n"
        "  --stream-window N streaming decode->check window [64]\n"
        "exit codes: 0 clean, 1 config error, 2 confirmed violation,\n"
        "            3 corruption only, 4 failed/abandoned units,\n"
        "            5 hang, 6 circuit breaker tripped, 7 trace fault\n";
}

TraceCheckOptions
parseArgs(int argc, char **argv)
{
    TraceCheckOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                throw ConfigError("missing value after " + arg);
            return argv[i];
        };
        if (arg == "--strict")
            opt.strict = true;
        else if (arg == "--checkpoint") {
            opt.checkpointPath = next();
            if (opt.checkpointPath.empty())
                throw ConfigError(
                    "--checkpoint expects a non-empty path");
        } else if (arg == "--resume")
            opt.resume = true;
        else if (arg == "--threads")
            opt.threads =
                static_cast<unsigned>(cli::parseCount(arg, next()));
        else if (arg == "--no-stream")
            opt.streamCheck = false;
        else if (arg == "--stream-window")
            opt.streamWindow =
                static_cast<std::size_t>(cli::parseCount(arg, next()));
        else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else if (!arg.empty() && arg[0] == '-') {
            throw ConfigError("unknown option: " + arg);
        } else if (opt.tracePath.empty()) {
            opt.tracePath = arg;
        } else {
            throw ConfigError("more than one trace path given");
        }
    }
    if (opt.tracePath.empty())
        throw ConfigError("no trace path given (see --help)");
    if (opt.resume && opt.checkpointPath.empty())
        throw ConfigError("--resume needs --checkpoint PATH");
    return opt;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        const TraceCheckOptions opt = parseArgs(argc, argv);
        const TraceCheckReport report = checkTrace(opt);

        std::cout << "MTraceCheck offline check: " << opt.tracePath
                  << " (" << report.identityDescription << ")\n\n";

        const CampaignTotals totals = printCampaignReport(
            std::cout, std::cerr, "mtc_check", report.summaries);

        // Operational ingest report. Deliberately NOT prefixed
        // "campaign": the CI smoke byte-compares `grep '^campaign'`
        // against the producing run, and ingest bookkeeping is not
        // part of that deterministic contract.
        std::cout << "trace check: units=" << report.unitsInTrace
                  << " verified=" << report.unitsVerified
                  << " adopted=" << report.unitsAdopted
                  << " replayed=" << report.unitsReplayed
                  << " quarantined=" << report.quarantinedRecords
                  << " missing=" << report.missingUnits
                  << " duplicates=" << report.duplicateUnits
                  << " torn-bytes=" << report.tornBytesDropped
                  << " unknown-skipped=" << report.unknownRecordsSkipped
                  << "\n";
        for (const TraceFault &f : report.faults)
            std::cerr << "mtc_check: trace fault ["
                      << traceFaultName(f.kind) << "] " << f.detail
                      << "\n";

        const int code = campaignExitCode(totals);
        if (code == kExitViolation)
            return code; // a real violation outranks trace damage
        if (report.anyFault())
            return kExitTraceFault;
        return code;
    } catch (const TraceError &err) {
        std::cerr << "mtc_check: trace fault ["
                  << traceFaultName(err.kind()) << "] " << err.what()
                  << "\n";
        return kExitTraceFault;
    } catch (const Error &err) {
        std::cerr << "mtc_check: " << err.what() << "\n";
        return kExitConfigError;
    } catch (const std::exception &err) {
        std::cerr << "mtc_check: " << err.what() << "\n";
        return kExitConfigError;
    }
}
