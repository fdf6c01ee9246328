/**
 * @file
 * Offline trace checking: dump a campaign's signature streams to a
 * trace file (writeCampaignTrace), and later re-run the streaming
 * collective checker over them standalone (checkTrace / mtc_check),
 * producing per-config summaries byte-identical to the inline run.
 *
 * The dump is the last step of runCampaign in every execution mode —
 * in-process, sandboxed, distributed — because every mode lands its
 * outcomes in the same parent-side (config, test) slots; the trace
 * walks those slots in deterministic unit order regardless of which
 * worker produced them, so the file bytes are mode-invariant for a
 * given campaign.
 *
 * Ingestion is hardened per the trace format's threat model
 * (src/core/trace_format.h): every failure is a classified
 * TraceFaultKind, decoders bound allocations by the bytes present,
 * and a faulted trace either aborts with the classification (strict)
 * or yields a degraded summary over the longest intact prefix with
 * every fault reported (default).
 */

#ifndef MTC_HARNESS_TRACE_CHECK_H
#define MTC_HARNESS_TRACE_CHECK_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/trace_format.h"
#include "harness/campaign.h"
#include "harness/campaign_plan.h"

namespace mtc
{

/** Knobs of one offline check run. All operational: none of them can
 * change a verified summary's bytes. */
struct TraceCheckOptions
{
    std::string tracePath;

    /** Abort (throw TraceError) on the first fault instead of
     * quarantining it and degrading the summary. */
    bool strict = false;

    /** When set, every verified unit appends a checkpoint record here
     * (itself a trace-format file), so a killed check resumes. */
    std::string checkpointPath;

    /** Replay matching verdicts from @ref checkpointPath instead of
     * re-verifying. A checkpoint for another trace, or an entry whose
     * payload digest no longer matches the trace's bytes, is ignored
     * and the unit re-checked — a stale checkpoint can cost work,
     * never correctness. */
    bool resume = false;

    /** Units verified at once, one thread each (0 = one per hardware
     * thread); reports and checkpoint bytes are identical at any
     * value. */
    unsigned threads = 1;
};

/** One classified ingestion fault observed during a degraded check. */
struct TraceFault
{
    TraceFaultKind kind = TraceFaultKind::Corrupt;
    std::string detail;
};

/** What an offline check did and found. */
struct TraceCheckReport
{
    /** Per-config summaries — byte-identical (through
     * campaign_report.h) to the producing run's when the trace is
     * intact; quarantined/missing units count as skipped. */
    std::vector<ConfigSummary> summaries;

    /** Human-readable campaign identity from the trace header. */
    std::string identityDescription;

    std::size_t unitsInTrace = 0;   ///< unit records seen (incl. dupes)
    std::size_t unitsVerified = 0;  ///< re-checked against their streams
    std::size_t unitsAdopted = 0;   ///< non-Ok outcomes adopted verbatim
    std::size_t unitsReplayed = 0;  ///< skipped via matching checkpoint
    std::size_t quarantinedRecords = 0; ///< records excluded from summary
    std::size_t missingUnits = 0;   ///< planned units absent from trace
    std::size_t duplicateUnits = 0; ///< repeated (config, test) keys
    std::uint64_t tornBytesDropped = 0;
    std::uint64_t unknownRecordsSkipped = 0;

    /** Every classified fault, in discovery order (empty = clean). */
    std::vector<TraceFault> faults;

    bool anyFault() const { return !faults.empty(); }
};

/**
 * Ingest and verify the trace at @p options.tracePath.
 *
 * Verification re-derives each Ok unit's test program from the seeds
 * the spec fixes, re-instruments it, re-runs the shared checking stage
 * (checkSignatureStream) over the recorded signature stream, and
 * cross-checks every deterministic recorded field — signature-set
 * digest, checker stats, quarantine ledger, violation counts, static
 * metrics — against the recomputation. Any disagreement is a
 * FingerprintMismatch on that record.
 *
 * Units verify concurrently on @p options.threads workers, but faults,
 * counters, outcomes and checkpoint records are committed in (config,
 * test) order as the finished prefix grows, so the report, the
 * checkpoint bytes and the error `strict` throws are the same at any
 * thread count.
 *
 * @throws TraceError on fatal faults in any mode (unreadable file, no
 *         header, version skew, undecodable spec, header fingerprint
 *         mismatch), and on the first fault of any kind under
 *         `strict`.
 * @throws ConfigError/Error on operational failures (bad options).
 */
TraceCheckReport checkTrace(const TraceCheckOptions &options);

/**
 * Dump a finished campaign to @p path: header (identity fingerprint +
 * encoded spec) followed by one unit record per (config, test) slot in
 * deterministic unit order. Configs whose setup failed contribute no
 * units (their degradation is re-derived by the consumer from the same
 * spec).
 *
 * @throws ConfigError when an Ok slot claims unique signatures but
 *         carries no signature stream — the fingerprint of replaying a
 *         journal written by a campaign that did not retain streams;
 *         such a dump would verify as corrupt, so it is refused here.
 * @throws JournalError on I/O failure.
 */
void writeCampaignTrace(
    const std::string &path, const std::vector<TestConfig> &configs,
    const CampaignConfig &campaign,
    const std::vector<std::vector<TestPlan>> &plans,
    const std::vector<std::vector<TestOutcome>> &outcomes);

} // namespace mtc

#endif // MTC_HARNESS_TRACE_CHECK_H
