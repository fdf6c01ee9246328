/**
 * @file
 * The deterministic campaign report: per-config "campaign summary:"
 * lines, the folded "campaign digest:" line, and the exit-code
 * mapping, shared by mtc_validate, mtc_coordinator and mtc_check.
 *
 * Byte-identity across producers is the whole point. The CI smoke
 * byte-diffs `grep '^campaign'` output between a serial run, a
 * distributed run, and an offline `mtc_check` re-check of a dumped
 * trace — so every line printed here must be free of wall-clock,
 * scheduling, and machine-shape influence. Keep operational output
 * (fabric stats, trace recovery notes) out of the "campaign " prefix.
 */

#ifndef MTC_HARNESS_CAMPAIGN_REPORT_H
#define MTC_HARNESS_CAMPAIGN_REPORT_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "harness/campaign.h"
#include "harness/exit_codes.h"
#include "support/framing.h"
#include "support/journal.h"
#include "support/table.h"

namespace mtc
{

/**
 * Fold one summary's deterministic fields (no wall-clock) into @p w —
 * the byte stream behind both the printed per-config digest and the
 * campaign digest.
 */
inline void
foldSummary(ByteWriter &w, const ConfigSummary &s)
{
    w.str(s.cfg.name());
    w.u32(s.tests);
    w.f64(s.avgUniqueSignatures);
    w.f64(s.avgSignatureBytes);
    w.f64(s.avgUnrelatedAccesses);
    w.f64(s.avgCodeRatio);
    w.u64(s.collectiveWork);
    w.u64(s.conventionalWork);
    w.u64(s.collectiveGraphs);
    w.u64(s.collectiveCompleteSorts);
    w.f64(s.fracComplete);
    w.f64(s.fracNoResort);
    w.f64(s.fracIncremental);
    w.f64(s.avgAffectedFraction);
    w.f64(s.avgComputationOverhead);
    w.f64(s.avgSortingOverhead);
    w.u64(s.violations);
    w.u64(s.quarantinedSignatures);
    w.u64(s.quarantinedIterations);
    w.u64(s.confirmedViolations);
    w.u64(s.transientViolations);
    w.u32(s.crashRetries);
    w.u32(s.testRetriesUsed);
    w.u32(s.failedTests);
    w.u32(s.hungTests);
    w.u32(s.hungAttempts);
    w.u8(s.degraded ? 1 : 0);
}

/** 16 lowercase hex digits, zero padded. */
inline std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    return out;
}

/** Campaign-wide verdict totals, folded while printing. */
struct CampaignTotals
{
    std::uint64_t violations = 0;
    std::uint64_t confirmed = 0;
    std::uint64_t transient = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t platformCrashes = 0; ///< the crash share of violations
    unsigned failed = 0;
    unsigned hung = 0;
    unsigned crashes = 0;
    bool tripped = false;
    bool degraded = false;
};

/**
 * Print the deterministic summary block — one "campaign summary:"
 * line per config plus the "campaign digest:" line — to @p out, and
 * degraded-config detail to @p err prefixed with @p tool.
 */
inline CampaignTotals
printCampaignReport(std::ostream &out, std::ostream &err,
                    const std::string &tool,
                    const std::vector<ConfigSummary> &summaries)
{
    CampaignTotals totals;
    ByteWriter campaign_fold;
    for (const ConfigSummary &s : summaries) {
        ByteWriter w;
        foldSummary(w, s);
        foldSummary(campaign_fold, s);
        out << "campaign summary: " << s.cfg.name()
            << " tests=" << s.tests
            << " violations=" << s.violations
            << " confirmed=" << s.confirmedViolations
            << " transient=" << s.transientViolations
            << " quarantined=" << s.quarantinedSignatures
            << " failed=" << s.failedTests
            << " hung=" << s.hungTests
            << " retries=" << s.testRetriesUsed
            << " digest="
            << hex64(fnv1a64(w.bytes().data(), w.bytes().size()))
            << "\n";
        totals.violations += s.violations;
        totals.confirmed += s.confirmedViolations;
        totals.transient += s.transientViolations;
        totals.quarantined += s.quarantinedSignatures;
        totals.platformCrashes += s.platformCrashes;
        totals.failed += s.failedTests;
        totals.hung += s.hungTests;
        totals.crashes += s.crashRetries;
        totals.tripped = totals.tripped || s.tripped;
        totals.degraded =
            totals.degraded || (s.degraded && !s.tripped);
        if (s.degraded && !s.error.empty())
            err << tool << ": " << s.cfg.name()
                << " degraded: " << s.error << "\n";
    }
    out << "campaign digest: "
        << hex64(fnv1a64(campaign_fold.bytes().data(),
                         campaign_fold.bytes().size()))
        << "\n";
    return totals;
}

/** Map verdict totals to the shared exit code (see exit_codes.h for
 * the priority argument). Platform crashes are counted inside
 * `violations` (the summary digests fold them there), but a crash is
 * not an MCM violation: crash-only campaigns map to the crash code. */
inline int
campaignExitCode(const CampaignTotals &t)
{
    if (t.violations > t.platformCrashes || t.confirmed)
        return kExitViolation;
    if (t.tripped)
        return kExitBreakerTripped;
    if (t.hung)
        return kExitHang;
    if (t.failed || t.crashes || t.platformCrashes || t.degraded)
        return kExitPlatformCrash;
    if (t.quarantined || t.transient)
        return kExitCorruptionOnly;
    return kExitClean;
}

/** The per-config detail table (`--verbose`). Operational: it holds
 * no "campaign " prefix, so the byte-compared block ignores it. */
inline void
printConfigTable(std::ostream &out,
                 const std::vector<ConfigSummary> &summaries)
{
    TablePrinter table({"config", "tests", "unique sigs", "violations",
                        "failed", "hung", "retries"});
    for (const ConfigSummary &s : summaries) {
        table.addRow({s.cfg.name(),
                      TablePrinter::fmt(std::uint64_t(s.tests)),
                      TablePrinter::fmt(s.avgUniqueSignatures, 2),
                      TablePrinter::fmt(s.violations),
                      TablePrinter::fmt(std::uint64_t(s.failedTests)),
                      TablePrinter::fmt(std::uint64_t(s.hungTests)),
                      TablePrinter::fmt(
                          std::uint64_t(s.testRetriesUsed))});
    }
    table.print(out);
    out << "\n";
}

} // namespace mtc

#endif // MTC_HARNESS_CAMPAIGN_REPORT_H
