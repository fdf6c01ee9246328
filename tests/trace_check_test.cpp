/**
 * @file
 * Offline checking tests: dump→check byte-identity across execution
 * modes and checker thread counts, torn-trace recovery to the longest
 * intact prefix at every byte offset, checkpointed resume of a killed
 * check, and classification of tampered, duplicated, and foreign
 * records — each also at 4 threads, where units verify concurrently
 * and must commit the same faults, counters and checkpoint bytes.
 *
 * "Byte-identical" is asserted on the exact bytes the report layer
 * folds into the printed digests (campaign_report.h's foldSummary), so
 * these tests compare what the CI smoke byte-diffs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/trace_format.h"
#include "harness/campaign.h"
#include "harness/campaign_journal.h"
#include "harness/campaign_report.h"
#include "harness/trace_check.h"
#include "support/journal.h"

namespace mtc
{
namespace
{

namespace fs = std::filesystem;

/** Unique scratch path that cleans up after itself. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : p((fs::temp_directory_path() /
             ("mtc_tchk_" + name + "_" +
              std::to_string(static_cast<std::uint64_t>(::getpid()))))
                .string())
    {
        std::remove(p.c_str());
    }

    ~TempFile() { std::remove(p.c_str()); }

    const std::string &path() const { return p; }

  private:
    std::string p;
};

/** The exact byte stream behind a printed per-config digest. */
std::vector<std::uint8_t>
digestBytes(const ConfigSummary &summary)
{
    ByteWriter w;
    foldSummary(w, summary);
    return w.bytes();
}

void
expectReportIdentical(const std::vector<ConfigSummary> &inline_run,
                      const std::vector<ConfigSummary> &offline,
                      const std::string &what)
{
    ASSERT_EQ(inline_run.size(), offline.size()) << what;
    for (std::size_t i = 0; i < inline_run.size(); ++i)
        EXPECT_EQ(digestBytes(inline_run[i]), digestBytes(offline[i]))
            << what << ": config " << inline_run[i].cfg.name();
}

/** Two checks agree on everything they report: the fault list (kind,
 * detail, order), every counter, and the summary bytes. */
void
expectSameReport(const TraceCheckReport &a, const TraceCheckReport &b,
                 const std::string &what)
{
    ASSERT_EQ(a.faults.size(), b.faults.size()) << what;
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_EQ(a.faults[i].kind, b.faults[i].kind)
            << what << ": fault " << i;
        EXPECT_EQ(a.faults[i].detail, b.faults[i].detail)
            << what << ": fault " << i;
    }
    EXPECT_EQ(a.identityDescription, b.identityDescription) << what;
    EXPECT_EQ(a.unitsInTrace, b.unitsInTrace) << what;
    EXPECT_EQ(a.unitsVerified, b.unitsVerified) << what;
    EXPECT_EQ(a.unitsAdopted, b.unitsAdopted) << what;
    EXPECT_EQ(a.unitsReplayed, b.unitsReplayed) << what;
    EXPECT_EQ(a.quarantinedRecords, b.quarantinedRecords) << what;
    EXPECT_EQ(a.missingUnits, b.missingUnits) << what;
    EXPECT_EQ(a.duplicateUnits, b.duplicateUnits) << what;
    EXPECT_EQ(a.tornBytesDropped, b.tornBytesDropped) << what;
    EXPECT_EQ(a.unknownRecordsSkipped, b.unknownRecordsSkipped) << what;
    expectReportIdentical(a.summaries, b.summaries, what);
}

TraceCheckReport
checkAt(TraceCheckOptions opt, unsigned threads)
{
    opt.threads = threads;
    return checkTrace(opt);
}

/** The TraceError a check throws, as (kind, message); "" if none. */
std::pair<TraceFaultKind, std::string>
traceErrorOf(const TraceCheckOptions &opt)
{
    try {
        (void)checkTrace(opt);
    } catch (const TraceError &err) {
        return {err.kind(), err.what()};
    }
    return {TraceFaultKind::Corrupt, ""};
}

std::vector<char>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::vector<TestConfig>
smallConfigs()
{
    return {parseConfigName("x86-2-50-32"),
            parseConfigName("ARM-2-50-32")};
}

/** Small but eventful: fault injection plus confirmation, so the
 * offline verifier re-derives quarantine ledgers and transient
 * verdicts, not just clean streams. */
CampaignConfig
faultyCampaign()
{
    CampaignConfig campaign;
    campaign.iterations = 64;
    campaign.testsPerConfig = 2;
    campaign.runConventional = false;
    campaign.fault.bitFlipRate = 0.02;
    campaign.fault.tornStoreRate = 0.01;
    campaign.fault.dropRate = 0.01;
    campaign.fault.duplicateRate = 0.01;
    campaign.recovery.confirmationRuns = 2;
    campaign.recovery.crashRetries = 1;
    return campaign;
}

// ---------------------------------------------------------------------
// Byte-identity: modes x checker threads.
// ---------------------------------------------------------------------

TEST(TraceCheck, DumpCheckByteIdenticalAcrossModesAndThreads)
{
    const CampaignConfig base = faultyCampaign();
    const auto inline_run = runCampaign(smallConfigs(), base);

    const struct
    {
        ExecutionMode mode;
        const char *name;
    } modes[] = {
        {ExecutionMode::InProcess, "in-process"},
        {ExecutionMode::Sandboxed, "sandboxed"},
        {ExecutionMode::Distributed, "distributed"},
    };
    for (const auto &m : modes) {
        TempFile trace(std::string("modes_") + m.name);
        CampaignConfig producer = base;
        producer.mode = m.mode;
        producer.dumpTracePath = trace.path();
        const auto produced = runCampaign(smallConfigs(), producer);
        expectReportIdentical(inline_run, produced,
                              std::string(m.name) + " producer");

        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            TraceCheckOptions opt;
            opt.tracePath = trace.path();
            opt.threads = threads;
            const TraceCheckReport report = checkTrace(opt);
            EXPECT_FALSE(report.anyFault())
                << m.name << " threads=" << threads;
            EXPECT_EQ(report.unitsVerified, 4u);
            EXPECT_EQ(report.missingUnits, 0u);
            expectReportIdentical(inline_run, report.summaries,
                                  std::string(m.name) + " check t" +
                                      std::to_string(threads));
        }
    }
}

// ---------------------------------------------------------------------
// Torn traces: longest intact prefix at every byte offset.
// ---------------------------------------------------------------------

TEST(TraceCheck, TornTraceCheckedToLongestPrefixAtEveryByteOffset)
{
    // Three units, so that a cut in the last one leaves two intact
    // units for the 4-thread check to verify concurrently.
    constexpr std::size_t kUnits = 3;
    CampaignConfig campaign;
    campaign.iterations = 32;
    campaign.testsPerConfig = kUnits;
    campaign.runConventional = false;

    TempFile master("torn_master");
    campaign.dumpTracePath = master.path();
    const auto inline_run =
        runCampaign({parseConfigName("x86-2-50-32")}, campaign);

    const JournalRecovery layout = readJournal(master.path());
    ASSERT_EQ(layout.records.size(), 1 + kUnits); // header + units
    std::vector<std::uint64_t> ends;
    std::uint64_t at = 0;
    for (const auto &rec : layout.records) {
        at += kFrameHeaderBytes + rec.size();
        ends.push_back(at);
    }
    const std::uint64_t total = ends.back();
    ASSERT_EQ(total, fs::file_size(master.path()));

    for (std::uint64_t cut = 0; cut <= total; ++cut) {
        TempFile torn("torn_cut" + std::to_string(cut));
        fs::copy_file(master.path(), torn.path(),
                      fs::copy_options::overwrite_existing);
        fs::resize_file(torn.path(), cut);

        TraceCheckOptions opt;
        opt.tracePath = torn.path();
        if (cut < ends[0]) {
            // No intact header: fatal in any mode, and classified.
            const auto serial = traceErrorOf(opt);
            EXPECT_FALSE(serial.second.empty())
                << "headerless prefix checked at cut " << cut;
            EXPECT_EQ(serial.first, TraceFaultKind::Truncated)
                << "cut at " << cut;
            opt.threads = 4;
            EXPECT_EQ(traceErrorOf(opt), serial) << "cut at " << cut;
            continue;
        }
        std::size_t intact = 0;
        while (intact < kUnits && cut >= ends[intact + 1])
            ++intact;
        const TraceCheckReport report = checkTrace(opt);
        EXPECT_EQ(report.unitsVerified, intact) << "cut at " << cut;
        EXPECT_EQ(report.missingUnits, kUnits - intact)
            << "cut at " << cut;
        EXPECT_EQ(report.anyFault(), cut != total) << "cut at " << cut;
        ASSERT_EQ(report.summaries.size(), 1u);
        if (intact == kUnits) {
            expectReportIdentical(inline_run, report.summaries,
                                  "cut at " + std::to_string(cut));
        } else {
            // Partial coverage: the verified prefix is summarized, the
            // torn remainder counts as skipped — never as clean.
            EXPECT_EQ(report.summaries[0].tests, intact)
                << "cut at " << cut;
            EXPECT_EQ(report.summaries[0].skippedTests, kUnits - intact)
                << "cut at " << cut;
        }
        expectSameReport(report, checkAt(opt, 4),
                         "threads 4, cut at " + std::to_string(cut));

        // Strict mode refuses the same torn prefix outright, with the
        // same error at any thread count.
        if (cut != total) {
            TraceCheckOptions strict = opt;
            strict.strict = true;
            const auto serial = traceErrorOf(strict);
            EXPECT_FALSE(serial.second.empty()) << "cut at " << cut;
            strict.threads = 4;
            EXPECT_EQ(traceErrorOf(strict), serial) << "cut at " << cut;
        }
    }
}

// ---------------------------------------------------------------------
// Checkpointed resume.
// ---------------------------------------------------------------------

TEST(TraceCheck, ResumeReplaysCheckpointedVerdictsBitIdentically)
{
    const CampaignConfig base = faultyCampaign();
    TempFile trace("resume_trace");
    CampaignConfig producer = base;
    producer.dumpTracePath = trace.path();
    const auto inline_run = runCampaign(smallConfigs(), producer);

    TempFile ckpt("resume_ckpt"), wide_ckpt("resume_ckpt_t4");
    TraceCheckOptions opt;
    opt.tracePath = trace.path();
    opt.checkpointPath = ckpt.path();
    const TraceCheckReport first = checkTrace(opt);
    EXPECT_EQ(first.unitsVerified, 4u);
    EXPECT_EQ(first.unitsReplayed, 0u);
    expectReportIdentical(inline_run, first.summaries, "first pass");

    // Units verified concurrently still append in unit order.
    TraceCheckOptions wide = opt;
    wide.threads = 4;
    wide.checkpointPath = wide_ckpt.path();
    expectSameReport(first, checkTrace(wide), "first pass, threads 4");
    EXPECT_EQ(fileBytes(ckpt.path()), fileBytes(wide_ckpt.path()));

    // A completed checkpoint replays every verdict.
    opt.resume = true;
    const TraceCheckReport full = checkTrace(opt);
    EXPECT_EQ(full.unitsReplayed, 4u);
    EXPECT_EQ(full.unitsVerified, 0u);
    expectReportIdentical(inline_run, full.summaries, "full resume");

    // "SIGKILL" the checker: tear the checkpoint mid-record. The
    // resumed check replays the intact verdicts, re-checks the rest,
    // and still reproduces the same bytes.
    const std::uint64_t torn_size =
        fs::file_size(ckpt.path()) * 6 / 10 + 3;
    fs::resize_file(ckpt.path(), torn_size);
    fs::copy_file(ckpt.path(), wide_ckpt.path(),
                  fs::copy_options::overwrite_existing);
    const TraceCheckReport resumed = checkTrace(opt);
    EXPECT_GT(resumed.unitsReplayed, 0u);
    EXPECT_GT(resumed.unitsVerified, 0u);
    EXPECT_EQ(resumed.unitsReplayed + resumed.unitsVerified, 4u);
    expectReportIdentical(inline_run, resumed.summaries, "torn resume");
    wide.resume = true;
    expectSameReport(resumed, checkTrace(wide), "torn resume, threads 4");
    EXPECT_EQ(fileBytes(ckpt.path()), fileBytes(wide_ckpt.path()));

    // A checkpoint for another trace is rebuilt, not trusted.
    TempFile other_trace("resume_other");
    CampaignConfig other = base;
    other.seed = base.seed + 1;
    other.dumpTracePath = other_trace.path();
    const auto other_inline = runCampaign(smallConfigs(), other);
    TraceCheckOptions cross;
    cross.tracePath = other_trace.path();
    cross.checkpointPath = ckpt.path();
    cross.resume = true;
    const TraceCheckReport rebuilt = checkTrace(cross);
    EXPECT_EQ(rebuilt.unitsReplayed, 0u);
    EXPECT_EQ(rebuilt.unitsVerified, 4u);
    expectReportIdentical(other_inline, rebuilt.summaries,
                          "foreign checkpoint");
}

// ---------------------------------------------------------------------
// Tampered, duplicated, and foreign records.
// ---------------------------------------------------------------------

/** Rewrite @p path from whole frame payloads (journal layer). */
void
rewriteFrames(const std::string &path,
              const std::vector<std::vector<std::uint8_t>> &frames)
{
    std::remove(path.c_str());
    JournalWriter writer(path);
    for (const auto &frame : frames)
        writer.append(frame);
}

std::vector<std::vector<std::uint8_t>>
dumpSmallTrace(const std::string &path, std::uint64_t seed = 2017,
               unsigned tests = 2)
{
    CampaignConfig campaign;
    campaign.iterations = 32;
    campaign.testsPerConfig = tests;
    campaign.runConventional = false;
    campaign.seed = seed;
    campaign.dumpTracePath = path;
    (void)runCampaign({parseConfigName("x86-2-50-32")}, campaign);
    return readJournal(path).records;
}

TEST(TraceCheck, TamperedUnitQuarantinedAsFingerprintMismatch)
{
    TempFile trace("tamper");
    auto frames = dumpSmallTrace(trace.path(), 2017, 4);
    ASSERT_EQ(frames.size(), 5u);

    // Re-frame unit 1 with a plausible lie: same stream, wrong count.
    // The frame checksum is valid again after re-framing, so only the
    // offline recomputation can catch it.
    UnitRecord unit = decodeUnitRecord(std::vector<std::uint8_t>(
        frames[2].begin() + 1, frames[2].end()));
    unit.outcome.result.violatingSignatures += 1;
    std::vector<std::uint8_t> payload = {kTraceUnitTag};
    const auto body = encodeUnitRecord(unit);
    payload.insert(payload.end(), body.begin(), body.end());
    frames[2] = payload;
    rewriteFrames(trace.path(), frames);

    TraceCheckOptions opt;
    opt.tracePath = trace.path();
    const TraceCheckReport report = checkTrace(opt);
    EXPECT_EQ(report.unitsVerified, 3u);
    EXPECT_EQ(report.quarantinedRecords, 1u);
    ASSERT_EQ(report.faults.size(), 1u);
    EXPECT_EQ(report.faults[0].kind,
              TraceFaultKind::FingerprintMismatch);
    ASSERT_EQ(report.summaries.size(), 1u);
    EXPECT_EQ(report.summaries[0].tests, 3u);
    EXPECT_EQ(report.summaries[0].skippedTests, 1u);
    expectSameReport(report, checkAt(opt, 4), "threads 4");

    // Strict mode stops at the tampered unit, in the middle of the
    // trace: the same error, and a checkpoint holding exactly the
    // unit before it plus its quarantine, at any thread count.
    TempFile serial_ckpt("tamper_ckpt"), wide_ckpt("tamper_ckpt_t4");
    TraceCheckOptions strict = opt;
    strict.strict = true;
    strict.checkpointPath = serial_ckpt.path();
    const auto serial = traceErrorOf(strict);
    EXPECT_EQ(serial.first, TraceFaultKind::FingerprintMismatch);
    EXPECT_NE(serial.second.find("unit 1 of"), std::string::npos)
        << serial.second;
    EXPECT_EQ(readJournal(serial_ckpt.path()).records.size(), 3u);
    strict.threads = 4;
    strict.checkpointPath = wide_ckpt.path();
    EXPECT_EQ(traceErrorOf(strict), serial);
    EXPECT_EQ(fileBytes(serial_ckpt.path()), fileBytes(wide_ckpt.path()));
}

TEST(TraceCheck, DuplicateRecordClassifiedCorruptFirstKept)
{
    TempFile trace("dup");
    auto frames = dumpSmallTrace(trace.path());
    frames.push_back(frames[1]); // duplicate unit 0 at the tail
    rewriteFrames(trace.path(), frames);

    TraceCheckOptions opt;
    opt.tracePath = trace.path();
    const TraceCheckReport report = checkTrace(opt);
    EXPECT_EQ(report.duplicateUnits, 1u);
    EXPECT_EQ(report.unitsVerified, 2u); // first copies win, both check
    ASSERT_EQ(report.faults.size(), 1u);
    EXPECT_EQ(report.faults[0].kind, TraceFaultKind::Corrupt);
    ASSERT_EQ(report.summaries.size(), 1u);
    EXPECT_EQ(report.summaries[0].tests, 2u);
    expectSameReport(report, checkAt(opt, 4), "threads 4");
}

TEST(TraceCheck, ForeignHeaderDigestRejectedAsFingerprintMismatch)
{
    TempFile trace("foreign");
    auto frames = dumpSmallTrace(trace.path());

    TraceHeader header = decodeTraceHeader(std::vector<std::uint8_t>(
        frames[0].begin() + 1, frames[0].end()));
    header.identityDigest ^= 0x1; // an edited or mixed-up trace
    frames[0] = encodeTraceHeader(header);
    rewriteFrames(trace.path(), frames);

    TraceCheckOptions opt;
    opt.tracePath = trace.path();
    const auto serial = traceErrorOf(opt); // fatal even in degraded mode
    EXPECT_FALSE(serial.second.empty()) << "foreign trace checked";
    EXPECT_EQ(serial.first, TraceFaultKind::FingerprintMismatch);
    opt.threads = 4;
    EXPECT_EQ(traceErrorOf(opt), serial);
}

TEST(TraceCheck, RetiredShardSlotInHeaderSpecRejectedAsCorrupt)
{
    TempFile trace("shard_slot");
    auto frames = dumpSmallTrace(trace.path());

    // A trace from a sharded campaign: its spec's retired shard-size
    // slot (after testRetries, as in dist_test) is non-zero. The spec
    // no longer decodes, so the header is corrupt, whatever the
    // identity digest says.
    TraceHeader header = decodeTraceHeader(std::vector<std::uint8_t>(
        frames[0].begin() + 1, frames[0].end()));
    constexpr std::size_t kShardSlot = 4 + 4 + 8 + 4 + 8 + 4 + 8 + 4 +
        1 + 5 * 8 + 8 + 4 + 8 + 4 + 4;
    ASSERT_GT(header.spec.size(), kShardSlot);
    header.spec[kShardSlot] = 8;
    frames[0] = encodeTraceHeader(header);
    rewriteFrames(trace.path(), frames);

    TraceCheckOptions opt;
    opt.tracePath = trace.path();
    const auto serial = traceErrorOf(opt);
    EXPECT_EQ(serial.first, TraceFaultKind::Corrupt);
    EXPECT_NE(serial.second.find("shard-size slot"), std::string::npos)
        << serial.second;
}

TEST(TraceCheck, UnitFromAnotherCampaignRejectedBySeedBinding)
{
    // Splice a unit dumped under a different campaign seed into an
    // otherwise valid trace: the record decodes, the config matches,
    // but its plan-bound seeds disagree with the spec's derivation.
    TempFile trace("splice"), donor("splice_donor");
    auto frames = dumpSmallTrace(trace.path());
    const auto donor_frames = dumpSmallTrace(donor.path(), 4242);
    frames[1] = donor_frames[1];
    rewriteFrames(trace.path(), frames);

    TraceCheckOptions opt;
    opt.tracePath = trace.path();
    const TraceCheckReport report = checkTrace(opt);
    EXPECT_EQ(report.unitsVerified, 1u);
    ASSERT_GE(report.faults.size(), 1u);
    EXPECT_EQ(report.faults[0].kind,
              TraceFaultKind::FingerprintMismatch);
    // The rejected record's slot is missing, not silently adopted.
    EXPECT_EQ(report.missingUnits, 1u);
    expectSameReport(report, checkAt(opt, 4), "threads 4");
}

} // anonymous namespace
} // namespace mtc
