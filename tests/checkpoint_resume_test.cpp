/**
 * @file
 * Crash-resilience tests: the journaled checkpoint/resume pipeline,
 * the hang watchdog, and the per-config circuit breaker.
 *
 * The journal's contract is sharp enough to test exactly: a campaign
 * SIGKILLed at any byte — including mid-record — must resume to a
 * summary bit-identical (deterministic fields) to an uninterrupted
 * run, at any thread count, with fault injection active. The torn
 * tail is exercised at every byte offset of the final record; the
 * watchdog must reclaim an injected infinite stall well inside twice
 * its deadline; the breaker must skip exactly the remaining units and
 * account for what it saw.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "harness/campaign.h"
#include "harness/campaign_journal.h"
#include "harness/watchdog.h"
#include "support/cancellation.h"
#include "support/journal.h"
#include "support/process.h"
#include "support/thread_pool.h"
#include "testgen/generator.h"

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
             ("mtc_ckpt_" + name + "_" +
              std::to_string(static_cast<std::uint64_t>(
                  ::getpid()))))
                .string())
    {
        std::remove(p.c_str());
    }

    ~TempFile() { std::remove(p.c_str()); }

    const std::string &path() const { return p; }

  private:
    std::string p;
};

std::uint64_t
fileSize(const std::string &path)
{
    return static_cast<std::uint64_t>(fs::file_size(path));
}

// ---------------------------------------------------------------------
// Framing layer: ByteWriter/ByteReader and the torn-tail recovery.
// ---------------------------------------------------------------------

TEST(JournalFraming, ByteCodecRoundTripsEveryFieldBitExact)
{
    ByteWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.f64(0.1); // not exactly representable: must round-trip the bits
    w.f64(-0.0);
    w.str("");
    w.str(std::string("nul\0inside", 10));

    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.f64(), 0.1);
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
    EXPECT_TRUE(r.exhausted());
}

TEST(JournalFraming, ReaderThrowsOnUnderrun)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.u64(), JournalError);
}

TEST(JournalFraming, WriteReadRoundTrip)
{
    TempFile file("roundtrip");
    const std::vector<std::vector<std::uint8_t>> payloads = {
        {}, {1}, {2, 3, 4}, std::vector<std::uint8_t>(1000, 0x5A)};
    {
        JournalWriter writer(file.path(), 2);
        for (const auto &p : payloads)
            writer.append(p);
        EXPECT_EQ(writer.recordsWritten(), payloads.size());
    }
    const JournalRecovery recovery = readJournal(file.path());
    EXPECT_EQ(recovery.droppedBytes, 0u);
    EXPECT_EQ(recovery.validBytes, fileSize(file.path()));
    ASSERT_EQ(recovery.records.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i)
        EXPECT_EQ(recovery.records[i], payloads[i]);
}

TEST(JournalFraming, MissingFileReadsAsEmpty)
{
    const JournalRecovery recovery =
        readJournal("/nonexistent/dir/never.mtcj");
    EXPECT_TRUE(recovery.records.empty());
    EXPECT_EQ(recovery.validBytes, 0u);
}

TEST(JournalFraming, TornTailRecoveredAtEveryByteOffset)
{
    TempFile master("torn_master");
    const std::vector<std::uint8_t> p0 = {10, 11, 12};
    const std::vector<std::uint8_t> p1 = {20};
    const std::vector<std::uint8_t> p2 = {30, 31, 32, 33, 34};
    {
        JournalWriter writer(master.path());
        writer.append(p0);
        writer.append(p1);
        writer.append(p2);
    }
    const std::uint64_t full = fileSize(master.path());
    const std::uint64_t prefix2 = (kFrameHeaderBytes + p0.size()) +
                                  (kFrameHeaderBytes +
                                   p1.size()); // intact first two
    ASSERT_EQ(full, prefix2 + kFrameHeaderBytes + p2.size());

    // A SIGKILL can cut the file anywhere inside the final frame: in
    // the length word, the checksum, or the payload. Every cut must
    // recover exactly the first two records and report the tail.
    for (std::uint64_t cut = prefix2; cut < full; ++cut) {
        TempFile torn("torn_cut" + std::to_string(cut));
        fs::copy_file(master.path(), torn.path(),
                      fs::copy_options::overwrite_existing);
        fs::resize_file(torn.path(), cut);

        JournalRecovery recovery = readJournal(torn.path());
        ASSERT_EQ(recovery.records.size(), 2u) << "cut at " << cut;
        EXPECT_EQ(recovery.records[0], p0);
        EXPECT_EQ(recovery.records[1], p1);
        EXPECT_EQ(recovery.validBytes, prefix2);
        EXPECT_EQ(recovery.droppedBytes, cut - prefix2);

        // Recovery truncates the tail and appending continues cleanly.
        truncateToValidPrefix(torn.path(), recovery);
        EXPECT_EQ(fileSize(torn.path()), prefix2);
        {
            JournalWriter writer(torn.path());
            writer.append(p2);
        }
        const JournalRecovery again = readJournal(torn.path());
        ASSERT_EQ(again.records.size(), 3u);
        EXPECT_EQ(again.records[2], p2);
        EXPECT_EQ(again.droppedBytes, 0u);
    }
}

TEST(JournalFraming, CorruptedChecksumDropsTail)
{
    TempFile file("corrupt");
    {
        JournalWriter writer(file.path());
        writer.append({1, 2, 3});
        writer.append({4, 5, 6});
    }
    // Flip one payload byte of the second record; its checksum now
    // fails and the reader must stop after the first record.
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kFrameHeaderBytes + 3 +
                                        kFrameHeaderBytes + 1));
    f.put(static_cast<char>(0x7F));
    f.close();

    const JournalRecovery recovery = readJournal(file.path());
    ASSERT_EQ(recovery.records.size(), 1u);
    EXPECT_EQ(recovery.records[0], (std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_GT(recovery.droppedBytes, 0u);
}

// ---------------------------------------------------------------------
// Record layer: unit records and campaign identity.
// ---------------------------------------------------------------------

UnitRecord
sampleRecord()
{
    UnitRecord record;
    record.configName = "x86-4-50-64";
    record.testIndex = 7;
    record.genSeed = 0x1111111111111111ull;
    record.flowSeed = 0x2222222222222222ull;
    record.outcome.status = TestStatus::Ok;
    record.outcome.ok = true;
    record.outcome.retriesUsed = 1;
    record.outcome.hungAttempts = 2;

    FlowResult &r = record.outcome.result;
    r.iterationsRun = 4096;
    r.uniqueSignatures = 123;
    r.signatureSetDigest = 0xfeedfacecafebeefull;
    r.assertionFailures = 1;
    r.platformCrashes = 2;
    r.violatingSignatures = 3;
    r.collective.graphsChecked = 123;
    r.collective.completeSorts = 4;
    r.collective.noResortNeeded = 60;
    r.collective.incrementalResorts = 59;
    r.collective.affectedFraction =
        RunningStat::fromSumCount(17.25, 59);
    r.collective.verticesProcessed = 1000;
    r.collective.edgesProcessed = 2000;
    r.conventional.graphsChecked = 123;
    r.conventional.verticesProcessed = 5000;
    r.conventional.edgesProcessed = 9000;
    r.collectiveMs = 1.5;
    r.conventionalMs = 12.25;
    r.decodeMs = 0.125;
    r.originalCycles = 11;
    r.computeCycles = 22;
    r.sortCycles = 33;
    r.computationOverhead = 0.4;
    r.sortingOverhead = 0.6;
    r.intrusive.testLoads = 100;
    r.intrusive.testStores = 101;
    r.intrusive.flushStores = 102;
    r.intrusive.signatureWords = 103;
    r.intrusive.signatureBytes = 104;
    r.code.originalBytes = 2048;
    r.code.instrumentedBytes = 4096;
    r.violationWitness = "cycle: a -> b -> a";
    r.fault.injected.bitFlips = 5;
    r.fault.injected.corruptedIterations = 4;
    r.fault.recordedIterations = 4100;
    r.fault.quarantined.resize(3);
    r.fault.quarantinedIterations = 9;
    r.fault.decodedSignatures = 120;
    r.fault.confirmedViolations = 2;
    r.fault.transientViolations = 1;
    r.fault.confirmationRunsUsed = 6;
    r.fault.crashRetries = 1;
    r.fault.note = "degraded: something happened";
    r.profile.totalNs = 777;
    r.profile.ns[2] = 555;
    r.profile.count[2] = 3;
    return record;
}

TEST(UnitRecordCodec, RoundTripsEveryJournaledField)
{
    const UnitRecord a = sampleRecord();
    const UnitRecord b = decodeUnitRecord(encodeUnitRecord(a));

    EXPECT_EQ(b.configName, a.configName);
    EXPECT_EQ(b.testIndex, a.testIndex);
    EXPECT_EQ(b.genSeed, a.genSeed);
    EXPECT_EQ(b.flowSeed, a.flowSeed);
    EXPECT_EQ(b.outcome.status, a.outcome.status);
    EXPECT_EQ(b.outcome.ok, a.outcome.ok);
    EXPECT_EQ(b.outcome.retriesUsed, a.outcome.retriesUsed);
    EXPECT_EQ(b.outcome.hungAttempts, a.outcome.hungAttempts);

    const FlowResult &x = a.outcome.result;
    const FlowResult &y = b.outcome.result;
    EXPECT_EQ(y.iterationsRun, x.iterationsRun);
    EXPECT_EQ(y.uniqueSignatures, x.uniqueSignatures);
    EXPECT_EQ(y.signatureSetDigest, x.signatureSetDigest);
    EXPECT_EQ(y.assertionFailures, x.assertionFailures);
    EXPECT_EQ(y.platformCrashes, x.platformCrashes);
    EXPECT_EQ(y.violatingSignatures, x.violatingSignatures);
    EXPECT_EQ(y.collective.graphsChecked, x.collective.graphsChecked);
    EXPECT_EQ(y.collective.completeSorts, x.collective.completeSorts);
    EXPECT_EQ(y.collective.noResortNeeded, x.collective.noResortNeeded);
    EXPECT_EQ(y.collective.incrementalResorts,
              x.collective.incrementalResorts);
    EXPECT_EQ(y.collective.affectedFraction.sum(),
              x.collective.affectedFraction.sum());
    EXPECT_EQ(y.collective.affectedFraction.count(),
              x.collective.affectedFraction.count());
    EXPECT_EQ(y.collective.verticesProcessed,
              x.collective.verticesProcessed);
    EXPECT_EQ(y.collective.edgesProcessed, x.collective.edgesProcessed);
    EXPECT_EQ(y.conventional.graphsChecked,
              x.conventional.graphsChecked);
    EXPECT_EQ(y.conventional.verticesProcessed,
              x.conventional.verticesProcessed);
    EXPECT_EQ(y.conventional.edgesProcessed,
              x.conventional.edgesProcessed);
    EXPECT_EQ(y.collectiveMs, x.collectiveMs);
    EXPECT_EQ(y.conventionalMs, x.conventionalMs);
    EXPECT_EQ(y.decodeMs, x.decodeMs);
    EXPECT_EQ(y.originalCycles, x.originalCycles);
    EXPECT_EQ(y.computeCycles, x.computeCycles);
    EXPECT_EQ(y.sortCycles, x.sortCycles);
    EXPECT_EQ(y.computationOverhead, x.computationOverhead);
    EXPECT_EQ(y.sortingOverhead, x.sortingOverhead);
    EXPECT_EQ(y.intrusive.testLoads, x.intrusive.testLoads);
    EXPECT_EQ(y.intrusive.signatureBytes, x.intrusive.signatureBytes);
    EXPECT_EQ(y.code.originalBytes, x.code.originalBytes);
    EXPECT_EQ(y.code.instrumentedBytes, x.code.instrumentedBytes);
    EXPECT_EQ(y.violationWitness, x.violationWitness);
    EXPECT_EQ(y.fault.injected.bitFlips, x.fault.injected.bitFlips);
    EXPECT_EQ(y.fault.injected.corruptedIterations,
              x.fault.injected.corruptedIterations);
    EXPECT_EQ(y.fault.recordedIterations, x.fault.recordedIterations);
    EXPECT_EQ(y.fault.quarantinedCount(), x.fault.quarantinedCount());
    EXPECT_EQ(y.fault.quarantinedIterations,
              x.fault.quarantinedIterations);
    EXPECT_EQ(y.fault.decodedSignatures, x.fault.decodedSignatures);
    EXPECT_EQ(y.fault.confirmedViolations, x.fault.confirmedViolations);
    EXPECT_EQ(y.fault.transientViolations, x.fault.transientViolations);
    EXPECT_EQ(y.fault.confirmationRunsUsed,
              x.fault.confirmationRunsUsed);
    EXPECT_EQ(y.fault.crashRetries, x.fault.crashRetries);
    EXPECT_EQ(y.fault.note, x.fault.note);
    EXPECT_EQ(y.profile.totalNs, x.profile.totalNs);
    EXPECT_EQ(y.profile.ns, x.profile.ns);
    EXPECT_EQ(y.profile.count, x.profile.count);
}

TEST(CampaignJournalFile, RejectsForeignIdentityOnResume)
{
    TempFile file("identity");
    CampaignJournal::Identity mine{0x1234, "mine"};
    CampaignJournal::Identity other{0x9999, "other"};
    {
        CampaignJournal journal(file.path(), mine, false);
        journal.append(sampleRecord());
    }
    EXPECT_NO_THROW(CampaignJournal(file.path(), mine, true));
    EXPECT_THROW(CampaignJournal(file.path(), other, true),
                 ConfigError);
}

TEST(CampaignJournalFile, ForkedWorkerDoesNotInheritTheFlock)
{
    // The flock lives on the open-file description, which forked
    // workers inherit: a SIGKILLed campaign's still-dying fleet must
    // not keep the journal locked against the resume taking over.
    // Re-enact the race deterministically: a "campaign" process takes
    // the lock, forks a "worker" that drops parent-only fds, then
    // dies without running a single destructor; the worker outlives
    // it, and the journal must still be immediately lockable.
    TempFile file("forklock");
    CampaignJournal::Identity id{5, "x"};

    int hold[2]; // keeps the worker alive until the test is done
    ASSERT_EQ(::pipe(hold), 0);
    int ready[2]; // "worker forked, campaign about to die", then EOF
                  // once the worker dropped the parent-only fds
    ASSERT_EQ(::pipe(ready), 0);

    const pid_t campaign = ::fork();
    ASSERT_GE(campaign, 0);
    if (campaign == 0) {
        ::close(ready[0]);
        ::close(hold[1]);
        CampaignJournal journal(file.path(), id, false);
        const pid_t worker = ::fork();
        if (worker == 0) {
            closeParentOnlyFds(); // what every real worker child does
            ::close(ready[1]);
            std::uint8_t b;
            (void)!::read(hold[0], &b, 1); // parked until test end
            ::_exit(0);
        }
        ::close(hold[0]);
        const std::uint8_t ok = worker > 0 ? 1 : 0;
        (void)!::write(ready[1], &ok, 1);
        ::_exit(ok ? 0 : 1); // skip destructors: SIGKILL stand-in
    }
    ::close(ready[1]);
    ::close(hold[0]);
    std::uint8_t ok = 0;
    ASSERT_EQ(::read(ready[0], &ok, 1), 1);
    // Read on to EOF: the worker holds its copy of ready[1] until it
    // has dropped the parent-only fds, so EOF — not the campaign's
    // byte — is what orders the resume below after the drop.
    std::uint8_t rest = 0;
    while (::read(ready[0], &rest, 1) > 0) {
    }
    ::close(ready[0]);
    ASSERT_EQ(ok, 1);
    const ChildExit ce = waitChild(campaign);
    ASSERT_FALSE(ce.signaled);
    ASSERT_EQ(ce.exitCode, 0);

    // Campaign dead, worker alive. Without the parent-only registry
    // this throws "locked by another campaign".
    EXPECT_NO_THROW(CampaignJournal(file.path(), id, true));

    ::close(hold[1]); // unparks the worker; init reaps it
}

TEST(CampaignJournalFile, ResumeOfMissingOrEmptyJournalThrows)
{
    TempFile file("missing");
    CampaignJournal::Identity id{1, "x"};
    EXPECT_THROW(CampaignJournal(file.path(), id, true), ConfigError);
    std::ofstream(file.path()).close(); // exists but empty
    EXPECT_THROW(CampaignJournal(file.path(), id, true), ConfigError);
}

TEST(CampaignJournalFile, FreshOpenDiscardsStaleFile)
{
    TempFile file("stale");
    CampaignJournal::Identity id{42, "x"};
    {
        CampaignJournal journal(file.path(), id, false);
        journal.append(sampleRecord());
    }
    {
        // Re-opening fresh must not leave the old unit visible.
        CampaignJournal journal(file.path(), id, false);
    }
    CampaignJournal resumed(file.path(), id, true);
    EXPECT_EQ(resumed.replayedUnits(), 0u);
    EXPECT_EQ(resumed.find("x86-4-50-64", 7), nullptr);
}

TEST(CampaignJournalFile, FindReplaysAppendedUnits)
{
    TempFile file("find");
    CampaignJournal::Identity id{7, "x"};
    {
        CampaignJournal journal(file.path(), id, false);
        UnitRecord rec = sampleRecord();
        journal.append(rec);
        rec.testIndex = 8;
        rec.outcome.result.uniqueSignatures = 999;
        journal.append(rec);
    }
    CampaignJournal resumed(file.path(), id, true);
    EXPECT_EQ(resumed.replayedUnits(), 2u);
    ASSERT_NE(resumed.find("x86-4-50-64", 7), nullptr);
    ASSERT_NE(resumed.find("x86-4-50-64", 8), nullptr);
    EXPECT_EQ(resumed.find("x86-4-50-64", 8)
                  ->outcome.result.uniqueSignatures,
              999u);
    EXPECT_EQ(resumed.find("x86-4-50-64", 9), nullptr);
    EXPECT_EQ(resumed.find("ARM-4-50-64", 7), nullptr);
}

// ---------------------------------------------------------------------
// Campaign checkpoint/resume: bit-identical summaries after a kill.
// ---------------------------------------------------------------------

/** Every deterministic summary field (ms fields excluded: re-run
 * units re-measure wall-clock). */
void
expectSummariesIdentical(const ConfigSummary &a, const ConfigSummary &b)
{
    EXPECT_EQ(a.tests, b.tests);
    EXPECT_EQ(a.avgUniqueSignatures, b.avgUniqueSignatures);
    EXPECT_EQ(a.avgSignatureBytes, b.avgSignatureBytes);
    EXPECT_EQ(a.avgUnrelatedAccesses, b.avgUnrelatedAccesses);
    EXPECT_EQ(a.avgCodeRatio, b.avgCodeRatio);
    EXPECT_EQ(a.avgOriginalKB, b.avgOriginalKB);
    EXPECT_EQ(a.avgInstrumentedKB, b.avgInstrumentedKB);
    EXPECT_EQ(a.collectiveWork, b.collectiveWork);
    EXPECT_EQ(a.conventionalWork, b.conventionalWork);
    EXPECT_EQ(a.collectiveGraphs, b.collectiveGraphs);
    EXPECT_EQ(a.collectiveCompleteSorts, b.collectiveCompleteSorts);
    EXPECT_EQ(a.fracComplete, b.fracComplete);
    EXPECT_EQ(a.fracNoResort, b.fracNoResort);
    EXPECT_EQ(a.fracIncremental, b.fracIncremental);
    EXPECT_EQ(a.avgAffectedFraction, b.avgAffectedFraction);
    EXPECT_EQ(a.avgComputationOverhead, b.avgComputationOverhead);
    EXPECT_EQ(a.avgSortingOverhead, b.avgSortingOverhead);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.injected.totalEvents(), b.injected.totalEvents());
    EXPECT_EQ(a.quarantinedSignatures, b.quarantinedSignatures);
    EXPECT_EQ(a.quarantinedIterations, b.quarantinedIterations);
    EXPECT_EQ(a.confirmedViolations, b.confirmedViolations);
    EXPECT_EQ(a.transientViolations, b.transientViolations);
    EXPECT_EQ(a.crashRetries, b.crashRetries);
    EXPECT_EQ(a.testRetriesUsed, b.testRetriesUsed);
    EXPECT_EQ(a.failedTests, b.failedTests);
    EXPECT_EQ(a.hungTests, b.hungTests);
    EXPECT_EQ(a.hungAttempts, b.hungAttempts);
    EXPECT_EQ(a.skippedTests, b.skippedTests);
    EXPECT_EQ(a.errorEvents, b.errorEvents);
    EXPECT_EQ(a.tripped, b.tripped);
    EXPECT_EQ(a.degraded, b.degraded);
}

std::vector<TestConfig>
resumeConfigs()
{
    return {parseConfigName("x86-2-50-32"),
            parseConfigName("ARM-2-50-32")};
}

CampaignConfig
faultyCampaign()
{
    CampaignConfig campaign;
    campaign.iterations = 96;
    campaign.testsPerConfig = 3;
    campaign.runConventional = false;
    campaign.fault.bitFlipRate = 0.02;
    campaign.fault.tornStoreRate = 0.01;
    campaign.fault.dropRate = 0.01;
    campaign.fault.duplicateRate = 0.01;
    campaign.recovery.confirmationRuns = 2;
    campaign.recovery.crashRetries = 1;
    return campaign;
}

TEST(CheckpointResume, ResumeAfterMidRecordKillIsBitIdentical)
{
    const CampaignConfig base = faultyCampaign();
    const auto baseline = runCampaign(resumeConfigs(), base);

    // Produce the full journal, as the killed run would have up to
    // the cut.
    TempFile master("campaign_master");
    {
        CampaignConfig journaled = base;
        journaled.journalPath = master.path();
        const auto run = runCampaign(resumeConfigs(), journaled);
        ASSERT_EQ(run.size(), baseline.size());
        for (std::size_t i = 0; i < run.size(); ++i)
            expectSummariesIdentical(baseline[i], run[i]);
    }

    // "SIGKILL" the journal mid-record — drop ~40% of the file and
    // leave a torn frame at the cut — then resume at several thread
    // counts. Replayed units must splice with re-run units into the
    // very same summary.
    const std::uint64_t cut = fileSize(master.path()) * 6 / 10 + 3;
    for (unsigned threads : {1u, 2u, 8u}) {
        TempFile torn("campaign_cut_t" + std::to_string(threads));
        fs::copy_file(master.path(), torn.path(),
                      fs::copy_options::overwrite_existing);
        fs::resize_file(torn.path(), cut);

        CampaignConfig resumed = base;
        resumed.journalPath = torn.path();
        resumed.resume = true;
        resumed.threads = threads;
        const auto after = runCampaign(resumeConfigs(), resumed);
        ASSERT_EQ(after.size(), baseline.size());
        for (std::size_t i = 0; i < baseline.size(); ++i)
            expectSummariesIdentical(baseline[i], after[i]);
    }
}

TEST(CheckpointResume, FullyJournaledResumeReplaysWallClockToo)
{
    TempFile file("campaign_full");
    CampaignConfig campaign;
    campaign.iterations = 64;
    campaign.testsPerConfig = 2;
    campaign.journalPath = file.path();

    const auto original = runConfig(parseConfigName("x86-2-50-32"),
                                    campaign);
    campaign.resume = true;
    campaign.threads = 4;
    const auto replayed = runConfig(parseConfigName("x86-2-50-32"),
                                    campaign);
    expectSummariesIdentical(original, replayed);
    // Every unit was replayed, so even the nondeterministic wall-clock
    // sums reproduce the original run's measurements exactly.
    EXPECT_EQ(replayed.collectiveMs, original.collectiveMs);
    EXPECT_EQ(replayed.conventionalMs, original.conventionalMs);
}

TEST(CheckpointResume, ResumeUnderDifferentKnobsIsRejected)
{
    TempFile file("campaign_identity");
    CampaignConfig campaign;
    campaign.iterations = 48;
    campaign.testsPerConfig = 1;
    campaign.journalPath = file.path();
    runConfig(parseConfigName("x86-2-50-32"), campaign);

    campaign.resume = true;
    campaign.iterations = 64; // different result stream
    EXPECT_THROW(runConfig(parseConfigName("x86-2-50-32"), campaign),
                 ConfigError);

    // Operational knobs may change freely between run and resume.
    campaign.iterations = 48;
    campaign.threads = 8;
    campaign.testTimeoutMs = 60'000;
    campaign.errorBudget = 100;
    EXPECT_NO_THROW(
        runConfig(parseConfigName("x86-2-50-32"), campaign));
}

// ---------------------------------------------------------------------
// Watchdog: hung runs are reclaimed and reported.
// ---------------------------------------------------------------------

TEST(WatchdogUnit, FiresAfterDeadline)
{
    Watchdog watchdog;
    CancellationToken token;
    const auto guard =
        watchdog.watch(token, std::chrono::milliseconds(30));
    const auto start = std::chrono::steady_clock::now();
    while (!token.stopRequested() &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(5)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(token.stopRequested());
    EXPECT_EQ(watchdog.firedCount(), 1u);
}

TEST(WatchdogUnit, GuardDestructionDisarms)
{
    Watchdog watchdog;
    CancellationToken token;
    {
        const auto guard =
            watchdog.watch(token, std::chrono::milliseconds(200));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_FALSE(token.stopRequested());
    EXPECT_EQ(watchdog.firedCount(), 0u);
}

TEST(WatchdogCampaign, InjectedInfiniteStallIsReclaimedWithinBound)
{
    CampaignConfig campaign;
    campaign.iterations = 64;
    campaign.testsPerConfig = 2;
    campaign.testRetries = 0;
    campaign.runConventional = false;
    campaign.stallAfterSteps = 40; // wedge every run
    campaign.testTimeoutMs = 200;

    const auto start = std::chrono::steady_clock::now();
    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);

    EXPECT_EQ(summary.tests, 0u);
    EXPECT_EQ(summary.hungTests, 2u);
    EXPECT_EQ(summary.hungAttempts, 2u);
    EXPECT_EQ(summary.failedTests, 0u);
    // Acceptance bound: each wedged unit reclaimed within 2x its
    // deadline (serial campaign: two units back to back).
    EXPECT_LT(elapsed.count(), 2 * 2 * 200);
}

TEST(WatchdogCampaign, HungAttemptRetriesAndRecovers)
{
    // Retried attempts re-generate with fresh seeds but the platform
    // drill wedges unconditionally, so with a retry budget of 2 every
    // unit burns 3 hung attempts and still ends Hung.
    CampaignConfig campaign;
    campaign.iterations = 32;
    campaign.testsPerConfig = 1;
    campaign.testRetries = 2;
    campaign.runConventional = false;
    campaign.stallAfterSteps = 40;
    campaign.testTimeoutMs = 100;

    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    EXPECT_EQ(summary.hungTests, 1u);
    EXPECT_EQ(summary.hungAttempts, 3u);
    EXPECT_EQ(summary.testRetriesUsed, 2u);
}

// ---------------------------------------------------------------------
// Circuit breaker: a poisoned config stops burning wall-clock.
// ---------------------------------------------------------------------

TEST(CircuitBreaker, TripsAfterBudgetAndSkipsRemainingUnits)
{
    CampaignConfig campaign;
    campaign.iterations = 64;
    campaign.testsPerConfig = 4;
    campaign.testRetries = 0;
    campaign.runConventional = false;
    campaign.stallAfterSteps = 40;
    campaign.testTimeoutMs = 150;
    campaign.errorBudget = 1;
    campaign.threads = 1; // deterministic trip point

    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    EXPECT_TRUE(summary.tripped);
    EXPECT_TRUE(summary.degraded);
    EXPECT_EQ(summary.hungTests, 1u);
    EXPECT_EQ(summary.skippedTests, 3u);
    EXPECT_GE(summary.errorEvents, campaign.errorBudget);
    EXPECT_NE(summary.error.find("circuit breaker"),
              std::string::npos);
}

TEST(CircuitBreaker, EveryHungAttemptIsOneEvent)
{
    // The breaker charges every hung attempt, not one event per hung
    // unit: one unit burning 3 wedged attempts (2 retries) exhausts a
    // budget of 3 by itself, and the second unit is skipped. Every
    // front end, mtc_validate included, runs this accounting.
    CampaignConfig campaign;
    campaign.iterations = 32;
    campaign.testsPerConfig = 2;
    campaign.testRetries = 2;
    campaign.runConventional = false;
    campaign.stallAfterSteps = 40;
    campaign.testTimeoutMs = 100;
    campaign.errorBudget = 3;
    campaign.threads = 1; // deterministic trip point

    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    EXPECT_EQ(summary.hungAttempts, 3u);
    EXPECT_EQ(summary.errorEvents, 3u);
    EXPECT_TRUE(summary.tripped);
    EXPECT_EQ(summary.skippedTests, 1u);
}

TEST(CircuitBreaker, BudgetZeroNeverTrips)
{
    CampaignConfig campaign;
    campaign.iterations = 32;
    campaign.testsPerConfig = 2;
    campaign.testRetries = 0;
    campaign.runConventional = false;
    campaign.stallAfterSteps = 40;
    campaign.testTimeoutMs = 100;
    campaign.errorBudget = 0;

    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    EXPECT_FALSE(summary.tripped);
    EXPECT_EQ(summary.skippedTests, 0u);
    EXPECT_EQ(summary.hungTests, 2u);
}

TEST(CircuitBreaker, BreakerIsPerConfig)
{
    // Only the first config is wedged: the breaker must trip it alone
    // while the healthy config completes all its tests.
    CampaignConfig campaign;
    campaign.iterations = 48;
    campaign.testsPerConfig = 3;
    campaign.testRetries = 0;
    campaign.runConventional = false;
    campaign.errorBudget = 1;
    campaign.threads = 1;

    // The drill wedges every config equally, so vary by config size
    // instead: give the wedging campaign one poisoned config followed
    // by a healthy one by running them in separate calls and checking
    // independence of the books.
    CampaignConfig wedged = campaign;
    wedged.stallAfterSteps = 40;
    wedged.testTimeoutMs = 150;

    const auto summaries = runCampaign(
        {parseConfigName("x86-2-50-32")}, wedged);
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_TRUE(summaries[0].tripped);

    const auto healthy =
        runCampaign({parseConfigName("ARM-2-50-32")}, campaign);
    ASSERT_EQ(healthy.size(), 1u);
    EXPECT_FALSE(healthy[0].tripped);
    EXPECT_EQ(healthy[0].tests, 3u);
}

// ---------------------------------------------------------------------
// ThreadPool cancellation path.
// ---------------------------------------------------------------------

TEST(ThreadPoolStop, DrainFalseDiscardsQueuedTasks)
{
    std::atomic<unsigned> executed{0};
    ThreadPool pool(1, 64);
    // Park the single worker so everything else stays queued.
    pool.submit([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
    });
    for (int i = 0; i < 32; ++i)
        pool.submit([&] { ++executed; });
    pool.stop(false);
    // The parked task ran; the 32 queued tasks were discarded.
    EXPECT_EQ(executed.load(), 0u);

    // Idempotent, and submit() after stop drops the task silently.
    pool.stop(false);
    pool.submit([&] { ++executed; });
    EXPECT_EQ(executed.load(), 0u);
}

TEST(ThreadPoolStop, DrainTrueRunsEverythingFirst)
{
    std::atomic<unsigned> executed{0};
    {
        ThreadPool pool(2, 8);
        for (int i = 0; i < 64; ++i)
            pool.submit([&] { ++executed; });
        pool.stop(true);
    }
    EXPECT_EQ(executed.load(), 64u);
}

// ---------------------------------------------------------------------
// Environment knobs.
// ---------------------------------------------------------------------

TEST(CampaignEnv, JournalAndTimeoutOverrides)
{
    ::setenv("MTC_JOURNAL", "/tmp/run.mtcj", 1);
    ::setenv("MTC_TEST_TIMEOUT_MS", "1500", 1);
    const CampaignConfig cfg = CampaignConfig::fromEnv();
    EXPECT_EQ(cfg.journalPath, "/tmp/run.mtcj");
    EXPECT_EQ(cfg.testTimeoutMs, 1500u);
    ::unsetenv("MTC_JOURNAL");
    ::unsetenv("MTC_TEST_TIMEOUT_MS");
}

TEST(CampaignEnv, EmptyJournalAndGarbledTimeoutRejected)
{
    ::setenv("MTC_JOURNAL", "", 1);
    EXPECT_THROW(CampaignConfig::fromEnv(), ConfigError);
    ::unsetenv("MTC_JOURNAL");

    ::setenv("MTC_TEST_TIMEOUT_MS", "soon", 1);
    EXPECT_THROW(CampaignConfig::fromEnv(), ConfigError);
    ::setenv("MTC_TEST_TIMEOUT_MS", "-5", 1);
    EXPECT_THROW(CampaignConfig::fromEnv(), ConfigError);
    ::unsetenv("MTC_TEST_TIMEOUT_MS");

    // Zero stays legal: it means "no watchdog".
    ::setenv("MTC_TEST_TIMEOUT_MS", "0", 1);
    EXPECT_EQ(CampaignConfig::fromEnv().testTimeoutMs, 0u);
    ::unsetenv("MTC_TEST_TIMEOUT_MS");
}

} // namespace
} // namespace mtc
