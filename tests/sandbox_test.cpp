/**
 * @file
 * Execution-sandbox tests: the shared frame codec, the async-signal-
 * safe emergency log sink, the process plumbing, the sandboxed worker
 * fleet served through the fabric coordinator, and the sandboxed
 * campaign mode.
 *
 * The contracts under test are sharp: a sandboxed campaign summary
 * must be bit-identical to the in-process summary at any worker count
 * (plain, fault-injected, and across a journaled resume in either
 * direction); a REAL fatal signal in a worker must be contained,
 * classified, charged to the crash budget, and must not stop any
 * other unit; a worker that wedges non-cooperatively must be
 * SIGKILLed within the documented 2x-deadline bound; rlimit breaches
 * must classify as their own loss kinds; and the strict MTC_SANDBOX*
 * environment parsing must reject garbage.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "dist/coordinator.h"
#include "dist/fleet.h"
#include "harness/campaign.h"
#include "harness/campaign_journal.h"
#include "support/framing.h"
#include "support/log.h"
#include "support/process.h"
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
             ("mtc_sbx_" + name + "_" +
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

// ---------------------------------------------------------------------
// Frame codec shared by the journal and the pipe IPC.
// ---------------------------------------------------------------------

TEST(FrameCodec, AppendParseRoundTripsIncludingEmptyPayload)
{
    const std::vector<std::vector<std::uint8_t>> payloads = {
        {}, {0x42}, {1, 2, 3, 4, 5}, std::vector<std::uint8_t>(777, 9)};
    std::vector<std::uint8_t> stream;
    for (const auto &p : payloads)
        appendFrame(stream, p.data(), p.size());

    std::size_t off = 0;
    for (const auto &p : payloads) {
        const FrameView view =
            parseFrame(stream.data() + off, stream.size() - off);
        ASSERT_EQ(view.status, FrameStatus::Complete);
        ASSERT_EQ(view.length, p.size());
        EXPECT_EQ(std::vector<std::uint8_t>(view.payload,
                                            view.payload + view.length),
                  p);
        EXPECT_EQ(view.frameBytes, kFrameHeaderBytes + p.size());
        off += view.frameBytes;
    }
    EXPECT_EQ(off, stream.size());
}

TEST(FrameCodec, TruncationIsIncompleteAtEveryCut)
{
    std::vector<std::uint8_t> stream;
    const std::vector<std::uint8_t> payload = {7, 8, 9};
    appendFrame(stream, payload.data(), payload.size());
    for (std::size_t cut = 0; cut < stream.size(); ++cut)
        EXPECT_EQ(parseFrame(stream.data(), cut).status,
                  FrameStatus::Incomplete)
            << "cut at " << cut;
}

TEST(FrameCodec, CorruptionIsDetected)
{
    std::vector<std::uint8_t> stream;
    const std::vector<std::uint8_t> payload = {10, 20, 30, 40};
    appendFrame(stream, payload.data(), payload.size());

    // Payload bit flip: checksum mismatch.
    auto flipped = stream;
    flipped[kFrameHeaderBytes + 1] ^= 0x01;
    EXPECT_EQ(parseFrame(flipped.data(), flipped.size()).status,
              FrameStatus::Corrupt);

    // Length-word bit flip: the header self-check catches it without
    // consulting the (now meaningless) length.
    auto torn = stream;
    torn[1] ^= 0x01;
    EXPECT_EQ(parseFrame(torn.data(), torn.size()).status,
              FrameStatus::Corrupt);

    // Absurd length word with a *valid* header check (a forger, not a
    // bit flip): corruption via the ceiling, not a gigabyte
    // allocation.
    auto absurd = stream;
    putLe32(absurd.data(), 0xFFFFFFFFu);
    putLe32(absurd.data() + 4, fnv1a32(absurd.data(), 4));
    EXPECT_EQ(parseFrame(absurd.data(), absurd.size()).status,
              FrameStatus::Corrupt);
}

TEST(FrameCodec, PipeRoundTripAndCleanEof)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::vector<std::uint8_t> a = {1, 2, 3};
    const std::vector<std::uint8_t> b = {};
    writeFrame(fds[1], a, "test pipe");
    writeFrame(fds[1], b, "test pipe");
    ::close(fds[1]);

    std::vector<std::uint8_t> out;
    EXPECT_TRUE(readFrame(fds[0], out, "test pipe"));
    EXPECT_EQ(out, a);
    EXPECT_TRUE(readFrame(fds[0], out, "test pipe"));
    EXPECT_EQ(out, b);
    // Writer closed between records: clean EOF, not an error.
    EXPECT_FALSE(readFrame(fds[0], out, "test pipe"));
    ::close(fds[0]);
}

TEST(FrameCodec, TornPipeFrameThrows)
{
    std::vector<std::uint8_t> stream;
    const std::vector<std::uint8_t> payload = {5, 6, 7, 8};
    appendFrame(stream, payload.data(), payload.size());

    // The writer dies mid-frame: every proper prefix must read as a
    // torn frame, never as a short success.
    for (std::size_t cut = 1; cut < stream.size(); ++cut) {
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(::write(fds[1], stream.data(), cut),
                  static_cast<ssize_t>(cut));
        ::close(fds[1]);
        std::vector<std::uint8_t> out;
        EXPECT_THROW(readFrame(fds[0], out, "torn pipe"), FramingError)
            << "cut at " << cut;
        ::close(fds[0]);
    }
}

// ---------------------------------------------------------------------
// Async-signal-safe emergency log sink.
// ---------------------------------------------------------------------

TEST(EmergencyLog, FormatsTextNumbersAndHex)
{
    EmergencyLine line;
    line.text("sig=").num(11).text(" seed=").hex(0xBEEF);
    EXPECT_STREQ(line.cstr(), "sig=11 seed=0xbeef");
    EXPECT_EQ(line.size(), std::string("sig=11 seed=0xbeef").size());

    EmergencyLine zero;
    zero.num(0).text("/").hex(0);
    EXPECT_STREQ(zero.cstr(), "0/0x0");
}

TEST(EmergencyLog, TruncatesInsteadOfOverflowing)
{
    EmergencyLine line;
    const std::string long_text(1000, 'x');
    line.text(long_text.c_str()).num(123456789).hex(0xFFFFFFFFFFFFFFFFull);
    // Fixed 256-byte buffer, one byte reserved for the trailing
    // newline and one for the terminator.
    EXPECT_LT(line.size(), 256u);
    EXPECT_EQ(line.cstr()[line.size()], '\0');
}

TEST(EmergencyLog, WriteToEmitsOneNewlineTerminatedLine)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    EmergencyLine line;
    line.text("crash signal=").num(6);
    line.writeTo(fds[1]);
    ::close(fds[1]);

    char buf[64] = {};
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    ::close(fds[0]);
    EXPECT_EQ(std::string(buf, static_cast<std::size_t>(n)),
              "crash signal=6\n");
    // The buffer itself stays newline-free for reuse/printing.
    EXPECT_STREQ(line.cstr(), "crash signal=6");
}

// ---------------------------------------------------------------------
// Process plumbing.
// ---------------------------------------------------------------------

TEST(ProcessPlumbing, WaitChildClassifiesExitAndSignal)
{
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
        ::_exit(7);
    ChildExit ex = waitChild(pid);
    EXPECT_FALSE(ex.signaled);
    EXPECT_EQ(ex.exitCode, 7);

    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::signal(SIGABRT, SIG_DFL);
        ::raise(SIGABRT);
        ::_exit(0);
    }
    ex = waitChild(pid);
    EXPECT_TRUE(ex.signaled);
    EXPECT_EQ(ex.signal, SIGABRT);
}

TEST(ProcessPlumbing, CrashReporterWritesOneLineAndReRaises)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(fds[0]);
        installCrashReporter(fds[1]);
        setCrashContext("x86-2-50-32#3", 0xABCDull);
        ::raise(SIGSEGV);
        ::_exit(0); // unreachable: the handler re-raises with SIG_DFL
    }
    ::close(fds[1]);
    const ChildExit ex = waitChild(pid);
    EXPECT_TRUE(ex.signaled);
    EXPECT_EQ(ex.signal, SIGSEGV);

    char buf[256] = {};
    const ssize_t n = ::read(fds[0], buf, sizeof(buf) - 1);
    ::close(fds[0]);
    ASSERT_GT(n, 0);
    const std::string report(buf, static_cast<std::size_t>(n));
    EXPECT_NE(report.find("SIGSEGV"), std::string::npos) << report;
    EXPECT_NE(report.find("x86-2-50-32#3"), std::string::npos) << report;
    EXPECT_NE(report.find("abcd"), std::string::npos) << report;
}

// ---------------------------------------------------------------------
// Sandboxed fleet: containment, classification, respawn, hard kill.
// ---------------------------------------------------------------------

using Bytes = std::vector<std::uint8_t>;

Coordinator::RequestFn
oneBytePerUnit()
{
    return [](std::size_t u) -> std::optional<Bytes> {
        return Bytes{static_cast<std::uint8_t>(u)};
    };
}

/** Serve units 0..@p units-1 to @p fleet through a Coordinator, as a
 * sandboxed campaign does; @p hard_deadline_ms is the lease timeout. */
void
serveFleet(WorkerFleet &fleet, std::size_t units,
           const Coordinator::ResultFn &result,
           const std::function<bool(std::size_t, const WorkerLoss &)> &loss,
           std::uint64_t hard_deadline_ms = 0)
{
    FabricConfig fabric;
    fabric.leaseTimeoutMs = hard_deadline_ms;
    Coordinator coordinator(fabric, {}, fleet);
    coordinator.run(
        units, oneBytePerUnit(), result,
        [&](std::size_t u, unsigned, const WorkerLoss &lost) {
            return loss(u, lost);
        });
}

/** Inodes of the TCP sockets in LISTEN state, from @p table
 * (/proc/self/net/tcp or tcp6). */
std::set<std::string>
listeningInodes(const char *table)
{
    std::set<std::string> inodes;
    std::ifstream in(table);
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        std::istringstream row(line);
        std::string field[10];
        for (std::string &f : field)
            row >> f;
        if (field[3] == "0A") // TCP_LISTEN
            inodes.insert(field[9]);
    }
    return inodes;
}

/** The parent a respawn forked from is still single-threaded and
 * holds no listening socket: fork-before-threads held across mid-run
 * respawns, and a sandboxed fleet binds no port. */
void
expectForkSafeParent()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    bool seen = false;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            EXPECT_EQ(line, "Threads:\t1");
            seen = true;
        }
    }
    EXPECT_TRUE(seen);

    std::set<std::string> listening = listeningInodes("/proc/self/net/tcp");
    const std::set<std::string> v6 = listeningInodes("/proc/self/net/tcp6");
    listening.insert(v6.begin(), v6.end());
    for (const auto &entry : fs::directory_iterator("/proc/self/fd")) {
        std::error_code ec;
        const std::string target = fs::read_symlink(entry.path(), ec);
        if (ec || target.rfind("socket:[", 0) != 0)
            continue;
        const std::string inode = target.substr(8, target.size() - 9);
        EXPECT_EQ(listening.count(inode), 0u)
            << entry.path() << " is a listening socket";
    }
}

TEST(SandboxFleetUnit, DispatchesUnitsAcrossWorkersAndEchoes)
{
    FleetConfig cfg;
    cfg.workers = 2;
    WorkerFleet fleet(cfg, [](const Bytes &req, const WorkerSlot &) {
        Bytes resp = req;
        for (auto &byte : resp)
            byte = static_cast<std::uint8_t>(byte + 1);
        return resp;
    });
    std::vector<Bytes> got(8);
    serveFleet(
        fleet, got.size(),
        [&](std::size_t u, const Bytes &p) { got[u] = p; },
        [](std::size_t, const WorkerLoss &) { return false; });
    for (std::size_t u = 0; u < got.size(); ++u) {
        ASSERT_EQ(got[u].size(), 1u) << "unit " << u;
        EXPECT_EQ(got[u][0], u + 1);
    }
    EXPECT_EQ(fleet.respawns(), 0u);
}

TEST(SandboxFleetUnit, RealSigsegvIsContainedClassifiedAndRetried)
{
    FleetConfig cfg;
    cfg.workers = 1;
    WorkerFleet fleet(cfg, [](const Bytes &req, const WorkerSlot &slot) {
        if (req[0] == 1 && slot.generation == 0)
            ::raise(SIGSEGV); // a REAL fatal signal, not a throw
        return Bytes{static_cast<std::uint8_t>(slot.generation)};
    });

    std::vector<Bytes> got(3);
    std::vector<unsigned> deaths(3, 0);
    WorkerLoss seen;
    serveFleet(
        fleet, got.size(),
        [&](std::size_t u, const Bytes &p) {
            got[u] = p;
            if (deaths[1])
                expectForkSafeParent();
        },
        [&](std::size_t u, const WorkerLoss &loss) {
            ++deaths[u];
            seen = loss;
            return true; // retry on the respawned worker
        });

    // Only unit 1 lost a worker; the parent survived; the retry ran
    // on generation 1; units 0 and 2 were untouched.
    EXPECT_EQ(deaths[0], 0u);
    EXPECT_EQ(deaths[1], 1u);
    EXPECT_EQ(deaths[2], 0u);
    EXPECT_EQ(seen.kind, WorkerLossKind::Crash);
    EXPECT_EQ(seen.signal, SIGSEGV);
    EXPECT_NE(seen.crashNote.find("SIGSEGV"), std::string::npos)
        << seen.describe();
    ASSERT_EQ(got[1].size(), 1u);
    EXPECT_EQ(got[1][0], 1u); // generation 1 completed it
    EXPECT_EQ(got[0][0], 0u); // ran before the crash
    EXPECT_EQ(got[2][0], 1u); // single slot: also on the respawn
    EXPECT_EQ(fleet.respawns(), 1u);
}

TEST(SandboxFleetUnit, AbortAndNonzeroExitClassifyDistinctly)
{
    FleetConfig cfg;
    cfg.workers = 1;
    WorkerFleet fleet(cfg, [](const Bytes &req, const WorkerSlot &slot) {
        if (slot.generation == 0 && req[0] == 0)
            ::abort();
        if (slot.generation <= 1 && req[0] == 1)
            ::_exit(23);
        return Bytes{0xAA};
    });

    std::vector<WorkerLoss> losses;
    std::vector<Bytes> got(2);
    serveFleet(
        fleet, got.size(),
        [&](std::size_t u, const Bytes &p) { got[u] = p; },
        [&](std::size_t, const WorkerLoss &loss) {
            losses.push_back(loss);
            return true;
        });

    ASSERT_EQ(losses.size(), 2u);
    EXPECT_EQ(losses[0].kind, WorkerLossKind::Crash);
    EXPECT_EQ(losses[0].signal, SIGABRT);
    EXPECT_EQ(losses[1].kind, WorkerLossKind::ExitCode);
    EXPECT_EQ(losses[1].exitCode, 23);
    EXPECT_EQ(got[0][0], 0xAA);
    EXPECT_EQ(got[1][0], 0xAA);
}

TEST(SandboxFleetUnit, BadAllocClassifiesAsOomBudget)
{
    FleetConfig cfg;
    cfg.workers = 1;
    WorkerFleet fleet(cfg, [](const Bytes &, const WorkerSlot &slot)
                          -> Bytes {
        if (slot.generation == 0)
            throw std::bad_alloc();
        return Bytes{1};
    });

    WorkerLoss seen;
    Bytes got;
    serveFleet(
        fleet, 1, [&](std::size_t, const Bytes &p) { got = p; },
        [&](std::size_t, const WorkerLoss &loss) {
            seen = loss;
            return true;
        });
    EXPECT_EQ(seen.kind, WorkerLossKind::OomBudget);
    ASSERT_EQ(got.size(), 1u);
}

TEST(SandboxFleetUnit, GiveUpAbandonsOnlyTheLostUnit)
{
    FleetConfig cfg;
    cfg.workers = 2;
    WorkerFleet fleet(cfg, [](const Bytes &req, const WorkerSlot &) {
        if (req[0] == 2)
            ::raise(SIGSEGV); // every attempt dies
        return req;
    });
    std::vector<bool> completed(5, false);
    unsigned deaths = 0;
    serveFleet(
        fleet, completed.size(),
        [&](std::size_t u, const Bytes &) { completed[u] = true; },
        [&](std::size_t u, const WorkerLoss &) {
            EXPECT_EQ(u, 2u);
            ++deaths;
            return false; // budget exhausted: give up on this unit
        });
    for (std::size_t u = 0; u < completed.size(); ++u)
        EXPECT_EQ(completed[u], u != 2) << "unit " << u;
    EXPECT_EQ(deaths, 1u);
}

TEST(SandboxFleetUnit, WedgedWorkerIsHardKilledWithinBound)
{
    FleetConfig cfg;
    cfg.workers = 1;
    const std::uint64_t hard_deadline_ms = 300;
    WorkerFleet fleet(cfg, [](const Bytes &req, const WorkerSlot &slot)
                          -> Bytes {
        if (req[0] == 0 && slot.generation == 0) {
            // Non-cooperative wedge: ignores everything but SIGKILL.
            for (;;)
                std::this_thread::sleep_for(std::chrono::seconds(1));
        }
        return req;
    });

    WorkerLoss seen;
    std::vector<bool> completed(2, false);
    const auto start = std::chrono::steady_clock::now();
    serveFleet(
        fleet, completed.size(),
        [&](std::size_t u, const Bytes &) {
            completed[u] = true;
            expectForkSafeParent();
        },
        [&](std::size_t, const WorkerLoss &loss) {
            seen = loss;
            return false;
        },
        hard_deadline_ms);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);

    EXPECT_EQ(seen.kind, WorkerLossKind::HardKill);
    EXPECT_FALSE(completed[0]);
    EXPECT_TRUE(completed[1]); // the respawn ran the rest
    // Reclaim bound: well within 2x the hard deadline plus slack for
    // the respawn itself.
    EXPECT_LT(elapsed.count(), 10 * hard_deadline_ms);
}

TEST(SandboxFleetUnit, CpuBudgetBreachClassifiesAsCpuBudget)
{
    FleetConfig cfg;
    cfg.workers = 1;
    cfg.cpuLimitS = 1;
    WorkerFleet fleet(cfg, [](const Bytes &req, const WorkerSlot &slot)
                          -> Bytes {
        if (req[0] == 0 && slot.generation == 0) {
            volatile std::uint64_t sink = 0;
            for (;;)
                sink = sink + 1; // burn CPU until SIGXCPU
        }
        return req;
    });
    WorkerLoss seen;
    bool completed = false;
    serveFleet(
        fleet, 1,
        [&](std::size_t, const Bytes &) {
            completed = true;
            expectForkSafeParent();
        },
        [&](std::size_t, const WorkerLoss &loss) {
            seen = loss;
            return true;
        });
    EXPECT_EQ(seen.kind, WorkerLossKind::CpuBudget);
    EXPECT_TRUE(completed);
}

TEST(SandboxFleetUnit, FleetDeathChurnTripsTheBackstop)
{
    FleetConfig cfg;
    cfg.workers = 1;
    WorkerFleet fleet(cfg, [](const Bytes &, const WorkerSlot &) -> Bytes {
        ::raise(SIGSEGV); // every attempt, every generation
        return {};
    });
    EXPECT_THROW(
        serveFleet(
            fleet, 2, [](std::size_t, const Bytes &) {},
            [](std::size_t, const WorkerLoss &) { return true; }),
        DistError);
}

// ---------------------------------------------------------------------
// Sandboxed campaigns: bit-identical summaries and real containment.
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
sandboxConfigs()
{
    return {parseConfigName("x86-2-50-32"),
            parseConfigName("ARM-2-50-32")};
}

CampaignConfig
smallCampaign()
{
    CampaignConfig campaign;
    campaign.iterations = 64;
    campaign.testsPerConfig = 2;
    campaign.runConventional = false;
    return campaign;
}

CampaignConfig
faultyCampaign()
{
    CampaignConfig campaign = smallCampaign();
    campaign.fault.bitFlipRate = 0.02;
    campaign.fault.tornStoreRate = 0.01;
    campaign.fault.dropRate = 0.01;
    campaign.recovery.confirmationRuns = 2;
    campaign.recovery.crashRetries = 1;
    return campaign;
}

TEST(SandboxCampaign, SummaryBitIdenticalAtAnyWorkerCount)
{
    const CampaignConfig base = smallCampaign();
    const auto baseline = runCampaign(sandboxConfigs(), base);

    for (unsigned workers : {1u, 2u, 8u}) {
        CampaignConfig sandboxed = base;
        sandboxed.mode = ExecutionMode::Sandboxed;
        sandboxed.threads = workers;
        const auto run = runCampaign(sandboxConfigs(), sandboxed);
        ASSERT_EQ(run.size(), baseline.size());
        for (std::size_t i = 0; i < run.size(); ++i)
            expectSummariesIdentical(baseline[i], run[i]);
    }
}

/** One small campaign per platform knob CampaignConfig carries. */
std::vector<std::pair<std::string, CampaignConfig>>
platformKnobCampaigns()
{
    const CampaignConfig base = smallCampaign();
    std::vector<std::pair<std::string, CampaignConfig>> out;
    CampaignConfig c = base;
    c.variant = PlatformVariant::Uniform;
    out.emplace_back("uniform", c);
    c = base;
    c.variant = PlatformVariant::Mesi;
    out.emplace_back("mesi", c);
    c = base;
    c.bug = BugKind::LsqNoSquash;
    c.bugProbability = 0.5;
    out.emplace_back("lsq-bug", c);
    c = base;
    c.model = MemoryModel::SC;
    out.emplace_back("sc-model", c);
    c = base;
    c.cacheLines = 2;
    out.emplace_back("cache-lines", c);
    return out;
}

TEST(SandboxCampaign, PlatformKnobsBitIdenticalAtAnyWorkerCountAndResume)
{
    for (const auto &[name, base] : platformKnobCampaigns()) {
        SCOPED_TRACE(name);
        const auto baseline = runCampaign(sandboxConfigs(), base);
        TempFile journal("knob_" + name);
        for (unsigned workers : {1u, 4u}) {
            CampaignConfig sandboxed = base;
            sandboxed.mode = ExecutionMode::Sandboxed;
            sandboxed.threads = workers;
            sandboxed.journalPath = journal.path();
            const auto run = runCampaign(sandboxConfigs(), sandboxed);
            ASSERT_EQ(run.size(), baseline.size());
            for (std::size_t i = 0; i < run.size(); ++i)
                expectSummariesIdentical(baseline[i], run[i]);
        }
        // Resume the sandboxed journal's torn prefix in process.
        fs::resize_file(journal.path(),
                        fs::file_size(journal.path()) / 2 + 3);
        CampaignConfig resumed = base;
        resumed.journalPath = journal.path();
        resumed.resume = true;
        const auto after = runCampaign(sandboxConfigs(), resumed);
        ASSERT_EQ(after.size(), baseline.size());
        for (std::size_t i = 0; i < after.size(); ++i)
            expectSummariesIdentical(baseline[i], after[i]);
    }
}

TEST(SandboxCampaign, FaultInjectedSummaryBitIdentical)
{
    const CampaignConfig base = faultyCampaign();
    const auto baseline = runCampaign(sandboxConfigs(), base);

    CampaignConfig sandboxed = base;
    sandboxed.mode = ExecutionMode::Sandboxed;
    sandboxed.threads = 2;
    const auto run = runCampaign(sandboxConfigs(), sandboxed);
    ASSERT_EQ(run.size(), baseline.size());
    for (std::size_t i = 0; i < run.size(); ++i)
        expectSummariesIdentical(baseline[i], run[i]);
}

TEST(SandboxCampaign, JournaledResumeCrossesModesBitIdentically)
{
    const CampaignConfig base = faultyCampaign();
    const auto baseline = runCampaign(sandboxConfigs(), base);

    // Journal an in-process run, tear its tail, resume sandboxed —
    // and the reverse. The journal's identity excludes the execution
    // mode on purpose: where units ran cannot change what they
    // computed.
    TempFile master("resume_master");
    {
        CampaignConfig journaled = base;
        journaled.journalPath = master.path();
        runCampaign(sandboxConfigs(), journaled);
    }
    const auto cut = fs::file_size(master.path()) * 6 / 10 + 3;

    TempFile torn("resume_torn");
    fs::copy_file(master.path(), torn.path(),
                  fs::copy_options::overwrite_existing);
    fs::resize_file(torn.path(), cut);
    CampaignConfig resumed = base;
    resumed.journalPath = torn.path();
    resumed.resume = true;
    resumed.mode = ExecutionMode::Sandboxed;
    resumed.threads = 2;
    const auto after = runCampaign(sandboxConfigs(), resumed);
    ASSERT_EQ(after.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i)
        expectSummariesIdentical(baseline[i], after[i]);

    // Reverse direction: journal written sandboxed, resumed in
    // process.
    TempFile sbx_master("resume_sbx_master");
    {
        CampaignConfig journaled = base;
        journaled.journalPath = sbx_master.path();
        journaled.mode = ExecutionMode::Sandboxed;
        journaled.threads = 2;
        runCampaign(sandboxConfigs(), journaled);
    }
    TempFile sbx_torn("resume_sbx_torn");
    fs::copy_file(sbx_master.path(), sbx_torn.path(),
                  fs::copy_options::overwrite_existing);
    fs::resize_file(sbx_torn.path(),
                    fs::file_size(sbx_master.path()) / 2 + 3);
    CampaignConfig back = base;
    back.journalPath = sbx_torn.path();
    back.resume = true;
    const auto inproc = runCampaign(sandboxConfigs(), back);
    ASSERT_EQ(inproc.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i)
        expectSummariesIdentical(baseline[i], inproc[i]);
}

TEST(SandboxCampaign, DieDrillIsContainedAndChargedToCrashBudget)
{
    CampaignConfig campaign = smallCampaign();
    campaign.mode = ExecutionMode::Sandboxed;
    campaign.threads = 1;
    campaign.dieAfterRuns = 3; // third run of the first unit SIGSEGVs
    campaign.recovery.crashRetries = 1;

    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);

    // The campaign survived a REAL SIGSEGV: every test completed (the
    // respawned worker is unarmed), the death was charged like an
    // in-flow platform crash.
    EXPECT_EQ(summary.tests, campaign.testsPerConfig);
    EXPECT_EQ(summary.failedTests, 0u);
    EXPECT_GE(summary.crashRetries, 1u);
    EXPECT_GE(summary.violations, 1u); // platform crash flags the test
}

TEST(SandboxCampaign, DieDrillJournalsTheClassifiedCrashNote)
{
    const TestConfig cfg = parseConfigName("x86-2-50-32");
    CampaignConfig campaign = smallCampaign();
    campaign.mode = ExecutionMode::Sandboxed;
    campaign.threads = 1;
    campaign.dieAfterRuns = 3; // third run of the first unit SIGSEGVs
    campaign.recovery.crashRetries = 1;
    TempFile journal("die_note");
    campaign.journalPath = journal.path();
    runConfig(cfg, campaign);

    // The journaled record carries what the waitpid classification
    // and the child's crash-report pipe saw, not just the counts.
    const CampaignJournal replay(journal.path(),
                                 campaignIdentity({cfg}, campaign), true);
    const UnitRecord *died = replay.find(cfg.name(), 0);
    ASSERT_NE(died, nullptr);
    EXPECT_EQ(died->outcome.result.platformCrashes, 1u);
    EXPECT_NE(died->outcome.result.fault.note.find(
                  "sandbox: worker killed by signal 11 (SIGSEGV); "
                  "report: crash signal=11 (SIGSEGV) unit=x86-2-50-32#0"),
              std::string::npos)
        << died->outcome.result.fault.note;
}

TEST(SandboxCampaign, DieDrillHonorsAlternateSignal)
{
    CampaignConfig campaign = smallCampaign();
    campaign.testsPerConfig = 1;
    campaign.mode = ExecutionMode::Sandboxed;
    campaign.threads = 1;
    campaign.dieAfterRuns = 2;
    campaign.dieSignal = SIGABRT;
    campaign.recovery.crashRetries = 1;

    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    EXPECT_EQ(summary.tests, 1u);
    EXPECT_GE(summary.crashRetries, 1u);
}

TEST(SandboxCampaign, ExhaustedCrashBudgetFailsOnlyTheDyingUnit)
{
    CampaignConfig campaign = smallCampaign();
    campaign.mode = ExecutionMode::Sandboxed;
    campaign.threads = 1;
    campaign.dieAfterRuns = 1;
    campaign.recovery.crashRetries = 0; // first death exhausts it

    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    EXPECT_EQ(summary.failedTests, 1u);
    // The other unit still completed on the same (respawned) fleet.
    EXPECT_EQ(summary.tests, campaign.testsPerConfig - 1);
}

TEST(SandboxCampaign, LeakDrillClassifiesAsOomAndRecovers)
{
    CampaignConfig campaign = smallCampaign();
    campaign.testsPerConfig = 1;
    campaign.mode = ExecutionMode::Sandboxed;
    campaign.threads = 1;
    campaign.leakAfterRuns = 2;
    campaign.recovery.crashRetries = 1;
    // The bomb self-caps below 1 GB, so this passes with or without
    // RLIMIT_AS support (sanitizer builds skip the rlimit).
    if (sandboxMemLimitSupported())
        campaign.sandboxMemMb = 512;

    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    EXPECT_EQ(summary.tests, 1u);
    EXPECT_EQ(summary.failedTests, 0u);
    EXPECT_GE(summary.crashRetries, 1u);
}

TEST(SandboxCampaign, UncooperativeHangIsReclaimedWithinHardBound)
{
    CampaignConfig campaign = smallCampaign();
    campaign.testsPerConfig = 1;
    campaign.testRetries = 0;
    campaign.mode = ExecutionMode::Sandboxed;
    campaign.threads = 1;
    campaign.stallAfterSteps = 40;
    campaign.stallUncooperative = true; // ignores cancellation
    campaign.testTimeoutMs = 250;

    const auto start = std::chrono::steady_clock::now();
    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);

    // The child's cooperative watchdog cannot reclaim this wedge;
    // only the parent's SIGKILL at the hard deadline
    // (2 x timeout x attempts) can — and it is recorded Hung, not
    // retried.
    EXPECT_EQ(summary.hungTests, 1u);
    EXPECT_EQ(summary.tests, 0u);
    // Generous slack over the 500 ms hard deadline for fork+poll.
    EXPECT_LT(elapsed.count(), 5000);
}

TEST(SandboxCampaign, WorkerDeathsFeedTheCircuitBreaker)
{
    CampaignConfig campaign = smallCampaign();
    campaign.testsPerConfig = 4;
    campaign.mode = ExecutionMode::Sandboxed;
    campaign.threads = 1; // deterministic trip point
    campaign.dieAfterRuns = 1;
    campaign.recovery.crashRetries = 0;
    campaign.errorBudget = 1;

    const ConfigSummary summary =
        runConfig(parseConfigName("x86-2-50-32"), campaign);
    EXPECT_TRUE(summary.tripped);
    EXPECT_EQ(summary.failedTests, 1u);
    EXPECT_EQ(summary.skippedTests, 3u);
}

// ---------------------------------------------------------------------
// Strict environment parsing.
// ---------------------------------------------------------------------

TEST(SandboxEnv, SandboxTogglesAndBudgetsParse)
{
    ::setenv("MTC_SANDBOX", "1", 1);
    ::setenv("MTC_SANDBOX_MEM_MB", "512", 1);
    ::setenv("MTC_SANDBOX_CPU_S", "30", 1);
    const CampaignConfig cfg = CampaignConfig::fromEnv();
    EXPECT_EQ(cfg.mode, ExecutionMode::Sandboxed);
    EXPECT_EQ(cfg.sandboxMemMb, 512u);
    EXPECT_EQ(cfg.sandboxCpuS, 30u);

    ::setenv("MTC_SANDBOX", "0", 1);
    EXPECT_EQ(CampaignConfig::fromEnv().mode, ExecutionMode::InProcess);

    ::unsetenv("MTC_SANDBOX");
    ::unsetenv("MTC_SANDBOX_MEM_MB");
    ::unsetenv("MTC_SANDBOX_CPU_S");
}

TEST(SandboxEnv, GarbageIsRejectedWithConfigError)
{
    ::setenv("MTC_SANDBOX", "yes please", 1);
    EXPECT_THROW(CampaignConfig::fromEnv(), ConfigError);
    ::unsetenv("MTC_SANDBOX");

    ::setenv("MTC_SANDBOX_MEM_MB", "lots", 1);
    EXPECT_THROW(CampaignConfig::fromEnv(), ConfigError);
    ::unsetenv("MTC_SANDBOX_MEM_MB");

    ::setenv("MTC_SANDBOX_CPU_S", "-3", 1);
    EXPECT_THROW(CampaignConfig::fromEnv(), ConfigError);
    ::unsetenv("MTC_SANDBOX_CPU_S");
}

} // namespace
} // namespace mtc
