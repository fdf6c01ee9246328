/**
 * @file
 * Distributed-fabric tests: the TCP transport, the hardened frame
 * reader, the EINTR discipline, the journal flock, the lease table,
 * the wire protocol, and the fabric failure matrix.
 *
 * The failure matrix pins the tentpole invariant from every angle: a
 * distributed campaign summary must be bit-identical to the serial
 * in-process summary at any fleet size — including when a worker dies
 * mid-batch and its leased units are reassigned, when a silent worker
 * is declared dead by the heartbeat timeout, and when the coordinator
 * itself is killed mid-campaign and resumed from its journal. A
 * version-mismatched worker must be rejected at the handshake without
 * disturbing the fleet, and a slow worker must be throttled by the
 * in-flight bound while fast workers drain the queue.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <unistd.h>

#include "dist/coordinator.h"
#include "dist/lease_table.h"
#include "dist/protocol.h"
#include "dist/worker_client.h"
#include "harness/campaign.h"
#include "harness/campaign_journal.h"
#include "harness/dist_campaign.h"
#include "harness/trace_check.h"
#include "support/fault_transport.h"
#include "support/framing.h"
#include "support/hmac.h"
#include "support/process.h"
#include "support/socket.h"
#include "support/transport.h"
#include "testgen/test_config.h"

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
             ("mtc_dist_" + name + "_" +
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

/**
 * A helper thread of a socket test. An exception escaping @p body — a
 * refused connectTcp, say — is reported as a test failure instead of
 * reaching std::terminate, and @p ended (when given) counts down
 * however the body ends, so a thread waiting on it never hangs.
 */
class Helper
{
  public:
    template <typename Fn>
    explicit Helper(Fn body, std::latch *ended = nullptr)
        : thread([body = std::move(body), ended]() mutable {
              try {
                  body();
              } catch (const std::exception &err) {
                  ADD_FAILURE() << "helper thread threw: " << err.what();
              } catch (...) {
                  ADD_FAILURE() << "helper thread threw a non-exception";
              }
              if (ended)
                  ended->count_down();
          })
    {
    }

    ~Helper()
    {
        if (thread.joinable())
            thread.join();
    }

    void join() { thread.join(); }

  private:
    std::thread thread;
};

// ---------------------------------------------------------------------
// Socket + Transport: the framed codec generalized to TCP.
// ---------------------------------------------------------------------

TEST(SocketTransport, FramesRoundTripBothWaysWithCleanEof)
{
    TcpListener listener(0);
    ASSERT_GT(listener.port(), 0);

    const std::vector<std::uint8_t> ping = {1, 2, 3};
    const std::vector<std::uint8_t> pong(4096, 0xab);

    Helper peer([&] {
        Transport link(connectTcp("127.0.0.1", listener.port()),
                       "peer");
        link.send(ping);
        std::vector<std::uint8_t> got;
        ASSERT_TRUE(link.receive(got));
        EXPECT_EQ(got, pong);
        link.closeSend();
        // The far side half-closed too: clean EOF, not an error.
        EXPECT_FALSE(link.receive(got));
    });

    Transport link(listener.acceptClient(), "server");
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(link.receive(got));
    EXPECT_EQ(got, ping);
    link.send(pong);
    link.closeSend();
    EXPECT_FALSE(link.receive(got));
    peer.join();
}

TEST(SocketTransport, ConnectToDeadPortThrowsSocketError)
{
    std::uint16_t dead_port;
    {
        TcpListener listener(0);
        dead_port = listener.port();
    } // closed: nothing listens there now
    EXPECT_THROW(connectTcp("127.0.0.1", dead_port), SocketError);
}

// ---------------------------------------------------------------------
// Hardened frame reading: forged length prefixes.
// ---------------------------------------------------------------------

TEST(FrameHardening, ForgedLengthBeyondCallerCeilingIsCorrupt)
{
    std::vector<std::uint8_t> stream;
    const std::vector<std::uint8_t> payload(1024, 7);
    appendFrame(stream, payload.data(), payload.size());

    // Fine under the default ceiling...
    EXPECT_EQ(parseFrame(stream.data(), stream.size()).status,
              FrameStatus::Complete);
    // ...but a reader that tightened its ceiling treats the same
    // header as corruption, before any allocation.
    EXPECT_EQ(parseFrame(stream.data(), stream.size(), 512).status,
              FrameStatus::Corrupt);
}

TEST(FrameHardening, ForgedHeaderOnAStreamThrowsBeforeAllocating)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Forge a header claiming a ~4 GB payload — with a valid header
    // check, so the length ceiling (not the self-check) rejects it.
    // No payload follows.
    std::uint8_t header[kFrameHeaderBytes];
    putLe32(header, 0xFFFFFFF0u);
    putLe32(header + 4, fnv1a32(header, 4));
    putLe32(header + 8, 0xdeadbeefu);
    ASSERT_EQ(::write(fds[1], header, sizeof header),
              static_cast<ssize_t>(sizeof header));
    ::close(fds[1]);

    std::vector<std::uint8_t> payload;
    EXPECT_THROW(readFrame(fds[0], payload, "forged"), FramingError);
    ::close(fds[0]);
}

TEST(FrameHardening, CorruptLengthWordFailsFastInsteadOfStalling)
{
    // The bug this guards against: a single bit flipped in the length
    // word once made a blocking reader wait for megabytes of payload
    // that were never sent. The header self-check must classify the
    // frame corrupt from the header alone — no payload read, no
    // deadline needed, no stall.
    std::vector<std::uint8_t> frame;
    const std::vector<std::uint8_t> payload(64, 0xab);
    appendFrame(frame, payload.data(), payload.size());
    frame[2] ^= 0x01; // bit 16 of the length: +65536 bytes claimed

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    // Deliberately do NOT close the write end: a reader that trusted
    // the corrupt length would block here forever.
    std::vector<std::uint8_t> out;
    try {
        readFrame(fds[0], out, "bitflipped");
        FAIL() << "corrupt length word was accepted";
    } catch (const FramingError &err) {
        EXPECT_NE(std::string(err.what()).find("header check"),
                  std::string::npos)
            << err.what();
    }
    ::close(fds[1]);
    ::close(fds[0]);
}

TEST(FrameHardening, StalledMidFrameReadHitsTheDeadline)
{
    // A frame that starts and never finishes (slow-loris, or a length
    // the self-check could not catch) must resolve as a FramingError
    // within the receive deadline, not pin the reader forever.
    std::vector<std::uint8_t> frame;
    const std::vector<std::uint8_t> payload(256, 0x5a);
    appendFrame(frame, payload.data(), payload.size());

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Header plus half the payload; the rest is withheld.
    const std::size_t sent = kFrameHeaderBytes + 128;
    ASSERT_EQ(::write(fds[1], frame.data(), sent),
              static_cast<ssize_t>(sent));

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> out;
    try {
        readFrame(fds[0], out, "stalled", kMaxFramePayloadBytes, 200);
        FAIL() << "stalled frame was accepted";
    } catch (const FramingError &err) {
        EXPECT_NE(std::string(err.what()).find("stalled"),
                  std::string::npos)
            << err.what();
    }
    const auto waited =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);
    // Generous upper bound: the point is "bounded", not "precise".
    EXPECT_LT(waited.count(), 5000);

    ::close(fds[1]);
    ::close(fds[0]);
}

TEST(FrameHardening, TransportHonorsTightenedFrameCeiling)
{
    TcpListener listener(0);
    Helper peer([&] {
        Transport link(connectTcp("127.0.0.1", listener.port()),
                       "peer");
        try {
            link.send(std::vector<std::uint8_t>(2048, 1));
        } catch (const FramingError &) {
            // The server may reset the connection before the whole
            // frame drains; either way the send side is done.
        }
    });
    Transport link(listener.acceptClient(), "server");
    link.setMaxFramePayload(1024);
    std::vector<std::uint8_t> got;
    EXPECT_THROW(link.receive(got), FramingError);
    peer.join();
}

// ---------------------------------------------------------------------
// EINTR discipline: framed I/O under a signal storm.
// ---------------------------------------------------------------------

TEST(EintrDiscipline, FramedSocketIoSurvivesASignalStorm)
{
    // A no-op handler installed WITHOUT SA_RESTART, so every storm
    // signal genuinely interrupts blocking syscalls with EINTR
    // instead of being transparently restarted by the kernel.
    struct sigaction sa{}, old{};
    sa.sa_handler = [](int) {};
    sa.sa_flags = 0;
    sigemptyset(&sa.sa_mask);
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    TcpListener listener(0);
    constexpr int kFrames = 200;
    const std::vector<std::uint8_t> big(64 * 1024, 0x5c);

    std::atomic<bool> storm_on{true};
    pthread_t reader_handle = ::pthread_self();

    std::thread writer([&] {
        Transport link(connectTcp("127.0.0.1", listener.port()),
                       "writer");
        for (int i = 0; i < kFrames; ++i)
            link.send(big);
        link.closeSend();
        // Hold the socket until the reader drains everything.
        std::vector<std::uint8_t> nothing;
        link.receive(nothing);
    });
    std::thread storm([&] {
        while (storm_on.load()) {
            ::pthread_kill(reader_handle, SIGUSR1);
            ::pthread_kill(writer.native_handle(), SIGUSR1);
            std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
    });

    Transport link(listener.acceptClient(), "reader");
    std::vector<std::uint8_t> got;
    int received = 0;
    while (link.receive(got)) {
        ASSERT_EQ(got, big);
        ++received;
    }
    EXPECT_EQ(received, kFrames);

    storm_on.store(false);
    storm.join();
    link.close(); // unblocks the writer's parked receive
    writer.join();
    ::sigaction(SIGUSR1, &old, nullptr);
}

// ---------------------------------------------------------------------
// Journal flock: one campaign per journal file.
// ---------------------------------------------------------------------

TEST(JournalLock, SecondOpenerGetsConfigErrorWhileFirstIsAlive)
{
    TempFile journal("flock");
    CampaignJournal::Identity identity;
    identity.digest = 42;
    identity.description = "flock test";

    CampaignJournal first(journal.path(), identity, false);
    // Both fresh-open and resume must refuse: truncating (or even
    // reading) a journal another campaign is appending to is the
    // corruption the lock exists to prevent.
    EXPECT_THROW(CampaignJournal(journal.path(), identity, false),
                 ConfigError);
    EXPECT_THROW(CampaignJournal(journal.path(), identity, true),
                 ConfigError);
}

TEST(JournalLock, LockReleasesWithTheJournalObject)
{
    TempFile journal("flock_release");
    CampaignJournal::Identity identity;
    identity.digest = 43;
    identity.description = "flock release test";

    { CampaignJournal first(journal.path(), identity, false); }
    // First holder gone: a fresh campaign opens cleanly.
    EXPECT_NO_THROW(CampaignJournal(journal.path(), identity, false));
}

TEST(JournalLock, RejectedOpenDoesNotLeakTheLock)
{
    TempFile journal("flock_reject");
    CampaignJournal::Identity identity;
    identity.digest = 44;
    identity.description = "flock reject test";

    { CampaignJournal first(journal.path(), identity, false); }

    // A resume under a different campaign identity is rejected from
    // inside the constructor — after the flock is taken. The throw
    // must release the lock, or one bad resume would wedge every
    // later attempt in this process behind "locked by another
    // campaign".
    CampaignJournal::Identity other;
    other.digest = 45;
    other.description = "some other campaign";
    EXPECT_THROW(CampaignJournal(journal.path(), other, true),
                 ConfigError);

    EXPECT_NO_THROW(CampaignJournal(journal.path(), identity, true));
}

// ---------------------------------------------------------------------
// Lease table: no unit lost, no unit double-counted.
// ---------------------------------------------------------------------

TEST(LeaseTableTest, PendingGrantsInDispatchOrder)
{
    LeaseTable table(5);
    EXPECT_EQ(table.pendingCount(), 5u);
    EXPECT_EQ(table.takePending(2),
              (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(table.takePending(99),
              (std::vector<std::size_t>{2, 3, 4}));
    EXPECT_EQ(table.pendingCount(), 0u);
    EXPECT_FALSE(table.allDone());
}

TEST(LeaseTableTest, FirstResultWinsDuplicatesDetected)
{
    LeaseTable table(3);
    const auto units = table.takePending(2);
    const std::uint64_t lease = table.openLease(
        7, units, LeaseTable::Clock::time_point::max());

    EXPECT_EQ(table.completeUnit(lease, 0), LeaseResult::Accepted);
    EXPECT_TRUE(table.isDone(0));
    // Same unit again under the same (still-open) lease: duplicate.
    EXPECT_EQ(table.completeUnit(lease, 0), LeaseResult::Duplicate);
    // Last unit closes the lease automatically...
    EXPECT_EQ(table.completeUnit(lease, 1), LeaseResult::Accepted);
    EXPECT_EQ(table.openLeaseCount(7), 0u);
    // ...so a stale report quoting it is Duplicate (unit done), and a
    // never-granted lease over a not-done unit is Unknown.
    EXPECT_EQ(table.completeUnit(lease, 1), LeaseResult::Duplicate);
    EXPECT_EQ(table.completeUnit(999, 2), LeaseResult::Unknown);
    EXPECT_FALSE(table.allDone());
}

TEST(LeaseTableTest, RevocationRequeuesUnfinishedUnitsAtTheFront)
{
    LeaseTable table(5);
    const auto batch = table.takePending(3); // {0,1,2}
    const std::uint64_t lease = table.openLease(
        1, batch, LeaseTable::Clock::time_point::max());
    EXPECT_EQ(table.completeUnit(lease, 1), LeaseResult::Accepted);

    // Worker dies: units 0 and 2 must come back, ahead of 3 and 4.
    EXPECT_EQ(table.revokeLease(lease),
              (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(table.takePending(99),
              (std::vector<std::size_t>{0, 2, 3, 4}));
    // The revoked lease is gone: its late results are not Accepted.
    EXPECT_NE(table.completeUnit(lease, 0), LeaseResult::Accepted);
}

TEST(LeaseTableTest, ExpiryAndCompletionAccounting)
{
    LeaseTable table(4);
    const auto now = LeaseTable::Clock::now();
    const std::uint64_t stale = table.openLease(
        1, table.takePending(2), now - std::chrono::seconds(1));
    const std::uint64_t fresh = table.openLease(
        2, table.takePending(2), now + std::chrono::hours(1));

    EXPECT_EQ(table.expired(now),
              (std::vector<std::uint64_t>{stale}));
    EXPECT_EQ(table.leasesOf(1),
              (std::vector<std::uint64_t>{stale}));

    table.revokeLease(stale);
    for (std::size_t u : {0u, 1u})
        EXPECT_EQ(table.completeUnit(fresh, u + 2),
                  LeaseResult::Accepted)
            << u;
    for (std::size_t u : table.takePending(99))
        table.markDone(u);
    EXPECT_TRUE(table.allDone());
    EXPECT_EQ(table.unitsDone(), 4u);
}

TEST(LeaseTableTest, MarkDoneRemovesTheUnitFromPending)
{
    LeaseTable table(3);
    table.markDone(1); // e.g. journal replay resolved it
    EXPECT_EQ(table.takePending(99),
              (std::vector<std::size_t>{0, 2}));
    EXPECT_TRUE(table.isDone(1));
}

// ---------------------------------------------------------------------
// Wire protocol codec.
// ---------------------------------------------------------------------

TEST(FabricProtocol, MessagesRoundTrip)
{
    HelloMsg hello;
    hello.version = 3;
    hello.name = "rig-07";
    const HelloMsg hello2 = decodeHello(encodeHello(hello));
    EXPECT_EQ(hello2.version, 3u);
    EXPECT_EQ(hello2.name, "rig-07");

    WelcomeMsg welcome;
    welcome.spec = {9, 8, 7};
    EXPECT_EQ(decodeWelcome(encodeWelcome(welcome)).spec,
              welcome.spec);

    RejectMsg reject;
    reject.reason = "version 3, expected 1";
    EXPECT_EQ(decodeReject(encodeReject(reject)).reason,
              reject.reason);

    LeaseMsg lease;
    lease.leaseId = 11;
    lease.units = {{4, {1, 2}}, {5, {}}};
    const LeaseMsg lease2 = decodeLease(encodeLease(lease));
    EXPECT_EQ(lease2.leaseId, 11u);
    ASSERT_EQ(lease2.units.size(), 2u);
    EXPECT_EQ(lease2.units[0].unitIndex, 4u);
    EXPECT_EQ(lease2.units[0].request,
              (std::vector<std::uint8_t>{1, 2}));
    EXPECT_TRUE(lease2.units[1].request.empty());

    ResultMsg result;
    result.leaseId = 11;
    result.unitIndex = 4;
    result.response = {0xaa};
    const ResultMsg result2 = decodeResult(encodeResult(result));
    EXPECT_EQ(result2.leaseId, 11u);
    EXPECT_EQ(result2.unitIndex, 4u);
    EXPECT_EQ(result2.response, (std::vector<std::uint8_t>{0xaa}));

    EXPECT_EQ(peekType(encodeHeartbeat()), FabricMsg::Heartbeat);
    EXPECT_EQ(peekType(encodeDone()), FabricMsg::Done);
}

TEST(FabricProtocol, MalformedPayloadsThrowDistError)
{
    EXPECT_THROW(peekType({}), DistError);
    EXPECT_THROW(peekType({0xff}), DistError);
    // Wrong tag for the decoder.
    EXPECT_THROW(decodeHello(encodeDone()), DistError);
    // Truncated body (current version, so the auth fields are
    // expected and their absence is malformed, not version skew).
    HelloMsg torn_src;
    torn_src.version = kDistProtocolVersion;
    torn_src.name = "worker";
    auto torn = encodeHello(torn_src);
    torn.resize(torn.size() / 2);
    EXPECT_THROW(decodeHello(torn), DistError);
}

TEST(FabricProtocol, CampaignSpecRoundTripsAndRejectsGarbage)
{
    CampaignSpec spec;
    spec.configs = {parseConfigName("x86-2-50-32"),
                    parseConfigName("ARM-4-100-64")};
    spec.campaign.iterations = 96;
    spec.campaign.testsPerConfig = 5;
    spec.campaign.seed = 99;
    spec.campaign.fault.bitFlipRate = 0.01;
    spec.campaign.recovery.crashRetries = 3;
    spec.campaign.testTimeoutMs = 1234;
    spec.campaign.variant = PlatformVariant::Mesi;
    spec.campaign.model = MemoryModel::SC;
    spec.campaign.bug = BugKind::PutxGetxRace;
    spec.campaign.bugProbability = 0.375;
    spec.campaign.cacheLines = 6;
    spec.campaign.profile = true;

    const std::vector<std::uint8_t> bytes = encodeCampaignSpec(spec);
    const CampaignSpec back = decodeCampaignSpec(bytes);
    ASSERT_EQ(back.configs.size(), 2u);
    EXPECT_EQ(back.configs[0].name(), spec.configs[0].name());
    EXPECT_EQ(back.configs[1].name(), spec.configs[1].name());
    EXPECT_EQ(back.campaign.iterations, 96u);
    EXPECT_EQ(back.campaign.testsPerConfig, 5u);
    EXPECT_EQ(back.campaign.seed, 99u);
    EXPECT_EQ(back.campaign.fault.bitFlipRate, 0.01);
    EXPECT_EQ(back.campaign.recovery.crashRetries, 3u);
    EXPECT_EQ(back.campaign.testTimeoutMs, 1234u);
    EXPECT_EQ(back.campaign.variant, PlatformVariant::Mesi);
    EXPECT_EQ(back.campaign.model, MemoryModel::SC);
    EXPECT_EQ(back.campaign.bug, BugKind::PutxGetxRace);
    EXPECT_EQ(back.campaign.bugProbability, 0.375);
    EXPECT_EQ(back.campaign.cacheLines, 6u);
    EXPECT_TRUE(back.campaign.profile);
    CampaignSpec no_model = spec;
    no_model.campaign.model.reset();
    EXPECT_FALSE(decodeCampaignSpec(encodeCampaignSpec(no_model))
                     .campaign.model);

    EXPECT_THROW(decodeCampaignSpec({1, 2, 3}), DistError);
    // A spec from an older build (v2) is refused, not misread.
    std::vector<std::uint8_t> old = bytes;
    old[4] = 2;
    EXPECT_THROW(decodeCampaignSpec(old), DistError);
    // An out-of-range platform byte (just after the magic, version,
    // iterations, tests and seed) is refused.
    std::vector<std::uint8_t> bad_platform = bytes;
    bad_platform[4 + 4 + 8 + 4 + 8] = 0x7f;
    EXPECT_THROW(decodeCampaignSpec(bad_platform), DistError);

    // The retired shard-size slot, after testRetries: magic, version,
    // iterations, tests, seed, the four platform bytes, bug
    // probability, cache lines, runConventional, five fault rates,
    // fault seed, the three recovery knobs and testRetries. The
    // encoder writes 0 there; a spec from a sharded campaign is
    // refused with the slot named, not run unsharded.
    constexpr std::size_t kShardSlot = 4 + 4 + 8 + 4 + 8 + 4 + 8 + 4 +
        1 + 5 * 8 + 8 + 4 + 8 + 4 + 4;
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(bytes[kShardSlot + i], 0u) << "slot byte " << i;
    std::vector<std::uint8_t> sharded = bytes;
    sharded[kShardSlot] = 32;
    try {
        (void)decodeCampaignSpec(sharded);
        ADD_FAILURE() << "a non-zero shard-size slot was accepted";
    } catch (const DistError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("shard-size slot holds 32"),
                  std::string::npos)
            << what;
    }
}

// ---------------------------------------------------------------------
// Coordinator + worker client, in-process (thread workers).
// ---------------------------------------------------------------------

/** Trivial unit semantics for fabric-only tests: the response echoes
 * the request with one byte appended. */
std::vector<std::uint8_t>
echoUnit(std::uint64_t, const std::vector<std::uint8_t> &request)
{
    std::vector<std::uint8_t> response = request;
    response.push_back(0x99);
    return response;
}

TEST(Fabric, VersionMismatchedWorkerRejectedAtHandshake)
{
    FabricConfig cfg;
    cfg.batchSize = 1;
    Coordinator coordinator(cfg, {0xde, 0xad});

    // The good worker waits until the rejected session is over: on a
    // loaded host it could otherwise drain all 4 units first, and the
    // coordinator would close its listener before the stale build
    // ever connects.
    std::latch bad_done(1);
    std::atomic<bool> bad_rejected{false};
    Helper bad([&] {
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "stale-build";
        wc.protocolVersion = kDistProtocolVersion + 7;
        wc.heartbeatMs = 50;
        try {
            runWorkerClient(wc, [](const auto &) {}, echoUnit);
        } catch (const DistError &) {
            bad_rejected.store(true); // fatal, no retry
        }
    }, &bad_done);
    Helper good([&] {
        bad_done.wait();
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "good";
        wc.heartbeatMs = 50;
        runWorkerClient(wc, [](const auto &) {}, echoUnit);
    });

    std::vector<bool> seen(4, false);
    coordinator.run(
        4,
        [](std::size_t u) {
            return std::optional<std::vector<std::uint8_t>>(
                std::vector<std::uint8_t>{
                    static_cast<std::uint8_t>(u)});
        },
        [&](std::size_t u, const std::vector<std::uint8_t> &payload) {
            EXPECT_FALSE(seen[u]) << "unit double-counted";
            seen[u] = true;
            ASSERT_EQ(payload.size(), 2u);
            EXPECT_EQ(payload[0], static_cast<std::uint8_t>(u));
            EXPECT_EQ(payload[1], 0x99);
        },
        [](std::size_t, unsigned, const std::string &) {
            return true;
        });
    bad.join();
    good.join();

    EXPECT_TRUE(bad_rejected.load());
    EXPECT_EQ(coordinator.stats().workersRejected, 1u);
    for (std::size_t u = 0; u < seen.size(); ++u)
        EXPECT_TRUE(seen[u]) << "unit " << u << " never resolved";
}

TEST(Fabric, SlowWorkerThrottledByBackpressureNotTheFleet)
{
    FabricConfig cfg;
    cfg.batchSize = 1;
    cfg.maxInFlightPerWorker = 1; // the backpressure bound under test
    Coordinator coordinator(cfg, {});

    constexpr std::size_t kUnits = 8;
    WorkerRunStats fast_stats, slow_stats;
    // The fast worker starts only once the slow one has joined: an
    // instant drain would otherwise close the listener before the
    // slow thread's first connect, which the slow client rightly
    // reports as an unreachable coordinator. The campaign must
    // outlive both connects for the throttling claim to mean
    // anything.
    std::latch slow_joined(1);
    std::atomic<bool> joined_once{false};
    Helper fast([&] {
        slow_joined.wait();
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "fast";
        wc.heartbeatMs = 50;
        wc.unitDelayMs = 20;
        fast_stats =
            runWorkerClient(wc, [](const auto &) {}, echoUnit);
    });
    Helper slow([&] {
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "slow";
        wc.heartbeatMs = 50;
        wc.unitDelayMs = 200; // the "slow host" drill
        slow_stats = runWorkerClient(
            wc,
            [&](const auto &) {
                if (!joined_once.exchange(true))
                    slow_joined.count_down();
            },
            echoUnit);
    });

    std::size_t results = 0;
    coordinator.run(
        kUnits,
        [](std::size_t u) {
            return std::optional<std::vector<std::uint8_t>>(
                std::vector<std::uint8_t>{
                    static_cast<std::uint8_t>(u)});
        },
        [&](std::size_t, const std::vector<std::uint8_t> &) {
            ++results;
        },
        [](std::size_t, unsigned, const std::string &) {
            return true;
        });
    fast.join();
    slow.join();

    // Every unit resolved exactly once, the slow worker held at most
    // its in-flight bound while the fast worker drained the queue,
    // and heartbeats kept the slow worker alive through its delays.
    EXPECT_EQ(results, kUnits);
    EXPECT_EQ(fast_stats.unitsExecuted + slow_stats.unitsExecuted,
              kUnits);
    EXPECT_GT(fast_stats.unitsExecuted, slow_stats.unitsExecuted);
    EXPECT_EQ(coordinator.stats().duplicateResults, 0u);
    EXPECT_GT(coordinator.stats().heartbeats, 0u);
}

TEST(Fabric, SilentWorkerDeclaredDeadAndItsLeaseReassigned)
{
    FabricConfig cfg;
    cfg.batchSize = 2;
    cfg.heartbeatTimeoutMs = 250; // aggressive, for the test
    Coordinator coordinator(cfg, {});

    // A hand-rolled worker that handshakes, accepts a lease, then
    // goes silent — no results, no heartbeats. The coordinator must
    // declare it dead at the liveness timeout and reassign. The good
    // worker arrives only once the silent session is over, so the
    // silent worker is leased first and its lease must be reassigned.
    std::latch silent_done(1);
    Helper silent([&] {
        Transport link(connectTcp("127.0.0.1", coordinator.port()),
                       "silent");
        HelloMsg hello;
        hello.name = "silent";
        link.send(encodeHello(hello));
        std::vector<std::uint8_t> msg;
        ASSERT_TRUE(link.receive(msg)); // Welcome
        ASSERT_TRUE(link.receive(msg)); // a Lease it will never serve
        EXPECT_EQ(peekType(msg), FabricMsg::Lease);
        // Stay silent until the coordinator hangs up on us.
        try {
            while (link.receive(msg)) {
            }
        } catch (const FramingError &) {
        }
        link.close();
    }, &silent_done);
    Helper good([&] {
        silent_done.wait();
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "good";
        wc.heartbeatMs = 50;
        runWorkerClient(wc, [](const auto &) {}, echoUnit);
    });

    std::vector<bool> seen(4, false);
    coordinator.run(
        4,
        [](std::size_t u) {
            return std::optional<std::vector<std::uint8_t>>(
                std::vector<std::uint8_t>{
                    static_cast<std::uint8_t>(u)});
        },
        [&](std::size_t u, const std::vector<std::uint8_t> &) {
            EXPECT_FALSE(seen[u]) << "unit double-counted";
            seen[u] = true;
        },
        [](std::size_t, unsigned, const std::string &) {
            return true;
        });
    silent.join();
    good.join();

    EXPECT_GE(coordinator.stats().workersLost, 1u);
    EXPECT_GE(coordinator.stats().unitsReassigned, 1u);
    for (std::size_t u = 0; u < seen.size(); ++u)
        EXPECT_TRUE(seen[u]) << "unit " << u << " never resolved";
}

// ---------------------------------------------------------------------
// Distributed campaigns: the bit-identity gate.
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
fabricConfigs()
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

void
expectCampaignsIdentical(const std::vector<ConfigSummary> &a,
                         const std::vector<ConfigSummary> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].cfg.name());
        expectSummariesIdentical(a[i], b[i]);
    }
}

TEST(DistributedCampaign, SummaryBitIdenticalAtAnyFleetSize)
{
    const CampaignConfig base = smallCampaign();
    const auto baseline = runCampaign(fabricConfigs(), base);

    for (unsigned workers : {1u, 3u}) {
        SCOPED_TRACE("fleet size " + std::to_string(workers));
        CampaignConfig dist = base;
        dist.mode = ExecutionMode::Distributed;
        dist.distWorkers = workers;
        expectCampaignsIdentical(baseline,
                                 runCampaign(fabricConfigs(), dist));
    }
}

TEST(DistributedCampaign, FaultInjectedSummaryBitIdentical)
{
    CampaignConfig base = smallCampaign();
    base.fault.bitFlipRate = 0.02;
    base.fault.dropRate = 0.01;
    base.recovery.confirmationRuns = 2;
    const auto baseline = runCampaign(fabricConfigs(), base);

    CampaignConfig dist = base;
    dist.mode = ExecutionMode::Distributed;
    dist.distWorkers = 2;
    expectCampaignsIdentical(baseline,
                             runCampaign(fabricConfigs(), dist));
}

TEST(DistributedCampaign, WorkerDeathMidBatchKeepsSummaryBitIdentical)
{
    const CampaignConfig base = smallCampaign();
    const auto baseline = runCampaign(fabricConfigs(), base);

    // Loopback worker 0 _exit()s abruptly after its first result,
    // leaving the rest of its lease unreported. The lease must be
    // revoked, its units reassigned and re-executed — and because a
    // fabric loss is never charged as a platform crash, the summary
    // (crashRetries included) stays bit-identical to serial.
    CampaignConfig dist = base;
    dist.mode = ExecutionMode::Distributed;
    dist.distWorkers = 2;
    dist.distBatch = 2;
    dist.distDrillExitAfter = 1;
    expectCampaignsIdentical(baseline,
                             runCampaign(fabricConfigs(), dist));
}

TEST(DistributedCampaign, CoordinatorCrashResumesFromJournalBitIdentically)
{
    const CampaignConfig base = smallCampaign();
    const auto baseline = runCampaign(fabricConfigs(), base);

    TempFile journal("coord_crash");
    {
        CampaignConfig first = base;
        first.mode = ExecutionMode::Distributed;
        first.distWorkers = 2;
        first.journalPath = journal.path();
        runCampaign(fabricConfigs(), first);
    }
    // Simulate the coordinator dying mid-campaign: chop the journal
    // so only a prefix of unit records (plus possibly a torn tail)
    // survives, exactly what a SIGKILL mid-append leaves behind.
    const std::uintmax_t full = fs::file_size(journal.path());
    fs::resize_file(journal.path(), full * 2 / 3);

    CampaignConfig resumed = base;
    resumed.mode = ExecutionMode::Distributed;
    resumed.distWorkers = 2;
    resumed.journalPath = journal.path();
    resumed.resume = true;
    expectCampaignsIdentical(baseline,
                             runCampaign(fabricConfigs(), resumed));
}

TEST(DistributedCampaign, JournalWrittenSeriallyResumesDistributed)
{
    const CampaignConfig base = smallCampaign();
    const auto baseline = runCampaign(fabricConfigs(), base);

    // The journal identity excludes the execution mode on purpose:
    // where units ran cannot change what they computed, so a serial
    // journal resumes onto the fabric (and replays bit-identically).
    TempFile journal("cross_mode");
    {
        CampaignConfig serial = base;
        serial.journalPath = journal.path();
        runCampaign(fabricConfigs(), serial);
    }
    CampaignConfig dist = base;
    dist.mode = ExecutionMode::Distributed;
    dist.distWorkers = 2;
    dist.journalPath = journal.path();
    dist.resume = true;
    expectCampaignsIdentical(baseline,
                             runCampaign(fabricConfigs(), dist));
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

TEST(DistributedCampaign, PlatformKnobsBitIdenticalAtAnyFleetSizeAndResume)
{
    // The knobs travel in the v3 campaign spec: a worker that built a
    // different flow would show up here as a summary mismatch.
    for (const auto &[name, base] : platformKnobCampaigns()) {
        SCOPED_TRACE(name);
        const auto baseline = runCampaign(fabricConfigs(), base);
        TempFile journal("knob_" + name);
        for (unsigned workers : {1u, 4u}) {
            CampaignConfig dist = base;
            dist.mode = ExecutionMode::Distributed;
            dist.distWorkers = workers;
            dist.journalPath = journal.path();
            expectCampaignsIdentical(baseline,
                                     runCampaign(fabricConfigs(), dist));
        }
        fs::resize_file(journal.path(),
                        fs::file_size(journal.path()) / 2 + 3);
        CampaignConfig resumed = base;
        resumed.mode = ExecutionMode::Distributed;
        resumed.distWorkers = 2;
        resumed.journalPath = journal.path();
        resumed.resume = true;
        expectCampaignsIdentical(baseline,
                                 runCampaign(fabricConfigs(), resumed));
    }
}

TEST(DistributedCampaign, NonIpv4HostIsAConfigError)
{
    for (const char *host : {"::1", "localhost", "", "127.0.0.256"}) {
        SCOPED_TRACE(host);
        CampaignConfig dist = smallCampaign();
        dist.mode = ExecutionMode::Distributed;
        dist.distHost = host;
        EXPECT_THROW(runCampaign(fabricConfigs(), dist), ConfigError);
    }
}

// ---------------------------------------------------------------------
// Authenticated transport: keyed handshakes, rejections, hardening.
// ---------------------------------------------------------------------

std::string
hexOf(const std::uint8_t *bytes, std::size_t len)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (std::size_t i = 0; i < len; ++i) {
        out += digits[bytes[i] >> 4];
        out += digits[bytes[i] & 0xF];
    }
    return out;
}

TEST(Sha256, Fips180ExampleDigests)
{
    const auto digest = [](const std::string &msg) {
        const auto d = Sha256::digest(msg.data(), msg.size());
        return hexOf(d.data(), d.size());
    };
    EXPECT_EQ(digest(""), "e3b0c44298fc1c149afbf4c8996fb924"
                          "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digest("abc"), "ba7816bf8f01cfea414140de5dae2223"
                             "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039"
        "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, Rfc4231HmacVectors)
{
    const auto mac = [](const std::vector<std::uint8_t> &key,
                        const std::string &msg) {
        const auto d = hmacSha256(key, msg.data(), msg.size());
        return hexOf(d.data(), d.size());
    };
    EXPECT_EQ(mac(std::vector<std::uint8_t>(20, 0x0b), "Hi There"),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
    EXPECT_EQ(mac({'J', 'e', 'f', 'e'}, "what do ya want for nothing?"),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
    // A key longer than the block is hashed first.
    EXPECT_EQ(mac(std::vector<std::uint8_t>(131, 0xaa),
                  "Test Using Larger Than Block-Size Key - Hash Key "
                  "First"),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(FrameMac, TagsMatchOneShotHmacAcrossPaddingBoundaries)
{
    // The envelope MACs dir || seq || payload (9 + len bytes after
    // the key block) into a copy of the session's keyed state. Every
    // payload length from 0 to 130 crosses the 55/56-byte padding
    // split and the 64-byte block edge twice; each tag must equal a
    // one-shot HMAC over the same bytes, frame after frame.
    for (const std::size_t key_len : {std::size_t(32), std::size_t(100)}) {
        std::vector<std::uint8_t> key(key_len);
        for (std::size_t i = 0; i < key_len; ++i)
            key[i] = static_cast<std::uint8_t>(i * 13 + 1);
        for (const bool client : {true, false}) {
            Transport link;
            link.enableFrameAuth(key, client);
            const std::uint8_t dir = client ? 'C' : 'S';
            for (std::size_t len = 0; len <= 130; ++len) {
                std::vector<std::uint8_t> payload(len);
                for (std::size_t i = 0; i < len; ++i)
                    payload[i] = static_cast<std::uint8_t>(i * 7 + len);
                const std::vector<std::uint8_t> frame =
                    link.buildFrame(payload);
                ASSERT_EQ(frame.size(),
                          kFrameHeaderBytes + len + kFrameAuthBytes);
                const std::uint8_t *seq =
                    frame.data() + kFrameHeaderBytes + len;
                const std::uint8_t *tag = seq + kFrameSeqBytes;

                std::vector<std::uint8_t> msg{dir};
                msg.insert(msg.end(), seq, seq + kFrameSeqBytes);
                msg.insert(msg.end(), payload.begin(), payload.end());
                const auto expect =
                    hmacSha256(key, msg.data(), msg.size());
                EXPECT_EQ(hexOf(tag, kFrameMacBytes),
                          hexOf(expect.data(), kFrameMacBytes))
                    << "key " << key_len << ", payload " << len;
                EXPECT_EQ(seq[0], static_cast<std::uint8_t>(len));
            }
        }
    }
}

/** A fabric key file on disk (32 printable bytes + newline). */
class TempKeyFile
{
  public:
    explicit TempKeyFile(const std::string &name, char fill = 'k')
        : file("key_" + name)
    {
        std::ofstream out(file.path(), std::ios::binary);
        out << std::string(32, fill) << "\n";
    }

    const std::string &path() const { return file.path(); }
    std::vector<std::uint8_t> key() const
    {
        return loadFabricKey(path());
    }

  private:
    TempFile file;
};

/** Drives a 4-unit echo campaign to completion on @p coordinator. */
void
serveEchoUnits(Coordinator &coordinator, std::size_t units = 4)
{
    std::vector<bool> seen(units, false);
    coordinator.run(
        units,
        [](std::size_t u) {
            return std::optional<std::vector<std::uint8_t>>(
                std::vector<std::uint8_t>{
                    static_cast<std::uint8_t>(u)});
        },
        [&](std::size_t u, const std::vector<std::uint8_t> &payload) {
            EXPECT_FALSE(seen[u]) << "unit double-counted";
            seen[u] = true;
            ASSERT_EQ(payload.size(), 2u);
            EXPECT_EQ(payload[0], static_cast<std::uint8_t>(u));
            EXPECT_EQ(payload[1], 0x99);
        },
        [](std::size_t, unsigned, const std::string &) {
            return true;
        });
    for (std::size_t u = 0; u < seen.size(); ++u)
        EXPECT_TRUE(seen[u]) << "unit " << u << " never resolved";
}

TEST(FabricAuth, KeyedHandshakeServesUnitsOverMacedFrames)
{
    const TempKeyFile keyfile("handshake");
    FabricConfig cfg;
    cfg.batchSize = 1;
    cfg.key = keyfile.key();
    Coordinator coordinator(cfg, {0xaa, 0xbb});

    std::atomic<bool> got_spec{false};
    Helper worker([&] {
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "keyed";
        wc.heartbeatMs = 50;
        wc.key = keyfile.key();
        runWorkerClient(
            wc,
            [&](const std::vector<std::uint8_t> &spec) {
                got_spec.store(spec ==
                               std::vector<std::uint8_t>{0xaa, 0xbb});
            },
            echoUnit);
    });

    serveEchoUnits(coordinator);
    worker.join();

    EXPECT_TRUE(got_spec.load());
    EXPECT_GE(coordinator.stats().workersConnected, 1u);
    EXPECT_EQ(coordinator.stats().authFailures, 0u);
}

TEST(FabricAuth, KeylessWorkerRejectedByKeyedCoordinatorBeforeAnyLease)
{
    const TempKeyFile keyfile("keyless_reject");
    FabricConfig cfg;
    cfg.batchSize = 1;
    cfg.key = keyfile.key();
    Coordinator coordinator(cfg, {0x01});

    std::latch bad_done(1);
    std::atomic<bool> bad_rejected{false};
    WorkerRunStats bad_stats;
    Helper bad([&] {
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "no-key";
        wc.heartbeatMs = 50;
        try {
            bad_stats =
                runWorkerClient(wc, [](const auto &) {}, echoUnit);
        } catch (const DistError &) {
            bad_rejected.store(true); // Reject is fatal: no retry
        }
    }, &bad_done);
    Helper good([&] {
        bad_done.wait();
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "good";
        wc.heartbeatMs = 50;
        wc.key = keyfile.key();
        runWorkerClient(wc, [](const auto &) {}, echoUnit);
    });

    serveEchoUnits(coordinator);
    bad.join();
    good.join();

    EXPECT_TRUE(bad_rejected.load());
    EXPECT_EQ(bad_stats.unitsExecuted, 0u);
    EXPECT_GE(coordinator.stats().authFailures, 1u);
    EXPECT_GE(coordinator.stats().workersRejected, 1u);
}

TEST(FabricAuth, WrongKeyFailsBothProofDirections)
{
    const TempKeyFile keyfile("right", 'r');
    const TempKeyFile wrongfile("wrong", 'w');
    FabricConfig cfg;
    cfg.batchSize = 1;
    cfg.key = keyfile.key();
    Coordinator coordinator(cfg, {0x02});

    // A wrong-key worker detects the coordinator's bad server proof
    // and refuses to reveal its own — mutual authentication, so a
    // rogue coordinator cannot harvest client proofs either.
    std::latch bad_done(2); // the wrong-key worker and the forger
    std::atomic<bool> bad_refused{false};
    WorkerRunStats bad_stats;
    Helper bad([&] {
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "wrong-key";
        wc.heartbeatMs = 50;
        wc.key = wrongfile.key();
        try {
            bad_stats =
                runWorkerClient(wc, [](const auto &) {}, echoUnit);
        } catch (const DistError &err) {
            bad_refused.store(
                std::string(err.what()).find("key proof") !=
                std::string::npos);
        }
    }, &bad_done);

    // A hand-rolled peer that answers the challenge with a garbage
    // proof: the coordinator must refuse it before any lease.
    Helper forger([&] {
        Transport link(connectTcp("127.0.0.1", coordinator.port()),
                       "forger");
        HelloMsg hello;
        hello.name = "forger";
        hello.wantAuth = true;
        hello.nonce = randomNonce();
        link.send(encodeHello(hello));
        std::vector<std::uint8_t> msg;
        ASSERT_TRUE(link.receive(msg));
        ASSERT_EQ(peekType(msg), FabricMsg::Challenge);
        link.send(encodeAuthProof(AuthProofMsg{})); // all-zero proof
        // Whatever follows — a Reject or a straight hangup — the
        // session must end without a Lease ever arriving.
        try {
            while (link.receive(msg))
                ASSERT_NE(peekType(msg), FabricMsg::Lease);
        } catch (const FramingError &) {
        }
        link.close();
    }, &bad_done);

    Helper good([&] {
        bad_done.wait();
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "good";
        wc.heartbeatMs = 50;
        wc.key = keyfile.key();
        runWorkerClient(wc, [](const auto &) {}, echoUnit);
    });

    serveEchoUnits(coordinator);
    bad.join();
    forger.join();
    good.join();

    EXPECT_TRUE(bad_refused.load());
    EXPECT_EQ(bad_stats.unitsExecuted, 0u);
    EXPECT_GE(coordinator.stats().authFailures, 1u);
}

TEST(FabricAuth, KeyedWorkerRefusesKeylessCoordinator)
{
    FabricConfig cfg;
    cfg.batchSize = 1;
    Coordinator coordinator(cfg, {0x03}); // keyless

    const TempKeyFile keyfile("demanding");
    std::latch keyed_done(1);
    std::atomic<bool> refused{false};
    Helper keyed([&] {
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "demanding";
        wc.heartbeatMs = 50;
        wc.key = keyfile.key();
        try {
            runWorkerClient(wc, [](const auto &) {}, echoUnit);
        } catch (const DistError &err) {
            // An honest keyless coordinator refuses outright — the
            // mismatch is a deployment error either way.
            refused.store(std::string(err.what())
                              .find("requires key authentication") !=
                          std::string::npos);
        }
    }, &keyed_done);
    Helper good([&] {
        keyed_done.wait();
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "good";
        wc.heartbeatMs = 50;
        runWorkerClient(wc, [](const auto &) {}, echoUnit);
    });

    serveEchoUnits(coordinator);
    keyed.join();
    good.join();

    EXPECT_TRUE(refused.load());
    EXPECT_GE(coordinator.stats().authFailures, 1u);
}

TEST(FabricAuth, KeyedWorkerRefusesDowngradeToUnauthenticatedWelcome)
{
    // A rogue (or misbuilt) coordinator that skips the challenge and
    // sends a bare Welcome: the keyed worker must refuse to join
    // rather than silently downgrade to an unauthenticated session.
    TcpListener listener(0);
    Helper rogue([&] {
        Transport link(listener.acceptClient(), "rogue");
        std::vector<std::uint8_t> msg;
        ASSERT_TRUE(link.receive(msg)); // Hello (wantAuth set)
        EXPECT_TRUE(decodeHello(msg).wantAuth);
        WelcomeMsg welcome;
        welcome.spec = {0xde};
        link.send(encodeWelcome(welcome)); // downgrade attempt
        while (true) {
            try {
                if (!link.receive(msg))
                    break;
            } catch (const FramingError &) {
                break;
            }
        }
        link.close();
    });

    const TempKeyFile keyfile("downgrade");
    WorkerClientConfig wc;
    wc.port = listener.port();
    wc.name = "demanding";
    wc.heartbeatMs = 50;
    wc.key = keyfile.key();
    wc.maxReconnects = 0; // one shot: the downgrade must not loop
    wc.backoffBaseMs = 1;
    bool spec_seen = false;
    try {
        runWorkerClient(
            wc, [&](const auto &) { spec_seen = true; }, echoUnit);
        ADD_FAILURE() << "worker joined an unauthenticated session";
    } catch (const DistError &err) {
        EXPECT_NE(std::string(err.what()).find("unauthenticated"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_FALSE(spec_seen);
    rogue.join();
}

TEST(FabricAuth, PreAuthCeilingDropsOversizedFirstFrame)
{
    FabricConfig cfg;
    cfg.batchSize = 1;
    Coordinator coordinator(cfg, {0x04});

    std::latch flooder_done(1);
    Helper flooder([&] {
        // An unauthenticated peer's very first frame claims a payload
        // far beyond any legitimate Hello: the coordinator must drop
        // the connection instead of buffering it.
        Transport link(connectTcp("127.0.0.1", coordinator.port()),
                       "flooder");
        const std::vector<std::uint8_t> big(
            kPreAuthFramePayloadBytes * 2, 0x5a);
        std::vector<std::uint8_t> msg;
        bool dropped = false;
        try {
            link.send(big);
            dropped = !link.receive(msg);
        } catch (const FramingError &) {
            dropped = true; // RST mid-conversation is also a drop
        }
        EXPECT_TRUE(dropped);
        link.close();
    }, &flooder_done);
    Helper good([&] {
        flooder_done.wait();
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "good";
        wc.heartbeatMs = 50;
        runWorkerClient(wc, [](const auto &) {}, echoUnit);
    });

    serveEchoUnits(coordinator);
    flooder.join();
    good.join();
}

TEST(FabricAuth, SilentPeerDroppedAtHandshakeDeadline)
{
    FabricConfig cfg;
    cfg.batchSize = 1;
    cfg.handshakeTimeoutMs = 100;
    Coordinator coordinator(cfg, {0x05});

    std::latch lurker_done(1);
    Helper lurker([&] {
        // Connects and says nothing: must be evicted at the deadline,
        // not allowed to pin a poll-loop slot forever.
        Transport link(connectTcp("127.0.0.1", coordinator.port()),
                       "lurker");
        std::vector<std::uint8_t> msg;
        bool dropped = false;
        try {
            dropped = !link.receive(msg);
        } catch (const FramingError &) {
            dropped = true;
        }
        EXPECT_TRUE(dropped);
        link.close();
    }, &lurker_done);
    Helper good([&] {
        // Arrive after the lurker's eviction, so it is observed while
        // units are still pending.
        lurker_done.wait();
        WorkerClientConfig wc;
        wc.port = coordinator.port();
        wc.name = "good";
        wc.heartbeatMs = 50;
        runWorkerClient(wc, [](const auto &) {}, echoUnit);
    });

    serveEchoUnits(coordinator);
    lurker.join();
    good.join();

    EXPECT_GE(coordinator.stats().handshakeTimeouts, 1u);
}

// ---------------------------------------------------------------------
// Network fault injection: wire-level semantics + the chaos gate.
// ---------------------------------------------------------------------

TEST(NetFaults, DropCorruptAndDuplicateSemanticsOnTheWire)
{
    // drop: the frame vanishes; the peer sees only the clean EOF.
    {
        TcpListener listener(0);
        Helper peer([&] {
            Transport raw(connectTcp("127.0.0.1", listener.port()),
                          "drop-peer");
            NetFaultConfig nf;
            nf.send.drop = 1.0;
            nf.seed = 42;
            FaultyTransport link(std::move(raw), nf);
            link.send({1, 2, 3});
            EXPECT_EQ(link.stats().sendDrops, 1u);
            link.close();
        });
        Transport server(listener.acceptClient(), "drop-server");
        std::vector<std::uint8_t> got;
        EXPECT_FALSE(server.receive(got));
        peer.join();
    }
    // corrupt: the frame arrives bit-flipped and the checksum catches
    // it — corruption can break a connection, never forge a payload.
    {
        TcpListener listener(0);
        Helper peer([&] {
            Transport raw(connectTcp("127.0.0.1", listener.port()),
                          "corrupt-peer");
            NetFaultConfig nf;
            nf.send.corrupt = 1.0;
            nf.seed = 42;
            FaultyTransport link(std::move(raw), nf);
            link.send({1, 2, 3});
            link.close();
        });
        Transport server(listener.acceptClient(), "corrupt-server");
        std::vector<std::uint8_t> got;
        EXPECT_THROW(server.receive(got), FramingError);
        peer.join();
    }
    // duplicate (receive side): the same payload is delivered twice.
    {
        TcpListener listener(0);
        Helper peer([&] {
            Transport link(connectTcp("127.0.0.1", listener.port()),
                           "dup-peer");
            link.send({7, 8, 9});
            link.close();
        });
        Transport raw(listener.acceptClient(), "dup-server");
        NetFaultConfig nf;
        nf.recv.duplicate = 1.0;
        nf.seed = 42;
        FaultyTransport server(std::move(raw), nf);
        std::vector<std::uint8_t> a, b;
        ASSERT_TRUE(server.receive(a));
        ASSERT_TRUE(server.receive(b));
        EXPECT_EQ(a, (std::vector<std::uint8_t>{7, 8, 9}));
        EXPECT_EQ(a, b);
        EXPECT_EQ(server.stats().recvDuplicates, 1u);
        peer.join();
    }
}

TEST(NetFaults, CampaignSummaryBitIdenticalUnderInjectedFaults)
{
    const CampaignConfig base = smallCampaign();
    const auto baseline = runCampaign(fabricConfigs(), base);

    // The chaos gate: seeded drop/dup/corrupt on every fabric
    // connection may slow the campaign down, but the merged summary
    // must not move by a bit — faults can break connections, never
    // results.
    CampaignConfig dist = base;
    dist.mode = ExecutionMode::Distributed;
    dist.distWorkers = 2;
    dist.distNetFault.send.drop = 0.05;
    dist.distNetFault.recv.drop = 0.05;
    dist.distNetFault.send.duplicate = 0.05;
    dist.distNetFault.recv.duplicate = 0.05;
    dist.distNetFault.send.corrupt = 0.03;
    dist.distNetFault.recv.corrupt = 0.03;
    dist.distNetFault.seed = 11;
    expectCampaignsIdentical(baseline,
                             runCampaign(fabricConfigs(), dist));
}

// ---------------------------------------------------------------------
// Byzantine-worker quarantine.
// ---------------------------------------------------------------------

TEST(Byzantine, UnitRecordDigestIgnoresTimingButNotSubstance)
{
    UnitRecord rec;
    rec.configName = "x86-2-50-32";
    rec.testIndex = 3;
    rec.genSeed = 0x1111;
    rec.flowSeed = 0x2222;
    rec.outcome.result.uniqueSignatures = 17;
    rec.outcome.result.collectiveMs = 12.5;

    const std::uint64_t digest =
        unitRecordDigest(encodeUnitRecord(rec));

    // Two honest executions differ only in wall-clock: same digest.
    UnitRecord slower = rec;
    slower.outcome.result.collectiveMs = 99.0;
    slower.outcome.result.decodeMs = 3.25;
    EXPECT_EQ(unitRecordDigest(encodeUnitRecord(slower)), digest);

    // A plausible lie differs in substance: different digest.
    UnitRecord lie = rec;
    lie.outcome.result.uniqueSignatures += 1;
    EXPECT_NE(unitRecordDigest(encodeUnitRecord(lie)), digest);

    // Undecodable bytes still digest (under a distinct seed) instead
    // of throwing — a garbage result must be comparable, not fatal.
    const std::vector<std::uint8_t> garbage = {9, 9, 9};
    EXPECT_NE(unitRecordDigest(garbage), digest);
}

TEST(Byzantine, HonestFleetPassesAuditsWithoutQuarantine)
{
    const CampaignConfig base = smallCampaign();
    const auto baseline = runCampaign(fabricConfigs(), base);

    FabricStats fs;
    CampaignConfig dist = base;
    dist.mode = ExecutionMode::Distributed;
    dist.distWorkers = 2;
    dist.distAuditRate = 1.0;
    dist.distStatsOut = &fs;
    expectCampaignsIdentical(baseline,
                             runCampaign(fabricConfigs(), dist));

    EXPECT_GE(fs.byzantine.auditsScheduled, 1u);
    EXPECT_EQ(fs.byzantine.auditMismatches, 0u);
    EXPECT_TRUE(fs.byzantine.quarantined.empty());
}

TEST(Byzantine, CorruptWorkerQuarantinedAndSummaryBitIdentical)
{
    const CampaignConfig base = smallCampaign();
    const auto baseline = runCampaign(fabricConfigs(), base);

    // The last loopback worker silently corrupts every result —
    // decodable, plausible, checksum-clean. The audit must catch the
    // deviation, quarantine the worker, invalidate whatever it
    // touched, and re-run those units elsewhere — landing on a
    // summary bit-identical to the honest serial run.
    FabricStats fs;
    CampaignConfig dist = base;
    dist.mode = ExecutionMode::Distributed;
    dist.distWorkers = 2;
    dist.distAuditRate = 1.0;
    dist.distDrillCorrupt = true;
    dist.distStatsOut = &fs;
    expectCampaignsIdentical(baseline,
                             runCampaign(fabricConfigs(), dist));

    EXPECT_GE(fs.byzantine.auditMismatches, 1u);
    ASSERT_EQ(fs.byzantine.quarantined.size(), 1u);
    EXPECT_EQ(fs.byzantine.quarantined[0], "loop-1");
}

// ---------------------------------------------------------------------
// Strict env parsing for the fabric knobs.
// ---------------------------------------------------------------------

TEST(FabricEnv, ParseEnvRateAcceptsTheUnitIntervalOnly)
{
    EXPECT_EQ(parseEnvRate("X", "0"), 0.0);
    EXPECT_EQ(parseEnvRate("X", "1"), 1.0);
    EXPECT_EQ(parseEnvRate("X", "0.25"), 0.25);

    for (const char *bad :
         {"", "lots", "0.5x", "-0.1", "1.0001", "2", "nan", "-"}) {
        EXPECT_THROW((void)parseEnvRate("MTC_AUDIT_RATE", bad),
                     ConfigError)
            << "accepted \"" << bad << "\"";
    }
    // The error must name the variable so an operator can find the
    // typo in a 50-line systemd unit.
    try {
        (void)parseEnvRate("MTC_NET_FAULT_DROP", "oops");
        ADD_FAILURE() << "garbage accepted";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find("MTC_NET_FAULT_DROP"),
                  std::string::npos);
    }
}

TEST(FabricEnv, NetFaultEnvOverridesBothDirections)
{
    setenv("MTC_NET_FAULT_DROP", "0.25", 1);
    setenv("MTC_NET_FAULT_CORRUPT", "0.125", 1);
    setenv("MTC_NET_FAULT_DELAY_MS", "5", 1);
    setenv("MTC_NET_FAULT_SEED", "9", 1);
    const NetFaultConfig nf = netFaultFromEnv();
    EXPECT_EQ(nf.send.drop, 0.25);
    EXPECT_EQ(nf.recv.drop, 0.25);
    EXPECT_EQ(nf.send.corrupt, 0.125);
    EXPECT_EQ(nf.recv.corrupt, 0.125);
    EXPECT_EQ(nf.delayMs, 5u);
    EXPECT_EQ(nf.seed, 9u);
    EXPECT_TRUE(nf.any());

    setenv("MTC_NET_FAULT_DROP", "1.5", 1);
    EXPECT_THROW((void)netFaultFromEnv(), ConfigError);
    setenv("MTC_NET_FAULT_DROP", "some", 1);
    EXPECT_THROW((void)netFaultFromEnv(), ConfigError);

    unsetenv("MTC_NET_FAULT_DROP");
    unsetenv("MTC_NET_FAULT_CORRUPT");
    unsetenv("MTC_NET_FAULT_DELAY_MS");
    unsetenv("MTC_NET_FAULT_SEED");
    EXPECT_FALSE(netFaultFromEnv().any());
}

TEST(FabricEnv, AuditRateAndKeyFileOverrides)
{
    setenv("MTC_AUDIT_RATE", "0.5", 1);
    setenv("MTC_FABRIC_KEY_FILE", "/some/key/path", 1);
    const CampaignConfig cfg = CampaignConfig::fromEnv();
    EXPECT_EQ(cfg.distAuditRate, 0.5);
    EXPECT_EQ(cfg.distKeyFile, "/some/key/path");

    setenv("MTC_AUDIT_RATE", "plenty", 1);
    EXPECT_THROW((void)CampaignConfig::fromEnv(), ConfigError);
    setenv("MTC_AUDIT_RATE", "1.5", 1);
    EXPECT_THROW((void)CampaignConfig::fromEnv(), ConfigError);
    unsetenv("MTC_AUDIT_RATE");

    // An empty path is a misconfiguration, not "no key".
    setenv("MTC_FABRIC_KEY_FILE", "", 1);
    EXPECT_THROW((void)CampaignConfig::fromEnv(), ConfigError);
    unsetenv("MTC_FABRIC_KEY_FILE");

    EXPECT_EQ(CampaignConfig::fromEnv().distAuditRate, 0.0);
    EXPECT_TRUE(CampaignConfig::fromEnv().distKeyFile.empty());
}

TEST(FabricEnv, EnvironmentReachesADistributedCampaign)
{
    // What mtc_coordinator does: start from fromEnv, then run. The
    // trace dump, the audit rate and the fabric key all come from the
    // environment alone.
    const CampaignConfig base = smallCampaign();
    const auto baseline = runCampaign(fabricConfigs(), base);

    TempFile trace("env_trace");
    const TempKeyFile keyfile("env_key");
    setenv("MTC_DUMP_TRACE", trace.path().c_str(), 1);
    setenv("MTC_AUDIT_RATE", "1.0", 1);
    setenv("MTC_FABRIC_KEY_FILE", keyfile.path().c_str(), 1);
    CampaignConfig dist = CampaignConfig::fromEnv(base);
    unsetenv("MTC_DUMP_TRACE");
    unsetenv("MTC_AUDIT_RATE");
    unsetenv("MTC_FABRIC_KEY_FILE");

    FabricStats stats;
    dist.mode = ExecutionMode::Distributed;
    dist.distWorkers = 2;
    dist.distStatsOut = &stats;
    expectCampaignsIdentical(baseline, runCampaign(fabricConfigs(), dist));
    EXPECT_GE(stats.byzantine.auditsScheduled, 1u);
    EXPECT_EQ(stats.authFailures, 0u);

    // The key file really is the one the fabric loads.
    CampaignConfig missing_key = dist;
    missing_key.distKeyFile = keyfile.path() + ".missing";
    EXPECT_THROW(runCampaign(fabricConfigs(), missing_key), Error);

    TraceCheckOptions check;
    check.tracePath = trace.path();
    const TraceCheckReport report = checkTrace(check);
    EXPECT_FALSE(report.anyFault());
    expectCampaignsIdentical(baseline, report.summaries);
}

TEST(FabricEnv, LoadFabricKeyRejectsShortKeys)
{
    TempFile shortkey("short_key");
    {
        std::ofstream out(shortkey.path(), std::ios::binary);
        out << "tooshort\n";
    }
    EXPECT_THROW((void)loadFabricKey(shortkey.path()), ConfigError);
    EXPECT_THROW((void)loadFabricKey("/nonexistent/key/file"),
                 ConfigError);

    const TempKeyFile good("load_ok");
    EXPECT_EQ(good.key().size(), 32u);
}

} // anonymous namespace
} // namespace mtc
