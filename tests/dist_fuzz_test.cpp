/**
 * @file
 * Seeded mutation fuzz over the fabric's wire surface.
 *
 * Every byte a coordinator or worker reads off a socket passes
 * through exactly two layers: the frame codec (parseFrame) and the
 * protocol codecs (decode* / decodeCampaignSpec / decodeUnitRecord /
 * decodeUnitRequest). An adversarial or fault-mangled peer can hand
 * those layers anything, so the contract under fuzz is strict:
 *
 *  - parseFrame classifies every input as Complete, Incomplete, or
 *    Corrupt — it never throws and never reads past its buffer;
 *  - a decoder either succeeds or throws its documented error type
 *    (DistError for protocol payloads, JournalError for unit
 *    records) — never a std::length_error from a forged length
 *    prefix, never a crash.
 *
 * The sweep is seeded and deterministic: a failure reproduces from
 * the test log's seed alone.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace_format.h"
#include "dist/protocol.h"
#include "harness/campaign_journal.h"
#include "harness/dist_campaign.h"
#include "support/framing.h"
#include "support/journal.h"
#include "support/rng.h"
#include "testgen/test_config.h"

namespace mtc
{
namespace
{

/** One seeded mutation: flip, overwrite, truncate, extend, zero a
 * region, or forge a little-endian u32 (a length prefix, if the
 * offset happens to land on one). */
std::vector<std::uint8_t>
mutate(Rng &rng, std::vector<std::uint8_t> bytes)
{
    const std::uint64_t kind = rng.nextBelow(6);
    if (bytes.empty() && kind != 3)
        return bytes;
    switch (kind) {
    case 0: { // single bit flip
        const std::size_t at = rng.nextBelow(bytes.size());
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.nextBelow(8));
        break;
    }
    case 1: { // overwrite one byte
        bytes[rng.nextBelow(bytes.size())] =
            static_cast<std::uint8_t>(rng.nextBelow(256));
        break;
    }
    case 2: { // truncate
        bytes.resize(rng.nextBelow(bytes.size()));
        break;
    }
    case 3: { // extend with noise
        const std::size_t extra = 1 + rng.nextBelow(32);
        for (std::size_t i = 0; i < extra; ++i)
            bytes.push_back(
                static_cast<std::uint8_t>(rng.nextBelow(256)));
        break;
    }
    case 4: { // zero a region
        std::size_t at = rng.nextBelow(bytes.size());
        std::size_t len = 1 + rng.nextBelow(8);
        for (; len > 0 && at < bytes.size(); --len, ++at)
            bytes[at] = 0;
        break;
    }
    default: { // forge a u32 (worst case: a length field)
        if (bytes.size() >= 4) {
            const std::size_t at = rng.nextBelow(bytes.size() - 3);
            const std::uint32_t forged =
                rng.nextBool(0.5)
                    ? 0xffffffffu
                    : static_cast<std::uint32_t>(rng.nextBelow(1u << 30));
            bytes[at] = static_cast<std::uint8_t>(forged);
            bytes[at + 1] = static_cast<std::uint8_t>(forged >> 8);
            bytes[at + 2] = static_cast<std::uint8_t>(forged >> 16);
            bytes[at + 3] = static_cast<std::uint8_t>(forged >> 24);
        }
        break;
    }
    }
    return bytes;
}

/** A representative corpus of every message the protocol can emit. */
std::vector<std::vector<std::uint8_t>>
protocolCorpus()
{
    std::vector<std::vector<std::uint8_t>> corpus;

    HelloMsg hello;
    hello.name = "fuzz-worker";
    corpus.push_back(encodeHello(hello));
    hello.wantAuth = true;
    hello.nonce.fill(0xa5);
    corpus.push_back(encodeHello(hello));

    WelcomeMsg welcome;
    welcome.spec.assign(64, 0x42);
    corpus.push_back(encodeWelcome(welcome));

    RejectMsg reject;
    reject.reason = "fuzz says no";
    corpus.push_back(encodeReject(reject));

    LeaseMsg lease;
    lease.leaseId = 0x1122334455667788ull;
    for (std::uint64_t u = 0; u < 3; ++u) {
        LeaseUnit unit;
        unit.unitIndex = u;
        unit.request = {static_cast<std::uint8_t>(u), 0x10, 0x20};
        lease.units.push_back(unit);
    }
    corpus.push_back(encodeLease(lease));

    ResultMsg result;
    result.leaseId = 0x99;
    result.unitIndex = 7;
    result.response.assign(48, 0x17);
    corpus.push_back(encodeResult(result));

    corpus.push_back(encodeHeartbeat());
    corpus.push_back(encodeDone());

    ChallengeMsg challenge;
    challenge.nonce.fill(0x3c);
    challenge.proof.fill(0xc3);
    corpus.push_back(encodeChallenge(challenge));

    AuthProofMsg proof;
    proof.proof.fill(0x7e);
    corpus.push_back(encodeAuthProof(proof));

    return corpus;
}

constexpr unsigned kRounds = 4000;

TEST(DistFuzz, ParseFrameClassifiesEveryMutation)
{
    Rng rng(0xf0a2);
    const std::vector<std::vector<std::uint8_t>> payloads = {
        {},
        {0x01},
        std::vector<std::uint8_t>(64, 0xaa),
        std::vector<std::uint8_t>(4096, 0x55),
    };
    for (unsigned round = 0; round < kRounds; ++round) {
        std::vector<std::uint8_t> stream;
        const auto &payload = payloads[rng.nextBelow(payloads.size())];
        appendFrame(stream, payload.data(), payload.size());
        stream = mutate(rng, std::move(stream));

        const FrameView view =
            parseFrame(stream.data(), stream.size(), 8192);
        switch (view.status) {
        case FrameStatus::Complete:
            // A surviving frame must stay inside the buffer and
            // carry the checksum-verified payload length.
            ASSERT_LE(view.length, 8192u);
            ASSERT_LE(view.frameBytes, stream.size());
            break;
        case FrameStatus::Incomplete:
        case FrameStatus::Corrupt:
            break; // classified; nothing more to hold
        default:
            FAIL() << "unclassified frame status in round " << round;
        }
    }
}

TEST(DistFuzz, ProtocolDecodersThrowOnlyDistError)
{
    Rng rng(0xbeef);
    const auto corpus = protocolCorpus();
    std::uint64_t decoded = 0, rejected = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        const auto mutated =
            mutate(rng, corpus[rng.nextBelow(corpus.size())]);
        // Decode under every decoder, not just the matching one:
        // peekType dispatch can be confused by a flipped tag byte, so
        // each decoder must also classify foreign message types.
        try {
            (void)peekType(mutated);
            ++decoded;
        } catch (const DistError &) {
            ++rejected;
        }
        try {
            switch (rng.nextBelow(7)) {
            case 0:
                (void)decodeHello(mutated);
                break;
            case 1:
                (void)decodeWelcome(mutated);
                break;
            case 2:
                (void)decodeReject(mutated);
                break;
            case 3:
                (void)decodeLease(mutated);
                break;
            case 4:
                (void)decodeResult(mutated);
                break;
            case 5:
                (void)decodeChallenge(mutated);
                break;
            default:
                (void)decodeAuthProof(mutated);
                break;
            }
            ++decoded;
        } catch (const DistError &) {
            ++rejected; // the one sanctioned failure mode
        }
    }
    // The sweep must exercise both sides of the contract: mutations
    // that decode (benign flips) and mutations that are refused.
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(DistFuzz, CampaignSpecDecoderThrowsOnlyDistError)
{
    CampaignSpec spec;
    spec.configs = {parseConfigName("x86-2-50-32"),
                    parseConfigName("ARM-4-100-64")};
    spec.campaign.iterations = 128;
    spec.campaign.testsPerConfig = 3;
    spec.campaign.seed = 7;
    spec.campaign.variant = PlatformVariant::Mesi;
    spec.campaign.model = MemoryModel::RMO;
    spec.campaign.bug = BugKind::StaleLoadOnUpgrade;
    spec.campaign.bugProbability = 0.5;
    spec.campaign.cacheLines = 3;
    spec.campaign.profile = true;
    const std::vector<std::uint8_t> good = encodeCampaignSpec(spec);
    const CampaignSpec back = decodeCampaignSpec(good);
    EXPECT_EQ(back.campaign.variant, PlatformVariant::Mesi);
    EXPECT_EQ(back.campaign.model, MemoryModel::RMO);
    EXPECT_EQ(back.campaign.bug, BugKind::StaleLoadOnUpgrade);
    EXPECT_EQ(back.campaign.bugProbability, 0.5);
    EXPECT_EQ(back.campaign.cacheLines, 3u);
    EXPECT_TRUE(back.campaign.profile);

    Rng rng(0x5bec);
    std::uint64_t rejected = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        try {
            (void)decodeCampaignSpec(mutate(rng, good));
        } catch (const DistError &) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0u);
}

TEST(DistFuzz, UnitCodecsThrowOnlyClassifiedErrors)
{
    UnitRecord record;
    record.configName = "x86-2-50-32";
    record.testIndex = 5;
    record.genSeed = 0xdead;
    record.flowSeed = 0xbeef;
    record.outcome.result.uniqueSignatures = 3;
    const std::vector<std::uint8_t> rec_bytes =
        encodeUnitRecord(record);
    const std::vector<std::uint8_t> req_bytes =
        encodeUnitRequest(1, 2);

    Rng rng(0x0eca);
    for (unsigned round = 0; round < kRounds; ++round) {
        try {
            (void)decodeUnitRecord(mutate(rng, rec_bytes));
        } catch (const JournalError &) {
            // the documented rejection for torn unit records
        }
        try {
            (void)decodeUnitRequest(mutate(rng, req_bytes));
        } catch (const DistError &) {
        }
        // The audit digest must never throw at all: garbage digests
        // under a distinct seed (see unitRecordDigest).
        (void)unitRecordDigest(mutate(rng, rec_bytes));
    }
}

TEST(DistFuzz, TraceCodecsThrowOnlyTraceError)
{
    // The trace interchange surface (offline checking) reads the same
    // kind of outside-the-process bytes the fabric does, so it gets
    // the same sweep: header bodies, signature-stream (unit) bodies,
    // and checkpoint bodies, each decoded under every trace decoder.
    TraceHeader header;
    header.identityDigest = 0xfeedfacecafebeefull;
    header.description = "seed=7 iterations=64 tests=2";
    header.spec.assign(48, 0x42);
    const std::vector<std::uint8_t> header_payload =
        encodeTraceHeader(header);
    const std::vector<std::uint8_t> header_body(
        header_payload.begin() + 1, header_payload.end());

    UnitRecord unit;
    unit.configName = "x86-2-50-32";
    unit.testIndex = 1;
    unit.genSeed = 0xdead;
    unit.flowSeed = 0xbeef;
    unit.outcome.result.uniqueSignatures = 2;
    unit.outcome.result.signatureStream.resize(2);
    unit.outcome.result.signatureStream[0].signature.words = {1, 2};
    unit.outcome.result.signatureStream[0].iterations = 3;
    unit.outcome.result.signatureStream[1].signature.words = {4, 5};
    unit.outcome.result.signatureStream[1].iterations = 7;
    const std::vector<std::uint8_t> unit_body = encodeUnitRecord(unit);

    TraceCheckpointRecord ckpt;
    ckpt.configName = "x86-2-50-32";
    ckpt.testIndex = 1;
    ckpt.payloadDigest = 0x77;
    ckpt.quarantined = 1;
    ckpt.note = "fingerprint-mismatch: drill";
    const std::vector<std::uint8_t> ckpt_body =
        encodeTraceCheckpoint(ckpt);

    const std::vector<std::vector<std::uint8_t>> corpus = {
        header_body, unit_body, ckpt_body};

    Rng rng(0x7f02);
    std::uint64_t decoded = 0, rejected = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        const auto mutated =
            mutate(rng, corpus[rng.nextBelow(corpus.size())]);
        // Every decoder sees every corpus entry: a flipped kind byte
        // routes records to the wrong decoder in real ingestion, so
        // foreign bodies must classify too.
        try {
            switch (rng.nextBelow(3)) {
            case 0:
                (void)decodeTraceHeader(mutated);
                break;
            case 1:
                (void)decodeTraceCheckpoint(mutated);
                break;
            default:
                (void)decodeUnitRecord(mutated);
                break;
            }
            ++decoded;
        } catch (const TraceError &) {
            ++rejected; // trace decoders' documented rejection
        } catch (const JournalError &) {
            ++rejected; // unit records keep their journal class
        }
    }
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(DistFuzz, SweepIsDeterministicForAGivenSeed)
{
    const auto corpus = protocolCorpus();
    const auto run_sweep = [&corpus](std::uint64_t seed) {
        Rng rng(seed);
        std::uint64_t outcome_digest = 0xcbf29ce484222325ull;
        for (unsigned round = 0; round < 500; ++round) {
            const auto mutated =
                mutate(rng, corpus[rng.nextBelow(corpus.size())]);
            std::uint8_t outcome;
            try {
                (void)decodeHello(mutated);
                outcome = 1;
            } catch (const DistError &) {
                outcome = 2;
            }
            outcome_digest =
                (outcome_digest ^ outcome) * 0x100000001b3ull;
            outcome_digest ^= fnv1a64(mutated.data(), mutated.size());
        }
        return outcome_digest;
    };
    EXPECT_EQ(run_sweep(123), run_sweep(123));
    EXPECT_NE(run_sweep(123), run_sweep(321));
}

} // anonymous namespace
} // namespace mtc
