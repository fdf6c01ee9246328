#include "harness/dist_campaign.h"

#include <algorithm>
#include <string>
#include <utility>

#include "dist/protocol.h"
#include "dist/worker_client.h"
#include "harness/campaign_journal.h"
#include "harness/watchdog.h"
#include "support/journal.h"

namespace mtc
{

namespace
{

/** Spec framing: magic + version, so a worker fed garbage (or a spec
 * from an incompatible build) fails loudly instead of deriving a
 * silently different campaign. */
constexpr std::uint32_t kSpecMagic = 0x4D544353; // "MTCS"
// v3: the platform knobs (variant, model override, bug, bug
// probability, cache lines) and the profile flag join the spec, so a
// worker builds the very flow the coordinator planned on any
// platform. keepSignatures tells remote workers to carry each unit's
// sorted unique signature stream home for trace dumps; errorBudget
// rides along so an offline checker fed this spec reproduces the
// breaker's tripped/degraded verdicts (the budget is operational for
// identity purposes but result-shaping for summaries).
constexpr std::uint32_t kSpecVersion = 3;

/** Read a u8 enum, refusing values outside [0, @p last]. */
template <typename Enum>
Enum
readEnum(ByteReader &r, Enum last, const char *what)
{
    const std::uint8_t v = r.u8();
    if (v > static_cast<std::uint8_t>(last))
        throw DistError(std::string("campaign spec: bad ") + what +
                        " " + std::to_string(v));
    return static_cast<Enum>(v);
}

} // anonymous namespace

std::vector<std::uint8_t>
encodeCampaignSpec(const CampaignSpec &spec)
{
    const CampaignConfig &c = spec.campaign;
    ByteWriter w;
    w.u32(kSpecMagic);
    w.u32(kSpecVersion);
    w.u64(c.iterations);
    w.u32(c.testsPerConfig);
    w.u64(c.seed);
    w.u8(static_cast<std::uint8_t>(c.variant));
    w.u8(c.model ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(c.model.value_or(MemoryModel{})));
    w.u8(static_cast<std::uint8_t>(c.bug));
    w.f64(c.bugProbability);
    w.u32(c.cacheLines);
    w.u8(c.runConventional ? 1 : 0);
    w.f64(c.fault.bitFlipRate);
    w.f64(c.fault.tornStoreRate);
    w.f64(c.fault.truncationRate);
    w.f64(c.fault.dropRate);
    w.f64(c.fault.duplicateRate);
    w.u64(c.fault.seed);
    w.u32(c.recovery.confirmationRuns);
    w.u64(c.recovery.confirmationIterations);
    w.u32(c.recovery.crashRetries);
    w.u32(c.testRetries);
    w.u64(0); // retired shard-size slot (see decodeCampaignSpec)
    w.u64(c.stallAfterSteps);
    w.u8(c.stallUncooperative ? 1 : 0);
    w.u64(c.testTimeoutMs);
    w.u32(static_cast<std::uint32_t>(spec.configs.size()));
    for (const TestConfig &cfg : spec.configs) {
        w.u8(static_cast<std::uint8_t>(cfg.isa));
        w.u32(cfg.numThreads);
        w.u32(cfg.opsPerThread);
        w.u32(cfg.numLocations);
        w.f64(cfg.loadFraction);
        w.u32(cfg.wordsPerLine);
        w.u32(cfg.bytesPerWord);
        w.u32(cfg.lineBytes);
        w.u32(cfg.fencePercent);
    }
    // The dump path itself never ships — it is coordinator-local —
    // only the fact that streams must be kept.
    w.u8(c.keepSignatureStreams || !c.dumpTracePath.empty() ? 1 : 0);
    w.u32(c.errorBudget);
    w.u8(c.profile ? 1 : 0);
    return w.bytes();
}

CampaignSpec
decodeCampaignSpec(const std::vector<std::uint8_t> &bytes)
{
    try {
        ByteReader r(bytes);
        if (r.u32() != kSpecMagic)
            throw DistError("campaign spec: bad magic");
        if (const std::uint32_t version = r.u32();
            version != kSpecVersion) {
            throw DistError("campaign spec: version " +
                            std::to_string(version) + ", expected " +
                            std::to_string(kSpecVersion));
        }
        CampaignSpec spec;
        CampaignConfig &c = spec.campaign;
        c.iterations = r.u64();
        c.testsPerConfig = r.u32();
        c.seed = r.u64();
        c.variant = readEnum(r, PlatformVariant::Mesi, "platform");
        const bool has_model = r.u8() != 0;
        const MemoryModel model = readEnum(r, MemoryModel::RMO, "model");
        if (has_model)
            c.model = model;
        c.bug = readEnum(r, BugKind::PutxGetxRace, "bug kind");
        c.bugProbability = r.f64();
        c.cacheLines = r.u32();
        c.runConventional = r.u8() != 0;
        c.fault.bitFlipRate = r.f64();
        c.fault.tornStoreRate = r.f64();
        c.fault.truncationRate = r.f64();
        c.fault.dropRate = r.f64();
        c.fault.duplicateRate = r.f64();
        c.fault.seed = r.u64();
        c.recovery.confirmationRuns = r.u32();
        c.recovery.confirmationIterations = r.u64();
        c.recovery.crashRetries = r.u32();
        c.testRetries = r.u32();
        // The retired shard-size slot. A v3 spec from a sharded
        // campaign asked for checker stats this build cannot produce,
        // so it is refused rather than silently run unsharded.
        if (const std::uint64_t shard = r.u64(); shard != 0) {
            throw DistError("campaign spec: retired shard-size slot "
                            "holds " + std::to_string(shard) +
                            "; collective-checker sharding was "
                            "removed, only 0 is accepted");
        }
        c.stallAfterSteps = r.u64();
        c.stallUncooperative = r.u8() != 0;
        c.testTimeoutMs = r.u64();
        const std::uint32_t count = r.u32();
        // A TestConfig encodes to 37 bytes; a count the payload
        // cannot hold must fail as truncation in the loop below, not
        // as a giant up-front allocation.
        spec.configs.reserve(std::min<std::size_t>(
            count, r.remaining() / 37));
        for (std::uint32_t i = 0; i < count; ++i) {
            TestConfig cfg;
            cfg.isa = static_cast<Isa>(r.u8());
            cfg.numThreads = r.u32();
            cfg.opsPerThread = r.u32();
            cfg.numLocations = r.u32();
            cfg.loadFraction = r.f64();
            cfg.wordsPerLine = r.u32();
            cfg.bytesPerWord = r.u32();
            cfg.lineBytes = r.u32();
            cfg.fencePercent = r.u32();
            spec.configs.push_back(cfg);
        }
        c.keepSignatureStreams = r.u8() != 0;
        c.errorBudget = r.u32();
        c.profile = r.u8() != 0;
        return spec;
    } catch (const JournalError &err) {
        throw DistError(std::string("campaign spec truncated: ") +
                        err.what());
    }
}

std::vector<std::uint8_t>
encodeUnitRequest(std::size_t config_index, std::size_t test_index)
{
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(config_index));
    w.u32(static_cast<std::uint32_t>(test_index));
    return w.bytes();
}

std::pair<std::size_t, std::size_t>
decodeUnitRequest(const std::vector<std::uint8_t> &request)
{
    try {
        ByteReader r(request);
        const std::size_t c = r.u32();
        const std::size_t t = r.u32();
        return {c, t};
    } catch (const JournalError &err) {
        throw DistError(std::string("malformed unit request: ") +
                        err.what());
    }
}

CampaignUnitRunner::CampaignUnitRunner(CampaignSpec spec_arg)
    : spec(std::move(spec_arg))
{
    flows.reserve(spec.configs.size());
    plans.reserve(spec.configs.size());
    for (const TestConfig &cfg : spec.configs) {
        FlowConfig flow = flowTemplate(cfg, spec.campaign);
        // Hard-failure drills are sandbox-scoped; see the file
        // comment of dist_campaign.h.
        flow.exec.dieAfterRuns = 0;
        flow.exec.leakAfterRuns = 0;
        flows.push_back(std::move(flow));
        plans.push_back(deriveTestPlans(cfg, spec.campaign));
    }
    if (spec.campaign.testTimeoutMs)
        watchdog = std::make_unique<Watchdog>();
}

CampaignUnitRunner::~CampaignUnitRunner() = default;

std::vector<std::uint8_t>
CampaignUnitRunner::run(const std::vector<std::uint8_t> &request)
{
    const auto [c, t] = decodeUnitRequest(request);
    if (c >= spec.configs.size() || t >= plans[c].size())
        throw DistError("unit request (" + std::to_string(c) + ", " +
                        std::to_string(t) +
                        ") is outside the campaign spec");
    UnitRecord record;
    record.configName = spec.configs[c].name();
    record.testIndex = static_cast<std::uint32_t>(t);
    record.genSeed = plans[c][t].genSeed;
    record.flowSeed = plans[c][t].flowSeed;
    record.outcome = runPlannedTest(spec.configs[c], flows[c],
                                    plans[c][t], spec.campaign,
                                    static_cast<unsigned>(t),
                                    watchdog.get());
    record.outcome.result.executions.clear();
    return encodeUnitRecord(record);
}

std::uint64_t
unitRecordDigest(const std::vector<std::uint8_t> &payload)
{
    try {
        UnitRecord rec = decodeUnitRecord(payload);
        // Zero every wall-clock field, then digest the canonical
        // re-encoding: two honest executions of the same unit differ
        // only in timing, a dishonest one differs in substance.
        rec.outcome.result.collectiveMs = 0.0;
        rec.outcome.result.conventionalMs = 0.0;
        rec.outcome.result.decodeMs = 0.0;
        rec.outcome.result.profile =
            decltype(rec.outcome.result.profile){};
        const std::vector<std::uint8_t> canon = encodeUnitRecord(rec);
        return fnv1a64(canon.data(), canon.size());
    } catch (const JournalError &) {
        // Not a decodable record: digest the raw bytes under a
        // different seed so garbage never collides with a well-formed
        // record's digest.
        return fnv1a64(payload.data(), payload.size(),
                       0x84222325cbf29ce4ull);
    }
}

void
runLoopbackWorker(std::uint16_t port, unsigned index,
                  const LoopbackWorkerOptions &opts)
{
    WorkerClientConfig cfg;
    cfg.port = port;
    cfg.name = "loop-" + std::to_string(index);
    cfg.heartbeatMs = 500;
    // Short leash: after Done (or a dead coordinator) the fleet should
    // drain in well under a second, not serve a full operator-scale
    // backoff schedule. Under injected network faults every session is
    // expected to die repeatedly — give the chaos drill enough
    // consecutive failures to ride out an unlucky handshake streak.
    cfg.maxReconnects = opts.netFault.any() ? 25 : 3;
    cfg.backoffBaseMs = 50;
    cfg.backoffCapMs = 400;
    cfg.exitAfterUnits = opts.exitAfterUnits;
    cfg.key = opts.key;
    cfg.netFault = opts.netFault;
    const bool corrupt = opts.corruptResults;
    std::unique_ptr<CampaignUnitRunner> runner;
    runWorkerClient(
        cfg,
        [&runner](const std::vector<std::uint8_t> &spec_bytes) {
            runner = std::make_unique<CampaignUnitRunner>(
                decodeCampaignSpec(spec_bytes));
        },
        [&runner, corrupt](std::uint64_t,
                           const std::vector<std::uint8_t> &request) {
            std::vector<std::uint8_t> response = runner->run(request);
            if (corrupt) {
                // Byzantine drill: a plausible lie. The record still
                // decodes and all framing checksums pass — only a
                // cross-worker audit can tell it from the truth.
                UnitRecord rec = decodeUnitRecord(response);
                rec.outcome.result.uniqueSignatures += 1;
                rec.outcome.result.signatureSetDigest ^=
                    0x5851f42d4c957f2dull;
                response = encodeUnitRecord(rec);
            }
            return response;
        });
}

} // namespace mtc
