#include "replay.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <optional>

#include <sys/socket.h>
#include <unistd.h>

#include "core/codesize.h"
#include "core/collective_checker.h"
#include "core/instr_plan.h"
#include "core/load_analysis.h"
#include "core/perturbation.h"
#include "core/signature_accumulator.h"
#include "core/signature_codec.h"
#include "graph/graph_builder.h"
#include "graph/ws_inference.h"
#include "harness/validation_flow.h"
#include "sim/executor.h"
#include "support/error.h"
#include "support/framing.h"
#include "support/hmac.h"
#include "support/rng.h"
#include "testgen/generator.h"

namespace perfbench
{

using namespace mtc;

UnitPlan
UnitPlan::build(std::vector<TestConfig> configs_arg,
                const CampaignConfig &campaign_arg)
{
    UnitPlan plan;
    plan.configs = std::move(configs_arg);
    plan.campaign = campaign_arg;
    for (std::size_t c = 0; c < plan.configs.size(); ++c) {
        plan.flows.push_back(flowTemplate(plan.configs[c], plan.campaign));
        plan.tests.push_back(deriveTestPlans(plan.configs[c], plan.campaign));
        for (std::size_t t = 0; t < plan.tests[c].size(); ++t)
            plan.units.emplace_back(c, t);
    }
    return plan;
}

std::vector<std::vector<TestOutcome>>
UnitPlan::emptyOutcomes() const
{
    std::vector<std::vector<TestOutcome>> out(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        out[c].resize(tests[c].size());
    return out;
}

namespace
{

/** Chained FNV over the sorted (words, count) pairs — the
 * signatureSetDigest fold of ValidationFlow::runTest. */
std::uint64_t
streamDigest(const std::vector<SignatureCount> &stream)
{
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const SignatureCount &entry : stream) {
        digest = fnv1a64(entry.signature.words.data(),
                         entry.signature.words.size() *
                             sizeof(std::uint64_t),
                         digest);
        digest = fnv1a64(&entry.iterations, sizeof(entry.iterations),
                         digest);
    }
    return digest;
}

/** The static half of a unit: program, instrumentation, and codec. */
struct Instrumented
{
    TestProgram program;
    LoadValueAnalysis analysis;
    InstrumentationPlan plan;
    SignatureCodec codec;

    Instrumented(TestProgram program_arg, const AnalysisOptions &options)
        : program(std::move(program_arg)), analysis(program, options),
          plan(program, analysis), codec(program, analysis, plan)
    {}
};

std::unique_ptr<Instrumented>
instrument(const TestConfig &cfg, std::uint64_t gen_seed,
           const FlowConfig &flow, Tracer &tracer)
{
    std::optional<TestProgram> program;
    {
        auto span = tracer.span(Layer::Generate);
        program.emplace(generateTest(cfg, gen_seed));
    }
    auto span = tracer.span(Layer::Instrument);
    return std::make_unique<Instrumented>(std::move(*program),
                                          flow.analysis);
}

/** Destroy what @p owner holds inside a span of @p layer, so freeing a
 * layer's state is charged to that layer rather than to unit glue. */
template <typename Owner>
void
release(Owner &owner, Layer layer, Tracer &tracer)
{
    auto span = tracer.span(layer);
    owner.reset();
}

/** The streaming checking stage (checkSignatureStream with one flow
 * thread, no shards, no conventional baseline). */
void
checkStream(const Instrumented &inst, MemoryModel model,
            const std::vector<SignatureCount> &unique, FlowResult &result,
            Tracer &tracer, ReplayCounts &counts)
{
    std::optional<StreamDecoder> stream;
    WsOrder ws;
    std::optional<EdgeDeriver> deriver;
    std::optional<CollectiveChecker> checker;
    {
        auto span = tracer.span(Layer::Decode);
        stream.emplace(inst.codec);
    }
    {
        auto span = tracer.span(Layer::Derive);
        deriver.emplace(inst.program);
    }
    {
        auto span = tracer.span(Layer::Check);
        checker.emplace(inst.program, model);
    }
    EdgeDiff diff;
    for (const SignatureCount &entry : unique) {
        const Execution *exec = nullptr;
        try {
            auto span = tracer.span(Layer::Decode);
            exec = &stream->next(entry.signature);
        } catch (const SignatureDecodeError &err) {
            result.fault.quarantined.push_back(
                {entry.signature, entry.iterations, err.kind(),
                 err.thread(), err.word(), err.what()});
            result.fault.quarantinedIterations += entry.iterations;
            continue;
        }
        const std::vector<std::uint32_t> &changed =
            stream->changedThreads();
        {
            auto span = tracer.span(Layer::WsInfer);
            ws.inferDelta(inst.program, *exec, changed.data(),
                          changed.size());
        }
        {
            auto span = tracer.span(Layer::Derive);
            deriver->derive(*exec, ws, changed.data(), changed.size(),
                            diff);
        }
        counts.diffEdges += diff.added.size() + diff.removed.size();
        ++result.fault.decodedSignatures;
        bool cyclic = false;
        {
            auto span = tracer.span(Layer::Check);
            cyclic = checker->checkNextDiff(diff);
        }
        result.violatingSignatures += cyclic ? 1 : 0;
    }
    result.collective.merge(checker->stats());
    result.sliceReuses = stream->slicesReused();
    result.sliceDecodes = stream->slicesDecoded();
    release(stream, Layer::Decode, tracer);
    release(deriver, Layer::Derive, tracer);
    release(checker, Layer::Check, tracer);
    counts.sliceReuses += result.sliceReuses;
    counts.sliceDecodes += result.sliceDecodes;
    counts.checkWork += result.collective.verticesProcessed +
        result.collective.edgesProcessed;
    counts.graphsChecked += result.collective.graphsChecked;
    counts.completeSorts += result.collective.completeSorts;
}

/** The device-side BST comparisons ValidationFlow charges per record. */
std::uint64_t
bstInsertComparisons(std::uint64_t unique_before)
{
    return unique_before ? std::bit_width(unique_before) : 0;
}

/** Lockstep dispatch state: the batch arena and per-lane RNG streams. */
struct BatchState
{
    BatchRunArena arena;
    std::vector<Rng> laneRngs;
    std::vector<LaneStatus> status;
    Rng streamMaster;

    BatchState(std::uint32_t width, std::uint64_t flow_seed)
        : streamMaster(flow_seed)
    {
        laneRngs.reserve(width);
    }
};

/** Per-lane encode outputs, reused across batches. */
struct EncodeState
{
    std::vector<EncodeResult> encoded;
    std::vector<std::uint8_t> ok;

    explicit EncodeState(std::uint32_t width) : encoded(width), ok(width) {}
};

} // anonymous namespace

TestOutcome
replayUnit(const TestConfig &cfg, const FlowConfig &flow,
           const TestPlan &plan, bool keep_stream, Tracer &tracer,
           ReplayCounts &counts)
{
    auto unit_span = tracer.span(Layer::Unit);
    TestOutcome outcome;
    FlowResult &result = outcome.result;
    try {
        std::unique_ptr<Instrumented> inst =
            instrument(cfg, plan.genSeed, flow, tracer);
        {
            auto span = tracer.span(Layer::Instrument);
            result.intrusive = intrusiveness(inst->program, inst->plan);
            result.code = codeSize(inst->program, inst->analysis,
                                   inst->plan);
        }

        std::optional<OperationalExecutor> platform;
        {
            auto span = tracer.span(Layer::Execute);
            platform.emplace(flow.exec);
        }
        std::optional<PerturbationModel> perturbation;
        {
            auto span = tracer.span(Layer::Perturb);
            perturbation.emplace(inst->program, inst->analysis);
        }

        const std::uint32_t width = flow.batch ? flow.batch : 32;
        std::optional<SignatureAccumulator> accumulator;
        {
            auto span = tracer.span(Layer::Accumulate);
            accumulator.emplace();
        }
        std::uint64_t sort_comparisons = 0;
        std::unique_ptr<BatchState> batch;
        {
            auto span = tracer.span(Layer::Dispatch);
            batch = std::make_unique<BatchState>(width, plan.flowSeed);
        }
        std::unique_ptr<EncodeState> enc;
        {
            auto span = tracer.span(Layer::Encode);
            enc = std::make_unique<EncodeState>(width);
        }
        BatchRunArena &arena = batch->arena;
        std::vector<Rng> &lane_rngs = batch->laneRngs;
        std::vector<LaneStatus> &status = batch->status;
        std::vector<EncodeResult> &encoded = enc->encoded;
        std::vector<std::uint8_t> &encoded_ok = enc->ok;
        const std::uint32_t words = inst->plan.totalWords();

        for (std::uint64_t base = 0; base < flow.iterations;) {
            const std::uint32_t lanes = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(width, flow.iterations - base));
            base += lanes;
            {
                auto span = tracer.span(Layer::Dispatch);
                lane_rngs.clear();
                for (std::uint32_t l = 0; l < lanes; ++l)
                    lane_rngs.emplace_back(batch->streamMaster());
                status.assign(lanes, LaneStatus::Completed);
            }
            {
                auto span = tracer.span(Layer::Execute);
                platform->runBatchInto(inst->program, lane_rngs.data(),
                                       lanes, arena, nullptr,
                                       status.data());
            }
            for (std::uint32_t l = 0; l < lanes; ++l) {
                // The benchmark's platforms carry no bugs or drills: a
                // crashed or hung lane fails the unit.
                if (status[l] != LaneStatus::Completed)
                    throw PlatformError("lane did not complete");
            }
            result.iterationsRun += lanes;
            {
                auto span = tracer.span(Layer::Encode);
                for (std::uint32_t l = 0; l < lanes; ++l) {
                    try {
                        inst->codec.encodeInto(arena.executions[l],
                                               encoded[l]);
                        encoded_ok[l] = 1;
                    } catch (const SignatureAssertError &err) {
                        if (result.assertionFailures == 0)
                            result.violationWitness = err.what();
                        ++result.assertionFailures;
                        encoded_ok[l] = 0;
                    }
                }
            }
            {
                auto span = tracer.span(Layer::Perturb);
                for (std::uint32_t l = 0; l < lanes; ++l) {
                    if (encoded_ok[l])
                        perturbation->record(arena.executions[l],
                                             encoded[l], words);
                }
            }
            auto span = tracer.span(Layer::Accumulate);
            for (std::uint32_t l = 0; l < lanes; ++l) {
                if (!encoded_ok[l])
                    continue;
                ++result.fault.recordedIterations;
                sort_comparisons +=
                    bstInsertComparisons(accumulator->uniqueCount());
                accumulator->record(encoded[l].signature, 1);
            }
        }

        {
            auto span = tracer.span(Layer::Perturb);
            result.uniqueSignatures = accumulator->uniqueCount();
            perturbation->recordSortComparisons(sort_comparisons);
            result.originalCycles = perturbation->originalCycles();
            result.computeCycles =
                perturbation->signatureComputationCycles();
            result.sortCycles = perturbation->signatureSortingCycles();
            result.computationOverhead =
                perturbation->computationOverhead();
            result.sortingOverhead = perturbation->sortingOverhead();
        }

        release(batch, Layer::Dispatch, tracer);
        release(enc, Layer::Encode, tracer);
        release(platform, Layer::Execute, tracer);
        release(perturbation, Layer::Perturb, tracer);

        std::optional<std::vector<SignatureCount>> unique;
        {
            auto span = tracer.span(Layer::Sort);
            unique.emplace(accumulator->takeSortedUnique());
            if (keep_stream)
                result.signatureStream = *unique;
        }
        release(accumulator, Layer::Accumulate, tracer);
        {
            auto span = tracer.span(Layer::Digest);
            result.signatureSetDigest = streamDigest(*unique);
        }

        counts.iterations += result.iterationsRun;
        counts.uniqueSignatures += result.uniqueSignatures;
        checkStream(*inst, flow.exec.model, *unique, result, tracer, counts);
        release(unique, Layer::Sort, tracer);
        release(inst, Layer::Instrument, tracer);
        result.fault.confirmedViolations = result.violatingSignatures;
        outcome.ok = true;
        outcome.status = TestStatus::Ok;
    } catch (const Error &) {
        outcome = TestOutcome{};
        outcome.status = TestStatus::Failed;
    }
    return outcome;
}

bool
recheckUnit(const TestConfig &cfg, const FlowConfig &flow,
            const TestPlan &plan, const UnitRecord &unit, Tracer &tracer,
            ReplayCounts &counts)
{
    auto unit_span = tracer.span(Layer::Unit);
    const FlowResult &rec = unit.outcome.result;
    if (!unit.outcome.ok || unit.outcome.retriesUsed != 0 ||
        rec.signatureStream.size() != rec.uniqueSignatures)
        return false;
    {
        auto span = tracer.span(Layer::Digest);
        if (streamDigest(rec.signatureStream) != rec.signatureSetDigest)
            return false;
    }
    try {
        std::unique_ptr<Instrumented> inst =
            instrument(cfg, plan.genSeed, flow, tracer);
        {
            auto span = tracer.span(Layer::Instrument);
            const IntrusivenessReport intrusive =
                intrusiveness(inst->program, inst->plan);
            const CodeSizeReport code =
                codeSize(inst->program, inst->analysis, inst->plan);
            if (intrusive.signatureBytes != rec.intrusive.signatureBytes ||
                intrusive.normalizedUnrelated() !=
                    rec.intrusive.normalizedUnrelated() ||
                code.originalBytes != rec.code.originalBytes ||
                code.instrumentedBytes != rec.code.instrumentedBytes)
                return false;
        }
        FlowResult chk;
        checkStream(*inst, flow.exec.model, rec.signatureStream, chk,
                    tracer, counts);
        release(inst, Layer::Instrument, tracer);
        const CollectiveStats &c = chk.collective;
        const CollectiveStats &rc = rec.collective;
        return chk.violatingSignatures ==
            rec.violatingSignatures + rec.fault.transientViolations &&
            chk.fault.decodedSignatures == rec.fault.decodedSignatures &&
            chk.fault.quarantinedCount() == rec.fault.quarantinedCount() &&
            c.graphsChecked == rc.graphsChecked &&
            c.completeSorts == rc.completeSorts &&
            c.noResortNeeded == rc.noResortNeeded &&
            c.incrementalResorts == rc.incrementalResorts &&
            c.verticesProcessed == rc.verticesProcessed &&
            c.edgesProcessed == rc.edgesProcessed;
    } catch (const Error &) {
        return false;
    }
}

std::vector<ConfigSummary>
summarizeOutcomes(const UnitPlan &plan,
                  const std::vector<std::vector<TestOutcome>> &outcomes,
                  Tracer &tracer)
{
    auto span = tracer.span(Layer::Summarize);
    std::vector<ConfigSummary> out;
    for (std::size_t c = 0; c < plan.configs.size(); ++c)
        out.push_back(summarizeConfig(plan.configs[c], outcomes[c],
                                      plan.campaign.errorBudget));
    return out;
}

UnitRecord
unitRecord(const UnitPlan &plan, std::size_t c, std::size_t t,
           const TestOutcome &outcome)
{
    UnitRecord record;
    record.configName = plan.configs[c].name();
    record.testIndex = static_cast<std::uint32_t>(t);
    record.genSeed = plan.tests[c][t].genSeed;
    record.flowSeed = plan.tests[c][t].flowSeed;
    record.outcome = outcome;
    record.outcome.result.executions.clear();
    return record;
}

namespace
{

/** Truncated HMAC tag over dir || seq || payload, as the fabric's
 * authenticated transport computes it. */
void
frameTag(const std::vector<std::uint8_t> &key, std::uint64_t seq,
         const std::uint8_t *payload, std::size_t len,
         std::uint8_t tag[kFrameMacBytes])
{
    std::vector<std::uint8_t> msg;
    msg.reserve(1 + kFrameSeqBytes + len);
    msg.push_back(0x43); // client -> server direction label
    for (std::size_t i = 0; i < kFrameSeqBytes; ++i)
        msg.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
    msg.insert(msg.end(), payload, payload + len);
    const auto full = hmacSha256(key, msg.data(), msg.size());
    std::memcpy(tag, full.data(), kFrameMacBytes);
}

void
checkSyscall(int rc, const char *what)
{
    if (rc != 0)
        throw Error(std::string("perfbench: ") + what + " failed");
}

} // anonymous namespace

Wire::Wire(std::vector<std::uint8_t> key_arg) : key(std::move(key_arg))
{
    int sv[2] = {-1, -1};
    checkSyscall(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), "socketpair");
    sender = Transport(sv[0], "fabric-coordinator");
    receiver = Transport(sv[1], "fabric-worker");
}

Wire::Wire()
{
    int fds[2] = {-1, -1};
    checkSyscall(::pipe(fds), "pipe");
    sender = Transport(fds[0], fds[1], "sandbox-pipe");
}

std::vector<std::uint8_t>
Wire::ship(const std::vector<std::uint8_t> &payload, Tracer &tracer)
{
    envelope.assign(payload.begin(), payload.end());
    if (!key.empty()) {
        auto span = tracer.span(Layer::Hmac);
        std::uint8_t tag[kFrameMacBytes];
        frameTag(key, seq, payload.data(), payload.size(), tag);
        for (std::size_t i = 0; i < kFrameSeqBytes; ++i)
            envelope.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
        envelope.insert(envelope.end(), tag, tag + kFrameMacBytes);
    }
    {
        auto span = tracer.span(Layer::Framing);
        frame.clear();
        appendFrame(frame, envelope.data(), envelope.size());
    }
    std::vector<std::uint8_t> got;
    {
        auto span = tracer.span(Layer::Transport);
        sender.sendRaw(frame.data(), frame.size());
        Transport &far = receiver.valid() ? receiver : sender;
        if (!far.receive(got))
            throw FramingError("perfbench: wire closed mid-unit");
    }
    if (!key.empty()) {
        auto span = tracer.span(Layer::Hmac);
        if (got.size() < kFrameAuthBytes)
            throw FramingError("perfbench: short authenticated frame");
        const std::size_t body = got.size() - kFrameAuthBytes;
        std::uint8_t tag[kFrameMacBytes];
        frameTag(key, seq, got.data(), body, tag);
        if (!constantTimeEqual(tag, got.data() + body + kFrameSeqBytes,
                               kFrameMacBytes))
            throw FramingError("perfbench: frame tag mismatch");
        got.resize(body);
    }
    ++seq;
    return got;
}

} // namespace perfbench
