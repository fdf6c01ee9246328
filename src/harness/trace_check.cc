#include "harness/trace_check.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "core/codesize.h"
#include "core/instr_plan.h"
#include "core/load_analysis.h"
#include "core/signature_codec.h"
#include "harness/campaign_journal.h"
#include "harness/dist_campaign.h"
#include "harness/validation_flow.h"
#include "support/framing.h"
#include "support/log.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "testgen/generator.h"

namespace mtc
{

namespace
{

/** Strict mode throws on the first fault; degraded mode collects. */
struct FaultSink
{
    bool strict;
    std::vector<TraceFault> &faults;

    void
    operator()(TraceFaultKind kind, const std::string &detail) const
    {
        if (strict)
            throw TraceError(kind, detail);
        faults.push_back(TraceFault{kind, detail});
    }
};

/** Chained FNV over the sorted (words, count) pairs — must mirror the
 * signatureSetDigest fold in ValidationFlow::runTest exactly. */
std::uint64_t
streamDigest(const std::vector<SignatureCount> &stream)
{
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const SignatureCount &entry : stream) {
        digest = fnv1a64(entry.signature.words.data(),
                         entry.signature.words.size() *
                             sizeof(std::uint64_t),
                         digest);
        digest =
            fnv1a64(&entry.iterations, sizeof(entry.iterations), digest);
    }
    return digest;
}

/** The generation seed of the unit's FINAL attempt: the plan's own
 * seed when it succeeded first try, otherwise the retriesUsed-th pair
 * drawn from the unit's private retry stream — the same draws
 * runPlannedTest made on the producer. */
std::uint64_t
finalAttemptGenSeed(const TestPlan &plan, unsigned retries_used)
{
    std::uint64_t gen_seed = plan.genSeed;
    Rng retry_seeder(plan.retrySeed);
    for (unsigned i = 0; i < retries_used; ++i) {
        gen_seed = retry_seeder();
        (void)retry_seeder(); // the attempt's flow-seed draw
    }
    return gen_seed;
}

/** Where a recorded unit disagreed with its recomputation (empty
 * optional = verified). */
std::optional<std::string>
verifyOkUnit(const TestConfig &cfg, const FlowConfig &flow,
             const TestPlan &plan, const UnitRecord &unit)
{
    const FlowResult &rec = unit.outcome.result;
    const auto field = [&](const char *name) {
        return "unit " + std::to_string(unit.testIndex) + " of " +
            cfg.name() + ": recorded " + name +
            " disagrees with its recomputation";
    };

    if (rec.signatureStream.size() != rec.uniqueSignatures) {
        return "unit " + std::to_string(unit.testIndex) + " of " +
            cfg.name() + " claims " +
            std::to_string(rec.uniqueSignatures) +
            " unique signatures but carries " +
            std::to_string(rec.signatureStream.size()) +
            " stream entries (dumped from a streamless journal "
            "replay?)";
    }
    if (streamDigest(rec.signatureStream) != rec.signatureSetDigest)
        return field("signature-set digest");

    const TestProgram program =
        generateTest(cfg, finalAttemptGenSeed(plan, unit.outcome.retriesUsed));
    LoadValueAnalysis analysis(program, flow.analysis);
    InstrumentationPlan iplan(program, analysis);
    SignatureCodec codec(program, analysis, iplan);

    const IntrusivenessReport intrusive = intrusiveness(program, iplan);
    const CodeSizeReport code = codeSize(program, analysis, iplan);
    if (intrusive.signatureBytes != rec.intrusive.signatureBytes ||
        intrusive.normalizedUnrelated() !=
            rec.intrusive.normalizedUnrelated())
        return field("intrusiveness metrics");
    if (code.originalBytes != rec.code.originalBytes ||
        code.instrumentedBytes != rec.code.instrumentedBytes)
        return field("code-size metrics");

    const MemoryModel model =
        flow.coherent ? flow.coherent->model : flow.exec.model;
    FlowResult chk;
    PhaseProfiler prof(false);
    std::vector<bool> verdicts;
    std::vector<std::size_t> decoded_idx;
    checkSignatureStream(program, codec, model, flow,
                         rec.signatureStream, prof, chk, verdicts,
                         decoded_idx);

    // The raw cyclic count splits into confirmed XOR transient on the
    // producer (all-or-nothing confirmation), and violatingSignatures
    // was zeroed exactly when the split went transient — both
    // invariants fold into these two equalities.
    if (rec.violatingSignatures + rec.fault.transientViolations !=
        chk.violatingSignatures)
        return field("violating-signature count");
    if (rec.fault.confirmedViolations != rec.violatingSignatures)
        return field("confirmed-violation split");

    if (chk.fault.decodedSignatures != rec.fault.decodedSignatures)
        return field("decoded-signature count");
    if (chk.fault.quarantinedCount() != rec.fault.quarantinedCount() ||
        chk.fault.quarantinedIterations !=
            rec.fault.quarantinedIterations)
        return field("quarantine ledger");

    const CollectiveStats &c = chk.collective;
    const CollectiveStats &rc = rec.collective;
    if (c.graphsChecked != rc.graphsChecked ||
        c.violations != rc.violations ||
        c.completeSorts != rc.completeSorts ||
        c.noResortNeeded != rc.noResortNeeded ||
        c.incrementalResorts != rc.incrementalResorts ||
        c.verticesProcessed != rc.verticesProcessed ||
        c.edgesProcessed != rc.edgesProcessed ||
        c.affectedFraction.sum() != rc.affectedFraction.sum() ||
        c.affectedFraction.count() != rc.affectedFraction.count())
        return field("collective checker stats");
    if (flow.runConventional) {
        const ConventionalStats &v = chk.conventional;
        const ConventionalStats &rv = rec.conventional;
        if (v.graphsChecked != rv.graphsChecked ||
            v.violations != rv.violations ||
            v.verticesProcessed != rv.verticesProcessed ||
            v.edgesProcessed != rv.edgesProcessed)
            return field("conventional checker stats");
    }
    return std::nullopt;
}

/** Checkpoint notes carry their fault kind as a stable name prefix so
 * a resumed quarantine re-classifies identically. */
std::string
checkpointNote(TraceFaultKind kind, const std::string &detail)
{
    return std::string(traceFaultName(kind)) + ": " + detail;
}

TraceFaultKind
checkpointNoteKind(const std::string &note)
{
    for (const TraceFaultKind kind :
         {TraceFaultKind::Truncated, TraceFaultKind::Corrupt,
          TraceFaultKind::VersionSkew,
          TraceFaultKind::FingerprintMismatch}) {
        const std::string prefix =
            std::string(traceFaultName(kind)) + ": ";
        if (note.compare(0, prefix.size(), prefix) == 0)
            return kind;
    }
    return TraceFaultKind::Corrupt;
}

} // anonymous namespace

void
writeCampaignTrace(
    const std::string &path, const std::vector<TestConfig> &configs,
    const CampaignConfig &campaign,
    const std::vector<std::vector<TestPlan>> &plans,
    const std::vector<std::vector<TestOutcome>> &outcomes)
{
    CampaignSpec spec;
    spec.configs = configs;
    spec.campaign = campaign;

    const CampaignJournal::Identity identity =
        campaignIdentity(configs, campaign);
    TraceHeader header;
    header.identityDigest = identity.digest;
    header.description = identity.description;
    header.spec = encodeCampaignSpec(spec);

    TraceWriter writer(path, header);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t t = 0; t < outcomes[c].size(); ++t) {
            const TestOutcome &slot = outcomes[c][t];
            if (slot.ok && slot.result.uniqueSignatures &&
                slot.result.signatureStream.size() !=
                    slot.result.uniqueSignatures) {
                throw ConfigError(
                    "trace dump: test " + std::to_string(t) + " of " +
                    configs[c].name() +
                    " carries no signature stream — its outcome was "
                    "replayed from a journal written without stream "
                    "retention; re-run the campaign (or resume with "
                    "the dump flag set from the start) to dump a "
                    "checkable trace");
            }
            UnitRecord record;
            record.configName = configs[c].name();
            record.testIndex = static_cast<std::uint32_t>(t);
            record.genSeed = plans[c][t].genSeed;
            record.flowSeed = plans[c][t].flowSeed;
            record.outcome = slot;
            record.outcome.result.executions.clear();
            writer.append(kTraceUnitTag, encodeUnitRecord(record));
        }
    }
    writer.sync();
}

TraceCheckReport
checkTrace(const TraceCheckOptions &options)
{
    TraceCheckReport report;
    const FaultSink fault{options.strict, report.faults};
    if (options.resume && options.checkpointPath.empty())
        throw ConfigError("trace check: resume needs a checkpoint path");

    // --- Ingest + header handshake (fatal faults throw in any mode) ---
    const TraceFile trace = readTraceFile(options.tracePath);
    report.identityDescription = trace.header.description;
    report.tornBytesDropped = trace.droppedBytes;
    report.unknownRecordsSkipped = trace.unknownSkipped;
    if (trace.droppedBytes) {
        fault(TraceFaultKind::Truncated,
              "torn tail: " + std::to_string(trace.droppedBytes) +
                  " bytes dropped after the last intact record; "
                  "checking the longest intact prefix");
    }
    if (trace.malformedRecords) {
        fault(TraceFaultKind::Corrupt,
              std::to_string(trace.malformedRecords) +
                  " empty (kind-less) record payloads skipped");
    }

    CampaignSpec spec;
    try {
        spec = decodeCampaignSpec(trace.header.spec);
    } catch (const Error &err) {
        throw TraceError(TraceFaultKind::Corrupt,
                         std::string("trace header spec: ") +
                             err.what());
    }
    const CampaignJournal::Identity identity =
        campaignIdentity(spec.configs, spec.campaign);
    if (identity.digest != trace.header.identityDigest) {
        throw TraceError(
            TraceFaultKind::FingerprintMismatch,
            "trace header fingerprint does not match the campaign "
            "identity re-derived from its own spec (" +
                identity.description + ") — edited or mixed-up trace");
    }

    // --- Re-derive the deterministic plan from the spec --------------
    const std::vector<TestConfig> &configs = spec.configs;
    struct CfgState
    {
        FlowConfig flow;
        std::vector<TestPlan> plans;
        bool setupOk = false;
        std::string error;
    };
    std::vector<CfgState> states(configs.size());
    std::map<std::string, std::size_t> cfg_index;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        cfg_index[configs[c].name()] = c;
        try {
            states[c].flow = flowTemplate(configs[c], spec.campaign);
            states[c].plans = deriveTestPlans(configs[c], spec.campaign);
            states[c].setupOk = true;
        } catch (const Error &err) {
            states[c].error = err.what();
            continue;
        }
        // Operational checker knobs are the consumer's, not the
        // producer's: results are bit-identical at any setting. Units
        // are the parallel grain, so each flow stays serial inside.
        states[c].flow.threads = 1;
        states[c].flow.keepSignatures = false;
        states[c].flow.keepExecutions = false;
        states[c].flow.cancel = nullptr;
    }

    // --- Collect unit records (first writer per key wins) ------------
    struct SlotRecord
    {
        UnitRecord unit;
        std::uint64_t bodyDigest = 0;
    };
    std::vector<std::vector<std::optional<SlotRecord>>> slots(
        configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        slots[c].resize(states[c].plans.size());

    for (const TraceRecord &rec : trace.records) {
        if (rec.kind != kTraceUnitTag) {
            ++report.quarantinedRecords;
            fault(TraceFaultKind::Corrupt,
                  "checkpoint record inside a campaign trace");
            continue;
        }
        ++report.unitsInTrace;
        UnitRecord unit;
        try {
            unit = decodeUnitRecord(rec.body);
        } catch (const JournalError &err) {
            ++report.quarantinedRecords;
            fault(TraceFaultKind::Corrupt,
                  std::string("undecodable unit record: ") + err.what());
            continue;
        }
        const auto it = cfg_index.find(unit.configName);
        if (it == cfg_index.end()) {
            ++report.quarantinedRecords;
            fault(TraceFaultKind::Corrupt,
                  "unit record names a config absent from the spec: " +
                      unit.configName);
            continue;
        }
        const std::size_t c = it->second;
        if (!states[c].setupOk ||
            unit.testIndex >= states[c].plans.size()) {
            ++report.quarantinedRecords;
            fault(TraceFaultKind::Corrupt,
                  "unit record index " +
                      std::to_string(unit.testIndex) + " of " +
                      unit.configName + " is outside the spec's plan");
            continue;
        }
        const TestPlan &plan = states[c].plans[unit.testIndex];
        if (unit.genSeed != plan.genSeed ||
            unit.flowSeed != plan.flowSeed) {
            ++report.quarantinedRecords;
            fault(TraceFaultKind::FingerprintMismatch,
                  "unit " + std::to_string(unit.testIndex) + " of " +
                      unit.configName +
                      " carries different seeds than the spec "
                      "derives — record from another campaign");
            continue;
        }
        std::optional<SlotRecord> &slot = slots[c][unit.testIndex];
        if (slot) {
            ++report.duplicateUnits;
            fault(TraceFaultKind::Corrupt,
                  "duplicate record for unit " +
                      std::to_string(unit.testIndex) + " of " +
                      unit.configName + " (first record kept)");
            continue;
        }
        SlotRecord sr;
        sr.unit = std::move(unit);
        sr.bodyDigest = fnv1a64(rec.body.data(), rec.body.size());
        slot = std::move(sr);
    }

    // --- Checkpoint: load replayable verdicts, open the writer -------
    std::map<std::pair<std::string, std::uint32_t>,
             TraceCheckpointRecord>
        checkpoints;
    std::unique_ptr<TraceWriter> ckpt_writer;
    if (!options.checkpointPath.empty()) {
        bool append = false;
        if (options.resume) {
            try {
                const TraceFile ck =
                    readTraceFile(options.checkpointPath);
                if (ck.header.identityDigest !=
                    trace.header.identityDigest) {
                    warn("checkpoint " + options.checkpointPath +
                         " belongs to another trace; rebuilding it");
                } else {
                    for (const TraceRecord &rec : ck.records) {
                        if (rec.kind != kTraceCheckpointTag)
                            continue;
                        try {
                            TraceCheckpointRecord cp =
                                decodeTraceCheckpoint(rec.body);
                            checkpoints[{cp.configName,
                                         cp.testIndex}] = cp;
                        } catch (const TraceError &err) {
                            // An unreadable checkpoint entry only
                            // costs its unit a re-check — but say so,
                            // or a codec regression here degrades
                            // every resume to a silent full re-run.
                            warn(std::string("checkpoint entry "
                                             "undecodable (") +
                                 err.what() + "); re-checking its unit");
                        }
                    }
                    truncateToValidPrefix(
                        options.checkpointPath,
                        readJournal(options.checkpointPath));
                    append = true;
                }
            } catch (const TraceError &err) {
                // The checkpoint is our own scratch state, not the
                // evidence under audit: a bad one is rebuilt, never
                // fatal (even in strict mode).
                warn("checkpoint " + options.checkpointPath +
                     " unreadable (" + err.what() +
                     "); rebuilding it");
            }
        }
        if (append) {
            ckpt_writer = std::make_unique<TraceWriter>(
                options.checkpointPath);
        } else {
            checkpoints.clear();
            TraceHeader ck_header;
            ck_header.identityDigest = trace.header.identityDigest;
            ck_header.description =
                "mtc_check checkpoint for " + options.tracePath;
            ckpt_writer = std::make_unique<TraceWriter>(
                options.checkpointPath, ck_header);
        }
    }

    // --- Verify units in parallel, commit in (config, test) order ----
    // A unit's check reads only its own record, so units verify
    // concurrently, one thread each. Everything that depends on order
    // (fault list, counters, outcomes, checkpoint appends) is committed
    // on this thread in unit order as the finished prefix grows: the
    // report and the checkpoint bytes are the same at any thread count,
    // and a killed check keeps its progress.
    std::vector<std::vector<TestOutcome>> outcomes(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        outcomes[c].resize(states[c].plans.size());
        for (TestOutcome &slot : outcomes[c]) {
            slot.status = TestStatus::Skipped;
            slot.ok = false;
        }
    }

    struct PendingUnit
    {
        std::size_t config = 0;
        std::size_t test = 0;
        const SlotRecord *record = nullptr;            ///< null: missing
        const TraceCheckpointRecord *replay = nullptr; ///< checkpointed
        bool verify = false;                 ///< an Ok record to re-check
        std::optional<std::string> mismatch; ///< the re-check's verdict
    };
    std::vector<PendingUnit> units;
    std::size_t units_to_verify = 0;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t t = 0; t < slots[c].size(); ++t) {
            PendingUnit unit;
            unit.config = c;
            unit.test = t;
            if (slots[c][t]) {
                unit.record = &*slots[c][t];
                const auto ck = checkpoints.find(
                    {configs[c].name(), static_cast<std::uint32_t>(t)});
                if (ck != checkpoints.end() &&
                    ck->second.payloadDigest == unit.record->bodyDigest)
                    unit.replay = &ck->second;
                unit.verify =
                    !unit.replay && unit.record->unit.outcome.ok;
            }
            units_to_verify += unit.verify ? 1 : 0;
            units.push_back(std::move(unit));
        }
    }

    const auto verify = [&](std::size_t u) {
        PendingUnit &unit = units[u];
        if (unit.verify) {
            unit.mismatch = verifyOkUnit(
                configs[unit.config], states[unit.config].flow,
                states[unit.config].plans[unit.test], unit.record->unit);
        }
    };
    const auto commit = [&](std::size_t u) {
        const PendingUnit &unit = units[u];
        const std::size_t c = unit.config;
        const std::size_t t = unit.test;
        if (!unit.record) {
            ++report.missingUnits;
            fault(TraceFaultKind::Truncated,
                  "unit " + std::to_string(t) + " of " +
                      configs[c].name() +
                      " is missing from the trace (torn or "
                      "dropped record)");
            return;
        }
        if (unit.replay) {
            ++report.unitsReplayed;
            if (unit.replay->quarantined) {
                ++report.quarantinedRecords;
                fault(checkpointNoteKind(unit.replay->note),
                      unit.replay->note + " (checkpoint replay)");
            } else {
                outcomes[c][t] = unit.record->unit.outcome;
            }
            return;
        }

        TraceCheckpointRecord cp;
        cp.configName = configs[c].name();
        cp.testIndex = static_cast<std::uint32_t>(t);
        cp.payloadDigest = unit.record->bodyDigest;

        if (!unit.verify) {
            // Failed/Hung/Skipped outcomes carry no stream; the
            // recorded verdict is the evidence, adopted verbatim.
            outcomes[c][t] = unit.record->unit.outcome;
            ++report.unitsAdopted;
        } else if (unit.mismatch) {
            ++report.quarantinedRecords;
            cp.quarantined = 1;
            cp.note = checkpointNote(TraceFaultKind::FingerprintMismatch,
                                     *unit.mismatch);
            if (ckpt_writer)
                ckpt_writer->append(kTraceCheckpointTag,
                                    encodeTraceCheckpoint(cp));
            fault(TraceFaultKind::FingerprintMismatch, *unit.mismatch);
            return;
        } else {
            outcomes[c][t] = unit.record->unit.outcome;
            ++report.unitsVerified;
        }
        if (ckpt_writer)
            ckpt_writer->append(kTraceCheckpointTag,
                                encodeTraceCheckpoint(cp));
    };

    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        ThreadPool::resolveThreads(options.threads), units_to_verify));
    if (workers > 1) {
        ThreadPool pool(workers);
        pool.parallelForOrdered(units.size(), verify, commit);
    } else {
        for (std::size_t u = 0; u < units.size(); ++u) {
            verify(u);
            commit(u);
        }
    }
    if (ckpt_writer)
        ckpt_writer->sync();

    // --- Summaries: the same fold the producer printed ---------------
    report.summaries.reserve(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        if (!states[c].setupOk) {
            ConfigSummary degraded;
            degraded.cfg = configs[c];
            degraded.degraded = true;
            degraded.error = states[c].error;
            report.summaries.push_back(std::move(degraded));
            continue;
        }
        report.summaries.push_back(summarizeConfig(
            configs[c], outcomes[c], spec.campaign.errorBudget));
    }
    return report;
}

} // namespace mtc
