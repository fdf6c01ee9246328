/**
 * @file
 * End-to-end validation flow for one test program (the paper's
 * Figure 1): instrument, execute many iterations, collect and sort
 * signatures, decode, and check — collectively and (optionally) with
 * the conventional per-graph baseline for comparison.
 *
 * The flow also gathers every metric the evaluation section reports:
 * unique-signature counts (Figure 8), checker timings and work
 * (Figures 9 and 14), execution-overhead components (Figure 10),
 * intrusiveness (Figure 11), and code size (Figure 12).
 */

#ifndef MTC_HARNESS_VALIDATION_FLOW_H
#define MTC_HARNESS_VALIDATION_FLOW_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/codesize.h"
#include "core/collective_checker.h"
#include "core/conventional_checker.h"
#include "core/load_analysis.h"
#include "core/perturbation.h"
#include "core/signature.h"
#include "core/signature_accumulator.h"
#include "core/signature_codec.h"
#include "sim/coherent_executor.h"
#include "sim/executor_config.h"
#include "sim/fault_injector.h"
#include "support/profiler.h"
#include "testgen/test_program.h"

namespace mtc
{

/** Graceful-degradation knobs: how hard the flow fights to keep a
 * campaign alive when the platform or the readout path misbehaves.
 * Defaults are all-off so a fault-free flow is bit-identical to the
 * pre-fault pipeline. */
struct RecoveryConfig
{
    /**
     * K of the K-re-execution confirmation protocol: when the readout
     * path is faulted and a violating (cyclic) signature shows up, the
     * test is re-executed up to K times; only a reproduced violation
     * is reported as confirmed, otherwise it is reclassified as
     * transient readout corruption. 0 disables confirmation (every
     * violation is reported as-is). Ignored when fault injection is
     * off — an unfaulted readout cannot fabricate violations.
     */
    unsigned confirmationRuns = 2;

    /** Iterations per confirmation re-execution (0 = min(iterations,
     * 256)). */
    std::uint64_t confirmationIterations = 0;

    /** How many times a test-loop platform crash (protocol deadlock
     * watchdog) is retried with a reseeded schedule before the test
     * gives up collecting further iterations. */
    unsigned crashRetries = 0;
};

/** One undecodable signature held back from checking. */
struct QuarantinedSignature
{
    Signature signature;

    /** Iterations that produced this exact (corrupt) word array. */
    std::uint64_t iterations = 0;

    DecodeFaultKind kind = DecodeFaultKind::WordCountMismatch;
    std::uint32_t thread = 0; ///< thread whose stream failed
    std::uint32_t word = 0;   ///< global word index of the failure
    std::string detail;       ///< decoder's message
};

/** Everything the fault-tolerant pipeline observed and decided. */
struct FaultReport
{
    /** Ground truth from the injector (test loop only; confirmation
     * re-executions keep their own ledgers). */
    InjectionCounts injected;

    /** Signatures that reached the host buffer, counting duplicates. */
    std::uint64_t recordedIterations = 0;

    /** Undecodable signatures held back from checking. */
    std::vector<QuarantinedSignature> quarantined;

    /** Iterations behind the quarantined signatures. */
    std::uint64_t quarantinedIterations = 0;

    /** Unique signatures that decoded cleanly and were checked. */
    std::uint64_t decodedSignatures = 0;

    /** Violating signatures reproduced by re-execution (confirmed MCM
     * violations). */
    std::uint64_t confirmedViolations = 0;

    /** Violating signatures NOT reproduced in K re-executions —
     * reported as suspected readout corruption, not as violations. */
    std::uint64_t transientViolations = 0;

    /** Confirmation re-executions actually performed. */
    unsigned confirmationRunsUsed = 0;

    /** Platform-crash retries consumed by the test loop. */
    unsigned crashRetries = 0;

    /** Human-readable degradation note (empty when nothing was
     * reclassified or retried). */
    std::string note;

    /** Single source of truth for "how many signatures are held back":
     * derived from the quarantine list itself so it can never drift
     * from the entries (campaign totals, the CLI summary, and the
     * benches all sum this accessor rather than keeping their own
     * counters). */
    std::uint64_t
    quarantinedCount() const
    {
        return static_cast<std::uint64_t>(quarantined.size());
    }

    /** Anything fault-related happened at all — including confirmation
     * re-executions, which run (and cost platform time) even when the
     * violation is ultimately confirmed rather than reclassified. */
    bool
    anyFaultActivity() const
    {
        return injected.totalEvents() || quarantinedCount() != 0 ||
            transientViolations || confirmationRunsUsed || crashRetries;
    }
};

/** Knobs of one flow run. */
struct FlowConfig
{
    /** Test-loop iteration count (paper: 65,536 bare-metal; 1,024 in
     * gem5; our defaults are scaled — see EXPERIMENTS.md). */
    std::uint64_t iterations = 4096;

    std::uint64_t seed = 2017;

    /** Platform under validation. */
    ExecutorConfig exec;

    /** When set, the test runs on the message-level coherent platform
     * (the gem5-grade model) instead of the operational executor, and
     * `exec` is ignored: the coherent config carries its own model
     * and bug hooks. */
    std::optional<CoherentConfig> coherent;

    /** Load-analysis options (static pruning extension). */
    AnalysisOptions analysis;

    /** Also run the conventional checker (for Figure 9 comparisons). */
    bool runConventional = true;

    /** Keep all unique decoded executions (k-medoids inputs). */
    bool keepExecutions = false;

    /**
     * Keep the sorted unique signature stream (FlowResult::
     * signatureStream) — the raw material of an offline trace dump.
     * Off by default: the stream costs memory proportional to the
     * behavior count and nothing in the inline pipeline needs it after
     * checking. Operational knob, excluded from campaign identity:
     * keeping the stream changes what is retained, never what is
     * computed.
     */
    bool keepSignatures = false;

    /** Readout-path fault injection (all rates 0 = clean readout). */
    FaultConfig fault;

    /** Graceful-degradation knobs (defaults preserve old behavior). */
    RecoveryConfig recovery;

    /**
     * Lockstep batch width of the test loop: how many iterations are
     * dispatched through the platform's batched engine at a time. 0
     * (the default) resolves to 32; 1 degenerates to scalar stepping.
     * The coherent platform has no lockstep engine and always steps
     * one lane at a time.
     * Each iteration's RNG stream is derived from one master stream
     * in iteration order, so the observed signature multiset, all
     * summaries, and the journal digest are bit-identical at every
     * batch width. Operational knob only — excluded from campaign
     * identity, like `threads`.
     */
    std::uint32_t batch = 0;

    /**
     * Bounded decode→check window of the overlapped pipeline: how many
     * edge diffs may be in flight between the decoding producer and
     * the checking consumer (0 = unbounded). Only meaningful when the
     * flow runs with threads > 1; results are bit-identical at any
     * window.
     */
    std::size_t streamWindow = 64;

    /**
     * Threads of the checking stage. Above 1, the delta-decoding
     * producer and the collective-checking consumer run concurrently,
     * connected by a bounded channel of streamWindow edge diffs; 1
     * (default) checks inline; 0 resolves to the hardware concurrency.
     * The consumer applies the diffs strictly in stream order, so
     * results are bit-identical at any value.
     */
    unsigned threads = 1;

    /** Collect the per-phase wall-clock breakdown (FlowResult::profile).
     * Off by default: disabled scopes never touch the clock. */
    bool profile = false;

    /**
     * Watchdog stop token threaded into every platform run of this
     * flow (test loop and confirmation re-executions). When it fires,
     * the run — and therefore runTest — aborts with TestHungError;
     * the campaign layer records the unit as Hung. nullptr = never
     * cancelled (the default, bit-identical to the pre-watchdog flow).
     */
    const CancellationToken *cancel = nullptr;
};

/** Everything measured while validating one test. */
struct FlowResult
{
    std::uint64_t iterationsRun = 0;
    std::uint64_t uniqueSignatures = 0;

    /**
     * Order-independent FNV-1a digest of the sorted unique signature
     * multiset (words + per-signature iteration counts). One u64
     * fingerprints the whole observed-behavior set, so the campaign
     * journal can assert that a resumed unit replays exactly the
     * signatures the original run recorded.
     */
    std::uint64_t signatureSetDigest = 0;

    /** Instrumented-chain tail assertions (unexpected loaded value). */
    std::uint64_t assertionFailures = 0;

    /** Platform crashes (injected protocol deadlock). */
    std::uint64_t platformCrashes = 0;

    /** Unique signatures whose constraint graph is cyclic. */
    std::uint64_t violatingSignatures = 0;

    bool
    anyViolation() const
    {
        return violatingSignatures || assertionFailures ||
            platformCrashes;
    }

    CollectiveStats collective;
    ConventionalStats conventional;

    /** Wall-clock of the checking phases (sorting only, graphs
     * pre-built — the paper's Figure 9 methodology). */
    double collectiveMs = 0.0;
    double conventionalMs = 0.0;

    /** Wall-clock of decode + observed-edge derivation (shared). */
    double decodeMs = 0.0;

    /** Delta-decode accounting of the checking stage: per-thread
     * signature-word slices reused verbatim from the previous sorted
     * signature vs. peeled in full. */
    std::uint64_t sliceReuses = 0;
    std::uint64_t sliceDecodes = 0;

    /** Figure 10 components. */
    std::uint64_t originalCycles = 0;
    std::uint64_t computeCycles = 0;
    std::uint64_t sortCycles = 0;
    double computationOverhead = 0.0;
    double sortingOverhead = 0.0;

    IntrusivenessReport intrusive;
    CodeSizeReport code;

    /** First violation's cycle rendered for humans (Figure 13). */
    std::string violationWitness;

    /** Fault-injection ledger, quarantine, and confirmation outcome. */
    FaultReport fault;

    /** Per-phase wall-clock breakdown (empty unless FlowConfig::profile). */
    PhaseBreakdown profile;

    /** Unique decoded executions (only when keepExecutions). */
    std::vector<Execution> executions;

    /**
     * The sorted unique signature stream the checker consumed (only
     * when FlowConfig::keepSignatures): exactly what a trace dump
     * records per test, including undecodable (quarantined) entries,
     * so an offline re-check classifies them identically.
     */
    std::vector<SignatureCount> signatureStream;
};

/**
 * The post-execution checking stage: decode the sorted unique
 * signature stream, derive observed edges, and run the collective
 * (and optionally conventional) checker, filling the checking-side
 * fields of @p result — collective/conventional stats, timings,
 * decode accounting, quarantine, violatingSignatures, and the
 * violation witness.
 *
 * Shared by the inline flow (ValidationFlow::runTest) and the offline
 * trace checker (src/harness/trace_check.h): it consumes only static
 * test artifacts plus the sorted stream, so its verdicts and stats are
 * bit-identical whether the signatures arrived from a live platform or
 * from a trace file.
 *
 * Honored @p cfg knobs: threads, streamWindow, runConventional,
 * keepExecutions. @p verdicts_out receives one
 * cyclic/acyclic verdict per decoded signature and @p decoded_idx_out
 * the indices into @p unique that decoded cleanly (both in stream
 * order); pass empty vectors.
 */
void checkSignatureStream(const TestProgram &program,
                          const SignatureCodec &codec, MemoryModel model,
                          const FlowConfig &cfg,
                          const std::vector<SignatureCount> &unique,
                          PhaseProfiler &prof, FlowResult &result,
                          std::vector<bool> &verdicts_out,
                          std::vector<std::size_t> &decoded_idx_out);

/** Runs the full flow over test programs. */
class ValidationFlow
{
  public:
    explicit ValidationFlow(FlowConfig cfg_arg);

    /** Validate one test program. */
    FlowResult runTest(const TestProgram &program);

  private:
    FlowConfig cfg;
};

} // namespace mtc

#endif // MTC_HARNESS_VALIDATION_FLOW_H
