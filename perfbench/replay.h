/**
 * @file
 * The benchmark's outside-in replay of a campaign's units.
 *
 * A unit is replayed through each layer's public entry points in the
 * order ValidationFlow::runTest calls them (generate, instrument,
 * execute in lockstep batches, encode, accumulate, sort, then the
 * streaming decode -> ws inference -> edge diff -> collective check),
 * with a Tracer span around every call. The replay reproduces every
 * deterministic FlowResult field the campaign digest folds, so the
 * digest of its summaries must equal the campaign's: that equality is
 * the benchmark's correctness gate, and it also proves the spans timed
 * the same work the campaign did.
 *
 * The replay covers the benchmark's campaigns only: no fault injection,
 * no conventional checker, no sharding, one flow thread per unit.
 */

#ifndef MTC_PERFBENCH_REPLAY_H
#define MTC_PERFBENCH_REPLAY_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "harness/campaign.h"
#include "harness/campaign_journal.h"
#include "harness/campaign_plan.h"
#include "support/transport.h"
#include "tracer.h"

namespace perfbench
{

/** A campaign's configurations with their pre-derived unit plans. */
struct UnitPlan
{
    std::vector<mtc::TestConfig> configs;
    mtc::CampaignConfig campaign;
    std::vector<mtc::FlowConfig> flows;            ///< per config
    std::vector<std::vector<mtc::TestPlan>> tests; ///< per config
    std::vector<std::pair<std::size_t, std::size_t>> units; ///< (config, test)

    /** Derive the plans exactly as runCampaign does. */
    static UnitPlan build(std::vector<mtc::TestConfig> configs,
                          const mtc::CampaignConfig &campaign);

    /** Empty outcome slots shaped like the plan. */
    std::vector<std::vector<mtc::TestOutcome>> emptyOutcomes() const;
};

/** Work the replay performed, counted at the layer boundaries. */
struct ReplayCounts
{
    std::uint64_t iterations = 0;    ///< platform runs completed
    std::uint64_t uniqueSignatures = 0;
    std::uint64_t diffEdges = 0;     ///< edges added + removed across diffs
    std::uint64_t sliceReuses = 0;   ///< StreamDecoder slices reused
    std::uint64_t sliceDecodes = 0;  ///< StreamDecoder slices peeled
    std::uint64_t checkWork = 0;     ///< collective vertices + edges processed
    std::uint64_t graphsChecked = 0;
    std::uint64_t completeSorts = 0;
};

/**
 * Run one unit through the layers. A unit that throws is returned as
 * Failed (the benchmark's campaigns never retry: any failure is
 * counted). With @p keep_stream the sorted signature stream is kept
 * for a trace dump, as CampaignConfig::dumpTracePath does.
 */
mtc::TestOutcome replayUnit(const mtc::TestConfig &cfg,
                            const mtc::FlowConfig &flow,
                            const mtc::TestPlan &plan, bool keep_stream,
                            Tracer &tracer, ReplayCounts &counts);

/**
 * Re-verify a recorded Ok unit from its signature stream the way
 * checkTrace does: stream digest, regenerated program, static metrics,
 * and the checking stage's stats. @return false on any disagreement.
 */
bool recheckUnit(const mtc::TestConfig &cfg, const mtc::FlowConfig &flow,
                 const mtc::TestPlan &plan, const mtc::UnitRecord &unit,
                 Tracer &tracer, ReplayCounts &counts);

/** Fold outcome slots into per-config summaries (summarizeConfig). */
std::vector<mtc::ConfigSummary>
summarizeOutcomes(const UnitPlan &plan,
                  const std::vector<std::vector<mtc::TestOutcome>> &outcomes,
                  Tracer &tracer);

/** The unit record a worker ships back for (config, test). */
mtc::UnitRecord unitRecord(const UnitPlan &plan, std::size_t c,
                           std::size_t t, const mtc::TestOutcome &outcome);

/**
 * One in-process stand-in for a coordinator<->worker connection: a
 * socketpair (fabric) or a pipe (sandbox) wrapped in mtc::Transport.
 * ship() moves a payload across it the way the keyed fabric does —
 * HMAC tag over direction, sequence number and payload, appendFrame,
 * Transport::sendRaw, Transport::receive, tag verification — with a
 * span around each call. A keyless wire skips the tags. One thread
 * writes and then reads, so a payload must fit the kernel's pipe or
 * socket buffer; unit requests and records are well under 1 KB.
 */
class Wire
{
  public:
    /** Keyed socketpair wire (the fabric). */
    explicit Wire(std::vector<std::uint8_t> key);

    /** Keyless pipe wire (the sandbox). */
    Wire();

    Wire(const Wire &) = delete;
    Wire &operator=(const Wire &) = delete;

    /** Ship @p payload; returns what the far end received.
     * @throws mtc::FramingError on a tag or frame mismatch. */
    std::vector<std::uint8_t> ship(const std::vector<std::uint8_t> &payload,
                                   Tracer &tracer);

  private:
    std::vector<std::uint8_t> key;
    mtc::Transport sender;
    mtc::Transport receiver; ///< invalid for a pipe: `sender` loops back
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> envelope;
    std::vector<std::uint8_t> frame;
};

} // namespace perfbench

#endif // MTC_PERFBENCH_REPLAY_H
