/**
 * @file
 * Campaign semantics over the distributed fabric.
 *
 * The fabric (src/dist/) moves opaque bytes; this layer gives them
 * meaning. A CampaignSpec carries every knob that determines the
 * deterministic result stream — the same fields the journal identity
 * folds — so a worker on the far side of a socket re-derives exactly
 * the plans (campaign_plan.h) the coordinator holds, and a unit
 * executes identically wherever and however often it lands. Sandboxed
 * and distributed campaigns share the unit shapes: a request is
 * (config index, test index), a response is an encoded UnitRecord.
 * (A sandboxed worker is forked from the coordinator and runs the
 * parent's in-memory plans, so it never decodes a spec.)
 *
 * The hard-failure drills (dieAfterRuns, leakAfterRuns) are
 * deliberately not executed by distributed workers: they exist to
 * exercise the sandbox's crash containment, and a fabric worker that
 * died to one would re-arm it on every reassignment, poisoning every
 * worker in turn. The spec does not carry them, and it must not
 * change for them: trace headers embed it. The fabric's own death
 * drill is CampaignConfig::distDrillExitAfter.
 */

#ifndef MTC_HARNESS_DIST_CAMPAIGN_H
#define MTC_HARNESS_DIST_CAMPAIGN_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "harness/campaign.h"
#include "harness/campaign_plan.h"

namespace mtc
{

class Watchdog;

/** What a worker needs to execute any unit of a campaign. */
struct CampaignSpec
{
    std::vector<TestConfig> configs;
    CampaignConfig campaign;
};

/** Serialize the deterministic subset of @p spec (operational knobs
 * — journal path, fleet shape, ports — are the coordinator's own
 * business and are not shipped). */
std::vector<std::uint8_t> encodeCampaignSpec(const CampaignSpec &spec);

/** @throws DistError on a malformed or version-mismatched spec. */
CampaignSpec decodeCampaignSpec(const std::vector<std::uint8_t> &bytes);

/** Encode a (config index, test index) unit request. */
std::vector<std::uint8_t> encodeUnitRequest(std::size_t config_index,
                                            std::size_t test_index);

/** @throws DistError on a malformed request. */
std::pair<std::size_t, std::size_t>
decodeUnitRequest(const std::vector<std::uint8_t> &request);

/**
 * Worker-side unit executor: rebuilds the campaign's deterministic
 * plan from a received spec, then maps unit requests to encoded
 * UnitRecords. Constructed after the fabric handshake (and, in a
 * loopback worker, after the fork — its watchdog thread must never
 * exist in the forking parent).
 */
class CampaignUnitRunner
{
  public:
    explicit CampaignUnitRunner(CampaignSpec spec);
    ~CampaignUnitRunner();

    CampaignUnitRunner(const CampaignUnitRunner &) = delete;
    CampaignUnitRunner &operator=(const CampaignUnitRunner &) = delete;

    /** Execute one unit. @throws DistError on an out-of-range or
     * malformed request. */
    std::vector<std::uint8_t>
    run(const std::vector<std::uint8_t> &request);

  private:
    CampaignSpec spec;
    std::vector<FlowConfig> flows;           ///< per config
    std::vector<std::vector<TestPlan>> plans; ///< per config, per test
    std::unique_ptr<Watchdog> watchdog;
};

/**
 * Deterministic digest of an encoded UnitRecord, for Byzantine
 * audits: two honest executions of the same unit agree on it even
 * though their wall-clock fields differ (those are zeroed before
 * folding). An undecodable payload digests under a different seed so
 * garbage can never collide with a well-formed record.
 */
std::uint64_t
unitRecordDigest(const std::vector<std::uint8_t> &payload);

/** Knobs for one loopback worker. */
struct LoopbackWorkerOptions
{
    /** Die-mid-batch drill (WorkerClientConfig::exitAfterUnits). */
    std::uint64_t exitAfterUnits = 0;

    /** Byzantine drill: silently corrupt every unit result —
     * decodable, plausible, wrong — so only an audit cross-check can
     * catch it. */
    bool corruptResults = false;

    /** Fabric key; empty = keyless. */
    std::vector<std::uint8_t> key;

    /** Seeded network faults on the worker's connection. */
    NetFaultConfig netFault;
};

/**
 * Body of loopback worker @p index, run in a child the WorkerFleet
 * forked (src/dist/fleet.h): connect to the local coordinator on
 * @p port over TCP and serve units until Done. @throws DistError if
 * the coordinator was never reachable.
 */
void runLoopbackWorker(std::uint16_t port, unsigned index,
                       const LoopbackWorkerOptions &opts);

} // namespace mtc

#endif // MTC_HARNESS_DIST_CAMPAIGN_H
