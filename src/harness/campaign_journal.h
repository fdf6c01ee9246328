/**
 * @file
 * Campaign write-ahead journal: durable (config, test) unit records
 * on top of the framed append-only log in src/support/journal.h.
 *
 * The journal's first record is a header naming the campaign: a magic
 * word, a format version, and an identity digest folded over every
 * knob that affects the deterministic result stream (seed, scale,
 * fault/recovery knobs, platform variant, config list). A resume run
 * recomputes the digest from its own configuration and refuses a
 * journal whose header disagrees — resuming under different knobs
 * would splice incompatible result streams and silently corrupt the
 * summary. Operational knobs that cannot change results (thread
 * count, watchdog timeout, error budget) are excluded, so a campaign
 * may be resumed on a different machine shape.
 *
 * Every subsequent record is one completed unit: its identity
 * (config name, test index, both pre-derived seeds), its terminal
 * status, and the full deterministic FlowResult payload — enough to
 * replay the unit into the summary bit-identically without re-running
 * it. Wall-clock fields (collectiveMs, ...) are journaled too and
 * replayed verbatim: a resumed summary reports the time the work
 * actually took when it ran, not zeros.
 */

#ifndef MTC_HARNESS_CAMPAIGN_JOURNAL_H
#define MTC_HARNESS_CAMPAIGN_JOURNAL_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign.h"
#include "support/journal.h"

namespace mtc
{

/** One journaled (config, test) unit. */
struct UnitRecord
{
    std::string configName;
    std::uint32_t testIndex = 0;

    /** Pre-derived seeds the unit ran under; resume cross-checks them
     * against the plan so a stale journal cannot smuggle results in
     * under a colliding (config, index) key. */
    std::uint64_t genSeed = 0;
    std::uint64_t flowSeed = 0;

    /** Terminal outcome; `outcome.result.executions` is never
     * journaled (resume does not need raw executions), and
     * `fault.quarantined` round-trips as count + iteration total
     * only — the campaign consumes nothing deeper. */
    TestOutcome outcome;
};

/** Serialize @p record into a journal frame payload. */
std::vector<std::uint8_t> encodeUnitRecord(const UnitRecord &record);

/**
 * Parse a unit-record payload.
 * @throws JournalError on a short or non-unit payload.
 */
UnitRecord decodeUnitRecord(const std::vector<std::uint8_t> &payload);

/**
 * Campaign-level journal: header-validated, keyed replay of unit
 * records plus thread-safe appends of new ones.
 */
class CampaignJournal
{
  public:
    /** What a journal belongs to (see file comment). */
    struct Identity
    {
        std::uint64_t digest = 0;

        /** Human-readable rendering of the digested knobs, stored in
         * the header purely for error messages. */
        std::string description;
    };

    /**
     * Open @p path. With @p resume false any existing file is
     * discarded and a fresh header is written. With @p resume true the
     * log is recovered (torn tail truncated away), the header is
     * validated against @p identity, and every intact unit record
     * becomes replayable through find().
     *
     * Either way the journal is protected by an advisory exclusive
     * flock for the object's lifetime: a second campaign opening the
     * same path — the classic operator accident of resuming a
     * campaign that is still running — gets a clean ConfigError
     * instead of two writers interleaving frames into one file. The
     * lock dies with the process (SIGKILL included), so a crashed
     * campaign never wedges its own resume.
     *
     * @throws ConfigError  when resuming against a journal written by
     *                      a different campaign (or an empty file with
     *                      no header to trust), or when the journal is
     *                      locked by another live campaign.
     * @throws JournalError on I/O failure or a corrupt header.
     */
    CampaignJournal(std::string path, const Identity &identity,
                    bool resume);

    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /** Replayable record for (config name, test index), or nullptr if
     * that unit never completed before the crash. */
    const UnitRecord *find(const std::string &config_name,
                           std::uint32_t test_index) const;

    /** Append one completed unit: written at once, so a kill loses
     * nothing; fsynced by the writer's group commit (journal.h).
     * Thread-safe: campaign workers call this concurrently. */
    void append(const UnitRecord &record);

    /** Units recovered from the log at open (resume only). */
    std::size_t replayedUnits() const { return units.size(); }

    /** Torn-tail bytes discarded during recovery (resume only). */
    std::uint64_t droppedBytes() const { return dropped; }

  private:
    using Key = std::pair<std::string, std::uint32_t>;

    std::map<Key, UnitRecord> units;
    std::uint64_t dropped = 0;
    std::mutex appendMtx;
    std::unique_ptr<JournalWriter> writer;

    /** Holds the advisory flock; owned for the journal's lifetime.
     * Distinct from the writer's fd — flock conflicts live between
     * open file descriptions, and the writer never takes the lock, so
     * the two never fight each other. */
    int lockFd = -1;
};

/**
 * The campaign's journal/trace identity: a digest folded over every
 * result-determining knob (see the file comment) plus its readable
 * rendering. Exported so the offline trace format can fingerprint a
 * dump with exactly the digest a resume would demand.
 */
CampaignJournal::Identity campaignIdentity(
    const std::vector<TestConfig> &configs,
    const CampaignConfig &campaign);

} // namespace mtc

#endif // MTC_HARNESS_CAMPAIGN_JOURNAL_H
