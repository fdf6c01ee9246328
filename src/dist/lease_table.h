/**
 * @file
 * Lease accounting for the distributed campaign fabric.
 *
 * The coordinator shards a campaign's flat unit list 0..n-1 into
 * *leases*: short-lived grants of a unit batch to one worker. The
 * table is the single source of truth for the fabric's two robustness
 * invariants:
 *
 *   no unit lost      — a unit leaves `pending` only into an open
 *                       lease or the done set; revoking a lease
 *                       (worker death, lease timeout) returns its
 *                       unfinished units for reassignment;
 *   no double count   — a global per-unit done flag makes the first
 *                       result win; a stale duplicate (a revoked
 *                       lease's worker limping in late, a unit
 *                       re-executed after reassignment) is detected
 *                       and dropped by the caller.
 *
 * Pure bookkeeping: no I/O, no time source (callers pass deadlines as
 * steady_clock points), trivially unit-testable.
 */

#ifndef MTC_DIST_LEASE_TABLE_H
#define MTC_DIST_LEASE_TABLE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

namespace mtc
{

/** Verdict on a reported unit result. */
enum class LeaseResult : std::uint8_t
{
    Accepted,      ///< first result for this unit; count it
    AcceptedAudit, ///< audit re-execution result; cross-check it
    Duplicate, ///< unit already done (stale lease / reassignment race)
    Unknown    ///< lease id was never granted or already closed
};

/** See file comment. Single-threaded (the coordinator's poll loop). */
class LeaseTable
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit LeaseTable(std::size_t unit_count);

    /** Units not done and not in any open lease, in dispatch order. */
    std::size_t pendingCount() const { return pending.size(); }

    /** Done AND no audit still open: an audited unit's result is held
     * by the coordinator until its cross-check resolves, so the
     * campaign must not end while one is outstanding. */
    bool allDone() const
    {
        return doneCount == unitCount && auditOpen == 0;
    }

    std::size_t unitsDone() const { return doneCount; }

    /** Pop up to @p max pending units for granting. */
    std::vector<std::size_t> takePending(std::size_t max);

    /** Return units to the front of the pending queue (dispatch-order
     * position is what keeps retried units ahead of fresh work: a
     * sandboxed worker's lost unit runs next, on whichever worker is
     * free first). */
    void requeueFront(const std::vector<std::size_t> &units);

    /** Mark a unit done outside any lease (journal replay, tripped
     * breaker, a loss the client gave up on). */
    void markDone(std::size_t unit);

    bool isDone(std::size_t unit) const { return done[unit]; }

    /**
     * Open a lease over @p units for @p owner (an opaque connection
     * id). @p deadline is the expiry instant; pass Clock::time_point
     * ::max() when lease timeouts are off. An audit lease re-executes
     * already-done units for cross-checking; its results come back as
     * AcceptedAudit and never touch the done set.
     * @return the new lease id (monotonic, never reused).
     */
    std::uint64_t openLease(std::uint64_t owner,
                            const std::vector<std::size_t> &units,
                            Clock::time_point deadline,
                            bool is_audit = false);

    /**
     * Record a result for @p unit under @p lease. Accepted marks the
     * unit done and removes it from the lease; a lease whose units
     * are all done is closed automatically. AcceptedAudit reports an
     * audit re-execution; the unit stays in audit-open state until
     * resolveAudit() or reopenUnit().
     */
    LeaseResult completeUnit(std::uint64_t lease, std::size_t unit);

    /**
     * Flag a just-completed @p unit for audit re-execution: it joins
     * the audit queue and allDone() blocks until the audit resolves.
     * No-op if the unit is not done or already under audit.
     */
    void requireAudit(std::size_t unit);

    /** Audit verdict is in (pass, arbitrated, or skipped): the unit's
     * audit-open state clears and allDone() can see past it. */
    void resolveAudit(std::size_t unit);

    /**
     * Invalidate a unit's result (its producer was convicted): done
     * flag cleared, any audit state cancelled, the unit returns to
     * the front of the pending queue for honest re-execution.
     */
    void reopenUnit(std::size_t unit);

    /**
     * Pop up to @p max audit-queued units for which @p eligible
     * returns true (the coordinator filters out the primary worker:
     * an audit by its own author proves nothing).
     */
    std::vector<std::size_t>
    takeAuditPending(std::size_t max,
                     const std::function<bool(std::size_t)> &eligible);

    /** Audit-queued units awaiting a grant. */
    std::size_t auditQueuedCount() const { return auditQueue.size(); }

    /** Units in any audit state (queued or audit-leased). */
    std::size_t auditOpenCount() const { return auditOpen; }

    /**
     * Revoke @p lease: its not-yet-done units go back to the front of
     * the pending queue. @return those units (for the caller's loss
     * accounting), empty if the lease is unknown.
     */
    std::vector<std::size_t> revokeLease(std::uint64_t lease);

    /** Open lease ids owned by @p owner (a dying connection). */
    std::vector<std::uint64_t> leasesOf(std::uint64_t owner) const;

    /** Whether @p lease is an open audit lease. */
    bool leaseIsAudit(std::uint64_t lease) const;

    /** Owner of open lease @p lease; 0 (never a connection id) if it
     * is closed. */
    std::uint64_t leaseOwner(std::uint64_t lease) const;

    /** Open lease ids whose deadline passed at @p now. */
    std::vector<std::uint64_t> expired(Clock::time_point now) const;

    /** Open leases held by @p owner (backpressure accounting). */
    std::size_t openLeaseCount(std::uint64_t owner) const;

  private:
    struct Lease
    {
        std::uint64_t owner = 0;
        std::vector<std::size_t> units;
        Clock::time_point deadline{};
        bool isAudit = false;
    };

    /** Audit lifecycle of one unit. */
    enum class AuditState : std::uint8_t
    {
        None = 0,   ///< not under audit
        Queued = 1, ///< awaiting an audit lease
        Leased = 2  ///< granted to an auditor
    };

    std::size_t unitCount;
    std::size_t doneCount = 0;
    std::vector<bool> done;
    std::deque<std::size_t> pending;
    std::map<std::uint64_t, Lease> leases;
    std::uint64_t nextLeaseId = 1;
    std::vector<AuditState> auditState;
    std::deque<std::size_t> auditQueue;
    std::size_t auditOpen = 0;
};

} // namespace mtc

#endif // MTC_DIST_LEASE_TABLE_H
