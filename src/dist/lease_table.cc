#include "dist/lease_table.h"

#include <algorithm>

namespace mtc
{

LeaseTable::LeaseTable(std::size_t unit_count)
    : unitCount(unit_count), done(unit_count, false),
      auditState(unit_count, AuditState::None)
{
    for (std::size_t u = 0; u < unit_count; ++u)
        pending.push_back(u);
}

std::vector<std::size_t>
LeaseTable::takePending(std::size_t max)
{
    std::vector<std::size_t> units;
    while (!pending.empty() && units.size() < max) {
        units.push_back(pending.front());
        pending.pop_front();
    }
    return units;
}

void
LeaseTable::requeueFront(const std::vector<std::size_t> &units)
{
    // Reverse order so units.front() ends up at pending.front().
    for (auto it = units.rbegin(); it != units.rend(); ++it)
        pending.push_front(*it);
}

void
LeaseTable::markDone(std::size_t unit)
{
    if (done[unit])
        return;
    done[unit] = true;
    ++doneCount;
    // A unit given up on after a revocation re-queued it must not be
    // granted again.
    const auto it = std::find(pending.begin(), pending.end(), unit);
    if (it != pending.end())
        pending.erase(it);
}

std::uint64_t
LeaseTable::openLease(std::uint64_t owner,
                      const std::vector<std::size_t> &units,
                      Clock::time_point deadline, bool is_audit)
{
    const std::uint64_t id = nextLeaseId++;
    Lease lease;
    lease.owner = owner;
    lease.units = units;
    lease.deadline = deadline;
    lease.isAudit = is_audit;
    if (is_audit) {
        for (const std::size_t unit : units)
            auditState[unit] = AuditState::Leased;
    }
    leases.emplace(id, std::move(lease));
    return id;
}

LeaseResult
LeaseTable::completeUnit(std::uint64_t lease, std::size_t unit)
{
    if (unit >= unitCount)
        return LeaseResult::Unknown;
    const auto it = leases.find(lease);
    if (it == leases.end()) {
        // The lease was revoked (worker presumed dead, or timed out)
        // and this is its owner limping in late. If the unit has been
        // re-executed already the flag catches it; if not, the result
        // is still stale — the reassignment owns the unit now.
        return done[unit] ? LeaseResult::Duplicate
                          : LeaseResult::Unknown;
    }
    std::vector<std::size_t> &units = it->second.units;
    const auto pos = std::find(units.begin(), units.end(), unit);
    if (pos == units.end())
        return done[unit] ? LeaseResult::Duplicate
                          : LeaseResult::Unknown;
    if (it->second.isAudit) {
        // An audit re-execution: the unit is already done (by its
        // primary); this result exists only to be cross-checked.
        units.erase(pos);
        if (units.empty())
            leases.erase(it);
        return auditState[unit] == AuditState::Leased
                   ? LeaseResult::AcceptedAudit
                   : LeaseResult::Duplicate; // audit was cancelled
    }
    if (done[unit]) {
        // Reassignment race: another lease finished this unit first.
        units.erase(pos);
        if (units.empty())
            leases.erase(it);
        return LeaseResult::Duplicate;
    }
    done[unit] = true;
    ++doneCount;
    units.erase(pos);
    if (units.empty())
        leases.erase(it);
    return LeaseResult::Accepted;
}

std::vector<std::size_t>
LeaseTable::revokeLease(std::uint64_t lease)
{
    const auto it = leases.find(lease);
    if (it == leases.end())
        return {};
    if (it->second.isAudit) {
        // Unfinished audit units go back to the audit queue, not the
        // pending queue: their primary results are still held and
        // still need a cross-check.
        std::vector<std::size_t> lost;
        for (const std::size_t unit : it->second.units) {
            if (auditState[unit] == AuditState::Leased) {
                auditState[unit] = AuditState::Queued;
                auditQueue.push_front(unit);
                lost.push_back(unit);
            }
        }
        leases.erase(it);
        return lost;
    }
    std::vector<std::size_t> lost;
    for (const std::size_t unit : it->second.units) {
        if (!done[unit])
            lost.push_back(unit);
    }
    leases.erase(it);
    requeueFront(lost);
    return lost;
}

void
LeaseTable::requireAudit(std::size_t unit)
{
    if (unit >= unitCount || !done[unit] ||
        auditState[unit] != AuditState::None)
        return;
    auditState[unit] = AuditState::Queued;
    auditQueue.push_back(unit);
    ++auditOpen;
}

void
LeaseTable::resolveAudit(std::size_t unit)
{
    if (unit >= unitCount || auditState[unit] == AuditState::None)
        return;
    if (auditState[unit] == AuditState::Queued) {
        const auto it =
            std::find(auditQueue.begin(), auditQueue.end(), unit);
        if (it != auditQueue.end())
            auditQueue.erase(it);
    }
    auditState[unit] = AuditState::None;
    --auditOpen;
}

void
LeaseTable::reopenUnit(std::size_t unit)
{
    if (unit >= unitCount)
        return;
    if (auditState[unit] != AuditState::None) {
        resolveAudit(unit); // clears queue membership and auditOpen
        // If an auditor still holds the unit in an open audit lease,
        // pull it out: its eventual result must read as stale.
        for (auto it = leases.begin(); it != leases.end();) {
            Lease &lease = it->second;
            if (lease.isAudit) {
                const auto pos = std::find(lease.units.begin(),
                                           lease.units.end(), unit);
                if (pos != lease.units.end())
                    lease.units.erase(pos);
                if (lease.units.empty()) {
                    it = leases.erase(it);
                    continue;
                }
            }
            ++it;
        }
    }
    if (done[unit]) {
        done[unit] = false;
        --doneCount;
    }
    pending.push_front(unit);
}

std::vector<std::size_t>
LeaseTable::takeAuditPending(
    std::size_t max, const std::function<bool(std::size_t)> &eligible)
{
    std::vector<std::size_t> units;
    for (auto it = auditQueue.begin();
         it != auditQueue.end() && units.size() < max;) {
        if (eligible(*it)) {
            units.push_back(*it);
            it = auditQueue.erase(it);
        } else {
            ++it;
        }
    }
    return units;
}

bool
LeaseTable::leaseIsAudit(std::uint64_t lease) const
{
    const auto it = leases.find(lease);
    return it != leases.end() && it->second.isAudit;
}

std::uint64_t
LeaseTable::leaseOwner(std::uint64_t lease) const
{
    const auto it = leases.find(lease);
    return it != leases.end() ? it->second.owner : 0;
}

std::vector<std::uint64_t>
LeaseTable::leasesOf(std::uint64_t owner) const
{
    std::vector<std::uint64_t> ids;
    for (const auto &[id, lease] : leases) {
        if (lease.owner == owner)
            ids.push_back(id);
    }
    return ids;
}

std::vector<std::uint64_t>
LeaseTable::expired(Clock::time_point now) const
{
    std::vector<std::uint64_t> ids;
    for (const auto &[id, lease] : leases) {
        if (lease.deadline <= now)
            ids.push_back(id);
    }
    return ids;
}

std::size_t
LeaseTable::openLeaseCount(std::uint64_t owner) const
{
    std::size_t n = 0;
    for (const auto &[id, lease] : leases) {
        if (lease.owner == owner)
            ++n;
    }
    return n;
}

} // namespace mtc
