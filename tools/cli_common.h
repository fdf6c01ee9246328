/**
 * @file
 * Flag parsing shared by the command-line tools: strict numeric flag
 * values whose errors name the flag, the campaign flags mtc_validate
 * and mtc_coordinator both take, and the fabric audit report line
 * both print.
 */

#ifndef MTC_TOOLS_CLI_COMMON_H
#define MTC_TOOLS_CLI_COMMON_H

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <ostream>
#include <string>

#include "dist/coordinator.h"
#include "harness/campaign.h"
#include "support/error.h"

namespace mtc::cli
{

/** Strict unsigned flag value; @p base 0 also accepts 0x-hex. */
inline std::uint64_t
parseCount(const std::string &flag, const std::string &text,
           int base = 10)
{
    try {
        std::size_t pos = 0;
        const std::uint64_t value = std::stoull(text, &pos, base);
        if (pos == text.size() && text[0] != '-')
            return value;
    } catch (const std::exception &) {
    }
    throw ConfigError(flag + " expects an unsigned integer, got \"" +
                      text + "\"");
}

/** Strict decimal flag value. */
inline double
parseRate(const std::string &flag, const std::string &text)
{
    try {
        std::size_t pos = 0;
        const double value = std::stod(text, &pos);
        if (pos == text.size())
            return value;
    } catch (const std::exception &) {
    }
    throw ConfigError(flag + " expects a number, got \"" + text + "\"");
}

/** Strict fraction in [0, 1]. */
inline double
parseRate01(const std::string &flag, const std::string &text)
{
    const double value = parseRate(flag, text);
    if (!(value >= 0.0 && value <= 1.0))
        throw ConfigError(flag + " expects a fraction in [0, 1], got \"" +
                          text + "\"");
    return value;
}

/** A path flag: an empty value is a mistake, not "no file". */
inline std::string
parsePath(const std::string &flag, const std::string &text)
{
    if (text.empty())
        throw ConfigError(flag + " expects a non-empty path");
    return text;
}

/**
 * Apply @p arg if it is one of the campaign flags both campaign CLIs
 * take (scale, seed, readout faults, confirmation, journal, watchdog,
 * fabric key and audit rate), pulling its value from @p next.
 * @return false, having consumed nothing, for any other flag.
 */
inline bool
applyCampaignFlag(CampaignConfig &c, const std::string &arg,
                  const std::function<std::string()> &next)
{
    if (arg == "--tests")
        c.testsPerConfig = static_cast<unsigned>(parseCount(arg, next()));
    else if (arg == "--iterations")
        c.iterations = parseCount(arg, next());
    else if (arg == "--seed")
        c.seed = parseCount(arg, next());
    else if (arg == "--fault-bitflip")
        c.fault.bitFlipRate = parseRate(arg, next());
    else if (arg == "--fault-torn")
        c.fault.tornStoreRate = parseRate(arg, next());
    else if (arg == "--fault-truncate")
        c.fault.truncationRate = parseRate(arg, next());
    else if (arg == "--fault-drop")
        c.fault.dropRate = parseRate(arg, next());
    else if (arg == "--fault-dup")
        c.fault.duplicateRate = parseRate(arg, next());
    else if (arg == "--fault-seed")
        c.fault.seed = parseCount(arg, next(), 0);
    else if (arg == "--confirm-k")
        c.recovery.confirmationRuns =
            static_cast<unsigned>(parseCount(arg, next()));
    else if (arg == "--journal")
        c.journalPath = parsePath(arg, next());
    else if (arg == "--resume")
        c.resume = true;
    else if (arg == "--test-timeout-ms")
        c.testTimeoutMs = parseCount(arg, next());
    else if (arg == "--fabric-key-file")
        c.distKeyFile = parsePath(arg, next());
    else if (arg == "--audit-rate")
        c.distAuditRate = parseRate01(arg, next());
    else
        return false;
    return true;
}

/** The Byzantine-audit report line. Deliberately NOT prefixed
 * "campaign": audit bookkeeping is operational, outside the
 * byte-compared summary block. */
inline void
printAuditReport(std::ostream &out, const ByzantineStats &b)
{
    out << "fabric byzantine: audits=" << b.auditsScheduled
        << " passed=" << b.auditsPassed
        << " mismatches=" << b.auditMismatches
        << " skipped=" << b.auditsSkipped
        << " arbitrations=" << b.localArbitrations
        << " invalidated=" << b.resultsInvalidated << " quarantined=";
    if (b.quarantined.empty())
        out << "-";
    for (std::size_t i = 0; i < b.quarantined.size(); ++i)
        out << (i ? "," : "") << b.quarantined[i];
    out << "\n";
}

} // namespace mtc::cli

#endif // MTC_TOOLS_CLI_COMMON_H
