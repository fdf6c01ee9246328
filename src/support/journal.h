/**
 * @file
 * Write-ahead campaign journal: append-only, checksum-framed records.
 *
 * Long post-silicon campaigns die for boring reasons — operator
 * preemption, OOM kills, power events — and losing a million completed
 * iterations to a SIGKILL is a throughput disaster (the paper's
 * Section 5 campaigns run for hours). The journal makes completed
 * (config, test) units durable: each record is framed as
 *
 *     [u32 payload length][u32 FNV-1a checksum][payload bytes]
 *
 * (little-endian, the shared codec in src/support/framing.h), written
 * with one write() at append and made durable by group commit (see
 * JournalWriter). On resume the reader walks the file from the
 * front and keeps the longest prefix of intact frames; a tail torn by
 * the kill — a partial length word, a partial payload, a checksum
 * mismatch — is detected and dropped, the file is truncated back to
 * the valid prefix, and appending continues from there. Nothing in
 * this layer knows what a payload means; record semantics (campaign
 * identity, unit results) live in src/harness/campaign_journal.h,
 * keeping this file free of harness dependencies.
 */

#ifndef MTC_SUPPORT_JOURNAL_H
#define MTC_SUPPORT_JOURNAL_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/framing.h"

namespace mtc
{

/** An I/O or framing failure in the journal layer. */
class JournalError : public Error
{
  public:
    explicit JournalError(const std::string &what_arg) : Error(what_arg)
    {}
};

/**
 * Little-endian payload encoder. Fixed-width fields only: a record
 * must decode bit-identically on any host, and doubles are stored as
 * their IEEE-754 bit patterns so a replayed summary reproduces the
 * original run's arithmetic inputs exactly.
 */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { buf.push_back(v); }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** Stored as the IEEE-754 bit pattern (bit-exact round trip). */
    void f64(double v);

    /** u32 length prefix + raw bytes. */
    void str(const std::string &v);

    const std::vector<std::uint8_t> &bytes() const { return buf; }

  private:
    std::vector<std::uint8_t> buf;
};

/** Decoder matching ByteWriter; underruns throw JournalError. */
class ByteReader
{
  public:
    explicit ByteReader(const std::vector<std::uint8_t> &bytes)
        : p(bytes.data()), end(bytes.data() + bytes.size())
    {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();

    bool exhausted() const { return p == end; }

    /** Bytes left to read. Callers decoding untrusted length prefixes
     * must bound their allocations by this — a forged count must be
     * rejected as truncation, never attempted as an allocation. */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - p);
    }

  private:
    void need(std::size_t n) const;

    const std::uint8_t *p;
    const std::uint8_t *end;
};

/**
 * Append-only journal writer with group commit.
 *
 * Every append is written (frame header + payload) with one write(),
 * so a killed process loses nothing it appended: the records are in
 * the page cache and reach the disk without the process. fsync, which
 * guards against a power loss or kernel crash instead, is issued at
 * an append only once kGroupRecords records are pending or
 * kGroupInterval has passed since the last fsync; sync() and close()
 * issue one only when a record is pending. So a power loss costs at
 * most the records appended since the last fsync: fewer than
 * kGroupRecords, all appended within kGroupInterval of it. A record
 * appended to a quiet journal (a slow campaign) is synced at its own
 * append. Whatever is lost is a clean record boundary or a torn tail
 * the reader recovers from either way. Thread-compatible, not
 * thread-safe: callers serialize appends (CampaignJournal holds the
 * mutex).
 */
class JournalWriter
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Group-commit bounds: an append fsyncs when this many records
     * are pending ... */
    static constexpr unsigned kGroupRecords = 256;

    /** ... or when this long has passed since the last fsync (the
     * clock starts at open). */
    static constexpr Clock::duration kGroupInterval =
        std::chrono::milliseconds(100);

    /**
     * Open @p path for appending, creating it if absent.
     *
     * @param now Time source for the interval bound; tests substitute
     *            a fake clock.
     * @throws JournalError if the file cannot be opened.
     */
    explicit JournalWriter(std::string path,
                           std::function<Clock::time_point()> now =
                               Clock::now);

    /** close(); an I/O error here is logged, not thrown — throwing
     * from a destructor mid-unwind would abort the campaign the
     * journal exists to protect. */
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Frame @p payload and append it; fsync when a group bound is
     * reached. @throws JournalError on I/O failure (short write, disk
     * full). */
    void append(const std::vector<std::uint8_t> &payload);

    /** fsync now if any record is pending (a barrier such as the
     * header record or the end of a dump). */
    void sync();

    /** sync() and close the file; idempotent. @throws JournalError
     * when the final fsync fails (the file is closed either way). */
    void close();

    std::uint64_t recordsWritten() const { return records; }

    /** fsyncs issued so far. */
    std::uint64_t syncs() const { return syncCount; }

    /** File length the last fsync covered (0 before the first): a
     * power loss keeps at least this prefix, which ends on a frame
     * boundary. */
    std::uint64_t syncedBytes() const { return synced; }

  private:
    void fsyncNow();

    std::string path;
    int fd = -1;
    std::function<Clock::time_point()> now;
    Clock::time_point lastSync;
    unsigned pending = 0;
    std::uint64_t records = 0;
    std::uint64_t syncCount = 0;
    std::uint64_t fileBytes = 0;
    std::uint64_t synced = 0;
};

/** Result of scanning a journal file for its valid prefix. */
struct JournalRecovery
{
    /** Payloads of every intact record, in file order. */
    std::vector<std::vector<std::uint8_t>> records;

    /** Byte length of the valid prefix (torn tail starts here). */
    std::uint64_t validBytes = 0;

    /** Bytes dropped behind the last intact record (0 = clean file). */
    std::uint64_t droppedBytes = 0;
};

/**
 * Scan @p path front to back, keeping the longest prefix of intact
 * frames. A missing file yields an empty recovery (a campaign that
 * never checkpointed resumes from nothing). Corruption past the valid
 * prefix is reported, not thrown: a torn tail is the expected product
 * of a SIGKILL, not an error.
 */
JournalRecovery readJournal(const std::string &path);

/**
 * Truncate @p path to @p recovery's valid prefix so a writer can
 * append after the last intact record. No-op when nothing was torn.
 * @throws JournalError on I/O failure.
 */
void truncateToValidPrefix(const std::string &path,
                           const JournalRecovery &recovery);

} // namespace mtc

#endif // MTC_SUPPORT_JOURNAL_H
