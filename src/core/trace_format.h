/**
 * @file
 * Versioned trace interchange format for offline checking.
 *
 * A trace file decouples signature collection from signature checking:
 * a campaign (or, eventually, real silicon plus a log converter) dumps
 * one header record followed by per-test signature-stream records, and
 * `mtc_check` replays the streaming collective checker over them later,
 * on another machine, against the same deterministic verdicts. The file
 * reuses the length + FNV-1a frame codec (src/support/framing.h), so a
 * trace shares the journal's recovery discipline: the reader keeps the
 * longest prefix of intact frames and classifies everything else.
 *
 * Layout: every frame payload is `[u8 record kind][body bytes]`. The
 * first record must be a header (kind 1) carrying the format version,
 * a fingerprint of every result-determining campaign knob, and the
 * opaque producer spec blob from which the consumer re-derives test
 * programs. Record kinds this build does not know are skipped, not
 * rejected — a newer producer may append new record kinds without
 * breaking old consumers, as long as the format version matches.
 *
 * Threat model: trace files are integrity-checked, not authenticated.
 * Frame checksums and the header fingerprint catch disk rot, torn
 * writes, version skew, and accidental file mix-ups; they do not
 * defend against an adversary who can rewrite the file and recompute
 * its checksums. (Authenticated transport exists at the fabric layer;
 * files at rest inherit whatever trust their storage grants them.)
 * What this layer does guarantee, even for adversarial bytes, is
 * bounded behavior: every decoder bounds its allocations by the bytes
 * actually present and every failure is a classified TraceError —
 * never a crash, a hang, or an unbounded allocation.
 */

#ifndef MTC_CORE_TRACE_FORMAT_H
#define MTC_CORE_TRACE_FORMAT_H

#include <cstdint>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/journal.h"

namespace mtc
{

/** Classification of a trace-file ingestion failure. */
enum class TraceFaultKind : std::uint8_t
{
    Truncated,           ///< file/record ends before its declared content
    Corrupt,             ///< structurally invalid bytes (bad magic, tag, field)
    VersionSkew,         ///< produced by an incompatible format version
    FingerprintMismatch, ///< content disagrees with its recorded digest
};

/** Stable lower-case name for reports ("truncated", ...). */
const char *traceFaultName(TraceFaultKind kind);

/** A classified trace-file ingestion failure. */
class TraceError : public Error
{
  public:
    TraceError(TraceFaultKind kind_arg, const std::string &what_arg)
        : Error(what_arg), faultKind(kind_arg)
    {}

    TraceFaultKind kind() const { return faultKind; }

  private:
    TraceFaultKind faultKind;
};

/** Trace record kinds (first payload byte of every frame). */
constexpr std::uint8_t kTraceHeaderTag = 1;     ///< campaign fingerprint + spec
constexpr std::uint8_t kTraceUnitTag = 2;       ///< one unit's signature stream
constexpr std::uint8_t kTraceCheckpointTag = 3; ///< checker progress marker

/** Header magic, "MTCT" — rejects non-trace files immediately. */
constexpr std::uint32_t kTraceMagic = 0x4D544354;

/** Format version; bump on any incompatible layout change. */
constexpr std::uint32_t kTraceVersion = 1;

/**
 * First record of every trace: fingerprints every result-determining
 * knob so a consumer can refuse to check a trace against the wrong
 * campaign, and carries the opaque producer spec from which programs
 * and plans are re-derived (the harness owns that blob's codec).
 */
struct TraceHeader
{
    std::uint32_t version = kTraceVersion;

    /** Digest of the result-determining campaign identity (the same
     * fold the journal uses); recomputed from @ref spec on ingest and
     * a mismatch is classified FingerprintMismatch. */
    std::uint64_t identityDigest = 0;

    /** Human-readable identity ("seed=... iterations=..."). */
    std::string description;

    /** Opaque producer blob (an encoded CampaignSpec for campaign
     * traces; a binding digest for checkpoint files). */
    std::vector<std::uint8_t> spec;
};

/** Encode @p header as a header-record payload (kind byte included). */
std::vector<std::uint8_t> encodeTraceHeader(const TraceHeader &header);

/**
 * Decode a header-record body (kind byte already stripped).
 * @throws TraceError classified Truncated / Corrupt / VersionSkew.
 */
TraceHeader decodeTraceHeader(const std::vector<std::uint8_t> &body);

/**
 * Checker progress marker: one per unit verified by `mtc_check`, so a
 * killed check resumes without redoing finished work. The digest binds
 * the verdict to the exact unit-record bytes it covers — a checkpoint
 * replayed against an edited trace re-checks instead of trusting a
 * stale verdict.
 */
struct TraceCheckpointRecord
{
    std::string configName;
    std::uint32_t testIndex = 0;

    /** FNV-1a64 of the covered unit record's body bytes. */
    std::uint64_t payloadDigest = 0;

    /** 0 = verified clean; 1 = quarantined (see @ref note). */
    std::uint8_t quarantined = 0;

    /** Classification note for quarantined units. */
    std::string note;
};

/** Encode @p record as a checkpoint-record body (no kind byte:
 * TraceWriter::append() owns the tag, as for unit records). */
std::vector<std::uint8_t>
encodeTraceCheckpoint(const TraceCheckpointRecord &record);

/**
 * Decode a checkpoint-record body (kind byte already stripped).
 * @throws TraceError classified Truncated / Corrupt.
 */
TraceCheckpointRecord
decodeTraceCheckpoint(const std::vector<std::uint8_t> &body);

/**
 * Append-only trace writer (the group-commit JournalWriter underneath,
 * so a dump or checkpoint has the journal's durability contract).
 *
 * The two-constructor split mirrors the two producer situations: a
 * fresh dump truncates whatever was at @p path and stamps the header;
 * a resumed checkpoint writer appends behind an existing valid prefix
 * the caller has already read and truncated.
 */
class TraceWriter
{
  public:
    /** Start a fresh trace at @p path: truncate, write @p header.
     * @throws JournalError on I/O failure. */
    TraceWriter(const std::string &path, const TraceHeader &header);

    /** Append to an existing trace; no header is written. The caller
     * must have validated the file (readTraceFile) and truncated any
     * torn tail (truncateToValidPrefix) first. */
    explicit TraceWriter(const std::string &path);

    /** Append one record of @p kind. @throws JournalError on I/O. */
    void append(std::uint8_t kind, const std::vector<std::uint8_t> &body);

    /** fsync any pending record (end-of-dump barrier). */
    void sync();

  private:
    JournalWriter writer;
};

/** One non-header record of a trace file. */
struct TraceRecord
{
    std::uint8_t kind = 0;
    std::vector<std::uint8_t> body; ///< payload minus the kind byte
};

/** A read-and-recovered trace file. */
struct TraceFile
{
    TraceHeader header;

    /** Records of known kinds, in file order. */
    std::vector<TraceRecord> records;

    /** Byte length of the intact frame prefix. */
    std::uint64_t validBytes = 0;

    /** Bytes dropped behind the last intact frame (torn tail). */
    std::uint64_t droppedBytes = 0;

    /** Records of unknown kinds skipped for forward compatibility. */
    std::uint64_t unknownSkipped = 0;

    /** Intact frames whose payload was empty (no kind byte) — a
     * producer bug or forged file, never emitted by this writer. */
    std::uint64_t malformedRecords = 0;
};

/**
 * Read @p path, recover to the longest intact frame prefix, and
 * perform the header handshake.
 *
 * A torn tail — the expected product of a producer killed mid-dump —
 * is recovered, not thrown: intact records before the tear are
 * returned and @ref TraceFile::droppedBytes reports the loss, so the
 * caller can check the longest intact prefix and decide (strict vs
 * degraded) whether partial coverage is acceptable.
 *
 * @throws TraceError Truncated for a missing/empty file, Corrupt when
 *         the first record is not a well-formed header, VersionSkew on
 *         a format-version mismatch.
 */
TraceFile readTraceFile(const std::string &path);

} // namespace mtc

#endif // MTC_CORE_TRACE_FORMAT_H
