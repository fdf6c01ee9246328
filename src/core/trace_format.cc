#include "core/trace_format.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/framing.h"

namespace mtc
{

namespace
{

/** Decoders below bound every length-prefixed read by the bytes
 * actually present, so a forged count is classified Truncated before
 * any allocation attempt. */
void
boundOrThrow(std::size_t want, std::size_t have, const char *what)
{
    if (want > have)
        throw TraceError(TraceFaultKind::Truncated,
                         std::string(what) + " truncated: " +
                             std::to_string(want) +
                             " bytes declared, " + std::to_string(have) +
                             " present");
}

/** Re-classify a ByteReader underrun as a trace truncation. */
template <typename Fn>
auto
classified(const char *what, Fn &&fn)
{
    try {
        return fn();
    } catch (const JournalError &err) {
        throw TraceError(TraceFaultKind::Truncated,
                         std::string(what) + " truncated: " + err.what());
    }
}

} // anonymous namespace

const char *
traceFaultName(TraceFaultKind kind)
{
    switch (kind) {
    case TraceFaultKind::Truncated:
        return "truncated";
    case TraceFaultKind::Corrupt:
        return "corrupt";
    case TraceFaultKind::VersionSkew:
        return "version-skew";
    case TraceFaultKind::FingerprintMismatch:
        return "fingerprint-mismatch";
    }
    return "unknown";
}

std::vector<std::uint8_t>
encodeTraceHeader(const TraceHeader &header)
{
    ByteWriter w;
    w.u8(kTraceHeaderTag);
    w.u32(kTraceMagic);
    w.u32(header.version);
    w.u64(header.identityDigest);
    w.str(header.description);
    w.u32(static_cast<std::uint32_t>(header.spec.size()));
    for (const std::uint8_t b : header.spec)
        w.u8(b);
    return w.bytes();
}

TraceHeader
decodeTraceHeader(const std::vector<std::uint8_t> &body)
{
    return classified("trace header", [&] {
        ByteReader r(body);
        if (r.u32() != kTraceMagic)
            throw TraceError(TraceFaultKind::Corrupt,
                             "trace header: bad magic (not a trace file)");
        TraceHeader h;
        h.version = r.u32();
        if (h.version != kTraceVersion)
            throw TraceError(
                TraceFaultKind::VersionSkew,
                "trace format version " + std::to_string(h.version) +
                    ", this build reads version " +
                    std::to_string(kTraceVersion));
        h.identityDigest = r.u64();
        h.description = r.str();
        const std::uint32_t spec_len = r.u32();
        boundOrThrow(spec_len, r.remaining(), "trace header spec");
        h.spec.resize(spec_len);
        for (std::uint32_t i = 0; i < spec_len; ++i)
            h.spec[i] = r.u8();
        if (!r.exhausted())
            throw TraceError(TraceFaultKind::Corrupt,
                             "trace header: trailing bytes after spec");
        return h;
    });
}

std::vector<std::uint8_t>
encodeTraceCheckpoint(const TraceCheckpointRecord &record)
{
    // Body only — TraceWriter::append() owns the kind tag, exactly as
    // for unit records. (The header is the one self-tagged payload,
    // because readTraceFile must recognise it before any decode.)
    ByteWriter w;
    w.str(record.configName);
    w.u32(record.testIndex);
    w.u64(record.payloadDigest);
    w.u8(record.quarantined);
    w.str(record.note);
    return w.bytes();
}

TraceCheckpointRecord
decodeTraceCheckpoint(const std::vector<std::uint8_t> &body)
{
    return classified("trace checkpoint record", [&] {
        ByteReader r(body);
        TraceCheckpointRecord rec;
        rec.configName = r.str();
        rec.testIndex = r.u32();
        rec.payloadDigest = r.u64();
        rec.quarantined = r.u8();
        if (rec.quarantined > 1)
            throw TraceError(
                TraceFaultKind::Corrupt,
                "trace checkpoint record: verdict byte out of range");
        rec.note = r.str();
        if (!r.exhausted())
            throw TraceError(TraceFaultKind::Corrupt,
                             "trace checkpoint record: trailing bytes");
        return rec;
    });
}

namespace
{

/** Truncate-or-create @p path so a fresh dump never inherits stale
 * frames from a previous run at the same path. */
void
truncateForFreshTrace(const std::string &path)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throw JournalError("trace open failed: " + path + ": " +
                           std::strerror(errno));
    ::close(fd);
}

const std::string &
freshTracePath(const std::string &path)
{
    truncateForFreshTrace(path);
    return path;
}

} // anonymous namespace

TraceWriter::TraceWriter(const std::string &path,
                         const TraceHeader &header)
    : writer(freshTracePath(path))
{
    writer.append(encodeTraceHeader(header));
    writer.sync();
}

TraceWriter::TraceWriter(const std::string &path) : writer(path)
{}

void
TraceWriter::append(std::uint8_t kind,
                    const std::vector<std::uint8_t> &body)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(body.size() + 1);
    payload.push_back(kind);
    payload.insert(payload.end(), body.begin(), body.end());
    writer.append(payload);
}

void
TraceWriter::sync()
{
    writer.sync();
}

TraceFile
readTraceFile(const std::string &path)
{
    const JournalRecovery recovery = readJournal(path);
    if (recovery.records.empty())
        throw TraceError(TraceFaultKind::Truncated,
                         "trace file " + path +
                             " is missing, empty, or torn before its "
                             "first record");

    const std::vector<std::uint8_t> &first = recovery.records.front();
    if (first.empty() || first[0] != kTraceHeaderTag)
        throw TraceError(TraceFaultKind::Corrupt,
                         "trace file " + path +
                             " does not start with a header record");

    TraceFile out;
    out.header = decodeTraceHeader(std::vector<std::uint8_t>(
        first.begin() + 1, first.end()));
    out.validBytes = recovery.validBytes;
    out.droppedBytes = recovery.droppedBytes;

    for (std::size_t i = 1; i < recovery.records.size(); ++i) {
        const std::vector<std::uint8_t> &payload = recovery.records[i];
        if (payload.empty()) {
            ++out.malformedRecords;
            continue;
        }
        const std::uint8_t kind = payload[0];
        if (kind != kTraceUnitTag && kind != kTraceCheckpointTag) {
            // Forward compatibility: a newer producer's record kinds
            // are skipped, not fatal — the version handshake already
            // guaranteed the kinds we DO know decode identically.
            ++out.unknownSkipped;
            continue;
        }
        TraceRecord rec;
        rec.kind = kind;
        rec.body.assign(payload.begin() + 1, payload.end());
        out.records.push_back(std::move(rec));
    }
    return out;
}

} // namespace mtc
