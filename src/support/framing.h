/**
 * @file
 * Length + FNV-1a record framing, shared by the journal and every
 * worker link.
 *
 * A frame is
 *
 *     [u32 payload length][u32 header check][u32 FNV-1a checksum]
 *     [payload bytes]
 *
 * (little-endian), where the header check is FNV-1a over the four
 * length bytes. The length word steers how many bytes the reader
 * consumes next, so it must be validatable BEFORE those bytes are
 * read: without the check, a single corrupted length bit makes a
 * blocking reader wait for payload that was never sent — a stall no
 * payload checksum can catch, because that checksum is only testable
 * after the payload arrives. With it, a mangled header is classified
 * Corrupt immediately.
 *
 * The same codec serves two transports with two failure models: an
 * append-only journal file, where a torn tail is the expected product
 * of a SIGKILL and is recovered from silently (src/support/journal.h),
 * and a coordinator<->worker stream, where a torn frame means the peer
 * died mid-record and is reported as an error so the loss can be
 * classified (src/dist/fleet.h). This layer knows nothing about
 * payload semantics; it only frames bytes.
 */

#ifndef MTC_SUPPORT_FRAMING_H
#define MTC_SUPPORT_FRAMING_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/error.h"

namespace mtc
{

/** An I/O or integrity failure on a framed stream. */
class FramingError : public Error
{
  public:
    explicit FramingError(const std::string &what_arg) : Error(what_arg)
    {}
};

/** FNV-1a over @p len bytes — the frame checksum. */
std::uint32_t fnv1a32(const void *data, std::size_t len);

/** 64-bit FNV-1a, seedable so digests can be chained. */
std::uint64_t fnv1a64(const void *data, std::size_t len,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/** Bytes of frame header preceding every payload. */
constexpr std::size_t kFrameHeaderBytes = 12;

/** Frames larger than this are treated as corruption, not records: a
 * torn length word must not make a reader try to allocate gigabytes.
 * Unit records are a few KB. This is the default ceiling; readers on
 * untrusted streams (network transports) may tighten it per call. */
constexpr std::uint32_t kMaxFramePayloadBytes = 64u << 20;

void putLe32(std::uint8_t *out, std::uint32_t v);
std::uint32_t getLe32(const std::uint8_t *in);

/** Append [len][header check][checksum][payload] for @p payload. */
void appendFrame(std::vector<std::uint8_t> &out,
                 const std::uint8_t *payload, std::size_t len);

/** Outcome of scanning a byte range for one frame. */
enum class FrameStatus : std::uint8_t
{
    Complete,   ///< an intact frame starts at the scan position
    Incomplete, ///< header or payload extends past the range
    Corrupt     ///< absurd length or checksum mismatch
};

/** One parsed frame (valid only while the scanned bytes live). */
struct FrameView
{
    FrameStatus status = FrameStatus::Incomplete;
    const std::uint8_t *payload = nullptr;
    std::uint32_t length = 0;

    /** Header + payload bytes consumed when status is Complete. */
    std::size_t frameBytes = 0;
};

/**
 * Parse the frame starting at @p data (up to @p size bytes).
 *
 * @param max_payload Length ceiling: a header advertising more than
 *        this is classified Corrupt before any allocation happens —
 *        the defense against a forged or torn length word.
 */
FrameView parseFrame(const std::uint8_t *data, std::size_t size,
                     std::uint32_t max_payload = kMaxFramePayloadBytes);

/**
 * Write one frame to @p fd, retrying short writes and EINTR.
 *
 * @param what Stream name used in error messages.
 * @throws FramingError on I/O failure (EPIPE when the peer died).
 */
void writeFrame(int fd, const std::vector<std::uint8_t> &payload,
                const std::string &what);

/**
 * Write pre-built frame bytes to @p fd verbatim, retrying short
 * writes and EINTR — writeFrame() minus the framing, for callers
 * that already hold a serialized frame (fault-injection decorators).
 * @throws FramingError on I/O failure.
 */
void writeFrameBytes(int fd, const std::uint8_t *data, std::size_t len,
                     const std::string &what);

/**
 * Blocking-read one frame from @p fd into @p payload.
 *
 * @param max_payload Length ceiling, as for parseFrame(): an
 *        oversized header is a framing fault, never an allocation.
 * @param frame_deadline_ms When nonzero, the whole frame must arrive
 *        within this many milliseconds of its FIRST byte. Waiting for
 *        a frame to start still blocks indefinitely (an idle peer is
 *        not a fault), but a peer that starts a frame and then
 *        withholds the rest — a slow-loris, or a length word the
 *        header check somehow missed — is a framing fault, not a
 *        caller frozen forever. Mandatory hygiene for network streams
 *        whose reader is a single-threaded event loop.
 * @return true on a complete frame; false on clean EOF at a frame
 *         boundary (the peer closed its end between records).
 * @throws FramingError on EOF mid-frame (the peer died while
 *         writing), a header-check or checksum mismatch, an absurd
 *         length, a blown frame deadline, or an I/O error.
 */
bool readFrame(int fd, std::vector<std::uint8_t> &payload,
               const std::string &what,
               std::uint32_t max_payload = kMaxFramePayloadBytes,
               std::uint32_t frame_deadline_ms = 0);

} // namespace mtc

#endif // MTC_SUPPORT_FRAMING_H
