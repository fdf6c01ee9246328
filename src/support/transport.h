/**
 * @file
 * Framed record transport over file descriptors.
 *
 * One codec, every wire: the fabric's TCP sockets and a sandboxed
 * fleet's socketpairs (src/dist/fleet.h) move length+FNV-1a framed
 * byte vectors (src/support/framing.h), as does a pipe pair. A
 * Transport owns the descriptor(s) and exposes exactly the
 * send/receive/half-close surface they need, so the local and network
 * paths cannot drift apart — a framing fix or a hardening rule (max
 * frame size) lands in all of them at once.
 *
 * The surface is virtual so decorators can interpose: FaultyTransport
 * (src/support/fault_transport.h) injects seeded network faults for
 * chaos drills without either endpoint knowing.
 *
 * After a fabric handshake derives a session key, enableFrameAuth()
 * arms a per-frame envelope: every payload is extended with a
 * monotonic 8-byte sequence number and a truncated HMAC-SHA256 tag
 * before framing. The checksum in the frame header catches accidents;
 * the MAC catches forgery, and the sequence number catches replayed
 * or reordered frames — either failure is an AuthError and the
 * connection is torn down.
 *
 * Thread-compatible, not thread-safe: concurrent senders serialize
 * outside (the worker client's heartbeat thread holds a send mutex).
 */

#ifndef MTC_SUPPORT_TRANSPORT_H
#define MTC_SUPPORT_TRANSPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "support/framing.h"
#include "support/hmac.h"

namespace mtc
{

/** A per-frame MAC or sequence-number failure on an authenticated
 * transport. Subtype of FramingError so every existing drop/reconnect
 * path treats it as the connection-fatal fault it is. */
class AuthError : public FramingError
{
  public:
    explicit AuthError(const std::string &what_arg)
        : FramingError(what_arg)
    {}
};

/** Bytes the auth envelope appends to every framed payload. */
constexpr std::size_t kFrameSeqBytes = 8;
constexpr std::size_t kFrameMacBytes = 16;
constexpr std::size_t kFrameAuthBytes =
    kFrameSeqBytes + kFrameMacBytes;

/** Framed duplex channel over owned descriptor(s); see file comment. */
class Transport
{
  public:
    /** An unconnected transport; valid() is false. */
    Transport() = default;

    /** Pipe pair: distinct read and write descriptors, both owned. */
    Transport(int read_fd, int write_fd, std::string stream_name);

    /** Socket: one full-duplex descriptor, owned (closed once). */
    Transport(int socket_fd, std::string stream_name);

    virtual ~Transport();

    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;
    Transport(Transport &&other) noexcept;
    Transport &operator=(Transport &&other) noexcept;

    virtual bool valid() const { return rfd >= 0 || wfd >= 0; }

    /** Frame and send @p payload. @throws FramingError on I/O failure
     * (EPIPE / ECONNRESET when the peer died). */
    virtual void send(const std::vector<std::uint8_t> &payload);

    /** Blocking-receive one frame. @return false on clean EOF at a
     * frame boundary; @throws FramingError on a torn or oversized
     * frame, a checksum mismatch, or an I/O error; @throws AuthError
     * on a MAC or sequence failure when frame auth is armed. */
    virtual bool receive(std::vector<std::uint8_t> &payload);

    /**
     * Half-close the send direction while keeping receive open — the
     * shutdown signal both wires use (the peer sees clean EOF at its
     * next frame boundary). Closes the write fd for a pipe pair,
     * shutdown(SHUT_WR) for a socket.
     */
    virtual void closeSend();

    /** Close everything now (destructor behavior, on demand). */
    virtual void close();

    /** Descriptor the receive side reads, for poll(); -1 if closed. */
    virtual int receiveFd() const { return rfd; }

    /**
     * Tighten the per-frame payload ceiling (default
     * kMaxFramePayloadBytes). A received header advertising more is a
     * framing fault, not an allocation — mandatory hygiene on network
     * streams where a corrupt or hostile peer writes the length word.
     */
    virtual void setMaxFramePayload(std::uint32_t bytes)
    {
        maxPayload = bytes;
    }

    /**
     * Bound how long a frame may take to arrive once its first byte
     * has (0 = forever, the default). Waiting for a frame to start
     * still blocks indefinitely — an idle peer is healthy — but a
     * started frame that stalls is a FramingError, not a caller
     * frozen mid-read. Mandatory on fabric sockets, whose coordinator
     * side is a single-threaded event loop: a peer that withholds
     * payload bytes would otherwise freeze the very timer loop whose
     * deadlines are supposed to remove it.
     */
    virtual void setReceiveDeadlineMs(std::uint32_t ms)
    {
        recvDeadlineMs = ms;
    }

    /**
     * Arm the per-frame auth envelope with @p session_key. The two
     * sides of a connection MAC under direction-distinct labels so a
     * frame echoed back at its author never verifies; @p is_client
     * picks which direction this endpoint sends under. Sequence
     * counters start at zero on both sides when this is called, so
     * both endpoints must arm at the same point in their handshake.
     */
    virtual void enableFrameAuth(std::vector<std::uint8_t> session_key,
                                 bool is_client);

    /**
     * Serialize @p payload into a complete wire frame (auth envelope
     * applied and the send sequence number consumed when auth is
     * armed) without writing it. Building block for fault decorators
     * that need to mangle bytes-on-the-wire.
     */
    std::vector<std::uint8_t>
    buildFrame(const std::vector<std::uint8_t> &payload);

    /** Write pre-built frame bytes verbatim. @throws FramingError on
     * I/O failure. */
    void sendRaw(const std::uint8_t *data, std::size_t len);

  private:
    int rfd = -1;
    int wfd = -1;
    bool duplex = false; ///< rfd and wfd are the same socket
    std::string name = "transport";
    std::uint32_t maxPayload = kMaxFramePayloadBytes;
    std::uint32_t recvDeadlineMs = 0;

    bool authOn = false;
    bool authClient = false;
    HmacSha256 authMac; ///< session key's precomputed HMAC states
    std::uint64_t sendSeq = 0;
    std::uint64_t recvSeq = 0;
};

} // namespace mtc

#endif // MTC_SUPPORT_TRANSPORT_H
