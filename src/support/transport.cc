#include "support/transport.h"

#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

namespace mtc
{

namespace
{

/** Direction labels: frames MAC'd under one never verify under the
 * other, so an echoed frame cannot replay at its author. */
constexpr std::uint8_t kDirClientToServer = 0x43; // 'C'
constexpr std::uint8_t kDirServerToClient = 0x53; // 'S'

void
putLe64(std::uint8_t *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
getLe64(const std::uint8_t *in)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return v;
}

/** Truncated HMAC tag over dir || seq || payload, streamed into a
 * copy of the session's keyed state. */
std::array<std::uint8_t, kFrameMacBytes>
frameMac(const HmacSha256 &mac, std::uint8_t dir, std::uint64_t seq,
         const std::uint8_t *payload, std::size_t len)
{
    Sha256 h = mac.begin();
    h.update(&dir, 1);
    std::uint8_t seq_le[kFrameSeqBytes];
    putLe64(seq_le, seq);
    h.update(seq_le, kFrameSeqBytes);
    h.update(payload, len);
    const auto full = mac.finish(h);
    std::array<std::uint8_t, kFrameMacBytes> tag;
    std::memcpy(tag.data(), full.data(), kFrameMacBytes);
    return tag;
}

} // anonymous namespace

Transport::Transport(int read_fd, int write_fd, std::string stream_name)
    : rfd(read_fd), wfd(write_fd), duplex(false),
      name(std::move(stream_name))
{}

Transport::Transport(int socket_fd, std::string stream_name)
    : rfd(socket_fd), wfd(socket_fd), duplex(true),
      name(std::move(stream_name))
{}

Transport::~Transport()
{
    Transport::close();
}

Transport::Transport(Transport &&other) noexcept
    : rfd(other.rfd), wfd(other.wfd), duplex(other.duplex),
      name(std::move(other.name)), maxPayload(other.maxPayload),
      recvDeadlineMs(other.recvDeadlineMs), authOn(other.authOn),
      authClient(other.authClient), authMac(other.authMac),
      sendSeq(other.sendSeq), recvSeq(other.recvSeq)
{
    other.rfd = -1;
    other.wfd = -1;
}

Transport &
Transport::operator=(Transport &&other) noexcept
{
    if (this != &other) {
        Transport::close();
        rfd = other.rfd;
        wfd = other.wfd;
        duplex = other.duplex;
        name = std::move(other.name);
        maxPayload = other.maxPayload;
        recvDeadlineMs = other.recvDeadlineMs;
        authOn = other.authOn;
        authClient = other.authClient;
        authMac = other.authMac;
        sendSeq = other.sendSeq;
        recvSeq = other.recvSeq;
        other.rfd = -1;
        other.wfd = -1;
    }
    return *this;
}

void
Transport::enableFrameAuth(std::vector<std::uint8_t> session_key,
                           bool is_client)
{
    authOn = true;
    authClient = is_client;
    authMac = HmacSha256(session_key);
    sendSeq = 0;
    recvSeq = 0;
}

std::vector<std::uint8_t>
Transport::buildFrame(const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> frame;
    if (!authOn) {
        appendFrame(frame, payload.data(), payload.size());
        return frame;
    }
    const std::uint8_t dir =
        authClient ? kDirClientToServer : kDirServerToClient;
    const std::uint64_t seq = sendSeq++;
    std::vector<std::uint8_t> body;
    body.reserve(payload.size() + kFrameAuthBytes);
    body = payload;
    std::uint8_t seq_le[kFrameSeqBytes];
    putLe64(seq_le, seq);
    body.insert(body.end(), seq_le, seq_le + kFrameSeqBytes);
    const auto tag =
        frameMac(authMac, dir, seq, payload.data(), payload.size());
    body.insert(body.end(), tag.begin(), tag.end());
    appendFrame(frame, body.data(), body.size());
    return frame;
}

void
Transport::sendRaw(const std::uint8_t *data, std::size_t len)
{
    if (wfd < 0)
        throw FramingError(name + ": send on a closed transport");
    writeFrameBytes(wfd, data, len, name);
}

void
Transport::send(const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> frame = buildFrame(payload);
    sendRaw(frame.data(), frame.size());
}

bool
Transport::receive(std::vector<std::uint8_t> &payload)
{
    if (rfd < 0)
        return false; // closed locally reads as EOF
    if (!readFrame(rfd, payload, name, maxPayload, recvDeadlineMs))
        return false;
    if (!authOn)
        return true;

    if (payload.size() < kFrameAuthBytes)
        throw AuthError(name + ": frame too short to carry an auth "
                               "envelope (" +
                        std::to_string(payload.size()) + " bytes)");
    const std::size_t body_len = payload.size() - kFrameAuthBytes;
    const std::uint8_t *seq_le = payload.data() + body_len;
    const std::uint8_t *mac = seq_le + kFrameSeqBytes;
    const std::uint64_t seq = getLe64(seq_le);
    const std::uint8_t dir =
        authClient ? kDirServerToClient : kDirClientToServer;
    const auto expect =
        frameMac(authMac, dir, seq, payload.data(), body_len);
    if (!constantTimeEqual(mac, expect.data(), kFrameMacBytes))
        throw AuthError(name + ": frame MAC mismatch");
    if (seq != recvSeq)
        throw AuthError(name + ": frame sequence " +
                        std::to_string(seq) + " where " +
                        std::to_string(recvSeq) +
                        " was expected (replayed, reordered, or "
                        "dropped frame)");
    ++recvSeq;
    payload.resize(body_len);
    return true;
}

void
Transport::closeSend()
{
    if (wfd < 0)
        return;
    if (duplex) {
        ::shutdown(wfd, SHUT_WR);
        wfd = -1; // rfd still owns the descriptor
    } else {
        ::close(wfd);
        wfd = -1;
    }
}

void
Transport::close()
{
    if (rfd >= 0)
        ::close(rfd);
    if (wfd >= 0 && wfd != rfd)
        ::close(wfd);
    rfd = -1;
    wfd = -1;
}

} // namespace mtc
