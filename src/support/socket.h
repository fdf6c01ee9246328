/**
 * @file
 * Minimal TCP plumbing for the distributed campaign fabric.
 *
 * A connected socket is just a file descriptor, so the length+FNV-1a
 * frame codec (src/support/framing.h) that already serves the journal
 * and a sandboxed fleet's socketpairs serves the network unchanged —
 * this layer only establishes connections. Loopback-first by design: the coordinator
 * binds 127.0.0.1 unless told otherwise; exposing a routable interface
 * is an operator decision that should come with a pre-shared fabric
 * key (src/support/transport.h grows per-frame HMAC + sequencing once
 * the authenticated handshake completes).
 */

#ifndef MTC_SUPPORT_SOCKET_H
#define MTC_SUPPORT_SOCKET_H

#include <cstdint>
#include <string>

#include "support/error.h"

namespace mtc
{

/** A failed socket-layer syscall (socket, bind, listen, connect). */
class SocketError : public Error
{
  public:
    explicit SocketError(const std::string &what_arg) : Error(what_arg)
    {}
};

/**
 * Listening TCP socket, RAII. Port 0 asks the kernel for an ephemeral
 * port; port() reports what was actually bound so scripts and tests
 * never race over fixed port numbers.
 */
class TcpListener
{
  public:
    /**
     * Bind @p host:@p port and listen.
     * @throws SocketError if any step fails (port in use, bad host).
     */
    explicit TcpListener(std::uint16_t port,
                         const std::string &host = "127.0.0.1");
    ~TcpListener();

    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /** The bound port (the kernel's pick when constructed with 0). */
    std::uint16_t port() const { return boundPort; }

    /** The listening descriptor, for poll(). */
    int fd() const { return listenFd; }

    /**
     * Accept one connection (blocking, EINTR-retried). The returned
     * descriptor is the caller's to close; TCP_NODELAY is set so
     * small request/response frames are not Nagle-delayed.
     * @throws SocketError on failure.
     */
    int acceptClient();

    /**
     * Stop listening (idempotent; the destructor also closes). After
     * this, connection attempts are refused outright and anything
     * still queued in the accept backlog is reset by the kernel —
     * a definitive "no" instead of an unanswered wait.
     */
    void close();

  private:
    int listenFd = -1;
    std::uint16_t boundPort = 0;
};

/**
 * Connect to @p host:@p port (blocking, EINTR-retried, TCP_NODELAY).
 * Returns the connected descriptor, owned by the caller.
 * @throws SocketError when the peer is unreachable or refuses.
 */
int connectTcp(const std::string &host, std::uint16_t port);

} // namespace mtc

#endif // MTC_SUPPORT_SOCKET_H
