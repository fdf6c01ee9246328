/**
 * @file
 * Wire protocol for the distributed campaign fabric.
 *
 * The coordinator and its workers exchange framed messages (one
 * message per frame, src/support/transport.h) whose payloads are
 * ByteWriter-encoded with a one-byte type tag up front:
 *
 *   worker -> coordinator:  Hello, Result, Heartbeat, AuthProof
 *   coordinator -> worker:  Welcome, Reject, Lease, Done, Challenge
 *
 * The fabric is payload-agnostic: a Lease carries opaque unit request
 * blobs, a Result carries one opaque response blob. What those bytes
 * mean (campaign unit records) is the harness layer's business
 * (src/harness/dist_campaign.h), so this library depends only on
 * mtc_support.
 *
 * Versioning: Hello carries kDistProtocolVersion; the coordinator
 * rejects mismatches at the handshake with a Reject message rather
 * than letting a stale worker binary desync the stream mid-campaign.
 *
 * Authentication (optional, pre-shared key): when both sides hold a
 * fabric key, the handshake becomes a mutual HMAC challenge/response
 * folded into the Hello/Welcome exchange:
 *
 *   worker:      Hello { version, name, wantAuth, clientNonce }
 *   coordinator: Challenge { serverNonce, serverProof }
 *   worker:      AuthProof { clientProof }      (after verifying)
 *   coordinator: Welcome { spec }               (after verifying)
 *
 * serverProof = HMAC(key, "mtc-fabric-server" || cNonce || sNonce)
 * proves the coordinator holds the key BEFORE the worker proves
 * itself, so a wrong-key coordinator is detected client-side too.
 * clientProof binds the worker name so a proof cannot be replayed
 * under another identity. Both sides then derive a session key
 * (domain "mtc-fabric-session") and arm the per-frame MAC + sequence
 * envelope (Transport::enableFrameAuth) for everything after
 * AuthProof. Keyless loopback mode skips all of this: a Hello with
 * wantAuth=false on a keyless coordinator gets a plain Welcome.
 */

#ifndef MTC_DIST_PROTOCOL_H
#define MTC_DIST_PROTOCOL_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "support/error.h"

namespace mtc
{

/** Protocol-level failure in the distributed fabric (malformed
 * message, handshake rejection, fabric infrastructure fault). */
class DistError : public Error
{
  public:
    explicit DistError(const std::string &what_arg) : Error(what_arg)
    {}
};

/** Bump on any wire-format change; handshakes cross-check it.
 * v2: Hello gained wantAuth + clientNonce; Challenge/AuthProof added
 * for the pre-shared-key handshake. */
constexpr std::uint32_t kDistProtocolVersion = 2;

/**
 * Frame-payload ceiling applied to a connection until its handshake
 * completes: a peer that has not yet proven anything must not be able
 * to drive a large allocation with a forged length word. Hello,
 * Challenge, and AuthProof are all far below this.
 */
constexpr std::uint32_t kPreAuthFramePayloadBytes = 4096;

/**
 * Receive deadline applied to every fabric transport: once a frame's
 * first byte arrives, the rest must follow within this window
 * (Transport::setReceiveDeadlineMs). The coordinator's event loop is
 * single-threaded, so a peer that starts a frame and withholds the
 * tail — a slow-loris, or a corrupted length word — would otherwise
 * freeze the very loop whose timers are supposed to evict it. Ten
 * seconds is orders of magnitude above any honest frame (unit records
 * are a few KB on a local link) yet still bounds the damage.
 */
constexpr std::uint32_t kFabricFrameDeadlineMs = 10000;

/** First payload byte of every fabric message. */
enum class FabricMsg : std::uint8_t
{
    Hello = 1,     ///< worker: version + name, opens the session
    Welcome = 2,   ///< coordinator: handshake accepted + campaign spec
    Reject = 3,    ///< coordinator: handshake refused (reason string)
    Lease = 4,     ///< coordinator: a batch of units to execute
    Result = 5,    ///< worker: one completed unit of a lease
    Heartbeat = 6, ///< worker: liveness signal
    Done = 7,      ///< coordinator: campaign complete, disconnect
    Challenge = 8, ///< coordinator: auth nonce + proof of key
    AuthProof = 9  ///< worker: proof of key possession
};

/** Classify a raw payload without decoding it.
 * @throws DistError on an empty payload or an unknown tag. */
FabricMsg peekType(const std::vector<std::uint8_t> &payload);

/** Handshake nonce / proof sizes. */
constexpr std::size_t kFabricNonceBytes = 16;
constexpr std::size_t kFabricProofBytes = 32;

struct HelloMsg
{
    std::uint32_t version = kDistProtocolVersion;
    std::string name; ///< worker identity for logs and error budgets
    bool wantAuth = false; ///< worker holds a key, expects a Challenge
    std::array<std::uint8_t, kFabricNonceBytes> nonce{}; ///< client nonce
};

struct WelcomeMsg
{
    /** Opaque campaign spec the worker needs before executing units
     * (the harness encodes configs + campaign knobs here). */
    std::vector<std::uint8_t> spec;
};

struct RejectMsg
{
    std::string reason;
};

/** Coordinator's half of the key handshake: its nonce plus proof that
 * it holds the fabric key (computed over both nonces). */
struct ChallengeMsg
{
    std::array<std::uint8_t, kFabricNonceBytes> nonce{};
    std::array<std::uint8_t, kFabricProofBytes> proof{};
};

/** Worker's proof of key possession, bound to its Hello name. */
struct AuthProofMsg
{
    std::array<std::uint8_t, kFabricProofBytes> proof{};
};

/** One leased unit: its global index plus the opaque request blob. */
struct LeaseUnit
{
    std::uint64_t unitIndex = 0;
    std::vector<std::uint8_t> request;
};

struct LeaseMsg
{
    std::uint64_t leaseId = 0;
    std::vector<LeaseUnit> units;
};

/** One Result per completed unit — not per lease — so the coordinator
 * sees partial progress and a mid-batch death forfeits only the units
 * still unreported. */
struct ResultMsg
{
    std::uint64_t leaseId = 0;
    std::uint64_t unitIndex = 0;
    std::vector<std::uint8_t> response;
};

std::vector<std::uint8_t> encodeHello(const HelloMsg &msg);
std::vector<std::uint8_t> encodeWelcome(const WelcomeMsg &msg);
std::vector<std::uint8_t> encodeReject(const RejectMsg &msg);
std::vector<std::uint8_t> encodeLease(const LeaseMsg &msg);
std::vector<std::uint8_t> encodeResult(const ResultMsg &msg);
std::vector<std::uint8_t> encodeHeartbeat();
std::vector<std::uint8_t> encodeDone();
std::vector<std::uint8_t> encodeChallenge(const ChallengeMsg &msg);
std::vector<std::uint8_t> encodeAuthProof(const AuthProofMsg &msg);

/** Decoders throw DistError on a wrong tag or malformed payload. */
HelloMsg decodeHello(const std::vector<std::uint8_t> &payload);
WelcomeMsg decodeWelcome(const std::vector<std::uint8_t> &payload);
RejectMsg decodeReject(const std::vector<std::uint8_t> &payload);
LeaseMsg decodeLease(const std::vector<std::uint8_t> &payload);
ResultMsg decodeResult(const std::vector<std::uint8_t> &payload);
ChallengeMsg decodeChallenge(const std::vector<std::uint8_t> &payload);
AuthProofMsg decodeAuthProof(const std::vector<std::uint8_t> &payload);

/**
 * Handshake proof / session-key derivation, shared by both ends.
 * Domain-separated HMACs over the two handshake nonces: the server
 * proof lets the worker verify the coordinator before revealing its
 * own proof; the client proof additionally binds the worker name so
 * one worker's proof cannot be replayed as another's.
 */
std::array<std::uint8_t, kFabricProofBytes> fabricServerProof(
    const std::vector<std::uint8_t> &key,
    const std::array<std::uint8_t, kFabricNonceBytes> &client_nonce,
    const std::array<std::uint8_t, kFabricNonceBytes> &server_nonce);
std::array<std::uint8_t, kFabricProofBytes> fabricClientProof(
    const std::vector<std::uint8_t> &key,
    const std::array<std::uint8_t, kFabricNonceBytes> &client_nonce,
    const std::array<std::uint8_t, kFabricNonceBytes> &server_nonce,
    const std::string &worker_name);
std::vector<std::uint8_t> fabricSessionKey(
    const std::vector<std::uint8_t> &key,
    const std::array<std::uint8_t, kFabricNonceBytes> &client_nonce,
    const std::array<std::uint8_t, kFabricNonceBytes> &server_nonce);

} // namespace mtc

#endif // MTC_DIST_PROTOCOL_H
