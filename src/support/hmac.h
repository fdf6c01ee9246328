/**
 * @file
 * Hand-rolled SHA-256 / HMAC-SHA256 for the fabric's pre-shared-key
 * transport authentication.
 *
 * The toolchain ships no crypto library, so the fabric carries its
 * own: a straight FIPS 180-4 SHA-256 and the RFC 2104 HMAC
 * construction over it. This is keyed integrity for a trusted-key
 * deployment (peers holding the same file prove possession and MAC
 * their frames) — not a general-purpose crypto library, and nothing
 * here encrypts: frame payloads cross the wire in the clear.
 */

#ifndef MTC_SUPPORT_HMAC_H
#define MTC_SUPPORT_HMAC_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mtc
{

constexpr std::size_t kSha256DigestBytes = 32;
constexpr std::size_t kSha256BlockBytes = 64;

/** Incremental FIPS 180-4 SHA-256. */
class Sha256
{
  public:
    Sha256() { reset(); }

    void reset();
    void update(const void *data, std::size_t len);
    std::array<std::uint8_t, kSha256DigestBytes> finish();

    /** One-shot convenience. */
    static std::array<std::uint8_t, kSha256DigestBytes>
    digest(const void *data, std::size_t len);

  private:
    void compress(const std::uint8_t block[kSha256BlockBytes]);

    std::uint32_t state[8];
    std::uint64_t totalBytes = 0;
    std::uint8_t buffer[kSha256BlockBytes];
    std::size_t buffered = 0;
};

/**
 * RFC 2104 HMAC-SHA256 under one key, with the key's ipad and opad
 * blocks compressed once at construction: each message then costs
 * its own blocks and the outer finish, and can be fed in pieces.
 */
class HmacSha256
{
  public:
    /** Unkeyed placeholder; assign a keyed one before use. */
    HmacSha256() = default;

    explicit HmacSha256(const std::vector<std::uint8_t> &key);

    /** A hash holding the keyed inner state: update() it with the
     * message, then pass it to finish(). */
    Sha256 begin() const { return inner; }

    /** The tag of the message fed into @p message since begin(). */
    std::array<std::uint8_t, kSha256DigestBytes>
    finish(Sha256 &message) const;

  private:
    Sha256 inner;
    Sha256 outer;
};

/** One-shot HMAC-SHA256 of @p data under @p key. */
std::array<std::uint8_t, kSha256DigestBytes>
hmacSha256(const std::vector<std::uint8_t> &key, const void *data,
           std::size_t len);

/**
 * Constant-time byte comparison — MAC checks must not leak how many
 * prefix bytes matched through their timing.
 */
bool constantTimeEqual(const std::uint8_t *a, const std::uint8_t *b,
                       std::size_t len);

/**
 * Read a fabric pre-shared key from @p path.
 *
 * Trailing whitespace/newlines are stripped (keys are usually written
 * by `head -c 32 /dev/urandom | base64 > key`); anything left must be
 * at least 16 bytes or the key is rejected.
 *
 * @throws ConfigError when the file is unreadable, empty, or the key
 *         is shorter than 16 bytes.
 */
std::vector<std::uint8_t> loadFabricKey(const std::string &path);

/**
 * A 16-byte handshake nonce. Freshness, not secrecy, is the goal:
 * entropy is drawn from std::random_device mixed with the clock and
 * pid, so two processes forked in the same tick still diverge.
 */
std::array<std::uint8_t, 16> randomNonce();

} // namespace mtc

#endif // MTC_SUPPORT_HMAC_H
