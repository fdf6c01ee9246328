#include "support/hmac.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <random>

#include <unistd.h>

#include "support/error.h"
#include "support/rng.h"

namespace mtc
{

namespace
{

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

inline std::uint32_t
rotr(std::uint32_t v, int n)
{
    return (v >> n) | (v << (32 - n));
}

} // anonymous namespace

void
Sha256::reset()
{
    static constexpr std::uint32_t kInit[8] = {
        0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
        0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
    std::memcpy(state, kInit, sizeof(state));
    totalBytes = 0;
    buffered = 0;
}

void
Sha256::compress(const std::uint8_t block[kSha256BlockBytes])
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
               (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
               (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
               static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^
                                 rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^
                                 rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2],
                  d = state[3], e = state[4], f = state[5],
                  g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 =
            rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
        const std::uint32_t s0 =
            rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

void
Sha256::update(const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    totalBytes += len;
    if (buffered) {
        const std::size_t take =
            std::min(len, kSha256BlockBytes - buffered);
        std::memcpy(buffer + buffered, bytes, take);
        buffered += take;
        bytes += take;
        len -= take;
        if (buffered == kSha256BlockBytes) {
            compress(buffer);
            buffered = 0;
        }
    }
    while (len >= kSha256BlockBytes) {
        compress(bytes);
        bytes += kSha256BlockBytes;
        len -= kSha256BlockBytes;
    }
    if (len) {
        std::memcpy(buffer, bytes, len);
        buffered = len;
    }
}

std::array<std::uint8_t, kSha256DigestBytes>
Sha256::finish()
{
    const std::uint64_t bit_len = totalBytes * 8;
    const std::uint8_t pad_byte = 0x80;
    update(&pad_byte, 1);
    static constexpr std::uint8_t zeros[kSha256BlockBytes] = {};
    while (buffered != kSha256BlockBytes - 8) {
        const std::size_t room =
            buffered < kSha256BlockBytes - 8
                ? (kSha256BlockBytes - 8) - buffered
                : kSha256BlockBytes - buffered;
        update(zeros, room);
    }
    std::uint8_t len_be[8];
    for (int i = 0; i < 8; ++i)
        len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    // Bypass update(): it would count the length word into totalBytes.
    std::memcpy(buffer + buffered, len_be, 8);
    compress(buffer);

    std::array<std::uint8_t, kSha256DigestBytes> out;
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
    }
    return out;
}

std::array<std::uint8_t, kSha256DigestBytes>
Sha256::digest(const void *data, std::size_t len)
{
    Sha256 h;
    h.update(data, len);
    return h.finish();
}

HmacSha256::HmacSha256(const std::vector<std::uint8_t> &key)
{
    std::uint8_t block_key[kSha256BlockBytes] = {};
    if (key.size() > kSha256BlockBytes) {
        const auto hashed = Sha256::digest(key.data(), key.size());
        std::memcpy(block_key, hashed.data(), hashed.size());
    } else {
        std::memcpy(block_key, key.data(), key.size());
    }

    std::uint8_t ipad[kSha256BlockBytes];
    std::uint8_t opad[kSha256BlockBytes];
    for (std::size_t i = 0; i < kSha256BlockBytes; ++i) {
        ipad[i] = block_key[i] ^ 0x36;
        opad[i] = block_key[i] ^ 0x5c;
    }
    inner.update(ipad, sizeof(ipad));
    outer.update(opad, sizeof(opad));
}

std::array<std::uint8_t, kSha256DigestBytes>
HmacSha256::finish(Sha256 &message) const
{
    const auto inner_digest = message.finish();
    Sha256 h = outer;
    h.update(inner_digest.data(), inner_digest.size());
    return h.finish();
}

std::array<std::uint8_t, kSha256DigestBytes>
hmacSha256(const std::vector<std::uint8_t> &key, const void *data,
           std::size_t len)
{
    const HmacSha256 mac(key);
    Sha256 h = mac.begin();
    h.update(data, len);
    return mac.finish(h);
}

bool
constantTimeEqual(const std::uint8_t *a, const std::uint8_t *b,
                  std::size_t len)
{
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < len; ++i)
        acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    return acc == 0;
}

std::vector<std::uint8_t>
loadFabricKey(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw ConfigError("cannot read fabric key file '" + path + "'");
    }
    std::vector<std::uint8_t> key(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    while (!key.empty()) {
        const std::uint8_t c = key.back();
        if (c == '\n' || c == '\r' || c == ' ' || c == '\t')
            key.pop_back();
        else
            break;
    }
    if (key.size() < 16) {
        throw ConfigError(
            "fabric key file '" + path + "' holds " +
            std::to_string(key.size()) +
            " key bytes; at least 16 are required (try: head -c 32 "
            "/dev/urandom | base64 > keyfile)");
    }
    return key;
}

std::array<std::uint8_t, 16> randomNonce()
{
    // random_device should be enough on its own, but freshness is
    // load-bearing for replay rejection, so fold in the clock and pid
    // in case a platform's random_device is deterministic.
    std::random_device rd;
    std::uint64_t mix =
        (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    mix ^= static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    mix ^= static_cast<std::uint64_t>(::getpid()) << 48;
    std::array<std::uint8_t, 16> nonce;
    for (std::size_t i = 0; i < nonce.size(); i += 8) {
        const std::uint64_t word = splitMix64(mix);
        for (std::size_t b = 0; b < 8; ++b)
            nonce[i + b] =
                static_cast<std::uint8_t>(word >> (8 * b));
    }
    return nonce;
}

} // namespace mtc
