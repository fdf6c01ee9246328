#include "support/journal.h"

#include <cerrno>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/log.h"

namespace mtc
{

void
ByteWriter::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteWriter::str(const std::string &v)
{
    u32(static_cast<std::uint32_t>(v.size()));
    buf.insert(buf.end(), v.begin(), v.end());
}

void
ByteReader::need(std::size_t n) const
{
    if (static_cast<std::size_t>(end - p) < n)
        throw JournalError("journal record payload truncated");
}

std::uint8_t
ByteReader::u8()
{
    need(1);
    return *p++;
}

std::uint32_t
ByteReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(*p++) << (8 * i);
    return v;
}

std::uint64_t
ByteReader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(*p++) << (8 * i);
    return v;
}

double
ByteReader::f64()
{
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ByteReader::str()
{
    const std::uint32_t len = u32();
    need(len);
    std::string v(reinterpret_cast<const char *>(p), len);
    p += len;
    return v;
}

namespace
{

void
writeAll(int fd, const std::uint8_t *data, std::size_t len,
         const std::string &path)
{
    while (len) {
        const ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw JournalError("journal write failed: " + path + ": " +
                               std::strerror(errno));
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
}

} // anonymous namespace

JournalWriter::JournalWriter(std::string path_arg,
                             std::function<Clock::time_point()> now_fn)
    : path(std::move(path_arg)), now(std::move(now_fn))
{
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
        throw JournalError("cannot open journal: " + path + ": " +
                           std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        throw JournalError("cannot stat journal: " + path + ": " +
                           std::strerror(err));
    }
    fileBytes = static_cast<std::uint64_t>(st.st_size);
    lastSync = now();
}

JournalWriter::~JournalWriter()
{
    try {
        close();
    } catch (const JournalError &e) {
        warn(e.what());
    }
}

void
JournalWriter::append(const std::vector<std::uint8_t> &payload)
{
    // Header and payload go out in one buffer so a crash tears at
    // most one frame — exactly the failure readJournal recovers from.
    std::vector<std::uint8_t> frame;
    appendFrame(frame, payload.data(), payload.size());
    writeAll(fd, frame.data(), frame.size(), path);
    fileBytes += frame.size();
    ++records;
    if (++pending >= kGroupRecords || now() - lastSync >= kGroupInterval)
        fsyncNow();
}

void
JournalWriter::sync()
{
    if (pending)
        fsyncNow();
}

void
JournalWriter::close()
{
    if (fd < 0)
        return;
    try {
        sync();
    } catch (const JournalError &) {
        // Closed either way, so the destructor never retries against
        // a dead descriptor.
        ::close(fd);
        fd = -1;
        throw;
    }
    ::close(fd);
    fd = -1;
    debug("journal " + path + ": " + std::to_string(records) +
          " records appended, " + std::to_string(syncCount) +
          " fsyncs");
}

void
JournalWriter::fsyncNow()
{
    if (::fsync(fd) != 0) {
        throw JournalError("journal fsync failed: " + path + ": " +
                           std::strerror(errno));
    }
    ++syncCount;
    synced = fileBytes;
    pending = 0;
    lastSync = now();
}

JournalRecovery
readJournal(const std::string &path)
{
    JournalRecovery recovery;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return recovery; // no journal yet: resume from nothing

    std::vector<std::uint8_t> contents(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    const std::size_t size = contents.size();

    std::size_t off = 0;
    while (off < size) {
        const FrameView frame =
            parseFrame(contents.data() + off, size - off);
        if (frame.status != FrameStatus::Complete)
            break; // torn or corrupted frame: tail starts here
        recovery.records.emplace_back(frame.payload,
                                      frame.payload + frame.length);
        off += frame.frameBytes;
    }
    recovery.validBytes = off;
    recovery.droppedBytes = size - off;
    return recovery;
}

void
truncateToValidPrefix(const std::string &path,
                      const JournalRecovery &recovery)
{
    if (recovery.droppedBytes == 0)
        return;
    if (::truncate(path.c_str(),
                   static_cast<off_t>(recovery.validBytes)) != 0) {
        throw JournalError("cannot truncate torn journal tail: " + path +
                           ": " + std::strerror(errno));
    }
}

} // namespace mtc
