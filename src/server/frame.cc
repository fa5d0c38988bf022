#include "src/server/frame.h"

#include <errno.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>
#include <limits>

namespace espresso::server {

namespace {

// read() until `len` bytes or EOF/error. Returns bytes read (< len only on EOF),
// or -1 with errno set.
ssize_t ReadFull(int fd, char* buf, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, buf + done, len - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (n == 0) {
      break;  // EOF
    }
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

// Writes every byte of `iov[0..count)`. A socket gets sendmsg() with
// MSG_NOSIGNAL: a peer that resets mid-write must surface as EPIPE, not as a
// process-fatal SIGPIPE — one dead client must never take down the daemon. A
// non-socket fd (pipe, file) fails that with ENOTSOCK and gets writev(). Short
// writes advance across entries, so `iov` is consumed in place.
bool WriteFullV(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::writev(fd, iov, static_cast<int>(count));
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    size_t done = static_cast<size_t>(n);
    while (count > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return true;
}

std::string ErrnoString() {
  return std::strerror(errno) + std::string(" (errno ") + std::to_string(errno) + ")";
}

}  // namespace

const char* FrameStatusName(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kClosed:
      return "closed";
    case FrameStatus::kTooLarge:
      return "too-large";
    case FrameStatus::kTruncated:
      return "truncated";
    case FrameStatus::kIoError:
      return "io-error";
  }
  return "unknown";
}

FrameResult ReadFrame(int fd, size_t max_bytes) {
  FrameResult result;
  char prefix[4];
  const ssize_t got = ReadFull(fd, prefix, sizeof(prefix));
  if (got < 0) {
    result.status = FrameStatus::kIoError;
    result.error = "frame prefix read failed: " + ErrnoString();
    return result;
  }
  if (got == 0) {
    result.status = FrameStatus::kClosed;
    result.error = "peer closed the connection";
    return result;
  }
  if (got < static_cast<ssize_t>(sizeof(prefix))) {
    result.status = FrameStatus::kTruncated;
    result.error = "EOF inside the 4-byte length prefix";
    return result;
  }
  const uint32_t length = (static_cast<uint32_t>(static_cast<unsigned char>(prefix[0])) << 24) |
                          (static_cast<uint32_t>(static_cast<unsigned char>(prefix[1])) << 16) |
                          (static_cast<uint32_t>(static_cast<unsigned char>(prefix[2])) << 8) |
                          static_cast<uint32_t>(static_cast<unsigned char>(prefix[3]));
  if (length > max_bytes) {
    // Refuse before allocating or reading the body. The connection is now
    // desynchronised (the body is still in flight), so callers should close it.
    result.status = FrameStatus::kTooLarge;
    result.error = "frame of " + std::to_string(length) + " bytes exceeds the " +
                   std::to_string(max_bytes) + "-byte limit";
    return result;
  }
  result.payload.resize(length);
  if (length > 0) {
    const ssize_t body = ReadFull(fd, result.payload.data(), length);
    if (body < 0) {
      result.payload.clear();
      result.status = FrameStatus::kIoError;
      result.error = "frame body read failed: " + ErrnoString();
      return result;
    }
    if (body < static_cast<ssize_t>(length)) {
      result.payload.clear();
      result.status = FrameStatus::kTruncated;
      result.error = "EOF after " + std::to_string(body) + " of " +
                     std::to_string(length) + " body bytes";
      return result;
    }
  }
  result.status = FrameStatus::kOk;
  return result;
}

bool WriteFrame(int fd, std::string_view payload, std::string* error) {
  if (payload.size() > std::numeric_limits<uint32_t>::max()) {
    if (error != nullptr) {
      *error = "payload of " + std::to_string(payload.size()) +
               " bytes does not fit a 32-bit length prefix";
    }
    return false;
  }
  const uint32_t length = static_cast<uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>((length >> 24) & 0xff),
                    static_cast<char>((length >> 16) & 0xff),
                    static_cast<char>((length >> 8) & 0xff),
                    static_cast<char>(length & 0xff)};
  // Prefix and payload leave in one syscall: a 4-byte prefix sent on its own
  // lets Nagle's algorithm hold the payload back until the peer's delayed ACK
  // (tens of milliseconds on Linux), on every frame.
  iovec iov[2] = {{prefix, sizeof(prefix)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  if (!WriteFullV(fd, iov, 2)) {
    if (error != nullptr) {
      *error = "frame write failed: " + ErrnoString();
    }
    return false;
  }
  return true;
}

}  // namespace espresso::server
