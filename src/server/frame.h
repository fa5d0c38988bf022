// Length-prefixed framing for the strategy-selection service (docs/SERVICE.md).
//
// Wire format: a 4-byte big-endian unsigned payload length, then exactly that many
// payload bytes (UTF-8 JSON). The prefix makes message boundaries explicit on a
// byte stream — no sentinel scanning, no ambiguity about embedded newlines — and
// lets the receiver refuse an oversized frame BEFORE reading (or allocating) its
// body: a hostile 4 GB length prefix costs four bytes of read, not an allocation.
//
// These helpers speak raw POSIX file descriptors so the same code serves the TCP
// server, the client library, and socketpair()-based tests. All reads/writes retry
// on EINTR and handle short transfers; none of them throw.
#ifndef SRC_SERVER_FRAME_H_
#define SRC_SERVER_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace espresso::server {

// Frames larger than this are refused by default (requests carry three INI files
// and responses one IR document — megabytes, never gigabytes).
inline constexpr size_t kDefaultMaxFrameBytes = 4u << 20;  // 4 MiB

enum class FrameStatus {
  kOk,
  kClosed,     // clean EOF before any prefix byte (peer finished)
  kTooLarge,   // length prefix exceeds the caller's limit; body NOT consumed
  kTruncated,  // EOF mid-prefix or mid-body (torn frame)
  kIoError,    // read/write failed (errno in the message)
};

const char* FrameStatusName(FrameStatus status);

struct FrameResult {
  FrameStatus status = FrameStatus::kIoError;
  std::string payload;  // valid only when status == kOk
  std::string error;    // human-readable cause for non-kOk
  bool ok() const { return status == FrameStatus::kOk; }
};

// Reads one frame from `fd`. Blocks until a full frame, EOF, or an error.
FrameResult ReadFrame(int fd, size_t max_bytes = kDefaultMaxFrameBytes);

// Writes one frame (prefix + payload) to `fd` with one sendmsg() (writev() on a
// non-socket fd), so the payload is never copied and the frame never leaves as a
// lone 4-byte segment. Returns false with *error set on failure. Payloads larger
// than 2^32 - 1 bytes are refused.
bool WriteFrame(int fd, std::string_view payload, std::string* error = nullptr);

}  // namespace espresso::server

#endif  // SRC_SERVER_FRAME_H_
