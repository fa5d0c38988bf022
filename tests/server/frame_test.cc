// Framing-layer tests over socketpairs, pipes and a loopback TCP pair: round
// trips, the empty frame, oversized refusal without body consumption, torn
// frames, clean close, and the one-syscall write path under short writes.
#include "src/server/frame.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

namespace espresso::server {
namespace {

class FramePair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    CloseWrite();
    CloseRead();
  }
  void CloseWrite() {
    if (fds_[0] >= 0) {
      ::close(fds_[0]);
      fds_[0] = -1;
    }
  }
  void CloseRead() {
    if (fds_[1] >= 0) {
      ::close(fds_[1]);
      fds_[1] = -1;
    }
  }
  int writer() const { return fds_[0]; }
  int reader() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST_F(FramePair, RoundTripsPayloads) {
  ASSERT_TRUE(WriteFrame(writer(), "{\"type\":\"health\"}"));
  ASSERT_TRUE(WriteFrame(writer(), ""));
  std::string big(100000, 'x');
  ASSERT_TRUE(WriteFrame(writer(), big));

  FrameResult first = ReadFrame(reader());
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.payload, "{\"type\":\"health\"}");

  FrameResult empty = ReadFrame(reader());
  ASSERT_TRUE(empty.ok()) << empty.error;
  EXPECT_EQ(empty.payload, "");

  FrameResult large = ReadFrame(reader());
  ASSERT_TRUE(large.ok()) << large.error;
  EXPECT_EQ(large.payload, big);
}

TEST_F(FramePair, CleanCloseReadsAsClosed) {
  CloseWrite();
  const FrameResult result = ReadFrame(reader());
  EXPECT_EQ(result.status, FrameStatus::kClosed);
}

TEST_F(FramePair, OversizedFrameIsRefusedBeforeTheBody) {
  // A 1 MiB length prefix against a 1 KiB limit: the reader must refuse from the
  // prefix alone — the body bytes are never required to be in flight.
  const unsigned char prefix[4] = {0x00, 0x10, 0x00, 0x00};
  ASSERT_EQ(::write(writer(), prefix, 4), 4);
  const FrameResult result = ReadFrame(reader(), /*max_bytes=*/1024);
  EXPECT_EQ(result.status, FrameStatus::kTooLarge);
  EXPECT_NE(result.error.find("1048576"), std::string::npos) << result.error;
}

TEST_F(FramePair, EofInsidePrefixIsTruncated) {
  const unsigned char partial[2] = {0x00, 0x00};
  ASSERT_EQ(::write(writer(), partial, 2), 2);
  CloseWrite();
  const FrameResult result = ReadFrame(reader());
  EXPECT_EQ(result.status, FrameStatus::kTruncated);
}

TEST_F(FramePair, EofInsideBodyIsTruncated) {
  // Prefix promises 8 bytes; only 3 arrive before the writer dies.
  const unsigned char prefix[4] = {0x00, 0x00, 0x00, 0x08};
  ASSERT_EQ(::write(writer(), prefix, 4), 4);
  ASSERT_EQ(::write(writer(), "abc", 3), 3);
  CloseWrite();
  const FrameResult result = ReadFrame(reader());
  EXPECT_EQ(result.status, FrameStatus::kTruncated);
  EXPECT_NE(result.error.find("3 of 8"), std::string::npos) << result.error;
}

TEST_F(FramePair, ConcurrentWriterReaderStreamsManyFrames) {
  constexpr int kFrames = 200;
  std::thread producer([fd = writer()] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(WriteFrame(fd, "frame-" + std::to_string(i)));
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    const FrameResult result = ReadFrame(reader());
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.payload, "frame-" + std::to_string(i));
  }
  producer.join();
}

// The deterministic SIGPIPE reproduction: a socket whose write side is already
// shut down (exactly what ServeServer::Stop() does to in-flight connections)
// raises SIGPIPE on the very next send unless the writer passes MSG_NOSIGNAL.
// Before the fix this test killed the whole binary; now WriteFrame just fails.
TEST_F(FramePair, WriteAfterLocalShutdownFailsWithoutRaisingSigpipe) {
  ASSERT_EQ(::shutdown(writer(), SHUT_WR), 0);
  std::string error;
  EXPECT_FALSE(WriteFrame(writer(), "{\"type\":\"health\"}", &error));
  // Reaching this line at all is the point: the dead peer surfaced as an error
  // return instead of a process-fatal signal.
  EXPECT_NE(error.find("frame write failed"), std::string::npos) << error;
}

// A peer that vanished entirely (both ends of its socket closed) must also
// surface as a failed write, never a signal — the multi-tenant server shares
// one process across every connection.
TEST_F(FramePair, WriteToClosedPeerDoesNotRaiseSigpipe) {
  CloseRead();
  std::string error;
  // First write may consume ECONNRESET; keep writing until the EPIPE path is
  // exercised. Without MSG_NOSIGNAL the second failure raises SIGPIPE.
  EXPECT_FALSE(WriteFrame(writer(), "a", &error));
  EXPECT_FALSE(WriteFrame(writer(), "b", &error));
  EXPECT_FALSE(WriteFrame(writer(), "c", &error));
}

// Bytes 0..n-1 of a pattern with no short period, so a dropped, repeated or
// misplaced chunk anywhere in a long frame changes the bytes read back.
std::string PatternPayload(size_t n) {
  std::string out(n, '\0');
  uint32_t state = 0x9e3779b9u;
  for (size_t i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;
    out[i] = static_cast<char>(state >> 24);
  }
  return out;
}

void NoOpHandler(int) {}

// A 1 MiB frame through a pipe takes the writev() fallback (a pipe is not a
// socket). A signal aimed at the writer while it blocks on the full 64 KiB pipe
// ends the blocked writev() early: with some bytes already copied it returns a
// short count, so the write path must advance across the prefix and payload
// entries; with none copied it fails with EINTR, which must be retried.
TEST(FramePipe, MegabyteFrameSurvivesShortWritesByteExact) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  struct sigaction action = {};
  action.sa_handler = NoOpHandler;  // no SA_RESTART: interrupted writes return
  sigemptyset(&action.sa_mask);
  struct sigaction previous = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  const std::string payload = PatternPayload(1u << 20);
  std::atomic<bool> writing{true};
  bool wrote = false;
  std::string error;
  std::thread writer([&] {
    wrote = WriteFrame(fds[1], payload, &error);
    writing.store(false);
    ::close(fds[1]);  // a failed write then reads as a torn frame, not a hang
  });
  std::thread interrupter([&, target = writer.native_handle()] {
    while (writing.load()) {
      ::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const FrameResult result = ReadFrame(fds[0], 2u << 20);
  interrupter.join();
  writer.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  ::close(fds[0]);

  EXPECT_TRUE(wrote) << error;
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.payload.size(), payload.size());
  EXPECT_TRUE(result.payload == payload) << "payload bytes differ after short writes";
}

// An empty payload is a frame of its own: exactly four zero bytes on the wire,
// with the writev() fallback's zero-length payload entry consumed cleanly.
TEST(FramePipe, ZeroLengthFrameIsFourZeroBytes) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteFrame(fds[1], ""));
  ASSERT_TRUE(WriteFrame(fds[1], "after"));
  unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::read(fds[0], prefix, 4), 4);
  EXPECT_EQ(prefix[0] | prefix[1] | prefix[2] | prefix[3], 0);
  const FrameResult next = ReadFrame(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_EQ(next.payload, "after");
}

// A connected loopback TCP pair: the transport the server and client use, where
// WriteFrame goes through sendmsg() rather than the writev() fallback.
class FrameTcpPair : public ::testing::Test {
 protected:
  void SetUp() override {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    const bool listening =
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::listen(listener, 1) == 0 &&
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    if (listening) {
      writer_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (writer_ >= 0 &&
          ::connect(writer_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        reader_ = ::accept(listener, nullptr, nullptr);
      }
    }
    ::close(listener);
    ASSERT_TRUE(listening);
    ASSERT_GE(writer_, 0);
    ASSERT_GE(reader_, 0);
  }
  void TearDown() override {
    if (writer_ >= 0) {
      ::close(writer_);
    }
    if (reader_ >= 0) {
      ::close(reader_);
    }
  }
  int writer_ = -1;
  int reader_ = -1;
};

TEST_F(FrameTcpPair, LargeFrameRoundTripsOverLoopbackTcp) {
  // Larger than the 64 KiB loopback MTU and a default socket buffer's first
  // window, so the frame spans many segments and sendmsg() may return short.
  const std::string payload = PatternPayload(300 * 1024 + 7);
  bool wrote = false;
  std::string error;
  std::thread writer([&] { wrote = WriteFrame(writer_, payload, &error); });
  const FrameResult large = ReadFrame(reader_);
  writer.join();
  EXPECT_TRUE(wrote) << error;
  ASSERT_TRUE(large.ok()) << large.error;
  EXPECT_TRUE(large.payload == payload) << "payload bytes differ over TCP";

  // The stream stays in sync for the next frame.
  ASSERT_TRUE(WriteFrame(writer_, "next"));
  const FrameResult next = ReadFrame(reader_);
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_EQ(next.payload, "next");
}

// Request/response ping-pong with Nagle's algorithm left on at both ends: a frame
// written as a lone prefix segment followed by its payload waits for the peer's
// delayed ACK (~40 ms and up per exchange, several seconds for the loop). One
// write per frame never leaves unacknowledged data ahead of the payload. The
// bound sits far from both, so this is not a wall-time gate.
TEST_F(FrameTcpPair, PingPongDoesNotWaitForDelayedAcks) {
  constexpr int kExchanges = 50;
  std::thread echo([fd = reader_] {
    for (int i = 0; i < kExchanges; ++i) {
      const FrameResult request = ReadFrame(fd);
      if (!request.ok() || !WriteFrame(fd, request.payload)) {
        return;
      }
    }
  });
  const auto start = std::chrono::steady_clock::now();
  int echoed = 0;
  for (; echoed < kExchanges; ++echoed) {
    const std::string payload = "{\"id\":" + std::to_string(echoed) + "}";
    if (!WriteFrame(writer_, payload)) {
      break;
    }
    const FrameResult reply = ReadFrame(writer_);
    if (!reply.ok() || reply.payload != payload) {
      break;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ::shutdown(writer_, SHUT_RDWR);  // releases the echo thread after an early break
  echo.join();
  EXPECT_EQ(echoed, kExchanges);
  EXPECT_LT(seconds, 1.0) << kExchanges << " exchanges took " << seconds << " s";
}

TEST(FrameStatusNames, AreStable) {
  EXPECT_STREQ(FrameStatusName(FrameStatus::kOk), "ok");
  EXPECT_STREQ(FrameStatusName(FrameStatus::kClosed), "closed");
  EXPECT_STREQ(FrameStatusName(FrameStatus::kTooLarge), "too-large");
  EXPECT_STREQ(FrameStatusName(FrameStatus::kTruncated), "truncated");
  EXPECT_STREQ(FrameStatusName(FrameStatus::kIoError), "io-error");
}

}  // namespace
}  // namespace espresso::server
