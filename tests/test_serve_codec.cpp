// Wire framing: whole frames or clean failures, never half a document.
// Exercised over real socketpairs so partial reads/writes follow the same
// kernel paths the daemon sees.
#include "serve/codec.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

namespace swsim::serve {
namespace {

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a != -1) ::close(a);
    if (b != -1) ::close(b);
  }
  void close_a() {
    ::close(a);
    a = -1;
  }
};

TEST(ServeCodec, RoundTripsPayloadsOfManySizes) {
  SocketPair sp;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{4096}}) {
    const std::string sent(n, 'x');
    std::string error;
    ASSERT_TRUE(write_frame(sp.a, sent, &error)) << error;
    std::string got;
    ASSERT_EQ(read_frame(sp.b, &got, &error), ReadResult::kFrame) << error;
    EXPECT_EQ(got, sent);
  }
}

TEST(ServeCodec, LargePayloadRoundTripsAcrossSmallSocketBuffers) {
  // 512 KiB exceeds any default socket buffer, so both ends must loop over
  // partial transfers; a writer thread keeps the pipe moving.
  SocketPair sp;
  std::string sent(512u * 1024u, '\0');
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<char>(i * 131u % 251u);
  }
  std::thread writer([&] {
    std::string error;
    EXPECT_TRUE(write_frame(sp.a, sent, &error)) << error;
  });
  std::string got;
  std::string error;
  EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kFrame) << error;
  writer.join();
  EXPECT_EQ(got, sent);
}

TEST(ServeCodec, BackToBackFramesStayDelimited) {
  SocketPair sp;
  std::string error;
  ASSERT_TRUE(write_frame(sp.a, "first", &error));
  ASSERT_TRUE(write_frame(sp.a, "", &error));
  ASSERT_TRUE(write_frame(sp.a, "third", &error));
  std::string got;
  EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kFrame);
  EXPECT_EQ(got, "first");
  EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kFrame);
  EXPECT_EQ(got, "");
  EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kFrame);
  EXPECT_EQ(got, "third");
}

TEST(ServeCodec, EofOnFrameBoundaryIsOrderlyClose) {
  SocketPair sp;
  std::string error;
  ASSERT_TRUE(write_frame(sp.a, "bye", &error));
  sp.close_a();
  std::string got;
  EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kFrame);
  EXPECT_EQ(got, "bye");
  EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kEof);
}

TEST(ServeCodec, EofMidFrameIsAnErrorNotAHangup) {
  // A length prefix promising 100 bytes followed by a close: the reader
  // must report a torn frame, not pretend the peer hung up cleanly.
  SocketPair sp;
  const unsigned char prefix[4] = {0, 0, 0, 100};
  ASSERT_EQ(::send(sp.a, prefix, 4, 0), 4);
  ASSERT_EQ(::send(sp.a, "short", 5, 0), 5);
  sp.close_a();
  std::string got;
  std::string error;
  EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kError);
  EXPECT_FALSE(error.empty());
}

TEST(ServeCodec, EofInsideLengthPrefixIsAnError) {
  SocketPair sp;
  const unsigned char half[2] = {0, 0};
  ASSERT_EQ(::send(sp.a, half, 2, 0), 2);
  sp.close_a();
  std::string got;
  std::string error;
  EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kError);
}

TEST(ServeCodec, OversizeLengthFailsFastWithoutAllocating) {
  // A garbage prefix (e.g. an HTTP request aimed at our port) decodes to a
  // huge length; the reader rejects it instead of allocating gigabytes.
  SocketPair sp;
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(sp.a, prefix, 4, 0), 4);
  std::string got;
  std::string error;
  EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kError);
  EXPECT_NE(error.find("frame"), std::string::npos) << error;
}

TEST(ServeCodec, WriteToClosedPeerFails) {
  SocketPair sp;
  ::close(sp.b);
  sp.b = -1;
  // The first write may succeed into the buffer; keep writing until the
  // kernel reports the broken pipe (write_frame must not crash on EPIPE —
  // the daemon masks SIGPIPE via MSG_NOSIGNAL / per-write flags).
  std::string error;
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !write_frame(sp.a, std::string(4096, 'x'), &error);
  }
  EXPECT_TRUE(failed);
}

TEST(ServeCodec, MaxFrameBoundaryIsExact) {
  SocketPair sp;
  std::string error;
  std::thread writer([&] {
    std::string payload(kMaxFrameBytes, 'm');
    std::string werr;
    EXPECT_TRUE(write_frame(sp.a, payload, &werr)) << werr;
  });
  std::string got;
  EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kFrame) << error;
  EXPECT_EQ(got.size(), kMaxFrameBytes);
  writer.join();

  // One byte over is refused by the writer before anything hits the wire.
  std::string over(kMaxFrameBytes + 1, 'o');
  EXPECT_FALSE(write_frame(sp.a, over, &error));
}

TEST(ServeCodec, PrefixSplitAtEveryByteBoundaryStillFrames) {
  // The 4-byte length prefix can arrive fragmented at any point — a
  // kernel quirk or a deliberately torn sender. Every split must produce
  // the same whole frame.
  const std::string payload = "split-me";
  for (std::size_t split = 0; split <= 4; ++split) {
    SocketPair sp;
    const auto n = static_cast<std::uint32_t>(payload.size());
    const unsigned char prefix[4] = {
        static_cast<unsigned char>(n >> 24),
        static_cast<unsigned char>(n >> 16),
        static_cast<unsigned char>(n >> 8),
        static_cast<unsigned char>(n),
    };
    std::thread writer([&] {
      if (split > 0) {
        ASSERT_EQ(::send(sp.a, prefix, split, 0), (ssize_t)split);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (split < 4) {
        ASSERT_EQ(::send(sp.a, prefix + split, 4 - split,
                         0),
                  (ssize_t)(4 - split));
      }
      ASSERT_EQ(::send(sp.a, payload.data(), payload.size(), 0),
                (ssize_t)payload.size());
    });
    std::string got;
    std::string error;
    EXPECT_EQ(read_frame(sp.b, &got, &error), ReadResult::kFrame)
        << "split=" << split << ": " << error;
    EXPECT_EQ(got, payload) << "split=" << split;
    writer.join();
  }
}

namespace {
void noop_handler(int) {}
}  // namespace

TEST(ServeCodec, EintrMidFrameIsInvisibleToTheReader) {
  // Signals without SA_RESTART make blocking reads fail EINTR mid-frame;
  // the read loop must resume, not report a torn frame.
  struct sigaction sa{};
  struct sigaction old{};
  sa.sa_handler = noop_handler;
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  SocketPair sp;
  const std::string payload(64u * 1024u, 'e');
  std::atomic<bool> done{false};
  std::string got;
  std::string error;
  ReadResult result = ReadResult::kError;
  std::thread reader([&] {
    result = read_frame(sp.b, &got, &error);
    done.store(true);
  });
  const pthread_t handle = reader.native_handle();

  // Trickle the frame while peppering the reader with signals so some
  // land inside read()/poll().
  const auto n = static_cast<std::uint32_t>(payload.size());
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(n >> 24), static_cast<unsigned char>(n >> 16),
      static_cast<unsigned char>(n >> 8), static_cast<unsigned char>(n)};
  ASSERT_EQ(::send(sp.a, prefix, 4, 0), 4);
  std::size_t off = 0;
  while (off < payload.size()) {
    pthread_kill(handle, SIGUSR1);
    const std::size_t chunk = std::min<std::size_t>(4096, payload.size() - off);
    const ssize_t rc = ::send(sp.a, payload.data() + off, chunk, 0);
    ASSERT_GT(rc, 0);
    off += static_cast<std::size_t>(rc);
  }
  for (int i = 0; i < 16 && !done.load(); ++i) {
    pthread_kill(handle, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reader.join();
  ::sigaction(SIGUSR1, &old, nullptr);
  EXPECT_EQ(result, ReadResult::kFrame) << error;
  EXPECT_EQ(got, payload);
}

TEST(ServeCodec, TimedReadReportsIdleTimeoutOnSilence) {
  SocketPair sp;
  std::string got;
  std::string error;
  EXPECT_EQ(read_frame(sp.b, &got, &error, IoDeadlines{0.05, 1.0}),
            ReadResult::kTimeout);
  EXPECT_NE(error.find("idle"), std::string::npos) << error;
  // The session is still usable afterwards: a frame sent now reads fine.
  ASSERT_TRUE(write_frame(sp.a, "late", &error)) << error;
  EXPECT_EQ(read_frame(sp.b, &got, &error, IoDeadlines{1.0, 1.0}),
            ReadResult::kFrame);
  EXPECT_EQ(got, "late");
}

TEST(ServeCodec, TimedReadCutsOffASlowLorisMidFrame) {
  // Header promising 100 bytes, then one byte and silence: the frame
  // budget (not the idle budget) must trip.
  SocketPair sp;
  const unsigned char prefix[4] = {0, 0, 0, 100};
  ASSERT_EQ(::send(sp.a, prefix, 4, 0), 4);
  ASSERT_EQ(::send(sp.a, "x", 1, 0), 1);
  std::string got;
  std::string error;
  EXPECT_EQ(read_frame(sp.b, &got, &error, IoDeadlines{5.0, 0.05}),
            ReadResult::kTimeout);
  EXPECT_NE(error.find("mid-frame"), std::string::npos) << error;
}

TEST(ServeCodec, TimedWriteFailsWhenThePeerStopsReading) {
  // Fill the socket buffers against a non-reading peer; the timed write
  // must fail with a timeout instead of blocking forever.
  SocketPair sp;
  std::string error;
  bool timed_out = false;
  for (int i = 0; i < 64 && !timed_out; ++i) {
    if (!write_frame(sp.a, std::string(256u * 1024u, 'w'), &error,
                     IoDeadlines{0.0, 0.05})) {
      timed_out = error.find("timed out") != std::string::npos;
      break;
    }
  }
  EXPECT_TRUE(timed_out) << error;
}

TEST(ServeCodec, UntimedSignatureStillWaitsOutASlowStart) {
  // Zero deadlines reproduce the untimed behaviour: a frame that begins
  // after a pause still arrives.
  SocketPair sp;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    std::string werr;
    EXPECT_TRUE(write_frame(sp.a, "patience", &werr)) << werr;
  });
  std::string got;
  std::string error;
  EXPECT_EQ(read_frame(sp.b, &got, &error, IoDeadlines{}), ReadResult::kFrame)
      << error;
  EXPECT_EQ(got, "patience");
  writer.join();
}

}  // namespace
}  // namespace swsim::serve
