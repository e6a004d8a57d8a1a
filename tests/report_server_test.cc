// Tests for the network ingestion front-end: src/net/ event loop +
// src/server/report_server. Framing round-trips (TCP and UDS), torn and
// coalesced reads, malformed/oversized rejection, deterministic busy acks,
// bounded-memory backpressure (read-throttling, not buffering), idle
// timeouts, graceful drain, and bit-for-bit equality of a concurrent
// multi-client ingest against the single-threaded baseline.

#include "src/server/report_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/report_client.h"
#include "src/server/report_codec.h"
#include "src/server/sharded_aggregator.h"
#include "tests/serving_test_util.h"

namespace ldphh {
namespace {

using testutil::DirectAggregate;
using testutil::EncodeSkewedReports;
using testutil::ExpectSameEstimates;
using testutil::OracleConfig;

// ---------------------------------------------------------------------------
// Raw-socket helpers (tests drive the wire directly; the lint rule banning
// raw socket calls applies to src/, not tests/).

int ConnectTcpRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

void WriteAllRaw(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

// Reads exactly n bytes; returns false on EOF/error.
bool ReadExactRaw(int fd, char* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t got = ::recv(fd, buf + off, n - off, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    off += static_cast<size_t>(got);
  }
  return true;
}

// Reads one ack frame; EXPECTs on transport failure.
Status ReadAckRaw(int fd) {
  char header[net::kFrameHeaderSize];
  if (!ReadExactRaw(fd, header, sizeof(header))) {
    ADD_FAILURE() << "EOF while reading ack header";
    return Status::Internal("eof");
  }
  uint32_t length = 0;
  std::memcpy(&length, header, sizeof(length));  // Test host is LE (CI: x86).
  std::string payload(length, '\0');
  if (!ReadExactRaw(fd, payload.data(), payload.size())) {
    ADD_FAILURE() << "EOF while reading ack payload";
    return Status::Internal("eof");
  }
  return net::DecodeStatusPayload(payload);
}

std::string Framed(std::string_view payload) {
  std::string out;
  net::AppendFrame(&out, payload);
  return out;
}

// ---------------------------------------------------------------------------
// Fixtures.

std::string UdsPath(const std::string& name) {
  // sun_path is ~108 bytes; keep it short and per-process.
  return "/tmp/ldphh_" + name + "_" + std::to_string(::getpid()) + ".sock";
}

std::unique_ptr<ShardedAggregator> StartedAggregator(
    const ProtocolConfig& config, int num_shards = 4,
    size_t queue_capacity = 4096) {
  ShardedAggregatorOptions opts;
  opts.num_shards = num_shards;
  opts.queue_capacity = queue_capacity;
  auto agg_or = ShardedAggregator::Create(config, opts);
  EXPECT_TRUE(agg_or.ok()) << agg_or.status().ToString();
  LDPHH_CHECK(agg_or.ok(), "test: aggregator create failed");
  auto agg = std::move(agg_or).value();
  return agg;
}

std::unique_ptr<ReportServer> StartedServer(ReportServer::Options options,
                                            ReportServer::Sink sink) {
  auto server_or = ReportServer::Create(options, std::move(sink));
  EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
  LDPHH_CHECK(server_or.ok(), "test: server create failed");
  auto server = std::move(server_or).value();
  const Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return server;
}

// A sink whose completion the test controls: calls block until Release().
class GateSink {
 public:
  Status Call(std::string_view payload) {
    (void)payload;
    calls_.fetch_add(1);
    MutexLock lk(&mu_);
    while (!open_) cv_.Wait();
    return Status::OK();
  }
  void Release() {
    MutexLock lk(&mu_);
    open_ = true;
    cv_.SignalAll();
  }
  uint64_t calls() const { return calls_.load(); }

 private:
  Mutex mu_;
  CondVar cv_{&mu_};
  bool open_ GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> calls_{0};
};

// ---------------------------------------------------------------------------
// EventLoop basics.

TEST(EventLoop, PostRunsTasksAndTimersFire) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.Start().ok());
  std::atomic<int> ran{0};
  ASSERT_TRUE(loop.Post([&] { ran.fetch_add(1); }));
  loop.RunSync([&] {
    loop.RunAfter(1, [&] { ran.fetch_add(10); });
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ran.load() != 11 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 11);
  loop.Stop();
  EXPECT_FALSE(loop.Post([] {}));  // Post after Stop is rejected, not lost.
}

TEST(EventLoop, RunSyncWaitsForCompletion) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.Start().ok());
  bool done = false;
  loop.RunSync([&] { done = true; });
  EXPECT_TRUE(done);
  loop.Stop();
  // After Stop, RunSync degrades to inline execution.
  bool after = false;
  loop.RunSync([&] { after = true; });
  EXPECT_TRUE(after);
}

// ---------------------------------------------------------------------------
// Framing round-trips.

TEST(ReportServer, FramingRoundTripTcp) {
  const ProtocolConfig config = OracleConfig("rappor_unary", 32, 1.0);
  auto agg = StartedAggregator(config);
  auto server = StartedServer(
      ReportServer::Options{},
      [&agg](std::string_view p) { return agg->TrySubmitWire(p); });

  const auto reports = EncodeSkewedReports(config, 2000, 7, 32);
  auto client_or = net::ReportClient::ConnectTcp("127.0.0.1", server->port(),
                                                 net::ReportClient::Options{});
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();
  const size_t chunk = 250;
  for (size_t lo = 0; lo < reports.size(); lo += chunk) {
    const std::vector<WireReport> slice(
        reports.begin() + static_cast<ptrdiff_t>(lo),
        reports.begin() + static_cast<ptrdiff_t>(lo + chunk));
    ASSERT_TRUE(
        client->Send(EncodeReportBatch(slice, agg->wire_id())).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
  EXPECT_EQ(client->stats().frames_acked, reports.size() / chunk);

  ASSERT_TRUE(agg->Drain().ok());
  EXPECT_EQ(agg->Stats().submitted, reports.size());
  server->Stop();
}

TEST(ReportServer, FramingRoundTripUds) {
  const ProtocolConfig config = OracleConfig("rappor_unary", 32, 1.0);
  auto agg = StartedAggregator(config);
  ReportServer::Options options;
  options.enable_tcp = false;
  options.uds_path = UdsPath("roundtrip");
  auto server = StartedServer(
      options, [&agg](std::string_view p) { return agg->TrySubmitWire(p); });

  const auto reports = EncodeSkewedReports(config, 1000, 11, 32);
  auto client_or = net::ReportClient::ConnectUds(options.uds_path,
                                                 net::ReportClient::Options{});
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();
  ASSERT_TRUE(
      client->Send(EncodeReportBatch(reports, agg->wire_id())).ok());
  ASSERT_TRUE(client->Flush().ok());

  ASSERT_TRUE(agg->Drain().ok());
  EXPECT_EQ(agg->Stats().submitted, reports.size());
  server->Stop();
  EXPECT_NE(::access(options.uds_path.c_str(), F_OK), 0)
      << "UDS path should be unlinked on Stop";
}

TEST(ReportServer, PartialAndCoalescedReads) {
  const ProtocolConfig config = OracleConfig("rappor_unary", 16, 1.0);
  auto agg = StartedAggregator(config);
  auto server = StartedServer(
      ReportServer::Options{},
      [&agg](std::string_view p) { return agg->TrySubmitWire(p); });

  const auto reports = EncodeSkewedReports(config, 30, 3, 16);
  const std::vector<WireReport> a(reports.begin(), reports.begin() + 10);
  const std::vector<WireReport> b(reports.begin() + 10, reports.begin() + 20);
  const std::vector<WireReport> c(reports.begin() + 20, reports.end());

  const int fd = ConnectTcpRaw(server->port());
  // Frame 1 dripped one byte at a time: the parser must accumulate across
  // arbitrarily torn reads.
  const std::string frame_a = Framed(EncodeReportBatch(a, agg->wire_id()));
  for (const char byte : frame_a) {
    WriteAllRaw(fd, &byte, 1);
  }
  EXPECT_TRUE(ReadAckRaw(fd).ok());
  // Frames 2 and 3 coalesced into one send: the parser must split them.
  const std::string coalesced = Framed(EncodeReportBatch(b, agg->wire_id())) +
                                Framed(EncodeReportBatch(c, agg->wire_id()));
  WriteAllRaw(fd, coalesced.data(), coalesced.size());
  EXPECT_TRUE(ReadAckRaw(fd).ok());
  EXPECT_TRUE(ReadAckRaw(fd).ok());
  ::close(fd);

  ASSERT_TRUE(agg->Drain().ok());
  EXPECT_EQ(agg->Stats().submitted, reports.size());
  server->Stop();
}

// ---------------------------------------------------------------------------
// Rejection paths.

TEST(ReportServer, MalformedBatchGetsErrorAckAndConnectionSurvives) {
  const ProtocolConfig config = OracleConfig("rappor_unary", 16, 1.0);
  auto agg = StartedAggregator(config);
  auto server = StartedServer(
      ReportServer::Options{},
      [&agg](std::string_view p) { return agg->TrySubmitWire(p); });

  const int fd = ConnectTcpRaw(server->port());
  const std::string garbage = Framed("this is not a report batch");
  WriteAllRaw(fd, garbage.data(), garbage.size());
  const Status ack = ReadAckRaw(fd);
  EXPECT_FALSE(ack.ok());
  EXPECT_NE(ack.code(), StatusCode::kResourceExhausted)
      << "malformed must be permanent, not retryable";

  // A well-formed frame on the same connection still works: per-frame
  // rejection does not poison the stream.
  const auto reports = EncodeSkewedReports(config, 10, 5, 16);
  const std::string good = Framed(EncodeReportBatch(reports, agg->wire_id()));
  WriteAllRaw(fd, good.data(), good.size());
  EXPECT_TRUE(ReadAckRaw(fd).ok());
  ::close(fd);
  server->Stop();
}

TEST(ReportServer, OversizedFrameRejectedFromLengthPrefixAlone) {
  ReportServer::Options options;
  options.max_frame_bytes = 1024;
  std::atomic<uint64_t> sink_calls{0};
  auto server = StartedServer(options, [&sink_calls](std::string_view) {
    sink_calls.fetch_add(1);
    return Status::OK();
  });

  const int fd = ConnectTcpRaw(server->port());
  // A length prefix far beyond the cap, with no body: the server must
  // reject without waiting for (or buffering) the declared bytes.
  const uint32_t huge = 1u << 30;
  char header[4];
  std::memcpy(header, &huge, sizeof(huge));
  WriteAllRaw(fd, header, sizeof(header));
  const Status ack = ReadAckRaw(fd);
  EXPECT_FALSE(ack.ok());
  // The stream cannot resync past a bad prefix: expect EOF next.
  char byte = 0;
  EXPECT_FALSE(ReadExactRaw(fd, &byte, 1));
  ::close(fd);
  EXPECT_EQ(sink_calls.load(), 0u);
  server->Stop();
}

TEST(ReportServer, FullShardQueueAcksRetryableBusy) {
  const ProtocolConfig config = OracleConfig("rappor_unary", 16, 1.0);
  // One shard with a 4-report queue: an 8-report batch can never fit, so
  // the all-or-nothing TrySubmit must answer busy deterministically.
  auto agg = StartedAggregator(config, /*num_shards=*/1,
                               /*queue_capacity=*/4);
  auto server = StartedServer(
      ReportServer::Options{},
      [&agg](std::string_view p) { return agg->TrySubmitWire(p); });

  const auto reports = EncodeSkewedReports(config, 8, 9, 16);
  const int fd = ConnectTcpRaw(server->port());
  const std::string big = Framed(EncodeReportBatch(reports, agg->wire_id()));
  WriteAllRaw(fd, big.data(), big.size());
  const Status busy = ReadAckRaw(fd);
  EXPECT_EQ(busy.code(), StatusCode::kResourceExhausted) << busy.ToString();

  // A batch that fits gets through on the same connection.
  const std::vector<WireReport> small(reports.begin(), reports.begin() + 2);
  const std::string ok = Framed(EncodeReportBatch(small, agg->wire_id()));
  WriteAllRaw(fd, ok.data(), ok.size());
  EXPECT_TRUE(ReadAckRaw(fd).ok());
  ::close(fd);
  server->Stop();
}

TEST(ReportServer, ClientRetriesBusyAcksToCompletion) {
  const ProtocolConfig config = OracleConfig("rappor_unary", 16, 1.0);
  auto agg = StartedAggregator(config);
  // Refuse the first few frames with the retryable status, then accept:
  // the client's backoff-and-resend must deliver everything exactly once
  // from the aggregator's point of view.
  std::atomic<int> refusals_left{5};
  auto server = StartedServer(
      ReportServer::Options{}, [&agg, &refusals_left](std::string_view p) {
        if (refusals_left.fetch_sub(1) > 0) {
          return Status::ResourceExhausted("induced busy");
        }
        return agg->TrySubmitWire(p);
      });

  const auto reports = EncodeSkewedReports(config, 500, 13, 16);
  auto client_or = net::ReportClient::ConnectTcp("127.0.0.1", server->port(),
                                                 net::ReportClient::Options{});
  ASSERT_TRUE(client_or.ok());
  auto client = std::move(client_or).value();
  const size_t chunk = 100;
  for (size_t lo = 0; lo < reports.size(); lo += chunk) {
    const std::vector<WireReport> slice(
        reports.begin() + static_cast<ptrdiff_t>(lo),
        reports.begin() + static_cast<ptrdiff_t>(lo + chunk));
    ASSERT_TRUE(
        client->Send(EncodeReportBatch(slice, agg->wire_id())).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
  EXPECT_GE(client->stats().busy_retries, 5u);
  EXPECT_EQ(client->stats().frames_acked, reports.size() / chunk);

  ASSERT_TRUE(agg->Drain().ok());
  EXPECT_EQ(agg->Stats().submitted, reports.size());
  server->Stop();
}

// ---------------------------------------------------------------------------
// Backpressure: overload pauses reads; memory stays bounded.

TEST(ReportServer, BackpressureThrottlesReadsAndBoundsInFlight) {
  GateSink gate;
  ReportServer::Options options;
  options.max_in_flight_frames = 4;
  options.max_frame_bytes = 256 * 1024;
  options.sink_threads = 2;
  auto server = StartedServer(
      options, [&gate](std::string_view p) { return gate.Call(p); });

  // A writer floods frames while the sink is gated shut. With the budget
  // exhausted the server must pause reads — the writer's blocking send
  // stalls against full kernel buffers instead of the server's heap.
  constexpr size_t kFrames = 64;
  const std::string payload(128 * 1024, 'x');
  const std::string frame = Framed(payload);
  const int fd = ConnectTcpRaw(server->port());
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < kFrames; ++i) {
      WriteAllRaw(fd, frame.data(), frame.size());
    }
    writer_done.store(true);
  });

  // Wait for the throttle to engage.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!server->ReadThrottledForTesting() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(server->ReadThrottledForTesting());
  // The in-flight budget is the memory bound: sampled repeatedly under
  // sustained overload it never exceeds the configured cap.
  for (int i = 0; i < 20; ++i) {
    EXPECT_LE(server->InFlightForTesting(), options.max_in_flight_frames);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // 64 × 128 KiB cannot fit in the paused server (budget + one read
  // buffer); the writer must still be stuck in send().
  EXPECT_FALSE(writer_done.load());

  // Release the sink: budget frees, reads resume, everything acks.
  gate.Release();
  std::thread reader([&] {
    for (size_t i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(ReadAckRaw(fd).ok());
    }
  });
  writer.join();
  reader.join();
  ::close(fd);
  EXPECT_EQ(gate.calls(), kFrames);
  server->Stop();
}

// ---------------------------------------------------------------------------
// Timeouts and shutdown.

TEST(ReportServer, IdleConnectionIsDisconnected) {
  ReportServer::Options options;
  options.idle_timeout_ms = 100;
  auto server =
      StartedServer(options, [](std::string_view) { return Status::OK(); });

  const int fd = ConnectTcpRaw(server->port());
  // Do nothing: the sweep must close us. recv returns 0 (EOF) on close.
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char byte = 0;
  EXPECT_FALSE(ReadExactRaw(fd, &byte, 1)) << "expected idle disconnect";
  ::close(fd);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server->ActiveConnectionsForTesting() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server->ActiveConnectionsForTesting(), 0u);
  server->Stop();
}

TEST(ReportServer, GracefulStopDrainsInFlightFramesAndFlushesAcks) {
  GateSink gate;
  ReportServer::Options options;
  options.max_in_flight_frames = 4;
  options.sink_threads = 2;
  options.drain_timeout_ms = 10000;
  auto server = StartedServer(
      options, [&gate](std::string_view p) { return gate.Call(p); });

  // 8 small frames: 4 are parsed (budget), 4 stay in the connection's
  // buffer. Stop() must ack the parsed 4 and flush before closing.
  const std::string frame = Framed(std::string(64, 'y'));
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += frame;
  const int fd = ConnectTcpRaw(server->port());
  WriteAllRaw(fd, burst.data(), burst.size());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->InFlightForTesting() != options.max_in_flight_frames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server->InFlightForTesting(), options.max_in_flight_frames);

  std::thread releaser([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    gate.Release();
  });
  server->Stop();  // Blocks in the drain until the gate opens.
  releaser.join();

  // Exactly the 4 parsed frames were acked; then the server closed us.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ReadAckRaw(fd).ok()) << "ack " << i;
  }
  char byte = 0;
  EXPECT_FALSE(ReadExactRaw(fd, &byte, 1)) << "expected close after drain";
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Equivalence: concurrent network ingest == single-threaded baseline.

TEST(ReportServer, ConcurrentClientsMatchSingleThreadedBaseline) {
  const ProtocolConfig config = OracleConfig("rappor_unary", 32, 1.0);
  auto agg = StartedAggregator(config, /*num_shards=*/4);
  auto server = StartedServer(
      ReportServer::Options{},
      [&agg](std::string_view p) { return agg->TrySubmitWire(p); });

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 5000;
  const auto reports =
      EncodeSkewedReports(config, kClients * kPerClient, 2024, 32);
  auto baseline = DirectAggregate(config, reports, 0, reports.size());

  const uint16_t wire_id = agg->wire_id();
  const uint16_t port = server->port();
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto client_or = net::ReportClient::ConnectTcp(
          "127.0.0.1", port, net::ReportClient::Options{});
      if (!client_or.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto client = std::move(client_or).value();
      const size_t lo = t * kPerClient;
      const size_t chunk = 500;
      for (size_t off = 0; off < kPerClient; off += chunk) {
        const std::vector<WireReport> slice(
            reports.begin() + static_cast<ptrdiff_t>(lo + off),
            reports.begin() + static_cast<ptrdiff_t>(lo + off + chunk));
        if (!client->Send(EncodeReportBatch(slice, wire_id)).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
      if (!client->Flush().ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  server->Stop();

  auto merged_or = agg->Finish();
  ASSERT_TRUE(merged_or.ok()) << merged_or.status().ToString();
  auto merged = std::move(merged_or).value();
  EXPECT_EQ(agg->Stats().submitted, reports.size());
  EXPECT_EQ(agg->Stats().rejected, 0u);
  ExpectSameEstimates(*merged, *baseline);
}

}  // namespace
}  // namespace ldphh
