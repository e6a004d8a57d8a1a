/// \file report_client.h
/// \brief Blocking client for the ReportServer framing protocol.
///
/// ReportClient is the producer half of the ingestion wire: it connects
/// over TCP or a Unix-domain socket, sends length-prefixed report-batch
/// frames (see frame.h), and consumes the server's in-order per-frame
/// acks. It is deliberately simple — blocking sockets, one thread — and
/// exists for examples, tests, and the loopback benchmark; a production
/// emitter would embed the same framing into its own IO stack.
///
/// Two behaviors make it usable against a server that exercises real
/// backpressure:
///
///   - **Pipelining.** Up to `Options::pipeline_window` frames may be in
///     flight before Send() blocks on an ack, so per-frame latency does
///     not bound throughput. Flush() drains all outstanding acks.
///   - **Retry + reconnect.** A kResourceExhausted ack means the batch was
///     *not* enqueued (the server's all-or-nothing TrySubmit refused it);
///     the client backs off and resends the same payload. On an IO error
///     or server drop it reconnects and resends every unacked frame.
///     Delivery is therefore *at-least-once*: every frame the server
///     enqueued but had not acked when the connection dropped is counted
///     again — up to `pipeline_window` whole batches (64 by default), each
///     of which adds all of its reports a second time. Nothing on the
///     server detects the replay (see docs/server.md).
///
/// Not thread-safe: one ReportClient per producer thread.

#ifndef LDPHH_NET_REPORT_CLIENT_H_
#define LDPHH_NET_REPORT_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace ldphh {
namespace net {

/// \brief Blocking framing-protocol client (see file comment).
class ReportClient {
 public:
  struct Options {
    /// Max frames in flight before Send() blocks waiting for an ack.
    size_t pipeline_window = 64;
    /// Blocking send/recv timeout. A server that acks nothing for this
    /// long counts as an IO error (triggers reconnect).
    int io_timeout_ms = 5000;
    /// Backoff before resending a frame the server acked as busy.
    int busy_backoff_ms = 1;
    /// Upper bound on the (doubling) busy backoff.
    int busy_backoff_max_ms = 50;
    /// Reconnect attempts before giving up on an IO error.
    int max_reconnect_attempts = 5;
    /// Backoff between reconnect attempts.
    int reconnect_backoff_ms = 20;
  };

  /// Counters for tests and the benchmark harness.
  struct Stats {
    uint64_t frames_acked = 0;    ///< Frames the server accepted.
    uint64_t frames_rejected = 0; ///< Frames acked with a permanent error.
    uint64_t busy_retries = 0;    ///< Resends after a busy (retryable) ack.
    uint64_t reconnects = 0;      ///< Successful reconnections.
  };

  /// Connects over TCP to \p host:\p port.
  static StatusOr<std::unique_ptr<ReportClient>> ConnectTcp(
      const std::string& host, uint16_t port, const Options& options);

  /// Connects over the Unix-domain socket at \p path.
  static StatusOr<std::unique_ptr<ReportClient>> ConnectUds(
      const std::string& path, const Options& options);

  ~ReportClient();
  ReportClient(const ReportClient&) = delete;
  ReportClient& operator=(const ReportClient&) = delete;

  /// Submits one report-batch payload (EncodeReportBatch output). Returns
  /// once the frame is written and the pipeline window has room again —
  /// NOT once this frame is acked; call Flush() for that. A non-OK return
  /// is either a permanent server-side rejection of some in-flight frame
  /// (kInvalidArgument / kDecodeFailure / ...) or a connection failure
  /// that reconnection could not cure.
  Status Send(std::string_view payload);

  /// Blocks until every in-flight frame is acked (retrying busy acks).
  Status Flush();

  const Stats& stats() const { return stats_; }

 private:
  struct Endpoint {
    bool is_uds = false;
    std::string host_or_path;
    uint16_t port = 0;
  };

  ReportClient(Endpoint endpoint, const Options& options);

  Status Connect();
  Status WriteFrame(const std::string& payload);
  /// Reads and applies one ack: pops or requeues the head of pending_.
  Status AwaitAck();
  Status ReadExact(char* buf, size_t n);
  Status WriteAll(const char* buf, size_t n);
  /// Tears down the socket, reconnects, and resends all pending frames.
  Status Reconnect();

  const Endpoint endpoint_;
  const Options options_;
  int fd_ = -1;
  int busy_backoff_ms_ = 0;
  std::deque<std::string> pending_;  ///< In-flight payloads, send order.
  Stats stats_;
};

}  // namespace net
}  // namespace ldphh

#endif  // LDPHH_NET_REPORT_CLIENT_H_
