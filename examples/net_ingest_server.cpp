// Network ingestion server — one half of the multi-process demo.
//
// Starts the framed-report ingestion front-end (src/server/report_server.h)
// on TCP loopback and/or a Unix-domain socket, feeding a ShardedAggregator
// through the non-blocking TrySubmitWire sink (full shard queues answer
// with a retryable busy ack instead of blocking the event loop). Run the
// companion `example_net_ingest_client` from another process — or several
// at once — to drive reports into it:
//
//   ./example_net_ingest_server --port=9000 --admin-port=9001 &
//   ./example_net_ingest_client --port=9000 --reports=100000
//
// With `--admin-port=N` the live admin plane is served too; /metrics shows
// every ldphh_net_* counter moving while clients are connected. On SIGINT/
// SIGTERM (or after --serve-seconds) the server drains gracefully, merges
// the shards, and prints how many reports arrived plus the top estimates.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "src/core/ldphh.h"
#include "src/server/admin_server.h"
#include "src/server/report_server.h"
#include "src/server/sharded_aggregator.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  int port = 0;            // 0 = ephemeral (printed below).
  std::string uds_path;    // Empty = TCP only.
  int admin_port = -1;     // -1 = no admin plane.
  int serve_seconds = 60;
  std::string protocol = "rappor_unary(domain=56,eps=1)";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--port=", 7) == 0) {
      port = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--uds=", 6) == 0) {
      uds_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--admin-port=", 13) == 0) {
      admin_port = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--serve-seconds=", 16) == 0) {
      serve_seconds = std::atoi(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--protocol=", 11) == 0) {
      protocol = argv[i] + 11;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port=N] [--uds=PATH] [--admin-port=N] "
                   "[--serve-seconds=S] [--protocol=TEXT]\n",
                   argv[0]);
      return 2;
    }
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  using namespace ldphh;

  const auto config_or = ProtocolConfig::FromText(protocol);
  if (!config_or.ok()) {
    std::fprintf(stderr, "bad --protocol: %s\n",
                 config_or.status().ToString().c_str());
    return 1;
  }
  const ProtocolConfig config = config_or.value();
  std::printf("serving protocol: %s\n", config.ToText().c_str());

  ShardedAggregatorOptions agg_opts;
  agg_opts.num_shards = 4;
  auto agg_or = ShardedAggregator::Create(config, agg_opts);
  if (!agg_or.ok()) {
    std::fprintf(stderr, "aggregator failed to start\n");
    return 1;
  }
  auto agg = std::move(agg_or).value();

  ReportServer::Options server_opts;
  server_opts.port = static_cast<uint16_t>(port);
  server_opts.uds_path = uds_path;
  auto server_or = ReportServer::Create(
      server_opts,
      [&agg](std::string_view payload) { return agg->TrySubmitWire(payload); });
  if (!server_or.ok()) {
    std::fprintf(stderr, "report server: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  auto server = std::move(server_or).value();
  const Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "report server start: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("ingest listening on 127.0.0.1:%u\n", server->port());
  if (!uds_path.empty()) std::printf("ingest listening on %s\n",
                                     uds_path.c_str());

  std::unique_ptr<AdminServer> admin;
  if (admin_port >= 0) {
    AdminServer::Options admin_opts;
    admin_opts.port = static_cast<uint16_t>(admin_port);
    auto admin_or = AdminServer::Start(admin_opts);
    if (!admin_or.ok()) {
      std::fprintf(stderr, "admin server failed to start: %s\n",
                   admin_or.status().ToString().c_str());
      return 1;
    }
    admin = std::move(admin_or).value();
    std::printf("admin plane on http://127.0.0.1:%u (try /metrics)\n",
                admin->port());
  }
  std::fflush(stdout);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(serve_seconds);
  while (!g_stop.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server->Stop();  // Graceful: in-flight frames finish, acks flush.
  auto merged_or = agg->Finish();
  if (!merged_or.ok()) {
    std::fprintf(stderr, "finish failed: %s\n",
                 merged_or.status().ToString().c_str());
    return 1;
  }
  const auto stats = agg->Stats();
  std::printf("ingested %llu reports\n",
              static_cast<unsigned long long>(stats.submitted));
  auto top_or = merged_or.value()->EstimateTopK(5);
  if (top_or.ok()) {
    for (const auto& entry : top_or.value()) {
      std::printf("  %-20llu %.1f\n",
                  static_cast<unsigned long long>(entry.item.limbs[0]),
                  entry.estimate);
    }
  }
  return 0;
}
