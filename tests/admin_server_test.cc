// Tests for src/server/admin_server: the HTTP transport itself (status
// codes for malformed, oversized, and unsupported requests; HEAD; custom
// handlers), every default endpoint serving well-formed output, concurrent
// scrapes while a sharded ingest is running full tilt, and /healthz
// flipping to 503 — and healing — when the store's write path fails under
// an injected fsync fault.

#include "src/server/admin_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_fs.h"
#include "src/obs/json_reader.h"
#include "src/server/report_codec.h"
#include "src/server/sharded_aggregator.h"
#include "src/store/checkpoint_store.h"
#include "tests/serving_test_util.h"

namespace ldphh {
namespace {

using testutil::EncodeSkewedReports;
using testutil::OracleConfig;

// Sends \p raw over a fresh connection and returns everything the server
// wrote back (the server always closes, so read-to-EOF terminates).
std::string RawRequest(uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(uint16_t port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

int StatusCodeOf(const std::string& response) {
  // "HTTP/1.1 NNN ..."
  if (response.size() < 12) return -1;
  return std::atoi(response.substr(9, 3).c_str());
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

std::unique_ptr<AdminServer> MustStart(AdminServer::Options options = {}) {
  auto server_or = AdminServer::Start(std::move(options));
  EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
  LDPHH_CHECK(server_or.ok(), "test: AdminServer::Start failed");
  return std::move(server_or).value();
}

obs::JsonValue MustParseJson(const std::string& text) {
  obs::JsonValue v;
  const Status st = obs::ParseJson(text, &v);
  EXPECT_TRUE(st.ok()) << st.ToString() << "\npayload:\n" << text;
  return v;
}

// ------------------------------------------------------------- transport

TEST(AdminServer, BindsAnEphemeralPort) {
  auto server = MustStart();
  EXPECT_NE(server->port(), 0);
  server->Stop();  // Idempotent; destructor stops again.
  server->Stop();
}

TEST(AdminServer, CustomHandlerAndQuerySplit) {
  AdminServer::Options options;
  options.register_default_endpoints = false;
  auto server = MustStart(options);
  server->Handle("/echo", [](const AdminRequest& request) {
    AdminResponse response;
    response.body = request.method + " " + request.path + " q=[" +
                    request.query + "]";
    return response;
  });
  const std::string response = HttpGet(server->port(), "/echo?a=1&b=2");
  EXPECT_EQ(StatusCodeOf(response), 200);
  EXPECT_EQ(BodyOf(response), "GET /echo q=[a=1&b=2]");
}

TEST(AdminServer, RejectsWhatItMust) {
  auto server = MustStart();
  const uint16_t port = server->port();
  EXPECT_EQ(StatusCodeOf(HttpGet(port, "/no-such-endpoint")), 404);
  EXPECT_EQ(StatusCodeOf(RawRequest(
                port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")),
            405);
  EXPECT_EQ(StatusCodeOf(RawRequest(port, "garbage\r\n\r\n")), 400);
  // Request line + headers beyond max_request_bytes → 431.
  const std::string huge = "GET /" + std::string(10000, 'a') +
                           " HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_EQ(StatusCodeOf(RawRequest(port, huge)), 431);
}

TEST(AdminServer, HeadOmitsTheBody) {
  auto server = MustStart();
  const std::string response = RawRequest(
      server->port(), "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusCodeOf(response), 200);
  EXPECT_EQ(BodyOf(response), "");
  // Content-Length still describes the GET body.
  EXPECT_NE(response.find("Content-Length: "), std::string::npos);
}

// ------------------------------------------------------ default endpoints

TEST(AdminServer, DefaultEndpointsServeWellFormedPayloads) {
  auto server = MustStart();
  const uint16_t port = server->port();

  const std::string index = HttpGet(port, "/");
  EXPECT_EQ(StatusCodeOf(index), 200);
  EXPECT_NE(BodyOf(index).find("/metrics"), std::string::npos);

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(StatusCodeOf(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(BodyOf(metrics).find("# TYPE"), std::string::npos);

  for (const char* path : {"/metrics.json", "/tracez.json", "/spanz",
                           "/statusz"}) {
    const std::string response = HttpGet(port, path);
    EXPECT_EQ(StatusCodeOf(response), 200) << path;
    MustParseJson(BodyOf(response));
  }

  const std::string tracez = HttpGet(port, "/tracez");
  EXPECT_EQ(StatusCodeOf(tracez), 200);

  for (const char* path : {"/healthz", "/readyz"}) {
    const std::string response = HttpGet(port, path);
    // Other tests (and prior suites in this process) may have registered
    // failing checks; well-formed means 200 or 503 with a per-check body.
    const int code = StatusCodeOf(response);
    EXPECT_TRUE(code == 200 || code == 503) << path << ": " << code;
  }
}

// ------------------------------------------- scrapes under ingest load

TEST(AdminServer, ConcurrentScrapesWhileIngesting) {
  auto server = MustStart();
  const uint16_t port = server->port();

  const ProtocolConfig config = OracleConfig("hadamard_response", 256, 1.0);
  ShardedAggregatorOptions opts;
  opts.num_shards = 2;
  opts.queue_capacity = 1 << 12;
  auto agg_or = ShardedAggregator::Create(config, opts);
  ASSERT_TRUE(agg_or.ok()) << agg_or.status().ToString();
  auto agg = std::move(agg_or).value();

  const std::vector<WireReport> reports =
      EncodeSkewedReports(config, 20000, /*seed=*/11, /*value_domain=*/256);

  std::atomic<bool> ingest_done{false};
  std::thread ingest([&] {
    // Re-submit the same wire batch until the scrapers finish, so every
    // scrape overlaps live SubmitWire/WorkerLoop spans.
    const std::string wire = EncodeReportBatch(reports, agg->wire_id());
    for (int round = 0; round < 50; ++round) {
      if (!agg->SubmitWire(wire).ok()) break;
    }
    EXPECT_TRUE(agg->Drain().ok());
    ingest_done.store(true);
  });

  constexpr int kScrapers = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&, s] {
      const char* paths[] = {"/metrics", "/metrics.json", "/statusz",
                             "/spanz"};
      for (int i = 0; i < 20; ++i) {
        const std::string path = paths[(s + i) % 4];
        const std::string response = HttpGet(port, path);
        if (StatusCodeOf(response) != 200) {
          ++failures;
          continue;
        }
        if (path != "/metrics") {
          obs::JsonValue v;
          if (!obs::ParseJson(BodyOf(response), &v).ok()) ++failures;
        }
      }
    });
  }
  for (auto& t : scrapers) t.join();
  ingest.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(ingest_done.load());

  // The ingest that ran concurrently is visible in /statusz.
  const obs::JsonValue statusz =
      MustParseJson(BodyOf(HttpGet(port, "/statusz")));
  const obs::JsonValue* sections = statusz.Find("sections");
  ASSERT_NE(sections, nullptr);
  ASSERT_NE(sections->Find("ingest"), nullptr);
  const obs::JsonValue& ingest_sections = *sections->Find("ingest");
  ASSERT_TRUE(ingest_sections.is_array());
  ASSERT_FALSE(ingest_sections.array.empty());
  const obs::JsonValue& section = ingest_sections.array.back();
  EXPECT_GT(section.Find("submitted")->number_value, 0.0);
  ASSERT_NE(section.Find("protocol_metrics"), nullptr);
  EXPECT_GT(section.Find("protocol_metrics")->Find("num_users")->number_value,
            0.0);
}

// -------------------------------------------------------- health flipping

TEST(AdminServer, HealthzFlipsWithStoreWriteFailuresAndHeals) {
  auto server = MustStart();
  const uint16_t port = server->port();

  FaultInjectingFileSystem fs;
  CheckpointStoreOptions store_opts;
  store_opts.sync_mode = SyncMode::kFull;
  store_opts.background_compaction = false;
  store_opts.file_system = &fs;
  const std::string dir = "/faulty-admin-store";
  auto store_or = CheckpointStore::Open(dir, store_opts);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();

  ASSERT_TRUE(store->Put(1, "healthy write").ok());
  {
    const std::string response = HttpGet(port, "/healthz");
    EXPECT_EQ(StatusCodeOf(response), 200) << response;
    EXPECT_NE(BodyOf(response).find("ok store:" + dir), std::string::npos);
  }

  // The disk stops honoring fsync: the next Put fails and latches the
  // store's write health; /healthz goes 503 and names the store.
  fs.set_fail_file_syncs(true);
  EXPECT_FALSE(store->Put(2, "doomed write").ok());
  {
    const std::string response = HttpGet(port, "/healthz");
    EXPECT_EQ(StatusCodeOf(response), 503) << response;
    EXPECT_NE(BodyOf(response).find("FAIL store:" + dir), std::string::npos);
    EXPECT_NE(BodyOf(response).find("injected sync failure"),
              std::string::npos);
  }

  // The fault clears and the next successful write heals the check.
  fs.set_fail_file_syncs(false);
  ASSERT_TRUE(store->Put(3, "healed write").ok());
  {
    const std::string response = HttpGet(port, "/healthz");
    EXPECT_EQ(StatusCodeOf(response), 200) << response;
  }

  // Destroying the store unregisters its checks: /healthz must not
  // reference it afterwards (the Registration members are declared last
  // exactly so this is safe).
  store.reset();
  EXPECT_EQ(BodyOf(HttpGet(port, "/healthz")).find("store:" + dir),
            std::string::npos);
}

}  // namespace
}  // namespace ldphh
