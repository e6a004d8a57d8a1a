// Self-test of the open-loop generator (open_loop.h) against a real
// ReportServer on loopback whose stub sink stalls once for a known time.
//
//   blocked: the stall is many send periods long. The frames that fell due
//            during it queue behind the stalled one, so their due-time ack
//            latency rises, and the sender, stuck waiting for the ack, runs
//            late — the stall shows in generator.late_*.
//   idle:    the stall is shorter than the gap to the next frame. Only the
//            stalled frame's latency rises; the sender was never blocked
//            past a due time, so its lateness stays near zero.
//
// Exits 0 when both hold, 1 otherwise. Run: generator_selftest

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "open_loop.h"
#include "src/net/report_client.h"
#include "src/server/report_server.h"

namespace servebench {
namespace {

struct Case {
  const char* name;
  double frames_per_s;
  size_t frames;
  size_t stall_frame;
  double stall_ms;
};

double MaxOf(const std::vector<double>& v, size_t from, size_t to) {
  double m = 0;
  for (size_t i = from; i < to && i < v.size(); ++i) m = std::max(m, v[i]);
  return m;
}

bool Expect(bool ok, const char* what, double value) {
  std::printf("  %-58s %9.3f ms  %s\n", what, value, ok ? "ok" : "FAIL");
  return ok;
}

bool RunCase(const Case& c) {
  std::atomic<size_t> calls{0};
  ldphh::ReportServer::Options options;
  options.sink_threads = 1;
  auto server_or = ldphh::ReportServer::Create(
      options, [&](std::string_view) {
        if (calls.fetch_add(1) == c.stall_frame) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(c.stall_ms));
        }
        return ldphh::Status::OK();
      });
  if (!server_or.ok()) return false;
  std::unique_ptr<ldphh::ReportServer> server = std::move(server_or).value();
  if (!server->Start().ok()) return false;

  ldphh::net::ReportClient::Options client_options;
  client_options.pipeline_window = 1;
  auto client_or =
      ldphh::net::ReportClient::ConnectTcp("127.0.0.1", server->port(), client_options);
  if (!client_or.ok()) return false;
  auto& client = *client_or.value();
  const std::string payload(64, 'x');
  const OpenLoopResult r = RunOpenLoop(
      c.frames, c.frames_per_s, Clock::now(),
      [&](size_t) { return client.Send(payload); });
  server->Stop();

  const double period_ms = 1e3 / c.frames_per_s;
  const size_t s = c.stall_frame;
  const double noise_ms = 5.0;  // Scheduling slack on a shared machine.
  std::printf("case %s: %zu frames every %.1f ms, sink stalls %.0f ms on "
              "frame %zu\n",
              c.name, c.frames, period_ms, c.stall_ms, s);
  bool ok = r.failed == 0;
  ok &= Expect(r.ack_ms[s] >= c.stall_ms, "stalled frame: ack latency >= stall",
               r.ack_ms[s]);
  if (c.stall_ms > 4 * period_ms) {
    // The frame due half-way through the stall still waits out its rest.
    const size_t mid = s + static_cast<size_t>(c.stall_ms / period_ms / 2);
    const double rest = c.stall_ms - (mid - s) * period_ms;
    ok &= Expect(r.ack_ms[mid] >= rest - 1.0,
                 "frame due mid-stall: ack latency >= rest of stall",
                 r.ack_ms[mid]);
    ok &= Expect(r.late_ms[s + 1] >= c.stall_ms - period_ms - 1.0,
                 "next frame: sender late by the stall", r.late_ms[s + 1]);
    ok &= Expect(MaxOf(r.ack_ms, 0, s) < noise_ms,
                 "frames before the stall: ack latency small",
                 MaxOf(r.ack_ms, 0, s));
  } else {
    ok &= Expect(r.late_ms[s + 1] < noise_ms,
                 "next frame: sender not late (was never blocked)",
                 r.late_ms[s + 1]);
    ok &= Expect(MaxOf(r.late_ms, 0, c.frames) < noise_ms,
                 "every frame: sender lateness small", MaxOf(r.late_ms, 0, c.frames));
  }
  return ok;
}

}  // namespace
}  // namespace servebench

int main() {
  using servebench::Case;
  const Case blocked{"blocked", 1000.0, 200, 100, 30.0};
  const Case idle{"idle", 40.0, 30, 15, 10.0};
  const bool ok = servebench::RunCase(blocked) && servebench::RunCase(idle);
  std::printf("generator self-test: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
