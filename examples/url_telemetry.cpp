// URL telemetry — the Chrome/RAPPOR scenario from the paper's introduction.
//
// A browser vendor wants the most common homepage URLs across a fleet
// without learning any individual user's homepage. Each browser reports one
// eps-LDP message; the server reconstructs the popular URLs *as strings*
// (the domain is all strings up to 16 bytes — 2^128 items — so no
// enumeration is possible; this is exactly the regime the paper's protocol
// is built for).

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/ldphh.h"

int main() {
  using namespace ldphh;
  const int kBits = 128;  // 16-byte URL prefixes.
  const uint64_t n = 1 << 20;

  // Popular homepages with a realistic popularity profile, over a long
  // tail of unique personal pages.
  const std::vector<std::pair<std::string, uint64_t>> popular = {
      {"google.com", n / 4},
      {"youtube.com", n / 5},
      {"wikipedia.org", n / 6},
      {"bbc.co.uk", n / 50},    // Below the detection threshold: invisible.
      {"arxiv.org", n / 100},   // Ditto.
  };
  Workload w = MakeStringWorkload(popular, kBits, 7);
  Rng tail(99);
  while (w.database.size() < n) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "user%llu.example",
                  static_cast<unsigned long long>(tail()));
    w.database.push_back(DomainItem::FromString(buf, kBits));
  }

  const double eps = 4.0;
  ProtocolConfig pes("private_expander_sketch");
  pes.SetUint("domain_bits", kBits)
      .SetDouble("eps", eps)
      .SetDouble("beta", 1e-3)
      .SetUint("num_coords", 32);

  std::printf("URL telemetry over n=%llu browsers (eps=%.1f, |X|=2^%d)\n",
              static_cast<unsigned long long>(n), eps, kBits);
  std::printf("detection threshold: %.0f reports\n\n",
              CreateAggregator(pes).value()->DetectionThreshold(n).value());

  const auto result = RunBatch(pes, w.database, 11).value();

  std::printf("discovered homepages:\n");
  std::printf("%-24s %12s %12s\n", "url", "estimate", "true");
  for (const auto& entry : result.entries) {
    uint64_t truth = 0;
    for (const auto& [item, count] : w.heavy) {
      if (item == entry.item) truth = count;
    }
    std::printf("%-24s %12.0f %12llu\n", entry.item.ToString(kBits).c_str(),
                entry.estimate, static_cast<unsigned long long>(truth));
  }

  std::printf(
      "\n(the sub-threshold sites — bbc.co.uk at %.1f%%, arxiv.org at "
      "%.1f%% —\n stay invisible: that is the privacy/utility boundary "
      "Delta of Definition 3.1)\n",
      100.0 / 50, 100.0 / 100);
  std::printf("\nper-user cost: %.0f bits sent, %.2f us compute\n",
              result.metrics.CommBitsAvg(),
              result.metrics.UserSecondsAvg() * 1e6);
  return 0;
}
