#include "src/protocols/succinct_hist.h"

#include <algorithm>
#include <cmath>

namespace ldphh {

std::vector<HeavyHitterEntry> SuccinctHistScan(
    uint64_t sign_seed, const std::vector<std::pair<uint64_t, int8_t>>& reports,
    int domain_bits, double epsilon, double tau, int list_cap) {
  const uint64_t domain = uint64_t{1} << domain_bits;
  const double e = std::exp(epsilon);
  const double c_eps = (e + 1.0) / (e - 1.0);
  struct Scored {
    uint64_t value;
    double estimate;
  };
  std::vector<Scored> hits;
  for (uint64_t v = 0; v < domain; ++v) {
    const DomainItem item(v);
    // The summands are +-1, so the accumulator is integer-valued and the
    // sum is exact in any order — the merge-equivalence guarantee.
    double acc = 0.0;
    for (const auto& [user, bit] : reports) {
      acc += static_cast<double>(bit) *
             static_cast<double>(SuccinctHistSign(sign_seed, user, item));
    }
    const double estimate = c_eps * acc;
    if (estimate >= tau) hits.push_back(Scored{v, estimate});
  }
  // Canonical order (estimate descending, ties value ascending — a total
  // order), applied whether or not the cap truncates, so the documented
  // sorted-ness holds on every path and equal state scans byte-identically.
  std::sort(hits.begin(), hits.end(), [](const Scored& a, const Scored& b) {
    if (a.estimate != b.estimate) return a.estimate > b.estimate;
    return a.value < b.value;
  });
  if (static_cast<int>(hits.size()) > list_cap) {
    hits.resize(static_cast<size_t>(list_cap));
  }
  std::vector<HeavyHitterEntry> entries;
  entries.reserve(hits.size());
  for (const Scored& s : hits) {
    entries.push_back(HeavyHitterEntry{DomainItem(s.value), s.estimate});
  }
  return entries;
}

}  // namespace ldphh
