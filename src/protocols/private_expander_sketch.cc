#include "src/protocols/private_expander_sketch.h"

#include <algorithm>
#include <unordered_set>

namespace ldphh {

std::vector<DomainItem> PesRecoverCandidates(
    const std::vector<HadamardResponseFO>& cell_fo, const UrlCode& code,
    const KWiseHash& bucket_hash, int num_coords, int num_buckets,
    int hash_range, int payload_bits, int list_cap, double tau,
    Rng& decode_rng) {
  struct Candidate {
    uint16_t y;
    uint64_t payload;
    double count;
  };
  // Step 3: lists[b][m] = entries for bucket b, coordinate m.
  std::vector<std::vector<std::vector<UrlCode::ListEntry>>> lists(
      static_cast<size_t>(num_buckets),
      std::vector<std::vector<UrlCode::ListEntry>>(
          static_cast<size_t>(num_coords)));

  std::vector<Candidate> cands;
  for (int m = 0; m < num_coords; ++m) {
    for (int b = 0; b < num_buckets; ++b) {
      cands.clear();
      for (int y = 0; y < hash_range; ++y) {
        const uint64_t base =
            (static_cast<uint64_t>(b) * static_cast<uint64_t>(hash_range) +
             static_cast<uint64_t>(y)) *
            2;
        double count = 0.0;
        uint64_t payload = 0;
        for (int j = 0; j < payload_bits; ++j) {
          const auto& fo = cell_fo[static_cast<size_t>(m * payload_bits + j)];
          const double e0 = fo.Estimate(base);
          const double e1 = fo.Estimate(base + 1);
          count += e0 + e1;
          if (e1 > e0) payload |= uint64_t{1} << j;
        }
        if (count >= tau) {
          cands.push_back(Candidate{static_cast<uint16_t>(y), payload, count});
        }
      }
      if (static_cast<int>(cands.size()) > list_cap) {
        std::partial_sort(cands.begin(), cands.begin() + list_cap, cands.end(),
                          [](const Candidate& lhs, const Candidate& rhs) {
                            return lhs.count > rhs.count;
                          });
        cands.resize(static_cast<size_t>(list_cap));
      }
      auto& lst = lists[static_cast<size_t>(b)][static_cast<size_t>(m)];
      lst.reserve(cands.size());
      for (const Candidate& cand : cands) {
        lst.push_back(UrlCode::ListEntry{cand.y, cand.payload});
      }
    }
  }

  // Step 4: per-bucket decode; verify the bucket hash.
  std::unordered_set<DomainItem, DomainItemHash> recovered;
  std::vector<DomainItem> ordered;
  for (int b = 0; b < num_buckets; ++b) {
    const auto items = code.Decode(lists[static_cast<size_t>(b)], decode_rng);
    for (const DomainItem& x : items) {
      if (bucket_hash(x) != static_cast<uint64_t>(b)) continue;
      if (recovered.insert(x).second) ordered.push_back(x);
    }
  }
  return ordered;
}

}  // namespace ldphh
