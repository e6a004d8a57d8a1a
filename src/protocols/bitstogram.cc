#include "src/protocols/bitstogram.h"

#include <algorithm>
#include <unordered_set>

namespace ldphh {

std::vector<DomainItem> BitstogramRecoverCandidates(
    const std::vector<HadamardResponseFO>& cell_fo,
    const HashFamily& cohort_hash, int cohorts, int domain_bits,
    int hash_range, int list_cap_per_cohort, double tau) {
  struct Candidate {
    DomainItem item;
    double count;
    int y;
  };
  std::unordered_set<DomainItem, DomainItemHash> recovered;
  std::vector<DomainItem> ordered;
  std::vector<Candidate> cands;
  for (int c = 0; c < cohorts; ++c) {
    cands.clear();
    for (int y = 0; y < hash_range; ++y) {
      double count = 0.0;
      DomainItem item;
      for (int j = 0; j < domain_bits; ++j) {
        const auto& fo = cell_fo[static_cast<size_t>(c * domain_bits + j)];
        const double e0 = fo.Estimate(static_cast<uint64_t>(y) * 2);
        const double e1 = fo.Estimate(static_cast<uint64_t>(y) * 2 + 1);
        count += e0 + e1;
        if (e1 > e0) item.SetBit(j, 1);
      }
      if (count >= tau) cands.push_back(Candidate{item, count, y});
    }
    if (static_cast<int>(cands.size()) > list_cap_per_cohort) {
      std::partial_sort(cands.begin(), cands.begin() + list_cap_per_cohort,
                        cands.end(), [](const Candidate& a, const Candidate& b) {
                          return a.count > b.count;
                        });
      cands.resize(static_cast<size_t>(list_cap_per_cohort));
    }
    for (const Candidate& cand : cands) {
      // A candidate is plausible only if it hashes back to its own cell.
      if (static_cast<int>(cohort_hash.at(c)(cand.item)) != cand.y) continue;
      if (recovered.insert(cand.item).second) ordered.push_back(cand.item);
    }
  }
  return ordered;
}

}  // namespace ldphh
