#include "src/protocols/treehist.h"

#include <algorithm>
#include <cmath>

namespace ldphh {

std::vector<DomainItem> TreeHistGrowFrontier(
    const std::vector<Hashtogram>& level_fo,
    const std::vector<uint64_t>& level_counts, int domain_bits, double c_eps,
    double threshold_sigmas, int frontier_cap) {
  struct Scored {
    DomainItem prefix;
    double score;
  };
  std::vector<Scored> frontier = {{DomainItem(), 0.0}};
  for (int l = 0; l < domain_bits; ++l) {
    const auto& fo = level_fo[static_cast<size_t>(l)];
    const double n_l = static_cast<double>(level_counts[static_cast<size_t>(l)]);
    const double tau = threshold_sigmas * c_eps *
                       std::sqrt(std::max(1.0, n_l) *
                                 static_cast<double>(fo.rows()));
    std::vector<Scored> next;
    next.reserve(frontier.size() * 2);
    for (const auto& cand : frontier) {
      for (int bit = 0; bit < 2; ++bit) {
        DomainItem child = cand.prefix;
        child.SetBit(l, bit);
        const double est = fo.Estimate(child);
        if (est >= tau) next.push_back({child, est});
      }
    }
    if (static_cast<int>(next.size()) > frontier_cap) {
      std::partial_sort(next.begin(), next.begin() + frontier_cap, next.end(),
                        [](const Scored& a, const Scored& b) {
                          return a.score > b.score;
                        });
      next.resize(static_cast<size_t>(frontier_cap));
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  std::vector<DomainItem> leaves;
  leaves.reserve(frontier.size());
  for (const auto& cand : frontier) leaves.push_back(cand.prefix);
  return leaves;
}

}  // namespace ldphh
