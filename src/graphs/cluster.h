/// \file cluster.h
/// \brief Cluster-preserving clustering (Theorem B.3 of the paper, from
/// Larsen-Nelson-Nguyen-Thorup 2016), practical variant.
///
/// Contract (Definition B.2 / Theorem B.3): given a graph containing
/// eta-spectral clusters (vertex sets with at most an eta fraction of
/// incident edges leaving, and internal edge density close to that of a
/// regular graph), return disjoint vertex sets such that every eta-spectral
/// cluster matches one returned set up to O(eta) * vol symmetric difference.
///
/// Implementation (docs/protocols.md, "Implementation substitutions"):
/// connected components, then recursive spectral sweep-cut partitioning — a
/// component whose best Fiedler sweep cut has conductance below the
/// threshold is split and both sides are recursed on; otherwise the
/// component is emitted as a cluster.
/// Low-degree peeling (the decoder's "degree <= d/2" rule) is left to the
/// caller, which knows the expander degree.

#ifndef LDPHH_GRAPHS_CLUSTER_H_
#define LDPHH_GRAPHS_CLUSTER_H_

#include <vector>

#include "src/common/random.h"
#include "src/graphs/graph.h"

namespace ldphh {

/// Options for the clustering decoder.
struct ClusterOptions {
  /// Conductance threshold: a component is split while its best sweep cut
  /// has conductance below this value. Matches the eta of the contract.
  double conductance_threshold = 0.15;
  /// Components smaller than this are emitted without spectral work.
  int min_split_size = 4;
  /// Power-iteration budget for the Fiedler vector.
  int fiedler_iters = 60;
  /// Recursion depth cap (defensive; log-depth expected).
  int max_depth = 32;
};

/// \brief Finds spectral clusters in \p g.
///
/// Returns disjoint vertex sets (original vertex ids, sorted). Isolated
/// vertices are returned as singleton clusters; callers typically filter by
/// size/degree afterwards.
std::vector<std::vector<int>> FindSpectralClusters(const Graph& g,
                                                   const ClusterOptions& options,
                                                   Rng& rng);

}  // namespace ldphh

#endif  // LDPHH_GRAPHS_CLUSTER_H_
