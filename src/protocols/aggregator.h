/// \file aggregator.h
/// \brief The protocol-agnostic serving interface: every frequency oracle
/// and every heavy-hitter protocol, behind one streaming API.
///
/// The paper's point is structural — frequency oracles and the heavy-hitter
/// reductions built on them are interchangeable components. `Aggregator` is
/// that interchangeability made operational: a protocol is (1) a client-side
/// `Encode` that privatizes one user's value into a single `WireReport`,
/// (2) a server-side `Aggregate` that absorbs reports in any order, with
/// mergeable, serializable state, and (3) an `EstimateTopK` decode. The
/// sharded ingestion service, the epoch layer, the checkpoint/restore path,
/// and the read replicas all speak this interface and nothing else, so
/// Bitstogram serves exactly like k-RR.
///
/// Exactness contract (inherited from the PR 1 mergeable-state layer): for
/// a fixed `ProtocolConfig`, splitting any report multiset across instances,
/// merging their states (or serializing + restoring them along the way),
/// and decoding must produce bit-for-bit the estimates of one instance that
/// aggregated every report itself. Every built-in protocol satisfies this
/// because all aggregation state is integer-valued tallies (or report
/// lists), so addition order cannot perturb a double.
///
/// Instances are built from a `ProtocolConfig` by the `ProtocolRegistry`
/// (src/protocols/registry.h); `config()` returns the fully resolved config
/// (seed, n_hint, every auto-derived parameter pinned), so
/// `Registry::Create(a.config())` reconstructs an identical instance — the
/// property that makes checkpoints and epoch records self-describing.

#ifndef LDPHH_PROTOCOLS_AGGREGATOR_H_
#define LDPHH_PROTOCOLS_AGGREGATOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/freq/freq_oracle.h"
#include "src/protocols/heavy_hitters.h"
#include "src/protocols/protocol_config.h"

namespace ldphh {

/// \brief One servable LDP protocol instance (see file comment).
class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// The fully resolved, self-describing configuration.
  virtual const ProtocolConfig& config() const = 0;

  /// Protocol name (the registry key).
  const std::string& Name() const { return config().protocol(); }

  /// The end-to-end per-user privacy parameter.
  virtual double Epsilon() const = 0;

  /// Client: privatizes \p value for user \p user_index into one wire
  /// report (composite protocols pack their sub-reports into the 64-bit
  /// payload; widths are fixed by the config). Fails on a value outside
  /// the protocol's domain.
  virtual StatusOr<WireReport> Encode(uint64_t user_index,
                                      const DomainItem& value,
                                      Rng& rng) const = 0;

  /// Server: absorbs one report. Reports may arrive in any order and on
  /// any instance of the same config. A structurally invalid report (wrong
  /// width for this config) fails without mutating state.
  virtual Status Aggregate(const WireReport& report) = 0;

  /// Folds \p other's aggregation state into this instance. Both must be
  /// un-finalized with equal configs; \p other is left unspecified.
  virtual Status Merge(Aggregator& other) = 0;

  /// Appends a binary snapshot of the aggregation state to \p out. The
  /// snapshot is config-relative: restore it only into an instance built
  /// from an equal config (the serving layers enforce this by embedding
  /// the config next to every persisted snapshot).
  virtual Status SerializeState(std::string* out) const = 0;

  /// Replaces the aggregation state with a SerializeState snapshot taken
  /// under an equal config.
  virtual Status RestoreState(std::string_view in) = 0;

  /// Decode: finalizes on first call, then returns up to \p k entries by
  /// estimate, descending (ties: ascending item — a total order, so two
  /// instances with equal state return byte-identical lists). Frequency
  /// oracles scan their domain; heavy-hitter protocols run their candidate
  /// recovery. Aggregate/Merge/SerializeState/RestoreState fail afterwards.
  virtual StatusOr<std::vector<HeavyHitterEntry>> EstimateTopK(size_t k) = 0;

  /// Reports aggregated into this instance so far (merged counts add).
  virtual uint64_t ReportCount() const = 0;

  /// Definition 3.1's Delta at \p n reports: the smallest frequency the
  /// protocol reliably lists, with this implementation's constants. Only
  /// heavy-hitter protocols have one; frequency oracles fail with
  /// kFailedPrecondition.
  virtual StatusOr<double> DetectionThreshold(uint64_t /*n*/) const {
    return Status::FailedPrecondition(Name() +
                                      ": no detection threshold (not a "
                                      "heavy-hitter protocol)");
  }

  /// Table 1's public randomness per user: the bits of public coins one
  /// client expands to encode. 0 where the protocol does not account it.
  virtual uint64_t PublicRandomBitsPerUser() const { return 0; }
};

/// The EstimateTopK ordering: estimate descending, item ascending.
inline bool HeavyHitterEntryOrder(const HeavyHitterEntry& a,
                                  const HeavyHitterEntry& b) {
  if (a.estimate != b.estimate) return a.estimate > b.estimate;
  return a.item < b.item;
}

/// \brief Convenience base carrying the resolved config, epsilon, report
/// count, and the finalized flag every implementation needs.
class ConfiguredAggregator : public Aggregator {
 public:
  const ProtocolConfig& config() const override { return config_; }
  double Epsilon() const override { return epsilon_; }
  uint64_t ReportCount() const override { return count_; }

 protected:
  ConfiguredAggregator(ProtocolConfig config, double epsilon)
      : config_(std::move(config)), epsilon_(epsilon) {}

  /// Shared Merge preamble: equal configs, both sides un-finalized.
  Status CheckMergeCompatible(const Aggregator& other) const {
    if (other.config() != config_) {
      return Status::InvalidArgument(
          Name() + ": Merge config mismatch (this is " + config_.ToText() +
          ", other is " + other.config().ToText() + ")");
    }
    if (finalized_) {
      return Status::FailedPrecondition(Name() + ": Merge after EstimateTopK");
    }
    return Status::OK();
  }

  Status CheckMutable(const char* op) const {
    if (finalized_) {
      return Status::FailedPrecondition(Name() + ": " + op +
                                        " after EstimateTopK");
    }
    return Status::OK();
  }

  ProtocolConfig config_;
  double epsilon_;
  uint64_t count_ = 0;
  bool finalized_ = false;
};

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_AGGREGATOR_H_
