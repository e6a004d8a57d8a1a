#include "src/protocols/hh_serving.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/math_util.h"
#include "src/common/serde.h"
#include "src/freq/hadamard_response.h"
#include "src/freq/hashtogram.h"
#include "src/hashing/kwise_hash.h"
#include "src/protocols/bitstogram.h"
#include "src/protocols/private_expander_sketch.h"
#include "src/protocols/serving_util.h"
#include "src/protocols/succinct_hist.h"
#include "src/protocols/treehist.h"

namespace ldphh {

namespace {

using serving::CheckItemWidth;
using serving::CheckReportShape;
using serving::SortTopK;

// --------------------------------------------------------- shared helpers --

/// (e^{eps} + 1) / (e^{eps} - 1): the randomized-response debias constant.
double CEps(double eps) {
  const double e = std::exp(eps);
  return (e + 1.0) / (e - 1.0);
}

/// Packs two sub-reports little-endian: \p lo in the low lo_bits, \p hi
/// above it. The factories validated lo_bits + hi_bits <= 64 at create time.
FoReport PackPair(const FoReport& lo, int lo_bits, const FoReport& hi,
                  int hi_bits) {
  FoReport out;
  out.bits = lo.bits | (hi.bits << lo_bits);
  out.num_bits = lo_bits + hi_bits;
  return out;
}

void UnpackPair(const FoReport& packed, int lo_bits, int hi_bits,
                FoReport* lo, FoReport* hi) {
  lo->bits = lo_bits < 64 ? (packed.bits & ((uint64_t{1} << lo_bits) - 1))
                          : packed.bits;
  lo->num_bits = lo_bits;
  hi->bits = packed.bits >> lo_bits;
  hi->num_bits = hi_bits;
}

/// Serializes a component oracle state, length-prefixed.
template <typename Oracle>
Status AppendComponentState(const Oracle& oracle, std::string* out) {
  std::string state;
  LDPHH_RETURN_IF_ERROR(oracle.SerializeState(&state));
  PutLengthPrefixed(out, state);
  return Status::OK();
}

template <typename Oracle>
Status RestoreComponentState(ByteReader& reader, Oracle* oracle) {
  std::string_view state;
  LDPHH_RETURN_IF_ERROR(reader.ReadLengthPrefixed(&state));
  return oracle->RestoreState(state);
}

/// Shared parse of the heavy-hitter config keys present in every grammar.
struct HhCommon {
  int domain_bits = 0;
  double eps = 0.0;
  double beta = 0.0;
  uint64_t n_hint = 0;
  uint64_t seed = 0;
};

StatusOr<HhCommon> ParseHhCommon(const ProtocolConfig& config, int min_bits,
                                 int max_bits) {
  HhCommon c;
  uint64_t domain_bits = 0;
  LDPHH_RETURN_IF_ERROR(config.GetUint("domain_bits", &domain_bits));
  LDPHH_RETURN_IF_ERROR(config.GetDouble("eps", &c.eps));
  if (domain_bits < static_cast<uint64_t>(min_bits) ||
      domain_bits > static_cast<uint64_t>(max_bits)) {
    return Status::InvalidArgument(
        config.protocol() + ": domain_bits must be in [" +
        std::to_string(min_bits) + ", " + std::to_string(max_bits) + "]");
  }
  // The 64 cap keeps every exp(eps)-derived constant finite (and any
  // larger eps is not meaningfully private anyway).
  if (!(c.eps > 0.0) || !(c.eps <= 64.0)) {
    return Status::InvalidArgument(config.protocol() +
                                   ": eps must be in (0, 64]");
  }
  c.domain_bits = static_cast<int>(domain_bits);
  c.beta = config.GetDoubleOr("beta", 1e-3);
  if (!(c.beta > 0.0 && c.beta < 1.0)) {
    return Status::InvalidArgument(config.protocol() +
                                   ": beta must be in (0, 1)");
  }
  LDPHH_RETURN_IF_ERROR(config.GetUintIn("n_hint", uint64_t{1} << 16, 16,
                                         uint64_t{1} << 40, &c.n_hint));
  c.seed = config.GetUintOr("seed", 1);
  return c;
}

/// threshold_sigmas (and friends) must be finite and non-negative: NaN
/// would poison every tau comparison into "keep nothing" silently.
Status CheckSigmas(double sigmas, const std::string& name) {
  if (!std::isfinite(sigmas) || sigmas < 0.0) {
    return Status::InvalidArgument(
        name + ": threshold_sigmas must be finite and >= 0");
  }
  return Status::OK();
}

Status CheckPackedWidth(int lo_bits, int hi_bits, const std::string& name) {
  if (lo_bits + hi_bits > 64) {
    return Status::InvalidArgument(
        name + ": packed report needs " + std::to_string(lo_bits + hi_bits) +
        " bits; the wire payload holds 64 (shrink hash_range / fo_table or "
        "n_hint)");
  }
  return Status::OK();
}

/// Echoes the common keys into the resolved config.
void EchoCommon(const HhCommon& c, ProtocolConfig* resolved) {
  resolved->SetUint("domain_bits", static_cast<uint64_t>(c.domain_bits))
      .SetDouble("eps", c.eps)
      .SetDouble("beta", c.beta)
      .SetUint("n_hint", c.n_hint)
      .SetUint("seed", c.seed);
}

/// Builds the global-estimation Hashtogram from the shared fo_rows/fo_table
/// keys and echoes the resolved values into \p resolved.
StatusOr<std::unique_ptr<Hashtogram>> MakeGlobalFo(
    const ProtocolConfig& config, const HhCommon& c, uint64_t global_seed,
    ProtocolConfig* resolved) {
  HashtogramParams params;
  uint64_t fo_rows = 0;
  LDPHH_RETURN_IF_ERROR(config.GetUintIn("fo_rows", 0, 0, 4096, &fo_rows));
  params.rows = static_cast<int>(fo_rows);
  LDPHH_RETURN_IF_ERROR(config.GetUintIn("fo_table", 0, 0, uint64_t{1} << 24,
                                         &params.table_size));
  params.beta = c.beta;
  auto global =
      std::make_unique<Hashtogram>(c.n_hint, c.eps / 2.0, params, global_seed);
  resolved->SetUint("fo_rows", static_cast<uint64_t>(global->rows()))
      .SetUint("fo_table", global->table_size());
  return global;
}

// -------------------------------------------------------------- bitstogram --

class BitstogramAggregator final : public ConfiguredAggregator {
 public:
  struct Init {
    ProtocolConfig config;
    HhCommon common;
    int cohorts = 0;
    int y_range = 0;
    int list_cap = 0;
    double threshold_sigmas = 0.0;
    uint64_t group_seed = 0;
    std::unique_ptr<HashFamily> cohort_hash;
    std::vector<HadamardResponseFO> cell_fo;
    std::unique_ptr<Hashtogram> global;
    int cell_bits = 0;
    int global_bits = 0;
  };

  explicit BitstogramAggregator(Init init)
      : ConfiguredAggregator(std::move(init.config), init.common.eps),
        common_(init.common),
        cohorts_(init.cohorts),
        y_range_(init.y_range),
        list_cap_(init.list_cap),
        threshold_sigmas_(init.threshold_sigmas),
        group_seed_(init.group_seed),
        cohort_hash_(std::move(init.cohort_hash)),
        cell_fo_(std::move(init.cell_fo)),
        global_(std::move(init.global)),
        cell_bits_(init.cell_bits),
        global_bits_(init.global_bits) {}

  StatusOr<WireReport> Encode(uint64_t user_index, const DomainItem& value,
                              Rng& rng) const override {
    LDPHH_RETURN_IF_ERROR(CheckItemWidth(value, common_.domain_bits, Name()));
    const int q = GroupOf(user_index);
    const int c = q / common_.domain_bits;
    const int j = q % common_.domain_bits;
    const uint64_t y = cohort_hash_->at(c)(value);
    const uint64_t cell = y * 2 + static_cast<uint64_t>(value.Bit(j));
    const FoReport cell_rep =
        cell_fo_[static_cast<size_t>(q)].Encode(cell, rng);
    const FoReport glob = global_->Encode(user_index, value, rng);
    WireReport r;
    r.user_index = user_index;
    r.report = PackPair(cell_rep, cell_bits_, glob, global_bits_);
    return r;
  }

  Status Aggregate(const WireReport& report) override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("Aggregate"));
    LDPHH_RETURN_IF_ERROR(
        CheckReportShape(report.report, cell_bits_ + global_bits_, Name()));
    FoReport cell_rep, glob;
    UnpackPair(report.report, cell_bits_, global_bits_, &cell_rep, &glob);
    const int q = GroupOf(report.user_index);
    cell_fo_[static_cast<size_t>(q)].Aggregate(cell_rep);
    global_->Aggregate(report.user_index, glob);
    ++count_;
    return Status::OK();
  }

  Status Merge(Aggregator& other) override {
    LDPHH_RETURN_IF_ERROR(CheckMergeCompatible(other));
    auto* peer = dynamic_cast<BitstogramAggregator*>(&other);
    if (peer == nullptr) {
      return Status::InvalidArgument(Name() +
                                     ": Merge with foreign aggregator");
    }
    for (size_t q = 0; q < cell_fo_.size(); ++q) {
      LDPHH_RETURN_IF_ERROR(cell_fo_[q].Merge(peer->cell_fo_[q]));
    }
    LDPHH_RETURN_IF_ERROR(global_->Merge(*peer->global_));
    count_ += peer->count_;
    return Status::OK();
  }

  Status SerializeState(std::string* out) const override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("SerializeState"));
    PutU64(out, count_);
    PutU32(out, static_cast<uint32_t>(cell_fo_.size()));
    for (const auto& fo : cell_fo_) {
      LDPHH_RETURN_IF_ERROR(AppendComponentState(fo, out));
    }
    return AppendComponentState(*global_, out);
  }

  Status RestoreState(std::string_view in) override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("RestoreState"));
    ByteReader reader(in);
    uint64_t count = 0;
    uint32_t groups = 0;
    LDPHH_RETURN_IF_ERROR(reader.ReadU64(&count));
    LDPHH_RETURN_IF_ERROR(reader.ReadU32(&groups));
    if (groups != cell_fo_.size()) {
      return Status::DecodeFailure(Name() + ": snapshot group count mismatch");
    }
    for (auto& fo : cell_fo_) {
      LDPHH_RETURN_IF_ERROR(RestoreComponentState(reader, &fo));
    }
    LDPHH_RETURN_IF_ERROR(RestoreComponentState(reader, global_.get()));
    count_ = count;
    return Status::OK();
  }

  StatusOr<std::vector<HeavyHitterEntry>> EstimateTopK(size_t k) override {
    if (!finalized_) {
      for (auto& fo : cell_fo_) fo.Finalize();
      global_->Finalize();
      finalized_ = true;
    }
    const double count_sd =
        CEps(common_.eps / 2.0) *
        std::sqrt(2.0 * static_cast<double>(count_) /
                  static_cast<double>(cohorts_));
    const double tau = threshold_sigmas_ * count_sd;
    const std::vector<DomainItem> recovered = BitstogramRecoverCandidates(
        cell_fo_, *cohort_hash_, cohorts_, common_.domain_bits, y_range_,
        list_cap_, tau);
    std::vector<HeavyHitterEntry> entries;
    entries.reserve(recovered.size());
    for (const DomainItem& x : recovered) {
      entries.push_back(HeavyHitterEntry{x, global_->Estimate(x)});
    }
    return SortTopK(std::move(entries), k);
  }

  /// ~4.5 c_{eps/2} sqrt(n rho D): the sqrt(rho) = sqrt(log 1/beta) factor
  /// is the one the paper's Theorem 3.3 charges.
  StatusOr<double> DetectionThreshold(uint64_t n) const override {
    return 4.5 * CEps(common_.eps / 2.0) *
           std::sqrt(static_cast<double>(n) * static_cast<double>(cohorts_) *
                     static_cast<double>(common_.domain_bits));
  }

  /// The cohort hashes and the Hashtogram row hashes (61-bit words), plus
  /// the group-assignment word.
  uint64_t PublicRandomBitsPerUser() const override {
    return (static_cast<uint64_t>(2 * cohorts_ + 4) +
            6 * static_cast<uint64_t>(global_->rows()) + 1) *
           61;
  }

 private:
  int GroupOf(uint64_t user_index) const {
    return static_cast<int>(Mix64(group_seed_ ^ user_index) %
                            static_cast<uint64_t>(cell_fo_.size()));
  }

  HhCommon common_;
  int cohorts_;
  int y_range_;
  int list_cap_;
  double threshold_sigmas_;
  uint64_t group_seed_;
  std::unique_ptr<HashFamily> cohort_hash_;
  std::vector<HadamardResponseFO> cell_fo_;
  std::unique_ptr<Hashtogram> global_;
  int cell_bits_;
  int global_bits_;
};

// ---------------------------------------------------------------- treehist --

class TreeHistAggregator final : public ConfiguredAggregator {
 public:
  struct Init {
    ProtocolConfig config;
    HhCommon common;
    double threshold_sigmas = 0.0;
    int frontier_cap = 0;
    uint64_t level_assign_seed = 0;
    std::vector<Hashtogram> level_fo;
    std::unique_ptr<Hashtogram> global;
    int level_bits = 0;
    int global_bits = 0;
  };

  explicit TreeHistAggregator(Init init)
      : ConfiguredAggregator(std::move(init.config), init.common.eps),
        common_(init.common),
        threshold_sigmas_(init.threshold_sigmas),
        frontier_cap_(init.frontier_cap),
        level_assign_seed_(init.level_assign_seed),
        level_fo_(std::move(init.level_fo)),
        global_(std::move(init.global)),
        level_bits_(init.level_bits),
        global_bits_(init.global_bits),
        level_counts_(level_fo_.size(), 0) {}

  StatusOr<WireReport> Encode(uint64_t user_index, const DomainItem& value,
                              Rng& rng) const override {
    LDPHH_RETURN_IF_ERROR(CheckItemWidth(value, common_.domain_bits, Name()));
    const int level = LevelOf(user_index);
    DomainItem prefix = value;
    prefix.Truncate(level + 1);
    const FoReport level_rep =
        level_fo_[static_cast<size_t>(level)].Encode(user_index, prefix, rng);
    const FoReport glob = global_->Encode(user_index, value, rng);
    WireReport r;
    r.user_index = user_index;
    r.report = PackPair(level_rep, level_bits_, glob, global_bits_);
    return r;
  }

  Status Aggregate(const WireReport& report) override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("Aggregate"));
    LDPHH_RETURN_IF_ERROR(
        CheckReportShape(report.report, level_bits_ + global_bits_, Name()));
    FoReport level_rep, glob;
    UnpackPair(report.report, level_bits_, global_bits_, &level_rep, &glob);
    const int level = LevelOf(report.user_index);
    level_fo_[static_cast<size_t>(level)].Aggregate(report.user_index,
                                                    level_rep);
    global_->Aggregate(report.user_index, glob);
    ++level_counts_[static_cast<size_t>(level)];
    ++count_;
    return Status::OK();
  }

  Status Merge(Aggregator& other) override {
    LDPHH_RETURN_IF_ERROR(CheckMergeCompatible(other));
    auto* peer = dynamic_cast<TreeHistAggregator*>(&other);
    if (peer == nullptr) {
      return Status::InvalidArgument(Name() +
                                     ": Merge with foreign aggregator");
    }
    for (size_t l = 0; l < level_fo_.size(); ++l) {
      LDPHH_RETURN_IF_ERROR(level_fo_[l].Merge(peer->level_fo_[l]));
      level_counts_[l] += peer->level_counts_[l];
    }
    LDPHH_RETURN_IF_ERROR(global_->Merge(*peer->global_));
    count_ += peer->count_;
    return Status::OK();
  }

  Status SerializeState(std::string* out) const override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("SerializeState"));
    PutU64(out, count_);
    PutU32(out, static_cast<uint32_t>(level_fo_.size()));
    for (uint64_t c : level_counts_) PutU64(out, c);
    for (const auto& fo : level_fo_) {
      LDPHH_RETURN_IF_ERROR(AppendComponentState(fo, out));
    }
    return AppendComponentState(*global_, out);
  }

  Status RestoreState(std::string_view in) override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("RestoreState"));
    ByteReader reader(in);
    uint64_t count = 0;
    uint32_t levels = 0;
    LDPHH_RETURN_IF_ERROR(reader.ReadU64(&count));
    LDPHH_RETURN_IF_ERROR(reader.ReadU32(&levels));
    if (levels != level_fo_.size()) {
      return Status::DecodeFailure(Name() + ": snapshot level count mismatch");
    }
    std::vector<uint64_t> counts(level_fo_.size(), 0);
    for (auto& c : counts) LDPHH_RETURN_IF_ERROR(reader.ReadU64(&c));
    for (auto& fo : level_fo_) {
      LDPHH_RETURN_IF_ERROR(RestoreComponentState(reader, &fo));
    }
    LDPHH_RETURN_IF_ERROR(RestoreComponentState(reader, global_.get()));
    level_counts_ = std::move(counts);
    count_ = count;
    return Status::OK();
  }

  StatusOr<std::vector<HeavyHitterEntry>> EstimateTopK(size_t k) override {
    if (!finalized_) {
      for (auto& fo : level_fo_) fo.Finalize();
      global_->Finalize();
      finalized_ = true;
    }
    const std::vector<DomainItem> frontier = TreeHistGrowFrontier(
        level_fo_, level_counts_, common_.domain_bits, CEps(common_.eps / 2.0),
        threshold_sigmas_, frontier_cap_);
    std::vector<HeavyHitterEntry> entries;
    entries.reserve(frontier.size());
    for (const DomainItem& x : frontier) {
      entries.push_back(HeavyHitterEntry{x, global_->Estimate(x)});
    }
    return SortTopK(std::move(entries), k);
  }

  /// ~threshold_sigmas c_{eps/2} sqrt(n D R), R the per-level oracle's row
  /// count (the log(1/beta) amplification).
  StatusOr<double> DetectionThreshold(uint64_t n) const override {
    return threshold_sigmas_ * CEps(common_.eps / 2.0) *
           std::sqrt(static_cast<double>(n) *
                     static_cast<double>(common_.domain_bits) *
                     static_cast<double>(level_fo_[0].rows()));
  }

  /// The level and global Hashtogram row hashes (61-bit words), plus the
  /// level-assignment words.
  uint64_t PublicRandomBitsPerUser() const override {
    return (6 * static_cast<uint64_t>(level_fo_[0].rows()) +
            6 * static_cast<uint64_t>(global_->rows()) + 2) *
           61;
  }

 private:
  int LevelOf(uint64_t user_index) const {
    return static_cast<int>(Mix64(level_assign_seed_ ^ user_index) %
                            static_cast<uint64_t>(level_fo_.size()));
  }

  HhCommon common_;
  double threshold_sigmas_;
  int frontier_cap_;
  uint64_t level_assign_seed_;
  std::vector<Hashtogram> level_fo_;
  std::unique_ptr<Hashtogram> global_;
  int level_bits_;
  int global_bits_;
  std::vector<uint64_t> level_counts_;
};

// ------------------------------------------------- private_expander_sketch --

class PesAggregator final : public ConfiguredAggregator {
 public:
  struct Init {
    ProtocolConfig config;
    HhCommon common;
    int num_coords = 0;
    int num_buckets = 0;
    int y_range = 0;
    int expander_degree = 0;
    int payload_bits = 0;
    int list_cap = 0;
    double threshold_sigmas = 0.0;
    uint64_t group_seed = 0;
    uint64_t decode_seed = 0;
    std::unique_ptr<UrlCode> code;
    std::unique_ptr<KWiseHash> bucket_hash;
    std::vector<HadamardResponseFO> cell_fo;
    std::unique_ptr<Hashtogram> global;
    int cell_bits = 0;
    int global_bits = 0;
  };

  explicit PesAggregator(Init init)
      : ConfiguredAggregator(std::move(init.config), init.common.eps),
        common_(init.common),
        num_coords_(init.num_coords),
        num_buckets_(init.num_buckets),
        y_range_(init.y_range),
        expander_degree_(init.expander_degree),
        payload_bits_(init.payload_bits),
        list_cap_(init.list_cap),
        threshold_sigmas_(init.threshold_sigmas),
        group_seed_(init.group_seed),
        decode_seed_(init.decode_seed),
        code_(std::move(init.code)),
        bucket_hash_(std::move(init.bucket_hash)),
        cell_fo_(std::move(init.cell_fo)),
        global_(std::move(init.global)),
        cell_bits_(init.cell_bits),
        global_bits_(init.global_bits) {}

  StatusOr<WireReport> Encode(uint64_t user_index, const DomainItem& value,
                              Rng& rng) const override {
    LDPHH_RETURN_IF_ERROR(CheckItemWidth(value, common_.domain_bits, Name()));
    const int q = GroupOf(user_index);
    const int m = q / payload_bits_;
    const int j = q % payload_bits_;
    const UrlCode::Codeword cw = code_->Encode(value);
    const uint64_t b = (*bucket_hash_)(value);
    const uint64_t y = cw.y[static_cast<size_t>(m)];
    const uint64_t payload =
        code_->PackPayload(cw.symbols[static_cast<size_t>(m)]);
    const uint64_t bit = (payload >> j) & 1;
    const uint64_t cell =
        (b * static_cast<uint64_t>(y_range_) + y) * 2 + bit;
    const FoReport cell_rep =
        cell_fo_[static_cast<size_t>(q)].Encode(cell, rng);
    const FoReport glob = global_->Encode(user_index, value, rng);
    WireReport r;
    r.user_index = user_index;
    r.report = PackPair(cell_rep, cell_bits_, glob, global_bits_);
    return r;
  }

  Status Aggregate(const WireReport& report) override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("Aggregate"));
    LDPHH_RETURN_IF_ERROR(
        CheckReportShape(report.report, cell_bits_ + global_bits_, Name()));
    FoReport cell_rep, glob;
    UnpackPair(report.report, cell_bits_, global_bits_, &cell_rep, &glob);
    const int q = GroupOf(report.user_index);
    cell_fo_[static_cast<size_t>(q)].Aggregate(cell_rep);
    global_->Aggregate(report.user_index, glob);
    ++count_;
    return Status::OK();
  }

  Status Merge(Aggregator& other) override {
    LDPHH_RETURN_IF_ERROR(CheckMergeCompatible(other));
    auto* peer = dynamic_cast<PesAggregator*>(&other);
    if (peer == nullptr) {
      return Status::InvalidArgument(Name() +
                                     ": Merge with foreign aggregator");
    }
    for (size_t q = 0; q < cell_fo_.size(); ++q) {
      LDPHH_RETURN_IF_ERROR(cell_fo_[q].Merge(peer->cell_fo_[q]));
    }
    LDPHH_RETURN_IF_ERROR(global_->Merge(*peer->global_));
    count_ += peer->count_;
    return Status::OK();
  }

  Status SerializeState(std::string* out) const override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("SerializeState"));
    PutU64(out, count_);
    PutU32(out, static_cast<uint32_t>(cell_fo_.size()));
    for (const auto& fo : cell_fo_) {
      LDPHH_RETURN_IF_ERROR(AppendComponentState(fo, out));
    }
    return AppendComponentState(*global_, out);
  }

  Status RestoreState(std::string_view in) override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("RestoreState"));
    ByteReader reader(in);
    uint64_t count = 0;
    uint32_t groups = 0;
    LDPHH_RETURN_IF_ERROR(reader.ReadU64(&count));
    LDPHH_RETURN_IF_ERROR(reader.ReadU32(&groups));
    if (groups != cell_fo_.size()) {
      return Status::DecodeFailure(Name() + ": snapshot group count mismatch");
    }
    for (auto& fo : cell_fo_) {
      LDPHH_RETURN_IF_ERROR(RestoreComponentState(reader, &fo));
    }
    LDPHH_RETURN_IF_ERROR(RestoreComponentState(reader, global_.get()));
    count_ = count;
    return Status::OK();
  }

  StatusOr<std::vector<HeavyHitterEntry>> EstimateTopK(size_t k) override {
    if (!finalized_) {
      for (auto& fo : cell_fo_) fo.Finalize();
      global_->Finalize();
      finalized_ = true;
    }
    const double count_sd =
        CEps(common_.eps / 2.0) *
        std::sqrt(2.0 * static_cast<double>(count_) /
                  static_cast<double>(num_coords_));
    const double tau = threshold_sigmas_ * count_sd;
    Rng decode_rng(decode_seed_);
    const std::vector<DomainItem> recovered = PesRecoverCandidates(
        cell_fo_, *code_, *bucket_hash_, num_coords_, num_buckets_, y_range_,
        payload_bits_, list_cap_, tau, decode_rng);
    std::vector<HeavyHitterEntry> entries;
    entries.reserve(recovered.size());
    for (const DomainItem& x : recovered) {
      entries.push_back(HeavyHitterEntry{x, global_->Estimate(x)});
    }
    return SortTopK(std::move(entries), k);
  }

  /// The Theorem 3.13 item-2 guarantee with this implementation's
  /// constants: ~4.5 c_{eps/2} sqrt(n M Lz). The paper's asymptotic form is
  /// O((1/eps) sqrt(n log(|X|/beta))); M * Lz = O(log |X|) realizes the
  /// log |X| factor.
  StatusOr<double> DetectionThreshold(uint64_t n) const override {
    return 4.5 * CEps(common_.eps / 2.0) *
           std::sqrt(static_cast<double>(n) *
                     static_cast<double>(num_coords_) *
                     static_cast<double>(payload_bits_));
  }

  /// The bucket-hash coefficients, the coordinate hashes and expander
  /// slots, and the Hashtogram row hashes (all 61-bit words), plus the
  /// group-assignment word.
  uint64_t PublicRandomBitsPerUser() const override {
    const uint64_t words =
        static_cast<uint64_t>(bucket_hash_->independence() + 4) +   // g
        static_cast<uint64_t>(2 * num_coords_ + 4) +                // h_1..h_M
        static_cast<uint64_t>(num_coords_ * expander_degree_) +     // Gamma
        6 * static_cast<uint64_t>(global_->rows()) + 1;             // Hashtogram
    return words * 61;
  }

 private:
  int GroupOf(uint64_t user_index) const {
    return static_cast<int>(Mix64(group_seed_ ^ user_index) %
                            static_cast<uint64_t>(cell_fo_.size()));
  }

  HhCommon common_;
  int num_coords_;
  int num_buckets_;
  int y_range_;
  int expander_degree_;
  int payload_bits_;
  int list_cap_;
  double threshold_sigmas_;
  uint64_t group_seed_;
  uint64_t decode_seed_;
  std::unique_ptr<UrlCode> code_;
  std::unique_ptr<KWiseHash> bucket_hash_;
  std::vector<HadamardResponseFO> cell_fo_;
  std::unique_ptr<Hashtogram> global_;
  int cell_bits_;
  int global_bits_;
};

// ----------------------------------------------------------- succinct_hist --

class SuccinctHistAggregator final : public ConfiguredAggregator {
 public:
  SuccinctHistAggregator(ProtocolConfig config, HhCommon common,
                         double threshold_sigmas, int list_cap,
                         uint64_t sign_seed)
      : ConfiguredAggregator(std::move(config), common.eps),
        common_(common),
        threshold_sigmas_(threshold_sigmas),
        list_cap_(list_cap),
        sign_seed_(sign_seed),
        keep_prob_(std::exp(common.eps) / (std::exp(common.eps) + 1.0)) {}

  StatusOr<WireReport> Encode(uint64_t user_index, const DomainItem& value,
                              Rng& rng) const override {
    LDPHH_RETURN_IF_ERROR(CheckItemWidth(value, common_.domain_bits, Name()));
    int bit = SuccinctHistSign(sign_seed_, user_index, value);
    if (!rng.Bernoulli(keep_prob_)) bit = -bit;
    WireReport r;
    r.user_index = user_index;
    r.report.bits = bit > 0 ? 1 : 0;
    r.report.num_bits = 1;
    return r;
  }

  Status Aggregate(const WireReport& report) override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("Aggregate"));
    LDPHH_RETURN_IF_ERROR(CheckReportShape(report.report, 1, Name()));
    reports_.emplace_back(report.user_index,
                          static_cast<int8_t>(report.report.bits ? 1 : -1));
    ++count_;
    return Status::OK();
  }

  Status Merge(Aggregator& other) override {
    LDPHH_RETURN_IF_ERROR(CheckMergeCompatible(other));
    auto* peer = dynamic_cast<SuccinctHistAggregator*>(&other);
    if (peer == nullptr) {
      return Status::InvalidArgument(Name() +
                                     ": Merge with foreign aggregator");
    }
    reports_.insert(reports_.end(), peer->reports_.begin(),
                    peer->reports_.end());
    count_ += peer->count_;
    return Status::OK();
  }

  Status SerializeState(std::string* out) const override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("SerializeState"));
    PutU64(out, count_);
    PutU64(out, reports_.size());
    for (const auto& [user, bit] : reports_) {
      PutVarint64(out, user);
      PutU8(out, bit > 0 ? 1 : 0);
    }
    return Status::OK();
  }

  Status RestoreState(std::string_view in) override {
    LDPHH_RETURN_IF_ERROR(CheckMutable("RestoreState"));
    ByteReader reader(in);
    uint64_t count = 0, size = 0;
    LDPHH_RETURN_IF_ERROR(reader.ReadU64(&count));
    LDPHH_RETURN_IF_ERROR(reader.ReadU64(&size));
    if (size > reader.remaining()) {
      return Status::DecodeFailure(Name() + ": snapshot size exceeds payload");
    }
    std::vector<std::pair<uint64_t, int8_t>> reports;
    reports.reserve(size);
    for (uint64_t i = 0; i < size; ++i) {
      uint64_t user = 0;
      uint8_t bit = 0;
      LDPHH_RETURN_IF_ERROR(reader.ReadVarint64(&user));
      LDPHH_RETURN_IF_ERROR(reader.ReadU8(&bit));
      reports.emplace_back(user, static_cast<int8_t>(bit ? 1 : -1));
    }
    if (!reader.empty()) {
      return Status::DecodeFailure(Name() + ": trailing bytes in snapshot");
    }
    reports_ = std::move(reports);
    count_ = count;
    return Status::OK();
  }

  StatusOr<std::vector<HeavyHitterEntry>> EstimateTopK(size_t k) override {
    finalized_ = true;
    std::vector<HeavyHitterEntry> entries = SuccinctHistScan(
        sign_seed_, reports_, common_.domain_bits, common_.eps,
        DetectionThreshold(count_).value(), list_cap_);
    return SortTopK(std::move(entries), k);
  }

  /// ~threshold_sigmas c_eps sqrt(n (D ln 2 + ln(1/beta))).
  StatusOr<double> DetectionThreshold(uint64_t n) const override {
    return threshold_sigmas_ * CEps(common_.eps) *
           std::sqrt(static_cast<double>(n) *
                     (static_cast<double>(common_.domain_bits) * std::log(2.0) +
                      std::log(1.0 / common_.beta)));
  }

  /// Without random access a user materializes the sign table over X
  /// (Table 1's O~(n^1.5) at |X| = n^1.5): accounted, not simulated.
  uint64_t PublicRandomBitsPerUser() const override {
    return uint64_t{1} << common_.domain_bits;
  }

 private:
  HhCommon common_;
  double threshold_sigmas_;
  int list_cap_;
  uint64_t sign_seed_;
  double keep_prob_;
  std::vector<std::pair<uint64_t, int8_t>> reports_;
};

}  // namespace

// -------------------------------------------------------------- factories --

StatusOr<std::unique_ptr<Aggregator>> MakeBitstogramAggregator(
    const ProtocolConfig& config) {
  LDPHH_RETURN_IF_ERROR(config.ExpectKeys(
      {"domain_bits", "eps", "beta", "n_hint", "seed", "hash_range", "cohorts",
       "threshold_sigmas", "list_cap", "fo_rows", "fo_table"}));
  auto common_or = ParseHhCommon(config, 8, 256);
  LDPHH_RETURN_IF_ERROR(common_or.status());
  const HhCommon c = common_or.value();

  uint64_t cohorts_u = 0;
  LDPHH_RETURN_IF_ERROR(config.GetUintIn("cohorts", 0, 0, 64, &cohorts_u));
  int cohorts = static_cast<int>(cohorts_u);
  if (cohorts == 0) {
    cohorts =
        std::max(1, static_cast<int>(std::ceil(std::log2(1.0 / c.beta))));
  }
  if (cohorts < 1 || cohorts > 64) {
    return Status::InvalidArgument("bitstogram: cohorts must be in [1, 64]");
  }
  uint64_t y_range_u = 0;
  LDPHH_RETURN_IF_ERROR(
      config.GetUintIn("hash_range", 0, 0, uint64_t{1} << 20, &y_range_u));
  int y_range = static_cast<int>(y_range_u);
  if (y_range == 0) {
    y_range = static_cast<int>(std::min<uint64_t>(
        uint64_t{1} << 20, NextPow2(static_cast<uint64_t>(
                               2.0 * std::sqrt(static_cast<double>(c.n_hint))))));
  }
  if (y_range < 2 || y_range > (1 << 20)) {
    return Status::InvalidArgument(
        "bitstogram: hash_range must be in [2, 2^20]");
  }
  uint64_t list_cap_u = 0;
  LDPHH_RETURN_IF_ERROR(
      config.GetUintIn("list_cap", 64, 1, uint64_t{1} << 20, &list_cap_u));
  const int list_cap = static_cast<int>(list_cap_u);
  const double sigmas = config.GetDoubleOr("threshold_sigmas", 4.0);
  LDPHH_RETURN_IF_ERROR(CheckSigmas(sigmas, "bitstogram"));

  Rng master(c.seed);
  const uint64_t hash_seed = master();
  const uint64_t group_seed = master();
  const uint64_t global_seed = master();

  BitstogramAggregator::Init init;
  init.common = c;
  init.cohorts = cohorts;
  init.y_range = y_range;
  init.list_cap = list_cap;
  init.threshold_sigmas = sigmas;
  init.group_seed = group_seed;
  init.cohort_hash = std::make_unique<HashFamily>(
      cohorts, /*k=*/2, static_cast<uint64_t>(y_range), hash_seed);

  ProtocolConfig resolved(config.protocol());
  EchoCommon(c, &resolved);
  resolved.SetUint("hash_range", static_cast<uint64_t>(y_range))
      .SetUint("cohorts", static_cast<uint64_t>(cohorts))
      .SetDouble("threshold_sigmas", sigmas)
      .SetUint("list_cap", static_cast<uint64_t>(list_cap));
  auto global_or = MakeGlobalFo(config, c, global_seed, &resolved);
  LDPHH_RETURN_IF_ERROR(global_or.status());
  init.global = std::move(global_or).value();
  init.config = std::move(resolved);

  const int num_groups = cohorts * c.domain_bits;
  init.cell_fo.reserve(static_cast<size_t>(num_groups));
  for (int q = 0; q < num_groups; ++q) {
    init.cell_fo.emplace_back(static_cast<uint64_t>(y_range) * 2, c.eps / 2.0);
  }
  {
    Rng probe(1);
    init.cell_bits = init.cell_fo[0].Encode(0, probe).num_bits;
  }
  init.global_bits = init.global->ReportBits();
  LDPHH_RETURN_IF_ERROR(
      CheckPackedWidth(init.cell_bits, init.global_bits, "bitstogram"));
  return std::unique_ptr<Aggregator>(new BitstogramAggregator(std::move(init)));
}

StatusOr<std::unique_ptr<Aggregator>> MakeTreeHistAggregator(
    const ProtocolConfig& config) {
  LDPHH_RETURN_IF_ERROR(config.ExpectKeys(
      {"domain_bits", "eps", "beta", "n_hint", "seed", "threshold_sigmas",
       "frontier_cap", "level_rows", "level_table", "fo_rows", "fo_table"}));
  auto common_or = ParseHhCommon(config, 8, 256);
  LDPHH_RETURN_IF_ERROR(common_or.status());
  const HhCommon c = common_or.value();
  const double sigmas = config.GetDoubleOr("threshold_sigmas", 3.0);
  LDPHH_RETURN_IF_ERROR(CheckSigmas(sigmas, "treehist"));
  uint64_t frontier_cap_u = 0;
  LDPHH_RETURN_IF_ERROR(config.GetUintIn("frontier_cap", 64, 2,
                                         uint64_t{1} << 20, &frontier_cap_u));
  const int frontier_cap = static_cast<int>(frontier_cap_u);

  Rng master(c.seed);
  const uint64_t level_assign_seed = master();
  std::vector<uint64_t> level_seeds(static_cast<size_t>(c.domain_bits));
  for (auto& s : level_seeds) s = master();
  const uint64_t global_seed = master();

  HashtogramParams lp;
  uint64_t level_rows = 0;
  LDPHH_RETURN_IF_ERROR(config.GetUintIn("level_rows", 0, 0, 4096,
                                         &level_rows));
  lp.rows = static_cast<int>(level_rows);
  LDPHH_RETURN_IF_ERROR(config.GetUintIn("level_table", 0, 0,
                                         uint64_t{1} << 24, &lp.table_size));
  lp.beta = c.beta;
  const uint64_t level_n_hint =
      std::max<uint64_t>(c.n_hint / static_cast<uint64_t>(c.domain_bits), 16);

  TreeHistAggregator::Init init;
  init.common = c;
  init.threshold_sigmas = sigmas;
  init.frontier_cap = frontier_cap;
  init.level_assign_seed = level_assign_seed;
  init.level_fo.reserve(static_cast<size_t>(c.domain_bits));
  for (int l = 0; l < c.domain_bits; ++l) {
    init.level_fo.emplace_back(level_n_hint, c.eps / 2.0, lp,
                               level_seeds[static_cast<size_t>(l)]);
  }
  ProtocolConfig resolved(config.protocol());
  EchoCommon(c, &resolved);
  resolved.SetDouble("threshold_sigmas", sigmas)
      .SetUint("frontier_cap", static_cast<uint64_t>(frontier_cap))
      .SetUint("level_rows", static_cast<uint64_t>(init.level_fo[0].rows()))
      .SetUint("level_table", init.level_fo[0].table_size());
  auto global_or = MakeGlobalFo(config, c, global_seed, &resolved);
  LDPHH_RETURN_IF_ERROR(global_or.status());
  init.global = std::move(global_or).value();
  init.config = std::move(resolved);
  init.level_bits = init.level_fo[0].ReportBits();
  init.global_bits = init.global->ReportBits();
  LDPHH_RETURN_IF_ERROR(
      CheckPackedWidth(init.level_bits, init.global_bits, "treehist"));
  return std::unique_ptr<Aggregator>(new TreeHistAggregator(std::move(init)));
}

StatusOr<std::unique_ptr<Aggregator>> MakePesAggregator(
    const ProtocolConfig& config) {
  LDPHH_RETURN_IF_ERROR(config.ExpectKeys(
      {"domain_bits", "eps", "beta", "n_hint", "seed", "num_coords",
       "hash_range", "expander_degree", "num_buckets", "bucket_mult",
       "threshold_sigmas", "list_cap", "alpha", "fo_rows", "fo_table"}));
  auto common_or = ParseHhCommon(config, 8, 256);
  LDPHH_RETURN_IF_ERROR(common_or.status());
  const HhCommon c = common_or.value();

  uint64_t num_coords_u = 0;
  LDPHH_RETURN_IF_ERROR(config.GetUintIn("num_coords", 0, 0, 4096,
                                         &num_coords_u));
  int num_coords = static_cast<int>(num_coords_u);
  if (num_coords == 0) {
    num_coords = c.domain_bits <= 32 ? 8 : (c.domain_bits <= 96 ? 16 : 32);
  }
  uint64_t y_range_u = 0;
  LDPHH_RETURN_IF_ERROR(
      config.GetUintIn("hash_range", 32, 2, uint64_t{1} << 20, &y_range_u));
  const int y_range = static_cast<int>(y_range_u);
  uint64_t expander_degree_u = 0;
  LDPHH_RETURN_IF_ERROR(
      config.GetUintIn("expander_degree", 4, 1, 64, &expander_degree_u));
  const int expander_degree = static_cast<int>(expander_degree_u);
  const double bucket_mult = config.GetDoubleOr("bucket_mult", 1.0);
  if (!std::isfinite(bucket_mult) || !(bucket_mult > 0.0)) {
    return Status::InvalidArgument(
        "private_expander_sketch: bucket_mult must be positive and finite");
  }
  const double alpha = config.GetDoubleOr("alpha", 0.25);
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument(
        "private_expander_sketch: alpha must be in (0, 1)");
  }
  const double sigmas = config.GetDoubleOr("threshold_sigmas", 4.0);
  LDPHH_RETURN_IF_ERROR(CheckSigmas(sigmas, "private_expander_sketch"));
  uint64_t list_cap_u = 0;
  LDPHH_RETURN_IF_ERROR(
      config.GetUintIn("list_cap", 0, 0, uint64_t{1} << 20, &list_cap_u));
  int list_cap = static_cast<int>(list_cap_u);
  if (list_cap == 0) list_cap = 4 * c.domain_bits;
  uint64_t num_buckets_u = 0;
  LDPHH_RETURN_IF_ERROR(
      config.GetUintIn("num_buckets", 0, 0, uint64_t{1} << 20, &num_buckets_u));
  int num_buckets = static_cast<int>(num_buckets_u);
  if (num_buckets == 0) {
    const double logx = static_cast<double>(c.domain_bits);
    const double b = bucket_mult * c.eps *
                     std::sqrt(static_cast<double>(c.n_hint)) /
                     (10.0 * std::pow(logx, 1.5));
    num_buckets = static_cast<int>(
        std::min(1.0 * (1 << 20), std::max(1.0, std::round(b))));
  }
  // The per-group cell oracle's domain is num_buckets * hash_range * 2;
  // bound it so a large-but-parseable config cannot demand an absurd
  // allocation (the factory contract: reject, never abort).
  if (static_cast<uint64_t>(num_buckets) * static_cast<uint64_t>(y_range) * 2 >
      (uint64_t{1} << 26)) {
    return Status::InvalidArgument(
        "private_expander_sketch: num_buckets * hash_range too large (cell "
        "domain capped at 2^26); shrink num_buckets, bucket_mult, or n_hint");
  }

  Rng master(c.seed);
  const uint64_t code_seed = master();
  const uint64_t bucket_seed = master();
  const uint64_t group_seed = master();
  const uint64_t global_seed = master();
  const uint64_t decode_seed = master();

  UrlCodeParams cp;
  cp.domain_bits = c.domain_bits;
  cp.num_coords = num_coords;
  cp.hash_range = y_range;
  cp.expander_degree = expander_degree;
  cp.alpha = alpha;
  auto code_or = UrlCode::Create(cp, code_seed);
  LDPHH_RETURN_IF_ERROR(code_or.status());
  auto code = std::make_unique<UrlCode>(std::move(code_or).value());
  const int lz = code->PayloadBits();

  Rng bucket_rng(bucket_seed);
  const int g_independence = std::min(64, 2 * c.domain_bits);
  auto bucket_hash = std::make_unique<KWiseHash>(
      g_independence, static_cast<uint64_t>(num_buckets), bucket_rng);

  PesAggregator::Init init;
  init.common = c;
  init.num_coords = num_coords;
  init.num_buckets = num_buckets;
  init.y_range = y_range;
  init.expander_degree = expander_degree;
  init.payload_bits = lz;
  init.list_cap = list_cap;
  init.threshold_sigmas = sigmas;
  init.group_seed = group_seed;
  init.decode_seed = decode_seed;
  init.code = std::move(code);
  init.bucket_hash = std::move(bucket_hash);

  const int num_groups = num_coords * lz;
  const uint64_t cell_domain = static_cast<uint64_t>(num_buckets) *
                               static_cast<uint64_t>(y_range) * 2;
  init.cell_fo.reserve(static_cast<size_t>(num_groups));
  for (int q = 0; q < num_groups; ++q) {
    init.cell_fo.emplace_back(cell_domain, c.eps / 2.0);
  }

  ProtocolConfig resolved(config.protocol());
  EchoCommon(c, &resolved);
  resolved.SetUint("num_coords", static_cast<uint64_t>(num_coords))
      .SetUint("hash_range", static_cast<uint64_t>(y_range))
      .SetUint("expander_degree", static_cast<uint64_t>(expander_degree))
      .SetUint("num_buckets", static_cast<uint64_t>(num_buckets))
      .SetDouble("bucket_mult", bucket_mult)
      .SetDouble("threshold_sigmas", sigmas)
      .SetUint("list_cap", static_cast<uint64_t>(list_cap))
      .SetDouble("alpha", alpha);
  auto global_or = MakeGlobalFo(config, c, global_seed, &resolved);
  LDPHH_RETURN_IF_ERROR(global_or.status());
  init.global = std::move(global_or).value();
  init.config = std::move(resolved);
  {
    Rng probe(1);
    init.cell_bits = init.cell_fo[0].Encode(0, probe).num_bits;
  }
  init.global_bits = init.global->ReportBits();
  LDPHH_RETURN_IF_ERROR(CheckPackedWidth(init.cell_bits, init.global_bits,
                                         "private_expander_sketch"));
  return std::unique_ptr<Aggregator>(new PesAggregator(std::move(init)));
}

StatusOr<std::unique_ptr<Aggregator>> MakeSuccinctHistAggregator(
    const ProtocolConfig& config) {
  LDPHH_RETURN_IF_ERROR(config.ExpectKeys(
      {"domain_bits", "eps", "beta", "seed", "threshold_sigmas", "list_cap"}));
  HhCommon c;
  uint64_t domain_bits = 0;
  LDPHH_RETURN_IF_ERROR(config.GetUint("domain_bits", &domain_bits));
  LDPHH_RETURN_IF_ERROR(config.GetDouble("eps", &c.eps));
  if (domain_bits < 4 || domain_bits > 24) {
    return Status::InvalidArgument(
        "succinct_hist: the full-domain scan needs domain_bits in [4, 24]");
  }
  if (!(c.eps > 0.0) || !(c.eps <= 64.0)) {
    return Status::InvalidArgument("succinct_hist: eps must be in (0, 64]");
  }
  c.domain_bits = static_cast<int>(domain_bits);
  c.beta = config.GetDoubleOr("beta", 1e-3);
  if (!(c.beta > 0.0 && c.beta < 1.0)) {
    return Status::InvalidArgument("succinct_hist: beta must be in (0, 1)");
  }
  c.seed = config.GetUintOr("seed", 1);
  const double sigmas = config.GetDoubleOr("threshold_sigmas", 4.0);
  LDPHH_RETURN_IF_ERROR(CheckSigmas(sigmas, "succinct_hist"));
  uint64_t list_cap_u = 0;
  LDPHH_RETURN_IF_ERROR(
      config.GetUintIn("list_cap", 256, 1, uint64_t{1} << 20, &list_cap_u));
  const int list_cap = static_cast<int>(list_cap_u);

  Rng master(c.seed);
  const uint64_t sign_seed = master();

  ProtocolConfig resolved(config.protocol());
  resolved.SetUint("domain_bits", domain_bits)
      .SetDouble("eps", c.eps)
      .SetDouble("beta", c.beta)
      .SetUint("seed", c.seed)
      .SetDouble("threshold_sigmas", sigmas)
      .SetUint("list_cap", static_cast<uint64_t>(list_cap));
  return std::unique_ptr<Aggregator>(new SuccinctHistAggregator(
      std::move(resolved), c, sigmas, list_cap, sign_seed));
}

}  // namespace ldphh
