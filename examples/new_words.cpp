// New-word discovery — the Apple iOS-10 scenario from the paper's
// introduction: learn which new words/emoji-phrases are trending across
// keyboards, without a dictionary (the heavy-hitters protocol *discovers*
// the strings) and with per-user eps-LDP.
//
// Also demonstrates the frequency-oracle half of the system (Definition
// 3.2): after discovery, any specific candidate word can be queried against
// the same transcript via the Hashtogram.

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/ldphh.h"

int main() {
  using namespace ldphh;
  const int kBits = 64;  // 8-char word slots.
  const uint64_t n = 1 << 20;

  const std::vector<std::pair<std::string, uint64_t>> trending = {
      {"skibidi", n / 4}, {"rizzler", n / 5}, {"delulu", n / 6}};
  Workload w = MakeStringWorkload(trending, kBits, 5);
  Rng tail(13);
  while (w.database.size() < n) {
    // Long tail: private words typed by single users.
    char buf[12];
    std::snprintf(buf, sizeof(buf), "w%08llx",
                  static_cast<unsigned long long>(tail() & 0xffffffff));
    w.database.push_back(DomainItem::FromString(buf, kBits));
  }

  const double eps = 4.0;
  ProtocolConfig pes("private_expander_sketch");
  pes.SetUint("domain_bits", kBits).SetDouble("eps", eps).SetDouble("beta",
                                                                    1e-3);
  const auto result = RunBatch(pes, w.database, 3).value();

  std::printf("discovered trending words (n=%llu keyboards, eps=%.1f):\n",
              static_cast<unsigned long long>(n), eps);
  for (const auto& entry : result.entries) {
    std::printf("  %-10s ~%.0f users\n", entry.item.ToString(kBits).c_str(),
                entry.estimate);
  }

  // --- Frequency-oracle queries on chosen candidates --------------------
  // A separate eps-LDP Hashtogram pass answers "how popular is THIS word?"
  // for any candidate — including ones below the discovery threshold.
  std::printf("\nfrequency-oracle spot checks (Theorem 3.7 Hashtogram):\n");
  HashtogramParams hp;
  hp.beta = 1e-3;
  Hashtogram oracle(n, eps, hp, 17);
  Rng coins(19);
  for (uint64_t i = 0; i < n; ++i) {
    oracle.Aggregate(i, oracle.Encode(i, w.database[static_cast<size_t>(i)],
                                      coins));
  }
  oracle.Finalize();
  for (const std::string word :
       {"skibidi", "delulu", "covfefe" /* not present */}) {
    const DomainItem item = DomainItem::FromString(word, kBits);
    std::printf("  f(\"%s\") ~ %.0f\n", word.c_str(), oracle.Estimate(item));
  }
  std::printf("\n(\"covfefe\" estimates near zero: the oracle answers any\n"
              " query, with error O(sqrt(n log(1/beta))/eps) around truth)\n");
  return 0;
}
