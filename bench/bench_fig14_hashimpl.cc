// Reproduces Fig. 14: Bloom filter with different hash implementations on
// YCSB — BF (k distinct Table II functions), BF(City64) and BF(XXH128)
// (one function, k seeds) — against HABF, under uniform and Zipf(1.0) costs.
// Paper shape: the three BF implementations are near-identical and none
// responds to cost skew; HABF beats them all, and by more under skew.
// One series beyond the paper: HABF over the one-pass digest family (one
// xxHash64 per key, DESIGN.md §3), the library default, which should track
// the Table II HABF column.

#include "bench_common.h"
#include "hashing/cityhash.h"
#include "hashing/xxhash.h"

namespace habf {
namespace bench {
namespace {

SeededBloomFilter BuildSeeded(const Dataset& data, size_t bits, HashFn fn) {
  const double bpk = static_cast<double>(bits) /
                     static_cast<double>(data.positives.size());
  SeededBloomFilter filter(bits, OptimalNumHashes(bpk), fn);
  for (const auto& key : data.positives) filter.Add(key);
  return filter;
}

void RunDistribution(const char* label, Dataset& data, double theta,
                     int shuffles) {
  TablePrinter table(std::string("Fig 14 (YCSB, ") + label +
                     "): weighted FPR(%) vs space");
  table.AddRow({"space", "bits/key", "HABF", "HABF(one-pass)", "BF",
                "BF(City64)", "BF(XXH128)"});
  for (const SpacePoint& point : YcsbSpaceAxis()) {
    const size_t bits = BudgetBits(point.bits_per_key, data.positives.size());
    auto average = [&](auto&& build) {
      return AverageOverShuffles(data, theta, shuffles,
                                 [&](const Dataset& d) {
                                   const auto filter = build(d);
                                   return MeasureWeightedFpr(filter,
                                                             d.negatives);
                                 });
    };
    const double habf =
        average([&](const Dataset& d) { return BuildHabf(d, bits, false); });
    const double one_pass = average([&](const Dataset& d) {
      HabfOptions options;
      options.total_bits = bits;
      options.family = HabfFamily::kOnePass;
      return Habf::Build(d.positives, d.negatives, options);
    });
    const double bf = average(
        [&](const Dataset& d) { return BuildDistinctBloom(d, bits); });
    const double city = average([&](const Dataset& d) {
      return BuildSeeded(d, bits, &CityHash64);
    });
    const double xxh = average([&](const Dataset& d) {
      return BuildSeeded(d, bits, &XxHash128Low);
    });
    table.AddRow({point.paper_label, FormatValue(point.bits_per_key, 3),
                  FormatValue(habf * 100), FormatValue(one_pass * 100),
                  FormatValue(bf * 100),
                  FormatValue(city * 100), FormatValue(xxh * 100)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace habf

int main(int argc, char** argv) {
  using namespace habf;
  using namespace habf::bench;
  const BenchScale scale = ScaleFromArgs(argc, argv);

  DatasetOptions dopt;
  dopt.num_positives = scale.ycsb_keys;
  dopt.num_negatives = static_cast<size_t>(scale.ycsb_keys * 0.93);
  dopt.seed = 141;
  Dataset data = GenerateYcsbLike(dopt);

  RunDistribution("uniform", data, 0.0, 1);
  RunDistribution("Zipf 1.0", data, 1.0, scale.zipf_shuffles);
  return 0;
}
