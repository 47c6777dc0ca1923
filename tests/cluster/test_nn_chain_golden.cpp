// Golden equivalence suite for the kernel-backed flat-matrix NN-chain
// (cluster/nn_chain.cpp) against two independent references:
//
//   * nn_chain_hac_condensed — the pre-kernel condensed-matrix NN-chain,
//     kept verbatim in the library. The flat implementation must match it
//     *bit for bit*: identical merge sequences, heights, and sizes, on
//     every linkage, both element types, and deliberately tied inputs
//     (HAC tie-break and store-rounding bugs are silent otherwise).
//   * naive_hac — exhaustive greedy HAC, same dendrogram for reducible
//     linkages on tie-free inputs.
//
// The SIMD variants of nearest_active_scan / lance_williams_row_update are
// swept explicitly: every supported variant must reproduce the scalar
// dispatch bit for bit.
//
// The hypervector overload (the batch pipeline's path: one Hamming sweep
// straight into the working matrix) must equal the condensed reference run
// on pairwise_hamming_f32/q16 of the same hypervectors.
#include "cluster/nn_chain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/naive_hac.hpp"
#include "hdc/cpu_kernels.hpp"
#include "hdc/distance.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spechd::cluster {
namespace {

namespace kn = hdc::kernels;

constexpr linkage k_all_linkages[] = {linkage::single, linkage::complete,
                                      linkage::average, linkage::ward};
constexpr std::size_t k_golden_sizes[] = {2, 3, 17, 64, 257};

hdc::distance_matrix_f32 random_f32(std::size_t n, std::uint64_t seed) {
  xoshiro256ss rng(seed);
  hdc::distance_matrix_f32 m(n);
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      m.at(i, j) = static_cast<float>(rng.uniform(0.01, 1.0));
    }
  }
  return m;
}

hdc::distance_matrix_q16 random_q16(std::size_t n, std::uint64_t seed) {
  xoshiro256ss rng(seed);
  hdc::distance_matrix_q16 m(n);
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      m.at(i, j) = q16::from_double(rng.uniform(0.01, 1.0));
    }
  }
  return m;
}

/// Heavily tied input: every distance drawn from a four-value set, so the
/// prefer-prev tie-break decides most of the merge order.
template <typename Matrix, typename Convert>
Matrix tied_matrix(std::size_t n, std::uint64_t seed, Convert convert) {
  xoshiro256ss rng(seed);
  Matrix m(n);
  constexpr double values[] = {0.25, 0.5, 0.5, 0.75, 0.75, 0.75};
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      m.at(i, j) = convert(values[rng.bounded(6)]);
    }
  }
  return m;
}

void expect_identical(const hac_result& got, const hac_result& want,
                      const std::string& what) {
  ASSERT_EQ(got.tree.leaves(), want.tree.leaves()) << what;
  ASSERT_EQ(got.tree.merges().size(), want.tree.merges().size()) << what;
  for (std::size_t k = 0; k < got.tree.merges().size(); ++k) {
    const auto& g = got.tree.merges()[k];
    const auto& w = want.tree.merges()[k];
    EXPECT_EQ(g.left, w.left) << what << " merge " << k;
    EXPECT_EQ(g.right, w.right) << what << " merge " << k;
    // Bit-identical heights, not approximately equal: == on doubles.
    EXPECT_EQ(g.distance, w.distance) << what << " merge " << k;
    EXPECT_EQ(g.size, w.size) << what << " merge " << k;
  }
}

std::string case_name(const char* kind, linkage link, std::size_t n, std::uint64_t seed) {
  return std::string(kind) + "/" + std::string(linkage_name(link)) +
         "/n=" + std::to_string(n) + "/seed=" + std::to_string(seed);
}

TEST(NnChainGolden, FlatMatchesCondensedF32) {
  for (const auto link : k_all_linkages) {
    for (const std::size_t n : k_golden_sizes) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto m = random_f32(n, seed);
        expect_identical(nn_chain_hac(m, link), nn_chain_hac_condensed(m, link),
                         case_name("f32", link, n, seed));
      }
    }
  }
}

TEST(NnChainGolden, FlatMatchesCondensedQ16) {
  for (const auto link : k_all_linkages) {
    for (const std::size_t n : k_golden_sizes) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto m = random_q16(n, seed);
        expect_identical(nn_chain_hac(m, link), nn_chain_hac_condensed(m, link),
                         case_name("q16", link, n, seed));
      }
    }
  }
}

TEST(NnChainGolden, FlatMatchesNaiveF32) {
  // Tie-free random matrices: NN-chain (either implementation) and the
  // exhaustive greedy method must produce the same dendrogram for every
  // reducible linkage. Heights compare within 1e-9 rather than bit-exact:
  // the two algorithms *discover* merges in different orders, so their
  // Lance–Williams accumulations associate differently at the last ULP
  // (bit-exactness is asserted against the condensed reference, which
  // shares the discovery order).
  for (const auto link : k_all_linkages) {
    for (const std::size_t n : k_golden_sizes) {
      const auto m = random_f32(n, 71 + n);
      const auto got = nn_chain_hac(m, link);
      const auto want = naive_hac(m, link);
      const auto what = case_name("f32-vs-naive", link, n, 71 + n);
      ASSERT_EQ(got.tree.merges().size(), want.tree.merges().size()) << what;
      for (std::size_t k = 0; k < got.tree.merges().size(); ++k) {
        const auto& g = got.tree.merges()[k];
        const auto& w = want.tree.merges()[k];
        EXPECT_EQ(g.left, w.left) << what << " merge " << k;
        EXPECT_EQ(g.right, w.right) << what << " merge " << k;
        EXPECT_NEAR(g.distance, w.distance, 1e-9) << what << " merge " << k;
        EXPECT_EQ(g.size, w.size) << what << " merge " << k;
      }
    }
  }
}

TEST(NnChainGolden, FlatMatchesNaiveQ16) {
  // NN-chain and naive HAC only promise the same dendrogram on tie-free
  // inputs, and random q16 values collide on the 65536-step grid. Distinct
  // raw values keep min/max linkages tie-free for the whole run (their
  // updates only ever *select* existing values), so heights match exactly.
  // average/ward can re-create grid collisions mid-run and are covered by
  // the condensed-reference golden tests instead.
  for (const auto link : {linkage::single, linkage::complete}) {
    for (const std::size_t n : k_golden_sizes) {
      xoshiro256ss rng(171 + n);
      std::vector<std::uint16_t> raws(65536);
      for (std::uint32_t r = 0; r < raws.size(); ++r) {
        raws[r] = static_cast<std::uint16_t>(r);
      }
      for (std::size_t i = raws.size() - 1; i > 0; --i) {
        std::swap(raws[i], raws[rng.bounded(i + 1)]);
      }
      hdc::distance_matrix_q16 m(n);
      std::size_t next = 0;
      for (std::size_t i = 1; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          m.at(i, j) = q16::from_raw(raws[next++]);
        }
      }
      expect_identical(nn_chain_hac(m, link), naive_hac(m, link),
                       case_name("q16-vs-naive", link, n, 171 + n));
    }
  }
}

TEST(NnChainGolden, TiedDistancesMatchCondensedF32) {
  // Deliberate ties pin Müllner's prefer-prev tie-break: any deviation in
  // the scan's argmin order or the prev preference changes the merge
  // sequence and fails here.
  for (const auto link : k_all_linkages) {
    for (const std::size_t n : k_golden_sizes) {
      for (std::uint64_t seed = 11; seed <= 13; ++seed) {
        const auto m = tied_matrix<hdc::distance_matrix_f32>(
            n, seed, [](double v) { return static_cast<float>(v); });
        expect_identical(nn_chain_hac(m, link), nn_chain_hac_condensed(m, link),
                         case_name("tied-f32", link, n, seed));
      }
    }
  }
}

TEST(NnChainGolden, TiedDistancesMatchCondensedQ16) {
  for (const auto link : k_all_linkages) {
    for (const std::size_t n : k_golden_sizes) {
      for (std::uint64_t seed = 21; seed <= 23; ++seed) {
        const auto m = tied_matrix<hdc::distance_matrix_q16>(
            n, seed, [](double v) { return q16::from_double(v); });
        expect_identical(nn_chain_hac(m, link), nn_chain_hac_condensed(m, link),
                         case_name("tied-q16", link, n, seed));
      }
    }
  }
}

TEST(NnChainGolden, KernelVariantsBitIdentical) {
  // The flat implementation must not change a single bit when dispatch
  // moves between scalar and any supported SIMD variant.
  const auto initial = kn::active();
  for (const std::size_t n : {17UL, 64UL, 257UL}) {
    const auto f32 = random_f32(n, 5);
    const auto q16m = random_q16(n, 6);
    const auto tied = tied_matrix<hdc::distance_matrix_f32>(
        n, 7, [](double v) { return static_cast<float>(v); });
    for (const auto link : k_all_linkages) {
      kn::set_active(kn::variant::scalar);
      const auto ref_f32 = nn_chain_hac(f32, link);
      const auto ref_q16 = nn_chain_hac(q16m, link);
      const auto ref_tied = nn_chain_hac(tied, link);
      for (const auto v : {kn::variant::avx2, kn::variant::avx512}) {
        if (!kn::supported(v)) continue;
        kn::set_active(v);
        expect_identical(nn_chain_hac(f32, link), ref_f32,
                         case_name(kn::variant_name(v), link, n, 5));
        expect_identical(nn_chain_hac(q16m, link), ref_q16,
                         case_name(kn::variant_name(v), link, n, 6));
        expect_identical(nn_chain_hac(tied, link), ref_tied,
                         case_name(kn::variant_name(v), link, n, 7));
      }
    }
  }
  kn::set_active(initial);
}

TEST(NnChainGolden, PermutationInvariantHeights) {
  // Relabelling the inputs permutes the leaves but must not change the
  // multiset of dendrogram heights (the merge tree is unique on tie-free
  // inputs).
  for (const auto link : k_all_linkages) {
    const std::size_t n = 64;
    const auto m = random_f32(n, 31);
    std::vector<std::uint32_t> perm(n);
    for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
    xoshiro256ss rng(32);
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.bounded(i + 1)]);
    }
    hdc::distance_matrix_f32 p(n);
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        p.at(perm[i], perm[j]) = m.at(i, j);
      }
    }
    auto heights = [](const hac_result& r) {
      std::vector<double> h;
      for (const auto& step : r.tree.merges()) h.push_back(step.distance);
      std::sort(h.begin(), h.end());
      return h;
    };
    const auto ha = heights(nn_chain_hac(m, link));
    const auto hb = heights(nn_chain_hac(p, link));
    ASSERT_EQ(ha.size(), hb.size()) << linkage_name(link);
    // min/max heights are permutation-exact (updates only select values);
    // average/ward accumulate in discovery order, so permuting the leaves
    // reassociates their floating-point sums at the last ULP.
    const bool exact = link == linkage::single || link == linkage::complete;
    for (std::size_t k = 0; k < ha.size(); ++k) {
      if (exact) {
        EXPECT_EQ(ha[k], hb[k]) << linkage_name(link) << " height " << k;
      } else {
        EXPECT_NEAR(ha[k], hb[k], 1e-12) << linkage_name(link) << " height " << k;
      }
    }
  }
}

// --- fused hypervector path --------------------------------------------------

/// Noisy copies of a few random prototypes, each copy with its own flip
/// rate, so distances span tight clusters, loose ones and the ~0.5 bulk of
/// unrelated pairs; every eleventh vector duplicates its predecessor, so
/// zero distances tie too. Integer Hamming counts tie often on their own.
std::vector<hdc::hypervector> clustered_hvs(std::size_t n, std::size_t dim,
                                            std::uint64_t seed) {
  xoshiro256ss rng(seed);
  std::vector<hdc::hypervector> prototypes;
  for (int k = 0; k < 6; ++k) prototypes.push_back(hdc::hypervector::random(dim, rng));
  std::vector<hdc::hypervector> hvs;
  hvs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 11 == 10) {
      hvs.push_back(hvs.back());
      continue;
    }
    auto hv = prototypes[rng.bounded(prototypes.size())];
    const double flip = 0.02 + 0.03 * static_cast<double>(rng.bounded(8));
    for (std::size_t b = 0; b < dim; ++b) {
      if (rng.bernoulli(flip)) hv.flip(b);
    }
    hvs.push_back(std::move(hv));
  }
  return hvs;
}

void expect_same_stats(const hac_stats& got, const hac_stats& want, const std::string& what) {
  EXPECT_EQ(got.comparisons, want.comparisons) << what;
  EXPECT_EQ(got.distance_updates, want.distance_updates) << what;
  EXPECT_EQ(got.chain_pushes, want.chain_pushes) << what;
  EXPECT_EQ(got.merges, want.merges) << what;
}

TEST(NnChainGolden, FusedHypervectorsMatchCondensed) {
  // D_hv = 2048 is the paper's; at a power of two count/dim is exact in
  // float and on the Q0.16 grid, so 1472 (23 words) also checks that the
  // fused path rounds each count exactly as the condensed matrices do.
  constexpr std::size_t dims[] = {2048, 1472};
  constexpr std::size_t sizes[] = {0, 1, 2, 63, 64, 65, 129, 300};
  const auto initial = kn::active();
  thread_pool pool(3);
  for (const std::size_t dim : dims) {
    for (const std::size_t n : sizes) {
      const auto hvs = clustered_hvs(n, dim, 1000 + n);
      const auto f32 = hdc::pairwise_hamming_f32(hvs);
      const auto q16 = hdc::pairwise_hamming_q16(hvs);
      const std::string shape = "dim=" + std::to_string(dim) + "/";
      for (const auto link : k_all_linkages) {
        const auto want_f32 = nn_chain_hac_condensed(f32, link);
        const auto want_q16 = nn_chain_hac_condensed(q16, link);
        for (const auto v : {kn::variant::scalar, kn::variant::avx2, kn::variant::avx512}) {
          if (!kn::supported(v)) continue;
          kn::set_active(v);
          for (thread_pool* p : {static_cast<thread_pool*>(nullptr), &pool}) {
            const std::string where = std::string(kn::variant_name(v)) +
                                      (p == nullptr ? "/serial/" : "/pool3/") + shape;
            const auto got_f32 = nn_chain_hac(hvs, link, distance_grid::f32, p);
            const auto got_q16 = nn_chain_hac(hvs, link, distance_grid::q16, p);
            const auto name_f32 = where + case_name("f32", link, n, 1000 + n);
            const auto name_q16 = where + case_name("q16", link, n, 1000 + n);
            expect_identical(got_f32, want_f32, name_f32);
            expect_same_stats(got_f32.stats, want_f32.stats, name_f32);
            expect_identical(got_q16, want_q16, name_q16);
            expect_same_stats(got_q16.stats, want_q16.stats, name_q16);
          }
        }
      }
    }
  }
  kn::set_active(initial);
}

// Large-matrix golden pass, labelled [perf]: excluded from the default
// ctest run (see CMakeLists: CONFIGURATIONS perf).
TEST(NnChainGoldenPerf, LargeMatrixMatchesCondensed) {
  const auto m = random_f32(1024, 99);
  for (const auto link : {linkage::complete, linkage::ward}) {
    expect_identical(nn_chain_hac(m, link), nn_chain_hac_condensed(m, link),
                     case_name("perf-f32", link, 1024, 99));
  }
}

}  // namespace
}  // namespace spechd::cluster
