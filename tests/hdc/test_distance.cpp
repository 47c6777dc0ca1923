#include "hdc/distance.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spechd::hdc {
namespace {

std::vector<hypervector> random_hvs(std::size_t n, std::size_t dim, std::uint64_t seed) {
  xoshiro256ss rng(seed);
  std::vector<hypervector> hvs;
  hvs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) hvs.push_back(hypervector::random(dim, rng));
  return hvs;
}

TEST(CondensedMatrix, IndexingSymmetric) {
  condensed_matrix<float> m(4);
  m.at(2, 1) = 0.5F;
  EXPECT_FLOAT_EQ(m.at(1, 2), 0.5F);
  m.at(0, 3) = 0.25F;
  EXPECT_FLOAT_EQ(m.at(3, 0), 0.25F);
}

TEST(CondensedMatrix, EntryCount) {
  EXPECT_EQ(condensed_matrix<float>(1).entry_count(), 0U);
  EXPECT_EQ(condensed_matrix<float>(2).entry_count(), 1U);
  EXPECT_EQ(condensed_matrix<float>(10).entry_count(), 45U);
}

TEST(CondensedMatrix, DiagonalAccessThrows) {
  condensed_matrix<float> m(4);
  EXPECT_THROW(m.at(1, 1), logic_error);
  EXPECT_THROW(m.at(5, 0), logic_error);
}

TEST(CondensedMatrix, BytesReflectElementType) {
  EXPECT_EQ(condensed_matrix<float>(10).bytes(), 45U * 4);
  EXPECT_EQ(condensed_matrix<q16>(10).bytes(), 45U * 2);
}

TEST(PairwiseHamming, MatchesDirectComputation) {
  const auto hvs = random_hvs(8, 512, 3);
  const auto m = pairwise_hamming_f32(hvs);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) continue;
      EXPECT_FLOAT_EQ(m.at(i, j),
                      static_cast<float>(hamming_normalized(hvs[i], hvs[j])));
    }
  }
}

TEST(PairwiseHamming, Q16WithinEpsilonOfF32) {
  const auto hvs = random_hvs(10, 2048, 4);
  const auto f = pairwise_hamming_f32(hvs);
  const auto q = pairwise_hamming_q16(hvs);
  for (std::size_t i = 1; i < 10; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NEAR(q.at(i, j).to_double(), static_cast<double>(f.at(i, j)),
                  q16::epsilon());
    }
  }
}

TEST(PairwiseHamming, EmptyAndSingleton) {
  EXPECT_EQ(pairwise_hamming_f32({}).size(), 0U);
  const auto one = random_hvs(1, 512, 5);
  EXPECT_EQ(pairwise_hamming_f32(one).size(), 1U);
  EXPECT_EQ(pairwise_hamming_f32(one).entry_count(), 0U);
}

TEST(PairwiseHamming, Q16HalfMemoryOfF32) {
  const auto hvs = random_hvs(32, 512, 6);
  EXPECT_EQ(pairwise_hamming_q16(hvs).bytes() * 2, pairwise_hamming_f32(hvs).bytes());
}

TEST(PairwiseHamming, SquareFillMatchesCondensedThroughTable) {
  // Every off-diagonal entry of the square fill is the table value of the
  // pair's count, mirrored; the diagonal keeps whatever was there. Sizes
  // straddle the 64-row tile edge; serial and pooled sweeps must agree.
  thread_pool pool(3);
  std::vector<double> lut(513);
  for (std::size_t c = 0; c < lut.size(); ++c) lut[c] = 1000.0 + static_cast<double>(c);
  for (const std::size_t n : {0U, 1U, 2U, 63U, 64U, 65U, 129U, 200U}) {
    const auto hvs = random_hvs(n, 512, 10 + n);
    const auto m = pairwise_hamming_f32(hvs);
    for (thread_pool* p : {static_cast<thread_pool*>(nullptr), &pool}) {
      std::vector<double> out(n * n, -1.0);
      pairwise_hamming_square(hvs, lut.data(), out.data(), p);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i * n + i], -1.0) << "n=" << n << " diagonal " << i;
        for (std::size_t j = 0; j < i; ++j) {
          const double want = lut[hamming(hvs[i], hvs[j])];
          ASSERT_EQ(out[i * n + j], want) << "n=" << n << " (" << i << "," << j << ")";
          ASSERT_EQ(out[j * n + i], want) << "n=" << n << " (" << j << "," << i << ")";
          ASSERT_EQ(static_cast<float>((want - 1000.0) / 512.0), m.at(i, j));
        }
      }
    }
  }
}

}  // namespace
}  // namespace spechd::hdc
