#include "cluster/consensus.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace spechd::cluster {
namespace {

TEST(Medoids, PicksLowestAverageDistanceMember) {
  // Cluster {0,1,2}: 1 is central (distances 0.1 to both; 0-2 distance 0.4).
  hdc::distance_matrix_f32 m(3);
  m.at(1, 0) = 0.1F;
  m.at(2, 1) = 0.1F;
  m.at(2, 0) = 0.4F;
  flat_clustering c;
  c.labels = {0, 0, 0};
  c.cluster_count = 1;
  const auto reps = medoids(c, m);
  ASSERT_EQ(reps.size(), 1U);
  EXPECT_EQ(reps[0], 1U);
}

TEST(Medoids, SingletonIsItsOwnMedoid) {
  hdc::distance_matrix_f32 m(3);
  m.at(1, 0) = 0.1F;
  m.at(2, 0) = 0.5F;
  m.at(2, 1) = 0.5F;
  flat_clustering c;
  c.labels = {0, 0, 1};
  c.cluster_count = 2;
  const auto reps = medoids(c, m);
  EXPECT_EQ(reps[1], 2U);
}

TEST(Medoids, SizeMismatchThrows) {
  hdc::distance_matrix_f32 m(2);
  flat_clustering c;
  c.labels = {0};
  c.cluster_count = 1;
  EXPECT_THROW(medoids(c, m), logic_error);
}

/// Random hypervectors with exact duplicates, and labels that make
/// singletons, an empty label and clusters whose members tie on average
/// distance (a duplicated pair and its partner: {a, a, b, b} ties all four).
struct hv_case {
  std::vector<hdc::hypervector> hvs;
  flat_clustering clustering;
};

hv_case tied_hv_case(std::uint64_t seed) {
  xoshiro256ss rng(seed);
  hv_case out;
  const auto a = hdc::hypervector::random(256, rng);
  const auto b = hdc::hypervector::random(256, rng);
  out.hvs = {a, a, b, b};  // cluster 0: four-way tie
  out.clustering.labels = {0, 0, 0, 0};
  for (std::size_t i = 4; i < 60; ++i) {
    // Every third vector repeats an earlier one, so in-cluster ties recur.
    out.hvs.push_back(i % 3 == 0 ? out.hvs[rng.bounded(i)]
                                 : hdc::hypervector::random(256, rng));
    out.clustering.labels.push_back(1 + static_cast<std::int32_t>(rng.bounded(7)));
  }
  out.clustering.labels.push_back(9);  // label 8 stays empty
  out.hvs.push_back(hdc::hypervector::random(256, rng));
  out.clustering.cluster_count = 10;
  return out;
}

TEST(Medoids, HypervectorFormMatchesMatrixForm) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto c = tied_hv_case(seed);
    const auto want = medoids(c.clustering, hdc::pairwise_hamming_f32(c.hvs));
    EXPECT_EQ(medoids(c.clustering, c.hvs), want) << "seed " << seed;
    EXPECT_EQ(want[0], 0U) << "a four-way tie keeps the first member";
  }
}

TEST(Medoids, HypervectorSizeMismatchThrows) {
  xoshiro256ss rng(1);
  const std::vector<hdc::hypervector> hvs(2, hdc::hypervector::random(64, rng));
  flat_clustering c;
  c.labels = {0};
  c.cluster_count = 1;
  EXPECT_THROW(medoids(c, hvs), logic_error);
}

TEST(MergeConsensus, AveragesSharedBins) {
  ms::spectrum a;
  a.title = "a";
  a.precursor_mz = 500.0;
  a.precursor_charge = 2;
  a.peaks = {{100.00, 10.0F}, {200.0, 20.0F}};
  ms::spectrum b;
  b.peaks = {{100.02, 30.0F}, {300.0, 40.0F}};  // 100.02 shares a's first bin

  const auto consensus = merge_consensus({&a, &b}, a, 0.05);
  EXPECT_EQ(consensus.precursor_charge, 2);
  ASSERT_EQ(consensus.peaks.size(), 3U);
  // Shared bin: intensity (10+30)/2 = 20, m/z intensity-weighted.
  EXPECT_NEAR(consensus.peaks[0].intensity, 20.0F, 1e-4);
  EXPECT_GT(consensus.peaks[0].mz, 100.0);
  EXPECT_LT(consensus.peaks[0].mz, 100.02);
  // Unshared bins averaged over member count: 20/2 = 10, 40/2 = 20.
  EXPECT_NEAR(consensus.peaks[1].intensity, 10.0F, 1e-4);
  EXPECT_NEAR(consensus.peaks[2].intensity, 20.0F, 1e-4);
}

TEST(MergeConsensus, EmptyMembersThrows) {
  ms::spectrum medoid;
  EXPECT_THROW(merge_consensus({}, medoid, 0.05), logic_error);
}

TEST(ConsensusSpectra, OnePerClusterSingletonsPassThrough) {
  hdc::distance_matrix_f32 m(3);
  m.at(1, 0) = 0.1F;
  m.at(2, 0) = 0.9F;
  m.at(2, 1) = 0.9F;
  flat_clustering c;
  c.labels = {0, 0, 1};
  c.cluster_count = 2;
  std::vector<ms::spectrum> spectra(3);
  spectra[0].title = "s0";
  spectra[0].peaks = {{100.0, 1.0F}};
  spectra[1].title = "s1";
  spectra[1].peaks = {{100.0, 1.0F}};
  spectra[2].title = "s2";
  spectra[2].peaks = {{500.0, 1.0F}};

  const auto reps = consensus_spectra(c, m, spectra);
  ASSERT_EQ(reps.size(), 2U);
  EXPECT_NE(reps[0].title.find("consensus_of=2"), std::string::npos);
  EXPECT_EQ(reps[1].title, "s2");  // singleton passes through unchanged
}

TEST(ConsensusSpectra, ConsensusPeaksSorted) {
  hdc::distance_matrix_f32 m(2);
  m.at(1, 0) = 0.1F;
  flat_clustering c;
  c.labels = {0, 0};
  c.cluster_count = 1;
  std::vector<ms::spectrum> spectra(2);
  spectra[0].peaks = {{300.0, 1.0F}, {500.0, 2.0F}};
  spectra[1].peaks = {{100.0, 1.0F}, {400.0, 2.0F}};
  const auto reps = consensus_spectra(c, m, spectra);
  ASSERT_EQ(reps.size(), 1U);
  EXPECT_TRUE(ms::peaks_sorted(reps[0]));
  EXPECT_EQ(reps[0].peaks.size(), 4U);
}

TEST(ConsensusSpectra, HypervectorFormMatchesMatrixForm) {
  const auto c = tied_hv_case(7);
  std::vector<ms::spectrum> spectra(c.hvs.size());
  for (std::size_t i = 0; i < spectra.size(); ++i) {
    spectra[i].title = "s" + std::to_string(i);
    spectra[i].precursor_mz = 400.0 + static_cast<double>(i);
    spectra[i].peaks = {{100.0 + static_cast<double>(i % 5), 1.0F + static_cast<float>(i)},
                        {250.5, 2.0F}};
  }
  const auto want = consensus_spectra(c.clustering, hdc::pairwise_hamming_f32(c.hvs), spectra);
  const auto got = consensus_spectra(c.clustering, c.hvs, spectra);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].title, want[k].title) << k;
    EXPECT_EQ(got[k].precursor_mz, want[k].precursor_mz) << k;
    EXPECT_EQ(got[k].peaks, want[k].peaks) << k;
  }
}

}  // namespace
}  // namespace spechd::cluster
