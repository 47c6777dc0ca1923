#include "core/spechd.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "hdc/distance.hpp"
#include "metrics/quality.hpp"
#include "ms/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace spechd::core {
namespace {

const ms::labelled_dataset& dataset() {
  static const ms::labelled_dataset ds = [] {
    ms::synthetic_config c;
    c.peptide_count = 40;
    c.spectra_per_peptide_mean = 8.0;
    c.seed = 99;
    return ms::generate_dataset(c);
  }();
  return ds;
}

std::vector<std::int32_t> truth(const ms::labelled_dataset& ds) {
  std::vector<std::int32_t> t;
  t.reserve(ds.spectra.size());
  for (const auto& s : ds.spectra) t.push_back(s.label);
  return t;
}

TEST(Pipeline, LabelsAlignWithInput) {
  spechd_pipeline pipeline({});
  const auto result = pipeline.run(dataset().spectra);
  EXPECT_EQ(result.clustering.labels.size(), dataset().spectra.size());
  for (const auto l : result.clustering.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, static_cast<std::int32_t>(result.clustering.cluster_count));
  }
}

TEST(Pipeline, RecoversSyntheticClustersWithGoodQuality) {
  spechd_pipeline pipeline({});
  const auto result = pipeline.run(dataset().spectra);
  const auto q = metrics::evaluate_clustering(truth(dataset()), result.clustering);
  // Synthetic replicates of the same peptide share precursor and fragments;
  // the full pipeline must group a solid fraction with low error.
  EXPECT_GT(q.clustered_ratio, 0.35);
  EXPECT_LT(q.incorrect_ratio, 0.05);
  EXPECT_GT(q.completeness, 0.6);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  spechd_pipeline pipeline({});
  const auto a = pipeline.run(dataset().spectra);
  const auto b = pipeline.run(dataset().spectra);
  EXPECT_EQ(a.clustering.labels, b.clustering.labels);
  EXPECT_EQ(a.clustering.cluster_count, b.clustering.cluster_count);
}

TEST(Pipeline, FixedPointAndFloatPathsAgreeOnQuality) {
  spechd_config fixed;
  fixed.use_fixed_point = true;
  spechd_config floating;
  floating.use_fixed_point = false;
  const auto qa = metrics::evaluate_clustering(
      truth(dataset()), spechd_pipeline(fixed).run(dataset().spectra).clustering);
  const auto qb = metrics::evaluate_clustering(
      truth(dataset()), spechd_pipeline(floating).run(dataset().spectra).clustering);
  // q16 quantisation must not change quality materially (Sec. III-C claim).
  EXPECT_NEAR(qa.clustered_ratio, qb.clustered_ratio, 0.05);
  EXPECT_NEAR(qa.incorrect_ratio, qb.incorrect_ratio, 0.02);
}

TEST(Pipeline, CompressionFactorInPaperBand) {
  spechd_pipeline pipeline({});
  const auto result = pipeline.run(dataset().spectra);
  // Fig. 6b reports 24-108x on real datasets; synthetic spectra have fewer
  // peaks, so accept a wider band but demand real compression.
  EXPECT_GT(result.compression_factor, 1.0);
}

TEST(Pipeline, ConsensusCountMatchesClusterCountOfSurvivors) {
  spechd_pipeline pipeline({});
  const auto result = pipeline.run(dataset().spectra);
  EXPECT_GT(result.consensus.size(), 0U);
  EXPECT_LE(result.consensus.size(), result.clustering.cluster_count);
}

TEST(Pipeline, HacStatsAccumulated) {
  spechd_pipeline pipeline({});
  const auto result = pipeline.run(dataset().spectra);
  EXPECT_GT(result.hac_stats.merges, 0U);
  EXPECT_GT(result.hac_stats.comparisons, 0U);
}

TEST(Pipeline, ThresholdControlsClusteredRatio) {
  spechd_config strict;
  strict.distance_threshold = 0.02;
  spechd_config loose;
  loose.distance_threshold = 0.45;
  const auto qs = metrics::evaluate_clustering(
      truth(dataset()), spechd_pipeline(strict).run(dataset().spectra).clustering);
  const auto ql = metrics::evaluate_clustering(
      truth(dataset()), spechd_pipeline(loose).run(dataset().spectra).clustering);
  EXPECT_LT(qs.clustered_ratio, ql.clustered_ratio);
}

TEST(Pipeline, LinkageChoiceMatters) {
  spechd_config complete;
  complete.link = cluster::linkage::complete;
  spechd_config single;
  single.link = cluster::linkage::single;
  const auto qc = metrics::evaluate_clustering(
      truth(dataset()), spechd_pipeline(complete).run(dataset().spectra).clustering);
  const auto qsngl = metrics::evaluate_clustering(
      truth(dataset()), spechd_pipeline(single).run(dataset().spectra).clustering);
  // Same threshold: single linkage merges at least as aggressively.
  EXPECT_GE(qsngl.clustered_ratio + 1e-9, qc.clustered_ratio);
}

TEST(Pipeline, EmptyInputSafe) {
  spechd_pipeline pipeline({});
  const auto result = pipeline.run({});
  EXPECT_TRUE(result.clustering.labels.empty());
  EXPECT_EQ(result.clustering.cluster_count, 0U);
}

TEST(Pipeline, SingleSpectrumIsSingleton) {
  spechd_pipeline pipeline({});
  const auto result = pipeline.run({dataset().spectra[0]});
  ASSERT_EQ(result.clustering.labels.size(), 1U);
  EXPECT_EQ(result.clustering.cluster_count, 1U);
}

/// Near-isobaric peptides: buckets of well over 64 spectra, so the fused
/// sweep crosses tile edges and runs block rows on the pool.
const ms::labelled_dataset& dense_dataset() {
  static const ms::labelled_dataset ds = [] {
    ms::synthetic_config c;
    c.peptide_count = 60;
    c.spectra_per_peptide_mean = 6.0;
    c.peptide_mass_min = 1500.0;
    c.peptide_mass_max = 1502.0;
    c.seed = 7;
    return ms::generate_dataset(c);
  }();
  return ds;
}

/// The per-bucket path as it ran before the fused sweep, composed from the
/// condensed-matrix API: a full f32 matrix for the medoids, the q16 matrix
/// (or the same f32 one) into the condensed-input NN-chain.
spechd_result condensed_reference(const spechd_config& config,
                                  const std::vector<ms::spectrum>& spectra) {
  const auto batch = preprocess::run_preprocessing(spectra, config.preprocess);
  const hdc::id_level_encoder encoder(config.encoder, config.preprocess.quantize.mz_bins,
                                      config.preprocess.quantize.intensity_levels);
  const auto hvs = encoder.encode_batch(batch.spectra, nullptr);
  spechd_result result;
  result.clustering.labels.assign(spectra.size(), -1);
  std::size_t offset = 0;
  for (const auto& bucket : batch.buckets) {
    std::vector<std::uint32_t> original;
    std::vector<hdc::hypervector> bucket_hvs;
    std::vector<ms::spectrum> bucket_spectra;
    for (const auto idx : bucket.members) {
      original.push_back(batch.spectra[idx].source_index);
      bucket_hvs.push_back(hvs[idx]);
      bucket_spectra.push_back(spectra[original.back()]);
    }
    cluster::flat_clustering flat;
    if (bucket.size() == 1) {
      flat.labels = {0};
      flat.cluster_count = 1;
      result.consensus.push_back(bucket_spectra[0]);
    } else {
      const auto matrix_f32 = hdc::pairwise_hamming_f32(bucket_hvs);
      const auto hac = config.use_fixed_point
                           ? cluster::nn_chain_hac(hdc::pairwise_hamming_q16(bucket_hvs),
                                                   config.link)
                           : cluster::nn_chain_hac(matrix_f32, config.link);
      result.hac_stats.comparisons += hac.stats.comparisons;
      result.hac_stats.distance_updates += hac.stats.distance_updates;
      result.hac_stats.chain_pushes += hac.stats.chain_pushes;
      result.hac_stats.merges += hac.stats.merges;
      flat = hac.tree.cut(config.distance_threshold);
      for (auto& c : cluster::consensus_spectra(flat, matrix_f32, bucket_spectra)) {
        result.consensus.push_back(std::move(c));
      }
    }
    for (std::size_t i = 0; i < original.size(); ++i) {
      result.clustering.labels[original[i]] =
          static_cast<std::int32_t>(offset + static_cast<std::size_t>(flat.labels[i]));
    }
    offset += flat.cluster_count;
  }
  for (auto& label : result.clustering.labels) {
    if (label < 0) label = static_cast<std::int32_t>(offset++);
  }
  result.clustering.cluster_count = offset;
  return result;
}

TEST(Pipeline, MatchesCondensedMatrixReference) {
  // Besides the composed reference, pin the counts the condensed-matrix
  // pipeline printed for these inputs (identical under both grids here).
  struct pinned {
    std::size_t clusters;
    std::uint64_t comparisons, distance_updates, chain_pushes, merges;
  };
  const pinned pins[] = {{81, 3271, 1103, 446, 287}, {73, 102257, 34344, 708, 362}};
  const pinned* pin = pins;
  for (const auto* ds : {&dataset(), &dense_dataset()}) {
    const auto batch = preprocess::run_preprocessing(ds->spectra, spechd_config{}.preprocess);
    std::size_t max_bucket = 0;
    for (const auto& b : batch.buckets) max_bucket = std::max(max_bucket, b.size());
    if (ds == &dense_dataset()) {
      EXPECT_GT(max_bucket, 129U) << "the dense set must cross several tile edges";
    }
    for (const bool fixed_point : {true, false}) {
      spechd_config config;
      config.use_fixed_point = fixed_point;
      config.threads = 3;
      const auto want = condensed_reference(config, ds->spectra);
      const auto got = spechd_pipeline(config).run(ds->spectra);
      const std::string what = "max bucket " + std::to_string(max_bucket) +
                               (fixed_point ? ", q16" : ", f32");
      EXPECT_EQ(got.clustering.labels, want.clustering.labels) << what;
      EXPECT_EQ(got.clustering.cluster_count, want.clustering.cluster_count) << what;
      EXPECT_EQ(got.hac_stats.comparisons, want.hac_stats.comparisons) << what;
      EXPECT_EQ(got.hac_stats.distance_updates, want.hac_stats.distance_updates) << what;
      EXPECT_EQ(got.hac_stats.chain_pushes, want.hac_stats.chain_pushes) << what;
      EXPECT_EQ(got.hac_stats.merges, want.hac_stats.merges) << what;
      EXPECT_EQ(got.clustering.cluster_count, pin->clusters) << what;
      EXPECT_EQ(got.hac_stats.comparisons, pin->comparisons) << what;
      EXPECT_EQ(got.hac_stats.distance_updates, pin->distance_updates) << what;
      EXPECT_EQ(got.hac_stats.chain_pushes, pin->chain_pushes) << what;
      EXPECT_EQ(got.hac_stats.merges, pin->merges) << what;
      ASSERT_EQ(got.consensus.size(), want.consensus.size()) << what;
      for (std::size_t k = 0; k < got.consensus.size(); ++k) {
        EXPECT_EQ(got.consensus[k].title, want.consensus[k].title) << what << " #" << k;
        EXPECT_EQ(got.consensus[k].scan, want.consensus[k].scan) << what << " #" << k;
        EXPECT_EQ(got.consensus[k].peaks, want.consensus[k].peaks) << what << " #" << k;
      }
    }
    ++pin;
  }
}

TEST(Pipeline, PhaseTimersPopulated) {
  spechd_pipeline pipeline({});
  const auto result = pipeline.run(dataset().spectra);
  EXPECT_GE(result.phases.preprocess, 0.0);
  EXPECT_GT(result.phases.total(), 0.0);
}

}  // namespace
}  // namespace spechd::core
