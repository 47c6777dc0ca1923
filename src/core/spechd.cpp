#include "core/spechd.hpp"

#include <atomic>
#include <mutex>

#include "hdc/cpu_kernels.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace spechd::core {

cluster::hac_result bucket_hac(const std::vector<hdc::hypervector>& hvs,
                               const spechd_config& config, thread_pool* pool) {
  // One tiled Hamming sweep writes the NN-chain's working matrix directly;
  // its packed operand blob and the working matrix are checked out of the
  // shared arena pool (util/arena_pool), so concurrent per-bucket calls
  // reuse a small set of pooled allocations instead of growing one
  // thread_local arena per worker.
  return cluster::nn_chain_hac(
      hvs, config.link,
      config.use_fixed_point ? cluster::distance_grid::q16 : cluster::distance_grid::f32, pool);
}

spechd_pipeline::spechd_pipeline(spechd_config config) : config_(std::move(config)) {}

spechd_result spechd_pipeline::run(const std::vector<ms::spectrum>& spectra) const {
  // Kernel dispatch is process-global; write it only when this run actually
  // pins a different variant, so the default ("auto" = already-active best)
  // path stays free of global side effects. See the knob's doc in spechd.hpp.
  const auto requested = hdc::kernels::parse_variant(config_.kernel_variant);
  if (requested != hdc::kernels::active()) hdc::kernels::set_active(requested);
  spechd_result result;
  stopwatch watch;

  // --- preprocessing --------------------------------------------------------
  auto batch = preprocess::run_preprocessing(spectra, config_.preprocess);
  result.phases.preprocess = watch.seconds();
  result.encoded_spectra = batch.spectra.size();
  result.bucket_count = batch.buckets.size();
  log_info() << "preprocess: " << spectra.size() << " spectra -> "
             << batch.spectra.size() << " survivors in " << batch.buckets.size()
             << " buckets (" << batch.dropped << " dropped)";

  // Compression accounting: raw peak bytes of the *input* vs HV storage.
  std::size_t raw_bytes = 0;
  for (const auto& s : spectra) raw_bytes += ms::raw_peak_bytes(s);
  result.compression_factor =
      hdc::compression_factor(raw_bytes, batch.spectra.size(), config_.encoder.dim);

  // --- encoding -------------------------------------------------------------
  // One pool serves all phases: per-spectrum encoding, bucket-level
  // clustering, and the tile-parallel distance matrices inside each bucket
  // (parallel_for is nested-safe; output is deterministic either way).
  thread_pool pool(config_.threads);
  watch.reset();
  hdc::id_level_encoder encoder(config_.encoder, config_.preprocess.quantize.mz_bins,
                                config_.preprocess.quantize.intensity_levels);
  const auto hvs = encoder.encode_batch(batch.spectra, &pool);
  result.phases.encode = watch.seconds();

  // --- per-bucket clustering -------------------------------------------------
  watch.reset();
  result.clustering.labels.assign(spectra.size(), -1);

  struct bucket_output {
    std::vector<std::uint32_t> original;     ///< input indices
    std::vector<std::int32_t> local_labels;  ///< per member
    std::size_t local_clusters = 0;
    std::vector<ms::spectrum> consensus;
    cluster::hac_stats stats;
  };
  std::vector<bucket_output> outputs(batch.buckets.size());

  pool.parallel_for(batch.buckets.size(), [&](std::size_t b) {
    const auto& bucket = batch.buckets[b];
    bucket_output& out = outputs[b];
    out.original.reserve(bucket.size());
    for (const auto idx : bucket.members) {
      out.original.push_back(batch.spectra[idx].source_index);
    }

    if (bucket.size() == 1) {
      out.local_labels = {0};
      out.local_clusters = 1;
      out.consensus.push_back(spectra[out.original[0]]);
      return;
    }

    std::vector<hdc::hypervector> bucket_hvs;
    bucket_hvs.reserve(bucket.size());
    for (const auto idx : bucket.members) bucket_hvs.push_back(hvs[idx]);

    // The cluster path goes through bucket_hac — the same code path the
    // incremental clusterer uses — which picks the FPGA's q16 grid when
    // configured. Consensus recomputes the "original distance matrix"
    // entries of Sec. III-C it needs (pairs inside one flat cluster) from
    // the hypervectors, so no matrix is kept for it.
    cluster::hac_result hac = bucket_hac(bucket_hvs, config_, &pool);
    out.stats = hac.stats;

    auto flat = hac.tree.cut(config_.distance_threshold);
    out.local_clusters = flat.cluster_count;

    // Consensus per local cluster on the bucket's original spectra.
    std::vector<ms::spectrum> bucket_spectra;
    bucket_spectra.reserve(bucket.size());
    for (const auto idx : out.original) bucket_spectra.push_back(spectra[idx]);
    out.consensus = cluster::consensus_spectra(flat, bucket_hvs, bucket_spectra);
    out.local_labels = std::move(flat.labels);
  });
  result.phases.cluster = watch.seconds();

  // --- merge bucket outputs ---------------------------------------------------
  watch.reset();
  std::size_t offset = 0;
  for (auto& out : outputs) {
    for (std::size_t i = 0; i < out.original.size(); ++i) {
      result.clustering.labels[out.original[i]] =
          static_cast<std::int32_t>(offset + static_cast<std::size_t>(out.local_labels[i]));
    }
    offset += out.local_clusters;
    result.hac_stats.comparisons += out.stats.comparisons;
    result.hac_stats.distance_updates += out.stats.distance_updates;
    result.hac_stats.chain_pushes += out.stats.chain_pushes;
    result.hac_stats.merges += out.stats.merges;
    for (auto& c : out.consensus) result.consensus.push_back(std::move(c));
  }

  // Spectra dropped by the filter keep singleton labels at the end.
  for (auto& label : result.clustering.labels) {
    if (label < 0) label = static_cast<std::int32_t>(offset++);
  }
  result.clustering.cluster_count = offset;
  result.phases.consensus = watch.seconds();
  log_info() << "clustered " << spectra.size() << " spectra into " << offset
             << " clusters in " << result.phases.total() << " s";
  return result;
}

}  // namespace spechd::core
