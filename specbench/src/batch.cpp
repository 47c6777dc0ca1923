// Batch path: MGF file -> spectra -> labels plus consensus.
//
// Untraced runs time ms::read_mgf_file and core::spechd_pipeline::run as a
// user calls them. The traced run composes the same pipeline from the layer
// functions (preprocess, hdc, cluster) with a span around each call, and
// checks that it yields the labels spechd_pipeline::run yields.
#include <bit>
#include <cmath>
#include <iostream>
#include <set>

#include "bench.hpp"
#include "cluster/consensus.hpp"
#include "core/spechd.hpp"
#include "hdc/distance.hpp"
#include "metrics/quality.hpp"
#include "ms/mgf.hpp"
#include "preprocess/pipeline.hpp"
#include "util/thread_pool.hpp"

namespace specbench {

namespace {

using namespace spechd;

/// Largest ICR (1 - purity) the batch clustering may show against the
/// generator's labels on any workload.
constexpr double k_icr_ceiling = 0.05;

/// Traced runs alternate this many pairs of untraced and traced rounds.
constexpr int k_traced_rounds = 11;

/// How large a share of the traced pipeline the glue between layer calls
/// may take before the traced run counts as not covering the pipeline.
constexpr double k_coverage_tolerance = 0.10;

/// Normalised Hamming distance by a plain popcount loop.
double plain_distance(const hdc::hypervector& a, const hdc::hypervector& b) {
  const auto wa = a.words();
  const auto wb = b.words();
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < wa.size(); ++i) bits += std::popcount(wa[i] ^ wb[i]);
  return static_cast<double>(bits) / static_cast<double>(a.dim());
}

bool same_value(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

}  // namespace

void check_batch(const dataset& truth, const std::vector<ms::spectrum>& spectra,
                 const core::spechd_result& out, report& rep) {
  const auto config = batch_config();
  const auto& clustering = out.clustering;

  // Read-back equals the generated spectra at the writer's precision
  // (10 significant digits).
  bool read_ok = spectra.size() == truth.spectra.size();
  for (std::size_t i = 0; read_ok && i < spectra.size(); ++i) {
    const auto& a = spectra[i];
    const auto& b = truth.spectra[i];
    read_ok = a.precursor_charge == b.precursor_charge &&
              same_value(a.precursor_mz, b.precursor_mz, 1e-9) &&
              a.peaks.size() == b.peaks.size();
    for (std::size_t k = 0; read_ok && k < a.peaks.size(); ++k) {
      read_ok = same_value(a.peaks[k].mz, b.peaks[k].mz, 1e-9) &&
                same_value(a.peaks[k].intensity, b.peaks[k].intensity, 1e-6);
    }
  }
  rep.check(read_ok, "batch: " + std::to_string(spectra.size()) +
                         " spectra read back equal the generated ones");

  // Members per cluster; survivors of preprocessing with their hypervectors.
  bool labels_ok = clustering.labels.size() == spectra.size();
  for (const auto label : clustering.labels) {
    labels_ok = labels_ok && label >= 0 &&
                static_cast<std::size_t>(label) < clustering.cluster_count;
  }
  rep.check(labels_ok, "batch: one label per spectrum, each below the cluster count");
  if (!labels_ok) return;
  std::vector<std::vector<std::uint32_t>> members(clustering.cluster_count);
  for (std::uint32_t i = 0; i < clustering.labels.size(); ++i) {
    members[static_cast<std::size_t>(clustering.labels[i])].push_back(i);
  }
  const auto prepared = preprocess::run_preprocessing(spectra, config.preprocess);
  const hdc::id_level_encoder encoder(config.encoder, config.preprocess.quantize.mz_bins,
                                      config.preprocess.quantize.intensity_levels);
  thread_pool pool(config.threads);
  const auto hvs = encoder.encode_batch(prepared.spectra, &pool);
  std::vector<const hdc::hypervector*> hv_of(spectra.size(), nullptr);
  for (std::size_t k = 0; k < prepared.spectra.size(); ++k) {
    hv_of[prepared.spectra[k].source_index] = &hvs[k];
  }

  bool one_bucket = true;
  bool linkage_ok = true;
  double worst = 0.0;
  for (const auto& m : members) {
    if (m.size() < 2) continue;
    const auto key = preprocess::bucket_index(spectra[m[0]].precursor_mz,
                                              spectra[m[0]].precursor_charge,
                                              config.preprocess.bucketing);
    for (const auto i : m) {
      one_bucket = one_bucket &&
                   preprocess::bucket_index(spectra[i].precursor_mz,
                                            spectra[i].precursor_charge,
                                            config.preprocess.bucketing) == key;
      linkage_ok = linkage_ok && hv_of[i] != nullptr;
    }
    if (!linkage_ok) break;
    for (std::size_t a = 0; a < m.size(); ++a) {
      for (std::size_t b = a + 1; b < m.size(); ++b) {
        worst = std::max(worst, plain_distance(*hv_of[m[a]], *hv_of[m[b]]));
      }
    }
  }
  linkage_ok = linkage_ok && worst <= config.distance_threshold;
  rep.check(one_bucket, "batch: every non-singleton cluster sits in one bucket");
  rep.check(linkage_ok, "batch: largest in-cluster pair distance " + std::to_string(worst) +
                            " <= cut " + std::to_string(config.distance_threshold));

  // One consensus per cluster of preprocessed spectra, in label order, each
  // carrying the precursor of one of its members (the medoid).
  std::set<std::int32_t> kept_labels;
  for (const auto& q : prepared.spectra) kept_labels.insert(clustering.labels[q.source_index]);
  bool consensus_ok = out.consensus.size() == kept_labels.size() &&
                      (kept_labels.empty() ||
                       *kept_labels.rbegin() + 1 == static_cast<std::int32_t>(kept_labels.size()));
  for (std::size_t c = 0; consensus_ok && c < out.consensus.size(); ++c) {
    const auto& rep_spectrum = out.consensus[c];
    bool member = false;
    for (const auto i : members[c]) member = member || spectra[i].scan == rep_spectrum.scan;
    consensus_ok = member;
  }
  rep.check(consensus_ok, "batch: " + std::to_string(out.consensus.size()) +
                              " consensus spectra, one per cluster, each a member's");

  const auto quality = metrics::evaluate_clustering(truth.labels, clustering);
  rep.metric("clustered_ratio", quality.clustered_ratio, "ratio");
  rep.metric("purity", 1.0 - quality.incorrect_ratio, "ratio");
  rep.check(quality.incorrect_ratio <= k_icr_ceiling,
            "batch: ICR " + std::to_string(quality.incorrect_ratio) + " <= " +
                std::to_string(k_icr_ceiling));
}

namespace {

/// The traced composition of spechd_pipeline::run from its layer calls. It
/// does the same work, down to keeping every consensus spectrum, so its
/// time is comparable with the untraced run's.
core::spechd_result traced_pipeline(const std::vector<ms::spectrum>& spectra, report& rep) {
  const auto config = batch_config();
  span pipeline_span("core.pipeline");
  preprocess::preprocessed_batch batch;
  {
    span s("preprocess.run_preprocessing");
    batch = preprocess::run_preprocessing(spectra, config.preprocess);
  }
  thread_pool pool(config.threads);
  std::vector<hdc::hypervector> hvs;
  {
    span s("hdc.id_level_encoder");
    const hdc::id_level_encoder encoder(config.encoder, config.preprocess.quantize.mz_bins,
                                        config.preprocess.quantize.intensity_levels);
    span e("hdc.encode_batch");
    hvs = encoder.encode_batch(batch.spectra, &pool);
  }

  struct bucket_output {
    std::vector<std::uint32_t> original;
    std::vector<std::int32_t> local_labels;
    std::size_t local_clusters = 0;
    std::vector<ms::spectrum> consensus;
    std::uint64_t merges = 0;
  };
  std::vector<bucket_output> outputs(batch.buckets.size());
  const auto parent = pipeline_span.id();
  pool.parallel_for(batch.buckets.size(), [&](std::size_t b) {
    span bucket_span("core.bucket", b, parent);
    const auto& bucket = batch.buckets[b];
    auto& out = outputs[b];
    for (const auto idx : bucket.members) out.original.push_back(batch.spectra[idx].source_index);
    if (bucket.size() == 1) {
      out.local_labels = {0};
      out.local_clusters = 1;
      out.consensus.push_back(spectra[out.original[0]]);
      return;
    }
    std::vector<hdc::hypervector> bucket_hvs;
    bucket_hvs.reserve(bucket.size());
    for (const auto idx : bucket.members) bucket_hvs.push_back(hvs[idx]);
    hdc::distance_matrix_f32 matrix_f32;
    {
      span s("hdc.pairwise_hamming_f32", b);
      matrix_f32 = hdc::pairwise_hamming_f32(bucket_hvs, &pool);
    }
    cluster::hac_result hac;
    if (config.use_fixed_point) {
      hdc::distance_matrix_q16 matrix_q16;
      {
        span s("hdc.pairwise_hamming_q16", b);
        matrix_q16 = hdc::pairwise_hamming_q16(bucket_hvs, &pool);
      }
      span s("cluster.nn_chain_hac", b);
      hac = cluster::nn_chain_hac(matrix_q16, config.link);
    } else {
      span s("cluster.nn_chain_hac", b);
      hac = cluster::nn_chain_hac(matrix_f32, config.link);
    }
    out.merges = hac.stats.merges;
    cluster::flat_clustering flat;
    {
      span s("cluster.cut", b);
      flat = hac.tree.cut(config.distance_threshold);
    }
    std::vector<ms::spectrum> bucket_spectra;
    bucket_spectra.reserve(bucket.size());
    for (const auto idx : out.original) bucket_spectra.push_back(spectra[idx]);
    {
      span s("cluster.consensus_spectra", b);
      out.consensus = cluster::consensus_spectra(flat, matrix_f32, bucket_spectra);
    }
    out.local_clusters = flat.cluster_count;
    out.local_labels = std::move(flat.labels);
  });

  core::spechd_result result;
  auto& clustering = result.clustering;
  clustering.labels.assign(spectra.size(), -1);
  std::size_t offset = 0;
  std::uint64_t merges = 0;
  std::uint64_t pairs = 0;
  std::size_t max_bucket = 0;
  for (std::size_t b = 0; b < outputs.size(); ++b) {
    auto& out = outputs[b];
    for (auto& c : out.consensus) result.consensus.push_back(std::move(c));
    for (std::size_t i = 0; i < out.original.size(); ++i) {
      clustering.labels[out.original[i]] =
          static_cast<std::int32_t>(offset + static_cast<std::size_t>(out.local_labels[i]));
    }
    offset += out.local_clusters;
    merges += out.merges;
    const std::uint64_t n = batch.buckets[b].size();
    pairs += n * (n - 1) / 2;
    max_bucket = std::max<std::size_t>(max_bucket, n);
  }
  for (auto& label : clustering.labels) {
    if (label < 0) label = static_cast<std::int32_t>(offset++);
  }
  clustering.cluster_count = offset;
  std::vector<double> sizes;
  for (const auto& b : batch.buckets) sizes.push_back(static_cast<double>(b.size()));
  std::cout << "batch: " << batch.buckets.size() << " buckets, size p50 " << median(sizes)
            << ", p90 " << percentile(sizes, 0.9) << ", max " << max_bucket << "; "
            << batch.dropped << " spectra dropped by preprocessing\n";
  rep.metric("preprocess.buckets", static_cast<double>(batch.buckets.size()), "count");
  rep.metric("preprocess.max_bucket", static_cast<double>(max_bucket), "count");
  rep.metric("hdc.pairs", static_cast<double>(pairs), "count");
  rep.metric("cluster.merges", static_cast<double>(merges), "count");
  return result;
}

double self_of(const std::map<std::string, double>& self, const std::string& name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second;
}

}  // namespace

spechd::core::spechd_config batch_config() {
  spechd::core::spechd_config config;
  config.threads = k_pool_threads;
  return config;
}

double batch_setup_once() {
  const auto t0 = clock_type::now();
  const core::spechd_pipeline pipeline(batch_config());
  const auto& config = pipeline.config();
  const hdc::id_level_encoder encoder(config.encoder, config.preprocess.quantize.mz_bins,
                                      config.preprocess.quantize.intensity_levels);
  return seconds_since(t0);
}

double batch_phase::round() {
  last_ = core::spechd_result{};  // release the previous round's result first
  const core::spechd_pipeline pipeline(batch_config());
  const auto t0 = clock_type::now();
  last_ = pipeline.run(spectra_);
  const double s = seconds_since(t0);
  cluster_rates_.push_back(static_cast<double>(spectra_.size()) / s);
  return s;
}

void batch_phase::report_rounds(report& rep) const {
  rep.phase("batch.cluster", cluster_rates_.size(), 0,
            std::to_string(last_.clustering.cluster_count) + " clusters");
  rep.metric("cluster_spectra_per_s", median(cluster_rates_), "spectra/s");
}

void batch_phase::traced(const workload& w, report& rep) {
  tracing_start();
  {
    span s("ms.read_mgf_file");
    const auto again = ms::read_mgf_file(opts_.dir + "/batch.mgf");
    rep.check(again.size() == spectra_.size(), "batch: a second read yields as many spectra");
  }
  auto spans = tracing_take();
  rep.metric("ms.read_s", median(durations_us(spans, "ms.read_mgf_file")) / 1e6, "s");
  write_spans(spans, "batch-read", opts_.trace_out);

  // Untraced and traced rounds alternate, so both sample the same stretch of
  // host load; every reported figure is the median over the rounds.
  std::vector<double> plain_s, traced_s;
  std::map<std::string, std::vector<double>> layers;
  bool labels_equal = true;
  core::spechd_result traced;
  const auto traced_round = [&] {
    traced = core::spechd_result{};  // release the previous result first, as round() does
    tracing_start();
    const auto t0 = clock_type::now();
    traced = traced_pipeline(spectra_, rep);
    traced_s.push_back(seconds_since(t0));
    spans = tracing_take();
  };
  for (int k = 0; k < k_traced_rounds; ++k) {
    // The order within a pair alternates, so neither path always runs
    // first.
    if (k % 2 == 0) {
      plain_s.push_back(round());
      traced_round();
    } else {
      traced_round();
      plain_s.push_back(round());
    }
    write_spans(spans, "batch-round-" + std::to_string(k + 1), opts_.trace_out);
    labels_equal = labels_equal &&
                   traced.clustering.labels == last_.clustering.labels &&
                   traced.consensus.size() == last_.consensus.size();

    // The layers' self times, without the pipeline's own spans
    // (core.pipeline, core.bucket), whose self time is the glue between the
    // layer calls.
    const auto self = self_seconds(spans);
    double layer_sum = 0.0;
    for (const auto& [name, sec] : self) {
      if (name.rfind("core.", 0) != 0) layer_sum += sec;
    }
    layers["layer_sum"].push_back(layer_sum);
    layers["preprocess.s"].push_back(self_of(self, "preprocess.run_preprocessing"));
    layers["hdc.item_memory_s"].push_back(self_of(self, "hdc.id_level_encoder"));
    layers["hdc.encode_s"].push_back(self_of(self, "hdc.encode_batch"));
    layers["hdc.pairwise_s"].push_back(self_of(self, "hdc.pairwise_hamming_f32") +
                                       self_of(self, "hdc.pairwise_hamming_q16"));
    layers["cluster.hac_s"].push_back(self_of(self, "cluster.nn_chain_hac") +
                                      self_of(self, "cluster.cut"));
    layers["cluster.consensus_s"].push_back(self_of(self, "cluster.consensus_spectra"));
    layers["core.glue_s"].push_back(self_of(self, "core.pipeline") +
                                    self_of(self, "core.bucket"));
    layers["core.pipeline_s"].push_back(median(durations_us(spans, "core.pipeline")) / 1e6);
  }
  rep.phase("batch.cluster", 2 * k_traced_rounds, 0,
            "spechd_pipeline::run and the traced composition, alternating");
  rep.check(labels_equal,
            "batch: traced composition labels and consensus count equal spechd_pipeline::run's");
  print_layer_table(spans, "batch, " + w.name + ", last traced round");

  // Ratios are taken per adjacent pair of rounds, so slow drift of the host
  // cancels, and then their median is reported.
  std::vector<double> overhead, self_sum;
  for (int k = 0; k < k_traced_rounds; ++k) {
    overhead.push_back(traced_s[k] / plain_s[k]);
    self_sum.push_back(layers["layer_sum"][k] / plain_s[k]);
  }
  const double glue_share = median(layers["core.glue_s"]) / median(layers["core.pipeline_s"]);
  std::cout << "batch: median of " << k_traced_rounds << " round pairs: traced pipeline "
            << median(traced_s) << " s, untraced " << median(plain_s)
            << " s; layer self times sum to " << median(self_sum)
            << " of the untraced pipeline; glue is " << glue_share
            << " of the traced pipeline\n";
  // Coverage is checked within the traced rounds. The self-sum ratio also
  // carries the traced/untraced ratio of adjacent rounds, whose median moved
  // by +-5 % between runs on identical inputs, so it is reported, not checked.
  rep.check(glue_share <= k_coverage_tolerance,
            "batch: glue outside the layer calls is " + std::to_string(glue_share) +
                " <= " + std::to_string(k_coverage_tolerance) + " of the traced pipeline");
  for (const auto& [name, values] : layers) {
    if (name != "layer_sum") rep.metric(name, median(values), "s");
  }
  rep.metric("trace.batch_overhead_ratio", median(overhead), "ratio");
  rep.metric("trace.batch_self_sum_ratio", median(self_sum), "ratio");
}

}  // namespace specbench
