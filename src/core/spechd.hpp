// SpecHD end-to-end pipeline (the paper's primary contribution, Fig. 3).
//
//   load -> preprocess (filter, top-k, normalise, quantise, bucket)
//        -> ID-Level encode (Eq. 2)
//        -> per-bucket NN-chain HAC on (fixed-point) Hamming distances
//        -> threshold cut -> medoid consensus
//
// This is the bit-exact reference of what the FPGA executes: the q16
// distance path and the NN-chain kernel behaviour match Sec. III-C, while
// wall-clock performance of the hardware is modelled separately in
// src/fpga (the simulator consumes the *operation counts* this pipeline
// measures). Buckets cluster independently and are dispatched onto a
// thread pool, mirroring the 5-kernel parallelism on the card.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/consensus.hpp"
#include "cluster/nn_chain.hpp"
#include "hdc/encoder.hpp"
#include "ms/spectrum.hpp"
#include "preprocess/pipeline.hpp"

namespace spechd {
class thread_pool;
}

namespace spechd::core {

/// Configuration for one pipeline (or incremental-clusterer) instance.
/// Defaults reproduce the paper's operating point end to end; every field
/// is safe to vary independently. The struct is plain data — copy it per
/// pipeline; it is never mutated by a run.
struct spechd_config {
  preprocess::preprocess_config preprocess;  ///< filter/top-k/quantise/bucket knobs
  hdc::encoder_config encoder;               ///< D_hv (2048), item-memory seed
  cluster::linkage link = cluster::linkage::complete;  ///< paper's choice
  /// Dendrogram cut, normalised Hamming. Majority-binarised HVs of
  /// replicate spectra land around 0.35-0.45 while unrelated in-bucket
  /// pairs concentrate near 0.5, so the operating window is narrow and
  /// high; 0.42 balances clustered ratio vs ICR on HCD-like data.
  double distance_threshold = 0.42;
  bool use_fixed_point = true;       ///< q16 matrix, as on the FPGA
  std::size_t threads = 0;           ///< pool workers (encode + buckets + tiles);
                                     ///< 0 = hardware concurrency
  /// CPU kernel variant for the XOR/popcount datapaths: "auto" (best the
  /// CPU supports), "scalar", "avx2", or "avx512". All variants produce
  /// bit-identical results; this knob exists so benches can measure them.
  /// Dispatch is process-global: a non-default value re-points every HDC
  /// kernel in the process, so don't run pipelines with *different* pinned
  /// variants concurrently (the default "auto" never writes global state).
  std::string kernel_variant = "auto";
};

/// Wall-clock phase breakdown of a reference-pipeline run (seconds).
struct measured_phases {
  double preprocess = 0.0;
  double encode = 0.0;
  double cluster = 0.0;
  double consensus = 0.0;

  double total() const noexcept { return preprocess + encode + cluster + consensus; }
};

struct spechd_result {
  cluster::flat_clustering clustering;  ///< label per input spectrum; dropped
                                        ///< spectra become singletons
  std::vector<ms::spectrum> consensus;  ///< one representative per cluster
  std::size_t encoded_spectra = 0;
  std::size_t bucket_count = 0;
  double compression_factor = 0.0;      ///< raw peak bytes / HV bytes (Fig. 6b)
  cluster::hac_stats hac_stats;         ///< summed over buckets (feeds the
                                        ///< FPGA cycle model)
  measured_phases phases;
};

/// Clusters one bucket's hypervectors exactly as the batch pipeline does:
/// one kernel-tiled Hamming sweep (q16 grid when config.use_fixed_point,
/// f32 otherwise) straight into the kernel-backed NN-chain's working
/// matrix. Shared by the batch pipeline and the incremental/streaming path
/// so the two cannot drift.
///
/// Parameters: `hvs` must share one dimension (checked); `pool` may be
/// null (serial tiles) or a pool this call is itself running on —
/// parallel_for is nested-safe.
///
/// Thread-safety: safe to call concurrently from many threads (the
/// pipeline does, one call per bucket). All large scratch comes from the
/// process-wide arena pool; the only shared mutable state. The result is
/// deterministic for any thread count and kernel variant.
cluster::hac_result bucket_hac(const std::vector<hdc::hypervector>& hvs,
                               const spechd_config& config, thread_pool* pool);

/// The batch pipeline. Construct once with a config, call run() per
/// dataset; instances are cheap and carry no state besides the config.
class spechd_pipeline {
public:
  explicit spechd_pipeline(spechd_config config);

  const spechd_config& config() const noexcept { return config_; }

  /// Runs the full pipeline. Input spectra are copied (preprocessing is
  /// destructive); the result's label vector aligns with the input order,
  /// with dropped spectra labelled as trailing singletons.
  ///
  /// Thread-safety: run() creates its own thread pool (config_.threads
  /// workers) and is safe to call from any thread, but note the
  /// kernel_variant caveat above — two concurrent runs must not pin
  /// *different* non-"auto" variants. Output is bit-identical for any
  /// thread count and (per the kernel equivalence guarantee) any variant.
  spechd_result run(const std::vector<ms::spectrum>& spectra) const;

private:
  spechd_config config_;
};

}  // namespace spechd::core
