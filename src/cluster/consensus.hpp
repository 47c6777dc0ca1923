// Consensus / representative selection (Sec. III-C closing step):
//
// "the algorithm calculates a consensus cluster by evaluating the lowest
//  average minimum distance to all other spectra within that cluster,
//  based on the original distance matrix" — i.e. the medoid.
//
// We also provide a peak-merging consensus spectrum builder (bin fragment
// m/z across members, average intensities) used when exporting cluster
// representatives for the simulated database search (Fig. 11).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/dendrogram.hpp"
#include "hdc/distance.hpp"
#include "hdc/hypervector.hpp"
#include "ms/spectrum.hpp"

namespace spechd::cluster {

/// Medoid member index (into the item list) for each cluster, using the
/// original (pre-merge) distance matrix. Clusters are indexed by label.
std::vector<std::uint32_t> medoids(const flat_clustering& clustering,
                                   const hdc::distance_matrix_f32& original);

/// The same medoids computed from the items' hypervectors: only in-cluster
/// pairs are measured, each exactly as pairwise_hamming_f32 would store it,
/// so the choice (tie-break included) is bit-identical to the matrix form
/// without building the n×n matrix.
std::vector<std::uint32_t> medoids(const flat_clustering& clustering,
                                   const std::vector<hdc::hypervector>& hvs);

/// Builds a merged consensus spectrum from cluster members: fragment m/z
/// binned at `bin_width`, per-bin intensity averaged over members, bin
/// centre reported as m/z. Precursor fields are medoid's.
ms::spectrum merge_consensus(const std::vector<const ms::spectrum*>& members,
                             const ms::spectrum& medoid, double bin_width = 0.05);

/// Convenience: a full consensus set — one representative spectrum per
/// cluster (medoid metadata, merged peaks); singletons pass through.
std::vector<ms::spectrum> consensus_spectra(const flat_clustering& clustering,
                                            const hdc::distance_matrix_f32& original,
                                            const std::vector<ms::spectrum>& spectra,
                                            double bin_width = 0.05);

/// Same, with medoids chosen from the spectra's hypervectors (see above).
std::vector<ms::spectrum> consensus_spectra(const flat_clustering& clustering,
                                            const std::vector<hdc::hypervector>& hvs,
                                            const std::vector<ms::spectrum>& spectra,
                                            double bin_width = 0.05);

}  // namespace spechd::cluster
