#include "cluster/consensus.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "util/error.hpp"

namespace spechd::cluster {

namespace {

/// The medoid loop over any distance accessor: dist(i, j) returns the float
/// distance of items i != j, summed in double in member order.
template <typename Distance>
std::vector<std::uint32_t> medoids_by(const flat_clustering& clustering, Distance dist) {
  // Group member indices by cluster label.
  std::vector<std::vector<std::uint32_t>> members(clustering.cluster_count);
  for (std::uint32_t i = 0; i < clustering.labels.size(); ++i) {
    const auto label = clustering.labels[i];
    if (label >= 0) members[static_cast<std::size_t>(label)].push_back(i);
  }

  std::vector<std::uint32_t> result(clustering.cluster_count, 0);
  for (std::size_t c = 0; c < members.size(); ++c) {
    const auto& m = members[c];
    if (m.empty()) continue;
    if (m.size() == 1) {
      result[c] = m[0];
      continue;
    }
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t best_idx = m[0];
    for (const auto i : m) {
      double sum = 0.0;
      for (const auto j : m) {
        if (i != j) sum += dist(i, j);
      }
      const double avg = sum / static_cast<double>(m.size() - 1);
      if (avg < best) {
        best = avg;
        best_idx = i;
      }
    }
    result[c] = best_idx;
  }
  return result;
}

std::vector<ms::spectrum> consensus_from(const flat_clustering& clustering,
                                         const std::vector<std::uint32_t>& reps,
                                         const std::vector<ms::spectrum>& spectra,
                                         double bin_width) {
  std::vector<std::vector<const ms::spectrum*>> members(clustering.cluster_count);
  for (std::size_t i = 0; i < spectra.size(); ++i) {
    const auto label = clustering.labels[i];
    if (label >= 0) members[static_cast<std::size_t>(label)].push_back(&spectra[i]);
  }

  std::vector<ms::spectrum> result;
  result.reserve(clustering.cluster_count);
  for (std::size_t c = 0; c < clustering.cluster_count; ++c) {
    if (members[c].empty()) continue;
    if (members[c].size() == 1) {
      result.push_back(*members[c][0]);
    } else {
      result.push_back(merge_consensus(members[c], spectra[reps[c]], bin_width));
    }
  }
  return result;
}

}  // namespace

std::vector<std::uint32_t> medoids(const flat_clustering& clustering,
                                   const hdc::distance_matrix_f32& original) {
  SPECHD_EXPECTS(clustering.labels.size() == original.size());
  return medoids_by(clustering,
                    [&](std::uint32_t i, std::uint32_t j) { return original.at(i, j); });
}

std::vector<std::uint32_t> medoids(const flat_clustering& clustering,
                                   const std::vector<hdc::hypervector>& hvs) {
  SPECHD_EXPECTS(clustering.labels.size() == hvs.size());
  return medoids_by(clustering, [&](std::uint32_t i, std::uint32_t j) {
    // pairwise_hamming_f32's value: divide in double, narrow to float.
    return static_cast<float>(static_cast<double>(hdc::hamming(hvs[i], hvs[j])) /
                              static_cast<double>(hvs[i].dim()));
  });
}

ms::spectrum merge_consensus(const std::vector<const ms::spectrum*>& members,
                             const ms::spectrum& medoid, double bin_width) {
  SPECHD_EXPECTS(!members.empty());
  SPECHD_EXPECTS(bin_width > 0.0);

  ms::spectrum out;
  out.title = medoid.title + ";consensus_of=" + std::to_string(members.size());
  out.scan = medoid.scan;
  out.precursor_mz = medoid.precursor_mz;
  out.precursor_charge = medoid.precursor_charge;
  out.retention_time = medoid.retention_time;
  out.label = medoid.label;

  struct bin_acc {
    double intensity_sum = 0.0;
    double weighted_mz = 0.0;
  };
  std::map<std::int64_t, bin_acc> bins;
  for (const auto* s : members) {
    for (const auto& p : s->peaks) {
      auto& acc = bins[static_cast<std::int64_t>(p.mz / bin_width)];
      acc.intensity_sum += p.intensity;
      acc.weighted_mz += p.mz * p.intensity;
    }
  }
  out.peaks.reserve(bins.size());
  const auto n = static_cast<double>(members.size());
  for (const auto& [bin, acc] : bins) {
    if (acc.intensity_sum <= 0.0) continue;
    out.peaks.push_back({acc.weighted_mz / acc.intensity_sum,
                         static_cast<float>(acc.intensity_sum / n)});
  }
  ms::sort_peaks(out);
  return out;
}

std::vector<ms::spectrum> consensus_spectra(const flat_clustering& clustering,
                                            const hdc::distance_matrix_f32& original,
                                            const std::vector<ms::spectrum>& spectra,
                                            double bin_width) {
  SPECHD_EXPECTS(clustering.labels.size() == spectra.size());
  return consensus_from(clustering, medoids(clustering, original), spectra, bin_width);
}

std::vector<ms::spectrum> consensus_spectra(const flat_clustering& clustering,
                                            const std::vector<hdc::hypervector>& hvs,
                                            const std::vector<ms::spectrum>& spectra,
                                            double bin_width) {
  SPECHD_EXPECTS(clustering.labels.size() == spectra.size());
  return consensus_from(clustering, medoids(clustering, hvs), spectra, bin_width);
}

}  // namespace spechd::cluster
