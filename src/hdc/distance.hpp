// Condensed distance matrices over hypervectors (Sec. III-C).
//
// "To conserve storage resources, only the lower triangular part of the
//  distance matrix is retained, capitalizing on its symmetry. Furthermore,
//  the use of 16-bit fixed-point arithmetic results in a significant
//  reduction in memory footprint."
//
// We provide a condensed (strictly-lower-triangular, row-major) matrix
// templated on the element type: float for the reference path, q16 for the
// FPGA-faithful path. Entry (i, j), i > j lives at i*(i-1)/2 + j.
#pragma once

#include <cstdint>
#include <vector>

#include "hdc/hypervector.hpp"
#include "util/fixed_point.hpp"

namespace spechd {
class thread_pool;
}

namespace spechd::hdc {

/// Condensed pairwise distance matrix for n items.
template <typename T>
class condensed_matrix {
public:
  condensed_matrix() = default;

  explicit condensed_matrix(std::size_t n, T init = T{})
      : n_(n), data_(n < 2 ? 0 : n * (n - 1) / 2, init) {}

  std::size_t size() const noexcept { return n_; }
  std::size_t entry_count() const noexcept { return data_.size(); }

  static std::size_t index_of(std::size_t i, std::size_t j) noexcept {
    // Requires i > j; callers use at() which normalises.
    return i * (i - 1) / 2 + j;
  }

  T& at(std::size_t i, std::size_t j) {
    SPECHD_EXPECTS(i != j && i < n_ && j < n_);
    return i > j ? data_[index_of(i, j)] : data_[index_of(j, i)];
  }
  const T& at(std::size_t i, std::size_t j) const {
    SPECHD_EXPECTS(i != j && i < n_ && j < n_);
    return i > j ? data_[index_of(i, j)] : data_[index_of(j, i)];
  }

  /// Raw storage (benches report bytes; serialisation uses it too). The
  /// mutable view lets the tile kernels write blocks without per-entry
  /// bounds checks; entry (i, j), i > j lives at index_of(i, j).
  const std::vector<T>& data() const noexcept { return data_; }
  std::vector<T>& data() noexcept { return data_; }
  std::size_t bytes() const noexcept { return data_.size() * sizeof(T); }

private:
  std::size_t n_ = 0;
  std::vector<T> data_;
};

using distance_matrix_f32 = condensed_matrix<float>;
using distance_matrix_q16 = condensed_matrix<q16>;

/// Computes the full condensed matrix of normalised Hamming distances.
///
/// Internally tiled through the dispatched XOR+popcount kernels
/// (hdc::kernels); when `pool` is non-null the block rows are distributed
/// across it, one task per block row, writing disjoint output ranges — the
/// result is bit-identical regardless of thread count or kernel variant.
distance_matrix_f32 pairwise_hamming_f32(const std::vector<hypervector>& hvs,
                                         spechd::thread_pool* pool = nullptr);

/// Same in Q0.16 fixed point (the FPGA layout). Max per-entry quantisation
/// error is q16::epsilon().
distance_matrix_q16 pairwise_hamming_q16(const std::vector<hypervector>& hvs,
                                         spechd::thread_pool* pool = nullptr);

/// The same tile sweep written straight into a full square matrix: for every
/// pair i != j, out[i*n + j] = out[j*n + i] = lut[hamming(hvs[i], hvs[j])],
/// with n = hvs.size(). `lut` must hold dim + 1 entries (one per possible
/// count); the diagonal is left unwritten. Each tile writes its row segments
/// and its transposed column segments directly, so no condensed copy sits
/// in between — this is the NN-chain's working-matrix fill. Block rows write
/// disjoint ranges, so the result is deterministic for any thread count.
void pairwise_hamming_square(const std::vector<hypervector>& hvs, const float* lut,
                             float* out, spechd::thread_pool* pool = nullptr);
void pairwise_hamming_square(const std::vector<hypervector>& hvs, const double* lut,
                             double* out, spechd::thread_pool* pool = nullptr);

}  // namespace spechd::hdc
