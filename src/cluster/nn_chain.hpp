// Nearest-Neighbor-Chain hierarchical agglomerative clustering (Sec. II-C,
// III-C; Murtagh & Contreras 2011).
//
// The algorithm grows a chain of successive nearest neighbours until it
// finds a Reciprocal Nearest Neighbor (RNN) pair, merges it, and continues
// from the surviving chain — avoiding the naive method's full-matrix
// minimum scan after every merge. For reducible linkages (all four we
// support) it produces the same dendrogram as exhaustive greedy HAC in
// O(n^2) time and O(n^2) space.
//
// The default implementation works on a flat row-major n×n matrix:
// retired columns and the diagonal are parked at +inf, so the inner
// nearest-neighbour scan is a branch-free argmin over a contiguous row
// (hdc::kernels::nearest_active_scan) and the post-merge Lance–Williams
// rewrite is a masked row kernel (hdc::kernels::lance_williams_row_update),
// both runtime-dispatched to scalar/AVX2/AVX-512 like the XOR+popcount
// kernels. Müllner's prefer-prev tie-break and the per-store rounding
// policy are preserved bit-for-bit; nn_chain_hac_condensed keeps the
// pre-kernel condensed-matrix implementation alive as the reference the
// golden suite (tests/cluster/test_nn_chain_golden.cpp) compares against.
// Every overload shares one merge loop and differs only in how it fills the
// working matrix: from a condensed matrix, or straight from hypervectors in
// one tiled Hamming sweep (hdc::pairwise_hamming_square) with no condensed
// copy in between — the batch pipeline's path.
//
// Two element-type paths mirror the hardware:
//   * f32 — reference implementation,
//   * q16 — every stored distance is rounded to the Q0.16 grid after each
//     Lance–Williams update, exactly as the FPGA kernel writes back to its
//     16-bit BRAM matrix.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/dendrogram.hpp"
#include "cluster/linkage.hpp"
#include "hdc/distance.hpp"
#include "hdc/hypervector.hpp"

namespace spechd {
class thread_pool;
}

namespace spechd::cluster {

/// Operation counters used by the Fig. 2 comparison bench and the FPGA
/// cycle model.
struct hac_stats {
  std::uint64_t comparisons = 0;       ///< candidate distance comparisons
  std::uint64_t distance_updates = 0;  ///< Lance–Williams applications
  std::uint64_t chain_pushes = 0;      ///< NN-chain growth steps (0 for naive)
  std::uint64_t merges = 0;
};

struct hac_result {
  dendrogram tree;
  hac_stats stats;
};

/// NN-chain HAC over a float condensed matrix (kernel-backed flat-matrix
/// implementation).
hac_result nn_chain_hac(const hdc::distance_matrix_f32& distances, linkage link);

/// NN-chain HAC over the FPGA's 16-bit fixed-point matrix; intermediate
/// Lance–Williams arithmetic runs wide (double) and results are re-quantised
/// to the Q0.16 grid on store, as the HLS kernel does.
hac_result nn_chain_hac(const hdc::distance_matrix_q16& distances, linkage link);

/// Which distances the hypervector overload clusters: the float reference
/// (pairwise_hamming_f32's values) or the FPGA's Q0.16 grid
/// (pairwise_hamming_q16's values).
enum class distance_grid : std::uint8_t { f32, q16 };

/// NN-chain HAC straight from hypervectors: one tiled XOR+popcount sweep,
/// distributed over `pool` when non-null, writes the working matrix
/// directly. Bit-identical to nn_chain_hac(pairwise_hamming_f32(hvs), link)
/// or nn_chain_hac(pairwise_hamming_q16(hvs), link) — same merges, heights
/// and stats — for any thread count and kernel variant. `hvs` must share
/// one dimension (checked).
hac_result nn_chain_hac(const std::vector<hdc::hypervector>& hvs, linkage link,
                        distance_grid grid, thread_pool* pool = nullptr);

/// The pre-kernel condensed-matrix NN-chain, retained verbatim (plus the
/// degenerate +inf-row fallback) as the bit-exact reference the golden
/// equivalence suite and bench_fig2 compare the flat implementation
/// against. Same dendrogram, same stats, scalar pointer-chasing inner
/// loops.
hac_result nn_chain_hac_condensed(const hdc::distance_matrix_f32& distances, linkage link);
hac_result nn_chain_hac_condensed(const hdc::distance_matrix_q16& distances, linkage link);

}  // namespace spechd::cluster
