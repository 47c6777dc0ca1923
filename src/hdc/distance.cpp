#include "hdc/distance.hpp"

#include <algorithm>
#include <array>

#include "hdc/cpu_kernels.hpp"
#include "util/arena_pool.hpp"
#include "util/thread_pool.hpp"

namespace spechd::hdc {
namespace {

// Block edge of the tile kernel: 64 rows × 64 cols of 2048-bit vectors
// reads ~32 KiB of operands per tile, so both tile inputs stay cache-hot
// while the kernel revisits them 64 times each.
constexpr std::size_t tile = 64;

/// One packed tile sweep over every pair i > j of `hvs`, handing the
/// Hamming counts to `sink`: sink.tile(i0, i1, j0, j1, counts) for each full
/// 64×64 block below the diagonal blocks (counts row-major, (i1-i0)×(j1-j0)),
/// and sink.pair(i, j, count) for the pairs inside a diagonal block.
template <typename Sink>
void sweep_pairs(const std::vector<hypervector>& hvs, const Sink& sink, thread_pool* pool) {
  const std::size_t n = hvs.size();
  if (n < 2) return;

  // Validate dimensions once per batch — hoisted out of the O(n²) loop —
  // and flatten word pointers for the packing stage.
  const std::size_t dim = hvs.front().dim();
  const std::size_t words = hvs.front().word_count();
  std::vector<const std::uint64_t*> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    SPECHD_EXPECTS(hvs[i].dim() == dim);
    rows[i] = hvs[i].words().data();
  }

  // Packing stage (kernel layer v3): copy every operand once into one
  // contiguous, cache-aligned arena blob — an O(n·words) pass against the
  // O(n²·words) tile sweep. Every 64×64 tile then reads two contiguous
  // row-major slices of the blob (no per-row pointer chase, hardware
  // prefetch-friendly, 64-byte-aligned operands at the default dims), and
  // the packed kernels layer their carry-save popcount reduction on top.
  // The blob is read-only during the sweep, so block-row tasks share it.
  arena_lease packed = arena_pool::global().checkout(n * words * sizeof(std::uint64_t));
  std::uint64_t* const blob = packed.as<std::uint64_t>(n * words);
  kernels::pack_operands(rows.data(), n, words, blob);

  const std::size_t block_rows = (n + tile - 1) / tile;
  auto run_block_row = [&](std::size_t br) {
    const std::size_t i0 = br * tile;
    const std::size_t i1 = std::min(n, i0 + tile);
    std::array<std::uint32_t, tile * tile> counts;

    // Full rectangular tiles: every column j < i0 pairs with every row.
    for (std::size_t j0 = 0; j0 < i0; j0 += tile) {
      const std::size_t j1 = std::min(i0, j0 + tile);
      kernels::hamming_tile_packed(blob + i0 * words, i1 - i0, blob + j0 * words, j1 - j0,
                                   words, counts.data());
      sink.tile(i0, i1, j0, j1, counts.data());
    }

    // Diagonal triangle: j in [i0, i).
    for (std::size_t i = i0 + 1; i < i1; ++i) {
      for (std::size_t j = i0; j < i; ++j) {
        sink.pair(i, j, static_cast<std::uint32_t>(
                            kernels::xor_popcount(blob + i * words, blob + j * words, words)));
      }
    }
  };

  if (pool != nullptr) {
    // One task per block row; every sink writes only entries of the block
    // row's own pairs, so tasks touch disjoint ranges and the output is
    // deterministic for any thread count.
    pool->parallel_for(block_rows, run_block_row, /*grain=*/1);
  } else {
    for (std::size_t br = 0; br < block_rows; ++br) run_block_row(br);
  }
}

/// Sink writing the condensed (strictly-lower-triangular) array.
template <typename T, typename Convert>
struct condensed_sink {
  T* out;
  Convert convert;

  void tile(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
            const std::uint32_t* counts) const {
    const std::size_t cols = j1 - j0;
    for (std::size_t i = i0; i < i1; ++i) {
      T* row = out + condensed_matrix<T>::index_of(i, 0);
      const std::uint32_t* row_counts = counts + (i - i0) * cols;
      for (std::size_t j = j0; j < j1; ++j) row[j] = convert(row_counts[j - j0]);
    }
  }
  void pair(std::size_t i, std::size_t j, std::uint32_t count) const {
    out[condensed_matrix<T>::index_of(i, j)] = convert(count);
  }
};

/// Sink writing both triangles of a row-major n×n matrix through a
/// count → value table. A tile's row segments and its transposed column
/// segments are each contiguous writes; the transposed gather strides only
/// through the L1-resident counts tile.
template <typename T>
struct square_sink {
  const T* lut;
  T* out;
  std::size_t n;

  void tile(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
            const std::uint32_t* counts) const {
    const std::size_t cols = j1 - j0;
    for (std::size_t i = i0; i < i1; ++i) {
      T* row = out + i * n + j0;
      const std::uint32_t* row_counts = counts + (i - i0) * cols;
      for (std::size_t jj = 0; jj < cols; ++jj) row[jj] = lut[row_counts[jj]];
    }
    for (std::size_t j = j0; j < j1; ++j) {
      T* col = out + j * n + i0;
      const std::uint32_t* col_counts = counts + (j - j0);
      for (std::size_t ii = 0; ii < i1 - i0; ++ii) col[ii] = lut[col_counts[ii * cols]];
    }
  }
  void pair(std::size_t i, std::size_t j, std::uint32_t count) const {
    out[i * n + j] = out[j * n + i] = lut[count];
  }
};

template <typename T, typename Convert>
condensed_matrix<T> pairwise_condensed(const std::vector<hypervector>& hvs, Convert convert,
                                       thread_pool* pool) {
  condensed_matrix<T> m(hvs.size());
  sweep_pairs(hvs, condensed_sink<T, Convert>{m.data().data(), convert}, pool);
  return m;
}

}  // namespace

distance_matrix_f32 pairwise_hamming_f32(const std::vector<hypervector>& hvs,
                                         thread_pool* pool) {
  const double dim = hvs.empty() ? 1.0 : static_cast<double>(hvs.front().dim());
  return pairwise_condensed<float>(
      hvs,
      [dim](std::uint32_t count) {
        // Matches the scalar reference exactly: divide in double, then
        // narrow to float (hamming_normalized's rounding).
        return static_cast<float>(static_cast<double>(count) / dim);
      },
      pool);
}

distance_matrix_q16 pairwise_hamming_q16(const std::vector<hypervector>& hvs,
                                         thread_pool* pool) {
  const std::uint64_t dim = hvs.empty() ? 1 : hvs.front().dim();
  return pairwise_condensed<q16>(
      hvs, [dim](std::uint32_t count) { return q16::from_ratio(count, dim); }, pool);
}

void pairwise_hamming_square(const std::vector<hypervector>& hvs, const float* lut,
                             float* out, thread_pool* pool) {
  sweep_pairs(hvs, square_sink<float>{lut, out, hvs.size()}, pool);
}

void pairwise_hamming_square(const std::vector<hypervector>& hvs, const double* lut,
                             double* out, thread_pool* pool) {
  sweep_pairs(hvs, square_sink<double>{lut, out, hvs.size()}, pool);
}

}  // namespace spechd::hdc
