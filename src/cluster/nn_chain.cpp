#include "cluster/nn_chain.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <vector>

#include "hdc/cpu_kernels.hpp"
#include "util/arena_pool.hpp"
#include "util/error.hpp"
#include "util/fixed_point.hpp"

namespace spechd::cluster {

namespace {

namespace kn = hdc::kernels;

constexpr std::uint32_t k_none = std::numeric_limits<std::uint32_t>::max();
constexpr double k_inf = std::numeric_limits<double>::infinity();

/// Storage policies: how distances are rounded when written back.
struct store_f64 {
  static constexpr kn::lw_store mode = kn::lw_store::f64;
  static double store(double v) noexcept { return v; }
};
struct store_q16 {
  static constexpr kn::lw_store mode = kn::lw_store::q16;
  static double store(double v) noexcept { return q16::from_double(v).to_double(); }
};

template <typename Matrix>
double load_entry(const Matrix& input, std::size_t i, std::size_t j) noexcept {
  if constexpr (std::is_same_v<Matrix, hdc::distance_matrix_q16>) {
    // Q0.16 grid values are fixed points of the store rounding, so no
    // explicit Policy::store pass is needed on load.
    return input.at(i, j).to_double();
  } else {
    return static_cast<double>(input.at(i, j));
  }
}

// ---------------------------------------------------------------------------
// Kernel-backed flat-matrix implementation (the default path)
// ---------------------------------------------------------------------------

// One applied merge, as recorded in the replay log: enough to reproduce the
// Lance–Williams rewrite of any row that was not refreshed eagerly.
struct merge_record {
  std::uint32_t gone = 0;
  std::uint32_t keep = 0;
  double d_ab = 0.0;
  double size_a = 0.0;  ///< |gone| at merge time
  double size_b = 0.0;  ///< |keep| at merge time
};

/// A pairwise distance entry as the working matrix holds it. Both fills
/// convert through here, so they write the same bits.
template <typename Policy, typename ElemT>
ElemT working_value(float entry) noexcept {
  return static_cast<ElemT>(Policy::store(static_cast<double>(entry)));
}
template <typename Policy, typename ElemT>
ElemT working_value(q16 entry) noexcept {
  // Q0.16 grid values are fixed points of the store rounding, so no
  // explicit Policy::store pass is needed. raw * 2^-16 in float is exact
  // (<= 16 mantissa bits times a power of two), i.e. bit-identical to
  // to_double() + narrowing, and it vectorises.
  return static_cast<ElemT>(static_cast<float>(entry.raw()) * (1.0F / 65536.0F));
}

/// Fills the off-diagonal entries of the flat n×n working matrix from a
/// condensed matrix: pass 1 converts each condensed row into its matrix row,
/// pass 2 mirrors the lower triangle into the upper one.
template <typename Policy, typename ElemT, typename Matrix>
void fill_from_condensed(const Matrix& input, ElemT* d) {
  const std::size_t n = input.size();
  // Pass 1: convert each condensed row into its matrix row (contiguous
  // reads and writes, auto-vectorisable).
  const auto* src = input.data().data();
  for (std::size_t i = 1; i < n; ++i) {
    ElemT* row = d + i * n;
    const auto* src_row = src + i * (i - 1) / 2;
    for (std::size_t j = 0; j < i; ++j) row[j] = working_value<Policy, ElemT>(src_row[j]);
  }
  // Pass 2: mirror into the upper triangle through a 64×64 staging tile —
  // gathers stay inside one L1-resident tile and every matrix write is a
  // contiguous row segment, where a per-entry d[j*n+i] scatter would walk
  // a full column stride (a cache miss) per write.
  constexpr std::size_t block = 64;
  ElemT tile[block * block];
  for (std::size_t i0 = 0; i0 < n; i0 += block) {
    const std::size_t i1 = std::min(n, i0 + block);
    for (std::size_t j0 = 0; j0 < i0; j0 += block) {
      for (std::size_t i = i0; i < i1; ++i) {
        const ElemT* row = d + i * n + j0;
        for (std::size_t jj = 0; jj < block; ++jj) tile[jj * block + (i - i0)] = row[jj];
      }
      for (std::size_t j = j0; j < j0 + block; ++j) {
        ElemT* out = d + j * n + i0;
        const ElemT* tile_row = tile + (j - j0) * block;
        for (std::size_t ii = 0; ii < i1 - i0; ++ii) out[ii] = tile_row[ii];
      }
    }
    // Diagonal block: small triangle, mirrored in place.
    for (std::size_t i = i0 + 1; i < i1; ++i) {
      const ElemT* row = d + i * n;
      for (std::size_t j = i0; j < i; ++j) d[j * n + i] = row[j];
    }
  }
}

/// The count → working-value table of the hypervector fill, built once per
/// thread and dimension: entry c is value(c, dim).
template <typename ElemT, typename Value>
const ElemT* count_table(std::size_t dim, Value value) {
  thread_local std::vector<ElemT> table;
  thread_local std::size_t table_dim = 0;
  if (table.empty() || table_dim != dim) {
    table.resize(dim + 1);
    for (std::size_t c = 0; c <= dim; ++c) table[c] = value(c, dim);
    table_dim = dim;
  }
  return table.data();
}

/// ElemT is the working matrix's element type. double always reproduces
/// the condensed reference bit-for-bit. float is used whenever every
/// reachable working value is exactly float-representable — q16-grid
/// stores (any linkage), or min/max linkages whose Lance–Williams update
/// only ever selects one of two existing values — halving the memory
/// traffic of the scan-dominated inner loop with provably identical bits.
///
/// `fill(d)` writes every off-diagonal entry of the n×n working matrix; the
/// merge loop below is shared by every input form.
template <typename Policy, typename ElemT, typename Fill>
hac_result nn_chain_flat_impl(std::size_t n, linkage link, Fill fill) {
  hac_result result;
  if (n <= 1) {
    result.tree = dendrogram(n, {});
    return result;
  }
  constexpr ElemT elem_inf = std::numeric_limits<ElemT>::infinity();

  // Flat row-major n×n working matrix (Policy rounds stores). Only the
  // survivor's row is rewritten eagerly at a merge (one contiguous kernel
  // pass); every other row repairs itself lazily by replaying the merge log
  // just before it is scanned. That replay applies the exact per-entry
  // operation sequence the eager column mirror would have — same operands,
  // same order, same store rounding, so the result is bit-identical — but
  // it turns O(n) strided column writes per merge (a cache miss each) into
  // a handful of in-cache row writes per scan.
  // The diagonal is parked at +inf so the masked argmin never picks self;
  // retired columns keep stale values and are masked by `active`.
  // The matrix lives in an arena checked out of the shared pool: per-bucket
  // HAC calls from the pipeline's worker pool reuse a handful of pooled
  // allocations instead of one thread_local arena per worker (which pinned
  // threads × largest-bucket² bytes forever); the pool's high-water
  // trimming releases a one-off giant bucket's arena on return. The arena
  // hands back uninitialised scratch — `fill` writes every off-diagonal
  // entry and the diagonal is set right after, before anything reads it.
  arena_lease scratch = arena_pool::global().checkout(n * n * sizeof(ElemT));
  ElemT* const d = scratch.as<ElemT>(n * n);
  fill(d);
  for (std::size_t i = 0; i < n; ++i) d[i * n + i] = elem_inf;

  std::vector<std::uint8_t> active(n, 1);
  std::vector<std::uint32_t> size(n, 1);
  std::vector<double> sizef(n, 1.0);  // kernel-side copy (ward needs doubles)
  std::vector<merge_record> log;
  log.reserve(n - 1);
  std::vector<std::uint32_t> synced(n, 0);  ///< log prefix applied per row
  std::vector<std::uint32_t> chain;
  chain.reserve(n);
  std::vector<raw_merge> raw;
  raw.reserve(n - 1);
  hac_stats& stats = result.stats;

  const kn::lw_linkage lw_link = to_lw_linkage(link);

  // Replays the merges row r has not seen yet. A row's own size cannot have
  // changed since any unseen merge (surviving a merge refreshes the row and
  // fast-forwards `synced`), so sizef[r] is the correct size_k throughout.
  // min/max linkages skip the store rounding: their update selects one of
  // two already-stored (hence already-rounded) values, so Policy::store is
  // an identity there and only costs replay-loop time.
  const bool select_only = link == linkage::single || link == linkage::complete;
  auto repair = [&](std::uint32_t r) {
    std::uint32_t s = synced[r];
    const auto end = static_cast<std::uint32_t>(log.size());
    if (s == end) return;
    ElemT* row = d + static_cast<std::size_t>(r) * n;
    const double nk = sizef[r];
    if (select_only) {
      for (; s < end; ++s) {
        const merge_record& m = log[s];
        const ElemT a = row[m.gone];
        const ElemT b = row[m.keep];
        row[m.keep] = link == linkage::single ? (b < a ? b : a) : (a < b ? b : a);
      }
    } else {
      for (; s < end; ++s) {
        const merge_record& m = log[s];
        row[m.keep] = static_cast<ElemT>(Policy::store(kn::lance_williams(
            lw_link, static_cast<double>(row[m.gone]), static_cast<double>(row[m.keep]),
            m.d_ab, m.size_a, m.size_b, nk)));
      }
    }
    synced[r] = end;
  };

  std::uint32_t active_count = static_cast<std::uint32_t>(n);
  std::uint32_t lowest_active = 0;
  while (raw.size() < n - 1) {
    if (chain.size() < 2) {
      chain.clear();
      while (active[lowest_active] == 0) ++lowest_active;
      chain.push_back(lowest_active);
    }

    for (;;) {
      const std::uint32_t a = chain.back();
      const std::uint32_t prev = chain.size() >= 2 ? chain[chain.size() - 2] : k_none;
      repair(a);
      const ElemT* row = d + static_cast<std::size_t>(a) * n;

      // Nearest active neighbour of a: masked argmin over the row (lowest
      // index wins ties, matching the scalar strict-< scan), then prefer
      // prev on ties (Müllner's tie-break — guarantees termination).
      const kn::row_min scan = kn::nearest_active_scan(row, active.data(), n);
      std::uint32_t c = scan.index;
      double min_d = scan.value;
      if (c == a || active[c] == 0) {
        // Degenerate row (every remaining distance +inf): the argmin landed
        // on the diagonal or a retired column. Fall back to the lowest
        // active partner so the chain always advances instead of hanging.
        c = k_none;
        for (std::uint32_t x = 0; x < n; ++x) {
          if (active[x] == 0 || x == a) continue;
          c = x;
          min_d = static_cast<double>(row[x]);
          break;
        }
      }
      if (prev != k_none) {
        const auto d_prev = static_cast<double>(row[prev]);
        if (d_prev <= min_d) {
          c = prev;
          min_d = d_prev;
        }
      }
      stats.comparisons += active_count - (prev != k_none ? 2 : 1);

      if (c == prev && prev != k_none) {
        // Reciprocal nearest neighbours: merge a and prev.
        chain.pop_back();
        chain.pop_back();

        const std::uint32_t keep = prev;  // survivor slot
        const std::uint32_t gone = a;
        raw.push_back({gone, keep, min_d});
        ++stats.merges;

        // gone is current (repaired for this scan). keep may NOT be: a
        // reciprocal pair deeper up the chain can merge between keep's
        // scan and this one (merges pop only the two tail elements), so
        // keep's row can have pending log entries — this repair is
        // load-bearing, not a guard.
        repair(keep);
        log.push_back({gone, keep, min_d, sizef[gone], sizef[keep]});

        active[gone] = 0;
        --active_count;
        // Survivor's flag is cleared around the kernel call so its own
        // diagonal lane is skipped; the kernel touches active lanes only.
        active[keep] = 0;
        const kn::lw_update update{lw_link, Policy::mode, sizef[gone], sizef[keep], min_d};
        ElemT* keep_row = d + static_cast<std::size_t>(keep) * n;
        const ElemT* gone_row = d + static_cast<std::size_t>(gone) * n;
        kn::lance_williams_row_update(keep_row, gone_row, active.data(), sizef.data(), n,
                                      update);
        active[keep] = 1;
        synced[keep] = static_cast<std::uint32_t>(log.size());
        stats.distance_updates += active_count - 1;

        size[keep] += size[gone];
        sizef[keep] = static_cast<double>(size[keep]);
        break;
      }
      chain.push_back(c);
      ++stats.chain_pushes;
    }
  }

  result.tree = build_dendrogram(n, std::move(raw));
  return result;
}

// ---------------------------------------------------------------------------
// Pre-kernel condensed-matrix implementation (golden reference)
// ---------------------------------------------------------------------------

template <typename Policy, typename Matrix>
hac_result nn_chain_condensed_impl(const Matrix& input, linkage link) {
  const std::size_t n = input.size();
  hac_result result;
  if (n <= 1) {
    result.tree = dendrogram(n, {});
    return result;
  }

  // Working condensed matrix in double precision (Policy rounds stores).
  std::vector<double> d(n * (n - 1) / 2);
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      d[i * (i - 1) / 2 + j] = Policy::store(load_entry(input, i, j));
    }
  }
  auto dist = [&](std::uint32_t a, std::uint32_t b) -> double& {
    return a > b ? d[static_cast<std::size_t>(a) * (a - 1) / 2 + b]
                 : d[static_cast<std::size_t>(b) * (b - 1) / 2 + a];
  };

  std::vector<bool> active(n, true);
  std::vector<std::uint32_t> size(n, 1);
  std::vector<std::uint32_t> chain;
  chain.reserve(n);
  std::vector<raw_merge> raw;
  raw.reserve(n - 1);
  hac_stats& stats = result.stats;

  std::uint32_t lowest_active = 0;
  while (raw.size() < n - 1) {
    if (chain.size() < 2) {
      chain.clear();
      while (!active[lowest_active]) ++lowest_active;
      chain.push_back(lowest_active);
    }

    for (;;) {
      const std::uint32_t a = chain.back();
      const std::uint32_t prev = chain.size() >= 2 ? chain[chain.size() - 2] : k_none;

      // Nearest active neighbour of a, preferring prev on ties (Müllner's
      // tie-break — guarantees termination).
      std::uint32_t c = prev;
      double min_d = prev != k_none ? dist(a, prev) : k_inf;
      for (std::uint32_t x = 0; x < n; ++x) {
        if (!active[x] || x == a || x == prev) continue;
        ++stats.comparisons;
        const double dx = dist(a, x);
        if (dx < min_d) {
          min_d = dx;
          c = x;
        }
      }
      if (c == k_none) {
        // Chain of length one whose distances are all +inf: the strict-<
        // scan found no candidate. Take the lowest active partner so the
        // loop cannot push an out-of-range index (degenerate-input fix,
        // mirrored in the flat implementation).
        for (std::uint32_t x = 0; x < n; ++x) {
          if (!active[x] || x == a) continue;
          c = x;
          min_d = dist(a, x);
          break;
        }
      }

      if (c == prev && prev != k_none) {
        // Reciprocal nearest neighbours: merge a and prev.
        chain.pop_back();
        chain.pop_back();

        const std::uint32_t keep = prev;  // survivor slot
        const std::uint32_t gone = a;
        raw.push_back({gone, keep, min_d});
        ++stats.merges;

        const std::uint32_t size_a = size[gone];
        const std::uint32_t size_b = size[keep];
        active[gone] = false;
        for (std::uint32_t k = 0; k < n; ++k) {
          if (!active[k] || k == keep) continue;
          const double d_ka = dist(k, gone);
          const double d_kb = dist(k, keep);
          dist(k, keep) = Policy::store(
              lance_williams(link, d_ka, d_kb, min_d, size_a, size_b, size[k]));
          ++stats.distance_updates;
        }
        size[keep] = size_a + size_b;
        break;
      }
      chain.push_back(c);
      ++stats.chain_pushes;
    }
  }

  result.tree = build_dendrogram(n, std::move(raw));
  return result;
}

template <typename Policy, typename ElemT, typename Matrix>
hac_result nn_chain_from_condensed(const Matrix& input, linkage link) {
  return nn_chain_flat_impl<Policy, ElemT>(
      input.size(), link, [&](ElemT* d) { fill_from_condensed<Policy, ElemT>(input, d); });
}

/// `entry(c, dim)` is the pairwise matrix entry of Hamming count c, exactly
/// as pairwise_hamming_f32/q16 store it; the table holds its working value.
template <typename Policy, typename ElemT, typename Entry>
hac_result nn_chain_from_hvs(const std::vector<hdc::hypervector>& hvs, linkage link,
                             thread_pool* pool, Entry entry) {
  return nn_chain_flat_impl<Policy, ElemT>(hvs.size(), link, [&](ElemT* d) {
    const ElemT* table =
        count_table<ElemT>(hvs.front().dim(), [&](std::size_t c, std::size_t dim) {
          return working_value<Policy, ElemT>(entry(c, dim));
        });
    hdc::pairwise_hamming_square(hvs, table, d, pool);
  });
}

/// min/max linkages only ever select existing (float-exact) values, so the
/// f32 working matrix can be float; average/ward create genuine doubles and
/// must run wide to stay bit-identical to the condensed reference.
bool float_exact_f32(linkage link) noexcept {
  return link == linkage::single || link == linkage::complete;
}

}  // namespace

hac_result nn_chain_hac(const hdc::distance_matrix_f32& distances, linkage link) {
  if (float_exact_f32(link)) return nn_chain_from_condensed<store_f64, float>(distances, link);
  return nn_chain_from_condensed<store_f64, double>(distances, link);
}

hac_result nn_chain_hac(const hdc::distance_matrix_q16& distances, linkage link) {
  // Every stored value lands on the Q0.16 grid, which float holds exactly.
  return nn_chain_from_condensed<store_q16, float>(distances, link);
}

hac_result nn_chain_hac(const std::vector<hdc::hypervector>& hvs, linkage link,
                        distance_grid grid, thread_pool* pool) {
  if (grid == distance_grid::q16) {
    return nn_chain_from_hvs<store_q16, float>(
        hvs, link, pool, [](std::size_t c, std::size_t dim) { return q16::from_ratio(c, dim); });
  }
  const auto ratio = [](std::size_t c, std::size_t dim) {
    return static_cast<float>(static_cast<double>(c) / static_cast<double>(dim));
  };
  if (float_exact_f32(link)) return nn_chain_from_hvs<store_f64, float>(hvs, link, pool, ratio);
  return nn_chain_from_hvs<store_f64, double>(hvs, link, pool, ratio);
}

hac_result nn_chain_hac_condensed(const hdc::distance_matrix_f32& distances, linkage link) {
  return nn_chain_condensed_impl<store_f64>(distances, link);
}

hac_result nn_chain_hac_condensed(const hdc::distance_matrix_q16& distances, linkage link) {
  return nn_chain_condensed_impl<store_q16>(distances, link);
}

}  // namespace spechd::cluster
