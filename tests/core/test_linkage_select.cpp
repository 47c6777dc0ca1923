// Oracle tests for the complete-linkage select shared by ingest assignment
// (incremental_clusterer::assign) and serve queries (shard::query): both
// must agree with per-label worst distances recomputed the slow, obvious
// way — std::popcount per member pair, a std::map per label, ascending
// label scan with `<=` keeping the later label. Covered: ~300-member
// buckets with duplicated hypervectors, states after rebuild_dirty_buckets
// and after import_state, and a crafted state with an exact tie and a
// label that has no member.
#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <vector>

#include "ms/synthetic.hpp"
#include "serve/shard.hpp"
#include "util/rng.hpp"

namespace spechd::core {
namespace {

constexpr double k_threshold = 0.42;

spechd_config small_config() {
  spechd_config c;
  c.encoder.dim = 1024;
  c.distance_threshold = k_threshold;
  c.threads = 1;
  return c;
}

/// Near-isobaric charge-2 peptides, so a few buckets hold hundreds of
/// members. Every 7th spectrum is submitted twice: identical spectra
/// encode to identical hypervectors.
std::vector<ms::spectrum> dense_stream(std::uint64_t seed) {
  ms::synthetic_config c;
  c.peptide_count = 10;
  c.spectra_per_peptide_mean = 32.0;
  c.charge2_fraction = 1.0;
  c.peptide_mass_min = 1200.0;
  c.peptide_mass_max = 1200.5;
  c.seed = seed;
  auto spectra = ms::generate_dataset(c).spectra;
  const std::size_t n = spectra.size();
  for (std::size_t i = 0; i < n; i += 7) spectra.push_back(spectra[i]);
  return spectra;
}

std::vector<ms::spectrum> slice(const std::vector<ms::spectrum>& s, std::size_t begin,
                                std::size_t end) {
  return {s.begin() + static_cast<std::ptrdiff_t>(begin),
          s.begin() + static_cast<std::ptrdiff_t>(end)};
}

std::uint32_t popcount_distance(const hdc::hypervector& a, const hdc::hypervector& b) {
  std::uint32_t d = 0;
  for (std::size_t w = 0; w < a.word_count(); ++w) {
    d += static_cast<std::uint32_t>(std::popcount(a.words()[w] ^ b.words()[w]));
  }
  return d;
}

struct oracle_match {
  std::int32_t label = -1;
  double distance = 1.0;
  std::size_t size = 0;
  double nearest = 1.0;
  std::size_t tied = 0;  ///< labels sharing the winning worst distance
};

/// Complete linkage of `hv` against the first `n` members of `bucket`.
oracle_match oracle_select(const hdc::hv_store& store, const bucket_snapshot& bucket,
                           std::size_t n, const hdc::hypervector& hv) {
  const double dim = static_cast<double>(hv.dim());
  std::map<std::int32_t, std::uint32_t> worst;
  std::map<std::int32_t, std::size_t> sizes;
  oracle_match m;
  for (std::size_t i = 0; i < n; ++i) {
    const auto count = popcount_distance(hv, store.at(bucket.members[i]).hv);
    const auto label = bucket.local_labels[i];
    auto [it, inserted] = worst.try_emplace(label, count);
    if (!inserted) it->second = std::max(it->second, count);
    ++sizes[label];
    m.nearest = std::min(m.nearest, static_cast<double>(count) / dim);
  }
  double best = k_threshold;
  for (const auto& [label, w] : worst) {
    const double d = static_cast<double>(w) / dim;
    if (d <= best) {
      best = d;
      m.label = label;
      m.distance = d;
      m.size = sizes[label];
    }
  }
  for (const auto& [label, w] : worst) {
    m.tied += m.label >= 0 && static_cast<double>(w) / dim == m.distance ? 1 : 0;
  }
  return m;
}

/// Checks every member `after` gained since `before` (nullptr: since the
/// empty state): assignment never relabels the earlier members, and each
/// new member carries the oracle's label over the members before it — or
/// founds the bucket's next cluster id. Returns the members checked.
std::size_t expect_assignments_match_oracle(const clusterer_state& after,
                                            const clusterer_state* before) {
  std::map<std::int64_t, const bucket_snapshot*> prior;
  if (before != nullptr) {
    for (const auto& b : before->buckets) prior[b.key] = &b;
  }
  std::size_t checked = 0;
  for (const auto& bucket : after.buckets) {
    std::size_t from = 0;
    std::int32_t next_local = 0;
    if (const auto it = prior.find(bucket.key); it != prior.end()) {
      const bucket_snapshot& old = *it->second;
      from = old.members.size();
      next_local = old.next_local;
      EXPECT_TRUE(std::equal(old.members.begin(), old.members.end(), bucket.members.begin()));
      EXPECT_TRUE(std::equal(old.local_labels.begin(), old.local_labels.end(),
                             bucket.local_labels.begin()));
    }
    for (std::size_t i = from; i < bucket.members.size(); ++i) {
      const auto m =
          oracle_select(after.store, bucket, i, after.store.at(bucket.members[i]).hv);
      const auto expected = m.label >= 0 ? m.label : next_local++;
      EXPECT_EQ(bucket.local_labels[i], expected)
          << "bucket " << bucket.key << " member " << i;
      ++checked;
    }
    EXPECT_EQ(bucket.next_local, next_local) << "bucket " << bucket.key;
  }
  return checked;
}

/// Members whose hypervector equals an earlier member's in the same bucket.
std::size_t duplicate_members(const clusterer_state& state) {
  std::size_t duplicates = 0;
  for (const auto& b : state.buckets) {
    for (std::size_t i = 0; i < b.members.size(); ++i) {
      const auto& hv = state.store.at(b.members[i]).hv;
      for (std::size_t j = 0; j < i; ++j) {
        if (state.store.at(b.members[j]).hv == hv) {
          ++duplicates;
          break;
        }
      }
    }
  }
  return duplicates;
}

std::size_t largest_bucket(const clusterer_state& state) {
  std::size_t largest = 0;
  for (const auto& b : state.buckets) largest = std::max(largest, b.members.size());
  return largest;
}

hdc::hypervector flipped(const hdc::hypervector& hv, std::size_t bits, xoshiro256ss& rng) {
  hdc::hypervector out = hv;
  for (std::size_t k = 0; k < bits; ++k) out.flip(rng() % hv.dim());
  return out;
}

/// Exported state of a shard (read on its writer thread).
clusterer_state export_shard(serve::shard& s) {
  clusterer_state state;
  s.run_exclusive([&](incremental_clusterer& c) { state = c.export_state(); },
                  /*republish=*/false);
  return state;
}

/// Queries every bucket of the shard's state with members, perturbed
/// members and random vectors; each result must equal the oracle over
/// the bucket's full member list. Returns the oracle matches seen.
std::vector<oracle_match> expect_queries_match_oracle(const serve::shard& shard,
                                                      const clusterer_state& state,
                                                      std::uint64_t seed) {
  xoshiro256ss rng(seed);
  std::vector<oracle_match> seen;
  for (const auto& bucket : state.buckets) {
    std::vector<hdc::hypervector> probes;
    for (std::size_t i = 0; i < bucket.members.size(); i += 9) {
      const auto& hv = state.store.at(bucket.members[i]).hv;
      probes.push_back(hv);
      probes.push_back(flipped(hv, 40, rng));
      probes.push_back(flipped(hv, 300, rng));
    }
    probes.push_back(hdc::hypervector::random(state.store.dim(), rng));
    for (std::size_t q = 0; q < probes.size(); ++q) {
      const auto m = oracle_select(state.store, bucket, bucket.members.size(), probes[q]);
      const auto r = shard.query(probes[q], bucket.key, k_threshold);
      SCOPED_TRACE("bucket " + std::to_string(bucket.key) + " probe " + std::to_string(q));
      EXPECT_EQ(r.matched, m.label >= 0);
      EXPECT_EQ(r.local_label, m.label);
      EXPECT_EQ(r.distance, m.distance);
      EXPECT_EQ(r.cluster_size, m.size);
      EXPECT_EQ(r.nearest_member, m.nearest);
      seen.push_back(m);
    }
  }
  return seen;
}

TEST(IncrementalSelect, FlatSelectKeepsTieRuleAndSkipsEmptyLabels) {
  // dim 100: count c is distance c/100. Label 1 has no member; labels 0
  // and 3 tie on worst count 30 (the later one wins); label 2 is nearer
  // on its best member but worse on its worst.
  const std::vector<std::uint32_t> counts = {10, 30, 5, 60, 30, 20, 90};
  const std::vector<std::int32_t> labels = {0, 0, 2, 2, 3, 3, 4};
  std::vector<linkage_tally> scratch(5, linkage_tally{7, 7});  // garbage in
  auto m = select_complete_linkage(counts.data(), labels.data(), counts.size(), 5, 100,
                                   0.42, scratch.data());
  EXPECT_EQ(m.label, 3);
  EXPECT_DOUBLE_EQ(m.distance, 0.30);
  EXPECT_EQ(m.size, 2U);

  // The cut is inclusive: worst == threshold still joins.
  m = select_complete_linkage(counts.data(), labels.data(), counts.size(), 5, 100, 0.30,
                              scratch.data());
  EXPECT_EQ(m.label, 3);
  // Below every worst distance: no match.
  m = select_complete_linkage(counts.data(), labels.data(), counts.size(), 5, 100, 0.29,
                              scratch.data());
  EXPECT_EQ(m.label, -1);
  EXPECT_EQ(m.size, 0U);
  // No members at all: no match, whatever the cluster count.
  m = select_complete_linkage(counts.data(), labels.data(), 0, 5, 100, 1.0, scratch.data());
  EXPECT_EQ(m.label, -1);
}

TEST(IncrementalSelect, AssignAndQueryMatchOracleOnHotBuckets) {
  const auto stream = dense_stream(5);
  const std::size_t third = stream.size() / 3;

  // Assignment: ingest a third, rebuild, ingest a third, export/import
  // into a fresh clusterer, ingest the rest into both.
  incremental_clusterer clusterer(small_config());
  clusterer.push_batch(slice(stream, 0, third));
  const auto fresh = clusterer.export_state();
  EXPECT_GT(expect_assignments_match_oracle(fresh, nullptr), 0U);

  clusterer.rebuild_dirty_buckets();
  const auto rebuilt = clusterer.export_state();
  clusterer.push_batch(slice(stream, third, 2 * third));
  const auto after_rebuild = clusterer.export_state();
  EXPECT_GT(expect_assignments_match_oracle(after_rebuild, &rebuilt), 0U);

  incremental_clusterer imported(small_config());
  imported.import_state(clusterer.export_state());
  clusterer.push_batch(slice(stream, 2 * third, stream.size()));
  imported.push_batch(slice(stream, 2 * third, stream.size()));
  const auto after_import = imported.export_state();
  EXPECT_GT(expect_assignments_match_oracle(after_import, &after_rebuild), 0U);
  EXPECT_EQ(clusterer.clustering().labels, imported.clustering().labels);
  EXPECT_GE(largest_bucket(after_import), 250U);
  EXPECT_GT(duplicate_members(after_import), 0U);

  // Queries against the shard's published views, in the same three states.
  serve::shard shard(0, small_config(), assign_mode::complete_linkage, 4);
  ASSERT_TRUE(shard.enqueue(slice(stream, 0, 2 * third)));
  shard.drain();
  std::size_t matched = 0;
  for (const auto& m : expect_queries_match_oracle(shard, export_shard(shard), 11)) {
    matched += m.label >= 0 ? 1 : 0;
  }
  shard.maintain(/*only_if_idle=*/false);
  shard.drain();
  const auto shard_rebuilt = export_shard(shard);
  EXPECT_EQ(shard_rebuilt.buckets.size(), after_rebuild.buckets.size());
  expect_queries_match_oracle(shard, shard_rebuilt, 12);
  shard.run_exclusive([&](incremental_clusterer& c) { c.import_state(after_import); });
  const auto shard_imported = export_shard(shard);
  EXPECT_GE(largest_bucket(shard_imported), 250U);
  expect_queries_match_oracle(shard, shard_imported, 13);
  EXPECT_GT(matched, 0U);
}

TEST(IncrementalSelect, TiesAndMemberlessLabelsMatchOracleInAssignAndQuery) {
  // A crafted bucket where clusters 0 and 2 hold the same two hypervectors
  // (a tie on every query), label 1 has no member, and cluster 3 is far.
  const auto stream = dense_stream(6);
  const auto config = small_config();
  incremental_clusterer probe(config);
  probe.push(stream[0]);
  ASSERT_EQ(probe.size(), 1U);
  const hdc::hv_record base = probe.record(0);

  xoshiro256ss rng(99);
  const auto near = flipped(base.hv, 50, rng);
  const auto far = flipped(base.hv, 600, rng);
  clusterer_state state;
  state.store = hdc::hv_store(config.encoder.dim, config.encoder.seed);
  bucket_snapshot bucket;
  bucket.key = probe.export_state().buckets.front().key;
  const std::vector<const hdc::hypervector*> hvs = {&base.hv, &near, &base.hv, &near, &far};
  for (std::uint32_t i = 0; i < hvs.size(); ++i) {
    hdc::hv_record r = base;
    r.hv = *hvs[i];
    r.scan = i;
    state.store.append(std::move(r));
    bucket.members.push_back(i);
  }
  bucket.local_labels = {0, 0, 2, 2, 3};
  bucket.next_local = 4;
  state.buckets.push_back(bucket);

  // Queries: the base and its near twin both tie clusters 0 and 2.
  serve::shard shard(0, config, assign_mode::complete_linkage, 4);
  shard.run_exclusive([&](incremental_clusterer& c) { c.import_state(state); });
  std::size_t ties = 0;
  for (const auto& m : expect_queries_match_oracle(shard, export_shard(shard), 21)) {
    ties += m.tied > 1 ? 1 : 0;
  }
  EXPECT_GT(ties, 0U);
  const auto r = shard.query(base.hv, bucket.key, k_threshold);
  EXPECT_EQ(r.local_label, 2);
  EXPECT_EQ(r.cluster_size, 2U);
  EXPECT_EQ(r.distance, 50.0 / 1024.0);

  // Assignment: re-ingesting the base spectrum lands on the later tied
  // cluster; the duplicated stream keeps agreeing with the oracle.
  incremental_clusterer clusterer(config);
  clusterer.import_state(state);
  clusterer.push(stream[0]);
  const auto after = clusterer.export_state();
  EXPECT_EQ(after.buckets.front().local_labels.back(), 2);
  clusterer.push_batch(slice(stream, 1, stream.size()));
  EXPECT_GT(expect_assignments_match_oracle(clusterer.export_state(), &after), 0U);
}

}  // namespace
}  // namespace spechd::core
