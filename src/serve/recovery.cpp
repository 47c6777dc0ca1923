#include "serve/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <exception>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>

#include "obs/flight.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace spechd::serve {

namespace {

void check_journal_header(const journal_file_header& header, const std::string& path,
                          std::size_t shard, std::uint64_t generation,
                          std::size_t shards, const snapshot_identity& expected) {
  if (header.shard_index != shard || header.generation != generation) {
    throw parse_error(path, 0,
                      "journal header names shard " + std::to_string(header.shard_index) +
                          " generation " + std::to_string(header.generation) +
                          " but the file name says shard " + std::to_string(shard) +
                          " generation " + std::to_string(generation));
  }
  if (header.shard_count != shards) {
    throw parse_error(path, 0,
                      "journal was written with " + std::to_string(header.shard_count) +
                          " shards but this service has " + std::to_string(shards) +
                          " (per-shard journals cannot be re-routed; restore from a "
                          "snapshot to change the shard count)");
  }
  if (!(header.identity == expected)) {
    throw parse_error(path, 0,
                      "journal identity does not match this service's configuration "
                      "(dim/seed/threshold/bucketing/mode)");
  }
}

/// Cross-shard transaction evidence gathered in pass 1. A transaction
/// replays only when its commit *and* every declared participant's data
/// record survived.
struct txn_evidence {
  std::uint32_t declared_participants = 0;
  std::uint32_t data_records = 0;  ///< distinct shards (one slice per shard)
  bool committed = false;
};
using txn_map = std::map<std::uint64_t, txn_evidence>;

/// Pass-1 output for one shard: its validated journal scans, in replay
/// order, and the transaction evidence they carry.
struct shard_scan {
  std::vector<std::uint64_t> generations;
  std::vector<journal_scan> scans;
  txn_map txns;
  std::uint64_t max_txn_id = 0;
};

/// Replay coalesces consecutive ingest records into one push_batch of at
/// most this many spectra: fewer, larger batches amortise preprocessing
/// and the encode fan-out, while the cap bounds the batch's transient
/// preprocess/encode footprint.
constexpr std::size_t k_replay_batch_spectra = 2048;

shard_scan scan_shard(const std::string& dir, std::size_t s,
                      const std::vector<std::uint64_t>& generations,
                      std::uint64_t base_generation, std::size_t shards,
                      const snapshot_identity& expected_identity) {
  shard_scan out;
  // Only generations >= the snapshot base carry records the snapshot
  // does not already contain; older files are redundant leftovers. A
  // 0-byte file (crash between creation and header write) is provably
  // record-free: drop it rather than refusing the directory forever.
  auto& replay = out.generations;
  for (const auto gen : generations) {
    if (gen < base_generation) continue;
    std::error_code ec;
    if (std::filesystem::file_size(journal_shard_path(dir, s, gen), ec) == 0 && !ec) {
      std::filesystem::remove(journal_shard_path(dir, s, gen), ec);
      continue;
    }
    replay.push_back(gen);
  }
  // The shard's *newest* file may also carry a partially-written header
  // (crash before the header fsync): like the torn record tail, that is
  // provably record-free — recreate it rather than refusing the
  // directory forever. Anywhere else a bad header stays a hard error.
  while (!replay.empty()) {
    const auto path = journal_shard_path(dir, s, replay.back());
    if (probe_journal_header(path) != journal_header_status::truncated) break;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    replay.pop_back();
  }

  std::uint64_t last_seq = 0;
  bool any_records = false;
  for (std::size_t g = 0; g < replay.size(); ++g) {
    const auto gen = replay[g];
    const auto path = journal_shard_path(dir, s, gen);
    auto scan = read_journal_file(path);
    check_journal_header(scan.header, path, s, gen, shards, expected_identity);
    if (scan.torn && g + 1 != replay.size()) {
      throw parse_error(path, 0,
                        "torn record in a non-final journal generation — later "
                        "generations exist, so the history has a hole");
    }
    // Sequence numbers are contiguous across a shard's whole history
    // (rotate() carries next_seq over), so any jump means a lost file
    // or lost records in between — a hole, not a tail, and never safe
    // to replay past.
    if (any_records && !scan.records.empty() &&
        scan.records.front().seq != last_seq + 1) {
      throw parse_error(path, 0,
                        "journal sequence hole across generations (expected seq " +
                            std::to_string(last_seq + 1) + ", found " +
                            std::to_string(scan.records.front().seq) + ")");
    }
    for (const auto& record : scan.records) {
      last_seq = record.seq;
      any_records = true;
      if (record.type == journal_record::kind::commit) {
        out.txns[record.txn_id].committed = true;
        out.max_txn_id = std::max(out.max_txn_id, record.txn_id);
      } else if (record.type == journal_record::kind::ingest_batch && record.txn_id != 0) {
        auto& evidence = out.txns[record.txn_id];
        ++evidence.data_records;  // per-shard journals: one slice per shard
        evidence.declared_participants =
            std::max(evidence.declared_participants, record.participants);
        out.max_txn_id = std::max(out.max_txn_id, record.txn_id);
      }
    }
    out.scans.push_back(std::move(scan));
  }
  return out;
}

/// Serialises progress callbacks from the per-shard replay threads, so
/// callbacks never run concurrently and the cumulative record total
/// grows from one callback to the next by exactly that callback's
/// records.
struct progress_sink {
  const recovery_progress_fn& fn;
  std::chrono::steady_clock::time_point start;
  std::mutex mutex{};
  std::uint64_t total_records_replayed = 0;

  void report(std::size_t shard, std::uint64_t generation, std::uint64_t records,
              bool torn, std::uint64_t torn_bytes) {
    obs::record_event(obs::event_kind::recovery_progress, records, generation);
    if (!fn) return;
    std::lock_guard lock(mutex);
    total_records_replayed += records;
    recovery_progress p;
    p.shard = shard;
    p.generation = generation;
    p.records_replayed = records;
    p.total_records_replayed = total_records_replayed;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    p.records_per_sec =
        elapsed > 0.0 ? static_cast<double>(total_records_replayed) / elapsed : 0.0;
    p.torn_tail = torn;
    p.torn_bytes = torn_bytes;
    fn(p);
  }
};

/// Pass 2 for one shard: rebuilds its state from `base` plus the scanned
/// journals, skipping slices of unproven transactions. Runs through a
/// standalone clusterer — exactly the code the live shard writer runs,
/// so the rebuilt state cannot diverge from what an uninterrupted run
/// would hold. Counters land in `report` (this shard's share only).
void replay_shard(const std::string& dir, std::size_t s, shard_scan& scan_state,
                  const txn_map& txns, const core::spechd_config& pipeline,
                  core::assign_mode mode, std::optional<core::clusterer_state> base,
                  std::uint64_t base_generation, progress_sink& progress,
                  recovered_state& out, recovery_report& report) {
  core::incremental_clusterer clusterer(pipeline, mode);
  if (base) clusterer.import_state(std::move(*base));

  journal_head head;
  head.path = journal_shard_path(dir, s, base_generation);
  head.generation = base_generation;
  std::uint64_t last_seq = 0;
  bool any_records = false;
  // Consecutive replayable ingest records apply as one push_batch: each
  // bucket still advances in arrival order and preprocessing is per
  // spectrum, so one call over A++B equals calls over A then B.
  std::vector<ms::spectrum> pending;
  const auto flush = [&] {
    if (pending.empty()) return;
    clusterer.push_batch(pending);
    pending.clear();
  };
  const auto& replay = scan_state.generations;
  for (std::size_t g = 0; g < replay.size(); ++g) {
    const auto gen = replay[g];
    const auto path = journal_shard_path(dir, s, gen);
    auto& scan = scan_state.scans[g];
    for (auto& record : scan.records) {
      last_seq = record.seq;
      any_records = true;
      if (record.type == journal_record::kind::ingest_batch) {
        if (record.txn_id != 0) {
          const auto& evidence = txns.at(record.txn_id);
          if (!evidence.committed ||
              evidence.data_records < evidence.declared_participants) {
            // The transaction was interrupted before its commit record
            // (or a peer's data record) became durable: skip the slice
            // everywhere — all-or-nothing.
            ++report.txn_batches_dropped;
            continue;
          }
        }
        ++report.batches_replayed;
        report.spectra_replayed += record.batch.size();
        if (!pending.empty() &&
            pending.size() + record.batch.size() > k_replay_batch_spectra) {
          flush();
        }
        pending.insert(pending.end(), std::make_move_iterator(record.batch.begin()),
                       std::make_move_iterator(record.batch.end()));
      } else if (record.type == journal_record::kind::recluster) {
        flush();  // the recluster sees exactly the batches journaled before it
        clusterer.rebuild_dirty_buckets();
        ++report.reclusters_replayed;
      }
      // commit records carry no state; pass 1 consumed them.
    }
    flush();
    ++report.journal_files;
    report.recovered = true;
    std::uint64_t torn_bytes_here = 0;
    if (scan.torn) {
      std::error_code ec;
      const auto size = std::filesystem::file_size(path, ec);
      if (!ec && size > scan.valid_bytes) {
        torn_bytes_here = size - scan.valid_bytes;
        report.torn_bytes += torn_bytes_here;
      }
    }
    const std::uint64_t records = scan.records.size();
    progress.report(s, gen, records, scan.torn, torn_bytes_here);
    if (g + 1 == replay.size()) {
      head.path = path;
      head.generation = gen;
      head.exists = true;
      head.valid_bytes = scan.valid_bytes;
      head.next_seq = any_records ? last_seq + 1 : 0;
      head.records = records;
    }
    scan.records = {};  // replayed: release the decoded batches early
  }
  out.shards[s] = clusterer.export_state();
  out.journal_heads[s] = head;
}

/// Runs fn(s) for every shard in parallel, then rethrows the error of the
/// lowest-numbered shard that failed — the one a serial pass would have
/// hit first — so parallelism never changes which error surfaces.
void for_each_shard(thread_pool& pool, std::size_t shards,
                    const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(shards);
  pool.parallel_for(
      shards,
      [&](std::size_t s) {
        try {
          fn(s);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      },
      /*grain=*/1);
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

std::optional<snapshot_identity> probe_journal_dir(const std::string& dir) {
  const auto state = scan_journal_dir(dir);
  if (state.snapshot_generation) {
    return read_snapshot_identity_file(
        journal_snapshot_path(dir, *state.snapshot_generation));
  }
  // Tolerate exactly what recovery tolerates: skip truncated-header /
  // 0-byte files (creation-crash leftovers recovery recreates) and read
  // the identity off any intact journal. Only if *no* readable journal
  // exists and a corrupt one does, surface that corruption.
  std::string corrupt_path;
  for (const auto& entry : state.journals) {
    const auto path = journal_shard_path(dir, entry.shard, entry.generation);
    switch (probe_journal_header(path)) {
      case journal_header_status::ok:
        return read_journal_header_file(path).identity;
      case journal_header_status::truncated:
        break;
      case journal_header_status::corrupt:
        corrupt_path = path;
        break;
    }
  }
  if (!corrupt_path.empty()) read_journal_header_file(corrupt_path);  // throws
  return std::nullopt;
}

recovered_state recover_journal_dir(const std::string& dir,
                                    const core::spechd_config& pipeline,
                                    core::assign_mode mode, std::size_t shards,
                                    const snapshot_identity& expected_identity,
                                    const recovery_progress_fn& progress) {
  const auto start = std::chrono::steady_clock::now();
  recovered_state out;
  out.shards.resize(shards);
  out.journal_heads.resize(shards);

  const auto dir_state = scan_journal_dir(dir);

  std::vector<std::vector<std::uint64_t>> generations(shards);
  for (const auto& entry : dir_state.journals) {
    if (entry.shard >= shards) {
      throw parse_error(journal_shard_path(dir, entry.shard, entry.generation), 0,
                        "journal for shard " + std::to_string(entry.shard) +
                            " but this service has only " + std::to_string(shards) +
                            " shards");
    }
    generations[entry.shard].push_back(entry.generation);
  }
  for (auto& gens : generations) std::sort(gens.begin(), gens.end());

  // Base state: the newest snapshot, or empty when none was compacted yet.
  std::uint64_t base_generation = 0;
  std::vector<std::optional<core::clusterer_state>> base(shards);
  if (dir_state.snapshot_generation) {
    base_generation = *dir_state.snapshot_generation;
    const auto snapshot_path = journal_snapshot_path(dir, base_generation);
    auto snapshot = read_snapshot_file(snapshot_path);
    if (!(snapshot.identity == expected_identity)) {
      throw parse_error(snapshot_path, 0,
                        "compaction snapshot identity does not match this service's "
                        "configuration (dim/seed/threshold/bucketing/mode/shards)");
    }
    for (std::size_t s = 0; s < shards; ++s) {
      base[s] = std::move(snapshot.shards.at(s));
    }
    out.report.recovered = true;
    out.report.base_snapshot_generation = base_generation;
  }

  // Shards are independent once the transaction evidence is merged, so
  // both passes run one shard per pool thread.
  thread_pool pool(std::min<std::size_t>(
      shards, std::max<std::size_t>(1, std::thread::hardware_concurrency())));

  // Pass 1: scan and validate every surviving journal file, per shard,
  // and collect its cross-shard transaction evidence.
  std::vector<shard_scan> scans(shards);
  for_each_shard(pool, shards, [&](std::size_t s) {
    scans[s] = scan_shard(dir, s, generations[s], base_generation, shards,
                          expected_identity);
  });
  // The one cross-shard step: merge the evidence. Anything short of a
  // commit plus every declared participant's data record means the crash
  // interrupted the transaction, and all-or-nothing demands it vanish
  // everywhere.
  txn_map txns;
  for (auto& scan : scans) {
    for (const auto& [id, evidence] : scan.txns) {
      auto& merged = txns[id];
      merged.committed |= evidence.committed;
      merged.data_records += evidence.data_records;
      merged.declared_participants =
          std::max(merged.declared_participants, evidence.declared_participants);
    }
    out.report.max_txn_id = std::max(out.report.max_txn_id, scan.max_txn_id);
    scan.txns.clear();
  }

  // Pass 2: rebuild each shard's state from the validated scans.
  progress_sink sink{progress, start};
  std::vector<recovery_report> partial(shards);
  for_each_shard(pool, shards, [&](std::size_t s) {
    replay_shard(dir, s, scans[s], txns, pipeline, mode, std::move(base[s]),
                 base_generation, sink, out, partial[s]);
  });
  for (const auto& r : partial) {
    out.report.recovered |= r.recovered;
    out.report.journal_files += r.journal_files;
    out.report.batches_replayed += r.batches_replayed;
    out.report.spectra_replayed += r.spectra_replayed;
    out.report.reclusters_replayed += r.reclusters_replayed;
    out.report.torn_bytes += r.torn_bytes;
    out.report.txn_batches_dropped += r.txn_batches_dropped;
  }

  out.report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

}  // namespace spechd::serve
