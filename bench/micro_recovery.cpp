/// Recovery-path microbenchmarks: full-history journal replay vs
/// checkpoint + suffix restore, at growing journal lengths.
///
/// The workload is completion-heavy on purpose: every record_completion
/// rewrites the same 15 site_stats rows, so the journal grows linearly
/// while the logical state stays O(sites).  That is the regime
/// checkpointing targets -- full replay is O(history), checkpointed
/// recovery is O(state + suffix) -- and the gap (tools/check.sh exports
/// it as BENCH_recovery.json) should widen roughly linearly with the
/// record count.  The reported counters also pin the footprint story:
/// journal_bytes keeps growing without checkpointing while the
/// checkpointed run retains only the post-checkpoint suffix.
///
/// BM_CheckpointPublish and BM_SnapshotRestore time the two halves of an
/// image on their own: taking one (incremental, so priced by the rows
/// changed since the last) and restoring one.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/warehouse.hpp"
#include "db/database.hpp"

namespace {

using namespace sphinx;

constexpr int kSites = 15;
constexpr std::size_t kCheckpointEvery = 512;

/// Drives record_completion until the journal holds at least `records`
/// entries.  With `checkpoint_every` > 0, publishes a checkpoint (and
/// compacts the journal) on the same cadence the server's
/// record-triggered policy would.
std::unique_ptr<core::DataWarehouse> build_warehouse(
    std::uint64_t records, std::size_t checkpoint_every) {
  auto warehouse = std::make_unique<core::DataWarehouse>();
  std::uint64_t last_checkpoint = 0;
  double now = 0.0;
  while (warehouse->journal().next_seq() < records) {
    for (int site = 1; site <= kSites; ++site) {
      warehouse->record_completion(SiteId(static_cast<std::uint64_t>(site)),
                                   300.0 + site);
    }
    now += 1.0;
    if (checkpoint_every > 0 &&
        warehouse->journal().next_seq() >= last_checkpoint + checkpoint_every) {
      last_checkpoint = warehouse->checkpoint(now).seq;
    }
  }
  return warehouse;
}

void BM_RecoverFullReplay(benchmark::State& state) {
  const auto records = static_cast<std::uint64_t>(state.range(0));
  const auto warehouse = build_warehouse(records, 0);
  for (auto _ : state) {
    auto recovered = core::DataWarehouse::recover_from(warehouse->journal());
    benchmark::DoNotOptimize(recovered.has_value());
  }
  state.counters["journal_records"] =
      static_cast<double>(warehouse->journal().size());
  state.counters["journal_bytes"] =
      static_cast<double>(warehouse->journal().size_bytes());
}
BENCHMARK(BM_RecoverFullReplay)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RecoverCheckpointed(benchmark::State& state) {
  const auto records = static_cast<std::uint64_t>(state.range(0));
  const auto warehouse = build_warehouse(records, kCheckpointEvery);
  const auto& image = warehouse->checkpoint_image();
  for (auto _ : state) {
    auto recovered =
        core::DataWarehouse::recover_from(*image, warehouse->journal());
    benchmark::DoNotOptimize(recovered.has_value());
  }
  state.counters["journal_records"] =
      static_cast<double>(warehouse->journal().size());
  state.counters["journal_bytes"] =
      static_cast<double>(warehouse->journal().size_bytes());
  state.counters["snapshot_bytes"] =
      static_cast<double>(image->database->size());
}
BENCHMARK(BM_RecoverCheckpointed)->Arg(1000)->Arg(10000)->Arg(100000);

/// A warehouse holding `rows` site_stats rows, checkpointed once.
std::unique_ptr<core::DataWarehouse> build_sites(int rows) {
  auto warehouse = std::make_unique<core::DataWarehouse>();
  for (int site = 1; site <= rows; ++site) {
    warehouse->record_completion(SiteId(static_cast<std::uint64_t>(site)),
                                 300.0);
  }
  warehouse->checkpoint(0.0);
  return warehouse;
}

/// The checkpoint operation itself (snapshot + truncate), so the
/// recovery win above can be weighed against its steady-state cost.
/// Args: rows, rows updated between two images (untimed).  /N/0 is the
/// incremental image's best case (every row copied), /N/N its worst
/// (every row re-encoded).
void BM_CheckpointPublish(benchmark::State& state) {
  const auto rows = static_cast<int>(state.range(0));
  const auto updated = static_cast<int>(state.range(1));
  const auto warehouse = build_sites(rows);
  double now = 0.0;
  int next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < updated; ++i) {
      warehouse->record_completion(
          SiteId(static_cast<std::uint64_t>(1 + next)), 300.0 + i);
      next = (next + 1) % rows;
    }
    state.ResumeTiming();
    now += 1.0;
    benchmark::DoNotOptimize(warehouse->checkpoint(now).snapshot_bytes);
  }
  state.counters["snapshot_bytes"] =
      static_cast<double>(warehouse->checkpoint_image()->database->size());
}
BENCHMARK(BM_CheckpointPublish)
    ->Args({2048, 0})
    ->Args({2048, 200})
    ->Args({2048, 2048});

/// Restoring a database from an image of `rows` site_stats rows: the
/// parse half of checkpointed recovery, without the journal suffix.
void BM_SnapshotRestore(benchmark::State& state) {
  const auto warehouse = build_sites(static_cast<int>(state.range(0)));
  const std::string& image = *warehouse->checkpoint_image()->database;
  for (auto _ : state) {
    db::Database restored;
    benchmark::DoNotOptimize(restored.restore(image).ok());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(image.size());
}
BENCHMARK(BM_SnapshotRestore)->Arg(2048);

}  // namespace
