#pragma once
/// \file checkpoint.hpp
/// The warehouse checkpoint image: snapshot + replay-start sequence.
///
/// A checkpoint makes recovery O(state) instead of O(history): the image
/// freezes everything a recovered server needs that the journal suffix
/// cannot reproduce -- the database snapshot (tables, rows, schemas with
/// their index declarations, allocation cursors) plus the derived
/// dirty-DAG queue, which is history rather than a function of the
/// tables (see DataWarehouse::rebuild_work_state).  `seq` marks the
/// journal sequence the snapshot reflects: replaying entries >= seq on
/// top of the restored image reproduces the crashed warehouse exactly.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "db/table.hpp"

namespace sphinx::core {

struct CheckpointImage {
  /// Journal sequence number the snapshot reflects; recovery replays the
  /// suffix with sequence >= seq on top of the restored snapshot.
  std::uint64_t seq = 0;
  /// Sim time of publication -- re-seeds the period-based checkpoint
  /// policy on the recovered instance so baseline and recovered runs
  /// keep checkpointing in lockstep.
  SimTime at = 0.0;
  /// db::Database::snapshot() image, shared with the database that took
  /// it and with every copy of this checkpoint; never null.
  std::shared_ptr<const std::string> database =
      std::make_shared<const std::string>();
  /// Dirty-DAG work queue (dags-table row ids, ascending) at the
  /// checkpoint.  Folded into the image because drain points at or
  /// before the checkpoint are compacted out of the journal with the
  /// rest of the prefix.
  std::vector<db::RowId> dirty_rows;

  /// Deterministic text form (for tests and footprint accounting).
  /// Round-trips via parse().
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static Expected<CheckpointImage> parse(
      const std::string& text);
};

}  // namespace sphinx::core
