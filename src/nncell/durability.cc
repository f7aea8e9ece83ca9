// Durable mode of NNCellIndex: Open() recovers snapshot + WAL tail into a
// live index that write-ahead-logs every later Insert/Delete, and
// Checkpoint() folds the log back into a fresh snapshot. The recovery
// invariant (docs/PERSISTENCE.md): after a crash at any point, Open either
// reconstructs exactly the acknowledged operations or fails with a precise
// error -- never a silently wrong index.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "nncell/nncell_index.h"
#include "nncell/wal_records.h"
#include "storage/durable_format.h"
#include "storage/fs_util.h"
#include "storage/wal.h"

namespace nncell {

namespace {

struct DurabilityMetrics {
  metrics::Counter* replayed;
  metrics::Counter* skipped;
  metrics::Counter* checkpoints;
};

[[maybe_unused]] const DurabilityMetrics& Metrics() {
  static const DurabilityMetrics m = {
      metrics::Registry::Global().counter(metrics::kWalRecordsReplayed),
      metrics::Registry::Global().counter(metrics::kWalRecordsSkipped),
      metrics::Registry::Global().counter(metrics::kWalCheckpoints),
  };
  return m;
}

}  // namespace

Status NNCellIndex::LogInsert(const std::vector<double>& original) {
  // Re-run the Insert preconditions: a record must never be appended for
  // an operation the index would then reject (its replay would fail).
  if (original.size() != dim_) {
    return Status::InvalidArgument("dimension mismatch");
  }
  NNCELL_RETURN_IF_ERROR(CheckNewPoint(ToMetricSpace(original.data())));
  return wal_->Append(walrec::EncodeInsert(points_.size(), original));
}

Status NNCellIndex::LogDelete(uint64_t id) {
  return wal_->Append(walrec::EncodeDelete(id));
}

Status NNCellIndex::ReplayWalRecord(const std::vector<uint8_t>& payload) {
  walrec::Decoded rec;
  NNCELL_RETURN_IF_ERROR(walrec::Decode(payload, &rec));
  switch (rec.op) {
    case durable::kWalOpInsert: {
      if (rec.point.size() != dim_) {
        return Status::InvalidArgument(
            "wal insert dimension " + std::to_string(rec.point.size()) +
            " does not match index dimension " + std::to_string(dim_));
      }
      if (rec.id != points_.size()) {
        return Status::Internal(
            "wal insert expects id " + std::to_string(rec.id) +
            " but the index would assign " + std::to_string(points_.size()) +
            " (snapshot and log disagree)");
      }
      StatusOr<uint64_t> id = ApplyInsert(rec.point);
      if (!id.ok()) return id.status();
      NNCELL_CHECK(*id == rec.id);
      return Status::OK();
    }
    case durable::kWalOpDelete:
      return ApplyDelete(rec.id);
    default:
      return Status::InvalidArgument("unknown wal record op " +
                                     std::to_string(rec.op));
  }
}

StatusOr<std::unique_ptr<NNCellIndex>> NNCellIndex::Open(
    const std::string& dir, size_t dim, NNCellOptions options,
    DurableOptions dopts, RecoveryInfo* info) {
  RecoveryInfo local;
  RecoveryInfo& ri = info != nullptr ? *info : local;
  ri = RecoveryInfo{};

  NNCELL_RETURN_IF_ERROR(fs::EnsureDirectory(dir));
  const std::string snap_path =
      dir + "/" + std::string(durable::kSnapshotFileName);
  const std::string wal_path = dir + "/" + std::string(durable::kWalFileName);

  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<NNCellIndex> index;
  uint64_t snap_lsn = 0;

  if (fs::PathExists(snap_path)) {
    auto data = fs::ReadFileToString(snap_path);
    if (!data.ok()) return data.status();
    auto page_size = PeekSnapshotPageSize(*data);
    if (!page_size.ok()) return page_size.status();
    file = std::make_unique<PageFile>(*page_size);
    pool = std::make_unique<BufferPool>(file.get(), dopts.pool_pages);
    auto loaded =
        LoadImage(reinterpret_cast<const uint8_t*>(data->data()),
                  data->size(), file.get(), pool.get(), &snap_lsn);
    if (!loaded.ok()) return loaded.status();
    index = std::move(*loaded);
    if (dim != 0 && dim != index->dim_) {
      return Status::InvalidArgument(
          "dimension mismatch: snapshot has " +
          std::to_string(index->dim_) + ", caller expects " +
          std::to_string(dim));
    }
    ri.snapshot_loaded = true;
    ri.snapshot_wal_lsn = snap_lsn;
  } else {
    if (dim == 0) {
      return Status::InvalidArgument(
          "no snapshot in " + dir +
          " and no dimension given to create a fresh index");
    }
    file = std::make_unique<PageFile>(dopts.page_size);
    pool = std::make_unique<BufferPool>(file.get(), dopts.pool_pages);
    index = std::make_unique<NNCellIndex>(pool.get(), dim, options);
  }

  // A snapshot that loaded implies every acknowledged record up to its LSN
  // is covered, so a WAL too damaged to even hold its header is a hard
  // error then (strict); without a snapshot, a headerless file can only be
  // the torn first creation and is recreated empty.
  WriteAheadLog::RecoverResult rec;
  auto wal = WriteAheadLog::Open(wal_path, snap_lsn, dopts.wal_group_sync,
                                 /*strict_header=*/ri.snapshot_loaded, &rec);
  if (!wal.ok()) return wal.status();
  ri.wal_torn_bytes = rec.torn_bytes;
  ri.created = !ri.snapshot_loaded && rec.created;

  if (!rec.created && rec.start_lsn > snap_lsn) {
    return Status::InvalidArgument(
        "wal starts at lsn " + std::to_string(rec.start_lsn) +
        " but the snapshot only covers lsn " + std::to_string(snap_lsn) +
        ": acknowledged operations are missing");
  }

  // Replay the tail the snapshot does not cover. Records at or below the
  // snapshot's LSN are the checkpoint crash window (snapshot written, log
  // not yet truncated) and are skipped by LSN, keeping replay idempotent.
  for (const auto& record : rec.records) {
    if (record.lsn <= snap_lsn) {
      ++ri.wal_records_skipped;
      continue;
    }
    Status st = index->ReplayWalRecord(record.payload);
    if (!st.ok()) {
      return Status(st.code(), "wal replay (lsn " +
                                   std::to_string(record.lsn) +
                                   "): " + st.message());
    }
    ++ri.wal_records_replayed;
  }
  index->UpdatePlan();
  NNCELL_METRIC_COUNT(Metrics().replayed, ri.wal_records_replayed);
  NNCELL_METRIC_COUNT(Metrics().skipped, ri.wal_records_skipped);

  index->durable_file_ = std::move(file);
  index->durable_pool_ = std::move(pool);
  index->wal_ = std::move(*wal);
  index->durable_dir_ = dir;
  return index;
}

Status NNCellIndex::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint() requires a durable index (use NNCellIndex::Open)");
  }
  // Push the group-commit tail so the snapshot's LSN is durable in the
  // log too; a poisoned WAL fails here and the operator must reopen.
  NNCELL_RETURN_IF_ERROR(wal_->Sync());
  const uint64_t lsn = wal_->last_lsn();
  std::string image;
  NNCELL_RETURN_IF_ERROR(SerializeSnapshot(&image, lsn));
  NNCELL_RETURN_IF_ERROR(fs::WriteFileAtomic(
      durable_dir_ + "/" + std::string(durable::kSnapshotFileName), image));
  // The crash window between snapshot and truncation: recovery skips the
  // now-covered records by LSN, so crashing here is safe (tested by the
  // crash matrix).
  switch (failpoint::Check("checkpoint.after_snapshot")) {
    case failpoint::Action::kCrash:
      failpoint::Crash();
    case failpoint::Action::kError:
      return Status::Internal("injected failure: checkpoint.after_snapshot");
    default:
      break;
  }
  NNCELL_RETURN_IF_ERROR(wal_->Truncate(lsn));
  NNCELL_METRIC_COUNT(Metrics().checkpoints, 1);
  return Status::OK();
}

}  // namespace nncell
