#ifndef NNCELL_SHARD_SHARD_MANIFEST_H_
#define NNCELL_SHARD_SHARD_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

// The sharded index's routing metadata and its file I/O. This is the one
// translation unit of src/shard/ allowed to touch files directly
// (tools/nncell_lint.py, check `shard-direct-io`): everything else in the
// shard layer reaches disk only through these helpers, the per-shard
// NNCellIndex, or the router WriteAheadLog, so no query or rebalance code
// path can ever open a sibling shard's files behind the router's back.

namespace nncell {
namespace shard {

// The spatial routing table: shard i owns the half-open slab
//   [cuts[i-1], cuts[i])  (first slab open below, last open above)
// of the *metric-space* coordinate `route_dim` (original coordinate times
// sqrt(weight), so routing agrees with the weighted metric the shards
// search in). Serialized layout in docs/SHARDING.md.
struct ShardManifest {
  uint32_t shard_count = 0;
  uint64_t epoch = 0;      // bumped by every installed rebalance
  uint32_t route_dim = 0;  // dimension the cuts partition
  uint32_t dim = 0;        // full dimensionality of the index
  std::vector<double> cuts;  // shard_count - 1 non-decreasing boundaries

  // Owning shard of a point with metric route coordinate `c`: the number
  // of cuts <= c (upper_bound, so a point exactly on a cut belongs to the
  // slab above it).
  size_t Route(double c) const;

  // Squared metric distance from route coordinate `c` to shard i's slab
  // (0 when inside). A lower bound on the squared metric distance from
  // the query to every point the shard can hold.
  double SlabMinDistSq(size_t i, double c) const;

  Status Validate() const;
};

std::string EncodeManifest(const ShardManifest& m);
// `origin` names the source (a path) for error messages. Distinguishes an
// unsupported manifest version (checked before the CRC, so a future
// layout is reported as version skew, not corruption) from corruption.
StatusOr<ShardManifest> DecodeManifest(const std::string& bytes,
                                       const std::string& origin);
Status WriteManifest(const std::string& path, const ShardManifest& m);
StatusOr<ShardManifest> LoadManifest(const std::string& path);

// One global id's routing entry. `shard` is kRouterShardNone for a
// tombstone compacted away by a rebalance.
struct RouterEntry {
  uint32_t shard = 0;
  uint64_t local = 0;  // id inside the owning shard
  bool alive = false;
};

// The router snapshot: entries[g] maps global id g; covered_lsn is the
// router-log position the snapshot folds in (records <= it are skipped on
// replay).
struct RouterSnapshot {
  uint64_t covered_lsn = 0;
  std::vector<RouterEntry> entries;
};

Status WriteRouterSnapshot(const std::string& path, const RouterSnapshot& s);
// NotFound when no snapshot file exists (fresh directory).
StatusOr<RouterSnapshot> LoadRouterSnapshot(const std::string& path);

// Router log record payloads (framed by storage/wal.h).
std::string EncodeRouterInsert(uint64_t global_id, uint32_t shard);
std::string EncodeRouterDelete(uint64_t global_id);
struct RouterLogOp {
  uint8_t op = 0;
  uint64_t global_id = 0;
  uint32_t shard = 0;  // insert only
};
StatusOr<RouterLogOp> DecodeRouterOp(const std::vector<uint8_t>& payload);

// A failpoint site that writes nothing: kCrash exits, any other armed
// action fails the operation before it starts.
Status CheckSite(const char* name);

// Path helpers.
std::string ShardDirName(size_t i);                      // "shard-<i>"
std::string JoinPath(const std::string& a, const std::string& b);

// --- rebalance install protocol ------------------------------------------
// A rebalance stages the complete next epoch (new shard dirs, manifest,
// router snapshot) under dir/rebalance.tmp, then commits it with a single
// atomic rename to dir/epoch-install and finalizes by moving the staged
// entries into their steady-state names. Every step after the rename is
// idempotent; ShardedIndex::Open re-runs FinalizeInstall when the marker
// directory exists and discards a stale staging directory otherwise.

// Removes dir/rebalance.tmp recursively if present (a rebalance that
// crashed before its commit rename). Sets *removed when it did.
Status DiscardStagingIfPresent(const std::string& dir, bool* removed);

// Commit: rename dir/rebalance.tmp -> dir/epoch-install + parent fsync.
// Failpoint "shard.rebalance.commit" fires before the rename.
Status CommitStagedInstall(const std::string& dir);

// Finishes a committed install if dir/epoch-install exists: deletes
// replaced shard dirs, moves staged shards / router snapshot into place,
// deletes the (fully covered) router log, moves the manifest last, and
// removes the marker dir. Idempotent; sets *finalized when an install was
// (re)finished. Failpoint "shard.rebalance.finalize" fires first.
Status FinalizeInstallIfPresent(const std::string& dir, bool* finalized);

// Recursive delete of a file or directory tree (used for replaced shard
// dirs; missing path is OK).
Status RemovePathRecursive(const std::string& path);

}  // namespace shard
}  // namespace nncell

#endif  // NNCELL_SHARD_SHARD_MANIFEST_H_
