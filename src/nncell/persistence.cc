// Snapshot persistence (format v2, docs/PERSISTENCE.md): a 64-byte
// checksummed header, a metadata section (options, point table, liveness,
// approximation rectangles, tree states), the two page-file sections, and
// a 24-byte footer whose CRC32C covers the whole file. Loading validates
// every checksum and structural invariant before mutating anything, so a
// failed load leaves the caller's PageFile/BufferPool and the returned
// error precisely describing the first violation -- never a partial index.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "nncell/nncell_index.h"
#include "storage/durable_format.h"
#include "storage/fs_util.h"
#include "storage/wire.h"

namespace nncell {

namespace {

// Largest decomposition budget a snapshot may record: the loaded index
// reserves that many rectangle slots per point (the paper keeps it near
// 10), so a corrupt budget must not size the allocation.
constexpr uint64_t kMaxLoadedPartitions = 1024;

// Metadata slots of three choices the paper fixes: the Sphere strategy
// keeps only the points inside its sphere (1), whose radius is the
// heuristic one (recorded as +0.0), and decomposition ranks dimensions by
// volume reduction (0). Each slot holds that one value, and a load
// requires it.
constexpr uint64_t kPointFilterSlot = 1;
constexpr double kSphereRadiusSlot = 0.0;
constexpr uint64_t kMeasureSlot = 0;

struct SnapshotMetrics {
  metrics::Counter* saves;
  metrics::Counter* save_bytes;
  metrics::Counter* loads;
  metrics::Counter* load_failures;
};

[[maybe_unused]] const SnapshotMetrics& Metrics() {
  static const SnapshotMetrics m = {
      metrics::Registry::Global().counter(metrics::kSnapshotSaves),
      metrics::Registry::Global().counter(metrics::kSnapshotSaveBytes),
      metrics::Registry::Global().counter(metrics::kSnapshotLoads),
      metrics::Registry::Global().counter(metrics::kSnapshotLoadFailures),
  };
  return m;
}

// Every load rejection funnels through here so the failure counter cannot
// be forgotten on a new error path.
Status LoadError(std::string msg) {
  NNCELL_METRIC_COUNT(Metrics().load_failures, 1);
  return Status::InvalidArgument(std::move(msg));
}

void PutTreeState(std::string* out, const RTreeCore::PersistentState& st) {
  wire::PutU64(out, st.root);
  wire::PutU64(out, st.height);
  wire::PutU64(out, st.size);
}

bool GetTreeState(wire::Reader* r, RTreeCore::PersistentState* st) {
  uint64_t root = 0, height = 0, size = 0;
  if (!r->GetU64(&root) || !r->GetU64(&height) || !r->GetU64(&size)) {
    return false;
  }
  st->root = static_cast<PageId>(root);
  st->height = static_cast<size_t>(height);
  st->size = static_cast<size_t>(size);
  return true;
}

// Parsed header fields (the fixed 64 bytes after validation).
struct SnapshotHeader {
  uint64_t page_size = 0;
  uint64_t dim = 0;
  uint64_t point_count = 0;
  uint64_t live_count = 0;
  uint64_t wal_lsn = 0;
  uint64_t meta_len = 0;
};

// Validates magic, version and header CRC; fills `hdr` on success.
Status ParseHeader(const uint8_t* data, size_t size, SnapshotHeader* hdr) {
  constexpr size_t kMin =
      durable::kSnapshotHeaderBytes + durable::kSnapshotFooterBytes;
  if (size < kMin) {
    return Status::InvalidArgument(
        "snapshot truncated (" + std::to_string(size) +
        " bytes; header and footer alone need " + std::to_string(kMin) + ")");
  }
  wire::Reader r(data, durable::kSnapshotHeaderBytes);
  uint64_t magic = 0;
  uint32_t version = 0, header_crc = 0;
  r.GetU64(&magic);
  r.GetU32(&version);
  r.GetU32(&header_crc);
  if (magic != durable::kSnapshotMagic) {
    return Status::InvalidArgument("not an NN-cell snapshot (bad magic)");
  }
  if (version != durable::kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (supported: " + std::to_string(durable::kSnapshotVersion) + ")");
  }
  uint8_t zeroed[durable::kSnapshotHeaderBytes];
  std::memcpy(zeroed, data, durable::kSnapshotHeaderBytes);
  std::memset(zeroed + 12, 0, 4);  // the crc field itself
  if (Crc32c(zeroed, durable::kSnapshotHeaderBytes) != header_crc) {
    return Status::InvalidArgument("snapshot header checksum mismatch");
  }
  r.GetU64(&hdr->page_size);
  r.GetU64(&hdr->dim);
  r.GetU64(&hdr->point_count);
  r.GetU64(&hdr->live_count);
  r.GetU64(&hdr->wal_lsn);
  r.GetU64(&hdr->meta_len);
  NNCELL_CHECK(!r.failed());
  return Status::OK();
}

}  // namespace

Status NNCellIndex::SerializeSnapshot(std::string* out,
                                      uint64_t wal_lsn) const {
  // Make the page images consistent with the logical tree state.
  point_pool_->Flush();
  tree_->pool()->Flush();

  // Metadata section: everything outside the two page files.
  std::string meta;
  wire::PutU64(&meta, static_cast<uint64_t>(options_.algorithm));
  wire::PutU64(&meta, options_.use_xtree ? 1 : 0);
  wire::PutU64(&meta, static_cast<uint64_t>(options_.maintenance));
  wire::PutU64(&meta, kPointFilterSlot);
  wire::PutF64(&meta, kSphereRadiusSlot);
  wire::PutU64(&meta, options_.decomposition.max_partitions);
  wire::PutU64(&meta, options_.decomposition.max_split_dims);
  wire::PutU64(&meta, kMeasureSlot);
  wire::PutU64(&meta, options_.weights.size());
  for (double w : options_.weights) wire::PutF64(&meta, w);

  const std::vector<double>& raw = points_.raw();
  wire::PutU64(&meta, raw.size());
  wire::PutBytes(&meta, raw.data(), raw.size() * sizeof(double));
  for (uint8_t a : alive_) wire::PutU8(&meta, a);
  for (uint64_t id = 0; id < rect_count_.size(); ++id) {
    wire::PutU64(&meta, RectCount(id));
    for (size_t r = 0; r < RectCount(id); ++r) {
      wire::PutBytes(&meta, RectBounds(id, r), 2 * dim_ * sizeof(double));
    }
  }
  PutTreeState(&meta, tree_->SaveState());
  PutTreeState(&meta, point_tree_->SaveState());

  // Header (crc field written as zero, patched after the fact).
  std::string hdr;
  wire::PutU64(&hdr, durable::kSnapshotMagic);
  wire::PutU32(&hdr, durable::kSnapshotVersion);
  wire::PutU32(&hdr, 0);
  wire::PutU64(&hdr, tree_->pool()->file()->page_size());
  wire::PutU64(&hdr, dim_);
  wire::PutU64(&hdr, alive_.size());
  wire::PutU64(&hdr, live_count_);
  wire::PutU64(&hdr, wal_lsn);
  wire::PutU64(&hdr, meta.size());
  NNCELL_CHECK(hdr.size() == durable::kSnapshotHeaderBytes);
  const uint32_t header_crc = Crc32c(hdr.data(), hdr.size());
  std::memcpy(hdr.data() + 12, &header_crc, 4);

  out->clear();
  out->append(hdr);
  out->append(meta);
  wire::PutU32(out, Crc32c(meta.data(), meta.size()));
  tree_->pool()->file()->AppendSection(out);
  point_file_->AppendSection(out);

  // Footer: total length + whole-file CRC, so truncation and any single
  // bit flip anywhere in the image are detected up front at load.
  std::string footer;
  wire::PutU64(&footer, durable::kSnapshotFooterMagic);
  wire::PutU64(&footer, out->size() + durable::kSnapshotFooterBytes);
  wire::PutU32(&footer, Crc32c(out->data(), out->size()));
  wire::PutU32(&footer, Crc32c(footer.data(), footer.size()));
  NNCELL_CHECK(footer.size() == durable::kSnapshotFooterBytes);
  out->append(footer);

  NNCELL_METRIC_COUNT(Metrics().saves, 1);
  NNCELL_METRIC_COUNT(Metrics().save_bytes, out->size());
  return Status::OK();
}

Status NNCellIndex::Save(std::ostream& out) const {
  std::string image;
  NNCELL_RETURN_IF_ERROR(SerializeSnapshot(&image, /*wal_lsn=*/0));
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  if (!out.good()) return Status::Internal("index write failed");
  return Status::OK();
}

Status NNCellIndex::Save(const std::string& path) const {
  std::string image;
  NNCELL_RETURN_IF_ERROR(SerializeSnapshot(&image, /*wal_lsn=*/0));
  return fs::WriteFileAtomic(path, image);
}

StatusOr<size_t> NNCellIndex::PeekSnapshotPageSize(const std::string& image) {
  SnapshotHeader hdr;
  NNCELL_RETURN_IF_ERROR(ParseHeader(
      reinterpret_cast<const uint8_t*>(image.data()), image.size(), &hdr));
  return static_cast<size_t>(hdr.page_size);
}

StatusOr<std::unique_ptr<NNCellIndex>> NNCellIndex::LoadImage(
    const uint8_t* data, size_t size, PageFile* file, BufferPool* pool,
    uint64_t* wal_lsn) {
  SnapshotHeader hdr;
  {
    Status st = ParseHeader(data, size, &hdr);
    if (!st.ok()) return LoadError(st.message());
  }

  // Footer next: its whole-file CRC front-loads corruption detection, so
  // every later parse step runs on bytes already known to be intact.
  const uint8_t* footer = data + size - durable::kSnapshotFooterBytes;
  wire::Reader fr(footer, durable::kSnapshotFooterBytes);
  uint64_t footer_magic = 0, total_len = 0;
  uint32_t file_crc = 0, footer_crc = 0;
  fr.GetU64(&footer_magic);
  fr.GetU64(&total_len);
  fr.GetU32(&file_crc);
  fr.GetU32(&footer_crc);
  if (footer_magic != durable::kSnapshotFooterMagic) {
    return LoadError(
        "snapshot footer damaged (bad footer magic; truncated file?)");
  }
  if (Crc32c(footer, durable::kSnapshotFooterBytes - 4) != footer_crc) {
    return LoadError("snapshot footer checksum mismatch");
  }
  if (total_len != size) {
    return LoadError("snapshot length mismatch: footer records " +
                     std::to_string(total_len) + " bytes, file has " +
                     std::to_string(size));
  }
  if (Crc32c(data, size - durable::kSnapshotFooterBytes) != file_crc) {
    return LoadError("snapshot body checksum mismatch");
  }

  if (pool->file() != file) {
    return LoadError("pool does not wrap the given file");
  }
  if (hdr.page_size != file->page_size()) {
    return LoadError("page size mismatch: snapshot has " +
                     std::to_string(hdr.page_size) + ", file expects " +
                     std::to_string(file->page_size()));
  }
  if (hdr.dim == 0) {
    return LoadError("corrupt snapshot: dimension 0");
  }
  const size_t dim = static_cast<size_t>(hdr.dim);
  const size_t body_end = size - durable::kSnapshotFooterBytes;
  if (hdr.meta_len > body_end - durable::kSnapshotHeaderBytes ||
      body_end - durable::kSnapshotHeaderBytes - hdr.meta_len < 4) {
    return LoadError("snapshot metadata length " +
                     std::to_string(hdr.meta_len) +
                     " exceeds the image body");
  }
  const uint8_t* meta = data + durable::kSnapshotHeaderBytes;
  uint32_t meta_crc = 0;
  std::memcpy(&meta_crc, meta + hdr.meta_len, 4);
  if (Crc32c(meta, hdr.meta_len) != meta_crc) {
    return LoadError("snapshot metadata checksum mismatch");
  }

  // --- metadata ----------------------------------------------------------
  wire::Reader r(meta, hdr.meta_len);
  NNCellOptions options;
  uint64_t algorithm = 0, use_xtree = 0, maintenance = 0, point_filter = 0;
  uint64_t max_partitions = 0, max_split_dims = 0, measure = 0;
  uint64_t weight_count = 0;
  double sphere_radius = 0.0;
  r.GetU64(&algorithm);
  r.GetU64(&use_xtree);
  r.GetU64(&maintenance);
  r.GetU64(&point_filter);
  r.GetF64(&sphere_radius);
  r.GetU64(&max_partitions);
  r.GetU64(&max_split_dims);
  r.GetU64(&measure);
  r.GetU64(&weight_count);
  if (r.failed()) return LoadError("snapshot metadata truncated (options)");
  if (algorithm > static_cast<uint64_t>(ApproxAlgorithm::kNNDirection)) {
    return LoadError("corrupt snapshot: unknown approximation algorithm " +
                     std::to_string(algorithm));
  }
  if (maintenance > static_cast<uint64_t>(MaintenanceMode::kExact)) {
    return LoadError("corrupt snapshot: unknown maintenance mode " +
                     std::to_string(maintenance));
  }
  if (point_filter != kPointFilterSlot) {
    return LoadError("corrupt snapshot: sphere point filter " +
                     std::to_string(point_filter) + ", expected " +
                     std::to_string(kPointFilterSlot));
  }
  if (sphere_radius != kSphereRadiusSlot || std::signbit(sphere_radius)) {
    return LoadError("corrupt snapshot: sphere radius " +
                     std::to_string(sphere_radius) + ", expected +0");
  }
  if (measure != kMeasureSlot) {
    return LoadError("corrupt snapshot: obliqueness measure " +
                     std::to_string(measure) + ", expected " +
                     std::to_string(kMeasureSlot));
  }
  if (weight_count != 0 && weight_count != dim) {
    return LoadError("corrupt snapshot: weight count " +
                     std::to_string(weight_count) +
                     " does not match dimension " + std::to_string(dim));
  }
  options.algorithm = static_cast<ApproxAlgorithm>(algorithm);
  options.use_xtree = use_xtree != 0;
  options.maintenance = static_cast<MaintenanceMode>(maintenance);
  options.decomposition.max_partitions = static_cast<size_t>(max_partitions);
  options.decomposition.max_split_dims = static_cast<size_t>(max_split_dims);
  options.weights.resize(weight_count);
  for (double& w : options.weights) r.GetF64(&w);

  uint64_t raw_count = 0;
  r.GetU64(&raw_count);
  if (r.failed() || raw_count > r.remaining() / sizeof(double)) {
    return LoadError("snapshot metadata truncated (point table)");
  }
  if (raw_count != hdr.point_count * dim) {
    return LoadError("corrupt snapshot: point table has " +
                     std::to_string(raw_count) + " coordinates, expected " +
                     std::to_string(hdr.point_count * dim));
  }
  std::vector<double> raw(static_cast<size_t>(raw_count));
  r.GetBytes(raw.data(), raw.size() * sizeof(double));

  const size_t n = static_cast<size_t>(hdr.point_count);
  std::vector<uint8_t> alive(n);
  uint64_t live = 0;
  for (size_t i = 0; i < n; ++i) {
    uint8_t a = 0;
    r.GetU8(&a);
    alive[i] = a != 0 ? 1 : 0;
    live += alive[i];
  }
  if (r.failed()) return LoadError("snapshot metadata truncated (liveness)");
  if (live != hdr.live_count) {
    return LoadError("corrupt snapshot: header records " +
                     std::to_string(hdr.live_count) +
                     " live points, liveness bitmap has " +
                     std::to_string(live));
  }

  // Every id owns max(1, max_partitions) rectangle slots in memory.
  if (max_partitions > kMaxLoadedPartitions) {
    return LoadError("corrupt snapshot: partition budget " +
                     std::to_string(max_partitions) + " exceeds " +
                     std::to_string(kMaxLoadedPartitions));
  }
  const size_t slot_doubles =
      std::max<size_t>(1, static_cast<size_t>(max_partitions)) * 2 * dim;
  std::vector<double> rect_data;
  std::vector<uint32_t> rect_count(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t count = 0;
    r.GetU64(&count);
    if (r.failed() || count > r.remaining() / (2 * dim * sizeof(double))) {
      return LoadError("snapshot metadata truncated (approximations)");
    }
    if (alive[i] && count == 0) {
      return LoadError("corrupt snapshot: live point " + std::to_string(i) +
                       " has no approximation rectangles");
    }
    if (count * 2 * dim > slot_doubles) {
      return LoadError("corrupt snapshot: point " + std::to_string(i) +
                       " has " + std::to_string(count) +
                       " approximation rectangles, more than the partition "
                       "budget");
    }
    rect_count[i] = static_cast<uint32_t>(count);
    rect_data.resize((i + 1) * slot_doubles);
    r.GetBytes(rect_data.data() + i * slot_doubles,
               count * 2 * dim * sizeof(double));
  }

  RTreeCore::PersistentState cell_state, point_state;
  if (!GetTreeState(&r, &cell_state) || !GetTreeState(&r, &point_state)) {
    return LoadError("snapshot metadata truncated (tree states)");
  }
  if (r.remaining() != 0) {
    return LoadError("snapshot metadata has trailing garbage");
  }

  // --- page files (parsed into scratch, committed only at the end) -------
  size_t pos = durable::kSnapshotHeaderBytes + hdr.meta_len + 4;
  PageFile cell_scratch(static_cast<size_t>(hdr.page_size));
  {
    Status st = cell_scratch.ParseSection(data, body_end, &pos);
    if (!st.ok()) return LoadError("cell index " + st.message());
  }
  PageFile point_scratch(static_cast<size_t>(hdr.page_size));
  {
    Status st = point_scratch.ParseSection(data, body_end, &pos);
    if (!st.ok()) return LoadError("point index " + st.message());
  }
  if (pos != body_end) {
    return LoadError("snapshot has trailing garbage before the footer");
  }
  if (cell_state.root >= cell_scratch.num_pages()) {
    return LoadError("corrupt snapshot: cell tree root page " +
                     std::to_string(cell_state.root) + " out of range");
  }
  if (point_state.root >= point_scratch.num_pages()) {
    return LoadError("corrupt snapshot: point tree root page " +
                     std::to_string(point_state.root) + " out of range");
  }

  // --- everything validated: build and commit ----------------------------
  auto index = std::make_unique<NNCellIndex>(pool, dim, options);
  for (size_t i = 0; i < raw.size(); i += dim) {
    index->points_.Add(raw.data() + i);
  }
  index->alive_ = std::move(alive);
  index->live_count_ = static_cast<size_t>(hdr.live_count);
  index->rect_data_ = std::move(rect_data);
  index->rect_count_ = std::move(rect_count);
  // Replace the page images; the constructor's fresh root pages become
  // dead pages of the restored image, dropped by the pool invalidation.
  file->Swap(cell_scratch);
  pool->Invalidate();
  index->tree_->RestoreState(cell_state);
  index->point_file_->Swap(point_scratch);
  index->point_pool_->Invalidate();
  index->point_tree_->RestoreState(point_state);
  index->UpdatePlan();

  if (wal_lsn != nullptr) *wal_lsn = hdr.wal_lsn;
  NNCELL_METRIC_COUNT(Metrics().loads, 1);
  return index;
}

StatusOr<std::unique_ptr<NNCellIndex>> NNCellIndex::Load(std::istream& in,
                                                         PageFile* file,
                                                         BufferPool* pool) {
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return LoadImage(reinterpret_cast<const uint8_t*>(data.data()), data.size(),
                   file, pool, /*wal_lsn=*/nullptr);
}

StatusOr<std::unique_ptr<NNCellIndex>> NNCellIndex::Load(
    const std::string& path, PageFile* file, BufferPool* pool) {
  auto data = fs::ReadFileToString(path);
  if (!data.ok()) return data.status();
  return LoadImage(reinterpret_cast<const uint8_t*>(data->data()),
                   data->size(), file, pool, /*wal_lsn=*/nullptr);
}

}  // namespace nncell
