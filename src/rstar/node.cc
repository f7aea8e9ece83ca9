#include "rstar/node.h"

#include <cstring>

#include "storage/byte_io.h"

namespace nncell {

namespace {
// Fixed header: is_leaf(u8), pad(u8), num_entries(u16), num_extra(u32).
constexpr size_t kHeaderBytes = 8;

size_t AlignedHeaderBytes(size_t num_extra) {
  return (kHeaderBytes + num_extra * sizeof(uint32_t) + 7) & ~size_t{7};
}
}  // namespace

NodeStore::NodeStore(BufferPool* pool, size_t dim)
    : pool_(pool), dim_(dim), page_size_(pool->page_size()) {
  NNCELL_CHECK(dim_ > 0);
  // A single page must hold at least 2 entries plus header.
  NNCELL_CHECK_MSG(Capacity(1) >= 2, "page size too small for dimensionality");
}

size_t NodeStore::Capacity(size_t pages) const {
  size_t overhead = AlignedHeaderBytes(pages - 1);
  size_t total = pages * page_size_;
  if (total <= overhead) return 0;
  return (total - overhead) / EntryBytes();
}

size_t NodeStore::PagesNeeded(size_t n) const {
  size_t pages = 1;
  while (Capacity(pages) < n) ++pages;
  return pages;
}

PageId NodeStore::AllocateNode() { return pool_->AllocatePage(); }

const uint8_t* NodeStore::AssembleNode(PageId id) const {
  // The caller holds a pin on `id` (see VisitNode / Read), so the first
  // frame cannot move under us and, for the single-page common case, stays
  // valid after we return.
  // nncell-lint: allow(unpinned-fetch) pin held by caller (VisitNode/Read)
  const uint8_t* first = pool_->Fetch(id);
  uint32_t num_extra;
  std::memcpy(&num_extra, first + 4, sizeof(num_extra));
  if (num_extra == 0) return first;  // common case: frame used in place

  // Supernodes are assembled into a thread-local buffer so concurrent
  // readers never share scratch space. Each overflow page is pinned for
  // the duration of its copy: a sibling reader's cache miss may evict any
  // unpinned frame of this shard at any time.
  static thread_local std::vector<uint8_t> scratch;
  scratch.resize((1 + num_extra) * page_size_);
  std::memcpy(scratch.data(), first, page_size_);
  // The overflow id list lives in the first page header.
  for (uint32_t i = 0; i < num_extra; ++i) {
    uint32_t extra_id;
    std::memcpy(&extra_id, scratch.data() + kHeaderBytes + i * 4, 4);
    PageGuard guard(pool_, extra_id);
    const uint8_t* p = pool_->Fetch(extra_id);
    std::memcpy(scratch.data() + (1 + i) * page_size_, p, page_size_);
  }
  return scratch.data();
}

Node NodeStore::Read(PageId id) const {
  Node node;
  PageGuard guard(pool_, id);
  const uint8_t* stream = AssembleNode(id);
  node.is_leaf = stream[0] != 0;
  uint16_t num_entries;
  std::memcpy(&num_entries, stream + 2, sizeof(num_entries));
  uint32_t num_extra;
  std::memcpy(&num_extra, stream + 4, sizeof(num_extra));
  node.extra_pages.resize(num_extra);
  for (uint32_t i = 0; i < num_extra; ++i) {
    std::memcpy(&node.extra_pages[i], stream + kHeaderBytes + i * 4, 4);
  }

  size_t offset = AlignedHeaderBytes(num_extra);
  node.entries.resize(num_entries);
  for (Entry& e : node.entries) {
    e.rect = HyperRect::FromBounds(
        reinterpret_cast<const double*>(stream + offset), dim_);
    offset += 2 * dim_ * sizeof(double);
    std::memcpy(&e.id, stream + offset, sizeof(e.id));
    offset += sizeof(e.id);
  }
  return node;
}

void NodeStore::Write(PageId id, Node* node) {
  NNCELL_CHECK(node->entries.size() <= 0xffff);
  size_t pages = PagesNeeded(node->entries.size());
  // Grow or shrink the overflow chain.
  while (node->page_span() < pages) {
    node->extra_pages.push_back(pool_->AllocatePage());
  }
  while (node->page_span() > pages) {
    pool_->FreePage(node->extra_pages.back());
    node->extra_pages.pop_back();
  }

  std::vector<uint8_t> buffer(pages * page_size_, 0);
  ByteWriter writer(buffer.data(), buffer.size());
  writer.Put<uint8_t>(node->is_leaf ? 1 : 0);
  writer.Put<uint8_t>(0);
  writer.Put<uint16_t>(static_cast<uint16_t>(node->entries.size()));
  writer.Put<uint32_t>(static_cast<uint32_t>(node->extra_pages.size()));
  for (PageId extra : node->extra_pages) writer.Put<uint32_t>(extra);
  while (writer.position() % 8 != 0) writer.Put<uint8_t>(0);
  for (const Entry& e : node->entries) {
    writer.PutDoubles(e.rect.lo(), 2 * dim_);
    writer.Put<uint64_t>(e.id);
  }

  // Scatter the buffer across the spanned pages.
  for (size_t p = 0; p < pages; ++p) {
    PageId pid = (p == 0) ? id : node->extra_pages[p - 1];
    uint8_t* frame = pool_->FetchMutable(pid);
    std::memcpy(frame, buffer.data() + p * page_size_, page_size_);
  }
}

void NodeStore::Free(PageId id, const Node& node) {
  for (PageId extra : node.extra_pages) pool_->FreePage(extra);
  pool_->FreePage(id);
}

}  // namespace nncell
