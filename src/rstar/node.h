#ifndef NNCELL_RSTAR_NODE_H_
#define NNCELL_RSTAR_NODE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/hyper_rect.h"
#include "storage/buffer_pool.h"

namespace nncell {

// One tree entry. In leaf nodes `id` is the caller's record id; in
// directory nodes it is the child's first PageId.
struct Entry {
  HyperRect rect;
  uint64_t id = 0;
};

// Tight bounding rectangle of `entries`, grown in order from Empty(dim).
inline HyperRect MbrOf(const std::vector<Entry>& entries, size_t dim) {
  HyperRect r = HyperRect::Empty(dim);
  for (const Entry& e : entries) r.ExpandToRect(e.rect);
  return r;
}

// Decoded node. A node's identity is its first page id; supernodes (X-tree)
// chain additional overflow pages whose ids are recorded in the first
// page's header, so the identity is stable while the node grows or shrinks.
struct Node {
  bool is_leaf = true;
  std::vector<PageId> extra_pages;  // supernode overflow pages
  std::vector<Entry> entries;

  size_t page_span() const { return 1 + extra_pages.size(); }
};

// Zero-copy view of one serialized entry; pointers reference the node-scan
// scratch buffer and are valid only inside the ScanNode / VisitNode
// callback.
struct EntryView {
  const double* lo;
  const double* hi;
  uint64_t id;
};

// Zero-copy view of a node's assembled entry stream: `count` entries of
// 2 * dim + 1 words each (lo | hi | id bits), the layout box_hits scans.
// Valid only inside the ScanNode callback.
struct NodeEntries {
  const double* words;
  size_t count;
  size_t dim;
  bool is_leaf;

  const double* entry(size_t i) const { return words + i * (2 * dim + 1); }

  EntryView at(size_t i) const {
    EntryView view;
    view.lo = entry(i);
    view.hi = view.lo + dim;
    std::memcpy(&view.id, view.hi + dim, sizeof(view.id));
    return view;
  }
};

// Serializes nodes into pages through the buffer pool and computes entry
// capacities. Layout of a node occupying pages {p0, o1, ..., ok}:
//   p0: [u8 is_leaf][u8 pad][u16 num_entries][u32 num_extra]
//       [u32 overflow ids x num_extra][pad to 8B] [entry bytes ...]
//   oi: [entry bytes continued ...]
// Entries are fixed-size and 8-byte aligned within the assembled stream:
// 2*dim doubles (rect), u64 id -- the same in leaf and directory nodes.
class NodeStore {
 public:
  NodeStore(BufferPool* pool, size_t dim);

  size_t dim() const { return dim_; }

  size_t EntryBytes() const {
    return 2 * dim_ * sizeof(double) + sizeof(uint64_t);
  }

  // Entry capacity of a node that owns `pages` pages.
  size_t Capacity(size_t pages) const;

  // Minimum number of pages needed for n entries.
  size_t PagesNeeded(size_t n) const;

  // Allocates the first page of a fresh node.
  PageId AllocateNode();

  // Reads and decodes the node rooted at `id` (fetches every spanned page).
  Node Read(PageId id) const;

  // Encodes and writes the node; grows/shrinks its overflow chain to fit
  // the entry count (updates node->extra_pages).
  void Write(PageId id, Node* node);

  // Releases every page of the node.
  void Free(PageId id, const Node& node);

  // Allocation-free scan for the hot query paths: hands scan(NodeEntries)
  // the node's whole assembled entry stream and returns whether the node
  // is a leaf. Reuses a thread-local scratch buffer, so within one thread
  // the callback must finish before the next scan (queries therefore
  // collect child page ids first and descend afterwards); any number of
  // threads may scan concurrently. The node's first page is pinned for
  // the duration of the scan, so neither a callback that touches the
  // buffer pool nor a concurrent reader's cache miss can evict the frame
  // the stream references.
  template <typename Fn>
  bool ScanNode(PageId id, Fn&& scan) const {
    PageGuard guard(pool_, id);
    const uint8_t* stream = AssembleNode(id);
    NodeEntries node;
    node.is_leaf = stream[0] != 0;
    uint16_t num_entries;
    std::memcpy(&num_entries, stream + 2, sizeof(num_entries));
    uint32_t num_extra;
    std::memcpy(&num_extra, stream + 4, sizeof(num_extra));
    node.words =
        reinterpret_cast<const double*>(stream + EntriesOffset(num_extra));
    node.count = num_entries;
    node.dim = dim_;
    scan(static_cast<const NodeEntries&>(node));
    return node.is_leaf;
  }

  // ScanNode one entry at a time: visit(EntryView, is_leaf) per entry.
  template <typename Fn>
  bool VisitNode(PageId id, Fn&& visit) const {
    return ScanNode(id, [&](const NodeEntries& node) {
      for (size_t i = 0; i < node.count; ++i) visit(node.at(i), node.is_leaf);
    });
  }

 private:
  static size_t EntriesOffset(size_t num_extra) {
    return (8 + num_extra * sizeof(uint32_t) + 7) & ~size_t{7};
  }

  // Concatenates the node's pages into a thread-local scratch buffer (or
  // returns the cached frame directly for single-page nodes) and returns
  // the byte stream. The caller must hold a pin on `id`.
  const uint8_t* AssembleNode(PageId id) const;

  BufferPool* pool_;
  size_t dim_;
  size_t page_size_;
};

}  // namespace nncell

#endif  // NNCELL_RSTAR_NODE_H_
