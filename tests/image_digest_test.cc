// Pins the bytes of bulk-built and then written NN-cell indexes with the
// CRC32C of their Save() images, and those of an R*-tree and an X-tree
// grown by Insert past height 2. The cell tree's insert path (ChooseSubtree,
// forced reinsert, splits, supernodes) and its write path (FindLeafEntry,
// ShrinkEntry, MBR propagation) decide every byte of the image, so a change
// that alters any of their choices changes a digest. Re-pin a digest only
// in a change that means to alter the tree's shape, and say why.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "rstar/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "xtree/xtree.h"

namespace nncell {
namespace {

struct DigestCase {
  const char* name;
  size_t n;
  size_t dim;
  uint64_t seed;
  uint32_t built;    // digest right after BulkBuild
  uint32_t written;  // digest after the fixed insert/delete sequence
  ApproxAlgorithm algorithm = ApproxAlgorithm::kSphere;
  size_t max_partitions = 1;  // Section 3 decomposition budget
};

// gtest names each case after what this prints. Its default dumps the
// struct's bytes, and those hold the address of `name`, which moves from run
// to run, so the registered test names would too.
void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

uint32_t ImageDigest(const NNCellIndex& index) {
  std::ostringstream out;
  Status saved = index.Save(out);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  const std::string image = out.str();
  return Crc32c(image.data(), image.size());
}

class ImageDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(ImageDigestTest, BuildAndWritesMatchPinnedImages) {
  const DigestCase& c = GetParam();
  // 2 KiB pages keep the indexes small while the leaf-parent node still
  // has more than 32 children, so the candidate-pruned ChooseSubtree runs.
  PageFile file(2048);
  BufferPool pool(&file, 1024);
  NNCellOptions options;
  options.algorithm = c.algorithm;
  options.decomposition.max_partitions = c.max_partitions;
  NNCellIndex index(&pool, c.dim, options);
  Status built = index.BulkBuild(GenerateUniform(c.n, c.dim, c.seed));
  ASSERT_TRUE(built.ok()) << built.ToString();
  const RTreeCore::TreeInfo info = index.TreeInfo();
  ASSERT_EQ(info.height, 2u) << "the root is the leaf parent";
  EXPECT_GT(info.num_leaves, 32u) << "root fan-out";
  EXPECT_EQ(ImageDigest(index), c.built) << std::hex << ImageDigest(index);

  // Inserts shrink their neighbours' cells, in their leaves (ShrinkEntry)
  // or by delete + reinsert; deletes grow them back and condense the tree.
  metrics::Registry::SetEnabled(true);
  metrics::Registry::Global().ResetAll();
  const PointSet extra = GenerateUniform(10, c.dim, c.seed + 1);
  std::vector<uint64_t> inserted;
  for (size_t i = 0; i < extra.size(); ++i) {
    auto id = index.Insert(extra.Get(i));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    inserted.push_back(*id);
  }
  for (uint64_t id : {uint64_t{0}, uint64_t{7}, uint64_t{c.n / 2},
                      uint64_t{c.n - 1}, inserted[1], inserted[6]}) {
    Status deleted = index.Delete(id);
    ASSERT_TRUE(deleted.ok()) << deleted.ToString();
  }
  const metrics::Registry& reg = metrics::Registry::Global();
  const uint64_t in_place =
      reg.counter(metrics::kIndexCellsUpdatedInPlace)->Value();
  // A decomposed cell is rewritten by delete + reinsert of its pieces.
  if (c.max_partitions <= 1) {
    EXPECT_GT(in_place, 0u);
  }
  EXPECT_GT(reg.counter(metrics::kIndexCellsRewritten)->Value(), in_place);
  metrics::Registry::SetEnabled(false);
  Status ok = index.CheckInvariants(20);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(ImageDigest(index), c.written) << std::hex << ImageDigest(index);
}

INSTANTIATE_TEST_SUITE_P(
    Uniform, ImageDigestTest,
    ::testing::Values(DigestCase{"d4", 1200, 4, 5, 0xb474dd66, 0xff443b13},
                      DigestCase{"d16", 400, 16, 6, 0x6a432a82, 0xbf3bf335},
                      // The NN-Direction selector picks every cell's rows.
                      DigestCase{"d4_nn_direction", 1200, 4, 5, 0x44ff98b0,
                                 0x267ecb6f, ApproxAlgorithm::kNNDirection},
                      // Each cell split into up to 4 pieces ranked by
                      // volume reduction (Section 3).
                      DigestCase{"d4_decomposed", 400, 4, 5, 0xfd526609,
                                 0xb6330155, ApproxAlgorithm::kSphere, 4}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.name);
    });

// The NN-cell indexes above stay at height 2, so no directory split decides
// their bytes. These trees grow by Insert past height 2 from points and fat
// rectangles, so the R* split of directory nodes and, in the X-tree, the
// overlap test, the overlap-minimal split and supernode growth all run.
struct TreeDigestCase {
  const char* name;
  bool xtree;
  size_t height;    // tree height after the inserts
  uint32_t digest;  // CRC32C of the page file after the inserts
};

void PrintTo(const TreeDigestCase& c, std::ostream* os) { *os << c.name; }

class TreeImageDigestTest : public ::testing::TestWithParam<TreeDigestCase> {
};

TEST_P(TreeImageDigestTest, InsertedTreesMatchPinnedImages) {
  const TreeDigestCase& c = GetParam();
  constexpr size_t kDim = 4;
  PageFile file(1024);
  BufferPool pool(&file, 4096);
  TreeOptions opts;
  opts.dim = kDim;
  opts.max_supernode_pages = 3;
  std::unique_ptr<RTreeCore> tree;
  if (c.xtree) {
    tree = std::make_unique<XTree>(&pool, opts);
  } else {
    tree = std::make_unique<RStarTree>(&pool, opts);
  }
  const PointSet pts = GenerateUniform(1200, kDim, 23);
  Rng rng(29);
  for (size_t n = 0; n < pts.size(); ++n) {
    // Every other entry a point, the rest boxes of half-width up to 0.15
    // around one, clipped to the unit cube.
    const double half = n % 2 == 0 ? 0.0 : 0.15 * rng.NextDouble();
    HyperRect rect = HyperRect::FromPoint(pts[n], kDim);
    for (size_t k = 0; k < kDim; ++k) {
      rect.lo(k) = std::max(0.0, rect.lo(k) - half);
      rect.hi(k) = std::min(1.0, rect.hi(k) + half);
    }
    tree->Insert(rect, n);
  }
  // Height 3 takes a split of a directory root.
  const RTreeCore::TreeInfo info = tree->Info();
  ASSERT_GE(info.height, 3u);
  EXPECT_EQ(info.height, c.height);
  EXPECT_GT(info.num_nodes - info.num_leaves, 2u) << "directory nodes";
  if (c.xtree) {
    EXPECT_GT(static_cast<XTree&>(*tree).supernode_events(), 0u);
  }
  ASSERT_EQ(tree->Validate(), "");

  pool.Flush();
  std::ostringstream out;
  ASSERT_TRUE(file.SaveTo(out).ok());
  // The image ends in its own CRC32C; the CRC of data plus its CRC is the
  // same for every image, so the digest leaves those four bytes out.
  const std::string image = out.str();
  ASSERT_GT(image.size(), 4u);
  const uint32_t digest = Crc32c(image.data(), image.size() - 4);
  EXPECT_EQ(digest, c.digest) << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Inserted, TreeImageDigestTest,
    ::testing::Values(TreeDigestCase{"rstar", false, 3, 0x2b323654},
                      TreeDigestCase{"xtree", true, 3, 0x4f3341c7}),
    [](const ::testing::TestParamInfo<TreeDigestCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace nncell
