// Pins the bytes of bulk-built and then written NN-cell indexes with the
// CRC32C of their Save() images. The cell tree's insert path (ChooseSubtree,
// forced reinsert, splits, supernodes) and its write path (FindLeafEntry,
// ShrinkEntry, MBR propagation) decide every byte of the image, so a change
// that alters any of their choices changes a digest. Re-pin a digest only
// in a change that means to alter the tree's shape, and say why.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

struct DigestCase {
  const char* name;
  size_t n;
  size_t dim;
  uint64_t seed;
  uint32_t built;    // digest right after BulkBuild
  uint32_t written;  // digest after the fixed insert/delete sequence
};

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
  NNCellIndex index(&pool, c.dim, NNCellOptions());
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
  EXPECT_GT(in_place, 0u);
  EXPECT_GT(reg.counter(metrics::kIndexCellsRewritten)->Value(), in_place);
  metrics::Registry::SetEnabled(false);
  Status ok = index.CheckInvariants(20);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(ImageDigest(index), c.written) << std::hex << ImageDigest(index);
}

INSTANTIATE_TEST_SUITE_P(
    Uniform, ImageDigestTest,
    ::testing::Values(DigestCase{"d4", 1200, 4, 5, 0xb474dd66, 0xff443b13},
                      DigestCase{"d16", 400, 16, 6, 0x6a432a82, 0xbf3bf335}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace nncell
