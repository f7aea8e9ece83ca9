// Single-bit-flip sweeps over both on-disk formats. The durability
// contract (docs/PERSISTENCE.md) is that EVERY flipped bit is detected at
// load time -- a corrupted snapshot or log produces a precise error,
// never a silently wrong index and never a silently shortened log.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/durable_format.h"
#include "storage/fs_util.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

// Bit positions sampled by the sweeps: every byte of the first
// `head` bytes and the last `tail` bytes (headers, footers, and the
// structures around them), plus every 97th byte in between; the flipped
// bit rotates with the byte offset so all eight positions occur.
std::vector<size_t> SampleOffsets(size_t size, size_t head, size_t tail) {
  std::vector<size_t> offsets;
  for (size_t i = 0; i < size && i < head; ++i) offsets.push_back(i);
  for (size_t i = head; i + tail < size; i += 97) offsets.push_back(i);
  for (size_t i = size > tail ? size - tail : head; i < size; ++i) {
    if (offsets.empty() || i > offsets.back()) offsets.push_back(i);
  }
  return offsets;
}

TEST(SnapshotCorruptionTest, EveryBitFlipRejected) {
  const std::string path = ::testing::TempDir() + "corruption_snapshot.bin";
  {
    PageFile file(512);
    BufferPool pool(&file, 4096);
    NNCellOptions opts;
    opts.algorithm = ApproxAlgorithm::kSphere;
    NNCellIndex index(&pool, 2, opts);
    ASSERT_TRUE(index.BulkBuild(GenerateUniform(30, 2, 9)).ok());
    ASSERT_TRUE(index.Delete(7).ok());
    ASSERT_TRUE(index.Save(path).ok());
  }
  auto pristine = fs::ReadFileToString(path);
  ASSERT_TRUE(pristine.ok());
  // Sanity: the unmodified image loads.
  {
    PageFile file(512);
    BufferPool pool(&file, 4096);
    ASSERT_TRUE(NNCellIndex::Load(path, &file, &pool).ok());
  }

  size_t flips = 0;
  for (size_t off : SampleOffsets(pristine->size(), 128, 64)) {
    std::string damaged = *pristine;
    damaged[off] ^= static_cast<char>(1u << (off % 8));
    WriteFile(path, damaged);
    PageFile file(512);
    BufferPool pool(&file, 4096);
    auto loaded = NNCellIndex::Load(path, &file, &pool);
    ASSERT_FALSE(loaded.ok())
        << "bit flip at byte " << off << " of " << pristine->size()
        << " went undetected";
    // All-or-nothing: the rejected load must not have touched the target.
    EXPECT_EQ(file.num_pages(), 0u) << "byte " << off;
    ++flips;
  }
  EXPECT_GT(flips, 150u);  // the sweep actually covered something
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, TruncationAtEveryRegionRejected) {
  const std::string path = ::testing::TempDir() + "corruption_truncated.bin";
  {
    PageFile file(512);
    BufferPool pool(&file, 4096);
    NNCellOptions opts;
    NNCellIndex index(&pool, 2, opts);
    ASSERT_TRUE(index.BulkBuild(GenerateUniform(20, 2, 10)).ok());
    ASSERT_TRUE(index.Save(path).ok());
  }
  auto pristine = fs::ReadFileToString(path);
  ASSERT_TRUE(pristine.ok());
  // Cut in the header, the metadata, both page sections, and the footer.
  const size_t n = pristine->size();
  const size_t cuts[] = {0, 1, 16, durable::kSnapshotHeaderBytes - 1,
                         durable::kSnapshotHeaderBytes + 40, n / 2,
                         n - durable::kSnapshotFooterBytes, n - 1};
  for (size_t cut : cuts) {
    WriteFile(path, pristine->substr(0, cut));
    PageFile file(512);
    BufferPool pool(&file, 4096);
    auto loaded = NNCellIndex::Load(path, &file, &pool);
    ASSERT_FALSE(loaded.ok()) << "truncation to " << cut << " bytes accepted";
    EXPECT_EQ(file.num_pages(), 0u) << "cut " << cut;
  }
  std::remove(path.c_str());
}

// Byte offsets of option words in the snapshot metadata, after algorithm,
// use_xtree and maintenance (docs/PERSISTENCE.md).
constexpr size_t kPointFilterWord = 24;
constexpr size_t kSphereRadiusWord = 32;
constexpr size_t kPartitionBudgetWord = 40;
constexpr size_t kMeasureWord = 56;

// Rewrites the metadata word at byte offset `offset` of a snapshot image
// and recomputes the metadata, body and footer checksums, so only the
// loader's structural checks stand between the edited word and the index.
std::string WithMetaWord(std::string image, size_t offset, uint64_t word) {
  const size_t meta = durable::kSnapshotHeaderBytes;
  uint64_t meta_len = 0;
  std::memcpy(&meta_len, image.data() + 56, sizeof(meta_len));
  std::memcpy(&image[meta + offset], &word, sizeof(word));
  uint32_t crc = Crc32c(image.data() + meta, meta_len);
  std::memcpy(&image[meta + meta_len], &crc, sizeof(crc));
  const size_t footer = image.size() - durable::kSnapshotFooterBytes;
  crc = Crc32c(image.data(), footer);
  std::memcpy(&image[footer + 16], &crc, sizeof(crc));
  crc = Crc32c(image.data() + footer, 20);
  std::memcpy(&image[footer + 20], &crc, sizeof(crc));
  return image;
}

Status LoadImage(const std::string& image) {
  PageFile file(512);
  BufferPool pool(&file, 4096);
  std::istringstream in(image);
  return NNCellIndex::Load(in, &file, &pool).status();
}

// The saved image of a 30-point d=2 index with a partition budget of 4,
// some of whose cells are decomposed.
std::string DecomposedImage() {
  PageFile file(512);
  BufferPool pool(&file, 4096);
  NNCellOptions opts;
  opts.decomposition.max_partitions = 4;
  NNCellIndex index(&pool, 2, opts);
  Status built = index.BulkBuild(GenerateUniform(30, 2, 11));
  EXPECT_TRUE(built.ok()) << built.ToString();
  size_t most = 0;
  for (uint64_t id = 0; id < index.points().size(); ++id) {
    most = std::max(most, index.CellRects(id).size());
  }
  EXPECT_GT(most, 1u);
  std::ostringstream out;
  EXPECT_TRUE(index.Save(out).ok());
  return out.str();
}

// The loaded index reserves max(1, budget) rect slots per point, so a
// budget the checksums vouch for must still be bounded and must cover
// every point's rects.
TEST(SnapshotCorruptionTest, PartitionBudgetBoundsRectSlots) {
  const std::string pristine = DecomposedImage();
  EXPECT_TRUE(LoadImage(WithMetaWord(pristine, kPartitionBudgetWord, 4)).ok());
  Status too_many = LoadImage(WithMetaWord(pristine, kPartitionBudgetWord, 1));
  EXPECT_NE(too_many.message().find("more than the partition budget"),
            std::string::npos)
      << too_many.ToString();
  Status too_big = LoadImage(
      WithMetaWord(pristine, kPartitionBudgetWord, uint64_t{1} << 62));
  EXPECT_NE(too_big.message().find("partition budget"), std::string::npos)
      << too_big.ToString();
}

// The sphere point filter, the sphere radius and the obliqueness measure
// each have one value (1, +0.0 and 0); a snapshot recording any other is
// refused, naming the field.
TEST(SnapshotCorruptionTest, FixedOptionSlotsRequireTheirValue) {
  const std::string pristine = DecomposedImage();
  Status ok = LoadImage(pristine);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
  uint64_t radius_bits = 0;
  const double radius = 0.25;
  std::memcpy(&radius_bits, &radius, sizeof(radius));
  const struct {
    size_t offset;
    uint64_t word;
    const char* field;
  } edits[] = {
      {kPointFilterWord, 0, "sphere point filter"},
      {kPointFilterWord, 2, "sphere point filter"},
      {kSphereRadiusWord, radius_bits, "sphere radius"},
      {kSphereRadiusWord, uint64_t{1} << 63, "sphere radius"},  // -0.0
      {kMeasureWord, 1, "obliqueness measure"},
  };
  for (const auto& e : edits) {
    Status st = LoadImage(WithMetaWord(pristine, e.offset, e.word));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << e.field << ": " << st.ToString();
    EXPECT_NE(st.message().find(e.field), std::string::npos)
        << e.field << ": " << st.ToString();
  }
}

class DurableCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "durable_corruption_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StatusOr<std::unique_ptr<NNCellIndex>> Open() {
    NNCellIndex::DurableOptions dopts;
    dopts.page_size = 1024;
    dopts.pool_pages = 512;
    return NNCellIndex::Open(dir_, 2, NNCellOptions(), dopts, nullptr);
  }

  std::string dir_;
};

TEST_F(DurableCorruptionTest, EveryWalBitFlipRejected) {
  PointSet pts = GenerateUniform(25, 2, 12);
  {
    auto idx = Open();
    ASSERT_TRUE(idx.ok());
    for (size_t i = 0; i < pts.size(); ++i) {
      std::vector<double> p(pts[i], pts[i] + pts.dim());
      ASSERT_TRUE((*idx)->Insert(p).ok());
    }
    ASSERT_TRUE((*idx)->Delete(9).ok());
  }
  const std::string wal_path = dir_ + "/" + durable::kWalFileName;
  auto pristine = fs::ReadFileToString(wal_path);
  ASSERT_TRUE(pristine.ok());
  ASSERT_GT(pristine->size(), durable::kWalHeaderBytes);
  ASSERT_TRUE(Open().ok());  // sanity: unmodified log recovers

  // Every record in a cleanly written log is complete, so there is no
  // legitimate torn region: EVERY flipped bit must surface as an error --
  // in particular none may reclassify intact acked records as a torn tail.
  for (size_t off = 0; off < pristine->size(); ++off) {
    std::string damaged = *pristine;
    damaged[off] ^= static_cast<char>(1u << (off % 8));
    WriteFile(wal_path, damaged);
    auto reopened = Open();
    ASSERT_FALSE(reopened.ok())
        << "wal bit flip at byte " << off << " of " << pristine->size()
        << " went undetected";
  }
}

TEST_F(DurableCorruptionTest, SnapshotFlipFailsOpenLoudly) {
  {
    auto idx = Open();
    ASSERT_TRUE(idx.ok());
    ASSERT_TRUE((*idx)->BulkBuild(GenerateUniform(20, 2, 13)).ok());
  }
  const std::string snap_path = dir_ + "/" + durable::kSnapshotFileName;
  auto pristine = fs::ReadFileToString(snap_path);
  ASSERT_TRUE(pristine.ok());
  for (size_t off : SampleOffsets(pristine->size(), 96, 32)) {
    std::string damaged = *pristine;
    damaged[off] ^= static_cast<char>(1u << (off % 8));
    WriteFile(snap_path, damaged);
    // Open must fail -- never fall back to an empty index while a
    // (damaged) snapshot exists.
    auto reopened = Open();
    ASSERT_FALSE(reopened.ok())
        << "snapshot bit flip at byte " << off << " opened anyway";
  }
}

}  // namespace
}  // namespace nncell
