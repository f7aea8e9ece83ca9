// Round-trip tests for index persistence: a saved and reloaded index must
// answer every query identically and remain fully mutable.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

TEST(PageFilePersistenceTest, RoundTrip) {
  PageFile file(256);
  PageId a = file.Allocate();
  PageId b = file.Allocate();
  std::vector<uint8_t> data(256, 0x5a);
  file.Write(a, data.data());
  file.Free(b);

  std::stringstream stream;
  ASSERT_TRUE(file.SaveTo(stream).ok());

  PageFile restored(256);
  ASSERT_TRUE(restored.LoadFrom(stream).ok());
  EXPECT_EQ(restored.num_pages(), 2u);
  std::vector<uint8_t> out(256);
  restored.Read(a, out.data());
  EXPECT_EQ(out, data);
  // Free list survives: next allocation reuses b.
  EXPECT_EQ(restored.Allocate(), b);
}

TEST(PageFilePersistenceTest, PageSizeMismatchRejected) {
  PageFile file(256);
  file.Allocate();
  std::stringstream stream;
  ASSERT_TRUE(file.SaveTo(stream).ok());
  PageFile other(512);
  EXPECT_FALSE(other.LoadFrom(stream).ok());
}

TEST(PageFilePersistenceTest, GarbageRejected) {
  std::stringstream stream("this is not a page file at all............");
  PageFile file(256);
  EXPECT_FALSE(file.LoadFrom(stream).ok());
}

struct SavedIndex {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<NNCellIndex> index;
};

SavedIndex BuildSample(size_t dim, size_t n, NNCellOptions opts,
                       uint64_t seed) {
  SavedIndex s;
  s.file = std::make_unique<PageFile>(2048);
  s.pool = std::make_unique<BufferPool>(s.file.get(), 8192);
  s.index = std::make_unique<NNCellIndex>(s.pool.get(), dim, opts);
  EXPECT_TRUE(s.index->BulkBuild(GenerateUniform(n, dim, seed)).ok());
  return s;
}

TEST(IndexPersistenceTest, RoundTripQueriesIdentical) {
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kSphere;
  SavedIndex original = BuildSample(4, 150, opts, 1);

  std::stringstream stream;
  ASSERT_TRUE(original.index->Save(stream).ok());

  PageFile file(2048);
  BufferPool pool(&file, 8192);
  auto loaded = NNCellIndex::Load(stream, &file, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->size(), original.index->size());
  EXPECT_EQ((*loaded)->dim(), original.index->dim());
  EXPECT_EQ((*loaded)->ValidateTree(), "");
  EXPECT_NEAR((*loaded)->ExpectedCandidates(),
              original.index->ExpectedCandidates(), 1e-12);

  PointSet queries = GenerateQueries(100, 4, 2);
  for (size_t t = 0; t < queries.size(); ++t) {
    auto a = original.index->Query(queries[t]);
    auto b = (*loaded)->Query(queries[t]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->id, b->id) << t;
    EXPECT_DOUBLE_EQ(a->dist, b->dist);
    EXPECT_EQ(a->candidates, b->candidates);
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The exact plan is not persisted: Load works it out again from the
// restored cells, so it equals the saved index's own plan (for a scan and
// for a cell-probe index), and a forced plan does not survive the image.
TEST(IndexPersistenceTest, ExactPlanIdenticalAfterLoad) {
  for (size_t dim : {2u, 8u}) {
    SavedIndex original = BuildSample(dim, dim == 2 ? 600 : 100,
                                      NNCellOptions{}, 5);
    const ExactPlan plan = original.index->exact_plan();
    EXPECT_EQ(plan, dim == 2 ? ExactPlan::kCellProbe : ExactPlan::kScan);
    original.index->SetExactPlan(plan == ExactPlan::kScan
                                     ? ExactPlan::kCellProbe
                                     : ExactPlan::kScan);
    std::stringstream stream;
    ASSERT_TRUE(original.index->Save(stream).ok());

    PageFile file(2048);
    BufferPool pool(&file, 8192);
    auto loaded = NNCellIndex::Load(stream, &file, &pool);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->exact_plan(), plan) << "d=" << dim;
    EXPECT_TRUE(SameBits((*loaded)->ExpectedCandidates(),
                         original.index->ExpectedCandidates()));
  }
}

// WAL replay re-applies the logged writes without working out the plan
// per record; Open works it out once at the end, and it must equal the
// plan the live index had when it stopped. The writes cross the flip.
TEST(IndexPersistenceTest, ExactPlanIdenticalAfterWalReplay) {
  const std::string dir = ::testing::TempDir() + "exact_plan_wal_replay";
  std::filesystem::remove_all(dir);
  NNCellIndex::DurableOptions dopts;
  dopts.page_size = 2048;
  dopts.wal_group_sync = 64;
  ExactPlan before = ExactPlan::kAuto;
  double expected_before = 0.0;
  {
    auto idx = NNCellIndex::Open(dir, 2, NNCellOptions{}, dopts);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    ASSERT_TRUE((*idx)->BulkBuild(GenerateUniform(80, 2, 6)).ok());
    EXPECT_EQ((*idx)->exact_plan(), ExactPlan::kScan);
    Rng rng(7);
    while ((*idx)->exact_plan() == ExactPlan::kScan &&
           (*idx)->size() < 2000) {
      ASSERT_TRUE((*idx)->Insert({rng.NextDouble(), rng.NextDouble()}).ok());
    }
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*idx)->Insert({rng.NextDouble(), rng.NextDouble()}).ok());
    }
    for (uint64_t id = 0; id < 20; ++id) {
      ASSERT_TRUE((*idx)->Delete(id).ok());
    }
    before = (*idx)->exact_plan();
    expected_before = (*idx)->ExpectedCandidates();
  }
  EXPECT_EQ(before, ExactPlan::kCellProbe);
  NNCellIndex::RecoveryInfo info;
  auto reopened = NNCellIndex::Open(dir, 2, NNCellOptions{}, dopts, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT(info.wal_records_replayed, 100u);
  EXPECT_EQ((*reopened)->exact_plan(), before);
  EXPECT_TRUE(SameBits((*reopened)->ExpectedCandidates(), expected_before));
  std::filesystem::remove_all(dir);
}

TEST(IndexPersistenceTest, LoadedIndexIsMutable) {
  NNCellOptions opts;
  SavedIndex original = BuildSample(3, 100, opts, 3);
  std::stringstream stream;
  ASSERT_TRUE(original.index->Save(stream).ok());

  PageFile file(2048);
  BufferPool pool(&file, 8192);
  auto loaded = NNCellIndex::Load(stream, &file, &pool);
  ASSERT_TRUE(loaded.ok());

  // Insert, delete and re-query on the restored index.
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> p = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    auto id = (*loaded)->Insert(p);
    ASSERT_TRUE(id.ok());
    auto r = (*loaded)->Query(p.data());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->id, *id);
  }
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*loaded)->Delete(i).ok());
  }
  EXPECT_EQ((*loaded)->size(), 110u);
  EXPECT_EQ((*loaded)->ValidateTree(), "");
}

TEST(IndexPersistenceTest, PreservesDeletionsAndWeights) {
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kCorrect;
  opts.weights = {2.0, 0.5};
  SavedIndex original = BuildSample(2, 60, opts, 5);
  ASSERT_TRUE(original.index->Delete(10).ok());
  ASSERT_TRUE(original.index->Delete(11).ok());

  std::stringstream stream;
  ASSERT_TRUE(original.index->Save(stream).ok());
  PageFile file(2048);
  BufferPool pool(&file, 8192);
  auto loaded = NNCellIndex::Load(stream, &file, &pool);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ((*loaded)->size(), 58u);
  EXPECT_FALSE((*loaded)->IsAlive(10));
  EXPECT_TRUE((*loaded)->IsAlive(12));
  EXPECT_EQ((*loaded)->options().weights, opts.weights);

  PointSet queries = GenerateQueries(50, 2, 6);
  for (size_t t = 0; t < queries.size(); ++t) {
    auto a = original.index->Query(queries[t]);
    auto b = (*loaded)->Query(queries[t]);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->id, b->id);
    EXPECT_DOUBLE_EQ(a->dist, b->dist);
  }
}

TEST(IndexPersistenceTest, FileRoundTrip) {
  NNCellOptions opts;
  SavedIndex original = BuildSample(3, 80, opts, 7);
  const char* path = "/tmp/nncell_persistence_test.idx";
  ASSERT_TRUE(original.index->Save(std::string(path)).ok());

  PageFile file(2048);
  BufferPool pool(&file, 8192);
  auto loaded = NNCellIndex::Load(std::string(path), &file, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), 80u);
  std::remove(path);
}

TEST(IndexPersistenceTest, GarbageRejected) {
  std::stringstream stream("garbage bytes here, not an index.........");
  PageFile file(2048);
  BufferPool pool(&file, 64);
  auto loaded = NNCellIndex::Load(stream, &file, &pool);
  EXPECT_FALSE(loaded.ok());
}

TEST(IndexPersistenceTest, MismatchedPoolRejected) {
  NNCellOptions opts;
  SavedIndex original = BuildSample(2, 20, opts, 8);
  std::stringstream stream;
  ASSERT_TRUE(original.index->Save(stream).ok());
  PageFile file_a(2048), file_b(2048);
  BufferPool pool(&file_a, 64);
  auto loaded = NNCellIndex::Load(stream, &file_b, &pool);
  EXPECT_FALSE(loaded.ok());
}

std::string SerializeToString(const NNCellIndex& index) {
  std::stringstream stream;
  EXPECT_TRUE(index.Save(stream).ok());
  return stream.str();
}

StatusOr<std::unique_ptr<NNCellIndex>> LoadString(const std::string& image,
                                                  PageFile* file,
                                                  BufferPool* pool) {
  std::stringstream stream(image);
  return NNCellIndex::Load(stream, file, pool);
}

// Each rejection names its cause precisely (the exact phrases are part of
// the documented format contract, docs/PERSISTENCE.md).
TEST(IndexPersistenceTest, FailureModesHavePreciseErrors) {
  NNCellOptions opts;
  SavedIndex original = BuildSample(2, 30, opts, 9);
  const std::string image = SerializeToString(*original.index);

  struct Case {
    const char* name;
    size_t offset;
    const char* expect;
  };
  // Offsets per the header layout: magic at 0, version at 8.
  const Case cases[] = {
      {"magic", 0, "bad magic"},
      {"version", 8, "unsupported snapshot version"},
      {"header body", 20, "header checksum mismatch"},
  };
  for (const Case& c : cases) {
    std::string damaged = image;
    damaged[c.offset] ^= 0x04;
    PageFile file(2048);
    BufferPool pool(&file, 64);
    auto loaded = LoadString(damaged, &file, &pool);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_NE(loaded.status().message().find(c.expect), std::string::npos)
        << c.name << ": " << loaded.status().ToString();
  }

  // Truncation is named as such (the footer magic check catches it first).
  {
    PageFile file(2048);
    BufferPool pool(&file, 64);
    auto loaded = LoadString(image.substr(0, image.size() / 2), &file, &pool);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("footer"), std::string::npos)
        << loaded.status().ToString();
  }

  // Body damage behind a valid header is caught by the whole-file CRC.
  {
    std::string damaged = image;
    damaged[image.size() / 2] ^= 0x01;
    PageFile file(2048);
    BufferPool pool(&file, 64);
    auto loaded = LoadString(damaged, &file, &pool);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("checksum mismatch"),
              std::string::npos)
        << loaded.status().ToString();
  }

  // Page-size mismatch between snapshot and target file.
  {
    PageFile file(1024);
    BufferPool pool(&file, 64);
    auto loaded = LoadString(image, &file, &pool);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("page size"), std::string::npos)
        << loaded.status().ToString();
  }
}

// A failed load must leave a previously loaded index -- and the PageFile /
// BufferPool it lives in -- completely untouched (the all-or-nothing
// contract: validate everything, then commit).
TEST(IndexPersistenceTest, FailedLoadLeavesExistingStateUntouched) {
  NNCellOptions opts;
  SavedIndex original = BuildSample(3, 80, opts, 14);
  const std::string image = SerializeToString(*original.index);

  PointSet queries = GenerateQueries(60, 3, 15);
  std::vector<uint64_t> before_ids;
  for (size_t t = 0; t < queries.size(); ++t) {
    auto r = original.index->Query(queries[t]);
    ASSERT_TRUE(r.ok());
    before_ids.push_back(r->id);
  }
  const size_t before_pages = original.file->num_pages();

  // Try to load progressively damaged images into the live index's own
  // file and pool; every attempt must fail and change nothing.
  for (size_t tweak = 0; tweak < 6; ++tweak) {
    std::string damaged = image;
    damaged[(tweak * 131) % image.size()] ^= static_cast<char>(1u << tweak);
    auto loaded = LoadString(damaged, original.file.get(),
                             original.pool.get());
    ASSERT_FALSE(loaded.ok()) << "tweak " << tweak;
  }
  {
    auto loaded = LoadString(image.substr(0, image.size() - 7),
                             original.file.get(), original.pool.get());
    ASSERT_FALSE(loaded.ok());
  }

  EXPECT_EQ(original.file->num_pages(), before_pages);
  EXPECT_EQ(original.index->ValidateTree(), "");
  for (size_t t = 0; t < queries.size(); ++t) {
    auto r = original.index->Query(queries[t]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->id, before_ids[t]) << "query " << t;
  }
  ASSERT_TRUE(original.index->CheckInvariants(40).ok());
}

}  // namespace
}  // namespace nncell
