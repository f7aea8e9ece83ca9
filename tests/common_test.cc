#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/distance.h"
#include "common/failpoint.h"
#include "common/hyper_rect.h"
#include "common/point_set.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace nncell {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_NE(s.ToString().find("NOT_FOUND"), std::string::npos);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("bad");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformMean) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.NextDouble());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(RngTest, IndexInRange) {
  Rng rng(3);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[rng.NextIndex(10)];
  for (int h : hits) EXPECT_GT(h, 700);  // roughly uniform
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.NextGaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(HyperRectTest, UnitCube) {
  HyperRect r = HyperRect::UnitCube(4);
  EXPECT_EQ(r.dim(), 4u);
  EXPECT_DOUBLE_EQ(r.Volume(), 1.0);
  EXPECT_FALSE(r.IsEmpty());
}

TEST(HyperRectTest, EmptyRect) {
  HyperRect r = HyperRect::Empty(3);
  EXPECT_TRUE(r.IsEmpty());
  EXPECT_DOUBLE_EQ(r.Volume(), 0.0);
  double p[3] = {0.5, 0.5, 0.5};
  r.ExpandToPoint(p);
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_DOUBLE_EQ(r.Volume(), 0.0);  // degenerate but not empty
  EXPECT_TRUE(r.ContainsPoint(p));
}

TEST(HyperRectTest, ContainsAndIntersects) {
  HyperRect a({0.0, 0.0}, {1.0, 1.0});
  HyperRect b({0.25, 0.25}, {0.5, 0.5});
  HyperRect c({2.0, 2.0}, {3.0, 3.0});
  EXPECT_TRUE(a.ContainsRect(b));
  EXPECT_FALSE(b.ContainsRect(a));
  EXPECT_TRUE(RawIntersects(a.lo(), a.hi(), b.lo(), b.hi(), 2));
  EXPECT_FALSE(RawIntersects(a.lo(), a.hi(), c.lo(), c.hi(), 2));
  // Touching rectangles intersect.
  HyperRect t({1.0, 0.0}, {2.0, 1.0});
  EXPECT_TRUE(RawIntersects(a.lo(), a.hi(), t.lo(), t.hi(), 2));
}

TEST(HyperRectTest, UnionIntersectionOverlap) {
  HyperRect a({0.0, 0.0}, {2.0, 1.0});
  HyperRect b({1.0, 0.5}, {3.0, 2.0});
  HyperRect u = a;
  u.ExpandToRect(b);
  EXPECT_EQ(u, HyperRect({0.0, 0.0}, {3.0, 2.0}));
  HyperRect i = HyperRect::Intersection(a, b);
  EXPECT_EQ(i, HyperRect({1.0, 0.5}, {2.0, 1.0}));
  EXPECT_DOUBLE_EQ(RawOverlapVolume(a.lo(), a.hi(), b.lo(), b.hi(), 2), 0.5);
  HyperRect c({5.0, 5.0}, {6.0, 6.0});
  EXPECT_TRUE(HyperRect::Intersection(a, c).IsEmpty());
  EXPECT_DOUBLE_EQ(RawOverlapVolume(a.lo(), a.hi(), c.lo(), c.hi(), 2), 0.0);
}

TEST(HyperRectTest, Enlargement) {
  HyperRect a({0.0, 0.0}, {1.0, 1.0});
  HyperRect b({1.0, 0.0}, {2.0, 1.0});
  // The area enlargement ChooseSubtree scores: the volume a gains when it
  // grows to also cover r.
  auto enlargement = [](const HyperRect& r, const HyperRect& by) {
    HyperRect grown = r;
    grown.ExpandToRect(by);
    return grown.Volume() - r.Volume();
  };
  EXPECT_DOUBLE_EQ(enlargement(a, b), 1.0);
  EXPECT_DOUBLE_EQ(enlargement(a, a), 0.0);
}

TEST(HyperRectTest, FromBoundsReadsLoThenHi) {
  const double lohi[4] = {0.25, 0.5, 0.75, 1.0};
  HyperRect r = HyperRect::FromBounds(lohi, 2);
  EXPECT_EQ(r, HyperRect({0.25, 0.5}, {0.75, 1.0}));
  EXPECT_EQ(r.hi(), r.lo() + 2);
  EXPECT_TRUE(SameBits(r, lohi));
}

TEST(HyperRectTest, EqualityComparesBits) {
  // -0.0 == +0.0 as doubles, but a rectangle kept on that test would leave
  // different bytes than one rewritten, so rectangles compare their bits.
  HyperRect pos({0.0, 0.5}, {1.0, 1.0});
  HyperRect neg({-0.0, 0.5}, {1.0, 1.0});
  EXPECT_FALSE(pos == neg);
  EXPECT_TRUE(pos != neg);
  EXPECT_FALSE(SameBits(pos, neg.lo()));
  EXPECT_EQ(pos, HyperRect({0.0, 0.5}, {1.0, 1.0}));
  EXPECT_FALSE(HyperRect::UnitCube(2) == HyperRect::UnitCube(3));
}

// MAXDIST: squared distance from p to the farthest corner of r, the upper
// bound MINMAXDIST must respect.
double FarthestCornerDistSq(const HyperRect& r, const double* p) {
  double s = 0.0;
  for (size_t i = 0; i < r.dim(); ++i) {
    double d = std::max(std::abs(p[i] - r.lo(i)), std::abs(p[i] - r.hi(i)));
    s += d * d;
  }
  return s;
}

TEST(HyperRectTest, MinMaxDist) {
  HyperRect r({1.0, 1.0}, {2.0, 2.0});
  double inside[2] = {1.5, 1.5};
  EXPECT_DOUBLE_EQ(RawMinDistSq(r.lo(), r.hi(), inside, 2), 0.0);
  double outside[2] = {0.0, 1.5};
  EXPECT_DOUBLE_EQ(RawMinDistSq(r.lo(), r.hi(), outside, 2), 1.0);
  EXPECT_DOUBLE_EQ(FarthestCornerDistSq(r, outside), 4.0 + 0.25);
  // MINMAXDIST is between MINDIST and MAXDIST.
  double q[2] = {0.0, 0.0};
  double mm = RawMinMaxDistSq(r.lo(), r.hi(), q, 2);
  EXPECT_LE(RawMinDistSq(r.lo(), r.hi(), q, 2), mm);
  EXPECT_LE(mm, FarthestCornerDistSq(r, q));
}

TEST(HyperRectTest, MinMaxDistGuarantee) {
  // MinMaxDist must upper-bound the distance to the nearest point stored on
  // the rectangle boundary in the worst case: verify against random point
  // placements on faces.
  Rng rng(99);
  HyperRect r({0.2, 0.3, 0.1}, {0.8, 0.9, 0.5});
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> q = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    double mm = RawMinMaxDistSq(r.lo(), r.hi(), q.data(), 3);
    EXPECT_GE(mm, RawMinDistSq(r.lo(), r.hi(), q.data(), 3) - 1e-12);
    EXPECT_LE(mm, FarthestCornerDistSq(r, q.data()) + 1e-12);
  }
}

TEST(PointSetTest, AddAndGet) {
  PointSet ps(3);
  EXPECT_TRUE(ps.empty());
  size_t i = ps.Add({0.1, 0.2, 0.3});
  size_t j = ps.Add({0.4, 0.5, 0.6});
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(j, 1u);
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_DOUBLE_EQ(ps[1][2], 0.6);
  EXPECT_EQ(ps.Get(0), (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST(PointSetTest, BoundingBox) {
  PointSet ps(2);
  ps.Add({0.1, 0.9});
  ps.Add({0.5, 0.2});
  HyperRect bb = ps.BoundingBox();
  EXPECT_EQ(bb, HyperRect({0.1, 0.2}, {0.5, 0.9}));
}

TEST(DistanceTest, L2) {
  std::vector<double> a = {0.0, 0.0, 0.0};
  std::vector<double> b = {1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(L2DistSq(a, b), 9.0);
  EXPECT_DOUBLE_EQ(L2Dist(a, b), 3.0);
  EXPECT_DOUBLE_EQ(Dot(a.data(), b.data(), 3), 0.0);
  EXPECT_DOUBLE_EQ(L2NormSq(b.data(), 3), 9.0);
}

TEST(RunningStatsTest, Moments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Crc32cTest, KnownAnswer) {
  // The canonical CRC32C check value (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string a = "hello, ";
  const std::string b = "durable world";
  const std::string ab = a + b;
  EXPECT_EQ(Crc32cExtend(Crc32c(a.data(), a.size()), b.data(), b.size()),
            Crc32c(ab.data(), ab.size()));
}

TEST(Crc32cTest, SingleBitFlipChangesValue) {
  std::string data(257, '\x5a');
  const uint32_t base = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 13) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32c(data.data(), data.size()), base)
          << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

#if NNCELL_FAILPOINTS
TEST(FailpointTest, DisarmedIsOff) {
  failpoint::DisarmAll();
  EXPECT_EQ(failpoint::Check("test.site"), failpoint::Action::kOff);
}

TEST(FailpointTest, FiresOnceThenDisarms) {
  failpoint::DisarmAll();
  failpoint::Arm("test.site", failpoint::Action::kError);
  EXPECT_EQ(failpoint::Check("test.site"), failpoint::Action::kError);
  EXPECT_EQ(failpoint::Check("test.site"), failpoint::Action::kOff);
  failpoint::DisarmAll();
}

TEST(FailpointTest, SkipDelaysFiring) {
  failpoint::DisarmAll();
  failpoint::Arm("test.site", failpoint::Action::kShortWrite, /*skip=*/2);
  EXPECT_EQ(failpoint::Check("test.site"), failpoint::Action::kOff);
  EXPECT_EQ(failpoint::Check("test.site"), failpoint::Action::kOff);
  EXPECT_EQ(failpoint::Check("test.site"), failpoint::Action::kShortWrite);
  // After firing, the site disarmed itself; with nothing armed the fast
  // path answers (and records nothing).
  EXPECT_EQ(failpoint::Check("test.site"), failpoint::Action::kOff);
  EXPECT_EQ(failpoint::Evaluations("test.site"), 3u);
  failpoint::DisarmAll();
}

TEST(FailpointTest, SitesAreIndependent) {
  failpoint::DisarmAll();
  failpoint::Arm("test.a", failpoint::Action::kError);
  EXPECT_EQ(failpoint::Check("test.b"), failpoint::Action::kOff);
  EXPECT_EQ(failpoint::Check("test.a"), failpoint::Action::kError);
  failpoint::DisarmAll();
}
#endif  // NNCELL_FAILPOINTS

}  // namespace
}  // namespace nncell
