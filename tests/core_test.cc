// Tests for the paper's core contribution (src/core): corner bites and
// the MAP/JB/XJB bounding predicates. The central properties:
//
//  * no bite ever contains a content element (covering preserved),
//  * JaggedMinDistance is an admissible lower bound on the distance to
//    any covered point, and exact when the clamp point is in the region,
//  * the maximal-bite construction dominates the Figure-13 nibble,
//  * codecs round-trip and match Table 3 sizes,
//  * auto-X selection never grows the estimated tree height, and every
//    build path (in-memory, durable) resolves it from the points it
//    loads.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "core/bites.h"
#include "core/durable_index.h"
#include "core/index_factory.h"
#include "core/jagged.h"
#include "core/map_tree.h"
#include "tests/test_helpers.h"
#include "util/random.h"

namespace bw::core {
namespace {

std::vector<geom::Rect> AsRects(const std::vector<geom::Vec>& points) {
  std::vector<geom::Rect> rects;
  rects.reserve(points.size());
  for (const auto& p : points) rects.emplace_back(p);
  return rects;
}

// ---------------------------------------------------------------------------
// Bites
// ---------------------------------------------------------------------------

class BiteConstructionTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BiteConstructionTest, NibbledBitesContainNoContent) {
  const size_t dim = GetParam();
  Rng rng(dim * 100 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto points =
        testing::MakeClusteredPoints(60, dim, 3, trial * 7 + dim);
    const auto contents = AsRects(points);
    const geom::Rect mbr = geom::Rect::BoundingBox(points);
    const std::vector<std::vector<Bite>> constructions = {
        NibbleAllCorners(mbr, contents), MaxVolumeCorners(mbr, contents)};
    for (const auto& bites : constructions) {
      for (const Bite& bite : bites) {
        for (const auto& p : points) {
          EXPECT_FALSE(PointInsideBite(mbr, bite, p))
              << "dim=" << dim << " corner=" << bite.corner;
        }
      }
    }
  }
}

TEST_P(BiteConstructionTest, MaxVolumeDominatesNibble) {
  const size_t dim = GetParam();
  for (int trial = 0; trial < 10; ++trial) {
    const auto points =
        testing::MakeClusteredPoints(50, dim, 2, trial * 13 + dim);
    const auto contents = AsRects(points);
    const geom::Rect mbr = geom::Rect::BoundingBox(points);
    const auto nibbled = NibbleAllCorners(mbr, contents);
    const auto maximal = MaxVolumeCorners(mbr, contents);
    ASSERT_EQ(nibbled.size(), maximal.size());
    for (size_t c = 0; c < nibbled.size(); ++c) {
      EXPECT_GE(maximal[c].Volume(mbr), nibbled[c].Volume(mbr) - 1e-12);
    }
  }
}

TEST_P(BiteConstructionTest, JaggedMinDistanceIsAdmissible) {
  const size_t dim = GetParam();
  Rng rng(dim * 31);
  for (int trial = 0; trial < 15; ++trial) {
    const auto points =
        testing::MakeClusteredPoints(40, dim, 2, trial * 3 + dim * 11);
    const auto contents = AsRects(points);
    const geom::Rect mbr = geom::Rect::BoundingBox(points);
    const auto bites = MaxVolumeCorners(mbr, contents);
    const auto queries = testing::MakeUniformPoints(30, dim, trial + 5);
    for (const auto& q : queries) {
      const double bound = JaggedMinDistance(mbr, bites, q);
      for (const auto& p : points) {
        EXPECT_LE(bound, q.DistanceTo(p) + 1e-5)
            << "bound must never exceed a covered point's distance";
      }
      // And it is at least as tight as the raw MBR bound.
      EXPECT_GE(bound + 1e-9, std::sqrt(mbr.MinDistanceSquared(q)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BiteConstructionTest,
                         ::testing::Values(2, 3, 5, 7),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "D" + std::to_string(info.param);
                         });

TEST(BiteTest, KnownTwoDimensionalDiagonal) {
  // Points on the diagonal of the unit square: the off-diagonal corners
  // must receive non-empty bites; the diagonal corners must not.
  std::vector<geom::Vec> points;
  for (int i = 0; i <= 10; ++i) {
    points.push_back(geom::Vec{float(i) / 10.0f, float(i) / 10.0f});
  }
  const geom::Rect mbr = geom::Rect::BoundingBox(points);
  const auto bites = NibbleAllCorners(mbr, AsRects(points));
  ASSERT_EQ(bites.size(), 4u);
  EXPECT_TRUE(bites[0b00].IsEmpty(mbr));   // (lo, lo): on the diagonal.
  EXPECT_TRUE(bites[0b11].IsEmpty(mbr));   // (hi, hi): on the diagonal.
  EXPECT_FALSE(bites[0b01].IsEmpty(mbr));  // (hi, lo): empty corner.
  EXPECT_FALSE(bites[0b10].IsEmpty(mbr));  // (lo, hi): empty corner.
  // The bite at (hi_x, lo_y) shields a query beyond that corner.
  const geom::Vec graze{1.05f, -0.05f};
  const double jagged = JaggedMinDistance(mbr, bites, graze);
  const double plain = std::sqrt(mbr.MinDistanceSquared(graze));
  EXPECT_GT(jagged, plain + 0.1);
}

TEST(BiteTest, SinglePointMbrHasNoBites) {
  std::vector<geom::Vec> points = {geom::Vec{1.0f, 2.0f, 3.0f}};
  const geom::Rect mbr = geom::Rect::BoundingBox(points);
  for (const Bite& b : NibbleAllCorners(mbr, AsRects(points))) {
    EXPECT_TRUE(b.IsEmpty(mbr));
  }
}

TEST(BiteTest, RectContentsRespected) {
  // Contents given as rectangles (internal tree levels): bites must not
  // intersect any child rect.
  Rng rng(71);
  std::vector<geom::Rect> children;
  for (int i = 0; i < 12; ++i) {
    auto pts = testing::MakeUniformPoints(2, 3, i * 5 + 2);
    children.push_back(geom::Rect::BoundingBox(pts));
  }
  const geom::Rect mbr = geom::Rect::BoundingBoxOfRects(children);
  for (const Bite& bite : MaxVolumeCorners(mbr, children)) {
    if (bite.IsEmpty(mbr)) continue;
    for (const auto& child : children) {
      EXPECT_FALSE(RectIntersectsBite(mbr, bite, child));
    }
  }
}

// ---------------------------------------------------------------------------
// MAP
// ---------------------------------------------------------------------------

TEST(MapTest, PairVolumeCountsOverlapOnce) {
  geom::Rect a(geom::Vec{0.0f, 0.0f}, geom::Vec{2.0f, 2.0f});
  geom::Rect b(geom::Vec{1.0f, 1.0f}, geom::Vec{3.0f, 3.0f});
  EXPECT_DOUBLE_EQ(MapExtension::PairVolume(a, b), 4.0 + 4.0 - 1.0);
}

TEST(MapTest, BpCoversAllPointsAndBeatsOrMatchesMbr) {
  MapExtension ext(4, 42, 0.4, 512);
  for (int trial = 0; trial < 10; ++trial) {
    // Two separated clusters: the two-rectangle BP should enclose less
    // volume than the single MBR.
    const auto points = testing::MakeClusteredPoints(80, 4, 2, trial * 9 + 1);
    const gist::Bytes bp = ext.BpFromPoints(points);
    auto [a, b] = ext.DecodePair(bp);
    for (const auto& p : points) {
      EXPECT_TRUE(a.Contains(p) || b.Contains(p));
      EXPECT_DOUBLE_EQ(ext.BpMinDistance(bp, p), 0.0);
    }
    const geom::Rect mbr = geom::Rect::BoundingBox(points);
    EXPECT_LE(MapExtension::PairVolume(a, b), mbr.Volume() + 1e-9);
  }
}

TEST(MapTest, CodecRoundTrips) {
  MapExtension ext(3);
  geom::Rect a(geom::Vec{0.0f, 1.0f, 2.0f}, geom::Vec{3.0f, 4.0f, 5.0f});
  geom::Rect b(geom::Vec{-1.0f, -2.0f, -3.0f}, geom::Vec{0.5f, 0.5f, 0.5f});
  auto [da, db] = ext.DecodePair(ext.EncodePair(a, b));
  EXPECT_EQ(da, a);
  EXPECT_EQ(db, b);
}

TEST(MapTest, MinDistanceIsMinOverRects) {
  MapExtension ext(2);
  geom::Rect a(geom::Vec{0.0f, 0.0f}, geom::Vec{1.0f, 1.0f});
  geom::Rect b(geom::Vec{5.0f, 0.0f}, geom::Vec{6.0f, 1.0f});
  const gist::Bytes bp = ext.EncodePair(a, b);
  EXPECT_NEAR(ext.BpMinDistance(bp, geom::Vec{4.5f, 0.5f}), 0.5, 1e-6);
  EXPECT_NEAR(ext.BpMinDistance(bp, geom::Vec{1.5f, 0.5f}), 0.5, 1e-6);
}

// ---------------------------------------------------------------------------
// JB / XJB codecs
// ---------------------------------------------------------------------------

TEST(JbTest, CodecSizeMatchesTable3) {
  for (size_t d : {2u, 3u, 5u}) {
    JbExtension ext(d);
    const auto points = testing::MakeClusteredPoints(50, d, 3, d);
    EXPECT_EQ(ext.BpFromPoints(points).size(),
              (2 + (size_t{1} << d)) * d * sizeof(float));
  }
}

TEST(JbTest, DecodePreservesAllCorners) {
  JbExtension ext(3);
  const auto points = testing::MakeClusteredPoints(40, 3, 2, 9);
  const JaggedBp bp = ext.Decode(ext.BpFromPoints(points));
  EXPECT_EQ(bp.bites.size(), 8u);
  for (size_t c = 0; c < 8; ++c) {
    EXPECT_EQ(bp.bites[c].corner, c);
  }
  EXPECT_EQ(bp.mbr, geom::Rect::BoundingBox(points));
}

TEST(XjbTest, CodecSizeMatchesTable3) {
  for (size_t x : {1u, 4u, 10u}) {
    XjbExtension ext(5, x);
    const auto points = testing::MakeClusteredPoints(50, 5, 3, x);
    EXPECT_EQ(ext.BpFromPoints(points).size(),
              (2 * 5 + (5 + 1) * x) * sizeof(float));
  }
}

TEST(XjbTest, KeepsLargestBites) {
  // XJB with X=2 must keep the two largest-volume bites of the full set.
  XjbExtension xjb(3, 2);
  JbExtension jb(3);
  const auto points = testing::MakeClusteredPoints(60, 3, 2, 77);
  const JaggedBp all = jb.Decode(jb.BpFromPoints(points));
  const JaggedBp top = xjb.Decode(xjb.BpFromPoints(points));
  ASSERT_LE(top.bites.size(), 2u);
  // Volume of kept bites must be the max volumes among all corners.
  std::vector<double> volumes;
  for (const Bite& b : all.bites) volumes.push_back(b.Volume(all.mbr));
  std::sort(volumes.rbegin(), volumes.rend());
  for (size_t i = 0; i < top.bites.size(); ++i) {
    EXPECT_NEAR(top.bites[i].Volume(top.mbr), volumes[i], 1e-9);
  }
}

TEST(XjbTest, MoreBitesNeverLoosenTheBound) {
  const auto points = testing::MakeClusteredPoints(80, 4, 3, 5);
  const auto queries = testing::MakeUniformPoints(40, 4, 6);
  XjbExtension x2(4, 2);
  XjbExtension x8(4, 8);
  JbExtension full(4);
  const gist::Bytes bp2 = x2.BpFromPoints(points);
  const gist::Bytes bp8 = x8.BpFromPoints(points);
  const gist::Bytes bpf = full.BpFromPoints(points);
  for (const auto& q : queries) {
    const double d2 = x2.BpMinDistance(bp2, q);
    const double d8 = x8.BpMinDistance(bp8, q);
    const double df = full.BpMinDistance(bpf, q);
    EXPECT_LE(d2, d8 + 1e-9);
    EXPECT_LE(d8, df + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Auto-X selection
// ---------------------------------------------------------------------------

TEST(AutoXTest, HeightEstimateMonotoneInX) {
  for (size_t x = 1; x < 32; ++x) {
    EXPECT_LE(EstimateXjbHeight(100000, 5, x, 4096, 0.85),
              EstimateXjbHeight(100000, 5, x + 1, 4096, 0.85));
  }
}

TEST(AutoXTest, SelectedXDoesNotAddALevel) {
  for (size_t n : {5000u, 50000u, 221231u}) {
    const size_t x = AutoSelectXjbX(n, 5, 4096, 0.85);
    EXPECT_GE(x, 1u);
    EXPECT_LE(x, 32u);
    EXPECT_EQ(EstimateXjbHeight(n, 5, x, 4096, 0.85),
              EstimateXjbHeight(n, 5, 1, 4096, 0.85));
    // Maximality: X+1 either exceeds the corner count or adds a level.
    if (x < 32) {
      EXPECT_GT(EstimateXjbHeight(n, 5, x + 1, 4096, 0.85),
                EstimateXjbHeight(n, 5, 1, 4096, 0.85));
    }
  }
}

// The durable build resolves auto-X exactly as the in-memory one does:
// same X, same height, same pages plus the durable meta page.

std::string DurableStem(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "bw_core_autox_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir + "/index";
}

IndexBuildOptions AutoXOptions() {
  IndexBuildOptions options;
  options.am = "xjb";
  options.xjb_x = 0;
  options.page_bytes = 4096;
  return options;
}

// Reports the durable tree's X and height through `x` / `height`.
void ExpectDurableMatchesInMemory(const std::vector<geom::Vec>& points,
                                  const std::string& name,
                                  uint32_t* x = nullptr,
                                  int* height = nullptr) {
  const IndexBuildOptions options = AutoXOptions();
  auto in_memory = BuildIndex(points, options);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  const std::string stem = DurableStem(name);
  auto durable =
      BuildDurableIndex(points, options, stem + ".bwpf", stem + ".bwwal");
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  const gist::Tree& a = (*in_memory)->tree();
  const gist::Tree& b = (*durable)->tree();
  EXPECT_EQ(b.extension().AuxParam(), a.extension().AuxParam());
  EXPECT_EQ(b.extension().AuxParam(),
            AutoSelectXjbX(points.size(), points[0].dim(), options.page_bytes,
                           options.fill_fraction));
  EXPECT_EQ(b.height(), a.height());
  EXPECT_EQ(b.height(),
            EstimateXjbHeight(points.size(), points[0].dim(),
                              b.extension().AuxParam(), options.page_bytes,
                              options.fill_fraction));
  EXPECT_EQ((*durable)->store().pages()->page_count(),
            (*in_memory)->file().page_count() + 1);  // + meta page.
  if (x != nullptr) *x = b.extension().AuxParam();
  if (height != nullptr) *height = b.height();
}

TEST(DurableAutoXTest, SmallBuildsMatchInMemoryAndTheEstimate) {
  // 5-D, 4 KB pages: X = 10 / 2 at height 2, X = 15 at height 3.
  for (size_t n : {1000u, 3000u, 5000u}) {
    SCOPED_TRACE(n);
    ExpectDurableMatchesInMemory(testing::MakeClusteredPoints(n, 5, 6, n),
                                 "small_" + std::to_string(n));
  }
}

TEST(DurableAutoXTest, ServedScaleIndexKeepsSevenBitesAtHeightThree) {
  // The served index: 20 000 5-D blobs on 4 KB pages. Keeping all 32
  // bites would make it five levels tall.
  uint32_t x = 0;
  int height = 0;
  ExpectDurableMatchesInMemory(
      testing::MakeClusteredPoints(20000, 5, 12, 2000), "served", &x, &height);
  EXPECT_EQ(x, 7u);
  EXPECT_EQ(height, 3);
}

TEST(DurableAutoXTest, ReopenServesTheStoredX) {
  const auto points = testing::MakeClusteredPoints(1000, 5, 6, 77);
  for (size_t x : {size_t{0}, size_t{32}}) {
    SCOPED_TRACE(x);
    IndexBuildOptions options = AutoXOptions();
    options.xjb_x = x;
    const std::string stem = DurableStem("reopen_" + std::to_string(x));
    uint32_t built_x = 0;
    {
      auto built = BuildDurableIndex(points, options, stem + ".bwpf",
                                     stem + ".bwwal");
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      built_x = (*built)->tree().extension().AuxParam();
    }
    EXPECT_EQ(built_x, x == 0 ? AutoSelectXjbX(1000, 5, 4096, 0.85) : x);
    // Reopen with default options: X comes from the meta page.
    auto reopened = OpenDurableIndex(stem + ".bwpf", stem + ".bwwal");
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->tree().extension().AuxParam(), built_x);
  }
}

TEST(DurableAutoXTest, EmptyCreateRejectsAutoXButTakesAnExplicitX) {
  IndexBuildOptions options = AutoXOptions();
  EXPECT_EQ(MakeExtension(5, options, /*num_points_hint=*/0).status().code(),
            StatusCode::kInvalidArgument);
  std::string stem = DurableStem("empty_auto");
  auto rejected = CreateDurableIndex(stem + ".bwpf", stem + ".bwwal", 5,
                                     options);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
      << rejected.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(stem + ".bwpf"));  // nothing created.

  options.xjb_x = 7;
  stem = DurableStem("empty_explicit");
  auto created =
      CreateDurableIndex(stem + ".bwpf", stem + ".bwwal", 5, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ((*created)->tree().extension().AuxParam(), 7u);
}

}  // namespace
}  // namespace bw::core
