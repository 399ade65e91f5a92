#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "net/spatial_grid.h"
#include "util/rng.h"

/// Property tests for the contact-scan kernels: `pairs_within` (the SSE2
/// kernel on targets with `__SSE2__`, the scalar one elsewhere) must produce
/// a sorted pair stream *bit-identical* — ids and distance doubles — to the
/// scalar reference kernel, for any population, radius and churn history.
/// This is the invariant the fig5x determinism guarantee stands on.

namespace dtnic::net {

/// Test-only access to the scalar reference kernel.
struct SpatialGridTestPeer {
  static std::vector<SpatialGrid::Pair> scalar_pairs(const SpatialGrid& grid, double radius) {
    std::vector<SpatialGrid::Pair> out;
    grid.scan_with(&SpatialGrid::scan_kernel_scalar, radius, out);
    return out;
  }
};

namespace {

using util::NodeId;
using util::Vec2;
using Pair = SpatialGrid::Pair;

/// Bitwise comparison including the distance doubles (Pair has no padding:
/// 4 + 4 + 8 bytes).
[[nodiscard]] bool bit_identical(const std::vector<Pair>& a, const std::vector<Pair>& b) {
  static_assert(sizeof(Pair) == 16);
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(Pair)) == 0;
}

/// Scan \p grid with the compiled kernel and with the scalar reference.
void expect_kernels_agree(const SpatialGrid& grid, double radius, int round = -1) {
  const std::vector<Pair> reference = SpatialGridTestPeer::scalar_pairs(grid, radius);
  std::vector<Pair> got;
  grid.pairs_within(radius, got);
  EXPECT_TRUE(bit_identical(reference, got))
      << "compiled kernel diverged from scalar (radius " << radius << ", round " << round << ")";
}

TEST(ScanVariantTest, ScalarAlwaysSupported) {
  // The scalar kernel is compiled into every build, so the oracle the other
  // tests compare against is always there. Check the oracle itself against
  // a brute-force all-pairs enumeration with the same d² expression, on a
  // population with negative coordinates and overflowing cells.
  util::Rng rng(11);
  SpatialGrid grid(50.0);
  std::vector<Vec2> pos;
  for (std::uint32_t i = 0; i < 160; ++i) {
    pos.push_back({rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0)});
    grid.insert(NodeId(i), pos.back());
  }
  std::vector<Pair> brute;
  for (std::uint32_t i = 0; i < pos.size(); ++i) {
    for (std::uint32_t j = i + 1; j < pos.size(); ++j) {
      const double dx = pos[i].x - pos[j].x;
      const double dy = pos[i].y - pos[j].y;
      const double d2 = dx * dx + dy * dy;
      if (d2 <= 50.0 * 50.0) brute.push_back(Pair{NodeId(i), NodeId(j), std::sqrt(d2)});
    }
  }
  ASSERT_GT(brute.size(), 100u);
  EXPECT_TRUE(bit_identical(brute, SpatialGridTestPeer::scalar_pairs(grid, 50.0)));
}

TEST(ScanVariantTest, RandomizedChurnBitIdenticalAcrossVariants) {
  util::Rng rng(20240807);
  SpatialGrid grid(100.0);
  const int n = 300;
  std::vector<std::size_t> slots;
  std::vector<Vec2> pos(n);
  for (int i = 0; i < n; ++i) {
    // Include negative coordinates so coord()'s floor path is exercised.
    pos[i] = {rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0)};
    slots.push_back(grid.insert(NodeId(static_cast<std::uint32_t>(i)), pos[i]));
  }
  const double radii[] = {25.0, 60.0, 100.0};
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < n; ++i) {
      if (rng.below(20) == 0) {
        // Teleport: long-range cell churn, creates and prunes cells.
        pos[i] = {rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0)};
      } else {
        pos[i].x += rng.uniform(-30.0, 30.0);
        pos[i].y += rng.uniform(-30.0, 30.0);
      }
      grid.update_slot(slots[static_cast<std::size_t>(i)], pos[i]);
    }
    expect_kernels_agree(grid, radii[round % 3], round);
  }
}

TEST(ScanVariantTest, BoundaryAndCoincidentDistances) {
  SpatialGrid grid(100.0);
  grid.insert(NodeId(1), {0.0, 0.0});
  grid.insert(NodeId(2), {100.0, 0.0});  // exactly at the radius: included
  grid.insert(NodeId(3), {0.0, 0.0});    // coincident: distance 0
  // Just outside: dx is exactly 0 so d^2 = (100 + 1e-9)^2, which is
  // representably greater than 100^2. (A 1e-9 nudge on the *other* axis
  // would vanish: 10000 + 1e-18 rounds back to 10000 and passes the test.)
  grid.insert(NodeId(4), {100.0, 100.0 + 1e-9});
  for (const std::vector<Pair>& pairs :
       {grid.pairs_within(100.0), SpatialGridTestPeer::scalar_pairs(grid, 100.0)}) {
    ASSERT_EQ(pairs.size(), 3u);
    EXPECT_EQ(pairs[0].a, NodeId(1));
    EXPECT_EQ(pairs[0].b, NodeId(2));
    EXPECT_EQ(pairs[0].distance_m, 100.0);
    EXPECT_EQ(pairs[1].b, NodeId(3));
    EXPECT_EQ(pairs[1].distance_m, 0.0);
    EXPECT_EQ(pairs[2].a, NodeId(2));
    EXPECT_EQ(pairs[2].b, NodeId(3));
  }
  expect_kernels_agree(grid, 100.0);
}

TEST(ScanVariantTest, OverflowCellsTakeIdenticalFallback) {
  // Cram well past kInline entries into single cells so the SSE2 kernel
  // routes those cells through the scalar fallback; output must stay
  // bit-identical, including pairs between an overflowing cell and a
  // vectorizable neighbor.
  util::Rng rng(7);
  SpatialGrid grid(100.0);
  std::uint32_t id = 0;
  for (int i = 0; i < 12; ++i) {  // one crowded cell
    grid.insert(NodeId(++id), {10.0 + rng.uniform(0.0, 80.0), 10.0 + rng.uniform(0.0, 80.0)});
  }
  for (int i = 0; i < 3; ++i) {  // sparse neighbor cell (vector path)
    grid.insert(NodeId(++id), {110.0 + rng.uniform(0.0, 80.0), 10.0 + rng.uniform(0.0, 80.0)});
  }
  ASSERT_GT(SpatialGridTestPeer::scalar_pairs(grid, 100.0).size(), 60u);
  expect_kernels_agree(grid, 100.0);
}

}  // namespace
}  // namespace dtnic::net
