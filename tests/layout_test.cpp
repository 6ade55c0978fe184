// layout_test.cpp — the three storage layouts: round trips, tile access,
// segments, global row swaps, owner-placed pack and unpack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <tuple>

#include "src/layout/grid.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using layout::BlockRef;
using layout::Grid;
using layout::Layout;
using layout::Matrix;
using layout::PackedMatrix;
using layout::Tiling;

TEST(Grid, BestIsNearSquareRowBiased) {
  EXPECT_EQ(Grid::best(1).pr, 1);
  EXPECT_EQ(Grid::best(1).pc, 1);
  EXPECT_EQ(Grid::best(16).pr, 4);
  EXPECT_EQ(Grid::best(16).pc, 4);
  EXPECT_EQ(Grid::best(24).pr, 6);
  EXPECT_EQ(Grid::best(24).pc, 4);
  EXPECT_EQ(Grid::best(48).pr, 8);
  EXPECT_EQ(Grid::best(48).pc, 6);
  EXPECT_EQ(Grid::best(7).pr, 7);  // prime: 7x1
  EXPECT_EQ(Grid::best(7).pc, 1);
}

TEST(Grid, OwnerCycles) {
  Grid g{2, 3};
  EXPECT_EQ(g.owner(0, 0), 0);
  EXPECT_EQ(g.owner(1, 0), 3);
  EXPECT_EQ(g.owner(0, 3), 0);
  EXPECT_EQ(g.owner(3, 4), g.owner(1, 1));
  for (int t = 0; t < g.size(); ++t) {
    EXPECT_EQ(g.owner_row(t) * g.pc + g.owner_col(t), t);
  }
}

TEST(Tiling, EdgeTiles) {
  Tiling t{250, 130, 100};
  EXPECT_EQ(t.mb(), 3);
  EXPECT_EQ(t.nb(), 2);
  EXPECT_EQ(t.tile_rows(0), 100);
  EXPECT_EQ(t.tile_rows(2), 50);
  EXPECT_EQ(t.tile_cols(1), 30);
  EXPECT_EQ(t.row0(2), 200);
}

struct LayoutCase {
  Layout layout;
  int m, n, b, pr, pc;
};

class PackTest : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(PackTest, RoundTrip) {
  const auto c = GetParam();
  Matrix a = Matrix::random(c.m, c.n, 77);
  PackedMatrix p = PackedMatrix::pack(a, c.layout, c.b, Grid{c.pr, c.pc});
  Matrix out(c.m, c.n);
  p.unpack(out);
  EXPECT_EQ(test::max_abs_diff(a, out), 0.0);
}

TEST_P(PackTest, ElementAccessMatches) {
  const auto c = GetParam();
  Matrix a = Matrix::random(c.m, c.n, 78);
  PackedMatrix p = PackedMatrix::pack(a, c.layout, c.b, Grid{c.pr, c.pc});
  for (int j = 0; j < c.n; j += 7)
    for (int i = 0; i < c.m; i += 5) EXPECT_EQ(p.get(i, j), a(i, j));
}

TEST_P(PackTest, BlockDimsAndContents) {
  const auto c = GetParam();
  Matrix a = Matrix::random(c.m, c.n, 79);
  PackedMatrix p = PackedMatrix::pack(a, c.layout, c.b, Grid{c.pr, c.pc});
  const Tiling& t = p.tiling();
  for (int J = 0; J < t.nb(); ++J)
    for (int I = 0; I < t.mb(); ++I) {
      BlockRef blk = p.block(I, J);
      ASSERT_EQ(blk.rows, t.tile_rows(I));
      ASSERT_EQ(blk.cols, t.tile_cols(J));
      for (int j = 0; j < blk.cols; ++j)
        for (int i = 0; i < blk.rows; ++i)
          ASSERT_EQ(blk.ptr[i + static_cast<std::size_t>(j) * blk.ld],
                    a(t.row0(I) + i, t.col0(J) + j))
              << "tile " << I << "," << J;
    }
}

TEST_P(PackTest, GlobalRowSwapMatchesDense) {
  const auto c = GetParam();
  Matrix a = Matrix::random(c.m, c.n, 80);
  PackedMatrix p = PackedMatrix::pack(a, c.layout, c.b, Grid{c.pr, c.pc});
  // Swap across tile boundaries, partial column range.
  const int r1 = 0, r2 = c.m - 1;
  const int c0 = 1, c1 = std::max(2, c.n - 1);
  p.swap_rows_global(c0, c1, r1, r2);
  for (int j = c0; j < c1; ++j) std::swap(a(r1, j), a(r2, j));
  Matrix out(c.m, c.n);
  p.unpack(out);
  EXPECT_EQ(test::max_abs_diff(a, out), 0.0);
}

// Visits the owners in reverse order on the calling thread: a
// deterministic stand-in for the team runner that still fills and drains
// the buffers out of the serial order.
void reverse_owners(int nowners, const std::function<void(int)>& fill) {
  for (int g = nowners - 1; g >= 0; --g) fill(g);
}

TEST_P(PackTest, OwnerRunnerGivesSerialBits) {
  const auto c = GetParam();
  const Matrix a = Matrix::random(c.m, c.n, 86);
  const Grid g{c.pr, c.pc};
  const PackedMatrix serial = PackedMatrix::pack(a, c.layout, c.b, g);
  const PackedMatrix placed =
      PackedMatrix::pack(a, c.layout, c.b, g, reverse_owners);
  const Tiling& t = serial.tiling();
  for (int J = 0; J < t.nb(); ++J)
    for (int I = 0; I < t.mb(); ++I) {
      const BlockRef s = serial.block(I, J), p = placed.block(I, J);
      ASSERT_EQ(p.ld, s.ld);
      ASSERT_EQ(p.rows, s.rows);
      ASSERT_EQ(p.cols, s.cols);
      for (int j = 0; j < s.cols; ++j)
        ASSERT_EQ(std::memcmp(p.ptr + static_cast<std::size_t>(j) * p.ld,
                              s.ptr + static_cast<std::size_t>(j) * s.ld,
                              sizeof(double) * s.rows),
                  0)
            << "tile " << I << "," << J;
    }
  Matrix out = Matrix::uninitialized(c.m, c.n);
  placed.unpack(out, reverse_owners);
  EXPECT_TRUE(test::same_bits(out, a));
}

std::vector<LayoutCase> layout_cases() {
  std::vector<LayoutCase> cases;
  for (Layout l :
       {Layout::ColumnMajor, Layout::BlockCyclic, Layout::TwoLevelBlock}) {
    cases.push_back({l, 8, 8, 4, 2, 2});
    cases.push_back({l, 10, 10, 4, 2, 2});     // partial edge tiles
    cases.push_back({l, 23, 17, 5, 3, 2});     // odd everything
    cases.push_back({l, 100, 100, 25, 4, 2});
    cases.push_back({l, 7, 31, 8, 2, 3});      // wide
    cases.push_back({l, 31, 7, 8, 3, 1});      // tall
    cases.push_back({l, 5, 5, 10, 2, 2});      // b > m (single tile)
    cases.push_back({l, 12, 12, 4, 5, 5});     // grid bigger than tiles
    cases.push_back({l, 64, 64, 16, 1, 1});    // degenerate grid
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PackTest,
                         ::testing::ValuesIn(layout_cases()));

TEST(Segments, BclOwnedRunIsContiguous) {
  const int m = 64, n = 64, b = 8;
  Grid g{2, 2};
  Matrix a = Matrix::random(m, n, 81);
  PackedMatrix p = PackedMatrix::pack(a, Layout::BlockCyclic, b, g);
  // Tiles (0, 0), (2, 0), (4, 0) belong to thread row 0 and must be
  // vertically adjacent in its buffer.
  BlockRef b0 = p.block(0, 0);
  BlockRef b2 = p.block(2, 0);
  EXPECT_EQ(b2.ptr, b0.ptr + b);
  EXPECT_EQ(b0.ld, b2.ld);
  BlockRef seg = p.column_segment(0, 0, 3);
  EXPECT_EQ(seg.rows, 3 * b);
  EXPECT_EQ(seg.ptr, b0.ptr);
  // Segment contents: rows of tiles 0, 2, 4 stacked.
  for (int j = 0; j < b; ++j) {
    EXPECT_EQ(seg.ptr[0 + static_cast<std::size_t>(j) * seg.ld], a(0, j));
    EXPECT_EQ(seg.ptr[b + static_cast<std::size_t>(j) * seg.ld], a(2 * b, j));
    EXPECT_EQ(seg.ptr[2 * b + static_cast<std::size_t>(j) * seg.ld],
              a(4 * b, j));
  }
}

TEST(TwoLevel, TilesAreContiguousAndCacheSized) {
  const int b = 8;
  Matrix a = Matrix::random(32, 32, 85);
  PackedMatrix p = PackedMatrix::pack(a, Layout::TwoLevelBlock, b, Grid{2, 2});
  BlockRef blk = p.block(1, 1);
  EXPECT_EQ(blk.ld, b);  // tile-local leading dimension
}

TEST(Matrix, ConstructorsAndFills) {
  Matrix i3 = Matrix::identity(3);
  EXPECT_EQ(i3(0, 0), 1.0);
  EXPECT_EQ(i3(1, 0), 0.0);
  Matrix w = Matrix::wilkinson(4);
  EXPECT_EQ(w(3, 0), -1.0);
  EXPECT_EQ(w(0, 3), 1.0);
  EXPECT_EQ(w(2, 2), 1.0);
  Matrix d = Matrix::diag_dominant(5, 1);
  EXPECT_GT(d(2, 2), 4.0);
  Matrix r1 = Matrix::random(4, 4, 9);
  Matrix r2 = Matrix::random(4, 4, 9);
  EXPECT_EQ(test::max_abs_diff(r1, r2), 0.0);  // seeded => reproducible
  Matrix r3 = Matrix::random(4, 4, 10);
  EXPECT_GT(test::max_abs_diff(r1, r3), 0.0);
}

TEST(Matrix, CopySemantics) {
  Matrix a = Matrix::random(5, 5, 11);
  Matrix b = a;
  b(0, 0) += 1.0;
  EXPECT_NE(a(0, 0), b(0, 0));
  a = b;
  EXPECT_EQ(a(0, 0), b(0, 0));
}

TEST(Matrix, CopyAndUninitializedAllocation) {
  // 37 x 5 takes the small-allocation path; 1100 x 600 (5 MiB) also gets
  // the huge-page advice, which must leave the contents alone.
  for (int m : {37, 1100}) {
    const int n = m == 37 ? 5 : 600;
    const Matrix a = Matrix::random(m, n, 370);
    const Matrix c = a;  // copy constructor: allocated without the fill
    EXPECT_TRUE(test::same_bits(c, a));
    Matrix u = Matrix::uninitialized(m, n);
    EXPECT_EQ(u.rows(), m);
    EXPECT_EQ(u.cols(), n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u.data()) % 64, 0u);
    u = a;
    EXPECT_TRUE(test::same_bits(u, a));
    const Matrix z(m, n);  // Matrix(m, n) still zero-fills
    double zmax = 0.0;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) zmax = std::max(zmax, std::fabs(z(i, j)));
    EXPECT_EQ(zmax, 0.0);
  }
}

}  // namespace
}  // namespace calu
