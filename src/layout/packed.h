// packed.h — the three matrix storage layouts of the paper (Section 4).
//
//  * ColumnMajor (CM): one column-major buffer, the LAPACK layout.  The
//    paper only pairs it with fully dynamic scheduling (Table 1).
//  * BlockCyclic (BCL): the matrix is split into b x b tiles, distributed
//    2-D block-cyclically over the thread grid, and each thread's tiles are
//    stored as ONE contiguous column-major submatrix.  A thread's tiles in
//    the same tile column are vertically adjacent, which is what allows the
//    grouped k*b GEMM update (Section 3, k = 3).
//  * TwoLevelBlock (2l-BL): first level identical to BCL; second level
//    stores every b x b tile contiguously (tile fits in cache), so any tile
//    operation runs without extra memory transfer — at the price of no
//    grouped GEMM (Section 4.2).
//
// All three are accessed through the same tile interface, so the DAG engine
// is layout-agnostic.  Tile geometry is decided in exactly one place:
// PackedMatrixT::pack (packed.cpp) writes a table holding, for every tile,
// its owner buffer, offset and leading dimension.  Everything else —
// block(), column_segment(), swap_rows_global(), get(), unpack() and
// convert_from() — reads that table and never looks at the layout.
//
// The container is templated over the element type: the engine factors
// double matrices, while the mixed-precision path (core::gesv_mixed)
// factors a float32 copy with IDENTICAL geometry — same tiling, same
// per-thread buffer shapes, same tile adjacency — so every scheduling
// decision and tile view carries over unchanged.  Cross-precision
// conversion is buffer-wise (convert_from), never a repack.  `Matrix`
// itself stays double-only; a float packed matrix only ever exists as a
// converted copy of a double one.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <vector>

#include "src/layout/grid.h"
#include "src/layout/matrix.h"

namespace calu::layout {

enum class Layout { ColumnMajor, BlockCyclic, TwoLevelBlock };

const char* layout_name(Layout l);

/// Tile geometry of an m x n matrix cut into b x b tiles (edge tiles
/// partial).
struct Tiling {
  int m = 0, n = 0, b = 1;

  int mb() const { return (m + b - 1) / b; }       // tile rows
  int nb() const { return (n + b - 1) / b; }       // tile cols
  int row0(int I) const { return I * b; }
  int col0(int J) const { return J * b; }
  int tile_rows(int I) const { return I == mb() - 1 ? m - I * b : b; }
  int tile_cols(int J) const { return J == nb() - 1 ? n - J * b : b; }
};

/// A writable view of one tile (or a vertical group of tiles): column-major
/// with leading dimension ld.
template <class T>
struct BlockRefT {
  T* ptr = nullptr;
  int ld = 0;
  int rows = 0;
  int cols = 0;
};

using BlockRef = BlockRefT<double>;

template <class T>
class PackedMatrixT;

/// Where one tile of a packed matrix lives: its buffer, its offset in
/// that buffer (in elements) and its leading dimension.  The same for
/// every element type, so convert_from copies it as is.
struct TileSlot {
  int buf = 0;
  int ld = 0;
  std::size_t off = 0;
};

/// Runs `fill(owner)` once for every grid owner id in [0, nowners), on
/// the thread that will serve that owner's tasks.  Supplied by the
/// scheduling layer (layout stays below sched in the dependency order):
/// the CALU drivers map owner g onto team thread g % p, matching how
/// every engine routes owned tasks.  Because each owner's buffer is
/// allocated *and written* inside `fill`, a NUMA first-touch policy
/// places the owner's pages on the node of the thread that will factor
/// them.  An empty runner means "fill on the calling thread" (the
/// classic serial pack).
using OwnerRunner =
    std::function<void(int nowners, const std::function<void(int owner)>&)>;

/// A dense matrix packed into one of the three layouts.  Thread-safe for
/// concurrent access to distinct tiles (tiles never alias).
template <class T>
class PackedMatrixT {
 public:
  PackedMatrixT() = default;

  /// Pack a column-major matrix.  `b` is the tile size, `grid` the thread
  /// grid used for the cyclic distribution (ignored for ColumnMajor).
  /// For T = float this converts while packing (one pass).  `place`
  /// (optional) is the ownership-ordered first-touch runner: each grid
  /// owner's buffer is allocated and filled via place(nowners, fill) so
  /// its pages fault in on the owning thread (see OwnerRunner).  The
  /// packed bits are identical either way — only page placement (and
  /// the fill parallelism) changes.  ColumnMajor has one shared buffer
  /// and ignores `place`.
  static PackedMatrixT pack(const Matrix& a, Layout layout, int b, Grid grid,
                            const OwnerRunner& place = {});

  /// Write the packed contents back into a column-major matrix (must have
  /// matching dimensions).  Converting for T = float.  Every element of
  /// `a` is written, so `a` may come from Matrix::uninitialized.  `place`
  /// (optional) is the same owner runner pack() takes: grid owner g
  /// writes the tiles it owns (I % pr, J % pc) == g, so the copy-out runs
  /// on the team and the destination's pages fault in on the threads
  /// writing them.  Owners write disjoint tiles, so the result is
  /// bit-identical to the serial copy for every layout (ColumnMajor's one
  /// buffer is split among the owners the same way).
  void unpack(Matrix& a, const OwnerRunner& place = {}) const;

  /// Same-geometry copy of `o` at this precision (buffer-wise element
  /// cast; no repacking — tile offsets are precision-independent).
  template <class U>
  static PackedMatrixT convert_from(const PackedMatrixT<U>& o) {
    PackedMatrixT p;
    p.layout_ = o.layout_;
    p.tiling_ = o.tiling_;
    p.grid_ = o.grid_;
    p.tiles_ = o.tiles_;
    p.bufs_.resize(o.bufs_.size());
    for (std::size_t t = 0; t < o.bufs_.size(); ++t)
      p.bufs_[t].assign(o.bufs_[t].begin(), o.bufs_[t].end());
    return p;
  }

  /// Element-wise cast of this matrix's buffers into `o`'s (the two must
  /// be convert_from-related: identical layout/tiling/grid).
  template <class U>
  void convert_into(PackedMatrixT<U>& o) const {
    for (std::size_t t = 0; t < bufs_.size(); ++t) {
      const std::vector<T>& src = bufs_[t];
      std::vector<U>& dst = o.bufs_[t];
      for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = static_cast<U>(src[i]);
    }
  }

  /// View of tile (I, J).
  BlockRefT<T> block(int I, int J) {
    const Tiling& t = tiling_;
    assert(I >= 0 && I < t.mb() && J >= 0 && J < t.nb());
    const TileSlot& e = tiles_[I + static_cast<std::size_t>(J) * t.mb()];
    return {bufs_[e.buf].data() + e.off, e.ld, t.tile_rows(I),
            t.tile_cols(J)};
  }
  BlockRefT<T> block(int I, int J) const {
    return const_cast<PackedMatrixT*>(this)->block(I, J);
  }

  /// View covering the `ntiles` tiles {I, I+pr, ...} of tile column J —
  /// one (sum of heights) x tile_cols(J) column-major block.  The tiles
  /// must be stacked in one buffer, which only BCL does (its grouped S
  /// tasks are the caller); one tile is a plain block() on any layout.
  BlockRefT<T> column_segment(int I, int J, int ntiles);

  /// Swap global rows r1 and r2 across global columns [c0, c1).  Routed
  /// through tiles, so it works for every layout; this implements both the
  /// "right swaps" inside the factorization and the deferred left swaps.
  void swap_rows_global(int c0, int c1, int r1, int r2);

  double get(int i, int j) const;  // element access for tests (slow)

  Layout layout() const { return layout_; }
  const Tiling& tiling() const { return tiling_; }
  const Grid& grid() const { return grid_; }

 private:
  Layout layout_ = Layout::ColumnMajor;
  Tiling tiling_;
  Grid grid_;
  // Where tile (I, J) lives: tiles_[I + J * mb].  CM has one buffer
  // (ld = m); BCL and 2l-BL one per grid owner, row-major over the grid.
  std::vector<TileSlot> tiles_;
  std::vector<std::vector<T>> bufs_;

  template <class U>
  friend class PackedMatrixT;
};

using PackedMatrix = PackedMatrixT<double>;

extern template class PackedMatrixT<double>;
extern template class PackedMatrixT<float>;

}  // namespace calu::layout
