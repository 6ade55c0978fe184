// packed.cpp — the tile table behind PackedMatrix: pack() decides where
// every tile lives, everything else reads that decision back.
#include "src/layout/packed.h"

#include <algorithm>

namespace calu::layout {

const char* layout_name(Layout l) {
  switch (l) {
    case Layout::ColumnMajor: return "CM";
    case Layout::BlockCyclic: return "BCL";
    case Layout::TwoLevelBlock: return "2l-BL";
  }
  return "?";
}

template <class T>
PackedMatrixT<T> PackedMatrixT<T>::pack(const Matrix& a, Layout layout, int b,
                                        Grid grid, const OwnerRunner& place) {
  assert(b >= 1);
  PackedMatrixT p;
  p.layout_ = layout;
  p.tiling_ = Tiling{a.rows(), a.cols(), b};
  p.grid_ = grid;
  const Tiling& t = p.tiling_;
  const int mb = t.mb(), nb = t.nb();

  // Tile geometry, decided here and nowhere else.  CM storage is BCL's on
  // a 1 x 1 grid: one buffer holding every tile, ld = m.  BCL stacks an
  // owner's tiles into one column-major submatrix whose ld is the owner's
  // row count; owned tiles above another in a tile column are full (only
  // the last global tile row can be partial), so the owner's tiles in a
  // column are vertically adjacent.  2l-BL gives every tile its own b x b
  // slot (ld = b), in owned-column-major order; a partial edge tile
  // leaves its slot's padding zero.
  const Grid owners = layout == Layout::ColumnMajor ? Grid{1, 1} : grid;
  const bool slots = layout == Layout::TwoLevelBlock;
  p.tiles_.resize(static_cast<std::size_t>(mb) * nb);
  std::vector<std::size_t> size(owners.size());
  for (int g = 0; g < owners.size(); ++g) {
    const int ti = g / owners.pc, tj = g % owners.pc;
    int ld = b;
    if (!slots) {
      ld = 0;
      for (int I = ti; I < mb; I += owners.pr) ld += t.tile_rows(I);
    }
    std::size_t end = 0;
    for (int J = tj; J < nb; J += owners.pc) {
      std::size_t row = 0;
      for (int I = ti; I < mb; I += owners.pr) {
        TileSlot& e = p.tiles_[I + static_cast<std::size_t>(J) * mb];
        e.buf = g;
        e.ld = ld;
        if (slots) {
          e.off = end;
          end += static_cast<std::size_t>(b) * b;
        } else {
          e.off = end + row;
          row += t.tile_rows(I);
        }
      }
      if (!slots) end += static_cast<std::size_t>(t.tile_cols(J)) * ld;
    }
    size[g] = end;
  }

  // Allocate and fill each owner's buffer.  Owners write disjoint buffers
  // from disjoint tiles of `a`, so the fills run in any order or in
  // parallel and write the same bits.  Through `place` the buffer is
  // allocated *and* written on the thread that will factor its tiles,
  // which is what faults its pages in there; CM's one shared buffer is
  // filled on the calling thread.
  p.bufs_.resize(owners.size());
  auto fill = [&](int g) {
    p.bufs_[g].assign(size[g], T(0));
    for (int J = g % owners.pc; J < nb; J += owners.pc) {
      for (int I = g / owners.pc; I < mb; I += owners.pr) {
        BlockRefT<T> dst = p.block(I, J);
        const double* src = a.data() + t.row0(I) +
                            static_cast<std::size_t>(t.col0(J)) * a.ld();
        for (int j = 0; j < dst.cols; ++j)
          for (int i = 0; i < dst.rows; ++i)
            dst.ptr[i + static_cast<std::size_t>(j) * dst.ld] =
                static_cast<T>(src[i + static_cast<std::size_t>(j) * a.ld()]);
      }
    }
  };
  if (place && layout != Layout::ColumnMajor) {
    place(owners.size(), fill);
  } else {
    for (int g = 0; g < owners.size(); ++g) fill(g);
  }
  return p;
}

template <class T>
BlockRefT<T> PackedMatrixT<T>::column_segment(int I, int J, int ntiles) {
  assert(ntiles >= 1);
  BlockRefT<T> r = block(I, J);
  for (int k = 1; k < ntiles; ++k)
    r.rows += tiling_.tile_rows(I + k * grid_.pr);
  // The last tile must sit right below the ones before it.
  assert(block(I + (ntiles - 1) * grid_.pr, J).ptr ==
         r.ptr + r.rows - tiling_.tile_rows(I + (ntiles - 1) * grid_.pr));
  return r;
}

template <class T>
void PackedMatrixT<T>::swap_rows_global(int c0, int c1, int r1, int r2) {
  if (r1 == r2 || c0 >= c1) return;
  const Tiling& t = tiling_;
  const int I1 = r1 / t.b, i1 = r1 % t.b;
  const int I2 = r2 / t.b, i2 = r2 % t.b;
  int J = c0 / t.b;
  int c = c0;
  while (c < c1) {
    const int jend = std::min(c1, t.col0(J) + t.tile_cols(J));
    BlockRefT<T> b1 = block(I1, J);
    BlockRefT<T> b2 = block(I2, J);
    for (int j = c - t.col0(J); j < jend - t.col0(J); ++j) {
      T& x = b1.ptr[i1 + static_cast<std::size_t>(j) * b1.ld];
      T& y = b2.ptr[i2 + static_cast<std::size_t>(j) * b2.ld];
      const T tmp = x;
      x = y;
      y = tmp;
    }
    c = jend;
    ++J;
  }
}

template <class T>
double PackedMatrixT<T>::get(int i, int j) const {
  const Tiling& t = tiling_;
  BlockRefT<T> b = block(i / t.b, j / t.b);
  return b.ptr[(i % t.b) + static_cast<std::size_t>(j % t.b) * b.ld];
}

template <class T>
void PackedMatrixT<T>::unpack(Matrix& a, const OwnerRunner& place) const {
  const Tiling& t = tiling_;
  assert(a.rows() == t.m && a.cols() == t.n);
  auto copy_tile = [&](int I, int J) {
    BlockRefT<T> src = block(I, J);
    double* dst =
        a.data() + t.row0(I) + static_cast<std::size_t>(t.col0(J)) * a.ld();
    for (int j = 0; j < src.cols; ++j)
      for (int i = 0; i < src.rows; ++i)
        dst[i + static_cast<std::size_t>(j) * a.ld()] =
            src.ptr[i + static_cast<std::size_t>(j) * src.ld];
  };
  auto drain_owner = [&](int owner) {
    const int ti = owner / grid_.pc, tj = owner % grid_.pc;
    for (int J = tj; J < t.nb(); J += grid_.pc)
      for (int I = ti; I < t.mb(); I += grid_.pr) copy_tile(I, J);
  };
  if (place) {
    place(grid_.size(), drain_owner);
  } else {
    for (int owner = 0; owner < grid_.size(); ++owner) drain_owner(owner);
  }
}

template class PackedMatrixT<double>;
template class PackedMatrixT<float>;

}  // namespace calu::layout
