// accessor.cpp — layout-agnostic tile access, column segments for grouped
// GEMM, global row swaps, pack/unpack dispatch.
#include <cassert>

#include "src/layout/packed.h"

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
  if (layout == Layout::BlockCyclic) return pack_bcl<T>(a, b, grid, place);
  if (layout == Layout::TwoLevelBlock) return pack_2l<T>(a, b, grid, place);
  PackedMatrixT p;
  p.layout_ = Layout::ColumnMajor;
  p.tiling_ = Tiling{a.rows(), a.cols(), b};
  p.grid_ = grid;
  p.bufs_.resize(1);
  p.bufs_[0].assign(a.data(),
                    a.data() + static_cast<std::size_t>(a.rows()) * a.cols());
  p.local_rows_.assign(1, a.rows());
  p.local_tile_rows_.assign(1, p.tiling_.mb());
  return p;
}

template <class T>
BlockRefT<T> PackedMatrixT<T>::block(int I, int J) {
  const Tiling& t = tiling_;
  assert(I >= 0 && I < t.mb() && J >= 0 && J < t.nb());
  BlockRefT<T> r;
  r.rows = t.tile_rows(I);
  r.cols = t.tile_cols(J);
  switch (layout_) {
    case Layout::ColumnMajor:
      r.ld = t.m;
      r.ptr = bufs_[0].data() + t.row0(I) +
              static_cast<std::size_t>(t.col0(J)) * t.m;
      break;
    case Layout::BlockCyclic: {
      const int ti = I % grid_.pr, tj = J % grid_.pc;
      const int tid = ti * grid_.pc + tj;
      const int lr = (I - ti) / grid_.pr;  // owned tiles before I are full
      const int lc = (J - tj) / grid_.pc;
      r.ld = local_rows_[tid];
      r.ptr = bufs_[tid].data() + static_cast<std::size_t>(lc) * t.b * r.ld +
              static_cast<std::size_t>(lr) * t.b;
      break;
    }
    case Layout::TwoLevelBlock: {
      const int ti = I % grid_.pr, tj = J % grid_.pc;
      const int tid = ti * grid_.pc + tj;
      const int lr = (I - ti) / grid_.pr;
      const int lc = (J - tj) / grid_.pc;
      const int ltr = local_tile_rows_[tid];
      r.ld = t.b;
      r.ptr = bufs_[tid].data() +
              (static_cast<std::size_t>(lc) * ltr + lr) * t.b * t.b;
      break;
    }
  }
  return r;
}

template <class T>
int PackedMatrixT<T>::owned_run_down(int I, int J, int max_tiles) const {
  (void)J;
  if (max_tiles <= 1) return max_tiles;
  const int mb = tiling_.mb();
  switch (layout_) {
    case Layout::TwoLevelBlock:
      return 1;  // tiles are not adjacent; the paper does not group here
    case Layout::ColumnMajor: {
      // Any vertical run is contiguous in CM (step 1 tile).
      int run = 1;
      while (run < max_tiles && I + run < mb) ++run;
      return run;
    }
    case Layout::BlockCyclic: {
      // Owner's tiles I, I+pr, ... are vertically adjacent in its buffer.
      int run = 1;
      while (run < max_tiles && I + run * grid_.pr < mb) ++run;
      return run;
    }
  }
  return 1;
}

template <class T>
BlockRefT<T> PackedMatrixT<T>::column_segment(int I, int J, int ntiles) {
  assert(ntiles >= 1);
  const int step = layout_ == Layout::ColumnMajor ? 1 : grid_.pr;
  BlockRefT<T> first = block(I, J);
  if (ntiles == 1) return first;
  assert(layout_ != Layout::TwoLevelBlock);
  int rows = 0;
  for (int k = 0; k < ntiles; ++k) rows += tiling_.tile_rows(I + k * step);
  BlockRefT<T> r = first;
  r.rows = rows;
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
