#include "src/core/tslu.h"

#include <algorithm>
#include <cassert>

#include "src/blas/blas.h"

namespace calu::core {
namespace {

/// Partial-pivoting LU of the (rows x width) block `lu` (column-
/// major, ld = rows), in place.  Returns the LAPACK swap sequence, length
/// min(rows, width), or an empty one when rows <= 1 (nothing to select).
/// The recursion bottoms out into the blocked vectorized panel kernel
/// (blas::getf2) at its default 32-column leaf — tuned on exactly the
/// dominant tournament shapes (2*width x width merge nodes).  Pivot
/// choices are unchanged: the panel kernel is bit-identical to unblocked
/// elimination.
template <class T>
const std::vector<int>& factor_pivots(int rows, int width, T* lu) {
  assert(rows >= 0 && width >= 1);
  thread_local std::vector<int> ipiv;
  ipiv.clear();
  if (rows <= 1) return ipiv;
  ipiv.resize(std::min(rows, width));
  blas::getrf_recursive(rows, width, lu, rows, ipiv.data());
  return ipiv;
}

template <class T>
std::vector<T>& tl_scratch() {
  thread_local std::vector<T> scratch;
  return scratch;
}

/// Factors the gathered (rows x width) block `lu` (ld = rows) and returns
/// the gathered row index of each of the min(rows, width) winners, in
/// pivot order: the swap sequence applied to an index vector instead of
/// to the rows themselves.
template <class T>
const std::vector<int>& winner_positions(int rows, int width, T* lu) {
  thread_local std::vector<int> pos;
  pos.resize(rows);
  for (int i = 0; i < rows; ++i) pos[i] = i;
  const std::vector<int>& ipiv = factor_pivots(rows, width, lu);
  for (int i = 0; i < static_cast<int>(ipiv.size()); ++i)
    std::swap(pos[i], pos[ipiv[i]]);
  pos.resize(std::min(rows, width));
  return pos;
}

template <class T>
CandidatesT<T> make_candidates(int keep, int width) {
  CandidatesT<T> c;
  c.count = keep;
  c.width = width;
  c.vals.resize(static_cast<std::size_t>(keep) * width);
  c.src.resize(keep);
  return c;
}

}  // namespace

template <class T>
CandidatesT<T> tslu_leaf(const layout::PackedMatrixT<T>& a, int kcol,
                         const std::vector<int>& tile_rows) {
  const layout::Tiling& t = a.tiling();
  const int width = t.tile_cols(kcol);
  const int ntiles = static_cast<int>(tile_rows.size());
  // first[k]: gathered row index of tile k's first row.
  thread_local std::vector<int> first;
  first.resize(ntiles + 1);
  first[0] = 0;
  for (int k = 0; k < ntiles; ++k)
    first[k + 1] = first[k] + t.tile_rows(tile_rows[k]);
  const int rows = first[ntiles];

  // One gather, straight into the scratch the tournament factors.
  std::vector<T>& lu = tl_scratch<T>();
  lu.resize(static_cast<std::size_t>(rows) * width);
  for (int k = 0; k < ntiles; ++k) {
    const layout::BlockRefT<T> blk = a.block(tile_rows[k], kcol);
    for (int j = 0; j < width; ++j)
      std::copy_n(blk.ptr + static_cast<std::size_t>(j) * blk.ld, blk.rows,
                  lu.data() + first[k] + static_cast<std::size_t>(j) * rows);
  }
  const std::vector<int>& pos = winner_positions(rows, width, lu.data());

  // The winners' original values come from the packed panel itself: it
  // stays read-only until the panel's finalize task swaps it.
  const int keep = static_cast<int>(pos.size());
  CandidatesT<T> c = make_candidates<T>(keep, width);
  for (int q = 0; q < keep; ++q) {
    const int k = static_cast<int>(
        std::upper_bound(first.begin(), first.end(), pos[q]) - first.begin() -
        1);
    const int r = pos[q] - first[k];
    const layout::BlockRefT<T> blk = a.block(tile_rows[k], kcol);
    c.src[q] = t.row0(tile_rows[k]) + r;
    for (int j = 0; j < width; ++j)
      c.vals[q + static_cast<std::size_t>(j) * keep] =
          blk.ptr[r + static_cast<std::size_t>(j) * blk.ld];
  }
  return c;
}

template <class T>
CandidatesT<T> tslu_merge(const CandidatesT<T>& x, const CandidatesT<T>& y) {
  assert(x.width == y.width);
  const int width = x.width;
  const int rows = x.count + y.count;

  std::vector<T>& lu = tl_scratch<T>();
  lu.resize(static_cast<std::size_t>(rows) * width);
  for (int j = 0; j < width; ++j) {
    std::copy_n(x.data() + static_cast<std::size_t>(j) * x.count, x.count,
                lu.data() + static_cast<std::size_t>(j) * rows);
    std::copy_n(y.data() + static_cast<std::size_t>(j) * y.count, y.count,
                lu.data() + x.count + static_cast<std::size_t>(j) * rows);
  }
  const std::vector<int>& pos = winner_positions(rows, width, lu.data());

  // Winners' original values come from the children's candidate sets.
  const int keep = static_cast<int>(pos.size());
  CandidatesT<T> c = make_candidates<T>(keep, width);
  for (int q = 0; q < keep; ++q) {
    const bool from_x = pos[q] < x.count;
    const CandidatesT<T>& from = from_x ? x : y;
    const int r = from_x ? pos[q] : pos[q] - x.count;
    c.src[q] = from.src[r];
    for (int j = 0; j < width; ++j)
      c.vals[q + static_cast<std::size_t>(j) * keep] =
          from.vals[r + static_cast<std::size_t>(j) * from.count];
  }
  return c;
}

template CandidatesT<double> tslu_leaf<double>(
    const layout::PackedMatrixT<double>&, int, const std::vector<int>&);
template CandidatesT<float> tslu_leaf<float>(const layout::PackedMatrixT<float>&,
                                             int, const std::vector<int>&);
template CandidatesT<double> tslu_merge<double>(const CandidatesT<double>&,
                                                const CandidatesT<double>&);
template CandidatesT<float> tslu_merge<float>(const CandidatesT<float>&,
                                              const CandidatesT<float>&);

std::vector<int> build_swap_list(const std::vector<int>& winners, int row0,
                                 int count) {
  // Winner i moves to position row0 + i.  Only two kinds of position
  // matter: where each winner currently is (cur), and which winner, if
  // any, currently sits at each window position row0 + k (widx).  A row
  // pushed out of the window only ever moves to where a winner was, so
  // these two flat arrays track every displaced row that can be read
  // again — at most 2 * count of them.
  std::vector<int> cur(winners.begin(), winners.begin() + count);
  std::vector<int> widx(count, -1);
  for (int i = 0; i < count; ++i)
    if (winners[i] >= row0 && winners[i] < row0 + count)
      widx[winners[i] - row0] = i;
  std::vector<int> swaps(count);
  for (int i = 0; i < count; ++i) {
    const int p1 = row0 + i;
    const int p2 = cur[i];
    swaps[i] = p2;
    if (p1 == p2) continue;
    // The row at p1 moves to p2, which is never an earlier window slot:
    // those already hold earlier winners.
    const int w1 = widx[i];
    if (w1 >= 0) cur[w1] = p2;
    if (p2 >= row0 && p2 < row0 + count) widx[p2 - row0] = w1;
    widx[i] = i;
    cur[i] = p1;
  }
  return swaps;
}

}  // namespace calu::core
