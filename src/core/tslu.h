// tslu.h — TSLU: the tournament-pivoting panel factorization of CALU
// (Grigori, Demmel, Xiang — paper reference [12]; Section 2 here).
//
// The panel is factored in two steps.  A *preprocessing* reduction
// identifies b pivot rows with low communication: leaves run GEPP on
// disjoint chunks of the panel's rows and keep their b best candidate rows;
// a binary tree of merge steps stacks two candidate sets (2b x b), runs
// GEPP, and keeps the winners; the root yields the panel's pivots.  The
// *second* step permutes the winners to the top and factors the panel
// without pivoting.  GEPP is performed by the recursive LU (reference
// [23]), "the best available sequential algorithm".
//
// The pieces are exposed separately because CALU turns each leaf/merge into
// a DAG task (task P in the paper).  The sequential whole-panel reference
// (and the copy-then-replay selection the leaf and merge reproduce) live
// in tests/tslu_test.cpp as its oracle.
//
// The tournament pieces are precision-templated: the mixed-precision path
// runs the whole engine (tournament included) in float32, so leaf/merge
// operate on whatever element type the packed matrix carries.
#pragma once

#include <vector>

#include "src/layout/matrix.h"
#include "src/layout/packed.h"

namespace calu::core {

/// A candidate set: `count` rows of width `width` (column-major, ld =
/// count), plus the absolute matrix row each candidate came from.  Holds
/// the rows' *original* values — the tournament only selects pivots.
template <class T>
struct CandidatesT {
  std::vector<T> vals;
  std::vector<int> src;
  int count = 0;
  int width = 0;

  const T* data() const { return vals.data(); }
  T* data() { return vals.data(); }
};

using Candidates = CandidatesT<double>;

/// Leaf step: gather the given tiles of panel column `kcol` (tile rows in
/// `tile_rows`, ascending) from `a`, select, and return the winner set.
///
/// One-copy selection (leaf and merge alike): the rows are gathered once,
/// straight into the scratch that GEPP factors in place.  The winners'
/// positions come from replaying the pivot swaps on an index vector, and
/// their original values are then copied from where they already live —
/// the packed panel for a leaf (it stays read-only until the panel's
/// finalize task), the children's candidate sets for a merge.  Pivots,
/// winners and candidate bits are those of GEPP-selecting a second copy
/// and replaying every swap across the rows (the test oracle); the one-
/// copy path just skips that copy and the row replay.
template <class T>
CandidatesT<T> tslu_leaf(const layout::PackedMatrixT<T>& a, int kcol,
                         const std::vector<int>& tile_rows);

/// Merge step: stack two candidate sets, select, return the winner set
/// (one-copy selection, as for the leaf).
template <class T>
CandidatesT<T> tslu_merge(const CandidatesT<T>& x, const CandidatesT<T>& y);

extern template CandidatesT<double> tslu_leaf<double>(
    const layout::PackedMatrixT<double>&, int, const std::vector<int>&);
extern template CandidatesT<float> tslu_leaf<float>(
    const layout::PackedMatrixT<float>&, int, const std::vector<int>&);
extern template CandidatesT<double> tslu_merge<double>(
    const CandidatesT<double>&, const CandidatesT<double>&);
extern template CandidatesT<float> tslu_merge<float>(const CandidatesT<float>&,
                                                     const CandidatesT<float>&);

/// Turn the root winners into a LAPACK-style swap list relative to panel
/// top row `row0`: result[i] = absolute row swapped with row (row0 + i).
/// Tracks only the current position of each winner and which winner sits
/// at each of the `count` window rows: flat O(count) arrays, no hashing.
/// Winners must be distinct.
std::vector<int> build_swap_list(const std::vector<int>& winners, int row0,
                                 int count);

}  // namespace calu::core
