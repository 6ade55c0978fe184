// incpiv.h — tiled LU with incremental (block pairwise) pivoting: the
// PLASMA dgetrf_incpiv stand-in (Figures 16/17; Section 2's "block
// pairwise pivoting removes the panel factorization from the critical
// path, but this strategy requires more investigation in terms of
// stability").
//
// Kernels follow PLASMA's decomposition:
//   GETRF(k)      — GEPP of tile (k,k) with tile-local pivoting;
//   GESSM(k,J)    — apply (pivots, Lkk) to tile (k,J);
//   TSTRF(k,I)    — GEPP of the stacked pair [Ukk; A(I,k)], updating Ukk
//                   and leaving multipliers in tile (I,k) plus an auxiliary
//                   L11 factor;
//   SSSSM(k,I,J)  — apply the pair transformation to [A(k,J); A(I,J)].
//
// The factorization is *not* a single P*A = L*U (transforms interleave),
// so the factor object replays them in solve(); correctness is checked
// through solve residuals, exactly how PLASMA users validate.
#pragma once

#include <vector>

#include "src/core/calu.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/sched/session.h"

namespace calu::core {

class IncpivFactor {
 public:
  /// Solve A x = rhs in place (rhs is m x nrhs, column-major) by replaying
  /// the recorded transformations then back-substituting with U.
  void solve(layout::Matrix& rhs) const;

  Stats stats;

 private:
  friend IncpivFactor getrf_incpiv(layout::PackedMatrix& a,
                                   const Options& opt,
                                   sched::Session& session);
  const layout::PackedMatrix* a_ = nullptr;
  int npanels_ = 0;
  std::vector<std::vector<int>> tile_piv_;   // per k: GETRF pivots (local)
  std::vector<std::vector<int>> pair_piv_;   // per (k,I): TSTRF pivots
  std::vector<std::vector<double>> laux_;    // per (k,I): kk x kk L11
  int idx(int k, int I) const { return k * a_->tiling().mb() + I; }
};

/// Factor the packed matrix in place with dynamically scheduled incremental
/// pivoting (square matrices: a non-square packing throws
/// std::invalid_argument) on a caller-provided session.  The
/// PackedMatrix stays owned by the caller and must outlive the returned
/// factor.  Honors Options::engine / lookahead_depth / recorder / noise
/// (the DAG is all-dynamic, so dratio has no effect).
IncpivFactor getrf_incpiv(layout::PackedMatrix& a, const Options& opt,
                          sched::Session& session);

}  // namespace calu::core
