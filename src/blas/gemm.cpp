// gemm.cpp — blocked GEMM over the runtime-dispatched register kernels.
//
// Structure follows the classic Goto/BLIS decomposition: loop over column
// panels of B (nc), over depth panels (kc, packed copy of both operands),
// over row panels of A (mc), with an mr x nr register kernel innermost.
// The register kernel and the cache blocking come from the dispatch table
// in microkernel.h (AVX-512 / AVX2+FMA / portable C++), selected once at
// startup.  The packing helpers and the pre-packed entry point are public
// (blas.h) so the factorization can pack a panel once per step and share
// it across every trailing-update task.
//
// Everything here is templated over the scalar type; the public float and
// double entry points are thin concrete overloads.  Each precision uses
// its own dispatch-table entry (strip shapes and cache blocking differ)
// and its own thread-local pack scratch.
#include "src/blas/blas.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/blas/microkernel.h"
#include "src/util/aligned_buffer.h"

namespace calu::blas {
namespace {

// Element of op(X) at (i, j) for a column-major X with leading dim ld.
template <class T>
inline T elem(const T* x, int ld, Trans t, int i, int j) {
  return t == Trans::No ? x[i + static_cast<std::size_t>(j) * ld]
                        : x[j + static_cast<std::size_t>(i) * ld];
}

// Problems below this many multiply-adds take gemm_naive: packing would
// dominate them.
constexpr long long kNaiveMaxWork = 32LL * 32 * 32;

// Naive kernel for small problems and for the beta scaling of edge cases.
template <class T>
void gemm_naive(Trans ta, Trans tb, int m, int n, int k, T alpha, const T* a,
                int lda, const T* b, int ldb, T beta, T* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    T* cj = c + static_cast<std::size_t>(j) * ldc;
    if (beta == T(0)) {
      std::fill(cj, cj + m, T(0));
    } else if (beta != T(1)) {
      for (int i = 0; i < m; ++i) cj[i] *= beta;
    }
    for (int p = 0; p < k; ++p) {
      const T bpj = alpha * elem(b, ldb, tb, p, j);
      if (bpj == T(0)) continue;
      if (ta == Trans::No) {
        const T* ap = a + static_cast<std::size_t>(p) * lda;
        for (int i = 0; i < m; ++i) cj[i] += ap[i] * bpj;
      } else {
        for (int i = 0; i < m; ++i) cj[i] += elem(a, lda, ta, i, p) * bpj;
      }
    }
  }
}

// Pack an mc x kc block of op(A) into row-major-by-mr-strips layout.
template <class T>
void pack_a_block(Trans ta, const T* a, int lda, int i0, int p0, int mc,
                  int kc, int mr, T* buf) {
  for (int i = 0; i < mc; i += mr) {
    const int rows = std::min(mr, mc - i);
    if (ta == Trans::No && rows == mr) {
      // Contiguous column loads: the common No-trans full-strip case.
      for (int p = 0; p < kc; ++p) {
        const T* col = a + (i0 + i) + static_cast<std::size_t>(p0 + p) * lda;
        std::memcpy(buf, col, sizeof(T) * mr);
        buf += mr;
      }
      continue;
    }
    for (int p = 0; p < kc; ++p) {
      for (int r = 0; r < rows; ++r)
        *buf++ = elem(a, lda, ta, i0 + i + r, p0 + p);
      for (int r = rows; r < mr; ++r) *buf++ = T(0);
    }
  }
}

// Pack a kc x nc block of op(B) into column-strips of width nr.
template <class T>
void pack_b_block(Trans tb, const T* b, int ldb, int p0, int j0, int kc,
                  int nc, int nr, T* buf) {
  for (int j = 0; j < nc; j += nr) {
    const int cols = std::min(nr, nc - j);
    for (int p = 0; p < kc; ++p) {
      for (int r = 0; r < cols; ++r)
        *buf++ = elem(b, ldb, tb, p0 + p, j0 + j + r);
      for (int r = cols; r < nr; ++r) *buf++ = T(0);
    }
  }
}

inline std::size_t round_up(std::size_t v, std::size_t unit) {
  return (v + unit - 1) / unit * unit;
}

// Sweep the register kernel over one packed (m-rows x kc) x (kc x n-cols)
// block pair, accumulating into C.  `ap`/`bp` point at the block's strips.
template <class T>
void kernel_sweep(const MicroKernelT<T>& mk, int m, int n, int kc, T alpha,
                  const T* ap, const T* bp, T* c, int ldc) {
  for (int jr = 0; jr < n; jr += mk.nr) {
    const int nr = std::min(mk.nr, n - jr);
    const T* bs = bp + static_cast<std::size_t>(jr) * kc;
    for (int ir = 0; ir < m; ir += mk.mr) {
      const int mr = std::min(mk.mr, m - ir);
      mk.fn(kc, alpha, ap + static_cast<std::size_t>(ir) * kc, bs,
            c + ir + static_cast<std::size_t>(jr) * ldc, ldc, mr, nr);
    }
  }
}

// Grow-only 64-byte-aligned per-thread pack scratch (SIMD loads require
// the alignment; std::vector cannot guarantee it), one pair per precision.
template <class T>
util::AlignedBufferT<T>& tl_abuf() {
  thread_local util::AlignedBufferT<T> buf;
  return buf;
}
template <class T>
util::AlignedBufferT<T>& tl_bbuf() {
  thread_local util::AlignedBufferT<T> buf;
  return buf;
}

template <class T>
void gemm_pack_a_impl(Trans ta, int m, int k, const T* a, int lda, T* buf) {
  const MicroKernelT<T>& mk = active_kernel_t<T>();
  const std::size_t rows = round_up(m, mk.mr);
  for (int pc = 0; pc < k; pc += mk.kc) {
    const int kc = std::min(mk.kc, k - pc);
    pack_a_block(ta, a, lda, 0, pc, m, kc, mk.mr, buf);
    buf += rows * kc;
  }
}

template <class T>
void gemm_pack_b_impl(Trans tb, int k, int n, const T* b, int ldb, T* buf) {
  const MicroKernelT<T>& mk = active_kernel_t<T>();
  const std::size_t cols = round_up(n, mk.nr);
  for (int pc = 0; pc < k; pc += mk.kc) {
    const int kc = std::min(mk.kc, k - pc);
    pack_b_block(tb, b, ldb, pc, 0, kc, n, mk.nr, buf);
    buf += static_cast<std::size_t>(kc) * cols;
  }
}

template <class T>
void gemm_packed_impl(int m, int n, int k, T alpha, const T* apack,
                      const T* bpack, T* c, int ldc) {
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;
  const MicroKernelT<T>& mk = active_kernel_t<T>();
  const std::size_t a_rows = round_up(m, mk.mr);
  const std::size_t b_cols = round_up(n, mk.nr);
  for (int pc = 0; pc < k; pc += mk.kc) {
    const int kc = std::min(mk.kc, k - pc);
    kernel_sweep(mk, m, n, kc, alpha, apack, bpack, c, ldc);
    apack += a_rows * kc;
    bpack += static_cast<std::size_t>(kc) * b_cols;
  }
}

template <class T>
void gemm_impl(Trans ta, Trans tb, int m, int n, int k, T alpha, const T* a,
               int lda, const T* b, int ldb, T beta, T* c, int ldc) {
  assert(m >= 0 && n >= 0 && k >= 0);
  assert(ldc >= std::max(1, m));
  if (m == 0 || n == 0) return;
  if (alpha == T(0) || k == 0) {
    for (int j = 0; j < n; ++j) {
      T* cj = c + static_cast<std::size_t>(j) * ldc;
      if (beta == T(0)) std::fill(cj, cj + m, T(0));
      else if (beta != T(1))
        for (int i = 0; i < m; ++i) cj[i] *= beta;
    }
    return;
  }
  // Small problems: the packing overhead dominates, use the direct loop.
  if (static_cast<long long>(m) * n * k < kNaiveMaxWork) {
    gemm_naive(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }

  // Scale C by beta once up front so the kernel is pure accumulate.
  if (beta != T(1)) {
    for (int j = 0; j < n; ++j) {
      T* cj = c + static_cast<std::size_t>(j) * ldc;
      if (beta == T(0)) std::fill(cj, cj + m, T(0));
      else
        for (int i = 0; i < m; ++i) cj[i] *= beta;
    }
  }

  // Pack buffers sized to this call (rounded to full register strips), not
  // to the blocking maxima: tile-sized calls would otherwise fault in
  // megabytes of scratch on each thread's first GEMM.  mc/nc are strip
  // multiples (derive_blocking), so every panel's padded pack fits.
  const MicroKernelT<T>& mk = active_kernel_t<T>();
  const int mc_max =
      static_cast<int>(round_up(std::min(mk.mc, m), mk.mr));
  const int nc_max =
      static_cast<int>(round_up(std::min(mk.nc, n), mk.nr));
  const int kc_max = std::min(mk.kc, k);
  util::AlignedBufferT<T>& abuf = tl_abuf<T>();
  util::AlignedBufferT<T>& bbuf = tl_bbuf<T>();
  abuf.reserve(static_cast<std::size_t>(mc_max) * kc_max);
  bbuf.reserve(static_cast<std::size_t>(kc_max) * nc_max);

  for (int jc = 0; jc < n; jc += mk.nc) {
    const int nc = std::min(mk.nc, n - jc);
    for (int pc = 0; pc < k; pc += mk.kc) {
      const int kc = std::min(mk.kc, k - pc);
      pack_b_block(tb, b, ldb, pc, jc, kc, nc, mk.nr, bbuf.data());
      for (int ic = 0; ic < m; ic += mk.mc) {
        const int mc = std::min(mk.mc, m - ic);
        pack_a_block(ta, a, lda, ic, pc, mc, kc, mk.mr, abuf.data());
        kernel_sweep(mk, mc, nc, kc, alpha, abuf.data(), bbuf.data(),
                     c + ic + static_cast<std::size_t>(jc) * ldc, ldc);
      }
    }
  }
}

// gemm_naive's No-trans, beta = 1 chain with A read through column
// pointers: the same expressions in the same order, so each element
// rounds as gemm_naive rounds it.
void naive_cols(int m, int n, int k, double alpha, const double* const* acols,
                const double* b, int ldb, double* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    for (int p = 0; p < k; ++p) {
      const double bpj = alpha * b[p + static_cast<std::size_t>(j) * ldb];
      if (bpj == 0.0) continue;
      const double* ap = acols[p];
      for (int i = 0; i < m; ++i) cj[i] += ap[i] * bpj;
    }
  }
}

}  // namespace

void gemm_cols(int gemm_m, int m, int n, int k, double alpha,
               const double* const* acols, const double* b, int ldb,
               double* c, int ldc) {
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  if (static_cast<long long>(gemm_m) * n * k < kNaiveMaxWork) {
    naive_cols(m, n, k, alpha, acols, b, ldb, c, ldc);
    return;
  }
  // The blocked path's kc split: one chain and write-back per block.
  const MicroKernel& mk = active_kernel();
  for (int pc = 0; pc < k; pc += mk.kc)
    mk.pack_free(m, n, std::min(mk.kc, k - pc), alpha, acols + pc, b + pc,
                 ldb, c, ldc);
}

template <class T>
std::size_t packed_a_size(int m, int k) {
  return round_up(m, active_kernel_t<T>().mr) * static_cast<std::size_t>(k);
}

template <class T>
std::size_t packed_b_size(int k, int n) {
  return static_cast<std::size_t>(k) * round_up(n, active_kernel_t<T>().nr);
}

template std::size_t packed_a_size<double>(int, int);
template std::size_t packed_b_size<double>(int, int);
template std::size_t packed_a_size<float>(int, int);
template std::size_t packed_b_size<float>(int, int);

void gemm_pack_a(Trans ta, int m, int k, const double* a, int lda,
                 double* buf) {
  gemm_pack_a_impl(ta, m, k, a, lda, buf);
}

void gemm_pack_b(Trans tb, int k, int n, const double* b, int ldb,
                 double* buf) {
  gemm_pack_b_impl(tb, k, n, b, ldb, buf);
}

void gemm_pack_a(Trans ta, int m, int k, const float* a, int lda,
                 float* buf) {
  gemm_pack_a_impl(ta, m, k, a, lda, buf);
}

void gemm_pack_b(Trans tb, int k, int n, const float* b, int ldb,
                 float* buf) {
  gemm_pack_b_impl(tb, k, n, b, ldb, buf);
}

void gemm_packed(int m, int n, int k, double alpha, const double* apack,
                 const double* bpack, double* c, int ldc) {
  gemm_packed_impl(m, n, k, alpha, apack, bpack, c, ldc);
}

void gemm_packed(int m, int n, int k, float alpha, const float* apack,
                 const float* bpack, float* c, int ldc) {
  gemm_packed_impl(m, n, k, alpha, apack, bpack, c, ldc);
}

void gemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
          const double* a, int lda, const double* b, int ldb, double beta,
          double* c, int ldc) {
  gemm_impl(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void gemm(Trans ta, Trans tb, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta,
          float* c, int ldc) {
  gemm_impl(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

}  // namespace calu::blas
