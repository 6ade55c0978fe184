#include "src/layout/matrix.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <random>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace calu::layout {

namespace {

/// Advises transparent huge pages for the 2 MiB-aligned interior of a
/// large allocation.  Buffers this size come straight from mmap and
/// fault in again on every allocation; with huge pages a fresh LU
/// workspace (or copy) faults in 2 MiB at a time instead of 4 KiB.
/// Advice only: contents and placement are unaffected, and a kernel
/// without THP ignores it.
void advise_huge_pages(void* p, std::size_t bytes) {
#ifdef __linux__
  constexpr std::uintptr_t kHuge = std::uintptr_t{2} << 20;
  if (bytes < 2 * kHuge) return;
  const std::uintptr_t begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (begin + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t hi = (begin + bytes) & ~(kHuge - 1);
  if (hi > lo) ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace

Matrix::Matrix(int m, int n, NoFill) : m_(m), n_(n) {
  assert(m >= 0 && n >= 0);
  const std::size_t count = static_cast<std::size_t>(m) * n;
  data_.reset(static_cast<double*>(
      ::operator new[](count * sizeof(double), std::align_val_t{64})));
  advise_huge_pages(data_.get(), count * sizeof(double));
}

Matrix::Matrix(int m, int n) : Matrix(m, n, NoFill{}) {
  fill(0.0);
}

Matrix Matrix::uninitialized(int m, int n) {
  return Matrix(m, n, NoFill{});
}

Matrix::Matrix(const Matrix& other) : Matrix(other.m_, other.n_, NoFill{}) {
  std::copy_n(other.data_.get(), static_cast<std::size_t>(m_) * n_,
              data_.get());
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this != &other) {
    Matrix tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

void Matrix::fill(double v) {
  std::fill_n(data_.get(), static_cast<std::size_t>(m_) * n_, v);
}

Matrix Matrix::random(int m, int n, std::uint64_t seed) {
  Matrix a(m, n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  double* p = a.data();
  for (std::size_t i = 0, e = static_cast<std::size_t>(m) * n; i < e; ++i)
    p[i] = dist(rng);
  return a;
}

Matrix Matrix::identity(int n) {
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) a(i, i) = 1.0;
  return a;
}

Matrix Matrix::wilkinson(int n) {
  Matrix a(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      if (i == j) a(i, j) = 1.0;
      else if (i > j) a(i, j) = -1.0;
    }
    a(j, n - 1) = 1.0;
  }
  return a;
}

Matrix Matrix::diag_dominant(int n, std::uint64_t seed) {
  Matrix a = random(n, n, seed);
  for (int i = 0; i < n; ++i) a(i, i) += n;
  return a;
}

}  // namespace calu::layout
