// matrix.h — owning column-major dense matrix plus fill helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace calu::layout {

/// Owning column-major double matrix, 64-byte aligned, leading dimension ==
/// row count.  This is the user-facing container; the factorization layouts
/// (block-cyclic, two-level block) live in PackedMatrix.  On Linux,
/// buffers of 4 MiB and up are advised for transparent huge pages, so a
/// fresh large matrix faults in 2 MiB at a time.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int m, int n);
  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  int rows() const { return m_; }
  int cols() const { return n_; }
  int ld() const { return m_; }
  double* data() { return data_.get(); }
  const double* data() const { return data_.get(); }

  double& operator()(int i, int j) {
    return data_[i + static_cast<std::size_t>(j) * m_];
  }
  double operator()(int i, int j) const {
    return data_[i + static_cast<std::size_t>(j) * m_];
  }

  void fill(double v);

  /// An m x n matrix whose elements are left indeterminate: the aligned
  /// allocation without Matrix(m, n)'s zero fill.  For destinations that
  /// are written in full before they are read (copies, unpacked factors),
  /// so a large buffer is touched once instead of twice.
  static Matrix uninitialized(int m, int n);

  /// Uniform random entries in [-1, 1] from a fixed seed (reproducible —
  /// every figure in the paper is run on random dense matrices).
  static Matrix random(int m, int n, std::uint64_t seed);
  static Matrix identity(int n);
  /// The GEPP growth-factor worst case: lower triangle -1, unit diagonal,
  /// last column 1.  Growth 2^{n-1} under partial pivoting.
  static Matrix wilkinson(int n);
  /// Random with a boosted diagonal, safely nonsingular for solver tests.
  static Matrix diag_dominant(int n, std::uint64_t seed);

 private:
  struct Free {
    void operator()(double* p) const noexcept {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  struct NoFill {};
  Matrix(int m, int n, NoFill);

  int m_ = 0, n_ = 0;
  std::unique_ptr<double[], Free> data_;
};

}  // namespace calu::layout
