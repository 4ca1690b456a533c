// Dense row-major matrix and vector views.
//
// This is deliberately a small, concrete container — not an expression
// template library. The NN trainer needs: owning storage, row spans, and the
// GEMM/GEMV kernels in gemm.hpp. Element type is float throughout training;
// the fixed-point engine has its own containers.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "klinq/common/error.hpp"

namespace klinq::la {

/// std::allocator whose value-less construct default-initializes: a vector
/// using it leaves the trivial elements that resize() adds uninitialized.
/// matrix passes an explicit value everywhere else, so only
/// resize_for_overwrite relies on it.
template <class T>
struct default_init_allocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = default_init_allocator<U>;
  };
  default_init_allocator() noexcept = default;
  template <class U>
  default_init_allocator(const default_init_allocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <class T>
class matrix {
 public:
  matrix() = default;

  matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static matrix from_rows(std::size_t rows, std::size_t cols,
                          std::vector<T> data) {
    KLINQ_REQUIRE(data.size() == rows * cols,
                  "matrix::from_rows: data size mismatch");
    matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.assign(data.begin(), data.end());
    return m;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  /// Elements the storage holds without reallocating.
  std::size_t capacity() const noexcept { return data_.capacity(); }
  bool empty() const noexcept { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  T& at(std::size_t r, std::size_t c) {
    KLINQ_REQUIRE(r < rows_ && c < cols_, "matrix::at: index out of range");
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    KLINQ_REQUIRE(r < rows_ && c < cols_, "matrix::at: index out of range");
    return data_[r * cols_ + c];
  }

  std::span<T> row(std::size_t r) noexcept {
    return std::span<T>(data_.data() + r * cols_, cols_);
  }
  std::span<const T> row(std::size_t r) const noexcept {
    return std::span<const T>(data_.data() + r * cols_, cols_);
  }

  std::span<T> flat() noexcept { return std::span<T>(data_); }
  std::span<const T> flat() const noexcept {
    return std::span<const T>(data_);
  }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }

  void fill(T value) noexcept { data_.assign(data_.size(), value); }

  void resize(std::size_t rows, std::size_t cols, T fill_value = T{}) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill_value);
  }

  /// Like resize, but nothing is cleared: the first min(old, new) elements
  /// keep their values and the elements past the old size are left
  /// uninitialized, for callers that overwrite every element they read.
  void resize_for_overwrite(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  friend bool operator==(const matrix& a, const matrix& b) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T, default_init_allocator<T>> data_;
};

using matrix_f = matrix<float>;
using matrix_d = matrix<double>;

}  // namespace klinq::la
