// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// int8 fixed-point companion of Matrix: per-row-block symmetric
// quantization for the two-stage scoring path (DESIGN.md §13).
//
// Rows are grouped into blocks of kRowsPerBlock; each block stores one
// scale s = max|entry| / 127 and codes c_i = round(x_i / s), so every
// code lies in [-127, 127] (the KernelOps::dot_i8 contract). The
// estimated inner product of data row r against a quantized query q is
//
//   est(r, q) = RowScale(r) * q.scale * <codes_r, q.codes>_i32
//
// computed by the dispatched int8 kernels at one byte per entry — an
// 8x smaller memory footprint than the double row and a cheaper
// multiply, which is what the survivor-selection pass of the two-stage
// scorer runs on. The error is rigorously bounded (ErrorBound below):
// with x = s_x(c_x + e_x), |e_x| <= 1/2 per entry,
//
//   |<x,y> - est| <= s_x s_y (L1(c_x)/2 + L1(c_y)/2 + d/4),
//
// which the LSH bucket join uses to skip exact verification *losslessly*
// (skip only when est + bound < cs). Top-k paths instead oversample
// survivors and re-rank exactly; see core/top_k.h.
//
// Thread-safety: lock-free by construction (audited, ipslint
// lock-order pass). QuantizedMatrix holds no mutable shared state —
// Quantize() fills it once, every accessor is const, and concurrent
// scoring threads only read; QuantizedVector is a value type. No
// IPS_GUARDED_BY members are needed here.

#ifndef IPS_LINALG_QUANTIZED_H_
#define IPS_LINALG_QUANTIZED_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "util/check.h"

namespace ips {

/// One quantized vector: int8 codes plus the dequantization scale
/// (scale == 0 iff the vector is all zeros, in which case every code is
/// 0 and every estimate through it is exactly 0).
struct QuantizedVector {
  std::vector<std::int8_t> codes;
  double scale = 0.0;
  double code_l1 = 0.0;  // sum |codes[i]|, for ErrorBound
};

/// Quantizes `x` with scale = max|x_i| / 127 (codes in [-127, 127]).
QuantizedVector QuantizeVector(std::span<const double> x);

/// int8 codes of a whole Matrix with one scale per row block.
class QuantizedMatrix {
 public:
  /// Rows sharing one scale factor. Small enough that one outlier row
  /// cannot flatten many neighbors' codes, large enough that the scale
  /// array stays negligible.
  static constexpr std::size_t kRowsPerBlock = 32;

  QuantizedMatrix() = default;

  /// Quantizes every row of `data` (finite entries required — callers
  /// sit behind the index factories, which validate).
  static QuantizedMatrix Quantize(const Matrix& data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  const std::int8_t* RowCodes(std::size_t r) const {
    IPS_DCHECK(r < rows_);
    return codes_.data() + r * cols_;
  }

  double RowScale(std::size_t r) const {
    IPS_DCHECK(r < rows_);
    return scales_[r / kRowsPerBlock];
  }

  /// L1 norm of row r's codes (precomputed at Quantize time; one term
  /// of the rigorous error bound).
  double RowCodeL1(std::size_t r) const {
    IPS_DCHECK(r < rows_);
    return static_cast<double>(code_l1_[r]);
  }

  /// out[r] = estimated <data row r, original query> for every row,
  /// via one dispatched int8 pass per row block.
  void EstimateAll(const QuantizedVector& q, std::span<double> out) const;

  /// The batched estimate-and-select pass of the two-stage scorer: for
  /// every query qi, offers each row r with its estimate against
  /// queries[qi] (made absolute when `absolute`) to heaps[qi], so
  /// heaps[qi] ends holding the rows TopEstimateIndices would keep from
  /// EstimateAll's output — the same estimates, bitwise, under the same
  /// (value desc, index asc) order. One int8 tile call per row block
  /// scores the whole group, so the code matrix is streamed once per
  /// call, and no n-length estimate array is materialized: a block
  /// whose best estimate is below a query's heap floor is rejected
  /// with one multiply (the estimate is monotone in the int32 dot, as
  /// its factor is >= 0). Requires heaps.size() == queries.size().
  void SelectTopEstimates(std::span<const QuantizedVector> queries,
                          bool absolute,
                          std::span<kernels::TopKHeap> heaps) const;

  /// out[j] = estimated score of data row indices[j]: the gathered
  /// flavor behind LSH candidate pruning.
  void EstimateGathered(const QuantizedVector& q,
                        std::span<const std::size_t> indices,
                        std::span<double> out) const;

  /// Rigorous bound on |exact - estimate| for row r against q:
  /// RowScale(r) * q.scale * (RowCodeL1(r)/2 + q.code_l1/2 + cols/4).
  double ErrorBound(std::size_t r, const QuantizedVector& q) const {
    return RowScale(r) * q.scale *
           (0.5 * RowCodeL1(r) + 0.5 * q.code_l1 +
            0.25 * static_cast<double>(cols_));
  }

  /// Bytes held by codes + scales (the footprint reported by benches).
  std::size_t MemoryBytes() const {
    return codes_.size() * sizeof(std::int8_t) +
           scales_.size() * sizeof(double) +
           code_l1_.size() * sizeof(std::int32_t);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int8_t> codes_;     // row-major, rows_ * cols_
  std::vector<double> scales_;         // one per row block
  std::vector<std::int32_t> code_l1_;  // one per row
};

}  // namespace ips

#endif  // IPS_LINALG_QUANTIZED_H_
