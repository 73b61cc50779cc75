#include "linalg/quantized.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "linalg/kernels.h"

namespace ips {

namespace {

// round(x / scale) clamped to the dot_i8 contract range. The clamp is
// defensive: with scale = max|x| / 127 every quotient already lands in
// [-127, 127], but rounding at the boundary must never produce -128.
std::int8_t Code(double x, double inv_scale) {
  const double scaled = x * inv_scale;
  const long rounded = std::lround(scaled);
  return static_cast<std::int8_t>(std::clamp<long>(rounded, -127, 127));
}

// The largest of one block's kRowsPerBlock int32 dots (of |dot| when
// `absolute`). One loop per mode with a fixed trip count, so the
// compiler vectorizes both.
std::int32_t BlockMax(const std::int32_t* dots, bool absolute) {
  constexpr std::size_t kRows = QuantizedMatrix::kRowsPerBlock;
  std::int32_t best = std::numeric_limits<std::int32_t>::min();
  if (absolute) {
    for (std::size_t r = 0; r < kRows; ++r) {
      best = std::max(best, std::abs(dots[r]));
    }
  } else {
    for (std::size_t r = 0; r < kRows; ++r) best = std::max(best, dots[r]);
  }
  return best;
}

}  // namespace

QuantizedVector QuantizeVector(std::span<const double> x) {
  QuantizedVector q;
  q.codes.resize(x.size(), 0);
  double max_abs = 0.0;
  for (double v : x) max_abs = std::max(max_abs, std::abs(v));
  if (max_abs == 0.0) return q;  // scale 0, all-zero codes
  q.scale = max_abs / 127.0;
  const double inv_scale = 127.0 / max_abs;
  std::int32_t l1 = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    q.codes[i] = Code(x[i], inv_scale);
    l1 += std::abs(static_cast<std::int32_t>(q.codes[i]));
  }
  q.code_l1 = static_cast<double>(l1);
  return q;
}

QuantizedMatrix QuantizedMatrix::Quantize(const Matrix& data) {
  QuantizedMatrix qm;
  qm.rows_ = data.rows();
  qm.cols_ = data.cols();
  qm.codes_.assign(qm.rows_ * qm.cols_, 0);
  qm.code_l1_.assign(qm.rows_, 0);
  const std::size_t num_blocks =
      (qm.rows_ + kRowsPerBlock - 1) / kRowsPerBlock;
  qm.scales_.assign(num_blocks, 0.0);
  const double* base = data.raw();
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t row_begin = b * kRowsPerBlock;
    const std::size_t row_end =
        std::min(row_begin + kRowsPerBlock, qm.rows_);
    double max_abs = 0.0;
    for (std::size_t i = row_begin * qm.cols_; i < row_end * qm.cols_;
         ++i) {
      max_abs = std::max(max_abs, std::abs(base[i]));
    }
    if (max_abs == 0.0) continue;  // scale 0, codes stay 0
    qm.scales_[b] = max_abs / 127.0;
    const double inv_scale = 127.0 / max_abs;
    for (std::size_t r = row_begin; r < row_end; ++r) {
      std::int32_t l1 = 0;
      for (std::size_t j = 0; j < qm.cols_; ++j) {
        const std::int8_t c = Code(base[r * qm.cols_ + j], inv_scale);
        qm.codes_[r * qm.cols_ + j] = c;
        l1 += std::abs(static_cast<std::int32_t>(c));
      }
      qm.code_l1_[r] = l1;
    }
  }
  return qm;
}

void QuantizedMatrix::EstimateAll(const QuantizedVector& q,
                                  std::span<double> out) const {
  IPS_DCHECK(q.codes.size() == cols_);
  IPS_DCHECK(out.size() == rows_);
  if (rows_ == 0) return;
  std::int32_t scratch[kRowsPerBlock];
  for (std::size_t b = 0; b < scales_.size(); ++b) {
    const std::size_t row_begin = b * kRowsPerBlock;
    const std::size_t nrows =
        std::min(kRowsPerBlock, rows_ - row_begin);
    const double factor = scales_[b] * q.scale;
    if (factor == 0.0) {
      std::fill_n(out.begin() + row_begin, nrows, 0.0);
      continue;
    }
    kernels::ScoreBlockI8(codes_.data() + row_begin * cols_, nrows, cols_,
                          q.codes.data(), 1, scratch, kRowsPerBlock);
    for (std::size_t r = 0; r < nrows; ++r) {
      out[row_begin + r] = factor * static_cast<double>(scratch[r]);
    }
  }
}

void QuantizedMatrix::SelectTopEstimates(
    std::span<const QuantizedVector> queries, bool absolute,
    std::span<kernels::TopKHeap> heaps) const {
  IPS_DCHECK(heaps.size() == queries.size());
  const std::size_t num_q = queries.size();
  if (rows_ == 0 || num_q == 0) return;
  // The group's codes back to back, the tile scorer's query operand.
  std::vector<std::int8_t> query_codes;
  query_codes.reserve(num_q * cols_);
  std::vector<double> floors(num_q);
  for (std::size_t qi = 0; qi < num_q; ++qi) {
    IPS_DCHECK(queries[qi].codes.size() == cols_);
    query_codes.insert(query_codes.end(), queries[qi].codes.begin(),
                       queries[qi].codes.end());
    floors[qi] = heaps[qi].Floor();
  }
  std::vector<std::int32_t> raw(num_q * kRowsPerBlock);
  for (std::size_t b = 0; b < scales_.size(); ++b) {
    const std::size_t row_begin = b * kRowsPerBlock;
    const std::size_t nrows = std::min(kRowsPerBlock, rows_ - row_begin);
    kernels::ScoreBlockI8(codes_.data() + row_begin * cols_, nrows, cols_,
                          query_codes.data(), num_q, raw.data(),
                          kRowsPerBlock);
    for (std::size_t qi = 0; qi < num_q; ++qi) {
      const std::int32_t* dots = raw.data() + qi * kRowsPerBlock;
      // EstimateAll's expression, so the heap sees its exact doubles.
      // (Where EstimateAll writes 0.0 for a zero factor, this gives
      // +-0.0, which every comparison below treats as the same value.)
      const double factor = scales_[b] * queries[qi].scale;
      // Rounding is monotone, so factor * (largest dot) is the block's
      // largest estimate: below the floor, no row of the block enters.
      // BlockMax reads all kRowsPerBlock entries; past the rows of a
      // partial last block they hold an earlier block's dots (or the
      // initial zeros), which can only raise the maximum, so the reject
      // never skips a row that would enter.
      double floor = floors[qi];
      if (factor * static_cast<double>(BlockMax(dots, absolute)) < floor) {
        continue;
      }
      kernels::TopKHeap& heap = heaps[qi];
      for (std::size_t r = 0; r < nrows; ++r) {
        double value = factor * static_cast<double>(dots[r]);
        if (absolute) value = std::abs(value);
        if (value < floor) continue;
        const std::size_t index = row_begin + r;
        if (heap.Accepts(value, index)) {
          heap.Push(index, value);
          floor = heap.Floor();
        }
      }
      floors[qi] = floor;
    }
  }
}

void QuantizedMatrix::EstimateGathered(const QuantizedVector& q,
                                       std::span<const std::size_t> indices,
                                       std::span<double> out) const {
  IPS_DCHECK(q.codes.size() == cols_);
  IPS_DCHECK(out.size() == indices.size());
  const kernels::KernelOps& ops = kernels::ActiveOps();
  for (std::size_t j = 0; j < indices.size(); ++j) {
    IPS_DCHECK(indices[j] < rows_);
    const std::int32_t raw = ops.dot_i8(codes_.data() + indices[j] * cols_,
                                        q.codes.data(), cols_);
    out[j] = RowScale(indices[j]) * q.scale * static_cast<double>(raw);
  }
}

}  // namespace ips
