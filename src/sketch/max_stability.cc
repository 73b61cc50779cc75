#include "sketch/max_stability.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "linalg/kernels.h"
#include "util/check.h"

namespace ips {

MaxStabilitySketch::MaxStabilitySketch(std::size_t input_dim,
                                       const MaxStabilityParams& params,
                                       Rng* rng)
    : MaxStabilitySketch(Draw(input_dim, params, rng)) {
  Finish();
}

MaxStabilitySketch::MaxStabilitySketch(std::size_t input_dim,
                                       const MaxStabilityParams& params)
    : input_dim_(input_dim), params_(params) {
  IPS_CHECK_GT(input_dim, 0u);
  IPS_CHECK_GE(params.kappa, 2.0);
  IPS_CHECK_GE(params.copies, 1u);
  IPS_CHECK_GT(params.bucket_multiplier, 0.0);
  const double n = static_cast<double>(input_dim);
  buckets_per_copy_ = static_cast<std::size_t>(std::ceil(
                          params.bucket_multiplier *
                          std::pow(n, 1.0 - 2.0 / params.kappa))) +
                      1;
  buckets_per_copy_ = std::min(buckets_per_copy_, input_dim);
}

MaxStabilitySketch MaxStabilitySketch::Draw(std::size_t input_dim,
                                            const MaxStabilityParams& params,
                                            Rng* rng) {
  IPS_CHECK(rng != nullptr);
  MaxStabilitySketch sketch(input_dim, params);
  sketch.copies_.reserve(params.copies);
  for (std::size_t r = 0; r < params.copies; ++r) {
    Copy copy{std::vector<double>(input_dim),
              CountSketch(input_dim, sketch.buckets_per_copy_, rng)};
    // The uniform Rng::NextExponential inverts, drawn the same way. Its
    // exponential -log(u) is positive for every u in (0, 1), so the
    // redraw-on-zero loop around it never ran and needs no replay.
    for (double& u : copy.scale) {
      do {
        u = rng->NextDouble();
      } while (u <= 0.0);
    }
    sketch.copies_.push_back(std::move(copy));
  }
  return sketch;
}

void MaxStabilitySketch::Finish() {
  for (Copy& copy : copies_) {
    for (double& scale : copy.scale) {
      scale = std::pow(-std::log(scale), -1.0 / params_.kappa);
    }
  }
}

std::vector<double> MaxStabilitySketch::Apply(std::span<const double> x) const {
  IPS_CHECK_EQ(x.size(), input_dim_);
  std::vector<double> out;
  out.reserve(sketch_dim());
  std::vector<double> scaled(input_dim_);
  for (const Copy& copy : copies_) {
    for (std::size_t j = 0; j < input_dim_; ++j) {
      scaled[j] = copy.scale[j] * x[j];
    }
    const std::vector<double> bucketed = copy.count_sketch.Apply(scaled);
    out.insert(out.end(), bucketed.begin(), bucketed.end());
  }
  return out;
}

double MaxStabilitySketch::EstimateFromSketch(
    std::span<const double> sketched) const {
  IPS_CHECK_EQ(sketched.size(), sketch_dim());
  std::vector<double> estimates;
  estimates.reserve(copies_.size());
  for (std::size_t r = 0; r < copies_.size(); ++r) {
    estimates.push_back(kernels::LInfNorm(
        sketched.subspan(r * buckets_per_copy_, buckets_per_copy_)));
  }
  std::sort(estimates.begin(), estimates.end());
  const double median = estimates[estimates.size() / 2];
  return median * std::pow(std::numbers::ln2, 1.0 / params_.kappa);
}

double MaxStabilitySketch::EstimateNorm(std::span<const double> x) const {
  return EstimateFromSketch(Apply(x));
}

Matrix MaxStabilitySketch::SketchDataMatrix(const Matrix& data,
                                            std::size_t row_begin,
                                            std::size_t row_end) const {
  Matrix sketched(sketch_dim(), data.cols());
  SketchDataMatrixInto(data, row_begin, row_end, sketched.data());
  return sketched;
}

void MaxStabilitySketch::SketchDataMatrixInto(const Matrix& data,
                                              std::size_t row_begin,
                                              std::size_t row_end,
                                              std::span<double> out) const {
  IPS_CHECK_LE(row_begin, row_end);
  IPS_CHECK_LE(row_end, data.rows());
  IPS_CHECK_EQ(row_end - row_begin, input_dim_);
  const std::size_t cols = data.cols();
  IPS_CHECK_EQ(out.size(), sketch_dim() * cols);
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t r = 0; r < copies_.size(); ++r) {
    const Copy& copy = copies_[r];
    for (std::size_t j = 0; j < input_dim_; ++j) {
      const double weight =
          copy.count_sketch.sign(j) * copy.scale[j];
      const std::size_t out_row =
          r * buckets_per_copy_ + copy.count_sketch.bucket(j);
      const std::span<const double> in = data.Row(row_begin + j);
      double* const dst = out.data() + out_row * cols;
      for (std::size_t col = 0; col < cols; ++col) {
        dst[col] += weight * in[col];
      }
    }
  }
}

}  // namespace ips
