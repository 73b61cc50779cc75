// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Max-stability linear sketch for ell_kappa norms, kappa >= 2 (our
// realization of the unpublished Andoni [5] construction Section 4.3
// relies on; see DESIGN.md "Substitutions").
//
// Principle: with u_1, ..., u_n i.i.d. Exp(1), the scaled maximum
//   max_j |x_j| / u_j^(1/kappa)
// has the distribution ||x||_kappa / E^(1/kappa) with E ~ Exp(1)
// (max-stability of the Frechet distribution), so its median is
// ||x||_kappa (1/ln 2)^(1/kappa). Composing the diagonal scaling
// D = diag(u_j^(-1/kappa)) with a CountSketch into
// m = O(n^(1-2/kappa) polylog n) buckets keeps the map linear and
// oblivious while the heaviest scaled coordinate survives bucketing
// (the ell_2 mass of Dx spread over m buckets is dominated by it).
// Taking the median over independent copies yields a constant-factor
// approximation of ||x||_kappa with high probability, which combined
// with ||x||_inf <= ||x||_kappa <= n^(1/kappa) ||x||_inf is exactly the
// O(n^(1/kappa))-approximation of ||x||_inf that the Section 4.3 MIPS
// data structure needs.

#ifndef IPS_SKETCH_MAX_STABILITY_H_
#define IPS_SKETCH_MAX_STABILITY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "sketch/count_sketch.h"

namespace ips {

/// Parameters of the max-stability sketch.
struct MaxStabilityParams {
  /// The norm index kappa >= 2.
  double kappa = 4.0;
  /// Number of independent (D, S) copies medianed over.
  std::size_t copies = 5;
  /// Bucket-count multiplier: m = ceil(multiplier * n^(1-2/kappa)) + 1.
  double bucket_multiplier = 4.0;
};

/// One linear sketch Pi = [S_1 D_1; ...; S_R D_R] for vectors in R^n.
class MaxStabilitySketch {
 public:
  /// Draw(input_dim, params, rng) followed by Finish().
  MaxStabilitySketch(std::size_t input_dim, const MaxStabilityParams& params,
                     Rng* rng);

  /// The sketch's randomness without its per-coordinate math: consumes
  /// exactly the constructor's rng stream (copy by copy, the CountSketch
  /// assignments, then the uniform behind each Exp(1) scale). Builders
  /// that draw many sketches from one rng call this serially, in a fixed
  /// order, then Finish() the sketches on a pool. The result must be
  /// finished before any other use.
  static MaxStabilitySketch Draw(std::size_t input_dim,
                                 const MaxStabilityParams& params, Rng* rng);

  /// Turns the drawn uniforms into the scales u^(-1/kappa), u ~ Exp(1).
  /// Draw(...) then Finish() is bitwise the constructed sketch.
  void Finish();

  std::size_t input_dim() const { return input_dim_; }

  /// Rows of one copy (m).
  std::size_t buckets_per_copy() const { return buckets_per_copy_; }

  /// Total sketch dimension, copies * m.
  std::size_t sketch_dim() const {
    return buckets_per_copy_ * copies_.size();
  }

  /// Pi x: the concatenated copy outputs.
  std::vector<double> Apply(std::span<const double> x) const;

  /// Estimates ||x||_kappa from a sketched vector (median of per-copy
  /// ell_inf norms, bias-corrected by (ln 2)^(1/kappa)).
  double EstimateFromSketch(std::span<const double> sketched) const;

  /// Convenience: EstimateFromSketch(Apply(x)).
  double EstimateNorm(std::span<const double> x) const;

  /// Applies the sketch across the *rows* of `data[row_begin:row_end)`:
  /// returns the sketch_dim() x data.cols() matrix Pi * A whose product
  /// with a query q equals Apply of the vector (p_i^T q)_i. This is the
  /// A_s = Pi A precomputation of the Section 4.3 MIPS index.
  Matrix SketchDataMatrix(const Matrix& data, std::size_t row_begin,
                          std::size_t row_end) const;

  /// SketchDataMatrix into caller storage: `out` holds sketch_dim() x
  /// data.cols() doubles, row-major, whatever their prior contents.
  void SketchDataMatrixInto(const Matrix& data, std::size_t row_begin,
                            std::size_t row_end, std::span<double> out) const;

  const MaxStabilityParams& params() const { return params_; }

 private:
  struct Copy {
    std::vector<double> scale;  // u_j^(-1/kappa); the uniforms until Finish
    CountSketch count_sketch;
  };

  MaxStabilitySketch(std::size_t input_dim, const MaxStabilityParams& params);

  std::size_t input_dim_;
  MaxStabilityParams params_;
  std::size_t buckets_per_copy_;
  std::vector<Copy> copies_;
};

}  // namespace ips

#endif  // IPS_SKETCH_MAX_STABILITY_H_
