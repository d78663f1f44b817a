// Minimal Gaussian-process regression with an RBF kernel, enough to drive
// the Bayesian-optimisation scheduler (Aquatope). Dense Cholesky-based
// implementation; training sets in this repo stay in the hundreds of points.
#pragma once

#include <cstddef>
#include <vector>

namespace esg::baselines::bo {

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix
/// (row-major, n x n). Throws std::invalid_argument if not SPD.
[[nodiscard]] std::vector<double> cholesky(const std::vector<double>& a,
                                           std::size_t n);

/// Solves L y = b (forward) then L^T x = y (backward); returns x.
[[nodiscard]] std::vector<double> cholesky_solve(const std::vector<double>& l,
                                                 std::size_t n,
                                                 const std::vector<double>& b);

struct GpHyperparams {
  double length_scale = 0.3;   ///< RBF length scale (inputs normalised to [0,1])
  double signal_variance = 1.0;
  double noise_variance = 0.01;
};

class GaussianProcess {
 public:
  explicit GaussianProcess(GpHyperparams hp = {}) : hp_(hp) {}

  /// Fits on inputs X (row-major, n x d) and targets y (internally
  /// standardised). Replaces any previous fit. When X extends the previous
  /// fit's inputs, only the new rows of the Cholesky factor are computed:
  /// the kernel is fixed, so the old rows are the same bit for bit.
  void fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y);

  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;  ///< predictive variance (>= 0)
  };

  [[nodiscard]] Prediction predict(const std::vector<double>& x) const;

  /// Expected improvement of minimising below `best_y` at `x`.
  [[nodiscard]] double expected_improvement(const std::vector<double>& x,
                                            double best_y) const;

  /// expected_improvement() at each of `xs`, bit for bit: every point's sums
  /// run in predict()'s order. The points are solved side by side, so their
  /// independent sums overlap instead of each waiting on its last step.
  [[nodiscard]] std::vector<double> expected_improvements(
      const std::vector<std::vector<double>>& xs, double best_y) const;

  [[nodiscard]] bool fitted() const { return !x_.empty(); }

 private:
  GpHyperparams hp_;
  std::vector<std::vector<double>> x_;
  std::vector<double> alpha_;  // K^{-1} (y - mean)
  std::vector<double> chol_;   // Cholesky factor L of K (row-major, n x n)
  std::vector<double> chol_t_;  // L^T (row-major), for back substitution
  double y_mean_ = 0.0;
  double y_std_ = 1.0;

  [[nodiscard]] double kernel(const std::vector<double>& a,
                              const std::vector<double>& b) const;
};

}  // namespace esg::baselines::bo
