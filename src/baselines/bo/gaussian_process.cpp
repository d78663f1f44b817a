#include "baselines/bo/gaussian_process.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace esg::baselines::bo {

namespace {

/// Computes rows [from, n) of the lower Cholesky factor `l` (row-major,
/// n x n) of the symmetric positive-definite matrix whose entries on and
/// below the diagonal are a(i, j). Row i reads only rows <= i of the matrix
/// and of the factor, so rows below `from` must already hold the factor of
/// the matrix's leading from x from block.
template <class Entry>
void factor_rows(std::vector<double>& l, std::size_t n, std::size_t from,
                 const Entry& a) {
  for (std::size_t i = from; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
      if (i == j) {
        if (sum <= 0.0) {
          throw std::invalid_argument("cholesky: matrix not positive definite");
        }
        l[i * n + j] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
    }
  }
}

double improvement(const GaussianProcess::Prediction& p, double best_y) {
  const double sigma = std::sqrt(p.variance);
  if (sigma < 1e-12) return std::max(0.0, best_y - p.mean);
  const double z = (best_y - p.mean) / sigma;
  const double phi =
      std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
  const double cdf = 0.5 * std::erfc(-z / std::numbers::sqrt2);
  return (best_y - p.mean) * cdf + sigma * phi;
}

}  // namespace

std::vector<double> cholesky(const std::vector<double>& a, std::size_t n) {
  if (a.size() != n * n) throw std::invalid_argument("cholesky: bad dimensions");
  std::vector<double> l(n * n, 0.0);
  factor_rows(l, n, 0,
              [&a, n](std::size_t i, std::size_t j) { return a[i * n + j]; });
  return l;
}

std::vector<double> cholesky_solve(const std::vector<double>& l, std::size_t n,
                                   const std::vector<double>& b) {
  if (l.size() != n * n || b.size() != n) {
    throw std::invalid_argument("cholesky_solve: bad dimensions");
  }
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l[i * n + k] * y[k];
    y[i] = sum / l[i * n + i];
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l[k * n + i] * x[k];
    x[i] = sum / l[i * n + i];
  }
  return x;
}

double GaussianProcess::kernel(const std::vector<double>& a,
                               const std::vector<double>& b) const {
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return hp_.signal_variance *
         std::exp(-sq / (2.0 * hp_.length_scale * hp_.length_scale));
}

void GaussianProcess::fit(const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size()) {
    throw std::invalid_argument("GaussianProcess::fit: bad training data");
  }
  const std::size_t n = x.size();

  // Keep the factor's rows for the inputs the previous fit shares; a fit on
  // other inputs starts from zero rows. Nothing is replaced until the new
  // factor is complete.
  const std::size_t kept =
      n >= x_.size() && std::equal(x_.begin(), x_.end(), x.begin()) ? x_.size()
                                                                    : 0;
  std::vector<double> chol(n * n, 0.0);
  for (std::size_t i = 0; i < kept; ++i) {
    std::copy_n(&chol_[i * kept], i + 1, &chol[i * n]);
  }
  factor_rows(chol, n, kept, [&](std::size_t i, std::size_t j) {
    const double v = kernel(x[i], x[j]);
    return i == j ? v + hp_.noise_variance : v;
  });
  chol_ = std::move(chol);
  chol_t_.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) chol_t_[j * n + i] = chol_[i * n + j];
  }
  x_.resize(kept);
  x_.insert(x_.end(), x.begin() + static_cast<std::ptrdiff_t>(kept), x.end());

  // Standardise the targets for numerical stability.
  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  y_mean_ /= static_cast<double>(n);
  double var = 0.0;
  for (double v : y) var += (v - y_mean_) * (v - y_mean_);
  y_std_ = n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 1.0;
  if (y_std_ <= 1e-12) y_std_ = 1.0;

  std::vector<double> target(n);
  for (std::size_t i = 0; i < n; ++i) target[i] = (y[i] - y_mean_) / y_std_;
  alpha_ = cholesky_solve(chol_, n, target);
}

GaussianProcess::Prediction GaussianProcess::predict(
    const std::vector<double>& x) const {
  if (!fitted()) throw std::logic_error("GaussianProcess::predict before fit");
  const std::size_t n = x_.size();
  std::vector<double> kstar(n);
  for (std::size_t i = 0; i < n; ++i) kstar[i] = kernel(x, x_[i]);

  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += kstar[i] * alpha_[i];

  // Predictive variance: k(x,x) - k*^T K^{-1} k*.
  const std::vector<double> v = cholesky_solve(chol_, n, kstar);
  double reduction = 0.0;
  for (std::size_t i = 0; i < n; ++i) reduction += kstar[i] * v[i];
  const double variance =
      std::max(0.0, kernel(x, x) + hp_.noise_variance - reduction);

  return Prediction{y_mean_ + y_std_ * mean, y_std_ * y_std_ * variance};
}

double GaussianProcess::expected_improvement(const std::vector<double>& x,
                                             double best_y) const {
  return improvement(predict(x), best_y);
}

std::vector<double> GaussianProcess::expected_improvements(
    const std::vector<std::vector<double>>& xs, double best_y) const {
  if (!fitted()) {
    throw std::logic_error("GaussianProcess::expected_improvements before fit");
  }
  if (xs.empty()) return {};
  const std::size_t n = x_.size();
  const std::size_t m = xs.size();
  // Point-minor: entry i of point c is at [i * m + c], so every step below
  // updates all points' sums from one contiguous row.
  std::vector<double> kstar(n * m);
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t i = 0; i < n; ++i) kstar[i * m + c] = kernel(xs[c], x_[i]);
  }
  // Each point runs cholesky_solve's sums: k ascending, `sum -= l * y`.
  std::vector<double> fwd(n * m);  // L y = k*
  for (std::size_t i = 0; i < n; ++i) {
    double* sum = &fwd[i * m];
    std::copy_n(&kstar[i * m], m, sum);
    for (std::size_t k = 0; k < i; ++k) {
      const double l = chol_[i * n + k];
      const double* yk = &fwd[k * m];
      for (std::size_t c = 0; c < m; ++c) sum[c] -= l * yk[c];
    }
    const double d = chol_[i * n + i];
    for (std::size_t c = 0; c < m; ++c) sum[c] /= d;
  }
  std::vector<double> v(n * m);  // L^T v = y
  for (std::size_t i = n; i-- > 0;) {
    const double* row = &chol_t_[i * n];  // column i of L
    double* sum = &v[i * m];
    std::copy_n(&fwd[i * m], m, sum);
    for (std::size_t k = i + 1; k < n; ++k) {
      const double l = row[k];
      const double* vk = &v[k * m];
      for (std::size_t c = 0; c < m; ++c) sum[c] -= l * vk[c];
    }
    for (std::size_t c = 0; c < m; ++c) sum[c] /= row[i];
  }
  std::vector<double> mean(m, 0.0);
  std::vector<double> reduction(m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < m; ++c) {
      mean[c] += kstar[i * m + c] * alpha_[i];
      reduction[c] += kstar[i * m + c] * v[i * m + c];
    }
  }
  std::vector<double> ei(m);
  for (std::size_t c = 0; c < m; ++c) {
    const double variance = std::max(
        0.0, kernel(xs[c], xs[c]) + hp_.noise_variance - reduction[c]);
    ei[c] = improvement(
        Prediction{y_mean_ + y_std_ * mean[c], y_std_ * y_std_ * variance},
        best_y);
  }
  return ei;
}

}  // namespace esg::baselines::bo
