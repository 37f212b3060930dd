#include "stats/correlation.h"

#include "check/check.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

namespace cad::stats {

namespace {
constexpr double kEpsilon = 1e-12;
}  // namespace

double PearsonCorrelation(std::span<const double> x, std::span<const double> y) {
  CAD_CHECK(x.size() == y.size(), "correlation of unequal-length series");
  const size_t n = x.size();
  if (n < 2) return 0.0;
  double mean_x = 0.0, mean_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx < kEpsilon || syy < kEpsilon) return 0.0;
  double r = sxy / std::sqrt(sxx * syy);
  // Clamp rounding drift so callers can rely on [-1, 1].
  if (r > 1.0) r = 1.0;
  if (r < -1.0) r = -1.0;
  return r;
}

void RankTransformInto(std::span<const double> x, std::vector<int>* order,
                       std::vector<double>* ranks) {
  const int n = static_cast<int>(x.size());
  order->resize(n);
  std::iota(order->begin(), order->end(), 0);
  std::sort(order->begin(), order->end(),
            [&](int a, int b) { return x[a] < x[b]; });
  ranks->assign(n, 0.0);
  int i = 0;
  while (i < n) {
    int j = i;
    while (j + 1 < n && x[(*order)[j + 1]] == x[(*order)[i]]) ++j;
    const double shared = (static_cast<double>(i) + j) / 2.0 + 1.0;
    for (int idx = i; idx <= j; ++idx) (*ranks)[(*order)[idx]] = shared;
    i = j + 1;
  }
}

std::vector<double> RankTransform(std::span<const double> x) {
  std::vector<int> order;
  std::vector<double> ranks;
  RankTransformInto(x, &order, &ranks);
  return ranks;
}

double SpearmanCorrelation(std::span<const double> x,
                           std::span<const double> y) {
  CAD_CHECK(x.size() == y.size(), "correlation of unequal-length series");
  if (x.size() < 2) return 0.0;
  const std::vector<double> rx = RankTransform(x);
  const std::vector<double> ry = RankTransform(y);
  return PearsonCorrelation(rx, ry);
}

// Cache-line aligned so the dot-product loop keeps one position in the
// instruction stream whatever code is linked before it. Unaligned, an edit
// elsewhere in the library moved the 22-byte loop across a 64-byte line and
// 256-sensor (w = 200) streaming rounds ran ~23 % slower (x86-64 Xeon, GCC
// -O2); aligned, the loop sits inside one 32-byte fetch block.
[[gnu::aligned(64)]] void WindowCorrelationMatrixInto(
    const ts::MultivariateSeries& series, int start, int w,
    CorrelationKind kind, int n_threads, CorrelationScratch* scratch,
    CorrelationMatrix* out) CAD_REALTIME_AUDITED {
  const int n = series.n_sensors();
  CAD_CHECK(start >= 0 && start + w <= series.length(), "window out of range");
  out->Reset(n);
  CorrelationMatrix& corr = *out;

  // Center and unit-normalize each sensor's window (rank-transformed first
  // for Spearman); the correlation of two sensors is then a dot product.
  std::vector<double>& residuals = scratch->residuals;
  residuals.assign(static_cast<size_t>(n) * w, 0.0);
  std::vector<uint8_t>& degenerate = scratch->degenerate;
  degenerate.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    auto window = series.sensor_window(i, start, w);
    std::span<const double> x = window;
    if (kind == CorrelationKind::kSpearman) {
      RankTransformInto(window, &scratch->rank_order, &scratch->ranked);
      x = scratch->ranked;
    }
    double mean = 0.0;
    for (double v : x) mean += v;
    mean /= static_cast<double>(w);
    double norm_sq = 0.0;
    double* res = residuals.data() + static_cast<size_t>(i) * w;
    for (int t = 0; t < w; ++t) {
      res[t] = x[t] - mean;
      norm_sq += res[t] * res[t];
    }
    if (norm_sq < kEpsilon) {
      degenerate[i] = 1;
      continue;
    }
    const double inv_norm = 1.0 / std::sqrt(norm_sq);
    for (int t = 0; t < w; ++t) res[t] *= inv_norm;
  }

  // Upper-triangle dot products, optionally split over threads by row with
  // a balanced interleaving (row i costs n - i products, so striding rows
  // across threads evens the load). Each cell is written by exactly one
  // thread and the arithmetic per cell is fixed, so results are identical
  // for any thread count.
  auto compute_rows = [&](int first_row, int stride) {
    for (int i = first_row; i < n; i += stride) {
      if (degenerate[i]) continue;
      const double* xi = residuals.data() + static_cast<size_t>(i) * w;
      for (int j = i + 1; j < n; ++j) {
        if (degenerate[j]) continue;
        const double* xj = residuals.data() + static_cast<size_t>(j) * w;
        double dot = 0.0;
        for (int t = 0; t < w; ++t) dot += xi[t] * xj[t];
        if (dot > 1.0) dot = 1.0;
        if (dot < -1.0) dot = -1.0;
        corr.set(i, j, dot);
      }
    }
  };

  if (n_threads <= 1 || n < 2 * n_threads) {
    compute_rows(0, 1);
  } else {
    std::vector<std::thread> workers;
    // cad-lint: allow(CL007) opt-in n_threads>1 path; the engine's default single-thread configuration never reaches it
    workers.reserve(n_threads);
    for (int t = 0; t < n_threads; ++t) {
      // cad-lint: allow(CL007) thread spawn on the opt-in n_threads>1 path only
      workers.emplace_back(compute_rows, t, n_threads);
    }
    // cad-lint: allow(CL007) join on the opt-in n_threads>1 path only
    for (std::thread& worker : workers) worker.join();
  }
}

CorrelationMatrix WindowCorrelationMatrix(const ts::MultivariateSeries& series,
                                          int start, int w,
                                          CorrelationKind kind, int n_threads) {
  CorrelationMatrix corr;
  CorrelationScratch scratch;
  WindowCorrelationMatrixInto(series, start, w, kind, n_threads, &scratch,
                              &corr);
  return corr;
}

}  // namespace cad::stats
