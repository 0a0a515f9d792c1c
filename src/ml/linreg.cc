#include "ml/linreg.hh"

#include <cmath>

#include "core/error.hh"

namespace dhdl::ml {

std::vector<double>
solveDense(std::vector<std::vector<double>> a, std::vector<double> b)
{
    size_t n = a.size();
    invariant(b.size() == n, "solveDense: dimension mismatch");
    for (size_t col = 0; col < n; ++col) {
        // Partial pivot.
        size_t piv = col;
        for (size_t r = col + 1; r < n; ++r) {
            if (std::fabs(a[r][col]) > std::fabs(a[piv][col]))
                piv = r;
        }
        std::swap(a[piv], a[col]);
        std::swap(b[piv], b[col]);
        double d = a[col][col];
        require(std::fabs(d) > 1e-30, "singular system in regression");
        for (size_t r = col + 1; r < n; ++r) {
            double f = a[r][col] / d;
            if (f == 0.0)
                continue;
            for (size_t c = col; c < n; ++c)
                a[r][c] -= f * a[col][c];
            b[r] -= f * b[col];
        }
    }
    std::vector<double> x(n, 0.0);
    for (size_t i = n; i-- > 0;) {
        double s = b[i];
        for (size_t c = i + 1; c < n; ++c)
            s -= a[i][c] * x[c];
        x[i] = s / a[i][i];
    }
    return x;
}

void
LinearModel::fit(const std::vector<std::vector<double>>& x,
                 const std::vector<double>& y, double lambda)
{
    require(!x.empty() && x.size() == y.size(),
            "linear fit needs matching, non-empty X and y");
    size_t d = x.front().size();
    size_t n = d + 1; // + bias column

    // Normal equations: (X^T X + lambda I) w = X^T y with an appended
    // all-ones column for the bias.
    std::vector<std::vector<double>> xtx(n, std::vector<double>(n, 0.0));
    std::vector<double> xty(n, 0.0);
    for (size_t r = 0; r < x.size(); ++r) {
        require(x[r].size() == d, "ragged feature matrix");
        for (size_t i = 0; i < n; ++i) {
            double xi = i < d ? x[r][i] : 1.0;
            xty[i] += xi * y[r];
            for (size_t j = i; j < n; ++j) {
                double xj = j < d ? x[r][j] : 1.0;
                xtx[i][j] += xi * xj;
            }
        }
    }
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < i; ++j)
            xtx[i][j] = xtx[j][i];
        xtx[i][i] += lambda;
    }

    auto w = solveDense(std::move(xtx), std::move(xty));
    b_ = w.back();
    w.pop_back();
    w_ = std::move(w);
}

double
LinearModel::predict(const std::vector<double>& x) const
{
    require(x.size() == w_.size(), "linear predict arity mismatch");
    double s = b_;
    for (size_t i = 0; i < x.size(); ++i)
        s += w_[i] * x[i];
    return s;
}

double
LinearModel::predict1(double x) const
{
    require(w_.size() == 1, "predict1 on multi-feature model");
    double s = b_;
    s += w_[0] * x;
    return s;
}

double
LinearModel::r2(const std::vector<std::vector<double>>& x,
                const std::vector<double>& y) const
{
    require(x.size() == y.size() && !y.empty(), "r2 arity mismatch");
    double mean = 0.0;
    for (double v : y)
        mean += v;
    mean /= double(y.size());
    double ss_res = 0.0, ss_tot = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
        double e = y[i] - predict(x[i]);
        ss_res += e * e;
        ss_tot += (y[i] - mean) * (y[i] - mean);
    }
    if (ss_tot < 1e-30)
        return 1.0;
    return 1.0 - ss_res / ss_tot;
}

} // namespace dhdl::ml
