/**
 * @file
 * Ordinary least-squares linear regression via the normal equations
 * (with a small ridge term for conditioning). Used to (a) fit the
 * per-template analytical area models from characterization runs
 * ("we create analytical models of each DHDL template's resource
 * requirements", Section IV-B) and (b) fit the BRAM-duplication
 * estimate as a linear function of routing LUTs (Section IV-B2).
 */

#ifndef DHDL_ML_LINREG_HH
#define DHDL_ML_LINREG_HH

#include <cstddef>
#include <vector>

namespace dhdl::ml {

/** Multivariate linear model y = w . x + b. */
class LinearModel
{
  public:
    /**
     * Fit from row-major features X and targets y with L2 ridge
     * strength lambda. Throws FatalError on dimension mismatch.
     */
    void fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y, double lambda = 1e-9);

    /** Predict one sample. */
    double predict(const std::vector<double>& x) const;

    /** Predict a single-feature model without building a vector. */
    double predict1(double x) const;

    const std::vector<double>& weights() const { return w_; }
    double bias() const { return b_; }

    /** Reconstruct a fitted model from persisted coefficients. */
    static LinearModel
    fromWeights(std::vector<double> w, double b)
    {
        LinearModel m;
        m.w_ = std::move(w);
        m.b_ = b;
        return m;
    }

    /** Coefficient of determination on a dataset. */
    double r2(const std::vector<std::vector<double>>& x,
              const std::vector<double>& y) const;

  private:
    std::vector<double> w_;
    double b_ = 0.0;
};

/**
 * Solve the dense symmetric positive-definite system A x = b in place
 * with Gaussian elimination and partial pivoting. Exposed for tests.
 */
std::vector<double> solveDense(std::vector<std::vector<double>> a,
                               std::vector<double> b);

} // namespace dhdl::ml

#endif // DHDL_ML_LINREG_HH
