/**
 * @file
 * Differential test harness for the simplex solver.
 *
 * The sparse bounded-variable revised simplex (SimplexSolver) is checked
 * against the dense flat-tableau test oracle (DenseOracleSolve) on
 * hundreds of seeded random LPs spanning all three outcomes (optimal /
 * infeasible / unbounded). The two share no pivoting code — the oracle
 * materializes bound rows and shifts variables, the solver handles
 * bounds natively on a factorized basis — so agreement on status and
 * objective is strong evidence both are right.
 *
 * Every sparse optimum is additionally verified against its own LP
 * duality certificate (dual feasibility, reduced-cost signs,
 * stationarity, complementary slackness), which does not rely on the
 * oracle at all.
 */
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "solver/model.hpp"
#include "solver/simplex.hpp"
#include "lp_oracle.hpp"

namespace flex::solver {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kSeeds = 500;

/** Random bounded-variable LP: mixed relations, fixed/ranged/unbounded
 * variables, both senses. Finite lower bounds keep the dense oracle in
 * its supported regime. */
Model
MakeRandomLp(std::uint64_t seed)
{
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x243F6A8885A308D3ULL);
  Model m;
  m.SetSense(rng.Bernoulli(0.5) ? Sense::kMaximize : Sense::kMinimize);
  const int n = 1 + static_cast<int>(rng.UniformInt(0, 13));
  const int rows = 1 + static_cast<int>(rng.UniformInt(0, 11));
  for (int j = 0; j < n; ++j) {
    const double lo = rng.Uniform(-5.0, 5.0);
    double hi;
    const double shape = rng.Uniform(0.0, 1.0);
    if (shape < 0.1)
      hi = lo;  // fixed variable
    else if (shape < 0.3)
      hi = kInf;  // ray candidate
    else
      hi = lo + rng.Uniform(0.0, 10.0);
    m.AddContinuous("x" + std::to_string(j), lo, hi,
                    rng.Uniform(-8.0, 8.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<std::pair<VarIndex, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.6))
        terms.emplace_back(j, rng.Uniform(-5.0, 5.0));
    }
    const int rel = static_cast<int>(rng.UniformInt(0, 2));
    m.AddConstraint("c" + std::to_string(i), std::move(terms),
                    static_cast<Relation>(rel), rng.Uniform(-10.0, 10.0));
  }
  return m;
}

/** Checks the sparse solver's own optimality certificate. All
 * quantities are in the minimize orientation the solver documents. */
void
CheckCertificate(const Model& m, const LpResult& r, std::uint64_t seed)
{
  SCOPED_TRACE("seed " + std::to_string(seed));
  const int n = m.NumVariables();
  const int rows = m.NumConstraints();
  ASSERT_EQ(static_cast<int>(r.dual.size()), rows);
  ASSERT_EQ(static_cast<int>(r.reduced_costs.size()), n);
  const double sgn = m.sense() == Sense::kMaximize ? -1.0 : 1.0;
  constexpr double kTol = 1e-6;

  // Primal feasibility of the reported point.
  EXPECT_TRUE(m.IsFeasible(r.x, kTol));

  for (int i = 0; i < rows; ++i) {
    const Constraint& c = m.constraints()[static_cast<std::size_t>(i)];
    const double y = r.dual[static_cast<std::size_t>(i)];
    // Dual feasibility: <= rows price non-positive, >= rows
    // non-negative, equalities unrestricted (minimize orientation).
    if (c.relation == Relation::kLessEqual)
      EXPECT_LE(y, kTol);
    else if (c.relation == Relation::kGreaterEqual)
      EXPECT_GE(y, -kTol);
    // Complementary slackness: a priced row must be tight.
    if (std::fabs(y) > kTol) {
      double activity = 0.0;
      for (const auto& [var, coef] : c.terms)
        activity += coef * r.x[static_cast<std::size_t>(var)];
      EXPECT_NEAR(activity, c.rhs, kTol * std::max(1.0, std::fabs(c.rhs)))
          << "row " << i << " priced at " << y << " but slack";
    }
  }

  for (int j = 0; j < n; ++j) {
    const Variable& v = m.variables()[static_cast<std::size_t>(j)];
    const double xj = r.x[static_cast<std::size_t>(j)];
    const double rc = r.reduced_costs[static_cast<std::size_t>(j)];
    // Stationarity: rc == c_min - A^T y, recomputed from model data.
    double expect = sgn * v.objective;
    for (int i = 0; i < rows; ++i) {
      const Constraint& c = m.constraints()[static_cast<std::size_t>(i)];
      for (const auto& [var, coef] : c.terms) {
        if (var == j)
          expect -= coef * r.dual[static_cast<std::size_t>(i)];
      }
    }
    EXPECT_NEAR(rc, expect, kTol * std::max(1.0, std::fabs(expect)))
        << "stationarity of x" << j;
    // Reduced-cost signs by position. A variable sitting on both bounds
    // (fixed or degenerate narrow range) admits any sign.
    const bool at_lower = xj <= v.lower + 1e-7;
    const bool at_upper = std::isfinite(v.upper) && xj >= v.upper - 1e-7;
    if (at_lower && at_upper)
      continue;
    if (at_lower)
      EXPECT_GE(rc, -kTol) << "x" << j << " at lower bound";
    else if (at_upper)
      EXPECT_LE(rc, kTol) << "x" << j << " at upper bound";
    else
      EXPECT_NEAR(rc, 0.0, kTol) << "x" << j << " basic/interior";
  }
}

TEST(LpDifferentialTest, SparseAgreesWithDenseOracleOn500RandomLps)
{
  const SimplexSolver sparse;

  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Model m = MakeRandomLp(seed);
    const LpResult rs = sparse.Solve(m);
    const LpResult rd = DenseOracleSolve(m);

    ASSERT_NE(rs.status, LpStatus::kIterationLimit);
    ASSERT_NE(rd.status, LpStatus::kIterationLimit);
    ASSERT_EQ(rs.status, rd.status)
        << "sparse=" << static_cast<int>(rs.status)
        << " dense=" << static_cast<int>(rd.status);

    switch (rs.status) {
      case LpStatus::kOptimal: {
        ++optimal;
        const double scale = std::max(1.0, std::fabs(rd.objective));
        EXPECT_NEAR(rs.objective, rd.objective, 1e-9 * scale);
        CheckCertificate(m, rs, seed);
        break;
      }
      case LpStatus::kInfeasible:
        ++infeasible;
        break;
      case LpStatus::kUnbounded:
        ++unbounded;
        break;
      case LpStatus::kIterationLimit:
        break;
    }
  }

  // The generator must actually exercise all three outcomes, or the
  // differential signal is weaker than it looks.
  EXPECT_GE(optimal, 50) << "generator produced too few optimal LPs";
  EXPECT_GE(infeasible, 10) << "generator produced too few infeasible LPs";
  EXPECT_GE(unbounded, 10) << "generator produced too few unbounded LPs";
}

TEST(LpDifferentialTest, AgreementHoldsUnderBoundOverrides)
{
  // Branch-and-bound exercises SolveWithBounds, not Solve; run a
  // narrower differential sweep through that entry point.
  const SimplexSolver sparse;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Model m = MakeRandomLp(seed);
    Rng rng(seed + 7777);
    BoundOverrides overrides(static_cast<std::size_t>(m.NumVariables()));
    for (int j = 0; j < m.NumVariables(); ++j) {
      if (!rng.Bernoulli(0.3))
        continue;
      const Variable& v = m.variables()[static_cast<std::size_t>(j)];
      const double lo = v.lower + rng.Uniform(0.0, 2.0);
      const double hi = std::isfinite(v.upper)
                            ? std::max(lo, v.upper - rng.Uniform(0.0, 2.0))
                            : lo + rng.Uniform(0.0, 6.0);
      if (lo <= hi)
        overrides[static_cast<std::size_t>(j)] = {lo, hi};
    }
    const LpResult rs = sparse.SolveWithBounds(m, overrides);
    const LpResult rd = DenseOracleSolve(m, overrides);
    ASSERT_EQ(rs.status, rd.status);
    if (rs.status == LpStatus::kOptimal) {
      const double scale = std::max(1.0, std::fabs(rd.objective));
      EXPECT_NEAR(rs.objective, rd.objective, 1e-9 * scale);
    }
  }
}

TEST(LpDifferentialTest, DualSimplexWarmRestartAgreesWithColdOracleOn500Seeds)
{
  // The branch-and-bound warm path: solve an LP, tighten bounds past
  // the optimal point (what branching does), re-solve warm in the same
  // workspace. The warm solve runs the dual-simplex repair; the dense
  // oracle re-solves cold from scratch. Beyond objective agreement,
  // this sweep is what lets the solver *trust* a dual-simplex
  // kInfeasible verdict as a Farkas certificate: the oracle confirms
  // every one independently.
  const SimplexSolver sparse;
  SimplexWorkspace ws;

  int compared = 0;
  int base_optimal = 0;
  int warm_used = 0;
  int dual_restarts = 0;
  int infeasible_agreed = 0;
  // The generator yields an optimal base LP on roughly one seed in
  // seven (the rest are infeasible or unbounded and have no basis to
  // warm-start from), so sweep a wider seed range to bank 500-seed
  // statistics on the warm path itself.
  for (std::uint64_t seed = 0; seed < 4 * kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Model m = MakeRandomLp(seed);
    SimplexBasis basis;
    const LpResult base =
        sparse.SolveWithBounds(m, BoundOverrides{}, &ws, nullptr, &basis);
    if (base.status != LpStatus::kOptimal || basis.empty())
      continue;
    ++base_optimal;

    // Branching-style perturbation: cut one or two variables' boxes
    // just past the optimal point — exactly what a branch does, and
    // exactly what pushes the parent-optimal basis out of primal range
    // while usually leaving the child feasible.
    Rng rng(seed * 31 + 17);
    const int n = m.NumVariables();
    BoundOverrides overrides(static_cast<std::size_t>(n));
    // Usually one or two shallow branching cuts (feasible children that
    // the dual phase repairs); sometimes a deep multi-variable cut that
    // drives the child infeasible, exercising the Farkas verdicts.
    const bool deep = rng.Bernoulli(0.25);
    const int cuts = deep ? n : 1 + (rng.Bernoulli(0.4) ? 1 : 0);
    for (int c = 0; c < cuts; ++c) {
      const int j = deep ? c
                         : static_cast<int>(rng.UniformInt(
                               0, static_cast<std::int64_t>(n) - 1));
      if (deep && !rng.Bernoulli(0.4))
        continue;
      const Variable& v = m.variables()[static_cast<std::size_t>(j)];
      const double xj = base.x[static_cast<std::size_t>(j)];
      const double depth = deep ? rng.Uniform(0.0, 1.5)
                                : rng.Uniform(0.05, 0.8);
      double lo = v.lower;
      double hi = v.upper;
      if (rng.Bernoulli(0.5)) {
        hi = std::max(lo, xj - depth);
        if (std::isfinite(v.upper))
          hi = std::min(hi, v.upper);
      } else {
        lo = xj + depth;
        if (std::isfinite(hi))
          lo = std::min(lo, hi);
        lo = std::max(lo, v.lower);
      }
      if (lo <= hi)
        overrides[static_cast<std::size_t>(j)] = {lo, hi};
    }

    const LpResult rw = sparse.SolveWithBounds(m, overrides, &ws, &basis,
                                               nullptr);
    const LpResult rd = DenseOracleSolve(m, overrides);
    ASSERT_NE(rw.status, LpStatus::kIterationLimit);
    ASSERT_EQ(rw.status, rd.status)
        << "warm sparse=" << static_cast<int>(rw.status)
        << " cold dense=" << static_cast<int>(rd.status);
    EXPECT_TRUE(rw.warm_start_attempted);
    if (rw.warm_start_used)
      ++warm_used;
    if (rw.warm_dual_restart)
      ++dual_restarts;
    if (rw.status == LpStatus::kInfeasible)
      ++infeasible_agreed;
    if (rw.status == LpStatus::kOptimal) {
      ++compared;
      const double scale = std::max(1.0, std::fabs(rd.objective));
      EXPECT_NEAR(rw.objective, rd.objective, 1e-9 * scale);
      // The certificate is stated against the *effective* bounds; build
      // the equivalent model so the sign checks see the override box.
      Model eff;
      eff.SetSense(m.sense());
      for (int j = 0; j < n; ++j) {
        const Variable& v = m.variables()[static_cast<std::size_t>(j)];
        double lo = v.lower;
        double hi = v.upper;
        if (overrides[static_cast<std::size_t>(j)]) {
          lo = std::max(lo, overrides[static_cast<std::size_t>(j)]->first);
          hi = std::min(hi, overrides[static_cast<std::size_t>(j)]->second);
        }
        eff.AddContinuous(v.name, lo, hi, v.objective);
      }
      for (const Constraint& c : m.constraints()) {
        eff.AddConstraint(c.name,
                          std::vector<std::pair<VarIndex, double>>(
                              c.terms.begin(), c.terms.end()),
                          c.relation, c.rhs);
      }
      CheckCertificate(eff, rw, seed);
    }
  }

  // The sweep must actually exercise the machinery it claims to test.
  EXPECT_GE(base_optimal, 250) << "generator yield collapsed";
  EXPECT_GE(compared, 200) << "too few optimal warm re-solves";
  EXPECT_GE(warm_used, 250) << "warm path fell back cold too often";
  EXPECT_GE(dual_restarts, 80) << "dual-simplex repair rarely engaged";
  EXPECT_GE(infeasible_agreed, 25)
      << "no infeasible children: Farkas verdicts untested";
}

TEST(LpDifferentialTest, ForrestTomlinMatchesFreshLuOverLongPivotSequences)
{
  // Property test of the factorization alone: drive a long random pivot
  // sequence through Forrest–Tomlin updates (refactorizing only on the
  // production schedule), and every few pivots compare Ftran/Btran
  // against a from-scratch LU of the same basis. Solutions are compared
  // by *column* key — the two factorizations may order rows differently
  // — and the Ftran result is additionally verified against the
  // reconstruction identity B x = v, which needs no second
  // factorization at all.
  constexpr int kRefactorInterval = 64;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919 + 3);
    const int rows = 12 + static_cast<int>(rng.UniformInt(0, 28));
    const int ncols = 3 * rows;

    SparseColumns cols;
    cols.Clear(rows);
    std::vector<char> used(static_cast<std::size_t>(rows), 0);
    for (int c = 0; c < ncols; ++c) {
      // One strong anchor entry per column (keeps every basis we pick
      // comfortably nonsingular) plus a few random off-anchor terms.
      std::fill(used.begin(), used.end(), 0);
      const int anchor = c % rows;
      used[static_cast<std::size_t>(anchor)] = 1;
      cols.row.push_back(anchor);
      cols.value.push_back((rng.Bernoulli(0.5) ? 1.0 : -1.0) *
                           rng.Uniform(1.0, 3.0));
      const int extras = static_cast<int>(rng.UniformInt(0, 4));
      for (int k = 0; k < extras; ++k) {
        const int r = static_cast<int>(
            rng.UniformInt(0, static_cast<std::uint64_t>(rows - 1)));
        if (used[static_cast<std::size_t>(r)])
          continue;
        used[static_cast<std::size_t>(r)] = 1;
        cols.row.push_back(r);
        cols.value.push_back(rng.Uniform(-2.0, 2.0));
      }
      cols.start.push_back(static_cast<int>(cols.row.size()));
    }
    std::vector<double> cost(static_cast<std::size_t>(ncols));
    for (int c = 0; c < ncols; ++c)
      cost[static_cast<std::size_t>(c)] = rng.Uniform(-4.0, 4.0);

    std::vector<int> basic(static_cast<std::size_t>(rows));
    std::vector<char> in_basis(static_cast<std::size_t>(ncols), 0);
    for (int r = 0; r < rows; ++r) {
      basic[static_cast<std::size_t>(r)] = r;
      in_basis[static_cast<std::size_t>(r)] = 1;
    }
    BasisFactorization ft;
    ft.Reset(rows);
    ASSERT_TRUE(ft.Refactorize(cols, basic));

    std::vector<double> alpha(static_cast<std::size_t>(rows));
    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      int q = -1;
      do {
        q = static_cast<int>(
            rng.UniformInt(0, static_cast<std::uint64_t>(ncols - 1)));
      } while (in_basis[static_cast<std::size_t>(q)]);
      std::fill(alpha.begin(), alpha.end(), 0.0);
      for (int k = cols.start[static_cast<std::size_t>(q)];
           k < cols.start[static_cast<std::size_t>(q) + 1]; ++k) {
        alpha[static_cast<std::size_t>(
            cols.row[static_cast<std::size_t>(k)])] =
            cols.value[static_cast<std::size_t>(k)];
      }
      ft.Ftran(alpha);
      int pr = 0;
      for (int r = 1; r < rows; ++r) {
        if (std::fabs(alpha[static_cast<std::size_t>(r)]) >
            std::fabs(alpha[static_cast<std::size_t>(pr)]))
          pr = r;
      }
      if (std::fabs(alpha[static_cast<std::size_t>(pr)]) < 1e-6)
        continue;  // no usable pivot for this column; try another
      in_basis[static_cast<std::size_t>(
          basic[static_cast<std::size_t>(pr)])] = 0;
      basic[static_cast<std::size_t>(pr)] = q;
      in_basis[static_cast<std::size_t>(q)] = 1;
      if (!ft.Update(pr, alpha) ||
          ft.updates_since_refactor() >= kRefactorInterval) {
        ASSERT_TRUE(ft.Refactorize(cols, basic));
      }

      if (step % 10 != 9)
        continue;
      std::vector<int> basic_fresh = basic;
      BasisFactorization lu;
      lu.Reset(rows);
      ASSERT_TRUE(lu.Refactorize(cols, basic_fresh));

      // Ftran: same right-hand side through both factorizations.
      std::vector<double> v(static_cast<std::size_t>(rows));
      for (int r = 0; r < rows; ++r)
        v[static_cast<std::size_t>(r)] = rng.Uniform(-3.0, 3.0);
      std::vector<double> xa = v;
      std::vector<double> xb = v;
      ft.Ftran(xa);
      lu.Ftran(xb);
      std::vector<double> by_col_a(static_cast<std::size_t>(ncols), 0.0);
      std::vector<double> by_col_b(static_cast<std::size_t>(ncols), 0.0);
      for (int r = 0; r < rows; ++r) {
        by_col_a[static_cast<std::size_t>(basic[static_cast<std::size_t>(r)])] =
            xa[static_cast<std::size_t>(r)];
        by_col_b[static_cast<std::size_t>(
            basic_fresh[static_cast<std::size_t>(r)])] =
            xb[static_cast<std::size_t>(r)];
      }
      for (int c = 0; c < ncols; ++c) {
        EXPECT_NEAR(by_col_a[static_cast<std::size_t>(c)],
                    by_col_b[static_cast<std::size_t>(c)],
                    1e-7 * std::max(1.0, std::fabs(by_col_b[
                               static_cast<std::size_t>(c)])))
            << "Ftran disagreement on basic column " << c;
      }
      // Reconstruction identity: B x == v, straight from the column
      // file — independent of either factorization.
      std::vector<double> recon(static_cast<std::size_t>(rows), 0.0);
      for (int r = 0; r < rows; ++r) {
        const int c = basic[static_cast<std::size_t>(r)];
        for (int k = cols.start[static_cast<std::size_t>(c)];
             k < cols.start[static_cast<std::size_t>(c) + 1]; ++k) {
          recon[static_cast<std::size_t>(
              cols.row[static_cast<std::size_t>(k)])] +=
              cols.value[static_cast<std::size_t>(k)] *
              xa[static_cast<std::size_t>(r)];
        }
      }
      for (int r = 0; r < rows; ++r) {
        EXPECT_NEAR(recon[static_cast<std::size_t>(r)],
                    v[static_cast<std::size_t>(r)],
                    1e-7 * std::max(1.0,
                                    std::fabs(v[static_cast<std::size_t>(r)])))
            << "reconstruction residual in row " << r;
      }
      // Btran: feed each factorization the basic costs in its own row
      // order; the resulting duals are per physical row, directly
      // comparable.
      std::vector<double> ya(static_cast<std::size_t>(rows));
      std::vector<double> yb(static_cast<std::size_t>(rows));
      for (int r = 0; r < rows; ++r) {
        ya[static_cast<std::size_t>(r)] =
            cost[static_cast<std::size_t>(basic[static_cast<std::size_t>(r)])];
        yb[static_cast<std::size_t>(r)] = cost[static_cast<std::size_t>(
            basic_fresh[static_cast<std::size_t>(r)])];
      }
      ft.Btran(ya);
      lu.Btran(yb);
      for (int r = 0; r < rows; ++r) {
        EXPECT_NEAR(ya[static_cast<std::size_t>(r)],
                    yb[static_cast<std::size_t>(r)],
                    1e-7 * std::max(1.0,
                                    std::fabs(yb[static_cast<std::size_t>(r)])))
            << "Btran disagreement in row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace flex::solver
