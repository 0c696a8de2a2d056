/**
 * @file
 * Dense flat-tableau LP oracle for the solver tests.
 *
 * A deliberately simple two-phase primal simplex over an explicit
 * tableau: variables are shifted to their lower bounds, fixed variables
 * are substituted out, and finite upper bounds become explicit rows. It
 * shares no pivoting code with SimplexSolver (a bounded-variable revised
 * simplex on a factorized sparse basis), so agreement between the two
 * on status and objective is strong evidence both are right. Cold solves
 * only: no warm bases, no duality certificate.
 */
#ifndef FLEX_TESTS_LP_ORACLE_HPP_
#define FLEX_TESTS_LP_ORACLE_HPP_

#include "solver/model.hpp"
#include "solver/simplex.hpp"

namespace flex::solver {

/**
 * Solves the LP relaxation of @p model under @p overrides (empty, or one
 * entry per variable) from scratch. Fills status, objective, x and
 * iterations; every variable needs a finite lower bound.
 */
LpResult DenseOracleSolve(const Model& model,
                          const BoundOverrides& overrides = {});

}  // namespace flex::solver

#endif  // FLEX_TESTS_LP_ORACLE_HPP_
