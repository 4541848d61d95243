// Self-contained linear-programming engine.
//
// The paper solves several families of LPs (the demands-aware optimum
// OPTU(D), the per-edge worst-case-demand "slave LP" of Sec. IV/Appendix C,
// and the optimal base-TM routing of [24]) with AMPL+MOSEK. Neither is
// available offline, so this module implements a *sparse revised primal
// simplex* over bounded variables:
//
//  * column-sparse constraint storage -- every row gets one logical
//    (slack) column, so the constraint matrix is [A | I] and an all-logical
//    basis is always available;
//  * bounded-variable pivoting -- finite upper bounds are handled natively
//    by the ratio test (nonbasic variables rest at either bound and may
//    bound-flip), not by materializing extra rows;
//  * devex reference-framework pricing with candidate-list partial pricing
//    (Bland's rule is the anti-cycling fallback);
//  * a Harris-style two-pass ratio test with a bounded tolerance-expansion
//    degeneracy perturbation, and a piecewise-linear long-step variant for
//    the composite phase 1;
//  * a sparse LU basis factorization with Markowitz pivot ordering and
//    Forrest-Tomlin updates (basis.*), so long warm-start chains do not pay
//    eta-chain growth between refactorizations;
//  * a composite (artificial-free) phase 1 that minimizes the total bound
//    violation of the basic variables, which makes any basis -- in
//    particular a retained basis after setRhs/setBounds/addRow mutations --
//    a valid warm start.
//
// See docs/lp-engine.md for the full design document.
//
// The SimplexSolver session API retains the optimal basis between solves:
// consumers that solve long sequences of near-identical LPs (OPTU across a
// pool of matrices, the per-edge slave LPs, cutting-plane re-solves) mutate
// the objective/rhs/bounds/rows and re-solve instead of rebuilding, which
// typically cuts simplex pivots by an order of magnitude. The one-shot
// lp::solve() wrapper is unchanged for callers without solve sequences.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace coyote::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { kMinimize, kMaximize };
enum class Rel { kLe, kGe, kEq };
enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit };

[[nodiscard]] std::string toString(Status s);

/// One nonzero coefficient of a constraint row.
struct Term {
  int var = 0;
  double coef = 0.0;
};

/// Incrementally built LP:
///     optimize  c^T x
///     s.t.      sum_j a_ij x_j  {<=,=,>=}  b_i      for every row i
///               lb_j <= x_j <= ub_j                 for every variable j
/// Lower bounds must be finite; ub may be +infinity.
class LpProblem {
 public:
  explicit LpProblem(Sense sense = Sense::kMinimize) : sense_(sense) {}

  /// Adds a variable, returns its index.
  int addVar(double obj = 0.0, double lb = 0.0, double ub = kInfinity);

  /// Adds a constraint row. Terms may repeat a variable (coefficients add).
  void addConstraint(std::vector<Term> terms, Rel rel, double rhs);

  void setObjective(int var, double coef);

  /// Mutates a variable's bounds in place (lb finite, ub >= lb; ub may be
  /// kInfinity). Used by engines that keep a problem skeleton and derive
  /// variants from it -- e.g. pinning a failed edge's flow variables to
  /// zero -- so sessions cloned later inherit the mutation.
  void setVarBounds(int var, double lb, double ub);

  /// Mutates a constraint's right-hand side in place (e.g. zeroing a failed
  /// edge's capacity row in a retained worst-case template).
  void setConstraintRhs(int row, double rhs);

  [[nodiscard]] double rowRhs(int row) const {
    require(row >= 0 && row < numRows(), "rowRhs: bad row");
    return rhs_[row];
  }

  [[nodiscard]] Sense sense() const { return sense_; }
  [[nodiscard]] int numVars() const { return static_cast<int>(obj_.size()); }
  [[nodiscard]] int numRows() const { return static_cast<int>(rhs_.size()); }

 private:
  friend class SimplexSolver;
  Sense sense_;
  std::vector<double> obj_, lb_, ub_;
  std::vector<std::vector<Term>> rows_;
  std::vector<Rel> rels_;
  std::vector<double> rhs_;
};

/// Solver tolerances and limits. Pricing is always devex, and solve() on a
/// warm basis that is primal-infeasible but still dual-feasible -- the
/// common state after setRhs/setBounds mutation chains on an optimal
/// basis -- always runs the bounded-variable dual simplex before the
/// composite primal phase 1 (see docs/lp-engine.md).
struct SimplexOptions {
  int max_iterations = 200000;
  /// Refactorize the LU basis factorization after this many Forrest-Tomlin
  /// updates (it also refactorizes early when the stored fill outgrows the
  /// fresh factorization by a fixed factor).
  int refactor_every = 128;
  /// Switch to Bland's rule after this many non-improving pivots (0: at
  /// the first degenerate pivot).
  int stall_limit = 2000;
};

/// Primal feasibility tolerance, relative to 1 + the largest |rhs|.
inline constexpr double kFeasTol = 1e-7;
/// Optimality (reduced-cost) tolerance; the dual simplex scales it by
/// 1 + the largest |cost|.
inline constexpr double kOptTol = 1e-8;

/// A simplex basis: one status entry per column (structural variables
/// first, then one logical/slack column per row). Retained by
/// SimplexSolver between solves and exported in LpResult so callers can
/// warm-start a different session (e.g. a per-thread clone).
struct Basis {
  enum : std::int8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };
  std::vector<std::int8_t> status;

  [[nodiscard]] bool empty() const { return status.empty(); }
};

/// Work counters of one solve (also aggregated globally; see stats.hpp).
struct SolveStats {
  int iterations = 0;        ///< simplex pivots + bound flips, both phases
  int refactorizations = 0;  ///< basis refactorizations performed
  int phase1_iters = 0;      ///< iterations spent restoring feasibility
  int pricing_hits = 0;      ///< enterings served from the devex candidate
                             ///< list without any column scan
  int degen_rescues = 0;     ///< ratio-test degeneracy rescues: Harris picks
                             ///< that stepped past the textbook minimum-ratio
                             ///< blocker for a larger pivot, plus bounded-
                             ///< perturbation (tolerance-expansion) resets
  int lu_updates = 0;        ///< Forrest-Tomlin basis updates applied
  std::int64_t lu_fill = 0;  ///< summed nonzeros of fresh LU factorizations
                             ///< (the factor fill-in measure)
  int dual_pivots = 0;       ///< dual-simplex pivots (warm rhs/bound repair;
                             ///< also counted in `iterations`)
  int decomp_rounds = 0;     ///< OPTU block-decomposition price rounds that
                             ///< seeded this solve (recorded by
                             ///< routing::OptuEngine; always 0 for plain
                             ///< solver sessions)
};

struct LpResult {
  Status status = Status::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< primal solution in original variable space
  /// Row duals y in the problem's own sense (valid when status ==
  /// kOptimal): y_i = d(objective)/d(rhs_i) at the final basis, so a <=
  /// row has y_i >= 0 when maximizing and <= 0 when minimizing (>= rows
  /// the reverse; = rows are free). They are the phase-2 duals
  /// B^-T c_B of the optimal basis, taken on a fresh factorization. When
  /// every variable has lower bound 0 and no finite upper bound, rhs . y
  /// equals the objective (strong duality).
  std::vector<double> row_duals;
  Basis basis;            ///< final basis (valid when status == kOptimal)
  SolveStats stats;

  [[nodiscard]] bool optimal() const { return status == Status::kOptimal; }
};

/// A solver session: owns a mutable copy of the problem plus the basis and
/// factorization state retained across solves. Mutations are cheap and
/// never invalidate the retained basis -- the composite phase 1 repairs
/// any lost feasibility on the next solve(), so
///
///     SimplexSolver s(problem);
///     auto r0 = s.solve();
///     s.setRhs(row, v);            // or setObjective / setBounds / addRow
///     auto r1 = s.solve();         // warm start from r0's basis
///
/// is the intended idiom. Sessions are copyable: clone one per worker to
/// fan a family of solves out over threads deterministically.
class SimplexSolver {
 public:
  explicit SimplexSolver(LpProblem problem, SimplexOptions opt = {});
  SimplexSolver(const SimplexSolver&);
  SimplexSolver& operator=(const SimplexSolver&);
  SimplexSolver(SimplexSolver&&) noexcept;
  SimplexSolver& operator=(SimplexSolver&&) noexcept;
  ~SimplexSolver();

  /// Solves from the retained basis (cold all-logical basis on the first
  /// call or after setBasis({})). Updates the retained basis on success.
  [[nodiscard]] LpResult solve();

  // --- mutations (retained basis survives; next solve() warm-starts) ---
  void setObjective(int var, double coef);
  void setRhs(int row, double rhs);
  /// lb must stay finite; ub may be kInfinity; ub == lb fixes the variable.
  void setBounds(int var, double lb, double ub);
  /// Appends a constraint row (cutting plane), returns its index. The new
  /// row's logical column joins the basis, so the factorization stays
  /// nonsingular and the next solve() warm-starts.
  int addRow(std::vector<Term> terms, Rel rel, double rhs);

  /// Installs an externally retained basis ({} resets to a cold start).
  /// Earlier setRhs edits stop counting toward the dual simplex's entry
  /// gate, so the installed basis is judged by its violated-basic count.
  void setBasis(const Basis& basis);
  [[nodiscard]] const Basis& basis() const;

  [[nodiscard]] const LpProblem& problem() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot solve (cold start). Never throws for infeasible/unbounded
/// inputs (reported via Status); throws std::invalid_argument for
/// malformed problems.
[[nodiscard]] LpResult solve(const LpProblem& p, const SimplexOptions& opt = {});

}  // namespace coyote::lp
