// Test-only LP oracle: a dense, tableau-based, two-phase textbook simplex
// with Bland's rule throughout.
//
// Deliberately the *opposite* design of src/lp/ (dense instead of sparse,
// artificial variables instead of composite phase 1, full tableau instead
// of eta-file factorization, always-Bland instead of devex): the two
// implementations share no code paths, so agreement on a fuzzed instance
// is strong evidence both are right. lp_fuzz_test.cpp drives ~200 seeded
// random bounded LPs -- including post-failure (zeroed-capacity /
// fixed-variable) instances and warm-start mutation chains -- through both
// solvers and compares status + objective. This is the safety net that
// catches the warm-start corruption class of bug (a stale basis silently
// yielding a feasible-looking but non-optimal vertex) before it ships.
//
// Scope: small instances only (everything is O(rows * cols) per pivot and
// the tableau is dense); Bland's rule guarantees termination.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "lp/lp.hpp"
#include "util/require.hpp"

namespace coyote::lp_reference {

/// Dense mirror of lp::LpProblem that both the reference solver and the
/// fuzzer manipulate directly (LpProblem keeps its internals private).
struct DenseLp {
  lp::Sense sense = lp::Sense::kMinimize;
  std::vector<double> obj;                 ///< per variable
  std::vector<double> lb, ub;              ///< lb finite; ub may be +inf
  std::vector<std::vector<double>> rows;   ///< dense coefficient rows
  std::vector<lp::Rel> rels;
  std::vector<double> rhs;

  [[nodiscard]] int numVars() const { return static_cast<int>(obj.size()); }
  [[nodiscard]] int numRows() const { return static_cast<int>(rhs.size()); }

  int addVar(double c, double lo, double hi) {
    obj.push_back(c);
    lb.push_back(lo);
    ub.push_back(hi);
    for (auto& row : rows) row.push_back(0.0);
    return numVars() - 1;
  }

  void addRow(std::vector<double> coefs, lp::Rel rel, double b) {
    coefs.resize(obj.size(), 0.0);
    rows.push_back(std::move(coefs));
    rels.push_back(rel);
    rhs.push_back(b);
  }

  /// The equivalent lp::LpProblem (what the engine under test solves).
  [[nodiscard]] lp::LpProblem toProblem() const {
    lp::LpProblem p(sense);
    for (int j = 0; j < numVars(); ++j) p.addVar(obj[j], lb[j], ub[j]);
    for (int i = 0; i < numRows(); ++i) {
      std::vector<lp::Term> terms;
      for (int j = 0; j < numVars(); ++j) {
        if (rows[i][j] != 0.0) terms.push_back({j, rows[i][j]});
      }
      p.addConstraint(std::move(terms), rels[i], rhs[i]);
    }
    return p;
  }
};

struct RefResult {
  lp::Status status = lp::Status::kIterLimit;
  double objective = 0.0;
  [[nodiscard]] bool optimal() const { return status == lp::Status::kOptimal; }
};

namespace detail {

inline constexpr double kTol = 1e-9;

/// Full-tableau minimization with Bland's rule. `tab` is m x (n+1) with the
/// rhs in the last column; `cost` is the reduced-cost row (n+1 wide, last
/// entry the negated objective); `basis[i]` is the basic column of row i.
/// `eligible[j]` masks columns allowed to enter. Returns false if unbounded.
inline bool blandSimplex(std::vector<std::vector<double>>& tab,
                         std::vector<double>& cost, std::vector<int>& basis,
                         const std::vector<char>& eligible) {
  const std::size_t m = tab.size();
  const std::size_t n = cost.size() - 1;
  for (int iter = 0; iter < 100000; ++iter) {
    // Bland: lowest-index column with negative reduced cost.
    std::size_t enter = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (eligible[j] && cost[j] < -kTol) {
        enter = j;
        break;
      }
    }
    if (enter == n) return true;  // optimal
    // Ratio test; ties by lowest basic variable index (Bland).
    std::size_t leave = m;
    double best = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (tab[i][enter] <= kTol) continue;
      const double ratio = tab[i][n] / tab[i][enter];
      if (leave == m || ratio < best - kTol ||
          (ratio < best + kTol && basis[i] < basis[leave])) {
        leave = i;
        best = ratio;
      }
    }
    if (leave == m) return false;  // unbounded
    // Pivot on (leave, enter).
    const double piv = tab[leave][enter];
    for (std::size_t j = 0; j <= n; ++j) tab[leave][j] /= piv;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == leave || std::fabs(tab[i][enter]) <= 0.0) continue;
      const double f = tab[i][enter];
      for (std::size_t j = 0; j <= n; ++j) tab[i][j] -= f * tab[leave][j];
    }
    const double f = cost[enter];
    if (f != 0.0) {
      for (std::size_t j = 0; j <= n; ++j) cost[j] -= f * tab[leave][j];
    }
    basis[leave] = static_cast<int>(enter);
  }
  ensure(false, "reference simplex did not terminate");
  return false;
}

}  // namespace detail

/// Solves `p` from scratch. Statuses map onto lp::Status; objective is in
/// the problem's own sense (like lp::solve).
inline RefResult solve(const DenseLp& p) {
  using detail::kTol;
  const int n0 = p.numVars();

  // Standard form: x = lb + y, y >= 0; finite ub becomes an extra row.
  std::vector<std::vector<double>> A;
  std::vector<double> b;
  double shift = 0.0;  // c^T lb
  std::vector<double> c(p.obj);
  if (p.sense == lp::Sense::kMaximize) {
    for (double& cj : c) cj = -cj;
  }
  for (int j = 0; j < n0; ++j) shift += c[j] * p.lb[j];

  const auto pushRow = [&](const std::vector<double>& coefs, lp::Rel rel,
                           double rhs) {
    std::vector<double> row = coefs;
    row.resize(static_cast<std::size_t>(n0), 0.0);
    double rb = rhs;
    for (int j = 0; j < n0; ++j) rb -= row[j] * p.lb[j];
    // Slack: +1 (Le), -1 (Ge), none (Eq); appended later per row.
    A.push_back(std::move(row));
    b.push_back(rb);
    return rel;
  };
  std::vector<lp::Rel> rels;
  for (int i = 0; i < p.numRows(); ++i) {
    rels.push_back(pushRow(p.rows[i], p.rels[i], p.rhs[i]));
  }
  for (int j = 0; j < n0; ++j) {
    if (std::isfinite(p.ub[j])) {
      std::vector<double> row(static_cast<std::size_t>(n0), 0.0);
      row[j] = 1.0;
      rels.push_back(pushRow(row, lp::Rel::kLe, p.ub[j]));
    }
  }
  const std::size_t m = A.size();

  // Append slack columns, flip rows to nonnegative rhs, add artificials.
  std::size_t cols = static_cast<std::size_t>(n0);
  for (std::size_t i = 0; i < m; ++i) {
    if (rels[i] != lp::Rel::kEq) ++cols;
  }
  const std::size_t n_slacked = cols;
  cols += m;  // one artificial per row
  std::vector<std::vector<double>> tab(m, std::vector<double>(cols + 1, 0.0));
  std::vector<int> basis(m, -1);
  std::size_t next_slack = static_cast<std::size_t>(n0);
  for (std::size_t i = 0; i < m; ++i) {
    for (int j = 0; j < n0; ++j) tab[i][j] = A[i][j];
    if (rels[i] == lp::Rel::kLe) {
      tab[i][next_slack++] = 1.0;
    } else if (rels[i] == lp::Rel::kGe) {
      tab[i][next_slack++] = -1.0;
    }
    tab[i][cols] = b[i];
    if (tab[i][cols] < 0.0) {
      for (std::size_t j = 0; j <= cols; ++j) tab[i][j] = -tab[i][j];
    }
    const std::size_t art = n_slacked + i;
    tab[i][art] = 1.0;
    basis[i] = static_cast<int>(art);
  }

  // Phase 1: minimize the sum of artificials.
  std::vector<double> cost(cols + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j <= cols; ++j) cost[j] -= tab[i][j];
    cost[n_slacked + i] = 0.0;  // reduced cost of a basic column is 0
  }
  std::vector<char> eligible(cols, 1);
  if (!detail::blandSimplex(tab, cost, basis, eligible)) {
    // Phase 1 is bounded below by 0; unboundedness cannot happen.
    ensure(false, "phase 1 unbounded");
  }
  if (-cost[cols] > 1e-7) return {lp::Status::kInfeasible, 0.0};

  // Artificials may only linger at value 0; bar them from re-entering and
  // drive basic ones out where possible (a zero-rhs pivot, so feasibility
  // is untouched). A row with no real nonzero left is redundant: its
  // artificial stays basic at 0 and can never move again.
  for (std::size_t j = n_slacked; j < cols; ++j) eligible[j] = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] < static_cast<int>(n_slacked)) continue;
    for (std::size_t j = 0; j < n_slacked; ++j) {
      if (std::fabs(tab[i][j]) <= kTol) continue;
      const double piv = tab[i][j];
      for (std::size_t k = 0; k <= cols; ++k) tab[i][k] /= piv;
      for (std::size_t r = 0; r < m; ++r) {
        if (r == i || tab[r][j] == 0.0) continue;
        const double f = tab[r][j];
        for (std::size_t k = 0; k <= cols; ++k) tab[r][k] -= f * tab[i][k];
      }
      basis[i] = static_cast<int>(j);
      break;
    }
  }

  // Phase 2 cost row from the phase-2 objective and the current basis.
  std::vector<double> c2(cols + 1, 0.0);
  for (int j = 0; j < n0; ++j) c2[j] = c[j];
  for (std::size_t i = 0; i < m; ++i) {
    const double cb = basis[i] < n0 ? c[basis[i]] : 0.0;
    if (cb == 0.0) continue;
    for (std::size_t j = 0; j <= cols; ++j) c2[j] -= cb * tab[i][j];
  }
  for (std::size_t i = 0; i < m; ++i) c2[basis[i]] = 0.0;
  if (!detail::blandSimplex(tab, c2, basis, eligible)) {
    return {lp::Status::kUnbounded, 0.0};
  }

  double objective = -c2[cols] + shift;
  if (p.sense == lp::Sense::kMaximize) objective = -objective;
  return {lp::Status::kOptimal, objective};
}

}  // namespace coyote::lp_reference
