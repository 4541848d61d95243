#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "lp/basis.hpp"
#include "lp/lp.hpp"
#include "lp/stats.hpp"
#include "util/timer.hpp"

namespace coyote::lp {

std::string toString(Status s) {
  switch (s) {
    case Status::kOptimal: return "optimal";
    case Status::kInfeasible: return "infeasible";
    case Status::kUnbounded: return "unbounded";
    case Status::kIterLimit: return "iteration-limit";
  }
  ensure(false, "lp::toString: invalid Status value");
  return {};  // unreachable
}

int LpProblem::addVar(double obj, double lb, double ub) {
  require(std::isfinite(lb), "variable lower bound must be finite");
  require(ub >= lb, "variable upper bound below lower bound");
  obj_.push_back(obj);
  lb_.push_back(lb);
  ub_.push_back(ub);
  return numVars() - 1;
}

void LpProblem::addConstraint(std::vector<Term> terms, Rel rel, double rhs) {
  for (const Term& t : terms) {
    require(t.var >= 0 && t.var < numVars(), "constraint references bad var");
    require(std::isfinite(t.coef), "non-finite constraint coefficient");
  }
  require(std::isfinite(rhs), "non-finite rhs");
  rows_.push_back(std::move(terms));
  rels_.push_back(rel);
  rhs_.push_back(rhs);
}

void LpProblem::setObjective(int var, double coef) {
  require(var >= 0 && var < numVars(), "setObjective: bad var");
  obj_[var] = coef;
}

void LpProblem::setVarBounds(int var, double lb, double ub) {
  require(var >= 0 && var < numVars(), "setVarBounds: bad var");
  require(std::isfinite(lb), "variable lower bound must be finite");
  require(ub >= lb, "variable upper bound below lower bound");
  lb_[var] = lb;
  ub_[var] = ub;
}

void LpProblem::setConstraintRhs(int row, double rhs) {
  require(row >= 0 && row < numRows(), "setConstraintRhs: bad row");
  require(std::isfinite(rhs), "setConstraintRhs: non-finite rhs");
  rhs_[row] = rhs;
}

namespace {

/// Merges duplicate variables of a row into sorted (var, coef) nonzeros.
std::vector<Term> mergeTerms(std::vector<Term> terms) {
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  std::vector<Term> out;
  out.reserve(terms.size());
  for (std::size_t k = 0; k < terms.size();) {
    double sum = 0.0;
    const int v = terms[k].var;
    while (k < terms.size() && terms[k].var == v) sum += terms[k++].coef;
    if (sum != 0.0) out.push_back({v, sum});
  }
  return out;
}

constexpr double kPivotTol = 1e-9;   ///< min |alpha| to leave the basis on
constexpr double kDependTol = 1e-11; ///< refactorization singularity cutoff
constexpr double kDegenStep = 1e-12; ///< a step this small counts degenerate
/// Refactorize early when the factor's stored fill outgrows the fresh
/// factorization by this factor (Forrest-Tomlin growth control).
constexpr double kLuGrowthLimit = 3.0;
/// Devex reference-framework reset threshold: when the leaving variable's
/// updated weight would exceed this, the weights have drifted too far from
/// the reference frame and all are reset to 1.
constexpr double kDevexReset = 1e7;
/// Max devex candidate-list size (re-priced each iteration; refilled by
/// rotating section scans when exhausted).
constexpr int kCandMax = 128;

}  // namespace

// ---------------------------------------------------------------------------
// SimplexSolver::Impl: sparse revised primal simplex over bounded variables.
//
// Internal form: columns 0..n-1 are the structural variables, column n+i is
// row i's logical (slack) with unit coefficient, so A~ = [A | I] and
// A~ x~ = b always. Row relations map to logical bounds:
//     <=  ->  s in [0, +inf)      >=  ->  s in (-inf, 0]      =  ->  s = 0.
// Nonbasic columns rest at a finite bound; the all-logical basis is the
// cold start. Feasibility is restored by a composite phase 1 (minimize the
// total bound violation of the basic variables), which needs no artificial
// columns and accepts any retained basis as a warm start.
//
// Per iteration: devex candidate-list pricing picks the entering column, a
// Harris two-pass ratio test (piecewise-linear long-step in phase 1) picks
// the leaving one, and the LU factorization absorbs the pivot as a
// Forrest-Tomlin update. See docs/lp-engine.md.
// ---------------------------------------------------------------------------
class SimplexSolver::Impl {
 public:
  Impl(const LpProblem& p, SimplexOptions opt)
      : opt_(opt), n_(p.numVars()), m_(p.numRows()), rhs_(p.rhs_) {
    sgn_ = (p.sense_ == Sense::kMaximize) ? -1.0 : 1.0;
    // The one column-major copy of the matrix, sized exactly: count each
    // merged row's entries per column, then fill the columns in row order.
    col_start_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (const std::vector<Term>& row : p.rows_) {
      for (const Term& t : mergeTerms(row)) ++col_start_[t.var + 1];
    }
    for (int j = 0; j < n_; ++j) col_start_[j + 1] += col_start_[j];
    col_nz_.resize(static_cast<std::size_t>(col_start_[n_]));
    std::vector<int> next(col_start_.begin(), col_start_.end() - 1);
    for (int i = 0; i < m_; ++i) {
      for (const Term& t : mergeTerms(p.rows_[i])) {
        col_nz_[next[t.var]++] = {i, t.coef};
      }
    }
    // Bounds and costs per column, each row's logical after the
    // structurals (relations map to logical bounds as above).
    const std::size_t cols = static_cast<std::size_t>(n_) + m_;
    for (std::vector<double>* v : {&lb_, &ub_, &cost_}) v->reserve(cols);
    lb_ = p.lb_;
    ub_ = p.ub_;
    for (int j = 0; j < n_; ++j) cost_.push_back(sgn_ * p.obj_[j]);
    for (const Rel rel : p.rels_) {
      lb_.push_back(rel == Rel::kGe ? -kInfinity : 0.0);
      ub_.push_back(rel == Rel::kLe ? kInfinity : 0.0);
      cost_.push_back(0.0);
    }
    resetBasisCold();
  }

  // ---- mutations ------------------------------------------------------

  void setObjective(int var, double coef) {
    require(var >= 0 && var < n_, "setObjective: bad var");
    cost_[var] = sgn_ * coef;
  }

  void setRhs(int row, double rhs) {
    require(row >= 0 && row < m_, "setRhs: bad row");
    require(std::isfinite(rhs), "setRhs: non-finite rhs");
    if (rhs_[row] == rhs) return;  // no-op edit: primal stays fresh
    rhs_[row] = rhs;
    primal_fresh_ = false;
    ++rhs_edits_;
  }

  void setBounds(int var, double lb, double ub) {
    require(var >= 0 && var < n_, "setBounds: bad var");
    require(std::isfinite(lb), "variable lower bound must be finite");
    require(ub >= lb, "variable upper bound below lower bound");
    if (lb_[var] == lb && ub_[var] == ub) return;  // no-op edit
    lb_[var] = lb;
    ub_[var] = ub;
    if (status(var) == Basis::kAtUpper && !std::isfinite(ub)) {
      setStatus(var, Basis::kAtLower);
    }
    primal_fresh_ = false;
  }

  void setBasis(const Basis& basis) {
    // The dual entry gate's rhs-edit count says how far the rhs moved away
    // from the retained basis; an installed basis replaces that history, so
    // it is judged by its violated-basic count alone.
    rhs_edits_ = 0;
    if (basis.empty()) {
      resetBasisCold();
      return;
    }
    require(static_cast<int>(basis.status.size()) == n_ + m_,
            "setBasis: status size mismatch");
    basis_status_ = basis;
    sanitizeStatuses();
    resetDevex();
    factored_ = false;
    warm_ = true;  // an externally retained basis counts as warm
  }

  [[nodiscard]] const Basis& basis() const { return basis_status_; }

  // ---- solve ----------------------------------------------------------

  LpResult solve() {
    require(n_ > 0, "LP has no variables");
    const util::Timer timer;
    LpResult res;
    res.status = run(res.stats);
    res.basis = basis_status_;
    if (res.status == Status::kOptimal) {
      // run() leaves the phase-2 duals of the internal minimization in
      // opt_duals_; flip them into the problem's own sense.
      res.row_duals.assign(m_, 0.0);
      for (int i = 0; i < m_; ++i) res.row_duals[i] = sgn_ * opt_duals_[i];
      res.x.assign(n_, 0.0);
      double obj = 0.0;
      for (int j = 0; j < n_; ++j) {
        double v = std::max(xval_[j], lb_[j]);
        if (std::isfinite(ub_[j])) v = std::min(v, ub_[j]);
        res.x[j] = v;
        obj += sgn_ * cost_[j] * v;  // sgn_ = +-1: exactly the problem's c_j
      }
      res.objective = obj;
    }
    res.stats.solves = 1;
    res.stats.iter_limit_solves = res.status == Status::kIterLimit ? 1 : 0;
    res.stats.seconds = timer.elapsedSeconds();
    GlobalStats::instance().record(res.stats);
    warm_ = res.status == Status::kOptimal;
    rhs_edits_ = 0;
    return res;
  }

 private:
  [[nodiscard]] std::int8_t status(int col) const {
    return basis_status_.status[col];
  }
  void setStatus(int col, std::int8_t s) { basis_status_.status[col] = s; }

  [[nodiscard]] bool isFixed(int col) const { return lb_[col] == ub_[col]; }

  /// Value a nonbasic column rests at under its status.
  [[nodiscard]] double boundValue(int col) const {
    return status(col) == Basis::kAtUpper ? ub_[col] : lb_[col];
  }

  void resetBasisCold() {
    basis_status_.status.assign(static_cast<std::size_t>(n_) + m_,
                                Basis::kAtLower);
    for (int i = 0; i < m_; ++i) setStatus(colOfLogical(i), Basis::kBasic);
    resetDevex();
    factored_ = false;
    warm_ = false;
  }

  [[nodiscard]] int colOfLogical(int row) const { return n_ + row; }
  [[nodiscard]] bool isLogical(int col) const { return col >= n_; }

  void sanitizeStatuses() {
    for (int col = 0; col < n_ + m_; ++col) {
      if (status(col) == Basis::kBasic) continue;
      if (status(col) == Basis::kAtLower && !std::isfinite(lb_[col])) {
        setStatus(col, Basis::kAtUpper);
      } else if (status(col) == Basis::kAtUpper &&
                 !std::isfinite(ub_[col])) {
        setStatus(col, Basis::kAtLower);
      }
    }
  }

  /// Structural column j's nonzeros, in row order.
  [[nodiscard]] std::span<const ColNz> column(int j) const {
    const ColNz* base = col_nz_.data();
    return {base + col_start_[j], base + col_start_[j + 1]};
  }

  /// Scatters column `col` of [A | I] into dense `z` (assumed zeroed).
  void scatterColumn(int col, std::vector<double>& z) const {
    if (isLogical(col)) {
      z[col - n_] = 1.0;
    } else {
      for (const ColNz& nz : column(col)) z[nz.row] = nz.val;
    }
  }

  /// Sparse entries of column `col` of [A | I] (logicals via a scratch).
  [[nodiscard]] std::span<const ColNz> columnRef(int col) {
    if (!isLogical(col)) return column(col);
    scratch_col_.assign(1, {col - n_, 1.0});
    return scratch_col_;
  }

  [[nodiscard]] int columnNnz(int col) const {
    return isLogical(col) ? 1 : col_start_[col + 1] - col_start_[col];
  }

  /// Rebuilds the LU factorization from the current statuses: basic columns
  /// are placed sparsest-first and pivoted with a Markowitz row choice
  /// (basis.*). Repairs singular/overcomplete bases by demoting dependent
  /// columns and completing unpivoted rows with their logicals, then
  /// recomputes the primal values. This is what makes stale warm-start
  /// bases safe.
  void refactorize(StatsSnapshot& st) {
    ++st.refactorizations;
    updates_since_refactor_ = 0;

    // Basic columns sparsest first, ties by column: a counting sort by
    // nonzero count (at most m) over the columns in ascending order, which
    // is stable.
    std::vector<int> by_nnz(static_cast<std::size_t>(m_) + 1, 0);
    int nbasic = 0;
    for (int col = 0; col < n_ + m_; ++col) {
      if (status(col) != Basis::kBasic) continue;
      ++by_nnz[columnNnz(col)];
      ++nbasic;
    }
    for (int c = 0, start = 0; c <= m_; ++c) {
      const int count = by_nnz[c];
      by_nnz[c] = start;
      start += count;
    }
    std::vector<int> basics(nbasic);
    for (int col = 0; col < n_ + m_; ++col) {
      if (status(col) != Basis::kBasic) continue;
      basics[by_nnz[columnNnz(col)]++] = col;
    }

    std::vector<int> row_counts(m_, 0);
    for (const int col : basics) {
      if (isLogical(col)) {
        ++row_counts[col - n_];
      } else {
        for (const ColNz& nz : column(col)) ++row_counts[nz.row];
      }
    }
    lu_.reset(m_, std::move(row_counts));
    basis_.assign(m_, -1);

    int placed = 0;
    const auto tryPlace = [&](int col) -> bool {
      const int piv = lu_.addColumn(columnRef(col), kDependTol);
      if (piv < 0) return false;
      basis_[piv] = col;
      ++placed;
      return true;
    };

    for (const int col : basics) {
      if (placed == m_ || !tryPlace(col)) {
        // Dependent (or surplus) column: demote to the bound nearest its
        // current value (falling back to lb before any primal values
        // exist, e.g. on the very first factorization of a stale basis).
        const bool have_x =
            static_cast<int>(xval_.size()) == n_ + m_;
        const double x = have_x ? xval_[col] : lb_[col];
        const bool to_upper =
            std::isfinite(ub_[col]) &&
            (!std::isfinite(lb_[col]) || std::abs(x - ub_[col]) <
                                             std::abs(x - lb_[col]));
        setStatus(col, to_upper ? Basis::kAtUpper : Basis::kAtLower);
      }
    }
    // Complete with nonbasic logicals for any unpivoted row.
    for (int r = 0; r < m_ && placed < m_; ++r) {
      if (lu_.rowPivoted(r)) continue;
      if (status(colOfLogical(r)) != Basis::kBasic &&
          tryPlace(colOfLogical(r))) {
        setStatus(colOfLogical(r), Basis::kBasic);
        continue;
      }
      for (int rr = 0; rr < m_ && !lu_.rowPivoted(r); ++rr) {
        const int col = colOfLogical(rr);
        if (status(col) != Basis::kBasic && tryPlace(col)) {
          setStatus(col, Basis::kBasic);
        }
      }
      ensure(lu_.rowPivoted(r),
             "simplex refactorization: cannot complete basis");
    }

    lu_.sealRefactor();
    st.lu_fill += static_cast<std::int64_t>(lu_.nonzeros());
    factored_ = true;
    recomputePrimal();
  }

  /// x_B = B^{-1} (b - N x_N); nonbasic values snap to their bounds.
  void recomputePrimal() {
    xval_.assign(static_cast<std::size_t>(n_) + m_, 0.0);
    std::vector<double> w = rhs_;
    for (int col = 0; col < n_ + m_; ++col) {
      if (status(col) == Basis::kBasic) continue;
      const double v = boundValue(col);
      xval_[col] = v;
      if (v == 0.0) continue;
      if (isLogical(col)) {
        w[col - n_] -= v;
      } else {
        for (const ColNz& nz : column(col)) w[nz.row] -= nz.val * v;
      }
    }
    lu_.ftran(w);
    for (int i = 0; i < m_; ++i) xval_[basis_[i]] = w[i];
    primal_fresh_ = true;
  }

  [[nodiscard]] double feasScale() const {
    double nb = 0.0;
    for (const double v : rhs_) nb = std::max(nb, std::abs(v));
    return kFeasTol * (1.0 + nb);
  }

  /// Total bound violation of the basic variables.
  [[nodiscard]] double infeasibility(double eps) const {
    double f = 0.0;
    for (int i = 0; i < m_; ++i) {
      const int col = basis_[i];
      const double x = xval_[col];
      if (x < lb_[col] - eps) f += lb_[col] - x;
      if (x > ub_[col] + eps) f += x - ub_[col];
    }
    return f;
  }

  // ---- pricing --------------------------------------------------------

  /// Back to unit reference weights. They are dropped here and re-created
  /// by run(), so a never-solved session (a prototype) holds none.
  void resetDevex() {
    devex_w_.clear();
    cand_.clear();
  }

  /// Reduced cost of nonbasic `col` under duals `y` and cost vector `cost`
  /// (the phase-1 cost of a nonbasic column is 0).
  [[nodiscard]] double reducedCost(int col, const std::vector<double>& y,
                                   const std::vector<double>& cost,
                                   bool phase1) const {
    double rc = phase1 ? 0.0 : cost[col];
    if (isLogical(col)) {
      rc -= y[col - n_];
    } else {
      for (const ColNz& nz : column(col)) rc -= y[nz.row] * nz.val;
    }
    return rc;
  }

  /// Attractiveness of a reduced cost under the column's status: returns
  /// the violation magnitude (0 = not attractive) and sets `dir`.
  [[nodiscard]] double violation(int col, double rc, double* dir) const {
    const std::int8_t s = status(col);
    if (s == Basis::kAtLower && rc < -kOptTol) {
      *dir = 1.0;
      return -rc;
    }
    if (s == Basis::kAtUpper && rc > kOptTol) {
      *dir = -1.0;
      return rc;
    }
    return 0.0;
  }

  /// Devex candidate-list partial pricing. Re-prices the retained candidate
  /// list first (a hit costs |cand| sparse dots, no scan); when the list
  /// goes dry, a full sweep refills it with the top scorers. The list is
  /// only trusted in phase 2 (`use_list`): the composite phase-1 objective
  /// changes with every violated-set change, so a list selected under the
  /// old objective would keep serving mediocre columns. Returns the
  /// entering column or -1.
  int devexPrice(const std::vector<double>& y,
                 const std::vector<double>& cost, bool phase1, bool use_list,
                 double* dir, double* viol, bool* from_list) {
    *from_list = false;
    int enter = -1;
    double best_score = 0.0;

    const auto consider = [&](int col, double* best) -> bool {
      const std::int8_t s = status(col);
      if (s == Basis::kBasic || isFixed(col)) return false;
      double d = 0.0;
      const double rc = reducedCost(col, y, cost, phase1);
      const double v = violation(col, rc, &d);
      if (v == 0.0) return false;
      const double score = v * v / devex_w_[col];
      if (score > *best) {
        *best = score;
        enter = col;
        *dir = d;
        *viol = v;
      }
      return true;
    };

    // 1. The retained candidate list (drop entries that went stale).
    if (use_list) {
      std::size_t keep = 0;
      for (const int col : cand_) {
        if (consider(col, &best_score)) cand_[keep++] = col;
      }
      cand_.resize(keep);
      if (enter >= 0) {
        *from_list = true;
        return enter;
      }
    }

    // 2. One full sweep. Phase 1 takes its argmax (ties: lowest column)
    // and keeps no list: it never reads one, and the next phase-2
    // iteration clears cand_.
    const int total = n_ + m_;
    if (!use_list) {
      for (int col = 0; col < total; ++col) consider(col, &best_score);
      return enter;
    }
    // Phase 2 refills the list, keeping the kCandMax best-scoring columns
    // for the following iterations (multiple pricing: one scan amortizes
    // over the candidate list's lifetime, and the entering quality matches
    // global devex).
    scan_hits_.clear();
    for (int col = 0; col < total; ++col) {
      const std::int8_t s = status(col);
      if (s == Basis::kBasic || isFixed(col)) continue;
      const double rc = reducedCost(col, y, cost, phase1);
      double d = 0.0;
      const double v = violation(col, rc, &d);
      if (v == 0.0) continue;
      scan_hits_.push_back({col, v * v / devex_w_[col], d, v});
    }
    if (scan_hits_.empty()) return -1;

    const auto better = [](const ScanHit& a, const ScanHit& b) {
      return a.score != b.score ? a.score > b.score : a.col < b.col;
    };
    if (static_cast<int>(scan_hits_.size()) > kCandMax) {
      std::partial_sort(scan_hits_.begin(), scan_hits_.begin() + kCandMax,
                        scan_hits_.end(), better);
      scan_hits_.resize(kCandMax);
    } else {
      std::sort(scan_hits_.begin(), scan_hits_.end(), better);
    }
    cand_.clear();
    for (const ScanHit& h : scan_hits_) cand_.push_back(h.col);
    *dir = scan_hits_[0].dir;
    *viol = scan_hits_[0].viol;
    return scan_hits_[0].col;
  }

  /// Devex reference-framework weight update after a basis change: `enter`
  /// replaces the basic column at position (pivot row) `leave`, with pivot
  /// element alpha[leave]. Only the retained candidate list is re-weighted
  /// (partial devex), and only when the caller already paid for
  /// rho = B^{-T} e_leave (phase 2); without rho just the entering/leaving
  /// weights move.
  void devexUpdate(int enter, int leave, const std::vector<double>& alpha,
                   const std::vector<double>* rho) {
    const double ap = alpha[leave];
    const double wq = devex_w_[enter];
    const double gamma = std::max(wq / (ap * ap), 1.0);
    if (gamma > kDevexReset) {
      std::fill(devex_w_.begin(), devex_w_.end(), 1.0);
      cand_.clear();
      return;
    }
    if (rho != nullptr) {
      for (const int col : cand_) {
        if (col == enter || status(col) == Basis::kBasic) continue;
        double aj = 0.0;
        if (isLogical(col)) {
          aj = (*rho)[col - n_];
        } else {
          for (const ColNz& nz : column(col)) aj += (*rho)[nz.row] * nz.val;
        }
        const double w = (aj * aj) * wq / (ap * ap);
        if (w > devex_w_[col]) devex_w_[col] = w;
      }
    }
    devex_w_[basis_[leave]] = gamma;  // the leaving column, still basic here
    devex_w_[enter] = 1.0;
  }

  // ---- ratio tests ----------------------------------------------------

  /// Outcome of a ratio test. leave == -1 with finite t: entering bound
  /// flip; t == kInfinity: unbounded direction.
  struct RatioOutcome {
    double t = kInfinity;
    int leave = -1;
    double leave_to = 0.0;
    bool leave_at_upper = false;
    bool rescued = false;  ///< Harris stepped past the min-ratio blocker
  };

  /// Textbook bounded-variable ratio test with Bland lowest-index tie
  /// breaking -- the anti-cycling fallback (finite termination guarantee).
  /// Also handles composite phase-1 short steps exactly as the pre-Harris
  /// engine did.
  RatioOutcome blandRatioTest(int enter, double enter_dir,
                              const std::vector<double>& alpha, double eps) {
    RatioOutcome out;
    if (std::isfinite(ub_[enter]) && std::isfinite(lb_[enter])) {
      out.t = ub_[enter] - lb_[enter];
    }
    for (int i = 0; i < m_; ++i) {
      const double a = alpha[i];
      if (std::abs(a) <= kPivotTol) continue;
      const int col = basis_[i];
      const double x = xval_[col];
      const double rate = -enter_dir * a;
      double bound;
      if (rate < 0.0) {
        if (x > ub_[col] + eps) {
          bound = ub_[col];  // infeasible above, decreasing: stop at ub
        } else if (x < lb_[col] - eps) {
          continue;  // infeasible below, decreasing further: no block
        } else if (std::isfinite(lb_[col])) {
          bound = lb_[col];
        } else {
          continue;
        }
      } else {
        if (x < lb_[col] - eps) {
          bound = lb_[col];  // infeasible below, increasing: stop at lb
        } else if (x > ub_[col] + eps) {
          continue;  // infeasible above, increasing further: no block
        } else if (std::isfinite(ub_[col])) {
          bound = ub_[col];
        } else {
          continue;
        }
      }
      const double t = std::max(0.0, (bound - x) / rate);
      // Ties: the lowest basic column index (finite termination).
      bool better = t < out.t - 1e-12;
      if (!better && t < out.t + 1e-12 && out.leave >= 0) {
        better = col < basis_[out.leave];
      }
      if (better) {
        out.t = t;
        out.leave = i;
        out.leave_to = bound;
        out.leave_at_upper = bound == ub_[col];
      }
    }
    return out;
  }

  /// Harris two-pass ratio test (phase 2; all basics feasible within eps).
  /// Pass 1 finds the smallest ratio against bounds relaxed by `relax`;
  /// pass 2 picks the largest pivot among blockers whose exact ratio fits
  /// under that relaxed minimum. The chosen blocker may sit past the
  /// textbook minimum-ratio one (which then overshoots its bound by at
  /// most `relax` -- the tolerance-expansion perturbation absorbs it).
  RatioOutcome harrisRatioTest(int enter, double enter_dir,
                               const std::vector<double>& alpha,
                               double relax) {
    RatioOutcome out;
    double t_flip = kInfinity;
    if (std::isfinite(ub_[enter]) && std::isfinite(lb_[enter])) {
      t_flip = ub_[enter] - lb_[enter];
    }

    double t_rel_min = kInfinity;
    for (int i = 0; i < m_; ++i) {
      const double a = alpha[i];
      if (std::abs(a) <= kPivotTol) continue;
      const int col = basis_[i];
      const double x = xval_[col];
      const double rate = -enter_dir * a;
      const double bound = rate < 0.0 ? lb_[col] : ub_[col];
      if (!std::isfinite(bound)) continue;
      const double slack = rate < 0.0 ? bound - relax : bound + relax;
      const double t_rel = (slack - x) / rate;
      if (t_rel < t_rel_min) t_rel_min = t_rel;
    }

    if (t_flip <= t_rel_min) {  // the entering column's own bound blocks
      out.t = t_flip;
      return out;  // leave == -1: bound flip (or unbounded when infinite)
    }
    if (!std::isfinite(t_rel_min)) return out;  // unbounded direction

    double best_abs = 0.0;
    double t_exact = 0.0;
    double min_exact = kInfinity;
    for (int i = 0; i < m_; ++i) {
      const double a = alpha[i];
      if (std::abs(a) <= kPivotTol) continue;
      const int col = basis_[i];
      const double x = xval_[col];
      const double rate = -enter_dir * a;
      const double bound = rate < 0.0 ? lb_[col] : ub_[col];
      if (!std::isfinite(bound)) continue;
      const double t = (bound - x) / rate;
      if (t > t_rel_min) continue;
      if (t < min_exact) min_exact = t;
      if (std::abs(a) > best_abs) {
        best_abs = std::abs(a);
        t_exact = t;
        out.leave = i;
        out.leave_to = bound;
        out.leave_at_upper = bound == ub_[col];
      }
    }
    if (out.leave < 0) return out;  // numerically empty window: unbounded
    out.t = std::max(0.0, t_exact);
    out.rescued = t_exact > min_exact;
    return out;
  }

  /// One breakpoint of the piecewise-linear phase-1 objective along the
  /// entering direction: at step `t_ex` (relaxed: `t_rel`) the objective's
  /// slope increases by `dslope` because basic `row` crosses `bound`.
  struct Breakpoint {
    double t_rel = 0.0;
    double t_ex = 0.0;
    double dslope = 0.0;
    int row = 0;
    double bound = 0.0;
  };

  /// Piecewise-linear long-step phase-1 ratio test: instead of blocking at
  /// the first bound, walk the breakpoints while the composite
  /// infeasibility keeps decreasing (each crossing flips one slope
  /// contribution), then Harris-pick the largest pivot inside the final
  /// window. One long step can do the work of many degenerate short ones.
  RatioOutcome phase1LongStep(int enter, double enter_dir, double enter_viol,
                              const std::vector<double>& alpha, double eps,
                              double relax) {
    RatioOutcome out;
    double t_flip = kInfinity;
    if (std::isfinite(ub_[enter]) && std::isfinite(lb_[enter])) {
      t_flip = ub_[enter] - lb_[enter];
    }

    bps_.clear();
    for (int i = 0; i < m_; ++i) {
      const double a = alpha[i];
      if (std::abs(a) <= kPivotTol) continue;
      const int col = basis_[i];
      const double x = xval_[col];
      const double rate = -enter_dir * a;
      const double l = lb_[col], u = ub_[col];
      const double mag = std::abs(rate);
      const auto push = [&](double bound, double slack) {
        const double t_ex = (bound - x) / rate;
        if (t_ex > t_flip) return;  // the entering column flips first
        bps_.push_back({(slack - x) / rate, t_ex, mag, i, bound});
      };
      if (rate > 0.0) {
        if (x < l - eps) {
          push(l, l + relax);  // infeasible below, rising: violation ends
          if (std::isfinite(u)) push(u, u + relax);
        } else if (x <= u + eps) {
          if (std::isfinite(u)) push(u, u + relax);
        }
        // else: infeasible above and rising -- worsening from t=0, no
        // breakpoint (its slope is already in the reduced cost).
      } else {
        if (x > u + eps) {
          push(u, u - relax);
          if (std::isfinite(l)) push(l, l - relax);
        } else if (x >= l - eps) {
          if (std::isfinite(l)) push(l, l - relax);
        }
      }
    }

    if (bps_.empty()) {
      out.t = t_flip;  // flip if finite, else unbounded (numerical noise
      return out;      // in phase 1 -- the caller confirms on a refactor)
    }

    std::sort(bps_.begin(), bps_.end(),
              [](const Breakpoint& a, const Breakpoint& b) {
                return a.t_rel != b.t_rel ? a.t_rel < b.t_rel
                                          : a.row < b.row;
              });

    // Walk while the infeasibility still decreases.
    double slope = -enter_viol;
    double t_rel_stop = bps_.back().t_rel;
    bool stopped = false;
    for (const Breakpoint& bp : bps_) {
      slope += bp.dslope;
      if (slope >= -1e-12) {
        t_rel_stop = bp.t_rel;
        stopped = true;
        break;
      }
    }
    if (!stopped && std::isfinite(t_flip)) {
      // Still descending past every breakpoint: the entering column's own
      // bound flip is the step.
      out.t = t_flip;
      return out;
    }

    // Harris pass 2 inside the window.
    double best_abs = 0.0;
    double t_exact = 0.0;
    double min_exact = kInfinity;
    for (const Breakpoint& bp : bps_) {
      if (bp.t_rel > t_rel_stop) break;
      if (bp.t_ex < min_exact) min_exact = bp.t_ex;
      if (bp.dslope > best_abs) {
        best_abs = bp.dslope;
        t_exact = bp.t_ex;
        out.leave = bp.row;
        out.leave_to = bp.bound;
        out.leave_at_upper = bp.bound == ub_[basis_[bp.row]];
      }
    }
    out.t = std::max(0.0, t_exact);
    out.rescued = t_exact > min_exact;
    return out;
  }

  // ---- dual simplex ---------------------------------------------------

  enum class DualVerdict {
    kProceed,     ///< hand over to the primal loop (feasible, not dual-
                  ///< feasible, or the degeneracy safety net tripped)
    kInfeasible,  ///< dual ray confirmed on a fresh basis
    kIterLimit,
  };

  /// Bounded-variable dual simplex: repairs primal feasibility after
  /// rhs/bound mutations while keeping every reduced cost sign-feasible,
  /// so no composite phase 1 (and no objective regression) is needed. Per
  /// iteration: the leaving row is the largest bound violation (tie:
  /// lowest basic column), rho = B^{-T} e_r prices row r across the
  /// nonbasic columns, a Harris-style two-pass dual ratio test picks the
  /// entering column (pass 1: smallest reduced-cost ratio against
  /// tolerance-relaxed costs; pass 2: largest pivot inside the window),
  /// and reduced costs are maintained incrementally between
  /// refactorizations. Any numerical doubt -- ftran/btran pivot mismatch,
  /// a dual ray on a stale factorization -- refreshes the basis first;
  /// persistent degeneracy bails out to the composite primal phase 1,
  /// which is the correctness (and anti-cycling) backstop.
  DualVerdict runDual(StatsSnapshot& st, double eps) {
    // The dual simplex shines on *localized* damage -- a flapped link's
    // bound pins, a single rhs edit, a cutting plane -- where a handful
    // of basics lost feasibility and a few dual pivots repair them while
    // the reduced costs stay optimal. When most of the rhs moved at once
    // (a new demand matrix), nearly every basic is violated and the
    // composite phase-1 long-step machinery beats row-at-a-time dual
    // repair, so those solves stay on the primal path: both a wide rhs
    // edit footprint since the last solve and a high violated-basic count
    // veto the dual attempt.
    if (rhs_edits_ > m_ / 2) return DualVerdict::kProceed;
    int violated = 0;
    double total = 0.0;
    for (int i = 0; i < m_; ++i) {
      const int col = basis_[i];
      const double x = xval_[col];
      if (x < lb_[col] - eps) {
        total += lb_[col] - x;
        ++violated;
      } else if (x > ub_[col] + eps) {
        total += x - ub_[col];
        ++violated;
      }
    }
    if (total <= eps) return DualVerdict::kProceed;
    if (violated > std::max(32, m_ / 8)) return DualVerdict::kProceed;

    double cmax = 0.0;
    for (int j = 0; j < n_; ++j) cmax = std::max(cmax, std::abs(cost_[j]));
    const double dtol = kOptTol * (1.0 + cmax);

    std::vector<double> y(m_), rho(m_), alpha(m_);
    std::vector<double> rc(static_cast<std::size_t>(n_) + m_, 0.0);

    // Fresh duals + reduced costs; false when the basis is not
    // dual-feasible (the primal loop must take over from scratch).
    const auto computeRc = [&]() -> bool {
      for (int i = 0; i < m_; ++i) y[i] = cost_[basis_[i]];
      lu_.btran(y);
      for (int col = 0; col < n_ + m_; ++col) {
        if (status(col) == Basis::kBasic) {
          rc[col] = 0.0;
          continue;
        }
        rc[col] = reducedCost(col, y, cost_, /*phase1=*/false);
        if (isFixed(col)) continue;
        if (status(col) == Basis::kAtLower && rc[col] < -dtol) return false;
        if (status(col) == Basis::kAtUpper && rc[col] > dtol) return false;
      }
      return true;
    };
    if (!computeRc()) return DualVerdict::kProceed;
    bool rc_fresh = updates_since_refactor_ == 0;

    arow_.assign(static_cast<std::size_t>(n_) + m_, 0.0);
    double best_infeas = kInfinity;
    int stall = 0;

    while (st.iterations < opt_.max_iterations) {
      if (updates_since_refactor_ >= opt_.refactor_every ||
          lu_.nonzeros() > kLuGrowthLimit * lu_.freshNonzeros() + 64) {
        refactorize(st);
        if (!computeRc()) return DualVerdict::kProceed;
        rc_fresh = true;
      }

      // Leaving row: the largest bound violation (tie: lowest basic col).
      int r = -1;
      double viol = eps;
      bool below = false;
      double total = 0.0;
      for (int i = 0; i < m_; ++i) {
        const int col = basis_[i];
        const double x = xval_[col];
        double v = 0.0;
        bool b = false;
        if (x < lb_[col] - eps) {
          v = lb_[col] - x;
          b = true;
        } else if (x > ub_[col] + eps) {
          v = x - ub_[col];
        }
        if (v == 0.0) continue;
        total += v;
        if (v > viol || (v == viol && r >= 0 && col < basis_[r])) {
          viol = v;
          r = i;
          below = b;
        }
      }
      if (r < 0) return DualVerdict::kProceed;  // feasible: price out

      if (total < best_infeas - 1e-12) {
        best_infeas = total;
        stall = 0;
      } else if (++stall > std::min(opt_.stall_limit, 16)) {
        return DualVerdict::kProceed;  // degeneracy safety net
      }

      const int rcol = basis_[r];
      const double rbound = below ? lb_[rcol] : ub_[rcol];

      // rho = B^{-T} e_r; arow_[j] = rho . A_j is row r of B^{-1}[A|I].
      std::fill(rho.begin(), rho.end(), 0.0);
      rho[r] = 1.0;
      lu_.btran(rho);

      // Dual ratio test pass 1. With w_j = -arow_j when the leaving
      // variable violates its lower bound (+arow_j for the upper), an
      // entering candidate needs w_j > 0 at lower / w_j < 0 at upper so
      // the dual step gamma = rc_j / w_j >= 0 keeps every reduced cost
      // sign-feasible; the smallest relaxed ratio bounds the window.
      const double wsign = below ? -1.0 : 1.0;
      double gmin_rel = kInfinity;
      for (int col = 0; col < n_ + m_; ++col) {
        const std::int8_t s = status(col);
        arow_[col] = 0.0;
        if (s == Basis::kBasic || isFixed(col)) continue;
        double aj;
        if (isLogical(col)) {
          aj = rho[col - n_];
        } else {
          aj = 0.0;
          for (const ColNz& nz : column(col)) aj += rho[nz.row] * nz.val;
        }
        if (std::abs(aj) <= kPivotTol) continue;
        arow_[col] = aj;
        const double w = wsign * aj;
        if ((s == Basis::kAtLower && w > 0.0) ||
            (s == Basis::kAtUpper && w < 0.0)) {
          const double g_rel = rc[col] / w + dtol / std::abs(w);
          if (g_rel < gmin_rel) gmin_rel = g_rel;
        }
      }

      if (!std::isfinite(gmin_rel)) {
        // Dual ray => primal infeasible; confirm on a fresh basis first.
        if (updates_since_refactor_ > 0 || !rc_fresh) {
          refactorize(st);
          if (!computeRc()) return DualVerdict::kProceed;
          rc_fresh = true;
          continue;
        }
        return DualVerdict::kInfeasible;
      }

      // Pass 2: the largest pivot inside the relaxed window.
      int q = -1;
      double best_abs = 0.0;
      for (int col = 0; col < n_ + m_; ++col) {
        const double aj = arow_[col];
        if (aj == 0.0) continue;
        const std::int8_t s = status(col);
        const double w = wsign * aj;
        if (!((s == Basis::kAtLower && w > 0.0) ||
              (s == Basis::kAtUpper && w < 0.0))) {
          continue;
        }
        if (rc[col] / w > gmin_rel) continue;
        if (std::abs(aj) > best_abs) {
          best_abs = std::abs(aj);
          q = col;
        }
      }
      if (q < 0) return DualVerdict::kProceed;  // numerically empty window

      // alpha = B^{-1} A_q; cross-check the pivot against the row value.
      std::fill(alpha.begin(), alpha.end(), 0.0);
      scatterColumn(q, alpha);
      lu_.ftran(alpha);
      const double ap = alpha[r];
      if (std::abs(ap) <= kPivotTol ||
          std::abs(ap - arow_[q]) > 1e-7 * (1.0 + std::abs(ap))) {
        if (updates_since_refactor_ > 0) {
          refactorize(st);
          if (!computeRc()) return DualVerdict::kProceed;
          rc_fresh = true;
          continue;
        }
        return DualVerdict::kProceed;  // fresh and still inconsistent
      }

      // Primal step: move entering q so the leaving variable lands
      // exactly on its violated bound (t >= 0 by the sign rule).
      const double dir = status(q) == Basis::kAtLower ? 1.0 : -1.0;
      const double step = std::max(0.0, (xval_[rcol] - rbound) / (dir * ap));

      ++st.iterations;
      ++st.dual_pivots;

      if (step != 0.0) {
        for (int i = 0; i < m_; ++i) {
          if (alpha[i] != 0.0) xval_[basis_[i]] -= dir * alpha[i] * step;
        }
      }
      xval_[q] = boundValue(q) + dir * step;
      xval_[rcol] = rbound;
      setStatus(rcol, below ? Basis::kAtLower : Basis::kAtUpper);
      setStatus(q, Basis::kBasic);
      basis_[r] = q;

      // Incremental duals: y' = y + (rc_q / ap) rho drops every nonbasic
      // rc_j by (rc_q / ap) arow_j; the leaving column lands at
      // rc = -rc_q / ap, sign-feasible for the bound it lands on.
      const double theta = rc[q] / ap;
      if (theta != 0.0) {
        for (int col = 0; col < n_ + m_; ++col) {
          if (arow_[col] != 0.0) rc[col] -= theta * arow_[col];
        }
      }
      rc[q] = 0.0;
      rc[rcol] = -theta;
      rc_fresh = false;

      if (lu_.update(r, columnRef(q))) {
        ++updates_since_refactor_;
        ++st.lu_updates;
      } else {
        factored_ = false;  // unsafe Forrest-Tomlin pivot
        refactorize(st);
        if (!computeRc()) return DualVerdict::kProceed;
        rc_fresh = true;
      }
    }
    return DualVerdict::kIterLimit;
  }

  // ---- main loop ------------------------------------------------------

  Status run(StatsSnapshot& st) {
    sanitizeStatuses();
    if (devex_w_.empty()) {
      devex_w_.assign(static_cast<std::size_t>(n_) + m_, 1.0);
    }
    if (!factored_) {
      refactorize(st);
    } else if (!primal_fresh_) {
      recomputePrimal();
    }
    const double eps = feasScale();
    // Harris working tolerance: expands a little after every degenerate
    // step (the bounded perturbation), snaps back -- with a primal
    // recompute to shed the accumulated overshoot -- at the cap.
    const double relax_step = eps / 16.0;
    const double relax_cap = 8.0 * eps;
    double relax = eps;

    // Warm bases whose primal feasibility was lost to rhs/bound mutations
    // but whose reduced costs are still sign-feasible take the dual
    // simplex instead of the composite phase 1: it repairs feasibility in
    // few pivots without discarding the (near-)optimal dual information.
    // Cold bases never qualify (an all-logical basis is trivially
    // dual-feasible on many problems but far from optimal, and phase 1 +
    // devex is the better route there). The primal loop below always runs
    // afterwards and owns the final verdict.
    if (warm_) {
      const DualVerdict dv = runDual(st, eps);
      if (dv == DualVerdict::kInfeasible) return Status::kInfeasible;
      if (dv == DualVerdict::kIterLimit) return Status::kIterLimit;
      cand_.clear();  // devex candidates selected under the old basis
    }

    std::vector<double> y(m_), alpha(m_), rho(m_);
    int stall = 0;
    bool bland = false;
    bool was_phase1 = true;
    // Phase-2 duals are maintained incrementally across devex pivots
    // (y += (rc_q / alpha_p) * rho, sharing the rho btran with the devex
    // weight update); y_valid says the maintained vector is current for
    // the present basis. Phase 1 recomputes y every iteration -- its cost
    // vector follows the violated set.
    bool y_valid = false;

    for (int it = 0; it < opt_.max_iterations; ++it) {
      if (updates_since_refactor_ >= opt_.refactor_every ||
          lu_.nonzeros() >
              kLuGrowthLimit * lu_.freshNonzeros() + 64) {
        refactorize(st);
        y_valid = false;
      }

      const double infeas = infeasibility(eps);
      const bool phase1 = infeas > eps;
      if (phase1 != was_phase1) {
        cand_.clear();  // reduced costs flipped
        y_valid = false;
      }
      if (bland) y_valid = false;

      // y = B^{-T} c_B for the phase's cost vector. Phase-1 costs are +-1
      // on violated basics and 0 elsewhere -- in particular 0 on every
      // nonbasic column, so no per-column phase-1 cost vector is needed
      // (reducedCost takes the phase flag).
      bool y_fresh = false;
      if (phase1 || !y_valid) {
        y_fresh = true;
        std::fill(y.begin(), y.end(), 0.0);
        if (phase1) {
          for (int i = 0; i < m_; ++i) {
            const int col = basis_[i];
            const double x = xval_[col];
            if (x < lb_[col] - eps) {
              y[i] = -1.0;
            } else if (x > ub_[col] + eps) {
              y[i] = 1.0;
            }
          }
        } else {
          for (int i = 0; i < m_; ++i) y[i] = cost_[basis_[i]];
        }
        lu_.btran(y);
        y_valid = !phase1;
      }
      const std::vector<double>& cost = cost_;

      // Pricing: devex candidate list; Bland when anti-cycling.
      int enter = -1;
      double enter_dir = 0.0;
      double enter_viol = 0.0;
      bool from_list = false;
      if (bland) {
        for (int col = 0; col < n_ + m_; ++col) {
          if (status(col) == Basis::kBasic || isFixed(col)) continue;
          double d = 0.0;
          const double v = violation(
              col, reducedCost(col, y, cost, phase1), &d);
          if (v > 0.0) {
            enter = col;
            enter_dir = d;
            enter_viol = v;
            break;
          }
        }
      } else {
        enter = devexPrice(y, cost, phase1, /*use_list=*/!phase1,
                           &enter_dir, &enter_viol, &from_list);
        if (enter >= 0 && from_list) ++st.pricing_hits;
      }

      if (enter < 0) {
        // Confirm on a fresh factorization before declaring a verdict:
        // update round-off (and the incrementally maintained duals) can
        // fake optimality/infeasibility.
        if (updates_since_refactor_ > 0 || !y_fresh) {
          if (updates_since_refactor_ > 0) refactorize(st);
          y_valid = false;
          continue;
        }
        if (phase1) return Status::kInfeasible;
        // y is fresh: recomputed this iteration on an update-free LU.
        opt_duals_.swap(y);
        return Status::kOptimal;
      }

      // alpha = B^{-1} A_enter.
      std::fill(alpha.begin(), alpha.end(), 0.0);
      scatterColumn(enter, alpha);
      lu_.ftran(alpha);

      // Ratio test: the entering column moves by t >= 0 in direction
      // enter_dir; basic i changes at rate -enter_dir * alpha_i.
      RatioOutcome ro;
      if (bland) {
        ro = blandRatioTest(enter, enter_dir, alpha, eps);
      } else if (phase1) {
        ro = phase1LongStep(enter, enter_dir, enter_viol, alpha, eps,
                            relax);
      } else {
        ro = harrisRatioTest(enter, enter_dir, alpha, relax);
      }

      if (!std::isfinite(ro.t)) {
        if (updates_since_refactor_ > 0 || !y_fresh) {  // confirm fresh
          if (updates_since_refactor_ > 0) refactorize(st);
          y_valid = false;
          continue;
        }
        // A genuinely unbounded improving ray. In phase 1 the composite
        // objective is bounded below, so this can only be numerical noise.
        return phase1 ? Status::kIterLimit : Status::kUnbounded;
      }

      ++st.iterations;
      if (phase1) ++st.phase1_iters;
      if (ro.rescued) ++st.degen_rescues;

      // Apply the step to the basic values.
      if (ro.t != 0.0) {
        for (int i = 0; i < m_; ++i) {
          if (alpha[i] != 0.0) {
            xval_[basis_[i]] -= enter_dir * alpha[i] * ro.t;
          }
        }
      }
      if (ro.leave < 0) {
        // Bound flip: the entering column crosses to its other bound.
        setStatus(enter, status(enter) == Basis::kAtLower ? Basis::kAtUpper
                                                          : Basis::kAtLower);
        xval_[enter] = boundValue(enter);
      } else {
        const int leaving_col = basis_[ro.leave];
        const bool devex = !bland;
        const double ap = alpha[ro.leave];
        bool have_rho = false;
        if (devex && !phase1 && std::abs(ap) > 1e-7) {
          // rho = B^{-T} e_leave serves both the devex weight update and
          // the incremental dual update -- one btran, two uses.
          std::fill(rho.begin(), rho.end(), 0.0);
          rho[ro.leave] = 1.0;
          lu_.btran(rho);
          have_rho = true;
        }
        if (devex) {
          devexUpdate(enter, ro.leave, alpha, have_rho ? &rho : nullptr);
        }
        if (y_valid && have_rho) {
          const double theta = (-enter_dir * enter_viol) / ap;
          for (int i = 0; i < m_; ++i) y[i] += theta * rho[i];
        } else if (!phase1) {
          y_valid = false;
        }
        xval_[enter] = boundValue(enter) + enter_dir * ro.t;
        xval_[leaving_col] = ro.leave_to;  // snap exactly onto the bound
        setStatus(leaving_col,
                  ro.leave_at_upper ? Basis::kAtUpper : Basis::kAtLower);
        setStatus(enter, Basis::kBasic);
        basis_[ro.leave] = enter;
        if (lu_.update(ro.leave, columnRef(enter))) {
          ++updates_since_refactor_;
          ++st.lu_updates;
        } else {
          factored_ = false;  // unsafe Forrest-Tomlin pivot
          refactorize(st);
          y_valid = false;
        }
      }

      // Bounded degeneracy perturbation: expand the Harris tolerance a
      // little after each degenerate step; at the cap, shed the
      // accumulated overshoot and start over.
      if (ro.t <= kDegenStep) {
        relax += relax_step;
        if (relax >= relax_cap) {
          relax = eps;
          recomputePrimal();
          ++st.degen_rescues;
        }
      } else if (relax > eps) {
        relax = std::max(eps, relax * 0.5);
      }

      // Stall detection drives the Bland anti-cycling fallback: any
      // positive step strictly improves the phase objective, so a run of
      // degenerate (t ~ 0) pivots is the only way to make no progress.
      if (phase1 != was_phase1) {
        was_phase1 = phase1;
        stall = 0;
        bland = false;
      }
      if (ro.t > kDegenStep) {
        stall = 0;
        bland = false;
      } else if (++stall > opt_.stall_limit) {
        bland = true;
      }
    }
    return Status::kIterLimit;
  }

  SimplexOptions opt_;
  int n_ = 0;  ///< structural columns
  int m_ = 0;  ///< rows (== logical columns)
  double sgn_ = 1.0;
  std::vector<int> col_start_;  ///< [j] column j's first entry in col_nz_
  std::vector<ColNz> col_nz_;   ///< structural columns, sparse, row order
  std::vector<double> cost_;              ///< internal (minimize) costs
  std::vector<double> lb_, ub_;           ///< per column, logicals included
  std::vector<double> rhs_;
  Basis basis_status_;
  std::vector<int> basis_;   ///< row -> basic column (valid when factored_)
  std::vector<double> xval_; ///< per-column primal values
  std::vector<double> opt_duals_;  ///< internal-sense y at the last optimum
  LuFactor lu_;
  std::vector<double> devex_w_;  ///< devex reference weights, per column
  std::vector<int> cand_;        ///< pricing candidate list (column ids)
  struct ScanHit {
    int col;
    double score;
    double dir;
    double viol;
  };
  std::vector<ScanHit> scan_hits_;    ///< section-scan scratch
  std::vector<Breakpoint> bps_;       ///< phase-1 ratio-test scratch
  std::vector<ColNz> scratch_col_;    ///< columnRef() logical scratch
  std::vector<double> arow_;          ///< dual ratio-test row scratch
  int updates_since_refactor_ = 0;    ///< FT updates since the last refactor
  bool factored_ = false;
  bool primal_fresh_ = false;
  /// The retained basis came from a successful solve (or an external
  /// setBasis), so its reduced costs are worth testing for dual
  /// feasibility. Cold/reset bases never take the dual path.
  bool warm_ = false;
  /// Value-changing setRhs edits since the last solve or setBasis: the
  /// dual entry gate reads this to tell localized repairs from whole-rhs
  /// swaps.
  int rhs_edits_ = 0;
};

SimplexSolver::SimplexSolver(const LpProblem& problem, SimplexOptions opt)
    : impl_(std::make_unique<Impl>(problem, opt)) {}
SimplexSolver::SimplexSolver(const SimplexSolver& rhs)
    : impl_(std::make_unique<Impl>(*rhs.impl_)) {}
SimplexSolver& SimplexSolver::operator=(const SimplexSolver& rhs) {
  if (this != &rhs) impl_ = std::make_unique<Impl>(*rhs.impl_);
  return *this;
}
SimplexSolver::SimplexSolver(SimplexSolver&&) noexcept = default;
SimplexSolver& SimplexSolver::operator=(SimplexSolver&&) noexcept = default;
SimplexSolver::~SimplexSolver() = default;

LpResult SimplexSolver::solve() { return impl_->solve(); }
void SimplexSolver::setObjective(int var, double coef) {
  impl_->setObjective(var, coef);
}
void SimplexSolver::setRhs(int row, double rhs) { impl_->setRhs(row, rhs); }
void SimplexSolver::setBounds(int var, double lb, double ub) {
  impl_->setBounds(var, lb, ub);
}
void SimplexSolver::setBasis(const Basis& basis) { impl_->setBasis(basis); }
const Basis& SimplexSolver::basis() const { return impl_->basis(); }

LpResult solve(const LpProblem& p, const SimplexOptions& opt) {
  require(p.numVars() > 0, "LP has no variables");
  SimplexSolver solver(p, opt);
  return solver.solve();
}

}  // namespace coyote::lp
