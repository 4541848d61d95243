// Test-only copy of lp::LuFactor as it stood before its reach-limited
// maintenance: every factorization step and every Forrest-Tomlin update
// walks all recorded ops, update() re-zeroes a per-slot scratch and scans
// every later position. The production factor promises the same
// floating-point operations in the same order, so lu_test.cpp drives both
// with the same columns and requires bitwise-equal pivot rows, nonzeros(),
// ftran and btran results after every step.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "lp/basis.hpp"
#include "util/require.hpp"

namespace coyote::lu_reference {

using lp::ColNz;

namespace {

/// Markowitz stability screen: a pivot candidate must be within this factor
/// of the column's largest eligible magnitude.
constexpr double kStabRatio = 0.05;
/// A Forrest-Tomlin update whose new diagonal is this small relative to the
/// spike is numerically unsafe; the caller refactorizes instead.
constexpr double kFtStabTol = 1e-9;

/// Appends `slot` to `refs` unless already present. Keeping the per-row
/// reference lists duplicate-free is what lets update() subtract each U
/// entry exactly once when propagating a row elimination.
void pushRowRef(std::vector<int>& refs, int slot) {
  for (const int k : refs) {
    if (k == slot) return;
  }
  refs.push_back(slot);
}

}  // namespace

class LuFactor {
 public:
  /// Starts a fresh factorization of an m x m basis. `row_counts` (optional)
  /// holds the number of nonzeros per row across the columns about to be
  /// placed; the Markowitz pivot choice prefers sparse rows. All previous
  /// state is dropped.
  void reset(int m, std::vector<int> row_counts = {});

  /// Factorization step: eliminates `col` against the factor built so far
  /// and pivots it on a not-yet-pivoted row. Returns the chosen pivot row,
  /// or -1 when every candidate entry is below `depend_tol` (the column is
  /// linearly dependent on the ones already placed -- the caller demotes it).
  int addColumn(std::span<const ColNz> col, double depend_tol);

  [[nodiscard]] bool complete() const { return placed_ == m_; }
  [[nodiscard]] bool rowPivoted(int row) const { return slot_of_row_[row] >= 0; }

  /// z <- B^{-1} z, in place (dense vector of size m).
  void ftran(std::vector<double>& z) const;

  /// z <- B^{-T} z, in place (dense vector of size m).
  void btran(std::vector<double>& z) const;

  /// Forrest-Tomlin update: the basic column pivoted on `leave_row` is
  /// replaced by `col` (its *original* sparse entries, not the ftran'd
  /// ones). Returns false -- leaving the factor unusable until the next
  /// reset() -- when the updated pivot is numerically unsafe; the caller
  /// must refactorize.
  [[nodiscard]] bool update(int leave_row, std::span<const ColNz> col);

  /// Stored nonzeros (L ops + U), the fill/growth measure.
  [[nodiscard]] std::size_t nonzeros() const { return nonzeros_; }
  /// nonzeros() right after the last completed factorization.
  [[nodiscard]] std::size_t freshNonzeros() const { return fresh_nonzeros_; }
  /// Marks the factorization complete; snapshots freshNonzeros().
  void sealRefactor();

 private:
  /// One recorded elimination; terms live in op_pool_[begin, end).
  ///  - column op (factorization):  z[t.row] -= t.val * z[pivot]  for all t
  ///  - row op (Forrest-Tomlin):    z[pivot] -= sum t.val * z[t.row]
  struct OpHead {
    int pivot = 0;
    int begin = 0;
    int end = 0;
    bool row_op = false;
  };

  /// One column of U; above-diagonal entries live in u_pool_[begin,
  /// begin+len) and their rows are pivot rows of slots earlier in pos_
  /// order.
  struct UCol {
    int pivot_row = 0;
    double diag = 0.0;
    int begin = 0;
    int len = 0;
  };

  /// Applies the recorded ops to z, appending every row that may have
  /// become nonzero to `touched` (a superset; duplicates allowed).
  void applyOps(std::vector<double>& z, std::vector<int>* touched) const;

  int m_ = 0;
  int placed_ = 0;
  std::vector<OpHead> op_heads_;
  std::vector<ColNz> op_pool_;
  std::vector<UCol> slots_;        ///< stable storage, one per placed column
  std::vector<ColNz> u_pool_;      ///< U entries of every slot
  std::vector<int> pos_;           ///< elimination order: position -> slot
  std::vector<int> pos_of_;        ///< slot -> position
  std::vector<int> slot_of_row_;   ///< pivot row -> slot (-1 = unpivoted)
  std::vector<int> row_counts_;    ///< Markowitz bias (static approximation)
  /// Superset index: slots whose U column *may* hold an entry at this row
  /// (stale slots are skipped on use, rebuilt by reset()).
  std::vector<std::vector<int>> rows_with_;
  std::vector<double> work_;       ///< dense scratch, kept zeroed
  std::vector<int> touched_;       ///< scratch: rows work_ may be nonzero at
  std::vector<double> rowval_;     ///< per-slot scratch for update(), zeroed
  std::size_t nonzeros_ = 0;
  std::size_t fresh_nonzeros_ = 0;
};


inline void LuFactor::reset(int m, std::vector<int> row_counts) {
  m_ = m;
  placed_ = 0;
  op_heads_.clear();
  op_pool_.clear();
  slots_.clear();
  u_pool_.clear();
  pos_.clear();
  pos_of_.clear();
  slot_of_row_.assign(m, -1);
  row_counts_ = std::move(row_counts);
  if (static_cast<int>(rows_with_.size()) != m) {
    rows_with_.assign(m, {});
  } else {
    for (auto& refs : rows_with_) refs.clear();  // keeps the capacity
  }
  work_.assign(m, 0.0);
  touched_.clear();
  rowval_.clear();
  nonzeros_ = 0;
}

inline int LuFactor::addColumn(std::span<const ColNz> col, double depend_tol) {
  touched_.clear();
  for (const ColNz& nz : col) {
    work_[nz.row] += nz.val;
    touched_.push_back(nz.row);
  }
  applyOps(work_, &touched_);

  // Markowitz-style pivot: among the numerically safe entries on unpivoted
  // rows, prefer the sparsest row, then the largest magnitude, then the
  // lowest row index (determinism; touched_ may repeat rows, so every
  // tie is broken explicitly).
  double vmax = 0.0;
  for (const int r : touched_) {
    if (slot_of_row_[r] < 0) vmax = std::max(vmax, std::abs(work_[r]));
  }
  int piv = -1;
  int best_count = 0;
  double best_abs = 0.0;
  const double screen = std::max(depend_tol, kStabRatio * vmax);
  for (const int r : touched_) {
    if (slot_of_row_[r] >= 0) continue;
    const double a = std::abs(work_[r]);
    if (a <= depend_tol || a < screen) continue;
    const int cnt = row_counts_.empty() ? 0 : row_counts_[r];
    if (piv < 0 || cnt < best_count || (cnt == best_count && a > best_abs) ||
        (cnt == best_count && a == best_abs && r < piv)) {
      piv = r;
      best_count = cnt;
      best_abs = a;
    }
  }
  if (piv < 0) {
    for (const int r : touched_) work_[r] = 0.0;
    return -1;
  }

  const int slot = static_cast<int>(slots_.size());
  slots_.push_back({});
  UCol& u = slots_.back();
  u.pivot_row = piv;
  u.diag = work_[piv];
  u.begin = static_cast<int>(u_pool_.size());
  OpHead op;
  op.pivot = piv;
  op.begin = static_cast<int>(op_pool_.size());
  for (const int r : touched_) {
    const double v = work_[r];
    if (v == 0.0) continue;  // also skips duplicate touched_ entries
    work_[r] = 0.0;
    if (r == piv) continue;
    if (slot_of_row_[r] >= 0) {
      u_pool_.push_back({r, v});  // above the diagonal: joins U
      ++u.len;
      pushRowRef(rows_with_[r], slot);
    } else {
      op_pool_.push_back({r, v / u.diag});  // below: eliminated into L
    }
  }
  work_[piv] = 0.0;
  nonzeros_ += static_cast<std::size_t>(u.len) + 1;
  op.end = static_cast<int>(op_pool_.size());
  if (op.end > op.begin) {
    nonzeros_ += static_cast<std::size_t>(op.end - op.begin);
    op_heads_.push_back(op);
  }
  slot_of_row_[piv] = slot;
  pos_of_.push_back(static_cast<int>(pos_.size()));
  pos_.push_back(slot);
  ++placed_;
  return piv;
}

inline void LuFactor::sealRefactor() { fresh_nonzeros_ = nonzeros_; }

inline void LuFactor::applyOps(std::vector<double>& z,
                        std::vector<int>* touched) const {
  for (const OpHead& op : op_heads_) {
    if (op.row_op) {
      double s = z[op.pivot];
      for (int k = op.begin; k < op.end; ++k) {
        s -= op_pool_[k].val * z[op_pool_[k].row];
      }
      z[op.pivot] = s;
      if (touched) touched->push_back(op.pivot);
    } else {
      const double v = z[op.pivot];
      if (v == 0.0) continue;
      for (int k = op.begin; k < op.end; ++k) {
        z[op_pool_[k].row] -= op_pool_[k].val * v;
        if (touched) touched->push_back(op_pool_[k].row);
      }
    }
  }
}

inline void LuFactor::ftran(std::vector<double>& z) const {
  applyOps(z, nullptr);
  for (int k = static_cast<int>(pos_.size()) - 1; k >= 0; --k) {
    const UCol& u = slots_[pos_[k]];
    const double zr = z[u.pivot_row];
    if (zr == 0.0) continue;
    const double c = zr / u.diag;
    z[u.pivot_row] = c;
    for (int e = u.begin; e < u.begin + u.len; ++e) {
      z[u_pool_[e].row] -= u_pool_[e].val * c;
    }
  }
}

inline void LuFactor::btran(std::vector<double>& z) const {
  for (const int slot : pos_) {
    const UCol& u = slots_[slot];
    double s = z[u.pivot_row];
    for (int e = u.begin; e < u.begin + u.len; ++e) {
      s -= u_pool_[e].val * z[u_pool_[e].row];
    }
    if (s == 0.0 && z[u.pivot_row] == 0.0) continue;
    z[u.pivot_row] = s / u.diag;
  }
  for (auto it = op_heads_.rbegin(); it != op_heads_.rend(); ++it) {
    if (it->row_op) {
      const double v = z[it->pivot];
      if (v == 0.0) continue;
      for (int k = it->begin; k < it->end; ++k) {
        z[op_pool_[k].row] -= op_pool_[k].val * v;
      }
    } else {
      double s = z[it->pivot];
      for (int k = it->begin; k < it->end; ++k) {
        s -= op_pool_[k].val * z[op_pool_[k].row];
      }
      z[it->pivot] = s;
    }
  }
}

inline bool LuFactor::update(int leave_row, std::span<const ColNz> col) {
  const int s_t = slot_of_row_[leave_row];
  require(s_t >= 0, "LuFactor::update: row not pivoted");

  // The spike: the entering column eliminated through L^{-1} only.
  touched_.clear();
  for (const ColNz& nz : col) {
    work_[nz.row] += nz.val;
    touched_.push_back(nz.row);
  }
  applyOps(work_, &touched_);
  double spike_max = 0.0;
  for (const int r : touched_) {
    spike_max = std::max(spike_max, std::abs(work_[r]));
  }

  // Gather row `leave_row` of U -- its entries live in columns at later
  // positions -- removing each from its column (the row is about to be
  // eliminated).
  rowval_.assign(slots_.size(), 0.0);
  for (const int k : rows_with_[leave_row]) {
    if (k == s_t) continue;
    UCol& u = slots_[k];
    for (int e = u.begin; e < u.begin + u.len; ++e) {
      if (u_pool_[e].row == leave_row) {
        rowval_[k] = u_pool_[e].val;
        u_pool_[e] = u_pool_[u.begin + u.len - 1];
        --u.len;
        --nonzeros_;
        break;
      }
    }
  }
  rows_with_[leave_row].clear();

  // Eliminate the gathered row left to right using the diagonals of the
  // later columns. A row op only touches row `leave_row`, so the columns
  // themselves stay intact; fill propagates strictly rightward, which is
  // why one position-ordered sweep suffices (classic Forrest-Tomlin).
  OpHead rowop;
  rowop.pivot = leave_row;
  rowop.row_op = true;
  rowop.begin = static_cast<int>(op_pool_.size());
  const int t = pos_of_[s_t];
  const int end = static_cast<int>(pos_.size());
  for (int p = t + 1; p < end; ++p) {
    const int k = pos_[p];
    const double v = rowval_[k];
    if (v == 0.0) continue;
    const UCol& u = slots_[k];
    const double mult = v / u.diag;
    op_pool_.push_back({u.pivot_row, mult});
    for (const int k2 : rows_with_[u.pivot_row]) {
      if (k2 == s_t) continue;
      const UCol& c2 = slots_[k2];
      for (int e = c2.begin; e < c2.begin + c2.len; ++e) {
        if (u_pool_[e].row == u.pivot_row) {
          rowval_[k2] -= mult * u_pool_[e].val;
          break;
        }
      }
    }
    work_[leave_row] -= mult * work_[u.pivot_row];
  }
  rowop.end = static_cast<int>(op_pool_.size());

  // The spike takes the freed slot at the last position; what remains at
  // the leaving pivot row is the new diagonal.
  const double diag = work_[leave_row];
  if (!(std::abs(diag) > kFtStabTol * (1.0 + spike_max))) {
    // Unsafe pivot. Entries were already unhooked above, so the factor is
    // unusable until the caller's refactorization.
    for (const int r : touched_) work_[r] = 0.0;
    work_[leave_row] = 0.0;
    op_pool_.resize(rowop.begin);
    return false;
  }

  UCol& u = slots_[s_t];
  nonzeros_ -= static_cast<std::size_t>(u.len) + 1;
  // The replaced column's old pool range is leaked until the next
  // refactorization; the new entries go at the pool tail.
  u.begin = static_cast<int>(u_pool_.size());
  u.len = 0;
  u.pivot_row = leave_row;
  u.diag = diag;
  for (const int r : touched_) {
    const double v = work_[r];
    if (v == 0.0) continue;  // also skips duplicate touched_ entries
    work_[r] = 0.0;
    if (r == leave_row) continue;
    u_pool_.push_back({r, v});
    ++u.len;
    pushRowRef(rows_with_[r], s_t);
  }
  work_[leave_row] = 0.0;
  nonzeros_ += static_cast<std::size_t>(u.len) + 1;
  if (rowop.end > rowop.begin) {
    nonzeros_ += static_cast<std::size_t>(rowop.end - rowop.begin);
    op_heads_.push_back(rowop);
  }
  for (int p = t; p + 1 < end; ++p) {
    pos_[p] = pos_[p + 1];
    pos_of_[pos_[p]] = p;
  }
  pos_[end - 1] = s_t;
  pos_of_[s_t] = end - 1;
  return true;
}

}  // namespace coyote::lu_reference
