#include "lp/basis.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

#include "util/require.hpp"

namespace coyote::lp {

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

void LuFactor::reset(int m, std::vector<int> row_counts) {
  m_ = m;
  placed_ = 0;
  op_heads_.clear();
  op_pool_.clear();
  slots_.clear();
  u_pool_.clear();
  pos_.clear();
  pos_of_.clear();
  slot_of_row_.assign(m, -1);
  col_op_of_row_.assign(m, -1);
  queued_.assign(m, 0);
  heap_.clear();
  pos_bits_.assign((static_cast<std::size_t>(m) + 63) / 64, 0);
  row_counts_ = std::move(row_counts);
  if (static_cast<int>(rows_with_.size()) != m) {
    rows_with_.assign(m, {});
  } else {
    for (auto& refs : rows_with_) refs.clear();  // keeps the capacity
  }
  work_.assign(m, 0.0);
  touched_.clear();
  rowval_.assign(m, 0.0);
  nonzeros_ = 0;
}

int LuFactor::addColumn(std::span<const ColNz> col, double depend_tol) {
  // The reach walk follows column ops only: no update() may precede.
  require(op_heads_.empty() || !op_heads_.back().row_op,
          "LuFactor::addColumn: factor already updated; reset() first");
  touched_.clear();
  for (const ColNz& nz : col) {
    work_[nz.row] += nz.val;
    touched_.push_back(nz.row);
  }
  applyColumnOps();

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
    col_op_of_row_[piv] = static_cast<int>(op_heads_.size());
    op_heads_.push_back(op);
  }
  slot_of_row_[piv] = slot;
  pos_of_.push_back(static_cast<int>(pos_.size()));
  pos_.push_back(slot);
  ++placed_;
  return piv;
}

void LuFactor::sealRefactor() { fresh_nonzeros_ = nonzeros_; }

void LuFactor::applyOps(std::vector<double>& z,
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

void LuFactor::applyColumnOps() {
  // Seed with the column ops of the rows the column itself sets, then pop
  // in op order. An op is queued only once its pivot row has been written,
  // and every op it writes through targets rows pivoted later, so pops come
  // out ascending and each op sees the value the full walk would give it.
  const auto later = std::greater<int>();
  const auto queue = [&](int r) {
    const int op = col_op_of_row_[r];
    if (op < 0 || queued_[r]) return;
    queued_[r] = 1;
    heap_.push_back(op);
    std::push_heap(heap_.begin(), heap_.end(), later);
  };
  for (const int r : touched_) queue(r);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const OpHead& op = op_heads_[heap_.back()];
    heap_.pop_back();
    queued_[op.pivot] = 0;
    const double v = work_[op.pivot];
    if (v == 0.0) continue;
    for (int k = op.begin; k < op.end; ++k) {
      const int r = op_pool_[k].row;
      work_[r] -= op_pool_[k].val * v;
      touched_.push_back(r);
      queue(r);
    }
  }
}

void LuFactor::ftran(std::vector<double>& z) const {
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

void LuFactor::btran(std::vector<double>& z) const {
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

bool LuFactor::update(int leave_row, std::span<const ColNz> col) {
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
  // eliminated). rowval_ is zero outside the slots flagged in pos_bits_,
  // by position.
  int pending = 0;
  const auto flag = [&](int k) {
    const int p = pos_of_[k];
    const std::uint64_t bit = std::uint64_t{1} << (p & 63);
    if ((pos_bits_[p >> 6] & bit) != 0) return;
    pos_bits_[p >> 6] |= bit;
    ++pending;
  };
  for (const int k : rows_with_[leave_row]) {
    if (k == s_t) continue;
    UCol& u = slots_[k];
    for (int e = u.begin; e < u.begin + u.len; ++e) {
      if (u_pool_[e].row == leave_row) {
        rowval_[k] = u_pool_[e].val;
        flag(k);
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
  // why one position-ordered sweep suffices (classic Forrest-Tomlin). The
  // sweep visits only the flagged positions, lowest first: fill lands at
  // later positions only, and the positions a full scan would also visit
  // hold exact zeros, which it skips.
  OpHead rowop;
  rowop.pivot = leave_row;
  rowop.row_op = true;
  rowop.begin = static_cast<int>(op_pool_.size());
  for (int word = (pos_of_[s_t] + 1) >> 6; pending > 0; ++word) {
    std::uint64_t& bits = pos_bits_[word];
    while (bits != 0) {
      const int k = pos_[word * 64 + std::countr_zero(bits)];
      bits &= bits - 1;
      --pending;
      const double v = rowval_[k];
      rowval_[k] = 0.0;
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
            flag(k2);
            break;
          }
        }
      }
      work_[leave_row] -= mult * work_[u.pivot_row];
    }
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
  const int end = static_cast<int>(pos_.size());
  for (int p = pos_of_[s_t]; p + 1 < end; ++p) {
    pos_[p] = pos_[p + 1];
    pos_of_[pos_[p]] = p;
  }
  pos_[end - 1] = s_t;
  pos_of_[s_t] = end - 1;
  return true;
}

}  // namespace coyote::lp
