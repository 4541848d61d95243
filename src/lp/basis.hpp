// Sparse LU factorization of the simplex basis with Forrest-Tomlin updates.
//
// B is factorized as L * U by left-looking sparse Gauss elimination: columns
// arrive one at a time (sparsest first -- the caller orders them), each is
// ftran'd through the eliminations recorded so far, and a pivot row is chosen
// by a Markowitz-style compromise -- among the numerically safe entries
// (|v| >= 0.05 * max|v|), the row with the fewest nonzeros across the basic
// columns wins, so elimination fill stays near the sparsity pattern's
// minimum. The eliminations form L^{-1} (a sequence of column ops); U is kept
// column-wise with an explicit pivot order (row/column permutations are
// implicit in that order).
//
// A simplex pivot replaces one basic column. Instead of appending a
// product-form eta -- whose file grows by one dense-ish ftran'd column per
// pivot, forever -- the Forrest-Tomlin update replaces the column of U
// *inside the factorization*: the spike L^{-1} a_enter takes the leaving
// column's slot, the leaving pivot's U row is eliminated with one recorded
// row op, and the pivot order is cyclically shifted so U stays triangular.
// Storage grows by the (sparse) row op and the spike only, so long
// warm-start chains -- failure sweeps, serve replays, cutting-plane rounds --
// no longer pay eta-chain growth between refactorizations.
//
// Maintenance does work proportional to the nonzeros it touches, with the
// arithmetic and order of the plain dense loops. addColumn applies only
// the column ops reachable from the column's nonzeros -- a min-heap of op
// indices seeded by the rows the column sets, grown by the rows applied
// ops write -- in op order; an op never reached is one a full walk skips
// (its pivot value is an exact zero), and the rows it writes join
// touched_ in the full walk's order. update() eliminates the gathered U
// row over a bitset of flagged positions, lowest first, instead of
// re-zeroing a per-slot scratch and scanning every later position. Op
// order, touched_ order and so the stored L terms and U entries are those
// of the dense loops, which keeps every ftran/btran result and the fill
// count bit-identical (tests/lu_test.cpp checks this against
// tests/lu_reference.hpp). A refactorization costs O(nnz + reached ops x
// log), not O(m x ops).
//
// ftran solves B z = a (apply L^{-1} ops forward, back-substitute U in
// reverse pivot order); btran solves B^T y = c (forward-substitute U^T in
// pivot order, apply transposed ops backward). The result/input convention
// matches the simplex solver's basis_ array: slot k's value lives at index
// pivotRow(k) of the dense vector.
//
// Layout note: both the op terms and the U entries live in two flat pools
// (op_pool_ / u_pool_) instead of per-op and per-column heap vectors.
// ftran/btran walk the factor once per simplex iteration, so the pool
// layout -- sequential loads, no pointer chasing -- is what keeps the
// per-iteration linear algebra cache-resident. An update that replaces a
// U column appends the new entries at the pool tail and leaks the old
// range until the next refactorization rebuilds the pool (bounded by the
// refactorization cadence).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace coyote::lp {

/// One nonzero of a sparse column.
struct ColNz {
  int row = 0;
  double val = 0.0;
};

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
  /// Only between reset() and the first update().
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
  /// Applies the column ops to work_ in op order, but only those reachable
  /// from the rows already in touched_, appending every row they write to
  /// touched_ -- the ops, the arithmetic and the touched_ order of a full
  /// walk, since an op whose pivot row was never written would be skipped.
  void applyColumnOps();

  int m_ = 0;
  int placed_ = 0;
  std::vector<OpHead> op_heads_;
  std::vector<ColNz> op_pool_;
  std::vector<UCol> slots_;        ///< stable storage, one per placed column
  std::vector<ColNz> u_pool_;      ///< U entries of every slot
  std::vector<int> pos_;           ///< elimination order: position -> slot
  std::vector<int> pos_of_;        ///< slot -> position
  std::vector<int> slot_of_row_;   ///< pivot row -> slot (-1 = unpivoted)
  std::vector<int> col_op_of_row_; ///< pivot row -> its column op (-1: none)
  std::vector<int> row_counts_;    ///< Markowitz bias (static approximation)
  /// Superset index: slots whose U column *may* hold an entry at this row
  /// (stale slots are skipped on use, rebuilt by reset()).
  std::vector<std::vector<int>> rows_with_;
  std::vector<double> work_;       ///< dense scratch, kept zeroed
  std::vector<int> touched_;       ///< scratch: rows work_ may be nonzero at
  std::vector<double> rowval_;     ///< per-slot scratch for update(), zeroed
  /// applyColumnOps' pending column ops, a min-heap of op indices, and
  /// queued_ flagging them by pivot row; both empty between calls.
  std::vector<int> heap_;
  std::vector<char> queued_;
  /// update()'s pending slots, one bit per position; zero between calls.
  std::vector<std::uint64_t> pos_bits_;
  std::size_t nonzeros_ = 0;
  std::size_t fresh_nonzeros_ = 0;
};

}  // namespace coyote::lp
