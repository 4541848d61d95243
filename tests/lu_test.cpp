// Differential test of lp::LuFactor against lu_reference::LuFactor, the
// dense-loop factor it replaced: seeded random bases of OPTU-shaped flow
// columns plus denser random columns, one refactorization, then hundreds
// of Forrest-Tomlin updates (some of which the stability check refuses).
// After every step the two factors must agree bit for bit: pivot rows,
// nonzeros(), and ftran/btran of sparse and dense vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "lp/basis.hpp"
#include "lu_reference.hpp"

namespace coyote::lp {
namespace {

using Column = std::vector<ColNz>;

constexpr double kDependTol = 1e-11;  // the simplex's refactorization cutoff

/// Columns of an OPTU-like LP: `dests` flow blocks over a random digraph
/// (one column per (destination, edge): +1 at the tail's conservation row,
/// -1 at the head's, +1 at the edge's capacity row), the alpha column
/// (-capacity on every capacity row), denser random columns, and one
/// logical per row.
struct Instance {
  int m = 0;
  std::vector<Column> cols;
};

Instance makeInstance(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> nodes_d(5, 9);
  const int nodes = nodes_d(rng);
  const int dests = 3;
  std::vector<std::pair<int, int>> edges;
  std::uniform_int_distribution<int> node_d(0, nodes - 1);
  for (int k = 0; k < 3 * nodes; ++k) {
    const int u = node_d(rng), v = node_d(rng);
    if (u != v) edges.emplace_back(u, v);
  }
  const int cap_rows = static_cast<int>(edges.size());
  Instance inst;
  inst.m = cap_rows + dests * nodes;
  const auto conservation = [&](int t, int v) { return cap_rows + t * nodes + v; };
  std::uniform_real_distribution<double> cap_d(0.5, 4.0);
  for (int t = 0; t < dests; ++t) {
    for (int e = 0; e < cap_rows; ++e) {
      Column c = {{e, 1.0},
                  {conservation(t, edges[e].first), 1.0},
                  {conservation(t, edges[e].second), -1.0}};
      std::sort(c.begin(), c.end(),
                [](const ColNz& a, const ColNz& b) { return a.row < b.row; });
      inst.cols.push_back(std::move(c));
    }
  }
  Column alpha;
  for (int e = 0; e < cap_rows; ++e) alpha.push_back({e, -cap_d(rng)});
  inst.cols.push_back(std::move(alpha));
  std::uniform_int_distribution<int> row_d(0, inst.m - 1);
  std::uniform_real_distribution<double> val_d(-2.0, 2.0);
  for (int k = 0; k < inst.m / 4; ++k) {
    std::vector<double> dense(inst.m, 0.0);
    for (int j = 0; j < inst.m / 3; ++j) dense[row_d(rng)] = val_d(rng);
    Column c;
    for (int r = 0; r < inst.m; ++r) {
      if (dense[r] != 0.0) c.push_back({r, dense[r]});
    }
    if (!c.empty()) inst.cols.push_back(std::move(c));
  }
  for (int r = 0; r < inst.m; ++r) inst.cols.push_back({{r, 1.0}});
  return inst;
}

std::string bitsOf(double v) {
  return std::to_string(std::bit_cast<std::uint64_t>(v));
}

/// The two factors driven in lockstep; every check is bitwise.
class Lockstep {
 public:
  explicit Lockstep(const Instance& inst) : inst_(inst) {}

  /// Refactorizes both from `basics` the way the simplex does: sparsest
  /// first (ties by column), dependent columns dropped, unpivoted rows
  /// completed with their logicals. Returns the basic column per row.
  std::vector<int> refactor(std::vector<int> basics) {
    std::sort(basics.begin(), basics.end(), [&](int a, int b) {
      const std::size_t na = inst_.cols[a].size(), nb = inst_.cols[b].size();
      return na != nb ? na < nb : a < b;
    });
    std::vector<int> row_counts(inst_.m, 0);
    for (const int c : basics) {
      for (const ColNz& nz : inst_.cols[c]) ++row_counts[nz.row];
    }
    fast_.reset(inst_.m, row_counts);
    ref_.reset(inst_.m, row_counts);
    std::vector<int> at_row(inst_.m, -1);
    const auto place = [&](int c) {
      const int piv = fast_.addColumn(inst_.cols[c], kDependTol);
      EXPECT_EQ(piv, ref_.addColumn(inst_.cols[c], kDependTol))
          << "pivot row of column " << c;
      if (piv >= 0) at_row[piv] = c;
      check("addColumn");
    };
    for (const int c : basics) place(c);
    const int first_logical = static_cast<int>(inst_.cols.size()) - inst_.m;
    for (int r = 0; r < inst_.m; ++r) {
      if (!fast_.rowPivoted(r)) place(first_logical + r);
    }
    EXPECT_TRUE(fast_.complete());
    EXPECT_EQ(fast_.complete(), ref_.complete());
    fast_.sealRefactor();
    ref_.sealRefactor();
    return at_row;
  }

  bool update(int leave_row, int col) {
    const bool ok = fast_.update(leave_row, inst_.cols[col]);
    EXPECT_EQ(ok, ref_.update(leave_row, inst_.cols[col]))
        << "update of row " << leave_row;
    if (ok) check("update");
    return ok;
  }

  std::vector<double> ftran(std::vector<double> z) const {
    fast_.ftran(z);
    return z;
  }

  /// Bitwise comparison of nonzeros() and of ftran/btran on a sparse and a
  /// dense vector.
  void check(const char* step) {
    ASSERT_EQ(fast_.nonzeros(), ref_.nonzeros()) << step;
    std::uniform_real_distribution<double> val_d(-3.0, 3.0);
    std::uniform_int_distribution<int> row_d(0, inst_.m - 1);
    std::vector<double> sparse(inst_.m, 0.0);
    for (int k = 0; k < 3; ++k) sparse[row_d(rng_)] = val_d(rng_);
    std::vector<double> dense(inst_.m);
    for (double& v : dense) v = val_d(rng_);
    if (!fast_.complete()) return;  // mid-factorization: solves undefined
    for (const std::vector<double>& z : {sparse, dense}) {
      for (const bool transpose : {false, true}) {
        std::vector<double> a = z, b = z;
        if (transpose) {
          fast_.btran(a);
          ref_.btran(b);
        } else {
          fast_.ftran(a);
          ref_.ftran(b);
        }
        for (int r = 0; r < inst_.m; ++r) {
          ASSERT_EQ(bitsOf(a[r]), bitsOf(b[r]))
              << step << (transpose ? " btran" : " ftran") << " row " << r;
        }
      }
    }
  }

 private:
  const Instance& inst_;
  LuFactor fast_;
  lu_reference::LuFactor ref_;
  std::mt19937_64 rng_{99};
};

TEST(LuFactorDifferential, MatchesReferenceBitForBit) {
  int refused = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    const Instance inst = makeInstance(rng);
    const int ncols = static_cast<int>(inst.cols.size());
    Lockstep lu(inst);

    // A random starting basis of m distinct columns.
    std::vector<int> order(ncols);
    for (int c = 0; c < ncols; ++c) order[c] = c;
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(inst.m);
    std::vector<int> at_row = lu.refactor(order);

    std::uniform_int_distribution<int> col_d(0, ncols - 1);
    std::uniform_int_distribution<int> row_d(0, inst.m - 1);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (int attempts = 0; attempts < 300;) {
      const int enter = col_d(rng);
      if (std::find(at_row.begin(), at_row.end(), enter) != at_row.end()) {
        continue;  // already basic
      }
      // Mostly the simplex's choice -- the row with the largest |alpha| --
      // sometimes a random row, which may make the basis singular and the
      // update unsafe.
      int leave = row_d(rng);
      if (coin(rng) < 0.7) {
        std::vector<double> alpha(inst.m, 0.0);
        for (const ColNz& nz : inst.cols[enter]) alpha[nz.row] = nz.val;
        alpha = lu.ftran(std::move(alpha));
        for (int r = 0; r < inst.m; ++r) {
          if (std::abs(alpha[r]) > std::abs(alpha[leave])) leave = r;
        }
      }
      ++attempts;
      if (lu.update(leave, enter)) {
        at_row[leave] = enter;
      } else {
        ++refused;
        at_row = lu.refactor(at_row);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(refused, 0) << "no update hit the stability check";
}

}  // namespace
}  // namespace coyote::lp
