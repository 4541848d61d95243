// Dual certificates for the worst-case performance ratio (Theorem 5 /
// Appendix C of the technical report), and their solver-free checkers.
//
// Theorem 5: a routing phi has oblivious ratio <= r if there exist
// nonnegative weights pi_e(h) (one per ordered pair of edges) with
//
//   R1:  sum_h pi_e(h) * c(h) <= r                        for every edge e
//   R2:  f_st(u) * phi_t(u,v) <= c(e) * sum_k pi_e(a_k)   for every edge
//        e = (u,v), demand (s,t) and s->t path (a_1..a_l) in the DAG of t.
//
// R2's exponentially many path constraints collapse to one per demand pair
// through the pi_e-shortest distances inside each DAG. A set of weights
// satisfying R1/R2 is a feasible solution of the dual of edge e's
// worst-case "slave LP" (worst_case.hpp), so by weak duality it proves
// PERF(phi, all demands) <= r.
//
// The certificates are produced by certifyObliviousRatio / certifyBoxRatio
// in worst_case.hpp, from the duals of the pruned worst-case scan. The
// checkers below are the other half of the proof: they recompute every
// load coefficient and distance from the routing and verify each dual
// constraint mechanically, without the LP solver.
#pragma once

#include <vector>

#include "routing/config.hpp"
#include "tm/uncertainty.hpp"

namespace coyote::routing {

/// Certificate for one edge: weights pi over all edges plus the certified
/// utilization bound for that edge.
struct EdgeCertificate {
  EdgeId edge = kInvalidEdge;
  double ratio = 0.0;              ///< certified bound on this edge's load
  std::vector<double> pi;          ///< pi_e(h), indexed by EdgeId h
};

/// Full certificate: entry e certifies edge e; `ratio` bounds them all.
struct ObliviousCertificate {
  double ratio = 0.0;
  std::vector<EdgeCertificate> edges;
};

/// Independently validates a certificate against R1/R2 (recomputing the
/// shortest pi_e-distances and every load coefficient from scratch).
/// Returns true if the certificate proves PERF(cfg) <= cert.ratio + tol.
/// Entry e must name edge e and hold one weight per edge; empty weights
/// are accepted only for an edge no routable pair loads. Malformed input
/// (wrong sizes, NaN) is rejected, never indexed.
[[nodiscard]] bool checkCertificate(const Graph& g, const RoutingConfig& cfg,
                                    const ObliviousCertificate& cert,
                                    double tol = 1e-6);

// ---------------------------------------------------------------------------
// Bounded demand sets (the paper's closing paragraph of Appendix C): when
// demands are confined to the scaled box lambda*dmin <= d <= lambda*dmax,
// the dualization gains slack weights s+/s- per demand pair:
//
//     l_st(e)/c(e) <= p_t(s) + s+_st - s-_st          (replaces (15))
//     sum_st (dmax_st * s+_st - dmin_st * s-_st) <= 0 (the lambda column)
//
// with the node potentials p_t now free (they may go negative). The
// certificate below stores the full dual solution per edge, and the checker
// verifies every dual-feasibility condition mechanically, so a valid
// certificate is machine-checkable proof (by weak LP duality) that the
// within-box performance ratio of `cfg` is at most `ratio`.
// ---------------------------------------------------------------------------

/// Dual solution certifying a within-box bound for one edge.
struct BoxEdgeCertificate {
  EdgeId edge = kInvalidEdge;
  double ratio = 0.0;
  std::vector<double> pi;  ///< pi_e(h) >= 0, indexed by EdgeId
  /// Node potentials per destination: p[t][v] (free sign), one vector of
  /// |V| entries per destination, or empty for a destination with no pair
  /// that loads the edge or may send.
  std::vector<std::vector<double>> p;
  /// Box slack weights per (s,t) pair, flattened s*n+t; >= 0.
  std::vector<double> s_plus, s_minus;
};

struct BoxCertificate {
  double ratio = 0.0;
  std::vector<BoxEdgeCertificate> edges;
};

/// Mechanically verifies every dual-feasibility condition of `cert`, with
/// the same entry, size and NaN rules as checkCertificate.
[[nodiscard]] bool checkBoxCertificate(const Graph& g,
                                       const RoutingConfig& cfg,
                                       const tm::DemandBounds& box,
                                       const BoxCertificate& cert,
                                       double tol = 1e-6);

}  // namespace coyote::routing
