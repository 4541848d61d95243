#include "exp/sweep.hpp"

#include "lp/stats.hpp"
#include "util/require.hpp"

namespace coyote::exp {

NetworkSweep::NetworkSweep(const Graph& g, std::shared_ptr<const DagSet> dags,
                           const tm::TrafficMatrix& base_tm, SweepOptions opt,
                           std::vector<const te::Scheme*> schemes)
    : g_(g),
      dags_(std::move(dags)),
      base_tm_(base_tm),
      opt_(std::move(opt)),
      schemes_(schemes.empty() ? te::SchemeRegistry::builtin().defaults()
                               : std::move(schemes)),
      optu_engine_(std::make_shared<routing::OptuEngine>(g, dags_,
                                                         opt_.coyote.lp)),
      thread_pool_(opt_.threads == 0
                       ? nullptr
                       : std::make_unique<util::ThreadPool>(opt_.threads)) {
  require(!schemes_.empty(), "empty scheme list");
  // Margin-independent schemes are computed once, in list order (each
  // scheme's LP/optimizer work is a self-contained stage, so the sequence
  // -- and thus every lp_pivots count -- is independent of the margin grid
  // and of which other schemes ride along). Schemes that optimize against
  // the oblivious pool share one normalization of it.
  std::vector<tm::TrafficMatrix> oblivious_pool;
  const te::SchemeContext ctx{g_,      dags_,   base_tm_, opt_.coyote,
                              nullptr, nullptr, nullptr,  &oblivious_pool};
  intact_.reserve(schemes_.size());
  for (const te::Scheme* s : schemes_) {
    if (s->marginDependent()) {
      intact_.emplace_back(std::nullopt);
    } else {
      intact_.emplace_back(s->compute(ctx));
    }
  }
}

const routing::RoutingConfig& NetworkSweep::intactRouting(int i) const {
  require(i >= 0 && i < static_cast<int>(intact_.size()),
          "scheme index out of range");
  require(intact_[i].has_value(),
          "margin-dependent scheme has no cached intact routing");
  return *intact_[i];
}

SchemeRow NetworkSweep::run(double margin) const {
  const int n = static_cast<int>(schemes_.size());
  SchemeRow row;
  row.margin = margin;
  row.ratio.assign(n, 0.0);
  row.scheme_lp_solves.assign(n, 0);
  row.scheme_lp_pivots.assign(n, 0);

  const lp::StatsSnapshot lp_before = lp::statsSnapshot();
  const tm::DemandBounds box = tm::marginBounds(base_tm_, margin);
  routing::PerformanceEvaluator pool(g_, dags_, opt_.coyote.lp,
                                     routing::Normalization::kWithinDags,
                                     optu_engine_);
  if (thread_pool_) pool.setThreadPool(*thread_pool_);
  pool.addPool(tm::cornerPool(box, opt_.pool));

  const te::SchemeContext ctx{g_, dags_, base_tm_, opt_.coyote, &box, &pool};

  // Attributes the LP work of one scheme stage to its per-scheme counters.
  const auto attributed = [&row](int i, const auto& stage) {
    const lp::StatsSnapshot before = lp::statsSnapshot();
    stage();
    const lp::StatsSnapshot delta = lp::statsSnapshot() - before;
    row.scheme_lp_solves[i] += delta.solves;
    row.scheme_lp_pivots[i] += delta.iterations;
  };

  // Margin-dependent schemes are (re-)optimized first: their optimizer may
  // grow the shared pool with oracle cutting planes, and every scheme is
  // evaluated against the final pool (the pre-registry order of events).
  std::vector<std::optional<routing::RoutingConfig>> per_margin(n);
  for (int i = 0; i < n; ++i) {
    if (!schemes_[i]->marginDependent()) continue;
    attributed(i, [&] { per_margin[i] = schemes_[i]->compute(ctx); });
  }

  for (int i = 0; i < n; ++i) {
    const routing::RoutingConfig& cfg =
        per_margin[i].has_value() ? *per_margin[i] : *intact_[i];
    attributed(i, [&] {
      row.ratio[i] =
          opt_.exact_eval
              ? routing::findWorstCaseDemand(g_, cfg, &box, opt_.coyote.lp)
                    .ratio
              : pool.ratioFor(cfg);
    });
  }

  const lp::StatsSnapshot lp_delta = lp::statsSnapshot() - lp_before;
  row.lp_solves = lp_delta.solves;
  row.lp_pivots = lp_delta.iterations;
  return row;
}

std::vector<double> marginGrid(double max_margin, bool full) {
  // Margins scale an uncertainty box around the base matrix; < 1 is
  // meaningless (same precondition as FailureEvalOptions::margin).
  require(max_margin >= 1.0, "max_margin must be >= 1");
  // Integer-step generation: `m += 0.5` accumulation can land the last
  // margin at max_margin + epsilon and silently drop it.
  const int steps_per_unit = full ? 2 : 1;
  const int last = static_cast<int>((max_margin - 1.0) * steps_per_unit +
                                    1e-9);
  std::vector<double> out;
  out.reserve(last + 1);
  for (int i = 0; i <= last; ++i) {
    out.push_back(1.0 + static_cast<double>(i) / steps_per_unit);
  }
  return out;
}

}  // namespace coyote::exp
