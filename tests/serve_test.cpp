// serve::TeService + serve trace generation: protocol round-trips,
// malformed-input survival, thread-count bit-identity of replays, and the
// warm-vs-cold LP pivot advantage the resident engine exists for.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "failure/scenario.hpp"
#include "lp/stats.hpp"
#include "serve/trace.hpp"
#include "tm/traffic_matrix.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/json.hpp"

namespace coyote::serve {
namespace {

namespace json = util::json;

/// Small options so every event is fast: tiny pool, few optimizer rounds.
ServeOptions quickOptions() {
  ServeOptions opt;
  opt.pool.max_hotspots = 4;
  opt.pool.random_corners = 2;
  opt.pool.pair_hotspots = 2;
  opt.coyote.splitting.iterations = 60;
  return opt;
}

TeService quickService(const Graph& g, unsigned threads = 0) {
  ServeOptions opt = quickOptions();
  opt.threads = threads;
  return TeService(g, tm::gravityMatrix(g, 1.0), std::move(opt));
}

json::Value parsed(const std::string& line) { return json::parse(line); }

/// The first link of g whose loss leaves every scheme of `service` able
/// to route, as a ["A","B"] member. Probed with what-if queries, which
/// change no service state.
std::string survivableLink(TeService& service, const Graph& g) {
  for (const EdgeId link : failure::physicalLinks(g)) {
    const std::string pair = R"([")" + g.nodeName(g.edge(link).src) +
                             R"(",")" + g.nodeName(g.edge(link).dst) + R"("])";
    const json::Value resp = json::parse(
        service.handleLine(R"({"op":"what-if","links":[)" + pair + "]}"));
    if (resp.find("evaluated")->asBool() &&
        resp.find("unroutable")->asArray().empty()) {
      return pair;
    }
  }
  throw std::logic_error("no link every scheme survives");
}

std::string linkEvent(const std::string& link, bool up) {
  return R"({"op":"link","link":)" + link + R"(,"up":)" +
         (up ? "true" : "false") + "}";
}

/// Both responses evaluated, with the same ratio keys, each ratio within
/// 1e-9 (relative) of the other's.
void expectSameRatios(const std::string& got, const std::string& want,
                      const std::string& step) {
  json::Value a = json::parse(got);
  json::Value b = json::parse(want);
  ASSERT_TRUE(a["evaluated"].asBool()) << step << ": " << got;
  ASSERT_TRUE(b["evaluated"].asBool()) << step << ": " << want;
  ASSERT_EQ(a["ratios"].asObject().size(), b["ratios"].asObject().size())
      << step;
  for (const auto& [key, value] : b["ratios"].asObject()) {
    const json::Value* other = a["ratios"].find(key);
    ASSERT_NE(other, nullptr) << step << ": " << key;
    EXPECT_NEAR(other->asNumber(), value.asNumber(),
                1e-9 * value.asNumber())
        << step << ": " << key;
  }
}

TEST(TeService, ProtocolRoundTrip) {
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());

  // state: read-only snapshot, seq 1.
  json::Value resp = service.handle(parsed(R"({"op":"state","id":"s0"})"));
  EXPECT_EQ(resp["seq"].asNumber(), 1.0);
  EXPECT_EQ(resp["id"].asString(), "s0");
  EXPECT_EQ(resp["op"].asString(), "state");
  EXPECT_TRUE(resp["ok"].asBool());
  EXPECT_EQ(static_cast<int>(resp["nodes"].asNumber()), g.numNodes());
  EXPECT_GT(resp["pool_size"].asNumber(), 0.0);
  EXPECT_EQ(resp["failed"].asArray().size(), 0u);
  const std::size_t num_schemes = resp["schemes"].asArray().size();
  EXPECT_GE(num_schemes, 4u);

  // what-if: evaluation payload with per-scheme ratios >= 1 (ratios are
  // normalized by the unrestricted optimum on the surviving network).
  const std::string& a = g.nodeName(g.edges()[0].src);
  const std::string& b = g.nodeName(g.edges()[0].dst);
  json::Value what_if = json::Value::object();
  what_if["op"] = "what-if";
  json::Value links = json::Value::array();
  json::Value link = json::Value::array();
  link.push_back(a);
  link.push_back(b);
  links.push_back(std::move(link));
  what_if["links"] = std::move(links);
  resp = service.handle(what_if);
  EXPECT_EQ(resp["seq"].asNumber(), 2.0);
  ASSERT_TRUE(resp["ok"].asBool());
  ASSERT_TRUE(resp["evaluated"].asBool());
  ASSERT_EQ(resp["failed"].asArray().size(), 1u);
  const json::Value& ratios = resp["ratios"];
  EXPECT_EQ(ratios.asObject().size() + resp["unroutable"].asArray().size(),
            num_schemes);
  for (const auto& [key, value] : ratios.asObject()) {
    EXPECT_GE(value.asNumber(), 1.0 - 1e-9) << key;
  }

  // A what-if is read-only: the service still reports no failed links.
  resp = service.handle(parsed(R"({"op":"state"})"));
  EXPECT_EQ(resp["failed"].asArray().size(), 0u);

  // link down: state change, evaluated against the survivors.
  json::Value down = json::Value::object();
  down["op"] = "link";
  json::Value l2 = json::Value::array();
  l2.push_back(a);
  l2.push_back(b);
  down["link"] = std::move(l2);
  down["up"] = false;
  resp = service.handle(down);
  ASSERT_TRUE(resp["ok"].asBool());
  EXPECT_EQ(resp["link"].asString(), a + "-" + b);
  EXPECT_EQ(service.failedLinks().size(), 1u);

  // margin move: box and pool change, configurations stay.
  resp = service.handle(parsed(R"({"op":"margin","value":1.5})"));
  ASSERT_TRUE(resp["ok"].asBool());
  EXPECT_EQ(service.intact().options().margin, 1.5);

  // demand update: absolute entries, re-evaluated warm.
  json::Value dem = json::Value::object();
  dem["op"] = "demand";
  json::Value set = json::Value::array();
  json::Value entry = json::Value::array();
  entry.push_back(a);
  entry.push_back(b);
  entry.push_back(0.25);
  set.push_back(std::move(entry));
  dem["set"] = std::move(set);
  resp = service.handle(dem);
  ASSERT_TRUE(resp["ok"].asBool());

  // reoptimize + link restore close the loop.
  resp = service.handle(parsed(R"({"op":"reoptimize"})"));
  ASSERT_TRUE(resp["ok"].asBool());
  json::Value up = down;
  up["up"] = true;
  resp = service.handle(up);
  ASSERT_TRUE(resp["ok"].asBool());
  EXPECT_EQ(service.failedLinks().size(), 0u);
  EXPECT_EQ(service.eventsHandled(), 8);
}

TEST(TeService, MalformedRequestsAreErrorResponsesNotDeath) {
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());

  const std::vector<std::string> bad = {
      "this is not json",
      R"([1,2,3])",
      R"({"no_op":1})",
      R"({"op":"frobnicate"})",
      R"({"op":"link","link":["NoSuchNode","AlsoNot"],"up":false})",
      R"({"op":"link","link":"v1-v2","up":false})",
      R"({"op":"margin","value":0.5})",
      R"({"op":"margin"})",
      R"({"op":"demand"})",
      R"({"op":"demand","scale":-2})",
      R"({"op":"demand","set":[["v1","v1",1.0]]})",
      R"({"op":"what-if","links":"v1-v2"})",
  };
  for (const std::string& line : bad) {
    json::Value resp = parsed(service.handleLine(line));
    EXPECT_FALSE(resp["ok"].asBool()) << line;
    EXPECT_FALSE(resp["error"].asString().empty()) << line;
  }
  // Every bad request consumed a seq; the daemon is alive and clean.
  json::Value resp = parsed(service.handleLine(R"({"op":"state"})"));
  EXPECT_TRUE(resp["ok"].asBool());
  EXPECT_EQ(resp["seq"].asNumber(), static_cast<double>(bad.size() + 1));
  EXPECT_EQ(resp["failed"].asArray().size(), 0u);

  // Restoring a link that never failed is an error, not a state change.
  const std::string& a = g.nodeName(g.edges()[0].src);
  const std::string& b = g.nodeName(g.edges()[0].dst);
  json::Value up = json::Value::object();
  up["op"] = "link";
  json::Value link = json::Value::array();
  link.push_back(a);
  link.push_back(b);
  up["link"] = std::move(link);
  up["up"] = true;
  EXPECT_FALSE(service.handle(up)["ok"].asBool());
}

TEST(TeService, DeeplyNestedLineIsAnErrorResponse) {
  // One request line of a million '[' used to overflow the parser's
  // stack and kill the daemon.
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  json::Value resp = parsed(service.handleLine(std::string(1000000, '[')));
  EXPECT_FALSE(resp["ok"].asBool());
  EXPECT_FALSE(resp["error"].asString().empty());
  EXPECT_TRUE(parsed(service.handleLine(R"({"op":"state"})"))["ok"].asBool());
}

TEST(TeService, PartialDemandValidationNeverMutates) {
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  const std::string& a = g.nodeName(0);
  const std::string& b = g.nodeName(1);

  // First entry valid, second invalid: the whole update must be rejected
  // and the first entry must NOT have been applied.
  json::Value dem = json::Value::object();
  dem["op"] = "demand";
  json::Value set = json::Value::array();
  json::Value good = json::Value::array();
  good.push_back(a);
  good.push_back(b);
  good.push_back(123.0);
  set.push_back(std::move(good));
  json::Value bad = json::Value::array();
  bad.push_back(a);
  bad.push_back("NoSuchNode");
  bad.push_back(1.0);
  set.push_back(std::move(bad));
  dem["set"] = std::move(set);
  EXPECT_FALSE(service.handle(dem)["ok"].asBool());

  // A valid follow-up shows the matrix is unchanged (same ratios as a
  // fresh service evaluating the same what-if).
  TeService fresh(g, tm::gravityMatrix(g, 1.0), quickOptions());
  json::Value q = json::Value::object();
  q["op"] = "what-if";
  q["links"] = json::Value::array();
  json::Value r1 = service.handle(q);
  json::Value r2 = fresh.handle(q);
  ASSERT_TRUE(r1["ok"].asBool());
  ASSERT_TRUE(r2["ok"].asBool());
  EXPECT_EQ(r1["ratios"].dump(0), r2["ratios"].dump(0));
}

TEST(TeService, OverflowingDemandAndMarginEventsAreRefused) {
  // A demand scale or a margin that would overflow the demand to infinity
  // is an error response that leaves base, box and pool as they were. It
  // used to be accepted, and every later evaluation answered inf/inf as
  // ratio 0 -- with no way back, since inf * 1e-300 stays inf.
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  ASSERT_TRUE(
      parsed(service.handleLine(R"({"op":"demand","scale":1e300})"))["ok"]
          .asBool());
  const std::string what_if = R"({"op":"what-if","links":[]})";
  json::Value before = parsed(service.handleLine(what_if));
  ASSERT_TRUE(before["evaluated"].asBool());
  for (const auto& [key, value] : before["ratios"].asObject()) {
    EXPECT_GE(value.asNumber(), 1.0 - 1e-9) << key;
  }
  for (const std::string event : {R"({"op":"demand","scale":1e300})",
                                  R"({"op":"margin","value":1e300})"}) {
    json::Value resp = parsed(service.handleLine(event));
    EXPECT_FALSE(resp["ok"].asBool()) << event;
    json::Value after = parsed(service.handleLine(what_if));
    EXPECT_EQ(after["ratios"].dump(0), before["ratios"].dump(0)) << event;
  }
}

TEST(TeService, LinkEventWithNonBoolUpIsRefused) {
  // "up" must be a JSON bool. A string or a number used to be read as
  // false: the link failed and the reply said ok.
  const Graph g = topo::makeZoo("Abilene");
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  const std::string what_if = R"({"op":"what-if","links":[]})";
  const std::string state = R"({"op":"state"})";
  json::Value before = parsed(service.handleLine(what_if));
  const json::Value failed_before = parsed(service.handleLine(state))["failed"];
  for (const std::string up : {R"("true")", "1"}) {
    const std::string event =
        R"({"op":"link","link":["KansasCity","Indianapolis"],"up":)" + up +
        "}";
    EXPECT_FALSE(parsed(service.handleLine(event))["ok"].asBool()) << event;
    EXPECT_EQ(parsed(service.handleLine(state))["failed"].dump(0),
              failed_before.dump(0))
        << event;
    EXPECT_EQ(parsed(service.handleLine(what_if))["ratios"].dump(0),
              before["ratios"].dump(0))
        << event;
  }
}

TEST(TeService, DemandThatUnderflowsToZeroIsRefused) {
  // Two 1e-300 scales underflow every demand to 0. That event used to be
  // accepted: every ratio read 0 and the next reoptimize failed on an
  // empty pool. It is an error response that leaves the state alone.
  const Graph g = topo::makeZoo("Abilene");
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  const std::string tiny = R"({"op":"demand","scale":1e-300})";
  const std::string what_if = R"({"op":"what-if","links":[]})";
  ASSERT_TRUE(parsed(service.handleLine(tiny))["ok"].asBool());
  json::Value before = parsed(service.handleLine(what_if));
  const double pool_before =
      parsed(service.handleLine(R"({"op":"state"})"))["pool_size"].asNumber();
  EXPECT_FALSE(parsed(service.handleLine(tiny))["ok"].asBool());
  EXPECT_EQ(parsed(service.handleLine(what_if))["ratios"].dump(0),
            before["ratios"].dump(0));
  EXPECT_EQ(
      parsed(service.handleLine(R"({"op":"state"})"))["pool_size"].asNumber(),
      pool_before);
  EXPECT_TRUE(
      parsed(service.handleLine(R"({"op":"reoptimize"})"))["ok"].asBool());
}

TEST(TeService, RatiosDoNotDependOnTheDemandUnit) {
  // OPTU is solved on a rescaled copy of a tiny matrix, so the ratios of
  // a demand given in other units match. At 1e-6 they used to be "inf".
  // Two services: one that evaluated the unscaled demand first would
  // warm-start the scaled solves from bases that hide the error.
  const Graph g = topo::makeZoo("Abilene");
  const std::string what_if = R"({"op":"what-if","links":[]})";
  TeService unscaled(g, tm::gravityMatrix(g, 1.0), quickOptions());
  TeService scaled(g, tm::gravityMatrix(g, 1.0), quickOptions());
  ASSERT_TRUE(
      parsed(scaled.handleLine(R"({"op":"demand","scale":1e-6})"))["ok"]
          .asBool());
  expectSameRatios(scaled.handleLine(what_if), unscaled.handleLine(what_if),
                   "demand x 1e-6");
}

TEST(ServeTrace, GenerationIsSeededAndDeterministic) {
  const Graph g = topo::runningExample();
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  TraceOptions opt;
  opt.events = 120;
  opt.seed = 7;
  const std::vector<std::string> t1 = generateTrace(g, base, opt);
  const std::vector<std::string> t2 = generateTrace(g, base, opt);
  ASSERT_EQ(t1.size(), 120u);
  EXPECT_EQ(t1, t2);
  opt.seed = 8;
  EXPECT_NE(generateTrace(g, base, opt), t1);

  // Every line is valid protocol input, and the mix covers every op.
  int what_if = 0, demand = 0, link = 0, margin = 0, reopt = 0;
  for (const std::string& line : t1) {
    const json::Value req = json::parse(line);
    const std::string op = req.stringOr("op", "");
    what_if += op == "what-if";
    demand += op == "demand";
    link += op == "link";
    margin += op == "margin";
    reopt += op == "reoptimize";
  }
  EXPECT_EQ(what_if + demand + link + margin + reopt, 120);
  EXPECT_GT(what_if, 0);
  EXPECT_GT(demand, 0);
  EXPECT_GT(link, 0);
  EXPECT_GT(margin, 0);
  EXPECT_GT(reopt, 0);
}

TEST(TeService, ReplayIsBitIdenticalAcrossThreadCounts) {
  const Graph g = topo::runningExample();
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  TraceOptions topt;
  topt.events = 60;
  topt.seed = 3;
  const std::vector<std::string> trace = generateTrace(g, base, topt);

  std::vector<std::string> reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    TeService service = quickService(g, threads);
    const std::vector<std::string> out = service.handleScript(trace);
    ASSERT_EQ(out.size(), trace.size()) << threads << " threads";
    // Every trace event produced a well-formed response; the generator's
    // state events never error (it mirrors the service's failed set).
    for (std::size_t i = 0; i < out.size(); ++i) {
      json::Value resp = json::parse(out[i]);
      EXPECT_TRUE(resp["ok"].asBool()) << out[i];
      EXPECT_EQ(resp["seq"].asNumber(), static_cast<double>(i + 1));
    }
    if (reference.empty()) {
      reference = out;
    } else {
      EXPECT_EQ(out, reference) << threads << " threads";
    }
  }
}

TEST(TeService, WarmResidentEngineBeatsColdOnLinkFlaps) {
  const Graph g = topo::grid(3, 3);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const std::vector<std::string> trace = linkFlapTrace(g, 8);
  ASSERT_EQ(trace.size(), 16u);

  const auto replay = [&]() {
    TeService service(g, base, quickOptions());
    const lp::StatsSnapshot before = lp::statsSnapshot();
    const std::vector<std::string> out = service.handleScript(trace);
    for (const std::string& line : out) {
      EXPECT_TRUE(json::parse(line)["ok"].asBool()) << line;
    }
    return lp::statsSnapshot() - before;
  };

  const lp::StatsSnapshot warm = replay();

  // Far fewer pivots than an all-cold replay: each flap re-enters the
  // resident engine as a bounds mutation on a warm basis (dual-simplex
  // repaired). The ceiling is the all-cold replay's pivot count over 1.5,
  // measured with gcc 12 in Release before the cold switch was removed:
  // 5,156 warm vs 19,516 cold pivots, so 19,516 / 1.5 = 13,010. Pivots
  // include the OPTU decomposition pre-solve's block LPs.
  EXPECT_LT(warm.iterations, 13010) << "warm pivots " << warm.iterations;
  // The ruler's per-slot memo (OptuEngine::utilizationAt): each pool
  // matrix re-solves from the basis it ended with when last solved
  // instead of the previous matrix's. Chaining through the previous matrix
  // took 5,156 pivots, the memo 3,410, and bound and prune on top of the
  // memo (failure::evaluateFailure) 1,392; 2,400 sits between the last two.
  EXPECT_LT(warm.iterations, 2400) << "warm pivots " << warm.iterations;
}

TEST(TeService, LinkFlapsReturnTheFirstEvaluationsRatios) {
  // The floor rule (failure/evaluate.hpp) on a flapping Geant link: a
  // link-down takes the previous resident evaluation's bounds as its floor,
  // a link-up takes none. Pruned either way, every state must report the
  // ratios of its first evaluation, which had no floor at all.
  const Graph g = topo::makeZoo("Geant");
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  const std::string link = survivableLink(service, g);
  const std::string down = linkEvent(link, /*up=*/false);
  const std::string up = linkEvent(link, /*up=*/true);

  const std::string intact =
      service.handleLine(R"({"op":"what-if","links":[]})");
  const std::string first_down = service.handleLine(down);
  expectSameRatios(service.handleLine(up), intact, "first link-up");
  expectSameRatios(service.handleLine(down), first_down, "second link-down");
  expectSameRatios(service.handleLine(up), intact, "second link-up");
}

TEST(TeService, DemandEventAfterLinkDownMatchesAFreshService) {
  // A demand event rebuilds the pool, so it must drop the floor the
  // link-down recorded on the old pool (halving the demand halves every
  // OPTU, so that floor would overstate the new pool's optima twofold).
  // A fresh service that sees the same events the other way round reaches
  // the same state and must report the same ratios.
  const Graph g = topo::makeZoo("Geant");
  const std::string halve = R"({"op":"demand","scale":0.5})";

  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  const std::string down =
      linkEvent(survivableLink(service, g), /*up=*/false);
  ASSERT_TRUE(json::parse(service.handleLine(down))["ok"].asBool());
  const std::string got = service.handleLine(halve);

  TeService fresh(g, tm::gravityMatrix(g, 1.0), quickOptions());
  ASSERT_TRUE(json::parse(fresh.handleLine(halve))["ok"].asBool());
  expectSameRatios(got, fresh.handleLine(down), "demand after link-down");
}

TEST(TeService, WhatIfChunkIsFixed) {
  // The chunk size is part of the determinism contract (responses must
  // not depend on the thread count); a change is a deliberate,
  // baseline-invalidating decision.
  EXPECT_EQ(TeService::kWhatIfChunk, 4);
}

}  // namespace
}  // namespace coyote::serve
