#include "serve/service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/dag_builder.hpp"
#include "failure/scenario.hpp"

namespace coyote::serve {

namespace json = util::json;

namespace {

json::Value envelope(long long seq, const json::Value& request) {
  json::Value resp = json::Value::object();
  resp["seq"] = static_cast<long>(seq);
  if (request.isObject()) {
    if (const json::Value* id = request.find("id")) resp["id"] = *id;
    if (const json::Value* op = request.find("op")) {
      if (op->isString()) resp["op"] = op->asString();
    }
  }
  return resp;
}

json::Value errorResponse(long long seq, const json::Value& request,
                          const std::string& what) {
  json::Value resp = envelope(seq, request);
  resp["ok"] = false;
  resp["error"] = what;
  return resp;
}

/// The request's member, or a thrown client-facing error.
const json::Value& member(const json::Value& request, const char* key) {
  const json::Value* v = request.find(key);
  if (v == nullptr) {
    throw std::invalid_argument(std::string("missing '") + key + "' member");
  }
  return *v;
}

}  // namespace

TeService::TeService(Graph g, tm::TrafficMatrix base_tm, ServeOptions opt)
    : g_(std::move(g)),
      intact_(g_, core::augmentedDagsShared(g_), std::move(base_tm),
              std::move(opt)) {
  intact_.compute(/*warm=*/false);
  engine_ = std::make_unique<routing::OptuEngine>(g_,
                                                  intact_.options().coyote.lp);
}

TeService::~TeService() = default;

std::vector<std::string> TeService::failedLinks() const {
  std::vector<std::string> out;
  out.reserve(failed_.size());
  for (const EdgeId link : failed_) {
    out.push_back(failure::linkLabel(g_, link));
  }
  return out;
}

failure::FailureOutcome TeService::evaluateLinks(
    const std::vector<EdgeId>& links, routing::OptuEngine& engine) const {
  failure::FailureScenario f;
  f.links = links;
  // The floor rule (failure/evaluate.hpp): the last resident evaluation's
  // bounds hold for any failed set containing its own on the same pool.
  static const std::vector<double> kNoFloor;
  const bool floor_holds = std::includes(links.begin(), links.end(),
                                         floor_failed_.begin(),
                                         floor_failed_.end());
  return failure::evaluateFailure(intact_, f, floor_holds ? floor_ : kNoFloor,
                                  engine);
}

failure::FailureOutcome TeService::evaluateResident() {
  failure::FailureOutcome ev = evaluateLinks(failed_, *engine_);
  if (ev.evaluated) {
    floor_ = ev.bound;
    floor_failed_ = failed_;
  }
  return ev;
}

void TeService::addEvalPayload(json::Value& response,
                               const failure::FailureOutcome& ev,
                               const std::vector<EdgeId>& links) const {
  response["disconnected_pairs"] = ev.disconnected_pairs;
  response["evaluated"] = ev.evaluated;
  json::Value failed = json::Value::array();
  for (const EdgeId link : links) {
    failed.push_back(failure::linkLabel(g_, link));
  }
  response["failed"] = std::move(failed);
  if (!ev.evaluated) return;
  json::Value ratios = json::Value::object();
  json::Value unroutable = json::Value::array();
  const std::vector<const te::Scheme*>& schemes = intact_.options().schemes;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    if (ev.routable[i]) {
      ratios[schemes[i]->key()] = ev.ratio[i];
    } else {
      unroutable.push_back(schemes[i]->key());
    }
  }
  response["ratios"] = std::move(ratios);
  response["unroutable"] = std::move(unroutable);
}

EdgeId TeService::parseLink(const json::Value& link) const {
  if (!link.isArray() || link.asArray().size() != 2 ||
      !link.asArray()[0].isString() || !link.asArray()[1].isString()) {
    throw std::invalid_argument(
        "a link is a two-element array of node names: [\"A\",\"B\"]");
  }
  const std::string& a = link.asArray()[0].asString();
  const std::string& b = link.asArray()[1].asString();
  const std::optional<NodeId> s = g_.findNode(a);
  const std::optional<NodeId> t = g_.findNode(b);
  if (!s.has_value()) throw std::invalid_argument("unknown node: " + a);
  if (!t.has_value()) throw std::invalid_argument("unknown node: " + b);
  const std::optional<EdgeId> e = g_.findEdge(*s, *t);
  if (!e.has_value()) {
    throw std::invalid_argument("no link between " + a + " and " + b);
  }
  // Canonical link id: the lower id of the two directions.
  const EdgeId rev = g_.edge(*e).reverse;
  return rev != kInvalidEdge && rev < *e ? rev : *e;
}

json::Value TeService::handleWhatIf(const json::Value& request, long long seq,
                                    routing::OptuEngine& engine) const {
  const json::Value& links = member(request, "links");
  if (!links.isArray()) {
    throw std::invalid_argument("'links' must be an array of links");
  }
  // The hypothetical failure set: current state plus the queried links.
  std::vector<EdgeId> combined = failed_;
  for (const json::Value& link : links.asArray()) {
    combined.push_back(parseLink(link));
  }
  std::sort(combined.begin(), combined.end());
  combined.erase(std::unique(combined.begin(), combined.end()),
                 combined.end());
  const failure::FailureOutcome ev = evaluateLinks(combined, engine);
  json::Value resp = envelope(seq, request);
  resp["ok"] = true;
  addEvalPayload(resp, ev, combined);
  return resp;
}

json::Value TeService::dispatch(const json::Value& request, long long seq) {
  if (!request.isObject()) {
    throw std::invalid_argument("a request is a JSON object");
  }
  const json::Value& op_value = member(request, "op");
  if (!op_value.isString()) {
    throw std::invalid_argument("'op' must be a string");
  }
  const std::string& op = op_value.asString();
  json::Value resp = envelope(seq, request);

  if (op == "state") {
    resp["ok"] = true;
    resp["nodes"] = g_.numNodes();
    resp["links"] = static_cast<int>(failure::physicalLinks(g_).size());
    resp["margin"] = intact_.options().margin;
    resp["pool_size"] = static_cast<int>(intact_.pool().size());
    resp["events"] = static_cast<long>(seq_);
    json::Value keys = json::Value::array();
    for (const te::Scheme* s : intact_.options().schemes) {
      keys.push_back(s->key());
    }
    resp["schemes"] = std::move(keys);
    json::Value failed = json::Value::array();
    for (const std::string& label : failedLinks()) failed.push_back(label);
    resp["failed"] = std::move(failed);
    return resp;
  }

  if (op == "demand") {
    const json::Value* scale = request.find("scale");
    const json::Value* set = request.find("set");
    if (scale == nullptr && set == nullptr) {
      throw std::invalid_argument("'demand' needs 'scale' and/or 'set'");
    }
    // Validate everything before mutating anything: a half-applied
    // demand update would corrupt the resident state on error.
    if (scale != nullptr &&
        (!scale->isNumber() || !(scale->asNumber() > 0.0))) {
      throw std::invalid_argument("'scale' must be a positive number");
    }
    std::vector<std::pair<std::pair<NodeId, NodeId>, double>> entries;
    if (set != nullptr) {
      if (!set->isArray()) {
        throw std::invalid_argument(
            "'set' must be an array of [src,dst,value] entries");
      }
      for (const json::Value& entry : set->asArray()) {
        if (!entry.isArray() || entry.asArray().size() != 3 ||
            !entry.asArray()[0].isString() ||
            !entry.asArray()[1].isString() ||
            !entry.asArray()[2].isNumber()) {
          throw std::invalid_argument(
              "a 'set' entry is [\"src\",\"dst\",value]");
        }
        const std::string& a = entry.asArray()[0].asString();
        const std::string& b = entry.asArray()[1].asString();
        const double v = entry.asArray()[2].asNumber();
        const std::optional<NodeId> s = g_.findNode(a);
        const std::optional<NodeId> t = g_.findNode(b);
        if (!s.has_value()) throw std::invalid_argument("unknown node: " + a);
        if (!t.has_value()) throw std::invalid_argument("unknown node: " + b);
        if (*s == *t) {
          throw std::invalid_argument("demand src == dst: " + a);
        }
        if (!(v >= 0.0)) {
          throw std::invalid_argument("demand value must be >= 0");
        }
        entries.push_back({{*s, *t}, v});
      }
    }
    tm::TrafficMatrix base = intact_.base();
    if (scale != nullptr) base.scale(scale->asNumber());
    for (const auto& [pair, v] : entries) {
      base.set(pair.first, pair.second, v);
    }
    intact_.moveBox(std::move(base), intact_.options().margin);
    floor_.clear();  // bounds on the old pool's matrices
    resp["ok"] = true;
    addEvalPayload(resp, evaluateResident(), failed_);
    return resp;
  }

  if (op == "link") {
    const EdgeId link = parseLink(member(request, "link"));
    const json::Value* up = request.find("up");
    if (up != nullptr && !up->isBool()) {
      throw std::invalid_argument("'up' must be true or false");
    }
    const bool restore = up != nullptr && up->asBool();
    const auto it = std::lower_bound(failed_.begin(), failed_.end(), link);
    const bool already = it != failed_.end() && *it == link;
    const std::string label = failure::linkLabel(g_, link);
    if (restore) {
      if (!already) {
        throw std::invalid_argument("link " + label + " is not failed");
      }
      failed_.erase(it);
    } else {
      if (already) {
        throw std::invalid_argument("link " + label + " is already failed");
      }
      failed_.insert(it, link);
    }
    resp["ok"] = true;
    resp["link"] = label;
    resp["up"] = restore;
    addEvalPayload(resp, evaluateResident(), failed_);
    return resp;
  }

  if (op == "margin") {
    const json::Value& value = member(request, "value");
    if (!value.isNumber() || !(value.asNumber() >= 1.0)) {
      throw std::invalid_argument("'value' must be a number >= 1");
    }
    intact_.moveBox(intact_.base(), value.asNumber());
    floor_.clear();
    resp["ok"] = true;
    resp["margin"] = value.asNumber();
    addEvalPayload(resp, evaluateResident(), failed_);
    return resp;
  }

  if (op == "what-if") {
    return handleWhatIf(request, seq, *engine_);
  }

  if (op == "reoptimize") {
    reopt_saved_iters_ += intact_.compute(/*warm=*/true);
    resp["ok"] = true;
    addEvalPayload(resp, evaluateResident(), failed_);
    return resp;
  }

  throw std::invalid_argument("unknown op: " + op);
}

json::Value TeService::handle(const json::Value& request) {
  const long long seq = ++seq_;
  try {
    return dispatch(request, seq);
  } catch (const std::exception& e) {
    return errorResponse(seq, request, e.what());
  }
}

std::string TeService::handleLine(const std::string& line) {
  json::Value request;
  try {
    request = json::parse(line);
  } catch (const json::Error& e) {
    return errorResponse(++seq_, json::Value(), e.what()).dump(0);
  }
  return handle(request).dump(0);
}

std::vector<std::string> TeService::handleScript(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out(lines.size());

  const auto parseWhatIf = [](const std::string& line,
                              json::Value* request) -> bool {
    try {
      *request = json::parse(line);
    } catch (const json::Error&) {
      return false;
    }
    return request->isObject() && request->stringOr("op", "") == "what-if";
  };

  std::size_t i = 0;
  while (i < lines.size()) {
    json::Value request;
    if (!parseWhatIf(lines[i], &request)) {
      out[i] = handleLine(lines[i]);
      ++i;
      continue;
    }
    // A maximal run of consecutive read-only what-if queries: the state
    // cannot change inside it, so the queries fan out in fixed-size
    // chunks, each chunk one OptuEngine whose sessions stay warm across
    // the chunk's queries. Responses keep their input-order seq numbers
    // and slots, so output is bit-identical for any thread count.
    std::vector<std::pair<std::size_t, json::Value>> run;
    run.emplace_back(i, std::move(request));
    ++i;
    while (i < lines.size() && parseWhatIf(lines[i], &request)) {
      run.emplace_back(i, std::move(request));
      ++i;
    }
    std::vector<long long> seqs(run.size());
    for (std::size_t k = 0; k < run.size(); ++k) seqs[k] = ++seq_;
    const std::size_t chunks =
        (run.size() + kWhatIfChunk - 1) / kWhatIfChunk;
    intact_.threadPool().parallelFor(chunks, [&](std::size_t c) {
      routing::OptuEngine engine(g_, intact_.options().coyote.lp);
      const std::size_t begin = c * kWhatIfChunk;
      const std::size_t end =
          std::min(run.size(), begin + kWhatIfChunk);
      for (std::size_t k = begin; k < end; ++k) {
        json::Value resp;
        try {
          resp = handleWhatIf(run[k].second, seqs[k], engine);
        } catch (const std::exception& e) {
          resp = errorResponse(seqs[k], run[k].second, e.what());
        }
        out[run[k].first] = resp.dump(0);
      }
    });
  }
  return out;
}

}  // namespace coyote::serve
