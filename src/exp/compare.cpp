#include "exp/compare.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace coyote::exp {

namespace json = util::json;

namespace {

void addFinding(CompareReport* report, CompareFinding::Kind kind,
                std::string scenario, std::string what) {
  report->findings.push_back(
      {std::move(scenario), std::move(what), kind});
}

bool numbersDiffer(double a, double b, double rel_tol) {
  if (a == b) return false;
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  return std::fabs(a - b) / scale > rel_tol;
}

// Top-level members that legitimately differ between two runs of the
// same source tree: provenance, machine, options, wall time and prose.
// Everything else -- rows, ok, the kind-specific summary fields like
// 'verified', 'fake_nodes', 'ecmp_gap_percent', and the `lp_*` work
// counts -- is deterministic and gated.
bool isRunMetadata(const std::string& key) {
  static const char* const kKeys[] = {
      "schema", "scenario", "kind",    "description", "tags",
      "git",    "threads",  "timing",  "network",     "networks",
      "demand_model",       "full",    "exact",       "schemes",
  };
  for (const char* k : kKeys) {
    if (key == k) return true;
  }
  return false;
}

/// Memory telemetry (schema coyote-bench/6): peak-RSS probes are
/// allocator- and machine-sensitive, so they are reported informationally
/// instead of gated as drift.
bool isMemTelemetry(const std::string& key) {
  return key.rfind("mem_", 0) == 0;
}

/// Candidate-only keys -- e.g. the rows of a scheme the baseline never
/// swept (schema coyote-bench/4 rows are dynamic over the scheme list) or
/// fields a newer schema added -- are surfaced as [INFO], never gated:
/// the drift walk is baseline-driven. `skip_metadata` additionally mutes
/// run-metadata keys (the top-level walk; metadata differs freely).
void reportCandidateOnly(const json::Value& base, const json::Value& cand,
                         const std::string& path, const std::string& scenario,
                         bool skip_metadata, CompareReport* report) {
  if (!base.isObject() || !cand.isObject()) return;
  for (const auto& [key, value] : cand.asObject()) {
    (void)value;
    if (isMemTelemetry(key)) continue;
    if (skip_metadata && isRunMetadata(key)) continue;
    if (base.find(key) == nullptr) {
      addFinding(report, CompareFinding::Kind::kInfo, scenario,
                 path.empty() ? key + ": candidate-only (not gated)"
                              : path + "." + key +
                                    ": candidate-only (not gated)");
    }
  }
}

/// Recursively compares numeric leaves of the row trees; `path` names the
/// offending field in findings.
void compareValues(const json::Value& base, const json::Value& cand,
                   const std::string& path, const std::string& scenario,
                   const CompareOptions& opt, CompareReport* report) {
  if (base.type() != cand.type()) {
    addFinding(report, CompareFinding::Kind::kDrift, scenario,
               path + ": type changed");
    return;
  }
  switch (base.type()) {
    case json::Value::Type::kNumber:
      if (numbersDiffer(base.asNumber(), cand.asNumber(),
                        opt.ratio_tolerance)) {
        std::ostringstream msg;
        msg << path << ": " << json::formatNumber(base.asNumber()) << " -> "
            << json::formatNumber(cand.asNumber());
        addFinding(report, CompareFinding::Kind::kDrift, scenario, msg.str());
      }
      return;
    case json::Value::Type::kArray: {
      const json::Array& ba = base.asArray();
      const json::Array& ca = cand.asArray();
      if (ba.size() != ca.size()) {
        addFinding(report, CompareFinding::Kind::kDrift, scenario,
                   path + ": length " + std::to_string(ba.size()) + " -> " +
                       std::to_string(ca.size()));
        return;
      }
      for (std::size_t i = 0; i < ba.size(); ++i) {
        compareValues(ba[i], ca[i], path + "[" + std::to_string(i) + "]",
                      scenario, opt, report);
      }
      return;
    }
    case json::Value::Type::kObject: {
      for (const auto& [key, value] : base.asObject()) {
        if (isMemTelemetry(key)) continue;
        const json::Value* other = cand.find(key);
        if (other == nullptr) {
          addFinding(report, CompareFinding::Kind::kDrift, scenario,
                     path + "." + key + ": missing in candidate");
          continue;
        }
        compareValues(value, *other, path + "." + key, scenario, opt, report);
      }
      reportCandidateOnly(base, cand, path, scenario,
                          /*skip_metadata=*/false, report);
      return;
    }
    default:
      if (!(base == cand)) {
        addFinding(report, CompareFinding::Kind::kDrift, scenario,
                   path + ": value changed");
      }
      return;
  }
}

}  // namespace

void compareDocuments(const json::Value& baseline, const json::Value& cand,
                      const CompareOptions& opt, CompareReport* report) {
  const std::string scenario = baseline.stringOr("scenario", "<unnamed>");
  ++report->compared;

  // Result drift: every deterministic field the baseline recorded must be
  // reproduced -- the rows, any kind-specific summary members and the
  // lp_* work counts.
  if (baseline.find("rows") == nullptr || cand.find("rows") == nullptr) {
    addFinding(report, CompareFinding::Kind::kMalformed, scenario,
               "missing 'rows' array");
  }
  if (baseline.isObject()) {
    for (const auto& [key, value] : baseline.asObject()) {
      if (isRunMetadata(key) || isMemTelemetry(key)) continue;
      const json::Value* other = cand.find(key);
      if (other == nullptr) {
        addFinding(report, CompareFinding::Kind::kDrift, scenario,
                   key + ": missing in candidate");
        continue;
      }
      compareValues(value, *other, key, scenario, opt, report);
    }
    reportCandidateOnly(baseline, cand, /*path=*/"", scenario,
                        /*skip_metadata=*/true, report);
  }

  // Informational peak-RSS delta (never gated): memory growth across
  // schema coyote-bench/6 runs is worth eyes, not a gate.
  const double base_mem = baseline.numberOr("mem_peak_rss_mb", -1.0);
  const double cand_mem = cand.numberOr("mem_peak_rss_mb", -1.0);
  if (base_mem >= 0.0 && cand_mem >= 0.0) {
    std::ostringstream msg;
    msg.precision(4);
    msg << "mem_peak_rss_mb " << base_mem << " -> " << cand_mem;
    if (base_mem > 0.0) {
      msg.precision(3);
      msg << " (" << (cand_mem >= base_mem ? "+" : "")
          << 100.0 * (cand_mem / base_mem - 1.0) << "%)";
    }
    addFinding(report, CompareFinding::Kind::kInfo, scenario, msg.str());
  }
}

CompareReport compareBenchDirs(const std::string& baseline_dir,
                               const std::string& candidate_dir,
                               const CompareOptions& opt) {
  namespace fs = std::filesystem;
  CompareReport report;

  const auto collect = [&report](const std::string& dir) {
    std::map<std::string, fs::path> out;  // sorted for stable reports
    if (!fs::is_directory(dir)) {
      addFinding(&report, CompareFinding::Kind::kMalformed, dir,
                 "not a directory");
      return out;
    }
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 &&
          entry.path().extension() == ".json") {
        out[name] = entry.path();
      }
    }
    return out;
  };

  const auto baseline_files = collect(baseline_dir);
  const auto candidate_files = collect(candidate_dir);
  if (baseline_files.empty()) {
    addFinding(&report, CompareFinding::Kind::kMalformed, baseline_dir,
               "no BENCH_*.json files");
  }

  const auto load = [&report](const fs::path& path,
                              json::Value* out) -> bool {
    std::ifstream file(path);
    std::stringstream buffer;
    buffer << file.rdbuf();
    try {
      *out = json::parse(buffer.str());
      return true;
    } catch (const json::Error& e) {
      addFinding(&report, CompareFinding::Kind::kMalformed,
                 path.filename().string(), e.what());
      return false;
    }
  };

  for (const auto& [name, base_path] : baseline_files) {
    const auto it = candidate_files.find(name);
    if (it == candidate_files.end()) {
      // A run that silently drops a gated scenario -- a deregistered
      // serve replay, a filter typo -- must not pass as "no drift found".
      addFinding(&report, CompareFinding::Kind::kMissing, name,
                 "present in baseline but not in candidate");
      continue;
    }
    json::Value base, cand;
    if (!load(base_path, &base) || !load(it->second, &cand)) continue;
    compareDocuments(base, cand, opt, &report);
  }
  // Candidate-only scenario files are informational, mirroring the
  // candidate-only *field* policy: the walk is baseline-driven, so a
  // newly registered scenario shows up here (and stays visible in the
  // report) until its baseline is committed.
  for (const auto& [name, path] : candidate_files) {
    (void)path;
    if (baseline_files.find(name) == baseline_files.end()) {
      addFinding(&report, CompareFinding::Kind::kInfo, name,
                 "candidate-only scenario (not gated; commit a baseline "
                 "to start gating it)");
    }
  }
  return report;
}

std::string CompareReport::text() const {
  std::ostringstream out;
  out << "compared " << compared << " scenario(s): ";
  int drifts = 0, other = 0;
  for (const CompareFinding& f : findings) {
    if (f.kind == CompareFinding::Kind::kDrift) {
      ++drifts;
    } else if (f.kind != CompareFinding::Kind::kInfo) {
      ++other;
    }
  }
  if (pass()) {
    out << "OK\n";
  } else {
    out << drifts << " drift(s), " << other << " other problem(s)\n";
  }
  for (const CompareFinding& f : findings) {
    const char* kind = "";
    switch (f.kind) {
      case CompareFinding::Kind::kDrift:
        kind = "DRIFT";
        break;
      case CompareFinding::Kind::kMissing:
        kind = "MISSING";
        break;
      case CompareFinding::Kind::kMalformed:
        kind = "MALFORMED";
        break;
      case CompareFinding::Kind::kInfo:
        kind = "INFO";
        break;
    }
    out << "  [" << kind << "] " << f.scenario << ": " << f.what << "\n";
  }
  return out.str();
}

}  // namespace coyote::exp
