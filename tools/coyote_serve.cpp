// Online TE daemon over the serve::TeService event loop (src/serve/).
//
// Two modes over the same line-delimited util::json protocol (documented
// in src/serve/service.hpp):
//
//   coyote_serve --topo Geant                 stdin/stdout daemon: one
//                                             request line in, one
//                                             response line out
//   coyote_serve --topo Geant --replay t.txt  batch replay: every line of
//                                             the file, responses to
//                                             stdout in input order
//                                             (bit-identical for any
//                                             COYOTE_THREADS)
//
// Plus trace generation (the replay inputs CI and the tests use):
//
//   coyote_serve --topo Geant --generate 500 --seed 1   seeded mixed trace
//   coyote_serve --topo Geant --flap-trace 40           link-flap trace
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "exp/scenario.hpp"
#include "scheme/registry.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"

namespace {

using namespace coyote;

int usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [options]\n"
               "\n"
               "Network / service options:\n"
               "  --topo <name>      'running-example' (default) or a "
               "Topology Zoo name\n"
               "                     (e.g. Geant, Abilene, Digex)\n"
               "  --demand <model>   gravity (default) | bimodal | uniform\n"
               "  --demand-seed <n>  bimodal demand seed (default 23)\n"
               "  --schemes <a,b,c>  resident scheme keys (default: the "
               "paper's four)\n"
               "  --margin <x>       initial uncertainty margin (default "
               "2.0)\n"
               "\n"
               "Modes (default: stdin/stdout daemon):\n"
               "  --replay <file>    replay a trace file, one response line "
               "per event\n"
               "  --generate <n>     emit an n-event seeded trace to stdout "
               "and exit\n"
               "  --seed <s>         trace seed for --generate (default 1)\n"
               "  --flap-trace <n>   emit an n-flap link up/down trace and "
               "exit\n",
               argv0);
  return code;
}

/// The whole of `s` as a T -- a non-negative integer for integral T, a
/// finite number otherwise -- or exit 2 before anything is built: "abc"
/// must not silently mean 0, "2x" mean 2, nor -3 turn --generate off.
template <class T>
T flagValue(const std::string& flag, const char* s) {
  T v{};
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, v);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(v);
  } else if constexpr (std::is_signed_v<T>) {
    ok = ok && v >= 0;
  }
  if (!ok) {
    std::fprintf(stderr, "%s: not a %s: %s\n", flag.c_str(),
                 std::is_integral_v<T> ? "non-negative integer" : "number",
                 s);
    std::exit(2);
  }
  return v;
}

exp::TopologySpec topoSpec(const std::string& name) {
  if (name == "running-example") {
    exp::TopologySpec spec;
    spec.kind = exp::TopologySpec::Kind::kRunningExample;
    return spec;
  }
  return exp::TopologySpec::zoo(name);
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo = "running-example";
  exp::DemandSpec demand;
  std::string schemes_csv;
  double margin = 2.0;
  std::string replay_file;
  int generate = -1;
  std::uint64_t seed = 1;
  int flap_trace = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", arg.c_str());
        std::exit(usage(argv[0], 2));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    if (arg == "--topo") {
      topo = next();
    } else if (arg == "--demand") {
      const std::string model = next();
      if (model == "gravity") {
        demand.model = exp::DemandSpec::Model::kGravity;
      } else if (model == "bimodal") {
        demand.model = exp::DemandSpec::Model::kBimodal;
      } else if (model == "uniform") {
        demand.model = exp::DemandSpec::Model::kUniform;
      } else {
        std::fprintf(stderr, "unknown demand model: %s\n", model.c_str());
        return 2;
      }
    } else if (arg == "--demand-seed") {
      demand.seed = flagValue<std::uint64_t>(arg, next());
    } else if (arg == "--schemes") {
      schemes_csv = next();
    } else if (arg == "--margin") {
      margin = flagValue<double>(arg, next());
    } else if (arg == "--replay") {
      replay_file = next();
    } else if (arg == "--generate") {
      generate = flagValue<int>(arg, next());
    } else if (arg == "--seed") {
      seed = flagValue<std::uint64_t>(arg, next());
    } else if (arg == "--flap-trace") {
      flap_trace = flagValue<int>(arg, next());
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0], 2);
    }
  }

  try {
    const Graph g = topoSpec(topo).build();
    const tm::TrafficMatrix base = demand.build(g);

    if (generate >= 0) {
      serve::TraceOptions opt;
      opt.events = generate;
      opt.seed = seed;
      for (const std::string& line : serve::generateTrace(g, base, opt)) {
        std::printf("%s\n", line.c_str());
      }
      return 0;
    }
    if (flap_trace >= 0) {
      for (const std::string& line : serve::linkFlapTrace(g, flap_trace)) {
        std::printf("%s\n", line.c_str());
      }
      return 0;
    }

    serve::ServeOptions opt;
    opt.margin = margin;
    opt.schemes = te::SchemeRegistry::builtin().parseList(schemes_csv);

    serve::TeService service(g, base, opt);

    if (!replay_file.empty()) {
      std::ifstream in(replay_file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", replay_file.c_str());
        return 2;
      }
      std::vector<std::string> lines;
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty()) lines.push_back(line);
      }
      for (const std::string& resp : service.handleScript(lines)) {
        std::printf("%s\n", resp.c_str());
      }
      return 0;
    }

    // Interactive daemon: one request line in, one response line out, until
    // EOF. Responses flush per line so a piped client never stalls.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      std::printf("%s\n", service.handleLine(line).c_str());
      std::fflush(stdout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coyote_serve: %s\n", e.what());
    return 1;
  }
}
