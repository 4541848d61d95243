// Unified experiment CLI over the scenario registry: list/filter/run any
// of the paper's figure/table scenarios plus the extension grid, with
// machine-readable BENCH_<scenario>.json output for the CI result gate
// (bench_compare, which gates rows and lp_* counts, never wall time). See
// EXPERIMENTS.md.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "scheme/registry.hpp"

namespace {

using namespace coyote;

int usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [options] [scenario-id ...]\n"
               "\n"
               "Selection (at least one of):\n"
               "  <scenario-id>      run this scenario (exact id)\n"
               "  --filter <pat>     add scenarios whose id or tags contain "
               "<pat>\n"
               "  --kind <name>      add every scenario of this kind "
               "(schemes, table,\n"
               "                     failure, serve, scaling, ...; exact "
               "name)\n"
               "  --all              add every registered scenario\n"
               "  --list             list the selection (default: all) and "
               "exit\n"
               "\n"
               "Run options:\n"
               "  --json-dir <dir>   write one BENCH_<id>.json per scenario\n"
               "  --schemes <a,b,c>  scheme keys the schemes/table/failure/"
               "serve/scaling\n"
               "                     kinds sweep\n"
               "                     (default: the paper's four; unknown "
               "keys are an error)\n"
               "  --list-schemes     list the registered TE schemes and "
               "exit\n"
               "  --quick | --full   thinned vs full margin grids/corpora "
               "(default quick)\n"
               "  --exact            exact slave-LP oracle/evaluation\n"
               "  --quiet            suppress the per-row text output\n",
               argv0);
  return code;
}

void listScenarios(const std::vector<const exp::Scenario*>& scenarios) {
  std::printf("%-26s %-16s %-18s %s\n", "id", "kind", "tags", "description");
  for (const exp::Scenario* s : scenarios) {
    std::string tags;
    for (const std::string& t : s->tags) {
      if (!tags.empty()) tags += ",";
      tags += t;
    }
    std::printf("%-26s %-16s %-18s %s\n", s->id.c_str(),
                exp::kindName(s->kind), tags.c_str(),
                s->description.c_str());
  }
  std::printf("# %zu scenario(s)\n", scenarios.size());
}

void listSchemes() {
  const te::SchemeRegistry& reg = te::SchemeRegistry::builtin();
  std::printf("%-16s %-13s %-8s %-12s %s\n", "key", "display", "margin",
              "on-failure", "description");
  for (const te::Scheme* s : reg.all()) {
    bool is_default = false;
    for (const te::Scheme* d : reg.defaults()) is_default |= d == s;
    std::printf("%-16s %-13s %-8s %-12s %s%s\n", s->key(), s->display(),
                s->marginDependent() ? "per" : "once",
                te::reactionName(s->reaction()), s->describe(),
                is_default ? " [default]" : "");
  }
  std::printf("# %zu scheme(s); default sweep: the paper's four\n",
              reg.all().size());
}

}  // namespace

int main(int argc, char** argv) {
  const exp::ScenarioRegistry& registry = exp::ScenarioRegistry::global();

  exp::RunOptions opt;
  bool list = false;
  bool all = false;
  std::vector<std::string> filters;
  std::vector<std::string> kinds;
  std::vector<std::string> ids;

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
    if (arg == "--list") {
      list = true;
    } else if (arg == "--list-schemes") {
      listSchemes();
      return 0;
    } else if (arg == "--schemes") {
      const std::string csv = next();
      // Reject a blank selection up front: parseList("") falls back to
      // the defaults, which would silently sweep the paper's four when
      // the caller's $SELECTION variable was accidentally empty.
      if (csv.find_first_not_of(", ") == std::string::npos) {
        std::fprintf(stderr, "--schemes: empty scheme list\n");
        return 2;
      }
      try {
        // Validate now -- an unknown or repeated key is a hard error
        // naming the key, not a silently empty or defaulted sweep. A
        // second --schemes flag replaces the first (last one wins), so
        // the accumulated list stays duplicate-free too.
        opt.schemes.clear();
        for (const te::Scheme* s :
             te::SchemeRegistry::builtin().parseList(csv)) {
          opt.schemes.emplace_back(s->key());
        }
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "--schemes: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--filter") {
      filters.emplace_back(next());
    } else if (arg == "--kind") {
      kinds.emplace_back(next());
    } else if (arg == "--json-dir") {
      opt.json_dir = next();
    } else if (arg == "--quick") {
      opt.full = false;
    } else if (arg == "--full") {
      opt.full = true;
    } else if (arg == "--exact") {
      opt.exact = true;
    } else if (arg == "--quiet") {
      opt.print = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0], 2);
    } else {
      ids.push_back(arg);
    }
  }

  // Build the selection, de-duplicated, in registry order.
  std::vector<const exp::Scenario*> selection;
  const auto select = [&](const exp::Scenario* s) {
    for (const exp::Scenario* have : selection) {
      if (have == s) return;
    }
    selection.push_back(s);
  };
  for (const std::string& id : ids) {
    const exp::Scenario* s = registry.find(id);
    if (s == nullptr) {
      std::fprintf(stderr,
                   "unknown scenario: %s (try --list)\n", id.c_str());
      return 2;
    }
    select(s);
  }
  for (const std::string& pattern : filters) {
    const auto matched = registry.match(pattern);
    if (matched.empty()) {
      std::fprintf(stderr, "--filter %s matched nothing\n", pattern.c_str());
      return 2;
    }
    for (const exp::Scenario* s : matched) select(s);
  }
  for (const std::string& kind : kinds) {
    // Exact kind-name match (unlike --filter's substring semantics):
    // "schemes" must not silently sweep in unrelated tags.
    bool matched_any = false;
    for (const exp::Scenario& s : registry.all()) {
      if (kind == exp::kindName(s.kind)) {
        select(&s);
        matched_any = true;
      }
    }
    if (!matched_any) {
      std::fprintf(stderr, "--kind %s matched nothing (try --list)\n",
                   kind.c_str());
      return 2;
    }
  }
  if (all) {
    for (const exp::Scenario& s : registry.all()) select(&s);
  }

  if (list) {
    listScenarios(selection.empty()
                      ? registry.match("")  // default: list everything
                      : selection);
    return 0;
  }
  if (selection.empty()) {
    std::fprintf(stderr, "nothing selected\n");
    return usage(argv[0], 2);
  }

  const exp::ExperimentRunner runner(opt);
  const int failures = runner.runAll(selection);
  if (failures > 0) {
    std::fprintf(stderr, "%d scenario(s) failed\n", failures);
    return 1;
  }
  return 0;
}
