#!/usr/bin/env python3
"""The repository benchmark: builds the driver, runs workloads, checks the
outputs and reports every metric. Standard library only; see README.md.

  python3 benchmark/run.py [--seed S] [--seconds T]
      every workload, untraced then traced; one `workload metric value unit`
      line per metric; exits 1 if any check fails
  python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1
      one run; the last line of stdout is the JSON result (end-to-end
      metrics with --trace 0, per-layer metrics with --trace 1)
  python3 benchmark/run.py --smoke [--driver PATH]
      every workload at smoke size, at 1 and at 4 threads; rows and work
      counts must agree
  python3 benchmark/run.py --ab BASE CAND [--pairs N] [--seed S]
      same-machine A/B of two commits, built with this benchmark's code
  python3 benchmark/run.py --make-golden
      rewrites golden/rows.json from coyote_experiments' rows
"""

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
GOLDEN = HERE / "golden" / "rows.json"

WORKLOADS = ["wan-sweep", "wan-failures", "dc-fattree", "serve-geant"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Builds use up to four jobs, and dc-fattree runs the library at as many
# threads, so the parallel paths (the OPTU block-decomposition pre-solve,
# batched normalization) are measured. The other workloads run at one
# thread: on a shared 4-vCPU machine the run-to-run spread of wan-failures
# was 4.9% at 1 thread against 11.5% at 4 and 18.9% at 2.
JOBS = min(len(os.sched_getaffinity(0)), 4)
THREADS = {"dc-fattree": JOBS}
SCHEMES = ["ecmp", "base", "oblivious", "partial"]
SERVE_OPS = ["demand", "link", "margin", "what-if", "reoptimize"]
LP_FIELDS = ["solves", "pivots", "phase1_pivots", "dual_pivots",
             "refactorizations", "lu_updates", "lu_fill", "decomp_rounds",
             "solve_s", "iter_limit_solves"]
TOL = 1e-9

# The registry scenarios whose rows the seed-1 golden is taken from.
GOLDEN_SCENARIOS = {
    "wan-sweep": ["table1"],
    "wan-failures": ["fig06-fail1", "fig06-fail2", "fig06-srlg"],
    "dc-fattree": ["scaling-fattree-k12"],
}


class BenchError(Exception):
    """The benchmark could not produce a result (build or driver failure)."""


# --- building and running the driver ----------------------------------------

def build(src_root, build_dir, target="coyote_bench"):
    """Configures and builds `target` (Release); returns the binary path."""
    for cmd in (["cmake", "-S", str(src_root / "benchmark"), "-B",
                 str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "--target", target,
                 "-j", str(JOBS)]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return build_dir / target if target == "coyote_bench" else \
        build_dir / "coyote" / target


def run_driver(driver, workload, seed, seconds=None, passes=None,
               trace=False, smoke=False, threads=None):
    """Runs one driver process; returns its measurement document."""
    threads = threads or THREADS.get(workload, 1)
    runs = Path(driver).parent / "runs"
    runs.mkdir(exist_ok=True)
    out = runs / (f"{workload}-seed{seed}-t{threads}"
                  f"{'-trace' if trace else ''}{'-smoke' if smoke else ''}"
                  ".json")
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--out", str(out)]
    cmd += ["--seconds", str(seconds)] if passes is None else \
        ["--passes", str(passes)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, COYOTE_THREADS=str(threads))
    try:
        r = subprocess.run(cmd, env=env, timeout=(seconds or 0) + 120)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver timed out: {workload}") from e
    if r.returncode != 0:
        raise BenchError(f"driver exited with {r.returncode}: {workload}")
    return json.loads(out.read_text())


# --- statistics -------------------------------------------------------------

def percentile(xs, q):
    """Nearest-rank percentile (q in (0, 1])."""
    s = sorted(xs)
    return s[max(math.ceil(q * len(s)), 1) - 1]


def plain_passes(doc):
    return [p for p in doc["passes"] if not p["traced"]]


def traced_passes(doc):
    return [p for p in doc["passes"] if p["traced"]]


def op_min_sum(passes):
    """Sum over a pass's ops of each op's fastest wall time across passes:
    the time of one pass with the machine to itself. Every pass does the
    same work (check() verifies it) and interference only ever slows an op
    down, so the fastest pass is the least disturbed one."""
    return sum(min(p["ops"][i]["wall_s"] for p in passes)
               for i in range(len(passes[0]["ops"])))


# --- metrics ----------------------------------------------------------------

def end_to_end(doc):
    """name -> (value, unit), measured on the untraced passes."""
    plain = plain_passes(doc)
    rows = doc["passes"][0]["rows"]

    def mean_ratio(key):
        values = [r[key] for r in rows if key in r]
        return statistics.fmean(values) if values else 0.0

    setups = doc["setup_s"] + [p["setup_s"] for p in plain]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (op_min_sum(plain), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MiB"),
        "pk_ratio_mean": (mean_ratio("partial"), "ratio"),
        "obl_ratio_mean": (mean_ratio("oblivious"), "ratio"),
    }


def per_layer(doc):
    """name -> (value, unit): per-layer work from the traced passes. Layers
    a workload never calls read 0."""
    plain = plain_passes(doc)
    traced = traced_passes(doc)
    first = traced[0]
    counts = first["counts"]
    zero = {"calls": 0, "wall_s": 0.0, "lp": {k: 0 for k in LP_FIELDS}}

    def layer(p, name):
        return p["layers"].get(name, zero)

    def busy(name):
        return statistics.median(layer(p, name)["wall_s"] for p in traced)

    def calls(name):
        return layer(first, name)["calls"]

    def lp(name, field):
        return layer(first, name)["lp"][field]

    m = {
        "topo.build_s": (busy("topo.build"), "s"),
        "core.dags_s": (busy("core.dags"), "s"),
        "tm.base_s": (busy("tm.base"), "s"),
        "tm.pool_s": (busy("tm.pool"), "s"),
        "tm.pool_matrices": (counts.get("tm.pool_matrices", 0), "count"),
        "routing.optu.normalize_s": (busy("routing.optu"), "s"),
        "routing.optu.calls": (calls("routing.optu"), "count"),
        "routing.optu.lp_solves": (lp("routing.optu", "solves"), "count"),
        "routing.optu.lp_pivots": (lp("routing.optu", "pivots"), "count"),
        "routing.optu.dup_frac": (
            counts.get("routing.optu.dropped", 0) /
            counts["tm.pool_matrices"] if counts.get("tm.pool_matrices")
            else 0.0, "fraction"),
        "routing.evaluator.ratio_s": (busy("routing.evaluator"), "s"),
        "routing.evaluator.calls": (calls("routing.evaluator"), "count"),
        "routing.worst_case.eval_s": (busy("routing.worst_case"), "s"),
        "routing.worst_case.calls": (calls("routing.worst_case"), "count"),
        "routing.worst_case.lp_solves": (
            lp("routing.worst_case", "solves"), "count"),
        "routing.worst_case.lp_pivots": (
            lp("routing.worst_case", "pivots"), "count"),
    }
    for s in SCHEMES:
        name = f"scheme.{s}"
        m[f"{name}.compute_s"] = (busy(name), "s")
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.lp_solves"] = (lp(name, "solves"), "count")
        m[f"{name}.lp_pivots"] = (lp(name, "pivots"), "count")
    m.update({
        "failure.setup_s": (busy("failure.setup"), "s"),
        "failure.evaluate_s": (busy("failure.evaluate"), "s"),
        "failure.scenarios": (counts.get("failure.scenarios", 0), "count"),
        "failure.evaluated": (counts.get("failure.evaluated", 0), "count"),
        "failure.lp_solves": (lp("failure.evaluate", "solves"), "count"),
        "failure.lp_pivots": (lp("failure.evaluate", "pivots"), "count"),
        "serve.setup_s": (busy("serve.setup"), "s"),
        "serve.reoptimize_saved_iters": (
            counts.get("serve.reoptimize_saved_iters", 0), "count"),
    })
    # Event latencies from every pass: tracing adds microseconds to an
    # event of ~100 ms, and a 28 s run then holds 200 events, 10 above p95.
    events = [o for p in doc["passes"] for o in p["ops"]] \
        if doc["workload"] == "serve-geant" else []
    for op in SERVE_OPS:
        name = f"serve.{op}"
        latencies = [o["wall_s"] for o in events if o["name"] == op]
        m[f"{name}.count"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.p50_ms"] = (
            1e3 * statistics.median(latencies) if latencies else 0.0, "ms")
        m[f"{name}.lp_pivots"] = (lp(name, "pivots"), "count")
    latencies = [o["wall_s"] for o in events]
    m["serve.event_p50_ms"] = (
        1e3 * statistics.median(latencies) if latencies else 0.0, "ms")
    m["serve.event_p95_ms"] = (
        1e3 * percentile(latencies, 0.95) if latencies else 0.0, "ms")
    m["serve.events_per_s"] = (
        len(latencies) / sum(latencies) if latencies else 0.0, "1/s")
    for field in LP_FIELDS:
        if field == "solve_s":
            value = statistics.median(p["lp"]["solve_s"] for p in plain)
        else:
            value = first["lp"][field]
        m[f"lp.{field}"] = (value, "s" if field == "solve_s" else "count")
    m["trace.overhead_frac"] = (
        op_min_sum(traced) / op_min_sum(plain) - 1.0, "fraction")
    m["trace.op_self_s"] = (
        statistics.median(op_self_seconds(p) for p in traced), "s")
    return m


def op_self_seconds(p):
    """Time inside op spans not covered by their layer spans: the driver's
    own work between library calls."""
    spans = p["spans"]
    total = 0.0
    for i, s in enumerate(spans):
        if s["parent"] == -1 and s["op"] >= 0:
            children = sum(c["end_s"] - c["start_s"] for c in spans
                           if c["parent"] == i)
            total += s["end_s"] - s["start_s"] - children
    return total


# --- checks -----------------------------------------------------------------

def lp_work(lp):
    return {k: v for k, v in lp.items() if k != "solve_s"}


def layer_work(p):
    return {name: (l["calls"], lp_work(l["lp"]))
            for name, l in p["layers"].items()}


def check(doc, golden_rows=None):
    """Every failed check, as a list of messages."""
    problems = []
    passes = doc["passes"]
    first = passes[0]
    for p in passes:
        for o in p["ops"]:
            if not o["ok"]:
                problems.append(f"op {o['name']} failed: {o.get('error')}")
    # Determinism: every pass does identical work, so rows and work counts
    # must repeat exactly; a difference is a nondeterminism bug, not noise.
    for p in passes[1:]:
        if p["rows"] != first["rows"]:
            problems.append("result rows differ between passes")
        if lp_work(p["lp"]) != lp_work(first["lp"]):
            problems.append("LP work differs between passes")
        if p["counts"] != first["counts"]:
            problems.append("work counters differ between passes")
    traced = traced_passes(doc)
    for p in traced[1:]:
        if layer_work(p) != layer_work(traced[0]):
            problems.append("per-layer LP work differs between passes")
    for p in traced:
        problems += span_problems(p)

    rows = first["rows"]
    if not rows:
        problems.append("no result rows")
    if first["lp"]["iter_limit_solves"] != 0:
        problems.append("LP solves hit the iteration limit")
    for r in rows:
        for key in SCHEMES:
            if key in r and not r[key] >= 1.0 - TOL:
                problems.append(f"ratio below 1: {r}")
        if "margin" in r and r["margin"] == 1 and abs(r["base"] - 1.0) > TOL:
            problems.append(f"base ratio at margin 1 is not 1: {r}")
        if r.get("ok") is False:
            problems.append(f"serve response not ok: {r}")
    if golden_rows is not None:
        problems += row_problems(rows, golden_rows)
    return problems


def span_problems(p):
    spans = p["spans"]
    out = []
    for i, s in enumerate(spans):
        children = sum(c["end_s"] - c["start_s"] for c in spans
                       if c["parent"] == i)
        if children > s["end_s"] - s["start_s"] + 1e-9:
            out.append(f"child spans of {s['name']} exceed their parent")
    return out


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def row_problems(rows, expected):
    if len(rows) != len(expected):
        return [f"{len(rows)} rows where the golden has {len(expected)}"]
    out = []
    for r, g in zip(rows, expected):
        if set(r) != set(g):
            out.append(f"row fields differ from the golden: {r} vs {g}")
            continue
        for k, gv in g.items():
            rv = r[k]
            same = abs(rv - gv) <= TOL * max(1.0, abs(gv)) \
                if is_number(gv) and is_number(rv) else rv == gv
            if not same:
                out.append(f"{k} = {rv} where the golden has {gv}: {g}")
    return out


def golden_rows(workload):
    return json.loads(GOLDEN.read_text())["workloads"][workload]


# --- modes ------------------------------------------------------------------

def one_run(driver, workload, seed, seconds, trace):
    """Runs and checks one workload; returns (metrics, problems, attempted,
    failed)."""
    doc = run_driver(driver, workload, seed, seconds=seconds, trace=trace)
    problems = check(doc, golden_rows(workload))
    ops = [o for p in doc["passes"] for o in p["ops"]]
    metrics = per_layer(doc) if trace else end_to_end(doc)
    if trace:
        write_chrome_trace(doc)
    return metrics, problems, len(ops), sum(not o["ok"] for o in ops)


def write_chrome_trace(doc):
    """Chrome trace-event JSON of the traced passes (viewable in Perfetto)."""
    events = []
    for tid, p in enumerate(traced_passes(doc), start=1):
        for s in p["spans"]:
            events.append({
                "name": s["name"], "ph": "X", "pid": 1, "tid": tid,
                "ts": 1e6 * s["start_s"],
                "dur": 1e6 * (s["end_s"] - s["start_s"]),
                "args": {"op": s["op"], "parent": s["parent"]}})
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{doc['workload']}-seed{int(doc['seed'])}.json"
    path.write_text(json.dumps({"traceEvents": events}))
    print(f"trace: {path}", file=sys.stderr)


def print_metrics(workload, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value!r} {unit}")


def contract_mode(args):
    driver = args.driver or build(ROOT, BUILD)
    metrics, problems, attempted, failed = one_run(
        driver, args.workload, args.seed, args.seconds, bool(args.trace))
    print_metrics(args.workload, metrics)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0


def all_mode(args):
    driver = args.driver or build(ROOT, BUILD)
    bad = 0
    for w in WORKLOADS:
        for trace in (False, True):
            metrics, problems, _, _ = one_run(driver, w, args.seed,
                                              args.seconds, trace)
            print_metrics(w, metrics)
            for p in problems:
                print(f"{w} check failed: {p}")
            bad += len(problems)
    return 1 if bad else 0


def smoke_mode(args):
    driver = args.driver or build(ROOT, BUILD)
    bad = 0
    for w in WORKLOADS:
        docs = [run_driver(driver, w, args.seed, passes=2, trace=True,
                           smoke=True, threads=t) for t in (1, 4)]
        problems = [p for d in docs for p in check(d)]
        # Results and work counts are the same at any thread count.
        one, four = docs
        for a, b in zip(one["passes"], four["passes"]):
            if a["rows"] != b["rows"] or lp_work(a["lp"]) != lp_work(b["lp"]):
                problems.append("1 and 4 threads disagree")
        for d in docs:
            end_to_end(d)
            per_layer(d)
        for p in problems:
            print(f"{w} check failed: {p}")
        print(f"smoke {w}: {'ok' if not problems else 'FAILED'}")
        bad += len(problems)
    return 1 if bad else 0


def build_ref(ref):
    """Builds this benchmark over the library source of git ref `ref`, in
    build-bench-ab/<sha>/; returns the driver."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", ref],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    base = ROOT / "build-bench-ab" / sha[:12]
    src = base / "src"
    if not src.exists():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                                 check=True, capture_output=True).stdout
        src.mkdir(parents=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(src)
    # The same benchmark code, this one, measures both sides.
    shutil.rmtree(src / "benchmark", ignore_errors=True)
    shutil.copytree(HERE, src / "benchmark")
    return build(src, base / "build")


def ab_mode(args):
    """Alternates base and candidate runs (pair i uses seed + i) and reports
    per workload and metric each side's median and quartiles and the
    candidate's wins. GAIN marks the claim rule -- at least ten pairs, the
    candidate winning nine in ten, medians apart by more than the base's
    interquartile range, and no more failed ops than the base; FAILS marks
    a candidate that failed more ops. WORSE marks a candidate median worse
    than the base's by more than the metric's bound. UNRESOLVED marks a
    metric whose base spread (interquartile range over median) exceeds its
    bound, unless every candidate run beats every base run."""
    names = {"base": args.ab[0], "cand": args.ab[1]}
    drivers = {side: build_ref(ref) for side, ref in names.items()}
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    values = {}
    failed = {}
    for i in range(args.pairs):
        order = ["base", "cand"] if i % 2 == 0 else ["cand", "base"]
        for w in WORKLOADS:
            for side in order:
                metrics, problems, _, fails = one_run(
                    drivers[side], w, args.seed + i, args.seconds, False)
                failed[w, side] = failed.get((w, side), 0) + fails
                if problems:
                    print(f"{side} {w} check failed: {problems[0]}")
                for name, (v, _) in metrics.items():
                    values.setdefault((w, name), {}).setdefault(
                        side, []).append(v)
    print(f"# base {names['base']}  cand {names['cand']}  pairs {args.pairs}")
    for w in WORKLOADS:
        print(f"{w} failed ops: base {failed[w, 'base']} "
              f"cand {failed[w, 'cand']}")
    for (w, name), sides in values.items():
        base, cand = sides["base"], sides["cand"]
        sign = 1 if spec[name]["better"] == "lower" else -1
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, cand))
        q = {s: statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
             for s, v in sides.items()}
        mb, mc = statistics.median(base), statistics.median(cand)
        bound = spec[name]["bound"] * abs(mb)
        base_iqr = q["base"][2] - q["base"][0]
        fails = failed[w, "cand"] > failed[w, "base"]
        marks = {
            "GAIN": not fails and len(base) >= 10 and
            wins >= 0.9 * len(base) and sign * (mb - mc) > base_iqr,
            "FAILS": fails,
            "WORSE": sign * (mc - mb) > bound,
            "UNRESOLVED": base_iqr > bound and not all(
                sign * (b - c) > 0 for b in base for c in cand),
        }
        print(f"{w} {name} base {mb:.6g} [{q['base'][0]:.6g}, "
              f"{q['base'][2]:.6g}] cand {mc:.6g} [{q['cand'][0]:.6g}, "
              f"{q['cand'][2]:.6g}] wins {wins}/{len(base)}"
              + "".join(f" {m}" for m, on in marks.items() if on))
    return 0


def make_golden(args):
    """Takes the rows from coyote_experiments (the scenario registry)
    and checks that the driver reproduces them before writing the golden;
    serve-geant has no registry twin, so its rows are the driver's own."""
    driver = build(ROOT, BUILD)
    experiments = build(ROOT, BUILD, target="coyote_experiments")
    out = BUILD / "golden-bench"
    ids = [s for ids in GOLDEN_SCENARIOS.values() for s in ids]
    env = dict(os.environ, COYOTE_THREADS="1")
    subprocess.run([str(experiments), *ids, "--quiet", "--json-dir",
                    str(out)], check=True, env=env, stdout=subprocess.DEVNULL)
    bench = {i: json.loads((out / f"BENCH_{i}.json").read_text()) for i in ids}

    golden = {}
    bad = 0
    for w in WORKLOADS:
        doc = run_driver(driver, w, 1, passes=1)
        rows = doc["passes"][0]["rows"]
        if w == "serve-geant":
            golden[w] = rows
            continue
        expected = registry_rows(w, rows, bench)
        problems = row_problems(rows, expected)
        print(f"{w}: {len(problems)} row mismatches against "
              f"{GOLDEN_SCENARIOS[w]}")
        # Pivot totals compare only where the workload covers the
        # scenarios whole (wan-sweep keeps 5 of table1's 14 networks).
        ids = GOLDEN_SCENARIOS[w]
        if len(rows) == sum(len(bench[i]["rows"]) for i in ids):
            print(f"  pivots: driver {doc['passes'][0]['lp']['pivots']}, "
                  f"coyote_experiments "
                  f"{sum(bench[i]['lp_pivots'] for i in ids)}")
        for p in problems:
            print(f"  {p}")
        bad += len(problems)
        golden[w] = expected
    if bad:
        return 1
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"workloads": golden}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def registry_rows(workload, rows, bench):
    """The registry's rows for the results the driver reports, in the
    driver's row shape."""
    if workload == "wan-sweep":
        table = {(r["network"], r["margin"]): r
                 for r in bench["table1"]["rows"]}
        return [{k: table[(r["network"], r["margin"])][k]
                 for k in ("network", "margin", "exact", *SCHEMES)}
                for r in rows]
    if workload == "dc-fattree":
        return [{"network": r["rung"], "margin": r["margin"], "exact": False,
                 **{k: r[k] for k in SCHEMES}}
                for r in bench["scaling-fattree-k12"]["rows"]]
    out = []
    for family in GOLDEN_SCENARIOS[workload]:
        for r in bench[family]["rows"]:
            out.append({"family": family, "label": r["label"],
                        "evaluated": r["evaluated"],
                        **{k: r[k] for k in SCHEMES if k in r}})
    return out


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--driver", type=Path,
                    help="use this coyote_bench binary instead of building")
    ap.add_argument("--ab", nargs=2, metavar=("BASE", "CAND"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--make-golden", action="store_true")
    args = ap.parse_args()
    try:
        if args.make_golden:
            return make_golden(args)
        if args.ab:
            return ab_mode(args)
        if args.smoke:
            return smoke_mode(args)
        if args.workload:
            return contract_mode(args)
        return all_mode(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
