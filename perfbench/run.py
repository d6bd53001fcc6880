#!/usr/bin/env python3
"""Build and run the tquad benchmark.

Run from the root of a tquad checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build perfbench/tqbench.exe, run one workload and print its output;
      the last line is the result object.  --trace 1 gives the per-layer
      metrics and writes the run's spans to .perfbench/traces/.

  python3 perfbench/run.py sweep --out FILE [--workloads a,b] [--seeds 1-10]
                                 [--seconds S] [--trace 0|1]
      Run every workload once per seed and append one JSON line per run
      (workload, seed, trace, wall, result) to FILE.

  python3 perfbench/run.py spread FILE
      Per workload and metric: run count, median, quartiles, and the
      quartile spread as a share of the median next to the metric's bound.

  python3 perfbench/run.py compare OLD_DIR NEW_DIR [--seeds 1-10]
                                   [--traced-seeds 1] [--workloads a,b]
                                   [--seconds S] [--out DIR]
      Run two checkouts (for example the parent commit's and this one's),
      each with its own perfbench/run.py and build, alternately: for each
      workload and seed one run of each side, the side that goes first
      changing every time, then the traced runs the same way.  Writes
      DIR/old.jsonl and DIR/new.jsonl (default .perfbench/compare) and
      prints their report.

  python3 perfbench/run.py report OLD NEW
      For two sweep files: per workload and end-to-end metric, the
      medians, the quartiles and a verdict under BENCHMARK.json's bounds;
      then the per-layer median deltas of the traced runs.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join(".bench_build", "default", "perfbench", "tqbench.exe")
OUT = ".perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a tquad checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", ".bench_build", "./perfbench/tqbench.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed", proc.returncode)


def run_once(spec, workload, seed, seconds, trace):
    """Run the executable; returns (exit code, output lines, result or None).

    The executable prints what it measured, by bare name; the result gets
    BENCHMARK.json's metrics for the mode, with their units; a traced run
    also measures the end-to-end metrics, which are left out.  A per-layer
    metric the run did not print is not on the workload's path and reads
    0; a missing end-to-end metric, one that could not be measured (null)
    or a name BENCHMARK.json does not list makes the result incorrect."""
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        return 124, out.splitlines() + ["perfbench: run timed out"], None
    finally:
        # the executable removes its scratch directory itself unless killed
        shutil.rmtree(os.path.join(OUT, "work-%d" % proc.pid), ignore_errors=True)
    lines = out.splitlines()
    try:
        raw = json.loads(lines[-1])
        measured = raw["metrics"]
        correct = raw["correct"] is True
        attempted, failed = int(raw["attempted"]), int(raw["failed"])
    except (IndexError, ValueError, KeyError, TypeError):
        return proc.returncode or 1, lines + ["perfbench: no result from the run"], None
    want = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    problems = ["%s is not in BENCHMARK.json" % n for n in sorted(set(measured) - known)]
    metrics = {}
    for m in want:
        name = m["name"]
        if name in measured:
            value = measured[name]
            if value is None:
                problems.append("%s could not be measured" % name)
        elif trace:
            value = 0
        else:
            value = None
            problems.append("%s was not measured" % name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    result = {"correct": correct and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    lines = lines[:-1] + ["perfbench: " + p for p in problems] + [json.dumps(result)]
    code = proc.returncode if proc.returncode else (0 if result["correct"] else 1)
    return code, lines, result


def single(argv):
    opts = parse_opts(argv, {"--workload": None, "--seed": "1",
                             "--seconds": None, "--trace": "0"})
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if opts["--workload"] not in names:
        fail("--workload must be one of %s" % ", ".join(names))
    seconds = opts["--seconds"] or str(spec["run_seconds"])
    build()
    code, lines, result = run_once(spec, opts["--workload"], int(opts["--seed"]),
                                   seconds, int(opts["--trace"]))
    for line in lines:
        print(line)
    sys.stdout.flush()
    if result is None and code == 0:
        code = 1
    sys.exit(code)


def parse_opts(argv, defaults):
    opts = dict(defaults)
    i = 0
    while i < len(argv):
        key = argv[i]
        if key not in opts or i + 1 >= len(argv):
            fail("unexpected argument %s" % key)
        opts[key] = argv[i + 1]
        i += 2
    return opts


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def sweep(argv):
    spec = load_spec()
    opts = parse_opts(argv, {"--out": None, "--seeds": "1-10", "--seconds": None,
                             "--trace": "0",
                             "--workloads": ",".join(w["name"] for w in spec["workloads"])})
    if not opts["--out"]:
        fail("sweep needs --out FILE")
    seconds = opts["--seconds"] or str(spec["run_seconds"])
    trace = int(opts["--trace"])
    build()
    bad = 0
    with open(opts["--out"], "a") as out:
        for workload in opts["--workloads"].split(","):
            for seed in seed_list(opts["--seeds"]):
                t0 = time.time()
                code, lines, result = run_once(spec, workload, seed, seconds, trace)
                wall = time.time() - t0
                ok = code == 0 and result is not None and result["correct"]
                bad += not ok
                out.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                      "wall_s": wall, "exit": code,
                                      "result": result}) + "\n")
                out.flush()
                print("%-10s seed %-4d %6.1fs %s" % (workload, seed, wall,
                                                   "ok" if ok else "FAILED"))
                if not ok:
                    print("\n".join("    " + l for l in lines[-8:]))
                sys.stdout.flush()
    sys.exit(1 if bad else 0)


def load_runs(path):
    """{(workload, trace): {metric: {seed: value}}} from a sweep file."""
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            res = rec.get("result")
            if not res or not res.get("correct"):
                continue
            by = runs.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in res["metrics"].items():
                by.setdefault(name, {})[rec["seed"]] = m["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def spread(argv):
    if len(argv) != 1:
        fail("spread takes one sweep file")
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = load_runs(argv[0])
    worst = 0.0
    for (workload, trace), metrics in sorted(runs.items()):
        print("%s (trace %d)" % (workload, trace))
        for name, by_seed in metrics.items():
            values = list(by_seed.values())
            q1, q2, q3 = quartiles(values)
            s = rel_spread(values)
            line = "  %-24s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%" % (
                name, len(values), q2, q1, q3, 100 * s)
            if not trace and name in bounds:
                bound = bounds[name]["bound"]
                line += "  bound %4.1f%%  %s" % (100 * bound,
                                                 "ok" if s < bound / 3 else "WIDE")
                if name != "setup_s":
                    worst = max(worst, s / bound)
            print(line)
    print("widest spread / bound (setup_s aside): %.2f" % worst)


def verdict(old, new, bound, better):
    """better, worse, unchanged or unresolved; old and new map seed to value.

    unresolved: either side's quartile spread is wider than the bound, and
    not every new run beats every old one.  better: the new side wins at
    least nine tenths of the seed pairs (ties count for neither) and the
    medians differ by more than the old side's quartile spread.  worse:
    the new median is worse than the old by more than the bound."""
    sign = 1 if better == "lower" else -1
    o, n = list(old.values()), list(new.values())
    om, nm = statistics.median(o), statistics.median(n)
    if max(rel_spread(o), rel_spread(n)) > bound:
        if all(sign * (b - a) < 0 for b in n for a in o):
            return "better"
        return "unresolved"
    seeds = [k for k in old if k in new]
    wins = sum(sign * (new[k] - old[k]) < 0 for k in seeds)
    q1, _, q3 = quartiles(o)
    if seeds and wins >= 0.9 * len(seeds) and sign * (nm - om) < 0 and abs(nm - om) > q3 - q1:
        return "better"
    if sign * (nm - om) / abs(om) > bound:
        return "worse"
    return "unchanged"


def report(argv):
    if len(argv) != 2:
        fail("report takes two sweep files: OLD NEW")
    spec = load_spec()
    old, new = load_runs(argv[0]), load_runs(argv[1])
    print("end-to-end (median [q1, q3]; verdict under BENCHMARK.json bounds)")
    for w in spec["workloads"]:
        key = (w["name"], 0)
        if key not in old or key not in new:
            continue
        print(w["name"])
        for m in spec["end_to_end"]:
            a, b = old[key].get(m["name"]), new[key].get(m["name"])
            if not a or not b:
                continue
            a1, am, a3 = quartiles(list(a.values()))
            b1, bm, b3 = quartiles(list(b.values()))
            print("  %-16s old %-10.5g [%.5g, %.5g]  new %-10.5g [%.5g, %.5g]  %+6.2f%%  %s" % (
                m["name"], am, a1, a3, bm, b1, b3, 100 * (bm - am) / abs(am),
                verdict(a, b, m["bound"], m["better"])))
    print("per-layer (traced runs; median old -> new)")
    for w in spec["workloads"]:
        key = (w["name"], 1)
        if key not in old or key not in new:
            continue
        print(w["name"])
        for m in spec["per_layer"]:
            a, b = old[key].get(m["name"]), new[key].get(m["name"])
            if not a or not b:
                continue
            am, bm = statistics.median(a.values()), statistics.median(b.values())
            if am == 0 and bm == 0:
                continue
            pct = "%+7.2f%%" % (100 * (bm - am) / abs(am)) if am else "    new"
            print("  %-24s %-12.6g -> %-12.6g %s %s" % (m["name"], am, bm, pct, m["unit"]))


def compare(argv):
    """Run two checkouts alternately, seed by seed, then report."""
    if len(argv) < 2:
        fail("compare takes two checkout directories: OLD NEW [options]")
    spec = load_spec()
    sides = {"old": os.path.abspath(argv[0]), "new": os.path.abspath(argv[1])}
    opts = parse_opts(argv[2:], {"--out": os.path.join(OUT, "compare"),
                                 "--seeds": "1-10", "--traced-seeds": "1",
                                 "--seconds": str(spec["run_seconds"]),
                                 "--workloads": ",".join(w["name"] for w in spec["workloads"])})
    os.makedirs(opts["--out"], exist_ok=True)
    files = {side: os.path.join(opts["--out"], side + ".jsonl") for side in sides}
    for path in files.values():
        open(path, "w").close()
    plan = [(w, seed, 0) for w in opts["--workloads"].split(",")
            for seed in seed_list(opts["--seeds"])]
    plan += [(w, seed, 1) for w in opts["--workloads"].split(",")
             for seed in seed_list(opts["--traced-seeds"])]
    bad = 0
    for i, (workload, seed, trace) in enumerate(plan):
        # alternate which side goes first, so a drift in the machine's
        # speed within a pair falls on both sides alike
        for side in (("old", "new") if i % 2 == 0 else ("new", "old")):
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", opts["--seconds"], "--trace", str(trace)]
            t0 = time.time()
            try:
                proc = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.PIPE,
                                      text=True, timeout=BUILD_TIMEOUT_S + RUN_TIMEOUT_S)
                code, lines = proc.returncode, proc.stdout.splitlines()
            except subprocess.TimeoutExpired:
                code, lines = 124, []
            wall = time.time() - t0
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            ok = code == 0 and result is not None and result.get("correct") is True
            bad += not ok
            with open(files[side], "a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                      "wall_s": wall, "exit": code, "result": result}) + "\n")
            print("%-3s %-10s seed %-4d trace %d %6.1fs %s" % (
                side, workload, seed, trace, wall, "ok" if ok else "FAILED"))
            sys.stdout.flush()
    report([files["old"], files["new"]])
    sys.exit(1 if bad else 0)


def main():
    argv = sys.argv[1:]
    commands = {"sweep": sweep, "spread": spread, "report": report, "compare": compare}
    if argv and argv[0] in commands:
        commands[argv[0]](argv[1:])
    else:
        single(argv)


if __name__ == "__main__":
    main()
