#!/usr/bin/env python3
"""Build and run the perfbench benchmark, collect result sets, compare them.

Run one workload (the form BENCHMARK.json names), from the repository root:

    python3 perfbench/run.py --workload fig4-n16 --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ (or
$CARGO_TARGET_DIR) with its build cache there too, then run; its last
line of output is the JSON result.

Collect a result set (every workload and seed runs in its own process):

    python3 perfbench/run.py collect --out a.jsonl --seeds 1-10
    python3 perfbench/run.py collect --out a.jsonl --seeds 1 --workloads fleet-shard --trace 1

Compare two result sets (medians, quartiles, delta, and whether the delta
passes each metric's bound in BENCHMARK.json), or check one set's spread:

    python3 perfbench/run.py compare a.jsonl b.jsonl
    python3 perfbench/run.py spread a.jsonl
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def build_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Builds the benchmark binary and returns its path. All of Go's
    caches and settings live in the build directory, and nothing is
    fetched: the module needs only the repository and the standard
    library."""
    out = build_dir()
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: %s holds no Go module to build" % ROOT)
    os.makedirs(out, exist_ok=True)
    r = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=BENCH, env=env)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def spans_dir():
    d = os.path.join(build_dir(), "spans")
    os.makedirs(d, exist_ok=True)
    return d


def run_one(args):
    binary = build()
    argv = [binary, "--out", spans_dir()] + args
    os.execv(binary, argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds.extend(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(opts):
    spec = load_spec()
    binary = build()
    names = opts.workloads.split(",") if opts.workloads else [w["name"] for w in spec["workloads"]]
    seconds = opts.seconds or spec["run_seconds"]
    failed = 0
    with open(opts.out, "a") as out:
        for seed in parse_seeds(opts.seeds):
            for name in names:
                t0 = time.time()
                r = subprocess.run(
                    [binary, "--out", spans_dir(), "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(opts.trace)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = r.stdout.strip().splitlines()
                print("\n".join(lines[:-1]))
                result = None
                if r.returncode == 0 and lines:
                    result = json.loads(lines[-1])
                else:
                    failed += 1
                    print("perfbench: %s seed %d exited %d" % (name, seed, r.returncode), file=sys.stderr)
                print("  (%s seed %d: %.1f s wall)" % (name, seed, time.time() - t0))
                out.write(json.dumps({"workload": name, "seed": seed, "trace": opts.trace,
                                      "seconds": seconds, "result": result}) + "\n")
                out.flush()
    return 1 if failed else 0


def load_set(path):
    """Groups a result set's values: {workload: {metric: [values]}}."""
    sets = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if row["result"] is None:
                continue
            m = sets.setdefault((row["workload"], row["trace"]), {})
            for k, v in row["result"]["metrics"].items():
                m.setdefault(k, []).append(v["value"])
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], statistics.median(values), values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs(spec, trace):
    if trace:
        return [dict(m, bound=None) for m in spec["per_layer"]]
    return spec["end_to_end"]


def compare(opts):
    spec = load_spec()
    a, b = load_set(opts.a), load_set(opts.b)
    worse_any = False
    for (workload, trace) in sorted(set(a) & set(b)):
        print("%s (trace %d)" % (workload, trace))
        print("  %-20s %-6s %36s %36s %9s  %s" % ("metric", "unit", "A q1 / median / q3", "B q1 / median / q3", "delta", "verdict"))
        for m in metric_specs(spec, trace):
            va, vb = a[(workload, trace)].get(m["name"]), b[(workload, trace)].get(m["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            worse = delta if m["better"] == "lower" else -delta
            if m.get("bound") is None:
                verdict = "no bound"
            elif worse > m["bound"]:
                verdict = "WORSE beyond bound %.2f" % m["bound"]
                worse_any = True
            else:
                verdict = "within bound %.2f" % m["bound"]
            print("  %-20s %-6s %11.5g /%11.5g /%11.5g %11.5g /%11.5g /%11.5g %+8.2f%%  %s  (n=%d/%d)" % (
                m["name"], m["unit"], qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], 100 * delta, verdict, len(va), len(vb)))
    return 1 if worse_any else 0


def spread(opts):
    """Prints each metric's quartile spread as a share of its median,
    against its bound and a third of it."""
    spec = load_spec()
    sets = load_set(opts.set)
    wide = False
    for (workload, trace) in sorted(sets):
        if trace:
            continue
        print(workload)
        for m in spec["end_to_end"]:
            vals = sets[(workload, trace)].get(m["name"])
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            s = (q3 - q1) / q2 if q2 else float("inf")
            ok = s <= m["bound"] / 3 or m["name"] == "setup_s"
            wide = wide or not ok
            print("  %-14s median %11.5g  spread %6.2f%%  bound %4.0f%%  %s  (n=%d)" % (
                m["name"], q2, 100 * s, 100 * m["bound"], "ok" if ok else "WIDER than bound/3", len(vals)))
    return 1 if wide else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("collect", "compare", "spread"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "collect":
            p.add_argument("--out", required=True)
            p.add_argument("--seeds", default="1-10")
            p.add_argument("--workloads", default="")
            p.add_argument("--seconds", type=int, default=0)
            p.add_argument("--trace", type=int, default=0)
            return collect(p.parse_args(argv[1:]))
        if argv[0] == "compare":
            p.add_argument("a")
            p.add_argument("b")
            return compare(p.parse_args(argv[1:]))
        p.add_argument("set")
        return spread(p.parse_args(argv[1:]))
    run_one(argv)


if __name__ == "__main__":
    sys.exit(main())
