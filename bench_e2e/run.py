#!/usr/bin/env python3
"""End-to-end placement benchmark runner (README.md beside this file).

One workload for a time budget; the last stdout line is one JSON object
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
Every run of a workload places the same design, whatever the seed:
    python3 bench_e2e/run.py --workload NAME --seed N --seconds T --trace 0|1
Every workload, fixed repetitions, medians and quartiles, JSON record;
--seed or --holdout replaces the design generator seed:
    python3 bench_e2e/run.py --all [--seed N | --holdout] --out FILE
Verdict per (workload, metric) between two --all records:
    python3 bench_e2e/run.py --compare OLD.json NEW.json
Smoke check of both binaries on a small design:
    python3 bench_e2e/run.py --smoke

The runner builds both binaries itself (CMake, into .bench_build at the
repository root) and starts one child process per repetition, one at a
time, so every sample starts with cold caches.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = os.cpu_count() or 1
THREADS = min(4, NPROC)
# Whole runs must end within 180 s; no single child gets longer than this.
CHILD_TIMEOUT_S = 150
# One setup_s sample is the fastest of this many set-up children.
SETUP_ROUND = 10

# Why each workload exists: README.md. `seed` is the suite profile's
# generator seed; `holdout_seed` was kept out of development, for checking
# a performance claim afterwards.
WORKLOADS = {
    "route_congested": dict(design="des_perf_a", scale=0.5, threads=THREADS,
                            rudy=False, reps=5, seed=12, holdout_seed=1012),
    "route_congested_1t": dict(design="des_perf_a", scale=0.5, threads=1,
                               rudy=False, reps=5, seed=12, holdout_seed=1012),
    "rudy_large": dict(design="superblue12", scale=1.0, threads=THREADS,
                       rudy=True, reps=5, seed=27, holdout_seed=1027),
    "small_grid": dict(design="fft_1", scale=1.0, threads=THREADS,
                       rudy=False, reps=9, seed=15, holdout_seed=1015),
}
SMOKE = {"smoke": dict(design="fft_1", scale=0.25, threads=THREADS,
                       rudy=False, reps=1, seed=15)}
# Results are bitwise identical for any thread count.
SAME_DIGEST = [("route_congested", "route_congested_1t")]

# Per-layer metrics that must be non-zero after a traced rep: a zero means
# a wrapper was bypassed (inlined, or the call moved into the callee's
# object file) or the layer stopped running.
EXPECTED_NONZERO = [
    "place.objective_calls", "place.nesterov_calls", "place.stage2_s",
    "wa.calls", "density.calls", "poisson.calls", "net_moving.calls",
    "cfield.self_s", "congestion.map_s", "route.calls", "route.pattern_calls",
    "route.layer_assign_s", "eval.route_s", "eval.drv_proxy_s",
    "pinaccess.rails_s", "pinaccess.dpa_s", "legal.tetris_s",
    "legal.abacus_s", "legal.dp_s", "audit.calls", "db.read_s",
]
EXPECTED_NONZERO_ROUTER = ["route.conns_total", "route.rrr_rounds"]
EXPECTED_NONZERO_RUDY = ["rudy.calls"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---- build ------------------------------------------------------------------

def build(build_dir):
    """Configure once, then bring both binaries up to date. Exits non-zero,
    printing no result, when the sources cannot be built."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(THREADS),
                  "--target", "rdp_e2e", "rdp_e2e_traced"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("bench_e2e: build failed: " + " ".join(cmd))
    return build_dir / "rdp_e2e", build_dir / "rdp_e2e_traced"


# ---- children -----------------------------------------------------------------

def child_env(threads):
    """Pin every RDP_* behaviour knob to its default, so nothing inherited
    from the shell (RDP_INCREMENTAL, RDP_REBUILD_EPOCH, RDP_AUDIT,
    RDP_CHECKPOINT_DIR, RDP_RESUME, RDP_FAULT, RDP_CRASH, ...) can skew a
    run; only the workload's RDP_THREADS is set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RDP_")}
    env["RDP_THREADS"] = str(threads)
    return env


def run_child(cmd, env):
    """Run one child to completion; returns (last stdout line as JSON,
    error)."""
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if p.returncode != 0:
        tail = p.stderr.strip().splitlines()[-3:]
        return None, f"exit {p.returncode}: " + " | ".join(tail)
    try:
        return json.loads(p.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "no JSON result line"


def generate(binary, build_dir, w, seed):
    """Write the workload's design for `seed`; returns (path, info)."""
    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"{w['design']}-{w['scale']}-{seed}.txt"
    info, err = run_child([str(binary), "gen", f"--design={w['design']}",
                           f"--scale={w['scale']}", f"--seed={seed}",
                           f"--out={path}"], child_env(1))
    if err:
        sys.exit(f"bench_e2e: generating {w['design']} failed: {err}")
    return path, info


def setup_round(binary, design, reps):
    """Adds one setup_s sample to `reps`: the fastest of SETUP_ROUND fresh
    set-up children. A read is short enough to run on one vCPU throughout,
    and on the recording host (shared with other tenants) a vCPU runs at
    about half speed for seconds at a time, a different one from moment to
    moment: the same read takes 16 ms or 30 ms. The mean of a round follows
    how many vCPUs are slow at that moment; its fastest child does not."""
    times = []
    for _ in range(SETUP_ROUND):
        res, err = run_child([str(binary), "setup", f"--input={design}"],
                             child_env(1))
        if err:
            reps.problems.append(f"{reps.name}: set-up child: {err}")
            return
        times.append(res["setup_s"])
    reps.setup_s.append(min(times))


def run_rep(binary, design, info, w):
    """One repetition in a fresh child; returns (result, error)."""
    cmd = [str(binary), "rep", f"--input={design}",
           f"--bins={info['grid_bins']}"]
    if w["rudy"]:
        cmd.append("--rudy")
    rep, err = run_child(cmd, child_env(w["threads"]))
    if rep is not None:
        problems = []
        if rep["cells_failed"] > 0:
            problems.append(f"{rep['cells_failed']} cells failed legalization")
        if not rep["legal"]:
            problems.append("final placement is not legal")
        if rep["recovered"]:
            problems.append("a recovery (degraded or rolled-back) path ran")
        err = "; ".join(problems) or None
    return rep, err


class Reps:
    """Repetitions of one workload on one design. A rep fails when its
    child fails or its result is not legal or needed recovery. With
    `strict`, it also fails when its digest differs from the first rep's
    (traced reps included: tracing must not change a bit of the result).
    Without it, a differing digest is logged and counted in
    `digests`: the placement is still legal, only not reproducible."""

    def __init__(self, name, strict=True):
        self.name = name
        self.strict = strict
        self.untraced = []
        self.traced = []
        self.setup_s = []  # from setup_round
        self.attempted = 0
        self.problems = []
        self.digest = None
        self.digests = set()

    def add(self, result, traced=False):
        rep, err = result
        self.attempted += 1
        if err is None and self.digest not in (None, rep["digest"]):
            msg = f"digest {rep['digest']} differs from {self.digest}"
            if self.strict:
                err = msg
            else:
                log(f"{self.name}: rep {self.attempted}: {msg}: the result "
                    "is not reproducible")
        if err is not None:
            self.problems.append(f"{self.name}: rep {self.attempted}: {err}")
            return
        self.digest = self.digest or rep["digest"]
        self.digests.add(rep["digest"])
        (self.traced if traced else self.untraced).append(rep)

    @property
    def failed(self):
        return self.attempted - len(self.untraced) - len(self.traced)

    def e2e_samples(self):
        """End-to-end samples per metric: set-up from setup_round, the rest
        from the untraced reps."""
        s = {"setup_s": self.setup_s}
        for k in ("place_s", "eval_s", "peak_rss_mb", "hpwl", "drwl", "vias",
                  "drvs"):
            s[k] = [float(r[k]) for r in self.untraced]
        return s

    def layer_samples(self):
        """Per-layer samples: wrapper metrics from traced reps; process CPU
        from untraced ones; the tracing overhead between the two."""
        tr, un = self.traced, self.untraced
        s = {k: [float(r["layers"][k]) for r in tr] for k in tr[0]["layers"]}
        s["proc.place_cpu_s"] = [r["place_cpu_s"] for r in un]
        s["proc.place_cpu_util"] = [r["place_cpu_s"] / r["place_s"] for r in un]
        base = statistics.median(r["place_s"] for r in un)
        s["trace.overhead_pct"] = [100.0 * (r["place_s"] / base - 1.0)
                                   for r in tr]
        s["determinism.distinct_digests"] = [float(len(self.digests))]
        return s


def summary(values):
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return dict(median=statistics.median(values), q1=q1, q3=q3,
                n=len(values), values=values)


# ---- time-budget mode (the benchmark contract) -----------------------------------

def run_budget(args):
    """One workload for args.seconds. The design is the workload's own
    (its suite seed) on every --seed: the quality metrics are then exact,
    and held to bounds far tighter than their spread across designs, and
    the times differ from run to run only by host noise."""
    spec = load_spec()
    w = WORKLOADS[args.workload]
    untraced_bin, traced_bin = build(args.build_dir)
    design, info = generate(untraced_bin, args.build_dir, w, w["seed"])

    # Closed loop, one child at a time. A rep, with the set-up round before
    # it, starts only if the median rep so far still fits in the budget;
    # with --trace 1 reps alternate untraced/traced, at least one of each.
    reps = Reps(args.workload, strict=False)
    durations = []
    start = time.monotonic()
    while reps.failed < 3:
        needed = not reps.untraced or (args.trace and not reps.traced)
        elapsed = time.monotonic() - start
        if not needed and elapsed + statistics.median(durations) > args.seconds:
            break
        traced = bool(args.trace) and len(reps.traced) < len(reps.untraced)
        t0 = time.monotonic()
        if not args.trace:
            setup_round(untraced_bin, design, reps)
        reps.add(run_rep(traced_bin if traced else untraced_bin, design, info, w),
                 traced)
        durations.append(time.monotonic() - t0)

    metrics = {}
    if reps.untraced and (reps.traced or not args.trace):
        samples = reps.layer_samples() if args.trace else reps.e2e_samples()
        for m in spec["per_layer" if args.trace else "end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(samples[m["name"]]),
                                  "unit": m["unit"]}
    for p in reps.problems:
        log(p)
    correct = not reps.problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": reps.attempted,
                      "failed": reps.failed, "metrics": metrics}))
    return 0 if correct else 1


# ---- suite mode -----------------------------------------------------------------

def run_workload(name, w, seed, binaries, build_dir):
    untraced_bin, traced_bin = binaries
    design, info = generate(untraced_bin, build_dir, w, seed)
    log(f"{name}: {w['design']} x{w['scale']}, {info['cells']} cells, "
        f"grid {info['grid_bins']}, seed {seed}, {w['threads']} threads, "
        f"{w['reps']} reps + 1 traced")
    reps = Reps(name)
    for _ in range(w["reps"]):
        setup_round(untraced_bin, design, reps)
        reps.add(run_rep(untraced_bin, design, info, w))
    reps.add(run_rep(traced_bin, design, info, w), traced=True)
    rec = dict(design=w["design"], scale=w["scale"], cells=info["cells"],
               seed=seed, threads=w["threads"], digest=reps.digest,
               attempted=reps.attempted, failed=reps.failed,
               failed_runs=reps.failed / reps.attempted,
               problems=reps.problems, metrics={}, layers={},
               simd=reps.untraced[0]["simd"] if reps.untraced else None)
    if reps.untraced:
        rec["metrics"] = {k: summary(v) for k, v in reps.e2e_samples().items()}
    if reps.untraced and reps.traced:
        rec["layers"] = {k: statistics.median(v)
                         for k, v in reps.layer_samples().items()}
    return rec


def print_record(name, rec, units):
    print(f"\n{name}: {rec['design']} x{rec['scale']}, {rec['cells']} cells, "
          f"seed {rec['seed']}, {rec['threads']} threads, digest {rec['digest']}")
    print(f"  {'metric':<14}{'unit':<7}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for k, s in rec["metrics"].items():
        print(f"  {k:<14}{units.get(k, 'count'):<7}{s['median']:>14.6g}"
              f"{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>4}")
    print(f"  {'failed_runs':<14}{'ratio':<7}{rec['failed_runs']:>14.6g}"
          f"{'':>28}{rec['attempted']:>4}")
    for k, v in rec["layers"].items():
        print(f"    {k:<30}{units.get(k, ''):<7}{v:>14.6g}")
    for p in rec["problems"]:
        print(f"  FAILED {p}")


def layer_problems(name, w, rec, spec):
    """Smoke checks on one workload record with a traced rep."""
    problems = [f"{name}: end-to-end metric {m['name']} missing"
                for m in spec["end_to_end"] if m["name"] not in rec["metrics"]]
    if rec["failed"]:
        problems.append(f"{name}: failed_runs = {rec['failed_runs']}")
    L = rec["layers"]
    problems += [f"{name}: per-layer metric {m['name']} missing"
                 for m in spec["per_layer"] if m["name"] not in L]
    expected = EXPECTED_NONZERO + (EXPECTED_NONZERO_RUDY if w["rudy"]
                                   else EXPECTED_NONZERO_ROUTER)
    problems += [f"{name}: {k} is 0 (wrapper bypassed or layer not run)"
                 for k in expected if not L.get(k, 0) > 0]
    if L and abs(L["place.self_s"] + L["place.explained_s"] - L["place.s"]) \
            > 0.01 * L["place.s"]:
        problems.append(f"{name}: self times do not add up to place.s")
    return problems


def run_suite(args, workloads, smoke=False):
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    binaries = build(args.build_dir)
    out = dict(nproc=NPROC, threads=THREADS, workloads={})
    problems = []
    for name, w in workloads.items():
        seed = (args.seed if args.seed is not None
                else w["holdout_seed"] if args.holdout else w["seed"])
        rec = run_workload(name, w, seed, binaries, args.build_dir)
        simd = rec.pop("simd")
        out["simd"] = out.get("simd") or simd
        out["workloads"][name] = rec
        problems += rec["problems"]
        if smoke:
            problems += layer_problems(name, w, rec, spec)
        print_record(name, rec, units)
    for a, b in SAME_DIGEST:
        da = out["workloads"].get(a, {}).get("digest")
        db = out["workloads"].get(b, {}).get("digest")
        if da and db and da != db:
            problems.append(f"{a} digest {da} != {b} digest {db}: results "
                            "must be bitwise identical across thread counts")
    out["correct"] = not problems
    out["problems"] = problems
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    for p in problems:
        print("FAILED", p)
    return 0 if not problems else 1


# ---- compare ----------------------------------------------------------------------

def verdict(old, new, bound, better):
    """(verdict, relative change, spread) for one metric; change > 0 is
    worse. When the run-to-run spread (quartile distance over median) is
    wider than the bound, the metric is unresolved unless every new run
    beats, or loses to, every old run."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new["median"] - old["median"]) / old["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (old, new))
    o = [sign * x for x in old["values"]]
    n = [sign * x for x in new["values"]]
    if spread > bound:
        if max(n) < min(o):
            return "improved", change, spread
        if min(n) > max(o) and change > bound:
            return "regressed", change, spread
        return "unresolved", change, spread
    if change > bound:
        return "regressed", change, spread
    if change < -bound:
        return "improved", change, spread
    return "unchanged", change, spread


def compare(old_path, new_path):
    spec = load_spec()
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    regressed = False
    print(f"{'workload':<20}{'metric':<13}{'old':>13}{'new':>13}"
          f"{'change':>9}{'spread':>9}{'bound':>8}  verdict")
    for wl, orec in old["workloads"].items():
        nrec = new["workloads"].get(wl)
        if nrec is None:
            print(f"{wl:<20}missing from {new_path}")
            continue
        for m in spec["end_to_end"]:
            o, n = orec["metrics"][m["name"]], nrec["metrics"][m["name"]]
            v, change, spread = verdict(o, n, m["bound"], m["better"])
            regressed |= v == "regressed"
            print(f"{wl:<20}{m['name']:<13}{o['median']:>13.6g}"
                  f"{n['median']:>13.6g}{100 * change:>8.2f}%"
                  f"{100 * spread:>8.2f}%{100 * m['bound']:>7.1f}%  {v}")
        same = orec["digest"] == nrec["digest"]
        print(f"{wl:<20}{'digest':<13}{orec['digest']:>17}{nrec['digest']:>17}"
              f"  {'same bits' if same else 'results changed'}")
    return 1 if regressed else 0


# ---- main ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int,
                    help="with --all: design generator seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--holdout", action="store_true",
                    help="with --all: each workload's holdout seed")
    ap.add_argument("--out", help="with --all or --smoke: JSON record path")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return run_suite(args, SMOKE, smoke=True)
    if args.all:
        return run_suite(args, WORKLOADS)
    if args.workload is None:
        ap.error("need --workload, --all, --compare or --smoke")
    return run_budget(args)


if __name__ == "__main__":
    sys.exit(main())
