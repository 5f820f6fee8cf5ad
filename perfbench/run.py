"""Benchmark of segal-abacus: suite-level workloads in cold processes.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 38 --trace 0

Run from the root of a checkout.  Each pass of a workload is one fresh
interpreter that runs the workload once, with no warm-up call, because
``run-suite`` users pay any cache fill on every invocation.  With
``--trace 0`` passes run two at once (one per CPU) in rounds, repeated
while at least half of the next round fits in ``--seconds`` (there is
always one); times are scaled to a reference host speed (``hostspeed``)
and the end-to-end metrics are medians over the run's passes.
With ``--trace 1`` one untraced pass, two traced passes (whose counters
must agree exactly) and a probe process give the per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the run's record:
host, revision, seed, fixture counts, report and stdout sha256 and every
verdict mismatch.  Both are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    CLI_STEPS,
    END_TO_END,
    EXPECTED,
    FIXTURE_ENTRY,
    KNOWN_DEFECTS,
    PROBE_TRUNC,
    WORKLOADS,
    per_layer_metrics,
)

RUN_LIMIT_S = 170  # every child is stopped by then, inside the 180 s allowance
SETUP_PER_ROUND = 4
STARTUP_SAMPLES = 3
# Run as ``python -c IMPORT_TIMER <perfbench dir>``: the import time at the
# reference speed, sampled in the importing process just before and after.
IMPORT_TIMER = """import sys, time
sys.path.insert(0, sys.argv[1])
from hostspeed import BOUNDARY_RUNS, HostSpeed
speed = HostSpeed()
speed.sample(runs=BOUNDARY_RUNS)
t = time.perf_counter()
import segal_abacus
took = time.perf_counter() - t
speed.sample(runs=BOUNDARY_RUNS)
print(took * speed.factor())
"""


class Run:
    """One benchmark invocation: its children, deadline and findings."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.problems = []  # reasons the run is not correct

    def children(self, cmds):
        """Run cmds at once, each in its own process group, until all have
        ended; [(code, stdout, seconds)] in the order of cmds."""
        t0 = perf_counter()
        procs, results = [], []
        try:
            for cmd in cmds:
                procs.append(subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                              start_new_session=True))
            for cmd, proc in zip(cmds, procs):
                try:
                    out, err = proc.communicate(
                        timeout=max(1.0, self.deadline - perf_counter()))
                except subprocess.TimeoutExpired:
                    self.problems.append(f"timed out: {cmd[1:4]}")
                    results.append((None, b"", perf_counter() - t0))
                    continue
                if proc.returncode != 0:
                    self.problems.append(f"exit {proc.returncode}: {cmd[1:4]}: "
                                         f"{err.decode(errors='replace')[-300:]}")
                results.append((proc.returncode, out, perf_counter() - t0))
        finally:  # also on SIGTERM: stop every child and everything it started
            for proc in procs:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()
        return results

    def child(self, cmd):
        return self.children([cmd])[0]

    def workers(self, n, *args):
        """n worker processes with the same arguments at once; each one's
        JSON result, or None if it failed, and the seconds until all ended."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
        ends = self.children([cmd] * n)
        results = [json.loads(out.decode().strip().splitlines()[-1]) if code == 0 else None
                   for code, out, _ in ends]
        return results, max(took for _, _, took in ends)

    def worker(self, *args):
        results, took = self.workers(1, *args)
        return results[0], took

    def timed_children(self, cmd, n):
        """Median wall time of n runs of cmd, each a fresh process."""
        return median(self.child(cmd)[2] for _ in range(n))

    def sample_setup(self, samples: list, n: int) -> None:
        """Add n timings of a fresh interpreter importing segal_abacus."""
        for _ in range(n):
            code, out, _ = self.child([sys.executable, "-c", IMPORT_TIMER, HERE])
            if code == 0:
                samples.append(float(out.decode().strip()))

    def plain_passes(self, n):
        return self.workers(n, "pass", "--workload", self.workload, "--seed", str(self.seed))

    def traced_pass(self, k: int):
        spans = os.path.join(OUT, f"{self.workload}-seed{self.seed}-spans{k}.json")
        result, _ = self.worker("pass", "--workload", self.workload, "--seed", str(self.seed),
                                "--spans", spans)
        return result


def judge(passes, problems):
    """Compare every pass's steps with the expected-verdict table.

    Returns (attempted, failed, mismatches).  A mismatch outside
    KNOWN_DEFECTS, or a report that differs between passes, is a problem.
    """
    attempted = failed = 0
    mismatches = []
    digests = {}
    expected_exit = {name: code for name, _, code in CLI_STEPS}
    for p in passes:
        for step in p["steps"]:
            name = step["step"]
            if digests.setdefault(name, step.get("sha256")) != step.get("sha256"):
                problems.append(f"{name}: output differs between passes")
            if name in expected_exit:
                attempted += 1
                if step["exit"] != expected_exit[name]:
                    failed += 1
                    mismatches.append((name, "exit", expected_exit[name], step["exit"]))
                continue
            want = EXPECTED[name]
            got = step.get("verdicts", {})
            for eid in sorted(set(want) | set(got)):
                attempted += 1
                if got.get(eid) != want.get(eid):
                    failed += 1
                    mismatches.append((name, eid, want.get(eid), got.get(eid)))
    for name, eid, want, got in mismatches:
        if (name, eid) not in KNOWN_DEFECTS:
            problems.append(f"{name} {eid}: expected {want}, got {got}")
    return attempted, failed, sorted(set(mismatches), key=str)


def layer_metrics(run, plain, traced, probes, startup):
    """Per-layer metric values from one untraced pass, two traced passes and probes."""
    values = {}
    tot1, tot2 = (t["trace"]["totals"] for t in traced)
    for layer in set(tot1) | set(tot2):
        for stat, v in tot1.get(layer, {}).items():
            if stat != "self_s" and tot2.get(layer, {}).get(stat) != v:
                run.problems.append(f"{layer}.{stat} differs between traced passes")
    steps = {s["step"]: s["wall_s"] for s in plain["steps"]}
    roots = set(traced[0]["trace"]["roots"])
    layer_self = 0.0
    for name, _, _ in per_layer_metrics():
        prefix, stat = name.rsplit(".", 1)
        if prefix in tot1 and prefix not in roots:
            if stat == "self_s":
                v = (tot1[prefix]["self_s"] + tot2[prefix]["self_s"]) / 2
                layer_self += v
            else:
                v = tot1[prefix].get(stat, 0)
        elif name in probes:
            v = probes[name]
        elif prefix.startswith(("suites.", "cli.")) and stat == "wall_s":
            step = "run-suite-presentation" if name == "suites.presentation.wall_s" \
                else prefix.split(".", 1)[1]
            v = steps.get(step, 0.0)
        else:
            v = 0
        values[name] = v
    # CLI processes spend time starting up before cli.main: cli.startup_s covers it
    layer_self += sum(t["trace"].get("outside_main_s", 0.0) for t in traced) / 2
    traced_wall = (traced[0]["wall_s"] + traced[1]["wall_s"]) / 2
    values["cli.startup_s"] = startup
    values["trace.overhead_frac"] = traced_wall / plain["wall_s"] - 1
    values["trace.unattributed_frac"] = 1 - layer_self / traced_wall
    accounting = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced_wall,
                  "layer_self_s": layer_self, "unattributed_s": traced_wall - layer_self}
    return values, accounting


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "segal_abacus")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def declared_metrics(trace: int):
    """Metric names listed in BENCHMARK.json, or None if it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="segal-abacus benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # unwinds through child()
    if not os.path.isfile(os.path.join(SRC, "segal_abacus", "__init__.py")):
        print(f"no segal_abacus sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    run = Run(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
              "git_revision": git_revision(),
              "src_sha256": src_digest()}

    if args.trace == 0:
        # Import timings are spread over the run, between passes.
        setup_samples = []
        run.sample_setup([], 1)  # the first import writes the bytecode cache
        # Passes run in rounds of one per CPU, at most two: twice the fresh
        # processes per run, whose medians even out each process's luck.
        at_once = min(2, len(os.sched_getaffinity(0)))
        record["passes_at_once"] = at_once
        passes, rounds = [], []
        start = perf_counter()
        while True:
            run.sample_setup(setup_samples, SETUP_PER_ROUND)
            results, took = run.plain_passes(at_once)
            passes += [r for r in results if r is not None]
            if None in results:
                break
            rounds.append(took)
            now = perf_counter()
            # another round if at least half of it fits in --seconds
            if (now + max(rounds) > run.deadline
                    or now - start + median(rounds) / 2 > args.seconds):
                break
        run.sample_setup(setup_samples, SETUP_PER_ROUND)
        setup = median(setup_samples) if setup_samples else None
    else:
        plain = run.plain_passes(1)[0][0]
        traced = [run.traced_pass(k) for k in (1, 2)] if plain else []
        probes, _ = run.worker("probe", "--trunc", str(PROBE_TRUNC[args.workload]))
        startup = run.timed_children(
            [sys.executable, "-m", "segal_abacus.cli", "--help"], STARTUP_SAMPLES)
        passes = [p for p in [plain, *traced] if p]

    attempted, failed, mismatches = judge(passes, run.problems)
    if not passes:
        run.problems.append("no pass completed")
    metrics, units = {}, {}
    scaled = [p.get("scaled_s") for p in passes]
    if args.trace == 0 and None in scaled:
        run.problems.append("a CLI command left no host-speed samples")
    elif passes and args.trace == 0 and setup is not None:
        metrics = {
            "wall_s": median(scaled),
            "setup_s": setup,
            "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
            "verdict_pass_frac": 1 - failed / attempted,
        }
        units = dict(END_TO_END)
        record["pass_wall_s"] = [p["wall_s"] for p in passes]
        record["pass_scaled_s"] = scaled
        record["speed_sample_s"] = [median(p["speed_samples_s"]) for p in passes]
    elif args.trace == 1 and len(passes) == 3 and probes:
        metrics, record["accounting"] = layer_metrics(run, plain, traced, probes, startup)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        run.problems.append("a pass, the set-up timing or the probes did not complete")

    declared = declared_metrics(args.trace)
    if metrics and declared is not None and sorted(declared) != sorted(metrics):
        run.problems.append("metric names differ from BENCHMARK.json")
    first = passes[0]["steps"] if passes else []
    record.update({
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "verdict_fail_frac": failed / attempted if attempted else None,
        "mismatches": [{"step": s, "entry": e, "expected": w, "got": g,
                        "known_defect": KNOWN_DEFECTS.get((s, e))}
                       for s, e, w, g in mismatches],
        "fixtures": {s["step"]: s["instances"].get(FIXTURE_ENTRY[s["step"]])
                     for s in first if "instances" in s},
        "sha256": {s["step"]: s.get("sha256") for s in first},
        "problems": run.problems,
    })
    result = {
        "correct": bool(passes) and bool(metrics) and not run.problems,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
