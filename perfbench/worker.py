"""One benchmark pass in a fresh interpreter; run by ``run.py``.

    python3 perfbench/worker.py pass --workload roundtrip --seed 1 [--spans FILE]
    python3 perfbench/worker.py probe --trunc 5
    python3 perfbench/worker.py clicmd --name NAME --spans FILE -- ARGS...

``pass`` runs a workload once, with no warm-up call, and prints one JSON
line: per-step wall time, report or stdout sha256, verdicts or exit codes
and peak RSS.  An untraced pass samples the host's speed as it runs
(``hostspeed``) and also gives its times scaled to the reference speed.
With ``--spans`` the pass is traced: layer totals join the JSON line and
the spans are written to FILE when the pass ends.
An untraced ``cli`` pass runs each command through ``hostspeed.py``, which
samples the host's speed in the command's own process.
``clicmd`` runs one traced CLI command; ``probe`` times single layers on
every map and relation up to a truncation.  ``segal_abacus`` must be
importable (``run.py`` puts the checkout's ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter

from hostspeed import HostSpeed
from tracing import Tracer
from workloads import CLI_STEPS, suite_steps

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 120
HOM_BOUND = 4


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_report(report: dict) -> bytes:
    """The bytes ``run-suite`` prints for this report."""
    return (json.dumps(report, sort_keys=True, indent=1) + "\n").encode()


SPAN_FIELDS = ["id", "name", "start", "end", "parent", "fixture"]


def timing(speed: HostSpeed | None, a: float, b: float) -> dict:
    if speed is None:
        return {"wall_s": b - a}
    return {"wall_s": speed.unscaled(a, b), "scaled_s": speed.scaled(a, b)}


def suite_pass(workload: str, seed: int, tracer: Tracer | None) -> dict:
    speed = HostSpeed() if tracer is None else None
    if tracer is not None:
        tracer.install()
    import segal_abacus.suites as suites

    runs = []
    if speed is not None:
        speed.start()
    start = perf_counter()
    for step, fn, kwargs in suite_steps(workload, seed):
        t0 = perf_counter()
        frame = tracer.open_root(f"suites.{step}") if tracer else None
        try:
            report, error = getattr(suites, fn)(**kwargs), None
        except Exception as exc:  # a crashing suite is a failed step, not a crashed benchmark
            report, error = None, f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.close_root(frame)
        runs.append((step, t0, perf_counter(), report, error))
    end = perf_counter()
    if speed is not None:
        speed.stop()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    steps = []
    for step, t0, t1, report, error in runs:
        out = {"step": step, **timing(speed, t0, t1), "error": error}
        if report is not None:
            out["sha256"] = sha256(canonical_report(report))
            out["verdicts"] = {e["id"]: e["verdict"] for e in report["entries"]}
            out["instances"] = {e["id"]: e["instances"] for e in report["entries"]}
        steps.append(out)
    result = {**timing(speed, start, end), "peak_rss_mb": peak, "steps": steps}
    if speed is not None:
        result["speed_samples_s"] = speed.kernel_times()
    return result


def cli_pass(traced_spans: str | None) -> dict:
    tmp = os.path.join(HERE, "out", f"cli-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    steps, commands, kernel_times = [], [], []
    totals = {}
    outside_main = 0.0
    try:
        for name, argv, _ in CLI_STEPS:
            spans_file = os.path.join(tmp, f"{name}.spans.json")
            speed_file = os.path.join(tmp, f"{name}.speed.json")
            if traced_spans:
                cmd = [sys.executable, os.path.join(HERE, "worker.py"), "clicmd",
                       "--name", name, "--spans", spans_file, "--", *argv]
            else:  # the CLI with the host speed sampled in its process
                cmd = [sys.executable, os.path.join(HERE, "hostspeed.py"), speed_file, *argv]
            t0 = perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=tmp, capture_output=True, timeout=CLI_TIMEOUT_S)
                code, out, err = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
                code, out, err = None, exc.stdout or b"", b"timeout"
            t1 = perf_counter()
            error = None if code in (0, 1) else err.decode(errors="replace")[-400:]
            step = {"step": name, "wall_s": t1 - t0, "exit": code, "sha256": sha256(out),
                    "error": error}
            if not traced_spans and os.path.exists(speed_file):
                with open(speed_file) as fh:
                    speed = HostSpeed(json.load(fh))
                step["wall_s"] = speed.unscaled(t0, t1)
                step["scaled_s"] = step["wall_s"] * speed.factor()
                kernel_times += speed.kernel_times()
            if argv[0] == "run-suite" and code in (0, 1):
                report = json.loads(out)
                step["instances"] = {e["id"]: e["instances"] for e in report["entries"]}
            steps.append(step)
            if traced_spans and os.path.exists(spans_file):
                with open(spans_file) as fh:
                    data = json.load(fh)
                commands.append({"command": name, "spans": data["spans"]})
                outside_main += t1 - t0 - data["main_s"]
                for layer, stats in data["totals"].items():
                    acc = totals.setdefault(layer, dict.fromkeys(stats, 0))
                    for k, v in stats.items():
                        acc[k] += v
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result = {"wall_s": sum(s["wall_s"] for s in steps), "peak_rss_mb": peak, "steps": steps}
    if not traced_spans:
        scaled = [s.get("scaled_s") for s in steps]  # None: a command left no samples
        result["scaled_s"] = None if None in scaled else sum(scaled)
        result["speed_samples_s"] = kernel_times
    else:
        with open(traced_spans, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "commands": commands}, fh)
        result["trace"] = {"totals": totals, "outside_main_s": outside_main,
                           "roots": [f"cli.{name}" for name, _, _ in CLI_STEPS]}
    return result


def cli_command(name: str, spans_file: str, argv) -> int:
    tracer = Tracer()
    tracer.install()
    from segal_abacus import cli

    t0 = perf_counter()
    frame = tracer.open_root(f"cli.{name}")
    try:
        code = cli.main(argv)
    finally:
        tracer.close_root(frame)
        main_s = perf_counter() - t0
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump({"spans": tracer.spans, "totals": tracer.totals, "main_s": main_s}, fh)
    return code


def _per_run(fn, min_total_s=0.2, min_runs=3):
    """Median duration of fn() over at least min_runs runs and min_total_s.

    fn returns a count, which must be the same on every run.
    """
    times, results = [], []
    while len(times) < min_runs or sum(times) < min_total_s:
        t0 = perf_counter()
        results.append(fn())
        times.append(perf_counter() - t0)
    if any(r != results[0] for r in results):
        raise RuntimeError("probe counts differ between repetitions")
    return median(times), results[0]


def probes(trunc: int) -> dict:
    from segal_abacus import abacus, simplex

    out = {}
    maps = [f for m in range(trunc + 1) for n in range(trunc + 1)
            for f in simplex.enumerate_monotone(m, n)]
    t, n = _per_run(lambda: len([simplex.epi_mono_factor(f) for f in maps]))
    out["simplex.epi_mono_factor.us_per_call"] = t / n * 1e6
    out["simplex.epi_mono_factor.calls"] = n
    # every map followed by every coface and codegeneracy that stays within trunc
    pairs = []
    for f in maps:
        c = f.cod_n
        pairs += [(simplex.coface(k, c + 1), f) for k in range(c + 2) if c + 1 <= trunc]
        pairs += [(simplex.codegeneracy(k, c - 1), f) for k in range(c) if c >= 1]
    t, n = _per_run(lambda: len([simplex.compose_monotone(g, f) for g, f in pairs]))
    out["simplex.compose_monotone.us_per_call"] = t / n * 1e6
    out["simplex.compose_monotone.calls"] = n

    t, n = _per_run(lambda: len(list(abacus.relation_instances(trunc, trunc))))
    out["abacus.relation_instances.self_s"] = t
    out["abacus.relation_instances.count"] = n
    # the compositions that walking each relation word from its source takes
    bead_pairs = []
    for _, lhs, rhs in abacus.relation_instances(trunc, trunc):
        for word in (lhs, rhs):
            cur = abacus.bead_identity(word.source)
            try:
                for kind, k in word.tokens:
                    g = abacus.bead_of_generator(kind, k, cur.tgt)
                    bead_pairs.append((g, cur))
                    cur = abacus.bead_compose(g, cur)
            except ValueError:  # the word leaves the legal objects, as _word_levels allows
                pass
    t, n = _per_run(lambda: len([abacus.bead_compose(g, f) for g, f in bead_pairs]))
    out["abacus.bead_compose.us_per_call"] = t / n * 1e6
    out["abacus.bead_compose.calls"] = n

    # hom sets at the presentation suite's default bound, whatever the trunc
    objs = abacus.objects_of_degree(HOM_BOUND)
    t0 = perf_counter()
    homs = [g for src in objs for tgt in objs for g in abacus.hom_enumerate(src, tgt)]
    out["abacus.hom_enumerate.self_s"] = perf_counter() - t0
    t0 = perf_counter()
    abacus.word_closure_homs(HOM_BOUND)
    out["abacus.word_closure_homs.self_s"] = perf_counter() - t0
    t0 = perf_counter()
    for g in homs:
        abacus.factorize(g)
    out["abacus.factorize.self_s"] = perf_counter() - t0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spans", help="trace the pass and write its spans here")
    q = sub.add_parser("probe")
    q.add_argument("--trunc", type=int, required=True)
    c = sub.add_parser("clicmd")
    c.add_argument("--name", required=True)
    c.add_argument("--spans", required=True)
    c.add_argument("args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    if args.mode == "clicmd":
        argv = args.args[1:] if args.args[:1] == ["--"] else args.args
        return cli_command(args.name, args.spans, argv)
    if args.mode == "probe":
        result = probes(args.trunc)
    elif args.workload == "cli":
        result = cli_pass(args.spans)
    else:
        tracer = Tracer() if args.spans else None
        result = suite_pass(args.workload, args.seed, tracer)
        if tracer is not None:
            with open(args.spans, "w") as fh:
                json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans}, fh)
            result["trace"] = {"totals": tracer.totals, "roots": sorted(tracer.roots)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
