"""Run one workload of the rankgames benchmark and print its metrics.

    python3 benchmarks/run.py --workload enum-nondegen --seed 1 --seconds 20 --trace 0

Every command goes through rankgames.cli.main(argv) inside this process,
one after another: a closed loop with one client on one thread. The
commands of a workload run in rounds, each round every instance once in a
seeded order, for about --seconds seconds; every report is checked and its
sha256 compared across rounds.

With --trace 0 the metrics are the end-to-end ones, measured untraced. With
--trace 1 untraced and traced rounds alternate; the metrics are per-layer
work counts and times per traced round, and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Results with run metadata go to
.bench_out/, spans of a traced run too. Without src/rankgames beside the
benchmark the run exits with code 2 and prints no result.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Scaler
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".bench_out")

SETUP_REPEATS = 7
MIN_ROUNDS = 2  # every report gets at least one repeat to compare with
TAIL_PERCENTILE = 75
# Keep >= 10 samples beyond the p75 tail. The percentile stays fixed, so a
# faster program reports the same statistic from more samples.
MIN_SAMPLES = 40
MAX_LOOP_S = 150  # headroom below the 180 s a run may take
# Printed for people but left out of the JSON result: it is 0 whenever the
# run is correct, and the JSON carries it as failed / attempted.
PRINT_ONLY = ("failed_ratio",)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_rankgames():
    src = ROOT / "src"
    if not (src / "rankgames" / "__init__.py").is_file():
        raise BenchmarkError(f"no rankgames package under {src}")
    sys.path.insert(0, str(src))
    import rankgames

    if Path(rankgames.__file__).resolve().parent != (src / "rankgames").resolve():
        raise BenchmarkError(f"imported rankgames from {rankgames.__file__}")
    return rankgames


def run_command(cli, argv):
    """Time main(argv) until its captured report is ready.

    Returns (seconds, report text or None, error or None).
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
    except (Exception, SystemExit) as exc:  # a failed command, counted below
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, None, f"exit code {code}: {err.getvalue().strip()}"
    return elapsed, text, None


class Loop:
    """Runs rounds of a workload's commands and checks every report."""

    def __init__(self, workload, insts, games, cli, checker):
        self.workload = workload
        self.insts = insts
        self.games = games
        self.cli = cli
        self.checker = checker
        self.digests = {}
        self.records = []
        self.scaler = Scaler()

    def _verify(self, inst, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.digests.setdefault(inst.name, digest)
        if digest != first:
            return f"report sha256 {digest[:12]} differs from the first {first[:12]}"
        return self.checker(inst, self.games[inst.name], json.loads(text))

    def run_round(self, order, tracer=None):
        """Run each instance once in the given order; return the scaled
        seconds spent in main()."""
        spent = 0.0
        for inst in order:
            if tracer is not None:
                tracer.request = len(self.records)
            elapsed, text, error = run_command(self.cli, inst.argv(self.workload))
            if tracer is not None:
                tracer.request = None
            scaled = self.scaler.scale(elapsed)
            if error is None:
                try:
                    error = self._verify(inst, text)
                except Exception as exc:  # a malformed report fails the command
                    error = f"unreadable report: {type(exc).__name__}: {exc}"
            self.records.append({"instance": inst.name, "seconds": scaled,
                                 "wall_s": elapsed, "traced": tracer is not None,
                                 "error": error})
            spent += scaled
        return spent


def planned_rounds(round_s, seconds, least):
    """Rounds of round_s seconds that fill about `seconds`: at least `least`,
    but no more than fit in MAX_LOOP_S."""
    wanted = max(least, round(seconds / round_s))
    return max(1, min(wanted, math.floor(MAX_LOOP_S / round_s)))


def time_setups(workload, seed, tiny):
    """Median seconds of SETUP_REPEATS set-ups, each in a fresh interpreter."""
    cmd = [sys.executable, str(ROOT / "benchmarks" / "setup_probe.py"),
           workload, str(seed)] + (["--tiny"] if tiny else [])
    values = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed: {proc.stderr.strip()}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values), values


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(workload, seed, insts, games):
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rankgames").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "instances": [
            {"name": i.name, "spec": i.spec, "argv": i.argv(workload),
             "m": games[i.name].m, "n": games[i.name].n}
            for i in insts
        ],
    }


def end_to_end(loop, setup_s):
    times = [r["seconds"] for r in loop.records]
    wall = [r["wall_s"] for r in loop.records]
    solved = sum(1 for r in loop.records if r["error"] is None)
    tail = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "cmd_s_p50": (statistics.median(times), "s"),
        "cmd_s_tail": (tail, "s"),
        "solved_per_s": (solved / sum(times), "1/s"),
        "failed_ratio": ((len(times) - solved) / len(times), "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups in fresh interpreters",
        "cmd_s_p50": (f"{len(times)} commands scaled to reference speed; "
                      f"wall-clock median {statistics.median(wall):.4f} s"),
        "cmd_s_tail": (f"p{TAIL_PERCENTILE} of {len(times)} samples, "
                       f"{sum(1 for t in times if t > tail)} beyond it"),
        "solved_per_s": f"{solved} verified commands in {sum(times):.3f} s of main()",
        "failed_ratio": f"{len(times) - solved} of {len(times)} attempted",
    }
    return metrics, notes


def traced_rounds(loop, order_rng, seconds):
    """Alternate untraced and traced rounds of one order each; return the
    tracer, the number of traced rounds and the main() seconds each way."""
    tracer = Tracer()

    def pair():
        order = order_rng.sample(loop.insts, len(loop.insts))
        start = time.perf_counter()
        plain = loop.run_round(order)
        wall = time.perf_counter() - start
        with tracer:
            traced = loop.run_round(order, tracer)
        return plain, traced, wall

    plain_s, traced_s, wall = pair()
    pairs = planned_rounds(2 * wall, seconds, 1)
    for _ in range(pairs - 1):
        plain, traced, _ = pair()
        plain_s += plain
        traced_s += traced
    return tracer, pairs, plain_s, traced_s


def run_benchmark(workload, seed, seconds, trace, tiny=False):
    """Run a workload; return (correct, attempted, failed, metrics, notes,
    results) where metrics maps a name to (value, unit)."""
    rankgames = import_rankgames()
    import rankgames.cli
    import workloads

    insts = workloads.instances(workload, seed, tiny)
    games = {i.name: workloads.build_game(i.spec) for i in insts}
    if trace:
        workloads.write_games(workload, insts)
        setup = None
    else:
        setup = time_setups(workload, seed, tiny)
    loop = Loop(workload, insts, games, rankgames.cli, workloads.check_report)
    order_rng = random.Random(f"{workload}:{seed}:order")

    if trace:
        tracer, pairs, plain_s, traced_s = traced_rounds(loop, order_rng, seconds)
        layers = layer_metrics(tracer.spans, pairs)
        units = {"_s": "s", "_ratio": "ratio", "_yield": "ratio"}
        metrics = {
            name: (value, next((u for suf, u in units.items() if name.endswith(suf)),
                               "count"))
            for name, value in layers.items()
        }
        overhead = (traced_s - plain_s) / pairs
        metrics["trace.overhead_s"] = (overhead, "s")
        notes = {"trace.overhead_s": (
            f"traced minus untraced main() per round: {traced_s / pairs:.4f} - "
            f"{plain_s / pairs:.4f} s ({100 * overhead / (plain_s / pairs):+.2f}%), "
            f"{pairs} round pair(s)")}
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    else:
        least = max(MIN_ROUNDS, math.ceil(MIN_SAMPLES / len(insts)))
        start = time.perf_counter()
        loop.run_round(order_rng.sample(insts, len(insts)))
        first = time.perf_counter() - start
        for _ in range(planned_rounds(first, seconds, least) - 1):
            loop.run_round(order_rng.sample(insts, len(insts)))
        metrics, notes = end_to_end(loop, setup[0])
        spans_path = None

    failed = sum(1 for r in loop.records if r["error"] is not None)
    results = {
        "metadata": metadata(workload, seed, insts, games),
        "trace": trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "setup_samples_s": setup[1] if setup else None,
        "digests": loop.digests,
        "commands": loop.records,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(results, indent=1) + "\n")
    if spans_path is not None:
        spans_path.write_text(json.dumps(tracer.spans, separators=(",", ":")) + "\n")
    return failed == 0, len(loop.records), failed, metrics, notes, results


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["enum-nondegen", "enum-degenerate", "approx-grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        correct, attempted, failed, metrics, notes, results = run_benchmark(
            args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} commands, {failed} failed")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:14.6g} {unit}{note}")
    for rec in results["commands"]:
        if rec["error"] is not None:
            print(f"  FAILED {rec['instance']}: {rec['error']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name not in PRINT_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
