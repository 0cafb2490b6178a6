"""gmult benchmark: the README's CLI commands as fresh child processes.

    python3 perfbench/run.py --workload su2-calculus --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py          # all three workloads, untraced and traced

``BENCHMARK.json`` lists su2-calculus and scaling-probe; torus-lattice is
run by name or by the no-argument form (see ``workloads.LISTED``).

Run from the root of a checkout; the program is imported from ``src``.
Load is a closed loop with one client: each command starts only after the
previous one has exited, one child at a time, BLAS pinned to one thread.

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes (the latter under
``harness.py``) and reports the per-layer metrics.  Each command's output
is checked by ``gate.py``.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
command runs that failed the gate; ``correct`` is false when any of them
is a wrong output rather than the program reporting its own failure.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True   # leave nothing behind in the benchmark's directory

import gate  # noqa: E402
import metrics  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads as wl  # noqa: E402

WORKDIR = ".perfbench_work"
REFERENCES = HERE / "references"
#: Thread settings given to every child; the run record repeats them.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 15
#: Every run must end within 180 s; a child still running then is killed.
RUN_DEADLINE_S = 170.0


@dataclass
class Child:
    """One finished child process."""

    wall: float
    code: int
    stdout: str
    stderr: str
    maxrss_mb: float
    cpu_s: float


@dataclass
class PassResult:
    traced: bool
    walls: Dict[str, float] = field(default_factory=dict)
    verdicts: List[gate.Verdict] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


def run_child(argv: List[str], root: Path, env: Dict[str, str],
              timeout: float) -> Child:
    """Run ``argv`` to completion and take its own rusage via ``wait4``."""
    out_path = root / WORKDIR / f"child-{os.getpid()}.out"
    err_path = root / WORKDIR / f"child-{os.getpid()}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall=wall, code=proc.returncode,
                 stdout=out_path.read_text(), stderr=err_path.read_text(),
                 maxrss_mb=usage.ru_maxrss / 1024.0,
                 cpu_s=usage.ru_utime + usage.ru_stime)


def child_env(root: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "GMULT_"))}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def load_references(workload: str) -> dict:
    path = REFERENCES / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {"seeds": {}}


def reference_for(refs: dict, workload: str, seed: int):
    """(per-command references, values_known) for one seed."""
    key = "*" if wl.seed_independent(workload) else str(seed)
    if key in refs["seeds"]:
        return refs["seeds"][key], True
    return refs["seeds"].get(str(wl.DEFAULT_SEED), {}), False


def oracle_constants(workload: str, inputs: wl.Inputs) -> Dict[str, float]:
    """Order-0 constants computed here, independently of the program."""
    if workload == "su2-calculus":
        value = gate.riesz_order0_constant(24)
        return {"mikhlin-riesz": value, "refined-riesz": value}
    if workload == "torus-lattice":
        band = range(-8, 9)
        value = max(abs(wl.multiplier_value(inputs.coeffs, (a, b, c)))
                    for a in band for b in band for c in band)
        return {"mikhlin-file": value, "mikhlin-expr": value}
    return {}


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, root: Path, workload: str, seed: int,
                 run_start: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.run_start = run_start
        self.env = child_env(root)
        self.inputs = wl.make_inputs(seed)
        symbol_file = wl.write_inputs(self.inputs, root / WORKDIR)
        self.commands = wl.commands(workload, self.inputs, symbol_file)
        self.refs, self.values_known = reference_for(
            load_references(workload), workload, seed)
        self.oracle = oracle_constants(workload, self.inputs)
        self.first_outputs: Dict[str, dict] = {}
        self.passes: List[PassResult] = []
        self.timed_out = False

    def _timeout(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.run_start)

    def setup_times(self) -> List[float]:
        """Wall times of children that only import ``gmult.cli`` (after one
        untimed import that compiles the bytecode)."""
        argv = [sys.executable, "-c", "import gmult.cli"]
        walls = []
        for i in range(SETUP_SAMPLES + 1):
            child = run_child(argv, self.root, self.env, self._timeout())
            if child.code != 0:
                raise RuntimeError(f"importing gmult.cli failed: {child.stderr}")
            if i:
                walls.append(child.wall)
        return walls

    def run_pass(self, traced: bool) -> PassResult:
        res = PassResult(traced=traced)
        envs: Dict[str, dict] = {}
        command_spans = []
        for cmd in self.commands:
            argv = [sys.executable, "-m", "gmult.cli", *cmd.argv]
            span_path = self.root / WORKDIR / f"spans-{os.getpid()}-{cmd.id}.jsonl"
            if traced:
                argv = [sys.executable, str(HERE / "harness.py"),
                        "--spans", str(span_path), "--command-id", cmd.id,
                        "--src", str(self.root / "src"), "--", *cmd.argv]
            child = run_child(argv, self.root, self.env, self._timeout())
            res.walls[cmd.id] = child.wall
            res.peak_rss_mb = max(res.peak_rss_mb, child.maxrss_mb)
            res.cpu_s += child.cpu_s
            verdict, env = gate.gate_run(cmd.id, cmd.expected_exit,
                                         child.code, child.stdout,
                                         child.stderr, self.refs.get(cmd.id),
                                         self.values_known)
            if self._timeout() <= 0:
                self.timed_out = True
                verdict.fail("killed at the run deadline")
            if env is not None:
                envs[cmd.id] = env
                self._check_repeat(verdict, env)
            res.verdicts.append(verdict)
            if traced and span_path.exists():
                command_spans.append(spanlib.read_spans(span_path))
                span_path.unlink()
            if self.timed_out:
                break
        cross = gate.cross_checks(envs, self.oracle)
        for v in res.verdicts:
            for problem in cross.get(v.command, []):
                v.fail(problem, wrong=True)
        if traced:
            res.layers = spanlib.layer_metrics(command_spans)
        self.passes.append(res)
        return res

    def _check_repeat(self, verdict: gate.Verdict, env: dict) -> None:
        """Every pass of a run must reproduce the first pass's numbers."""
        leaves = gate.comparable(env)
        first = self.first_outputs.setdefault(verdict.command, leaves)
        problems, _ = gate.compare(leaves, first)
        for p in problems:
            verdict.fail(f"differs from this run's first pass: {p}", wrong=True)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(samples: List[float]):
    """(p, value) of the highest percentile with at least ten samples
    beyond it, or None while there are too few samples for one above the
    median."""
    n = len(samples)
    p = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if p <= 50:
        return None
    ordered = sorted(samples)
    return p, ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]


def end_to_end(bench: Bench, setup: List[float]) -> Dict[str, float]:
    untraced = [p for p in bench.passes if not p.traced]
    errors = [e for p in bench.passes for v in p.verdicts for e in v.errors]
    return {
        "pass_s": _median([p.wall for p in untraced]),
        "peak_rss_mb": _median([p.peak_rss_mb for p in untraced]),
        "setup_s": _median(setup),
        "accuracy_digits": gate.accuracy_digits(errors),
    }


def per_layer(bench: Bench) -> Dict[str, float]:
    untraced = [p for p in bench.passes if not p.traced]
    traced = [p for p in bench.passes if p.traced]
    out: Dict[str, float] = {}
    for name, _, _, _ in metrics.PER_LAYER:
        out[name] = _median([p.layers.get(name, 0.0) for p in traced])
    for cmd in wl.all_command_ids():
        out[f"cli.{cmd}.wall_s"] = _median(
            [p.walls[cmd] for p in untraced if cmd in p.walls])
    out["cli.cpu_s"] = _median([p.cpu_s for p in untraced])
    traced_wall = _median([p.wall for p in traced])
    untraced_wall = _median([p.wall for p in untraced])
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0
                                  if untraced_wall else 0.0)
    accounted = sum(out[f"{layer}.self_s"] for layer in spanlib.LAYERS)
    out["trace.accounted_frac"] = accounted / traced_wall if traced_wall else 0.0
    return out


def git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree (read, not run)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    ref_file = root / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_record(root: Path, workload: str, seed: int, trace: int,
               seconds: float) -> dict:
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "commit": git_commit(root),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "child_thread_env": THREAD_ENV,
        "load": "closed loop, one client, one child at a time",
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int, run_start: float) -> dict:
    """Run one workload; returns the result object (see module doc)."""
    bench = Bench(root, workload, seed, run_start)
    setup = bench.setup_times() if not trace else []
    measure_start = time.perf_counter()
    kinds = [False, True] if trace else [False]
    while True:
        for traced in kinds:
            bench.run_pass(traced)
            if bench.timed_out:
                break
        if bench.timed_out:
            break
        cycle = sum(_median([p.wall for p in bench.passes if p.traced == t])
                    for t in kinds)
        if time.perf_counter() - measure_start + cycle > seconds:
            break
    verdicts = [v for p in bench.passes for v in p.verdicts]
    values = end_to_end(bench, setup) if not trace else per_layer(bench)
    catalogue = ({n: u for n, (u, _, _) in metrics.END_TO_END.items()}
                 if not trace else
                 {n: u for n, u, _, _ in metrics.PER_LAYER})
    report(bench, values, catalogue, verdicts,
           run_record(root, workload, seed, trace, seconds))
    return {
        "correct": not any(v.wrong for v in verdicts) and bool(verdicts),
        "attempted": len(verdicts),
        "failed": sum(not v.ok for v in verdicts),
        "metrics": {n: {"value": values[n], "unit": catalogue[n]}
                    for n in catalogue},
    }


def report(bench: Bench, values: Dict[str, float], units: Dict[str, str],
           verdicts: List[gate.Verdict], record: dict) -> None:
    """Human-readable lines: verdict per command, then every metric."""
    print(f"== {bench.workload} (trace {record['trace']})")
    print(f"# run record {json.dumps(record, sort_keys=True)}")
    inputs = ("none: the workload does not depend on the seed"
              if wl.seed_independent(bench.workload)
              else json.dumps(wl.input_record(bench.inputs)))
    print(f"# inputs {inputs} (stored references for this seed: "
          f"{bench.values_known})")
    by_cmd: Dict[str, List[gate.Verdict]] = {}
    for v in verdicts:
        by_cmd.setdefault(v.command, []).append(v)
    for cmd, vs in by_cmd.items():
        bad = [v for v in vs if not v.ok]
        status = "PASS" if not bad else "FAIL"
        reasons = "; ".join(dict.fromkeys(r for v in bad for r in v.reasons))
        print(f"{status} {bench.workload}/{cmd}: {len(vs) - len(bad)}/{len(vs)}"
              f" runs passed{': ' + reasons if reasons else ''}")
    if "pass_s" in values:
        untraced = [p.wall for p in bench.passes if not p.traced]
        tail = tail_percentile(untraced)
        print(f"# pass_s is the median of {len(untraced)} passes"
              + (f"; p{tail[0]} = {tail[1]:.4f} s" if tail else ""))
    moves = {n: m for n, _, _, m in metrics.PER_LAYER}
    for name, unit in units.items():
        value = values[name]
        shown = f"{value:.0f}" if unit == "count" else f"{value:.6g}"
        note = f"  [moves: {moves[name]}]" if name in moves else ""
        print(f"{bench.workload} {name} = {shown} {unit}{note}")


def combine(results: Dict[str, dict]) -> dict:
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{key}.{name}": m for key, r in results.items()
                    for name, m in r["metrics"].items()},
    }


def write_references(root: Path) -> None:
    """Store every command's report leaves for the default and held-out
    seeds (``scaling-probe``: once, for every seed)."""
    REFERENCES.mkdir(exist_ok=True)
    for workload in wl.WORKLOADS:
        seeds = ([wl.DEFAULT_SEED] if wl.seed_independent(workload)
                 else [wl.DEFAULT_SEED, wl.HELD_OUT_SEED])
        doc = {"seeds": {}}
        for seed in seeds:
            bench = Bench(root, workload, seed, time.perf_counter())
            entry = {}
            for cmd in bench.commands:
                child = run_child([sys.executable, "-m", "gmult.cli", *cmd.argv],
                                  root, bench.env, RUN_DEADLINE_S)
                env, _ = gate.parse_report(child.stdout)
                entry[cmd.id] = {"exit": child.code,
                                 "leaves": gate.comparable(env) if env else {}}
            key = "*" if wl.seed_independent(workload) else str(seed)
            doc["seeds"][key] = entry
        path = REFERENCES / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measuring time of one run (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help="store reference outputs for the default and "
                             "held-out seeds, then exit")
    args = parser.parse_args(argv)
    run_start = time.perf_counter()
    # Turn SIGTERM into an exception so the running child is killed and
    # reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "gmult" / "cli.py").is_file():
        sys.stderr.write(f"no gmult sources under {root / 'src'}; run from "
                         "the root of a gmult checkout\n")
        return 2
    (root / WORKDIR).mkdir(exist_ok=True)
    try:
        if args.write_references:
            write_references(root)
            return 0
        if args.workload != "all":
            result = run_workload(root, args.workload, args.seed,
                                  args.seconds, args.trace, run_start)
        else:
            result = combine({
                f"{workload}.trace{trace}": run_workload(
                    root, workload, args.seed, args.seconds, trace,
                    time.perf_counter())
                for workload in wl.WORKLOADS for trace in (0, 1)})
    finally:
        for leftover in (root / WORKDIR).glob(f"child-{os.getpid()}.*"):
            leftover.unlink()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
