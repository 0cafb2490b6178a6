"""Seeded inputs and the command list of each benchmark workload.

A workload is a fixed list of ``gmult`` CLI commands; one pass runs each
command once, each as its own child process.  Everything the program sees
is generated here from the workload seed, so the same seed gives
byte-identical inputs.  ``scaling-probe`` takes no generated input and is
the same for every seed.
"""
from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: Seed of the stored references that every claim is measured on.
DEFAULT_SEED = 0
#: Seed whose references are kept back to confirm a claim on unseen inputs.
HELD_OUT_SEED = 7919

#: Band of the generated torus symbol file.  An order-2 check at band 8
#: needs one difference shell per order, so the file must cover band 10.
SYMBOL_FILE_BAND = 10


@dataclass(frozen=True)
class Command:
    """One CLI invocation: an id, its argv after ``gmult``, and the exit
    code the README documents for it."""

    id: str
    argv: Tuple[str, ...]
    expected_exit: int = 0


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one seed, as the strings the CLI receives."""

    seed: int
    u: str       # unit field direction "x,y,z"
    c: str       # complex shift with nonzero real part
    e: str       # exceptional shift on the half-integer lattice
    expr: str    # torus-3 lattice multiplier expression
    coeffs: Tuple[float, float, float]  # (a1, a3, b) of ``expr``


def _decimal(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * _decimal(rng, lo, hi)


def _complex_text(re: float, im: float) -> str:
    return f"{re!r}{im:+}i"


def make_inputs(seed: int) -> Inputs:
    """Generate the inputs of one seed (stdlib ``random``, string-seeded,
    so the stream does not depend on the platform or on numpy)."""
    rng = random.Random(f"gmult-bench/{int(seed)}")
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 0.1:
            break
    u = ",".join(repr(x / norm) for x in v)
    c = _complex_text(_signed(rng, 0.5, 2.0), _decimal(rng, -1.5, 1.5))
    half_steps = rng.choice([k for k in range(-8, 9) if k != 0])
    e = _complex_text(0.0, 0.5 * half_steps)
    a1 = _signed(rng, 0.3, 1.0)
    a3 = _signed(rng, 0.3, 1.0)
    b = _decimal(rng, 0.1, 1.0)
    expr = (f"({a1!r})*k1/abs(k)+({a3!r})*k3/abs(k)"
            f"+({b!r})/sqrt(1+abs(k)**2)")
    return Inputs(seed=int(seed), u=u, c=c, e=e, expr=expr,
                  coeffs=(a1, a3, b))


def multiplier_value(coeffs: Tuple[float, float, float],
                     k: Tuple[int, int, int]) -> float:
    """The ``expr`` multiplier at one lattice point, evaluated in the same
    operation order as the CLI's expression route; 0 at the origin, as
    that route replaces the non-finite origin value."""
    a1, a3, b = coeffs
    r = math.sqrt(sum(float(v) ** 2 for v in k))
    if r == 0.0:
        return 0.0
    return a1 * k[0] / r + a3 * k[2] / r + b / math.sqrt(1 + r ** 2)


def symbol_file_text(inputs: Inputs) -> str:
    """The ``expr`` multiplier as a torus-3 symbol file of band 10."""
    n = SYMBOL_FILE_BAND
    lines = ["gmult-symbol 1", "group torus-3", f"band {n}"]
    for k in itertools.product(range(-n, n + 1), repeat=3):
        lines.append(f"label {k[0]} {k[1]} {k[2]} d 1")
        lines.append(f"{multiplier_value(inputs.coeffs, k)!r} 0.0")
    return "\n".join(lines) + "\n"


def write_inputs(inputs: Inputs, workdir: Path) -> Path:
    """Write the seed's symbol file under ``workdir``; returns its path
    relative to ``workdir``'s parent (the checkout root)."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"symbol-seed{inputs.seed}.txt"
    text = symbol_file_text(inputs)
    if not path.exists() or path.read_text() != text:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
    return Path(workdir.name) / path.name


#: Why each workload is in the benchmark (one line each).
WHY = {
    "su2-calculus": "SU(2) checks, self-test and frame-field inverse: time in "
                    "groups (Wigner tables), transform quadrature, symbols "
                    "and vfield; no torus code, no mollifier",
    "torus-lattice": "one torus-3 multiplier through a symbol file (per-label "
                     "dicts) and an expression (whole arrays), so a gain on "
                     "one route cannot hide a loss on the other",
    "scaling-probe": "mollifier radial coefficients and cz norms dominate, "
                     "transform and symbols nearly absent; no generated "
                     "input, so it does not depend on the seed",
}
WORKLOADS = tuple(WHY)
#: Workloads listed in BENCHMARK.json, the ones a change is gated on.
#: torus-lattice stays runnable by name and under ``--workload all``, but
#: its pass_s moves by up to a third between 36-second runs on a shared
#: 2-core machine (its per-label dicts are the most memory-bound code
#: here), beyond the largest regression bound a listed metric may have.
LISTED = ("su2-calculus", "scaling-probe")


def commands(workload: str, inputs: Inputs, symbol_file: Path) -> List[Command]:
    """The command list of one pass of ``workload``."""
    s = str(inputs.seed)
    if workload == "su2-calculus":
        riesz = ("check", "--group", "su2", "--band", "24",
                 f"--symbol=riesz:{inputs.u}", "--seed", s)
        return [
            Command("selftest-su2-56", ("fourier-selftest", "--group", "su2",
                                        "--band", "56", "--seed", s)),
            Command("mikhlin-riesz", riesz + ("--checker", "mikhlin")),
            Command("refined-riesz", riesz + ("--checker", "refined")),
            Command("symclass-vfinv", ("check", "--group", "su2",
                                       f"--symbol=vf-inverse:{inputs.c}",
                                       "--checker", "symbol-class:0,0,2")),
            Command("invert-recursion", ("invert", f"--field={inputs.u}",
                                         f"--c={inputs.c}",
                                         "--recursion-check")),
            Command("invert-exceptional", ("invert", f"--field={inputs.u}",
                                           f"--c={inputs.e}"),
                    expected_exit=2),
        ]
    if workload == "torus-lattice":
        t3 = ("check", "--group", "torus-3", "--band", "8")
        return [
            Command("selftest-t3-16", ("fourier-selftest", "--group",
                                       "torus-3", "--band", "16",
                                       "--seed", s)),
            Command("mikhlin-file", t3 + (f"--symbol={symbol_file}",
                                          "--checker", "mikhlin")),
            Command("refined-file", t3 + (f"--symbol={symbol_file}",
                                          "--checker", "refined")),
            Command("mikhlin-expr", t3 + (f"--symbol={inputs.expr}",
                                          "--checker", "mikhlin")),
            Command("torus3-expr", ("check", "--group", "torus-3", "--band",
                                    "64", f"--symbol={inputs.expr}",
                                    "--checker", "torus3")),
        ]
    if workload == "scaling-probe":
        return [
            Command("probe-su2", ("probe", "--group", "su2")),
            Command("probe-t3", ("probe", "--group", "torus-3",
                                 "--ladder", "4:9")),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     + ", ".join(WORKLOADS))


def all_command_ids() -> List[str]:
    """Every command id of every workload, in workload order."""
    probe = make_inputs(DEFAULT_SEED)
    return [cmd.id for w in WORKLOADS
            for cmd in commands(w, probe, Path("symbol.txt"))]


def seed_independent(workload: str) -> bool:
    return workload == "scaling-probe"


def input_record(inputs: Inputs) -> Dict[str, str]:
    return {"u": inputs.u, "c": inputs.c, "e": inputs.e, "expr": inputs.expr}
