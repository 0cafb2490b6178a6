"""The benchmark's metric catalogue: every end-to-end and per-layer metric
with its unit, direction, and (per layer) the end-to-end metric and
workload it should move.  ``BENCHMARK.json`` mirrors this file; the
benchmark's tests keep the two in step.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from spans import LAYERS
from workloads import all_command_ids

#: name -> (unit, better, bound as a share of the parent's median)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "pass_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
    "accuracy_digits": ("digits", "higher", 0.05),
}

SU2 = "pass_s on su2-calculus"
TORUS = "pass_s on torus-lattice"
PROBE = "pass_s and peak_rss_mb on scaling-probe"

_SELF_MOVES = {
    "groups": SU2, "grids": SU2, "transform": SU2 + " and " + TORUS,
    "symbols": SU2 + " and " + TORUS, "central": SU2,
    "checkers": SU2 + " and " + TORUS, "vfield": SU2, "mollifier": PROBE,
    "cli": TORUS,
}


def _per_layer() -> List[Tuple[str, str, str, str]]:
    """(name, unit, better, moves) of every per-layer metric."""
    rows = [(f"{layer}.self_s", "s", "lower", _SELF_MOVES[layer])
            for layer in LAYERS]
    rows += [
        ("groups.wigner_little_d.calls", "count", "lower", SU2 + "; ~0 elsewhere"),
        ("groups.wigner_entries", "count", "lower", SU2 + "; ~0 elsewhere"),
        ("grids.little_d.hit_ratio", "ratio", "higher", SU2),
        ("grids.grid_cache.hit_ratio", "ratio", "higher", SU2),
        ("grids.nodes_built", "count", "lower", SU2),
    ]
    transform = SU2 + " (SU(2) path) and " + TORUS + " (selftest-t3-16)"
    rows += [(f"transform.{d}.calls", "count", "lower", transform)
             for d in ("forward", "inverse")]
    rows += [(f"transform.{d}.s", "s", "lower", transform)
             for d in ("forward", "inverse")]
    rows += [("transform.nodes", "count", "lower", transform),
             ("transform.labels", "count", "lower", transform)]
    symbols = TORUS + " (file route) and " + SU2
    for fn in ("apply_difference", "laplace_difference", "word_sup_table"):
        rows += [(f"symbols.{fn}.calls", "count", "lower", symbols),
                 (f"symbols.{fn}.s", "s", "lower", symbols)]
    rows += [("symbols.words", "count", "lower", symbols)]
    rows += [("checkers.calls", "count", "lower", SU2)]
    rows += [(f"{stem}.s", "s", "lower", SU2)
             for stem in ("checkers.empirical_lp_ratio", "central.riesz_symbol",
                          "vfield.build_field", "vfield.verify_s00",
                          "vfield.recursion_residual")]
    rows += [(f"mollifier.{fn}.s", "s", "lower", PROBE)
             for fn in ("cz_probe", "negative_sobolev_decay",
                        "mollifier_scaling_report", "build_phi_r")]
    rows += [("mollifier.psi_hat_coefficients.calls", "count", "lower", PROBE),
             ("mollifier.coef_bands", "count", "lower", PROBE)]
    rows += [("cli.load_symbol_file.s", "s", "lower", TORUS)]
    rows += [(f"cli.{cmd}.wall_s", "s", "lower",
              "pass_s of its workload (untraced; shows which command moved)")
             for cmd in all_command_ids()]
    rows += [
        ("cli.cpu_s", "s", "lower",
         "pass_s of every workload (children's user+sys per untraced pass; "
         "shows added threading even when pass_s drops)"),
        ("trace.overhead_frac", "ratio", "lower",
         "none (traced pass / untraced pass - 1)"),
        ("trace.accounted_frac", "ratio", "higher",
         "none (layer self times / traced pass)"),
    ]
    return rows


PER_LAYER = _per_layer()


def benchmark_json(workload_why: Dict[str, str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document for this catalogue."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in workload_why.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }
