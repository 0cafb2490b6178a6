"""Aggregate harness spans into per-layer metrics.

A span's self time is its duration minus the durations of its child
spans (the program is single-threaded, so children never overlap).  A
layer's self time is the sum over its spans; a function's time is the
duration of its outermost spans, so recursion is not counted twice.
"""
from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List

LAYERS = ("groups", "grids", "transform", "symbols", "central", "checkers",
          "vfield", "mollifier", "cli")

#: Per-function time metrics: metric stem -> span name.
TIMED = {
    "transform.forward": "transform.fourier_forward",
    "transform.inverse": "transform.fourier_inverse",
    "symbols.apply_difference": "symbols.apply_difference",
    "symbols.laplace_difference": "symbols.laplace_difference",
    "symbols.word_sup_table": "symbols.word_sup_table",
    "checkers.empirical_lp_ratio": "checkers.empirical_lp_ratio",
    "central.riesz_symbol": "central.riesz_symbol",
    "vfield.build_field": "vfield.build_field",
    "vfield.verify_s00": "vfield.verify_s00",
    "vfield.recursion_residual": "vfield.recursion_residual",
    "mollifier.cz_probe": "mollifier.cz_probe",
    "mollifier.negative_sobolev_decay": "mollifier.negative_sobolev_decay",
    "mollifier.mollifier_scaling_report": "mollifier.mollifier_scaling_report",
    "mollifier.build_phi_r": "mollifier.build_phi_r",
    "cli.load_symbol_file": "cli.load_symbol_file",
}
#: Per-function call counts: metric stem -> span name.
COUNTED = {
    "groups.wigner_little_d": "groups.wigner_little_d",
    "transform.forward": "transform.fourier_forward",
    "transform.inverse": "transform.fourier_inverse",
    "symbols.apply_difference": "symbols.apply_difference",
    "symbols.laplace_difference": "symbols.laplace_difference",
    "symbols.word_sup_table": "symbols.word_sup_table",
    "mollifier.psi_hat_coefficients": "mollifier.psi_hat_coefficients",
}
CHECKER_ENTRY_POINTS = frozenset({"checkers.check_mikhlin",
                                  "checkers.check_refined",
                                  "checkers.check_torus3",
                                  "checkers.check_symbol_class"})


def read_spans(path: Path) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: List[dict]) -> List[float]:
    """Self time of each span of one command (``parent`` indexes it)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _outermost(spans: List[dict], i: int) -> bool:
    name, p = spans[i]["name"], spans[i]["parent"]
    while p >= 0:
        if spans[p]["name"] == name:
            return False
        p = spans[p]["parent"]
    return True


def _under(spans: List[dict], i: int, name: str) -> bool:
    p = spans[i]["parent"]
    while p >= 0:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def layer_metrics(commands: Iterable[List[dict]]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from each command's spans."""
    m: Dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    little_d_calls = little_d_misses = 0
    grid_calls = grid_builds = 0
    for spans in commands:
        own = self_times(spans)
        for i, s in enumerate(spans):
            name = s["name"]
            m[f"{name.split('.', 1)[0]}.self_s"] += own[i]
            outer = _outermost(spans, i)
            for stem, span_name in TIMED.items():
                if name == span_name and outer:
                    m[f"{stem}.s"] += s["end"] - s["start"]
            for stem, span_name in COUNTED.items():
                if name == span_name:
                    m[f"{stem}.calls"] += 1
            if name in CHECKER_ENTRY_POINTS:
                m["checkers.calls"] += 1
            m["groups.wigner_entries"] += s.get("entries", 0)
            m["transform.nodes"] += s.get("nodes", 0) if name.startswith("transform.") else 0
            m["transform.labels"] += s.get("labels", 0)
            m["mollifier.coef_bands"] += s.get("coef_bands", 0)
            if name == "grids.GroupGrid.little_d":
                little_d_calls += 1
            elif name == "groups.wigner_little_d" and s["parent"] >= 0:
                little_d_misses += (spans[s["parent"]]["name"]
                                    == "grids.GroupGrid.little_d")
            elif name == "symbols.default_grid":
                grid_calls += 1
            elif name == "grids.build_grid":
                m["grids.nodes_built"] += s["nodes"]
                grid_builds += _under(spans, i, "symbols.default_grid")
            if name == "symbols.word_sup_table" or (
                    name == "symbols.apply_difference"
                    and not _under(spans, i, "symbols.word_sup_table")):
                m["symbols.words"] += s.get("words", 0)
    m["grids.little_d.hit_ratio"] = (1.0 - little_d_misses / little_d_calls
                                     if little_d_calls else 0.0)
    m["grids.grid_cache.hit_ratio"] = (1.0 - grid_builds / grid_calls
                                       if grid_calls else 0.0)
    return dict(m)
