"""Traced child: run one ``gmult`` CLI command with spans around every
public function of every ``gmult`` layer, measured from outside.

    python3 perfbench/harness.py --spans OUT.jsonl --command-id ID -- ARGV...

Each public function of the layer modules, and ``GroupGrid.little_d``, is
replaced in every ``gmult`` module namespace that holds it, so calls
through ``from .x import f`` are timed as well.  Per-label helpers are
left alone (their cost lands in the caller).  Spans are kept in memory as
(name, start, end, parent, attributes) and written as JSONL when the
command ends; the harness exits with the command's exit code.  Nothing
under ``src/gmult`` is edited.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

sys.dont_write_bytecode = True   # for the benchmark's own modules only
from spans import LAYERS  # noqa: E402
sys.dont_write_bytecode = False

#: Called once per label; wrapping them would time the wrapper, not them.
PER_LABEL_HELPERS = frozenset({"validate_label", "label_band",
                               "irrep_dimension", "japanese_bracket",
                               "op_norm", "labels_up_to", "casimir_lambda"})


class Tracer:
    """In-memory span recorder for one single-threaded command."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: List[list] = []    # [name, start, end, parent, attrs]
        self.stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             probe: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call; ``probe(args, kwargs,
        result)`` returns work counts to attach to the span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent, "cmd": self.command_id}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def _probes(gmult_modules: Dict[str, object]) -> Dict[str, Callable]:
    """Work counts recorded at the layer boundaries, keyed by span name."""
    symbols = gmult_modules["symbols"]
    generator_words = symbols.generator_words

    def wigner(args, kwargs, result):
        return {"entries": int(result.size)}

    def build_grid(args, kwargs, result):
        return {"nodes": int(result.node_count)}

    def forward(args, kwargs, result):
        f = args[0] if args else kwargs["f"]
        return {"nodes": int(f.grid.node_count),
                "labels": len(result.entries)}

    def inverse(args, kwargs, result):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        return {"nodes": int(grid.node_count)}

    def word_sup(args, kwargs, result):
        sym = args[0] if args else kwargs["sym"]
        order = args[1] if len(args) > 1 else kwargs["order"]
        return {"words": len(generator_words(sym.model, order)) if order else 0}

    def apply_difference(args, kwargs, result):
        word = args[0] if args else kwargs["word"]
        return {"words": 1 if word.order else 0}

    def cz_probe(args, kwargs, result):
        return {"coef_bands": int(sum(result["bands"]))}

    return {
        "groups.wigner_little_d": wigner,
        "grids.build_grid": build_grid,
        "transform.fourier_forward": forward,
        "transform.fourier_inverse": inverse,
        "symbols.word_sup_table": word_sup,
        "symbols.apply_difference": apply_difference,
        "mollifier.cz_probe": cz_probe,
    }


def install(tracer: Tracer) -> None:
    """Wrap every public layer function in every ``gmult`` namespace that
    holds it, and ``GroupGrid.little_d`` (a table build under it is a
    cache miss)."""
    modules = {name: sys.modules[f"gmult.{name}"] for name in LAYERS}
    probes = _probes(modules)
    replaced: Dict[int, Callable] = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or attr in PER_LABEL_HELPERS
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            replaced[id(obj)] = tracer.wrap(name, obj, probes.get(name))
    holders = [m for n, m in sys.modules.items()
               if m is not None and (n == "gmult" or n.startswith("gmult."))]
    for module in holders:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(module, attr, replaced[id(obj)])
    grid_cls = modules["grids"].GroupGrid
    grid_cls.little_d = tracer.wrap("grids.GroupGrid.little_d",
                                    grid_cls.little_d)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--command-id", required=True)
    parser.add_argument("--src", required=True, type=Path,
                        help="directory that must hold the gmult package")
    parser.add_argument("gmult_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    gmult_argv = args.gmult_argv[1:] if args.gmult_argv[:1] == ["--"] else args.gmult_argv

    tracer = Tracer(args.command_id)
    sys.path.insert(0, str(args.src))
    start = time.perf_counter()
    import gmult.cli  # noqa: E402  (timed as the cli layer's import span)
    tracer.spans.append(["cli.import", start, time.perf_counter(), -1, None])
    origin = Path(gmult.cli.__file__).resolve()
    if args.src.resolve() not in origin.parents:
        sys.stderr.write(f"gmult imported from {origin}, not {args.src}\n")
        return 4
    install(tracer)
    code = 1
    try:
        code = gmult.cli.main(gmult_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
