"""Command-line surface: condition checkers, inverse symbols, scaling
probes, and a transform self-test, with deterministic JSON/CSV reports.

Subcommands
-----------
``check``            run a multiplier-condition checker on a built symbol
``invert``           exceptional set, inverse symbol, and growth verdict
                     for a frame-field resolvent
``probe``            mollifier scaling, negative-Sobolev decay, and the
                     second-difference scaling probe over a scale ladder
``fourier-selftest`` transform roundtrip + norm-identity check

Reports are JSON envelopes (schema-versioned, sorted keys, ladders embedded
as CSV blocks) written atomically; identical configuration and seed
reproduce them byte for byte except for the single timing field.  Exit
codes: 0 all selected checks pass, 1 a check computed but failed,
2 exceptional or invalid mathematical input, 3 resolution or configuration
error.
"""
from __future__ import annotations

import argparse
import ast
import json
import math
import os
import re
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errors import (BandOverflowError, ExceptionalValueError, GmultError,
                     SymbolFormatError, UnderResolvedError)
from .grids import _required_grid_band
from .groups import GroupModel, irrep_dimension, model_from_name
from .symbols import (MatrixSymbol, TorusSymbol, default_grid,
                      identity_symbol, random_symbol, symbol_add,
                      symbol_scale)
from .transform import (fourier_forward, fourier_inverse, function_norm_l2,
                        plancherel_norm)
from .central import function_of_laplacian, riesz_symbol
from .checkers import (SymbolClassSpec, check_mikhlin, check_range,
                       check_refined, check_symbol_class, check_torus3,
                       empirical_lp_ratio, torus_lattice_symbol)
from .vfield import (build_field, exceptional_set, invert_vf_symbol,
                     recursion_residuals, verify_s00)
from .mollifier import (check_sobolev_order, check_torus_dimension,
                        cz_probe, default_ladder, grid_normalizer,
                        grid_normalizer_samples,
                        identity_diagonals, mollifier_family,
                        mollifier_scaling_report, negative_sobolev_decay,
                        required_mollifier_band, riesz_field_diagonals,
                        smallest_resolved_scale)

SCHEMA = "gmult-report/1"
ENV_OUT_DIR = "GMULT_OUT_DIR"
EXIT_PASS, EXIT_FAIL, EXIT_MATH, EXIT_CONFIG = 0, 1, 2, 3
#: Profile samples the probe's grid cross-check may sum (and hold) at once.
_MAX_PROBE_SAMPLES = 1 << 22

__all__ = [
    "main", "parse_complex", "parse_ladder", "parse_torus_expression",
    "load_symbol_file", "build_cli_symbol",
]


# ---------------------------------------------------------------------------
# Small parsers
# ---------------------------------------------------------------------------

def parse_complex(text: str) -> complex:
    """Parse a finite complex scalar; the imaginary unit may be written i
    or j."""
    s = re.sub(r"i(?!nf)", "j", text.strip().replace(" ", ""))
    s = re.sub(r"(?<![\d.)])j", "1j", s)
    try:
        z = complex(s)
    except ValueError:
        raise SymbolFormatError(f"could not parse complex number {text!r}")
    if not np.isfinite(z):
        raise SymbolFormatError(f"complex number {text!r} is not finite")
    return z


def parse_ladder(text: str) -> List[float]:
    """Parse a scale ladder of at least 4 distinct positive finite scales:
    ``4:9`` (dyadic exponent range, 2^-4..2^-9) or a comma-separated
    list."""
    s = text.strip()
    m = re.fullmatch(r"(\d+):(\d+)", s)
    try:
        rs = (default_ladder(*sorted(map(int, m.groups()))) if m
              else [float(tok) for tok in s.split(",") if tok.strip()])
    except ValueError:
        raise SymbolFormatError(f"could not parse ladder {text!r}")
    if len(rs) < 4:
        raise SymbolFormatError(
            f"ladder {text!r} has {len(rs)} scales; a fit needs at least 4")
    if not all(math.isfinite(r) and r > 0 for r in rs):
        raise SymbolFormatError(
            f"ladder {text!r}: scales must be positive and finite")
    if len(set(rs)) < len(rs):
        raise SymbolFormatError(f"ladder {text!r} repeats a scale")
    return rs


_EXPR_FUNCS: Dict[str, Callable] = {
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "sin": np.sin,
    "cos": np.cos, "tan": np.tan, "sign": np.sign, "min": np.minimum,
    "max": np.maximum, "abs": None,  # handled specially (vector norm)
}

_EXPR_OPS = {
    ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
    ast.Div: np.true_divide, ast.Pow: np.power,
}


class _VectorK:
    """Sentinel for the full coordinate vector ``k``; only ``abs(k)``
    (the Euclidean norm) is defined on it."""

    def __init__(self, axes: Sequence[np.ndarray]):
        self.axes = axes

    def norm(self) -> np.ndarray:
        return np.sqrt(sum(np.asarray(a, dtype=float) ** 2
                           for a in self.axes))


def _expr_eval(node: ast.AST, env: Dict[str, object]):
    if isinstance(node, ast.Expression):
        return _expr_eval(node.body, env)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float, complex)):
            return node.value
        raise SymbolFormatError(f"literal {node.value!r} is not numeric")
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise SymbolFormatError(f"unknown name {node.id!r} in expression")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub,
                                                              ast.UAdd)):
        val = _expr_eval(node.operand, env)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        left = _expr_eval(node.left, env)
        right = _expr_eval(node.right, env)
        if isinstance(left, _VectorK) or isinstance(right, _VectorK):
            raise SymbolFormatError(
                "the vector k supports only abs(k); use k1..kn otherwise")
        return _EXPR_OPS[type(node.op)](left, right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name not in _EXPR_FUNCS:
            raise SymbolFormatError(f"unknown function {name!r}; allowed: "
                                    + ", ".join(sorted(_EXPR_FUNCS)))
        if node.keywords:
            raise SymbolFormatError("keyword arguments are not supported")
        args = [_expr_eval(a, env) for a in node.args]
        if name == "abs":
            if len(args) != 1:
                raise SymbolFormatError("abs takes one argument")
            if isinstance(args[0], _VectorK):
                return args[0].norm()
            return np.abs(args[0])
        if any(isinstance(a, _VectorK) for a in args):
            raise SymbolFormatError(
                "the vector k supports only abs(k); use k1..kn otherwise")
        if name in ("min", "max") and len(args) != 2:
            raise SymbolFormatError(f"{name} takes two arguments")
        return _EXPR_FUNCS[name](*args)
    raise SymbolFormatError(
        f"unsupported syntax in expression: {ast.dump(node)[:60]}")


def _parse_expression(text: str) -> ast.Expression:
    try:
        return ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise SymbolFormatError(f"could not parse expression {text!r}: {exc}")


def parse_torus_expression(text: str, n: int) -> Callable:
    """Compile a lattice-symbol expression in ``k1..kn`` and ``abs(k)``.

    Returns a vectorized function of the ``n`` integer coordinate arrays
    (broadcastable against each other, as from ``label_box``).
    A non-finite value at the origin (e.g. ``k1/abs(k)``) is replaced by 0;
    non-finite values elsewhere raise ``GmultError``.
    """
    tree = _parse_expression(text)

    def fn(*axes: np.ndarray) -> np.ndarray:
        env: Dict[str, object] = {f"k{j + 1}": np.asarray(axes[j],
                                                          dtype=float)
                                  for j in range(n)}
        env["k"] = _VectorK(axes)
        with np.errstate(all="ignore"):
            values = np.asarray(_expr_eval(tree, env), dtype=complex)
        shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
        values = np.broadcast_to(values, shape).copy()
        bad = ~np.isfinite(values)
        if bad.any():
            origin = np.ones_like(bad)
            for a in axes:
                origin &= (np.asarray(a) == 0)
            values[bad & origin] = 0.0
            if (bad & ~origin).any():
                raise GmultError(
                    f"expression {text!r} is non-finite away from the "
                    "origin")
        return values

    return fn


def parse_scalar_expression(text: str) -> Callable[[float], complex]:
    """Compile a one-variable expression in ``x`` (used for functions of
    the Laplacian eigenvalue); a non-finite value at ``x = 0`` becomes 0."""
    tree = _parse_expression(text)

    def fn(x: float) -> complex:
        with np.errstate(all="ignore"):
            val = complex(np.asarray(_expr_eval(tree, {"x": float(x)}),
                                     dtype=complex))
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            if x == 0.0:
                return 0.0
            raise GmultError(f"expression {text!r} is non-finite at x={x}")
        return val

    return fn


# ---------------------------------------------------------------------------
# Symbol files
# ---------------------------------------------------------------------------

def load_symbol_file(path: str):
    """Parse a symbol file (layout in the README): header, then one record
    per label.  Torus files load into the dense box through their largest
    stored label band."""
    try:
        with open(path) as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise SymbolFormatError(f"could not read symbol file {path!r}: "
                                f"{exc}")
    lines = [ln.strip() for ln in raw_lines if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("gmult-symbol"):
        raise SymbolFormatError(
            f"{path!r} is not a symbol file (missing 'gmult-symbol' header)")
    if lines[1].split()[:1] != ["group"] or lines[2].split()[:1] != ["band"]:
        raise SymbolFormatError(f"{path!r}: malformed header (want "
                                "'group <name>' then 'band <int>')")
    try:
        model = model_from_name(lines[1].split(None, 1)[1])
        band = int(lines[2].split()[1])
    except (IndexError, ValueError, GmultError) as exc:
        raise SymbolFormatError(f"{path!r}: malformed header: {exc}")
    # Check every record's layout first, then parse all value rows at once.
    records: List[Tuple[object, int]] = []
    rows: List[int] = []
    tokens: List[str] = []
    i = 3
    while i < len(lines):
        toks = lines[i].split()
        if toks[0] != "label" or "d" not in toks:
            raise SymbolFormatError(
                f"{path!r} line {i + 1}: expected 'label <coords> d <dim>'")
        di = toks.index("d")
        try:
            coords = tuple(int(v) for v in toks[1:di])
            d = int(toks[di + 1])
            label = coords if model.kind == "torus" else coords[0]
            expected = irrep_dimension(model, label)
        except (IndexError, ValueError) as exc:
            raise SymbolFormatError(f"{path!r} line {i + 1}: {exc}")
        if d != expected:
            raise SymbolFormatError(
                f"{path!r} line {i + 1}: label {label} must have dimension "
                f"{expected}, file says {d}")
        if i + d >= len(lines):
            raise SymbolFormatError(
                f"{path!r}: record for label {label} is truncated")
        for j in range(i + 1, i + d + 1):
            vals = lines[j].split()
            if len(vals) != 2 * d:
                raise SymbolFormatError(
                    f"{path!r} line {j + 1}: expected {2 * d} numbers "
                    f"(re/im pairs), found {len(vals)}")
            tokens += vals
        rows += range(i + 1, i + d + 1)
        records.append((label, d))
        i += d + 1
    try:
        nums = np.array(tokens, dtype=float)
        parsed = bool(np.isfinite(nums).all())
    except ValueError:
        parsed = False
    if not parsed:  # name the first offending line
        for j in rows:
            try:
                finite = all(math.isfinite(float(v)) for v in lines[j].split())
            except ValueError as exc:
                raise SymbolFormatError(f"{path!r} line {j + 1}: {exc}")
            if not finite:
                raise SymbolFormatError(
                    f"{path!r} line {j + 1}: entries must be finite")
    values = nums[0::2] + 1j * nums[1::2]
    entries: Dict[object, np.ndarray] = {}
    start = 0
    for label, d in records:
        entries[label] = values[start:start + d * d].reshape(d, d)
        start += d * d
    if model.kind == "su2":
        return MatrixSymbol(model, entries, exact_band=band)
    coords = np.array(list(entries), dtype=int).reshape(len(entries), model.n)
    radius = int(np.abs(coords).max(initial=0))
    try:
        table = np.zeros((2 * radius + 1,) * model.n, dtype=complex)
    except (ValueError, MemoryError):
        raise SymbolFormatError(
            f"{path!r}: labels reach band {radius}; a torus-{model.n} box "
            "of that radius does not fit in memory")
    table[tuple((coords + radius).T)] = np.reshape(list(entries.values()), -1)
    return TorusSymbol(model, table, exact_band=band)


# ---------------------------------------------------------------------------
# Symbol builders
# ---------------------------------------------------------------------------

_FIELD_COEFFS = {"D1": (1.0, 0.0, 0.0), "D2": (0.0, 1.0, 0.0),
                 "D3": (0.0, 0.0, 1.0)}


def _parse_field(text: str) -> Tuple[float, float, float]:
    name = text.strip().upper()
    if name in _FIELD_COEFFS:
        return _FIELD_COEFFS[name]
    try:
        parts = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise SymbolFormatError(f"unknown frame field {text!r}; use D1, "
                                "D2, D3 or three comma-separated floats")
    if len(parts) != 3:
        raise SymbolFormatError("a frame field needs three coefficients")
    return parts


def build_cli_symbol(model: GroupModel, text: str, band: int):
    """Resolve ``--symbol``: a named builder, a lattice expression (torus),
    or a path to a symbol file.  Returns a checker-ready symbol."""
    spec = text.strip()
    path = spec[1:] if spec.startswith("@") else spec
    if spec.startswith("@") or os.path.exists(path):
        sym = load_symbol_file(path)
        if sym.model.name != model.name:
            raise SymbolFormatError(
                f"symbol file is for {sym.model.name}, the run is for "
                f"{model.name}")
        if sym.exact_band < band:
            raise BandOverflowError(
                f"symbol file certifies band {sym.exact_band}; this check "
                f"needs band {band} — rebuild the file with band >= {band}")
        return sym
    pad = 2 * model.kappa  # headroom for difference words at the band edge
    if spec == "identity":
        return identity_symbol(model, band + pad)
    if spec == "zero":
        return symbol_scale(identity_symbol(model, band + pad), 0.0)
    if model.kind == "torus":
        fn = parse_torus_expression(spec, model.n)
        return torus_lattice_symbol(model, fn, band, pad=pad)
    if spec.startswith("riesz:"):
        coeffs = np.asarray(_parse_field(spec[len("riesz:"):]), dtype=float)
        nrm = float(np.linalg.norm(coeffs))
        if nrm == 0:
            raise SymbolFormatError("riesz builder needs a nonzero field")
        return riesz_symbol(model, tuple(coeffs / nrm), band + pad)
    if spec.startswith("laplacian-function:"):
        fn = parse_scalar_expression(spec[len("laplacian-function:"):])
        return function_of_laplacian(fn, band + pad).as_symbol(band + pad)
    if spec.startswith("vf-inverse"):
        rest = spec[len("vf-inverse"):]
        c = parse_complex(rest[1:]) if rest.startswith(":") else 1.0 + 0.0j
        field = build_field(model, (0.0, 0.0, 1.0), band + 2 * pad)
        return invert_vf_symbol(field, c, band + pad)
    raise SymbolFormatError(
        f"unknown symbol builder {spec!r} for {model.name}; named builders: "
        "riesz:<field>, laplacian-function:<expr>, vf-inverse[:c], "
        "identity, zero, or a symbol-file path")


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    return obj


def ladder_csv(columns: Dict[str, Sequence[float]]) -> str:
    """Render aligned ladder columns as an embedded CSV block."""
    names = list(columns)
    length = len(next(iter(columns.values())))
    rows = [",".join(names)]
    for i in range(length):
        rows.append(",".join(repr(float(columns[name][i]))
                             for name in names))
    return "\n".join(rows)


def make_envelope(command: str, config: Dict[str, object],
                  results: Dict[str, object], passed: bool,
                  started: float) -> Dict[str, object]:
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "config": _jsonable(config),
        "results": _jsonable(results),
        "passed": bool(passed),
        "timing_seconds": round(time.time() - started, 3),
    }


def _flatten(prefix: str, obj, rows: List[Tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, repr(obj) if isinstance(obj, str)
                     else json.dumps(obj)))


def render_report(envelope: Dict[str, object], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(envelope, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    rows: List[Tuple[str, str]] = []
    _flatten("", envelope, rows)
    return "\n".join(f"{k},{v}" for k, v in rows) + "\n"


def write_report(envelope: Dict[str, object], out: Optional[str],
                 fmt: str) -> None:
    text = render_report(envelope, fmt)
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.environ.get(ENV_OUT_DIR, "")
    path = out if os.path.isabs(out) else os.path.join(directory, out)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".gmult-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    sys.stdout.write(f"report written to {path}\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _group_model(name: str) -> GroupModel:
    """The model ``--group`` names; a malformed name is a configuration
    error that names the option."""
    try:
        return model_from_name(name)
    except ValueError as exc:
        raise SymbolFormatError(f"--group: {exc}") from None


def _default_band(model: GroupModel) -> int:
    return 24 if model.kind == "su2" else 12


def cmd_check(args: argparse.Namespace) -> int:
    started = time.time()
    model = _group_model(args.group)
    band = args.band if args.band is not None else _default_band(model)
    if args.range is not None and band < args.range + model.kappa:
        raise BandOverflowError(
            f"band {band} cannot cover range {args.range} plus the "
            f"difference-order margin {model.kappa}; use band >= "
            f"{args.range + model.kappa}")
    # before the symbol is built: a torus box grows like (2 band + 1)^n
    check_range(model, band)
    sym = build_cli_symbol(model, args.symbol, band)
    checker = args.checker
    extras: Dict[str, object] = {}
    if checker == "mikhlin":
        report = check_mikhlin(sym, band)
        if model.kind == "su2":
            extras["empirical_l4"] = empirical_lp_ratio(
                sym, 4.0, trials=3, band=min(band, 8), seed=args.seed)
    elif checker == "refined":
        report = check_refined(sym, band)
    elif checker == "torus3":
        if model.kind != "torus" or model.n != 3:
            raise SymbolFormatError(
                "the torus3 checker applies to --group torus-3 only")
        report = check_torus3(sym, band)
    elif checker.startswith("symbol-class:"):
        parts = checker[len("symbol-class:"):].split(",")
        if len(parts) != 3:
            raise SymbolFormatError(
                "symbol-class checker syntax: "
                "symbol-class:<order>,<rho>,<max_order>")
        try:
            spec = SymbolClassSpec(float(parts[0]), float(parts[1]),
                                   int(parts[2]))
        except ValueError as exc:
            raise SymbolFormatError(f"bad symbol-class parameters: {exc}")
        report = check_symbol_class(sym, spec, band)
    else:
        raise SymbolFormatError(
            f"unknown checker {args.checker!r}; choose mikhlin, refined, "
            "torus3 or symbol-class:<order>,<rho>,<max_order>")
    results = {"report": report.as_dict()}
    if extras:
        results["extras"] = extras
    envelope = make_envelope("check", _config_echo(args, model, band),
                             results, report.passed, started)
    write_report(envelope, args.out, args.format)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_invert(args: argparse.Namespace) -> int:
    started = time.time()
    model = _group_model(args.group)
    if model.kind != "su2":
        raise SymbolFormatError("invert runs on --group su2 only")
    band = args.band if args.band is not None else 40
    coeffs = np.asarray(_parse_field(args.field), dtype=float)
    amp = float(np.linalg.norm(coeffs))
    if amp == 0:
        raise SymbolFormatError("the frame field must be nonzero")
    c = parse_complex(args.c)
    spec = build_field(model, tuple(coeffs), band + 2 * model.kappa)
    exc_points = exceptional_set(spec, bound=max(2.0, abs(c) + 1.0))
    try:
        inverse = invert_vf_symbol(spec, c, band)
    except ExceptionalValueError as exc:
        lattice = "(1/2)Z" if abs(amp - 1.0) < 1e-12 else f"({amp / 2:g})Z"
        raise ExceptionalValueError(
            f"c = {args.c} is exceptional for this field: i*c lies in the "
            f"half-integer lattice {lattice} of eigenvalue gaps "
            f"(resolvent undefined); detail: {exc}")
    sup_norm = float(inverse.norms(band).max())
    s00 = verify_s00(spec, c, band)
    results: Dict[str, object] = {
        "exceptional_set": [{"re": z.real, "im": z.imag}
                            for z in exc_points],
        "inverse_sup_norm": sup_norm,
        "s00": s00.as_dict(),
    }
    passed = bool(s00.passed)
    if args.recursion_check:
        residuals = {}
        for j, res in recursion_residuals(spec, c, min(band, 12)).items():
            residuals[f"block_{j}"] = res
            passed = passed and (res["residual"] < 1e-9
                                 and res["offdiagonal"] < 1e-9)
        results["recursion_residuals"] = residuals
    envelope = make_envelope("invert", _config_echo(args, model, band),
                             results, passed, started)
    write_report(envelope, args.out, args.format)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_probe(args: argparse.Namespace) -> int:
    started = time.time()
    model = _group_model(args.group)
    check_torus_dimension(model, SymbolFormatError)
    if model.kind == "su2":
        check_sobolev_order(model, args.q, args.s, SymbolFormatError)
    ladder = parse_ladder(args.ladder)
    ladder = sorted(ladder, reverse=True)
    grid_band = args.grid_band
    if grid_band is not None:
        floor_r = smallest_resolved_scale(model, grid_band)
        if min(ladder) < floor_r:
            raise UnderResolvedError(
                f"grid band {grid_band} cannot resolve the ladder: the "
                f"smallest usable r on that grid is {floor_r:.6g}, the "
                f"ladder reaches {min(ladder):.6g}; use --grid-band >= "
                f"{required_mollifier_band(model, min(ladder))}")
    else:
        grid_band = required_mollifier_band(model, max(ladder))
    samples = grid_normalizer_samples(model, grid_band, max(ladder))
    if samples > _MAX_PROBE_SAMPLES:
        raise UnderResolvedError(
            f"the grid cross-check on a band-{grid_band} grid sums {samples} "
            f"samples, past the probe cap {_MAX_PROBE_SAMPLES}")
    results: Dict[str, object] = {}
    passes: List[bool] = []

    scaling = mollifier_scaling_report(model, ladder)
    scale_pass = (abs(scaling["c_r_fit"]["slope"] + 1.0) <= 0.15
                  and abs(scaling["l2_fit"]["slope"] + 0.5) <= 0.15
                  and scaling["c_r_fit"]["r_squared"] >= 0.98
                  and scaling["l2_fit"]["r_squared"] >= 0.98)
    passes.append(scale_pass)
    results["mollifier_scaling"] = dict(scaling, passed=scale_pass)
    results["ladder_csv"] = ladder_csv({
        "r": scaling["ladder"], "c_r": scaling["c_r"], "l2": scaling["l2"]})

    grid = default_grid(model, grid_band)
    coarse = max(ladder)
    grid_c = grid_normalizer(model, grid, coarse)
    radial_c = mollifier_family(model, coarse).c_r
    results["grid_cross_check"] = {
        "grid_band": grid_band, "r": coarse, "grid_c_r": grid_c,
        "radial_c_r": radial_c,
        "relative_difference": abs(grid_c / radial_c - 1.0),
    }

    if model.kind == "su2":
        decay = negative_sobolev_decay(model, q=args.q, s=args.s,
                                       ladder=ladder)
        decay_pass = (abs(decay["fit"]["slope"] - decay["expected_slope"])
                      <= 0.1)
        passes.append(decay_pass)
        results["negative_sobolev"] = dict(decay, passed=decay_pass)
        results["negative_sobolev_csv"] = ladder_csv({
            "r": decay["ladder"], "norm": decay["norms"],
            "band": [float(b) for b in decay["bands"]]})

        probe_symbol = args.symbol or "riesz:D3"
        if probe_symbol.startswith("riesz:"):
            _parse_field(probe_symbol[len("riesz:"):])  # validate
            provider = riesz_field_diagonals(model)
        elif probe_symbol == "identity":
            provider = identity_diagonals
        else:
            raise SymbolFormatError(
                f"the scaling probe supports --symbol riesz:<field> or "
                f"identity, not {probe_symbol!r}")
        cz = cz_probe(model, provider, ladder=ladder)
        passes.append(bool(cz["passed"]))
        results["cz_probe"] = cz
        results["cz_probe_csv"] = ladder_csv({
            "r": cz["ladder"], "norm": cz["norms"],
            "band": [float(b) for b in cz["bands"]]})
    else:
        results["notes"] = ["negative-Sobolev and second-difference probes "
                            "are implemented on the 3-sphere model only"]

    passed = all(passes)
    envelope = make_envelope("probe", _config_echo(args, model, grid_band),
                             results, passed, started)
    write_report(envelope, args.out, args.format)
    return EXIT_PASS if passed else EXIT_FAIL


def _selftest_one(model: GroupModel, band: int, seed: int
                  ) -> Dict[str, object]:
    sym = random_symbol(model, band, np.random.default_rng(seed),
                        exact_band=band)
    # the smallest grid exact for the pair: it represents the labels and
    # integrates their products (total band 2 band) exactly
    grid = default_grid(model, max(1, _required_grid_band(model, band)))
    f = fourier_inverse(sym, grid)
    back = fourier_forward(f, band=band)
    roundtrip = math.sqrt(symbol_add(back, sym, beta=-1.0).energy(band)
                          / sym.energy(band))
    pn = plancherel_norm(sym)
    fn = function_norm_l2(f)
    parseval = abs(pn / fn - 1.0)
    return {
        "band": band,
        "roundtrip_relative_error": roundtrip,
        "norm_identity_relative_error": parseval,
        "tolerance": 1e-9,
        "passed": bool(roundtrip < 1e-9 and parseval < 1e-9),
    }


def cmd_selftest(args: argparse.Namespace) -> int:
    started = time.time()
    if args.group:
        model = _group_model(args.group)
        band = args.band if args.band is not None else (
            8 if model.kind == "su2" else 16)
        plan = [(model, band)]
    else:
        plan = [(model_from_name("su2"), 8),
                (model_from_name("torus-3"), 16)]
    results = {}
    for model, band in plan:
        results[model.name] = _selftest_one(model, band, args.seed)
    passed = all(r["passed"] for r in results.values())
    config = {"group": args.group or "su2+torus-3", "seed": args.seed,
              "format": args.format}
    envelope = make_envelope("fourier-selftest", config, results, passed,
                             started)
    write_report(envelope, args.out, args.format)
    return EXIT_PASS if passed else EXIT_FAIL


def _config_echo(args: argparse.Namespace, model: GroupModel,
                 band: int) -> Dict[str, object]:
    echo: Dict[str, object] = {"group": model.name, "band": band,
                               "seed": args.seed, "format": args.format}
    for key in ("symbol", "checker", "range", "ladder", "q", "s", "field",
                "c", "grid_band", "recursion_check"):
        if hasattr(args, key) and getattr(args, key) is not None:
            echo[key] = getattr(args, key)
    return echo


# ---------------------------------------------------------------------------
# Argument parsing / dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmult",
        description="Multiplier-condition checks, inverse symbols, and "
                    "scaling probes on the torus and the 3-sphere model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, group_required: bool) -> None:
        p.add_argument("--group", required=group_required,
                       help="group model: su2 or torus-<n>")
        p.add_argument("--band", type=int, default=None,
                       help="label band (defaults depend on the command)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized diagnostics")
        p.add_argument("--out", default=None,
                       help=f"report file (relative paths join "
                            f"${ENV_OUT_DIR} when set); default: stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_check = sub.add_parser("check", help="run a multiplier checker")
    common(p_check, group_required=True)
    p_check.add_argument("--symbol", required=True,
                         help="named builder, lattice expression (torus), "
                              "or symbol-file path")
    p_check.add_argument("--checker", required=True,
                         help="mikhlin | refined | torus3 | "
                              "symbol-class:<order>,<rho>,<max_order>")
    p_check.add_argument("--range", type=int, default=None,
                         help="label range the check must cover "
                              "(validates the band)")
    p_check.set_defaults(func=cmd_check)

    p_invert = sub.add_parser("invert",
                              help="resolvent of a frame field plus c")
    common(p_invert, group_required=False)
    p_invert.set_defaults(group="su2")
    p_invert.add_argument("--field", default="D3",
                          help="D1 | D2 | D3 | three comma floats")
    p_invert.add_argument("--c", default="1",
                          help="complex shift, e.g. 1, 0.5i, 1+0.5i")
    p_invert.add_argument("--recursion-check", action="store_true",
                          dest="recursion_check",
                          help="also verify the inverse-difference "
                               "recursion residuals")
    p_invert.set_defaults(func=cmd_invert)

    p_probe = sub.add_parser("probe", help="scaling probes over a ladder")
    common(p_probe, group_required=False)
    p_probe.set_defaults(group="su2")
    p_probe.add_argument("--ladder", default="4:9",
                         help="dyadic range 'kmin:kmax' (2^-k) or "
                              "comma-separated scales")
    p_probe.add_argument("--q", choices=("one", "rho2", "adcoef"),
                         default="rho2",
                         help="vanishing factor of the decay probe: one "
                              "(order 0), rho2 (squared radial coordinate, "
                              "order 2) or adcoef (off-diagonal fundamental "
                              "coefficient, order 1)")
    p_probe.add_argument("--s", type=float, default=0.0,
                         help="negative Sobolev order, in [0, 1 + n/2]; "
                              "--q rho2 needs s <= n/2")
    p_probe.add_argument("--symbol", default=None,
                         help="probe multiplier: riesz:<field> or identity")
    p_probe.add_argument("--grid-band", type=int, default=None,
                         dest="grid_band",
                         help="grid band for the sampled cross-check "
                              "(default: auto from the coarsest scale)")
    p_probe.set_defaults(func=cmd_probe)

    p_self = sub.add_parser("fourier-selftest",
                            help="transform roundtrip and norm identity")
    common(p_self, group_required=False)
    p_self.set_defaults(group=None)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.band is not None and args.band < 0:
            raise SymbolFormatError(
                f"--band must be a nonnegative integer, got {args.band}")
        return args.func(args)
    except UnderResolvedError as exc:
        sys.stderr.write(f"resolution error: {exc}\n")
        return EXIT_CONFIG
    except (SymbolFormatError, BandOverflowError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except ExceptionalValueError as exc:
        sys.stderr.write(f"exceptional input: {exc}\n")
        return EXIT_MATH
    except GmultError as exc:
        sys.stderr.write(f"math error: {exc}\n")
        return EXIT_MATH
    except ValueError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except MemoryError:
        band = ("its default band" if args.band is None
                else f"band {args.band}")
        sys.stderr.write(
            f"configuration error: {args.group or 'su2+torus-3'} at {band} "
            "needs more memory than is available; a torus-<n> box holds "
            "(2 band + 1)^n labels, so lower --band or n\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
