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
import random
import re
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errors import (BandOverflowError, ExceptionalValueError, GmultError,
                     SymbolFormatError, UnderResolvedError)
from .grids import _required_grid_band, build_grid
from .groups import GroupModel, irrep_dimension, model_from_name
from .symbols import (MatrixSymbol, TorusSymbol, identity_symbol,
                      random_symbol, symbol_add, symbol_scale)
from .transform import (fourier_forward, fourier_inverse, function_norm_l2,
                        plancherel_norm)
from .central import function_of_laplacian, riesz_symbol
from .checkers import (SymbolClassSpec, check_mikhlin, check_range,
                       check_refined, check_symbol_class, check_torus3,
                       check_word_count, empirical_lp_ratio,
                       torus_lattice_symbol)
from .vfield import (build_field, exceptional_set, invert_vf_symbol,
                     recursion_residuals, verify_s00)
from .mollifier import (check_sobolev_order, check_torus_dimension,
                        cz_probe, default_ladder, grid_normalizer,
                        identity_diagonals, mollifier_family,
                        mollifier_scaling_report, negative_sobolev_decay,
                        psi_hat_coefficients, riesz_field_diagonals)

SCHEMA = "gmult-report/1"
ENV_OUT_DIR = "GMULT_OUT_DIR"
EXIT_PASS, EXIT_FAIL, EXIT_MATH, EXIT_CONFIG = 0, 1, 2, 3

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
    if m and max(map(int, m.groups())) > 1074:
        raise SymbolFormatError(f"ladder {text!r}: 2^-k is 0 for k past 1074")
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
    "cos": np.cos, "tan": np.tan, "sign": np.sign, "abs": np.abs,
    "min": np.minimum, "max": np.maximum,
}

_EXPR_OPS = {
    ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
    ast.Div: np.true_divide, ast.Pow: np.power,
    ast.USub: np.negative, ast.UAdd: np.positive,
}


def _compile_expression(text: str, names: Sequence[str],
                        vector: Optional[str] = None) -> Callable:
    """Compile an expression in the variables ``names`` (and, when
    ``vector`` names them together, their Euclidean norm ``abs(vector)``)
    into a vectorized function of one array per variable.

    Literals are floats (or complex); every function takes one argument
    but ``min`` and ``max``, which take two.  A malformed expression is
    refused when the function runs.  A non-finite value where every
    variable is 0 (e.g. ``k1/abs(k)`` at the origin) is replaced by 0;
    non-finite values elsewhere raise ``GmultError``.
    """
    try:
        tree = ast.parse(text, mode="eval").body
    except (SyntaxError, RecursionError) as exc:
        raise SymbolFormatError(f"could not parse expression {text!r}: {exc}")

    def value(node: ast.AST, env: Dict[str, np.ndarray]):
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float, complex):
                raise SymbolFormatError(
                    f"literal {node.value!r} is not numeric")
            if type(node.value) is not int:
                return node.value
            try:
                return float(node.value)
            except OverflowError:  # as the float literal 1e999 reads
                return math.inf
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id == vector:
                raise SymbolFormatError(f"the vector {vector} supports only "
                                        f"abs({vector}); use {names[0]}.."
                                        f"{names[-1]} otherwise")
            raise SymbolFormatError(f"unknown name {node.id!r} in expression")
        if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
            return _EXPR_OPS[type(node.op)](value(node.operand, env))
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
            return _EXPR_OPS[type(node.op)](value(node.left, env),
                                            value(node.right, env))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name not in _EXPR_FUNCS:
                raise SymbolFormatError(f"unknown function {name!r}; "
                                        "allowed: "
                                        + ", ".join(sorted(_EXPR_FUNCS)))
            arity = 2 if name in ("min", "max") else 1
            if len(node.args) != arity or node.keywords:
                raise SymbolFormatError(f"{name} takes {arity} argument"
                                        + "s" * (arity > 1))
            arg = node.args[0]
            if name == "abs" and isinstance(arg, ast.Name) \
                    and arg.id == vector:
                return np.sqrt(sum(env[v] ** 2 for v in names))
            return _EXPR_FUNCS[name](*(value(a, env) for a in node.args))
        raise SymbolFormatError(
            f"unsupported syntax in expression: {ast.dump(node)[:60]}")

    def fn(*variables) -> np.ndarray:
        env = {v: np.asarray(a, dtype=float) for v, a in zip(names, variables)}
        try:
            with np.errstate(all="ignore"):
                values = np.asarray(value(tree, env), dtype=complex)
        except RecursionError:
            raise SymbolFormatError(f"expression {text!r} nests too deeply")
        shape = np.broadcast_shapes(*(a.shape for a in env.values()))
        if values.shape != shape:
            # a fresh evaluation of the full shape is already private
            values = np.broadcast_to(values, shape).copy()
        bad = ~np.isfinite(values)
        if bad.any():
            origin = np.ones_like(bad)
            for a in env.values():
                origin &= (a == 0)
            values[bad & origin] = 0.0
            bad &= ~origin
            if bad.any():
                at = np.unravel_index(np.argmax(bad), shape)
                point = ", ".join(f"{v}={np.broadcast_to(a, shape)[at]:g}"
                                  for v, a in env.items())
                raise GmultError(f"expression {text!r} is non-finite at "
                                 f"{point}")
        return values

    return fn


def parse_torus_expression(text: str, n: int) -> Callable:
    """Compile a lattice-symbol expression in ``k1..kn`` and ``abs(k)``:
    a vectorized function of the ``n`` integer coordinate arrays
    (broadcastable against each other, as from ``label_box``), with the
    rules of ``_compile_expression``."""
    return _compile_expression(text, [f"k{j + 1}" for j in range(n)], "k")


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
    # the non-blank lines; messages name a line by its number in the file
    at = [n for n, ln in enumerate(raw_lines, 1) if ln.strip()]
    lines = [raw_lines[n - 1].strip() for n in at]

    def bad(i: int, msg) -> SymbolFormatError:
        return SymbolFormatError(f"{path!r} line {at[i]}: {msg}")

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
    records: Dict[object, Tuple[int, int]] = {}  # label: (line index, dim)
    rows: List[int] = []
    tokens: List[str] = []
    i = 3
    while i < len(lines):
        toks = lines[i].split()
        if toks[0] != "label" or "d" not in toks:
            raise bad(i, "expected 'label <coords> d <dim>'")
        di = toks.index("d")
        try:
            coords = tuple(int(v) for v in toks[1:di])
            d = int(toks[di + 1])
            label = (coords[0] if model.kind == "su2" and len(coords) == 1
                     else coords)  # validate_label refuses other su2 counts
            expected = irrep_dimension(model, label)
        except (IndexError, ValueError) as exc:
            raise bad(i, exc)
        if d != expected:
            raise bad(i, f"label {label} must have dimension {expected}, "
                         f"file says {d}")
        if label in records:
            raise bad(i, f"label {label} is listed again (first at line "
                         f"{at[records[label][0]]})")
        if i + d >= len(lines):
            raise bad(i, f"record for label {label} is truncated")
        for j in range(i + 1, i + d + 1):
            vals = lines[j].split()
            if len(vals) != 2 * d:
                raise bad(j, f"expected {2 * d} numbers (re/im pairs), "
                             f"found {len(vals)}")
            tokens += vals
        rows += range(i + 1, i + d + 1)
        records[label] = (i, d)
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
                raise bad(j, exc)
            if not finite:
                raise bad(j, "entries must be finite")
    values = nums[0::2] + 1j * nums[1::2]
    entries: Dict[object, np.ndarray] = {}
    start = 0
    for label, (_, d) in records.items():
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
    if not 0.0 < sum(v * v for v in parts) < math.inf:
        raise SymbolFormatError(f"frame field {text!r} needs finite "
                                "coefficients and a nonzero, finite norm")
    return parts


def build_cli_symbol(model: GroupModel, text: str, band: int, max_order: int):
    """Resolve ``--symbol``: a named builder, a lattice expression (torus),
    or a path to a symbol file (taken as stored).  Returns a checker-ready
    symbol."""
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
    pad = 2 * max(model.kappa, max_order)  # for the words at the band edge
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
        return riesz_symbol(model, tuple(coeffs / nrm), band + pad)
    if spec.startswith("laplacian-function:"):
        fn = _compile_expression(spec[len("laplacian-function:"):], ["x"])
        return function_of_laplacian(fn, band + pad).as_symbol(band + pad)
    if spec.startswith("vf-inverse"):
        rest = spec[len("vf-inverse"):]
        c = parse_complex(rest[1:]) if rest.startswith(":") else 1.0 + 0.0j
        field = build_field(model, (0.0, 0.0, 1.0), band + 2 * pad)
        try:
            return invert_vf_symbol(field, c, band + pad)
        except ValueError as exc:
            raise SymbolFormatError(f"--symbol {spec}: {exc}") from None
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


def cmd_check(args: argparse.Namespace) -> Tuple[Dict, Dict, bool]:
    model = _group_model(args.group)
    band = args.band if args.band is not None else _default_band(model)
    # before the symbol is built: a torus box grows like (2 band + 1)^n
    check_range(model, band)
    checker, spec = args.checker, None
    if checker.startswith("symbol-class:"):
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
        # before the symbol is built: it is padded by 2 max_order
        check_word_count(model, spec.max_order)
    elif checker not in ("mikhlin", "refined", "torus3"):
        raise SymbolFormatError(
            f"unknown checker {args.checker!r}; choose mikhlin, refined, "
            "torus3 or symbol-class:<order>,<rho>,<max_order>")
    elif checker == "torus3" and (model.kind != "torus" or model.n != 3):
        raise SymbolFormatError(
            "the torus3 checker applies to --group torus-3 only")
    sym = build_cli_symbol(model, args.symbol, band,
                           spec.max_order if spec else 0)
    extras: Dict[str, object] = {}
    if checker == "mikhlin":
        report = check_mikhlin(sym, band)
        if model.kind == "su2":
            extras["empirical_l4"] = empirical_lp_ratio(
                sym, 4.0, trials=3, band=min(band, 8), seed=args.seed)
    elif checker == "refined":
        report = check_refined(sym, band)
    elif checker == "torus3":
        report = check_torus3(sym, band)
    else:
        report = check_symbol_class(sym, spec, band)
    results = {"report": report.as_dict()}
    if extras:
        results["extras"] = extras
    return _config_echo(args, model, band), results, report.passed


def cmd_invert(args: argparse.Namespace) -> Tuple[Dict, Dict, bool]:
    model = _group_model(args.group)
    if model.kind != "su2":
        raise SymbolFormatError("invert runs on --group su2 only")
    band = args.band if args.band is not None else 40
    # before the field is built or the shift tested
    check_range(model, band)
    coeffs = np.asarray(_parse_field(args.field), dtype=float)
    amp = float(np.linalg.norm(coeffs))
    c = parse_complex(args.c)
    spec = build_field(model, tuple(coeffs), band + 2 * model.kappa)
    exc_points = exceptional_set(spec, bound=max(2.0, abs(c) + 1.0))
    try:
        s00 = verify_s00(spec, c, band)
    except ExceptionalValueError as exc:
        lattice = "(1/2)Z" if abs(amp - 1.0) < 1e-12 else f"({amp / 2:g})Z"
        raise ExceptionalValueError(
            f"c = {args.c} is exceptional for this field: i*c lies in the "
            f"half-integer lattice {lattice} of eigenvalue gaps "
            f"(resolvent undefined); detail: {exc}")
    except ValueError as exc:
        raise SymbolFormatError(f"--c {args.c}: {exc}") from None
    results: Dict[str, object] = {
        "exceptional_set": [{"re": z.real, "im": z.imag}
                            for z in exc_points],
        # the order-0 weight <xi>^0 is 1: the constant is the sup norm
        "inverse_sup_norm": s00.condition("order-0").constant,
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
    return _config_echo(args, model, band), results, passed


def cmd_probe(args: argparse.Namespace) -> Tuple[Dict, Dict, bool]:
    model = _group_model(args.group)
    check_torus_dimension(model)
    check_sobolev_order(model, args.q, args.s)
    if model.kind != "su2" and args.symbol is not None:
        raise SymbolFormatError("--symbol: the probe's multiplier is su2-only")
    if model.kind == "su2":
        probe_symbol = args.symbol or "riesz:D3"
        if probe_symbol.startswith("riesz:"):
            # every direction has D3's norms: a rotation conjugates each
            # block by a unitary, and rho^2 and psi_r are central
            _parse_field(probe_symbol[len("riesz:"):])
            provider = riesz_field_diagonals(model)
        elif probe_symbol == "identity":
            provider = identity_diagonals
        else:
            raise SymbolFormatError(
                f"the scaling probe supports --symbol riesz:<field> or "
                f"identity, not {probe_symbol!r}")
    ladder = sorted(parse_ladder(args.ladder), reverse=True)
    coarse = ladder[0]
    # the grid normalizes phi_r at the coarsest scale only, and refuses a
    # scale past its sample cap before any probe runs
    grid_c, grid_band = grid_normalizer(model, coarse)
    radial_c = mollifier_family(model, coarse).c_r
    results: Dict[str, object] = {"grid_cross_check": {
        "grid_band": grid_band, "r": coarse, "grid_c_r": grid_c,
        "radial_c_r": radial_c,
        "relative_difference": abs(grid_c / radial_c - 1.0),
    }}
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

    if model.kind == "su2":
        pieces = [psi_hat_coefficients(model, r) for r in ladder]
        decay = negative_sobolev_decay(model, q=args.q, s=args.s,
                                       ladder=pieces)
        decay_pass = (abs(decay["fit"]["slope"] - decay["expected_slope"])
                      <= 0.1)
        passes.append(decay_pass)
        results["negative_sobolev"] = dict(decay, passed=decay_pass)
        results["negative_sobolev_csv"] = ladder_csv({
            "r": decay["ladder"], "norm": decay["norms"],
            "band": [float(b) for b in decay["bands"]]})

        cz = cz_probe(model, provider, ladder=pieces)
        passes.append(bool(cz["passed"]))
        results["cz_probe"] = cz
        results["cz_probe_csv"] = ladder_csv({
            "r": cz["ladder"], "norm": cz["norms"],
            "band": [float(b) for b in cz["bands"]]})
    else:
        results["notes"] = ["negative-Sobolev and second-difference probes "
                            "are implemented on the 3-sphere model only"]

    return _config_echo(args, model, grid_band), results, all(passes)


class _GaussianDraws:
    """Standard normal draws from ``random.Random(seed)``, for
    :func:`random_symbol`: Box-Muller on 53-bit uniforms read from
    ``randbytes``, so the self-test needs no ``numpy.random`` (about 6 MB
    of every child that imports it; ``random`` comes with ``tempfile``)."""

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def standard_normal(self, shape) -> np.ndarray:
        n = math.prod(shape)
        pairs = (n + 1) // 2
        bits = np.frombuffer(self._random.randbytes(16 * pairs), dtype="<u8")
        uniform = (bits >> np.uint64(11)) * 2.0 ** -53      # [0, 1)
        radius = np.sqrt(-2.0 * np.log1p(-uniform[:pairs]))  # 1 - u in (0, 1]
        angle = 2.0 * math.pi * uniform[pairs:]
        return np.concatenate((radius * np.cos(angle),
                               radius * np.sin(angle)))[:n].reshape(shape)


def _selftest_one(model: GroupModel, band: int, seed: int
                  ) -> Dict[str, object]:
    sym = random_symbol(model, band, _GaussianDraws(seed), exact_band=band)
    # the smallest grid exact for the pair: it represents the labels and
    # integrates their products (total band 2 band) exactly
    grid = build_grid(model, max(1, _required_grid_band(model, band)))
    f = fourier_inverse(sym, grid)
    fn = function_norm_l2(f)
    back = fourier_forward(f, band=band)
    del f
    roundtrip = math.sqrt(symbol_add(back, sym, beta=-1.0).energy(band)
                          / sym.energy(band))
    parseval = abs(plancherel_norm(sym) / fn - 1.0)
    return {
        "band": band,
        "roundtrip_relative_error": roundtrip,
        "norm_identity_relative_error": parseval,
        "tolerance": 1e-9,
        "passed": bool(roundtrip < 1e-9 and parseval < 1e-9),
    }


def cmd_selftest(args: argparse.Namespace) -> Tuple[Dict, Dict, bool]:
    # without --group both bundled models run, each at --band when given
    models = ([_group_model(args.group)] if args.group else
              [model_from_name("su2"), model_from_name("torus-3")])
    results = {}
    for model in models:
        band = args.band if args.band is not None else (
            8 if model.kind == "su2" else 16)
        results[model.name] = _selftest_one(model, band, args.seed)
    config = {"group": args.group or "su2+torus-3", "seed": args.seed,
              "format": args.format}
    if args.band is not None:
        config["band"] = args.band
    return config, results, all(r["passed"] for r in results.values())


def _config_echo(args: argparse.Namespace, model: GroupModel,
                 band: int) -> Dict[str, object]:
    echo: Dict[str, object] = {"group": model.name, "band": band,
                               "seed": args.seed, "format": args.format}
    for key in ("symbol", "checker", "ladder", "q", "s", "field", "c",
                "recursion_check"):
        if hasattr(args, key) and getattr(args, key) is not None:
            echo[key] = getattr(args, key)
    return echo


# ---------------------------------------------------------------------------
# Argument parsing / dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A malformed command line exits 3, not argparse's 2 (see EXIT_MATH)."""

    def error(self, message: str):
        self.exit(EXIT_CONFIG,
                  f"{self.format_usage()}{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gmult",
        description="Multiplier-condition checks, inverse symbols, and "
                    "scaling probes on the torus and the 3-sphere model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, group_required: bool,
               band: bool = True) -> None:
        p.add_argument("--group", required=group_required,
                       help="group model: su2 or torus-<n>")
        if band:
            p.add_argument("--band", type=int, default=None,
                           help="label band (default set per command)")
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
    common(p_probe, group_required=False, band=False)
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
    started = time.time()
    try:
        for option in ("band", "seed"):
            if (getattr(args, option, None) or 0) < 0:
                raise SymbolFormatError(f"--{option} must be a nonnegative "
                                        f"integer, got {vars(args)[option]}")
        config, results, passed = args.func(args)
        write_report(make_envelope(args.command, config, results, passed,
                                   started), args.out, args.format)
        return EXIT_PASS if passed else EXIT_FAIL
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
        sys.stderr.write(f"configuration error: {_memory_advice(args)}\n")
        return EXIT_CONFIG


def _memory_advice(args: argparse.Namespace) -> str:
    """What ran out of memory and which option to change.  ``probe`` has
    no ``--band``: its scales set its bands (the ladder is named as given);
    the other commands take ``--band``."""
    group = args.group or "su2+torus-3"
    if args.command == "probe":
        return (f"{group} probe over --ladder {args.ladder!r} needs more "
                "memory than is available; raise the --ladder scales, which "
                "set the probe's bands")
    band = args.band
    where = "its default band" if band is None else f"band {band}"
    law = ("an su2 symbol holds the blocks t = 0..band, sum (t + 1)^2 "
           "entries, so lower --band" if group == "su2" else
           "a torus-<n> box holds (2 band + 1)^n labels, so lower --band "
           "or n")
    return f"{group} at {where} needs more memory than is available; {law}"


if __name__ == "__main__":
    sys.exit(main())
