"""Correctness gate of one command run.

A run fails when its exit code is not the documented one, when its report
does not parse as ``gmult-report/1``, when a self-stated error exceeds the
program's own 1e-9 tolerance, or when a reported number is more than 1e-9
relative from the stored reference of that command and seed.  Timing fields
are never compared.  Self-stated errors (transform roundtrip and norm
identity, inversion recursion residuals) are held to the tolerance instead
of the reference, so a fix that shrinks them is not read as a deviation;
they and the reference deviations feed ``accuracy_digits``.

Every failure is a wrong output (it makes a run's ``correct`` false)
except the program reporting its own failure honestly: a self-stated
error above the tolerance, and the exit code that follows from it.

Seeds without stored references get the checks that hold for every seed:
exit code, schema, the report's shape, self-stated errors, independent
values (the order-0 constant of a Riesz symbol and of the torus
multiplier), and agreement of the two torus routes.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

SCHEMA = "gmult-report/1"
ENVELOPE_KEYS = frozenset({"schema", "tool_version", "command", "config",
                           "results", "passed", "timing_seconds"})
REL_TOL = 1e-9
#: Entries below this magnitude (rounding noise such as a 1e-17 real part)
#: are compared on this absolute scale instead of their own.
SCALE_FLOOR = 1e-3
#: Leaf names whose value is an error the program states about itself.
SELF_ERROR_KEYS = frozenset({"roundtrip_relative_error",
                             "norm_identity_relative_error",
                             "residual", "offdiagonal"})
#: Leaf names never compared: the wall-clock field, the version string, and
#: verdict flags, which the exit code already gates and which a fixed
#: defect legitimately flips.
IGNORED_KEYS = frozenset({"timing_seconds", "tool_version", "passed"})
_INDEX = re.compile(r"\[\d+\]")


@dataclass
class Verdict:
    """Outcome of one command run."""

    command: str
    ok: bool = True
    wrong: bool = False          # output disagrees with reference/invariant
    reasons: List[str] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)   # self-stated + deviations

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.ok = False
        self.wrong = self.wrong or wrong
        self.reasons.append(reason)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def flatten(obj, prefix: str = "") -> Dict[str, object]:
    """Leaves of a JSON value keyed by dotted path (list items as [i]);
    embedded CSV blocks (keys ending in ``_csv``) are split into cells so
    their numbers are compared as numbers."""
    out: Dict[str, object] = {}
    if isinstance(obj, str) and prefix.endswith("_csv"):
        for i, row in enumerate(obj.split("\n")):
            for j, cell in enumerate(row.split(",")):
                out[f"{prefix}[{i}][{j}]"] = _cell(cell)
        return out
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.update(flatten(obj[k], f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}[{i}]"))
    else:
        out[prefix] = obj
    return out


def leaf_name(path: str) -> str:
    return path.rsplit(".", 1)[-1].split("[", 1)[0]


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def relative_deviation(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), SCALE_FLOOR)


def parse_report(stdout: str) -> Tuple[Optional[dict], str]:
    """(envelope, problem); the envelope is None when it does not parse."""
    try:
        env = json.loads(stdout)
    except ValueError as exc:
        return None, f"report is not JSON ({exc})"
    if not isinstance(env, dict) or not ENVELOPE_KEYS <= set(env):
        return None, "report lacks keys of the gmult-report/1 envelope"
    if env.get("schema") != SCHEMA:
        return None, f"schema {env.get('schema')!r} != {SCHEMA!r}"
    if not isinstance(env["results"], dict) or not isinstance(env["passed"], bool):
        return None, "results/passed have the wrong types"
    return env, ""


def comparable(env: dict) -> Dict[str, object]:
    """Leaves compared against a reference (everything but timing, verdict
    flags and self-stated errors)."""
    return {p: v for p, v in flatten(env).items()
            if leaf_name(p) not in IGNORED_KEYS | SELF_ERROR_KEYS}


def self_errors(env: dict) -> Dict[str, float]:
    return {p: float(v) for p, v in flatten(env).items()
            if leaf_name(p) in SELF_ERROR_KEYS and is_number(v)}


def compare(got: Dict[str, object], ref: Dict[str, object],
            values: bool = True) -> Tuple[List[str], float]:
    """(problems, worst relative deviation) of ``got`` against ``ref``.
    With ``values=False`` only the shape (paths and value kinds) is
    compared, for seeds whose values have no reference.  Leaves the
    reference lacks are allowed, so a report may gain fields."""
    problems: List[str] = []
    worst = 0.0
    if not values:
        # List lengths may depend on the inputs (the exceptional set grows
        # with |c|), so the shape is compared with list indices dropped.
        got = {_INDEX.sub("[]", p): v for p, v in got.items()}
        ref = {_INDEX.sub("[]", p): v for p, v in ref.items()}
    missing = sorted(set(ref) - set(got))
    if missing:
        problems.append(f"report lacks {len(missing)} reference entries, "
                        f"e.g. {missing[:3]}")
    for path in sorted(set(got) & set(ref)):
        g, r = got[path], ref[path]
        if is_number(r) and is_number(g):
            if values:
                dev = relative_deviation(float(g), float(r))
                worst = max(worst, dev)
                if not dev <= REL_TOL:
                    problems.append(f"{path} = {g!r}, reference {r!r} "
                                    f"(relative {dev:.2e})")
        elif is_number(r) != is_number(g):
            problems.append(f"{path} changed kind: {g!r} vs {r!r}")
        elif values and g != r:
            problems.append(f"{path} = {g!r}, reference {r!r}")
    return problems, worst


def gate_run(command: str, expected_exit: int, exit_code: int, stdout: str,
             stderr: str, reference: Optional[dict],
             values_known: bool) -> Tuple[Verdict, Optional[dict]]:
    """Gate one run against its reference entry.

    ``reference`` is ``{"exit": int, "leaves": {...}}`` (leaves as from
    ``comparable``); ``values_known`` says whether it was stored for this
    seed (else only its shape applies).  Returns the verdict and the parsed
    envelope (None for a refusal or an unparseable report).
    """
    v = Verdict(command)
    if expected_exit == 2:
        if exit_code != 2:
            v.fail(f"exit code {exit_code}, expected the refusal 2", wrong=True)
        elif "exceptional" not in stderr:
            v.fail("refusal does not name the exceptional input", wrong=True)
        return v, None
    env, problem = parse_report(stdout)
    if env is None:
        v.fail(f"exit code {exit_code}: {problem}", wrong=True)
        return v, None
    self_failed = False
    for path, err in self_errors(env).items():
        v.errors.append(err)
        if not err <= REL_TOL:
            self_failed = True
            v.fail(f"self-stated {path} = {err:.3g} exceeds {REL_TOL:g}")
    if exit_code != expected_exit:
        # An exit the program's own stated errors explain is a failure it
        # reports honestly; any other unexpected exit is a wrong verdict.
        v.fail(f"exit code {exit_code}, expected {expected_exit}",
               wrong=not self_failed)
    if reference is None:
        v.fail("no reference shape stored for this command", wrong=True)
        return v, env
    problems, worst = compare(comparable(env), reference["leaves"],
                              values=values_known)
    if values_known:
        v.errors.append(worst)
    for p in problems:
        v.fail(p, wrong=True)
    return v, env


def _condition_constants(env: dict) -> Dict[str, float]:
    """Condition name -> constant of a check report ({} if it has none)."""
    try:
        return {c["name"]: float(c["constant"])
                for c in env["results"]["report"]["conditions"]}
    except (KeyError, TypeError, ValueError):
        return {}


def riesz_order0_constant(band: int) -> float:
    """Largest block norm of a unit-direction Riesz symbol through ``band``:
    the symbol is unitarily equivalent to ``-i m / sqrt(l (l + 1))`` on
    each block, whatever the direction, so the sup sits at the top label."""
    best = 0.0
    for t in range(1, band + 1):
        ell = 0.5 * t
        best = max(best, ell / math.sqrt(ell * (ell + 1.0)))
    return best


def cross_checks(envs: Dict[str, dict], oracle: Dict[str, float]
                 ) -> Dict[str, List[str]]:
    """Seed-independent agreements between the runs of one pass.

    ``oracle`` maps command id to an independently computed order-0
    constant.  Returns problems keyed by the command they are charged to.
    """
    problems: Dict[str, List[str]] = {}

    def agree(cmd: str, what: str, got: float, want: float) -> None:
        dev = relative_deviation(got, want)
        if not dev <= REL_TOL:
            problems.setdefault(cmd, []).append(
                f"{what}: {got!r} vs {want!r} (relative {dev:.2e})")

    for cmd, want in oracle.items():
        if cmd in envs:
            got = _condition_constants(envs[cmd]).get("order-0", math.nan)
            agree(cmd, "order-0 constant vs independent value", got, want)
    pairs = (("mikhlin-expr", "mikhlin-file", None),
             ("refined-riesz", "mikhlin-riesz", ("order-0", "order-1")))
    for cmd, other, names in pairs:
        if cmd in envs and other in envs:
            a, b = _condition_constants(envs[cmd]), _condition_constants(envs[other])
            for name in names or sorted(set(a) | set(b)):
                if name not in a or name not in b:
                    problems.setdefault(cmd, []).append(
                        f"condition {name} missing against {other}")
                    continue
                agree(cmd, f"{name} constant vs {other}", a[name], b[name])
    return problems


def accuracy_digits(errors: Iterable[float]) -> float:
    """``min(9, -log10(worst error))``; an exact run reads 9."""
    worst = max(errors, default=0.0)
    if worst <= 0.0:
        return 9.0
    return min(9.0, -math.log10(worst))
