"""End-to-end tests for the command-line interface.

Covered here:
  - scalar/ladder/expression parsers, including the origin patch and the
    vector-coordinate guard,
  - symbol file round-trip (through the writer ``write_symbol_file``,
    kept here) and malformed-file rejection (non-finite entries, block
    dimensions), sparse files, file/expression parity,
  - exit codes: 0 pass, 1 failed check, 2 mathematical obstruction,
    3 configuration / resolution error,
  - report envelope schema and determinism of seeded reruns,
  - CSV rendering and the output-directory environment variable,
  - a traced run of the benchmark harness.

All invocations but the harness run go through ``cli.main`` in-process.
"""

import decimal
import json
import math
import re
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gmult import cli
from gmult.checkers import (SymbolClassSpec, check_symbol_class,
                            check_word_count, torus_lattice_symbol)
from gmult.cli import (EXIT_CONFIG, EXIT_FAIL, EXIT_MATH, EXIT_PASS,
                       build_cli_symbol, load_symbol_file, main,
                       parse_complex, parse_ladder, parse_torus_expression)
from gmult.errors import BandOverflowError, GmultError, SymbolFormatError
from gmult.groups import label_band, label_box, model_from_name
from gmult.mollifier import (_MAX_PROBE_SAMPLES, grid_normalizer,
                             grid_normalizer_samples, required_mollifier_band)
from gmult.symbols import identity_symbol


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("1") == 1 + 0j
    assert parse_complex("0.5i") == 0.5j
    assert parse_complex("0.5j") == 0.5j
    assert parse_complex("1+0.5i") == 1 + 0.5j
    assert parse_complex("-1.5i") == -1.5j
    assert parse_complex(" 2 - i ") == 2 - 1j
    with pytest.raises(SymbolFormatError):
        parse_complex("one")
    for text in ("nan", "inf", "-inf", "1e999", "NaN"):
        with pytest.raises(SymbolFormatError, match="not finite"):
            parse_complex(text)


def test_parse_ladder_dyadic_and_explicit(monkeypatch):
    assert parse_ladder("4:7") == [2.0 ** -k for k in range(4, 8)]
    assert parse_ladder("7:4") == [2.0 ** -k for k in range(4, 8)]
    explicit = parse_ladder("0.5, 0.25, 0.125, 0.0625")
    assert explicit == [0.5, 0.25, 0.125, 0.0625]
    with pytest.raises(SymbolFormatError):
        parse_ladder("0.5,0.25,0.125")  # too few scales for a fit
    with pytest.raises(SymbolFormatError):
        parse_ladder("0.5,-0.25,0.125,0.0625")
    with pytest.raises(SymbolFormatError):
        parse_ladder("a:b")
    # the dyadic form needs 4 scales too, and scales must be finite
    with pytest.raises(SymbolFormatError, match="at least 4"):
        parse_ladder("4:6")
    for text in ("nan,0.5,0.25,0.125", "inf,0.5,0.25,0.125"):
        with pytest.raises(SymbolFormatError, match="finite"):
            parse_ladder(text)
    # every scale 2^-k past k = 1074 is 0, so such a range is refused
    # before its list is built (which would run out of memory)
    built = cli.default_ladder

    def bounded(k_min, k_max):
        if k_max - k_min + 1 > 2000:
            raise AssertionError(f"asked for {k_max - k_min + 1} scales")
        return built(k_min, k_max)

    monkeypatch.setattr(cli, "default_ladder", bounded)
    assert parse_ladder("1071:1074")[-1] == 2.0 ** -1074
    for text in ("4:1075", "4:99999999999999999999"):
        with pytest.raises(SymbolFormatError, match="past 1074"):
            parse_ladder(text)


def test_parse_torus_expression_origin_patch():
    fn = parse_torus_expression("k1/abs(k)", 3)
    k1 = np.array([0, 1, 0, 3])
    k2 = np.array([0, 0, 2, 0])
    k3 = np.array([0, 0, 0, 4])
    vals = fn(k1, k2, k3)
    assert vals[0] == 0.0  # 0/0 at the origin is patched to 0
    assert vals[1] == pytest.approx(1.0)
    assert vals[2] == pytest.approx(0.0)
    assert vals[3] == pytest.approx(3.0 / 5.0)


def test_parse_torus_expression_keeps_a_full_box_uncopied():
    # k1/abs(k) evaluates to a fresh box: it is held once as complex, next
    # to the real quotient it came from, and not copied again (the label
    # axes and the parser's scalars are the 64 KiB allowance)
    fn = parse_torus_expression("k1/abs(k)", 3)
    axes = label_box(3, 40)
    box = 81 ** 3 * 16
    tracemalloc.start()
    try:
        values = fn(*axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (81,) * 3 and values[40, 40, 40] == 0.0
    assert peak <= 1.5 * box + 64 * 1024


def test_parse_torus_expression_nonfinite_off_origin():
    fn = parse_torus_expression("1/k1", 2)
    with pytest.raises(GmultError, match="non-finite at k1=0, k2=1"):
        fn(np.array([0, 0]), np.array([0, 1]))


def test_parse_torus_expression_vector_k_guard():
    fn = parse_torus_expression("k + 1", 2)
    with pytest.raises(SymbolFormatError):
        fn(np.array([1]), np.array([2]))
    with pytest.raises(SymbolFormatError):
        parse_torus_expression("k1 + ", 2)
    fn_bad_name = parse_torus_expression("q1", 2)
    with pytest.raises(SymbolFormatError):
        fn_bad_name(np.array([1]), np.array([2]))


def test_parse_scalar_expression(su2):
    # the laplacian-function: route reads its expression in x at the
    # Laplacian eigenvalues x = (t/2)(t/2 + 1) = 0, 0.75, 2, 3.75, ...
    def values(expr):
        sym = build_cli_symbol(su2, f"laplacian-function:{expr}", 4, 2)
        return [sym.get(t)[0, 0] for t in range(5)]

    f = values("x**-0.5")
    assert f[0] == 0.0  # non-finite at the origin is patched
    assert f[2] == pytest.approx(2.0 ** -0.5)
    g = values("exp(-x)")
    assert g[1] == pytest.approx(math.exp(-0.75))
    with pytest.raises(GmultError):
        values("1/(x - 2)")


@pytest.mark.parametrize("group, symbol, message", [
    ("torus-3", "k", "the vector k supports only abs(k)"),
    ("torus-3", "exp()", "exp takes 1 argument"),
    ("torus-3", "sqrt(abs(k), abs(k)+100)", "sqrt takes 1 argument"),
    ("su2", "laplacian-function:exp(x,x)", "exp takes 1 argument"),
    ("torus-3", "True*k1", "literal True is not numeric"),
    ("torus-3", "+".join(["k1"] * 2000), "nests too deeply"),
    ("torus-3", "-" * 3000 + "k1", "could not parse expression"),
], ids=["vector-k", "no-argument", "two-arguments", "laplacian-two-arguments",
        "bool-literal", "long-sum", "deep-unary"])
def test_malformed_expressions_exit_config(group, symbol, message, capsys):
    # each crashed (k, exp(), exp(x,x)) or ran on a misread expression:
    # numpy took sqrt's second argument as its output, True read as 1
    assert main(["check", "--group", group, "--band", "8",
                 f"--symbol={symbol}", "--checker", "mikhlin"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert message in captured.err and "Traceback" not in captured.err


def test_integer_literals_evaluate_as_floats(capsys):
    # in int64, 2**64 wrapped to 0 and 2**-1 was refused
    assert main(["check", "--group", "torus-3", "--band", "8", "--symbol",
                 "2**64*k1/abs(k)", "--checker", "mikhlin"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)["results"]["report"]
    order0 = next(c for c in report["conditions"] if c["name"] == "order-0")
    assert order0["constant"] == 1.8446744073709552e19
    assert main(["check", "--group", "su2", "--band", "8", "--symbol",
                 "laplacian-function:2**64*x", "--checker", "mikhlin"]) \
        == EXIT_FAIL
    assert main(["check", "--group", "torus-3", "--band", "8", "--symbol",
                 "2**-1*k1/abs(k)", "--checker", "mikhlin"]) == EXIT_PASS
    capsys.readouterr()
    # past the float range an integer literal reads inf, as 1e999 does
    assert main(["check", "--group", "torus-3", "--band", "8", "--symbol",
                 "1" + "0" * 400 + "*k1", "--checker", "mikhlin"]) \
        == EXIT_MATH
    assert "non-finite at k1=-12, k2=-12, k3=-12" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Symbol files
# ---------------------------------------------------------------------------

def write_symbol_file(sym, path: str) -> None:
    """Serialize a symbol: header (format tag, group, band), then one
    record per label (label coordinates, dimension, row-major entries as
    re/im decimal pairs, one row per line)."""
    band = (sym.support_band if math.isinf(sym.exact_band)
            else int(min(sym.exact_band, sym.support_band)))
    lines = [f"gmult-symbol 1", f"group {sym.model.name}",
             f"band {band}"]
    for lb in sorted(lb for lb in sym.entries
                     if label_band(sym.model, lb) <= band):
        mat = np.atleast_2d(sym.entries[lb])
        d = mat.shape[0]
        coords = " ".join(str(int(v)) for v in
                          (lb if isinstance(lb, tuple) else (lb,)))
        lines.append(f"label {coords} d {d}")
        for row in mat:
            lines.append(" ".join(f"{float(v.real)!r} {float(v.imag)!r}"
                                  for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_symbol_file_roundtrip(su2, tmp_path, rng):
    from conftest import random_symbol

    sym = random_symbol(su2, 6, rng)
    path = str(tmp_path / "sym.gsym")
    write_symbol_file(sym, path)
    back = load_symbol_file(path)
    assert back.model.name == su2.name
    assert back.exact_band == sym.support_band
    for t in sym.entries:
        assert np.allclose(back.get(t), sym.get(t), atol=0.0)


def test_symbol_file_rejects_malformed(su2, tmp_path):
    path = tmp_path / "bad.gsym"
    path.write_text("not a symbol file\n")
    with pytest.raises(SymbolFormatError):
        load_symbol_file(str(path))
    # wrong block dimension for the label
    good = tmp_path / "dim.gsym"
    good.write_text("gmult-symbol 1\ngroup su2\nband 2\n"
                    "label 2 d 2\n1.0 0.0 0.0 0.0\n0.0 0.0 1.0 0.0\n")
    with pytest.raises(SymbolFormatError):
        load_symbol_file(str(good))


@pytest.mark.parametrize("row, message", [
    ("1.0 x", "line 7: could not convert string to float: 'x'"),
    ("1.0 -inf", "line 7: entries must be finite"),
    ("1.0", "line 7: expected 2 numbers"),
])
def test_symbol_file_errors_name_the_line(tmp_path, row, message):
    # the value rows are parsed in one array; errors still name the line
    path = tmp_path / "rows.gsym"
    path.write_text("gmult-symbol 1\ngroup torus-3\nband 2\n"
                    "label 0 0 0 d 1\n1.0 0.0\n"
                    f"label 0 0 1 d 1\n{row}\nlabel 0 1 0 d 1\n2.0 0.0\n")
    with pytest.raises(SymbolFormatError, match=message):
        load_symbol_file(str(path))
    path.write_text("gmult-symbol 1\ngroup su2\nband 2\n"
                    "label 0 d 1\n1.0 0.0\nlabel 1 d 2\n1.0 0.0 0.0 0.0\n")
    with pytest.raises(SymbolFormatError, match="label 1 is truncated"):
        load_symbol_file(str(path))


@pytest.mark.parametrize("group, label, shown", [("su2", "2", "2"),
                                                 ("torus-1", "-1", "(-1,)")])
def test_symbol_file_refuses_a_label_listed_twice(tmp_path, capsys, group,
                                                  label, shown):
    # the second record used to replace the first silently
    path = tmp_path / "twice.gsym"
    d = 3 if group == "su2" else 1
    block = "\n".join(" ".join(["1.0 0.0"] * d) for _ in range(d))
    path.write_text(f"gmult-symbol 1\ngroup {group}\nband 12\n"
                    f"label {label} d {d}\n{block}\nlabel 0 d 1\n1.0 0.0\n"
                    f"label {label} d {d}\n{block}\n")
    message = f"line {7 + d}: label {shown} is listed again (first at line 4)"
    with pytest.raises(SymbolFormatError, match=re.escape(message)):
        load_symbol_file(str(path))
    code = main(["check", "--group", group, "--band", "8", "--symbol",
                 str(path), "--checker", "mikhlin"])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("records, message", [
    ("label 0 d 1\n1.0 x\n",
     "line 7: could not convert string to float: 'x'"),
    ("label 0 d 1\n1.0 0.0\n\nlabel 0 d 1\n1.0 0.0\n",
     "line 9: label 0 is listed again (first at line 6)"),
    ("label 0 d 1\n1.0 0.0\n\nlabel 1 d 2\n1.0 0.0 0.0 0.0\n",
     "line 9: record for label 1 is truncated"),
    ("label 0 7 d 1\n1.0 0.0\n",
     "line 6: SU(2) labels are nonnegative integers (twice_spin), "
     "got (0, 7)"),
], ids=["bad-value", "repeated-label", "truncated-record",
        "two-coordinate-su2-label"])
def test_symbol_file_errors_count_blank_lines(tmp_path, capsys, records,
                                              message):
    # blank lines 2 and 5 (and 8): messages give the line in the file, not
    # the index among the non-blank lines
    path = tmp_path / "blank.gsym"
    path.write_text(f"gmult-symbol 1\n\ngroup su2\nband 2\n\n{records}")
    code = main(["check", "--group", "su2", "--band", "8", "--symbol",
                 str(path), "--checker", "mikhlin"])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_check_reads_symbol_file(su2, tmp_path, monkeypatch, capsys):
    sym = identity_symbol(su2, 14)
    path = str(tmp_path / "ident.gsym")
    write_symbol_file(sym, path)
    # band-14 data supports order-2 differences through band 10
    code = main(["check", "--group", "su2", "--band", "10",
                 "--symbol", path, "--checker", "mikhlin"])
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    # asking for a band the file cannot certify is a configuration error
    code = main(["check", "--group", "su2", "--band", "14",
                 "--symbol", path, "--checker", "mikhlin"])
    assert code == EXIT_CONFIG


def _conditions(capsys):
    report = json.loads(capsys.readouterr().out)
    return report["results"]["report"]["conditions"]


@pytest.mark.parametrize("group, band, symbol, max_order", [
    ("su2", 8, "riesz:D3", 3),
    ("su2", 8, "vf-inverse", 3),
    ("su2", 8, "laplacian-function:1/(1+x)", 3),
    ("torus-3", 6, "k1/abs(k)", 5),
])
def test_named_symbols_are_padded_for_the_checkers_order(group, band, symbol,
                                                         max_order, capsys):
    # a named builder or an expression is built with headroom for the
    # checker's highest difference order, not for kappa alone: each of
    # these was refused with "order-<max_order> differences are only exact
    # through band <band - 2>" (band - 1 on the torus)
    code = main(["check", "--group", group, "--band", str(band), "--symbol",
                 symbol, "--checker", f"symbol-class:0,1,{max_order}"])
    assert code in (EXIT_PASS, EXIT_FAIL)
    names = [c["name"] for c in _conditions(capsys)]
    assert f"order-{max_order}" in names


def test_symbol_files_keep_the_refusal_in_integer_bands(su2, tmp_path,
                                                        capsys):
    # a file is taken as stored: the user extends the file
    path = str(tmp_path / "ident.gsym")
    write_symbol_file(identity_symbol(su2, 12), path)
    assert main(["check", "--group", "su2", "--band", "8", "--symbol", path,
                 "--checker", "symbol-class:0,1,3"]) == EXIT_CONFIG
    assert ("order-3 differences are only exact through band 6; extend "
            "the stored symbol") in capsys.readouterr().err
    # a central symbol certifies a float band; the refusal prints it whole
    sym = build_cli_symbol(su2, "laplacian-function:1/(1+x)", 8, 2)
    with pytest.raises(BandOverflowError, match=r"through band 6; "):
        check_symbol_class(sym, SymbolClassSpec(0.0, 1.0, 3), 8)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_symbol_file_rejects_nonfinite_entries(tmp_path, capsys, value):
    path = tmp_path / "nonfinite.gsym"
    path.write_text("gmult-symbol 1\ngroup torus-3\nband 10\n"
                    f"label 0 0 0 d 1\n{value} 0.0\n")
    code = main(["check", "--group", "torus-3", "--band", "8",
                 "--symbol", str(path), "--checker", "mikhlin"])
    assert code == EXIT_CONFIG
    assert "line 5: entries must be finite" in capsys.readouterr().err


def test_symbol_file_checks_dimension_before_allocating(tmp_path, capsys):
    path = tmp_path / "huge.gsym"
    path.write_text("gmult-symbol 1\ngroup su2\nband 4\n"
                    "label 2 d 3000000000\n1.0 0.0\n")
    code = main(["check", "--group", "su2", "--band", "8",
                 "--symbol", str(path), "--checker", "mikhlin"])
    assert code == EXIT_CONFIG
    assert "line 4: label 2 must have dimension 3" in capsys.readouterr().err


def test_sparse_su2_file_gets_a_grid_for_the_requested_band(tmp_path,
                                                            capsys):
    # the file stores label 0 only, far below the band the check reads
    path = tmp_path / "sparse.gsym"
    path.write_text("gmult-symbol 1\ngroup su2\nband 30\n"
                    "label 0 d 1\n1.0 0.0\n")
    code = main(["check", "--group", "su2", "--band", "24",
                 "--symbol", str(path), "--checker", "mikhlin"])
    assert code == EXIT_PASS
    consts = {c["name"]: c["constant"] for c in _conditions(capsys)}
    assert consts["order-0"] == pytest.approx(1.0, abs=1e-12)
    assert consts["order-1"] == pytest.approx(1.0, abs=1e-12)
    assert consts["order-2"] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_torus_file_and_expression_give_identical_conditions(torus3,
                                                              tmp_path,
                                                              capsys):
    expr = "(0.7)*k1/abs(k)+(-0.4)*k3/abs(k)+(0.5)/sqrt(1+abs(k)**2)"
    sym = torus_lattice_symbol(torus3, parse_torus_expression(expr, 3), 8,
                               pad=2)
    path = str(tmp_path / "multiplier.gsym")
    write_symbol_file(sym, path)
    assert load_symbol_file(path).exact_band == 10
    for checker in ("mikhlin", "refined"):
        runs = []
        for spec in (path, expr):
            assert main(["check", "--group", "torus-3", "--band", "8",
                         "--symbol", spec, "--checker", checker]) == EXIT_PASS
            runs.append(_conditions(capsys))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_selftest_passes(capsys):
    assert main(["fourier-selftest", "--band", "6"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    for key in ("schema", "tool_version", "command", "config", "results",
                "passed", "timing_seconds"):
        assert key in report
    assert report["schema"] == "gmult-report/1"
    assert report["command"] == "fourier-selftest"


def test_selftest_without_group_runs_both_models_at_the_band(capsys):
    # --band without --group used to be dropped: both models ran at their
    # defaults, 8 and 16
    assert main(["fourier-selftest", "--band", "3"]) == EXIT_PASS
    results = json.loads(capsys.readouterr().out)["results"]
    assert {name: r["band"] for name, r in results.items()} == {
        "su2": 3, "torus-3": 3}


@pytest.mark.parametrize("argv, band", [
    ([], None), (["--band", "3"], 3), (["--group", "su2"], None),
    (["--group", "su2", "--band", "2"], 2),
    (["--group", "torus-3", "--band", "4"], 4)],
    ids=["default", "band", "su2", "su2-band", "torus-3-band"])
def test_selftest_echoes_the_band_it_is_given(argv, band, capsys):
    assert main(["fourier-selftest", *argv]) == EXIT_PASS
    config = json.loads(capsys.readouterr().out)["config"]
    assert config.get("band") == band


@pytest.mark.parametrize("group", ["su2", "torus-3"])
def test_selftest_at_band_zero_passes(group, capsys):
    assert main(["fourier-selftest", "--group", group,
                 "--band", "0"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["results"][group]["passed"] is True


def test_su2_selftest_at_band_64_is_at_rounding_level(capsys):
    # the explicit sum's tables cancelled from band ~48 (round trip 4.1e-8
    # at band 56); the eigenbasis route holds both errors at rounding level
    assert main(["fourier-selftest", "--group", "su2", "--band",
                 "64"]) == EXIT_PASS
    result = json.loads(capsys.readouterr().out)["results"]["su2"]
    assert result["roundtrip_relative_error"] <= 1e-12
    assert result["norm_identity_relative_error"] <= 1e-12


def _riesz_order0_constant(band: int) -> float:
    """Largest operator norm of the unit-field Riesz symbol through
    ``band``: ``(t/2) / sqrt((t/2)(t/2 + 1))``, increasing in ``t``."""
    return math.sqrt(band / (band + 2))


def test_su2_mikhlin_check_holds_one_label_of_word_blocks(capsys):
    # the difference words' blocks come one label at a time: the traced
    # peak of this check was 6.6 MB while a parity's stack of up to 16
    # words lived whole, and is 3.4 MB
    tracemalloc.start()
    try:
        assert main(["check", "--group", "su2", "--band", "24", "--symbol",
                     "riesz:D3", "--checker", "mikhlin"]) == EXIT_PASS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


@pytest.mark.parametrize("checker", ["mikhlin", "refined"])
def test_su2_check_runs_at_odd_bands(checker, capsys):
    # at an odd band the symbol (band + 4) reaches one label past the
    # grid the words alone need, so the grid must fit the kernel too; and
    # the half range runs through twice-spin (band + 1) // 2, so at band 7
    # it holds mikhlin's order-2 sup at twice-spin 4 (through band // 2 = 3
    # the growth was 1.338, a FAIL), and bands 7-9 give one verdict
    order1, verdicts = {}, {}
    for band in (7, 8, 9):
        code = main(["check", "--group", "su2", "--band", str(band),
                     "--symbol", "riesz:D3", "--checker", checker])
        assert code == EXIT_PASS
        conds = {c["name"]: c for c in _conditions(capsys)}
        assert conds["order-0"]["constant"] == pytest.approx(
            _riesz_order0_constant(band), rel=0.0, abs=1e-12)
        assert conds["order-0"]["half_constant"] == pytest.approx(
            _riesz_order0_constant((band + 1) // 2), rel=0.0, abs=1e-12)
        order1[band] = conds["order-1"]["constant"]
        verdicts[band] = {name: c["passed"] for name, c in conds.items()}
    assert order1[7] == pytest.approx(order1[8], rel=0.0, abs=1e-12)
    assert order1[9] == pytest.approx(order1[8], rel=0.0, abs=1e-12)
    assert verdicts[7] == verdicts[8] == verdicts[9]


def test_check_refined_passes(capsys):
    code = main(["check", "--group", "su2", "--band", "12",
                 "--symbol", "riesz:D3", "--checker", "refined"])
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    names = {c["name"] for c in report["results"]["report"]["conditions"]}
    assert names >= {"order-0", "order-1", "laplace-1"}


def test_check_torus_log_fails(capsys):
    code = main(["check", "--group", "torus-3",
                 "--symbol", "log(1 + abs(k))", "--checker", "torus3"])
    assert code == EXIT_FAIL
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    bounded = [c for c in report["results"]["report"]["conditions"]
               if c["name"] == "bounded"]
    assert bounded and bounded[0]["passed"] is False


def test_check_torus_riesz_direction_passes(capsys):
    code = main(["check", "--group", "torus-3", "--band", "12",
                 "--symbol", "k1/abs(k)", "--checker", "torus3"])
    assert code == EXIT_PASS


def test_invert_exceptional_shift_exits_math(capsys):
    code = main(["invert", "--band", "8", "--c", "0.5i"])
    assert code == EXIT_MATH
    err = capsys.readouterr().err
    assert "half-integer" in err


@pytest.mark.parametrize("c", ["0.5i", "1"])
def test_invert_refuses_a_small_band_before_the_field(c, capsys,
                                                      monkeypatch):
    # band 3 has 4 labels per direction, too few for the checker, as in
    # check: refused before the field is built (it exited 2 on the
    # exceptional shift 0.5i, and 3 only after inverting the field at c = 1)
    def no_field(*args, **kwargs):
        raise AssertionError("the field was built before checking the band")

    monkeypatch.setattr(cli, "build_field", no_field)
    assert main(["invert", "--band", "3", "--c", c]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("range too small: 4 labels per direction, need at least 8"
            in captured.err)


def test_invert_recursion_check_passes(capsys):
    code = main(["invert", "--band", "8", "--c", "1",
                 "--recursion-check"])
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    rec = report["results"]["recursion_residuals"]
    assert rec["block_0"]["residual"] < 1e-9
    assert rec["block_1"]["residual"] < 1e-9


@pytest.mark.parametrize("field, points", [("1e-11,0,0", 25),
                                           ("1e150,0,0", 1)])
def test_invert_tiny_and_huge_fields_pass(field, points, capsys):
    # the exceptional set stops at the stored labels (through band + 2
    # kappa = 12), and the diagonalization margin scales with the field
    assert main(["invert", f"--field={field}", "--band", "8"]) == EXIT_PASS
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results["exceptional_set"]) == points
    assert results["inverse_sup_norm"] == pytest.approx(1.0)


def test_invert_huge_oblique_field_keeps_its_constants(capsys):
    # at |a| = 1.1e150 and c = 1 the blocks sigma_t + c have condition
    # numbers ~1e150: inverses read through the field's eigenbases keep the
    # constants the exact spectrum gives (a solve from the entries printed
    # order-1 1.0 and order-2 1.333, and failed the recursion check)
    assert main(["invert", "--field=3e149,4e149,1e150", "--c", "1", "--band",
                 "8", "--recursion-check"]) == EXIT_PASS
    results = json.loads(capsys.readouterr().out)["results"]
    consts = {c["name"]: c["constant"] for c in results["s00"]["conditions"]}
    assert consts["order-1"] == pytest.approx(0.9, rel=1e-12)
    assert consts["order-2"] == pytest.approx(1.615, rel=1e-12)
    for block in results["recursion_residuals"].values():
        assert block["residual"] < 1e-13 and block["offdiagonal"] < 1e-13


@pytest.mark.parametrize("argv, option", [
    (["invert", "--band", "8", "--c", "1e308+1e308i"], "--c 1e308+1e308i"),
    (["check", "--group", "su2", "--band", "8",
      "--symbol=vf-inverse:1e308+1e308i", "--checker", "mikhlin"],
     "--symbol vf-inverse:1e308+1e308i")], ids=["invert", "check"])
def test_overflowing_shift_exits_config_naming_it(argv, option, capsys):
    # invert raised OverflowError in the exceptional set (its bound over
    # |X|/2 is inf), and check printed numpy's overflow warning from the
    # inverse blocks' division
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"configuration error: {option}: ")
    assert "too large" in err


def test_bad_ranges_ladders_and_shifts_exit_config(capsys):
    assert main(["check", "--group", "su2", "--band", "4",
                 "--symbol", "identity", "--checker", "mikhlin"]) \
        == EXIT_CONFIG
    assert "range too small" in capsys.readouterr().err
    # a repeated scale leaves fewer distinct points than the fit counts
    for ladder in ("4:6", "nan,0.5,0.25,0.125", "0.5,0.5,0.5,0.5",
                   "0.25,0.25,0.125,0.125"):
        assert main(["probe", "--ladder", ladder]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and f"ladder {ladder!r}" in err
    for argv in (["invert", "--band", "8", "--c", "nan"],
                 ["invert", "--band", "8", "--c", "inf"],
                 ["check", "--group", "su2", "--band", "8",
                  "--symbol", "vf-inverse:nan", "--checker", "mikhlin"]):
        assert main(argv) == EXIT_CONFIG
        assert "not finite" in capsys.readouterr().err


def test_probe_underresolved_grid_band_exits_config(capsys):
    # the coarsest scale alone sets the cross-check's band: a band too
    # coarse for it cannot be asked for, as --grid-band is no option
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--grid-band", "12"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --grid-band 12" in capsys.readouterr().err


def _cap_floor(err: str) -> str:
    """The coarsest scale a cap refusal names, as printed."""
    return re.search(r"coarsest scales from (\S+) up", err).group(1)


def test_probe_cap_names_the_largest_grid_band_it_admits(su2, capsys):
    # on SU(2) a band-B cross-check sums (B + 1) 2 (2B + 1) samples: 4192256
    # at band 1023, 4200450 at band 1024, past the cap 2^22
    assert (grid_normalizer_samples(su2, 1023, 1.0)
            <= _MAX_PROBE_SAMPLES
            < grid_normalizer_samples(su2, 1024, 1.0))
    # the last two need grid bands past 2^63 - 1, which the search for
    # the largest admitted band never indexes (on the torus a band-B
    # cross-check sums at least its 2B + 1 axis nodes); the named scale
    # needs a band the cap admits, on SU(2) the largest
    for group, ladder in (("su2", "1e-9,2e-9,4e-9,8e-9"),
                          ("su2", "180:184"), ("torus-3", "180:184")):
        assert main(["probe", "--group", group, "--ladder", ladder]) \
            == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "past the probe cap 4194304" in captured.err
        model = model_from_name(group)
        floor = float(_cap_floor(captured.err))
        band = required_mollifier_band(model, floor)
        assert grid_normalizer_samples(model, band, floor) \
            <= _MAX_PROBE_SAMPLES
        assert band == 1023 or model.kind == "torus"


class _PastTheCrossCheck(Exception):
    """Raised by the probe's scaling laws, which run after the cross-check."""


@pytest.mark.parametrize("group, ladder", [
    ("su2", "1e-9,2e-9,4e-9,8e-9"), ("torus-1", "180:184"),
    ("torus-3", "180:184")])
def test_probe_cap_names_a_scale_it_admits(group, ladder, monkeypatch,
                                           capsys):
    # the refusal's scale, fed back as the coarsest, passes the cap and the
    # cross-check; one unit less in its last printed digit is refused.  The
    # scale was rounded to nearest, below the true floor on su2 and
    # torus-1 (1.47417e-05 and 1.19842e-05, both refused), and on torus-3
    # the cross-check's node count overflowed int64 there (exit 2)
    def finer(coarse: str) -> str:
        return ",".join([coarse] + [repr(f * float(coarse))
                                    for f in (0.9, 0.8, 0.7)])

    assert main(["probe", "--group", group, "--ladder", ladder]) \
        == EXIT_CONFIG
    floor = _cap_floor(capsys.readouterr().err)
    below = str(decimal.Context(prec=6).next_minus(decimal.Decimal(floor)))
    assert main(["probe", "--group", group, "--ladder", finer(below)]) \
        == EXIT_CONFIG
    assert "past the probe cap" in capsys.readouterr().err

    def stop(*args):
        raise _PastTheCrossCheck

    monkeypatch.setattr(cli, "mollifier_scaling_report", stop)
    with pytest.raises(_PastTheCrossCheck):
        main(["probe", "--group", group, "--ladder", finer(floor)])


@pytest.mark.parametrize("ladder, scale", [("1,2,4,127", "127.0"),
                                           ("1,2,4,128", "128.0"),
                                           ("100,200,400,800", "800.0")])
def test_probe_refuses_scales_whose_dyadic_piece_vanishes(ladder, scale,
                                                          capsys, tmp_path):
    # phi_r and phi_{r/2} are both the uniform density there, so psi_r is
    # 0 and no slope can be fitted: a resolution error, with no report
    out = tmp_path / "report.json"
    assert main(["probe", "--group", "su2", "--ladder", ladder,
                 "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"psi_r vanishes at r={scale}" in captured.err
    assert "use smaller scales" in captured.err


def test_probe_refuses_scales_past_the_coefficient_ceiling(capsys,
                                                          tmp_path):
    # psi_r's coefficients at r = 1e-7 have not decayed by band 43785,
    # past the walk's ceiling: a resolution limit, with no report
    out = tmp_path / "report.json"
    assert main(["probe", "--group", "su2", "--ladder", "1e-2,1e-7,1e-8,1e-9",
                 "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "psi_r at r=1e-07 did not decay" in captured.err
    assert "by band 43785" in captured.err
    assert "use larger scales" in captured.err


def test_probe_accepts_the_grid_band_it_picks(su2, capsys):
    # the grid normalizes phi_r only at the coarsest scale, which picks
    # its band: the report's cross-check is grid_normalizer's, and the
    # band is echoed as the probe's
    assert main(["probe", "--group", su2.name]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    check = report["results"]["grid_cross_check"]
    assert (check["grid_c_r"], check["grid_band"]) \
        == grid_normalizer(su2, 0.0625) == (check["grid_c_r"], 62)
    assert report["config"]["band"] == 62
    assert "grid_band" not in report["config"]

@pytest.mark.parametrize("group", ["torus-1", "torus-2"])
def test_probe_default_ladder_passes_on_low_dimensional_tori(group, capsys):
    # the default ladder needs grid bands 402 and 101 here; the probe cap
    # bounds the samples the cross-check sums, not the band
    assert main(["probe", "--group", group]) == EXIT_PASS
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["mollifier_scaling"]["passed"] is True
    assert results["grid_cross_check"]["relative_difference"] < 1e-3


@pytest.mark.parametrize("argv, exit_code", [
    (["--group", "su2"], EXIT_PASS),
    (["--group", "torus-1"], EXIT_PASS),
    (["--group", "torus-2"], EXIT_PASS),
    (["--group", "torus-3"], EXIT_PASS),
    # a coarse scale beyond the torus (the huge scales fail the scaling
    # fit, but the band is accepted)
    (["--group", "torus-2", "--ladder", "400,300,200,100"], EXIT_FAIL),
])
def test_probe_accepts_the_grid_band_it_advises(argv, exit_code, capsys):
    # the cross-check runs on the band that resolves the coarsest scale
    assert main(["probe", *argv]) == exit_code
    report = json.loads(capsys.readouterr().out)
    coarse = report["results"]["grid_cross_check"]["r"]
    assert coarse == max(report["results"]["mollifier_scaling"]["ladder"])
    assert report["results"]["grid_cross_check"]["grid_band"] \
        == required_mollifier_band(model_from_name(argv[1]), coarse)


@pytest.mark.parametrize("q", ["one", "rho2", "adcoef"])
def test_probe_passes_for_every_vanishing_factor(q, capsys):
    assert main(["probe", "--group", "su2", "--q", q]) == EXIT_PASS
    results = json.loads(capsys.readouterr().out)["results"]
    decay = results["negative_sobolev"]
    assert decay["q"] == q and decay["passed"] is True
    rows = results["negative_sobolev_csv"].splitlines()
    assert rows[0] == "r,norm,band"
    assert [float(row.split(",")[2]) for row in rows[1:]] == decay["bands"]


def test_probe_rho2_refuses_s_beyond_half_dimension(capsys):
    # the expected slope (2 + s)/3 - 1/2 is out of reach for s > 3/2
    for s in ("1.75", "2.5"):
        assert main(["probe", "--q", "rho2", "--s", s]) == EXIT_CONFIG
        assert "n/2 = 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["one", "rho2", "adcoef"])
def test_probe_refuses_out_of_range_s_before_any_work(q, capsys, tmp_path,
                                                      monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the probe started before checking --s")

    monkeypatch.setattr(cli, "mollifier_scaling_report", no_work)
    out = tmp_path / "report.json"
    assert main(["probe", "--q", q, "--s", "9", "--out", str(out)]) \
        == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "outside [0, 1 + n/2]" in captured.err
    assert captured.out == "" and not out.exists()


def test_config_errors_exit_3(capsys, tmp_path):
    assert main(["check", "--group", "nosuch", "--symbol", "identity",
                 "--checker", "mikhlin"]) == EXIT_CONFIG
    assert main(["check", "--group", "su2", "--symbol", "nosuchbuilder",
                 "--checker", "mikhlin"]) == EXIT_CONFIG
    assert main(["check", "--group", "su2", "--symbol", "identity",
                 "--checker", "nosuchchecker"]) == EXIT_CONFIG
    bad = tmp_path / "bad.gsym"
    bad.write_text("garbage\n")
    assert main(["check", "--group", "su2", "--symbol", str(bad),
                 "--checker", "mikhlin"]) == EXIT_CONFIG
    # a band too small for the checker's differences
    assert main(["check", "--group", "su2", "--band", "1",
                 "--symbol", "identity", "--checker", "mikhlin"]) \
        == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check", "--group", "torus-x", "--symbol", "identity", "--checker",
     "mikhlin"],
    ["probe", "--group", "torus-2.5"],
    ["fourier-selftest", "--group", "torus-0"],
])
def test_malformed_group_name_names_the_option(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--group" in captured.err
    assert "'su2'" in captured.err and "'torus-<n>'" in captured.err
    assert "n >= 1" in captured.err
    assert "invalid literal" not in captured.err


def test_probe_refuses_torus_beyond_four_before_any_work(capsys, tmp_path,
                                                          monkeypatch):
    # the torus cube rule stops at n = 4: a limit of the implementation,
    # so a configuration error, found before the scaling report starts
    def no_work(*args, **kwargs):
        raise AssertionError("the probe started before checking the group")

    monkeypatch.setattr(cli, "mollifier_scaling_report", no_work)
    out = tmp_path / "report.json"
    assert main(["probe", "--group", "torus-5", "--out", str(out)]) \
        == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "configuration error: mollifier quadrature on the torus " \
        "supports n <= 4" in captured.err


def test_unbounded_symbol_class_order_exits_config_before_the_symbol(
        capsys, tmp_path, monkeypatch):
    # the words of orders <= 12 on SU(2) are C(9 + 12, 12) = 293,930: the
    # order is refused before its padded symbol is built
    def no_symbol(*args, **kwargs):
        raise AssertionError("the symbol was built before checking "
                             "max_order")

    monkeypatch.setattr(cli, "build_cli_symbol", no_symbol)
    out = tmp_path / "report.json"
    assert main(["check", "--group", "su2", "--band", "8", "--symbol",
                 "riesz:D3", "--checker", "symbol-class:0,1,12", "--out",
                 str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert ("symbol-class max_order 12 needs 293930 difference words on "
            "su2, past the cap 4096; the cap admits max_order <= 5 there"
            ) in captured.err


@pytest.mark.parametrize("group, top", [("su2", 5), ("torus-3", 8)])
def test_symbol_class_word_cap_names_the_largest_order(group, top):
    # library callers meet the same check; the cap admits ``top``
    model = model_from_name(group)
    check_word_count(model, top)
    with pytest.raises(SymbolFormatError,
                       match=f"the cap admits max_order <= {top} there"):
        check_word_count(model, top + 1)
    sym = identity_symbol(model, 8 + 2 * (top + 1))
    with pytest.raises(SymbolFormatError, match=f"max_order {top + 1} "):
        check_symbol_class(sym, SymbolClassSpec(0.0, 1.0, top + 1), 8)


@pytest.mark.parametrize("group", ["su2", "torus-3"])
def test_probe_makes_no_lapack_call(group, no_lapack, capsys):
    # the probe's slope fits are closed-form lines (np.polyfit would reach
    # LAPACK through lstsq)
    assert main(["probe", "--group", group]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_su2_selftest_makes_no_lapack_call(no_lapack, capsys):
    # the transforms take every label's J_x eigenbasis as a spin power of
    # the label-1 basis: no eigensolve
    assert main(["fourier-selftest", "--group", "su2", "--band",
                 "16"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("field", ["0,0,0", "nan,0,1", "inf,0,1",
                                   "1e-200,0,0", "1e200,0,0"])
@pytest.mark.parametrize("command", ["check", "probe", "invert"])
def test_degenerate_frame_field_exits_config_with_no_report(
        command, field, capsys, tmp_path, monkeypatch):
    # zero, non-finite, or a norm that under- or overflows: refused by the
    # field parser, before the probe's work and before any LAPACK call
    def no_work(*args, **kwargs):
        raise AssertionError("the probe started before checking --symbol")

    monkeypatch.setattr(cli, "mollifier_scaling_report", no_work)
    out = tmp_path / "report.json"
    argv = {"check": ["check", "--group", "su2", "--band", "8", "--symbol",
                      f"riesz:{field}", "--checker", "mikhlin"],
            "probe": ["probe", "--symbol", f"riesz:{field}"],
            "invert": ["invert", f"--field={field}", "--band", "8"]}[command]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"frame field {field!r} needs finite coefficients" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--group", "su2", "--checker", "mikhlin"],
    ["fourier-selftest", "--band", "x"],
    ["fourier-selftest", "--no-such-option"],
    ["probe", "--q", "nope"],
    ["invert", "--format", "xml"],
    ["probe", "--band", "5"],
])
def test_malformed_command_lines_exit_config(argv, capsys):
    # argparse's own exit code, 2, is the one for a mathematical obstruction
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "gmult" in captured.err \
        and "error:" in captured.err
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("module", ["numpy.fft", "numpy.polynomial",
                                    "statistics", "fractions", "decimal"])
def test_cli_import_loads_no_unused_module(module):
    # a module is imported by the calls that use it (numpy >= 2 loads its
    # submodules lazily): every command's start-up time and memory do not
    # pay for it
    code = ("import sys, gmult.cli; "
            f"sys.exit({module!r} in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_su2_mikhlin_check_loads_no_numpy_ma():
    # the empirical L^4 probe takes the middle of its sorted ratios, where
    # np.median would import numpy.ma (~10 ms and ~1.25 MB of every SU(2)
    # mikhlin child)
    code = ("import contextlib, io, sys, gmult.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = gmult.cli.main(['check', '--group', 'su2', '--band',"
            " '8', '--symbol', 'riesz:D3', '--checker', 'mikhlin'])\n"
            "sys.exit(code or 10 * ('numpy.ma' in sys.modules))")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["fourier-selftest", "--group", "torus-3", "--band", "-2"],
    ["invert", "--band", "-1"],
])
def test_negative_band_is_refused_by_name(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--band must be a nonnegative integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--group", "su2", "--symbol", "riesz:D3", "--checker",
     "mikhlin"],
    ["invert"],
    ["probe", "--group", "torus-1"],
    ["fourier-selftest", "--group", "su2"],
])
@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_negative_seed_is_refused_by_name(argv, seed, capsys):
    # numpy's own refusal named no option, and the probe, which draws no
    # random numbers, took any seed
    assert main(argv + ["--seed", seed]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"--seed must be a nonnegative integer, got {seed}"
            in captured.err)


def test_negative_range_is_refused_by_name(capsys):
    # check has no --range: the band alone sets the labels it reads
    with pytest.raises(SystemExit) as exc:
        main(["check", "--group", "su2", "--band", "24", "--symbol",
              "riesz:D3", "--checker", "mikhlin", "--range", "-1"])
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --range -1" in captured.err


@pytest.mark.parametrize("order", ["nan", "-inf", "inf"])
def test_symbol_class_refuses_a_non_finite_order(order, capsys):
    # nan and -inf reached an SVD that did not converge (exit 2); inf
    # passed and reported the order as "inf"
    assert main(["check", "--group", "su2", "--band", "12", "--symbol",
                 "identity", "--checker", f"symbol-class:{order},0,2"]) \
        == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "order must be finite" in captured.err


def test_torus_range_is_checked_before_the_box_is_built(monkeypatch, capsys):
    # torus-9 at band 2 would tabulate a (2 * 6 + 1)^9 box; the range check
    # must refuse the band before any symbol is built
    def no_build(*args):
        raise AssertionError("the symbol was built before the range check")

    monkeypatch.setattr(cli, "build_cli_symbol", no_build)
    assert main(["check", "--group", "torus-9", "--band", "2",
                 "--symbol", "identity", "--checker", "mikhlin"]) \
        == EXIT_CONFIG
    assert "range too small" in capsys.readouterr().err


def test_memory_error_exits_config_naming_group_and_band(monkeypatch,
                                                          capsys):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "build_cli_symbol", out_of_memory)
    assert main(["check", "--group", "torus-9", "--symbol", "identity",
                 "--checker", "mikhlin"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "torus-9 at its default band" in err and "--band" in err
    assert main(["check", "--group", "torus-6", "--band", "9",
                 "--symbol", "identity", "--checker", "mikhlin"]) \
        == EXIT_CONFIG
    assert "torus-6 at band 9" in capsys.readouterr().err
    # SU(2) blocks grow with the band alone: no torus box, no n to lower
    assert main(["check", "--group", "su2", "--band", "300",
                 "--symbol", "identity", "--checker", "mikhlin"]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "su2 at band 300" in err and "(t + 1)^2" in err
    assert "torus" not in err and "lower --band\n" in err
    # the probe has no --band: its scales set its bands
    monkeypatch.setattr(cli, "mollifier_scaling_report", out_of_memory)
    assert main(["probe", "--group", "su2"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "su2 probe over --ladder '4:9'" in err
    assert "raise the --ladder scales" in err and " --band" not in err
    assert main(["probe", "--group", "torus-3",
                 "--ladder", "0.2,0.1,0.05,0.025"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "torus-3 probe over --ladder '0.2,0.1,0.05,0.025'" in err
    assert " --band" not in err


# ---------------------------------------------------------------------------
# Reports: determinism, CSV, output routing
# ---------------------------------------------------------------------------

def _strip_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if "timing_seconds" not in line)


def test_seeded_rerun_is_byte_identical(tmp_path, capsys):
    args = ["check", "--group", "su2", "--band", "10",
            "--symbol", "riesz:D3", "--checker", "mikhlin", "--seed", "7"]
    paths = [str(tmp_path / f"run{i}.json") for i in (1, 2)]
    for p in paths:
        assert main(args + ["--out", p]) in (EXIT_PASS, EXIT_FAIL)
    capsys.readouterr()
    first = _strip_timing(Path(paths[0]).read_text())
    second = _strip_timing(Path(paths[1]).read_text())
    assert first == second
    # a different seed changes the seeded empirical diagnostic
    third = str(tmp_path / "run3.json")
    assert main(args[:-1] + ["11", "--out", third]) in (EXIT_PASS,
                                                        EXIT_FAIL)
    capsys.readouterr()
    report_a = json.loads(Path(paths[0]).read_text())
    report_b = json.loads(Path(third).read_text())
    assert report_a["config"]["seed"] != report_b["config"]["seed"]


def test_csv_format(capsys):
    code = main(["fourier-selftest", "--band", "6", "--format", "csv"])
    assert code == EXIT_PASS
    lines = capsys.readouterr().out.strip().splitlines()
    keys = {line.split(",", 1)[0] for line in lines}
    assert "schema" in keys
    assert "passed" in keys
    assert all("," in line for line in lines)


def test_out_dir_env_routing(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
    code = main(["fourier-selftest", "--band", "6",
                 "--out", "report.json"])
    assert code == EXIT_PASS
    capsys.readouterr()
    target = tmp_path / "report.json"
    assert target.exists()
    report = json.loads(target.read_text())
    assert report["schema"] == "gmult-report/1"
    assert isinstance(report["passed"], bool)


# ---------------------------------------------------------------------------
# Benchmark interface
# ---------------------------------------------------------------------------

def _traced_spans(tmp_path, *argv):
    """Run ``argv`` under perfbench/harness.py; returns its span records."""
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "harness.py"),
         "--spans", str(spans), "--command-id", "t", "--src",
         str(root / "src"), "--", *argv],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in spans.read_text().splitlines()]


def test_traced_benchmark_run_records_forward_labels(tmp_path):
    # perfbench/harness.py wraps the layers and reads the size of every
    # forward transform's result; a traced run must keep working
    records = _traced_spans(tmp_path, "fourier-selftest", "--group",
                            "torus-3", "--band", "4")
    forward = [r for r in records if r["name"] == "transform.fourier_forward"]
    assert forward
    assert all(r["labels"] == 9 ** 3 for r in forward)
    # an SU(2) check makes no transform for its differences: one call
    # reads the kernel's label stage once and shifts it per word of every
    # order.  The 3 forward and 6 inverse transforms are the L^p probe's
    records = _traced_spans(tmp_path, "check", "--group", "su2", "--band",
                            "8", "--symbol", "riesz:D3", "--checker",
                            "mikhlin")
    counts = Counter(r["name"] for r in records)
    assert counts["symbols.difference_sup_tables"] == 1
    assert counts["symbols.word_sup_table"] == 0
    assert counts["checkers.empirical_lp_ratio"] == 1
    assert counts["transform.fourier_forward"] == 3
    assert counts["transform.fourier_inverse"] == 6
    def ancestors(record):
        while record["parent"] >= 0:
            record = records[record["parent"]]
            yield record["name"]

    # no grid holds a Wigner table and no transform reads one: each read
    # is a build, and the one difference walk builds each of its 13
    # tables (the symbol's labels) once.  The transforms take the J_x
    # eigenbases as spin powers, one walk per transform: 9 transforms
    assert counts["grids.GroupGrid.little_d"] == 13
    builds = Counter(r["parent"] for r in records
                     if r["name"] == "groups.wigner_little_d")
    reads = [i for i, r in enumerate(records)
             if r["name"] == "grids.GroupGrid.little_d"]
    assert [builds[i] for i in reads] == [1] * len(reads)
    assert not any(name.startswith("transform.")
                   for i in reads for name in ancestors(records[i]))
    assert counts["groups.spin_powers"] == 9
    assert all(any(name.startswith("transform.") for name in ancestors(r))
               for r in records if r["name"] == "groups.spin_powers")
    assert not any("symbols.difference_sup_tables" in ancestors(r)
                   for r in records if r["name"].startswith("transform."))


def test_su2_selftest_holds_one_parity_cube_at_a_time(capsys):
    # band 56: 57 twice-spins of Wigner tables on 29 nodes would be 14 MB;
    # the transforms read none, and hold one parity's (u, v, k) cube
    # (57 x 57 x 29 complex, 1.5 MB) at a time
    tracemalloc.start()
    try:
        assert main(["fourier-selftest", "--group", "su2", "--band",
                     "56"]) == EXIT_PASS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 20e6


def test_traced_runs_build_the_smallest_grids(tmp_path):
    # the self-test of a band-8 symbol runs on the band-4 grid (labels up
    # to 8, products up to 16 exact): 9 phi x 5 theta x 18 psi nodes
    records = _traced_spans(tmp_path, "fourier-selftest", "--group", "su2",
                            "--band", "8")
    grids = [r for r in records if r["name"] == "grids.build_grid"]
    assert [r["nodes"] for r in grids] == [9 * 5 * 18]
    # the refined check reads rho^2 through its band on the grid of the
    # order-1 words
    records = _traced_spans(tmp_path, "check", "--group", "su2", "--band",
                            "8", "--symbol", "riesz:D3", "--checker",
                            "refined")
    grids = [r for r in records if r["name"] == "grids.build_grid"]
    assert grids and len({r["nodes"] for r in grids}) == 1


def test_traced_probes_skip_the_sampled_grid(tmp_path):
    # the grid cross-check sums the profile over the symmetry-reduced node
    # set, so no run samples a function on the whole grid (no transform)
    # or builds a Wigner table on it; the su2 probe takes the coefficients
    # of psi_r once per scale, one walk for both fine-scale probes
    sampled = ("transform.fourier_forward", "transform.fourier_inverse",
               "grids.GroupGrid.little_d")
    records = _traced_spans(tmp_path, "probe", "--group", "su2")
    counts = Counter(r["name"] for r in records)
    assert [counts[name] for name in sampled] == [0, 0, 0]
    assert counts["grids.build_grid"] == 1
    assert counts["mollifier.grid_normalizer"] == 1
    assert counts["mollifier.psi_hat_coefficients"] == 6
    records = _traced_spans(tmp_path, "probe", "--group", "torus-3",
                            "--ladder", "4:9")
    counts = Counter(r["name"] for r in records)
    assert [counts[name] for name in sampled] == [0, 0, 0]
    assert counts["grids.build_grid"] == 1
    assert counts["mollifier.grid_normalizer"] == 1


def _readme_commands():
    """``(argv, exit code)`` of each ``gmult`` line in the README's usage
    block; a trailing ``# exits N`` comment states a nonzero code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    out = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            if line.startswith("gmult "):
                command, _, comment = line.partition("#")
                code = re.match(r"\s*exits (\d+)", comment)
                out.append((shlex.split(command)[1:],
                            int(code.group(1)) if code else EXIT_PASS))
    return out


README_COMMANDS = _readme_commands()


def test_readme_usage_block_is_found():
    # the usage block's eight and the install section's console-script run
    assert len(README_COMMANDS) == 9


@pytest.mark.parametrize("argv, exit_code", README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_readme_commands_exit_as_documented(argv, exit_code, capsys,
                                            monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    assert main(argv) == exit_code
    capsys.readouterr()
