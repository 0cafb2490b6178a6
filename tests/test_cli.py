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

import json
import math
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gmult import cli
from gmult.checkers import torus_lattice_symbol
from gmult.cli import (EXIT_CONFIG, EXIT_FAIL, EXIT_MATH, EXIT_PASS,
                       load_symbol_file, main, parse_complex, parse_ladder,
                       parse_scalar_expression, parse_torus_expression)
from gmult.errors import GmultError, SymbolFormatError
from gmult.groups import label_band
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


def test_parse_ladder_dyadic_and_explicit():
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


def test_parse_torus_expression_nonfinite_off_origin():
    fn = parse_torus_expression("1/k1", 2)
    with pytest.raises(GmultError):
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


def test_parse_scalar_expression():
    f = parse_scalar_expression("x**-0.5")
    assert f(0.0) == 0.0  # non-finite at the origin is patched
    assert f(4.0) == pytest.approx(0.5)
    g = parse_scalar_expression("exp(-x)")
    assert g(1.0) == pytest.approx(math.exp(-1.0))
    with pytest.raises(GmultError):
        parse_scalar_expression("1/(x - 1)")(1.0)


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


@pytest.mark.parametrize("group", ["su2", "torus-3"])
def test_selftest_at_band_zero_passes(group, capsys):
    assert main(["fourier-selftest", "--group", group,
                 "--band", "0"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["results"][group]["passed"] is True


def _riesz_order0_constant(band: int) -> float:
    """Largest operator norm of the unit-field Riesz symbol through
    ``band``: ``(t/2) / sqrt((t/2)(t/2 + 1))``, increasing in ``t``."""
    return math.sqrt(band / (band + 2))


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


def test_invert_recursion_check_passes(capsys):
    code = main(["invert", "--band", "8", "--c", "1",
                 "--recursion-check"])
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    rec = report["results"]["recursion_residuals"]
    assert rec["block_0"]["residual"] < 1e-9
    assert rec["block_1"]["residual"] < 1e-9


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
    code = main(["probe", "--grid-band", "12"])
    assert code == EXIT_CONFIG
    assert "smallest" in capsys.readouterr().err


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
    # a coarse scale beyond the torus: the cross-check's own advice (the
    # huge scales fail the scaling fit, but the band is accepted)
    (["--group", "torus-2", "--ladder", "400,300,200,100"], EXIT_FAIL),
])
def test_probe_accepts_the_grid_band_it_advises(argv, exit_code, capsys):
    assert main(["probe", *argv, "--grid-band", "3"]) == EXIT_CONFIG
    advised = re.search(r"band >= (\d+)", capsys.readouterr().err)
    assert advised is not None
    assert main(["probe", *argv, "--grid-band", advised.group(1)]) \
        == exit_code
    capsys.readouterr()


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
    # checker range exceeding what the band supports
    assert main(["check", "--group", "su2", "--band", "12", "--range", "20",
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


@pytest.mark.parametrize("argv", [
    ["fourier-selftest", "--group", "torus-3", "--band", "-2"],
    ["invert", "--band", "-1"],
])
def test_negative_band_is_refused_by_name(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--band must be a nonnegative integer" in captured.err


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
    # an SU(2) check makes no per-word forward transform: each difference
    # family synthesizes its kernel once and shifts one phase stage per
    # word.  The 3 forward and 6 of the 8 inverse transforms are the L^p
    # probe's; the other 2 inverses are the kernels of the order-1 and
    # order-2 word sup tables
    records = _traced_spans(tmp_path, "check", "--group", "su2", "--band",
                            "8", "--symbol", "riesz:D3", "--checker",
                            "mikhlin")
    counts = Counter(r["name"] for r in records)
    assert counts["symbols.word_sup_table"] == 3
    assert counts["checkers.empirical_lp_ratio"] == 1
    assert counts["transform.fourier_forward"] == 3
    assert counts["transform.fourier_inverse"] == 8
    assert counts["grids.GroupGrid.little_d"] == 224


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
    counts = Counter(r["name"] for r in records)
    assert counts["grids.build_grid"] == 1


def test_traced_probes_skip_the_sampled_grid(tmp_path):
    # the grid cross-check sums the profile over the symmetry-reduced node
    # set, so no run samples a function on the whole grid (no transform)
    # or builds a Wigner table on it; the su2 probe takes the coefficients
    # of psi_r once per scale for each of its two fine-scale probes
    sampled = ("transform.fourier_forward", "transform.fourier_inverse",
               "grids.GroupGrid.little_d")
    records = _traced_spans(tmp_path, "probe", "--group", "su2")
    counts = Counter(r["name"] for r in records)
    assert [counts[name] for name in sampled] == [0, 0, 0]
    assert counts["grids.build_grid"] == 1
    assert counts["mollifier.grid_normalizer"] == 1
    assert counts["mollifier.psi_hat_coefficients"] == 12
    records = _traced_spans(tmp_path, "probe", "--group", "torus-3",
                            "--ladder", "4:9")
    counts = Counter(r["name"] for r in records)
    assert [counts[name] for name in sampled] == [0, 0, 0]
    assert counts["grids.build_grid"] == 1
    assert counts["mollifier.grid_normalizer"] == 1
