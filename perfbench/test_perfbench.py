"""Tests of the benchmark's own machinery (no gmult command is run).

    python3 -m pytest perfbench
"""
import json
import math
from pathlib import Path

import pytest

import gate
import metrics
import spans
import workloads as wl
from harness import Tracer


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_of_synthetic_nested_call():
    # cli.main [0, 10] > checkers [1, 7] > symbols [2, 6] > transform [3, 4]
    #                  > transform [8, 9]
    trace = [_span("cli.main", 0.0, 10.0, -1),
             _span("checkers.check_mikhlin", 1.0, 7.0, 0),
             _span("symbols.word_sup_table", 2.0, 6.0, 1),
             _span("transform.fourier_forward", 3.0, 4.0, 2),
             _span("transform.fourier_forward", 8.0, 9.0, 0)]
    assert spans.self_times(trace) == [3.0, 2.0, 3.0, 1.0, 1.0]
    m = spans.layer_metrics([trace])
    assert m["cli.self_s"] == 3.0
    assert m["checkers.self_s"] == 2.0
    assert m["symbols.self_s"] == 3.0
    assert m["transform.self_s"] == 2.0
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0
    assert m["transform.forward.calls"] == 2
    assert m["transform.forward.s"] == 2.0
    assert m["symbols.word_sup_table.s"] == 4.0


def test_recursive_span_counts_once_in_function_time():
    trace = [_span("symbols.apply_difference", 0.0, 5.0, -1),
             _span("symbols.apply_difference", 1.0, 2.0, 0)]
    m = spans.layer_metrics([trace])
    assert m["symbols.apply_difference.s"] == 5.0
    assert m["symbols.apply_difference.calls"] == 2


def test_tracer_links_real_nested_calls():
    tracer = Tracer("t")

    def inner(x):
        return x + 1

    inner_t = tracer.wrap("transform.fourier_forward", inner)

    def outer(x):
        return inner_t(x) * 2

    outer_t = tracer.wrap("symbols.word_sup_table", outer,
                          probe=lambda a, k, r: {"words": r})
    assert outer_t(1) == 4
    names = [s[0] for s in tracer.spans]
    assert names == ["symbols.word_sup_table", "transform.fourier_forward"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert tracer.spans[0][4] == {"words": 4}
    rows = [_span(n, a, b, p) for n, a, b, p, _ in tracer.spans]
    own = spans.self_times(rows)
    total = rows[0]["end"] - rows[0]["start"]
    assert math.isclose(sum(own), total, rel_tol=1e-12)


def test_generator_is_deterministic_per_seed():
    for seed in (0, 1, 7919):
        a, b = wl.make_inputs(seed), wl.make_inputs(seed)
        assert a == b
        assert wl.symbol_file_text(a) == wl.symbol_file_text(b)
    assert wl.make_inputs(0) != wl.make_inputs(1)


@pytest.mark.parametrize("seed", range(20))
def test_generated_inputs_have_their_stated_properties(seed):
    inp = wl.make_inputs(seed)
    u = [float(v) for v in inp.u.split(",")]
    assert abs(math.sqrt(sum(v * v for v in u)) - 1.0) < 1e-15
    c = complex(inp.c.replace("i", "j"))
    assert abs(c.real) >= 0.5
    e = complex(inp.e.replace("i", "j"))
    assert e.real == 0.0 and e.imag != 0.0 and (2 * e.imag).is_integer()
    text = wl.symbol_file_text(inp)
    assert text.splitlines()[:3] == ["gmult-symbol 1", "group torus-3",
                                     "band 10"]
    origin = text.splitlines().index("label 0 0 0 d 1")
    assert text.splitlines()[origin + 1] == "0.0 0.0"


def _envelope():
    return {"schema": gate.SCHEMA, "tool_version": "0.1.0", "command": "check",
            "config": {"band": 24}, "passed": True, "timing_seconds": 0.5,
            "results": {"report": {"conditions": [
                {"name": "order-0", "constant": 0.96, "passed": True},
                {"name": "order-1", "constant": 1e-20, "passed": True}]},
                "selftest": {"roundtrip_relative_error": 1e-15}}}


def _gate(env, exit_code=0, expected=0):
    ref = {"exit": 0, "leaves": gate.comparable(_envelope())}
    return gate.gate_run("cmd", expected, exit_code, json.dumps(env), "",
                         ref, values_known=True)[0]


def test_gate_passes_the_reference_itself_and_ignores_timing():
    env = _envelope()
    env["timing_seconds"] = 99.0
    v = _gate(env)
    assert v.ok and not v.wrong
    assert gate.accuracy_digits(v.errors) == 9.0


def test_gate_flags_wrong_exit_code():
    v = _gate(_envelope(), exit_code=1)
    assert not v.ok and v.wrong
    assert any("exit code 1" in r for r in v.reasons)
    env = _envelope()
    env["results"]["selftest"]["roundtrip_relative_error"] = 4e-8
    v = _gate(env, exit_code=1)
    assert not v.ok and not v.wrong   # the program reports its own failure


def test_gate_flags_number_perturbed_by_1e8():
    env = _envelope()
    env["results"]["report"]["conditions"][0]["constant"] *= 1 + 1e-8
    v = _gate(env)
    assert not v.ok and v.wrong
    assert 7.9 < gate.accuracy_digits(v.errors) < 8.1


def test_gate_tolerates_rounding_noise_on_zero_entries():
    env = _envelope()
    env["results"]["report"]["conditions"][1]["constant"] = 3e-17
    assert _gate(env).ok


def test_gate_holds_self_stated_errors_to_the_tolerance():
    env = _envelope()
    env["results"]["selftest"]["roundtrip_relative_error"] = 4e-8
    v = _gate(env)
    assert not v.ok and not v.wrong
    assert math.isclose(gate.accuracy_digits(v.errors), -math.log10(4e-8))


def test_gate_flags_unparseable_report_and_missing_entries():
    v = gate.gate_run("cmd", 0, 0, "not json", "", None, True)[0]
    assert v.wrong
    env = _envelope()
    del env["results"]["report"]["conditions"][1]
    assert _gate(env).wrong


def test_gate_accepts_documented_refusal():
    ok = gate.gate_run("x", 2, 2, "", "exceptional input: ...", None, True)[0]
    assert ok.ok
    assert gate.gate_run("x", 2, 0, "{}", "", None, True)[0].wrong


def test_cross_checks_compare_routes_and_oracles():
    def env(c0, c1):
        return {"results": {"report": {"conditions": [
            {"name": "order-0", "constant": c0},
            {"name": "order-1", "constant": c1}]}}}
    envs = {"mikhlin-file": env(1.0, 2.0), "mikhlin-expr": env(1.0, 2.0)}
    assert gate.cross_checks(envs, {"mikhlin-file": 1.0}) == {}
    envs["mikhlin-expr"] = env(1.0, 2.0 * (1 + 1e-8))
    assert "mikhlin-expr" in gate.cross_checks(envs, {})
    assert math.isclose(gate.riesz_order0_constant(24), 12 / math.sqrt(156))


def test_benchmark_json_mirrors_the_catalogue():
    doc = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    want = metrics.benchmark_json({w: wl.WHY[w] for w in wl.LISTED},
                                  doc["run_seconds"])
    assert doc == want
    assert len({m["name"] for m in doc["per_layer"]}) == len(doc["per_layer"])
    for name, _, _, moves in metrics.PER_LAYER:
        assert moves, name
    for w in doc["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_tail_percentile_needs_ten_samples_beyond():
    import run
    assert run.tail_percentile([1.0] * 19) is None
    p, value = run.tail_percentile([float(i) for i in range(100)])
    assert p == 90 and value == 89.0


def test_gate_shape_check_allows_input_dependent_list_lengths():
    ref = {"exit": 0, "leaves": gate.comparable(_envelope())}
    env = _envelope()
    env["results"]["report"]["conditions"].append(
        {"name": "order-2", "constant": 5.0, "passed": True})
    env["results"]["report"]["conditions"][0]["constant"] = 7.0
    v = gate.gate_run("cmd", 0, 0, json.dumps(env), "", ref,
                      values_known=False)[0]
    assert v.ok
    del env["config"]["band"]
    v = gate.gate_run("cmd", 0, 0, json.dumps(env), "", ref,
                      values_known=False)[0]
    assert not v.ok


def test_cache_hit_ratios_come_from_nested_builds():
    trace = [_span("grids.GroupGrid.little_d", 0.0, 2.0, -1),
             _span("groups.wigner_little_d", 0.5, 1.5, 0),
             _span("grids.GroupGrid.little_d", 3.0, 3.1, -1),
             _span("groups.wigner_little_d", 4.0, 5.0, -1),
             _span("symbols.default_grid", 6.0, 8.0, -1),
             _span("grids.build_grid", 6.5, 7.5, 4),
             _span("symbols.default_grid", 9.0, 9.1, -1),
             _span("grids.build_grid", 10.0, 11.0, -1)]
    trace[5]["nodes"] = trace[7]["nodes"] = 10
    m = spans.layer_metrics([trace])
    assert m["grids.little_d.hit_ratio"] == 0.5
    assert m["grids.grid_cache.hit_ratio"] == 0.5
    assert m["grids.nodes_built"] == 20
    assert m["groups.wigner_little_d.calls"] == 2


def test_cross_checks_flag_a_report_without_conditions():
    problems = gate.cross_checks({"mikhlin-expr": {"results": {}}},
                                 {"mikhlin-expr": 1.0})
    assert "mikhlin-expr" in problems
