"""Smoke tests of the benchmark at tiny sizes (disk at h = 1/16, C^2 ball
at h = 1/4, a coarse CLI session).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny(name, traced, **kwargs):
    return run.run_workload(name, SEED, 0.01, traced, small=True, **kwargs)


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced_run(request):
    return request.param, tiny(request.param, True)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(name):
    res = tiny(name, False)
    assert res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.units(False)
    assert set(res["metrics"]) == set(declared)
    assert all(v > 0 for v in res["metrics"].values())


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def test_per_layer_metrics_emitted_with_units(traced_run):
    name, res = traced_run
    assert res["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.units(True)
    assert set(res["metrics"]) == set(declared)
    m = res["metrics"]
    if name == "cli_session":
        assert m["verify.dalpha.s"] > 0 and m["forms.to_csv.rows"] > 0 and m["cli.self.s"] > 0
    else:
        assert m["minnorm.iterations.poincare"] > 0 and m["minnorm.iterations.dbar"] > 0
        assert 0 < m["minnorm.dof_fraction"] < 1
        assert m["minnorm.apply.calls"] > 0 and m["calculus.diff_axis_t.calls"] > 0
    assert m["domain.build_grid.s"] > 0 and m["mem.traced_peak_mb"] > 0


def test_children_within_parents_and_self_times_add_up(traced_run):
    _, res = traced_run
    spans = res["spans"]
    own = tracing.self_times(spans)
    assert min(own) >= 0.0
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end and p.op == s.op
    for op in {s.op for s in spans if s.op != tracing.SETUP}:
        total = sum(t for s, t in zip(spans, own) if s.op == op)
        root = [s for s in spans if s.op == op and s.parent < 0]
        assert [s.name for s in root] == ["bench.op"]
        assert total == pytest.approx(root[0].end - root[0].start, rel=1e-9)


def test_traced_counts_repeat_exactly():
    counted = [k for k, unit in run.units(True).items() if unit == "count"]
    first = tiny("disk2d_h128", True)["metrics"]
    second = tiny("disk2d_h128", True)["metrics"]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_reference_ratio_fails_every_operation(name):
    res = tiny(name, False, reference=(123.0,) * 6)
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]


@pytest.mark.parametrize("dim", [2, 4])
def test_seeded_form_is_closed_real_and_seeded(dim):
    import pellel
    from pellel import bridge, calculus, forms

    grid = pellel.build_grid(pellel.Domain.ball(1.0, dim=dim), 1 / 8 if dim == 2 else 1 / 4)
    weight = pellel.Weight.abs2(dim)
    f = workloads.seeded_11_form(grid, SEED)
    g = bridge.real11_to_real2(f)
    assert forms.norm2(calculus.d(g), weight, grid.mask_eq) <= 1e-24 * forms.norm2(g, weight)
    assert (calculus.conj_form(f).coeffs == f.coeffs).all()
    assert (workloads.seeded_11_form(grid, SEED).coeffs == f.coeffs).all()
    assert (workloads.seeded_11_form(grid, SEED + 1).coeffs != f.coeffs).any()


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "disk2d_h128", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
