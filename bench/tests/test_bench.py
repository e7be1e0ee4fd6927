"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    python3 -m pytest bench/tests -q

The smoke runs execute every workload once (about two minutes on two
cores).
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, make_config, oracle_indices, write_configs  # noqa: E402

TMP_ROOT = ROOT / ".bench_work" / "tests"


@pytest.fixture
def workdir():
    path = TMP_ROOT / str(time.monotonic_ns())
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


# -- generator -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name, workdir):
    assert make_config(name, 7) == make_config(name, 7)
    assert make_config(name, 7) != make_config(name, 8)
    assert oracle_indices(name, 7) == oracle_indices(name, 7)
    first = write_configs(7, workdir / "a", [name])[name].read_bytes()
    second = write_configs(7, workdir / "b", [name])[name].read_bytes()
    assert first == second


# -- tracer ----------------------------------------------------------------

def test_self_time_of_synthetic_nested_spans():
    spans = [["a", 0.0, 10.0, None, {}],
             ["b", 1.0, 4.0, 0, {}],
             ["c", 2.0, 3.0, 1, {}],
             ["d", 5.0, 9.0, 0, {}]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_record_parents_and_self_time():
    t = tracer.Tracer(run_id="test")

    def inner():
        time.sleep(0.01)

    inner = t.wrap("inner", inner)

    def outer():
        inner()
        time.sleep(0.01)
        inner()

    t.wrap("outer", outer)()
    names = [s[0] for s in t.spans]
    parents = [s[3] for s in t.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [None, 0, 0]
    own = tracer.self_times(t.spans)
    outer_span = t.spans[0]
    inner_total = sum(s[2] - s[1] for s in t.spans[1:])
    assert own[0] == pytest.approx(outer_span[2] - outer_span[1] - inner_total)
    assert 0.009 < own[0] < 0.05


# -- oracle ----------------------------------------------------------------

def _zero_problem(n, left, right):
    return {"order": {"n": n}, "indices": {"i": [0] * (n - 1)},
            "coefficients": [{"type": "zero"}] * (n - 1),
            "boundary": {"r": len(left), "left": [{"p": p} for p in left],
                         "right": [{"p": p} for p in right]}}


def test_oracle_dirichlet_second_order():
    prob = oracle.Problem(_zero_problem(2, [0], [0]))
    with mp.workdps(40):
        for l in (1, 2, 5):
            exact = -(mp.pi * l) ** 2
            assert abs(prob.root(exact * 1.01) - exact) < mp.mpf(10) ** -30


def test_oracle_clamped_beam():
    prob = oracle.Problem(_zero_problem(4, [0, 1], [0, 1]))
    with mp.workdps(40):
        k = mp.root(prob.root(4.73 ** 4), 4)
    assert abs(k - mp.mpf("4.730040744862704")) < 1e-14


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_matrix_matches_library_regularization(name):
    from quasispec import cli

    doc = make_config(name, 3)
    library = cli.problem_from_config(doc).F
    for a, b, F in oracle.Problem(doc).pieces:
        x = float(a + (b - a) / 3)
        t = x - float(a)
        ours = np.array([[complex(mp.polyval(p[::-1], t)) if p else 0.0
                          for p in row] for row in F])
        np.testing.assert_allclose(ours, library.evaluate([x])[0],
                                   rtol=0, atol=1e-13)


def test_oracle_taylor_agrees_with_expm_on_constant_coefficient():
    base = {"order": {"n": 3}, "indices": {"i": [1, 0]},
            "boundary": {"r": 1, "left": [{"p": 0}],
                         "right": [{"p": 0}, {"p": 1}]}}
    const = dict(base, coefficients=[
        {"type": "zero"}, {"type": "constant", "value": [0.3, 0.0]}])
    # a negligible quadratic term forces the Taylor route
    poly = dict(base, coefficients=[
        {"type": "zero"}, {"type": "piecewise_poly", "breakpoints": [0, 1],
                           "coeffs": [[[0.3, 0], [0, 0], [1e-40, 0]]]}])
    with mp.workdps(40):
        lam = mp.mpc(50, 20)
        a = oracle.Problem(poly).delta(lam)
        b = oracle.Problem(const).delta(lam)
    assert abs(a - b) < mp.mpf(10) ** -30 * abs(b)


# -- runner ----------------------------------------------------------------

def _declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def test_benchmark_json_lists_the_generated_workloads():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in WORKLOADS.values()]


@pytest.mark.parametrize("name,trace", [(name, 0) for name in sorted(WORKLOADS)]
                         + [("weights-n3", 1)])
def test_workload_smoke_run(name, trace):
    proc = _bench("--workload", name, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= WORKLOADS[name].l_max
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_runner_fails_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "strip-n4", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
