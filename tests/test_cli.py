"""CLI: config validation, schemas, determinism, exit codes."""

import argparse
import copy
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasispec
from quasispec.cli import _build_parser, main, problem_from_config
from quasispec.errors import ValidationError


README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def dirichlet_doc(l_max=3, weight=False):
    doc = {
        "order": {"n": 2},
        "indices": {"i": [0]},
        "coefficients": [{"type": "zero"}],
        "boundary": {"r": 1, "left": [{"p": 0, "u": []}],
                     "right": [{"p": 0, "u": []}]},
        "settings": {"l_min": 1, "l_max": l_max},
    }
    if weight:
        doc["weight_form"] = {"p0": 1, "u0": []}
    return doc


def third_order_doc(sigma1=0.0, l_max=6):
    coeff1 = {"type": "zero"} if sigma1 == 0 else \
        {"type": "constant", "value": [sigma1, 0.0]}
    return {
        "order": {"n": 3},
        "indices": {"i": [1, 0]},
        "coefficients": [{"type": "zero"}, coeff1],
        "boundary": {"r": 1, "left": [{"p": 0, "u": []}],
                     "right": [{"p": 0, "u": []}, {"p": 1, "u": []}]},
        "settings": {"l_min": 1, "l_max": l_max},
    }


class TestConfig:
    def test_field_path_in_error(self, tmp_path):
        doc = third_order_doc()
        doc["indices"]["i"] = [2, 0]  # i0 > m
        code, out, err = run(["matrix", write(tmp_path, doc)])
        assert code == 2
        assert "indices[0]" in err

    def test_both_operator_modes_rejected(self):
        doc = third_order_doc()
        doc["raw_matrix"] = {"entries": []}
        with pytest.raises(ValidationError, match="coefficients"):
            problem_from_config(doc)

    def test_raw_matrix_mode(self):
        # Sturm-Liouville in raw form: f21 = q
        doc = {
            "order": {"n": 2},
            "raw_matrix": {"entries": [
                [{"type": "zero"}, {"type": "constant", "value": [1.0, 0.0]}],
                [{"type": "constant", "value": [2.0, 0.0]}, {"type": "zero"}],
            ]},
            "boundary": {"r": 1, "left": [{"p": 0, "u": []}],
                         "right": [{"p": 0, "u": []}]},
        }
        prob = problem_from_config(doc)
        assert prob.matrix is not None
        assert prob.F.entries[1][0](0.3) == 2.0

    def test_raw_matrix_validation(self, tmp_path):
        doc = {
            "order": {"n": 2},
            "raw_matrix": {"entries": [
                [{"type": "zero"}, {"type": "constant", "value": [2.0, 0.0]}],
                [{"type": "zero"}, {"type": "zero"}],
            ]},
            "boundary": {"r": 1, "left": [{"p": 0, "u": []}],
                         "right": [{"p": 0, "u": []}]},
        }
        code, out, err = run(["matrix", write(tmp_path, doc)])
        assert code == 2
        assert "superdiagonal" in err

    def test_missing_file(self):
        code, out, err = run(["spectrum", "/nonexistent/conf.json"])
        assert code == 2

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["boundary"]["left"][0].pop("p"), "boundary.left[0].p"),
        (lambda d: d["boundary"].update(left=5), "boundary.left"),
        (lambda d: d["boundary"]["right"][0].update(p="0"), "boundary.right[0].p"),
        (lambda d: d.update(order=3), "order"),
        (lambda d: d.update(weight_form={"u0": []}), "weight_form.p0"),
        (lambda d: d["settings"].update(l_max="x"), "settings.l_max"),
        (lambda d: d["coefficients"][1].update(value=[float("nan"), 0.0]),
         "coefficients[1].value"),
        (lambda d: d["coefficients"][1].update(value=[0.0, float("inf")]),
         "coefficients[1].value"),
        (lambda d: d["coefficients"][1].update({"class": "L3"}), "coefficients[1]"),
        (lambda d: d["boundary"]["right"][0].update(u=[[1.0, 0.0]]),
         "boundary.right[0].u"),
        (lambda d: d.update(weight_form={"p0": 1, "u0": [[1.0, 0.0], [2.0, 0.0]]}),
         "weight_form.u0"),
        (lambda d: d["boundary"]["right"][1].update(p=7), "boundary.right[1].p"),
        (lambda d: d["boundary"]["right"][1].update(p=0), "boundary.right"),
    ], ids=["no-p", "left-int", "p-str", "order-int", "no-p0", "l_max-str",
            "nan-value", "inf-value", "bad-class", "u-count", "u0-count",
            "p-range", "p-repeated"])
    def test_malformed_config_is_config_error(self, tmp_path, mutate, field):
        doc = third_order_doc(sigma1=1.0)
        mutate(doc)
        code, out, err = run(["asymptotics", write(tmp_path, doc)])
        assert code == 2
        assert f"config error: {field}: " in err


class TestMatrixCommand:
    def test_third_order_entry(self, tmp_path):
        doc = third_order_doc(sigma1=1.0)
        doc["coefficients"][0] = {"type": "constant", "value": [1.0, 0.0]}
        code, out, err = run(["matrix", write(tmp_path, doc), "--x", "0.5"])
        assert code == 0
        rows = [line.split("\t") for line in out.strip().split("\n")]
        assert float(rows[1][0]) == pytest.approx(2.0)  # sigma0 + sigma1
        assert float(rows[0][1]) == pytest.approx(1.0)

    def test_zero_config_companion(self, tmp_path):
        code, out, err = run(["matrix", write(tmp_path, third_order_doc())])
        rows = [line.split("\t") for line in out.strip().split("\n")]
        assert [float(v) for v in rows[0]] == [0.0, 1.0, 0.0]
        assert [float(v) for v in rows[2]] == [0.0, 0.0, 0.0]


class TestSpectrumCommand:
    def test_dirichlet_rows(self, tmp_path):
        code, out, err = run(["spectrum", write(tmp_path, dirichlet_doc())])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "l,re_lambda,im_lambda,re_rho,im_rho,re_eps,im_eps,multiplicity"
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        want = [-(np.pi * l) ** 2 for l in (1, 2, 3)]
        np.testing.assert_allclose(vals, want, rtol=1e-9)

    def test_deterministic_output(self, tmp_path):
        path = write(tmp_path, third_order_doc(sigma1=0.0))
        _, out1, _ = run(["spectrum", path])
        _, out2, _ = run(["spectrum", path])
        assert out1 == out2

    def test_overflowing_determinant_is_numerical_failure(self, tmp_path):
        # a finite 1e308 coefficient drives the determinant past float
        # range; a fresh process shows any numpy warning on stderr too
        doc = third_order_doc(sigma1=1e308)
        env = dict(os.environ, PYTHONPATH=str(Path(quasispec.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "quasispec.cli", "spectrum", write(tmp_path, doc)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == ("numerical failure: determinant is not finite "
                               "on the contour\n")

    @pytest.mark.parametrize("slope", [3e6, 1e300])
    def test_step_budget_is_numerical_failure(self, tmp_path, slope):
        # sigma_1 = 0.5 + slope x asks the low-disk circle for more Magnus
        # steps than MAX_STEPS (at 1e300, an infinite count); the budget
        # is refused before any step
        doc = third_order_doc()
        doc["coefficients"][1] = {"type": "piecewise_poly", "breakpoints": [0.0, 1.0],
                                  "coeffs": [[[0.5, 0.0], [slope, 0.0]]], "class": "L2"}
        code, _, err = run(["spectrum", write(tmp_path, doc)])
        assert code == 3
        assert err == "numerical failure: step budget exhausted (at x=0)\n"

    def test_lf_endings_and_decimal_point(self, tmp_path):
        _, out, _ = run(["spectrum", write(tmp_path, dirichlet_doc())])
        assert "\r" not in out
        assert "," in out and ";" not in out


class TestWeightsCommand:
    def test_dirichlet_weights(self, tmp_path):
        doc = dirichlet_doc(l_max=2, weight=True)
        code, out, err = run(["weights", write(tmp_path, doc)])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "l,re_beta,im_beta"
        b1 = float(lines[1].split(",")[1])
        assert b1 == pytest.approx(-2 * np.pi ** 2, rel=1e-9)

    def test_missing_weight_form(self, tmp_path):
        code, out, err = run(["weights", write(tmp_path, dirichlet_doc())])
        assert code == 2


class TestAsymptoticsCommand:
    def test_third_order_chi(self, tmp_path):
        code, out, err = run(["asymptotics", write(tmp_path, third_order_doc())])
        assert code == 0
        chi_row = [line for line in out.split("\n") if line.startswith("chi,")][0]
        assert float(chi_row.split(",")[1]) == pytest.approx(1 / 6, abs=1e-12)

    def test_report_flag(self, tmp_path):
        code, out, err = run(["--report", "asymptotics",
                              write(tmp_path, third_order_doc())])
        assert "chi=" in err


class TestCompareCommand:
    def test_identical_configs(self, tmp_path):
        a = write(tmp_path, third_order_doc(sigma1=1.0, l_max=6), "a.json")
        b = write(tmp_path, third_order_doc(sigma1=1.0, l_max=6), "b.json")
        code, out, err = run(["compare", a, b])
        assert code == 0
        rows = [line for line in out.strip().split("\n")
                if line and line[0].isdigit()]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)
        chat = [line for line in out.split("\n") if line.startswith("re_c_hat")][0]
        assert float(chat.split(",")[1]) == 0.0

    def test_roundoff_difference_prints_as_identical(self, tmp_path):
        # i_0 = 1: a constant sigma_0 enters only through its zero
        # derivative, so the two spectra agree to round-off and the pair
        # prints what identical configs print, not a decay fitted to noise
        def doc(sigma0):
            return {"order": {"n": 3}, "indices": {"i": [1, 0]},
                    "coefficients": [
                        {"type": "constant", "value": [sigma0, 0.0]},
                        {"type": "constant", "value": [1.162460835876506, 0.0]}],
                    "boundary": {"r": 1, "left": [{"p": 0}],
                                 "right": [{"p": 0}, {"p": 1}]},
                    "settings": {"l_min": 1, "l_max": 6}}
        a = write(tmp_path, doc(0.7286771607850271), "a.json")
        b = write(tmp_path, doc(0.37), "b.json")
        code, out, err = run(["compare", a, b])
        assert code == 0
        assert (code, out, err) == run(["compare", a, a])

    def test_boundary_mismatch_in_window_refused(self, tmp_path):
        # n = 4, sigma_1 differs: d = 2 pins u_{s, p_s} of every form;
        # u_2 of the p = 2 form differs, so the pair is refused
        def pair_doc(u):
            return {"order": {"n": 4}, "indices": {"i": [0, 0, 0]},
                    "coefficients": [{"type": "zero"},
                                     {"type": "constant", "value": [u[0], 0.0]},
                                     {"type": "zero"}],
                    "boundary": {"r": 1, "left": [{"p": 1}],
                                 "right": [{"p": 0},
                                           {"p": 2, "u": [[0.0, 0.0], [u[1], 0.0]]},
                                           {"p": 3}]},
                    "settings": {"l_min": 1, "l_max": 4}}
        a = write(tmp_path, pair_doc((1.0, 0.5)), "a.json")
        b = write(tmp_path, pair_doc((0.4, 0.0)), "b.json")
        code, out, err = run(["compare", a, b])
        assert code == 2
        assert err.startswith("config error: pair.boundary[2].u[2]: ")
        assert out == ""

    @pytest.mark.parametrize("flag, field", [(["--lmax", "4"], "--lmax"),
                                             ([], "settings.l_max")])
    def test_short_window_refused_before_locating(self, tmp_path, monkeypatch,
                                                  flag, field):
        # the fit window 2..4 holds 3 indices: refused naming the field
        # that set l_max, before either spectrum is located
        from quasispec import cli

        def locate(*args, **kwargs):
            raise AssertionError("located a spectrum")

        monkeypatch.setattr(cli, "locate_eigenvalues", locate)
        a = write(tmp_path, third_order_doc(sigma1=1.0, l_max=4), "a.json")
        code, out, err = run(flag + ["compare", a, a])
        assert code == 2
        assert err.startswith(f"config error: {field}: ")
        assert out == ""


class TestBirkhoffCommand:
    def test_zero_coefficients(self, tmp_path):
        code, out, err = run(["birkhoff", write(tmp_path, third_order_doc()),
                              "--rho", "30,5"])
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) == 0.0  # upsilon
        assert float(row[4]) < 1e-12  # max_E

    def test_requires_rho(self, tmp_path):
        code, out, err = run(["birkhoff", write(tmp_path, third_order_doc())])
        assert code == 2

    @pytest.mark.parametrize("token", ["a,b", "nan,0", "1,inf", "1e400,0", "30",
                                       "1,2,3"])
    def test_bad_rho_is_config_error(self, tmp_path, token):
        code, out, err = run(["birkhoff", write(tmp_path, third_order_doc()),
                              "--rho", token])
        assert code == 2
        assert err.startswith("config error: rho: ")


class TestReadme:
    """The README's CLI section describes the CLI as it is."""

    def cli_section(self):
        text = README.read_text(encoding="utf-8")
        return text[text.index("## CLI"):]

    def test_global_flags_line(self):
        listed = re.search(r"Global flags `([^`]*)`", self.cli_section()).group(1)
        options = [opt for action in _build_parser()._actions
                   for opt in action.option_strings if opt not in ("-h", "--help")]
        assert listed.split() == options

    def test_example_runs_every_command(self, tmp_path):
        section = self.cli_section()
        example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        for name in ("prob.json", "a.json", "b.json"):
            write(tmp_path, example, name)
        block = re.search(r"```\n(quasispec .*?)```", section, re.S).group(1)
        lines = [line.split("#")[0].split() for line in block.splitlines()]
        commands = next(action.choices for action in _build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert [argv[1] for argv in lines] == list(commands)
        for argv in lines:
            # --lmax caps the located indices so the walk stays fast; compare
            # fits its pair over l = 2..5, the fewest it accepts
            argv = ["--lmax", "5"] + [str(tmp_path / a) if a.endswith(".json")
                                      else a for a in argv[1:]]
            code, out, err = run(argv)
            assert (code, err) == (0, ""), argv
            assert out


def fuzz_base_doc():
    doc = third_order_doc(sigma1=1.0)
    doc["coefficients"][0] = {"type": "piecewise_poly", "breakpoints": [0.0, 0.4, 1.0],
                              "coeffs": [[[1.0, 0.0], [0.5, 0.0]], [[0.2, 0.0]]],
                              "class": "L2"}
    doc["boundary"]["right"][1]["u"] = [[0.5, 0.0]]
    doc["weight_form"] = {"p0": 2, "u0": [[0.0, 1.0]]}
    doc["settings"].update(kappa=None)
    return doc


def json_paths(node, prefix=()):
    """Every key/index path below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


# integers stay small: settings.l_max sets how many rows a command prints
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-100, 100),
                         st.floats(), st.just(1e308), st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(list(json_paths(fuzz_base_doc()))),
       drop=st.booleans(), value=JSON_VALUES)
def test_config_fuzz_exits_typed(tmp_path_factory, path, drop, value):
    doc = copy.deepcopy(fuzz_base_doc())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    conf = tmp_path_factory.getbasetemp() / "fuzz.json"
    conf.write_text(json.dumps(doc))
    for argv in (["asymptotics", str(conf)], ["matrix", str(conf), "--x", "0.5"]):
        code, _, _ = run(argv)
        assert code in (0, 2, 3)
