"""Command-line interface: config parsing and deterministic CSV output.

A problem lives in a single JSON document with sections order/indices/
coefficients (or raw_matrix)/boundary/weight_form/settings. Complex
numbers are [re, im] pairs throughout. Commands emit fixed-schema CSV
on stdout (LF endings, '.' decimal separator); --report adds a human
summary on stderr. Exit codes: 0 success, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .asymptotics import (
    asymptotic_model,
    check_boundary_match,
    compute_d,
    pair_difference,
)
from .birkhoff import birkhoff_fss, upsilon, upsilon_d
from .errors import ConfigurationError, QuasispecError, ValidationError
from .piecewise import PiecewisePoly
from .regularization import (
    AssociatedMatrix,
    ExpressionSpec,
    build_associated_matrix,
    conjugate_system,
)
from .spectrum import (
    BoundaryForm,
    BoundarySpec,
    ProblemSpec,
    locate_eigenvalues,
    weight_numbers,
)

__all__ = ["main", "problem_from_config"]


# ---------------------------------------------------------------------------
# config document
# ---------------------------------------------------------------------------

_KINDS = {"object": (dict, "an object"), "list": (list, "a list"),
          "integer": (int, "an integer"), "number": ((int, float), "a finite number")}


def _check(value, field, kind):
    """value, when it is a JSON value of the given kind."""
    types, name = _KINDS[kind]
    if (isinstance(value, bool) or not isinstance(value, types)
            or (kind == "number" and not abs(value) <= sys.float_info.max)):
        raise ValidationError(field, f"must be {name}")
    return value


def _get(doc, key, field, kind, required=True):
    """doc[key] checked by _check; None when optional and absent."""
    if key not in doc:
        if required:
            raise ValidationError(field, "missing")
        return None
    return _check(doc[key], field, kind)


def _complex_from(pair, field):
    if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
        raise ValidationError(field, "complex values are [re, im] pairs")
    return complex(*(float(_check(v, field, "number")) for v in pair))


def _coefficient_from(doc, field):
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValidationError(field, "coefficient needs a 'type'")
    kind = doc["type"]
    tag = doc.get("class", "L2")
    if kind == "zero":
        return PiecewisePoly.zero()
    if kind == "constant":
        c = _complex_from(doc.get("value", [0.0, 0.0]), field + ".value")
        return PiecewisePoly([0.0, 1.0], [[c]], class_tag=tag, field=field)
    if kind == "piecewise_poly":
        bps = [_check(b, f"{field}.breakpoints[{j}]", "number") for j, b in
               enumerate(_get(doc, "breakpoints", field + ".breakpoints", "list"))]
        pieces = _get(doc, "coeffs", field + ".coeffs", "list")
        rows = [[_complex_from(c, f"{field}.coeffs[{i}]")
                 for c in _check(piece, f"{field}.coeffs[{i}]", "list")]
                for i, piece in enumerate(pieces)]
        return PiecewisePoly(bps, rows, class_tag=tag, field=field)
    raise ValidationError(field, f"unknown coefficient type {kind!r}")


def _expression_from(doc, n):
    indices = _get(_get(doc, "indices", "indices", "object"), "i", "indices.i",
                   "list")
    if len(indices) != n - 1:
        raise ValidationError("indices.i", f"expected {n - 1} entries")
    indices = tuple(_check(i, f"indices.i[{nu}]", "integer")
                    for nu, i in enumerate(indices))
    coeffs = _get(doc, "coefficients", "coefficients", "list")
    if len(coeffs) != n - 1:
        raise ValidationError("coefficients", f"expected {n - 1} entries")
    return ExpressionSpec(n, indices, tuple(
        _coefficient_from(c, f"coefficients[{i}]") for i, c in enumerate(coeffs)))


def _matrix_from(doc, n):
    raw = _get(doc, "raw_matrix", "raw_matrix", "object")
    entries = _get(raw, "entries", "raw_matrix.entries", "list")
    if len(entries) != n:
        raise ValidationError("raw_matrix.entries", f"need {n} rows")
    rows = []
    for a, row in enumerate(entries):
        if len(_check(row, f"raw_matrix.entries[{a}]", "list")) != n:
            raise ValidationError(f"raw_matrix.entries[{a}]", f"need {n} columns")
        rows.append(tuple(_coefficient_from(e, f"raw_matrix.entries[{a}][{b}]")
                          for b, e in enumerate(row)))
    return AssociatedMatrix(n, tuple(rows))


def _form_from(fd, side, field, p_key, u_key):
    """The BoundaryForm of one form document {p_key: order, u_key: [u_j]}."""
    _check(fd, field, "object")
    p = _get(fd, p_key, f"{field}.{p_key}", "integer")
    us = _get(fd, u_key, f"{field}.{u_key}", "list", required=False) or ()
    return BoundaryForm(side, p, tuple(
        _complex_from(u, f"{field}.{u_key}[{j}]") for j, u in enumerate(us)),
        field=f"{field}.{u_key}")


def _boundary_from(doc, n):
    b = _get(doc, "boundary", "boundary", "object")
    r = _get(b, "r", "boundary.r", "integer")
    forms = []
    for side, key in enumerate(("left", "right")):
        for s, fd in enumerate(_get(b, key, f"boundary.{key}", "list")):
            forms.append(_form_from(fd, side, f"boundary.{key}[{s}]", "p", "u"))
    if len(b["left"]) != r:
        raise ValidationError("boundary.left", "left form count must equal r")
    if len(forms) != n:
        raise ValidationError("boundary", f"need {n} forms total")
    weight = None
    if "weight_form" in doc:
        weight = _form_from(doc["weight_form"], 0, "weight_form", "p0", "u0")
    return BoundarySpec(r, tuple(forms), weight)


def problem_from_config(doc):
    """The ProblemSpec of a config document.

    Sections are read in the order order, operator (coefficients or
    raw_matrix), boundary, weight_form, and each field is type-checked
    once, where it is read; a violation raises ValidationError naming the
    field's path in the document. settings are read by _settings_from.
    """
    _check(doc, "config", "object")
    n = _get(_get(doc, "order", "order", "object"), "n", "order.n", "integer")
    if n < 2:
        raise ValidationError("order.n", "order must be an integer >= 2")
    if ("coefficients" in doc) == ("raw_matrix" in doc):
        raise ValidationError(
            "coefficients", "exactly one of coefficients / raw_matrix required")
    if "coefficients" in doc:
        expr, matrix = _expression_from(doc, n), None
    else:
        expr, matrix = None, _matrix_from(doc, n)
    return ProblemSpec(boundary=_boundary_from(doc, n), expression=expr,
                       matrix=matrix)


def _settings_from(doc, args):
    """(l_min, l_max, kappa) from the config's settings, flags overriding.

    kappa may be null (the model picks its sector); other keys are ignored.
    """
    s = _get(doc, "settings", "settings", "object", required=False) or {}
    for key in ("l_min", "l_max"):
        _get(s, key, f"settings.{key}", "integer", required=False)
    if s.get("kappa") is not None:
        _check(s["kappa"], "settings.kappa", "integer")
    return (s.get("l_min", 1) if args.lmin is None else args.lmin,
            s.get("l_max", 10) if args.lmax is None else args.lmax,
            s.get("kappa") if args.kappa is None else args.kappa)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _fmt(x):
    return f"{float(x):.17g}"


def _emit(lines, out):
    out.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_matrix(problem, settings, args, out, err):
    x = args.x
    if not 0.0 <= x <= 1.0:
        raise ValidationError("x", "evaluation point must lie in [0, 1]")
    F = problem.F.evaluate(np.array([x]))[0]
    lines = []
    for row in F:
        cells = []
        for v in row:
            cells.append(f"{v.real:.12g}{v.imag:+.12g}j"
                         if v.imag != 0 else f"{v.real:.12g}")
        lines.append("\t".join(cells))
    _emit(lines, out)
    if args.report:
        err.write(f"# F({x:g}) for order n={problem.n}\n")
    return 0


def _locate(problem, settings):
    l_min, l_max, kappa = settings
    return locate_eigenvalues(problem, l_max=l_max, l_min=l_min, kappa=kappa)


def cmd_spectrum(problem, settings, args, out, err):
    res = _locate(problem, settings)
    lines = ["l,re_lambda,im_lambda,re_rho,im_rho,re_eps,im_eps,multiplicity"]
    for d in res.data:
        lines.append(",".join([
            str(d.l), _fmt(d.lam.real), _fmt(d.lam.imag),
            _fmt(d.rho.real), _fmt(d.rho.imag),
            _fmt(d.eps.real), _fmt(d.eps.imag), str(d.multiplicity)]))
    _emit(lines, out)
    if args.report:
        err.write(f"# {len(res.data)} eigenvalues, chi_cal="
                  f"{res.chi_cal:.6g}, low-disk count {res.n_low}\n")
    return 0


def cmd_weights(problem, settings, args, out, err):
    res = weight_numbers(_locate(problem, settings))
    lines = ["l,re_beta,im_beta"]
    for d in res.data:
        if d.beta is None:
            continue
        lines.append(",".join([str(d.l), _fmt(d.beta.real), _fmt(d.beta.imag)]))
    _emit(lines, out)
    if args.report:
        err.write(f"# weight numbers for {len(res.data)} eigenvalues\n")
    return 0


def cmd_asymptotics(problem, settings, args, out, err):
    l_min, l_max, kappa = settings
    model = asymptotic_model(problem.n, problem.boundary.r,
                             problem.boundary.p_list, kappa=kappa)
    lines = ["name,re,im"]
    for name, v in (("c1", model.c1), ("c2", model.c2), ("chi", model.chi),
                    ("growth", complex(model.growth)),
                    ("sign", complex(model.sign))):
        lines.append(f"{name},{_fmt(v.real)},{_fmt(v.imag)}")
    lines.append("")
    lines.append("l,re_rho0,im_rho0,re_lambda0,im_lambda0")
    for l in range(l_min, l_max + 1):
        r0 = model.prediction(l)
        lam0 = model.lambda_prediction(l)
        lines.append(",".join([str(l), _fmt(r0.real), _fmt(r0.imag),
                               _fmt(lam0.real), _fmt(lam0.imag)]))
    _emit(lines, out)
    if args.report:
        err.write(f"# chi={model.chi:.9g} growth={model.growth:.9g}\n")
    return 0


def _infer_nu0(ea: ExpressionSpec, eb: ExpressionSpec):
    """Smallest nu0 with sigma agreement above it; n-1 if sigma_{n-2}
    itself differs, 1 when everything differs below nu = 1."""
    n = ea.n
    top = 0
    for nu in range(n - 1):
        if not ea.coefficients[nu].equals(eb.coefficients[nu]):
            top = nu + 1
    return max(top, 1)


def cmd_compare(pa, settings, pb, _, args, out, err):
    # b's settings are checked like a's, but a's are the ones used
    l_min, l_max, kappa = settings
    if pa.expression is None or pb.expression is None:
        raise ConfigurationError("compare requires expression-mode configs")
    nu0 = _infer_nu0(pa.expression, pb.expression)
    if nu0 > pa.n - 2:
        raise ValidationError("coefficients",
                              f"pair differs at nu = {nu0 - 1} >= nu0 bound "
                              f"{pa.n - 2}; no valid decay order")
    d, N_d, N_d0 = compute_d(pa.expression, pb.expression, nu0)
    check_boundary_match([(f.p, f.u) for f in pa.boundary.forms],
                         [(f.p, f.u) for f in pb.boundary.forms], d)
    window = (max(l_min, 2), l_max)
    if window[1] - window[0] + 1 < 4:
        raise ValidationError(
            "--lmax" if args.lmax is not None else "settings.l_max",
            f"the pair difference fits indices {window[0]}..{window[1]}; "
            "it needs at least 4")
    ra = locate_eigenvalues(pa, l_max=l_max, l_min=l_min, kappa=kappa)
    rb = locate_eigenvalues(pb, l_max=l_max, l_min=l_min, kappa=kappa)
    pc = pair_difference(ra.data, rb.data, d, l_range=window, N_d=N_d,
                         N_d0=N_d0)
    lines = ["name,value"]
    lines.append(f"d,{d}")
    lines.append("N_d," + ";".join(str(v) for v in N_d))
    lines.append("N_d0," + ";".join(str(v) for v in N_d0))
    lines.append(f"re_c_hat,{_fmt(pc.c_hat.real)}")
    lines.append(f"im_c_hat,{_fmt(pc.c_hat.imag)}")
    lines.append(f"slope_fit,{_fmt(pc.slope_fit)}")
    lines.append("")
    lines.append("l,re_rho_hat,im_rho_hat")
    for l, rh in zip(pc.ls, pc.rho_hat):
        lines.append(",".join([str(int(l)), _fmt(rh.real), _fmt(rh.imag)]))
    _emit(lines, out)
    if args.report:
        err.write(f"# d={d} slope={pc.slope_fit:.4f} c_hat={pc.c_hat:.6g}\n")
    return 0


def cmd_birkhoff(problem, settings, args, out, err):
    kappa = settings[2]
    model = asymptotic_model(problem.n, problem.boundary.r,
                             problem.boundary.p_list, kappa=kappa)
    system = conjugate_system(problem.F, model.frame)
    rhos = []
    for tok in args.rho:
        try:
            real, imag = (float(part) for part in tok.split(","))
        except ValueError:
            raise ValidationError("rho", f"expected re,im numbers, got {tok!r}") from None
        if not (np.isfinite(real) and np.isfinite(imag)):
            raise ValidationError("rho", f"must be finite, got {tok!r}")
        rhos.append(complex(real, imag))
    if not rhos:
        raise ValidationError("rho", "at least one rho value required")
    # reference decay order against the zero-coefficient system
    expr = problem.expression
    levels = [] if expr is None else [
        nu + i for nu, (i, sig) in enumerate(zip(expr.indices, expr.coefficients))
        if not sig.is_zero()]
    d_eff = max(problem.n - 1 - max(levels), 1) if levels else 1
    Ad = [[system.table.entry((d_eff, j, k)) for k in range(problem.n)]
          for j in range(problem.n)]
    lines = ["re_rho,im_rho,upsilon,upsilon_d,max_E,residual"]
    for rho in rhos:
        sol = birkhoff_fss(system, rho)
        ups = upsilon(system, rho)
        upsd = upsilon_d(Ad, rho, model.frame)
        lines.append(",".join([
            _fmt(rho.real), _fmt(rho.imag), _fmt(ups), _fmt(upsd),
            _fmt(sol.max_E()), _fmt(sol.residual())]))
    _emit(lines, out)
    if args.report:
        err.write(f"# {len(rhos)} rho points, d_eff={d_eff}\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="quasispec",
        description="Spectral data of higher-order BVPs with "
                    "distribution coefficients")
    ap.add_argument("--lmin", type=int, default=None)
    ap.add_argument("--lmax", type=int, default=None)
    ap.add_argument("--kappa", type=int, default=None)
    ap.add_argument("--report", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="print F(x)")
    p.add_argument("config")
    p.add_argument("--x", type=float, default=0.5)

    for name in ("spectrum", "weights", "asymptotics"):
        p = sub.add_parser(name)
        p.add_argument("config")

    p = sub.add_parser("compare")
    p.add_argument("config_a")
    p.add_argument("config_b")

    p = sub.add_parser("birkhoff")
    p.add_argument("config")
    p.add_argument("--rho", action="append", default=[],
                   help="re,im (repeatable)")
    return ap


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError("config", f"cannot open {path}") from exc
    # ValueError covers malformed JSON and bytes that are not UTF-8;
    # nesting past the parser's recursion limit raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise ValidationError("config", f"invalid JSON: {exc}") from exc


# command -> (handler, the arguments that name its config files); a
# handler takes each config's problem and settings, then args, out, err
_COMMANDS = {
    "matrix": (cmd_matrix, ("config",)),
    "spectrum": (cmd_spectrum, ("config",)),
    "weights": (cmd_weights, ("config",)),
    "asymptotics": (cmd_asymptotics, ("config",)),
    "compare": (cmd_compare, ("config_a", "config_b")),
    "birkhoff": (cmd_birkhoff, ("config",)),
}


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    ap = _build_parser()
    args = ap.parse_args(argv)
    handler, paths = _COMMANDS[args.command]
    try:
        docs = [_load(getattr(args, p)) for p in paths]
        # each config's problem, then its settings, one document after the
        # other: which error wins follows that order
        parsed = []
        for doc in docs:
            parsed += [problem_from_config(doc), _settings_from(doc, args)]
        return handler(*parsed, args, out, err)
    except (ValidationError, ConfigurationError) as exc:
        err.write(f"config error: {exc}\n")
        return 2
    except QuasispecError as exc:
        err.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
