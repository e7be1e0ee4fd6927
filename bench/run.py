"""quasispec benchmark: one seeded workload, timed, traced and checked.

    python3 bench/run.py --workload strip-n4 --seed 1 --seconds 36 --trace 0

Run from anywhere; the sources are taken from ../src next to this
directory. One run

1. writes the workload's config for the seed (bench/workloads.py),
2. times set-up with bench/setup_probe.py: one fresh process that
   imports numpy and scipy, then forks children one after another, each
   importing quasispec and building the problem; it reports the median,
3. warms up in-process, then runs the CLI command on the config through
   `quasispec.cli.main` and repeats it while the next repetition still
   fits in --seconds; solve_s is the median wall time. At least one
   command is timed, so a command longer than half of --seconds is
   timed once and solve_s is that single time,
4. with --trace 1 runs the command once more under the outside-in
   tracer (bench/tracer.py) and reports per-layer figures instead,
5. checks outputs: exit code 0, every requested index present, a seeded
   sample of eigenvalues (and weight numbers) against the mpmath oracle
   (bench/oracle.py) within the workload's gates, and output bytes
   identical across all commands of the run. That last check needs a
   second command: a repetition, or the traced command.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. An operation is one requested
(problem, index) output; it fails if it is missing from the output or
the command exits non-zero (2, 3, or 1 with a traceback). BLAS is pinned
to one thread and the runner runs one process at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
PROBE_TIMEOUT_S = 60


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup_s(config):
    """Median set-up time of the probe's forked children (they inherit
    the pinned thread counts)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(config)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class _RootTap:
    """Keeps the last SpectrumResult the CLI located (the weights command
    prints only l and beta; the oracle is seeded with the roots)."""

    def __init__(self):
        self.result = None

    @contextlib.contextmanager
    def installed(self):
        from quasispec import cli

        original = cli.locate_eigenvalues

        def tapped(*args, **kwargs):
            self.result = original(*args, **kwargs)
            return self.result

        cli.locate_eigenvalues = tapped
        try:
            yield self
        finally:
            cli.locate_eigenvalues = original


def _command(name, config):
    """(exit code, stdout text, wall seconds) of one CLI command."""
    from quasispec import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main([name, str(config)], out=out, err=err)
    except Exception:  # a traceback is a failed command, not a failed run
        traceback.print_exc()
        code = 1
    elapsed = time.perf_counter() - start
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return code, out.getvalue(), elapsed


def _missing(code, text, l_max):
    """Requested indices 1..l_max absent from one command's output."""
    if code != 0:
        return l_max
    seen = {int(line.split(",", 1)[0]) for line in text.splitlines()[1:] if line}
    return sum(l not in seen for l in range(1, l_max + 1))


def _oracle_rows(result, text, picks):
    """Library values at the sampled indices: lam and rho from the located
    result, beta from the printed weights table when there is one."""
    betas = {}
    lines = text.splitlines()
    if lines and lines[0] == "l,re_beta,im_beta":
        for line in lines[1:]:
            l, re, im = line.split(",")
            betas[int(l)] = complex(float(re), float(im))
    rows = []
    for d in result.data:
        if d.l in picks:
            rows.append({"l": d.l, "lam": d.lam, "rho": d.rho,
                         "beta": betas.get(d.l)})
    return rows


def _oracle_check(workload, doc, rows):
    """(correct, rho_err_max, beta_err_max) of the sampled rows."""
    import oracle
    from workloads import BETA_GATE

    try:
        errors = oracle.check(doc, rows)
    except (ArithmeticError, ValueError) as exc:
        sys.stderr.write(f"oracle: {exc}\n")
        return False, 1.0, 1.0
    sys.stderr.write("oracle: " + ", ".join(
        f"l={l} rho_err={e:.3g}" + ("" if b is None else f" beta_err={b:.3g}")
        for l, (e, b) in sorted(errors.items())) + "\n")
    rho_err = max(e for e, _ in errors.values())
    beta_err = max((b for _, b in errors.values() if b is not None), default=0.0)
    correct = (len(errors) == len(rows) > 0
               and rho_err <= workload.rho_gate
               and beta_err <= BETA_GATE)
    return correct, rho_err, beta_err


def _run(args):
    from setup_probe import build
    from workloads import WORKLOADS, oracle_indices, write_configs

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        config = write_configs(args.seed, work, [args.workload])[args.workload]
        doc = json.loads(config.read_text())
        setup_s = _setup_s(config)

        sys.path.insert(0, str(SRC))
        build(doc)  # import and first-call costs stay out of solve_s
        tap = _RootTap()
        runs = []
        started = time.perf_counter()
        with tap.installed():
            while True:
                runs.append(_command(workload.command, config))
                spent = time.perf_counter() - started
                if runs[-1][0] != 0 or spent + runs[-1][2] > args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        solve_s = statistics.median(r[2] for r in runs)

        layer = None
        if args.trace:
            from tracer import Tracer, layer_metrics

            tracer = Tracer(run_id=f"{args.workload}/{args.seed}")
            with tracer.installed():
                runs.append(_command(workload.command, config))
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            tracer.write(spans_dir / f"{args.workload}-s{args.seed}.jsonl")
            layer = layer_metrics(tracer.spans, workload.l_max, solve_s,
                                  runs[-1][2])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = workload.l_max * len(runs)
    failed = sum(_missing(code, text, workload.l_max) for code, text, _ in runs)
    correct = failed == 0 and len({text for _, text, _ in runs}) == 1
    rho_err, beta_err = 1.0, 1.0   # no answer: everything wrong
    if correct:
        rows = _oracle_rows(tap.result, runs[0][1],
                            oracle_indices(args.workload, args.seed))
        correct, rho_err, beta_err = _oracle_check(workload, doc, rows)

    if layer is not None:
        layer["oracle.rho_err_max"] = rho_err
        layer["oracle.beta_err_max"] = beta_err
        values, declared = layer, "per_layer"
    else:
        values = {"setup_s": setup_s, "solve_s": solve_s,
                  "peak_rss_mb": peak_rss_mb}
        declared = "end_to_end"
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())[declared]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(values))} "
                           f"disagree with BENCHMARK.json {declared}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "quasispec" / "__init__.py").is_file():
        print(f"bench: quasispec sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
