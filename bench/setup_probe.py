"""Median set-up time over PROBES forked children, printed as
{"setup_s": median}.

    python3 bench/setup_probe.py CONFIG.json

Each probe is a child forked from this process, one after another. It
times importing quasispec and building the config's problem the way the
CLI does (config parsing, associated matrix, asymptotic model and the
conjugated system), up to but excluding the first determinant
evaluation. One scipy `expm` call closes the set-up, so lazy first-call
costs are charged here and not to the solve.

numpy and the scipy modules quasispec imports are loaded before the
clock starts: they take about 0.4 s, four times quasispec's own set-up,
and no change to quasispec can move them, so timing them would only
hide it. Loading them once here and forking keeps each probe cheap.
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse.linalg  # noqa: F401

PROBES = 25


def build(doc):
    """Build one problem up to its first determinant evaluation."""
    from quasispec import cli
    from quasispec.asymptotics import asymptotic_model
    from quasispec.regularization import conjugate_system

    problem = cli.problem_from_config(doc)
    settings = doc.get("settings", {})
    model = asymptotic_model(problem.n, problem.boundary.r,
                             problem.boundary.p_list,
                             kappa=settings.get("kappa"),
                             strip_R=settings.get("R"))
    conjugate_system(problem.F, model.frame)
    scipy.linalg.expm(np.eye(problem.n, dtype=complex))


def _probe(doc):
    """Set-up seconds of one forked child (quasispec not yet imported)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 1
        try:
            start = time.perf_counter()
            build(doc)
            os.write(write, repr(time.perf_counter() - start).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"set-up probe exited with status {status}")
    return float(text)


def main(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    probes = [_probe(doc) for _ in range(PROBES)]
    print(json.dumps({"setup_s": statistics.median(probes)}))


if __name__ == "__main__":
    main(sys.argv[1])
