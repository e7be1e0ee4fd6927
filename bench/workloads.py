"""Seeded workload generator for the quasispec benchmark.

Each workload is one CLI command on one problem drawn from the seed; the
program under test only ever sees the JSON config written here.

    python3 bench/workloads.py --seed 7 --out DIR

writes DIR/<workload>.json for every workload.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# largest relative oracle error of a sampled weight number that counts as
# correct (only weights-n3 prints weight numbers)
BETA_GATE = 1e-8


def _c(x):
    return [float(x), 0.0]


def _strip_n4(rng):
    """n = 4, i = (0,0,0), every sigma_nu piecewise constant with one
    shared jump in (0.3, 0.7); boundary forms of acceptance criterion 6."""
    jump = rng.uniform(0.3, 0.7)
    coeffs = [{"type": "piecewise_poly", "breakpoints": [0.0, jump, 1.0],
               "coeffs": [[_c(rng.uniform(-1, 1))], [_c(rng.uniform(-1, 1))]],
               "class": "L2"} for _ in range(3)]
    return {"order": {"n": 4}, "indices": {"i": [0, 0, 0]},
            "coefficients": coeffs,
            "boundary": {"r": 1, "left": [{"p": 1}],
                         "right": [{"p": 0}, {"p": 2}, {"p": 3}]}}


def _weights_n3(rng):
    """n = 3, i = (1,0), constant sigma_0 ~ U(-1,1), sigma_1 ~ U(0.5,1.5)."""
    return {"order": {"n": 3}, "indices": {"i": [1, 0]},
            "coefficients": [{"type": "constant", "value": _c(rng.uniform(-1, 1))},
                             {"type": "constant", "value": _c(rng.uniform(0.5, 1.5))}],
            "boundary": {"r": 1, "left": [{"p": 0}],
                         "right": [{"p": 0}, {"p": 1}]},
            "weight_form": {"p0": 1}}


def _lowdisk_poly3(rng):
    """n = 3, i = (1,0), sigma_0 = 0, sigma_1 a quadratic on one piece."""
    quad = [_c(rng.uniform(-1, 1)) for _ in range(3)]
    return {"order": {"n": 3}, "indices": {"i": [1, 0]},
            "coefficients": [{"type": "zero"},
                             {"type": "piecewise_poly", "breakpoints": [0.0, 1.0],
                              "coeffs": [quad], "class": "L2"}],
            "boundary": {"r": 1, "left": [{"p": 0}],
                         "right": [{"p": 0}, {"p": 1}]}}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # quasispec CLI subcommand
    l_max: int            # indices 1..l_max are requested
    oracle_sample: Callable[[random.Random], list]
    make: Callable[[random.Random], dict]
    why: str
    # largest relative oracle error of a sampled rho that counts as
    # correct; 1e-9 is the accuracy budget downstream fits need
    rho_gate: float = 1e-9


def _spread_sample(*ranges):
    """One index drawn from each inclusive range, so every sample covers
    low and high |rho| (the direct and the factored determinant route)."""
    return lambda rng: [rng.randint(a, b) for a, b in ranges]


WORKLOADS = {w.name: w for w in (
    Workload("strip-n4", "spectrum", 32,
             _spread_sample((1, 3), (4, 12), (13, 24), (25, 32)), _strip_n4,
             "jump coefficients, l to 32: the Birkhoff factored solve does "
             "~95% of the work and its panel count grows with |rho|",
             # jumps carry a known ~1e-6 drift on the factored route; it is
             # recorded as oracle.rho_err_max, not failed on
             rho_gate=1e-4),
    Workload("weights-n3", "weights", 24,
             _spread_sample((1, 4), (5, 14), (15, 24)), _weights_n3,
             "weight numbers: residue circles and bullet rows reach the "
             "factored solve through a second, cache-cold evaluator"),
    Workload("lowdisk-poly3", "spectrum", 10,
             lambda rng: [1, 2, 3], _lowdisk_poly3,
             "smooth polynomial coefficient: the low-disk sweep is direct "
             "Magnus integration (~96%); an FSS change must not move it"),
)}


def make_config(name, seed):
    """The config document of workload `name` for `seed` (deterministic)."""
    w = WORKLOADS[name]
    doc = w.make(random.Random(f"{name}/{seed}"))
    doc["settings"] = {"l_min": 1, "l_max": w.l_max}
    return doc


def oracle_indices(name, seed):
    """Seeded indices whose eigenvalues the oracle re-computes."""
    rng = random.Random(f"{name}/{seed}/oracle")
    return sorted(set(WORKLOADS[name].oracle_sample(rng)))


def write_configs(seed, out_dir, names=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names or WORKLOADS:
        paths[name] = out / f"{name}.json"
        paths[name].write_text(json.dumps(make_config(name, seed), indent=1,
                                          sort_keys=True) + "\n")
    return paths


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    for path in write_configs(args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
