"""The benchmark's two workloads: their set-up and fixed job lists.

A job is one closed-loop request: the benchmark starts it only after the
previous one finished.  Every job is one CLI command run in process through
`secants.cli.main` with `--out`.  It returns (ok, output bytes): ok is exit
code 0, and the bytes are digested and compared with the reference.

`cli.main` is looked up when a job runs, never imported into this file, so
the tracer's rebinding sees it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("large-prime", "fresh-plane")

# Small CLI jobs appended to fresh-plane, so that the hypergraph, search,
# exhaustive and character-walk layers are timed too.
LEGIT_SIZES = (60, 240)
SEARCH_ORDERS = (23, 31)
SEARCH_ITERS = 25
WALK_PRIME = 1999


@dataclass
class Job:
    key: str                               # identifies the job's inputs
    run: Callable[[], tuple]               # -> (ok, output bytes)


class Workload:
    """Inputs built from a seed, plus the job list of one pass."""

    def __init__(self, name: str, seed: int, workdir: str):
        import secants.cli  # noqa: F401  (the import cost belongs to set-up)

        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.jobs = _JOB_LISTS[name](self)

    def out_path(self, index: int) -> str:
        return os.path.join(self.workdir, f"job{index}.out")


# -- CLI workloads --------------------------------------------------------------

def _cli_jobs(wl: Workload, specs):
    return [_cli_job(wl.out_path(i), key, argv)
            for i, (key, argv) in enumerate(specs)]


def _cli_job(path: str, key: str, argv) -> Job:
    from secants import cli

    def run():
        if os.path.exists(path):
            os.remove(path)
        code = cli.main([*argv, "--out", path])
        with open(path, "rb") as fh:
            data = fh.read()
        return code == 0, data

    return Job(key=key, run=run)


def _large_prime(wl: Workload):
    s = str(wl.seed)
    specs = [
        ("sweep --primes 499 --construction random:density=1/2 --seeds 4",
         ["sweep", "--primes", "499", "--construction", "random:density=1/2",
          "--seeds", "4"]),
        (f"spectrum --q 997 --construction random:density=1/2 --seed {s}",
         ["spectrum", "--q", "997", "--construction", "random:density=1/2",
          "--seed", s]),
        ("spectrum --q 997 --construction ecregion",
         ["spectrum", "--q", "997", "--construction", "ecregion"]),
        ("projection --p 401 --alpha 1/4 --beta 1 --gamma 1",
         ["projection", "--p", "401", "--alpha", "1/4", "--beta", "1",
          "--gamma", "1"]),
        ("ec scan --p 401", ["ec", "scan", "--p", "401"]),
    ]
    return _cli_jobs(wl, specs)


def write_set_file(path: str, q: int, seed: int) -> None:
    """Seeded set-file for a prime q: each affine point with probability
    1/2, plus a seeded handful of points on the line at infinity."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs, ys = np.nonzero(rng.random((q, q)) < 0.5)
    slopes = sorted(set(rng.integers(0, q, size=8).tolist()))
    doc = {"q": q,
           "affine": [[int(x), int(y)] for x, y in zip(xs, ys)],
           "projective": [[1, d, 0] for d in slopes] + [[0, 1, 0]]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _fresh_plane(wl: Workload):
    from secants import legit

    s = str(wl.seed)
    set_file = os.path.join(wl.workdir, "set101.json")
    write_set_file(set_file, 101, wl.seed)
    specs = [
        (f"spectrum --q 149 --construction random:density=1/2 --seed {s}",
         ["spectrum", "--q", "149", "--construction", "random:density=1/2",
          "--seed", s]),
        ("spectrum --q 101 --construction parabola:a=1/4,b=1,g=1",
         ["spectrum", "--q", "101", "--construction", "parabola:a=1/4,b=1,g=1"]),
        (f"spectrum --q 101 --set-file F(seed={s})",
         ["spectrum", "--q", "101", "--set-file", set_file]),
        ("ec scan --p 101", ["ec", "scan", "--p", "101"]),
        (f"spectrum --q 49 --construction random:density=1/2 --seed {s}",
         ["spectrum", "--q", "49", "--construction", "random:density=1/2",
          "--seed", s]),
        (f"spectrum --q 32 --construction random:density=1/2 --seed {s}",
         ["spectrum", "--q", "32", "--construction", "random:density=1/2",
          "--seed", s]),
        ("plane --q 149 --dump lines", ["plane", "--q", "149", "--dump", "lines"]),
    ]
    for q in SEARCH_ORDERS:
        specs.append((f"search --q {q} --iters {SEARCH_ITERS} --restarts 1 --seed {s}",
                      ["search", "--q", str(q), "--iters", str(SEARCH_ITERS),
                       "--restarts", "1", "--seed", s]))
    specs.append(("exhaustive --q 3", ["exhaustive", "--q", "3"]))
    a = str(wl.seed % WALK_PRIME)
    specs.append((f"charwalk --p {WALK_PRIME} --a {a} --levels",
                  ["charwalk", "--p", str(WALK_PRIME), "--a", a, "--levels"]))
    for mode in legit.GENERATOR_MODES:
        for n in LEGIT_SIZES:
            # color and verify read the files that the jobs before them wrote
            graph = wl.out_path(len(specs))
            specs.append((f"legit gen --n {n} --mode {mode} --seed {s}",
                          ["legit", "gen", "--n", str(n), "--mode", mode, "--seed", s]))
            coloring = wl.out_path(len(specs))
            specs.append((f"legit color (n={n}, mode={mode})",
                          ["legit", "color", "--in", graph]))
            specs.append((f"legit verify (n={n}, mode={mode})",
                          ["legit", "verify", "--in", graph, "--coloring", coloring]))
    return _cli_jobs(wl, specs)


_JOB_LISTS = {
    "large-prime": _large_prime,
    "fresh-plane": _fresh_plane,
}
