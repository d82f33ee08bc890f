"""Closed-loop benchmark of the secants library: one process, one client,
one thread.

    python3 perfbench/run.py --workload large-prime --seed 0 --seconds 50 --trace 0

Run from the repository root.  The benchmark builds its inputs from the
seed, runs whole passes over the workload's fixed job list until the time
is used, checks every job's output, prints a readable report and, as its
last line, one JSON object {correct, attempted, failed, metrics}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates untraced and traced passes and reports per-layer metrics from
the traced ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0          # reference.json is recorded at this seed
SETUP_REPEATS = 9         # fresh processes timed for setup_s
SETUP_TIMEOUT_S = 150
P90_MIN_ABOVE = 10        # samples beyond p90 needed to report it
DIGEST_HEX = 12           # hex digits kept of each output's sha256

# Counts a traced pass must reproduce exactly.
REPEAT_COUNTS = ("plane.incidence.builds", "plane.incidence.bytes", "spectrum.calls",
                 "construct.points", "harness.search.flips", "field.tables.hits",
                 "field.tables.calls", "legit.instances", "cli.out_bytes")

# ROADMAP item 1 baseline table: a reference, not a gate.
ROADMAP_BASELINE = {
    "incidence build q=101": 1.5,
    "incidence build q=149": 3.5,
    "affine kernel p=997 (uncached spectrum)": 4.1,
    "spectrum --q 149 (job)": 6.0,
    "spectrum --q 997 (job)": 5.9,
    "ec scan --p 101 (job)": 2.2,
}


def die(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (times setup_s)")
    parser.add_argument("--record", action="store_true",
                        help="write this run's output digests to reference.json")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one reference digest to show the gate fails")
    return parser.parse_args(argv)


# -- set-up ---------------------------------------------------------------------

def make_workload(name: str, seed: int):
    from jobs import Workload
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return Workload(name, seed, str(workdir)), workdir


def time_setup(args, repeats: int) -> list:
    """Wall time of fresh processes that import the library, build the
    workload's inputs and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            die(f"set-up process failed: {proc.stderr.decode(errors='replace')}")
    return times


def cache_clearers():
    """cache_clear of every public lru-cached function in secants.*, so each
    CLI job starts with cold caches, as a separate process would."""
    from tracer import package_modules
    seen, out = set(), []
    for mod in package_modules():
        for name, value in vars(mod).items():
            clear = getattr(value, "cache_clear", None)
            if not name.startswith("_") and callable(clear) and id(value) not in seen:
                seen.add(id(value))
                out.append(clear)
    return out


# -- passes ---------------------------------------------------------------------

def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_HEX]


def run_pass(wl, clearers, tracer=None) -> dict:
    """One closed-loop pass over the job list."""
    times, digests, oks, out_bytes = [], [], [], 0
    first_span = len(tracer.spans) if tracer else 0
    t_pass = time.perf_counter()
    for index, job in enumerate(wl.jobs):
        for clear in clearers:
            clear()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ok, data = job.run()
            else:
                tracer.job = index
                (ok, data), _ = tracer.span("bench.job", job.run)
        except Exception as exc:          # a job failure is data, not a crash
            ok, data = False, repr(exc).encode()
        times.append(time.perf_counter() - t0)
        oks.append(bool(ok))
        digests.append(digest(data))
        out_bytes += len(data)
    wall = time.perf_counter() - t_pass
    return {"traced": tracer is not None, "wall": wall, "times": times,
            "digests": digests, "oks": oks, "out_bytes": out_bytes,
            "spans": (first_span, len(tracer.spans)) if tracer else None}


def run_passes(args, wl, clearers, tracer) -> list:
    """Passes while the median pass so far still fits in what is left of
    --seconds.  An untraced run needs two passes.  A traced run repeats
    untraced, traced, traced and needs one of each kind plus a second traced
    pass, so that traced counts can be compared."""
    passes = []
    t_start = time.perf_counter()
    min_passes = 2 if tracer is None else 3
    while len(passes) < min_passes or time.perf_counter() - t_start \
            + statistics.median(p["wall"] for p in passes) <= args.seconds:
        if tracer is not None and len(passes) % 3:
            tracer.install()
            try:
                passes.append(run_pass(wl, clearers, tracer))
            finally:
                tracer.uninstall()
        else:
            passes.append(run_pass(wl, clearers))
    return passes


# -- correctness ------------------------------------------------------------------

def keys_digest(wl) -> str:
    return hashlib.sha256("\n".join(job.key for job in wl.jobs).encode()).hexdigest()[:16]


def load_reference(args, wl) -> list:
    """Reference digests in job order, or [] when none was recorded for this
    seed and job list (other seeds rely on exit codes and exact checks)."""
    if not REFERENCE.exists():
        return []
    doc = json.loads(REFERENCE.read_text())
    entry = doc.get("workloads", {}).get(args.workload)
    if doc.get("seed") != args.seed or not entry \
            or entry.get("keys_sha256") != keys_digest(wl):
        return []
    ref = list(entry["digests"])
    if args.corrupt_reference:             # the gate must catch this
        ref[0] = "0" * DIGEST_HEX if ref[0] != "0" * DIGEST_HEX else "f" * DIGEST_HEX
    return ref


def check_outputs(wl, passes, reference) -> list:
    """Failures as (pass, job key, reason): a failed check or exit code, a
    digest that differs from the reference recorded for this seed, or
    output bytes that differ between passes (traced or not)."""
    failures = []
    first = passes[0]["digests"]
    for n, p in enumerate(passes):
        for i, job in enumerate(wl.jobs):
            if not p["oks"][i]:
                reason = "check failed or nonzero exit"
            elif reference and reference[i] != p["digests"][i]:
                reason = "digest differs from reference"
            elif p["digests"][i] != first[i]:
                reason = "output differs from pass 0"
            else:
                continue
            failures.append((n, job.key, reason))
    return failures


# -- metrics ------------------------------------------------------------------------

def percentile(sorted_values, frac):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(frac * len(sorted_values)) - 1)]


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    child = defaultdict(float)
    for rec in spans:
        if rec[4] is not None:
            child[rec[4]] += rec[3] - rec[2]
    return {rec[0]: rec[3] - rec[2] - child[rec[0]] for rec in spans}


def end_to_end(passes, setup_times) -> tuple:
    times = sorted(t for p in passes for t in p["times"])
    p50 = statistics.median(times)
    p90 = percentile(times, 0.9)
    above = sum(1 for t in times if t > p90)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Job percentiles are reported, not gated: over a mix of job sizes the
    # median falls between clusters and jumps with small speed changes.
    samples = {
        "setup_s": len(setup_times), "wall_s": len(passes),
        "job_s.p50": {"value": p50, "samples": len(times)},
        "job_s.p90": {"value": p90 if above >= P90_MIN_ABOVE else None,
                      "samples": len(times), "above": above,
                      "resolved": above >= P90_MIN_ABOVE},
    }
    return metrics, samples


def layer_metrics(tracer, p) -> dict:
    """Per-layer figures of one traced pass (seconds are self times unless
    the name says otherwise)."""
    from tracer import LAYERS, layer_of
    lo, hi = p["spans"]
    spans = tracer.spans[lo:hi]
    own = self_times(spans)
    names = {rec[0]: rec[1] for rec in spans}
    s = defaultdict(float)       # self seconds per span name / classification
    c = defaultdict(int)         # counts
    for sid, name, start, end, parent, _, attrs in spans:
        self_t = own[sid]
        layer = layer_of(name)
        s[f"{layer}.self_s"] += self_t
        s[name] += self_t
        c[name] += 1
        if attrs.get("error"):
            c[f"{layer}.errors"] += 1
        if name == "field.tables":
            c["field.tables.hits"] += bool(attrs.get("hit"))
        elif name == "plane.incidence" and attrs.get("build"):
            kind = "ext" if attrs.get("ext") else "prime"
            s[f"plane.incidence.{kind}.s"] += end - start
            c["plane.incidence.builds"] += 1
            c["plane.incidence.bytes"] += attrs.get("bytes", 0)
        elif name == "construct":
            if parent is None or layer_of(names.get(parent, "")) != "construct":
                c["construct.points"] += attrs.get("points", 0)
        elif name == "spectrum":
            kind = "cached" if attrs.get("cached") else "uncached"
            s[f"spectrum.{kind}.s"] += self_t
            c[f"spectrum.{kind}.lines"] += attrs.get("lines", 0)
        elif name == "harness.search":
            s["harness.search.incl_s"] += end - start
            c["harness.search.flips"] += attrs.get("flips", 0)
        elif name == "harness.exhaustive":
            s["harness.exhaustive.incl_s"] += end - start

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    legit_s = s["legit.generate"] + s["legit.color"] + s["legit.verify"]
    total_self = sum(s[f"{layer}.self_s"] for layer in LAYERS + ("bench",))
    m = {
        "field.make_field.s": s["field.make_field"],
        "field.tables.s": s["field.tables"],
        "field.tables.calls": c["field.tables"],
        "field.tables.hits": c["field.tables.hits"],
        "field.tables.hit_ratio": rate(c["field.tables.hits"], c["field.tables"]),
        "plane.incidence.prime.s": s["plane.incidence.prime.s"],
        "plane.incidence.ext.s": s["plane.incidence.ext.s"],
        "plane.incidence.builds": c["plane.incidence.builds"],
        "plane.incidence.bytes": c["plane.incidence.bytes"],
        "plane.frame.s": s["plane.frame"],
        "plane.triples.s": s["plane.triples"],
        "construct.s": s["construct.self_s"],
        "construct.points": c["construct.points"],
        "spectrum.uncached.s": s["spectrum.uncached.s"],
        "spectrum.uncached.lines_per_s": rate(c["spectrum.uncached.lines"],
                                              s["spectrum.uncached.s"]),
        "spectrum.cached.s": s["spectrum.cached.s"],
        "spectrum.cached.lines_per_s": rate(c["spectrum.cached.lines"],
                                            s["spectrum.cached.s"]),
        "spectrum.identities.s": s["spectrum.identities"],
        "spectrum.calls": c["spectrum"],
        "charwalk.laws.s": s["charwalk.laws"],
        "charwalk.walk.s": s["charwalk.walk"],
        "ecurve.scan.self_s": s["ecurve.scan"],
        "legit.generate.s": s["legit.generate"],
        "legit.color.s": s["legit.color"],
        "legit.verify.s": s["legit.verify"],
        "legit.instances": c["legit.generate"],
        "legit.instances_per_s": rate(c["legit.generate"], legit_s),
        "harness.sweep.self_s": s["harness.sweep"],
        "harness.search.s": s["harness.search.incl_s"],
        "harness.search.flips": c["harness.search.flips"],
        "harness.search.flips_per_s": rate(c["harness.search.flips"],
                                           s["harness.search.incl_s"]),
        "harness.exhaustive.s": s["harness.exhaustive.incl_s"],
        "cli.self_s": s["cli.self_s"],
        "cli.out_bytes": p["out_bytes"],
        "bench.self_s": s["bench.self_s"],
        "trace.spans": len(spans),
        "trace.self_cover": total_self / p["wall"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s[f"{layer}.self_s"]
        m[f"{layer}.errors"] = c[f"{layer}.errors"]
    return m


PER_LAYER_UNITS = {"calls": "count", "hits": "count", "builds": "count",
                   "bytes": "bytes", "points": "count", "flips": "count",
                   "instances": "count", "errors": "count", "spans": "count",
                   "out_bytes": "bytes", "hit_ratio": "ratio",
                   "self_cover": "ratio", "overhead": "ratio",
                   "lines_per_s": "1/s", "flips_per_s": "1/s",
                   "instances_per_s": "1/s"}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return PER_LAYER_UNITS.get(last, "s")


def per_layer(tracer, passes) -> tuple:
    """Medians over the traced passes, plus the count-repeat problems."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = [layer_metrics(tracer, p) for p in traced]
    problems = []
    for name in REPEAT_COUNTS:
        values = {m[name] for m in per_pass}
        if len(values) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(values)}")
    # counts repeat exactly, so they keep their integer value
    metrics = {name: per_pass[0][name] if isinstance(per_pass[0][name], int)
               else statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    traced_wall = statistics.median(p["wall"] for p in traced)
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1
    return metrics, problems


def compare_previous_counts(path, metrics, jobs_digest) -> list:
    """Counts must also repeat across traced runs of the same code, seed
    and job list."""
    try:
        prev = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    prov = prev.get("provenance", {})
    if prov.get("src_sha256") != source_digest() or prov.get("jobs_sha256") != jobs_digest:
        return []
    return [f"{name} differs from the previous traced run: "
            f"{prev['metrics'].get(name)} != {metrics[name]}"
            for name in REPEAT_COUNTS if prev["metrics"].get(name) != metrics[name]]


def reconcile(wl, passes, tracer) -> list:
    """Rows (label, measured seconds, ROADMAP seconds) for the baseline table."""
    rows = []
    untraced = [p for p in passes if not p["traced"]]
    for i, job in enumerate(wl.jobs):
        for label in ROADMAP_BASELINE:
            stem = label.removesuffix(" (job)")
            if label.endswith("(job)") and job.key.startswith(stem):
                rows.append((f"{job.key} (job)",
                             statistics.median(p["times"][i] for p in untraced),
                             ROADMAP_BASELINE[label]))
    if tracer is not None:
        found = defaultdict(list)
        for p in passes:
            if not p["traced"]:
                continue
            lo, hi = p["spans"]
            spans = tracer.spans[lo:hi]
            own = self_times(spans)
            for sid, name, start, end, _, _, attrs in spans:
                if name == "plane.incidence" and attrs.get("build") \
                        and attrs.get("q") in (101, 149):
                    found[f"incidence build q={attrs['q']}"].append(end - start)
                elif name == "spectrum" and attrs.get("q") == 997 \
                        and not attrs.get("cached"):
                    found["affine kernel p=997 (uncached spectrum)"].append(own[sid])
        for label, values in sorted(found.items()):
            rows.append((f"{label} (traced span)", statistics.median(values),
                         ROADMAP_BASELINE[label]))
    return rows


# -- provenance and output --------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "secants").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, wl, samples) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "jobs_sha256": keys_digest(wl),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 process, 1 client, 1 thread",
        "samples": samples,
    }


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "secants" / "__init__.py").is_file():
        die(f"library source not found under {SRC.name}/secants; run from a "
            "repository checkout")
    sys.path.insert(0, str(SRC))
    from jobs import WORKLOADS
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    if args.setup_only:
        _, workdir = make_workload(args.workload, args.seed)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    # set-up samples are split around the passes so that they see more of
    # the machine's load phases than one burst would
    setup_times = []
    if args.trace == 0:
        setup_times += time_setup(args, (SETUP_REPEATS + 1) // 2)
    wl, workdir = make_workload(args.workload, args.seed)
    try:
        clearers = cache_clearers()
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        passes = run_passes(args, wl, clearers, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace == 0:
        setup_times += time_setup(args, SETUP_REPEATS // 2)

    reference = load_reference(args, wl)
    if args.corrupt_reference and not reference:
        die(f"no reference digests recorded for seed {args.seed}")
    failures = check_outputs(wl, passes, reference)
    attempted = sum(len(p["times"]) for p in passes)
    problems = []
    if args.trace:
        metrics, problems = per_layer(tracer, passes)
        samples = {"traced_passes": sum(p["traced"] for p in passes),
                   "untraced_passes": sum(not p["traced"] for p in passes),
                   "spans": len(tracer.spans), "skipped_names": tracer.skipped}
        units = {name: unit_of(name) for name in metrics}
        problems += compare_previous_counts(
            OUT_DIR / f"{args.workload}-seed{args.seed}-trace1.json", metrics,
            keys_digest(wl))
    else:
        e2e, samples = end_to_end(passes, setup_times)
        metrics = {name: v for name, (v, _) in e2e.items()}
        units = {name: u for name, (_, u) in e2e.items()}
    correct = not failures and not problems
    rows = reconcile(wl, passes, tracer)
    prov = provenance(args, wl, samples)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "provenance": prov, "metrics": metrics, "units": units,
        "failures": failures, "problems": problems,
        "reconciliation": rows,
        "pass_walls": [p["wall"] for p in passes],
    }, indent=2, sort_keys=True) + "\n")

    if args.record:
        if any(r != "digest differs from reference" for _, _, r in failures):
            die("refusing to record: jobs failed their own checks")
        doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        if doc.get("seed") != args.seed:
            doc = {"seed": args.seed, "workloads": {}}
        doc["src_sha256"] = prov["src_sha256"]
        doc["workloads"][args.workload] = {"keys_sha256": keys_digest(wl),
                                           "digests": passes[0]["digests"]}
        REFERENCE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name in sorted(metrics):
        print(f"{name} = {fmt(metrics[name])} {units[name]}")
    if not args.trace:
        p50, p90 = samples["job_s.p50"], samples["job_s.p90"]
        print(f"job_s.p50 = {fmt(p50['value'])} s ({p50['samples']} jobs)")
        print(f"job_s.p90 = {fmt(p90['value']) if p90['resolved'] else 'unresolved'} s"
              f" ({p90['above']} of {p90['samples']} jobs above it)")
    print(f"fail_frac = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} jobs)")
    for n, key, reason in failures[:20]:
        print(f"FAILED pass {n}: {key}: {reason}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    for label, measured, ref in rows:
        print(f"baseline {label}: {measured:.3f} s (ROADMAP table {ref} s)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
