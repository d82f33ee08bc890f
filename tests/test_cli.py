import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from secants import charwalk, cli, harness, spectrum
from secants.cli import CHECK_FAILED, INTERNAL_ERROR, OK, USAGE_ERROR, main


def run_cli(tmp_path, *argv, name="out.txt"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes()


def test_plane_dump(tmp_path):
    code, data = run_cli(tmp_path, "plane", "--q", "2", "--dump", "lines")
    assert code == OK
    lines = data.decode().strip().split("\n")
    assert lines[0] == "idx,x,y,z"
    assert len(lines) == 8
    assert lines[1] == "0,0,0,1"


def test_plane_dump_rejects_non_prime_power(tmp_path):
    assert main(["plane", "--q", "6"]) == USAGE_ERROR


def test_spectrum_json_schema(tmp_path):
    code, data = run_cli(tmp_path, "spectrum", "--q", "5",
                         "--construction", "ecregion")
    assert code == OK
    doc = json.loads(data)
    assert doc["q"] == 5 and doc["N"] == 31 and doc["set_size"] == 15
    assert {e["k"] for e in doc["histogram"]} == set(range(7))
    assert doc["checks"] == {"eq1": True, "eq2": True, "var": True}
    assert set(doc["bounds"]) == {"prop", "cor", "thm_lower"}
    assert doc["mode_count"] >= doc["bounds"]["cor"]


def test_spectrum_extension_plane_above_incidence_budget(tmp_path):
    code, data = run_cli(tmp_path, "spectrum", "--q", "512",
                         "--construction", "random:density=1/2", "--seed", "0")
    assert code == OK
    doc = json.loads(data)
    assert doc["q"] == 512 and doc["N"] == 512 * 512 + 512 + 1
    assert doc["checks"] == {"eq1": True, "eq2": True, "var": True}
    assert sum(e["count"] for e in doc["histogram"]) == doc["N"]


def test_spectrum_csv_and_set_file_round_trip(tmp_path):
    setfile = tmp_path / "set.json"
    code, _ = run_cli(tmp_path, "spectrum", "--q", "7",
                      "--construction", "random:density=1/2", "--seed", "3",
                      "--emit-set", str(setfile))
    assert code == OK
    code, data = run_cli(tmp_path, "spectrum", "--q", "7",
                         "--set-file", str(setfile), "--format", "csv",
                         name="hist.csv")
    assert code == OK
    rows = data.decode().strip().split("\n")
    assert rows[0] == "k,count"
    assert len(rows) == 1 + 9    # k = 0..q+1
    total = sum(int(r.split(",")[1]) for r in rows[1:])
    assert total == 57           # every line counted once


def test_spectrum_requires_a_source(tmp_path):
    assert main(["spectrum", "--q", "5"]) == USAGE_ERROR


def test_sweep_deterministic_across_threads(tmp_path):
    args = ("sweep", "--primes", "7,11", "--construction", "random:density=1/2",
            "--seeds", "3")
    _, a = run_cli(tmp_path, *args, "--threads", "1", name="a.csv")
    _, b = run_cli(tmp_path, *args, "--threads", "4", name="b.csv")
    _, c = run_cli(tmp_path, *args, "--threads", "1", name="c.csv")
    assert a == b == c
    assert a.decode().startswith("# schema=")


@pytest.mark.parametrize("check", ["identities", "cor"])
def test_sweep_exits_2_when_a_row_fails_one_check(tmp_path, monkeypatch, check):
    # the bound and the identities are theorems, so only a patched check fails
    if check == "cor":
        monkeypatch.setattr(harness, "cor_bound_ceiling", lambda q: q * q * q)
    else:
        real = spectrum.verify_counting_identities
        monkeypatch.setattr(spectrum, "verify_counting_identities",
                            lambda q, s, hist: {**real(q, s, hist), "var": False})
    code, data = run_cli(tmp_path, "sweep", "--primes", "7", "--construction",
                         "random:density=1/2", "--seeds", "1")
    assert code == CHECK_FAILED
    row = dict(zip(*csv.reader(data.decode().splitlines()[1:])))
    assert row["error"] == "" and (row["cor_ok"], row["var_ok"]) == \
        (("0", "1") if check == "cor" else ("1", "0"))


def test_spectrum_sweep_and_ec_scan_exit_2_on_one_failed_identity(tmp_path, monkeypatch):
    # all three commands read the checks of the one spectrum document
    commands = [("spectrum", "--q", "7", "--construction", "ecregion"),
                ("sweep", "--primes", "7", "--construction", "ecregion", "--seeds", "1"),
                ("ec", "scan", "--p", "7")]
    assert [run_cli(tmp_path, *argv)[0] for argv in commands] == [OK] * 3
    real = spectrum.verify_counting_identities
    monkeypatch.setattr(spectrum, "verify_counting_identities",
                        lambda q, s, hist: {**real(q, s, hist), "var": False})
    assert [run_cli(tmp_path, *argv)[0] for argv in commands] == [CHECK_FAILED] * 3
    doc = json.loads(run_cli(tmp_path, *commands[0])[1])
    assert doc["checks"] == {"eq1": True, "eq2": True, "var": False}


def test_exhaustive_and_search_commands(tmp_path):
    code, data = run_cli(tmp_path, "exhaustive", "--q", "2")
    assert code == OK
    doc = json.loads(data)
    assert doc["best_mode_count"] == 3 and len(doc["witness_points"]) <= 3
    assert main(["exhaustive", "--q", "5"]) == USAGE_ERROR
    code, data = run_cli(tmp_path, "search", "--q", "2", "--iters", "200",
                         "--restarts", "5", "--seed", "1")
    assert code == OK
    assert json.loads(data)["best_mode_count"] == 3


# sha256 of `search --out` bytes, recorded before the flip scoring was
# vectorized: the benchmark's two search jobs and the README example.
SEARCH_GOLDENS = [
    (("--q", "23", "--iters", "25", "--restarts", "1", "--seed", "0"),
     "71d44023476f3fe224c0fdea1b8ff96a2bd1a70f0fb7c1db7e0ee6ebc7696636"),
    (("--q", "31", "--iters", "25", "--restarts", "1", "--seed", "0"),
     "6eab95aae9bfcf6b5dadc5828783d2c838573d72b186c9d815ddb46d2753f158"),
    (("--q", "7", "--iters", "500", "--restarts", "10", "--seed", "3"),
     "d2dc352527e4a05274b22a430db692159603c06c57615d63fd5c32a0ffc2f7a8"),
]


@pytest.mark.parametrize("args, digest", SEARCH_GOLDENS)
def test_search_output_golden(tmp_path, args, digest):
    code, data = run_cli(tmp_path, "search", *args)
    assert code == OK
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of `legit gen --n 240 --seed 0 --mode M --out` and of `legit color`
# on that file, recorded before the generator and phase 2 became array
# steps: the benchmark's largest hypergraph jobs.
LEGIT_GOLDENS = [
    ("pairwise", "7458e862956a2565d22e2881f9120137a164826adb2c93cc9a11ab229f75d265",
     "8bc2caba14ef7f1654ed18eaf48c00c5d80c74b55a2d5dafb75aac30955c25fa"),
    ("sunflower", "c91ce95954b3e6d5937fa0d552dc7677c340bda5af26ce94b6d388e3249c32b2",
     "1bdc4211ea4bd659a17db173c37fe5f304b3308bba9d4755863fe7c385106257"),
    ("mixed", "ee97f1cae0a5b45e687be833d9b0239e927d6877b8782c31ba81ab03c427585b",
     "f0b7fac4121c840e35650da6a658a944d4d0883b7b9e203cefca3ea569c5402e"),
]


@pytest.mark.parametrize("mode, gen_digest, color_digest", LEGIT_GOLDENS)
def test_legit_output_golden(tmp_path, mode, gen_digest, color_digest):
    code, data = run_cli(tmp_path, "legit", "gen", "--n", "240", "--seed", "0",
                         "--mode", mode, name="h.json")
    assert code == OK
    assert hashlib.sha256(data).hexdigest() == gen_digest
    code, data = run_cli(tmp_path, "legit", "color", "--in", str(tmp_path / "h.json"),
                         name="c.json")
    assert code == OK
    assert hashlib.sha256(data).hexdigest() == color_digest


# sha256 of `plane --q Q --dump points|lines` (the same bytes, since points
# and lines share one indexing) and of the `spectrum --emit-set` file of
# `random:density=1/2 --seed 0`, recorded before the index/triple codec
# became one pair of array maps.
PLANE_DUMP_GOLDENS = [
    (2, "22622399e0217ed98edd7b2b3aa34d1d9e38ff3ae9ccff1bf18c5cbc0726c9ba"),
    (9, "615b92e4973bbc0655e36e71b912fe6e3371b21b07d53ea8fe7e5e3898d84a7f"),
    (49, "aef991fa0df1595db71731171ad07755a0e580fc2fea1a3e5df536ec596491f2"),
    (149, "7fc470dd03a7a56b931a1446a93082f9641691c6268392eee204995a76b1ac2a"),
]
EMIT_SET_GOLDENS = [
    (9, "131e3b1250d465ab14e1e8b00c96ff8a9e7dfa868af04c849cbbd714197c6a81"),
    (49, "70e71eb56e1f32da76c65f7a27966a408c84b7b8c1cdc67cf720eef4aca09c53"),
    (101, "fb1e11df34cd113c09178a4b5cf675cca5028b9f6dd5ffb58e49fe3c5680909c"),
]


@pytest.mark.parametrize("dump", ["points", "lines"])
@pytest.mark.parametrize("q, digest", PLANE_DUMP_GOLDENS)
def test_plane_dump_golden(tmp_path, q, digest, dump):
    code, data = run_cli(tmp_path, "plane", "--q", str(q), "--dump", dump)
    assert code == OK
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of `spectrum --out`, recorded before the affine chart moved onto
# the plane: random sets, the cubic-square region, and a set file with
# points on x = 0 and on the infinite line z = 0.
SPECTRUM_GOLDENS = [
    (("--q", "2", "--construction", "random:density=1/2", "--seed", "0"),
     "7c477eba84d53b0bfdc84dd0593f439d754ae448bbbbca8727d56023e0f5faa0"),
    (("--q", "4", "--construction", "random:density=1/2", "--seed", "0"),
     "f0a324b3e896c89c821709f8a4680a691641f450076f394a6c56d336279ccb52"),
    (("--q", "9", "--construction", "random:density=1/2", "--seed", "0"),
     "24660d0f4937cf9e988c12caa778f904526c68a94a6ba53561e5d43dabbc6468"),
    (("--q", "32", "--construction", "random:density=1/2", "--seed", "0"),
     "60e3f047ab1670b7ef82f4fa5753d047fd4d47bc007e5d0adfc86cc06d4e53d3"),
    (("--q", "49", "--construction", "random:density=1/2", "--seed", "0"),
     "b37b1aa21c4e2719eb6e670231fd89d5dbf2ca97286f7b91805689c4798bcafa"),
    (("--q", "256", "--construction", "random:density=1/2", "--seed", "0"),
     "12ea54993c40e6c1728c7cc0fabba4b3236499364c750d754a61c7a6e5c47414"),
    (("--q", "101", "--construction", "ecregion"),
     "515fa68c9c03176fa94acf8ab8193e178c586d22e981dd6eefd15d610ea50b76"),
    (("--q", "7", "--set-file", "SET7"),
     "a81540e851bc9df5881f77289c38b7455874430763a6dcc051e1bc0d83775e70"),
    # recorded while the parabola and family parameters were records whose
    # reduced coefficients, c and stack height went into the set's meta
    (("--q", "101", "--construction", "parabola:a=1/4,b=1,g=1"),
     "0a9248af743c08990fcdb59f031c9f8bc099b8cd4b68740b4e93b27e26871ef6"),
    (("--q", "101", "--construction", "family:c=1/3"),
     "7dbac70eb2fcff6e0ef7829aff1ec90452416a326be6a892f059bcee6a59f273"),
]
SET7 = {"q": 7, "affine": [[0, 0], [0, 3], [1, 2], [3, 4], [6, 6], [2, 5]],
        "projective": [[1, 0, 0], [1, 3, 0], [1, 6, 0], [0, 1, 0]]}


@pytest.mark.parametrize("args, digest", SPECTRUM_GOLDENS)
def test_spectrum_output_golden(tmp_path, args, digest):
    setfile = tmp_path / "set7.json"
    setfile.write_text(json.dumps(SET7))
    code, data = run_cli(tmp_path, "spectrum",
                         *[str(setfile) if a == "SET7" else a for a in args])
    assert code == OK
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of `--out` and the exit code of the projection, `ec scan`,
# `charwalk --levels`, sweep, `ec count` and `exhaustive` outputs, recorded
# while each still filled a report object or a record that was copied into
# the output field by field.
DOCUMENT_GOLDENS = [
    (("projection", "--p", "13", "--alpha", "2", "--beta", "3", "--gamma", "5"), OK,
     "92316c90c81331095c4ae698baa7513afc424de2d651a503644fbeb691a7378b"),
    (("projection", "--p", "401", "--alpha", "1/4", "--beta", "1", "--gamma", "1"), OK,
     "45c415d9140eea431eb073c03d1cb4881ff94cae90372518b4456e47ec0cb24a"),
    (("ec", "scan", "--p", "5"), OK,
     "b6954cc7451eee3f89b6c234212901cca0b7c68186f509680a76bc5bdcbb4f36"),
    (("ec", "scan", "--p", "101"), OK,
     "426215d2d99c7f201d4dfa9650d7bac29f9c03b51cbc10c26fcb4874dca81301"),
    (("charwalk", "--p", "7", "--levels"), OK,
     "b5f1cdac8e30f9bffc0cbbcaa14a4ebc42fec3cac0488262a8c222490e615f29"),
    (("charwalk", "--p", "1999", "--a", "5", "--levels"), OK,
     "3ec91fe7eb310a5614fbd7504d26476b9ea2ce9e1493fb510971be6c9f8fb102"),
    (("sweep", "--primes", "7,11", "--construction", "random:density=1/2",
      "--seeds", "4"), OK,
     "d5a22c5eecdf292c3736f58743de724191243d4838c60f76511d8f0e3d706dfe"),
    (("sweep", "--primes", "3,7,9,11,13", "--construction", "parabola:a=1/4,b=1,g=1",
      "--seeds", "2"), CHECK_FAILED,
     "6340d71db0e5d183234a2927d90872241780591c22eb86ca8c5db5494d97902f"),
    (("sweep", "--primes", "5,7,9,11", "--construction", "ecregion", "--seeds", "1"),
     CHECK_FAILED,
     "8ddaac24a392f4ac02c6d6df87a98cf32960e2926ab7cf6b7624e4fb192931a1"),
    (("sweep", "--primes", "7,11", "--construction",
      "random:density=1/100000000000000000000", "--seeds", "1"), CHECK_FAILED,
     "ac7e7e5c903e582925a7d6bb3f8e670e63f868a5644dc5d5e05340f64e1a91e6"),
    (("ec", "count", "--p", "101", "--a", "-3", "--b", "7"), OK,
     "66245373f17ac705efeed958ca322f2a599a679c82222ec7ed5ed09dbc0f82b6"),
    (("ec", "count", "--p", "4194301", "--a", "1", "--b", "1"), OK,
     "135e3ec86962cdc8e9fc184522e87b7fd99c39a521e71c18dc657e167781b7d0"),
    (("exhaustive", "--q", "3"), OK,
     "2a6062714048d6565796fe75430fd6a75c8c72e361b9cd038b5affa7d7d80e28"),
    # recorded while the parabola coefficients were a record
    (("projection", "--p", "199", "--alpha", "1/4", "--beta", "1", "--gamma", "1",
      "--d", "2"), OK,
     "f759632e0dd1be9fabbb6dd211b852c8514472c7c3e93fb400633ab56c64dbf3"),
    (("projection", "--p", "997"), OK,
     "c2e59f277330a20587250469c5a4ad0128a3320f68fd55ab8fcf7f8cfa8c53fc"),
    # recorded while ec scan still built (p, p) tables
    (("ec", "scan", "--p", "13"), OK,
     "057b9fd838564d50e13fdc6f78cbaed537d6f775196cef11463017e8c6b5434e"),
    (("ec", "scan", "--p", "401"), OK,
     "892affaae6987a30997734f08e1bba1bd62d01baa7a9347dc555f67f6a198c56"),
    (("ec", "scan", "--p", "997"), OK,
     "2d3279fd447089c5cbc0ac6823506245be60180871869e0aafbd3d45f1be9375"),
]


@pytest.mark.parametrize("args, code, digest", DOCUMENT_GOLDENS)
def test_check_document_golden(tmp_path, args, code, digest):
    got, data = run_cli(tmp_path, *args)
    assert got == code
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("q, digest", EMIT_SET_GOLDENS)
def test_emit_set_golden(tmp_path, q, digest):
    setfile = tmp_path / "set.json"
    code, _ = run_cli(tmp_path, "spectrum", "--q", str(q), "--construction",
                      "random:density=1/2", "--seed", "0", "--emit-set", str(setfile))
    assert code == OK
    assert hashlib.sha256(setfile.read_bytes()).hexdigest() == digest


def test_charwalk_outputs(tmp_path):
    code, data = run_cli(tmp_path, "charwalk", "--p", "7", "--a", "0")
    assert code == OK
    assert data.decode().splitlines() == [
        "t,psi", "0,0", "1,1", "2,2", "3,1", "4,2", "5,1", "6,0"]
    code, data = run_cli(tmp_path, "charwalk", "--p", "7", "--levels",
                         name="levels.json")
    assert code == OK
    doc = json.loads(data)
    assert doc["zero_count"] == 2 and doc["max_level_count"] == 3


def test_csv_is_written_block_by_block(tmp_path, monkeypatch):
    # The CSV writer holds one block of lines at a time, never the file: a
    # walk of 2^20 steps writes 11.2 MiB, and the write peaks at 3.6 MiB,
    # where a writer that joins the blocks first peaks at 23.1 MiB.
    walk = np.arange(1 << 20, dtype=np.int64) % 1000 - 500
    monkeypatch.setattr(cli, "psi_walk", lambda p, a: walk)
    out = tmp_path / "w.csv"
    tracemalloc.start()
    try:
        code = main(["charwalk", "--p", "7", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,psi" and len(lines) == 1 + walk.size
    assert lines[1:4] == ["0,-500", "1,-499", "2,-498"] and lines[-1] == "1048575,75"
    assert peak < 6 * 2 ** 20, peak


def traced_ec_scan(tmp_path, p):
    """The exit code, document and tracemalloc peak of one ec scan run."""
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["ec", "scan", "--p", str(p), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, json.loads(out.read_text()), peak


def test_ec_scan_at_p997_peaks_under_its_memory_model(tmp_path):
    # ec scan holds what the spectrum holds, the transform (8*p^2 bytes)
    # and its blocks, and checks each class block as it arrives: the whole
    # command measured 13.5 MiB (14.2*p^2), where keeping the secant sizes
    # and the curve counts as (p, p) tables took 54.3 MiB
    p = 997
    code, doc, peak = traced_ec_scan(tmp_path, p)
    assert code == OK and doc["relation_violations"] == 0
    assert peak < 16 * p * p, peak


@pytest.mark.parametrize("p, bound", [
    (401, 9.1 * 2 ** 20),        # the (p, p) tables took 9.1 MiB; measured 6.3
    (4093, 11 * 4093 ** 2),      # the largest prime accepted; measured 9.3*p^2
])
def test_ec_scan_is_held_in_the_memory_of_the_spectrum(tmp_path, p, bound):
    code, doc, peak = traced_ec_scan(tmp_path, p)
    assert code == OK and doc["relation_violations"] == 0
    assert doc["checked_lines"] + doc["skipped_singular"] == p * p
    assert peak < bound, peak


def test_spectrum_at_q2003_is_held_in_the_memory_of_its_transform(tmp_path):
    # the transform F (2003 x 1002 complex, 30.6 MiB) is the one array of
    # its size: the whole command measured 41.1 MiB, where holding the N
    # per-line counts and the chart table beside it took 87.0 MiB
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["spectrum", "--q", "2003", "--construction", "random:density=1/2",
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == OK
    assert sum(e["count"] for e in json.loads(out.read_text())["histogram"]) == 2003 ** 2 + 2004
    assert peak <= 56 * 2 ** 20, peak


def test_projection_profile_and_laws(tmp_path):
    code, data = run_cli(tmp_path, "projection", "--p", "5", "--alpha", "1/4",
                         "--beta", "1", "--gamma", "1", "--d", "1")
    assert code == OK
    assert data.decode().splitlines() == [
        "b,pr", "0,1", "1,2", "2,2", "3,3", "4,2"]
    code, data = run_cli(tmp_path, "projection", "--p", "13", "--alpha", "2",
                         "--beta", "3", "--gamma", "1", name="laws.json")
    assert code == OK
    doc = json.loads(data)
    assert all(doc["laws"].values())


def test_ec_commands(tmp_path):
    code, data = run_cli(tmp_path, "ec", "count", "--p", "5", "--a", "0", "--b", "1")
    assert code == OK
    doc = json.loads(data)
    assert doc["count"] == 6 and doc["trace"] == 0 and doc["hasse_ok"]
    assert main(["ec", "count", "--p", "5", "--a", "0", "--b", "0"]) == USAGE_ERROR
    code, data = run_cli(tmp_path, "ec", "scan", "--p", "7", name="scan.json")
    assert code == OK
    doc = json.loads(data)
    assert doc["relation_violations"] == 0 and doc["skipped_vertical"] == 7


def test_legit_workflow(tmp_path):
    hyper = tmp_path / "h.json"
    coloring = tmp_path / "c.json"
    assert main(["legit", "gen", "--n", "6", "--seed", "2",
                 "--mode", "sunflower", "--out", str(hyper)]) == OK
    assert main(["legit", "color", "--in", str(hyper),
                 "--out", str(coloring)]) == OK
    doc = json.loads(coloring.read_text())
    assert doc["legitimate"] and doc["blue_counts"] == doc["targets"]
    assert all(d["feasible"] for d in doc["diagnostics"])
    assert main(["legit", "verify", "--in", str(hyper),
                 "--coloring", str(coloring)]) == OK
    # a broken coloring yields the check-failure exit code
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(["blue"] * json.loads(hyper.read_text())["num_vertices"]))
    assert main(["legit", "verify", "--in", str(hyper),
                 "--coloring", str(bad)]) == CHECK_FAILED


def test_legit_color_permutes_with_seed(tmp_path):
    hyper = tmp_path / "h.json"
    main(["legit", "gen", "--n", "8", "--seed", "4", "--out", str(hyper)])
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    assert main(["legit", "color", "--in", str(hyper), "--permute-seed", "1",
                 "--out", str(out1)]) == OK
    assert main(["legit", "color", "--in", str(hyper), "--permute-seed", "1",
                 "--out", str(out2)]) == OK
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("doc, colors", [
    ({"n": 2, "edges": [[0, 1], [0, 2]], "num_vertices": 4}, ["blue", "blue", "red", "red"]),
    ({"n": 2, "edges": [[0, 1], [1, 3]]}, ["blue", "blue", "red", "red"]),
])
def test_legit_colors_vertices_on_no_edge_red(tmp_path, doc, colors):
    hyper = tmp_path / "h.json"
    hyper.write_text(json.dumps(doc))
    code, data = run_cli(tmp_path, "legit", "color", "--in", str(hyper), name="c.json")
    assert code == OK and json.loads(data)["colors"] == colors
    assert main(["legit", "verify", "--in", str(hyper),
                 "--coloring", str(tmp_path / "c.json")]) == OK


def test_usage_errors():
    assert main(["spectrum"]) == USAGE_ERROR           # missing --q
    assert main(["frobnicate"]) == USAGE_ERROR
    assert main(["sweep", "--primes", "7", "--construction", "bogus"]) == USAGE_ERROR


@pytest.mark.parametrize("argv, message", [
    (["plane", "--q", "7", "--bogus"], "unrecognized arguments: --bogus"),
    (["spectrum"], "the following arguments are required: --q"),
    (["plane", "--q", "7", "--dump", "edges"], "argument --dump: invalid choice: 'edges'"),
])
def test_usage_errors_end_with_their_reason(capsys, argv, message):
    assert main(argv) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.endswith("\n")
    *usage, last = err.splitlines()
    assert last.startswith(f"error: {message}"), err
    assert not any(line.startswith("error:") for line in usage)


# stdout, stderr and exit code of `--help` at every level, `--version` and
# the usage errors, recorded before the parser was built per subcommand
USAGE_GOLDENS = json.loads((Path(__file__).parent / "cli_usage_goldens.json").read_text())


@pytest.mark.parametrize("case", USAGE_GOLDENS,
                         ids=lambda case: " ".join(case["argv"]) or "(no arguments)")
def test_usage_text_golden(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")      # argparse wraps help to the terminal
    assert main(list(case["argv"])) == case["code"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


@pytest.mark.parametrize("argv, usage, extra", [
    (["plane", "--q", "7", "--bogus"], "usage: secants plane [-h] --q Q", "--bogus"),
    (["legit", "gen", "--n", "4", "--format", "csv"], "usage: secants legit gen [-h] --n N",
     "--format csv"),
    (["legit", "--bogus", "gen", "--n", "4"], "usage: secants legit [-h]", "--bogus"),
    (["--bogus", "plane", "--q", "7"], "usage: secants [-h] [--version]", "--bogus"),
])
def test_unknown_flag_gets_the_usage_of_its_command(capsys, argv, usage, extra):
    assert main(argv) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith(usage), err
    assert err.splitlines()[-1] == f"error: unrecognized arguments: {extra}"


@pytest.mark.parametrize("argv, most", [
    (["plane", "--q", "2"], 1),
    (["legit", "gen", "--n", "4"], 2),
])
def test_only_the_named_command_gets_a_parser(tmp_path, monkeypatch, argv, most):
    # each subcommand parser pays for its own set-up: a run builds the
    # parsers of the command it names, not one per command name
    built = []
    init = cli._Command.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Command, "__init__", counting)
    assert main([*argv, "--out", str(tmp_path / "out")]) == OK
    assert 1 <= len(built) <= most, built


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--primes", "7,x", "--construction", "ecregion"],
     "--primes must list integers, got 'x'"),
    (["sweep", "--primes", "7,0", "--construction", "ecregion"],
     "--primes must list prime powers, got 0"),
    (["plane", "--q", "1"], "--q must be a prime power, got 1"),
    (["search", "--q", "6"], "--q must be a prime power, got 6"),
    (["projection", "--p", "-5"], "--p must be a prime power, got -5"),
    (["ec", "scan", "--p", "0"], "--p must be a prime power, got 0"),
    # (10^9 + 7)(10^9 + 9), past the reach of trial division
    (["plane", "--q", "1000000016000000063"],
     "--q must be a prime power, got 1000000016000000063"),
])
def test_bad_order_exits_1_naming_flag_and_value(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == USAGE_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["charwalk", "--p", "1000000000000000003"],                 # a prime
    ["charwalk", "--p", "4194319", "--levels"],                 # the next prime past 2^22
    ["projection", "--p", "1000000000000000003", "--d", "1"],
    ["projection", "--p", "4194319"],
    ["ec", "count", "--p", "4194319", "--a", "1", "--b", "1"],
    ["ec", "count", "--p", str(10 ** 40), "--a", "1", "--b", "1"],
])
def test_prime_order_past_the_table_bound_exits_1(tmp_path, capsys, argv):
    # refused before any table of length p is built: the whole run stays
    # far below the 4 MB of an int8 table of length 4194319
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == USAGE_ERROR
    p = argv[argv.index("--p") + 1]
    assert capsys.readouterr().err == f"error: --p must be at most 4194304, got {p}\n"
    assert not out.exists()
    assert peak < 2 ** 20, peak


@pytest.mark.parametrize("argv", [
    ["projection", "--p", "4099"],                  # the next prime past 2^12
    ["ec", "scan", "--p", "4099"],
])
def test_square_table_order_past_the_bound_exits_1(tmp_path, capsys, argv):
    # refused before any table is built: O(p^2) work for projection, and
    # the spectrum's transform, 8*p^2 bytes (128 MiB here), for ec scan
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == USAGE_ERROR
    assert cli.MAX_SQUARE_ORDER == 4096
    assert capsys.readouterr().err == "error: --p must be at most 4096, got 4099\n"
    assert not out.exists()
    assert peak < 2 ** 20, peak


def test_legit_order_past_the_bound_exits_1(tmp_path, capsys):
    # refused before the generator's (n, n) tables, 134 MB per int64
    # table at this n, are built
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["legit", "gen", "--n", "4097", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == USAGE_ERROR
    assert cli.MAX_LEGIT_N == 4096
    assert capsys.readouterr().err == "error: --n must be at most 4096, got 4097\n"
    assert not out.exists()
    assert peak < 2 ** 20, peak


@pytest.mark.parametrize("mode", ["pairwise", "sunflower", "mixed"])
def test_legit_color_is_held_in_the_memory_of_its_index(tmp_path, mode):
    # the parsed edge lists are dropped before the index is built, and the
    # index scratch is int32: 3.9 MiB at n=240, where the lists held beside
    # an int64 index peaked at 6.6 MiB
    hyper = tmp_path / "h.json"
    assert main(["legit", "gen", "--n", "240", "--mode", mode, "--out", str(hyper)]) == OK
    tracemalloc.start()
    try:
        code = main(["legit", "color", "--in", str(hyper), "--out", str(tmp_path / "c.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == OK
    assert peak < 5 * 2 ** 20, peak


def test_prime_order_bound_keeps_products_exact(tmp_path, capsys):
    # the bound is 2^22, so a product of two residues stays below 2^63; the
    # bound itself is not refused by it, and the largest prime below it runs
    assert cli.MAX_PRIME_ORDER == 1 << 22 and cli.MAX_PRIME_ORDER ** 2 < 2 ** 63
    assert main(["charwalk", "--p", "4194304", "--out", str(tmp_path / "w")]) == USAGE_ERROR
    assert capsys.readouterr().err == "error: 4194304 is not an odd prime\n"
    code, data = run_cli(tmp_path, "ec", "count", "--p", "4194301", "--a", "1", "--b", "1")
    assert code == OK
    assert json.loads(data)["p"] == 4194301


@pytest.mark.parametrize("a", [-10 ** 23, 2 ** 63 - 1, 10 ** 30 + 5])
def test_charwalk_start_is_any_integer(tmp_path, a):
    # --a is a residue mod p: past int64 it is reduced, not refused, and
    # near 2**63 it no longer wraps in the int64 step index
    code, data = run_cli(tmp_path, "charwalk", "--p", "7", "--a", str(a))
    assert code == OK
    assert data == run_cli(tmp_path, "charwalk", "--p", "7", "--a", str(a % 7),
                           name="reduced.csv")[1]


@pytest.mark.parametrize("argv", [
    ["exhaustive", "--q", "2", "--format", "csv"],
    ["search", "--q", "3", "--format", "json"],
    ["sweep", "--primes", "7", "--construction", "random:density=1/2", "--seed", "5"],
    ["exhaustive", "--q", "2", "--seed", "1"],
    ["charwalk", "--p", "7", "--seed", "1"],
    ["legit", "gen", "--n", "4", "--format", "csv"],
])
def test_flags_only_where_read(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == USAGE_ERROR
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: unrecognized arguments: --")
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "7", "--construction", "random:density=1/2"],
    ["search", "--q", "3"],
    ["legit", "gen", "--n", "4"],
])
def test_seed_outside_range_exits_1_with_one_line(tmp_path, capsys, argv, seed):
    out = tmp_path / "out"
    assert main([*argv, "--seed", seed, "--out", str(out)]) == USAGE_ERROR
    assert capsys.readouterr().err == f"error: --seed must be in [0, 2**128), got {seed}\n"
    assert not out.exists()


def test_largest_seed_runs(tmp_path):
    code, data = run_cli(tmp_path, "spectrum", "--q", "7", "--construction",
                         "random:density=1/2", "--seed", str(2 ** 128 - 1))
    assert code == OK and json.loads(data)["meta"]["seed"] == 2 ** 128 - 1


@pytest.mark.parametrize("seed", ["-5", str(2 ** 128)])
def test_permute_seed_outside_range_exits_1_with_one_line(tmp_path, capsys, seed):
    # random.Random seeds with abs(seed), so -5 would run as 5
    hyper, out = tmp_path / "h.json", tmp_path / "out"
    hyper.write_text(json.dumps(VALID_HYPERGRAPH))
    argv = ["legit", "color", "--in", str(hyper), "--permute-seed", seed]
    assert main([*argv, "--out", str(out)]) == USAGE_ERROR
    assert capsys.readouterr().err == \
        f"error: --permute-seed must be in [0, 2**128), got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["0", "5", str(2 ** 128 - 1)])
def test_permute_seed_in_range_runs(tmp_path, seed):
    hyper = tmp_path / "h.json"
    assert main(["legit", "gen", "--n", "8", "--seed", "4", "--out", str(hyper)]) == OK
    code, data = run_cli(tmp_path, "legit", "color", "--in", str(hyper),
                         "--permute-seed", seed)
    assert code == OK and json.loads(data)["legitimate"]


def test_empty_prime_list_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", "--primes", ",,", "--construction", "ecregion", "--seeds", "1"]
    assert main([*argv, "--out", str(out)]) == USAGE_ERROR
    assert capsys.readouterr().err == "error: --primes lists no prime\n"
    assert not out.exists()


MALFORMED_INPUTS = {
    "set-out-of-range": ("set-file", {"q": 7, "affine": [[9, 3]]}),
    "set-negative": ("set-file", {"q": 7, "affine": [[-1, 3]]}),
    "set-repeated-point": ("set-file", {"q": 7, "affine": [[1, 2], [1, 2]]}),
    "set-top-level-array": ("set-file", [[1, 2]]),
    "set-zero-triple": ("set-file", {"q": 7, "projective": [[0, 0, 0]]}),
    "set-boolean-coordinate": ("set-file", {"q": 7, "affine": [[1, 2], [1, True]]}),
    "set-boolean-triple": ("set-file", {"q": 7, "projective": [[1, 2, 1], [False, 0, 1]]}),
    "set-coordinate-past-int64": ("set-file", {"q": 7, "affine": [[2 ** 64, 1]]}),
    "set-unknown-key": ("set-file", {"q": 7, "afine": [[1, 2]]}),
    "set-float-order": ("set-file", {"q": 7.0, "affine": [[1, 2]]}),
    "set-and-construction": ("set-and-construction", {"q": 7, "affine": [[1, 2]]}),
    "density-1/0": ("construction", "random:density=1/0"),
    "density-past-int64": ("construction", "random:density=1/100000000000000000000"),
    "construction-seed-argument": ("construction", "random:density=1/2,seed=3"),
    "construction-unknown-argument": ("construction", "random:densty=1/8"),
    "construction-argument-of-another": ("construction", "ecregion:foo=1"),
    "construction-repeated-argument": ("construction", "parabola:a=1,a=2"),
    "hypergraph-top-level-array": ("hypergraph", [[0, 1], [1, 2]]),
    "hypergraph-edges-not-a-list": ("hypergraph", {"n": 2, "edges": 5}),
    "hypergraph-n-is-a-string": ("hypergraph", {"n": "2", "edges": [[0, 1], [1, 2]]}),
    "hypergraph-string-vertex": ("hypergraph", {"n": 2, "edges": [[0, "1"], [1, 2]]}),
    "hypergraph-boolean-vertex": ("hypergraph", {"n": 2, "edges": [[0, True], [1, 2]]}),
    "hypergraph-vertex-past-num-vertices": ("hypergraph",
                                            {"n": 1, "edges": [[5]], "num_vertices": 2}),
    "hypergraph-negative-vertex": ("hypergraph", {"n": 2, "edges": [[-1, 0], [1, 2]]}),
    "hypergraph-vertex-past-int64": ("hypergraph", {"n": 1, "edges": [[2 ** 70]]}),
    "hypergraph-vertex-past-int64-and-num-vertices": ("hypergraph", {
        "n": 1, "edges": [[2 ** 70]], "num_vertices": 1}),
    "hypergraph-negative-vertex-past-int64": ("hypergraph", {
        "n": 2, "edges": [[-2 ** 70, 0], [1, 2]]}),
    "hypergraph-extra-edge-past-int64": ("hypergraph", {"n": 1, "edges": [[0], [2 ** 70]]}),
    "hypergraph-huge-vertex-id": ("hypergraph", {"n": 1, "edges": [[10000000000000]]}),
    "hypergraph-huge-num-vertices": ("hypergraph", {"n": 2, "edges": [[0, 1], [1, 2]],
                                                    "num_vertices": 10000000000000}),
    "hypergraph-too-few-edges": ("hypergraph", {"n": 2, "edges": [[0, 1]]}),
    "hypergraph-short-edge": ("hypergraph", {"n": 2, "edges": [[0, 1], [2]]}),
    "hypergraph-repeated-vertex": ("hypergraph", {"n": 2, "edges": [[0, 0], [1, 2]]}),
    "hypergraph-not-linear": ("hypergraph",
                              {"n": 3, "edges": [[0, 1, 2], [0, 1, 3], [4, 5, 6]]}),
    "coloring-without-colors": ("coloring", {"x": 1}),
    "coloring-too-short": ("coloring", ["red", "blue"]),
    "coloring-unknown-color": ("coloring", ["red", "green", "blue"]),
    "coloring-null-entry": ("coloring", ["red", None, "blue"]),
    "coloring-boolean-entry": ("coloring", [True, 0, 1]),
    "coloring-booleans-only": ("coloring", [True, False, True]),
    "coloring-code-out-of-range": ("coloring", [0, 1, 2]),
    "coloring-code-past-int64": ("coloring", [0, 1, 2 ** 64]),
    "coloring-name-among-codes": ("coloring", [0, "1", 1]),
    "coloring-list-entry": ("coloring", ["red", [1], "blue"]),
    "hypergraph-float-vertex": ("hypergraph", {"n": 2, "edges": [[0, 1.0], [1, 2]]}),
    "hypergraph-boolean-edge": ("hypergraph", {"n": 2, "edges": [[0, 1], True]}),
    "hypergraph-unknown-key": ("hypergraph", {"n": 2, "edges": [[0, 1], [1, 2]],
                                              "num_vertice": 3}),
    # whole command lines, recorded while the parabola coefficients and the
    # family density were records: c is checked before the prime-plane guard
    "family-density-before-prime-plane": ("argv", "spectrum --q 9 --construction family:c=2"),
    "parabola-alpha-vanishes-mod-p": ("argv", "spectrum --q 11 --construction parabola:a=11"),
    "projection-alpha-zero": ("argv", "projection --p 199 --alpha 0"),
}

# each case's one error line, recorded before the set-file, hypergraph and
# coloring readers checked their documents as arrays; a vertex past int64 is
# named since the hypergraph finds its extreme vertices on Python ints then
MALFORMED_MESSAGES = {
    'set-out-of-range': 'set file affine entry [9, 3] is not a point of PG(2,7)',
    'set-negative': 'set file affine entry [-1, 3] is not a point of PG(2,7)',
    'set-repeated-point': 'set file repeats the point [1, 2]',
    'set-top-level-array': 'set file must be a JSON object',
    'set-zero-triple': 'set file projective entry [0, 0, 0] is not a point of PG(2,7)',
    'set-boolean-coordinate': 'set file affine entry [1, True] is not a point of PG(2,7)',
    'set-boolean-triple': 'set file projective entry [False, 0, 1] is not a point of PG(2,7)',
    'set-coordinate-past-int64':
        'set file affine entry [18446744073709551616, 1] is not a point of PG(2,7)',
    'density-1/0': "'1/0' is not a rational number",
    'density-past-int64': 'density 1/100000000000000000000 has a denominator past 2^63',
    'construction-seed-argument': "construction 'random' takes no argument 'seed'; the seed comes from --seed",
    'construction-unknown-argument': "construction 'random' takes no argument 'densty'",
    'construction-argument-of-another': "construction 'ecregion' takes no argument 'foo'",
    'construction-repeated-argument': "construction argument 'a' given twice",
    'hypergraph-top-level-array': 'hypergraph file must be a JSON object with n and edges',
    'hypergraph-edges-not-a-list': 'edges must be a list of lists of integer vertices',
    'hypergraph-n-is-a-string': "n must be an integer >= 1, got '2'",
    'hypergraph-string-vertex': 'edges must be a list of lists of integer vertices',
    'hypergraph-boolean-vertex': 'edges must be a list of lists of integer vertices',
    'hypergraph-vertex-past-num-vertices': 'vertex 5 is outside [0, 2)',
    'hypergraph-negative-vertex': 'vertex -1 is outside [0, 3)',
    'hypergraph-vertex-past-int64': '1180591620717411303425 vertices exceed n^2 = 1, the most that n edges of size n can cover',
    'hypergraph-vertex-past-int64-and-num-vertices': 'vertex 1180591620717411303424 is outside [0, 1)',
    'hypergraph-negative-vertex-past-int64': 'vertex -1180591620717411303424 is outside [0, 3)',
    'hypergraph-extra-edge-past-int64': 'need exactly n=1 edges, got 2',
    'hypergraph-huge-vertex-id': '10000000000001 vertices exceed n^2 = 1, the most that n edges of size n can cover',
    'hypergraph-huge-num-vertices': '10000000000000 vertices exceed n^2 = 4, the most that n edges of size n can cover',
    'hypergraph-too-few-edges': 'need exactly n=2 edges, got 1',
    'hypergraph-short-edge': 'edge 2 has size 1, expected 2',
    'hypergraph-repeated-vertex': 'edge 1 repeats a vertex',
    'hypergraph-not-linear': 'edges 1 and 2 share more than one vertex',
    'coloring-without-colors': 'coloring file must list exactly 3 colors',
    'coloring-too-short': 'coloring file must list exactly 3 colors',
    'coloring-unknown-color': "vertex 1 has color 'green'; expected red, blue, 0 or 1",
    'coloring-null-entry': 'vertex 1 has color None; expected red, blue, 0 or 1',
    'coloring-boolean-entry': 'vertex 0 has color True; expected red, blue, 0 or 1',
    'coloring-booleans-only': 'vertex 0 has color True; expected red, blue, 0 or 1',
    'coloring-code-out-of-range': 'vertex 2 has color 2; expected red, blue, 0 or 1',
    'coloring-code-past-int64': 'vertex 2 has color 18446744073709551616; expected red, blue, 0 or 1',
    'coloring-name-among-codes': "vertex 1 has color '1'; expected red, blue, 0 or 1",
    'coloring-list-entry': 'vertex 1 has color [1]; expected red, blue, 0 or 1',
    'hypergraph-float-vertex': 'edges must be a list of lists of integer vertices',
    'hypergraph-boolean-edge': 'edges must be a list of lists of integer vertices',
    'set-unknown-key': "set file key 'afine' is not q, affine or projective",
    'set-float-order': 'set file is for q=7.0, plane has q=7',
    'set-and-construction': 'spectrum takes --set-file or --construction, not both',
    'hypergraph-unknown-key': "hypergraph file key 'num_vertice' is not n, edges or num_vertices",
    'family-density-before-prime-plane': 'family density c must lie in (0,1)',
    'parabola-alpha-vanishes-mod-p': 'parabola needs alpha != 0',
    'projection-alpha-zero': 'parabola needs alpha != 0',
}

# the hypergraph that the coloring cases are checked against: 3 vertices
VALID_HYPERGRAPH = {"n": 2, "edges": [[0, 1], [1, 2]]}


@pytest.mark.parametrize("name", list(MALFORMED_INPUTS))
def test_malformed_input_exits_1_with_one_line(tmp_path, capsys, name):
    kind, value = MALFORMED_INPUTS[name]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(value))
    hyper = tmp_path / "h.json"
    hyper.write_text(json.dumps(VALID_HYPERGRAPH))
    argv = {"set-file": ["spectrum", "--q", "7", "--set-file", str(path)],
            "construction": ["spectrum", "--q", "7", "--construction", value],
            "set-and-construction": ["spectrum", "--q", "7", "--set-file", str(path),
                                     "--construction", "ecregion"],
            "hypergraph": ["legit", "color", "--in", str(path)],
            "coloring": ["legit", "verify", "--in", str(hyper), "--coloring", str(path)],
            "argv": str(value).split()}[kind]
    assert main([*argv, "--out", str(tmp_path / "out")]) == USAGE_ERROR
    assert capsys.readouterr().err == f"error: {MALFORMED_MESSAGES[name]}\n"


# files that json cannot decode: empty, nested past the recursion limit, not
# UTF-8 text, and an integer past Python's 4300-digit conversion limit
UNDECODABLE = {"empty": b"", "deep-array": b"[" * 100000 + b"]" * 100000,
               "not-utf8": b"\xff\xfe{", "long-integer": b"[" + b"1" * 5000 + b"]"}


@pytest.mark.parametrize("content", list(UNDECODABLE))
@pytest.mark.parametrize("flag", ["set-file", "in", "coloring"])
def test_undecodable_json_exits_1_naming_its_flag(tmp_path, capsys, flag, content):
    path = tmp_path / "in.json"
    path.write_bytes(UNDECODABLE[content])
    hyper = tmp_path / "h.json"
    hyper.write_text(json.dumps(VALID_HYPERGRAPH))
    argv = {"set-file": ["spectrum", "--q", "7", "--set-file", str(path)],
            "in": ["legit", "color", "--in", str(path)],
            "coloring": ["legit", "verify", "--in", str(hyper), "--coloring", str(path)]}[flag]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{flag} {path} is not JSON: ") and err.count("\n") == 1
    if content == "empty":
        assert err.endswith(": Expecting value: line 1 column 1 (char 0)\n")
    assert not out.exists()


@pytest.mark.parametrize("colors", [
    ["blue", "blue", "red"], [1, 1, 0], ["blue", 1, "red"], {"colors": [1, "blue", 0]},
])
def test_coloring_names_codes_and_mixes_read_alike(tmp_path, colors):
    hyper, path = tmp_path / "h.json", tmp_path / "c.json"
    hyper.write_text(json.dumps(VALID_HYPERGRAPH))
    path.write_text(json.dumps(colors))
    code, data = run_cli(tmp_path, "legit", "verify", "--in", str(hyper),
                         "--coloring", str(path))
    assert code == OK
    assert data == b'{\n  "legitimate": true,\n  "violating_pair": null\n}\n'


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("argv", [
    ["sweep", "--primes", "7", "--construction", "random:density=1/2", "--seeds", "2"],
    ["exhaustive", "--q", "2"],
])
def test_threads_below_one_exits_1_with_one_line(tmp_path, capsys, argv, threads):
    out = tmp_path / "out"
    assert main([*argv, "--threads", threads, "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err == f"error: --threads must be at least 1, got {threads}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--primes", "7", "--construction", "random:density=1/2", "--seeds", "2"],
    ["exhaustive", "--q", "2"],
])
def test_threads_past_the_bound_exit_1_before_any_thread(tmp_path, capsys, monkeypatch,
                                                         argv):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
    out = tmp_path / "out"
    threads = str(cli.MAX_THREADS + 1)
    assert main([*argv, "--threads", threads, "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err == f"error: --threads must be at most {cli.MAX_THREADS}, got {threads}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["plane", "--q", "2"],
    ["spectrum", "--q", "7", "--construction", "random:density=1/2"],
    ["search", "--q", "3"],
    ["charwalk", "--p", "7"],
    ["projection", "--p", "7"],
    ["ec", "count", "--p", "7", "--a", "1", "--b", "1"],
    ["ec", "scan", "--p", "7"],
    ["legit", "gen", "--n", "4"],
    ["legit", "color", "--in", "h.json"],
    ["legit", "verify", "--in", "h.json", "--coloring", "c.json"],
])
def test_threads_is_refused_where_it_is_not_read(tmp_path, capsys, argv):
    # only sweep and exhaustive run on worker threads
    out = tmp_path / "out"
    assert main([*argv, "--threads", "2", "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"usage: secants {argv[0]} ")
    assert err.splitlines()[-1] == "error: unrecognized arguments: --threads 2"
    assert not out.exists()


def test_threads_at_the_bound_run(tmp_path):
    assert cli.MAX_THREADS >= 8
    code, data = run_cli(tmp_path, "sweep", "--primes", "7", "--construction",
                         "random:density=1/2", "--seeds", "2",
                         "--threads", str(cli.MAX_THREADS))
    _, serial = run_cli(tmp_path, "sweep", "--primes", "7", "--construction",
                        "random:density=1/2", "--seeds", "2", name="serial.csv")
    assert code == OK and data == serial


@pytest.mark.parametrize("argv, flag, value, least", [
    (["search", "--q", "3"], "iters", "-3", 0),
    (["search", "--q", "3"], "restarts", "0", 1),
    (["search", "--q", "3"], "restarts", "-4", 1),
    (["sweep", "--primes", "7", "--construction", "random:density=1/2"], "seeds", "-2", 1),
    (["sweep", "--primes", "7", "--construction", "random:density=1/2"], "seeds", "0", 1),
])
def test_counts_below_least_exit_1_with_one_line(tmp_path, capsys, argv, flag, value,
                                                 least):
    out = tmp_path / "out"
    assert main([*argv, f"--{flag}", value, "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err == f"error: --{flag} must be at least {least}, got {value}\n"
    assert not out.exists()


def test_least_counts_still_run(tmp_path):
    code, data = run_cli(tmp_path, "search", "--q", "2", "--iters", "0", "--restarts", "1")
    assert code == OK and json.loads(data)["subsets_examined"] == 0
    code, data = run_cli(tmp_path, "sweep", "--primes", "7", "--construction",
                         "random:density=1/2", "--seeds", "1", name="s.csv")
    assert code == OK and len(data.decode().splitlines()) == 3


def test_exhaustive_above_limit_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["exhaustive", "--q", "5", "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: exhaustive limit") and err.count("\n") == 1, err
    assert "q=5" in err and "4" in err
    assert not out.exists()


def test_search_above_limit_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["search", "--q", "256", "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: search limit") and err.count("\n") == 1, err
    assert "q=256" in err and "251" in err
    assert not out.exists()


def test_internal_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("kernel fault\non two lines")

    monkeypatch.setattr(cli, "cmd_spectrum", broken)
    argv = ["spectrum", "--q", "7", "--construction", "ecregion"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == INTERNAL_ERROR
    err = capsys.readouterr().err
    assert err == "error: internal: RuntimeError: kernel fault on two lines\n"


def test_sweep_cell_fault_exits_3_without_output(tmp_path, capsys, monkeypatch):
    # a cell records only input errors; a fault of the program ends the sweep
    monkeypatch.setattr(spectrum, "_RADON_TOLERANCE", -1)
    out = tmp_path / "out"
    argv = ["sweep", "--primes", "7", "--construction", "random", "--seeds", "1"]
    assert main([*argv, "--out", str(out)]) == INTERNAL_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: internal: ArithmeticError: finite Radon transform at q=7")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, min_p, q", [
    ("ec scan --p 9", 3, 9),
    ("ec scan --p 25", 3, 25),
    ("projection --p 9", 3, 9),
    ("projection --p 3", 3, 3),
    ("spectrum --q 9 --construction ecregion", 3, 9),
    ("spectrum --q 9 --construction parabola", 3, 9),
    ("spectrum --q 9 --construction family", 2, 9),
])
def test_prime_plane_guard_names_the_order(tmp_path, capsys, command, min_p, q):
    out = tmp_path / "out"
    assert main([*command.split(), "--out", str(out)]) == USAGE_ERROR
    assert capsys.readouterr().err == (f"error: requires a prime plane with "
                                       f"p > {min_p}, got q={q}\n")
    assert not out.exists()


@pytest.mark.parametrize("p", [9, 2])
def test_charwalk_needs_an_odd_prime(tmp_path, capsys, p):
    assert main(["charwalk", "--p", str(p), "--out", str(tmp_path / "out")]) == USAGE_ERROR
    assert capsys.readouterr().err == f"error: {p} is not an odd prime\n"


def test_radon_rounding_guard_exits_3(tmp_path, capsys, monkeypatch):
    # an offset on either member of a packed pair of classes fires the guard
    ifftn = np.fft.ifftn
    argv = ["spectrum", "--q", "7", "--construction", "random:density=1/2"]
    for member in (0.25, 0.25j):
        monkeypatch.setattr(np.fft, "ifftn",
                            lambda *a, member=member, **k: ifftn(*a, **k) + member)
        assert main([*argv, "--out", str(tmp_path / "out")]) == INTERNAL_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: internal: ArithmeticError: ") and err.count("\n") == 1


# -- the JSON writer -------------------------------------------------------------

FLOATS = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, -2.5e-300, 5e-324]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text())
# keys of one kind per dict, since json cannot sort str keys among numbers
KEYS = (st.text(), st.one_of(st.integers(), st.booleans()), st.floats(allow_nan=False),
        st.none())
DOCS = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.lists(st.integers()),
    st.lists(st.text()), *(st.dictionaries(key, inner) for key in KEYS)), max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(doc=DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


RECORD_KEYS = st.lists(st.text(max_size=3), max_size=3, unique=True)
RECORD_VALUES = st.one_of(st.integers(), st.booleans(), st.text(max_size=3),
                          st.lists(st.integers(), max_size=2),
                          st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def record_lists(draw):
    """Lists of dicts that mostly share one key set, with int values only
    (a histogram) or with bools, strs and nested values among them, and
    now and then another key set or an empty dict."""
    keys = draw(RECORD_KEYS)
    values = st.integers() if draw(st.booleans()) else RECORD_VALUES
    mixed = draw(st.booleans())
    return [{k: draw(values) for k in (draw(RECORD_KEYS) if mixed and draw(st.booleans())
                                      else keys)}
            for _ in range(draw(st.integers(0, 6)))]


@settings(max_examples=300, deadline=None)
@given(records=record_lists())
@example(records=[{"%d": 1, "a%": 2}, {"a%": 3, "%d": -4}])
@example(records=[{"k": 1, "count": True}, {"k": 2, "count": 0}])
@example(records=[{}, {}])
def test_json_writer_writes_records_as_json_does(records):
    for doc in (records, {"histogram": records, "nested": [records, tuple(records)]}):
        assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


INT_ARRAYS = hnp.arrays(
    st.sampled_from([np.int64, np.uint64, np.int32, np.uint8, np.int8]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=8))


@settings(max_examples=200, deadline=None)
@given(arr=INT_ARRAYS)
def test_json_writer_writes_an_int_array_as_its_lists(arr):
    assert cli._json_text(arr) == json.dumps(arr.tolist(), sort_keys=True, indent=2)
    doc = {"a": [arr, 1], "b": arr}         # indented inside a document
    listed = {"a": [arr.tolist(), 1], "b": arr.tolist()}
    assert cli._json_text(doc) == json.dumps(listed, sort_keys=True, indent=2)


@pytest.mark.parametrize("arr", [
    np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0]),
    np.array([[np.iinfo(np.uint64).max], [0]], dtype=np.uint64),
    np.arange(-5000, 5000).reshape(-1, 2),            # several blocks of rows
    np.arange(10000),
    np.zeros((3, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64),
])
def test_json_writer_int_array_edges(arr):
    assert cli._json_text(arr) == json.dumps(arr.tolist(), sort_keys=True, indent=2)


@pytest.mark.parametrize("doc", [np.int64(3), [1, np.int64(3)], {"a": [np.int64(1)]},
                                 {np.int64(1): 2}, {(1,): 2}, {1: 2, "a": 3},
                                 np.array([1.5]), np.zeros((2, 2)),
                                 np.array([True]), np.array(3),
                                 # lists of dicts that the histogram template declines
                                 [{"k": 0, "count": np.int64(3)}],
                                 [{"count": 1}, {"count": np.int64(2)}],
                                 ({"a": np.uint8(1)}, {"a": 2}),
                                 [{np.int64(1): 2}, {np.int64(1): 3}],
                                 [{"a": 1, "b": 2}, {"a": 1, (1,): 2}]])
def test_json_writer_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError) as expect:
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        cli._json_text(doc)
    assert str(got.value) == str(expect.value)


def test_failed_verify_writes_the_violating_pair(tmp_path):
    hyper, coloring = tmp_path / "h.json", tmp_path / "c.json"
    assert main(["legit", "gen", "--n", "6", "--seed", "2", "--mode", "sunflower",
                 "--out", str(hyper)]) == OK
    coloring.write_text(json.dumps(["blue"] * json.loads(hyper.read_text())["num_vertices"]))
    code, data = run_cli(tmp_path, "legit", "verify", "--in", str(hyper),
                         "--coloring", str(coloring))
    assert code == CHECK_FAILED
    assert data == b'{\n  "legitimate": false,\n  "violating_pair": [\n    1,\n    2\n  ]\n}\n'


def test_failed_projection_report_golden(tmp_path, monkeypatch):
    # sha256 of the report with l1_first_fail, a tuple, set: recorded when
    # the output was json.dumps(sort_keys=True, indent=2)
    laws = cli.verify_projection_laws

    def failing(plane, *coeffs):
        doc = laws(plane, *coeffs)
        doc["laws"]["L1"] = doc["all_ok"] = False
        doc.update(l1_first_fail=(3, 5), l2_first_fail=2, l4_first_fail=7)
        return doc

    monkeypatch.setattr(cli, "verify_projection_laws", failing)
    code, data = run_cli(tmp_path, "projection", "--p", "13", "--alpha", "2",
                         "--beta", "3", "--gamma", "1")
    assert code == CHECK_FAILED and json.loads(data)["l1_first_fail"] == [3, 5]
    assert hashlib.sha256(data).hexdigest() == \
        "159455f5de5771398bf52749c8a2cce4093f20bb5fcd9e6c2e7c9931bc4c5b96"


def test_off_by_one_profile_report_golden(tmp_path, monkeypatch):
    # slope 5's profile with pr(3) raised by 1 breaks the steps into and
    # out of b = 3, the interval image, the shift and the histogram
    direct = charwalk._direct_profiles

    def off_by_one(f, ds):
        pr = direct(f, ds)
        pr[ds == 5, 3] += 1
        return pr

    monkeypatch.setattr(charwalk, "_direct_profiles", off_by_one)
    code, data = run_cli(tmp_path, "projection", "--p", "13")
    doc = json.loads(data)
    assert code == CHECK_FAILED
    assert (doc["l1_first_fail"], doc["l2_first_fail"], doc["l4_first_fail"]) == ([5, 2], 5, 7)
    assert doc["shifts"][4] is None
    assert hashlib.sha256(data).hexdigest() == \
        "3e24ce30356b350ee8e8d75008934caef8cc2eb3a153b5cd25c8683bb2a42460"


def test_repeat_invocations_byte_identical(tmp_path):
    for args, name in [
        (("spectrum", "--q", "9", "--construction", "random:density=1/4",
          "--seed", "5"), "s.json"),
        (("exhaustive", "--q", "3"), "e.json"),
        (("charwalk", "--p", "31", "--a", "7"), "w.csv"),
    ]:
        _, first = run_cli(tmp_path, *args, name=f"1{name}")
        _, second = run_cli(tmp_path, *args, name=f"2{name}")
        assert first == second, args


def run_python(*args):
    """A fresh interpreter on args that imports the package under test: the
    directory it was imported from leads PYTHONPATH, as pytest's own
    pythonpath setting reaches this process only."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_cli_import_leaves_fft_unloaded():
    # numpy loads numpy.fft on first use; the CLI's start-up must not pay for it
    proc = run_python("-c", "import sys, secants.cli; print('numpy.fft' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point():
    proc = run_python("-m", "secants.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
