"""Twelve acceptance criteria, one test and one printed verdict line each.

Each test prints `[cNN name] PASS/FAIL (elapsed)` outside the capture so
the verdicts are visible in a plain pytest run, then asserts the result.
"""

import hashlib
import subprocess
import sys
import time
import warnings

from specrep import chains, glnq, hecke
from specrep.errors import CapExceeded
from specrep.jsets import quasi_parabolic_sets
from specrep.roots import root_system
from specrep.suite import check_hilfe, check_warmup, check_weylem
from specrep.vjmod import Ring, build_mj, restricted_exactness
from specrep.weyl import (all_j, enumerate_VJ, enumerate_WJ, group_order, length,
                          multiply, simple)

from coset_oracles import leq_j, project
from line_scan import full_scan

BATTERY = ("A1", "A2", "A3", "B2", "B3", "C3", "D4")
RANK3 = ("A1", "A2", "A3", "B2", "B3", "C3")
RANK4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4")
SCAN = ("A1", "A2", "A3", "B2", "B3", "C3")
LINE_CAP = 1 << 20
# sha256 of the canonical `specrep suite` report (the default configuration)
SUITE_SHA256 = "e1e0a5f86e031cd0b32ca961d7b9178b50997070dd592b50bcd95ccc10ef0678"


def verdict(capsys, tag, ok, t0, bound=None):
    took = time.time() - t0
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} ({took:.1f}s)"
    if bound is not None and took >= bound:
        ok, line = False, line + f" over the {bound}s budget"
    with capsys.disabled():
        print(line)
    assert ok


def test_c01_rank_torsion_and_vj_partition(capsys):
    t0, ok = time.time(), True
    for t in BATTERY:
        rs = root_system(t)
        total = 0
        for j in all_j(rs.rank):
            rep = build_mj(rs, j)
            ok &= rep.rank == rep.vj_size and rep.basis_ok
            total += rep.vj_size
        ok &= total == group_order(rs)
    verdict(capsys, "c01 integral rank/torsion + V^J partition", ok, t0, 10)


def test_c02_steinberg(capsys):
    t0, ok = time.time(), True
    for t in BATTERY:
        rep = build_mj(root_system(t), frozenset())
        ok &= rep.vj_size == 1 and rep.rank == 1 and rep.basis_ok
    verdict(capsys, "c02 empty-J module is a line", ok, t0)


def test_c03_restricted_exactness(capsys):
    t0, ok = time.time(), True
    rings = (Ring("Q"), Ring("Fp", 2), Ring("Fp", 3))
    for t in RANK3:
        rs = root_system(t)
        for j in all_j(rs.rank):
            for d in quasi_parabolic_sets(rs, j):
                for ring in rings:
                    ok &= restricted_exactness(rs, j, d.mask, ring)
    verdict(capsys, "c03 exactness at every quasi-parabolic set", ok, t0, 60)


def test_c04_projection_lemmas(capsys):
    t0, ok = time.time(), True
    for t in RANK3:
        rs = root_system(t)
        ok &= check_warmup(rs)[0] and check_hilfe(rs)[0] and check_weylem(rs)[0]
    verdict(capsys, "c04 projection and length lemmas", ok, t0)


def test_c05_raising_witnesses(capsys):
    t0, ok = time.time(), True
    for t in RANK4:
        rs = root_system(t)
        for j in all_j(rs.rank):
            z = chains.z_j(rs, j)
            for w in enumerate_VJ(rs, j):
                if w == z:
                    continue
                wp, s = chains.weyllem1_witness(rs, j, w)
                ok &= leq_j(rs, j, w, wp) and w != wp
                sw = project(rs, multiply(simple(rs, s), w), j)
                swp = project(rs, multiply(simple(rs, s), wp), j)
                ok &= length(rs, sw) < length(rs, w)
                ok &= length(rs, swp) >= length(rs, wp)
    verdict(capsys, "c05 raising witnesses in V^J", ok, t0)


def test_c06_descent_chains(capsys):
    t0, ok = time.time(), True
    types = (["A%d" % l for l in range(1, 6)]
             + ["B%d" % l for l in range(2, 6)]
             + ["C%d" % l for l in range(2, 6)]
             + ["D%d" % l for l in range(2, 6)]
             + ["A2xB2"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # D2/D3 are rewritten with a warning
        for t in types:
            rs = root_system(t)
            try:
                chains.validate_weyllem2(rs, chains.weyllem2_chain(rs))
            except Exception:
                ok = False
    verdict(capsys, "c06 longest-to-identity chains", ok, t0)


def test_c07_trichotomy_and_quadratic(capsys):
    t0, ok = time.time(), True
    for t in RANK3:
        rs = root_system(t)
        for j in all_j(rs.rank):
            for w in enumerate_WJ(rs, j):
                for s in range(rs.rank):
                    ok &= hecke.ts_case(rs, j, w, s) in "abc"
            for p in (2, 3):
                for s in range(rs.rank):
                    m = hecke.ts_matrix(rs, j, s, p)
                    ok &= bool(((m @ m) % p == (-m) % p).all())
    verdict(capsys, "c07 operator trichotomy and T_s^2 = -T_s", ok, t0)


def test_c08_indecomposability_scan(capsys):
    """The socle certificate behind check_indeco against the full line scan,
    kept as the oracle, on every instance under the line cap."""
    t0, ok, checked = time.time(), True, 0
    for t in SCAN:
        rs = root_system(t)
        for j in all_j(rs.rank):
            for p in (2, 3):
                if p ** len(enumerate_VJ(rs, j)) > LINE_CAP:
                    continue
                cert, _ = hecke._socle_certificate(rs, j)
                scan, _ = full_scan(rs, j, p, False)
                ok &= cert == scan == hecke.check_indeco(rs, j, p)
                ok &= cert  # and the top class is reached everywhere
                checked += 1
    ok &= checked > 0
    verdict(capsys, f"c08 socle certificate agrees with the line scan"
            f" ({checked} checked)", ok, t0, 120)


def test_c09_simplicity_and_negative_control(capsys):
    t0, ok = time.time(), True
    checked = skipped = 0
    for t in SCAN + ("D4",):
        rs = root_system(t)
        for j in all_j(rs.rank):
            for p in (2, 3):
                try:
                    rep = hecke.check_simple(rs, j, p)
                except CapExceeded:
                    skipped += 1
                    continue
                checked += 1
                ok &= rep.is_simple
    ok &= checked > 0
    control = hecke.check_simple(root_system("A2"), frozenset({0}), 2,
                                 include_omega=False)
    ok &= not control.generation_ok and not control.is_simple
    verdict(capsys,
            f"c09 simplicity ({checked} checked, {skipped} capacity skips)", ok, t0)


def test_c10_fingerprints(capsys):
    t0, ok = time.time(), True
    for t in BATTERY:
        rs = root_system(t)
        seen = set()
        for j in all_j(rs.rank):
            fp = hecke.fingerprint_j(rs, j)
            ok &= fp not in seen
            seen.add(fp)
            ok &= hecke.recover_j(rs, fp) == j
    verdict(capsys, "c10 distinct invertible fingerprints", ok, t0)


def test_c11_matrix_group_oracle(capsys):
    t0, ok = time.time(), True
    for n, q in ((2, 2), (3, 2), (2, 3)):
        model = glnq.build_model(n, q)
        for j in all_j(model.rs.rank):
            inv = glnq.special_invariants(model, j)
            ok &= inv.dim == inv.vj_size and inv.basis_ok
            res = glnq.certify_ts(model, j)
            ok &= bool(res) and all(res.values())
            ok &= glnq.check_brudec(model, j)
    verdict(capsys, "c11 finite matrix group oracle", ok, t0, 120)


def test_c12_suite_determinism(capsys, tmp_path):
    """Two interpreters at the same time, one under python -O, write the
    canonical report, byte for byte."""
    t0 = time.time()
    paths = [tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"]
    # each interpreter writes only its own file
    procs = [subprocess.Popen(
        [sys.executable, *flags, "-m", "specrep.cli", "suite", "--out", str(path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for flags, path in zip(([], ["-O"]), paths)]
    try:
        codes = [proc.wait(timeout=300) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    same = paths[0].read_bytes() == paths[1].read_bytes()
    digest = hashlib.sha256(paths[0].read_bytes()).hexdigest()
    ok = codes == [0, 0] and same and digest == SUITE_SHA256
    verdict(capsys, "c12 byte-identical suite reruns", ok, t0)
