"""The acceptance battery: every desk-scale check as one report record.

A record is {check_id, instance, status, detail} with status one of
pass / fail / skip.  Records are emitted in canonical sorted order and
contain nothing nondeterministic, so two runs with the same config
produce byte-identical reports.  Capacity misses (int64 range, eigenspace
line cap, oracle size) are skips; everything else that goes wrong is a
fail record.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import chains, glnq, hecke, linalg
from .errors import CapExceeded, SpecrepError
from .jsets import phi_j_table, quasi_parabolic_sets
from .roots import RootSystem, Weyl, root_system
from .vjmod import Ring, build_mj, restricted_exactness
from .weyl import (JSet, all_j, enumerate_VJ, enumerate_W, enumerate_WJ, group_order,
                   jlabel, length, longest_element, multiply, projection_table, subgroup,
                   w_table, wj_table, wlabel)

DEFAULT_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D4")


@dataclass(frozen=True)
class SuiteConfig:
    types: tuple[str, ...] = DEFAULT_TYPES
    primes: tuple[int, ...] = (2, 3)
    oracle_models: tuple[tuple[int, int], ...] = glnq.DEFAULT_MODELS
    exactness_max_rank: int = 3

    def validate(self) -> None:
        if self.exactness_max_rank <= 0:
            raise SpecrepError("exactness_max_rank must be positive")
        for p in self.primes:
            linalg.check_prime(p)


_timings: list[dict] | None = None  # the sink of run_suite(timings=...)


def _timed(check_id: str, instance: str, start: float) -> None:
    if _timings is not None:
        _timings.append({"check_id": check_id, "instance": instance,
                         "elapsed_s": round(time.perf_counter() - start, 6)})


def _record(records: list, check_id: str, instance: str, fn) -> None:
    start = time.perf_counter()
    try:
        ok, detail = fn()
        status = "pass" if ok else "fail"
    except CapExceeded as e:
        status, detail = "skip", f"{type(e).__name__}: {e}"
    except Exception as e:  # any module error becomes a failed record
        status, detail = "fail", f"{type(e).__name__}: {e}"
    records.append({"check_id": check_id, "instance": instance,
                    "status": status, "detail": detail})
    _timed(check_id, instance, start)


# ---------------------------------------------------------------- lemmas

def _counterexample(rs: RootSystem, what: str, j: JSet | None = None,
                    w: Weyl | None = None, s: int | None = None) -> tuple[bool, str]:
    """A failing (ok, detail) verdict that names its first counterexample."""
    where = [str(rs.ct)]
    if j is not None:
        where.append(f"J={jlabel(j)}")
    if w is not None:
        where.append(f"w={wlabel(w)}")
    if s is not None:
        where.append(f"s={s + 1}")
    return False, f"counterexample {' '.join(where)}: {what}"


def check_warmup(rs: RootSystem) -> tuple[bool, str]:
    """Projection shortens, parabolic factorizations add, w_Delta reverses."""
    table = w_table(rs)
    els, lens, index, perms = table.elements, table.lengths, table.index, table.perms
    wd = longest_element(rs)
    lwd = length(rs, wd)
    iwd = index[wd]
    wd_w = table.find(perms[iwd][perms]).tolist()
    w_wd = table.find(perms[:, perms[iwd]]).tolist()
    for w, lw in enumerate(lens):
        if lens[wd_w[w]] != lwd - lw:
            return _counterexample(rs, "l(wDelta w) != l(wDelta) - l(w)", w=els[w])
        if lens[w_wd[w]] != lwd - lw:
            return _counterexample(rs, "l(w wDelta) != l(wDelta) - l(w)", w=els[w])
    for j in all_j(rs.rank):
        proj = projection_table(rs, j)
        for w, lw in enumerate(lens):
            if lw < lens[proj[w]]:
                return _counterexample(rs, "l(w) < l(w^J)", j, els[w])
        # each w2 != 1 in W_J is (w2 s) s for its first right descent s, and
        # w2 s comes earlier in length order: w1 w2 is one lookup from w1 w2 s
        sub = [index[u] for u in subgroup(rs, j)]
        pos = {u: q for q, u in enumerate(sub)}
        parents = []
        for w2 in sub[1:]:
            row = next(r for r in table.rmul if lens[r[w2]] < lens[w2])
            parents.append((pos[row[w2]], row, w2))
        for w1 in [index[x] for x in enumerate_WJ(rs, j)]:
            prods = [w1]
            for q, row, w2 in parents:
                w = row[prods[q]]
                if lens[w] != lens[w1] + lens[w2]:
                    return _counterexample(rs, "w = w^J w_J with l(w) != l(w^J) + l(w_J)",
                                           j, els[w])
                prods.append(w)
    return True, "exhaustive"


def check_hilfe(rs: RootSystem) -> tuple[bool, str]:
    """For J inside J' and w in W^{J'}: Phi_J(w) - Phi_{J'}(w) is negative.
    Both sets are read for all of W^{J'} at once from its coset table."""
    npos = rs.num_positive
    for j2 in all_j(rs.rank):
        table = wj_table(rs, j2)
        outer = phi_j_table(rs, j2, table.perms)[:, :npos]
        for j in all_j(rs.rank):
            if not j <= j2:
                continue
            bad = (phi_j_table(rs, j, table.perms)[:, :npos] & ~outer).any(axis=1)
            if bad.any():
                return _counterexample(rs, "Phi_J(w) - Phi_J'(w) has a positive root, "
                                       f"J'={jlabel(j2)}", j, table.elements[int(bad.argmax())])
    return True, "exhaustive"


def _reach_bits(rs: RootSystem, j: JSet) -> list[int]:
    """Strict-upset bitmask over W positions for each element of W^J (by W
    position) under the order <_J; 0 off W^J."""
    table, proj = w_table(rs), projection_table(rs, j)
    reach = [0] * len(table.elements)
    for w in reversed([table.index[x] for x in enumerate_WJ(rs, j)]):  # longest first
        b = 0
        for _, v in chains.successor_indices(table, proj, w):
            b |= (1 << v) | reach[v]
        reach[w] = b
    return reach


def check_weylem(rs: RootSystem) -> tuple[bool, str]:
    """Parts (a)-(f) of the projection/length lemma, fully exhaustive."""
    table = w_table(rs)
    els, lens, lmul, index, perms = (table.elements, table.lengths, table.lmul,
                                     table.index, table.perms)
    wd = longest_element(rs)
    w_wd = table.find(perms[:, perms[index[wd]]]).tolist()
    reach0 = _reach_bits(rs, frozenset())
    for j in all_j(rs.rank):
        reach, proj = _reach_bits(rs, j), projection_table(rs, j)
        vj = {index[w] for w in enumerate_VJ(rs, j)}
        z = chains.z_j(rs, j)
        wjelt = longest_element(rs, j)
        zi = index[z]
        # (e) first half: z^J = w_Delta w_J lies in V^J and is the maximum of <_J
        if z != multiply(wd, wjelt) or zi not in vj:
            return _counterexample(rs, "part (e)", j, z)
        if reach[zi] != 0:  # nothing above the maximum
            return _counterexample(rs, "part (e)", j, z)
        for w in [index[x] for x in enumerate_WJ(rs, j)]:
            if w != zi and not reach[w] >> zi & 1:  # z above everything
                return _counterexample(rs, "part (e)", j, els[w])
            lw = lens[w]
            for s, row in enumerate(lmul):
                sw = row[w]
                v = proj[sw]
                lsw, lv = lens[sw], lens[v]
                if v != w and v != sw:  # (b) second half
                    return _counterexample(rs, "part (b)", j, els[w], s)
                if reach[w] >> v & 1 and not lw < lsw:
                    return _counterexample(rs, "part (a)", j, els[w], s)
                if lsw > lw and v != w:
                    if v != sw or not reach[w] >> sw & 1:
                        return _counterexample(rs, "part (b)", j, els[w], s)
                down_j = bool(reach[v] >> w & 1)
                if down_j != (lv < lw) or down_j != (lsw < lw):
                    return _counterexample(rs, "part (c)", j, els[w], s)
                if w in vj and lv > lw and v not in vj:
                    return _counterexample(rs, "part (f)", j, els[w], s)
        # (d): below-w_Jw_Delta in <_0 only meets W_J w_Delta inside W_J
        below = reach0[index[multiply(wjelt, wd)]]
        wjset = {index[u] for u in subgroup(rs, j)}
        for u in range(len(els)):
            if below >> w_wd[u] & 1 and u not in wjset:
                return _counterexample(rs, "part (d)", j, els[u])
        # (e) second half: descents of z^J descend everything <_0-above it
        descents = [s for s, row in enumerate(lmul) if lens[row[zi]] < lens[zi]]
        for u in range(len(els)):
            if u == zi or reach0[zi] >> u & 1:
                for s in descents:
                    if lens[lmul[s][u]] >= lens[u]:
                        return _counterexample(rs, "part (e)", j, els[u], s)
    return True, "parts a-f"


# -------------------------------------------------------------- batteries

def weyl_battery(cfg: SuiteConfig) -> list[dict]:
    records: list[dict] = []
    for t in cfg.types:
        def order_check(t=t):
            rs = root_system(t)
            n = len(enumerate_W(rs))
            return n == group_order(rs), f"|W|={n}"

        def longest_check(t=t):
            rs = root_system(t)
            wd = longest_element(rs)
            ok = length(rs, wd) == rs.num_positive and multiply(wd, wd) == rs.identity
            return ok, f"l(wD)={length(rs, wd)}"

        def inv_check(t=t):
            rs = root_system(t)
            table = w_table(rs)  # lengths: the inversions counted on each row
            bad = sum(1 for w, n in zip(table.elements, table.lengths) if length(rs, w) != n)
            return bad == 0, f"mismatches={bad}"

        def vjsum_check(t=t):
            rs = root_system(t)
            total = sum(len(enumerate_VJ(rs, j)) for j in all_j(rs.rank))
            return total == group_order(rs), f"sum|V^J|={total}"

        _record(records, "weyl.group_order", t, order_check)
        _record(records, "weyl.longest", t, longest_check)
        _record(records, "weyl.length_inversions", t, inv_check)
        _record(records, "weyl.vj_sum", t, vjsum_check)
    return records


def module_battery(cfg: SuiteConfig) -> list[dict]:
    records: list[dict] = []
    for t in cfg.types:
        def steinberg(t=t):
            rs = root_system(t)
            rep = build_mj(rs, frozenset())
            ok = rep.vj_size == 1 and rep.rank == 1 and rep.basis_ok
            return ok, f"rank={rep.rank}"

        _record(records, "module.steinberg", t, steinberg)
        try:
            rank = root_system(t).rank
        except SpecrepError:
            rank = 0
        for j in all_j(rank):
            def rank_check(t=t, j=j):
                rs = root_system(t)
                rep = build_mj(rs, j)
                if rep.rank != rep.vj_size:
                    return _counterexample(rs, f"rank {rep.rank} != |V^J| = {rep.vj_size}", j)
                if not rep.basis_ok:
                    return _counterexample(rs, "the V^J classes are not a basis", j)
                return True, f"rank={rep.rank} torsion=0"

            _record(records, "module.rank", f"{t} J={jlabel(j)}", rank_check)
    return records


def exactness_battery(cfg: SuiteConfig) -> list[dict]:
    records: list[dict] = []
    rings = [Ring("Q")] + [Ring("Fp", p) for p in cfg.primes]
    for t in cfg.types:
        try:
            rs = root_system(t)
        except SpecrepError:
            _record(records, "module.exactness", t, lambda t=t: (root_system(t), ""))
            continue
        if rs.rank > cfg.exactness_max_rank:
            continue
        for j in all_j(rs.rank):
            for ring in rings:
                def exact_check(t=t, j=j, ring=ring):
                    rs = root_system(t)
                    sets = quasi_parabolic_sets(rs, j)
                    for d in sets:
                        if not restricted_exactness(rs, j, d.mask, ring):
                            return _counterexample(
                                rs, f"not exact over {ring} at D={list(d.roots)}", j)
                    return True, f"{len(sets)} sets"

                _record(records, "module.exactness",
                        f"{t} J={jlabel(j)} ring={ring}", exact_check)
    return records


def chains_battery(cfg: SuiteConfig) -> list[dict]:
    records: list[dict] = []
    for t in cfg.types:
        _record(records, "chains.warmup", t, lambda t=t: check_warmup(root_system(t)))
        _record(records, "chains.hilfe", t, lambda t=t: check_hilfe(root_system(t)))
        _record(records, "chains.weylem", t, lambda t=t: check_weylem(root_system(t)))

        def w2_check(t=t):
            rs = root_system(t)
            steps = chains.weyllem2_chain(rs)
            chains.validate_weyllem2(rs, steps)
            return True, f"{len(steps)} steps"

        _record(records, "chains.weyllem2", t, w2_check)
        try:
            rank = root_system(t).rank
        except SpecrepError:
            rank = 0
        for j in all_j(rank):
            def w1_check(t=t, j=j):
                rs = root_system(t)
                z = chains.z_j(rs, j)
                n = 0
                for w in enumerate_VJ(rs, j):
                    if w != z:
                        chains.weyllem1_witness(rs, j, w)
                        n += 1
                return True, f"{n} witnesses"

            def lift_check(t=t, j=j):
                rs = root_system(t)
                n = 0
                for w in enumerate_WJ(rs, j):
                    steps = chains.lift_chain(rs, w)
                    chains.validate_lift(rs, j, w, steps)
                    n += 1
                return True, f"{n} lifts"

            _record(records, "chains.weyllem1", f"{t} J={jlabel(j)}", w1_check)
            _record(records, "chains.weyllem3", f"{t} J={jlabel(j)}", lift_check)
    return records


def _once(fn):
    """fn as a call that runs it the first time only and then replays its
    outcome: None, or the same exception raised again."""
    outcome: list = []

    def replay():
        if not outcome:
            try:
                fn()
                outcome.append(None)
            except Exception as e:
                outcome.append(e)
        if outcome[0] is not None:
            raise outcome[0]

    return replay


def hecke_battery(cfg: SuiteConfig) -> list[dict]:
    records: list[dict] = []
    for t in cfg.types:
        def pwdiff_check(t=t):
            rs = root_system(t)
            fps = set()
            for j in all_j(rs.rank):
                fp = hecke.fingerprint_j(rs, j)
                if fp in fps or hecke.recover_j(rs, fp) != j:
                    return False, f"J={jlabel(j)}"
                fps.add(fp)
            return True, f"{len(fps)} fingerprints"

        _record(records, "hecke.pwdiff", t, pwdiff_check)
        try:
            rank = root_system(t).rank
        except SpecrepError:
            rank = 0
        for j in all_j(rank):
            # p-independent: one premise-checked case table and one 0-Hecke
            # check over Z serve every prime
            walk = _once(lambda t=t, j=j: hecke.ts_maps(root_system(t), j))
            for p in cfg.primes:
                def tri_check(walk=walk):
                    walk()
                    return True, "cases+quadratic"

                def indeco_check(t=t, j=j, p=p):
                    rs = root_system(t)
                    ok = hecke.check_indeco(rs, j, p)
                    return ok, f"dim={len(enumerate_VJ(rs, j))}"

                def simple_check(t=t, j=j, p=p):
                    rs = root_system(t)
                    rep = hecke.check_simple(rs, j, p)
                    return rep.is_simple, (f"zj={rep.zj_in_every_orbit}"
                                           f" gen={rep.generation_ok}")

                inst = f"{t} J={jlabel(j)} p={p}"
                _record(records, "hecke.trichotomy", inst, tri_check)
                _record(records, "hecke.indeco", inst, indeco_check)
                _record(records, "hecke.simple", inst, simple_check)

    def control_check():
        rs = root_system("A2")
        rep = hecke.check_simple(rs, frozenset({0}), 2, include_omega=False)
        return not rep.generation_ok, "generation must fail without Omega"

    if "A2" in cfg.types:
        _record(records, "hecke.negative_control", "A2 J={1} p=2", control_check)
    return records


def oracle_battery(cfg: SuiteConfig) -> list[dict]:
    records: list[dict] = []
    for n, q in cfg.oracle_models:
        inst0 = f"n={n} q={q}"
        start = time.perf_counter()
        try:
            model = glnq.build_model(n, q)
        except SpecrepError as e:
            status = "skip" if isinstance(e, CapExceeded) else "fail"
            records.append({"check_id": "oracle.build", "instance": inst0,
                            "status": status, "detail": str(e)})
            _timed("oracle.build", inst0, start)
            continue
        records.append({"check_id": "oracle.build", "instance": inst0,
                        "status": "pass", "detail": f"|G|={len(model.elements)}"})
        _timed("oracle.build", inst0, start)
        for j in all_j(model.rs.rank):
            inst = f"{inst0} J={jlabel(j)}"

            def dim_check(model=model, j=j):
                rep = glnq.special_invariants(model, j)
                if rep.dim != rep.vj_size:
                    return _counterexample(
                        model.rs, f"invariants dim {rep.dim} != |V^J| = {rep.vj_size}", j)
                if not rep.basis_ok:
                    return _counterexample(model.rs, "the V^J cell classes are not a basis", j)
                return True, f"dim={rep.dim}"

            def ts_check(model=model, j=j):
                res = glnq.certify_ts(model, j)
                bad = [s for s, ok in sorted(res.items()) if not ok]
                if bad:
                    return _counterexample(model.rs, "coset-sum T_s != combinatorial T_s",
                                           j, s=bad[0])
                return True, f"{len(res)} operators"

            def bru_check(model=model, j=j):
                if glnq.check_brudec(model, j):
                    return True, "cells"
                w, s, what = glnq.brudec_counterexample(model, j)
                return _counterexample(model.rs, what, j, w, s)

            _record(records, "oracle.dims", inst, dim_check)
            _record(records, "oracle.ts_match", inst, ts_check)
            _record(records, "oracle.brudec", inst, bru_check)
    return records


# ------------------------------------------------------------------ suite

def run_suite(cfg: SuiteConfig | None = None,
              timings: list[dict] | None = None) -> tuple[int, list[dict]]:
    """All batteries in order; returns (exit status, sorted records).

    If timings is a list, it receives each record's elapsed seconds in run
    order and then each battery's total; the records do not change."""
    global _timings
    cfg = cfg or SuiteConfig()
    cfg.validate()
    records: list[dict] = []
    batteries = (("weyl", weyl_battery), ("module", module_battery),
                 ("exactness", exactness_battery), ("chains", chains_battery),
                 ("hecke", hecke_battery), ("oracle", oracle_battery))
    totals = []
    _timings = timings
    try:
        for name, battery in batteries:
            start = time.perf_counter()
            got = battery(cfg)
            totals.append({"battery": name, "records": len(got),
                           "elapsed_s": round(time.perf_counter() - start, 6)})
            records += got
    finally:
        _timings = None
    if timings is not None:
        timings += totals
    records.sort(key=lambda r: (r["check_id"], r["instance"]))
    status = 0 if all(r["status"] != "fail" for r in records) else 1
    return status, records


def to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


def to_tsv(records: list[dict]) -> str:
    cols = ("check_id", "instance", "status", "detail")
    lines = ["\t".join(cols)]
    lines += ["\t".join(str(r[c]) for c in cols) for r in records]
    return "\n".join(lines) + "\n"
