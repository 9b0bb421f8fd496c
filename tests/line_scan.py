"""The exhaustive projective line scan, kept as a test oracle for the socle
certificate and the joint-eigenspace search in specrep.hecke.

Every line of F_p^dim is checked: does its orbit span contain g_{z^J}?
Names resolve through the hecke module, so a test that patches
hecke.enumerate_VJ, hecke.ts_maps or hecke.omega_matrix patches the scan too.
"""

import numpy as np

from specrep import hecke


def line_reps(dim: int, p: int) -> np.ndarray:
    """One representative per scalar line of F_p^dim: leading coefficient 1,
    ordered by leading position then tail digits (most significant first)."""
    blocks = []
    for lead in range(dim):
        tail = dim - lead - 1
        cnt = p ** tail
        arr = np.zeros((cnt, dim), dtype=np.int64)
        arr[:, lead] = 1
        r = np.arange(cnt)
        for k in range(tail):
            arr[:, lead + 1 + k] = (r // p ** (tail - 1 - k)) % p
        blocks.append(arr)
    return np.vstack(blocks)


def dense(m, p: int) -> np.ndarray:
    """The matrix mod p of a monomial map: row r is coef[r] e_{tgt[r]}."""
    mat = np.zeros((len(m.tgt), len(m.tgt)), dtype=np.int64)
    mat[np.arange(len(m.tgt)), m.tgt] = m.coef % p
    return mat


def full_scan(rs, j, p: int, include_omega: bool):
    """(ok, first counterexample line) over all (p^dim - 1)/(p - 1) lines.

    Lines from which the z^J line is reachable by a chain of single operator
    applications are good in bulk; the leftovers get a span closure each."""
    vj = hecke.enumerate_VJ(rs, j)
    dim = len(vj)
    target = np.zeros(dim, dtype=np.int64)
    target[vj.index(hecke.z_j(rs, j))] = 1
    ops = [dense(m, p) if isinstance(m, hecke.Monomial) else m
           for m in hecke.operator_set(rs, j, p, include_omega)]
    lines = line_reps(dim, p)
    n = lines.shape[0]
    weights = p ** np.arange(dim, dtype=np.int64)
    table = np.full(p ** dim, -1, dtype=np.int64)
    table[lines @ weights] = np.arange(n)
    inv = np.array([0] + [pow(c, p - 2, p) for c in range(1, p)], dtype=np.int64)
    succ = np.full((n, len(ops)), -1, dtype=np.int64)
    for k, m in enumerate(ops):
        ims = (lines @ m) % p
        nzmask = ims.any(axis=1)
        lead = np.argmax(ims != 0, axis=1)
        ims = (ims * inv[ims[np.arange(n), lead]][:, None]) % p
        succ[nzmask, k] = table[(ims @ weights)[nzmask]]
    good = np.zeros(n, dtype=bool)
    good[int(table[int(target @ weights)])] = True
    while True:
        reach = succ[~good]
        hit = np.zeros(reach.shape[0], dtype=bool)
        for k in range(len(ops)):
            col = reach[:, k]
            hit |= (col >= 0) & good[np.maximum(col, 0)]
        if not hit.any():
            break
        good[np.nonzero(~good)[0][hit]] = True
    for r in np.nonzero(~good)[0]:
        if hecke.span_closure([lines[int(r)]], ops, p, dim).append(target):
            return False, tuple(int(x) for x in lines[int(r)])
    return True, None
