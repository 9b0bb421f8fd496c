"""Independent oracles for the case table and the class-merging eigenspaces
of specrep.hecke.

case_by_projection decides the T_s case of (w, s) from the projection
(sw)^J walked by coset_oracles.project and raw length comparisons.
eigenspaces_by_descent finds the joint eigenspaces
E_chi = {v : v T_s = -chi_s v for all s} by mod-p elimination on the dense
T_s matrices, depth-first over s, one kernel at a time, pruning empty
branches.  Neither reads the case table or the monomial maps directly.
"""

import numpy as np

from specrep import linalg
from specrep.hecke import ts_matrix
from specrep.weyl import enumerate_VJ, length, multiply, simple

from coset_oracles import in_VJ, project


def case_by_projection(rs, j, w, s) -> str:
    """The case of (w, s), w in W^J, from (sw)^J; raises AssertionError
    unless exactly one case holds and case (b) lands on sw, in V^J when w is."""
    sw = multiply(simple(rs, s), w)
    swj = project(rs, sw, j)
    lw, lswj = length(rs, w), length(rs, swj)
    a, b, c = swj == w, swj != w and lswj > lw, lswj < lw
    assert a + b + c == 1
    if b:
        assert swj == sw
        assert not in_VJ(rs, w, j) or in_VJ(rs, sw, j)
    return "a" if a else ("b" if b else "c")


def eigenspaces_by_descent(rs, j, p: int) -> list[np.ndarray]:
    """Row bases of the nonzero E_chi over F_p, chi in lexicographic order."""
    ops = [ts_matrix(rs, j, s, p) for s in range(rs.rank)]
    eye = np.eye(len(enumerate_VJ(rs, j)), dtype=np.int64)
    spaces: list[np.ndarray] = []

    def descend(basis: np.ndarray, s: int) -> None:
        if s == len(ops):
            spaces.append(basis)
            return
        for chi in (0, 1):
            image = (basis @ ((ops[s] + chi * eye) % p)) % p
            coeffs, _ = linalg.modp_nullspace(image.T, p)
            if coeffs.shape[0]:
                descend((coeffs @ basis) % p, s + 1)

    descend(eye, 0)
    return spaces
