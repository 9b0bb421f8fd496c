"""Test oracles for the module statements of specrep.vjmod, read from the
definitions with coset_oracles.project and weyl.subgroup, not from the boundary
columns or the certificate.

boundary_fiber is the fiber of one boundary column, from tuple products.
normal_form expands a vector of L[W^J] over the V^J basis.
sigma_vector is the alternating sum over W_{Delta-J} whose images must lie
in the kernel of every dual boundary component, and
dual_boundary_component is the alpha-component of that dual map.
"""

import numpy as np

from specrep.errors import BadAlpha
from specrep.vjmod import normal_form_matrix
from specrep.weyl import enumerate_WJ, length, multiply, subgroup

from coset_oracles import project


def boundary_fiber(rs, j, alpha, w):
    """All w' in W^J whose coset w'W_J lies inside wW_{J+alpha}, in W^J order:
    the projections of w*u over u in W_{J+alpha}."""
    got = {project(rs, multiply(w, u), j) for u in subgroup(rs, j | {alpha})}
    return tuple(x for x in enumerate_WJ(rs, j) if x in got)


def normal_form(rs, j, vec):
    """Expand an L[W^J] vector (dict) over the V^J basis; exact integers."""
    wj = enumerate_WJ(rs, j)
    idx = {w: i for i, w in enumerate(wj)}
    row = np.zeros(len(wj), dtype=np.int64)
    for w, c in vec.items():
        row[idx[w]] += c
    return row @ normal_form_matrix(rs, j)


def sigma_vector(rs, j, wprime):
    """Alternating sum over W_{Delta-J}: sum of (-1)^l(v) (w'v)^J, as a dict."""
    comp = frozenset(range(rs.rank)) - j
    out = {}
    for v in subgroup(rs, comp):
        target = project(rs, multiply(wprime, v), j)
        out[target] = out.get(target, 0) + (-1) ** length(rs, v)
    return {w: c for w, c in out.items() if c}


def dual_boundary_component(rs, j, alpha, wprime):
    """alpha-component of the dual map: the minimal representative of w'W_{J+alpha}."""
    if alpha in j or not 0 <= alpha < rs.rank:
        raise BadAlpha(f"alpha={alpha} with J={sorted(j)}")
    return project(rs, wprime, j | {alpha})
