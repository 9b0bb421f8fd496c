"""Test oracles for the module statements of specrep.vjmod, read from the
definitions with coset_oracles.project and weyl.subgroup, not from the boundary
columns or the certificate.

boundary_fiber is the fiber of one boundary column, from tuple products;
dense_boundary is the whole boundary as a dense 0/1 matrix of those fibers,
and densify makes the dense matrix of an entry list (rows, cols) such as
vjmod.boundary_columns returns, planted corruptions included.
normal_form expands a vector of L[W^J] over the V^J basis.
sigma_vector is the alternating sum over W_{Delta-J} whose images must lie
in the kernel of every dual boundary component, and
dual_boundary_component is the alpha-component of that dual map.
"""

import functools

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


def boundary_labels(rs, j):
    """(alpha, u) per boundary column, in column order: the alpha outside J,
    and for each the elements u of W^{J+alpha}."""
    return [(a, u) for a in range(rs.rank) if a not in j for u in enumerate_WJ(rs, j | {a})]


@functools.cache
def dense_boundary(rs, j):
    """|W^J| x (number of columns) int64 0/1 matrix whose column (alpha, u)
    is the indicator of boundary_fiber(rs, j, alpha, u); read-only."""
    wj = enumerate_WJ(rs, j)
    idx = {w: i for i, w in enumerate(wj)}
    labels = boundary_labels(rs, j)
    d = np.zeros((len(wj), len(labels)), dtype=np.int64)
    for c, (alpha, u) in enumerate(labels):
        d[[idx[w] for w in boundary_fiber(rs, j, alpha, u)], c] = 1
    d.setflags(write=False)
    return d


def densify(rs, j, rows, cols):
    """The dense boundary of an entry list: each pair (row, column) adds 1,
    so a repeated pair is an entry 2."""
    d = np.zeros((len(enumerate_WJ(rs, j)), len(boundary_labels(rs, j))), dtype=np.int64)
    np.add.at(d, (rows, cols), 1)
    return d


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
