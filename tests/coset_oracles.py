"""Test oracles for the order <=_J, left descents and V^J(D), read from the
package's public walks; no verifier path in specrep calls them."""

from specrep.chains import upset
from specrep.jsets import wj_of_d
from specrep.weyl import enumerate_VJ, index_core


def leq_j(rs, j, a, b) -> bool:
    """a <=_J b: b reachable from a by projected-length-raising steps."""
    return b in upset(rs, j, a)


def left_descents(rs, w) -> tuple[int, ...]:
    """{s : l(s w) < l(w)}, read from the index core's left products."""
    core = index_core(rs)
    k, lens = core.index[w], core.lengths
    return tuple(i for i, row in enumerate(core.lmul) if lens[row[k]] < lens[k])


def vj_of_d(rs, j, mask: int) -> tuple:
    """V^J(D): the elements of W^J(D) that lie in V^J."""
    vj = set(enumerate_VJ(rs, j))
    return tuple(w for w in wj_of_d(rs, j, mask) if w in vj)
