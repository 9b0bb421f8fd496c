"""Test oracles for membership in W^J and V^J, the projection w -> w^J,
inversions, reduced words, the order <=_J, left descents, Phi_J(w) and
W^J(D), read from the root action, the tuples and the package's public
walks; no verifier path in specrep calls them."""

from specrep.chains import successors
from specrep.jsets import indices_of, phi_j_one_mask
from specrep.weyl import enumerate_WJ, image_positive, multiply, simple, vj_rows, w_table


def project(rs, w, j):
    """Minimal coset representative of wW_J: strip negative J-images, smallest index first."""
    idx = sorted(j)
    while True:
        for i in idx:
            if not image_positive(rs, w, i):
                w = multiply(w, rs.simple_reflections[i])
                break
        else:
            return w


def in_WJ(rs, w, j) -> bool:
    return all(image_positive(rs, w, i) for i in j)


def in_VJ(rs, w, j) -> bool:
    return in_WJ(rs, w, j) and all(not image_positive(rs, w, i)
                                   for i in range(rs.rank) if i not in j)


def inversion_roots(rs, w) -> list[int]:
    """Positive roots sent negative by w; its size equals length(w)."""
    return [ri for ri in range(rs.num_positive) if not rs.is_positive(rs.act_root(w, ri))]


def upset(rs, j, a) -> set:
    """All w with a <=_J w: the closure of {a} under successors."""
    seen, stack = {a}, [a]
    while stack:
        for _, v in successors(rs, j, stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def leq_j(rs, j, a, b) -> bool:
    """a <=_J b: b reachable from a by projected-length-raising steps."""
    return b in upset(rs, j, a)


def left_descents(rs, w) -> tuple[int, ...]:
    """{s : l(s w) < l(w)}, read from the left products of W's table."""
    table = w_table(rs)
    k, lens = table.index[w], table.lengths
    return tuple(i for i, row in enumerate(table.lmul) if lens[row[k]] < lens[k])


def reduced_word(rs, w) -> tuple[int, ...]:
    """Indices i_1..i_m with w = s_{i_1} * ... * s_{i_m}, greedy smallest descent."""
    word = []
    while w != rs.identity:
        i = left_descents(rs, w)[0]
        word.append(i)
        w = multiply(simple(rs, i), w)
    return tuple(word)


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def phi_j_mask(rs, j, w) -> int:
    """Bitmask of Phi_J(w) = w . Phi_J(1), for any w of W, by the root action."""
    return mask_of(rs.act_root(w, ri) for ri in indices_of(phi_j_one_mask(rs, j)))


def wj_of_d(rs, j, mask: int, masks: list[int]) -> tuple:
    """W^J(D): minimal representatives whose Phi_J(w) contains D; masks is
    phi_j_masks(rs, j) as a list, read once per J."""
    return tuple(w for w, m in zip(enumerate_WJ(rs, j), masks) if m & mask == mask)


def vj_of_d(rs, j, mask: int, masks: list[int]) -> tuple:
    """V^J(D): the elements at the V^J rows of W^J whose Phi_J(w), read
    from masks as in wj_of_d, contains D."""
    wj = enumerate_WJ(rs, j)
    return tuple(wj[i] for i in vj_rows(rs, j).tolist() if masks[i] & mask == mask)
