"""The order <_J on W^J, witness search, the Omega subgroup, chain builders.

A chain step either left-multiplies by a simple reflection (raising length
by one) or left-multiplies by an element of the Omega subgroup

    W_Omega = {1} + {w_{Delta^(i)} w_Delta : highest-root coefficient of
                     alpha_i is 1, per factor},

taken factorwise for products.  weyllem2_chain links w_Delta to the
identity; lift_chain refines it modulo J and appends a reduced word."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import ChainInvalid, NotOmegaElement, NoWitness
from .roots import Block, RootSystem, Weyl, cached
from .weyl import (CosetTable, JSet, enumerate_VJ, flat, jlabel, length, longest_element,
                   multiply, projection_table, w_table, wlabel)


@cached
def z_j(rs: RootSystem, j: JSet) -> Weyl:
    """The maximum of (W^J, <_J): w_Delta * w_J."""
    return multiply(longest_element(rs), longest_element(rs, j))


def successor_indices(table: CosetTable, proj: list[int], w: int) -> list[tuple[int, int]]:
    """successors on positions in W's table; proj is the projection_table of J."""
    lens, out = table.lengths, []
    for i, row in enumerate(table.lmul):
        v = proj[row[w]]
        if lens[v] > lens[w]:
            out.append((i, v))
    return out


def successors(rs: RootSystem, j: JSet, w: Weyl) -> list[tuple[int, Weyl]]:
    """(s, (sw)^J) pairs with strictly larger projected length."""
    table = w_table(rs)
    return [(i, table.elements[v])
            for i, v in successor_indices(table, projection_table(rs, j), table.index[w])]


def weyllem1_witness(rs: RootSystem, j: JSet, w: Weyl) -> tuple[Weyl, int]:
    """(w', s) with w <_J w', l((sw)^J) < l(w), l((sw')^J) >= l(w').

    Exhaustive breadth-first search, smallest (chain length, s index) first;
    defined for w in V^J different from z_J."""
    table, proj = w_table(rs), projection_table(rs, j)
    lens, lmul = table.lengths, table.lmul
    vj = _vj_positions(rs, j)
    start = table.index[w]
    down = [i for i, row in enumerate(lmul) if lens[proj[row[start]]] < lens[start]]
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for _, v2 in successor_indices(table, proj, v):
                if v2 not in seen:
                    seen.add(v2)
                    new.append(v2)
        new.sort()  # table order is (length, flattened tuple)
        for wp in new:
            if wp in vj:
                for i in down:
                    if lens[proj[lmul[i][wp]]] >= lens[wp]:
                        return table.elements[wp], i
        frontier = new
    raise NoWitness(f"{rs.ct} J={jlabel(j)} w={wlabel(w)}: no witness")


@cached
def _vj_positions(rs: RootSystem, j: JSet) -> set[int]:
    """V^J as positions in W's table."""
    index = w_table(rs).index
    return {index[v] for v in enumerate_VJ(rs, j)}


# --- the Omega subgroup ---


@cached
def omega_factor_table(rs: RootSystem) -> tuple[tuple[tuple[int, Weyl], ...], ...]:
    """Per factor: (defining simple index i, w_{Delta^(i)} w_Delta) pairs."""
    table = []
    for fi, fac in enumerate(rs.factors):
        delta_f = frozenset(range(fac.soff, fac.soff + fac.rank))
        w0f = longest_element(rs, delta_f)
        entries = []
        for i in rs.mark_one_simples(fi):
            u = multiply(longest_element(rs, delta_f - {i}), w0f)
            entries.append((i, u))
        table.append(tuple(entries))
    return tuple(table)


@cached
def omega_group(rs: RootSystem) -> tuple[Weyl, ...]:
    """All elements of W_Omega (componentwise products, identity included)."""
    per_factor = [[rs.identity] + [u for _, u in entries]
                  for entries in omega_factor_table(rs)]
    elems = set()
    for combo in itertools.product(*per_factor):
        u = rs.identity
        for x in combo:
            u = multiply(u, x)
        elems.add(u)
    return tuple(sorted(elems, key=lambda w: (length(rs, w), flat(w))))


@cached
def _omega_set(rs: RootSystem) -> frozenset[Weyl]:
    return frozenset(omega_group(rs))


def is_omega(rs: RootSystem, u: Weyl) -> bool:
    return u in _omega_set(rs)


def require_omega(rs: RootSystem, u: Weyl) -> Weyl:
    if not is_omega(rs, u):
        raise NotOmegaElement(f"{u}")
    return u


# --- explicit chains ---


@dataclass(frozen=True, slots=True)
class ChainStep:
    kind: str             # "s" or "omega"
    index: int | None     # global simple index for s-steps
    elt: Weyl | None      # Omega element for omega-steps
    frm: Weyl
    to: Weyl


def _rot(l: int, i: int) -> Block:
    return tuple(range(i + 1, l + 2)) + tuple(range(1, i + 1))


def _chain_a(l: int) -> list[tuple[str, object]]:
    steps: list[tuple[str, object]] = []
    for i in range(1, l + 1):
        steps.append(("omega", _rot(l, i)))
        if i < l:
            for jj in range(i, 0, -1):
                for mu in range(jj, l - i + jj):
                    steps.append(("s", mu))
    return steps


def _a_descent(l: int, rho_macro: list[tuple[str, object]]) -> list[tuple[str, object]]:
    """Walk [l..1] down to the identity inside the positive-entry copy of A_{l-1}.

    Value transpositions (mu, mu+1) carry the local label l-mu; each rotation
    is rho applied l-i times."""
    steps: list[tuple[str, object]] = []
    m = l - 1
    for i in range(1, m + 1):
        for _ in range(l - i):
            steps.extend(rho_macro)
        if i < m:
            for jj in range(i, 0, -1):
                for mu in range(jj, m - i + jj):
                    steps.append(("s", l - mu))
    return steps


def _chain_bc(l: int, fam: str) -> list[tuple[str, object]]:
    steps: list[tuple[str, object]] = []
    if fam == "B":
        u = tuple(range(1, l)) + (-l,)
        for i in range(1, l + 1):
            steps.append(("omega", u))
            if i < l:
                for mu in range(1, l - i + 1):
                    steps.append(("s", mu))
        rho = [("s", k) for k in range(l, 0, -1)] + [("omega", u)]
    else:
        u = tuple(range(-l, 0))
        steps.append(("omega", u))
        rho = [("s", k) for k in range(l, 0, -1)] + [("omega", u), ("s", l), ("omega", u)]
    steps.extend(_a_descent(l, rho))
    return steps


def _chain_d(l: int) -> list[tuple[str, object]]:
    u1 = (-1,) + tuple(range(2, l)) + (-l,)
    if l % 2 == 0:
        ul = tuple(range(-l, 0))
    else:
        ul = (l,) + tuple(range(-(l - 1), 0))
    steps: list[tuple[str, object]] = [("omega", ul)]
    rho = [("s", l)] + [("s", k) for k in range(l - 2, 0, -1)] + [("omega", u1)]
    steps.extend(_a_descent(l, rho))
    return steps


@cached
def weyllem2_chain(rs: RootSystem) -> list[ChainStep]:
    """Chain from w_Delta to the identity, factor by factor."""
    cur = longest_element(rs)
    out: list[ChainStep] = []
    for fi, fac in enumerate(rs.factors):
        if fac.family == "A":
            local = _chain_a(fac.rank)
        elif fac.family in "BC":
            local = _chain_bc(fac.rank, fac.family)
        else:
            local = _chain_d(fac.rank)
        for kind, payload in local:
            if kind == "s":
                gi = fac.soff + payload - 1
                nxt = multiply(rs.simple_reflections[gi], cur)
                out.append(ChainStep("s", gi, None, cur, nxt))
            else:
                u = tuple(payload if gi == fi else rs.identity_block(gi)
                          for gi in range(len(rs.factors)))
                nxt = multiply(u, cur)
                out.append(ChainStep("omega", None, u, cur, nxt))
            cur = nxt
    if cur != rs.identity:
        raise ChainInvalid("chain did not reach the identity")
    return out


def lift_chain(rs: RootSystem, w: Weyl) -> list[ChainStep]:
    """weyllem2 steps then a reduced word of w.  The chain carries no J:
    for each J with w in W^J its projections link z_J to w, which
    validate_lift checks; the steps stay in W."""
    return [*weyllem2_chain(rs), *_word_steps(rs, w_table(rs).index[w])]


@cached
def _word_steps(rs: RootSystem, k: int) -> tuple[ChainStep, ...]:
    """The s-steps of a reduced word from the identity to W's element at
    position k: those to s*w, s its smallest left descent, then the step
    into k.  Each step is built once per target element and shared by
    every word through it."""
    if not k:  # the identity is position 0
        return ()
    table = w_table(rs)
    els, lens, lmul = table.elements, table.lengths, table.lmul
    i = next(s for s, row in enumerate(lmul) if lens[row[k]] < lens[k])
    return (*_word_steps(rs, lmul[i][k]), ChainStep("s", i, None, els[lmul[i][k]], els[k]))


def validate_weyllem2(rs: RootSystem, steps: list[ChainStep]) -> None:
    """Stepwise invariants of a w_Delta -> 1 chain; raises ChainInvalid."""
    if not steps or steps[0].frm != longest_element(rs):
        raise ChainInvalid("chain must start at the longest element")
    if steps[-1].to != rs.identity:
        raise ChainInvalid("chain must end at the identity")
    prev = steps[0].frm
    for k, st in enumerate(steps):
        if st.frm != prev:
            raise ChainInvalid(f"step {k}: broken link")
        if st.kind == "s":
            if st.to != multiply(rs.simple_reflections[st.index], st.frm):
                raise ChainInvalid(f"step {k}: wrong s-product")
            if length(rs, st.to) != length(rs, st.frm) + 1:
                raise ChainInvalid(f"step {k}: s-step must raise length by one")
        elif st.kind == "omega":
            require_omega(rs, st.elt)
            if st.to != multiply(st.elt, st.frm):
                raise ChainInvalid(f"step {k}: wrong omega product")
        else:
            raise ChainInvalid(f"step {k}: unknown kind {st.kind}")
        prev = st.to


def _over_z_j(rs: RootSystem, j: JSet, w: Weyl, fail: str) -> int:
    """The W position of w, which must project to z_J: else ChainInvalid(fail)."""
    index = w_table(rs).index
    cur = index.get(w)
    if cur is None or projection_table(rs, j)[cur] != index[z_j(rs, j)]:
        raise ChainInvalid(fail)
    return cur


def _validate_steps(rs: RootSystem, j: JSet, steps: list[ChainStep], first: int, cur: int) -> int:
    """Check steps[first:] from the element at W position cur; return the
    position reached.  Each step's product is read off W's table and
    compared with its target, so an element outside W fails there."""
    table, proj = w_table(rs), projection_table(rs, j)
    els, lens, perms = table.elements, table.lengths, table.perms
    prev = els[cur]
    for k in range(first, len(steps)):
        st = steps[k]
        if st.frm != prev:
            raise ChainInvalid(f"step {k}: broken link")
        if st.kind == "omega":
            if not is_omega(rs, st.elt):
                raise ChainInvalid(f"step {k}: {st.elt} is not in Omega")
            nxt = int(table.find(perms[table.index[st.elt]][perms[cur]]))
            if els[nxt] != st.to:
                raise ChainInvalid(f"step {k}: wrong omega product")
        elif st.kind == "s":
            nxt = table.lmul[st.index][cur]
            if els[nxt] != st.to:
                raise ChainInvalid(f"step {k}: wrong s-product")
            pf, pt = proj[cur], proj[nxt]
            if pt != pf and lens[pt] <= lens[pf]:
                raise ChainInvalid(f"step {k}: projection neither kept nor raised")
            if lens[nxt] != lens[cur] + 1:
                raise ChainInvalid(f"step {k}: s-step must raise length by one")
        else:
            raise ChainInvalid(f"step {k}: unknown kind {st.kind}")
        prev, cur = st.to, nxt
    return cur


@cached
def _checked_prefix(rs: RootSystem, j: JSet) -> tuple[tuple[ChainStep, ...], int | None]:
    """The weyllem2 steps that every lift_chain starts with, and the W
    position they reach as a lift for J (None if they fail as one)."""
    try:
        prefix = tuple(weyllem2_chain(rs))
        return prefix, _validate_steps(rs, j, prefix, 0, _over_z_j(rs, j, prefix[0].frm, ""))
    except ChainInvalid:
        return (), None


def validate_lift(rs: RootSystem, j: JSet, w: Weyl, steps: list[ChainStep]) -> None:
    """Projected contract: start projects to z_J, end to w, s-steps keep or
    raise the projection and raise the length by one (equal projections
    count as a trivial omega step).

    A lift whose first steps are the weyllem2 step objects themselves
    (lift_chain's; ChainStep is frozen) skips them: they are checked once
    per (type, J).  Any other list, an equal copy included, is checked
    step by step."""
    if not steps:
        _over_z_j(rs, j, w, "empty lift only allowed at the maximum")
        return
    first, cur = 0, _over_z_j(rs, j, steps[0].frm, "lift must start over z_J")
    prefix, end = _checked_prefix(rs, j)
    if end is not None and len(steps) >= len(prefix) and all(map(operator.is_, prefix, steps)):
        first, cur = len(prefix), end
    cur = _validate_steps(rs, j, steps, first, cur)
    if w_table(rs).elements[projection_table(rs, j)[cur]] != w:
        raise ChainInvalid("lift must end over w")
