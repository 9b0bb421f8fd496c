"""Command line interface: one subcommand per verification surface.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error,
3 capacity cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import chains, glnq, hecke
from . import suite as suitemod
from .errors import (CapExceeded, ChainInvalid, NonPrimeCharacteristic,
                     SpecrepError, UnsupportedType)
from .jsets import quasi_parabolic_sets
from .roots import RootSystem, root_system
from .vjmod import Ring, build_mj, restricted_exactness
from .weyl import (JSet, all_j, enumerate_VJ, enumerate_WJ, flat, group_order,
                   length, longest_element)

EXIT_OK, EXIT_CHECK, EXIT_USAGE, EXIT_CAP = 0, 1, 2, 3


class UsageError(SpecrepError):
    """Bad command line input."""


def _parse_j(text: str | None, rank: int) -> list[JSet]:
    """Comma separated 1-based indices; '' is the empty set, 'all' iterates."""
    if text is None or text == "all":
        return all_j(rank)
    if text == "":
        return [frozenset()]
    try:
        idx = [int(part) - 1 for part in text.split(",")]
    except ValueError as e:
        raise UsageError(f"cannot parse --j {text!r}") from e
    if len(set(idx)) != len(idx) or any(not 0 <= i < rank for i in idx):
        raise UsageError(f"--j {text!r} out of range for rank {rank}")
    return [frozenset(idx)]


def _parse_ring(text: str) -> Ring:
    try:
        return Ring.parse(text)
    except SpecrepError as e:
        raise UsageError(str(e)) from e


def _jout(j: JSet) -> list[int]:
    return [i + 1 for i in sorted(j)]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _key(k) -> str:
    """A dict key as json writes it: a str as is; an int, float, bool or None
    as its JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _indented(obj, pad: str) -> str:
    """obj byte for byte as json writes it with sorted keys and an indent of
    2, with pad the indent of the line obj starts on.  json runs its pure
    Python encoder whenever indent is set; this writer joins each container
    in one call, and a list of exact ints in one str map.  Values that are
    not containers, str, exact int, bool or None go to json's C encoder, so
    floats and unknown types come out, or raise, as they do there."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if type(obj) is int:  # no bool, no int subclass
        return str(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:  # no bool, no int subclass
            items = map(str, obj)
        else:
            items = [_indented(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(_key(k)) + ": " + _indented(v, inner)
                 for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(obj)


def _dump(obj, out: str | None) -> None:
    _emit(_indented(obj, "") + "\n", out)


# --------------------------------------------------------------- commands

def cmd_rootdata(args) -> int:
    rs = root_system(args.type)
    obj = {
        "type": str(rs.ct),
        "rank": rs.rank,
        "num_positive": rs.num_positive,
        "group_order": group_order(rs),
        "longest": list(flat(longest_element(rs))),
        "mark_one_simples": sorted(i + 1 for fi in range(len(rs.factors))
                                   for i in rs.mark_one_simples(fi)),
        "simple_roots": [list(rs.roots[rs.simple_indices[i]].coords)
                         for i in range(rs.rank)],
        "highest_roots": [list(rs.roots[h].coords) for h in rs.highest],
    }
    _dump(obj, args.out)
    return EXIT_OK


def cmd_vj(args) -> int:
    rs = root_system(args.type)
    out = []
    for j in _parse_j(args.j, rs.rank):
        vj = enumerate_VJ(rs, j)
        out.append({
            "j": _jout(j),
            "wj_size": len(enumerate_WJ(rs, j)),
            "vj_size": len(vj),
            "z": list(flat(chains.z_j(rs, j))),
            "vj": [list(flat(w)) for w in vj],
        })
    _dump(out, args.out)
    return EXIT_OK


def cmd_qp(args) -> int:
    rs = root_system(args.type)
    out = []
    for j in _parse_j(args.j, rs.rank):
        sets = quasi_parabolic_sets(rs, j)
        out.append({
            "j": _jout(j),
            "count": len(sets),
            "sets": [d.roots for d in sets],
        })
    _dump(out, args.out)
    return EXIT_OK


def cmd_module(args) -> int:
    rs = root_system(args.type)
    ring = _parse_ring(args.ring)
    out, failed = [], False
    for j in _parse_j(args.j, rs.rank):
        rep = build_mj(rs, j)
        ok = rep.rank == rep.vj_size and rep.basis_ok
        failed |= not ok
        out.append({
            "j": _jout(j), "ring": str(ring), "wj_size": rep.wj_size,
            "vj_size": rep.vj_size, "rank": rep.rank,
            "torsion": [], "basis_ok": rep.basis_ok, "ok": ok,
        })
    _dump(out, args.out)
    return EXIT_CHECK if failed else EXIT_OK


def cmd_exactness(args) -> int:
    rs = root_system(args.type)
    rings = ([_parse_ring(args.ring)] if args.ring
             else [Ring("Q"), Ring("Fp", 2), Ring("Fp", 3)])
    out, failed = [], False
    for j in _parse_j(args.j, rs.rank):
        sets = quasi_parabolic_sets(rs, j)
        for ring in rings:
            ok = all(restricted_exactness(rs, j, d.mask, ring) for d in sets)
            failed |= not ok
            out.append({"j": _jout(j), "ring": str(ring),
                        "sets": len(sets), "ok": ok})
    _dump(out, args.out)
    return EXIT_CHECK if failed else EXIT_OK


def _step_obj(rs: RootSystem, st: chains.ChainStep) -> dict:
    return {
        "kind": st.kind,
        "s": None if st.index is None else st.index + 1,
        "elt": None if st.elt is None else list(flat(st.elt)),
        "frm": list(flat(st.frm)),
        "to": list(flat(st.to)),
        "frm_len": length(rs, st.frm),
        "to_len": length(rs, st.to),
    }


def cmd_chain(args) -> int:
    rs = root_system(args.type)
    steps = chains.weyllem2_chain(rs)
    try:
        chains.validate_weyllem2(rs, steps)
        ok = True
    except ChainInvalid:
        ok = False
    _dump({"type": str(rs.ct), "ok": ok,
           "steps": [_step_obj(rs, st) for st in steps]}, args.out)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_omega(args) -> int:
    rs = root_system(args.type)
    elts = chains.omega_group(rs)
    idx = {u: i for i, u in enumerate(elts)}
    table = [[idx[chains.multiply(a, b)] for b in elts] for a in elts]
    factors = [[{"s": i + 1, "elt": list(flat(u))} for i, u in per]
               for per in chains.omega_factor_table(rs)]
    _dump({"type": str(rs.ct), "order": len(elts),
           "elements": [list(flat(u)) for u in elts],
           "table": table, "factors": factors}, args.out)
    return EXIT_OK


def cmd_hecke(args) -> int:
    rs = root_system(args.type)
    p = args.p
    out = []
    for j in _parse_j(args.j, rs.rank):
        ts = {str(s + 1): hecke.ts_matrix(rs, j, s, p).tolist()
              for s in range(rs.rank)}
        omega = [{"u": list(flat(u)),
                  "mat": hecke.omega_matrix(rs, j, u, p).tolist()}
                 for u in chains.omega_group(rs) if u != rs.identity]
        out.append({"j": _jout(j), "p": p,
                    "basis": [list(flat(w)) for w in enumerate_VJ(rs, j)],
                    "ts": ts, "omega": omega})
    _dump(out, args.out)
    return EXIT_OK


def cmd_irreducible(args) -> int:
    rs = root_system(args.type)
    p = args.p
    out, failed, capped = [], False, False
    for j in _parse_j(args.j, rs.rank):
        try:
            rep = hecke.check_simple(rs, j, p)
        except CapExceeded as e:
            capped = True
            out.append({"j": _jout(j), "p": p, "status": "skip",
                        "detail": str(e)})
            continue
        failed |= not rep.is_simple
        out.append({
            "j": _jout(j), "p": p, "dim": rep.dim,
            "zj_in_every_orbit": rep.zj_in_every_orbit,
            "generation_ok": rep.generation_ok, "is_simple": rep.is_simple,
            "counterexample": (None if rep.counterexample is None
                               else list(rep.counterexample)),
            "status": "pass" if rep.is_simple else "fail",
        })
    _dump(out, args.out)
    if failed:
        return EXIT_CHECK
    return EXIT_CAP if capped else EXIT_OK


def cmd_oracle(args) -> int:
    model = glnq.build_model(args.n, args.q)
    out, failed = [], False
    for j in _parse_j(args.j, model.rs.rank):
        inv = glnq.special_invariants(model, j)
        ts = glnq.certify_ts(model, j)
        bru = glnq.check_brudec(model, j)
        ok = inv.dim == inv.vj_size and inv.basis_ok and all(ts.values()) and bru
        failed |= not ok
        out.append({
            "j": _jout(j), "n_cosets": inv.n_cosets,
            "dim_invariants": inv.dim, "vj_size": inv.vj_size,
            "basis_ok": inv.basis_ok,
            "ts_match": {str(s + 1): v for s, v in sorted(ts.items())},
            "brudec_ok": bru, "ok": ok,
        })
    _dump({"n": args.n, "q": args.q, "group_order": len(model.elements),
           "checks": out}, args.out)
    return EXIT_CHECK if failed else EXIT_OK


def cmd_suite(args) -> int:
    kwargs = {}
    if args.types:
        kwargs["types"] = tuple(t.strip() for t in args.types.split(","))
    if args.primes:
        try:
            kwargs["primes"] = tuple(int(p) for p in args.primes.split(","))
        except ValueError as e:
            raise UsageError(f"cannot parse --primes {args.primes!r}") from e
    cfg = suitemod.SuiteConfig(**kwargs)
    try:
        cfg.validate()
    except SpecrepError as e:
        raise UsageError(str(e)) from e
    timings = [] if args.timings else None
    status, records = suitemod.run_suite(cfg, timings)
    text = suitemod.to_tsv(records) if args.tsv else suitemod.to_jsonl(records)
    _emit(text, args.out)
    if args.timings:
        _emit(suitemod.to_jsonl(timings), args.timings)
    return status


# ------------------------------------------------------------------ main

def _add_type(sp) -> None:
    sp.add_argument("--type", required=True,
                    help="Cartan type, e.g. A3, B2, D4 or A2xB2")


def _add_j(sp) -> None:
    sp.add_argument("--j", default="all",
                    help="1-based simple indices, comma separated; "
                         "'' for the empty set, 'all' for every subset")


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="specrep",
        description="Verification toolkit for coset modules over Weyl groups")
    sub = ap.add_subparsers(dest="command", required=True)

    specs = [
        ("rootdata", cmd_rootdata, "root system summary", True, False),
        ("vj", cmd_vj, "W^J and V^J enumeration", True, True),
        ("qp", cmd_qp, "quasi-parabolic subsets of the roots", True, True),
        ("module", cmd_module, "module rank, torsion and basis", True, True),
        ("exactness", cmd_exactness, "restricted exactness battery", True, True),
        ("chain", cmd_chain, "descent chain to the identity", True, False),
        ("omega", cmd_omega, "the Omega subgroup", True, False),
        ("hecke", cmd_hecke, "operator matrices on the V^J basis", True, True),
        ("irreducible", cmd_irreducible, "simplicity by the socle certificate",
         True, True),
        ("oracle", cmd_oracle, "finite matrix group cross-check", False, True),
        ("suite", cmd_suite, "full acceptance battery", False, False),
    ]
    for name, fn, help_text, has_type, has_j in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", default=None, help="write output to this file")
        if has_type:
            _add_type(sp)
        if has_j:
            _add_j(sp)
        if name in ("module", "exactness"):
            sp.add_argument("--ring", default="Z" if name == "module" else None,
                            help="Z, Q or Fp (e.g. F2)")
        if name in ("hecke", "irreducible"):
            sp.add_argument("--p", type=int, default=2,
                            help="prime characteristic")
        if name == "oracle":
            sp.add_argument("--n", type=int, required=True)
            sp.add_argument("--q", type=int, required=True)
        if name == "suite":
            sp.add_argument("--types", default=None,
                            help="comma separated Cartan types")
            sp.add_argument("--primes", default=None,
                            help="comma separated primes")
            sp.add_argument("--tsv", action="store_true",
                            help="tab separated output instead of JSONL")
            sp.add_argument("--timings", default=None, metavar="FILE",
                            help="write each record's and each battery's "
                                 "elapsed seconds to FILE as JSONL")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, UnsupportedType, NonPrimeCharacteristic) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except SpecrepError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
