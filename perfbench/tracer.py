"""Span tracer for the traced pass, and the per-layer metrics derived from it.

The tracer wraps public functions of the specrep modules from outside the
package.  A wrapper is bound in every specrep namespace that holds the
original, because modules import each other's functions by name
(`from .weyl import project`).  Spans (name, start, end, parent, attr)
stay in memory and are written out once the pass is over.

Per-element primitives (multiply, project, length, act_root, phi_j_mask)
run close to a million times per pass and are not wrapped: their cost
shows up in the self time of the functions that call them.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time


CLI_COMMANDS = ("rootdata", "chain", "omega", "vj", "module", "hecke")
WEYL_ENUMERATORS = ("enumerate_W", "enumerate_WJ", "enumerate_VJ", "subgroup",
                    "projection_table")


def _new_len(seen: dict):
    """attr hook: size of a result object not returned before, else None.

    Cached results come back as the same object, so only fresh work counts."""
    def hook(args, kwargs, result, exc):
        if exc is not None or id(result) in seen:
            return None
        seen[id(result)] = result  # keeps the id from being reused
        return len(result)
    return hook


def _scan_lines(args, kwargs, result, exc):
    """attr hook for hecke._indeco_scan: lines enumerated, or 'capped'."""
    from specrep.errors import CapExceeded
    from specrep.weyl import enumerate_VJ

    if isinstance(exc, CapExceeded):
        return "capped"
    if exc is not None:
        return None
    rs, j, p = args[:3]
    dim = len(getattr(enumerate_VJ, "__wrapped__", enumerate_VJ)(rs, j))
    return (p ** dim - 1) // (p - 1)


def _ring(args, kwargs, result, exc):
    return str(args[3] if len(args) > 3 else kwargs["ring"])


def _group_elements(args, kwargs, result, exc):
    return None if exc is not None else len(result.elements)


def targets() -> list[tuple[str, str, object]]:
    """(module, function, attr hook) for every wrapped function."""
    weyl_seen: dict = {}
    qp_seen: dict = {}
    out = [("suite", f, None) for f in (
        "run_suite", "weyl_battery", "module_battery", "exactness_battery",
        "chains_battery", "hecke_battery", "oracle_battery")]
    out += [("cli", f"cmd_{c}", None) for c in CLI_COMMANDS]
    out += [
        ("hecke", "check_indeco", None), ("hecke", "check_simple", None),
        ("hecke", "_indeco_scan", _scan_lines), ("hecke", "ts_matrix", None),
        ("hecke", "omega_matrix", None),
        ("vjmod", "restricted_exactness", _ring), ("vjmod", "boundary_columns", None),
        ("vjmod", "normal_form_matrix", None), ("vjmod", "build_mj", None),
        ("linalg", "modp_rank", None), ("linalg", "rank_z", None),
        ("linalg", "snf_invariants", None),
        ("jsets", "quasi_parabolic_sets", _new_len(qp_seen)),
        ("jsets", "check_quasi_parabolic", None),
        ("roots", "root_system", None),
        ("chains", "lift_chain", None), ("chains", "weyllem1_witness", None),
        ("chains", "successors", None), ("chains", "weyllem2_chain", None),
        ("glnq", "build_model", _group_elements),
        ("glnq", "special_invariants", None), ("glnq", "certify_ts", None),
        ("glnq", "check_brudec", None),
    ]
    out += [("weyl", f, _new_len(weyl_seen)) for f in WEYL_ENUMERATORS]
    return out


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, attr]
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attr=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [idx, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                if attr is not None:
                    rec[4] = attr(args, kwargs, None, exc)
                raise
            rec[2] = clock()
            stack.pop()
            if attr is not None:
                rec[4] = attr(args, kwargs, result, None)
            return result

        return traced

    def install(self) -> None:
        """Wrap each target and rebind it in every loaded specrep module."""
        importlib.import_module("specrep.cli")  # loads every other module
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "specrep" or name.startswith("specrep.")]
        for modname, fname, attr in targets():
            orig = getattr(importlib.import_module(f"specrep.{modname}"), fname)
            wrapper = self.wrap(f"{modname}.{fname}", orig, attr)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


# ------------------------------------------------------------ aggregation

def summarize(names: list[str], spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) and self seconds, and the
    duration and attr of each span."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {n: {"calls": 0, "total": 0.0, "self": 0.0,
                                "durations": [], "attrs": []} for n in names}
    for k, (idx, start, end, _, attr) in enumerate(spans):
        s = out[names[idx]]
        s["calls"] += 1
        s["total"] += end - start
        s["self"] += end - start - child_time[k]
        s["durations"].append(end - start)
        s["attrs"].append(attr)
    return out


def _q_cert_ratio(names: list[str], spans: list[list]) -> float:
    """Q exactness calls decided by the mod-p certificate, over Q calls:
    a Q call is certified when it ran modp_rank and never fell back to rank_z."""
    modp, rankz = names.index("linalg.modp_rank"), names.index("linalg.rank_z")
    used_modp, used_rankz = set(), set()
    for idx, _, _, parent, _ in spans:
        if idx == modp:
            used_modp.add(parent)
        elif idx == rankz:
            used_rankz.add(parent)
    exact = names.index("vjmod.restricted_exactness")
    q_calls = [k for k, sp in enumerate(spans) if sp[0] == exact and sp[4] == "Q"]
    if not q_calls:
        return 0.0
    cert = sum(1 for k in q_calls if k in used_modp and k not in used_rankz)
    return cert / len(q_calls)


# Per-layer metrics: name -> unit.  Times are self times unless the
# docstring of layer_metrics says otherwise.
LAYER_UNITS = {
    "hecke.indeco_s": "s", "hecke.simple_s": "s", "hecke.scans": "count",
    "hecke.scans_capped": "count", "hecke.lines_scanned": "count",
    "hecke.lines_per_decided_record": "ratio", "hecke.ts_matrix_s": "s",
    "hecke.omega_matrix_s": "s",
    "vjmod.restricted_exactness_s": "s", "vjmod.restricted_exactness_calls": "count",
    "linalg.modp_rank_s": "s", "linalg.modp_rank_calls": "count",
    "linalg.rank_z_calls": "count", "vjmod.q_cert_ratio": "ratio",
    "jsets.qp_closure_s": "s", "jsets.qp_sets": "count", "jsets.check_qp_s": "s",
    "jsets.check_qp_calls": "count",
    "linalg.snf_s": "s", "linalg.snf_calls": "count",
    "vjmod.boundary_s": "s", "vjmod.normal_form_s": "s", "vjmod.build_mj_s": "s",
    "weyl.enumerate_s": "s", "weyl.elements_enumerated": "count",
    "roots.root_system_s": "s", "chains.lift_s": "s", "chains.witness_s": "s",
    "chains.successors_s": "s", "chains.weyllem2_s": "s",
    "glnq.build_model_s": "s", "glnq.special_invariants_s": "s",
    "glnq.certify_ts_s": "s", "glnq.check_brudec_s": "s", "glnq.group_elements": "count",
    **{f"suite.{b}_s": "s" for b in ("weyl", "module", "exactness", "chains",
                                     "hecke", "oracle")},
    **{f"cli.{c}_ms": "ms" for c in CLI_COMMANDS},
    "trace_overhead_frac": "ratio",
}


def layer_metrics(names: list[str], spans: list[list], decided_hecke: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace_overhead_frac).

    hecke.indeco_s, hecke.simple_s and suite.<battery>_s are inclusive
    times; cli.<command>_ms is the median duration of that command; every
    other _s metric is self time.  decided_hecke is the number of
    hecke.indeco and hecke.simple records that were not skipped."""
    s = summarize(names, spans)

    def self_s(*fns):
        return sum(s[f]["self"] for f in fns)

    def attrs(fn):
        return s[fn]["attrs"]

    scans = attrs("hecke._indeco_scan")
    lines = sum(a for a in scans if isinstance(a, int))
    out = {
        "hecke.indeco_s": s["hecke.check_indeco"]["total"],
        "hecke.simple_s": s["hecke.check_simple"]["total"],
        "hecke.scans": len(scans),
        "hecke.scans_capped": scans.count("capped"),
        "hecke.lines_scanned": lines,
        "hecke.lines_per_decided_record": lines / decided_hecke if decided_hecke else 0.0,
        "hecke.ts_matrix_s": self_s("hecke.ts_matrix"),
        "hecke.omega_matrix_s": self_s("hecke.omega_matrix"),
        "vjmod.restricted_exactness_s": self_s("vjmod.restricted_exactness"),
        "vjmod.restricted_exactness_calls": s["vjmod.restricted_exactness"]["calls"],
        "linalg.modp_rank_s": self_s("linalg.modp_rank"),
        "linalg.modp_rank_calls": s["linalg.modp_rank"]["calls"],
        "linalg.rank_z_calls": s["linalg.rank_z"]["calls"],
        "vjmod.q_cert_ratio": _q_cert_ratio(names, spans),
        "jsets.qp_closure_s": self_s("jsets.quasi_parabolic_sets"),
        "jsets.qp_sets": sum(a for a in attrs("jsets.quasi_parabolic_sets") if a),
        "jsets.check_qp_s": self_s("jsets.check_quasi_parabolic"),
        "jsets.check_qp_calls": s["jsets.check_quasi_parabolic"]["calls"],
        "linalg.snf_s": self_s("linalg.snf_invariants"),
        "linalg.snf_calls": s["linalg.snf_invariants"]["calls"],
        "vjmod.boundary_s": self_s("vjmod.boundary_columns"),
        "vjmod.normal_form_s": self_s("vjmod.normal_form_matrix"),
        "vjmod.build_mj_s": self_s("vjmod.build_mj"),
        "weyl.enumerate_s": self_s(*(f"weyl.{f}" for f in WEYL_ENUMERATORS)),
        "weyl.elements_enumerated": sum(a for f in WEYL_ENUMERATORS
                                        for a in attrs(f"weyl.{f}") if a),
        "roots.root_system_s": self_s("roots.root_system"),
        "chains.lift_s": self_s("chains.lift_chain"),
        "chains.witness_s": self_s("chains.weyllem1_witness"),
        "chains.successors_s": self_s("chains.successors"),
        "chains.weyllem2_s": self_s("chains.weyllem2_chain"),
        "glnq.build_model_s": self_s("glnq.build_model"),
        "glnq.special_invariants_s": self_s("glnq.special_invariants"),
        "glnq.certify_ts_s": self_s("glnq.certify_ts"),
        "glnq.check_brudec_s": self_s("glnq.check_brudec"),
        "glnq.group_elements": sum(a for a in attrs("glnq.build_model") if a),
    }
    for b in ("weyl", "module", "exactness", "chains", "hecke", "oracle"):
        out[f"suite.{b}_s"] = s[f"suite.{b}_battery"]["total"]
    for c in CLI_COMMANDS:
        d = s[f"cli.cmd_{c}"]["durations"]
        out[f"cli.{c}_ms"] = 1000 * statistics.median(d) if d else 0.0
    return out
