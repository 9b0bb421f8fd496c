"""The three workloads: which public calls one pass makes, and what they produce.

A workload is a list of calls.  Each call is JSON data so that the parent
can hand it to a fresh interpreter:

    ["suite", cfg]            specrep.suite.run_suite(SuiteConfig(**cfg))
    ["battery", name, cfg]    specrep.suite.<name>(SuiteConfig(**cfg))
    ["qp", type, j]           specrep.jsets.quasi_parabolic_sets(root_system(type), j)
    ["cli", argv]             specrep.cli.main(argv + ["--out", file])

Every call's output becomes observations (key, status, value) that the
gate in run.py compares with the reference files under ref/.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("suite-default", "suite-rank4", "cli-point")

# Rank 4-6 types for cli-point; products included so that the per-factor
# code paths (blocks, Omega products, mark-one simples) are exercised.
CLI_TYPES = (
    "A4", "B4", "C4", "D4", "A1xA3", "A2xA2", "A2xB2", "A1xB3", "A1xC3",
    "A1xA1xA2", "B2xB2",
    "A5", "B5", "C5", "D5", "A1xD4", "A2xA3", "A1xB4",
    "A6", "B6", "C6", "D6",
)
CLI_J_MAX_RANK = 5  # vj, module and hecke only up to this rank
CLI_WHOLE_TYPE = ("rootdata", "chain", "omega")
CLI_PER_J = (("vj",), ("module",), ("hecke", "--p", "3"))

RANK4_TYPES = ("B4", "D4")
RANK4_BATTERIES = ("weyl_battery", "module_battery", "chains_battery")
RANK4_QP_TYPE = "A4"
RANK4_ORACLE_MODELS = ((3, 3), (2, 7))


def type_rank(name: str) -> int:
    return sum(int(part[1:]) for part in name.split("x"))


def _whole_type_commands(name: str) -> list[list[str]]:
    return [[cmd, "--type", name] for cmd in CLI_WHOLE_TYPE]


def _per_j_commands(name: str, left_out: int) -> list[list[str]]:
    """J = all simple roots but the 1-based index left_out."""
    j = ",".join(str(i) for i in range(1, type_rank(name) + 1) if i != left_out)
    return [[cmd[0], "--type", name, "--j", j, *cmd[1:]] for cmd in CLI_PER_J]


def cli_commands(seed: int, pass_index: int = 0) -> list[list[str]]:
    """About 120 commands grouped by type.  Per type up to CLI_J_MAX_RANK,
    the seed picks the simple root that J leaves out in pass 0, and each
    later pass moves on by one root, so that a run of many passes covers
    the choices about evenly.  The type order is drawn anew for each pass."""
    rng = random.Random(seed)
    first = {name: rng.randrange(type_rank(name)) for name in CLI_TYPES}
    order = list(CLI_TYPES)
    random.Random(f"{seed}.{pass_index}").shuffle(order)
    out = []
    for name in order:
        out += _whole_type_commands(name)
        rank = type_rank(name)
        if rank <= CLI_J_MAX_RANK:
            out += _per_j_commands(name, (first[name] + pass_index) % rank + 1)
    return out


def cli_universe() -> list[list[str]]:
    """Every command cli_commands can produce, for the reference file."""
    out = []
    for name in CLI_TYPES:
        out += _whole_type_commands(name)
        rank = type_rank(name)
        if rank <= CLI_J_MAX_RANK:
            for left_out in range(1, rank + 1):
                out += _per_j_commands(name, left_out)
    return out


def calls(workload: str, seed: int, pass_index: int = 0) -> list[list]:
    """The calls of one pass.  Only cli-point depends on the seed and the
    pass."""
    if workload == "suite-default":
        return [["suite", {}]]
    if workload == "suite-rank4":
        out: list[list] = [["battery", b, {"types": [t]}]
                           for t in RANK4_TYPES for b in RANK4_BATTERIES]
        rank = type_rank(RANK4_QP_TYPE)
        out += [["qp", RANK4_QP_TYPE, [i for i in range(rank) if mask >> i & 1]]
                for mask in range(1 << rank)]
        out += [["battery", "oracle_battery", {"oracle_models": [list(m)]}]
                for m in RANK4_ORACLE_MODELS]
        return out
    if workload == "cli-point":
        return [["cli", argv] for argv in cli_commands(seed, pass_index)]
    raise ValueError(f"unknown workload {workload!r}")


def suite_config(cfg: dict):
    """SuiteConfig from JSON data (lists become the tuples it expects)."""
    from specrep.suite import SuiteConfig

    kwargs = {}
    for key, val in cfg.items():
        if key == "oracle_models":
            val = tuple(tuple(m) for m in val)
        kwargs[key] = tuple(val) if isinstance(val, list) else val
    return SuiteConfig(**kwargs)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def qp_key(type_name: str, j: list[int]) -> str:
    return f"qp {type_name} J={{{','.join(str(i + 1) for i in sorted(j))}}}"


def qp_value(sets) -> str:
    """Count and digest of the family's masks, in the returned order."""
    masks = ",".join(format(d.mask, "x") for d in sets)
    return f"{len(sets)}:{sha256(masks.encode())}"


def record_observations(records: list[dict]) -> list[list]:
    return [[f"{r['check_id']} {r['instance']}", r["status"], None] for r in records]


def cli_observation(argv: list[str], code: int, output: bytes) -> list:
    return [" ".join(argv), "pass" if code == 0 else "fail", f"{code}:{sha256(output)}"]
