"""Source-level guards: verification code must not rely on assert, only
roots.py touches the memo, the benchmark tracer's targets must exist in the
package, the package holds no dead API and no unread parameter, and no
module of the package or the tests imports a name it never uses."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_in_package():
    """assert disappears under python -O; checks raise CheckFailed instead."""
    found = []
    for path in sorted((ROOT / "src" / "specrep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_roots_reads_the_cache():
    """Every per-system table is memoized through roots.cached, so no other
    module reads an owner's .cache (functools.cache is not one)."""
    found = []
    for path in sorted((ROOT / "src" / "specrep").glob("*.py")):
        if path.name == "roots.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "cache"
                    and not (isinstance(node.value, ast.Name) and node.value.id == "functools")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    """perfbench/run.py --trace 1 wraps these names; a rename must not
    break it silently."""
    tracer = _load_tracer()
    missing = [f"{mod}.{fn}" for mod, fn, _ in tracer.targets()
               if not callable(getattr(importlib.import_module(f"specrep.{mod}"), fn, None))]
    assert missing == []


def test_no_dead_api():
    """Every module-level function or class of the package is referenced
    from the package or wrapped by the tracer; test-only helpers live in
    tests/ as oracles."""
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "specrep").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    wrapped = {(mod, fn) for mod, fn, _ in _load_tracer().targets()}
    assert [f"{mod}.{name}" for mod, name in defined
            if name not in used and (mod, name) not in wrapped] == []


def test_tracer_group_elements_hook():
    """The tracer counts group elements through the model's fields; a
    change to them must not break the count silently."""
    from specrep.glnq import build_model

    assert _load_tracer()._group_elements(None, None, build_model(2, 2), None) == 6


def _imports(name: str) -> set[str]:
    """Modules that src/specrep/<name>.py imports, with the package's own
    modules as specrep.<module>."""
    tree = ast.parse((ROOT / "src" / "specrep" / f"{name}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["specrep" if node.level else "", node.module]))
            names.update(f"{base}.{a.name}" if base == "specrep" else base
                         for a in node.names)
    return names


def test_oracle_imports_no_fast_path():
    """The GL_n(F_q) oracle cross-checks jsets, vjmod and chains, so it may
    import from the package only the modules listed here."""
    package = {name.split(".")[1] for name in _imports("glnq") if name.startswith("specrep.")}
    assert package <= {"hecke", "linalg", "errors", "roots", "weyl"}


def test_no_rational_arithmetic():
    """The verifier works over Z and F_p, so no module imports fractions,
    and the roots come from closed forms with no elimination."""
    modules = [path.stem for path in sorted((ROOT / "src" / "specrep").glob("*.py"))]
    assert [m for m in modules if any(n.split(".")[0] == "fractions" for n in _imports(m))] == []
    assert _imports("roots") & {"numpy", "specrep.linalg"} == set()


def test_no_unread_parameter():
    """Every parameter of a function or lambda in the package is read in its
    body (nested functions included), so no caller passes what is ignored."""
    found = []
    for path in sorted((ROOT / "src" / "specrep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                      if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found += [f"{path.name}:{name}:{p}" for p in params if p not in read]
    assert found == []


def test_no_unused_import():
    """Every name a module of the package or of tests/ imports is used in
    that module; __init__.py files re-export and are skipped."""
    found = []
    paths = [*(ROOT / "src" / "specrep").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    for path in sorted(p for p in paths if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(), str(path))
        bound = {(a.asname or a.name).split(".")[0]: node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        found += [f"{path.relative_to(ROOT)}:{line}:{name}"
                  for name, line in bound.items() if name not in used]
    assert found == []
