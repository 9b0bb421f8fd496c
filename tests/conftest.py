"""Shared fixtures: session-scoped root systems for the small battery types,
plant, which corrupts the complex of a fresh root system, and
count_builds, which records the builds of a memoized function."""

import pytest

from specrep import roots, vjmod
from specrep.roots import CartanType, RootSystem, root_system
from specrep.weyl import all_j


@pytest.fixture(scope="session")
def a2():
    return root_system("A2")


@pytest.fixture(scope="session")
def a3():
    return root_system("A3")


@pytest.fixture(scope="session")
def b2():
    return root_system("B2")


@pytest.fixture(scope="session")
def b3():
    return root_system("B3")


@pytest.fixture(scope="session")
def c3():
    return root_system("C3")


@pytest.fixture(scope="session")
def d4():
    return root_system("D4")


@pytest.fixture
def plant(monkeypatch):
    """plant(t, boundary=None, normal_form=None, js=None) returns a fresh
    root system of type t, registered in roots._SYSTEMS for the test so that
    root_system(t), the CLI and the suite use it.  At every J of js (all J
    by default) its cached boundary entries (rows, cols) are
    boundary(rows, cols) and its cached normal form is normal_form(n); the
    package's builders are left as they are."""
    def make(t, boundary=None, normal_form=None, js=None):
        rs = RootSystem(CartanType.parse(t))
        monkeypatch.setitem(roots._SYSTEMS, rs.ct, rs)
        for j in all_j(rs.rank) if js is None else js:
            if boundary is not None:
                rs.cache[("boundary_columns", j)] = boundary(*vjmod.boundary_columns(rs, j))
            if normal_form is not None:
                rs.cache[("normal_form_matrix", j)] = normal_form(vjmod.normal_form_matrix(rs, j))
        return rs
    return make


@pytest.fixture
def count_builds(monkeypatch):
    """count_builds(module, name, build=None) swaps module.name, a function
    memoized with roots.cached, for one memoized under the same keys, and
    returns the list of (owner, *args) of its builds (its cache misses).
    build(owner, *args), if given, builds in place of the original."""
    def swap(module, name, build=None):
        build = build or getattr(module, name).__wrapped__
        calls = []

        def counted(owner, *args):
            calls.append((owner, *args))
            return build(owner, *args)

        counted.__name__ = name
        monkeypatch.setattr(module, name, roots.cached(counted))
        return calls
    return swap
