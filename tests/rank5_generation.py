"""The p-free generation certificate on every J of B5 (A4 and D5 are in
test_hecke.py).

Kept out of the default run (about 2 s, most of it B5's case tables and
stage-2 spin-ups); run it by path:

    PYTHONPATH=src python -m pytest tests/rank5_generation.py
"""

from specrep import hecke
from specrep.roots import root_system
from specrep.weyl import all_j, jlabel


def test_generation_certificate_is_one_on_b5():
    """g_{z^J} generates V^J over Z for every J, the empty and the full J
    included, so check_simple runs no closure on B5."""
    rs = root_system("B5")
    assert [jlabel(j) for j in all_j(rs.rank) if hecke._generation_certificate(rs, j) != 1] == []
