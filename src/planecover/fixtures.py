"""The bundled golden fixture files and their loader.

The JSON goldens ship with the package as data: semi-covers, graphs,
vertex maps and search specs that the commands read through
``--fixture``.  Their constructors live with the tests, in
``tests/builders.py``, which checks and regenerates the goldens.
"""

from __future__ import annotations

import json
from importlib import resources

from .structure import QuotientGraph


_FIXTURE_DIR = resources.files("planecover") / "fixtures"


def fixture_names() -> list[str]:
    """Names of the bundled golden files, sorted."""
    return sorted(p.name.removesuffix(".json") for p in _FIXTURE_DIR.iterdir() if p.name.endswith(".json"))


def fixture_path(name: str):
    return _FIXTURE_DIR / f"{name}.json"


def load_fixture_obj(name: str) -> dict:
    """The bundled golden file named ``name``; KeyError for any name that
    is not a bundled file's plain name, a path through the directory too."""
    path = fixture_path(name)
    try:
        fh = path.open("r", encoding="utf-8") if path.name == f"{name}.json" else None
    except (OSError, ValueError):  # no such file, or no name a file can have
        fh = None
    if fh is None:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    with fh:
        return json.load(fh)


# No command builds double_lens.  It stays here only because the
# benchmark's workloads call it from this module; reading it from its
# golden instead is part of the benchmark change of ROADMAP item 1a.
def double_lens() -> QuotientGraph:
    """The a=2 quotient: both white-black pairs doubled, outer a 2-face.

    Demands four beads: the internal 2-face needs two, the outer 2-face
    one, and the 4-faces cannot have all their beads shared.
    """
    edges = ((0, 2, 0), (0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 0), (1, 3, 0))
    rotation = ((0, 1, 2), (3, 4, 5), (0, 3, 1), (4, 2, 5))
    q = QuotientGraph(a=2, edges=edges, rotation=rotation, outer_face=0)
    census = q.census
    if census != {2: 2, 4: 2}:
        raise AssertionError(f"double lens census {census}")
    outer = next(i for i, f in enumerate(q.faces) if len(f) == 2)
    lens = QuotientGraph(a=2, edges=edges, rotation=rotation, outer_face=outer)
    vars(lens)["faces"] = q.faces  # faces do not depend on the outer face
    return lens
