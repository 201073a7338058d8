"""Mutated fixture files through the CLI loaders: whatever a mutation does
to a bundled fixture's JSON, every command exits with a code from 0 to 3
and raises nothing.

A mutation swaps a value for one of another JSON type, drops or appends a
list entry, or shifts an integer.  Covers-mode search runs under a budget
that admits fold 4 and refuses fold 5, so a shifted fold stays small.
The files no small mutation reaches are cases of their own.
"""

import copy
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecover import fixtures as fx
from planecover import io as pio
from planecover.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

SEMICOVERS = (
    "necklace4", "necklace3", "two_faces", "nine_face_pair", "fold_six_fragment",
    "hexagon_cover", "single_bead", "hub_violation", "two_trapezia", "crowded_face",
    "support_case1", "support_case2", "support_case3", "trapezium_face",
)

# command, the fixtures it reads (one tuple of choices per input file),
# extra arguments, and whether it takes --out
COMMANDS = (
    ("verify", (("k4-double.graph",), ("k4-double.map", "k4-double.broken-map")), ["--base", "k4"], False),
    ("lift", (("k4-double.graph",), ("k4-double.map", "k4-double.broken-map")), ["--base", "k4"], True),
    ("embed", (("k4-double.graph", "k1222-identity.graph"),), [], True),
    ("export-dot", (("k4-double.graph", "k1222-identity.graph"),), [], True),
    ("analyze", (SEMICOVERS,), [], True),
    ("quotient", (SEMICOVERS,), [], True),
    ("search", (("spec-k4-n2",),), ["--budget", "14000"], True),
)

_OTHER_TYPES = (None, True, 7, -1, 2.5, "x", [], {})


def _kind(value) -> str:
    return "bool" if isinstance(value, bool) else type(value).__name__


def _paths(obj, path=()):
    """Every position in a JSON value, as a tuple of keys and indices."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate(obj, data):
    """One mutation of obj, in place where it can be; returns the root."""
    path = data.draw(st.sampled_from(list(_paths(obj))))
    value = _get(obj, path)
    kinds = ["swap"]
    if isinstance(value, list):
        kinds += ["drop", "append"] if value else ["append"]
    if _kind(value) == "int":
        kinds.append("shift")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del value[data.draw(st.integers(0, len(value) - 1))]
        return obj
    if kind == "append":
        value.append(copy.deepcopy(data.draw(st.sampled_from(value + list(_OTHER_TYPES)))))
        return obj
    if kind == "shift":
        new = value + data.draw(st.sampled_from((-2, -1, 1, 2)))
    else:
        new = data.draw(st.sampled_from([v for v in _OTHER_TYPES if _kind(v) != _kind(value)]))
    if not path:
        return copy.deepcopy(new)
    _get(obj, path[:-1])[path[-1]] = copy.deepcopy(new)
    return obj


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_fixtures_exit_cleanly(data):
    command, inputs, extra, has_out = data.draw(st.sampled_from(COMMANDS))
    objs = [fx.load_fixture_obj(data.draw(st.sampled_from(choices))) for choices in inputs]
    target = data.draw(st.integers(0, len(objs) - 1))
    for _ in range(data.draw(st.integers(1, 3))):
        objs[target] = _mutate(objs[target], data)
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for i, obj in enumerate(objs):
            files.append(str(Path(tmp) / f"input{i}.json"))
            Path(files[-1]).write_text(pio.dumps(obj), encoding="utf-8")
        out = ["--out", str(Path(tmp) / "out.json")] if has_out else []
        assert main([command, *files, *extra, *out]) in (0, 1, 2, 3)


# command and input file: a voltage file whose fold is far beyond what
# derive builds, refused before any permutation is formed
HUGE_CASES = (
    ("derive", {"base": "k4", "n": 10**9, "edges": []}),
    ("derive", {"base": "k1222", "n": pio.MAX_FOLD + 1, "edges": []}),
)


def _limit_memory():
    # 2 GB of address space: a fold of 10**9 would need more than that
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))


def _run_cli(tmp_path, command, obj, timeout, *args):
    # run in a child under a memory limit and a time limit, so that a fold
    # built in full fails there instead of taking the test run's memory
    path = tmp_path / "input.json"
    path.write_text(pio.dumps(obj), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "planecover.cli", command, str(path), *args],
        env=env, capture_output=True, text=True, preexec_fn=_limit_memory, timeout=timeout,
    )


@pytest.mark.parametrize("command, obj", HUGE_CASES, ids=["derive-n-1e9", "derive-n-past-the-limit"])
def test_huge_inputs_exit_cleanly(tmp_path, command, obj):
    out = _run_cli(tmp_path, command, obj, 120)
    assert out.returncode == 3, out.stderr
    assert "'n' must be an integer up to" in out.stderr and "Traceback" not in out.stderr


def test_derive_of_many_identical_components_is_prompt(tmp_path):
    # the 10-sheet identity over K4 is ten disjoint copies of K4: derive
    # builds and checks it at once, with no search over the symmetries of
    # identical components
    out_path = tmp_path / "out.json"
    obj = {"base": "k4", "n": 10, "edges": []}
    out = _run_cli(tmp_path, "derive", obj, 30, "--out", str(out_path))
    assert out.returncode == 0, out.stderr
    derived = json.loads(out_path.read_text(encoding="utf-8"))
    assert "canonical" not in derived
    assert derived["valid"] and derived["fold"] is None
    assert derived["per_component_folds"] == [1] * 10
