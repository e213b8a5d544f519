"""Malformed workspaces give a clean answer, never a traceback.

Each golden ``workspace.json`` under ``tests/golden_cli/`` is mutated at one
place: a leaf replaced by one of ``LEAVES``, a key deleted, or a list element
dropped or duplicated.  One of the case's subcommands then runs in-process
through ``cli.main`` on the mutant.  Every run must exit 0 or 1 and print
either a JSON report or exactly one ``error:`` line, and no exception may
escape.  Random draws seldom hit a generator count, so every workspace also
gets one ``dim`` or ``free`` leaf of 10**30, which must be refused by the
``MAX_GENERATORS`` bound before any object is built.
"""

from __future__ import annotations

import copy
import functools
import json
import operator
import random

import pytest

from arrowcat.cli import main
from arrowcat.workspace import MAX_GENERATORS
from test_golden_cli import CASES, _case_dir, build_case

LEAVES = (-1, 0, 10**30, 1.5, "x", None, [], {})
MUTANTS_PER_CASE = 40


def _paths(node, path=()):
    """(path, value) for every value below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for k, v in items:
        yield path + (k,), v
        yield from _paths(v, path + (k,))


def _mutate(doc, path, kind, value=None):
    """A copy of doc with the value at path replaced, deleted or duplicated."""
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if kind == "replace":
        parent[last] = value
    elif kind == "delete":
        del parent[last]
    else:
        parent.insert(last, copy.deepcopy(parent[last]))
    return doc


def _draw(rng, doc):
    """(description, mutant) of one random mutation of doc."""
    paths = list(_paths(doc))
    kind = rng.choice(("replace", "delete-key", "drop", "duplicate"))
    if kind == "replace":
        path = rng.choice([p for p, v in paths if not isinstance(v, (dict, list))])
        value = rng.choice(LEAVES)
        return f"{path} := {value!r}", _mutate(doc, path, "replace", value)
    in_list = kind != "delete-key"
    path = rng.choice([p for p, _ in paths if isinstance(p[-1], int) == in_list])
    return f"{kind} {path}", _mutate(doc, path, "delete" if kind != "duplicate" else "duplicate")


def _run(doc, argv, tmp_path, capsys, what):
    """(exit code, stdout, stderr) of argv on doc; a raised exception fails."""
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        code = main([argv[0], "--in", str(path), *argv[1:]])
    except Exception as e:  # noqa: BLE001 - any escape is the failure under test
        raise AssertionError(f"{what}: {type(e).__name__} escaped") from e
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("ring,seed", CASES, ids=[f"{r}-seed{s}" for r, s in CASES])
def test_mutated_workspace_is_a_clean_answer(ring, seed, tmp_path, capsys):
    doc = json.loads((_case_dir(ring, seed) / "workspace.json").read_text(encoding="utf-8"))
    runs = [argv for _, argv in build_case(ring, seed)[1]]
    rng = random.Random(f"fuzz-{ring}-{seed}")
    for _ in range(MUTANTS_PER_CASE):
        desc, mutant = _draw(rng, doc)
        argv = rng.choice(runs)
        what = f"{' '.join(argv)} on {desc}"
        code, out, err = _run(mutant, argv, tmp_path, capsys, what)
        assert code in (0, 1), what
        if err:
            assert not out and err.startswith("error: ") and err.count("\n") == 1, (what, err)
        else:
            assert json.loads(out)["ok"] == (code == 0), what
    # a generator count of 10**30 is refused by name, whatever the subcommand
    path = rng.choice([p for p, _ in _paths(doc) if p[-1] in ("dim", "free")])
    argv = rng.choice(runs)
    what = f"{' '.join(argv)} on {path} := 10**30"
    code, out, err = _run(_mutate(doc, path, "replace", 10**30), argv, tmp_path, capsys, what)
    assert (code, out, err) == (1, "", f"error: object {path[1]!r}: more than {MAX_GENERATORS} generators\n"), what
