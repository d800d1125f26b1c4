"""The outputs ``tools/exactness.py`` pins, against the values it recorded.

The values come from ``tools/exactness.py --write``: 96 desk decodes (both
grids, flags, groups, hypotheses and rescoring), a dropout and a fallback
training batch (loss and every gradient) and the ``last.ckpt`` tensors of a
short ``train_run``. Discrete values must be equal and floats equal within
``REL_TOL`` relative, so any change to an output fails here; a change that
means to move an output rewrites the file with ``--write``.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REL_TOL = 1e-9


def load_tool():
    spec = importlib.util.spec_from_file_location("exactness", ROOT / "tools" / "exactness.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def differences(have, want, path="values"):
    """Where ``have`` departs from ``want``: a float by more than REL_TOL, anything else at all."""
    if isinstance(want, float):
        if not (isinstance(have, float) and abs(have - want) <= REL_TOL * abs(want)):
            yield f"{path}: {have!r} != {want!r}"
    elif isinstance(want, dict):
        if not isinstance(have, dict) or have.keys() != want.keys():
            yield f"{path}: keys differ"
            return
        for key in want:
            yield from differences(have[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        if not isinstance(have, list) or len(have) != len(want):
            yield f"{path}: {have!r} != {want!r}"
            return
        for i, (h, w) in enumerate(zip(have, want)):
            yield from differences(h, w, f"{path}[{i}]")
    elif type(have) is not type(want) or have != want:
        yield f"{path}: {have!r} != {want!r}"


def test_outputs_match_the_recorded_values():
    tool = load_tool()
    want = json.loads(tool.REFERENCE.read_text(encoding="utf-8"))
    _, have = tool.run_all()
    # JSON has no tuples: compare what the file would hold.
    have = json.loads(json.dumps(have))
    found = list(differences(have, want))
    assert not found, f"{len(found)} values moved, first: {found[:5]}"


def test_the_comparison_catches_a_moved_value():
    want = {"a": [1.0, [2, 3]], "b": "01"}
    assert not list(differences({"a": [1.0 + 1e-12, [2, 3]], "b": "01"}, want))
    assert list(differences({"a": [1.0 + 1e-8, [2, 3]], "b": "01"}, want))
    assert list(differences({"a": [1.0, [2, 4]], "b": "01"}, want))
    assert list(differences({"a": [1.0, [2, 3]], "b": "11"}, want))
    assert list(differences({"a": [1.0, [2, 3]]}, want))
