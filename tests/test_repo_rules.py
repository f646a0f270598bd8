"""Repo-rule tests for ``tools/check_repo_rules.py``: the dead-knob rule.

A defaulted ``src/`` parameter must be passed by some non-test call — by
keyword, by position or through a ``*``/``**`` splat, with something other
than its own default literal — or be named, with a reason, in
``DEAD_KNOB_ALLOWLIST``.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _repo_rules():
    spec = importlib.util.spec_from_file_location(
        "check_repo_rules", REPO / "tools" / "check_repo_rules.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SCALE = ("def scale(x, factor=2, *, offset=0):\n"
         "    return x * factor + offset\n")


class TestDeadKnobRule:
    @staticmethod
    def _check(root, files, allowlist=None):
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return _repo_rules().check_dead_knobs(
            root, {} if allowlist is None else allowlist)

    @staticmethod
    def _keys(violations):
        return sorted(msg.split("'")[1] for _, _, msg in violations)

    @pytest.mark.parametrize("call, dead", [
        ("scale(1)", ["scale(factor)", "scale(offset)"]),
        ("scale(1, factor=3)", ["scale(offset)"]),
        ("scale(1, 3)", ["scale(offset)"]),
        ("scale(1, offset=4)", ["scale(factor)"]),
        ("scale(*args)", ["scale(offset)"]),
        ("scale(1, **opts)", []),
    ], ids=["none", "keyword", "position", "keyword-only", "star",
            "double-star"])
    def test_passes_by_keyword_position_and_splat(self, tmp_path, call,
                                                  dead):
        violations = self._check(tmp_path, {
            "src/pkg/ops.py": SCALE,
            "examples/demo.py": f"from pkg.ops import scale\n{call}\n",
        })
        assert self._keys(violations) == dead
        if dead:
            path, line, _ = violations[0]
            assert (path, line) == (str(tmp_path / "src/pkg/ops.py"), 1)

    @pytest.mark.parametrize("call, dead", [
        ("scale(1, factor=2)", ["scale(factor)", "scale(offset)"]),
        ("scale(1, 2, offset=0)", ["scale(factor)", "scale(offset)"]),
        ("scale(1, factor=3, offset=0)", ["scale(offset)"]),
        ("scale(1, factor=n)", ["scale(offset)"]),
        ("scale(1, factor=2.0)", ["scale(offset)"]),
        ("scale(*args, offset=0)", ["scale(offset)"]),
        ("scale(1, 2)\nscale(1, 5)", ["scale(offset)"]),
    ], ids=["keyword", "position-and-keyword-only", "other-literal",
            "name", "other-type", "star", "one-call-of-two"])
    def test_passing_the_default_literal_is_no_pass(self, tmp_path, call,
                                                     dead):
        violations = self._check(tmp_path, {
            "src/pkg/ops.py": SCALE,
            "examples/demo.py": f"from pkg.ops import scale\n{call}\n",
        })
        assert self._keys(violations) == dead

    def test_non_literal_default_counts_any_pass(self, tmp_path):
        violations = self._check(tmp_path, {
            "src/pkg/ops.py": ("FACTOR = 2\n"
                               "def scale(x, factor=FACTOR):\n"
                               "    return x * factor\n"),
            "examples/demo.py": "from pkg.ops import scale\nscale(1, 2)\n",
        })
        assert violations == []

    def test_pass_from_tests_does_not_count(self, tmp_path):
        violations = self._check(tmp_path, {
            "src/pkg/ops.py": SCALE,
            "bench/run.py": "from pkg.ops import scale\nscale(1, offset=1)\n",
            "tests/test_ops.py": ("from pkg.ops import scale\n"
                                  "scale(1, factor=3)\n"),
        })
        assert self._keys(violations) == ["scale(factor)"]

    def test_constructors_resolve_cls_and_super(self, tmp_path):
        violations = self._check(tmp_path, {
            "src/pkg/shapes.py": (
                "class Box:\n"
                "    def __init__(self, side=1, color='red'):\n"
                "        self.side = side\n"
                "    @classmethod\n"
                "    def blue(cls):\n"
                "        return cls(color='blue')\n"
                "    def grow(self, by=1):\n"
                "        return self.side + by\n"
                "    def _shrink(self, by=1):\n"
                "        return self.side - by\n"
                "class Crate(Box):\n"
                "    def __init__(self, lid=True):\n"
                "        super().__init__(2)\n"
                "class Bag(Box):\n"
                "    pass\n"),
            "examples/demo.py": ("from pkg.shapes import Bag, Box, Crate\n"
                                 "Box.blue().grow(), Crate(), Bag()\n"),
        })
        # cls(...) passes Box's color and super().__init__(2) its side;
        # nothing passes Crate's lid or grow's by. Private methods are not
        # checked, and Bag() reaches the __init__ it inherits.
        assert self._keys(violations) == ["Box.grow(by)", "Crate(lid)"]

    def test_allowlisted_knob_passes_and_stale_entries_fail(self, tmp_path):
        files = {"src/pkg/ops.py": SCALE,
                 "examples/demo.py": "from pkg.ops import scale\n"
                                     "scale(1, factor=3)\n"}
        assert self._keys(self._check(tmp_path, files)) == ["scale(offset)"]
        assert self._check(tmp_path, files,
                           {"scale(offset)": "test seam"}) == []
        violations = self._check(tmp_path, files, {
            "scale(offset)": "test seam",
            "scale(factor)": "now passed",
            "scale(gone)": "parameter removed"})
        assert self._keys(violations) == ["scale(factor)", "scale(gone)"]
        messages = " ".join(msg for _, _, msg in violations)
        assert "non-test code passes it" in messages
        assert "names no defaulted parameter" in messages

    def test_main_reports_dead_knobs(self, tmp_path, capsys):
        self._check(tmp_path, {"src/pkg/ops.py": SCALE})
        assert _repo_rules().main([str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert "'scale(factor)' has a default" in out

    def test_real_tree_dead_knobs_are_exactly_the_allowlist(self):
        rules = _repo_rules()
        assert all(reason.strip()
                   for reason in rules.DEAD_KNOB_ALLOWLIST.values())
        assert rules.check_dead_knobs(REPO) == []
        unlisted = rules.check_dead_knobs(REPO, {})
        assert self._keys(unlisted) == sorted(rules.DEAD_KNOB_ALLOWLIST)
