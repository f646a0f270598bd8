"""Repo-rule tests for ``tools/check_repo_rules.py``.

Each rule is pinned on synthetic sources and on the real tree: executor
view annotations, no ``np.pad`` in runtime code, dangling ``__all__``
entries, test-only definitions, and dead knobs. For the dead-knob rule, a
defaulted ``src/`` parameter must be passed by some non-test call — by
keyword, by position or through a ``*``/``**`` splat, with something other
than its own default literal — or be named, with a reason, in
``DEAD_KNOB_ALLOWLIST``. Both whole-tree rules match a call or reference by
what it can reach: a bare name reaches top-level definitions, an attribute
of a module alias that module's definitions, and any other attribute
methods (plus the definitions of modules passed around as values).
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

    @pytest.mark.parametrize("call, dead", [
        ("from pkg.shapes import Box\nBox().scale(1, 3, offset=1)\n",
         ["scale(factor)", "scale(offset)"]),
        ("from pkg.ops import scale\nscale(1, 3, offset=1)\n",
         ["Box.scale(factor)", "Box.scale(offset)"]),
    ], ids=["method-call", "bare-call"])
    def test_calls_match_functions_or_methods_not_both(self, tmp_path, call,
                                                       dead):
        # A method call passes nothing to a same-named function, and a bare
        # call nothing to a same-named method.
        violations = self._check(tmp_path, {
            "src/pkg/ops.py": SCALE,
            "src/pkg/shapes.py": (
                "class Box:\n"
                "    def scale(self, x, factor=2, *, offset=0):\n"
                "        return x * factor + offset\n"),
            "examples/demo.py": call,
        })
        assert self._keys(violations) == dead

    @pytest.mark.parametrize("call", [
        "import pkg.ops as ops\nops.scale(1, 3, offset=1)\n",
        "from pkg import ops\nops.scale(1, 3, offset=1)\n",
        "import pkg.ops\npkg.ops.scale(1, 3, offset=1)\n",
        "import pkg\npkg.scale(1, 3, offset=1)\n",
    ], ids=["import-as", "from-import", "dotted", "re-export"])
    def test_module_alias_call_passes_that_modules_function(self, tmp_path,
                                                             call):
        violations = self._check(tmp_path, {
            "src/pkg/__init__.py": "from pkg.ops import scale\n",
            "src/pkg/ops.py": SCALE,
            "src/pkg/other.py": SCALE,
            "examples/demo.py": call,
        })
        assert self._keys(violations) == ["scale(factor)", "scale(offset)"]
        assert {path for path, _, _ in violations} == {
            str(tmp_path / "src/pkg/other.py")}

    def test_module_passed_as_value_reaches_its_functions(self, tmp_path):
        # ``run(fast)`` hands the module around, so ``kernels.scale(...)``
        # may call fast.scale; slow is only dotted through, never passed.
        violations = self._check(tmp_path, {
            "src/pkg/fast.py": SCALE,
            "src/pkg/slow.py": SCALE,
            "src/pkg/runner.py": ("from pkg import fast, slow\n"
                                  "def run(kernels):\n"
                                  "    return kernels.scale(1, 3, offset=1)\n"
                                  "run(fast), slow.scale\n"),
        })
        assert self._keys(violations) == ["scale(factor)", "scale(offset)"]
        assert {path for path, _, _ in violations} == {
            str(tmp_path / "src/pkg/slow.py")}

    @pytest.mark.parametrize("wrap, call, dead", [
        ("def wrap(x, factor=2):\n    return scale(x, factor=factor)\n",
         "wrap(1)", ["scale(factor)", "scale(offset)", "wrap(factor)"]),
        ("def wrap(x, factor=2):\n    return scale(x, factor)\n",
         "wrap(1, factor=3)", ["scale(offset)"]),
        ("def wrap(x, factor=5):\n    return scale(x, factor=factor)\n",
         "wrap(1)", ["scale(offset)", "wrap(factor)"]),
        ("def wrap(x, factor=2):\n    factor += 1\n"
         "    return scale(x, factor=factor)\n",
         "wrap(1)", ["scale(offset)", "wrap(factor)"]),
        ("def wrap(x, factor=2):\n    return scale(x, factor=factor)\n"
         "def outer(x, factor=2):\n    return wrap(x, factor=factor)\n",
         "outer(1, factor=3)", ["scale(offset)"]),
        ("def wrap(x, factor=2):\n    return outer(x, factor=factor)\n"
         "def outer(x, factor=2):\n    return scale(wrap(x, factor=factor))"
         "\n", "outer(1)",
         ["outer(factor)", "scale(factor)", "scale(offset)", "wrap(factor)"]),
    ], ids=["forward-only", "outer-passed", "other-default", "rebound",
            "chain", "cycle"])
    def test_forwarded_parameter_counts_only_when_passed_on(
            self, tmp_path, wrap, call, dead):
        # ``scale(x, factor=factor)`` inside wrap passes scale's factor only
        # when a caller passes wrap's, unless wrap changes the value (its
        # own default differs, or it rebinds the name first).
        violations = self._check(tmp_path, {
            "src/pkg/ops.py": SCALE,
            "src/pkg/wrap.py": f"from pkg.ops import scale\n{wrap}",
            "examples/demo.py": ("from pkg.wrap import outer, wrap\n"
                                 f"{call}\n"),
        })
        assert self._keys(violations) == dead

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


# ------------------------------------------------- repo rule: view returns

class TestExecutorViewAnnotationRule:
    def _check(self, source, filename="executors_fake.py"):
        return _repo_rules().check_source(filename, source)

    def test_unannotated_reshape_return_flagged(self):
        violations = self._check(
            "def reshape(node, inputs, ctx):\n"
            "    (x,) = inputs\n"
            "    return x.reshape(node.attrs['shape'])\n")
        assert len(violations) == 1
        assert "aliases_input" in violations[0][2]

    def test_annotated_reshape_return_clean(self):
        for decorator in ("@aliases_input",
                          "@annotations.aliases_input"):
            violations = self._check(
                f"{decorator}\n"
                "def flatten(node, inputs, ctx):\n"
                "    (x,) = inputs\n"
                "    return x.reshape((x.shape[0], -1))\n")
            assert violations == [], decorator

    def test_rule_scoped_to_executor_modules(self):
        source = ("def helper(x, shape):\n"
                  "    return x.reshape(shape)\n")
        assert self._check(source, filename="executors_quant.py")
        assert self._check(source, filename="kernels.py") == []

    def test_real_executor_modules_clean(self):
        root = Path(__file__).resolve().parents[1] / "src"
        checked = 0
        for path in sorted(root.rglob("executors*.py")):
            checked += 1
            assert self._check(path.read_text(), str(path)) == []
        assert checked == 2  # float, quant


# ----------------------------------------------------- repo rule: no np.pad

class TestNoNpPadRule:
    SOURCE = ("import numpy as np\n"
              "from numpy import pad\n"
              "def f(x):\n"
              "    return np.pad(x, 1)\n")

    def test_flagged_in_runtime_modules(self):
        rules = _repo_rules()
        for module in ("src/repro/kernels/conv.py",
                       "src/repro/runtime/interpreter.py",
                       "src/repro/pipelines/preprocess.py"):
            violations = rules.check_source(module, self.SOURCE)
            assert [line for _, line, _ in violations] == [2, 4], module
            assert all("pad_spatial" in msg for _, _, msg in violations)

    def test_other_modules_and_calls_clean(self):
        rules = _repo_rules()
        assert rules.check_source("src/repro/zoo/backends.py",
                                  self.SOURCE) == []
        helper = ("import numpy\n"
                  "from repro.kernels.common import pad_spatial\n"
                  "def f(x, arr):\n"
                  "    return pad_spatial(x, ((1, 1), (1, 1))), arr.pad\n")
        assert rules.check_source("src/repro/kernels/x.py", helper) == []

    def test_real_runtime_modules_clean(self):
        rules = _repo_rules()
        root = Path(__file__).resolve().parents[1]
        checked = 0
        for sub in ("kernels", "runtime", "pipelines"):
            for path in sorted((root / "src/repro" / sub).rglob("*.py")):
                rel = str(path.relative_to(root))
                checked += 1
                assert rules.check_source(rel, path.read_text()) == [], rel
        assert checked > 10


# ---------------------------------------------- repo rule: dangling __all__

class TestDanglingAllRule:
    def test_dangling_entry_reported_with_path_and_line(self, tmp_path,
                                                        capsys):
        module = tmp_path / "pkg.py"
        module.write_text("from os import path\n"
                          "\n"
                          "__all__ = [\n"
                          "    \"path\",\n"
                          "    \"removed_helper\",\n"
                          "]\n")
        assert _repo_rules().main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{module}:5: ")
        assert "'removed_helper'" in out and "'path'" not in out

    def test_every_kind_of_binding_counts(self):
        source = ("import os.path\n"
                  "import json as js\n"
                  "from re import compile as rc\n"
                  "def fn(): pass\n"
                  "class Cls: pass\n"
                  "A, (B, C) = 1, (2, 3)\n"
                  "D: int = 4\n"
                  "try:\n"
                  "    import tomllib as toml\n"
                  "except ImportError:\n"
                  "    toml = None\n"
                  "__all__ = ('os', 'js', 'rc', 'fn', 'Cls', 'A', 'B', 'C',\n"
                  "           'D', 'toml')\n")
        assert _repo_rules().check_source("pkg.py", source) == []

    def test_names_bound_only_inside_functions_do_not_count(self):
        source = ("def fn():\n"
                  "    hidden = 1\n"
                  "    return hidden\n"
                  "__all__ = ['fn', 'hidden']\n")
        violations = _repo_rules().check_source("pkg.py", source)
        assert [(line, "'hidden'" in msg) for _, line, msg in violations] \
            == [(4, True)]

    def test_real_tree_clean(self):
        rules = _repo_rules()
        root = Path(__file__).resolve().parents[1] / "src"
        with_all = [p for p in sorted(root.rglob("*.py"))
                    if "__all__" in p.read_text()]
        assert with_all
        for path in with_all:
            assert rules.check_source(str(path), path.read_text()) == []


# --------------------------------------------- repo rule: test-only definition

class TestTestOnlyDefinitionRule:
    @staticmethod
    def _check(root, files, allowlist=None):
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return _repo_rules().check_test_only_definitions(
            root, {} if allowlist is None else allowlist)

    @staticmethod
    def _names(violations):
        return sorted(msg.split("'")[1] for _, _, msg in violations)

    def test_docstring_import_all_and_test_uses_do_not_count(self, tmp_path):
        violations = self._check(tmp_path, {
            "src/pkg/__init__.py": ("from pkg.color import rgb_to_yuv\n"
                                    "__all__ = ['rgb_to_yuv']\n"),
            "src/pkg/color.py": (
                "_MATRIX = 1.0\n"
                "def rgb_to_yuv(x):\n"
                "    return x * _MATRIX\n"
                "def yuv_to_rgb(x):\n"
                "    '''Inverse of :func:`rgb_to_yuv`.'''\n"
                "    return yuv_to_rgb(x) / _MATRIX\n"),
            "tests/test_color.py": ("from pkg.color import rgb_to_yuv, "
                                    "yuv_to_rgb\n"
                                    "yuv_to_rgb(rgb_to_yuv(1.0))\n"),
        })
        assert self._names(violations) == ["rgb_to_yuv", "yuv_to_rgb"]
        path, line, _ = violations[0]
        assert (path, line) == (str(tmp_path / "src/pkg/color.py"), 2)

    @pytest.mark.parametrize("root", ["bench", "benchmarks", "examples",
                                      "tools", "src"])
    def test_non_test_reference_counts(self, tmp_path, root):
        assert self._check(tmp_path, {
            "src/pkg/util.py": ("def helper():\n    return 1\n"
                                "class Thing:\n    pass\n"
                                "LIMIT: int = 3\n"),
            f"{root}/use.py": ("import pkg.util as u\n"
                               "from pkg.util import helper\n"
                               "helper(), u.Thing(), u.LIMIT\n"),
        }) == []

    def test_decorated_definition_exempt(self, tmp_path):
        assert self._check(tmp_path, {
            "src/pkg/rules.py": ("REGISTRY = []\n"
                                 "def register(fn):\n"
                                 "    REGISTRY.append(fn)\n"
                                 "    return fn\n"
                                 "@register\n"
                                 "def rule():\n"
                                 "    return REGISTRY\n"),
        }) == []

    def test_allowlisted_name_passes(self, tmp_path):
        files = {"src/pkg/hooks.py": "def hook():\n    return 1\n"}
        assert self._names(self._check(tmp_path, files)) == ["hook"]
        assert self._check(tmp_path, files, {"hook": "public hook"}) == []

    def test_stale_allowlist_entry_fails(self, tmp_path):
        violations = self._check(tmp_path, {
            "src/pkg/hooks.py": "def hook():\n    return 1\n",
            "examples/demo.py": "from pkg.hooks import hook\nhook()\n",
        }, {"hook": "public hook", "gone": "deleted long ago"})
        assert self._names(violations) == ["gone", "hook"]
        messages = " ".join(msg for _, _, msg in violations)
        assert "non-test code references it" in messages
        assert "names no top-level definition" in messages

    def test_public_methods_of_src_classes_checked(self, tmp_path):
        violations = self._check(tmp_path, {
            "src/pkg/shapes.py": (
                "import http.server\n"
                "class Box:\n"
                "    def area(self):\n"
                "        return self.side() ** 2\n"
                "    def side(self):\n"
                "        return 1\n"
                "    def grow(self):\n"
                "        return self.grow()\n"
                "    def _private(self):\n"
                "        return 0\n"
                "    @property\n"
                "    def volume(self):\n"
                "        return 0\n"
                "class Crate(Box):\n"
                "    def stack(self):\n"
                "        return 2\n"
                "class Handler(http.server.BaseHTTPRequestHandler):\n"
                "    def do_GET(self):\n"
                "        return None\n"),
            "examples/demo.py": ("from pkg.shapes import Box, Crate, "
                                 "Handler\n"
                                 "Box().area(), Crate(), Handler\n"),
        })
        # `side` is called by a sibling method and `area` by an example;
        # `grow` only calls itself and `stack` is never called. Private,
        # decorated and stdlib-derived (hook) methods are not checked.
        assert self._names(violations) == ["Box.grow", "Crate.stack"]
        assert self._check(tmp_path, {}, {"Box.grow": "kept on purpose",
                                          "Crate.stack": "kept too"}) == []

    def test_references_match_by_what_they_can_reach(self, tmp_path):
        violations = self._check(tmp_path, {
            "src/pkg/util.py": ("def helper():\n"
                                "    return 1\n"
                                "class Box:\n"
                                "    def size(self):\n"
                                "        return 2\n"
                                "    def area(self):\n"
                                "        return 3\n"),
            "examples/use.py": ("import numpy as np\n"
                                "from pkg.util import Box\n"
                                "size = 1\n"
                                "Box().helper, size, np.area\n"),
        })
        # An attribute does not reach a top-level function, a bare name does
        # not reach a method, and an outside module's attribute reaches
        # nothing in src/.
        assert self._names(violations) == ["Box.area", "Box.size", "helper"]

    def test_real_tree_clean_with_reasoned_entries(self):
        rules = _repo_rules()
        assert len(rules.TEST_ONLY_ALLOWLIST) == 2
        assert all(reason.strip()
                   for reason in rules.TEST_ONLY_ALLOWLIST.values())
        root = Path(__file__).resolve().parents[1]
        assert rules.check_test_only_definitions(root) == []
