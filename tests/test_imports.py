"""Every import and every private module-level name in the package modules
and in the test oracles is used, every public name of the package is read
(stdlib ast; no linter needed), quadrature node tables are built only by
the two cached builders in tomography, kernel grids are not widened to
complex outside the allowlisted 1-D vectors, the source imports no scipy,
no process that builds the catalog kinds or reconstructs a ring bump loads
it, and the declared runtime dependencies are the third-party modules the
source imports.

``__init__.py`` is skipped by the usage rules: its imports are re-exports.
``__future__`` imports are directives, not names. A private name is a
module-level constant, function or class whose name starts with one
underscore; it must be read somewhere in its own module, because nothing
outside should rely on it. A private method of a class (``def _name``, not
a dunder) must be read as an attribute somewhere in the package, since it
may be called from another module. A public module-level function or
class, and a public method or property, must be read somewhere in the
package outside its own body (an import in ``__init__.py`` exports it and
counts as a read) or be named in ``ALLOWLIST`` with the reason it stays;
an allowlisted name that is gone or now read fails too. Reads match by name,
so a method stays unflagged when a method of the same name elsewhere is
read. The runtime needs numpy alone: the ring bump's erfc is Cody's
rational approximation in numpy, so scipy is only the tests' independent
reference, and ``import gaugekit``, the CLI's cold start and every scenario
runner load none of it.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gaugekit"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
MODULES.append(Path(__file__).resolve().parent / "oracles.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unread_private_names(source: str) -> list:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert _unread_private_names(path.read_text()) == []


def test_detector_flags_an_unread_private_name():
    source = ("_USED = 1\n_ORPHAN = dict(limit=2)\n__all__ = []\nPUBLIC = 3\n"
              "def _helper():\n    return _USED\n"
              "def _dead():\n    _local = 1\n    return 0\n"
              "def run():\n    return _helper()\n")
    assert _unread_private_names(source) == [(2, "_ORPHAN"), (7, "_dead")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport numpy as np\nnp.zeros(1)\n"
    assert _unused_imports(source) == [(2, "json")]


def _orphaned_private_methods(sources: dict) -> list:
    """(file, line, name) of each private method of a class in the sources
    ({file: text}) that no source reads as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted((name, node.lineno, node.name) for name, tree in trees.items()
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and node.name not in read)


def test_no_orphaned_private_methods():
    assert _orphaned_private_methods({p.name: p.read_text() for p in PACKAGE}) == []


def test_detector_flags_an_orphaned_private_method():
    kernel = ("class K:\n"
              "    def _used(self):\n        return 1\n"
              "    def _called_elsewhere(self):\n        return 2\n"
              "    def _orphan(self):\n        self._orphan_value = 3\n"
              "    def __len__(self):\n        return 0\n"
              "    def run(self):\n        return self._used()\n")
    caller = "def call(k):\n    return k._called_elsewhere()\n"
    assert _orphaned_private_methods({"k.py": kernel, "caller.py": caller}) == [
        ("k.py", 6, "_orphan")]


# Public names that nothing in the package reads, each kept for a reason
# that lies outside the package.
_BENCHMARK = "read by the benchmark in perfbench/"
_ACCEPTANCE = "called by an acceptance criterion in tests/test_acceptance.py"
_CLOSED_FORM = "builds a profile from a closed form"
ALLOWLIST = {
    "catalog.cross_axis_transversal": _BENCHMARK,
    "scattering.synthesize_sphere_kernel": _BENCHMARK,
    "tomography.line_at": _BENCHMARK,
    "ScatteringKernel.value_grid": _BENCHMARK + ", whose tracer wraps it by name",
    "fields.eval_ab_potential": _ACCEPTANCE,
    "tomography.synthetic_winding_family": _ACCEPTANCE,
    "Report.all_passed": _ACCEPTANCE,
    "ChannelSpectrum.shifted": _ACCEPTANCE,
    "AngularFunction.harmonic": _CLOSED_FORM,
    "AngularFunction.from_callable": _CLOSED_FORM,
    "SphereFunction.from_callable": _CLOSED_FORM + "; README states its array contract",
}


def _unread_public_names(sources: dict) -> list:
    """Qualified names ("module.name" for a module-level function or class,
    "Class.name" for a method or property) of each public definition in the
    sources ({module: text}) that no source reads outside the definition's
    own body, as a loaded name, a loaded attribute or an imported name.
    Reads match by name alone, whatever object they reach."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads.setdefault(alias.name, []).append(node)
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                definitions.extend((f"{node.name}.{item.name}", item) for item in node.body
                                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    unread = []
    for qualname, node in definitions:
        if node.name.startswith("_"):
            continue
        own = {id(inner) for inner in ast.walk(node)}
        if all(id(read) in own for read in reads.get(node.name, [])):
            unread.append(qualname)
    return sorted(unread)


def _package_sources() -> dict:
    return {p.stem: p.read_text() for p in PACKAGE}


def test_no_unread_public_names():
    unread = _unread_public_names(_package_sources())
    assert [name for name in unread if name not in ALLOWLIST] == []


def test_allowlist_names_are_defined_and_unread():
    unread = set(_unread_public_names(_package_sources()))
    assert sorted(set(ALLOWLIST) - unread) == []


def test_detector_flags_an_unread_public_name():
    kernel = ("def used():\n    return 1\n"
              "def orphan():\n    return used()\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
              "class K:\n"
              "    def read(self):\n        return K\n"
              "    def orphan_method(self):\n        return self.read()\n"
              "    @property\n    def size(self):\n        return 0\n"
              "    def __call__(self):\n        return 0\n"
              "    def _private(self):\n        return 0\n"
              "class Exported:\n    pass\n")
    caller = ("from .kernel import K, used\n"
              "def call(k):\n    return used() + k.size if isinstance(k, K) else k.read()\n")
    init = "from .kernel import Exported\nfrom .caller import call\n"
    assert _unread_public_names({"kernel": kernel, "caller": caller, "__init__": init}) == [
        "K.orphan_method", "kernel.orphan", "kernel.recursive"]


# The calls that compute quadrature nodes, each with the one function allowed
# to make it (None: none is). Both builders are lru_cached, so every rule
# reads a node table built once per node count instead of building its own.
_NODE_TABLE_BUILDERS = {
    "leggauss": "tomography._gauss_legendre",
    "legroots": "tomography._gauss_kronrod",
    "roots_legendre": None,
}


def _is_cached(node) -> bool:
    """Whether a function definition is decorated with lru_cache or cache."""
    names = {d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)
             for d in (dec.func if isinstance(dec, ast.Call) else dec
                       for dec in node.decorator_list)}
    return bool(names & {"lru_cache", "cache"})


def _stray_node_tables(sources: dict) -> list:
    """(module.owner, call) of each node computation in the sources
    ({module: text}) that sits outside its builder in _NODE_TABLE_BUILDERS,
    or in a builder that is not cached; the owner is the module-level
    function or class around the call, or the module itself."""
    found = []
    for module, text in sources.items():
        for top in ast.parse(text).body:
            owner = f"{module}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in _NODE_TABLE_BUILDERS and (
                        _NODE_TABLE_BUILDERS[name] != owner or not _is_cached(top)):
                    found.append((owner, name))
    return sorted(found)


def test_node_tables_are_built_once():
    assert _stray_node_tables(_package_sources()) == []


def test_detector_flags_a_stray_node_table():
    tomography = ("from functools import lru_cache\nimport numpy as np\n"
                  "@lru_cache(maxsize=None)\ndef _gauss_legendre(n):\n"
                  "    return np.polynomial.legendre.leggauss(n)\n"
                  "def _gauss_kronrod(n):\n"
                  "    return np.polynomial.legendre.legroots(np.ones(n))\n"
                  "def rule(n):\n    return np.polynomial.legendre.leggauss(n)\n"
                  "class Rule:\n    def nodes(self):\n        return leggauss(4)\n")
    other = ("from scipy.special import roots_legendre\n"
             "X = roots_legendre(8)\n")
    assert _stray_node_tables({"tomography": tomography, "other": other}) == [
        ("other.<module>", "roots_legendre"), ("tomography.Rule", "leggauss"),
        ("tomography._gauss_kronrod", "legroots"), ("tomography.rule", "leggauss")]


# The functions of scattering and pipeline that may widen data to complex
# with a dtype=complex keyword or an .astype(complex) call, with the number
# of such sites and the reason. A kernel grid is stored in the dtype of its
# data (scattering._grid_array), so real grids stay float64; only these 1-D
# vectors are complex by construction.
_WIDENING_MODULES = ("scattering", "pipeline")
WIDENING_ALLOWLIST = {
    "scattering.ChannelSpectrum.__post_init__": (1, "channel eigenvalues are unimodular"),
    "scattering.ab_kernel_channels": (1, "channel eigenvalues e^{+-i alpha pi}"),
    "scattering._fit_plane_gauge": (2, "the fitted phase harmonics and their sums"),
}


def _is_complex_dtype(node) -> bool:
    """Whether an expression names the complex dtype: complex, np.complex128,
    np.cdouble or the strings "complex" and "complex128"."""
    if isinstance(node, ast.Name):
        return node.id == "complex"
    if isinstance(node, ast.Attribute):
        return node.attr in {"complex128", "cdouble", "complex_"}
    return isinstance(node, ast.Constant) and node.value in {"complex", "complex128"}


def _widening_sites(sources: dict) -> list:
    """(owner, line) of each dtype=complex keyword and .astype(complex) call
    in the sources ({module: text}); the owner is the qualified name of the
    innermost function or class around it ("module.Class.method"), or
    "module.<module>"."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner.removesuffix('.<module>')}.{child.name}"
            elif isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Attribute) and f.attr == "astype" and child.args
                        and _is_complex_dtype(child.args[0])):
                    found.append((owner, child.lineno))
                found.extend((owner, child.lineno) for kw in child.keywords
                             if kw.arg == "dtype" and _is_complex_dtype(kw.value))
            visit(child, inner)

    for module, text in sources.items():
        visit(ast.parse(text), f"{module}.<module>")
    return sorted(found)


def test_grids_are_not_widened_to_complex():
    sources = {m: (SRC / f"{m}.py").read_text() for m in _WIDENING_MODULES}
    counts = {}
    for owner, _ in _widening_sites(sources):
        counts[owner] = counts.get(owner, 0) + 1
    assert counts == {owner: n for owner, (n, _) in WIDENING_ALLOWLIST.items()}


def test_detector_flags_a_widened_grid():
    source = ("import numpy as np\n"
              "W = np.zeros(3, dtype=complex)\n"
              "def grid(n):\n    return np.outer(np.ones(n), np.ones(n)).astype(complex)\n"
              "class K:\n"
              "    def __post_init__(self):\n"
              "        v = np.asarray(self.base, dtype=np.complex128)\n"
              "        def inner():\n            return v.astype('complex')\n"
              "        return np.asarray(v, dtype=float).astype(int)\n"
              "def keep(a):\n    return a.astype(complex if a.dtype.kind == 'c' else float)\n")
    assert _widening_sites({"kernel": source}) == [
        ("kernel.<module>", 2), ("kernel.K.__post_init__", 7),
        ("kernel.K.__post_init__.inner", 9), ("kernel.grid", 4)]


@pytest.mark.parametrize("module", ["gaugekit", "gaugekit.cli"])
def test_import_loads_no_scipy(module):
    """A fresh interpreter that imports the package (or the CLI) holds no
    scipy module afterwards."""
    assert _scipy_modules_after(f"import {module}") == "[]"


def _scipy_modules_after(code: str) -> str:
    """The sorted scipy modules a fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


_BUILD_AND_RECONSTRUCT = """
import numpy as np
from gaugekit import catalog
from gaugekit.angular import AngularFunction
from gaugekit.fields import PotentialConfig, TransversalField
from gaugekit.pipeline import Scenario, run_reconstruct
bumps = {"bumps": [[0.5, 1.0, 2.0, 0.3]]}
pts = np.array([[1.5, 0.5], [-2.0, 1.0]])
for kind in catalog.SCALAR_KINDS:
    catalog.build_scalar(kind, bumps if kind == "gaussian_bumps" else {"p": 2.0})(pts)
for kind in catalog.VECTOR_KINDS:
    dim = 3 if kind == "cross_axis" else 2
    catalog.build_vector(kind, bumps, dimension=dim)(np.ones((2, dim)))
ring = catalog.build_vector("ring_bump_tangential", {"b0": 0.4, "r0": 2.0, "sigma": 0.3})
cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, short_range=ring,
                      transversal=TransversalField.from_profile(AngularFunction.constant(0.3)))
rep = run_reconstruct(Scenario(kind="reconstruct", config1=cfg, geometry={
    "n_angles": 8, "n_offsets": 16, "r_min": 1.001, "r_max": 3.5}))
assert rep.verdict == "reconstructed", rep.verdict
"""


def test_catalog_and_reconstruct_load_no_scipy():
    """A fresh interpreter that builds and evaluates every catalog kind and
    reconstructs a ring bump on an 8 x 16 plane geometry holds no scipy module."""
    assert _scipy_modules_after(_BUILD_AND_RECONSTRUCT) == "[]"


def _third_party_imports(sources) -> set:
    """Top-level names of the absolute imports in the sources that are
    neither the standard library nor gaugekit."""
    names = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"gaugekit"}


def _src_third_party_imports() -> set:
    return _third_party_imports(path.read_text() for path in SRC.parent.rglob("*.py"))


def test_no_scipy_import_under_src():
    """Anywhere under src/, function bodies included, the only third-party
    import is numpy: the ring bump's erfc is numpy's, and the sphere
    solver's fit is matrix-free."""
    assert _src_third_party_imports() == {"numpy"}


def test_dependencies_are_the_imported_modules():
    """[project].dependencies of pyproject.toml names exactly the third-party
    modules imported under src/."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    assert declared == _src_third_party_imports()


def test_detector_lists_third_party_imports():
    source = ("from __future__ import annotations\nimport json, os.path\n"
              "import numpy as np\nfrom numpy.lib import stride_tricks\n"
              "from .fields import curl\nfrom gaugekit import catalog\n"
              "try:\n    import scipy.sparse as sp\nexcept ImportError:\n    pass\n"
              "class Fit:\n    from scipy.linalg import solve\n"
              "def late():\n    import sympy\n    from yaml import safe_load\n")
    assert _third_party_imports([source]) == {"numpy", "scipy", "sympy", "yaml"}
