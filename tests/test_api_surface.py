"""No unused public API: every public name of ``renyiacc`` has a use in it.

The guard parses ``src/renyiacc`` with ``ast``. A public name is a
module-level function or class, or a method of a public class, whose name
does not start with an underscore. It counts as used when its name appears
anywhere in the package outside its own definition: as a name, an attribute
or a name imported outside an ``__init__.py``. A package re-export does not
count, and neither does an attribute of numpy, such as ``np.stack``. A
public name with no use must be on ``ALLOWED`` with a one-word reason; a
name kept there must still be defined and still be unused, so the list
stays exact.

A second guard keeps numpy's Hermitian eigensolvers (``eigh``,
``eigvalsh``) to ``qcore/linalg.py``: every other module decomposes through
its one spectral helper, which holds the PSD rule.

A third guard finds settings nobody sets: a parameter with a default, of a
public function or method other than ``__init__``, that no call in
``src/``, ``tests/`` or ``bench/`` passes. Calls are matched by name: a
bare-name call ``f(...)`` and an attribute call ``x.f(...)`` count for every
definition named ``f``. A keyword passes its parameter, ``k`` positional
arguments pass the first ``k`` parameters (after ``self`` or ``cls``), and a
starred argument (``*args`` or ``**kwargs``) passes every parameter.
"""

import ast
from collections import Counter
from pathlib import Path

import renyiacc

PACKAGE = Path(renyiacc.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent

# public names that nothing in the package calls, kept on purpose
ALLOWED = {
    "build_sampling_channel": "benchmark",
    "nelder_mead": "benchmark",
    "check_b_independence": "paper-api",
    "family_round": "paper-api",
    "ConstraintSet.stack": "constructor",
    "reweighted_state": "paper-api",
    "decomposition_gap": "paper-api",
    "max_divergence": "paper-api",
    "bell_value": "paper-api",
    "joint_cq_state": "paper-api",
    "TwoQubitStrategy.chsh_tsirelson": "preset",
    "bloch_projectors": "reference",
    "inner_inf_v_grid": "oracle",
    "h_partial_variational": "oracle",
    "asymptotic_check": "diagnostic",
    "protocol_to_dict": "serializer",
    "strategy_to_dict": "serializer",
}


def public_definitions(tree):
    """(qualified name, bare name, node) of each public definition of a
    module."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def numpy_names(tree):
    """Names a module binds to numpy or to a part of it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names
                         if a.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "numpy":
            names.update(a.asname or a.name for a in node.names)
    return names


def attribute_root(node):
    """The name an attribute chain such as ``np.linalg.eigh`` starts at."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def unused_public_names(files):
    """Public names defined in ``files``, a mapping of path to source, that
    no file uses. An attribute of numpy (``np.stack``) is no use of a
    package name, and an import in an ``__init__.py`` (a re-export) is no
    use either."""
    defs, uses = [], Counter()
    for path, src in files.items():
        tree = ast.parse(src)
        defs.extend(public_definitions(tree))
        skip = numpy_names(tree)
        reexport = Path(path).name == "__init__.py"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                if attribute_root(node) not in skip:
                    uses[node.attr] += 1
            elif isinstance(node, ast.alias) and not reexport:
                uses[node.name] += 1
    return {qual for qual, name, _ in defs if uses[name] == 0}, \
        {qual for qual, _, _ in defs}


def test_use_guard_does_not_count_numpy_attributes():
    src = ("import numpy as np\nimport numpy.linalg\n"
           "from numpy import linalg as la\n"
           "class K:\n    def stack(self):\n        pass\n"
           "    def eigh(self):\n        pass\n"
           "    def solve(self):\n        pass\n"
           "    def size(self):\n        pass\n"
           "x = np.stack([numpy.linalg.eigh(m), la.solve(m, m)])\n"
           "y = K().size\n")
    unused, _ = unused_public_names({"mod.py": src})
    assert unused == {"K.stack", "K.eigh", "K.solve"}


def test_use_guard_does_not_count_package_reexports():
    files = {"pkg/__init__.py": "from .mod import f, g\n__all__ = ['f', 'g']\n",
             "pkg/mod.py": "def f():\n    pass\ndef g():\n    pass\n",
             "pkg/use.py": "from .mod import g\n"}
    unused, _ = unused_public_names(files)
    assert unused == {"f"}


def test_every_unused_public_name_is_allowed():
    unused, _ = unused_public_names(_sources(PACKAGE))
    missing = sorted(unused - set(ALLOWED))
    assert not missing, (
        f"public names with no use in the package: {missing}; use them, "
        "make them private or delete them, or add them to ALLOWED with a "
        "reason")


def test_allow_list_is_exact():
    unused, defined = unused_public_names(_sources(PACKAGE))
    gone = sorted(set(ALLOWED) - defined)
    used = sorted(set(ALLOWED) & defined - unused)
    assert not gone, f"ALLOWED names no longer defined: {gone}"
    assert not used, f"ALLOWED names now used in the package: {used}"


def test_reasons_are_one_word():
    assert all(reason and " " not in reason for reason in ALLOWED.values())


EIGENSOLVERS = {"eigh", "eigvalsh"}
SPECTRAL_HOME = PACKAGE / "qcore" / "linalg.py"


def eigensolver_uses(tree):
    """Line numbers where a module names ``eigh`` or ``eigvalsh``, as an
    attribute (``np.linalg.eigh``) or as a name imported from a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and any(a.name in EIGENSOLVERS for a in node.names):
            yield node.lineno


def test_eigensolver_is_called_only_in_linalg():
    found = {
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != SPECTRAL_HOME
        for line in eigensolver_uses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert not found, (
        f"eigh/eigvalsh outside qcore/linalg.py: {sorted(found)}; decompose "
        "through qcore.linalg._eigh")


def test_eigensolver_guard_sees_each_spelling():
    src = ("import numpy as np\nfrom numpy.linalg import eigvalsh\n"
           "w = np.linalg.eigh(m)\n")
    assert sorted(eigensolver_uses(ast.parse(src))) == [2, 3]
    assert list(eigensolver_uses(ast.parse(SPECTRAL_HOME.read_text())))


def defaulted_parameters(tree):
    """(qualified name, bare name, {parameter: positional index or None})
    of each public function or method with a defaulted parameter."""
    for qual, name, fn in public_definitions(tree):
        if isinstance(fn, ast.ClassDef):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        if "." in qual and not any(isinstance(d, ast.Name)
                                   and d.id == "staticmethod"
                                   for d in fn.decorator_list):
            positional = positional[1:]  # self or cls
        out = {a.arg: j for j, a in enumerate(positional)
               if j >= len(positional) - len(args.defaults)}
        out.update({a.arg: None for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                    if d is not None})
        if out:
            yield qual, name, out


def passed_arguments(tree, passed):
    """Add to ``passed[name]`` what each call by that name passes: keyword
    names, the positional count, or ``"*"`` for a starred argument."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        got = passed.setdefault(name, {0})
        got.update(k.arg or "*" for k in node.keywords)
        if any(isinstance(a, ast.Starred) for a in node.args):
            got.add("*")
        got.add(len(node.args))


def unset_settings(defs_src, call_srcs):
    passed = {}
    for src in call_srcs:
        passed_arguments(ast.parse(src), passed)
    unset = set()
    for src in defs_src:
        for qual, name, params in defaulted_parameters(ast.parse(src)):
            got = passed.get(name, {0})
            most = max(n for n in got if isinstance(n, int))
            unset.update(
                f"{qual}({p})" for p, j in params.items()
                if "*" not in got and p not in got
                and (j is None or most <= j))
    return unset


def _sources(*roots):
    """The ``*.py`` files under ``roots``, by path."""
    return {str(path): path.read_text(encoding="utf-8") for root in roots
            for path in sorted(root.rglob("*.py"))}


def test_every_setting_is_set_by_some_call():
    unset = unset_settings(_sources(PACKAGE).values(), _sources(
        REPO / "src", REPO / "tests", REPO / "bench").values())
    assert not unset, (
        f"defaulted parameters no call passes: {sorted(unset)}; make them "
        "constants, or pass them where they matter")


def test_setting_guard_sees_each_way_of_passing():
    defs = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
            "def g(a=1):\n    pass\n"
            "class K:\n    def __init__(self, z=0):\n        pass\n"
            "    def m(self, a=1, b=2):\n        pass\n"
            "    @staticmethod\n    def s(a=1):\n        pass\n"
            "def _private(a=1):\n    pass\n")
    assert unset_settings([defs], ["x"]) == {
        "f(b)", "f(c)", "f(d)", "g(a)", "K.m(a)", "K.m(b)", "K.s(a)"}
    calls = ["f(0, 1)", "mod.f(0, d=4)", "g(*xs)", "k.m(1)", "K.s(**kw)"]
    assert unset_settings([defs], calls) == {"f(c)", "K.m(b)"}
