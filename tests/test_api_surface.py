"""No unused public API: every public name of ``renyiacc`` has a use in it.

The guard parses ``src/renyiacc`` with ``ast``. A public name is a
module-level function or class, or a method of a public class, whose name
does not start with an underscore. A module-level name counts as used when
it appears anywhere in the package outside its own definition: as a name,
an attribute or a name imported outside an ``__init__.py``. A method counts
as used by an attribute of its name whose receiver is of its class, or of a
package ancestor or descendant of it, or whose receiver's class the source
does not show. The class is known for a class name, ``self`` and ``cls``, a
call of a class or of a function annotated to return one, a parameter
annotated with one, and a local assigned one of these. A package re-export
does not count, and neither does an attribute of numpy, such as
``np.stack``. A
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


def class_table(trees):
    """Each class defined at the top of a module, mapped to itself and its
    package ancestors and descendants: a call on a receiver of one of them
    may run a method defined on any."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for tree in trees for node in tree.body
             if isinstance(node, ast.ClassDef)}

    def ancestors(name):
        return {name}.union(*(ancestors(b) for b in bases.get(name, ())
                              if b in bases))

    up = {name: ancestors(name) for name in bases}
    return {name: {other for other in bases
                   if other in up[name] or name in up[other]}
            for name in bases}


def annotated_class(node, classes):
    """The package class an annotation names, as a name or a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in classes else None
    return node.id if isinstance(node, ast.Name) and node.id in classes \
        else None


def return_classes(trees, classes):
    """Function or method name -> the package class every definition of
    that name is annotated to return; left out when they disagree."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                found.setdefault(node.name, set()).add(
                    annotated_class(node.returns, classes)
                    if node.returns is not None else None)
    return {name: next(iter(got)) for name, got in found.items()
            if len(got) == 1 and None not in got}


def receiver_class(node, scope, classes, returns):
    """The package class of the receiver ``node`` where the source shows
    it: a class name, a call of a class or of a function annotated to
    return one, or a name that ``scope`` types (``self``, ``cls``, an
    annotated parameter, a local assigned one of these). None otherwise."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        return name if name in classes else returns.get(name)
    if isinstance(node, ast.Name):
        return node.id if node.id in classes else scope.get(node.id)
    return None


def function_scope(fn, owner, scope, classes, returns):
    """``scope`` extended by the parameters and locals of ``fn`` whose
    package class the source shows; ``owner`` is the class ``fn`` is a
    method of, or None."""
    scope = dict(scope)
    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in getattr(fn, "decorator_list", ()))
    for j, a in enumerate(args):
        scope.pop(a.arg, None)
        if j == 0 and owner and not static:
            scope[a.arg] = owner
        elif a.annotation is not None \
                and annotated_class(a.annotation, classes):
            scope[a.arg] = annotated_class(a.annotation, classes)
    assigned = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            assigned.setdefault(node.targets[0].id, set()).add(
                receiver_class(node.value, scope, classes, returns))
    scope.update({name: next(iter(got)) for name, got in assigned.items()
                  if len(got) == 1 and None not in got})
    return scope


def unused_public_names(files):
    """Public names defined in ``files``, a mapping of path to source, that
    no file uses. A module-level function or class is used by its name, an
    import of it, or an attribute of that name. A method is used by an
    attribute of its name whose receiver is of its class (or a package
    ancestor or descendant of it), or whose receiver's class the source
    does not show. An attribute of numpy (``np.stack``) is no use of a
    package name, and an import in an ``__init__.py`` (a re-export) is no
    use either."""
    trees = {path: ast.parse(src) for path, src in files.items()}
    classes = class_table(trees.values())
    returns = return_classes(trees.values(), classes)
    defs, names, attrs, methods = [], Counter(), Counter(), set()

    def visit(node, owner, scope, skip, reexport):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            scope = function_scope(node, owner if isinstance(
                node, ast.FunctionDef) else None, scope, classes, returns)
            owner = None
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias) and not reexport:
            names[node.name] += 1
        elif isinstance(node, ast.Attribute) \
                and attribute_root(node) not in skip:
            cls = receiver_class(node.value, scope, classes, returns)
            if cls is None:
                attrs[node.attr] += 1
            else:
                methods.update(f"{c}.{node.attr}" for c in classes[cls])
        for child in ast.iter_child_nodes(node):
            visit(child, owner, scope, skip, reexport)

    for path, tree in trees.items():
        defs.extend(public_definitions(tree))
        visit(tree, None, {}, numpy_names(tree),
              Path(path).name == "__init__.py")
    return {qual for qual, name, _ in defs if not attrs[name] and (
        qual not in methods if "." in qual else not names[name])}, \
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


def test_use_guard_matches_methods_by_receiver_class():
    src = ("class A:\n    def check(self):\n        pass\n"
           "    def run(self):\n        return self.check()\n"
           "    def load(self) -> 'B':\n        pass\n"
           "class B:\n    def check(self):\n        pass\n"
           "    def size(self):\n        pass\n"
           "    def shape(self):\n        pass\n"
           "class C(B):\n    def check(self):\n        pass\n"
           "class D:\n    def check(self):\n        pass\n"
           "    def size(self):\n        pass\n"
           "    def shape(self):\n        pass\n"
           "def f(a: A, d: 'D'):\n    a.run()\n    d.size()\n"
           "    b = a.load()\n    b.check()\n    A().load().shape()\n")
    unused, _ = unused_public_names({"mod.py": src})
    # B.check is called on a B, so C.check may run; D.check, D.shape and
    # B.size are named only on receivers of other classes
    assert unused == {"f", "C", "D", "D.check", "D.shape", "B.size"}
    unused, _ = unused_public_names({"mod.py": src + "x.size(); y.check()\n"})
    assert unused == {"f", "C", "D", "D.shape"}  # x, y: any class


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


UNKNOWN = object()  # a value the source does not fix as a literal


def literal(node):
    """The value of a literal expression, or ``UNKNOWN``."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return UNKNOWN


def defaulted_parameters(tree):
    """(qualified name, bare name, {parameter: (positional index or None,
    default)}) of each public function or method with a defaulted
    parameter; a default that is not a literal reads ``UNKNOWN``."""
    for qual, name, fn in public_definitions(tree):
        if isinstance(fn, ast.ClassDef):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        if "." in qual and not any(isinstance(d, ast.Name)
                                   and d.id == "staticmethod"
                                   for d in fn.decorator_list):
            positional = positional[1:]  # self or cls
        first = len(positional) - len(args.defaults)
        out = {a.arg: (j, literal(args.defaults[j - first]))
               for j, a in enumerate(positional) if j >= first}
        out.update({a.arg: (None, literal(d)) for a, d in zip(
            args.kwonlyargs, args.kw_defaults) if d is not None})
        if out:
            yield qual, name, out


def passed_arguments(tree, passed):
    """Append to ``passed[name]`` what each call by that name passes: its
    positional values, its keyword values by name, and whether it has a
    ``*`` or ``**`` argument. A value that is not a literal reads
    ``UNKNOWN``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args) \
            or any(k.arg is None for k in node.keywords)
        passed.setdefault(name, []).append((
            [literal(a) for a in node.args],
            {k.arg: literal(k.value) for k in node.keywords if k.arg},
            starred))


def sets(call, param, j, default):
    """Whether ``call`` may give ``param`` (at positional index ``j``, None
    if keyword-only) a value other than its ``default``."""
    args, kwargs, starred = call
    if starred:
        return True
    if param in kwargs:
        value = kwargs[param]
    elif j is not None and j < len(args):
        value = args[j]
    else:
        return False
    return value is UNKNOWN or default is UNKNOWN or value != default


def unset_settings(defs_src, call_srcs):
    passed = {}
    for src in call_srcs:
        passed_arguments(ast.parse(src), passed)
    return {f"{qual}({p})" for src in defs_src
            for qual, name, params in defaulted_parameters(ast.parse(src))
            for p, (j, default) in params.items()
            if not any(sets(c, p, j, default) for c in passed.get(name, ()))}


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
    calls = ["f(0, 5)", "mod.f(0, d=4)", "g(*xs)", "k.m(0)", "K.s(**kw)"]
    assert unset_settings([defs], calls) == {"f(c)", "K.m(b)"}
    # a literal equal to the default sets nothing; any other value does
    calls = ["f(0, 1, c=2.0)", "mod.f(0, d=n)", "g(a=1)", "k.m(1, -2)",
             "K.s(a=(1,))"]
    assert unset_settings([defs], calls) == {"f(b)", "f(c)", "g(a)",
                                             "K.m(a)"}
