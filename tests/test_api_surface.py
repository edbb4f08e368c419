"""No unused public API: every public name of ``renyiacc`` has a use in it.

The guard parses ``src/renyiacc`` with ``ast``. A public name is a
module-level function or class, or a method of a public class, whose name
does not start with an underscore. It counts as used when its name appears
anywhere in the package outside its own definition: as a name, an attribute
or an imported name (a package re-export counts). A public name with no use
must be on ``ALLOWED`` with a one-word reason; a name kept there must still
be defined and still be unused, so the list stays exact.

A second guard keeps numpy's Hermitian eigensolvers (``eigh``,
``eigvalsh``) to ``qcore/linalg.py``: every other module decomposes through
its one spectral helper, which holds the PSD rule.
"""

import ast
from collections import Counter
from pathlib import Path

import renyiacc

PACKAGE = Path(renyiacc.__file__).resolve().parent

# public names that nothing in the package calls, kept on purpose
ALLOWED = {
    "KrausChannel.identity": "state-model",
    "KrausChannel.compose": "state-model",
    "KrausChannel.dephasing": "state-model",
    "DensityOperator.is_pure": "state-model",
    "DensityOperator.permute_labels": "state-model",
    "build_sampling_channel": "benchmark",
    "SamplingChannel.output_state": "benchmark",
    "CqState.apply_classical_map": "state-model",
    "cond_mutual_info": "state-model",
    "check_b_independence": "paper-api",
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
    "kraus_to_dict": "serializer",
    "kraus_from_dict": "serializer",
    "protocol_to_dict": "serializer",
    "strategy_to_dict": "serializer",
}


def public_definitions(tree):
    """(qualified name, bare name) of each public definition of a module."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


def unused_public_names():
    defs, uses = [], Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.extend(public_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.alias):
                uses[node.name] += 1
    return {qual for qual, name in defs if uses[name] == 0}, \
        {qual for qual, _ in defs}


def test_every_unused_public_name_is_allowed():
    unused, _ = unused_public_names()
    missing = sorted(unused - set(ALLOWED))
    assert not missing, (
        f"public names with no use in the package: {missing}; use them, "
        "make them private or delete them, or add them to ALLOWED with a "
        "reason")


def test_allow_list_is_exact():
    unused, defined = unused_public_names()
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
