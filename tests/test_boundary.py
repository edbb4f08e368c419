"""Bad states are rejected where they enter the entropy functions.

Every public entropy takes its states through one input check: a matrix
that is not Hermitian (or not finite) raises NotHermitianError, and a state
with a clearly negative eigenvalue raises NotPSDError, where its blocks
enter or where it is first decomposed. A block that no entropy decomposes,
such as that of a classical A, is checked where it enters. An entropy of a state, like one of a vector, raises
BadProbabilityError when its spectrum sums off 1 by more than TRACE_TOL,
and so do the KL divergence and the inner rate solvers on a vector that is
not a distribution. None of them may return a number for such an input.

The input files are checked where they are read: every field that a schema
in ``src/renyiacc/schemas/`` declares a whole number >= 1 is rejected by its
loader with BadShapeError when it is fractional, 0 or a boolean, every field
that it declares a number when it is a string or a boolean, every field that
it declares a string when it is a number, every field that it declares an
array when it is a string or a number, and every field or item that it
declares an object when it is a string or a number.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.channel import (
    BOT,
    PROTOCOL_SCHEMA,
    STRATEGY_SCHEMA,
    SamplingProtocol,
    TwoQubitStrategy,
    protocol_from_dict,
    protocol_to_dict,
    strategy_from_dict,
    strategy_to_dict,
)
from renyiacc.cli import _bell_constraint, _constraint_set, _setting_counts
from renyiacc.eatrate import (
    ConstraintSet,
    inner_inf_v,
    inner_inf_v_batch,
    inner_inf_v_grid,
)
from renyiacc.errors import (
    BadProbabilityError,
    BadShapeError,
    NotHermitianError,
    NotPSDError,
)
from renyiacc.qcore import (
    CqState,
    DensityOperator,
    creg,
    density_to_dict,
    matrix_power,
    qreg,
    random_cq,
    state_from_dict,
)
from renyiacc.qcore.serialize import CQSTATE_SCHEMA, STATE_SCHEMA
from renyiacc.qcore.states import _purification
from renyiacc.verify import ATTACK_SCHEMA, attack_from_dict
from qcore_reference import cq_to_dict

PAULI_Z = np.diag([1.0, -1.0])

# two-qubit matrices on (A, B): one not Hermitian, one with eigenvalues -0.1
DENSE = {
    NotHermitianError: np.eye(4) / 4 + 0.1j * np.kron(PAULI_Z, np.eye(2)),
    NotPSDError: np.diag([0.7, 0.5, -0.1, -0.1]),
}
# one-qubit blocks with the same two faults
BLOCK = {
    NotHermitianError: np.eye(2) / 2 + 0.1j * PAULI_Z,
    NotPSDError: np.diag([1.5, -0.5]),
}


def dense(m):
    return DensityOperator(m, (2, 2), ("A", "B"))


def cq(block):
    """Classical B, quantum A; the block of b = 0 is ``block``."""
    return CqState([creg("B", (0, 1)), qreg("A", 2)], [0.5, 0.5],
                   {(0,): block, (1,): np.eye(2) / 2})


def ab_conds(block):
    """Blocks of classical A and B on a quantum E; the block of (a, b) =
    (0, 0) is ``block``, the others are I/2."""
    conds = np.tile(np.eye(2) / 2, (2, 2, 1, 1)).astype(complex)
    conds[0, 0] = block
    return conds


def cq_ab(block):
    """Classical A and B, quantum E, with the blocks of ``ab_conds``."""
    return CqState([creg("A", (0, 1)), creg("B", (0, 1)), qreg("E", 2)],
                   np.full((2, 2), 0.25), ab_conds(block))


def stack(block):
    """One row of ``h_partial_stack``: the state of ``cq_ab``."""
    return ent.h_partial_stack(np.full((1, 2, 2), 0.25), ab_conds(block)[None],
                               2.0)


def f_weighted_sigma(block):
    st = random_cq((3,), (2, 2), 40, names=["C"], qnames=["A", "B"])
    return ent.f_weighted(st, ["A"], "C", block, [0.1, -0.2, 0.3], 2.0)


CALLS = {
    "h_down": lambda e: ent.h_down(dense(DENSE[e]), ["A"], 2.0),
    "h_down-cq": lambda e: ent.h_down(cq(BLOCK[e]), ["A"], 2.0),
    "h_partial": lambda e: ent.h_partial(cq(BLOCK[e]), ["A"], "B", 2.0),
    "h_up": lambda e: ent.h_up(dense(DENSE[e]), ["A"], 2.0),
    "h_up-cq": lambda e: ent.h_up(cq(BLOCK[e]), ["A"], 2.0),
    "h_up_dense": lambda e: ent.h_up_dense(DENSE[e], 2, 2, 2.0),
    # the negative block of a classical A is never decomposed: before it
    # was checked on entry, h_down, h_partial and the stack read -inf and
    # h_up a plausible 0.8345 here
    "h_down-classical-a": lambda e: ent.h_down(cq_ab(BLOCK[e]), ["A"], 2.0),
    "h_partial-classical-a": lambda e: ent.h_partial(cq_ab(BLOCK[e]), ["A"],
                                                     "B", 2.0),
    "h_up-classical-a": lambda e: ent.h_up(cq_ab(BLOCK[e]), ["A"], 2.0),
    "h_partial_stack": lambda e: stack(BLOCK[e]),
    "renyi_divergence-rho": lambda e: ent.renyi_divergence(
        DENSE[e], np.eye(4) / 4, 2.0),
    "renyi_divergence-sigma": lambda e: ent.renyi_divergence(
        np.eye(4) / 4, DENSE[e], 2.0),
    "max_divergence-rho": lambda e: ent.max_divergence(DENSE[e], np.eye(4) / 4),
    "max_divergence-sigma": lambda e: ent.max_divergence(np.eye(4) / 4, DENSE[e]),
    "renyi_entropy": lambda e: ent.renyi_entropy(DENSE[e], 2.0),
    "f_weighted-sigma": lambda e: f_weighted_sigma(BLOCK[e]),
}


@pytest.mark.parametrize("error", [NotHermitianError, NotPSDError],
                         ids=["not-hermitian", "not-psd"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_state_is_rejected(name, error):
    with pytest.raises(error):
        CALLS[name](error)


@pytest.mark.parametrize("block", [BLOCK[NotHermitianError],
                                   np.full((2, 2), np.nan)],
                         ids=["not-hermitian", "not-finite"])
def test_stack_that_is_not_hermitian_is_rejected(block):
    with pytest.raises(NotHermitianError):
        stack(block)


def test_probe_state_is_rejected_by_validate_too():
    with pytest.raises(NotPSDError):
        cq_ab(BLOCK[NotPSDError]).validate()


# per-row orders of h_up_dense: each must lie in (1, inf), and the orders
# must broadcast against the rows; the check comes before any
# decomposition, so a stack that is not PSD still raises ValueError
@pytest.mark.parametrize("alpha", [[2.0, 1.0], [2.0, np.inf], [2.0, np.nan],
                                   [0.5, 2.0], [2.0, 2.0, 2.0], [[2.0, 2.0]]],
                         ids=["one", "inf", "nan", "below-one", "too-many",
                              "2d"])
def test_h_up_dense_rejects_bad_per_row_orders(alpha):
    rows = np.stack([np.eye(4) / 4, DENSE[NotPSDError]])
    with pytest.raises(ValueError):
        ent.h_up_dense(rows, 2, 2, np.array(alpha))


def test_h_up_dense_reads_per_row_orders():
    rows = np.stack([np.eye(4) / 4, np.diag([0.5, 0.0, 0.0, 0.5])])
    val, up, _ = ent.h_up_dense(rows, 2, 2, np.array([2.0, 3.0]))
    assert np.allclose(val, [1.0, 0.0], atol=1e-9)
    assert np.all(val <= up)


@pytest.mark.parametrize("fn", [lambda p: ent.renyi_entropy(p, 2.0),
                                ent.von_neumann], ids=["renyi", "vn"])
@pytest.mark.parametrize("p", [[1.2, -0.2], [0.5, 0.6], [0.5, 0.4]])
def test_vector_that_is_not_a_distribution_is_rejected(fn, p):
    with pytest.raises(BadProbabilityError):
        fn(p)


SOLVER_SET = ConstraintSet.full_simplex(("0", "1", BOT))


@pytest.mark.parametrize("fn", [
    lambda p: inner_inf_v(p, 0.5, SOLVER_SET, 2.0),
    lambda p: inner_inf_v_batch([np.ones(3) / 3, p], [0.5, 0.5], SOLVER_SET,
                                2.0),
    lambda p: inner_inf_v_grid(p, 0.5, SOLVER_SET, 2.0, resolution=20),
    lambda p: ent.kl_divergence(np.ones(3) / 3, p),
    lambda p: ent.kl_divergence(p, np.ones(3) / 3),
], ids=["inner_inf_v", "inner_inf_v_batch", "inner_inf_v_grid", "kl-p",
        "kl-v"])
@pytest.mark.parametrize("p", [
    [2.0, 1.0, 0.0],                 # inner_inf_v read -1.585
    [math.nan, 0.5, 0.5],            # read nan
    [0.5, 0.5, math.inf],
    [1.5, -0.5, 0.0],
    [0.5, 0.5, 1e-9],
], ids=["sum-3", "nan", "inf", "negative", "sum-off-1e-9"])
def test_solver_vector_that_is_not_a_distribution_is_rejected(fn, p):
    with pytest.raises(BadProbabilityError):
        fn(np.array(p))


@pytest.mark.parametrize("fn", [
    lambda h: inner_inf_v(np.ones(3) / 3, h, SOLVER_SET, 2.0),
    lambda h: inner_inf_v_batch(np.ones((2, 3)) / 3, [0.5, h], SOLVER_SET,
                                2.0),
    lambda h: inner_inf_v_grid(np.ones(3) / 3, h, SOLVER_SET, 2.0,
                               resolution=20),
], ids=["inner_inf_v", "inner_inf_v_batch", "inner_inf_v_grid"])
@pytest.mark.parametrize("h", [math.nan, math.inf, -1.0],
                         ids=["nan", "inf", "negative"])
def test_solver_generation_entropy_must_be_finite_and_nonnegative(fn, h):
    # unchecked, nan and inf read as a nan value here, and the grid oracle
    # read -1.0 as a value of -0.415
    with pytest.raises(BadProbabilityError):
        fn(h)


def test_kl_of_a_vector_that_is_not_a_distribution_is_rejected():
    with pytest.raises(BadProbabilityError):  # read -2.0
        ent.kl_divergence([0.5, 0.5], [2.0, 2.0])


def test_distribution_within_tolerance_is_read():
    p = np.array([0.5, 0.5 + 5e-11, -5e-13])
    assert abs(ent.renyi_entropy(p, 2.0) - 1.0) < 1e-9
    assert abs(ent.von_neumann(p) - 1.0) < 1e-9


@pytest.mark.parametrize("fn", [
    lambda m: matrix_power(m, 0.5),
    _purification,
], ids=["matrix_power", "purify"])
def test_qcore_matrix_functions_reject_non_hermitian(fn):
    with pytest.raises(NotHermitianError):
        fn(BLOCK[NotHermitianError])


@pytest.mark.parametrize("fn", [
    lambda m: ent.renyi_entropy(m, 2.0),
    ent.von_neumann,
    lambda m: ent.conditional_von_neumann(dense(m), ["A"]),
], ids=["renyi", "vn", "conditional-vn"])
@pytest.mark.parametrize("trace", [0.5, 2.0, 1.0 + 1e-9])
def test_state_whose_trace_is_not_one_is_rejected(fn, trace):
    with pytest.raises(BadProbabilityError):
        fn(np.eye(4) / 4 * trace)


def test_state_with_trace_within_tolerance_is_read():
    m = np.eye(4) / 4 * (1.0 + 5e-11)
    assert abs(ent.renyi_entropy(m, 2.0) - 2.0) < 1e-9
    assert abs(ent.von_neumann(m) - 2.0) < 1e-9
    assert abs(ent.conditional_von_neumann(dense(m), ["A"]) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# whole-number and array fields of the input files, found in the schemas
# ---------------------------------------------------------------------------

SCHEMAS = (Path(__file__).resolve().parent.parent / "src" / "renyiacc"
           / "schemas")


def _fields(node, want, field=None):
    """Names of the nodes of a schema that ``want`` accepts; an array's
    items go by the array's name."""
    if isinstance(node, list):
        for sub in node:
            yield from _fields(sub, want, field)
    elif isinstance(node, dict):
        if want(node):
            yield field
        for key, sub in node.items():
            if key == "properties":
                for name, spec in sub.items():
                    yield from _fields(spec, want, name)
            else:
                yield from _fields(sub, want, field)


def schema_fields(want):
    """Sorted (schema id, field name) pairs of every schema file; the
    document itself has no field name and is left out."""
    return sorted({
        (doc["$id"], field)
        for doc in (json.loads(p.read_text())
                    for p in SCHEMAS.glob("*.schema.json"))
        for field in _fields(doc, want) if field is not None})


WHOLE_NUMBER_FIELDS = schema_fields(
    lambda n: n.get("type") == "integer" and n.get("minimum") == 1)
NUMBER_FIELDS = schema_fields(lambda n: n.get("type") == "number")
ARRAY_FIELDS = schema_fields(lambda n: n.get("type") == "array")
OBJECT_FIELDS = schema_fields(lambda n: n.get("type") == "object")
STRING_FIELDS = schema_fields(lambda n: n.get("type") == "string")


ONE_SETTING = SamplingProtocol(0.5, ("0", "1"), ("00",), [1.0], [1.0],
                               {("0", "00"): "0", ("1", "00"): "1"})


def _attack_doc():
    kernel = [[[[0.5], [0.5]]]]  # (memory, setting, outcome, memory)
    return {"schema": "renyiacc/attack/v1", "initial": [[1.0]],
            "kernels": [kernel, kernel]}


def _check(make_doc, load, *path):
    """A loader check of one field: ``value`` replaces the node of
    ``make_doc()`` at ``path`` (None keeps the document as written), and
    ``load`` reads the result."""
    def check(value):
        doc = make_doc()
        if value is not None:
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        load(doc)
    return check


def _state(*path):
    return _check(lambda: density_to_dict(
        DensityOperator(np.eye(4) / 4, (2, 2))), state_from_dict, *path)


def _cq(*path):
    # a register's and an entry's fields sit under the first one, the
    # quantum register's dim under the second
    return _check(lambda: cq_to_dict(
        CqState([creg("B", ("0", "1")), qreg("E", 2)], [0.5, 0.5], None)),
        state_from_dict, *path)


def _protocol(*path):
    return _check(lambda: protocol_to_dict(ONE_SETTING), protocol_from_dict,
                  *path)


def _setting_count(key):
    # an empty protocol document reads nA = nB = 2
    return _check(dict, lambda doc: _setting_counts(doc, ("00", "11"),
                                                    bob=True), key)


def _strategy(*path):
    return _check(lambda: strategy_to_dict(TwoQubitStrategy.chsh_tsirelson()),
                  strategy_from_dict, *path)


def _schmidt_strategy(*path):
    def doc():
        return {**strategy_to_dict(TwoQubitStrategy.chsh_tsirelson()),
                "schmidt": 0.5}
    return _check(doc, strategy_from_dict, *path)


def _attack(*path):
    return _check(_attack_doc, lambda doc: attack_from_dict(doc, ONE_SETTING),
                  *path)


def _omega(*path):
    return _check(
        lambda: {"omega": [{"coeffs": {"0": 1.0}, "min": 0.1, "max": 0.9}]},
        lambda doc: _constraint_set(doc["omega"], ONE_SETTING.c_alphabet),
        *path)


def _bell(*path):
    return _check(
        lambda: {"bell": {"correlators": [[1.0, 1.0], [1.0, -1.0]],
                          "min": 2.0}},
        _bell_constraint, *path)


LOADERS = {
    ("renyiacc/state/v1", "dims"): _state("dims", 0),
    ("renyiacc/cqstate/v1", "dim"): _cq("registers", 1, "dim"),
    ("renyiacc/protocol/v1", "d"): _protocol("d"),
    ("renyiacc/protocol/v1", "nA"): _setting_count("nA"),
    ("renyiacc/protocol/v1", "nB"): _setting_count("nB"),
}


@pytest.mark.parametrize("value", [2.5, 0, True])
@pytest.mark.parametrize("schema,field", WHOLE_NUMBER_FIELDS)
def test_whole_number_field_rejects_other_values(schema, field, value):
    assert (schema, field) in LOADERS, \
        f"no loader check is listed for {field!r} of {schema}"
    LOADERS[schema, field](None)  # the document loads as written
    with pytest.raises(BadShapeError, match="whole number"):
        LOADERS[schema, field](value)


ARRAY_LOADERS = {
    ("renyiacc/attack/v1", "initial"): _attack("initial"),
    ("renyiacc/attack/v1", "kernels"): _attack("kernels"),
    ("renyiacc/cqstate/v1", "registers"): _cq("registers"),
    ("renyiacc/cqstate/v1", "alphabet"): _cq("registers", 0, "alphabet"),
    ("renyiacc/cqstate/v1", "entries"): _cq("entries"),
    ("renyiacc/cqstate/v1", "outcome"): _cq("entries", 0, "outcome"),
    ("renyiacc/cqstate/v1", "matrix"): _cq("entries", 0, "matrix"),
    ("renyiacc/protocol/v1", "outcomes"): _protocol("outcomes"),
    ("renyiacc/protocol/v1", "settings"): _protocol("settings"),
    ("renyiacc/protocol/v1", "omega"): _omega("omega"),
    ("renyiacc/protocol/v1", "correlators"): _bell("bell", "correlators"),
    ("renyiacc/state/v1", "dims"): _state("dims"),
    ("renyiacc/state/v1", "labels"): _state("labels"),
    ("renyiacc/state/v1", "matrix"): _state("matrix"),
    ("renyiacc/strategy/v1", "measA"): _strategy("measA"),
    ("renyiacc/strategy/v1", "measB"): _strategy("measB"),
}


@pytest.mark.parametrize("value", ["AB", 4])
@pytest.mark.parametrize("schema,field", ARRAY_FIELDS)
def test_array_field_rejects_a_string_or_a_number(schema, field, value):
    assert (schema, field) in ARRAY_LOADERS, \
        f"no loader check is listed for {field!r} of {schema}"
    ARRAY_LOADERS[schema, field](None)  # the document loads as written
    with pytest.raises(BadShapeError):
        ARRAY_LOADERS[schema, field](value)


# a field name may stand for several nodes of a schema (omega's and bell's
# "min"): each is checked
NUMBER_LOADERS = {
    ("renyiacc/attack/v1", "initial"): [_attack("initial", 0, 0)],
    ("renyiacc/attack/v1", "kernels"): [_attack("kernels", 0, 0, 0, 0, 0)],
    ("renyiacc/cqstate/v1", "matrix"): [_cq("entries", 0, "matrix", 0, 0)],
    ("renyiacc/cqstate/v1", "weight"): [_cq("entries", 0, "weight")],
    ("renyiacc/protocol/v1", "coeffs"): [_omega("omega", 0, "coeffs", "0")],
    ("renyiacc/protocol/v1", "correlators"): [
        _bell("bell", "correlators", 0, 0)],
    ("renyiacc/protocol/v1", "gamma"): [_protocol("gamma")],
    ("renyiacc/protocol/v1", "max"): [_omega("omega", 0, "max")],
    ("renyiacc/protocol/v1", "min"): [_omega("omega", 0, "min"),
                                      _bell("bell", "min")],
    ("renyiacc/protocol/v1", "pGen"): [_protocol("pGen", "00")],
    ("renyiacc/protocol/v1", "pTest"): [_protocol("pTest", "00")],
    ("renyiacc/state/v1", "matrix"): [_state("matrix", 0, 0)],
    ("renyiacc/strategy/v1", "measA"): [_strategy("measA", 0, 0)],
    ("renyiacc/strategy/v1", "measB"): [_strategy("measB", 0, 0)],
    ("renyiacc/strategy/v1", "schmidt"): [_schmidt_strategy("schmidt")],
}


@pytest.mark.parametrize("value", ["0.5", True])
@pytest.mark.parametrize("schema,field", NUMBER_FIELDS)
def test_number_field_rejects_a_string_or_a_boolean(schema, field, value):
    assert (schema, field) in NUMBER_LOADERS, \
        f"no loader check is listed for {field!r} of {schema}"
    for check in NUMBER_LOADERS[schema, field]:
        check(None)  # the document loads as written
        with pytest.raises(BadShapeError):
            check(value)


OBJECT_LOADERS = {
    ("renyiacc/cqstate/v1", "entries"): _cq("entries", 0),
    ("renyiacc/cqstate/v1", "registers"): _cq("registers", 0),
    ("renyiacc/protocol/v1", "bell"): _bell("bell"),
    ("renyiacc/protocol/v1", "coeffs"): _omega("omega", 0, "coeffs"),
    ("renyiacc/protocol/v1", "omega"): _omega("omega", 0),
    ("renyiacc/protocol/v1", "pGen"): _protocol("pGen"),
    ("renyiacc/protocol/v1", "pTest"): _protocol("pTest"),
    ("renyiacc/protocol/v1", "score"): _protocol("score"),
}


@pytest.mark.parametrize("value", ["B", 4])
@pytest.mark.parametrize("schema,field", OBJECT_FIELDS)
def test_object_field_rejects_a_string_or_a_number(schema, field, value):
    assert (schema, field) in OBJECT_LOADERS, \
        f"no loader check is listed for {field!r} of {schema}"
    OBJECT_LOADERS[schema, field](None)  # the document loads as written
    with pytest.raises(BadShapeError):
        OBJECT_LOADERS[schema, field](value)


# a cq register's name sits under both register forms: each is checked
STRING_LOADERS = {
    ("renyiacc/cqstate/v1", "alphabet"): [_cq("registers", 0, "alphabet", 0)],
    ("renyiacc/cqstate/v1", "name"): [_cq("registers", 0, "name"),
                                      _cq("registers", 1, "name")],
    ("renyiacc/cqstate/v1", "outcome"): [_cq("entries", 0, "outcome", 0)],
    ("renyiacc/protocol/v1", "outcomes"): [_protocol("outcomes", 0)],
    ("renyiacc/protocol/v1", "score"): [_protocol("score", "0|00")],
    ("renyiacc/protocol/v1", "settings"): [_protocol("settings", 0)],
    ("renyiacc/state/v1", "labels"): [_state("labels", 0)],
}


@pytest.mark.parametrize("value", [0, 1.5])
@pytest.mark.parametrize("schema,field", STRING_FIELDS)
def test_string_field_rejects_a_number(schema, field, value):
    # a cq alphabet [0, 1] with outcomes [0] and [1] was read as written
    assert (schema, field) in STRING_LOADERS, \
        f"no loader check is listed for {field!r} of {schema}"
    for check in STRING_LOADERS[schema, field]:
        check(None)  # the document loads as written
        with pytest.raises(BadShapeError, match="must be a string"):
            check(value)


# ---------------------------------------------------------------------------
# the schema files themselves
# ---------------------------------------------------------------------------

ANNOTATIONS = {"$schema", "$id", "title", "description"}
# the draft-07 keywords that qcore.serialize.validate implements
KEYWORDS = {"type", "const", "enum", "minimum", "maximum", "required",
            "properties", "additionalProperties", "items", "minItems",
            "maxItems", "oneOf", "$ref"}


def _keywords(node):
    """Every key of a schema node and of the nodes under it, except the
    field names that ``properties`` maps."""
    if isinstance(node, list):
        for sub in node:
            yield from _keywords(sub)
    elif isinstance(node, dict):
        for key, sub in node.items():
            yield key
            yield from _keywords(list(sub.values()) if key == "properties"
                                 else sub)


def test_schema_files_use_only_the_keywords_the_walk_implements():
    assert "pattern" in set(_keywords({"properties": {"x": {"pattern": "y"}}}))
    for path in SCHEMAS.glob("*.json"):
        unknown = set(_keywords(json.loads(path.read_text()))) \
            - ANNOTATIONS - KEYWORDS
        assert not unknown, f"{path.name} uses {sorted(unknown)}"


@pytest.mark.parametrize("schema_id", [STATE_SCHEMA, CQSTATE_SCHEMA,
                                       PROTOCOL_SCHEMA, STRATEGY_SCHEMA,
                                       ATTACK_SCHEMA])
def test_loader_schema_names_one_packaged_file(schema_id):
    ids = [json.loads(p.read_text())["$id"] for p in SCHEMAS.glob("*.json")]
    assert ids.count(schema_id) == 1


def test_schema_files_are_package_data():
    # read as text: tomllib needs Python 3.11, and the project supports 3.10
    text = (SCHEMAS.parents[2] / "pyproject.toml").read_text()
    section = text.split("[tool.setuptools.package-data]", 1)[1]
    section = section.split("\n[", 1)[0]
    assert '"schemas/*.json"' in section and '"presets/*.json"' in section
    assert sorted(SCHEMAS.glob("*.json")) == sorted(SCHEMAS.iterdir())


def test_every_bell_name_of_the_schema_loads():
    schema = json.loads((SCHEMAS / "protocol.schema.json").read_text())
    names = schema["properties"]["bell"]["properties"]["name"]["enum"]
    for name in names:
        _, least = _bell_constraint({"bell": {"name": name, "min": 2.0}})
        assert least == 2.0
