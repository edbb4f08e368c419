"""Stacked CqState methods against per-block reference loops.

The states interleave quantum and classical registers, [qreg A, creg B,
qreg C, creg D], so the dense embedding has to move every register into
place. One outcome has weight 0 and one a weight below WEIGHT_TOL.
"""

import math

import numpy as np
import pytest

from renyiacc import entropy as ent
from renyiacc.errors import DimMismatchError
from renyiacc.qcore import (
    CqState,
    DensityOperator,
    cq_from_dict,
    creg,
    qreg,
    random_cq,
    random_density,
    random_distribution,
    random_kraus_channel,
    rng_from,
)
from renyiacc.qcore.states import WEIGHT_TOL
from qcore_reference import cq_to_dict, permute_labels

TOL = 1e-12
SEEDS = (0, 1, 2)


def interleaved(seed, masked=False) -> CqState:
    rng = rng_from((31, seed))
    regs = [qreg("A", 2), creg("B", ("b0", "b1", "b2")), qreg("C", 3),
            creg("D", ("d0", "d1"))]
    w = random_distribution(6, rng).reshape(3, 2)
    if masked:
        w[1, 0] = 0.0
        w[2, 1] = 1e-13
        w = w / w.sum()
    conds = np.stack([random_density((2, 3), rng).matrix for _ in range(6)])
    return CqState(regs, w, conds.reshape(3, 2, 6, 6))


def live(st):
    """(index, weight, block) of every outcome above WEIGHT_TOL."""
    return [(idx, p, c) for idx, _, p, c in st.outcomes() if p > WEIGHT_TOL]


def states():
    return [interleaved(s, masked) for s in SEEDS for masked in (False, True)]


def assert_blocks_match(st, weights, blocks, placeholder=True):
    """``weights`` / ``blocks`` are dicts by index; other outcomes have weight 0.

    With ``placeholder``, outcomes of weight <= WEIGHT_TOL must hold the
    maximally mixed block.
    """
    for idx, _, p, c in st.outcomes():
        want = weights.get(idx, 0.0)
        assert abs(p - want) < TOL
        if want > WEIGHT_TOL:
            assert np.abs(c - blocks[idx]).max() < TOL
        elif placeholder:
            assert np.abs(c - np.eye(st.qdim) / st.qdim).max() < TOL


def projector(n, j):
    out = np.zeros((n, n), dtype=complex)
    out[j, j] = 1.0
    return out


def ref_to_density(st) -> np.ndarray:
    # blocks in the order (classical registers..., quantum part), then permuted
    cnames = list(st.classical_names)
    sizes = [len(st.alphabet(n)) for n in cnames]
    d = int(np.prod(st.register_dims()))
    full = np.zeros((d, d), dtype=complex)
    for idx, p, c in live(st):
        m = np.ones((1, 1), dtype=complex)
        for n, j in zip(sizes, idx):
            m = np.kron(m, projector(n, j))
        full += np.kron(m, p * c)
    dims = tuple(sizes) + st.qdims
    rho = DensityOperator(full, dims, tuple(cnames) + st.quantum_names)
    return permute_labels(rho, st.names).matrix


class TestAgainstReferenceLoops:
    @pytest.mark.parametrize("st", states())
    def test_to_density(self, st):
        dense = st.to_density()
        assert dense.labels == st.names
        assert dense.dims == (2, 3, 3, 2)
        assert np.abs(dense.matrix - ref_to_density(st)).max() < TOL

    @pytest.mark.parametrize("keep", [["A", "B", "C", "D"], ["B", "C"],
                                      ["A", "D"], ["D", "A"], ["B"], ["C"],
                                      []])
    @pytest.mark.parametrize("masked", [False, True])
    def test_marginal(self, keep, masked):
        st = interleaved(1, masked)
        keep_c = [i for i, n in enumerate(st.classical_names) if n in keep]
        keep_q = [i for i, n in enumerate(st.quantum_names) if n in keep]
        w, acc = {}, {}
        for idx, p, c in live(st):
            cm = DensityOperator(c, st.qdims).partial_trace(keep_q).matrix
            k = tuple(idx[i] for i in keep_c)
            w[k] = w.get(k, 0.0) + p
            acc[k] = acc.get(k, 0.0) + p * cm
        m = st.marginal(keep)
        assert m.names == tuple(n for n in st.names if n in keep)
        assert_blocks_match(m, w, {k: acc[k] / w[k] for k in w})
        # and it is the partial trace of the dense embedding
        dense = st.to_density().partial_trace_labels(m.names)
        assert np.abs(m.to_density().matrix - dense.matrix).max() < TOL

    @pytest.mark.parametrize("st", states())
    def test_condition(self, st):
        for j, sym in enumerate(st.alphabet("B")):
            p, sub = st.condition({"B": sym})
            total = float(st.weights[j].sum())
            assert abs(p - total) < TOL
            assert sub.names == ("A", "C", "D")
            want = {(k,): st.weights[j, k] / total for k in range(2)}
            blocks = {(k,): st.conds[j, k] for k in range(2)}
            assert_blocks_match(sub, want, blocks, placeholder=False)
        p, sub = st.condition({"B": "b1", "D": "d1"})
        assert abs(p - st.weights[1, 1]) < TOL
        assert sub.classical_names == ()
        assert np.abs(sub.conds - st.conds[1, 1]).max() < TOL

    def test_condition_on_zero_weight(self):
        st = interleaved(0, masked=True)
        assert st.condition({"B": "b1", "D": "d0"}) == (0.0, None)

    @pytest.mark.parametrize("st", states())
    @pytest.mark.parametrize("on", ["A", "C"])
    def test_apply_quantum_channel(self, st, on):
        rng = rng_from((33, 0))
        dims = dict(zip(st.quantum_names, st.qdims))
        kraus = random_kraus_channel(dims[on], 4, 2, rng)
        out = st.apply_quantum_channel(kraus, on)
        assert out.qdims == ((4, 3) if on == "A" else (2, 4))
        if on == "A":
            big = [np.kron(k, np.eye(3)) for k in kraus]
        else:
            big = [np.kron(np.eye(2), k) for k in kraus]
        for idx, p, c in live(st):
            want = sum(k @ c @ k.conj().T for k in big)
            assert abs(out.weights[idx] - p) < TOL
            assert np.abs(out.conds[idx] - want).max() < TOL

    @pytest.mark.parametrize("st", states())
    def test_append_classical(self, st):
        def dist_for(outcome):
            b, d = outcome
            x = 0.2 + 0.1 * st.alphabet("B").index(b) + 0.3 * (d == "d1")
            return [x, 1.0 - x]

        out = st.append_classical("E", ("e0", "e1"), dist_for)
        assert out.names == st.names + ("E",)
        for idx, outcome, p, c in st.outcomes():
            for j, q in enumerate(dist_for(outcome)):
                assert abs(out.weights[idx + (j,)] - p * q) < TOL
                assert np.abs(out.conds[idx + (j,)] - c).max() < TOL


class TestLayout:
    def test_shapes_and_placeholder(self):
        regs = [creg("B", (0, 1, 2)), qreg("E", 2)]
        st = CqState(regs, [0.5, 0.5, 0.0], {(0,): np.diag([1.0, 0.0]),
                                             (1,): np.diag([0.0, 1.0])})
        assert st.conds.shape == (3, 2, 2) and st.conds.dtype == complex
        assert np.abs(st.conds[2] - np.eye(2) / 2).max() == 0.0
        assert np.abs(CqState(regs, [1, 0, 0]).conds - np.eye(2) / 2).max() == 0

    def test_bare_matrix_and_bad_shapes(self):
        rho = random_density((2,), 5).matrix
        st = CqState([qreg("E", 2)], 1.0, rho)
        assert st.conds.shape == (2, 2)
        with pytest.raises(DimMismatchError):
            CqState([creg("B", (0, 1)), qreg("E", 2)], [0.5, 0.5], rho)
        with pytest.raises(DimMismatchError):
            CqState([creg("B", (0, 1)), qreg("E", 2)], [0.5, 0.5],
                    {(0,): np.eye(3) / 3})

    def test_methods_do_not_write_into_conds(self):
        st = interleaved(2, masked=True)
        st.conds.flags.writeable = False
        st.marginal(["B", "C"]).to_density()
        st.condition({"B": "b0"})
        st.append_classical("E", (0, 1), lambda out: [0.5, 0.5])
        st.apply_quantum_channel([np.eye(3)], "C")


def test_tiny_weight_outcome_keeps_entropies_finite():
    # a third symbol of X that carries weight 7.8e-13, below WEIGHT_TOL
    st = random_cq((2,), (2, 2), 3, names=["X"], qnames=["A", "C"])
    p = st.weights[1] * np.array([1 - 1e-12, 1e-12])
    mapped = CqState([creg("X", ("y0", "y1", "y2"))] + list(st.qregs),
                     [st.weights[0], p[0], p[1]],
                     np.stack([st.conds[0], st.conds[1], st.conds[1]]))
    assert 0.0 < mapped.weights[2] <= WEIGHT_TOL
    for alpha in (1.5, 2.0, 3.0):
        for fn in (lambda s: ent.h_down(s, ["A"], alpha),
                   lambda s: ent.h_up(s, ["A"], alpha),
                   lambda s: ent.h_partial(s, ["A"], "X", alpha)):
            before, after = fn(st), fn(mapped)
            assert math.isfinite(after)
            assert abs(after - before) < 1e-9


class TestSerialization:
    def test_one_entry_per_outcome(self):
        st = interleaved(0, masked=True)
        doc = cq_to_dict(st)
        assert len(doc["entries"]) == 6
        back = cq_from_dict(doc)
        assert np.abs(back.weights - st.weights).max() < TOL
        assert np.abs(back.to_density().matrix
                      - st.to_density().matrix).max() < TOL

    def test_missing_outcome_reads_as_placeholder(self):
        st = interleaved(0, masked=True)
        doc = cq_to_dict(st)
        doc["entries"] = [e for e in doc["entries"]
                          if e["outcome"] != ["b1", "d0"]]
        back = cq_from_dict(doc).validate()
        assert back.weights[1, 0] == 0.0
        assert np.abs(back.conds[1, 0] - np.eye(6) / 6).max() == 0.0
        assert np.abs(back.to_density().matrix
                      - st.to_density().matrix).max() < TOL
