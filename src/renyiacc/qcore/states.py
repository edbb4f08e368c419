"""Classical-quantum states, and dense states as their all-quantum case.

A :class:`CqState` is a state that is block diagonal over its classical
registers: a probability weight and a conditional density operator per
classical outcome tuple. A :class:`DensityOperator` is the ``CqState`` with no
classical register, built from one dense PSD matrix over an ordered list of
subsystems (Kronecker order, index 0 leftmost).

Registers of a ``CqState`` keep a fixed order that also fixes the subsystem
order of the dense embedding produced by :meth:`CqState.to_density`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import (
    BadIndexError,
    BadPartitionError,
    DimMismatchError,
    NotHermitianError,
    NotPSDError,
)
from .linalg import (
    PSD_TOL,
    _eigh,
    _hermitian,
    as_matrix,
    eigvalsh_desc,
    is_hermitian,
)

TRACE_TOL = 1e-10
WEIGHT_TOL = 1e-12


# ---------------------------------------------------------------------------
# kernels on stacks of matrices: leading axes are batch axes, the last two
# axes hold operators on subsystems of dimensions ``dims`` (Kronecker order)
# ---------------------------------------------------------------------------

def _partial_trace(x: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not in ``keep``; kept ones come out in ``keep`` order."""
    lead = x.shape[:-2]
    b, k = len(lead), len(dims)
    # one einsum: a traced-out subsystem shares its row and column index
    batch = list(range(b))
    cols = [b + k + i if i in keep else b + i for i in range(k)]
    t = np.einsum(x.reshape(lead + tuple(dims) * 2),
                  batch + list(range(b, b + k)) + cols,
                  batch + [b + i for i in keep] + [b + k + i for i in keep])
    d = math.prod(dims[i] for i in keep)
    return t.reshape(lead + (d, d))


def _apply_kraus(x: np.ndarray, dims, pos: int, kraus):
    """sum_K K x K^dag on subsystem ``pos``; returns (stack, new dims)."""
    kraus = [np.asarray(op, dtype=complex) for op in kraus]
    dout, din = kraus[0].shape
    if din != dims[pos]:
        raise DimMismatchError("Kraus input dim mismatch")
    lead = x.shape[:-2]
    b, k = len(lead), len(dims)
    row, col = b + pos, b + k + pos
    t = x.reshape(lead + tuple(dims) * 2)
    out = None
    for op in kraus:
        t1 = np.moveaxis(np.tensordot(op, t, axes=([1], [row])), 0, row)
        t2 = np.moveaxis(np.tensordot(t1, op.conj(), axes=([col], [1])), -1, col)
        out = t2 if out is None else out + t2
    dims = tuple(dims[:pos]) + (dout,) + tuple(dims[pos + 1:])
    d = int(np.prod(dims, initial=1))
    return out.reshape(lead + (d, d)), dims


def _check_states(blocks, trace_tol: float) -> None:
    """Reject blocks ``(k, d, d)`` that are not states."""
    if not is_hermitian(blocks):
        raise NotHermitianError("density operator is not Hermitian")
    _eigh(blocks, vectors=False, floor=PSD_TOL)
    tr = np.trace(blocks, axis1=-2, axis2=-1).real
    if np.any(tr > 1.0 + trace_tol) or np.any(tr < 1.0 - trace_tol):
        raise DimMismatchError(f"trace {tr} is not 1 within {trace_tol}")


def _purification(m: np.ndarray) -> np.ndarray:
    """Columns ``sqrt(l_i) psi_i`` over the numerical support of ``m``.

    The ``(d, r)`` result ``x`` has ``x @ x^dag = m``; read as a vector on
    ``d * r`` it is the purification ``sum_i sqrt(l_i) |psi_i> x |i>``, with
    the copy basis in descending eigenvalue order.
    """
    w, v = _eigh(_hermitian(m), floor=PSD_TOL)
    w, v = w[::-1], v[:, ::-1]
    on = w > 1e-14 * max(w[0], 1e-300)
    return v[:, on] * np.sqrt(w[on])


def trace_distance(rho, tau) -> float:
    """(1/2)||rho - tau||_1 for equal-shape Hermitian matrices or states."""
    a = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    b = tau.matrix if isinstance(tau, DensityOperator) else np.asarray(tau, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    w = eigvalsh_desc(a - b)
    return float(0.5 * np.abs(w).sum())


# ---------------------------------------------------------------------------
# classical-quantum states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Register:
    """One register of a CqState: classical (alphabet) or quantum (dim)."""

    name: str
    alphabet: tuple | None = None
    dim: int | None = None

    def __post_init__(self):
        if (self.alphabet is None) == (self.dim is None):
            raise BadPartitionError("register must be classical xor quantum")
        if self.alphabet is not None:
            object.__setattr__(self, "alphabet", tuple(self.alphabet))

    @property
    def is_classical(self) -> bool:
        return self.alphabet is not None

    @property
    def size(self) -> int:
        return len(self.alphabet) if self.is_classical else int(self.dim)


def creg(name: str, alphabet) -> Register:
    return Register(name, alphabet=tuple(alphabet))


def qreg(name: str, dim: int) -> Register:
    return Register(name, dim=int(dim))


def _placeholder(qdim: int) -> np.ndarray:
    """The block of an outcome that has none: the maximally mixed state."""
    return np.eye(qdim, dtype=complex) / qdim


def _outcome_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 as a running total in index order.

    ``np.sum`` adds eight or more terms pairwise, which would make a result
    depend on how many outcomes happen to be summed at once.
    """
    return np.add.accumulate(x, axis=0)[-1]


class CqState:
    """State block diagonal over classical registers.

    ``weights`` has one axis per classical register (in register order) and
    sums to one. ``conds`` stacks the conditional density matrices on the
    joint quantum part (quantum registers in register order) in one complex
    array of shape ``weights.shape + (qdim, qdim)``: ``conds[idx]`` is the
    block of outcome ``idx``. States with no quantum register have 1x1 blocks.

    The weights are the only mask. A block whose weight is at most
    ``WEIGHT_TOL`` carries no information and every method weighs it by zero.
    Where an outcome has no block, or a method would divide by such a weight,
    the block is the maximally mixed placeholder ``eye(qdim) / qdim``.

    ``conds`` may be given as that stacked array (a bare matrix when there is
    no classical register), as a dict mapping index tuples to matrices
    (missing outcomes get the placeholder), or as ``None`` (placeholders
    throughout). A given array is shared, not copied, and may be a read-only
    view: no method writes into ``conds``, and results may share it.
    """

    def __init__(self, regs, weights, conds=None):
        self.regs: tuple[Register, ...] = tuple(regs)
        names = [r.name for r in self.regs]
        if len(set(names)) != len(names):
            raise BadPartitionError("duplicate register names")
        self.cregs = tuple(r for r in self.regs if r.is_classical)
        self.qregs = tuple(r for r in self.regs if not r.is_classical)
        self.qdim = math.prod(r.dim for r in self.qregs)
        shape = tuple(len(r.alphabet) for r in self.cregs)
        self.weights = np.asarray(weights, dtype=float).reshape(shape)
        full = shape + (self.qdim, self.qdim)
        if conds is None:
            conds = np.broadcast_to(_placeholder(self.qdim), full)
        elif isinstance(conds, dict):
            filled = np.empty(full, dtype=complex)
            filled[...] = _placeholder(self.qdim)
            for idx, block in conds.items():
                block = np.asarray(block, dtype=complex)
                if block.shape != full[-2:]:
                    raise DimMismatchError(
                        f"conditional at {idx} has shape {block.shape}")
                filled[idx] = block
            conds = filled
        else:
            conds = np.asarray(conds, dtype=complex)
            if conds.shape != full:
                raise DimMismatchError(
                    f"conds has shape {conds.shape}, want {full}")
        self.conds = conds

    # -- basics -------------------------------------------------------------
    @property
    def classical_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.cregs)

    @property
    def quantum_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.qregs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.regs)

    @property
    def qdims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.qregs)

    def reg(self, name: str) -> Register:
        for r in self.regs:
            if r.name == name:
                return r
        raise BadIndexError(f"no register named {name!r}")

    def has_register(self, name: str) -> bool:
        return any(r.name == name for r in self.regs)

    def alphabet(self, name: str):
        r = self.reg(name)
        if not r.is_classical:
            raise BadPartitionError(f"register {name!r} is quantum")
        return r.alphabet

    def outcomes(self):
        """Iterate (index tuple, outcome tuple, weight, conditional matrix)."""
        for idx in np.ndindex(*self.weights.shape):
            out = tuple(self.cregs[i].alphabet[j] for i, j in enumerate(idx))
            yield idx, out, float(self.weights[idx]), self.conds[idx]

    def validate(self) -> "CqState":
        w = self.weights
        if not np.all(np.isfinite(w)):
            raise NotPSDError("classical weight is not finite")
        if w.size and w.min() < -WEIGHT_TOL:
            raise NotPSDError("negative classical weight")
        if abs(w.sum() - 1.0) > TRACE_TOL:
            raise DimMismatchError(f"weights sum to {w.sum()}, not 1")
        _check_states(self.conds[w > WEIGHT_TOL], TRACE_TOL)
        return self

    # -- structure manipulation ---------------------------------------------
    def _cpos(self, name: str) -> int:
        for i, r in enumerate(self.cregs):
            if r.name == name:
                return i
        raise BadIndexError(f"no classical register named {name!r}")

    def _qpos(self, name: str) -> int:
        for i, r in enumerate(self.qregs):
            if r.name == name:
                return i
        raise BadIndexError(f"no quantum register named {name!r}")

    def marginal(self, keep_names) -> "CqState":
        """Sum out classical and trace out quantum registers not in ``keep_names``."""
        keep_names = set(keep_names)
        for n in keep_names:
            self.reg(n)
        keep_c = [i for i, r in enumerate(self.cregs) if r.name in keep_names]
        drop_c = [i for i in range(len(self.cregs)) if i not in keep_c]
        keep_q = [i for i, r in enumerate(self.qregs) if r.name in keep_names]
        conds = self.conds
        if len(keep_q) < len(self.qregs):
            conds = _partial_trace(conds, self.qdims, keep_q)
        dq = conds.shape[-1]
        # the summed-out outcomes on one leading axis, in outcome order
        order = drop_c + keep_c
        shape = (-1,) + tuple(self.weights.shape[i] for i in keep_c)
        w = np.where(self.weights > WEIGHT_TOL, self.weights, 0.0)
        w = w.transpose(order).reshape(shape)
        c = conds.transpose(order + [len(order), len(order) + 1])
        new_w = _outcome_sum(w)
        acc = _outcome_sum(w[..., None, None] * c.reshape(w.shape + (dq, dq)))
        # blocks acc / new_w, with the placeholder where new_w <= WEIGHT_TOL
        live = (new_w > WEIGHT_TOL)[..., None, None]
        acc = np.where(live, acc / np.where(live, new_w[..., None, None], 1.0),
                       _placeholder(dq))
        new_regs = [r for r in self.regs if r.name in keep_names]
        return CqState(new_regs, new_w, acc)

    def condition(self, assignment: dict):
        """Condition on classical values; returns (probability, reduced CqState)."""
        pos = {self._cpos(n): self.alphabet(n).index(v)
               for n, v in assignment.items()}
        sel = tuple(pos.get(i, slice(None)) for i in range(len(self.cregs)))
        w = np.asarray(self.weights[sel])
        p = float(w.sum())
        if p <= 0.0:
            return 0.0, None
        new_regs = [r for r in self.regs
                    if not (r.is_classical and r.name in assignment)]
        return p, CqState(new_regs, w / p, self.conds[sel])

    def group_by(self, names):
        """Iterate (outcome tuple, probability, conditional CqState) over ``names``.

        The conditional state is ``None`` exactly when the probability is 0.
        """
        alphabets = [self.alphabet(n) for n in names]
        for combo in itertools.product(*alphabets):
            p, rest = self.condition(dict(zip(names, combo)))
            yield combo, p, rest

    def apply_quantum_channel(self, kraus, on_name: str) -> "CqState":
        """Apply a CP map (Kraus list) to one named quantum register of every block."""
        conds, qdims = _apply_kraus(self.conds, self.qdims,
                                    self._qpos(on_name), kraus)
        it = iter(qdims)
        regs = [r if r.is_classical else qreg(r.name, next(it))
                for r in self.regs]
        return CqState(regs, self.weights, conds)

    def append_classical(self, name: str, alphabet, dist_for) -> "CqState":
        """Append a classical register distributed according to the existing outcome.

        ``dist_for(outcome_tuple)`` returns the distribution of the new symbol
        over ``alphabet``. The blocks do not depend on the new symbol.
        """
        alphabet = tuple(alphabet)
        shape = self.weights.shape + (len(alphabet),)
        dist = np.array([dist_for(out) for _, out, _, _ in self.outcomes()],
                        dtype=float).reshape(shape)
        conds = np.broadcast_to(self.conds[..., None, :, :],
                                shape + self.conds.shape[-2:])
        return CqState(self.regs + (creg(name, alphabet),),
                       self.weights[..., None] * dist, conds)

    # -- dense embedding ----------------------------------------------------
    def register_dims(self) -> tuple[int, ...]:
        return tuple(r.size for r in self.regs)

    def to_density(self) -> DensityOperator:
        """Dense embedding with classical registers as diagonal subsystems."""
        return DensityOperator(_dense(self.regs, self.weights, self.conds,
                                      self.names), self.register_dims(), self.names)


class DensityOperator(CqState):
    """The CqState whose registers are all quantum: one dense matrix.

    ``dims`` multiply out to the matrix size; ``labels`` name the subsystems
    (``Q0``, ``Q1``, ... by default). ``matrix``, ``dims`` and ``labels`` are
    the ``conds``, ``qdims`` and ``names`` of the state.
    """

    def __init__(self, matrix, dims, labels=()):
        m = as_matrix(matrix)
        dims = tuple(int(d) for d in dims)
        labels = tuple(labels) or tuple(f"Q{i}" for i in range(len(dims)))
        if len(labels) != len(dims):
            raise DimMismatchError("labels and dims length mismatch")
        if math.prod(dims) != m.shape[0]:
            raise DimMismatchError(
                f"prod(dims)={np.prod(dims)} != matrix size {m.shape[0]}")
        super().__init__([qreg(n, d) for n, d in zip(labels, dims)], 1.0, m)

    matrix = property(lambda self: self.conds)
    dims = property(lambda self: self.qdims)
    labels = property(lambda self: self.names)

    def indices_of(self, names) -> tuple[int, ...]:
        return tuple(self._qpos(n) for n in names)

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        labels = self.labels + other.labels
        if len(set(labels)) != len(labels):
            labels = self.labels + tuple(f"{x}'" for x in other.labels)
        return DensityOperator(np.kron(self.matrix, other.matrix),
                               self.dims + other.dims, labels)

    def partial_trace(self, keep) -> "DensityOperator":
        """Trace out everything except the subsystem indices in ``keep``."""
        keep = tuple(keep)
        k = len(self.dims)
        for i in keep:
            if i < 0 or i >= k:
                raise BadIndexError(f"subsystem index {i} out of range")
        if len(set(keep)) != len(keep):
            raise BadIndexError("duplicate subsystem index")
        return DensityOperator(_partial_trace(self.matrix, self.dims, keep),
                               tuple(self.dims[i] for i in keep),
                               tuple(self.labels[i] for i in keep))

    def partial_trace_labels(self, keep_labels) -> "DensityOperator":
        return self.partial_trace(self.indices_of(keep_labels))


def _dense(regs, weights, conds, order) -> np.ndarray:
    """Dense matrices of the cq states ``(weights, conds)`` (any leading stack
    axes) on ``regs``, subsystems in the name ``order``, as in ``to_density``."""
    src = sorted(regs, key=lambda r: not r.is_classical)
    shape = tuple(r.size for r in src)
    nc = sum(r.is_classical for r in src)
    n, q = math.prod(shape[:nc]), math.prod(shape[nc:])
    lead = weights.shape[:weights.ndim - nc]
    w = weights.reshape(lead + (n, 1, 1))
    blocks = np.where(w > WEIGHT_TOL, w * conds.reshape(lead + (n, q, q)), 0.0)
    # classical axes first: outcome k's block sits at rows and columns k
    t = np.zeros(lead + (n, q, n, q), dtype=complex)
    t[..., np.arange(n), :, np.arange(n), :] = np.moveaxis(blocks, -3, 0)
    # then into the requested order
    perm = [[r.name for r in src].index(name) for name in order]
    b, m = len(lead), len(src)
    t = t.reshape(lead + shape * 2).transpose(
        [*range(b)] + [b + i for i in perm] + [b + m + i for i in perm])
    return t.reshape(lead + (n * q, n * q))


def cq_from_joint(names, alphabets, joint) -> CqState:
    """Fully classical CqState from a joint probability array."""
    return CqState([creg(n, a) for n, a in zip(names, alphabets)], joint)
