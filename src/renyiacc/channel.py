"""Quantum channels and the special constructions used by the rate machinery.

Covers plain Kraus channels, per-setting CP map families, infrequent-sampling
round channels (spot checking), read-and-prepare channels that encode a
tradeoff weight into the entropy of an appended register, the reweighted
state behind the two-term divergence decomposition, and two-qubit
measurement strategies with Bell functionals.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .entropy import _f_vector, check_alpha, renyi_divergence
from .errors import (
    AlphabetMismatchError,
    BadShapeError,
    DimMismatchError,
    SupportViolationError,
    TargetOutOfRangeError,
)
from .qcore import (
    CqState,
    DensityOperator,
    creg,
    density_from_dict,
    density_to_dict,
    embed,
    qreg,
    random_density,
    rng_from,
    trace_distance,
)
from .qcore.linalg import PSD_TOL, _eigh, _from_eig, _hermitian, _leaks, _power
from .qcore.serialize import validate
from .qcore.states import _purification

BOT = "⊥"

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# Kraus channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map given by a Kraus operator list."""

    kraus: tuple
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        din = int(np.prod(self.in_dims, initial=1))
        dout = int(np.prod(self.out_dims, initial=1))
        for k in ks:
            if k.shape != (dout, din):
                raise DimMismatchError(f"Kraus block {k.shape} vs ({dout},{din})")
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "in_dims", tuple(int(d) for d in self.in_dims))
        object.__setattr__(self, "out_dims", tuple(int(d) for d in self.out_dims))

    def validate(self) -> "KrausChannel":
        din = int(np.prod(self.in_dims, initial=1))
        s = sum((k.conj().T @ k for k in self.kraus), np.zeros((din, din)))
        if np.abs(s - np.eye(din)).max() > 1e-9:
            raise DimMismatchError("channel is not trace preserving")
        return self


@dataclass(frozen=True)
class CPMapFamily:
    """CP maps M^{a|b} indexed by outcome and setting, trace preserving per b."""

    maps: dict
    outcomes: tuple
    settings: tuple

    def __post_init__(self):
        for b in self.settings:
            for a in self.outcomes:
                if (a, b) not in self.maps:
                    raise AlphabetMismatchError(f"missing map for ({a!r}, {b!r})")

    def validate(self) -> "CPMapFamily":
        """Check that the maps of each setting sum to a channel: the union
        of their Kraus lists is trace preserving (KrausChannel.validate)."""
        any_map = next(iter(self.maps.values()))
        for b in self.settings:
            KrausChannel(tuple(k for a in self.outcomes
                               for k in self.maps[(a, b)].kraus),
                         any_map.in_dims, any_map.out_dims).validate()
        return self


# ---------------------------------------------------------------------------
# infrequent sampling channels
# ---------------------------------------------------------------------------

def score_alphabet(d: int) -> tuple:
    """The spot-check score alphabet {0,1}^d + the generation symbol."""
    bits = ["".join(t) for t in itertools.product("01", repeat=d)]
    return tuple(bits) + (BOT,)


@dataclass(frozen=True)
class SamplingProtocol:
    """Spot-checking round description: test with probability gamma.

    ``score(a, b)`` maps outcome and setting to a d-bit string on test rounds;
    generation rounds record the bot symbol.
    """

    gamma: float
    outcomes: tuple
    settings: tuple
    p_gen: np.ndarray
    p_test: np.ndarray
    score: dict
    d: int = 1

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise TargetOutOfRangeError(f"gamma {self.gamma} outside [0, 1]")
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "settings", tuple(self.settings))
        for name in ("p_gen", "p_test"):
            p = np.asarray(getattr(self, name), dtype=float)
            if p.shape != (len(self.settings),) or not np.isfinite(p).all() \
                    or abs(p.sum() - 1) > 1e-9 or p.min() < -1e-12:
                raise AlphabetMismatchError(f"{name} is not a distribution on B")
            object.__setattr__(self, name, p)
        bits = score_alphabet(self.d)[:-1]
        scored = np.empty((len(self.outcomes), len(self.settings)), dtype=int)
        for ia, a in enumerate(self.outcomes):
            for ib, b in enumerate(self.settings):
                if (a, b) not in self.score:
                    raise AlphabetMismatchError(f"score missing ({a!r}, {b!r})")
                if self.score[(a, b)] not in bits:
                    raise AlphabetMismatchError(
                        f"score value {self.score[(a, b)]!r} not a {self.d}-bit string")
                scored[ia, ib] = bits.index(self.score[(a, b)])
        scored.flags.writeable = False
        object.__setattr__(self, "_scored", scored)

    @property
    def c_alphabet(self) -> tuple:
        return score_alphabet(self.d)

    @property
    def scored(self) -> np.ndarray:
        """``c_alphabet`` index of score(a, b), as an ``(n_a, n_b)`` array."""
        return self._scored

    def score_law(self, p_ab) -> np.ndarray:
        """Score distributions p_C of outcome laws ``p_ab[..., a, b]``.

        ``a`` and ``b`` index ``outcomes`` and ``settings``: the bot symbol
        gets 1 - gamma, and score(a, b) gets gamma p_test(b) p(a|b).
        """
        p = np.asarray(p_ab, dtype=float)
        onehot = np.eye(len(self.c_alphabet))[self.scored.ravel()]
        tested = self.gamma * self.p_test * p
        out = tested.reshape(p.shape[:-2] + (-1,)) @ onehot
        out[..., self.c_alphabet.index(BOT)] += 1.0 - self.gamma
        return out


def _round_state(proto: SamplingProtocol, p_ab: np.ndarray,
                 blocks: np.ndarray, q_name: str) -> CqState:
    """One spot-checking round as a state on (A, C, T, B) and the leftovers.

    ``p_ab[a, b]`` is the probability of outcome a at setting b and
    ``blocks[a, b]`` the normalized leftover state, registered as ``q_name``
    unless it is one-dimensional. T = 0 is a generation round scored with the
    bot symbol, T = 1 a test round scored by the protocol.
    """
    n_a, n_b = p_ab.shape
    qd = blocks.shape[-1]
    regs = [creg("A", proto.outcomes), creg("C", proto.c_alphabet),
            creg("T", (0, 1)), creg("B", proto.settings)]
    if qd > 1:
        regs.append(qreg(q_name, qd))
    ia, ib = np.indices((n_a, n_b))
    w = np.zeros((n_a, len(proto.c_alphabet), 2, n_b))
    conds = np.empty(w.shape + (qd, qd), dtype=complex)
    conds[...] = np.eye(qd) / qd
    bot = proto.c_alphabet.index(BOT)
    for t, (pt, pb, c) in enumerate(((1.0 - proto.gamma, proto.p_gen, bot),
                                     (proto.gamma, proto.p_test, proto.scored))):
        w[ia, c, t, ib] = pt * pb * p_ab
        conds[ia, c, t, ib] = blocks if qd > 1 else 1.0
    return CqState(regs, w, conds)


def family_round(family: CPMapFamily, proto: SamplingProtocol,
                 omega: DensityOperator) -> CqState:
    """One spot-checking round of a CP map family on omega over (R, R'):
    M^{a|b} acts on R, the updated memory is traced out and R' kept as Rp."""
    if tuple(family.outcomes) != tuple(proto.outcomes) or \
            tuple(family.settings) != tuple(proto.settings):
        raise AlphabetMismatchError("family alphabets do not match protocol")
    family.validate()
    any_map = next(iter(family.maps.values()))
    din = int(np.prod(any_map.in_dims, initial=1))
    d_rp = omega.qdim // din
    pair = DensityOperator(omega.matrix, (din, d_rp))
    p_ab = np.zeros((len(proto.outcomes), len(proto.settings)))
    blocks = np.empty(p_ab.shape + (d_rp, d_rp), dtype=complex)
    for ia, a in enumerate(proto.outcomes):
        for ib, b in enumerate(proto.settings):
            left = pair.apply_quantum_channel(family.maps[(a, b)].kraus,
                                              "Q0").marginal(["Q1"]).conds
            p_ab[ia, ib] = float(np.trace(left).real)
            blocks[ia, ib] = (left / p_ab[ia, ib] if p_ab[ia, ib] > 1e-15
                              else np.eye(d_rp) / d_rp)
    return _round_state(proto, np.where(p_ab > 1e-15, p_ab, 0.0), blocks, "Rp")


def build_sampling_channel(strategy: TwoQubitStrategy,
                           proto: SamplingProtocol) -> CqState:
    """One spot-checking round of a device strategy under a protocol: the
    round state on (A, C, T, B), with Alice's outputs as A and Eve's
    purifier as E."""
    table = _round_table(strategy, proto, "alice")
    return _round_state(proto, table.p, table.cond, "E")


def check_b_independence(round_channel, trials: int, seed, r_dim: int):
    """Empirical check of the side-information independence condition.

    Feeds random entangled inputs on (R, R'), R' a qubit, through the round
    channel and measures || rho_{B R'} - rho_B x omega_{R'} ||_1 / 2, with B
    the channel's registers among T and B. Returns (all_below_1e-8,
    worst_deviation).
    """
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(trials):
        omega = random_density((r_dim, 2), rng)
        omega = DensityOperator(omega.matrix, (r_dim, 2), ("R", "Rp"))
        out = round_channel(omega)
        keep = [n for n in ("T", "B") if out.has_register(n)]
        joint = out.marginal(keep + ["Rp"]).to_density()
        marg_b = out.marginal(keep).to_density()
        marg_rp = omega.partial_trace_labels(["Rp"])
        dev = trace_distance(joint, marg_b.tensor(marg_rp))
        worst = max(worst, dev)
    return worst < 1e-8, worst


# ---------------------------------------------------------------------------
# read-and-prepare channels
# ---------------------------------------------------------------------------

def flat_spike_distribution(target: float, alpha: float,
                            dim: int) -> np.ndarray:
    """Distribution (x, (1-x)/(d-1), ...) with Renyi entropy = target.

    Solved by bisection on x in [1/d, 1] to a width of 1e-15; the entropy
    decreases from log2(d) to 0 over that interval.
    """
    alpha = check_alpha(alpha)
    if dim < 1:
        raise TargetOutOfRangeError("dimension must be positive")
    top = math.log2(dim)
    if target < -1e-12 or target > top + 1e-12:
        raise TargetOutOfRangeError(f"entropy {target} outside [0, {top}]")
    if dim == 1 or target <= 0.0:
        out = np.zeros(dim)
        out[0] = 1.0
        return out

    def h_of(x: float) -> float:
        rest = (1.0 - x) / (dim - 1)
        tot = x ** alpha + (dim - 1) * rest ** alpha
        return math.log2(tot) / (1.0 - alpha)

    lo, hi = 1.0 / dim, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h_of(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    x = 0.5 * (lo + hi)
    out = np.full(dim, (1.0 - x) / (dim - 1))
    out[0] = x
    return out


@dataclass(frozen=True)
class ReadAndPrepareChannel:
    """Reads a classical register and appends a fresh classical register D.

    The appended state tau(c) is chosen with H_alpha(tau(c)) = M - f_c; the
    input passes through untouched (tracing D undoes the channel).
    """

    alphabet: tuple
    taus: tuple
    m_const: float
    alpha: float

    @property
    def dim_d(self) -> int:
        return len(self.taus[0])

    def apply(self, state: CqState, c_name: str) -> CqState:
        """Append the register D, drawn from tau of the symbol on ``c_name``."""
        if tuple(state.alphabet(c_name)) != self.alphabet:
            raise AlphabetMismatchError(
                f"register {c_name!r} alphabet does not match the channel")
        pos = state.classical_names.index(c_name)
        taus = self.taus

        def dist_for(outcome):
            sym = outcome[pos]
            return taus[self.alphabet.index(sym)]

        return state.append_classical("D", tuple(range(self.dim_d)), dist_for)


def build_read_and_prepare(f, m_const: float, alpha: float,
                           alphabet) -> ReadAndPrepareChannel:
    """Read-and-prepare channel with exact per-symbol entropy targets M - f_c."""
    alpha = check_alpha(alpha)
    alphabet = tuple(alphabet)
    f_arr = _f_vector(f, alphabet)
    if m_const <= 0.0:
        raise TargetOutOfRangeError("cap M must be positive")
    if np.any(m_const - f_arr <= m_const / 2.0):
        raise TargetOutOfRangeError("need f_c < M/2 for every score symbol")
    dim_d = 2 ** math.ceil(float(np.max(m_const - f_arr)) - 1e-12)
    taus = tuple(flat_spike_distribution(m_const - fc, alpha, dim_d)
                 for fc in f_arr)
    return ReadAndPrepareChannel(alphabet, taus, float(m_const), alpha)


# ---------------------------------------------------------------------------
# reweighted state and the two-term divergence decomposition
# ---------------------------------------------------------------------------

def _embedded(op, rho: DensityOperator, labels) -> np.ndarray:
    return embed(op, rho.dims, rho.indices_of(labels))


def _reweighting(rho: DensityOperator, b_labels, sigma_b, alpha: float):
    """(nu, nu^{1/2}, rho^{-1/2}), nu = (rho^{1/2} sigma_B^{(1-alpha)/alpha}
    rho^{1/2})^alpha normalized; SupportViolationError off supp(sigma_B)."""
    sigma_b = sigma_b.matrix if isinstance(sigma_b, DensityOperator) else sigma_b
    ws, vs = _eigh(_hermitian(sigma_b), floor=PSD_TOL)
    if _leaks(rho.partial_trace_labels(b_labels).matrix, ws, vs)[0]:
        raise SupportViolationError("supp(rho_B) exceeds supp(sigma_B)")
    sig_pow = _embedded(_from_eig(_power(ws, (1.0 - alpha) / alpha), vs),
                        rho, b_labels)
    wr, vr = _eigh(_hermitian(rho.matrix), floor=PSD_TOL)
    root = _from_eig(_power(wr, 0.5), vr)
    wc, vc = _eigh(root @ sig_pow @ root, floor=PSD_TOL)
    wn = _power(wc, alpha)
    wn = wn / wn.sum()
    return (_from_eig(wn, vc), _from_eig(_power(wn, 0.5), vc),
            _from_eig(_power(wr, -0.5), vr))


def reweighted_state(state: CqState, a1: str, b1: str, a2: str, b2: str,
             sigma_b1, alpha: float) -> CqState:
    """Reweighted cq-state nu for a state classical on b2.

    Requires the side-information product structure (the (a1, b1) marginal
    must not depend on the b2 outcome). The output shares its conditional
    operator with the input: conditioning the reweighted state on (A1, B1)
    reproduces the input's (A2, B2) conditional exactly.
    """
    alpha = check_alpha(alpha)
    if state.classical_names != (b2,):
        raise AlphabetMismatchError(
            f"register {b2!r} must be the only classical register")
    keep = [n for n in state.names if n in (a1, b1)]
    rho_ab = state.marginal(keep).to_density()
    _, nu_root, inv_root = _reweighting(rho_ab, [b1], sigma_b1, alpha)
    per_b2 = state.marginal([b2] + keep)
    if any(p > 0.0 and trace_distance(m, rho_ab) > 1e-8
           for p, m in zip(per_b2.weights, per_b2.conds)):
        raise SupportViolationError(
            "the (A1, B1) marginal depends on the b2 outcome; the "
            "decomposition needs rho_{A1 B1 B2} = rho_{A1 B1} x rho_{B2}")
    # push each b2 block through K . K^dag on the (A1, B1) factors
    pos = [i for i, n in enumerate(state.quantum_names) if n in (a1, b1)]
    k_big = embed(nu_root @ inv_root, state.qdims, pos)
    blk = k_big @ state.conds @ k_big.conj().T
    tr = np.trace(blk, axis1=-2, axis2=-1).real[:, None, None]
    conds = np.where(tr > 1e-14, blk / np.where(tr > 1e-14, tr, 1.0), blk)
    return CqState(state.cregs + state.qregs, state.weights, conds)


def decomposition_gap(rho: DensityOperator, a1_labels, a2_labels,
                          b_labels, sigma_b, alpha: float) -> float:
    """|LHS - RHS| of the two-term divergence decomposition.

    LHS = -D_alpha(rho_{A1 A2 B} || I x sigma_B); RHS subtracts the (A1, B)
    part and adds H_down(A2 | A1 B) on the reweighted state.
    """
    alpha = check_alpha(alpha)
    a1_labels, a2_labels, b_labels = map(list, (a1_labels, a2_labels, b_labels))
    keep = [n for n in rho.labels if n in set(a1_labels) | set(b_labels)]
    rho_a1b = rho.partial_trace_labels(keep)
    nu_small, nu_root, inv_root = _reweighting(rho_a1b, b_labels, sigma_b,
                                               alpha)
    sigma_b = sigma_b.matrix if isinstance(sigma_b, DensityOperator) else sigma_b
    lhs = -renyi_divergence(rho.matrix, _embedded(sigma_b, rho, b_labels),
                            alpha)
    term1 = -renyi_divergence(rho_a1b.matrix,
                              _embedded(sigma_b, rho_a1b, b_labels), alpha)
    inv_root_big = _embedded(inv_root, rho, keep)
    nu_root_big = _embedded(nu_root, rho, keep)
    cond_op = inv_root_big @ rho.matrix @ inv_root_big
    nu_full = nu_root_big @ cond_op @ nu_root_big
    term2 = -renyi_divergence(nu_full, _embedded(nu_small, rho, keep), alpha)
    return abs(lhs - (term1 + term2))


# ---------------------------------------------------------------------------
# two-qubit strategies and Bell functionals
# ---------------------------------------------------------------------------

def bloch_projectors(theta: float, phi: float = 0.0):
    """Two-outcome projective qubit measurement along the Bloch direction."""
    p = _projector_stack((theta, phi))
    return p[0], p[1]


@dataclass(frozen=True)
class ResponseTable:
    """Outcome probabilities ``p[a, b]`` and Eve's normalized conditional
    states ``cond[a, b]``: ``a`` indexes ``outcomes``, ``b`` the setting
    labels the table was built for, in their order. A table of a strategy
    stack carries the stack axis in front of both."""

    outcomes: tuple
    p: np.ndarray
    cond: np.ndarray

    def in_protocol_order(self, proto: SamplingProtocol) -> "ResponseTable":
        """The table with its outcome axis in the protocol's outcome order."""
        missing = [a for a in proto.outcomes if a not in self.outcomes]
        if missing:
            raise AlphabetMismatchError(f"protocol outcomes {missing} unknown "
                                        "to the strategy")
        extra = [a for a in self.outcomes if a not in proto.outcomes]
        if extra:
            raise AlphabetMismatchError(f"strategy outcomes {extra} unknown "
                                        "to the protocol")
        order = [self.outcomes.index(a) for a in proto.outcomes]
        return ResponseTable(proto.outcomes, self.p[..., order, :],
                             self.cond[..., order, :, :, :])


def _projector_stack(angles) -> np.ndarray:
    """``bloch_projectors`` of (theta, phi) pairs ``(..., 2)``, stacked as
    ``(..., 2, 2, 2)``."""
    theta, phi = np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
         np.cos(theta))
    obs = sum(c[..., None, None] * pauli
              for c, pauli in zip(n, (PAULI_X, PAULI_Y, PAULI_Z)))
    eye = np.eye(2, dtype=complex)
    return np.stack([(eye + obs) / 2.0, (eye - obs) / 2.0], axis=-3)


def response_stack(x, meas_a, meas_b, setting_labels,
                   outputs: str = "alice") -> ResponseTable:
    """Response tables of a stack of m two-qubit strategies in one pass.

    ``x`` stacks the states' purifications ``(m, 4, d_e)``, read as
    ``|Psi> = sum_i x[:, i] |i>_E`` with Eve holding the copy register;
    ``meas_a`` and ``meas_b`` stack the (theta, phi) Bloch angles per
    setting, ``(m, n_a, 2)`` and ``(m, n_b, 2)``. Setting labels "xy"
    address the pair (Alice x, Bob y); a bare "x" addresses Alice alone.
    ``outputs`` selects whether the recorded outcome is Alice's bit or the
    joint pair "ab".
    """
    labels = tuple(setting_labels)
    x = np.asarray(x, dtype=complex)
    m, d_e = x.shape[0], x.shape[-1]
    # x[m, (i, k), e] as x4[m, i, k, e]: Alice's qubit i, Bob's k, Eve's e
    x4 = x.reshape(m, 2, 2, d_e)

    def conj_projectors(meas, pos):
        """P^* per label: Eve's block of a Hermitian projector P is
        x^T P^* x^*."""
        angles = np.asarray(meas, dtype=float).reshape(m, -1, 2)
        return _projector_stack(
            angles[:, [int(str(lab)[pos]) for lab in labels]]).conj()

    pa = conj_projectors(meas_a, 0)
    if outputs == "alice":
        outcomes = ("0", "1")
        blocks = np.einsum("mike,msaij,mjkf->masef", x4, pa, x4.conj())
    elif outputs == "pair":
        if any(len(str(lab)) < 2 for lab in labels):
            raise AlphabetMismatchError("pair outputs need pair settings")
        pb = conj_projectors(meas_b, 1)
        outcomes = ("00", "01", "10", "11")
        blocks = np.einsum("mike,msaij,msbkl,mjlf->mabsef", x4, pa, pb,
                           x4.conj()).reshape(m, 4, len(labels), d_e, d_e)
    else:
        raise AlphabetMismatchError(f"unknown outputs mode {outputs!r}")
    p = np.trace(blocks, axis1=-2, axis2=-1).real
    p = np.where(p > 0.0, p, 0.0)
    live = (p > 1e-15)[..., None, None]
    cond = np.where(live, blocks / np.where(live, p[..., None, None], 1.0),
                    np.eye(d_e) / d_e)
    return ResponseTable(outcomes, p, cond)


def params_stack(params, n_a: int, n_b: int):
    """``TwoQubitStrategy.from_params`` of each row of ``params``, stacked.

    Returns ``(x, meas_a, meas_b)`` as ``response_stack`` and
    ``bell_values`` take them: the Schmidt state cos t |00> + sin t |11> is
    pure, so its purification is the state vector itself (d_e = 1).
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != 1 + n_a + n_b:
        raise DimMismatchError(f"want rows of {1 + n_a + n_b} parameters")
    x = np.zeros((len(params), 4, 1), dtype=complex)
    x[:, 0, 0] = np.cos(params[:, 0])
    x[:, 3, 0] = np.sin(params[:, 0])
    angles = np.stack([params[:, 1:], np.zeros_like(params[:, 1:])], axis=-1)
    return x, angles[:, :n_a], angles[:, n_a:]


@dataclass(frozen=True)
class TwoQubitStrategy:
    """Shared two-qubit state plus projective qubit measurements per setting.

    Measurement angles are (theta, phi) Bloch pairs; mixed states are purified
    onto Eve's register when responses are computed.
    """

    state: DensityOperator
    meas_a: tuple
    meas_b: tuple

    def __post_init__(self):
        if self.state.dims != (2, 2):
            raise DimMismatchError("strategy state must live on two qubits")
        object.__setattr__(self, "meas_a",
                           tuple((float(t), float(p)) for t, p in self.meas_a))
        object.__setattr__(self, "meas_b",
                           tuple((float(t), float(p)) for t, p in self.meas_b))

    @staticmethod
    def from_schmidt(theta: float, meas_a, meas_b) -> "TwoQubitStrategy":
        vec = np.zeros(4, dtype=complex)
        vec[0] = math.cos(theta)
        vec[3] = math.sin(theta)
        mat = np.outer(vec, vec.conj())
        return TwoQubitStrategy(DensityOperator(mat, (2, 2), ("Qa", "Qb")),
                                tuple(meas_a), tuple(meas_b))

    @staticmethod
    def from_params(params, n_a: int, n_b: int) -> "TwoQubitStrategy":
        """Planar parametrization: Schmidt angle + one polar angle per setting."""
        params = np.asarray(params, dtype=float)
        if params.shape != (1 + n_a + n_b,):
            raise DimMismatchError(f"want {1 + n_a + n_b} parameters")
        theta = params[0]
        meas_a = tuple((t, 0.0) for t in params[1:1 + n_a])
        meas_b = tuple((t, 0.0) for t in params[1 + n_a:])
        return TwoQubitStrategy.from_schmidt(theta, meas_a, meas_b)

    @staticmethod
    def chsh_tsirelson() -> "TwoQubitStrategy":
        """Maximally entangled state with the standard CHSH-optimal angles."""
        return TwoQubitStrategy.from_schmidt(
            math.pi / 4,
            meas_a=((0.0, 0.0), (math.pi / 2, 0.0)),
            meas_b=((math.pi / 4, 0.0), (-math.pi / 4, 0.0)))

    def setting_labels(self, settings: str = "pairs") -> tuple:
        if settings == "pairs":
            return tuple(f"{x}{y}" for x in range(len(self.meas_a))
                         for y in range(len(self.meas_b)))
        if settings == "alice":
            return tuple(str(x) for x in range(len(self.meas_a)))
        raise AlphabetMismatchError(f"unknown settings mode {settings!r}")

    def response_table(self, setting_labels, outputs: str = "alice") -> ResponseTable:
        """Outcome probabilities and Eve conditionals per (outcome, setting).

        ``response_stack`` on a stack of one; Eve holds the purification of
        the state, of dimension its rank.
        """
        t = response_stack(_purification(self.state.matrix)[None],
                           np.array(self.meas_a)[None],
                           np.array(self.meas_b)[None],
                           setting_labels, outputs=outputs)
        return ResponseTable(t.outcomes, t.p[0], t.cond[0])


def _round_table(strategy: TwoQubitStrategy, proto: SamplingProtocol,
                 outputs: str) -> ResponseTable:
    """The strategy's response table in the protocol's order."""
    return strategy.response_table(proto.settings,
                                   outputs=outputs).in_protocol_order(proto)


def strategy_to_cq(strategy: TwoQubitStrategy, p_b, settings: str = "pairs",
                   outputs: str = "alice") -> CqState:
    """Classical (A, B) with Eve's purifier: sum_ab p(b) p(a|b) |ab><ab| x rho_E."""
    labels = strategy.setting_labels(settings)
    p_b = np.asarray(p_b, dtype=float)
    if p_b.shape != (len(labels),):
        raise AlphabetMismatchError("p_b length does not match the settings")
    table = strategy.response_table(labels, outputs=outputs)
    regs = [creg("A", table.outcomes), creg("B", labels),
            qreg("E", table.cond.shape[-1])]
    return CqState(regs, p_b * table.p, table.cond)


@dataclass(frozen=True)
class BellFunctional:
    """Correlator-coefficient Bell functional sum_xy M[x, y] <A_x B_y>."""

    coefficients: np.ndarray
    name: str = ""
    classical_bound: float | None = None

    def __post_init__(self):
        m = np.asarray(self.coefficients, dtype=float)
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise AlphabetMismatchError("coefficient matrix must be finite 2-D")
        object.__setattr__(self, "coefficients", m)

    @staticmethod
    def chsh() -> "BellFunctional":
        return BellFunctional(np.array([[1.0, 1.0], [1.0, -1.0]]), "chsh", 2.0)

    @staticmethod
    def i3322_correlator() -> "BellFunctional":
        doc = json.loads(resources.files("renyiacc.presets")
                         .joinpath("i3322.json").read_text())
        return BellFunctional(np.asarray(doc["correlators"], dtype=float),
                              doc["name"], float(doc["classical_bound"]))

    @staticmethod
    def by_name(name: str) -> "BellFunctional":
        if name == "chsh":
            return BellFunctional.chsh()
        if name in ("i3322", "i3322_correlator"):
            return BellFunctional.i3322_correlator()
        raise AlphabetMismatchError(f"unknown Bell functional {name!r}")


PROTOCOL_SCHEMA = "renyiacc/protocol/v1"
STRATEGY_SCHEMA = "renyiacc/strategy/v1"


def protocol_to_dict(proto: SamplingProtocol) -> dict:
    return {
        "schema": PROTOCOL_SCHEMA,
        "gamma": proto.gamma,
        "outcomes": list(proto.outcomes),
        "settings": list(proto.settings),
        "pGen": {str(b): float(p) for b, p in zip(proto.settings, proto.p_gen)},
        "pTest": {str(b): float(p) for b, p in zip(proto.settings, proto.p_test)},
        "d": proto.d,
        "score": {f"{a}|{b}": v for (a, b), v in proto.score.items()},
    }


def protocol_from_dict(doc: dict) -> SamplingProtocol:
    """A protocol document; a setting missing from pGen or pTest has
    probability 0, and every pGen, pTest and score key must name settings
    (and outcomes) of the document."""
    validate(doc, PROTOCOL_SCHEMA)
    outcomes, settings = tuple(doc["outcomes"]), tuple(doc["settings"])
    laws = {}
    for name in ("pGen", "pTest"):
        unknown = sorted(set(doc[name]) - {str(b) for b in settings})
        if unknown:
            raise AlphabetMismatchError(f"{name} keys {unknown} are not settings")
        laws[name] = np.array([float(doc[name].get(str(b), 0.0))
                               for b in settings])
    score = {}
    for key, v in doc["score"].items():
        a, b = key.split("|", 1)
        if a not in outcomes or b not in settings:
            raise AlphabetMismatchError(f"score key {key!r} is not an "
                                        "outcome|setting pair")
        score[(a, b)] = v
    return SamplingProtocol(gamma=float(doc["gamma"]),
                            outcomes=outcomes, settings=settings,
                            p_gen=laws["pGen"], p_test=laws["pTest"],
                            score=score, d=int(doc.get("d", 1)))


def strategy_to_dict(s: TwoQubitStrategy) -> dict:
    return {"schema": STRATEGY_SCHEMA, "state": density_to_dict(s.state),
            "measA": [list(m) for m in s.meas_a],
            "measB": [list(m) for m in s.meas_b]}


def _angle_pairs(entries, key: str) -> tuple:
    """A strategy document's Bloch angles, one (theta, phi) pair per
    setting; BadShapeError unless there is a setting and every angle is
    finite."""
    if not (entries and np.isfinite(entries).all()):
        raise BadShapeError(f"{key} entries must be pairs of finite numbers "
                            f"(theta, phi), got {entries!r}")
    return tuple((float(t), float(p)) for t, p in entries)


def strategy_from_dict(doc: dict) -> TwoQubitStrategy:
    validate(doc, STRATEGY_SCHEMA)
    meas_a = _angle_pairs(doc["measA"], "measA")
    meas_b = _angle_pairs(doc["measB"], "measB")
    if "schmidt" in doc:
        return TwoQubitStrategy.from_schmidt(float(doc["schmidt"]), meas_a,
                                             meas_b)
    return TwoQubitStrategy(density_from_dict(doc["state"]).validate(), meas_a,
                            meas_b)


def bell_values(rho, meas_a, meas_b, functional: BellFunctional) -> np.ndarray:
    """Bell values of a stack of m strategies: states ``rho`` ``(m, 4, 4)``
    and Bloch angles ``meas_a`` / ``meas_b`` as ``response_stack`` takes
    them."""
    m = functional.coefficients
    meas_a = np.asarray(meas_a, dtype=float).reshape(len(rho), -1, 2)
    meas_b = np.asarray(meas_b, dtype=float).reshape(len(rho), -1, 2)
    if m.shape[0] > meas_a.shape[1] or m.shape[1] > meas_b.shape[1]:
        raise AlphabetMismatchError("strategy has too few settings for the "
                                    "functional")
    # observables P0 - P1 per setting; <A_x B_y> = tr((A_x x B_y) rho)
    pa = _projector_stack(meas_a[:, :m.shape[0]])
    pb = _projector_stack(meas_b[:, :m.shape[1]])
    rho = np.asarray(rho).reshape(-1, 2, 2, 2, 2)
    corr = np.einsum("nxik,nyjl,nklij->nxy", pa[:, :, 0] - pa[:, :, 1],
                     pb[:, :, 0] - pb[:, :, 1], rho).real
    return (m * corr).sum(axis=(1, 2))


def bell_value(strategy: TwoQubitStrategy, functional: BellFunctional) -> float:
    return float(bell_values(strategy.state.matrix[None],
                             np.array(strategy.meas_a)[None],
                             np.array(strategy.meas_b)[None], functional)[0])
