"""Scaled forward/backward, Viterbi and joint-probability evaluation.

One engine serves both orders. A second-order chain is a first-order chain
over state pairs (see embed_pair_states), so each recursion runs once over
a slice holding the last ``order`` states: an (N,) vector for order 1, an
(N, N) pair matrix for order 2. Only the step that carries a slice one frame
on depends on the order: ``prev @ trans``; or, for order 2, ``trans1`` at
the first step and the dense O(N^3) contraction with ``trans2`` after it.

Numerical regime
----------------
Forward and backward run in the linear domain: every alpha slice is divided
by its sum, and ``slice_log_norms[t]`` is the log of that sum plus the
frame's emission shift, so log_likelihood = sum_t slice_log_norms[t].
Viterbi is max-plus in the log domain. Before exponentiating, each frame's
log-densities are shifted by their maximum and the shift is folded back into
that frame's normalizer, so a frame whose densities are merely tiny never
looks impossible; ImpossibleObservationError fires only when every state
with incoming probability mass has log-density -inf at some frame. The
terminal backward slice is 1 for left-to-right models and 1/N for circular
models; reestimation ratios are invariant to that constant.

State indices are 0-based; frame indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ImpossibleObservationError
from .models import (
    _TRANSITION_FIELDS,
    GmmEmission,
    Hmm1Model,
    Hmm2Model,
    _component_log_densities,
    _logsumexp,
    custom_topology,
)

__all__ = [
    "TrellisLattice",
    "StatePath",
    "log_emission_matrix",
    "forward1",
    "backward1",
    "forward_backward1",
    "viterbi1",
    "likelihood_via_transition",
    "forward2",
    "backward2",
    "forward_backward2",
    "viterbi2",
    "sequence_log_prob",
    "embed_pair_states",
    "decode_pair_path",
]


# ---------------------------------------------------------------------------
# emissions
# ---------------------------------------------------------------------------

def _frames_of(obs):
    """Accept a FeatureMatrix-like object (has .frames) or a raw array."""
    return obs.frames if hasattr(obs, "frames") else obs


def _source_of(obs) -> str:
    """The utterance name a FeatureMatrix carries ("" when it has none)."""
    meta = getattr(obs, "meta", None)
    return getattr(meta, "source", "") if meta is not None else ""


def _reject_non_finite(x, utterance=None):
    """Raise ValueError naming the first frame of ``x`` that holds a
    non-finite value, and the utterance when one is given."""
    finite = np.isfinite(x)
    if not finite.all():
        frame = int(np.argwhere(~finite)[0][0])
        where = f"frame {frame}"
        if utterance is not None:
            where = f"utterance {utterance!r}, {where}"
        raise ValueError(f"non-finite feature value at {where}")


def log_emission_matrix(model, obs) -> np.ndarray:
    """(T, N) matrix of per-state log emission densities for ``obs``.

    A non-finite continuous frame would make every score NaN; it raises
    ValueError naming the frame and the utterance (when ``obs`` has one).
    """
    return _emission_terms(model, obs)[0]


def _emission_terms(model, obs):
    """The checks and the arithmetic behind log_emission_matrix.

    Returns (logb, comp): the (T, N) log emission densities and, for GMM
    emissions, the (T, N, M) component log-densities whose log-sum-exp
    they are (None for discrete emissions), so the E-step can reuse them.
    """
    x = _frames_of(obs)
    first = model.emissions[0]
    gmm = isinstance(first, GmmEmission)
    if gmm:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(
                f"continuous observations must be (T, D), got shape {x.shape}"
            )
        _reject_non_finite(x, _source_of(obs) or None)
    else:
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError("discrete observations must be a 1-D symbol sequence")
    if x.shape[0] == 0:
        raise ValueError("empty observation sequence")
    if gmm:
        if x.shape[1] != first.n_dims:
            raise ValueError(
                f"frames have dimension {x.shape[1]}, emission has {first.n_dims}"
            )
        comp = _component_log_densities(x, *model._gmm_parameters)
        logb = _logsumexp(comp)
    else:
        comp = None
        logb = np.stack([e.log_density(x) for e in model.emissions], axis=1)
    if np.isposinf(logb).any():
        raise ValueError("emission density is infinite (zero variance?)")
    return logb, comp


def _shifted_emissions(logb):
    """Per-frame max-shifted linear emission densities of the (T, N) log
    densities ``logb``.

    Returns (bsh, shifts) with bsh[t] = exp(logb[t] - shifts[t]) in [0, 1].
    A frame whose densities are all -inf raises immediately.
    """
    shifts = np.max(logb, axis=1)
    dead = np.isneginf(shifts)
    if dead.any():
        raise ImpossibleObservationError(int(np.flatnonzero(dead)[0]))
    return np.exp(logb - shifts[:, None]), shifts


# ---------------------------------------------------------------------------
# the scaled lattice engine
# ---------------------------------------------------------------------------

@dataclass
class TrellisLattice:
    """Scaled forward (and optionally backward) tables for one utterance.

    order 1: alpha/beta are (T, N). order 2: alpha/beta are (T, N, N) pair
    tables valid for slice index >= 1, and ``alpha_start`` holds the scaled
    first-frame state vector. ``slice_log_norms[t]`` is the log of slice t's
    normalizer in the unshifted domain (the log conditional probability of
    frame t given the frames before it), so
    log_likelihood = sum(slice_log_norms); ``emission_shifts`` are the
    per-frame maxima the emissions were shifted by.
    """

    order: int
    alpha: np.ndarray
    slice_log_norms: np.ndarray
    log_likelihood: float
    beta: np.ndarray | None = None
    alpha_start: np.ndarray | None = None
    emission_shifts: np.ndarray = field(default=None, repr=False)

    @property
    def n_frames(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class StatePath:
    """A decoded state sequence and its joint log-probability."""

    states: np.ndarray
    log_prob: float

    def __post_init__(self):
        object.__setattr__(
            self, "states", np.asarray(self.states, dtype=np.int64)
        )


def _step(model, t, prev):
    """Carry slice t-1 to frame t, before weighting by frame t's emissions."""
    if model.order == 1:
        return prev @ model.trans
    if t == 1:
        return prev[:, None] * model.trans1
    return np.einsum("ij,ijk->jk", prev, model.trans2)


def _back_step(model, b, beta):
    """Backward twin of _step: the slice-t table from frame t+1's shifted
    emissions ``b`` and backward slice ``beta``, before normalization."""
    if model.order == 1:
        return model.trans @ (b * beta)
    return np.einsum("ijk,k,jk->ij", model.trans2, b, beta)


def _forward(model, bsh, shifts) -> TrellisLattice:
    T, N = bsh.shape
    order = model.order
    alpha = np.zeros((T,) + (N,) * order)
    log_norms = np.empty(T)
    start = None
    a = model.initial
    for t in range(T):
        if t:
            a = _step(model, t, a)
        u = a * bsh[t]
        s = u.sum()
        if s <= 0.0:
            raise ImpossibleObservationError(t)
        a = u / s
        log_norms[t] = np.log(s) + shifts[t]
        if a.ndim == order:
            alpha[t] = a
        else:
            start = a
    return TrellisLattice(
        order=order,
        alpha=alpha,
        slice_log_norms=log_norms,
        log_likelihood=float(log_norms.sum()),
        alpha_start=start,
        emission_shifts=shifts,
    )


def _backward(model, bsh, shifts, forward: TrellisLattice) -> np.ndarray:
    T, N = bsh.shape
    if forward.slice_log_norms.shape[0] != T:
        raise ValueError(
            f"lattice has {forward.slice_log_norms.shape[0]} slices, observation has T = {T}"
        )
    norms = np.exp(forward.slice_log_norms - shifts)
    order = model.order
    beta = np.zeros((T,) + (N,) * order)
    if T < order:
        return beta
    term = 1.0 / N if model.mask.kind == "circular" else 1.0
    beta[T - 1] = term / norms[T - 1]
    for t in range(T - 2, order - 2, -1):
        beta[t] = _back_step(model, bsh[t + 1], beta[t + 1]) / norms[t]
    return beta


def _forward_backward(model, obs):
    """Forward lattice with its backward table, from emissions shifted once.
    Returns (lattice, shifted emissions, log emission densities, component
    log-densities) -- the last two as _emission_terms gives them."""
    logb, comp = _emission_terms(model, obs)
    bsh, shifts = _shifted_emissions(logb)
    lat = _forward(model, bsh, shifts)
    lat.beta = _backward(model, bsh, shifts, lat)
    return lat, bsh, logb, comp


def _log(p):
    with np.errstate(divide="ignore"):
        return np.where(p > 0.0, np.log(p), -np.inf)


def _viterbi(model, logb) -> StatePath:
    """Max-plus twin of _forward with back-pointers from each full slice to
    the state it drops."""
    T, N = logb.shape
    order = model.order
    logtrans = [_log(getattr(model, name)) for name in _TRANSITION_FIELDS[order]]
    dp = _log(model.initial) + logb[0]
    if np.max(dp) == -np.inf:
        raise ImpossibleObservationError(0)
    ptr = np.empty((T,) + (N,) * order, dtype=np.int64)
    for t in range(1, T):
        cand = dp[..., None] + logtrans[min(t, order) - 1]
        if dp.ndim == order:
            ptr[t] = np.argmax(cand, axis=0)
            cand = cand.max(axis=0)
        dp = cand + logb[t]
        if np.max(dp) == -np.inf:
            raise ImpossibleObservationError(t)
    last = np.unravel_index(int(np.argmax(dp)), dp.shape)
    states = np.empty(T, dtype=np.int64)
    states[T - dp.ndim:] = last
    for t in range(T - 1, order - 1, -1):
        states[t - order] = ptr[t][tuple(states[t - order + 1:t + 1])]
    return StatePath(states, float(dp[last]))


# ---------------------------------------------------------------------------
# first order
# ---------------------------------------------------------------------------

def forward1(model: Hmm1Model, obs) -> TrellisLattice:
    """Scaled forward pass. alpha[t] is the normalized joint of frames
    0..t and the state at t; log_likelihood is exact (computed from the
    per-slice normalizers in the log domain)."""
    return _forward(model, *_shifted_emissions(log_emission_matrix(model, obs)))


def backward1(model: Hmm1Model, obs, forward: TrellisLattice) -> np.ndarray:
    """Scaled backward pass sharing the normalizers of ``forward`` (the
    TrellisLattice from forward1). The terminal slice is 1 for
    left-to-right models and 1/N for circular models; reestimation ratios
    are invariant to that constant. Returns the (T, N) scaled backward
    table.
    """
    return _backward(model, *_shifted_emissions(log_emission_matrix(model, obs)), forward)


def forward_backward1(model: Hmm1Model, obs) -> TrellisLattice:
    """Forward pass plus backward table in one lattice."""
    return _forward_backward(model, obs)[0]


def likelihood_via_transition(model: Hmm1Model, obs, t: int) -> float:
    """Total observation probability, summed over the transition t -> t+1.

    Computes P(obs) = sum_ij alpha_t(i) a_ij b_j(O_{t+1}) beta_{t+1}(j)
    with unscaled tables, so it is meant for short sequences; the value is
    independent of t and equals exp(forward1 log-likelihood), which makes
    it a cross-check on the scaled pass. The terminal backward value is 1
    here for every topology (that is the convention under which the sum
    equals the total probability). ``t`` is a 0-based frame index with
    0 <= t <= T-2.
    """
    logb = log_emission_matrix(model, obs)
    T, N = logb.shape
    if not 0 <= t <= T - 2:
        raise IndexError(f"t = {t} outside [0, {T - 2}]")
    b = np.exp(logb)
    alpha = np.empty((T, N))
    alpha[0] = model.initial * b[0]
    for s in range(1, T):
        alpha[s] = (alpha[s - 1] @ model.trans) * b[s]
    beta = np.empty((T, N))
    beta[T - 1] = 1.0
    for s in range(T - 2, -1, -1):
        beta[s] = model.trans @ (b[s + 1] * beta[s + 1])
    return float(
        np.sum(alpha[t][:, None] * model.trans * (b[t + 1] * beta[t + 1])[None, :])
    )


def viterbi1(model: Hmm1Model, obs) -> StatePath:
    """Most probable state path (log-domain dynamic programming).

    Ties break toward the lowest state index, both at the final frame and
    at every backtrack step.
    """
    return _viterbi(model, log_emission_matrix(model, obs))


# ---------------------------------------------------------------------------
# second order
# ---------------------------------------------------------------------------

def forward2(model: Hmm2Model, obs) -> TrellisLattice:
    """Scaled forward pass over state pairs.

    alpha[t] (t >= 1) is the normalized joint of frames 0..t and the pair
    (state at t-1, state at t); alpha_start is the scaled first-frame state
    vector. A single-frame utterance degenerates to the initial/emission
    product.
    """
    return _forward(model, *_shifted_emissions(log_emission_matrix(model, obs)))


def backward2(model: Hmm2Model, obs, forward: TrellisLattice) -> np.ndarray:
    """Scaled pair-state backward table sharing forward2's normalizers.

    beta[t] (t >= 1) conditions on the pair (state at t-1, state at t);
    slice 0 is unused and left at zero. Terminal value 1 (left-to-right)
    or 1/N (circular), as for backward1.
    """
    return _backward(model, *_shifted_emissions(log_emission_matrix(model, obs)), forward)


def forward_backward2(model: Hmm2Model, obs) -> TrellisLattice:
    return _forward_backward(model, obs)[0]


def viterbi2(model: Hmm2Model, obs) -> StatePath:
    """Most probable state path under the second-order model.

    The pair-state recursion starts from
    d_1(j, k) = initial_j b_j(O_0) a1_jk b_k(O_1) and maximizes over the
    predecessor of each pair. Ties break toward the lowest predecessor
    index, and the final pair is chosen in row-major order (lowest
    second-to-last state, then lowest last state).
    """
    return _viterbi(model, log_emission_matrix(model, obs))


def sequence_log_prob(model, obs, states) -> float:
    """Joint log-probability of ``states`` and ``obs`` under the model.

    For order 1 this is log of initial * prod(trans) * prod(emissions);
    for order 2 the first transition uses trans1 and later ones trans2.
    A topology-forbidden transition yields -inf (not an error).
    """
    logb = log_emission_matrix(model, obs)
    T = logb.shape[0]
    q = np.asarray(states, dtype=np.int64)
    if q.shape != (T,):
        raise ValueError(f"state path length {q.shape} != number of frames ({T},)")
    if q.size and (q.min() < 0 or q.max() >= model.n_states):
        raise ValueError("state index out of range")
    with np.errstate(divide="ignore"):
        total = float(np.log(model.initial[q[0]])) + float(logb[np.arange(T), q].sum())
        if isinstance(model, Hmm1Model):
            if T > 1:
                total += float(np.log(model.trans[q[:-1], q[1:]]).sum())
        else:
            if T > 1:
                total += float(np.log(model.trans1[q[0], q[1]]))
            if T > 2:
                total += float(np.log(model.trans2[q[:-2], q[1:-1], q[2:]]).sum())
    return total


# ---------------------------------------------------------------------------
# pair-state embedding (second order as a first-order chain over pairs)
# ---------------------------------------------------------------------------

def embed_pair_states(model: Hmm2Model, obs):
    """Re-express a second-order model as a first-order chain on state pairs.

    Composite state j*N+k stands for (state j at the previous frame, state
    k at the current frame). Its transition matrix is
    a'[(i,j),(j',k)] = [j == j'] * trans2[i,j,k], its emission is that of
    the current state k, and its initial vector folds in the first frame:
    initial'[(j,k)] = initial_j * b_j(O_0) * trans1[j,k]. Run the embedded
    model on obs[1:]; its forward/Viterbi results then match forward2 and
    viterbi2 on the full sequence (slice t of the embedded chain is the
    pair occupying frames t and t+1).

    The embedded initial vector is intentionally unnormalized (it carries
    emission weight), so ``validate`` will flag the embedded model; it is a
    computational device, not a modeling topology. Returns
    (embedded_model, obs_tail).
    """
    x = _frames_of(obs)
    x = np.asarray(x)
    if x.shape[0] < 2:
        raise ValueError("pair-state embedding needs at least 2 frames")
    N = model.n_states
    logb0 = log_emission_matrix(model, x[:1])[0]
    b0 = np.exp(logb0)
    init = (model.initial * b0)[:, None] * model.trans1   # (j, k)
    trans = np.zeros((N, N, N, N))
    for j in range(N):
        trans[:, j, j, :] = model.trans2[:, j, :]
    trans = trans.reshape(N * N, N * N)
    allowed = trans > 0.0
    dead = ~allowed.any(axis=1)
    if dead.any():
        idx = np.flatnonzero(dead)
        trans[idx, idx] = 1.0      # unreachable composite rows; keep rows stochastic
        allowed[idx, idx] = True
    mask = custom_topology(allowed)
    emissions = tuple(model.emissions[k] for j in range(N) for k in range(N))
    embedded = Hmm1Model(mask, init.reshape(-1), trans, emissions)
    return embedded, x[1:]


def decode_pair_path(composite_states, n_states: int) -> np.ndarray:
    """Map a composite-state path from an embedded chain back to states.

    A length-(T-1) composite path yields the length-T state path: the first
    composite provides both of its states, later composites contribute
    their current state.
    """
    comp = np.asarray(composite_states, dtype=np.int64)
    out = np.empty(comp.shape[0] + 1, dtype=np.int64)
    out[0] = comp[0] // n_states
    out[1:] = comp % n_states
    return out
