"""Model types: topologies, emissions, first- and second-order chains.

Conventions
-----------
States are indexed 0-based everywhere in code and in serialized files (the
file header records this). A first-order model is (initial, trans, emissions)
with ``trans[i, j] = P(state j at t | state i at t-1)``. A second-order model
adds ``trans2[i, j, k] = P(state k at t | state j at t-1, state i at t-2)``;
its ``trans1`` matrix drives the single transition out of the first frame.
Emission densities depend on the current state only. An emission kind
(GmmEmission, DiscreteEmission) is a frozen dataclass whose fields are its
per-state parameters, and it owns the rest of what the engine needs: its
``kind`` name in model files, the observation rule for one utterance, one
kernel that scores an utterance under K states whose parameters are stacked
field by field, its Baum-Welch statistics and update over all states, and
the checks validate makes of its parameters. The Gaussian-mixture kernel
sums over dimensions and over mixture components slab by slab: its
differences are laid out dimension-major, (D, T, K, M), and _pairwise_sum
adds whole (T, K, M) slabs (and the log-sum-exp whole component slabs) in
the order of numpy's pairwise summation, so every value has the bits of
np.sum along a contiguous axis.

Two modeling topologies are supported:

* left-to-right: from state i only states i..i+skip_width are reachable and
  the first frame starts in state 0 (initial = e_0);
* circular (ring): from state i only the ring neighbours {i-1, i, i+1} mod N
  are reachable; no absorbing state exists and N >= 3.

A third kind, "custom", wraps an explicit allowed-set matrix. It exists so
derived chains (notably the pair-state embedding of a second-order model)
can be expressed as first-class models; it is not a modeling topology.

Models are immutable values: construct a new one instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property, reduce

import numpy as np

from .errors import _named, _where
from .fileio import read_json_object, write_json

__all__ = [
    "TopologyMask",
    "ltr_topology",
    "circular_topology",
    "custom_topology",
    "GmmEmission",
    "DiscreteEmission",
    "Hmm1Model",
    "Hmm2Model",
    "validate",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "symmetrize_ring_transitions",
]

_SUM_TOL = 1e-9

# The default forward skip of a left-to-right topology (ltr_topology,
# training.VariantSpec): from state i, states i..i+2 are reachable.
_SKIP_WIDTH = 2

# Transition arrays of each order, in the order the chain first applies them;
# array k conditions on k + 1 states, so its topology mask is allowed{k+1}.
_TRANSITION_FIELDS = {1: ("trans",), 2: ("trans1", "trans2")}


def _as_float_array(x, name, ndim):
    a = np.array(x, dtype=np.float64)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# topology masks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologyMask:
    """Allowed-transition structure of a chain.

    ``allowed1[i, j]`` is True when the one-step transition i -> j is
    permitted; ``allowed2[i, j, k] = allowed1[i, j] and allowed1[j, k]``
    is the induced set of permitted state triples, built on first use:
    only second-order chains read it, and it holds N**3 booleans.
    """

    n_states: int
    allowed1: np.ndarray
    kind: str                      # "ltr" | "circular" | "custom"
    skip_width: int | None = None

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        a1 = np.array(self.allowed1, dtype=bool)
        if a1.shape != (self.n_states, self.n_states):
            raise ValueError(
                f"allowed1 shape {a1.shape} != ({self.n_states}, {self.n_states})"
            )
        if not a1.any(axis=1).all():
            dead = int(np.flatnonzero(~a1.any(axis=1))[0])
            raise ValueError(f"state {dead} has no allowed successor")
        object.__setattr__(self, "allowed1", a1)

    @cached_property
    def allowed2(self) -> np.ndarray:
        return self.allowed1[:, :, None] & self.allowed1[None, :, :]


def ltr_topology(n_states: int, skip_width: int = _SKIP_WIDTH) -> TopologyMask:
    """Left-to-right mask: i -> j allowed iff 0 <= j - i <= skip_width.

    The last state keeps its self-loop, so every row has a successor.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if skip_width < 1:
        raise ValueError("skip_width must be >= 1")
    i, j = np.indices((n_states, n_states))
    a1 = (j >= i) & (j - i <= skip_width)
    return TopologyMask(n_states, a1, "ltr", skip_width)


def circular_topology(n_states: int) -> TopologyMask:
    """Ring mask: i -> j allowed iff j is i-1, i or i+1 modulo n_states."""
    if n_states < 3:
        raise ValueError("circular topology needs n_states >= 3")
    i, j = np.indices((n_states, n_states))
    d = (j - i) % n_states
    a1 = (d == 0) | (d == 1) | (d == n_states - 1)
    return TopologyMask(n_states, a1, "circular", None)


def custom_topology(allowed1) -> TopologyMask:
    """Mask with an explicit allowed set (for derived/embedded chains)."""
    a1 = np.array(allowed1, dtype=bool)
    if a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
        raise ValueError("allowed1 must be a square boolean matrix")
    return TopologyMask(a1.shape[0], a1, "custom", None)


# ---------------------------------------------------------------------------
# emissions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GmmEmission:
    """Diagonal-covariance Gaussian mixture over feature vectors.

    weights: (M,), means: (M, D), variances: (M, D). ``log_density`` returns
    the per-frame log of sum_m weights[m] * N(x; means[m], diag(variances[m]))
    for (T, D) frames, which it takes by the observation rule scoring applies.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    kind = "gmm"

    def __post_init__(self):
        w = _as_float_array(self.weights, "weights", 1)
        mu = _as_float_array(self.means, "means", 2)
        v = _as_float_array(self.variances, "variances", 2)
        if mu.shape != v.shape or mu.shape[0] != w.shape[0]:
            raise ValueError(
                f"inconsistent mixture shapes: weights {w.shape}, "
                f"means {mu.shape}, variances {v.shape}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", v)

    def __str__(self) -> str:
        return f"{self.kind} ({self.n_components} mixtures, {self.n_dims} dims)"

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def n_dims(self) -> int:
        return self.means.shape[1]

    def log_density(self, frames) -> np.ndarray:
        return _one_state(self, frames)[0][:, 0]

    def component_log_density(self, frames) -> np.ndarray:
        """(T, M) matrix of log(weights[m]) + log N(x; means[m], variances[m])."""
        return _one_state(self, frames)[1][:, 0]

    @staticmethod
    def _observations(x, utterance=None) -> np.ndarray:
        """``x`` as a (T, D) float64 matrix with D >= 1. A non-finite value
        raises ValueError naming its frame, and the utterance when one is
        given."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(_named(
                f"continuous observations must be (T, D), got shape {x.shape}", utterance
            ))
        if x.shape[1] == 0:
            raise ValueError(_named(
                "continuous observations have 0 coefficients per frame", utterance
            ))
        finite = np.isfinite(x)
        if not finite.all():
            frame = int(np.argwhere(~finite)[0][0])
            raise ValueError(f"non-finite feature value at {_where(frame, utterance)}")
        return x

    def _problems(self) -> list:
        """validate's findings on these parameters, without the state."""
        problems = _distribution_problems(self.weights, "mixture weights", "mixture weight")
        if (self.variances <= 0).any():
            m, d = np.argwhere(self.variances <= 0)[0]
            problems.append(f"variance[{m},{d}] = {self.variances[m, d]:.12g} is not positive")
        return problems

    @staticmethod
    def _kernel(x, weights, means, variances):
        """(T, K) log-densities of the (T, D) frames ``x`` under K states
        with (K, M) weights and (K, M, D) means and variances, and the
        (T, K, M) component log-densities whose log-sum-exp they are."""
        if x.shape[1] != means.shape[2]:
            raise ValueError(
                f"frames have dimension {x.shape[1]}, emission has {means.shape[2]}"
            )
        comp = _component_log_densities(x, weights, means, variances)
        return _logsumexp(comp), comp

    @staticmethod
    def _statistics(stacked, x, gamma, logb, comp):
        """One utterance's (N, M) component mass and (N, M, D) first and
        second moments for all states, from its (T, N) posteriors ``gamma``
        and the ``logb`` and ``comp`` that _kernel returned."""
        # A frame of about 1e154 or more that a component can still emit
        # overflows x * x, and its inf meets a 0 in the moments;
        # _variance_floor names the frame, so no warning here. A frame no
        # state emits gives -inf - -inf in the ratio, which it does not keep.
        with np.errstate(over="ignore", invalid="ignore"):
            alive = np.isfinite(logb)[:, :, None]
            ratio = np.where(alive, np.exp(comp - logb[:, :, None]), 0.0)
            # Each state's (T, M) block is contiguous, as a state's alone would be:
            # numpy sums a (T, 1) block pairwise, not frame by frame.
            by_state = np.ascontiguousarray((gamma[:, :, None] * ratio).transpose(1, 0, 2))
            resp = by_state.transpose(0, 2, 1)
            return by_state.sum(axis=1), resp @ x, resp @ (x * x)

    @staticmethod
    def _updated(stacked, stats, weight_floor, variance_floor):
        """Stacked parameters from summed _statistics: _floored mass as weights,
        posterior means and variances of components with mass, variances
        floored at ``variance_floor``. A state without mass keeps its rows."""
        weights, means, variances = stacked
        r, s1, s2 = stats
        has_mass, weights = _with_mass(weights, r, weight_floor)
        active = has_mass[:, None] & (r > 1e-300)
        mass = r[active][:, None]
        means, variances = means.copy(), variances.copy()
        means[active] = s1[active] / mass
        variances[active] = s2[active] / mass - means[active] ** 2
        variances[has_mass] = np.maximum(variances[has_mass], variance_floor)
        return weights, means, variances


def _floored(counts, floor):
    """``counts`` normalized along the last axis, floored and renormalized."""
    p = np.maximum(counts / counts.sum(axis=-1, keepdims=True), floor)
    return p / p.sum(axis=-1, keepdims=True)


def _with_mass(table, r, floor):
    """Which states of the (N, M) mass ``r`` have any, and ``table`` with
    their rows replaced by their _floored mass (the others keep their bits)."""
    has_mass = ~(r.sum(axis=1) <= 0.0)
    table = table.copy()
    table[has_mass] = _floored(r[has_mass], floor)
    return has_mass, table


def _distribution_problems(p, values, value) -> list:
    """An emission's findings on its distribution ``p`` (mixture weights,
    symbol probabilities): a sum off 1, a negative ``value``."""
    problems = []
    if abs(p.sum() - 1.0) > _SUM_TOL:
        problems.append(f"{values} sum to {p.sum():.12g}")
    if (p < 0).any():
        problems.append(f"has a negative {value}")
    return problems


def _component_log_densities(frames, weights, means, variances) -> np.ndarray:
    """(T, N, M) tensor of log(weights[n, m]) + log N(x_t; means[n, m],
    diag(variances[n, m])) for (T, D) frames and the stacked parameters of
    N states, in one broadcast.

    The squared, scaled differences are laid out dimension-major,
    (D, T, N, M), and summed as D contiguous (T, N, M) slabs by
    _pairwise_sum: each value gets the bits np.sum gives it over a
    contiguous last axis of D, in a few whole-slab additions rather than
    one run of numpy's inner loop per D-value row."""
    n_frames, n_dims = frames.shape
    diff = np.empty((n_dims, n_frames) + weights.shape)
    np.subtract(frames.T[:, :, None, None], means.transpose(2, 0, 1)[:, None], out=diff)
    with np.errstate(over="ignore"):   # a far-off frame's density is 0, not an error
        diff *= diff
        diff /= variances.transpose(2, 0, 1)[:, None]
        quad = _pairwise_sum(diff)
    const = -0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=2)
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    return logw[None] + const[None] - 0.5 * quad


def _pairwise_sum(slabs, first=0.0) -> np.ndarray:
    """The sum of the slabs along the leading axis of ``slabs``, each value
    with the bits np.add.reduce gives it over a contiguous axis of n values.

    That reduction is numpy's pairwise summation, here taken slab by slab:
    below 8 slabs, one after another; up to 128, eight running sums over
    every eighth slab, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), then the leftover slabs one after another; above 128, the
    halves split at n/2 rounded down to a multiple of 8, each summed the
    same way. numpy adds the result to the reduction's initial 0.0, which
    only turns a sum of -0.0s into 0.0; ``first`` is added to the first
    slab instead, with the same effect (the second half passes -0.0, which
    adds nothing). A plain loop over the slabs, or a reduction over a
    leading axis (numpy adds those row by row), changes the bits from 8
    slabs on.
    """
    n = len(slabs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(slabs[:half], first) + _pairwise_sum(slabs[half:], -0.0)
    if n < 8:
        total = slabs[0] + first
        for slab in slabs[1:]:
            total += slab
        return total
    runs = slabs[:8] + slabs[8:16] if n >= 16 else slabs[:8]
    for i in range(16, n - n % 8, 8):
        runs += slabs[i:i + 8]
    total = runs[0] + first
    total += runs[1]
    total += runs[2] + runs[3]
    high = runs[4] + runs[5]
    high += runs[6] + runs[7]
    total += high
    for slab in slabs[n - n % 8:]:
        total += slab
    return total


def _logsumexp(a) -> np.ndarray:
    """log(sum(exp(a))) over the last (non-empty) axis.

    The arithmetic is that of scipy.special.logsumexp (scipy 1.17), so the
    bits are the same, without its per-call array-API dispatch: the maximum
    is split out of the sum and its ties counted, the rest is summed
    relative to it and added through log1p. Where that result is not finite
    (a row of -inf, a +inf or nan entry, overflow) the row takes
    log(sum(exp(a))) instead. The reductions over the last axis run over
    its slabs a[..., m] at once, the maximum by np.maximum and the sums by
    _pairwise_sum, with the bits of np.max and np.sum along that axis.
    """
    # contiguous slabs; the kept last axis makes ``out`` an array for a 1-D a
    slabs = np.ascontiguousarray(np.moveaxis(a, -1, 0))[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = reduce(np.maximum, slabs)
        at_top = slabs == top
        ties = _pairwise_sum(at_top.astype(np.float64))
        # the maximum's entries add 0, as exp(-inf) would, without the slow
        # path numpy's exp takes on -inf; a row whose top is not finite
        # takes the fallback either way
        rest = _pairwise_sum(np.where(at_top, 0.0, np.exp(slabs - top)))
        rest = np.where(rest == 0, rest, rest / ties)
        out = (np.log1p(rest) + np.log(ties) + top)[..., 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=-1))
    return out


@dataclass(frozen=True)
class DiscreteEmission:
    """Probability table over a finite symbol alphabet. probs: (M,)."""

    probs: np.ndarray

    kind = "discrete"

    def __post_init__(self):
        p = _as_float_array(self.probs, "probs", 1)
        object.__setattr__(self, "probs", p)

    def __str__(self) -> str:
        return f"{self.kind} ({self.n_symbols} symbols)"

    @classmethod
    def _placeholder(cls, n_symbols):
        """Equal probabilities."""
        return cls(np.full(n_symbols, 1.0 / n_symbols))

    @property
    def n_symbols(self) -> int:
        return self.probs.shape[0]

    def log_density(self, symbols) -> np.ndarray:
        return _one_state(self, symbols)[0][:, 0]

    @staticmethod
    def _observations(x, utterance=None) -> np.ndarray:
        """``x`` as int64 symbols. A float sequence qualifies only when every
        value is an integer; the first that is not (NaN, inf, 1.5) raises
        ValueError naming its frame, and the utterance when one is given."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError(
                _named("discrete observations must be a 1-D symbol sequence", utterance)
            )
        if np.issubdtype(x.dtype, np.floating):
            whole = np.isfinite(x) & (x == np.trunc(x))
            if not whole.all():
                at = int(np.argwhere(~whole)[0][0])
                raise ValueError(f"non-integer symbol {x[at]} at {_where(at, utterance)}")
        return x.astype(np.int64, copy=False)

    def _problems(self) -> list:
        """validate's findings on this table, without the state."""
        return _distribution_problems(self.probs, "symbol probabilities", "symbol probability")

    @staticmethod
    def _kernel(x, probs):
        """(T, K) log-probabilities of the symbols ``x`` under the (K, M)
        tables ``probs``; a symbol table has no components (None)."""
        m = probs.shape[1]
        if x.size and (x.min() < 0 or x.max() >= m):
            raise ValueError(f"symbol out of range [0, {m}): min {x.min()}, max {x.max()}")
        with np.errstate(divide="ignore"):
            return np.log(probs.T[x]), None

    @staticmethod
    def _statistics(stacked, x, gamma, logb, comp):
        """One utterance's (N, M) mass per state and symbol from its (T, N)
        posteriors ``gamma``: one bincount, each bin adding in frame order."""
        n, m = stacked[0].shape
        mass = np.bincount((x[:, None] * n + np.arange(n)).ravel(), weights=gamma.ravel(), minlength=m * n)
        return (np.ascontiguousarray(mass.reshape(m, n).T),)

    @staticmethod
    def _updated(stacked, stats, weight_floor, variance_floor):
        """The (N, M) tables re-estimated as _floored mass; a state without
        mass keeps its row."""
        return (_with_mass(stacked[0], stats[0], weight_floor)[1],)


def _one_state(emission, x):
    """The emission kind's _kernel on ``x`` under this one state, after its
    _observations rule: the rule scoring and training apply."""
    stacked = (getattr(emission, name)[None] for name in _parameter_names(emission))
    return emission._kernel(emission._observations(x), *stacked)


# The emission kinds by name (a model file's "emission_type").
_EMISSION_KINDS = {kind.kind: kind for kind in (GmmEmission, DiscreteEmission)}


def _parameter_names(emission) -> tuple:
    """The parameter fields of an emission kind (its dataclass fields)."""
    return tuple(f.name for f in fields(emission))


def _check_emissions(emissions, n_states):
    ems = tuple(emissions)
    if len(ems) != n_states:
        raise ValueError(f"need {n_states} emissions, got {len(ems)}")
    if len({type(e) for e in ems}) > 1:
        raise ValueError("all states must share one emission type")
    shapes = {tuple(getattr(e, name).shape for name in _parameter_names(e)) for e in ems}
    if len(shapes) > 1:
        raise ValueError(f"all {ems[0].kind} emissions must share their parameter shapes")
    return ems


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class _Chain:
    """What both model orders share: array conversion and shape checks
    driven by _TRANSITION_FIELDS, and the state count."""

    def __post_init__(self):
        n = self.mask.n_states
        names = ("initial",) + _TRANSITION_FIELDS[self.order]
        arrays = [
            _as_float_array(getattr(self, name), name, rank)
            for rank, name in enumerate(names, start=1)
        ]
        for name, a in zip(names, arrays):
            if a.shape != (n,) * a.ndim:
                raise ValueError(f"{name} shape {a.shape} != {(n,) * a.ndim}")
            object.__setattr__(self, name, a)
        object.__setattr__(self, "emissions", _check_emissions(self.emissions, n))

    @property
    def n_states(self) -> int:
        return self.mask.n_states

    @cached_property
    def _emission_parameters(self):
        """The emissions' parameter fields, each stacked over states: (N, M)
        weights and (N, M, D) means and variances, or (N, M) probs. Built
        on first use and kept (models are immutable)."""
        return tuple(
            np.stack([getattr(e, name) for e in self.emissions])
            for name in _parameter_names(self.emissions[0])
        )


@dataclass(frozen=True)
class Hmm1Model(_Chain):
    """First-order chain: initial (N,), trans (N, N), one emission per state."""

    mask: TopologyMask
    initial: np.ndarray
    trans: np.ndarray
    emissions: tuple

    order = 1


@dataclass(frozen=True)
class Hmm2Model(_Chain):
    """Second-order chain.

    ``trans1`` carries the transition out of the first frame; ``trans2`` is
    the (N, N, N) tensor of triple transitions; rows over the last axis are
    stochastic for every allowed (i, j) pair and identically zero elsewhere.
    """

    mask: TopologyMask
    initial: np.ndarray
    trans1: np.ndarray
    trans2: np.ndarray
    emissions: tuple

    order = 2


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _check_rows(name, matrix, allowed, problems):
    """Row sums (over the last axis, for rows with an allowed entry),
    nonnegativity and mask compliance of one transition array."""
    sums = matrix.sum(axis=-1)
    off = (np.abs(sums - 1.0) > _SUM_TOL) & allowed.any(axis=-1)
    for row in map(tuple, np.argwhere(off)):
        problems.append(
            f"{name}[{_index(row)},:] sums to {sums[row]:.12g} "
            f"(off by {sums[row] - 1.0:.3g})"
        )
    if (matrix < 0).any():
        at = tuple(np.argwhere(matrix < 0)[0])
        problems.append(f"{name}[{_index(at)}] = {matrix[at]:.12g} is negative")
    for at in map(tuple, np.argwhere((matrix != 0.0) & ~allowed)):
        problems.append(
            f"{name}[{_index(at)}] = {matrix[at]:.12g} "
            f"but the topology forbids ({_index(at)})"
        )


def _index(at) -> str:
    return ",".join(str(i) for i in at)


def _transitions(model):
    """(name, array, allowed mask) for each transition array of ``model``."""
    return [
        (name, getattr(model, name), getattr(model.mask, f"allowed{k + 1}"))
        for k, name in enumerate(_TRANSITION_FIELDS[model.order])
    ]


def _check_finite(name, array, problems):
    """Add the first non-finite entry of one parameter array, if it has
    one, to ``problems``."""
    bad = np.argwhere(~np.isfinite(array))
    if len(bad):
        at = tuple(bad[0])
        problems.append(f"{name}[{_index(at)}] = {array[at]} is not finite")


def validate(model) -> list[str]:
    """Return a list of constraint violations (empty means valid).

    Checks that every parameter is finite, probability normalization,
    nonnegativity, topology-mask compliance and emission parameter sanity.
    Reported indices are 0-based.
    """
    problems: list[str] = []
    init = model.initial
    _check_finite("initial", init, problems)
    for name, matrix, _ in _transitions(model):
        _check_finite(name, matrix, problems)
    for s, e in enumerate(model.emissions):
        for name in _parameter_names(e):
            _check_finite(f"state {s} {name}", getattr(e, name), problems)

    if (init < 0).any():
        problems.append("initial distribution has negative entries")
    if abs(init.sum() - 1.0) > _SUM_TOL:
        problems.append(
            f"initial distribution sums to {init.sum():.12g} "
            f"(off by {init.sum() - 1.0:.3g})"
        )

    for name, matrix, allowed in _transitions(model):
        _check_rows(name, matrix, allowed, problems)

    for s, e in enumerate(model.emissions):
        problems.extend(f"state {s} {problem}" for problem in e._problems())
    return problems


def symmetrize_ring_transitions(model):
    """Project a circular model's pairwise transitions onto symmetry.

    Averages the transition matrix with its transpose on the allowed set,
    then renormalizes rows (the renormalization is what keeps rows
    stochastic, and it can leave a small residual asymmetry when row masses
    differ). First-order models project ``trans``; second-order models
    project ``trans1`` only. Off by default everywhere; apply explicitly.
    """
    if model.mask.kind != "circular":
        raise ValueError("symmetrization applies to circular models only")
    name = _TRANSITION_FIELDS[model.order][0]
    a = getattr(model, name)
    s = 0.5 * (a + a.T)
    s = np.where(model.mask.allowed1, s, 0.0)
    s = s / s.sum(axis=1, keepdims=True)
    return replace(model, **{name: s})


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
#
# Model files are JSON (UTF-8) with this layout:
#
#   {
#     "format": "hmmsid-model",
#     "format_version": 1,
#     "state_indexing": "0-based",
#     "order": 1 | 2,
#     "topology": {"kind": "ltr"|"circular"|"custom", "n_states": N,
#                  "skip_width": int|null, "allowed1": [[0/1,..],..] only for custom},
#     "emission_type": "gmm" | "discrete",
#     "initial": [...],
#     "trans": [[...]]                      (order 1)
#     "trans1": [[...]], "trans2": [[[...]]] (order 2)
#     "emissions": [{"weights": [...], "means": [[...]], "variances": [[...]]} ...]
#                  or [{"probs": [...]} ...]
#     "training": {...} | null      free-form metadata (iterations, final
#                                   log-likelihood, seed, config hash, ...)
#   }
#
# Floats are written with Python's shortest round-trip repr, so a load of a
# save reproduces every value bit for bit.

FORMAT_NAME = "hmmsid-model"
FORMAT_VERSION = 1


def _topology_to_dict(mask: TopologyMask) -> dict:
    d = {"kind": mask.kind, "n_states": mask.n_states, "skip_width": mask.skip_width}
    if mask.kind == "custom":
        d["allowed1"] = mask.allowed1.astype(int).tolist()
    return d


def _topology_from_dict(d: dict, n_initial: int) -> TopologyMask:
    """The mask of a model file's ``topology`` object. Its state count is
    checked against ``n_initial``, the length of the file's initial
    distribution, before any (N, N) grid is built from it."""
    n = d["n_states"]
    if type(n) is not int or n < 1:
        raise ValueError(f"topology n_states {n!r} is not a positive integer")
    if n != n_initial:
        raise ValueError(f"topology n_states {n} != {n_initial}, the length of initial")
    kind = d["kind"]
    if kind == "ltr":
        return ltr_topology(n, d["skip_width"])
    if kind == "circular":
        return circular_topology(n)
    if kind == "custom":
        return custom_topology(np.array(d["allowed1"], dtype=bool))
    raise ValueError(f"unknown topology kind {kind!r}")


def model_to_dict(model, training: dict | None = None) -> dict:
    d = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "state_indexing": "0-based",
        "order": model.order,
        "topology": _topology_to_dict(model.mask),
        "emission_type": model.emissions[0].kind,
        "initial": model.initial.tolist(),
        "emissions": [
            {name: getattr(e, name).tolist() for name in _parameter_names(e)}
            for e in model.emissions
        ],
        "training": training,
    }
    for name in _TRANSITION_FIELDS[model.order]:
        d[name] = getattr(model, name).tolist()
    return d


def _json_object(value, what) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not a JSON object")
    return value


def model_from_dict(d: dict):
    """Rebuild a model from model_to_dict's layout. A missing key, an
    unknown kind or a value of the wrong JSON type raises ValueError."""
    if d.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file")
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {d.get('format_version')!r}")
    if d.get("training") is not None:
        _json_object(d["training"], "training")
    try:
        topology = _json_object(d["topology"], "topology")
        kind = _EMISSION_KINDS.get(d["emission_type"])
        if kind is None:
            raise ValueError(f"unknown emission_type {d['emission_type']!r}")
        ems = tuple(
            kind(*(_json_object(e, f"emissions[{s}]")[name] for name in _parameter_names(kind)))
            for s, e in enumerate(d["emissions"])
        )
        order = d["order"]
        if order not in (1, 2):
            raise ValueError(f"unsupported order {order!r}")
        cls = Hmm1Model if order == 1 else Hmm2Model
        trans = [d[name] for name in _TRANSITION_FIELDS[order]]
        mask = _topology_from_dict(topology, len(d["initial"]))
        return cls(mask, d["initial"], *trans, ems)
    except KeyError as exc:
        raise ValueError(f"model has no {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise ValueError(f"a value has the wrong JSON type: {exc}") from None


def save_model(model, path, training: dict | None = None) -> None:
    """Write a model (plus optional training metadata) to ``path``.

    The write is atomic (temp file + rename) and deterministic: the same
    model always produces the same bytes.
    """
    write_json(path, model_to_dict(model, training))


def load_model(path):
    """Read a model file. Returns (model, header_dict). A malformed file
    raises ValueError naming the file."""
    d = read_json_object(path)
    try:
        return model_from_dict(d), d
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
