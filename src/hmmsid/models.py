"""Model types: topologies, emissions, first- and second-order chains.

Conventions
-----------
States are indexed 0-based everywhere in code and in serialized files (the
file header records this). A first-order model is (initial, trans, emissions)
with ``trans[i, j] = P(state j at t | state i at t-1)``. A second-order model
adds ``trans2[i, j, k] = P(state k at t | state j at t-1, state i at t-2)``;
its ``trans1`` matrix drives the single transition out of the first frame.
Emission densities depend on the current state only.

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

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .fileio import atomic_write, read_json_object

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
    is the induced set of permitted state triples.
    """

    n_states: int
    allowed1: np.ndarray
    kind: str                      # "ltr" | "circular" | "custom"
    skip_width: int | None = None
    allowed2: np.ndarray = field(init=False)

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
        object.__setattr__(
            self, "allowed2", a1[:, :, None] & a1[None, :, :]
        )


def ltr_topology(n_states: int, skip_width: int = 2) -> TopologyMask:
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
    the per-frame log of sum_m weights[m] * N(x; means[m], diag(variances[m])).
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

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

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def n_dims(self) -> int:
        return self.means.shape[1]

    def log_density(self, frames) -> np.ndarray:
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim == 1:
            frames = frames[None, :]
        if frames.shape[1] != self.n_dims:
            raise ValueError(
                f"frames have dimension {frames.shape[1]}, emission has {self.n_dims}"
            )
        return _logsumexp(self.component_log_density(frames))

    def component_log_density(self, frames) -> np.ndarray:
        """(T, M) matrix of log(weights[m]) + log N(x; means[m], variances[m])."""
        frames = np.asarray(frames, dtype=np.float64)
        return _component_log_densities(
            frames, self.weights[None], self.means[None], self.variances[None]
        )[:, 0]


def _component_log_densities(frames, weights, means, variances) -> np.ndarray:
    """(T, N, M) tensor of log(weights[n, m]) + log N(x_t; means[n, m],
    diag(variances[n, m])) for (T, D) frames and the stacked parameters of
    N states, in one broadcast."""
    diff = frames[:, None, None, :] - means[None]
    diff *= diff
    diff /= variances[None]
    quad = np.sum(diff, axis=3)
    const = -0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=2)
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    return logw[None] + const[None] - 0.5 * quad


def _logsumexp(a) -> np.ndarray:
    """log(sum(exp(a))) over the last (non-empty) axis.

    The arithmetic is that of scipy.special.logsumexp (scipy 1.17), so the
    bits are the same, without its per-call array-API dispatch: the maximum
    is split out of the sum and its ties counted, the rest is summed
    relative to it and added through log1p. Where that result is not finite
    (a row of -inf, a +inf or nan entry, overflow) the row takes
    log(sum(exp(a))) instead.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=-1, keepdims=True)
        at_top = a == top
        ties = np.sum(at_top, axis=-1, keepdims=True, dtype=np.float64)
        rest = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), axis=-1, keepdims=True)
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

    def __post_init__(self):
        p = _as_float_array(self.probs, "probs", 1)
        object.__setattr__(self, "probs", p)

    @property
    def n_symbols(self) -> int:
        return self.probs.shape[0]

    def log_density(self, symbols) -> np.ndarray:
        sym = np.asarray(symbols)
        if sym.ndim != 1:
            raise ValueError("symbol sequence must be 1-dimensional")
        if not np.issubdtype(sym.dtype, np.integer):
            raise ValueError("discrete emissions need integer symbols")
        if sym.size and (sym.min() < 0 or sym.max() >= self.n_symbols):
            raise ValueError(
                f"symbol out of range [0, {self.n_symbols}): "
                f"min {sym.min()}, max {sym.max()}"
            )
        with np.errstate(divide="ignore"):
            return np.log(self.probs[sym])


def _check_emissions(emissions, n_states):
    ems = tuple(emissions)
    if len(ems) != n_states:
        raise ValueError(f"need {n_states} emissions, got {len(ems)}")
    first = ems[0]
    for e in ems:
        if type(e) is not type(first):
            raise ValueError("all states must share one emission type")
        if isinstance(e, GmmEmission):
            if (e.n_components, e.n_dims) != (first.n_components, first.n_dims):
                raise ValueError("all GMM emissions must share (M, D)")
        else:
            if e.n_symbols != first.n_symbols:
                raise ValueError("all discrete emissions must share alphabet size")
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
    def _gmm_parameters(self):
        """Stacked (N, M) weights and (N, M, D) means and variances of the
        GMM emissions, built on first use and kept (models are immutable)."""
        return tuple(
            np.stack([getattr(e, name) for e in self.emissions])
            for name in ("weights", "means", "variances")
        )

    @cached_property
    def _stack(self):
        """This model as a one-model _ModelStack, built on first use."""
        return _ModelStack((self,))


def _stack_key(model):
    """What models must share to be stacked: order, state count and the
    emission kind and shape."""
    e = model.emissions[0]
    shape = (e.n_components, e.n_dims) if isinstance(e, GmmEmission) else (e.n_symbols,)
    return model.order, model.n_states, type(e), shape


class _ModelStack:
    """S models with one _stack_key, their parameters stacked along a
    leading model axis: ``initial`` (S, N), each transition array of
    _TRANSITION_FIELDS (S, N, ...), and ``emissions``, the S·N state
    emissions model by model. For GMM emissions ``_gmm_parameters`` are
    the (S·N, M) weights and (S·N, M, D) means and variances."""

    def __init__(self, models):
        first = models[0]
        self.order = first.order
        self.n_states = first.n_states
        self.n_models = len(models)
        self.emissions = tuple(e for m in models for e in m.emissions)
        for name in ("initial",) + _TRANSITION_FIELDS[self.order]:
            setattr(self, name, _stacked([getattr(m, name)[None] for m in models]))
        if isinstance(first.emissions[0], GmmEmission):
            self._gmm_parameters = tuple(
                map(_stacked, zip(*(m._gmm_parameters for m in models)))
            )


def _stacked(arrays):
    """The arrays joined along their first axis; one array is returned as
    it is (a one-model stack views its model's arrays)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


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
    masks = (model.mask.allowed1, model.mask.allowed2)
    return [
        (name, getattr(model, name), masks[k])
        for k, name in enumerate(_TRANSITION_FIELDS[model.order])
    ]


def validate(model) -> list[str]:
    """Return a list of constraint violations (empty means valid).

    Checks probability normalization, nonnegativity, topology-mask
    compliance and emission parameter sanity. Reported indices are 0-based.
    """
    problems: list[str] = []
    init = model.initial

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
        if isinstance(e, GmmEmission):
            if abs(e.weights.sum() - 1.0) > _SUM_TOL:
                problems.append(
                    f"state {s} mixture weights sum to {e.weights.sum():.12g}"
                )
            if (e.weights < 0).any():
                problems.append(f"state {s} has a negative mixture weight")
            if (e.variances <= 0).any():
                m, d = np.argwhere(e.variances <= 0)[0]
                problems.append(
                    f"state {s} variance[{m},{d}] = {e.variances[m, d]:.12g} is not positive"
                )
        else:
            if abs(e.probs.sum() - 1.0) > _SUM_TOL:
                problems.append(
                    f"state {s} symbol probabilities sum to {e.probs.sum():.12g}"
                )
            if (e.probs < 0).any():
                problems.append(f"state {s} has a negative symbol probability")

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


def _topology_from_dict(d: dict) -> TopologyMask:
    kind = d["kind"]
    if kind == "ltr":
        return ltr_topology(d["n_states"], d["skip_width"])
    if kind == "circular":
        return circular_topology(d["n_states"])
    if kind == "custom":
        return custom_topology(np.array(d["allowed1"], dtype=bool))
    raise ValueError(f"unknown topology kind {kind!r}")


def model_to_dict(model, training: dict | None = None) -> dict:
    ems = []
    if isinstance(model.emissions[0], GmmEmission):
        etype = "gmm"
        for e in model.emissions:
            ems.append({
                "weights": e.weights.tolist(),
                "means": e.means.tolist(),
                "variances": e.variances.tolist(),
            })
    else:
        etype = "discrete"
        for e in model.emissions:
            ems.append({"probs": e.probs.tolist()})
    d = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "state_indexing": "0-based",
        "order": model.order,
        "topology": _topology_to_dict(model.mask),
        "emission_type": etype,
        "initial": model.initial.tolist(),
        "emissions": ems,
        "training": training,
    }
    for name in _TRANSITION_FIELDS[model.order]:
        d[name] = getattr(model, name).tolist()
    return d


def model_from_dict(d: dict):
    """Rebuild a model from model_to_dict's layout. A missing key raises
    ValueError naming the key."""
    if d.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file")
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {d.get('format_version')!r}")
    try:
        mask = _topology_from_dict(d["topology"])
        if d["emission_type"] == "gmm":
            ems = tuple(
                GmmEmission(e["weights"], e["means"], e["variances"])
                for e in d["emissions"]
            )
        else:
            ems = tuple(DiscreteEmission(e["probs"]) for e in d["emissions"])
        order = d["order"]
        if order not in (1, 2):
            raise ValueError(f"unsupported order {order!r}")
        cls = Hmm1Model if order == 1 else Hmm2Model
        trans = [d[name] for name in _TRANSITION_FIELDS[order]]
        return cls(mask, d["initial"], *trans, ems)
    except KeyError as exc:
        raise ValueError(f"model has no {exc.args[0]!r} key") from None


def save_model(model, path, training: dict | None = None) -> None:
    """Write a model (plus optional training metadata) to ``path``.

    The write is atomic (temp file + rename) and deterministic: the same
    model always produces the same bytes.
    """
    text = json.dumps(model_to_dict(model, training), indent=1, sort_keys=True)
    atomic_write(path, text + "\n")


def load_model(path):
    """Read a model file. Returns (model, header_dict). A malformed file
    raises ValueError naming the file."""
    d = read_json_object(path)
    try:
        return model_from_dict(d), d
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
