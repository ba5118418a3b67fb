"""Starting chains and Baum-Welch reestimation for both model orders.

Reestimation uses the classical posterior ratios assembled from the scaled
lattices (per-slice normalization makes every posterior exact, so the total
training log-likelihood is non-decreasing across iterations up to floor
projections). Topology zeros are preserved exactly: a forbidden transition
contributes an exact zero to every accumulator and stays zero forever.

Each E-step runs the model's utterances as the rows of one pass
(inference._RowPass): one emission-kernel call on their concatenated
frames, one forward and one backward pass on one time axis over the
compact slice layout, then each row's posteriors from the pass
(_RowPass.posteriors), which alone reads that layout. Posteriors and the
emission kind's statistics (all states at once) are added in utterance
order, so every total is bitwise what running the utterances one at a
time on the whole (T, N, N) tables gives. When utterances fail, the
first of them raises the error it raises on its own, naming the
utterance; an utterance whose posteriors are lost at a frame is named
from the normalizers the posteriors keep. The M-step keeps a model's zero
pattern, and so its layout, from its first update on.

Conventions applied here:

* every variant starts from one chain (_uniform_init): transition rows
  uniform over the allowed successors (for order 2, over the allowed
  triples), initial e_0 for left-to-right models and uniform for circular
  ones;
* left-to-right models keep their initial distribution fixed at e_0;
  circular models reestimate it from the first-frame posterior;
* the order-2 tensor update normalizes the triple posterior
  eta_t(i,j,k) over successor states k for every allowed (i,j);
* the order-2 pairwise matrix ``trans1`` is reestimated from the pair
  posterior of the first transition only (that is the only place it acts);
* rows that receive no posterior mass keep their previous values (those
  parameters never touched the likelihood);
* the variance floor is relative, floor_d = variance_floor * global
  per-dimension variance of the training frames (1e-12 absolute backstop);
* segmental k-means provides Gaussian-mixture starting points only, all
  reestimation is Baum-Welch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UtteranceTooShortError, _named, _where
from .inference import _ModelStack, _RowPass, _utterance
from .models import (
    _EMISSION_KINDS,
    GmmEmission,
    Hmm1Model,
    Hmm2Model,
    _floored,
    _transitions,
    circular_topology,
    ltr_topology,
    symmetrize_ring_transitions,
)

__all__ = [
    "TrainConfig",
    "TrainReport",
    "VariantSpec",
    "segmental_kmeans_init",
    "baum_welch1",
    "baum_welch2",
    "train",
]


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for Baum-Welch.

    ``variance_floor`` is relative to the global per-dimension variance of
    the training frames; the other floors are absolute probabilities.
    ``seed`` drives k-means initialization only (reestimation itself is
    deterministic).
    """

    max_iterations: int = 100
    rel_tol: float = 1e-6
    variance_floor: float = 1e-4
    mixture_weight_floor: float = 1e-6
    transition_floor: float = 1e-8
    seed: int = 0
    symmetrize: bool = False

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        for name in ("variance_floor", "mixture_weight_floor", "transition_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class TrainReport:
    """Result of a training run.

    ``log_likelihoods[k]`` is the total log-likelihood of the model
    entering iteration k (before that iteration's update). When the run
    stops on convergence the returned model is the one that achieved
    ``log_likelihoods[-1]``; when it stops on max_iterations the model
    carries one further update whose likelihood was not evaluated.
    """

    model: object
    log_likelihoods: list
    converged: bool
    n_utterances: int

    @property
    def iterations_run(self) -> int:
        return len(self.log_likelihoods)

    @property
    def final_log_likelihood(self) -> float:
        return self.log_likelihoods[-1]

    def training_metadata(self, **extra) -> dict:
        return {
            "iterations": self.iterations_run,
            "final_log_likelihood": self.final_log_likelihood,
            "converged": self.converged,
            "n_utterances": self.n_utterances,
            **extra,
        }


@dataclass(frozen=True)
class VariantSpec:
    """Which model family to train.

    ``n_mixtures`` is the Gaussian component count, or the symbol-alphabet
    size when ``emission == "discrete"``.
    """

    order: int = 1
    topology: str = "ltr"          # "ltr" | "circular"
    n_states: int = 5
    n_mixtures: int = 5
    skip_width: int = 2
    emission: str = "gmm"          # "gmm" | "discrete"

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.topology not in ("ltr", "circular"):
            raise ValueError("topology must be 'ltr' or 'circular'")
        if self.emission not in _EMISSION_KINDS:
            raise ValueError("emission must be 'gmm' or 'discrete'")
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        if self.topology == "circular" and self.n_states < 3:
            raise ValueError("circular topology needs n_states >= 3")
        if self.n_mixtures < 1:
            raise ValueError("n_mixtures must be >= 1")
        if self.skip_width < 1:
            raise ValueError("skip_width must be >= 1")

    @property
    def label(self) -> str:
        return ("ltr" if self.topology == "ltr" else "circ") + str(self.order)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _uniform_init(variant: VariantSpec, emissions):
    """The variant's starting chain (see the module's conventions) with
    the per-state ``emissions``."""
    n = variant.n_states
    if variant.topology == "circular":
        mask = circular_topology(n)
        initial = np.full(n, 1.0 / n)
    else:
        mask = ltr_topology(n, variant.skip_width)
        initial = np.zeros(n)
        initial[0] = 1.0
    counts = mask.allowed1.sum(axis=1)
    trans1 = mask.allowed1 / counts[:, None]
    if variant.order == 1:
        return Hmm1Model(mask, initial, trans1, emissions)
    return Hmm2Model(mask, initial, trans1, mask.allowed2 / counts[None, :, None], emissions)


def _squared_distances(data, centers):
    """(n, k) squared distances, summed one dimension at a time in order."""
    d2 = np.zeros((data.shape[0], centers.shape[0]))
    for j in range(data.shape[1]):
        diff = data[:, j, None] - centers[None, :, j]
        d2 += diff * diff
    return d2


def _nearest(data, centers):
    """Each row's nearest center, the first of equal distances.

    The distances are those scipy 1.17's ``vq`` compares: below five
    dimensions _squared_distances, from five on ``-2 x.c + |x|^2 + |c|^2``
    added in that order, with the products from one matrix product (``vq``
    calls BLAS ``dgemm``) and the squared norms summed in order.
    """
    if data.shape[1] < 5:
        return _squared_distances(data, centers).argmin(axis=1)
    origin = np.zeros((1, data.shape[1]))
    d2 = -2.0 * (data @ centers.T) + _squared_distances(data, origin)
    return (d2 + _squared_distances(centers, origin)[:, 0]).argmin(axis=1)


@np.errstate(over="ignore", invalid="ignore")   # as quiet as scipy's C loops
def _kmeans(data, k, rng):
    """(centers, labels) of k-means on the (n, D) rows, n >= k >= 1.

    The start is k-means++ (Arthur & Vassilvitskii, "k-means++: the
    advantages of careful seeding", SODA 2007): the first center is a
    uniformly drawn row, each later one a row drawn with probability
    proportional to its squared distance to the nearest center so far.
    Each of up to 20 iterations labels every row with its nearest center
    (_nearest) and moves every center to the mean of its rows, summed in
    row order; a center without rows stays. Once a labelling repeats, the
    update gives the same centers again, so every later iteration is a
    fixed point and the loop stops there. The draws, sums and order of
    operations are those of scipy 1.17's ``kmeans2(data, k, iter=20,
    minit="++")``, so the centers, the labels and the generator's state
    afterwards are bitwise what that call gives.
    """
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(data.shape[0])]
    d2 = _squared_distances(data, centers[:1])[:, 0]
    for i in range(1, k):
        cumulative = np.cumsum(d2 / d2.sum())   # 0/0 when every row is a center
        centers[i] = data[np.searchsorted(cumulative, rng.uniform())]
        d2 = np.minimum(d2, _squared_distances(data, centers[i:i + 1])[:, 0])
    labels = None
    for _ in range(20):
        new_labels = _nearest(data, centers)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        sums = np.stack([np.bincount(labels, data[:, j], k) for j in range(data.shape[1])], axis=1)
        centers[filled] = sums[filled] / counts[filled, None]
    return centers, labels


def segmental_kmeans_init(
    obs_set,
    n_states: int,
    n_mixtures: int,
    seed: int = TrainConfig.seed,
    variance_floor: float = TrainConfig.variance_floor,
    weight_floor: float = TrainConfig.mixture_weight_floor,
):
    """Gaussian-mixture starting points from equal contiguous segments.

    Every utterance is cut into n_states contiguous segments of (near)
    equal length, remainder frames going to the later segments; segment i
    pools across utterances and is clustered into n_mixtures centers by
    k-means from a k-means++ start (_kmeans), all segments drawing from
    one generator seeded with ``seed``. k-means stops at the first
    labelling that repeats, since every later iteration is a fixed point.
    Mixture weights are proportional to cluster sizes, variances are
    per-dimension cluster variances; both are floored. Returns a list of
    GmmEmission, one per state.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if n_mixtures < 1:
        raise ValueError("n_mixtures must be >= 1")
    obs_list = _prepared(obs_set, GmmEmission)
    for x, name in obs_list:
        if x.shape[0] < n_states:
            raise UtteranceTooShortError(x.shape[0], n_states, utterance=name)
    frames_list = [x for x, _ in obs_list]
    n_dims = frames_list[0].shape[1]
    _check_dimensions(obs_list, n_dims, f"utterance {obs_list[0][1]!r}")
    floor_d, gvar = _variance_floor(obs_list, variance_floor)
    fallback_var = np.maximum(gvar, floor_d)

    segments = [[] for _ in range(n_states)]
    for x in frames_list:
        t = x.shape[0]
        base, extra = divmod(t, n_states)
        lengths = [base] * (n_states - extra) + [base + 1] * extra
        pos = 0
        for i, ln in enumerate(lengths):
            segments[i].append(x[pos:pos + ln])
            pos += ln

    rng = np.random.default_rng(seed)
    emissions = []
    for i in range(n_states):
        data = np.concatenate(segments[i], axis=0)
        m = n_mixtures
        if data.shape[0] < m:
            centers = np.tile(data.mean(axis=0), (m, 1))
            centers[: data.shape[0]] = data
            counts = np.zeros(m)
            counts[: data.shape[0]] = 1.0
            labels = np.arange(data.shape[0])
        else:
            centers, labels = _kmeans(data, m, rng)
            counts = np.bincount(labels, minlength=m).astype(np.float64)
        weights = _floored(counts, weight_floor)
        variances = np.empty((m, n_dims))
        for c in range(m):
            members = data[labels == c]
            if members.shape[0] >= 1:
                variances[c] = members.var(axis=0)
            else:
                variances[c] = fallback_var
        variances = np.maximum(variances, floor_d[None, :])
        emissions.append(GmmEmission(weights, centers, variances))
    return emissions


# ---------------------------------------------------------------------------
# shared reestimation pieces
# ---------------------------------------------------------------------------

def _reestimate(old, counts, allowed, floor):
    """Transition update: rows (all axes but the last) that received
    posterior mass take their counts, the others keep ``old``; then every
    allowed entry is floored and rows are renormalized."""
    values = old.copy()
    has_data = counts.sum(axis=-1) > 0.0
    values[has_data] = counts[has_data]
    v = np.where(allowed, np.maximum(values, floor), 0.0)
    s = v.sum(axis=-1, keepdims=True)
    return np.divide(v, s, out=np.zeros_like(v), where=s > 0)


def _check_dimensions(obs_list, n_dims, what):
    """Raise ValueError naming the first utterance of ``obs_list`` whose
    frames do not have ``n_dims`` dimensions, the dimension of ``what``."""
    for x, name in obs_list:
        if x.shape[1] != n_dims:
            raise ValueError(_named(f"frames have dimension {x.shape[1]}, {what} has {n_dims}", name))


def _variance_floor(obs_list, factor):
    """Relative variance floor: ``factor`` times the per-dimension variance
    of all training frames pooled, with a 1e-12 absolute backstop.
    Returns (floor, pooled variance).

    A pooled variance that overflows would make every floor, and so every
    variance, infinite: it raises ValueError naming the utterance and the
    frame that holds the dimension's largest magnitude."""
    frames = np.concatenate([x for x, _ in obs_list], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        pooled_var = frames.var(axis=0)
    overflowing = np.flatnonzero(~np.isfinite(pooled_var))
    if overflowing.size:
        d = overflowing[0]
        row = int(np.argmax(np.abs(frames[:, d])))
        for x, name in obs_list:
            if row < len(x):
                raise ValueError(
                    f"feature value {float(x[row, d])!r} in dimension {d} at {_where(row, name)} "
                    "overflows the pooled variance of the training frames")
            row -= len(x)
    return np.maximum(factor * pooled_var, 1e-12), pooled_var


class _PreparedObs(list):
    """What _prepare_obs returns: utterances already converted and checked."""


def _prepare_obs(obs_set, kind):
    """(frames, name) per utterance, where name is the FeatureMatrix source,
    else the utterance's index, and the frames are converted and checked by
    the emission ``kind``'s observation rule (the one scoring applies), so
    its errors name the utterance."""
    out = _PreparedObs()
    for u, o in enumerate(obs_set):
        frames, name = _utterance(o)
        name = u if name is None else name
        out.append((kind._observations(frames, name), name))
    if not out:
        raise ValueError("obs_set is empty")
    return out


def _prepared(obs_set, kind):
    """_prepare_obs(obs_set, kind), unless obs_set is already its result
    (train prepares once for k-means initialization and Baum-Welch)."""
    return obs_set if isinstance(obs_set, _PreparedObs) else _prepare_obs(obs_set, kind)


# ---------------------------------------------------------------------------
# Baum-Welch
# ---------------------------------------------------------------------------

def _estep(model, obs_list):
    """Total log-likelihood and the accumulated statistics: transition
    counts aligned with the model's transition arrays, first-frame state
    posteriors and the emission kind's statistics."""
    kind = type(model.emissions[0])
    counts = [np.zeros_like(a) for _, a, _ in _transitions(model)]
    first_sum = np.zeros(model.n_states)
    stats = []
    rows = _RowPass(_ModelStack((model,)), *zip(*obs_list)).forward_backward()
    norms = np.ones((2, len(rows.logb)))   # per frame, the posteriors' sums (see _RowPass.posteriors)
    total_ll, start = 0.0, 0
    for k, ((x, name), ll) in enumerate(zip(obs_list, rows.log_likelihoods())):
        total_ll += ll
        frames = slice(start, start + len(x))
        start += len(x)
        gamma = rows.posteriors(k, counts, norms)
        if not (np.isfinite(gamma).all() and all(np.isfinite(c).all() for c in counts)):
            sums = norms[:, :len(x)]
            frame = int(np.argmax(~((0.0 < sums) & (sums < np.inf)).all(axis=0)))
            raise ValueError(_named(
                f"posteriors are not finite at frame {frame}: the forward and backward "
                "passes share no path there (the utterance is far from the model)", name))
        first_sum += gamma[0]
        stats.append(kind._statistics(model._emission_parameters, x, gamma, rows.frame_logb[frames],
                                      None if rows.comp is None else rows.comp[frames]))
    return total_ll, counts, first_sum, tuple(map(sum, zip(*stats)))


def _mstep(model, counts, first_sum, emstats, config, floor_d, n_utt):
    updates = {
        name: _reestimate(old, c, allowed, config.transition_floor)
        for (name, old, allowed), c in zip(_transitions(model), counts)
    }
    initial = model.initial
    if model.mask.kind == "circular":
        initial = first_sum / n_utt
        initial = initial / initial.sum()
    kind = type(model.emissions[0])
    stacked = kind._updated(model._emission_parameters, emstats, config.mixture_weight_floor, floor_d)
    return replace(model, initial=initial, emissions=tuple(map(kind, *stacked)), **updates)


def _baum_welch(model, obs_set, config, min_frames=1) -> TrainReport:
    kind = type(model.emissions[0])
    obs_list = _prepared(obs_set, kind)
    for x, name in obs_list:
        if x.shape[0] < min_frames:
            raise UtteranceTooShortError(x.shape[0], min_frames, utterance=name)
    if kind is GmmEmission:
        _check_dimensions(obs_list, model.emissions[0].n_dims, "emission")
    floor_d = None
    lls = []
    converged = False
    for _ in range(config.max_iterations):
        total_ll, counts, first_sum, emstats = _estep(model, obs_list)
        lls.append(total_ll)
        if len(lls) > 1:
            rel = abs(lls[-1] - lls[-2]) / max(abs(lls[-1]), 1e-12)
            if rel < config.rel_tol:
                converged = True
                break
        if kind is GmmEmission and floor_d is None:
            # after the first E-step, so that a frame no state can emit fails there first, by name
            floor_d = _variance_floor(obs_list, config.variance_floor)[0]
        model = _mstep(model, counts, first_sum, emstats, config, floor_d, len(obs_list))
    return TrainReport(model, lls, converged, len(obs_list))


def baum_welch1(model: Hmm1Model, obs_set, config: TrainConfig = TrainConfig()) -> TrainReport:
    """Reestimate a first-order model on a set of utterances.

    Stops when the relative log-likelihood improvement drops below
    ``config.rel_tol`` or after ``config.max_iterations`` updates.
    """
    return _baum_welch(model, obs_set, config)


def baum_welch2(model: Hmm2Model, obs_set, config: TrainConfig = TrainConfig()) -> TrainReport:
    """Reestimate a second-order model. Every utterance needs T >= 3 so
    that triple statistics exist."""
    return _baum_welch(model, obs_set, config, min_frames=3)


# ---------------------------------------------------------------------------
# one-call driver
# ---------------------------------------------------------------------------

def train(variant: VariantSpec, obs_set, config: TrainConfig = TrainConfig()) -> TrainReport:
    """Start from the variant's uniform chain (see the module's
    conventions) and run Baum-Welch.

    Gaussian variants get segmental k-means starting points; discrete
    variants start from uniform symbol tables. When ``config.symmetrize``
    is set and the topology is circular, the pairwise transitions of the
    final model are projected toward symmetry (the recorded likelihoods
    refer to the unprojected parameters).
    """
    kind = _EMISSION_KINDS[variant.emission]
    obs_set = _prepare_obs(obs_set, kind)
    if kind is GmmEmission:
        emissions = segmental_kmeans_init(
            obs_set,
            variant.n_states,
            variant.n_mixtures,
            seed=config.seed,
            variance_floor=config.variance_floor,
            weight_floor=config.mixture_weight_floor,
        )
    else:
        emissions = [kind._placeholder(variant.n_mixtures)] * variant.n_states
    model = _uniform_init(variant, emissions)
    baum_welch = baum_welch1 if variant.order == 1 else baum_welch2
    report = baum_welch(model, obs_set, config)

    if config.symmetrize and variant.topology == "circular":
        report.model = symmetrize_ring_transitions(report.model)
    return report
