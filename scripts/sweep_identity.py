"""Library-level byte-identity sweep: one hash per model configuration of
everything the engine computes on random models.

    PYTHONPATH=<tree>/src python3 scripts/sweep_identity.py

Inputs come from tests/conftest.py (make_random_model, make_obs) next to
this script, so two source trees see the same models and utterances. For
each of the 8 (order, topology, emission) configurations, seeds 0-2 and
1-5 models per key, it hashes the raw bytes of:

  forward/backward lattices (alpha, beta, slice log normalizers, shifts,
  log-likelihood), Viterbi paths and scores, log_emission_matrix,
  score_models under forward and Viterbi scoring, and 3-iteration
  baum_welch1/2 and train runs (EM curve, convergence flag, model JSON),
  baum_welch1/2 among them on utterance sets of differing lengths where
  two utterances fail in different ways (non-finite frame, impossible
  frame, infinite density, symbol out of range, wrong dimension);

and, for every configuration, 48-state (order 1) or 24-state (order 2)
models on utterances of 150-250 frames (lattices, Viterbi paths and
scores, score_models in both modes, and a 2-iteration baum_welch1/2),
long enough that the E-step builds its transition posterior over several
chunks of frames; a model with a random custom mask joins the
configuration's three, so that Viterbi scoring stacks differing zero
patterns and the E-step and Viterbi visit allowed transitions that are
neither left-to-right nor a ring;

and 3-iteration baum_welch1/2 runs where one state and one mixture
component (for symbol tables, one symbol) receive no posterior mass, so
that the update keeps their parameters, with 1- and 3-component mixtures;

and, for order 2, models of 5, 6 and 7 states (two of the topology, one
with a random custom mask) on utterances of 30-60 frames and, for GMM
models, one far off whose backward pass is run again rescaled (lattices,
score_models in both modes, 2-iteration baum_welch2 on all of them as
lanes): a left-to-right or ring model's forward and backward steps visit
only allowed transitions from 6 states on, so this family has models on
both sides of that choice and at it;

and, for order-1 GMM models of 12, 17 and 130 dimensions with 1, 2 and 9
mixture components, log_emission_matrix on utterances near and far from
the model and a 2-iteration baum_welch1 on the near ones: the emission
kernel sums over dimensions and over components in numpy's pairwise
order, whose branches part at 8 and 128 values;

and, for every call that raises, the exception type, text and frame.
Inputs include zero-probability symbols, integral float symbols, frames
scaled far from the models, and malformed observations. Prints one line
per configuration: a sha256 over everything, then one hash per input
family (FAMILIES: lattices, Viterbi paths, emission matrices, scoring,
Baum-Welch and train, failing lane sets, long utterances, states and
components without mass, the order-2 step boundary, and the emission
kernel's sums), so that a
difference names the family that moved.

A last line, ``stage=frontend``, does the same for the LPC-cepstrum front
end: extract_features output (coefficients, degenerate frames, cms flag,
configuration hash) or error text under five front-end configurations
(FRONTEND_CONFIGS: cms on and off, lpc_order 1 and 20, and a window too
short for the prediction order) on synthetic signals by family
(FRONTEND_FAMILIES: ordinary, lead/mid/trailing silence, every or nearly
every frame degenerate, too short), and the one-frame functions
(autocorrelation, lpc_levinson_durbin, lpc_to_cepstrum) chained on single
frames and on autocorrelations that die at each order or are NaN.
Non-finite samples are left out: extract_features rejects them since the
front end was batched over frames, and before that it returned NaN rows.

Run it on two trees and compare the output (scripts/identity_check.sh
does).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import ALL_CONFIGS, N_SYMBOLS, make_obs, make_random_model  # noqa: E402
from oracles import predictor_from_reflection, sample_ar_signal  # noqa: E402

from hmmsid import features, inference, training  # noqa: E402
from hmmsid.models import DiscreteEmission, GmmEmission, model_to_dict  # noqa: E402

SEEDS = 3

# The input families, each hashed on its own.
FAMILIES = ("lattices", "viterbi", "emissions", "scoring", "training", "lane-sets",
            "long", "no-mass", "boundary", "kernel")
FRONTEND_FAMILIES = ("ordinary", "silence", "degenerate", "too-short", "one-frame")
FRONTEND_CONFIGS = (
    features.FrontendConfig(),
    features.FrontendConfig(cms=True),
    features.FrontendConfig(lpc_order=1, cepstrum_order=1),
    features.FrontendConfig(window_ms=20.0, hop_ms=5.0, lpc_order=20, cepstrum_order=16, cms=True),
    features.FrontendConfig(window_ms=1.5),   # 12-sample windows, too short for order 12
)


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def text(self, s):
        data = s.encode()
        self._h.update(len(data).to_bytes(8, "little") + data)

    def array(self, a):
        a = np.ascontiguousarray(a)
        self.text(f"{a.dtype.str}{a.shape}")
        self._h.update(a.tobytes())

    def value(self, x):
        if x is None:
            self.text("None")
        elif isinstance(x, str):
            self.text(x)
        else:
            self.array(np.asarray(x))

    def call(self, fn, *args):
        """Hash the error fn(*args) raises, by type, text and frame, or
        return its result for the caller to hash (None on error). Any
        exception type is hashed, so a changed type shows as a differing
        hash rather than ending the sweep."""
        try:
            result = fn(*args)
        except Exception as err:
            self.text(f"{type(err).__name__}: {err} @ {getattr(err, 'frame', None)}")
            return None
        return result

    def hexdigest(self):
        return self._h.hexdigest()


def _lattice(d, lat):
    for name in ("alpha", "beta", "slice_log_norms", "emission_shifts", "log_likelihood"):
        d.value(getattr(lat, name))


def _with_zero_symbol(model, rng):
    """The model with symbol 0 made impossible in a random subset of states."""
    ems = []
    for e in model.emissions:
        p = e.probs.copy()
        if rng.random() < 0.5:
            p[0] = 0.0
            p /= p.sum()
        ems.append(DiscreteEmission(p))
    return replace(model, emissions=tuple(ems))


def _observations(rng, emission):
    """Scoring inputs: ordinary utterances, one far from every model, and
    malformed ones."""
    obs = [make_obs(rng, emission, int(rng.integers(1, 30))) for _ in range(3)]
    if emission == "discrete":
        obs.append(obs[0].astype(np.float64))              # integral floats
        obs.append(np.array([0, 1, N_SYMBOLS, 2]))          # out of range
        obs.append(np.array([0.0, 1.5, 2.0]))               # not an integer
        obs.append(np.zeros((4, 2), dtype=np.int64))        # not 1-D
    else:
        obs.append(40.0 * make_obs(rng, emission, 25))      # far from the models
        obs.append(make_obs(rng, emission, 6, n_dims=3))    # wrong dimension
        obs.append(np.zeros(5))                             # not (T, D)
        bad = make_obs(rng, emission, 6)
        bad[3, 1] = np.nan
        obs.append(bad)
    obs.append(make_obs(rng, emission, 0))                  # empty
    return obs


def _lane_model(model, emission):
    """For discrete models, the model with symbol 0 impossible in every state
    and symbol 3 of infinite density in state 0; GMM models as they are."""
    if emission != "discrete":
        return model
    probs = np.array([e.probs for e in model.emissions])
    probs[:, 0] = 0.0
    probs[0, 3] = np.inf
    return replace(model, emissions=tuple(DiscreteEmission(p) for p in probs))


def _ordinary(rng, emission, t_count):
    """An utterance no model of _lane_model fails on (discrete symbols 1-2)."""
    if emission == "discrete":
        return rng.integers(1, 3, size=t_count)
    return make_obs(rng, emission, t_count)


def _failing(rng, emission, how, t_count):
    """An utterance of t_count frames that fails baum_welch1/2 in the way
    ``how`` names, at a random frame."""
    x = _ordinary(rng, emission, t_count)
    at = int(rng.integers(0, t_count))
    if how == "non-finite":
        x = x.astype(np.float64)
        x[at] = np.nan
    elif how == "impossible":
        x[at] = 0 if emission == "discrete" else 1e200   # every density is 0
    elif how == "infinite":
        x[at] = 3
    elif how == "out-of-range":
        x[at] = N_SYMBOLS
    else:   # wrong dimension
        x = make_obs(rng, emission, t_count, n_dims=3)
    return x


LANE_FAILURES = {
    "discrete": ("non-finite", "impossible", "infinite", "out-of-range"),
    "gmm": ("non-finite", "impossible", "wrong-dimension"),
}


def _lane_sets(rng, order, emission):
    """Utterance sets of differing lengths, the shortest allowed among them:
    ordinary ones, and ones where two utterances fail, in every pair of
    ways and in both orders, among ordinary ones."""
    shortest = 1 if order == 1 else 3
    sets = []
    for n_lanes in (1, 2, 5):
        lengths = [shortest] + [int(rng.integers(shortest, 40)) for _ in range(n_lanes - 1)]
        sets.append([_ordinary(rng, emission, n) for n in lengths])
    for first in LANE_FAILURES[emission]:
        for second in LANE_FAILURES[emission]:
            lengths = rng.integers(shortest, 30, size=4)
            sets.append([
                _ordinary(rng, emission, lengths[0]),
                _failing(rng, emission, first, lengths[1]),
                _ordinary(rng, emission, lengths[2]),
                _failing(rng, emission, second, lengths[3]),
            ])
    return sets


# state counts of the long family: its transition posterior spans several
# chunks of frames (training._CHUNK_BYTES) on 150-250 frames
LONG_STATES = {1: 48, 2: 24}


def _long(d, index, order, topology, emission):
    """Models of LONG_STATES[order] states on utterances of 150-250 frames,
    long enough that the E-step builds the transition posterior over
    several chunks of frames: lattices, Viterbi paths and scores,
    score_models in both modes over 3 models of the topology and one with
    a random custom mask, and 2-iteration baum_welch1/2 runs of the first
    and the custom one."""
    n_states = LONG_STATES[order]
    rng = np.random.default_rng([index, n_states])
    fb = getattr(inference, f"forward_backward{order}")
    vit = getattr(inference, f"viterbi{order}")
    bw = getattr(training, f"baum_welch{order}")
    models = [make_random_model(rng, order, topology, emission, n_states=n_states) for _ in range(3)]
    utterances = [make_obs(rng, emission, int(rng.integers(150, 251))) for _ in range(3)]
    models.append(make_random_model(rng, order, "custom", emission, n_states=n_states))
    for obs in utterances:
        for model in models:
            lat = d.call(fb, model, obs)
            if lat is not None:
                _lattice(d, lat)
            path = d.call(vit, model, obs)
            if path is not None:
                d.value(path.states)
                d.value(path.log_prob)
        for mode in inference.SCORING_MODES:
            d.value(d.call(inference.score_models, models, obs, mode))
    for model in (models[0], models[-1]):
        report = d.call(bw, model, utterances, training.TrainConfig(max_iterations=2))
        if report is not None:
            d.value(report.log_likelihoods)
            d.text(json.dumps(model_to_dict(report.model), sort_keys=True))


# state counts of the boundary family: order 2's steps with trans2 visit only
# allowed entries when 2K <= N, and left-to-right and ring tables have K = 3
BOUNDARY_STATES = (5, 6, 7)
# per (topology, state count), a seed whose GMM model and far-off utterance,
# drawn as _boundary draws them, take the backward pass's rescaled rerun
FAR_OFF_SEEDS = {("ltr", 5): 80, ("ltr", 6): 101, ("ltr", 7): 81,
                 ("circular", 5): 3, ("circular", 6): 34, ("circular", 7): 11}


def _boundary(d, index, order, topology, emission):
    """Order 2 only: at each of BOUNDARY_STATES, two models of the
    topology and one with a random custom mask on three utterances of
    30-60 frames and, for GMM models, one 40-100 times farther out, whose
    backward pass the first model runs again rescaled: lattices,
    score_models in both modes over the three, and 2-iteration
    baum_welch2 runs of each on all the utterances as lanes of differing
    lengths."""
    if order != 2:
        return
    for n_states in BOUNDARY_STATES:
        models, utterances = [], []
        if emission == "gmm":
            rng = np.random.default_rng([FAR_OFF_SEEDS[topology, n_states], n_states])
            models.append(make_random_model(rng, order, topology, emission, n_states=n_states))
            utterances.append(rng.uniform(40, 100) * make_obs(rng, emission, int(rng.integers(5, 40))))
        rng = np.random.default_rng([index, n_states, 7])
        while len(models) < 2:
            models.append(make_random_model(rng, order, topology, emission, n_states=n_states))
        models.append(make_random_model(rng, order, "custom", emission, n_states=n_states))
        utterances += [make_obs(rng, emission, int(rng.integers(30, 61))) for _ in range(3)]
        for obs in utterances:
            for model in models:
                lat = d.call(inference.forward_backward2, model, obs)
                if lat is not None:
                    _lattice(d, lat)
            for mode in inference.SCORING_MODES:
                d.value(d.call(inference.score_models, models, obs, mode))
        for model in models:
            report = d.call(training.baum_welch2, model, utterances, training.TrainConfig(max_iterations=2))
            if report is not None:
                d.value(report.log_likelihoods)
                d.text(json.dumps(model_to_dict(report.model), sort_keys=True))


# frame dimensions and mixture sizes of the kernel family: the emission
# kernel's sums over dimensions and over components follow numpy's pairwise
# summation, whose branches part at 8 and 128 values
KERNEL_DIMS = (12, 17, 130)
KERNEL_MIXTURES = (1, 2, 9)


def _kernel(d, index, order, topology, emission):
    """Order-1 GMM only: at each of KERNEL_DIMS frame dimensions and
    KERNEL_MIXTURES mixture sizes, one model of the topology on three
    utterances of 20-40 frames and one 10 times farther out:
    log_emission_matrix of each, and a 2-iteration baum_welch1 run on the
    three (the far one is impossible under most of these models)."""
    if order != 1 or emission != "gmm":
        return
    for n_dims in KERNEL_DIMS:
        for n_mixtures in KERNEL_MIXTURES:
            rng = np.random.default_rng([index, n_dims, n_mixtures])
            model = make_random_model(rng, order, topology, emission, n_dims=n_dims, n_mixtures=n_mixtures)
            utterances = [make_obs(rng, emission, int(rng.integers(20, 41)), n_dims) for _ in range(3)]
            utterances.append(10.0 * make_obs(rng, emission, int(rng.integers(20, 41)), n_dims))
            for obs in utterances:
                d.value(d.call(inference.log_emission_matrix, model, obs))
            report = d.call(training.baum_welch1, model, utterances[:3], training.TrainConfig(max_iterations=2))
            if report is not None:
                d.value(report.log_likelihoods)
                d.text(json.dumps(model_to_dict(report.model), sort_keys=True))


def _no_mass(d, index, order, topology, emission):
    """baum_welch1/2 where one state and one mixture component receive no
    posterior mass, so that the update keeps their parameters. State 1 of
    a 5-state model emits none of the frames: its Gaussians lie 1e6 away
    from them, or its symbol table holds only the last symbol, which the
    utterances never use. For 3-component mixtures, component 0 of every
    state lies as far away; for symbol tables, the last symbol is the
    component without mass. Mixtures of 1 and 3 components, 3-iteration
    runs on 3 sets of 1-3 utterances of 3-40 frames."""
    rng = np.random.default_rng([index, 5])
    bw = getattr(training, f"baum_welch{order}")
    config = training.TrainConfig(max_iterations=3)
    for n_mixtures in ((1, 3) if emission == "gmm" else (N_SYMBOLS,)):
        model = make_random_model(rng, order, topology, emission, n_states=5, n_mixtures=n_mixtures)
        if emission == "discrete":
            emissions = list(model.emissions)
            emissions[1] = DiscreteEmission(np.eye(N_SYMBOLS)[-1])
        else:
            means = np.array([e.means for e in model.emissions])
            means[1] = 1e6
            if n_mixtures > 1:
                means[:, 0] = 1e6
            emissions = [GmmEmission(e.weights, m, e.variances) for e, m in zip(model.emissions, means)]
        model = replace(model, emissions=tuple(emissions))
        for _ in range(3):
            lengths = rng.integers(3, 41, size=int(rng.integers(1, 4)))
            if emission == "discrete":
                utterances = [rng.integers(0, N_SYMBOLS - 1, size=n) for n in lengths]
            else:
                utterances = [make_obs(rng, emission, n) for n in lengths]
            report = d.call(bw, model, utterances, config)
            if report is not None:
                d.value(report.log_likelihoods)
                d.text(json.dumps(model_to_dict(report.model), sort_keys=True))


def sweep(index, seeds):
    """The hex digest of each of FAMILIES for configuration ``index``."""
    order, topology, emission = ALL_CONFIGS[index]
    digests = {family: Digest() for family in FAMILIES}
    lattices, viterbi, emissions, scoring, trained, lane_sets, long, no_mass, boundary, kernel = digests.values()
    fb = getattr(inference, f"forward_backward{order}")
    fwd = getattr(inference, f"forward{order}")
    vit = getattr(inference, f"viterbi{order}")
    bw = getattr(training, f"baum_welch{order}")
    config = training.TrainConfig(max_iterations=3)
    for seed in range(seeds):
        for n_models in range(1, 6):
            rng = np.random.default_rng([index, seed, n_models])
            models = [make_random_model(rng, order, topology, emission) for _ in range(n_models)]
            if emission == "discrete":
                models = [_with_zero_symbol(m, rng) for m in models]
            for obs in _observations(rng, emission):
                for model in models:
                    for fn in (fb, fwd):
                        lat = lattices.call(fn, model, obs)
                        if lat is not None:
                            _lattice(lattices, lat)
                    path = viterbi.call(vit, model, obs)
                    if path is not None:
                        viterbi.value(path.states)
                        viterbi.value(path.log_prob)
                    emissions.value(emissions.call(inference.log_emission_matrix, model, obs))
                for mode in inference.SCORING_MODES:
                    scoring.value(scoring.call(inference.score_models, models, obs, mode))
            utterances = [make_obs(rng, emission, int(rng.integers(3, 30))) for _ in range(3)]
            report = trained.call(bw, models[0], utterances, config)
            if report is not None:
                trained.value(report.log_likelihoods)
                trained.value(str(report.converged))
                trained.text(json.dumps(model_to_dict(report.model), sort_keys=True))
            n_mixtures = N_SYMBOLS if emission == "discrete" else 2
            variant = training.VariantSpec(order=order, topology=topology, n_states=3,
                                           n_mixtures=n_mixtures, emission=emission)
            report = trained.call(training.train, variant, utterances, config)
            if report is not None:
                trained.value(report.log_likelihoods)
                trained.text(json.dumps(model_to_dict(report.model), sort_keys=True))
            model = _lane_model(models[-1], emission)
            for utterances in _lane_sets(rng, order, emission):
                report = lane_sets.call(bw, model, utterances, config)
                if report is not None:
                    lane_sets.value(report.log_likelihoods)
                    lane_sets.text(json.dumps(model_to_dict(report.model), sort_keys=True))
    _long(long, index, order, topology, emission)
    _no_mass(no_mass, index, order, topology, emission)
    _boundary(boundary, index, order, topology, emission)
    _kernel(kernel, index, order, topology, emission)
    return {family: digest.hexdigest() for family, digest in digests.items()}


def _frontend_signals(rng):
    """Synthetic signals for each of FRONTEND_FAMILIES but the last."""
    ar = sample_ar_signal(rng, predictor_from_reflection([0.7, -0.5, 0.3, -0.2]), 8000, 0.1)
    speech = np.round(0.5 * 32767.0 * ar / np.abs(ar).max()) / 32768.0
    noise = 0.3 * rng.standard_normal(5000)
    burst = np.zeros(6000)
    burst[3000:3300] = noise[:300]
    return {
        "ordinary": [speech, noise, 0.4 * np.cos(0.3 * np.arange(4000))],
        "silence": [np.concatenate([np.zeros(1500), speech[:6000]]),
                    np.concatenate([speech[:3000], np.zeros(2000), speech[3000:6000]]),
                    np.concatenate([noise, np.zeros(2500)])],
        "degenerate": [np.zeros(6000), burst],
        "too-short": [speech[:200], np.zeros(0)],
    }


def _levinson(d, r, order):
    """Hash lpc_levinson_durbin's (a, err, k) or error; return a or None."""
    lpc = d.call(features.lpc_levinson_durbin, r, order)
    if lpc is None:
        return None
    for part in lpc:
        d.value(part)
    return lpc[0]


def _one_frame(d, frames, order, n_coeffs):
    """The one-frame functions chained on each frame."""
    for frame in frames:
        r = d.call(features.autocorrelation, frame, order)
        d.value(r)
        a = None if r is None else _levinson(d, r, order)
        if a is not None:
            d.value(d.call(features.lpc_to_cepstrum, a, n_coeffs))


def frontend():
    """The hex digest of each of FRONTEND_FAMILIES."""
    digests = {family: Digest() for family in FRONTEND_FAMILIES}
    rng = np.random.default_rng(11)
    signals = _frontend_signals(rng)
    for family, xs in signals.items():
        d = digests[family]
        for x in xs:
            for config in FRONTEND_CONFIGS:
                fm = d.call(features.extract_features, x, config, "u")
                if fm is not None:
                    d.value(fm.frames)
                    d.value(np.array(fm.meta.degenerate_frames, dtype=np.int64))
                    d.text(f"{fm.meta.cms_applied} {fm.meta.config_hash}")
    d = digests["one-frame"]
    for config in FRONTEND_CONFIGS:
        for x in signals["silence"]:
            y = features.pre_emphasize(x, config.preemphasis)
            frames = features.frame_and_window(y, config.window_samples, config.hop_samples)
            _one_frame(d, frames[::7], config.lpc_order, config.cepstrum_order)
    dying = [[1.0, 1.0, 0.5, 0.2], [1.0, 0.5, 1.0, 0.1], [1.0, 0.5, 0.2, 1.5],
             [0.0, 0.0, 0.0, 0.0], [-1.0, 0.5, 0.2, 0.1], [np.nan, 0.5, 0.2, 0.1],
             [1.0, np.nan, 0.2, 0.1], [1.0, 0.5, 0.2]]
    for r in dying:
        _levinson(d, r, 3)
    return {family: digest.hexdigest() for family, digest in digests.items()}


def _line(label, digests):
    overall = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    families = " ".join(f"{family}={digest[:16]}" for family, digest in digests.items())
    return f"{label} {overall} {families}"


def main():
    for index, (order, topology, emission) in enumerate(ALL_CONFIGS):
        with np.errstate(all="ignore"):
            digests = sweep(index, SEEDS)
        print(_line(f"order={order} topology={topology} emission={emission}", digests))
    print(_line("stage=frontend", frontend()))


if __name__ == "__main__":
    main()
