import json
import math
import os
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from conftest import make_obs, make_random_model
from hmmsid import inference
from hmmsid.corpus import ManifestRow
from hmmsid.errors import ImpossibleObservationError
from hmmsid.features import FeatureMatrix, FeatureMeta
from hmmsid.models import (
    DiscreteEmission,
    GmmEmission,
    Hmm1Model,
    circular_topology,
    ltr_topology,
)
from hmmsid.inference import (
    SCORING_MODES,
    forward1,
    forward2,
    log_emission_matrix,
    score_models,
    viterbi1,
    viterbi2,
)
from hmmsid.speaker_id import (
    ComparisonReport,
    EvalResult,
    IdentifyResult,
    SpeakerRegistry,
    TrialRecord,
    comparison_report,
    evaluate,
    format_rate,
    improvement_rate,
)
from hmmsid.training import TrainConfig, VariantSpec, train

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "reference_grids.json")


def point_model(center, n_states=2, n_dims=2, spread=1.0, topology="ltr"):
    """A model whose emissions are isotropic Gaussians at `center`."""
    mask = (ltr_topology(n_states, skip_width=1) if topology == "ltr"
            else circular_topology(n_states))
    trans = np.zeros((n_states, n_states))
    for i in range(n_states):
        allowed = mask.allowed1[i]
        trans[i, allowed] = 1.0 / allowed.sum()
    emissions = tuple(
        GmmEmission(
            weights=np.array([1.0]),
            means=np.full((1, n_dims), float(center)),
            variances=np.full((1, n_dims), float(spread)),
        )
        for _ in range(n_states)
    )
    if topology == "ltr":
        initial = np.zeros(n_states)
        initial[0] = 1.0
    else:
        initial = np.full(n_states, 1.0 / n_states)
    return Hmm1Model(mask=mask, initial=initial, trans=trans, emissions=emissions)


def obs_at(center, t=6, n_dims=2):
    return FeatureMatrix(np.full((t, n_dims), float(center)))


def row_for(speaker, word="word0", condition="neutral", split="test",
            gender="male", index=0):
    uid = f"{speaker}-{word}-{condition}-{split}-{index:02d}"
    return ManifestRow(
        utterance_id=uid, speaker_id=speaker, gender=gender, word_id=word,
        condition=condition, split=split, path=f"features/{uid}.lpcf",
    )


class TestRegistry:
    def test_add_and_identify(self):
        reg = SpeakerRegistry()
        reg.add_model("alice", "word0", "ltr1", point_model(0.0))
        reg.add_model("bob", "word0", "ltr1", point_model(5.0))
        res = reg.identify("word0", "ltr1", obs_at(4.8))
        assert isinstance(res, IdentifyResult)
        assert res.predicted_speaker == "bob"
        assert res.scoring == "forward"
        assert [s for s, _ in res.ranked] == ["bob", "alice"]

    def test_duplicate_enrollment_rejected(self):
        reg = SpeakerRegistry()
        reg.add_model("alice", "word0", "ltr1", point_model(0.0))
        with pytest.raises(ValueError, match="already"):
            reg.add_model("alice", "word0", "ltr1", point_model(1.0))

    def test_same_speaker_different_word_ok(self):
        reg = SpeakerRegistry()
        reg.add_model("alice", "word0", "ltr1", point_model(0.0))
        reg.add_model("alice", "word1", "ltr1", point_model(1.0))
        assert reg.speakers_for("word0", "ltr1") == ("alice",)
        assert reg.speakers_for("word1", "ltr1") == ("alice",)

    def test_empty_registry_raises_lookup(self):
        with pytest.raises(LookupError):
            SpeakerRegistry().identify("word0", "ltr1", obs_at(0.0))

    def test_tie_break_prefers_first_enrolled(self):
        reg = SpeakerRegistry()
        reg.add_model("zeta", "word0", "ltr1", point_model(0.0))
        reg.add_model("alpha", "word0", "ltr1", point_model(0.0))
        res = reg.identify("word0", "ltr1", obs_at(0.0))
        assert res.predicted_speaker == "zeta"
        assert [s for s, _ in res.ranked] == ["zeta", "alpha"]

    def test_enroll_trains_and_registers(self):
        rng = np.random.default_rng(50)
        reg = SpeakerRegistry()
        variant = VariantSpec(order=1, topology="ltr", n_states=2, n_mixtures=1)
        utts = [FeatureMatrix(rng.standard_normal((12, 2)) + 3.0) for _ in range(3)]
        report = reg.enroll("alice", "word0", variant, utts, TrainConfig(max_iterations=3, seed=1))
        assert reg.speakers_for("word0", variant.label) == ("alice",)
        assert len(report.log_likelihoods) >= 1

    def test_enroll_duplicate_checked_before_training(self):
        reg = SpeakerRegistry()
        reg.add_model("alice", "word0", "ltr1", point_model(0.0))
        variant = VariantSpec(order=1, topology="ltr", n_states=2, n_mixtures=1)
        with pytest.raises(ValueError, match="already"):
            reg.enroll("alice", "word0", variant, [obs_at(0.0)], TrainConfig(max_iterations=1))

    @pytest.mark.parametrize("emission", ["gmm", "discrete"])
    @pytest.mark.parametrize("utterances", [[], iter([])], ids=["list", "iterator"])
    @pytest.mark.parametrize("call", ["train", "enroll"])
    def test_no_utterances_is_refused(self, call, utterances, emission):
        """train refuses an empty set, and enroll through it, before
        anything is registered."""
        reg = SpeakerRegistry()
        variant = VariantSpec(n_states=3, n_mixtures=4, emission=emission)
        with pytest.raises(ValueError, match=r"^obs_set is empty$"):
            if call == "train":
                train(variant, utterances)
            else:
                reg.enroll("alice", "word0", variant, utterances)
        assert reg.keys() == ()

    def test_forward_score_matches_inference(self):
        model = point_model(0.0)
        fm = obs_at(0.3)
        reg = SpeakerRegistry()
        reg.add_model("a", "w", "ltr1", model)
        res = reg.identify("w", "ltr1", fm)
        assert res.ranked[0][1] == forward1(model, fm.frames).log_likelihood

    def test_viterbi_scoring_mode(self):
        model = point_model(0.0)
        fm = obs_at(0.3)
        reg = SpeakerRegistry()
        reg.add_model("a", "w", "ltr1", model)
        res = reg.identify("w", "ltr1", fm, scoring="viterbi")
        assert res.scoring == "viterbi"
        assert res.ranked[0][1] == viterbi1(model, fm.frames).log_prob

    @pytest.mark.parametrize("scoring", ["forward", "viterbi"])
    def test_non_finite_frame_raises_instead_of_picking_a_speaker(self, scoring):
        reg = SpeakerRegistry()
        for speaker, center in (("a", -3.0), ("b", 0.0), ("c", 3.0)):
            reg.add_model(speaker, "w", "ltr1", point_model(center))
        frames = np.full((6, 2), 3.0)
        frames[4, 1] = np.nan
        utterance = FeatureMatrix(frames, FeatureMeta(source="c-w-test-00"))
        with pytest.raises(ValueError, match=r"'c-w-test-00', frame 4"):
            reg.identify("w", "ltr1", utterance, scoring=scoring)

    def test_unknown_scoring_rejected(self):
        reg = SpeakerRegistry()
        reg.add_model("a", "w", "ltr1", point_model(0.0))
        with pytest.raises(ValueError):
            reg.identify("w", "ltr1", obs_at(0.0), scoring="magic")

    def test_unenrolled_key_reported_before_unknown_scoring(self):
        reg = SpeakerRegistry()
        reg.add_model("a", "w", "ltr1", point_model(0.0))
        with pytest.raises(LookupError):
            reg.identify("other", "ltr1", obs_at(0.0), scoring="magic")


def score_alone(model, obs, scoring):
    """The score of one model on its own."""
    if scoring == "forward":
        return (forward1 if model.order == 1 else forward2)(model, obs).log_likelihood
    return (viterbi1 if model.order == 1 else viterbi2)(model, obs).log_prob


def scaled_forward_loop(model, logb):
    """Forward log-likelihood of one model from its (T, N) log densities,
    frame by frame on plain (N,) / (N, N) slices: the arithmetic that every
    score, stacked or not, must reproduce bit for bit."""
    shifts = logb.max(axis=1)
    bsh = np.exp(logb - shifts[:, None])
    a = model.initial
    log_norms = np.empty(len(logb))
    for t in range(len(logb)):
        if t and model.order == 1:
            a = a @ model.trans
        elif t == 1:
            a = a[:, None] * model.trans1
        elif t:
            a = np.einsum("ij,ijk->jk", a, model.trans2)
        u = a * bsh[t]
        s = u.sum()
        a = u / s
        log_norms[t] = np.log(s) + shifts[t]
    return float(log_norms.sum())


def max_plus_loop(model, logb):
    """Best-path log-probability of one model, frame by frame."""
    names = ("trans",) if model.order == 1 else ("trans1", "trans2")
    with np.errstate(divide="ignore"):
        logtrans = [np.log(getattr(model, name)) for name in names]
        dp = np.log(model.initial) + logb[0]
    for t in range(1, len(logb)):
        cand = dp[..., None] + logtrans[min(t, model.order) - 1]
        if dp.ndim == model.order:
            cand = cand.max(axis=0)
        dp = cand + logb[t]
    return float(dp.max())


REFERENCE_LOOPS = {"forward": scaled_forward_loop, "viterbi": max_plus_loop}


def ranking_alone(speakers, models, obs, scoring):
    """identify's ranking rebuilt from single-model scores: best first, ties
    in enrollment order."""
    scores = [score_alone(m, obs, scoring) for m in models]
    order = sorted(range(len(speakers)), key=lambda i: (-scores[i], i))
    return tuple((speakers[i], scores[i]) for i in order)


def level_models(n_models):
    """Order-1 models whose states sit at 0, 0, 1 and 38: on frames at 0, the
    last state's density is ~722 nats below the others, so the shifted
    emissions and the forward slices hold subnormal numbers."""
    mask = ltr_topology(4, skip_width=2)
    trans = np.where(mask.allowed1, 1.0, 0.0)
    trans /= trans.sum(axis=1, keepdims=True)
    initial = np.array([1.0, 0.0, 0.0, 0.0])
    models = []
    for k in range(n_models):
        means = (0.0, 0.01 * k, 1.0, 38.0 + 0.01 * k)
        emissions = tuple(
            GmmEmission(np.array([1.0]), np.array([[m]]), np.array([[1.0]])) for m in means
        )
        models.append(Hmm1Model(mask, initial, trans, emissions))
    return models


class TestStackedScoring:
    """identify scores every candidate of a key in one stacked pass; each
    score must equal, bit for bit, what the model scores on its own."""

    @staticmethod
    def _registry(models):
        reg = SpeakerRegistry()
        for k, model in enumerate(models):
            reg.add_model(f"s{k}", "w", "v", model)
        return reg

    def _check(self, models, obs):
        reg = self._registry(models)
        speakers = [f"s{k}" for k in range(len(models))]
        for scoring in ("forward", "viterbi"):
            res = reg.identify("w", "v", obs, scoring=scoring)
            got = dict(res.ranked)
            for speaker, model in zip(speakers, models):
                want = REFERENCE_LOOPS[scoring](model, log_emission_matrix(model, obs))
                assert got[speaker] == score_alone(model, obs, scoring) == want, (scoring, speaker)
            assert res.ranked == ranking_alone(speakers, models, obs, scoring)
            assert res.predicted_speaker == res.ranked[0][0]

    @pytest.mark.parametrize("n_models", [1, 3, 7])
    @pytest.mark.parametrize("emission,n_mixtures", [("gmm", 1), ("gmm", 2), ("discrete", None)])
    @pytest.mark.parametrize("topology", ["ltr", "circular"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_scores_equal_single_model_scores(self, order, topology, emission,
                                              n_mixtures, n_models):
        rng = np.random.default_rng([order, len(topology), n_mixtures or 0, n_models])
        models = [
            make_random_model(rng, order, topology, emission, n_states=4,
                              n_mixtures=n_mixtures or 1)
            for _ in range(n_models)
        ]
        self._check(models, make_obs(rng, emission, 40))

    def test_trial_leaving_the_normal_range(self):
        models = level_models(5)
        obs = FeatureMatrix(np.zeros((30, 1)))
        tiny = np.finfo(np.float64).tiny
        alpha = forward1(models[0], obs).alpha
        assert ((alpha > 0.0) & (alpha < tiny)).any()
        self._check(models, obs)

    def test_key_mixing_state_counts(self):
        rng = np.random.default_rng(396)
        models = [
            make_random_model(rng, 1, "ltr", "gmm", n_states=n) for n in (3, 4, 3, 5, 4)
        ]
        self._check(models, make_obs(rng, "gmm", 25))

    @staticmethod
    def _phrase_models(rng, emission, topology):
        """4 order-2 candidates of 24 states, as the phrase workload scores."""
        return [make_random_model(rng, 2, topology, emission, n_states=24, n_mixtures=1)
                for _ in range(4)]

    @pytest.mark.parametrize("topology", ["ltr", "circular"])
    def test_long_order2_viterbi_scores(self, topology):
        """Viterbi scoring keeps no back-pointers; its scores are those of
        the frame-by-frame loop and of viterbi2, bit for bit."""
        rng = np.random.default_rng([421, len(topology)])
        models = self._phrase_models(rng, "gmm", topology)
        reg = self._registry(models)
        for t_count in (150, 203, 250):
            obs = make_obs(rng, "gmm", t_count)
            got = dict(reg.identify("w", "v", obs, scoring="viterbi").ranked)
            for k, model in enumerate(models):
                want = max_plus_loop(model, log_emission_matrix(model, obs))
                assert got[f"s{k}"] == viterbi2(model, obs).log_prob == want, (t_count, k)

    def test_long_order2_failing_candidate(self):
        """A candidate to which frame 170's symbol is impossible fails Viterbi
        scoring at the frame viterbi2 names on its own."""
        rng = np.random.default_rng(422)
        models = self._phrase_models(rng, "discrete", "circular")
        probs = np.array([e.probs for e in models[2].emissions])
        probs[:, 3] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        models[2] = replace(models[2], emissions=tuple(DiscreteEmission(p) for p in probs))
        obs = rng.integers(0, 3, size=220)
        obs[170] = 3
        with pytest.raises(ImpossibleObservationError) as alone:
            viterbi2(models[2], obs)
        assert alone.value.frame == 170
        with pytest.raises(ImpossibleObservationError) as raised:
            self._registry(models).identify("w", "v", obs, scoring="viterbi")
        assert raised.value.frame == alone.value.frame
        assert str(raised.value) == str(alone.value)


def discrete_model(n_states, probs, skip_width=2):
    """Left-to-right discrete model whose state i emits with probs[i]."""
    mask = ltr_topology(n_states, skip_width=skip_width)
    trans = np.where(mask.allowed1, 1.0, 0.0)
    trans /= trans.sum(axis=1, keepdims=True)
    initial = np.zeros(n_states)
    initial[0] = 1.0
    emissions = tuple(DiscreteEmission(np.asarray(p, dtype=float)) for p in probs)
    return Hmm1Model(mask, initial, trans, emissions)


class TestFailingCandidates:
    """When candidates fail, identify raises what the first failing one in
    enrollment order raises on its own, and nothing else escapes."""

    OBS = np.array([0, 0, 2, 0, 0, 3, 0, 0])

    def _candidates(self, n_states_c):
        ok = discrete_model(3, [[0.25] * 4] * 3)
        # frame 5's symbol 3 only comes from states 6 and 7, which a skip-1
        # chain started in state 0 cannot reach before frame 6
        at_frame_5 = discrete_model(
            8, [[1 / 3, 1 / 3, 1 / 3, 0.0]] * 6 + [[0.0, 0.0, 0.0, 1.0]] * 2, skip_width=1
        )
        # no state emits frame 2's symbol 2
        at_frame_2 = discrete_model(n_states_c, [[0.5, 0.25, 0.0, 0.25]] * n_states_c)
        return [ok, at_frame_5, at_frame_2]

    @pytest.mark.parametrize("n_states_c", [3, 8], ids=["other-group", "same-group"])
    @pytest.mark.parametrize("scoring", ["forward", "viterbi"])
    def test_first_failure_in_enrollment_order(self, scoring, n_states_c):
        ok, at_frame_5, at_frame_2 = self._candidates(n_states_c)
        assert score_alone(ok, self.OBS, scoring) < 0.0
        with pytest.raises(ImpossibleObservationError) as alone:
            score_alone(at_frame_5, self.OBS, scoring)
        reg = SpeakerRegistry()
        for speaker, model in zip(("ok", "five", "two"), (ok, at_frame_5, at_frame_2)):
            reg.add_model(speaker, "w", "v", model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImpossibleObservationError) as raised:
                reg.identify("w", "v", self.OBS, scoring=scoring)
        assert raised.value.frame == 5
        assert str(raised.value) == str(alone.value)

    @pytest.mark.parametrize("scoring", ["forward", "viterbi"])
    def test_later_groups_unscored_after_a_failure(self, scoring):
        """Candidates stack by state count: [A, C] (3 states), then [B] (4
        states). A cannot emit frame 0's symbol 0, so its group fails and
        B's group is never scored; A's error is raised as A alone raises it."""
        a = discrete_model(3, [[0.0, 1 / 3, 1 / 3, 1 / 3]] * 3)
        b = discrete_model(4, [[0.25] * 4] * 4)
        c = discrete_model(3, [[0.25] * 4] * 3)
        with pytest.raises(ImpossibleObservationError) as alone:
            score_alone(a, self.OBS, scoring)
        reg = SpeakerRegistry()
        for speaker, model in zip("abc", (a, b, c)):
            reg.add_model(speaker, "w", "v", model)
        for run in (lambda: score_models([a, b, c], self.OBS, scoring),
                    lambda: reg.identify("w", "v", self.OBS, scoring=scoring)):
            with mock.patch.object(inference, "_stack_scores", wraps=inference._stack_scores) as scored:
                with pytest.raises(ImpossibleObservationError) as raised:
                    run()
            assert scored.call_count == 1
            assert raised.value.frame == alone.value.frame == 0
            assert str(raised.value) == str(alone.value)

    def test_integral_float_symbols_score_like_ints(self):
        reg = SpeakerRegistry()
        for k in range(3):
            reg.add_model(f"s{k}", "w", "v", discrete_model(3, [[0.1 + 0.1 * k, 0.2, 0.3, 0.4 - 0.1 * k]] * 3))
        for scoring in ("forward", "viterbi"):
            as_ints = reg.identify("w", "v", self.OBS, scoring=scoring)
            as_floats = reg.identify("w", "v", self.OBS.astype(float), scoring=scoring)
            assert as_floats == as_ints

    @pytest.mark.parametrize("bad,shown", [(np.nan, "nan"), (1.5, "1.5")])
    def test_non_integer_symbol_named_by_frame(self, bad, shown):
        reg = SpeakerRegistry()
        reg.add_model("a", "w", "v", discrete_model(3, [[0.25] * 4] * 3))
        obs = self.OBS.astype(float)
        obs[4] = bad
        with pytest.raises(ValueError, match=rf"^non-integer symbol {shown} at frame 4$"):
            reg.identify("w", "v", obs)


class TestRegistryCache:
    """identify keeps each (word, variant) key's stacked candidates. A model
    added to a key after it was identified must be scored with the rest,
    and the other keys must keep their results."""

    VARIANT = VariantSpec(order=1, topology="ltr", n_states=3, n_mixtures=1)

    @pytest.mark.parametrize("how", ["add_model", "enroll"])
    def test_speaker_added_after_identify_is_ranked(self, how):
        rng = np.random.default_rng([397, len(how)])
        label = self.VARIANT.label
        keys = [("w", label), ("w2", label), ("w", "other")]
        reg = SpeakerRegistry()
        for word, variant_label in keys:
            for k in range(3):
                model = make_random_model(rng, 1, "ltr", "gmm", n_states=3, n_mixtures=1)
                reg.add_model(f"s{k}", word, variant_label, model)
        trials = [FeatureMatrix(make_obs(rng, "gmm", 20)) for _ in range(2)]

        def identify_all():
            return {(key, i, scoring): reg.identify(*key, obs, scoring=scoring)
                    for key in keys for i, obs in enumerate(trials) for scoring in SCORING_MODES}

        before = identify_all()
        utterances = [FeatureMatrix(make_obs(rng, "gmm", 15)) for _ in range(3)]
        if how == "add_model":
            model = make_random_model(rng, 1, "ltr", "gmm", n_states=3, n_mixtures=1)
            reg.add_model("late", "w", label, model)
        else:
            reg.enroll("late", "w", self.VARIANT, utterances, TrainConfig(max_iterations=3, seed=1))
        after = identify_all()
        for (key, i, scoring), res in after.items():
            if key != ("w", label):
                assert res == before[key, i, scoring]
                continue
            speakers = reg.speakers_for(*key)
            assert speakers == ("s0", "s1", "s2", "late")
            fresh = score_models([reg.model_for(s, *key) for s in speakers], trials[i], scoring)
            assert dict(res.ranked) == dict(zip(speakers, fresh))
            assert res.ranked == tuple(sorted(zip(speakers, fresh), key=lambda sv: -sv[1]))
            assert res.ranked != before[key, i, scoring].ranked


class TestArgmaxProperties:
    def test_decision_invariant_under_monotone_transform(self):
        # scoring returns log-likelihoods; any strictly increasing transform
        # applied to all scores leaves the ranking unchanged
        reg = SpeakerRegistry()
        centers = {"a": 0.0, "b": 2.0, "c": 4.0}
        for name, c in centers.items():
            reg.add_model(name, "w", "ltr1", point_model(c))
        for probe in (0.4, 1.9, 3.3, 5.0):
            res = reg.identify("w", "ltr1", obs_at(probe))
            scores = dict(res.ranked)
            for transform in (lambda s: 2.0 * s + 7.0, math.exp, lambda s: s**3):
                best = max(scores, key=lambda k: transform(scores[k]))
                assert best == res.predicted_speaker

    def test_deterministic(self):
        reg = SpeakerRegistry()
        reg.add_model("a", "w", "ltr1", point_model(0.0))
        reg.add_model("b", "w", "ltr1", point_model(1.0))
        fm = obs_at(0.6)
        first = reg.identify("w", "ltr1", fm)
        for _ in range(5):
            again = reg.identify("w", "ltr1", fm)
            assert again.predicted_speaker == first.predicted_speaker
            assert again.ranked == first.ranked

    def test_three_separated_speakers_all_correct(self):
        rng = np.random.default_rng(51)
        centers = {"a": -6.0, "b": 0.0, "c": 6.0}
        reg = SpeakerRegistry()
        for name, c in centers.items():
            reg.add_model(name, "w", "ltr1", point_model(c))
        n_trials = 0
        for name, c in centers.items():
            for _ in range(10):
                frames = c + 0.5 * rng.standard_normal((8, 2))
                res = reg.identify("w", "ltr1", FeatureMatrix(frames))
                assert res.predicted_speaker == name
                n_trials += 1
        assert n_trials == 30


class TestEvaluate:
    def _registry(self):
        reg = SpeakerRegistry()
        reg.add_model("a", "word0", "ltr1", point_model(0.0))
        reg.add_model("b", "word0", "ltr1", point_model(6.0))
        return reg

    def _pairs(self):
        pairs = []
        for i in range(3):
            pairs.append((row_for("a", gender="male", index=i), obs_at(0.1)))
        for i in range(3):
            pairs.append((row_for("b", gender="female", index=i), obs_at(5.9)))
        # one wrong-by-construction male trial: b's voice near a's center
        pairs.append((row_for("b", gender="male", condition="shouted", index=9), obs_at(0.0)))
        # train rows must be ignored by the default split filter
        pairs.append((row_for("a", split="train", index=8), obs_at(6.0)))
        return pairs

    def test_trials_and_accuracy(self):
        result = evaluate(self._registry(), self._pairs(), "ltr1")
        assert result.n_trials == 7
        assert all(isinstance(t, TrialRecord) for t in result.trials)
        assert result.accuracy("neutral") == pytest.approx(100.0)
        assert result.accuracy("shouted") == pytest.approx(0.0)
        assert result.accuracy("neutral", "male") == pytest.approx(100.0)
        assert result.accuracy("shouted", "female") is None

    def test_split_filter(self):
        result = evaluate(self._registry(), self._pairs(), "ltr1", split=None)
        assert result.n_trials == 8  # train row scored too

    def test_aggregates_equal_recomputation(self):
        result = evaluate(self._registry(), self._pairs(), "ltr1")
        for condition in result.conditions():
            for gender in ("male", "female"):
                got = result.accuracy(condition, gender)
                matching = [
                    t for t in result.trials
                    if t.condition == condition and t.gender == gender
                ]
                if not matching:
                    assert got is None
                    continue
                want = 100.0 * sum(t.correct for t in matching) / len(matching)
                assert got == pytest.approx(want, rel=1e-12)

    def test_average_row_is_mean_of_gender_rows(self):
        result = evaluate(self._registry(), self._pairs(), "ltr1")
        grid = result.accuracy_grid()
        for condition, cell in grid["average"].items():
            present = [
                grid[g][condition] for g in ("male", "female")
                if condition in grid.get(g, {})
            ]
            assert cell == pytest.approx(sum(present) / len(present), rel=1e-12)

    def test_published_style_average(self):
        # male 89%, female 91% -> average 90%
        pairs = []
        for i in range(100):
            target = "a" if i < 89 else "b"
            pairs.append((row_for("a", gender="male", index=i),
                          obs_at(0.0 if target == "a" else 6.0)))
        for i in range(100):
            target = "a" if i < 91 else "b"
            pairs.append((row_for("a", gender="female", index=i),
                          obs_at(0.0 if target == "a" else 6.0)))
        result = evaluate(self._registry(), pairs, "ltr1")
        grid = result.accuracy_grid()
        assert grid["male"]["neutral"] == pytest.approx(89.0)
        assert grid["female"]["neutral"] == pytest.approx(91.0)
        assert grid["average"]["neutral"] == pytest.approx(90.0)

    def test_unenrolled_word_recorded_as_skipped(self):
        pairs = [(row_for("a", word="word9"), obs_at(0.0))]
        result = evaluate(self._registry(), pairs, "ltr1")
        assert result.n_trials == 0
        assert len(result.skipped) == 1

    def test_trial_ids_identify_the_manifest_subset(self):
        result = evaluate(self._registry(), self._pairs(), "ltr1")
        assert result.trial_ids() == frozenset(
            r.utterance_id for r, _ in self._pairs() if r.split == "test"
        )

    def test_condition_order(self):
        """Known conditions come in CONDITIONS order and unknown ones are
        dropped beside them; a result with only unknown conditions keeps
        them in the order first seen, as comparison_report does."""
        def trial(condition, i):
            return TrialRecord(f"u{i}", "a", "a", "word0", condition, "male", ())

        mixed = EvalResult("ltr1", "forward", [trial(c, i) for i, c in
                                                enumerate(["loud", "shouted", "neutral", "shouted"])])
        assert mixed.conditions() == ("neutral", "shouted")
        unknown = EvalResult("ltr1", "forward", [trial(c, i) for i, c in enumerate(["loud", "soft", "loud"])])
        assert unknown.conditions() == ("loud", "soft")
        assert unknown.accuracy_grid() == {"male": {"loud": 100.0, "soft": 100.0},
                                           "average": {"loud": 100.0, "soft": 100.0}}
        report = comparison_report({"x": unknown, "y": unknown}, reference="x")
        assert report.conditions == ("loud", "soft")


class TestImprovementRate:
    def test_exact_rational_arithmetic(self):
        cases = [(95.5, 90.0), (72.0, 23.0), (95.5, 94.0), (72.0, 59.0),
                 (95.5, 92.0), (72.0, 60.0), (50.0, 50.0)]
        for new, base in cases:
            got = improvement_rate(new, base)
            want = Fraction(100) * (Fraction(new) - Fraction(base)) / Fraction(base)
            assert got == pytest.approx(float(want), rel=1e-14)

    def test_zero_for_equal_inputs(self):
        assert improvement_rate(42.0, 42.0) == 0.0

    def test_base_must_be_positive(self):
        with pytest.raises(ValueError):
            improvement_rate(50.0, 0.0)
        with pytest.raises(ValueError):
            improvement_rate(50.0, -1.0)

    def test_display_rounding(self):
        assert format_rate(improvement_rate(72.0, 23.0)) == "213.0%"
        assert format_rate(improvement_rate(95.5, 90.0)) == "6.1%"
        assert format_rate(improvement_rate(95.5, 94.0)) == "1.6%"
        assert format_rate(improvement_rate(72.0, 59.0)) == "22.0%"
        assert format_rate(improvement_rate(95.5, 92.0)) == "3.8%"
        assert format_rate(improvement_rate(72.0, 60.0)) == "20.0%"
        assert format_rate(improvement_rate(72.0, 23.0)) != "213.04%"

    def test_other_published_figures(self):
        assert format_rate(improvement_rate(59.0, 23.0)) == "156.5%"
        assert format_rate(improvement_rate(60.0, 23.0)) == "160.9%"


class TestComparisonReport:
    @staticmethod
    def _fixture():
        with open(FIXTURE, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_reference_rows_reproduced(self):
        fx = self._fixture()
        report = comparison_report(fx["grids"], reference=fx["reference"],
                                   claimed_rates=fx["claimed_rates"])
        assert isinstance(report, ComparisonReport)
        d = report.to_dict()
        assert d["rates_display"]["ltr1"] == {"neutral": "6.1%", "shouted": "213.0%"}
        assert d["rates_display"]["ltr2"] == {"neutral": "1.6%", "shouted": "22.0%"}
        assert d["rates_display"]["circ1"] == {"neutral": "3.8%", "shouted": "20.0%"}
        assert "circ2" not in d["rates"]

    def test_inconsistent_claimed_rates_flagged(self):
        fx = self._fixture()
        report = comparison_report(fx["grids"], reference=fx["reference"],
                                   claimed_rates=fx["claimed_rates"])
        flagged = "\n".join(report.flagged)
        assert "circ1" in flagged
        assert "2.7%" in flagged and "3.8%" in flagged
        assert "17.1%" in flagged and "20.0%" in flagged
        assert "ltr1" not in flagged
        assert "ltr2" not in flagged
        text = report.text()
        assert "FLAGGED" in text

    def test_matching_claims_not_flagged(self):
        fx = self._fixture()
        claims = {"ltr1": {"neutral": 6.1, "shouted": 213.0}}
        report = comparison_report(fx["grids"], reference="circ2",
                                   claimed_rates=claims)
        assert report.flagged == ()
        assert "all claimed rates match" in report.text()

    def test_identical_results_give_zero_rates(self):
        grid = {"average": {"neutral": 80.0, "shouted": 40.0}}
        report = comparison_report({"x": grid, "y": dict(grid)}, reference="x")
        assert report.rates["y"] == {"neutral": 0.0, "shouted": 0.0}

    def test_unknown_reference_rejected(self):
        fx = self._fixture()
        with pytest.raises(ValueError, match="reference"):
            comparison_report(fx["grids"], reference="nope")

    def test_needs_two_variants(self):
        with pytest.raises(ValueError):
            comparison_report({"only": {"average": {"neutral": 1.0}}}, reference="only")

    def test_mismatched_trial_sets_rejected(self):
        reg = SpeakerRegistry()
        reg.add_model("a", "word0", "ltr1", point_model(0.0))
        reg.add_model("b", "word0", "ltr1", point_model(6.0))
        reg.add_model("a", "word0", "circ1", point_model(0.0, n_states=3))
        reg.add_model("b", "word0", "circ1", point_model(6.0, n_states=3))
        pairs_a = [(row_for("a", index=0), obs_at(0.0))]
        pairs_b = [(row_for("a", index=1), obs_at(0.0))]
        ra = evaluate(reg, pairs_a, "ltr1")
        rb = evaluate(reg, pairs_b, "circ1")
        with pytest.raises(ValueError, match="different trial sets"):
            comparison_report({"ltr1": ra, "circ1": rb}, reference="circ1")

    def test_mixed_scoring_rejected(self):
        reg = SpeakerRegistry()
        reg.add_model("a", "word0", "ltr1", point_model(0.0))
        reg.add_model("a", "word0", "circ1", point_model(0.0, n_states=3))
        pairs = [(row_for("a", index=0), obs_at(0.0))]
        ra = evaluate(reg, pairs, "ltr1", scoring="forward")
        rb = evaluate(reg, pairs, "circ1", scoring="viterbi")
        with pytest.raises(ValueError, match="scoring"):
            comparison_report({"ltr1": ra, "circ1": rb}, reference="circ1")

    def test_text_layout(self):
        fx = self._fixture()
        report = comparison_report(fx["grids"], reference="circ2",
                                   claimed_rates=fx["claimed_rates"])
        text = report.text()
        assert "Accuracy by variant" in text
        assert "Improvement of circ2 over each baseline" in text
        for label in ("ltr1", "ltr2", "circ1", "circ2"):
            assert label in text
        assert "95.5%" in text
