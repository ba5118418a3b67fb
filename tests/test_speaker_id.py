import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from hmmsid.corpus import ManifestRow
from hmmsid.features import FeatureMatrix, FeatureMeta
from hmmsid.models import GmmEmission, Hmm1Model, circular_topology, ltr_topology
from hmmsid.inference import forward1, viterbi1
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
from hmmsid.training import TrainConfig, VariantSpec

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

    def test_forward_score_matches_inference(self):
        model = point_model(0.0)
        fm = obs_at(0.3)
        reg = SpeakerRegistry()
        reg.add_model("a", "w", "ltr1", model)
        res = reg.identify("w", "ltr1", fm)
        assert res.ranked[0][1] == pytest.approx(
            forward1(model, fm.frames).log_likelihood, rel=1e-12
        )

    def test_viterbi_scoring_mode(self):
        model = point_model(0.0)
        fm = obs_at(0.3)
        reg = SpeakerRegistry()
        reg.add_model("a", "w", "ltr1", model)
        res = reg.identify("w", "ltr1", fm, scoring="viterbi")
        assert res.scoring == "viterbi"
        assert res.ranked[0][1] == pytest.approx(
            viterbi1(model, fm.frames).log_prob, rel=1e-12
        )

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
