"""Closed-set speaker identification: enrollment registry, maximum-likelihood
identification, evaluation aggregates, and cross-variant comparison reports.

Identification is closed-set: an utterance is scored against every enrolled
model for its (word, variant) key and the best-scoring speaker is returned.
The default score is the forward log-likelihood; best-path (Viterbi) scoring
is available behind a flag and reports always name which was used. Ties are
broken by enrollment order (first enrolled wins), making identification
deterministic.

Accuracy aggregates follow the two-gender reporting convention: per-gender
accuracy is correct/total over that gender's trials, and the "average" row
is the arithmetic mean of the male and female accuracies (not the pooled
trial accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import CONDITIONS, GENDERS, ManifestRow
from .features import FeatureMatrix
from .inference import SCORING_MODES, score_models
from .training import TrainConfig, TrainReport, VariantSpec, train

__all__ = [
    "SpeakerRegistry",
    "IdentifyResult",
    "TrialRecord",
    "EvalResult",
    "evaluate",
    "improvement_rate",
    "format_rate",
    "ComparisonReport",
    "comparison_report",
]

@dataclass(frozen=True)
class IdentifyResult:
    predicted_speaker: str
    scoring: str
    ranked: tuple  # ((speaker_id, score), ...) best first, ties in enrollment order


@dataclass(frozen=True)
class TrialRecord:
    utterance_id: str
    true_speaker: str
    predicted_speaker: str
    word_id: str
    condition: str
    gender: str
    scores: tuple  # ((speaker_id, score), ...) best first

    @property
    def correct(self) -> bool:
        return self.predicted_speaker == self.true_speaker


class SpeakerRegistry:
    """Holds one trained model per (speaker, word, variant label) key.

    Enrollment order of speakers is recorded once (on their first entry) and
    used for tie-breaks everywhere.
    """

    def __init__(self):
        self._models: dict[tuple[str, str, str], object] = {}
        self._speaker_order: list[str] = []

    def keys(self):
        return tuple(self._models.keys())

    def model_for(self, speaker_id: str, word_id: str, variant_label: str):
        return self._models[(speaker_id, word_id, variant_label)]

    def _free_key(self, speaker_id, word_id, variant_label):
        """The registry key, which must not be enrolled yet."""
        key = (speaker_id, word_id, variant_label)
        if key in self._models:
            raise ValueError(f"already enrolled: speaker={speaker_id} word={word_id} variant={variant_label}")
        return key

    def _register(self, key, model):
        self._models[key] = model
        if key[0] not in self._speaker_order:
            self._speaker_order.append(key[0])

    def add_model(self, speaker_id: str, word_id: str, variant_label: str, model) -> None:
        """Register an already-trained model under an explicit variant label."""
        self._register(self._free_key(speaker_id, word_id, variant_label), model)

    def enroll(self, speaker_id: str, word_id: str, variant: VariantSpec,
               utterances, config: TrainConfig = TrainConfig()) -> TrainReport:
        """Train a model on the given utterances and register it.

        The registry key uses variant.label; training failures propagate and
        leave the registry unchanged.
        """
        utterances = list(utterances)
        if not utterances:
            raise ValueError("enroll needs at least one training utterance")
        key = self._free_key(speaker_id, word_id, variant.label)
        report = train(variant, utterances, config)
        self._register(key, report.model)
        return report

    def speakers_for(self, word_id: str, variant_label: str) -> tuple:
        """Speakers with a model for this key, in enrollment order."""
        have = {s for s, w, v in self._models if w == word_id and v == variant_label}
        return tuple(s for s in self._speaker_order if s in have)

    def identify(self, word_id: str, variant_label: str, utterance: FeatureMatrix,
                 scoring: str = SCORING_MODES[0]) -> IdentifyResult:
        """Score the utterance against every enrolled speaker for the key and
        return the best. The candidates are scored together (see
        inference.score_models). Raises LookupError when nobody is enrolled."""
        candidates = self.speakers_for(word_id, variant_label)
        if not candidates:
            raise LookupError(f"no models enrolled for word={word_id} variant={variant_label}")
        models = [self._models[(speaker, word_id, variant_label)] for speaker in candidates]
        scored = list(zip(candidates, score_models(models, utterance, scoring)))
        ranked = tuple(sorted(scored, key=lambda sv: -sv[1]))   # stable: ties in enrollment order
        return IdentifyResult(predicted_speaker=ranked[0][0], scoring=scoring, ranked=ranked)


def _ordered_conditions(conditions) -> tuple:
    """The distinct ``conditions`` in CONDITIONS order or, when none of them
    is a known condition, in the order first seen."""
    seen = tuple(dict.fromkeys(conditions))
    return tuple(c for c in CONDITIONS if c in seen) or seen


@dataclass
class EvalResult:
    """Per-trial identification records plus recomputable aggregates."""

    variant_label: str
    scoring: str
    trials: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def accuracy(self, condition: str | None = None, gender: str | None = None) -> float | None:
        """Percent correct over matching trials; None when none match."""
        hits = total = 0
        for t in self.trials:
            if condition is not None and t.condition != condition:
                continue
            if gender is not None and t.gender != gender:
                continue
            total += 1
            hits += t.correct
        if total == 0:
            return None
        return 100.0 * hits / total

    def conditions(self) -> tuple:
        return _ordered_conditions(t.condition for t in self.trials)

    def accuracy_grid(self) -> dict:
        """{gender or "average": {condition: percent}}; the average row is the
        mean of the per-gender accuracies that exist."""
        grid: dict[str, dict[str, float]] = {}
        conds = self.conditions()
        for g in GENDERS:
            row = {}
            for c in conds:
                acc = self.accuracy(condition=c, gender=g)
                if acc is not None:
                    row[c] = acc
            if row:
                grid[g] = row
        avg = {}
        for c in conds:
            vals = [grid[g][c] for g in GENDERS if g in grid and c in grid[g]]
            if vals:
                avg[c] = sum(vals) / len(vals)
        if avg:
            grid["average"] = avg
        return grid

    def trial_ids(self) -> frozenset:
        return frozenset(t.utterance_id for t in self.trials)


def evaluate(registry: SpeakerRegistry, pairs, variant_label: str,
             scoring: str = SCORING_MODES[0], split: str | None = "test") -> EvalResult:
    """Run identification over (ManifestRow, FeatureMatrix) pairs.

    Only rows matching ``split`` are used (None means all rows). Rows whose
    (word, variant) key has no enrolled models are recorded in .skipped
    rather than failing the whole run.
    """
    result = EvalResult(variant_label=variant_label, scoring=scoring)
    for row, fm in pairs:
        if not isinstance(row, ManifestRow):
            raise TypeError("evaluate expects (ManifestRow, FeatureMatrix) pairs")
        if split is not None and row.split != split:
            continue
        try:
            ident = registry.identify(row.word_id, variant_label, fm, scoring=scoring)
        except LookupError:
            result.skipped.append(row.utterance_id)
            continue
        result.trials.append(
            TrialRecord(
                utterance_id=row.utterance_id,
                true_speaker=row.speaker_id,
                predicted_speaker=ident.predicted_speaker,
                word_id=row.word_id,
                condition=row.condition,
                gender=row.gender,
                scores=ident.ranked,
            )
        )
    return result


# ---------------------------------------------------------------------------
# comparison arithmetic
# ---------------------------------------------------------------------------

def improvement_rate(new_pct: float, base_pct: float) -> float:
    """Relative improvement 100 * (new - base) / base, full precision.

    base_pct must be strictly positive.
    """
    if base_pct <= 0:
        raise ValueError(f"base percentage must be > 0, got {base_pct}")
    return 100.0 * (new_pct - base_pct) / base_pct


def format_rate(rate: float) -> str:
    """One-decimal display form used in reports, e.g. 213.043... -> '213.0%'."""
    return f"{rate:.1f}%"


@dataclass(frozen=True)
class ComparisonReport:
    """Accuracy grid per variant plus improvement rates of a reference
    variant over every other, with optional claimed-rate cross-checks."""

    reference: str
    scoring: str
    conditions: tuple
    grids: dict          # variant -> {gender/average -> {condition -> pct}}
    rates: dict          # variant (!= reference) -> {condition -> full-precision rate}
    flagged: tuple       # human-readable discrepancy notes
    claimed: dict | None

    def to_dict(self) -> dict:
        return {
            "reference": self.reference,
            "scoring": self.scoring,
            "conditions": list(self.conditions),
            "grids": {v: {g: dict(row) for g, row in grid.items()} for v, grid in self.grids.items()},
            "rates": {v: dict(row) for v, row in self.rates.items()},
            "rates_display": {
                v: {c: format_rate(r) for c, r in row.items()} for v, row in self.rates.items()
            },
            "flagged": list(self.flagged),
            "claimed": None if self.claimed is None else {v: dict(row) for v, row in self.claimed.items()},
        }

    def text(self) -> str:
        lines = []
        conds = list(self.conditions)
        width = max([len("variant")] + [len(v) for v in self.grids])
        lines.append(f"Accuracy by variant (scoring: {self.scoring})")
        header = f"{'variant':<{width}}  {'row':<8}" + "".join(f"  {c:>9}" for c in conds)
        lines.append(header)
        for v, grid in self.grids.items():
            first = True
            for label in (*GENDERS, "average"):
                if label not in grid:
                    continue
                cells = "".join(
                    f"  {format_rate(grid[label][c]):>9}" if c in grid[label] else f"  {'-':>9}"
                    for c in conds
                )
                lines.append(f"{(v if first else ''):<{width}}  {label:<8}{cells}")
                first = False
        lines.append("")
        lines.append(f"Improvement of {self.reference} over each baseline (average rows)")
        lines.append(f"{'variant':<{width}}" + "".join(f"  {c:>9}" for c in conds))
        for v, row in self.rates.items():
            cells = "".join(
                f"  {format_rate(row[c]):>9}" if c in row else f"  {'-':>9}" for c in conds
            )
            lines.append(f"{v:<{width}}{cells}")
        if self.claimed is not None:
            lines.append("")
            lines.append("Claimed-rate check")
            if self.flagged:
                for note in self.flagged:
                    lines.append(f"  FLAGGED: {note}")
            else:
                lines.append("  all claimed rates match the computed arithmetic")
        return "\n".join(lines) + "\n"


def _grid_of(entry) -> dict:
    if isinstance(entry, EvalResult):
        return entry.accuracy_grid()
    if isinstance(entry, dict):
        return {g: dict(row) for g, row in entry.items()}
    raise TypeError("comparison_report entries must be EvalResult or grid dicts")


def comparison_report(results: dict, reference: str,
                      claimed_rates: dict | None = None,
                      scoring: str | None = None) -> ComparisonReport:
    """Build the cross-variant report.

    ``results`` maps variant label to either an EvalResult or a plain grid
    dict ({gender/average: {condition: pct}}). When EvalResults are given,
    they must all cover the same trial set (same manifest) and use the same
    scoring mode. ``claimed_rates`` maps baseline variant labels to claimed
    {condition: pct} improvement rates; any entry whose one-decimal display
    differs from the computed arithmetic is flagged, not corrected.
    """
    if len(results) < 2:
        raise ValueError("need results for at least 2 variants")
    if reference not in results:
        raise ValueError(f"reference variant {reference!r} not among results")
    eval_results = {v: r for v, r in results.items() if isinstance(r, EvalResult)}
    if eval_results:
        ids = {v: r.trial_ids() for v, r in eval_results.items()}
        first_v = next(iter(ids))
        for v, s in ids.items():
            if s != ids[first_v]:
                raise ValueError(
                    f"variants {first_v!r} and {v!r} were evaluated on different trial sets"
                )
        modes = {r.scoring for r in eval_results.values()}
        if len(modes) > 1:
            raise ValueError(f"mixed scoring modes: {sorted(modes)}")
        if scoring is None:
            scoring = next(iter(modes))
    if scoring is None:
        scoring = SCORING_MODES[0]

    grids = {v: _grid_of(r) for v, r in results.items()}
    conditions = _ordered_conditions(c for grid in grids.values() for c in grid.get("average", {}))

    ref_avg = grids[reference].get("average", {})
    rates: dict[str, dict[str, float]] = {}
    for v, grid in grids.items():
        if v == reference:
            continue
        row = {}
        for c in conditions:
            if c in ref_avg and c in grid.get("average", {}):
                row[c] = improvement_rate(ref_avg[c], grid["average"][c])
        rates[v] = row

    flagged = []
    if claimed_rates is not None:
        for v, claimed_row in claimed_rates.items():
            if v not in rates:
                flagged.append(f"claimed rates given for unknown variant {v!r}")
                continue
            for c, claimed in claimed_row.items():
                if c not in rates[v]:
                    flagged.append(f"{v} {c}: claimed {format_rate(float(claimed))} but no computed rate")
                    continue
                if format_rate(rates[v][c]) != format_rate(float(claimed)):
                    flagged.append(
                        f"{v} {c}: computed {format_rate(rates[v][c])} "
                        f"differs from claimed {format_rate(float(claimed))}"
                    )
    return ComparisonReport(
        reference=reference,
        scoring=scoring,
        conditions=conditions,
        grids=grids,
        rates=rates,
        flagged=tuple(flagged),
        claimed=claimed_rates,
    )
