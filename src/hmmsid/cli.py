"""Command-line entry point.

Subcommands: ``features`` (audio -> feature caches), ``train`` (manifest ->
model store), ``evaluate`` (manifest + models -> accuracy/comparison
reports), ``synth`` (spec -> synthetic dataset), ``inspect`` (pretty-print a
model file).

Configuration precedence, lowest to highest: built-in defaults, the JSON
file named by --config, environment variables, command-line flags. The full
merged configuration is hashed and the hash embedded in report outputs so a
result can be traced to its exact settings.

Environment overrides use the HMMSID_ prefix with double underscores for
nesting: ``HMMSID_SCORING=viterbi``, ``HMMSID_FRONTEND__CMS=true``,
``HMMSID_VARIANT__N_STATES=7``. Values are parsed as JSON when possible,
otherwise taken as strings.

Exit codes: 0 success, 1 hard failure, 2 no work to do or degenerate input.
Every command is deterministic given its configuration and seed — outputs
carry no timestamps, and reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from .corpus import (
    CorpusSpec,
    generate_synthetic_corpus,
    load_corpus,
    read_manifest,
    write_manifest,
)
from .errors import DegenerateFrameError, SignalTooShortError
from .features import (
    FrontendConfig,
    config_digest,
    extract_features,
    load_audio,
    write_features,
)
from .fileio import atomic_write, read_json_object, write_json
from .models import load_model, save_model, validate
from .speaker_id import (
    SCORING_MODES,
    SpeakerRegistry,
    comparison_report,
    evaluate,
    format_rate,
)
from .training import TrainConfig, VariantSpec, train

ENV_PREFIX = "HMMSID_"
MAX_STATES = 64
MAX_MIXTURES = 64

# --variant's labels and the (topology, order) each one sets.
VARIANT_LABELS = {
    VariantSpec(order=order, topology=topology).label: (topology, order)
    for topology in ("ltr", "circular")
    for order in (1, 2)
}


class CliError(Exception):
    """Hard configuration/input failure -> exit code 1."""


# Configuration sections: the dataclass each one builds (whose field
# defaults are the built-in defaults) and its name in error messages.
_SECTIONS = {
    "frontend": (FrontendConfig, "frontend"),
    "train": (TrainConfig, "training"),
    "variant": (VariantSpec, "variant"),
}


def _defaults() -> dict:
    cfg = {key: asdict(cls()) for key, (cls, _) in _SECTIONS.items()}
    # Every key feeds config_hash; "emission" was never a default key, so
    # adding it would change the hash of every model file and report.
    del cfg["variant"]["emission"]
    cfg["scoring"] = SCORING_MODES[0]
    return cfg


def _deep_update(base: dict, extra: dict) -> dict:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def _env_overrides(environ) -> dict:
    out: dict = {}
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = [p.lower() for p in name[len(ENV_PREFIX):].split("__") if p]
        if not path:
            continue
        try:
            value = json.loads(raw)
        except (json.JSONDecodeError, ValueError):
            value = raw
        node = out
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise CliError(f"environment override {name} conflicts with a scalar setting")
        node[path[-1]] = value
    return out


def _merged_config(args, environ=None) -> dict:
    """Merge defaults <- config file <- environment <- flags, unchecked."""
    cfg = _defaults()
    if getattr(args, "config", None):
        _deep_update(cfg, read_json_object(args.config))
    _deep_update(cfg, _env_overrides(os.environ if environ is None else environ))

    flag_cfg: dict = {}
    if getattr(args, "variant", None):
        if args.variant not in VARIANT_LABELS:
            raise CliError(f"--variant must be one of {sorted(VARIANT_LABELS)}")
        topology, order = VARIANT_LABELS[args.variant]
        flag_cfg.setdefault("variant", {}).update({"topology": topology, "order": order})
    if getattr(args, "states", None) is not None:
        flag_cfg.setdefault("variant", {})["n_states"] = args.states
    if getattr(args, "mixtures", None) is not None:
        flag_cfg.setdefault("variant", {})["n_mixtures"] = args.mixtures
    if getattr(args, "cms", None) is not None:
        flag_cfg.setdefault("frontend", {})["cms"] = args.cms
    if getattr(args, "scoring", None) is not None:
        flag_cfg["scoring"] = args.scoring
    if getattr(args, "seed", None) is not None:
        flag_cfg.setdefault("train", {})["seed"] = args.seed
    return _deep_update(cfg, flag_cfg)


def build_config(args, environ=None) -> dict:
    """Merge defaults <- config file <- environment <- flags, and check the
    model and scoring settings."""
    cfg = _merged_config(args, environ)
    v = cfg["variant"]
    if not 1 <= int(v["n_states"]) <= MAX_STATES:
        raise CliError(f"n_states must be in [1, {MAX_STATES}]")
    if not 1 <= int(v["n_mixtures"]) <= MAX_MIXTURES:
        raise CliError(f"n_mixtures must be in [1, {MAX_MIXTURES}]")
    if cfg["scoring"] not in SCORING_MODES:
        raise CliError(f"scoring must be one of {SCORING_MODES}")
    return cfg


def _section(cfg: dict, key: str):
    """Build the dataclass of configuration section ``key``."""
    cls, what = _SECTIONS[key]
    try:
        return cls(**cfg[key])
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad {what} configuration: {exc}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_features(args) -> int:
    # only the front-end section: features neither hashes nor reads the rest
    frontend = _section(_merged_config(args), "frontend")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    jobs = []  # (display name, audio path, cache path, manifest row or None)
    if args.manifest:
        rows = read_manifest(args.manifest)
        base = os.path.dirname(os.fspath(args.manifest))
        for row in rows:
            jobs.append(
                (
                    row.utterance_id,
                    os.path.join(base, row.path),
                    os.path.join(out_dir, f"{row.utterance_id}.lpcf"),
                    row,
                )
            )
    for path in args.inputs:
        stem = os.path.splitext(os.path.basename(path))[0]
        jobs.append((stem, path, os.path.join(out_dir, f"{stem}.lpcf"), None))

    if not jobs:
        print("no input files (give audio paths or --manifest)", file=sys.stderr)
        return 2

    failures = 0
    new_rows = []
    for name, audio_path, cache_path, row in jobs:
        try:
            signal = load_audio(audio_path, frontend)
            fm = extract_features(signal, frontend, source=name)
            write_features(fm, cache_path)
        except (OSError, ValueError, DegenerateFrameError, SignalTooShortError) as exc:
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        degen = len(fm.meta.degenerate_frames)
        note = f" degenerate_frames={degen}" if degen else ""
        print(f"ok {name}: frames={fm.n_frames} dims={fm.n_dims} cms={int(fm.meta.cms_applied)}{note}")
        if row is not None:
            new_rows.append(replace(row, path=f"{row.utterance_id}.lpcf"))
    if new_rows:
        write_manifest(new_rows, os.path.join(out_dir, "manifest.tsv"))
        print(f"wrote {os.path.join(out_dir, 'manifest.tsv')} ({len(new_rows)} rows)")
    return 1 if failures else 0


def cmd_train(args) -> int:
    cfg = build_config(args)
    variant = _section(cfg, "variant")
    train_cfg = _section(cfg, "train")
    cfg_hash = config_digest(cfg)

    pairs = load_corpus(args.manifest)
    groups: dict[tuple[str, str], list] = {}
    conditions: dict[tuple[str, str], str] = {}
    for row, fm in pairs:
        if row.split != "train":
            continue
        groups.setdefault((row.speaker_id, row.word_id), []).append(fm)
        conditions.setdefault((row.speaker_id, row.word_id), row.condition)
    if not groups:
        print("manifest has no train-split rows", file=sys.stderr)
        return 2

    out_dir = os.path.join(args.out, variant.label)
    os.makedirs(out_dir, exist_ok=True)
    failures = 0
    for (speaker, word) in sorted(groups):
        try:
            report = train(variant, groups[(speaker, word)], train_cfg)
        except ValueError as exc:  # keep going; partial progress is useful
            print(f"FAIL {speaker}/{word}: {exc}", file=sys.stderr)
            failures += 1
            continue
        meta = report.training_metadata(
            speaker_id=speaker,
            word_id=word,
            variant=variant.label,
            condition=conditions[(speaker, word)],
            config_hash=cfg_hash,
        )
        path = os.path.join(out_dir, f"{speaker}__{word}.json")
        save_model(report.model, path, training=meta)
        tag = "converged" if report.converged else "max-iterations"
        print(
            f"ok {speaker}/{word}: ll={report.final_log_likelihood:.6f} "
            f"iters={report.iterations_run} ({tag}) -> {path}"
        )
    return 1 if failures else 0


def _load_model_store(models_dir: str) -> dict:
    """Scan a model store: {variant_label: [(speaker, word, model)]}.

    Layout is <models_dir>/<variant_label>/<speaker>__<word>.json; files are
    read in sorted order so enrollment order (and tie-breaks) is stable. A
    model that ``validate`` rejects raises CliError naming the file and
    its first problem (``inspect`` lists them all).
    """
    store: dict[str, list] = {}
    if not os.path.isdir(models_dir):
        raise CliError(f"model store {models_dir!r} is not a directory")
    for label in sorted(os.listdir(models_dir)):
        sub = os.path.join(models_dir, label)
        if not os.path.isdir(sub):
            continue
        entries = []
        for fn in sorted(os.listdir(sub)):
            if not fn.endswith(".json"):
                continue
            path = os.path.join(sub, fn)
            model, header = load_model(path)
            problems = validate(model)
            if problems:
                raise CliError(f"{path}: invalid model: {problems[0]}")
            meta = header.get("training") or {}
            for key in ("speaker_id", "word_id"):
                if meta.get(key) is not None and not isinstance(meta[key], str):
                    raise CliError(f"{path}: training.{key} is not a string")
            stem = fn[:-5]
            speaker = meta.get("speaker_id") or stem.split("__")[0]
            word = meta.get("word_id") or (stem.split("__")[1] if "__" in stem else stem)
            entries.append((speaker, word, model))
        if entries:
            store[label] = entries
    return store


def _is_grid_set(value, depth=3) -> bool:
    """Whether ``value`` nests ``depth`` JSON objects (variant -> row ->
    condition) over numbers."""
    if depth == 0:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, dict) and all(_is_grid_set(v, depth - 1) for v in value.values())


def cmd_evaluate(args) -> int:
    cfg = build_config(args)
    cfg_hash = config_digest(cfg)
    os.makedirs(args.out, exist_ok=True)

    if args.from_grids:
        fixture = read_json_object(args.from_grids)
        try:
            grids = fixture["grids"]
            reference = args.reference or fixture["reference"]
        except KeyError as exc:
            raise CliError(f"fixtures file missing key: {exc}")
        if not _is_grid_set(grids):
            raise CliError(f"{args.from_grids}: grids must map variant -> row -> condition -> number")
        if not isinstance(reference, str):
            raise CliError(f"{args.from_grids}: reference must be a variant label (a string)")
        claimed_rates = fixture.get("claimed_rates")
        if claimed_rates is not None and not _is_grid_set(claimed_rates, depth=2):
            raise CliError(f"{args.from_grids}: claimed_rates must map variant -> condition -> number")
        report = comparison_report(
            grids,
            reference=reference,
            claimed_rates=claimed_rates,
            scoring=cfg["scoring"],
        )
        payload = report.to_dict()
        payload["config_hash"] = cfg_hash
        write_json(os.path.join(args.out, "comparison.json"), payload)
        atomic_write(os.path.join(args.out, "comparison.txt"), report.text())
        print(report.text(), end="")
        return 0

    if not args.manifest or not args.models:
        raise CliError("evaluate needs --manifest and --models (or --from-grids)")
    pairs = load_corpus(args.manifest)
    store = _load_model_store(args.models)
    if not store:
        print("model store is empty", file=sys.stderr)
        return 2

    results = {}
    for label, entries in store.items():
        registry = SpeakerRegistry()
        for speaker, word, model in entries:
            registry.add_model(speaker, word, label, model)
        results[label] = evaluate(registry, pairs, label, scoring=cfg["scoring"], split="test")

    total_trials = sum(r.n_trials for r in results.values())
    if total_trials == 0:
        print("no test trials could be scored (empty test split or no matching models)", file=sys.stderr)
        return 2

    payload = {
        "config_hash": cfg_hash,
        "scoring": cfg["scoring"],
        "variants": {
            label: {
                "n_trials": r.n_trials,
                "skipped": list(r.skipped),
                "grid": r.accuracy_grid(),
            }
            for label, r in results.items()
        },
    }
    lines = []
    for label, r in results.items():
        lines.append(f"variant {label}: {r.n_trials} trials, {len(r.skipped)} skipped")
        for row_name, row in r.accuracy_grid().items():
            cells = "  ".join(f"{c}={format_rate(pct)}" for c, pct in row.items())
            lines.append(f"  {row_name:<8} {cells}")
    text = "\n".join(lines) + "\n"

    if len(results) >= 2:
        reference = args.reference or ("circ2" if "circ2" in results else sorted(results)[0])
        if reference not in results:
            raise CliError(f"--reference {reference!r} has no evaluated models")
        comp = comparison_report(results, reference=reference)
        payload["comparison"] = comp.to_dict()
        text += "\n" + comp.text()

    write_json(os.path.join(args.out, "evaluation.json"), payload)
    atomic_write(os.path.join(args.out, "evaluation.txt"), text)
    print(text, end="")
    return 0


def cmd_synth(args) -> int:
    spec_dict = {}
    if args.spec:
        spec_dict = read_json_object(args.spec)
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    try:
        spec = CorpusSpec.from_dict(spec_dict)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad corpus spec: {exc}")
    manifest_path = generate_synthetic_corpus(spec, args.out)
    rows = read_manifest(manifest_path)
    n_train = sum(1 for r in rows if r.split == "train")
    n_test = len(rows) - n_train
    print(
        f"wrote {manifest_path}: {len(rows)} utterances "
        f"({spec.n_speakers} speakers x {spec.n_words} words; {n_train} train, {n_test} test)"
    )
    return 0


def cmd_inspect(args) -> int:
    model, header = load_model(args.model)
    problems = validate(model)
    lines = [
        f"file: {args.model}",
        f"format: {header.get('format')} v{header.get('format_version')}",
        f"order: {model.order}",
        f"topology: {model.mask.kind} (n_states={model.n_states})",
        f"emissions: {model.emissions[0]}",
    ]
    training = header.get("training")
    if training:
        for key in sorted(training):
            lines.append(f"training.{key}: {training[key]}")
    lines.append("valid: yes" if not problems else "valid: NO")
    for p in problems:
        lines.append(f"  problem: {p}")
    print("\n".join(lines))
    return 0 if not problems else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, model: bool = True) -> None:
    """--config and --cms/--no-cms; with ``model``, also the model and
    scoring options, which only train and evaluate read."""
    parser.add_argument("--config", help="JSON configuration file")
    cms = parser.add_mutually_exclusive_group()
    cms.add_argument("--cms", dest="cms", action="store_true", default=None,
                     help="apply per-utterance cepstral mean subtraction")
    cms.add_argument("--no-cms", dest="cms", action="store_false", default=None,
                     help="disable cepstral mean subtraction")
    if model:
        parser.add_argument("--variant", help="model variant label: ltr1, ltr2, circ1, circ2")
        parser.add_argument("--states", type=int, help="number of states")
        parser.add_argument("--mixtures", type=int, help="Gaussian mixtures per state")
        parser.add_argument("--scoring", choices=SCORING_MODES, help="identification score")
        parser.add_argument("--seed", type=int, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmmsid",
        description="Hidden-Markov speaker identification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract feature caches from audio")
    p.add_argument("inputs", nargs="*", help="audio files (.wav or raw 16-bit PCM)")
    p.add_argument("--manifest", help="manifest whose paths point at audio files")
    p.add_argument("--out", required=True, help="output directory for caches")
    _add_common(p, model=False)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train one model per (speaker, word)")
    p.add_argument("--manifest", required=True, help="manifest with feature-cache paths")
    p.add_argument("--out", required=True, help="model store root directory")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="closed-set identification report")
    p.add_argument("--manifest", help="manifest with feature-cache paths")
    p.add_argument("--models", help="model store root (as written by train)")
    p.add_argument("--from-grids", help="JSON fixtures with accuracy grids to compare")
    p.add_argument("--reference", help="variant label to compare the others against")
    p.add_argument("--out", required=True, help="report output directory")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", help="JSON corpus description (defaults used when omitted)")
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--seed", type=int, help="override the corpus description's seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="pretty-print a serialized model")
    p.add_argument("model", help="model JSON file")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
