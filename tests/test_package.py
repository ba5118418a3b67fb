"""The package's public names are the union of its modules' __all__ lists."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import hmmsid
from hmmsid import corpus, errors, features, inference, models, speaker_id, training

MODULES = (errors, models, inference, training, features, corpus, speaker_id)

# The package exports as listed by hand before they were derived from the
# module lists; the derivation added MANIFEST_COLUMNS and nothing else.
# score_models (stacked candidate scoring) was added to inference later;
# write_features_text and read_features_text were removed with their format,
# backward1 and backward2, which no caller used, were removed;
# init_ltr, init_circular1 and init_circular2, which only tests called, were
# removed once train built every starting chain itself; and inference's
# unscaled order-1 likelihood summed over one transition and its single-path
# joint log-probability, which only tests called, were removed (tests score
# a path with oracles.path_log_probs).
HAND_LISTED_EXPORTS = {
    "ComparisonReport", "CorpusSpec", "DegenerateFrameError", "DiscreteEmission",
    "EvalResult", "FeatureMatrix", "FeatureMeta", "FrontendConfig", "GmmEmission",
    "Hmm1Model", "Hmm2Model", "IdentifyResult", "ImpossibleObservationError",
    "ManifestRow", "SignalTooShortError", "SpeakerRegistry", "StatePath",
    "TopologyMask", "TrainConfig", "TrainReport", "TrellisLattice", "TrialRecord",
    "UtteranceTooShortError", "VariantSpec", "__version__", "autocorrelation",
    "baum_welch1", "baum_welch2",
    "cepstral_mean_subtraction", "circular_topology", "comparison_report",
    "custom_topology", "decode_pair_path", "embed_pair_states", "evaluate",
    "extract_features", "format_rate", "forward1", "forward2",
    "forward_backward1", "forward_backward2", "frame_and_window",
    "generate_synthetic_corpus", "improvement_rate",
    "load_audio", "load_corpus", "load_model", "load_raw", "load_wav", "log_emission_matrix",
    "lpc_levinson_durbin", "lpc_to_cepstrum", "ltr_topology", "model_from_dict",
    "model_to_dict", "pre_emphasize", "read_features",
    "read_manifest", "sample_corpus", "save_model", "segmental_kmeans_init",
    "symmetrize_ring_transitions", "train", "validate",
    "viterbi1", "viterbi2", "write_features", "write_manifest",
}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_resolve_to_the_package(module):
    for name in module.__all__:
        assert getattr(hmmsid, name) is getattr(module, name), name


def test_package_exports_are_the_module_union():
    names = hmmsid.__all__
    assert len(names) == len(set(names))
    assert set(names) == HAND_LISTED_EXPORTS | {"MANIFEST_COLUMNS", "score_models"}
    assert len(HAND_LISTED_EXPORTS) == 68


def _imported_modules(path):
    """Every module a source file imports, with the names it takes from it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def test_no_module_imports_scipy():
    """numpy is the only runtime dependency. k-means is training._kmeans,
    and emission log-sum-exp is the plain-numpy kernel (scipy.special's
    per-call array-API dispatch once took half of the desk workload)."""
    sources = sorted(pathlib.Path(hmmsid.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        found = [m for m in _imported_modules(path) if _is_scipy(m)]
        assert found == [], f"{path.name} imports {found}"


def test_import_loads_no_scipy_module():
    """A fresh interpreter that imports the package and its command line
    holds no scipy module, so no process pays scipy's import time."""
    src = str(pathlib.Path(hmmsid.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, hmmsid, hmmsid.cli; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "hmmsid.cli" in done.stdout.split()
    assert [m for m in done.stdout.split() if _is_scipy(m)] == []


def _perfbench_tracing():
    """perfbench/tracing.py, imported by path (perfbench is not a package)."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_restores():
    """The benchmark's span tracer wraps every public function of the
    traced modules and the methods it names, each looked up in its own
    class's __dict__ (a method moved to a base class fails here), records
    a span per call, and on uninstall restores every attribute it
    patched."""
    tracing = _perfbench_tracing()
    classes = [(getattr(getattr(hmmsid, layer), name), methods)
               for layer, by_class in tracing.METHODS.items() for name, methods in by_class.items()]
    owners = [getattr(hmmsid, layer) for layer in tracing.LAYERS] + [cls for cls, _ in classes]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install(hmmsid)
    try:
        for cls, methods in classes:
            for name in methods:
                assert vars(cls)[name].__wrapped__ is before[owners.index(cls)][name]
        assert models.ltr_topology.__wrapped__ is before[owners.index(models)]["ltr_topology"]
        emission = models.GmmEmission([1.0], [[0.0]], [[1.0]])
        emission.log_density([[0.5]])
        assert "models.GmmEmission.log_density" in tracer.names
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert all(now[name] is value for name, value in attrs.items()), owner
