"""Spans around calls into the hmmsid modules, recorded from outside them.

`Tracer.install` replaces every public function of the traced modules at
each place a module binds its name (so ``hmmsid.speaker_id.forward2`` and
``hmmsid.inference.forward2`` both get a wrapper), plus a few public
methods, with a wrapper that records one span per call: name, start, end
and parent. Spans stay in memory until `write` puts them in a file.
Nothing under ``src/`` changes; `uninstall` restores every original.

A span's self time is its duration minus the durations of its direct
children. Spans nest strictly (one thread), so the self times of every
span under a root add up to the root's duration exactly.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("features", "corpus", "models", "inference", "training", "speaker_id")
HARNESS = "bench"

# Public methods traced in addition to module-level functions.
METHODS = {
    "models": {"GmmEmission": ("log_density", "component_log_density")},
    "speaker_id": {"SpeakerRegistry": ("enroll", "identify")},
}


def _n_frames(obs):
    x = obs.frames if hasattr(obs, "frames") else obs
    return int(np.shape(x)[0])


def _lattice_terms(order):
    """Transition terms of one recursion, computed from the input shapes:
    T*N^2 for order 1, T*N^3 for order 2."""
    def count(args, kwargs, result):
        model, obs = args[0], args[1]
        return {"terms": _n_frames(obs) * model.n_states ** (order + 1)}
    return count


def _frames_arg(args, kwargs, result):
    return {"frames": _n_frames(args[1])}


def _baum_welch(args, kwargs, result):
    return {"iterations": result.iterations_run, "converged": int(result.converged)}


def _identify(args, kwargs, result):
    return {"candidates": len(result.ranked)}


def _extract(args, kwargs, result):
    return {"frames": result.n_frames, "degenerate": len(result.meta.degenerate_frames)}


def _write_features(args, kwargs, result):
    fm = args[0]
    return {"bytes": 24 + 8 * fm.frames.size}


def _read_features(args, kwargs, result):
    return {"bytes": 24 + 8 * result.frames.size}


# Work counts taken at the boundary, keyed by span name.
COUNTERS = {
    "models.GmmEmission.log_density": _frames_arg,
    "inference.forward1": _lattice_terms(1),
    "inference.forward2": _lattice_terms(2),
    "inference.viterbi1": _lattice_terms(1),
    "inference.viterbi2": _lattice_terms(2),
    "training.baum_welch1": _baum_welch,
    "training.baum_welch2": _baum_welch,
    "speaker_id.SpeakerRegistry.identify": _identify,
    "features.extract_features": _extract,
    "features.write_features": _write_features,
    "features.read_features": _read_features,
}


class Tracer:
    """In-memory span recorder. One instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _wrap(self, fn, name):
        tracer = self
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                bucket = tracer.counts[name]
                for key, value in counter(args, kwargs, result).items():
                    bucket[key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing wrappers ---------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every traced module of ``package``
        where each module binds them, and the methods named in METHODS."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                owner = value.__module__.rsplit(".", 1)[-1]
                if not value.__module__.startswith(package.__name__ + ".") or owner not in LAYERS:
                    continue
                self._patch(module, attr, self._wrap(value, f"{owner}.{attr}"))
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    self._patch(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}"))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def arrays(self):
        """(name index, duration, self time) of every span as numpy arrays."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child_sum = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        return nid, dur, dur - child_sum

    def subtree(self, root: int) -> slice:
        """Index range of a top-level span and everything under it. Spans
        are appended in start order, so the subtree is contiguous."""
        if self.parent[root] != -1:
            raise ValueError("subtree() takes a top-level span")
        end = root + 1
        while end < len(self.parent) and self.parent[end] != -1:
            end += 1
        return slice(root, end)

    def write(self, path) -> None:
        """Write every span as one gzip'd JSON document of parallel columns
        (times in seconds from the first span)."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": self.name_id,
            "start": [round(s - t0, 9) for s in self.start],
            "end": [round(e - t0, 9) for e in self.end],
            "parent": self.parent,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else HARNESS


def span_cost() -> float:
    """Seconds one span adds to a call: a traced no-op against the bare
    one, best of three loops of 20000 calls each."""
    calls = 20000

    def noop():
        return None

    def loop(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    traced = min(loop(Tracer()._wrap(noop, "bench.noop")) for _ in range(3))
    bare = min(loop(noop) for _ in range(3))
    return max(0.0, traced - bare) / calls


def layer_metrics(tracer: Tracer, pass_root: int, cost_per_span: float) -> dict:
    """Per-layer metrics of one traced run as {name: (value, unit)}.

    Call counts and times cover every span (set-up and timed pass);
    ``<layer>.self_s`` covers the timed pass only, so those self times add
    up to ``trace.wall_s``. ``trace.overhead_s`` is the timed pass's span
    count times ``cost_per_span`` (see span_cost).
    """
    nid, dur, self_t = tracer.arrays()
    n_names = len(tracer.names)
    calls = np.bincount(nid, minlength=n_names)
    incl = np.bincount(nid, weights=dur, minlength=n_names)
    own = np.bincount(nid, weights=self_t, minlength=n_names)
    index = {name: i for i, name in enumerate(tracer.names)}

    def total(array, *names):
        return float(sum(array[index[n]] for n in names if n in index))

    def count(name, key):
        return tracer.counts.get(name, {}).get(key, 0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {}
    log_density = "models.GmmEmission.log_density"
    component = "models.GmmEmission.component_log_density"
    m["models.log_density_calls"] = (int(total(calls, log_density)), "count")
    m["models.log_density_s"] = (total(incl, log_density), "s")
    m["models.log_density_self_s"] = (total(own, log_density), "s")
    m["models.component_log_density_calls"] = (int(total(calls, component)), "count")
    m["models.component_log_density_s"] = (total(incl, component), "s")
    m["models.emission_evals_per_s"] = (
        rate(count(log_density, "frames"), total(incl, log_density)), "evals/s")

    recursions = ("inference.forward1", "inference.forward2",
                  "inference.viterbi1", "inference.viterbi2")
    m["inference.log_emission_matrix_s"] = (total(incl, "inference.log_emission_matrix"), "s")
    for name in recursions:
        m[f"{name}_self_s"] = (total(own, name), "s")
    terms = sum(count(name, "terms") for name in recursions)
    m["inference.transition_terms_per_s"] = (rate(terms, total(own, *recursions)), "terms/s")

    baum_welch = ("training.baum_welch1", "training.baum_welch2")
    iterations = sum(count(name, "iterations") for name in baum_welch)
    converged = sum(count(name, "converged") for name in baum_welch)
    bw_calls = int(total(calls, *baum_welch))
    bw_s = total(incl, *baum_welch)
    m["training.train_calls"] = (int(total(calls, "training.train")), "count")
    m["training.kmeans_init_s"] = (total(incl, "training.segmental_kmeans_init"), "s")
    m["training.baum_welch_s"] = (bw_s, "s")
    m["training.baum_welch_self_s"] = (total(own, *baum_welch), "s")
    m["training.em_iterations"] = (iterations, "count")
    m["training.em_iteration_ms"] = (1000.0 * bw_s / iterations if iterations else 0.0, "ms")
    m["training.converged_frac"] = (converged / bw_calls if bw_calls else 0.0, "ratio")

    identify = "speaker_id.SpeakerRegistry.identify"
    m["speaker_id.identify_calls"] = (int(total(calls, identify)), "count")
    m["speaker_id.candidates_scored"] = (count(identify, "candidates"), "count")
    m["speaker_id.identify_s"] = (total(incl, identify), "s")
    m["speaker_id.identify_self_s"] = (total(own, identify), "s")

    extract = "features.extract_features"
    frames = count(extract, "frames")
    m["features.load_audio_s"] = (total(incl, "features.load_audio"), "s")
    m["features.framing_s"] = (total(incl, "features.frame_and_window"), "s")
    m["features.autocorrelation_s"] = (total(incl, "features.autocorrelation"), "s")
    m["features.levinson_s"] = (total(incl, "features.lpc_levinson_durbin"), "s")
    m["features.cepstrum_s"] = (total(incl, "features.lpc_to_cepstrum"), "s")
    m["features.extract_s"] = (total(incl, extract), "s")
    m["features.frames"] = (frames, "count")
    m["features.frames_per_s"] = (rate(frames, total(incl, extract)), "frames/s")
    m["features.useful_frame_ratio"] = (
        1.0 - count(extract, "degenerate") / frames if frames else 0.0, "ratio")
    m["features.cache_write_s"] = (total(incl, "features.write_features"), "s")
    m["features.cache_write_bytes"] = (count("features.write_features", "bytes"), "bytes")
    m["features.cache_read_s"] = (total(incl, "features.read_features"), "s")
    m["features.cache_read_bytes"] = (count("features.read_features", "bytes"), "bytes")

    m["corpus.sample_s"] = (total(incl, "corpus.sample_corpus"), "s")
    m["corpus.manifest_write_s"] = (total(incl, "corpus.write_manifest"), "s")
    m["corpus.load_s"] = (total(incl, "corpus.load_corpus"), "s")

    timed = tracer.subtree(pass_root)
    layer_self = dict.fromkeys((*LAYERS, HARNESS), 0.0)
    by_name = np.bincount(nid[timed], weights=self_t[timed], minlength=n_names)
    for i, name in enumerate(tracer.names):
        layer_self[layer_of(name)] += float(by_name[i])
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = (seconds, "s")
    m["trace.wall_s"] = (float(dur[pass_root]), "s")
    m["trace.overhead_s"] = ((timed.stop - timed.start) * cost_per_span, "s")
    m["trace.spans"] = (len(tracer.start), "count")
    return m
