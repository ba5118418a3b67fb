#!/usr/bin/env bash
# Byte-identity check of the command-line pipeline: a git revision against
# the working tree.
#
#   scripts/identity_check.sh <rev> [workdir]
#
# Exports <rev> with `git archive`, then runs the same pipeline once with
# each source tree, from its own directory under workdir (a new temporary
# directory when omitted):
#
#   hmmsid synth (default corpus)                                  -> data/
#   hmmsid train ltr1, ltr2, circ1, circ2 (--states 5 --mixtures 2,
#     20 EM iterations)                                            -> models/
#   hmmsid evaluate, forward and Viterbi scoring                   -> report/
#   hmmsid evaluate --from-grids on the working tree's
#     tests/fixtures/reference_grids.json                          -> report/
#   hmmsid inspect of every model file, with its exit status       -> inspect/
#   every test trial's ranked scores, printed with repr            -> scores/
#   scripts/sweep_identity.py of the working tree: library-level
#     hashes over all 8 model configurations, GMM and discrete,
#     and over the front end                                       -> sweep/
#   hmmsid features, without and with --cms, on 16-bit WAVs the
#     script writes once with the wave module (speech-like, lead
#     and mid-utterance silence, all silent, too short)            -> features/
#
# and compares data/, models/, report/, inspect/, scores/, sweep/,
# features/ (the .lpcf bytes) and the commands' output
# (log/) with `diff -r`. When sweep/ differs, it also names each line's
# input families (lattices, viterbi, ..., silence, one-frame) whose
# hashes moved. Exits 0 when everything is identical, 1 when anything
# differs.
#
# It first prints the two host settings the bytes depend on: numpy's best
# SIMD dispatch target (and the one its float64 exp and log run) and the
# core (CPU kernel) the bundled OpenBLAS picked. Both trees run on this
# host, so the comparison cannot see a byte that another setting would
# move. So after it, the working tree's sweep runs twice more, under
# OPENBLAS_CORETYPE=Haswell and under NPY_DISABLE_CPU_FEATURES set to the
# AVX-512 targets, and the script names the families each setting moves
# against the native run. Last it prints the code lines of both src/hmmsid
# trees, each module's and the total, counted by the working tree's
# scripts/code_lines.py. Both parts are informational: they do not change
# the exit status.
set -euo pipefail

rev=${1:?usage: scripts/identity_check.sh <rev> [workdir]}
repo=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
mkdir -p "$work/base/tree"
git -C "$repo" archive "$rev" | tar -x -C "$work/base/tree"
echo "$rev ($(git -C "$repo" rev-parse --short "$rev")) vs working tree, in $work"
python3 - <<'PY'
import ctypes, glob, os
import numpy as np
from numpy._core import _multiarray_umath as umath

features = umath.__cpu_features__
supported = [t for t in umath.__cpu_dispatch__ if features[t]] or ["baseline"]
exp_log = {umath.__cpu_targets_info__[f]["dd"]["current"] for f in ("exp", "log")}
core = "unknown"
for lib in glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas*"):
    get = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    get.argtypes, get.restype = [], ctypes.c_char_p
    core = get().decode()
print(f"numpy {np.__version__} SIMD: best target {supported[-1]}, "
      f"AVX512_SKX {'on' if features['AVX512_SKX'] else 'off'}, "
      f"float64 exp/log {'/'.join(sorted(exp_log))}; OpenBLAS core {core}")
PY

mkdir -p "$work/audio"
python3 - "$work/audio" <<'PY'
import sys, wave
import numpy as np

rng = np.random.default_rng(7)
rate = 8000
excitation = 0.1 * rng.standard_normal(12000)
excitation[::57] += 1.0
speech = np.zeros_like(excitation)
for t in range(speech.size):   # a stable all-pole filter
    speech[t] = excitation[t] + 1.2 * speech[t - 1] - 0.6 * speech[t - 2] if t > 1 else excitation[t]
speech = 0.5 * speech / np.abs(speech).max()
mid = speech.copy()
mid[5000:7000] = 0.0
signals = {
    "speech": speech,
    "lead-silence": np.concatenate([np.zeros(1600), speech[:8000]]),
    "mid-silence": mid,
    "silent": np.zeros(8000),
    "short": speech[:150],
}
for name, x in signals.items():
    with wave.open(f"{sys.argv[1]}/{name}.wav", "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(np.round(32767.0 * x).astype("<i2").tobytes())
PY

run_pipeline() {  # <source tree> <run directory>
    local src=$1/src dir=$2
    mkdir -p "$dir/log"
    cd "$dir"
    echo '{"train": {"max_iterations": 20}}' > config.json
    hmmsid() { PYTHONPATH="$src" python3 -m hmmsid "$@"; }
    hmmsid synth --out data > log/synth.txt
    for variant in ltr1 ltr2 circ1 circ2; do
        hmmsid train --manifest data/manifest.tsv --out models --config config.json \
            --variant "$variant" --states 5 --mixtures 2 > "log/train-$variant.txt"
    done
    for scoring in forward viterbi; do
        hmmsid evaluate --manifest data/manifest.tsv --models models --config config.json \
            --states 5 --mixtures 2 --scoring "$scoring" --out "report/$scoring" \
            > "log/evaluate-$scoring.txt"
    done
    hmmsid evaluate --from-grids "$repo/tests/fixtures/reference_grids.json" \
        --out report/from-grids > log/evaluate-from-grids.txt
    mkdir -p inspect
    for model in models/*/*.json; do
        local name=${model#models/}
        { hmmsid inspect "$model" || echo "exit status $?"; } > "inspect/${name//\//__}.txt"
    done
    mkdir -p scores
    PYTHONPATH="$src" python3 - <<'PY'
import os
from hmmsid import SpeakerRegistry, load_corpus, load_model

for label in sorted(os.listdir("models")):
    registry = SpeakerRegistry()
    for name in sorted(os.listdir(os.path.join("models", label))):
        model, header = load_model(os.path.join("models", label, name))
        meta = header["training"]
        registry.add_model(meta["speaker_id"], meta["word_id"], label, model)
    for scoring in ("forward", "viterbi"):
        with open(os.path.join("scores", f"{label}-{scoring}.txt"), "w") as out:
            for row, fm in load_corpus("data/manifest.tsv"):
                if row.split == "test":
                    ident = registry.identify(row.word_id, label, fm, scoring=scoring)
                    out.write(f"{row.utterance_id} {ident.ranked!r}\n")
PY
    for cms in --no-cms --cms; do
        { hmmsid features "$work"/audio/*.wav --out "features/${cms#--}" "$cms" 2>&1 \
            || echo "exit status $?"; } > "log/features${cms#-}.txt"
    done
    mkdir -p sweep
    PYTHONPATH="$src" python3 "$repo/scripts/sweep_identity.py" > sweep/hashes.txt
    cd - > /dev/null
}

run_pipeline "$work/base/tree" "$work/base/run"
run_pipeline "$repo" "$work/head/run"

status=0
for part in data models report inspect scores sweep features log; do
    if diff -r "$work/base/run/$part" "$work/head/run/$part" > "$work/diff-$part.txt"; then
        echo "identical: $part/ ($(find "$work/head/run/$part" -type f | wc -l) files)"
    else
        echo "DIFFERENT: $part/ (see $work/diff-$part.txt)"
        status=1
    fi
done
sweep_moved() {  # <hashes> <hashes>: name each line's input families whose hashes differ
    # each sweep line: <label key=value fields> <overall hash> family=<hash> ...
    paste -d' ' "$1" "$2" | awk '{
        n = NF / 2
        label = ""
        for (i = 1; $i ~ /=/; i++) label = label " " $i
        moved = ""
        for (i++; i <= n; i++)
            if ($i != $(i + n)) { split($i, family, "="); moved = moved " " family[1] }
        if (moved != "") print "  sweep moved:" label ":" moved
    }'
}
sweep_moved "$work/base/run/sweep/hashes.txt" "$work/head/run/sweep/hashes.txt"

# Informational, and the exit status ignores it: the working tree's sweep
# again under the BLAS kernel and the numpy SIMD target an AVX2-only host
# would take (set in these child processes only), against the native run.
native="$work/head/run/sweep/hashes.txt"
for setting in OPENBLAS_CORETYPE=Haswell "NPY_DISABLE_CPU_FEATURES=X86_V4 AVX512_SKX AVX512_ICL AVX512_SPR"; do
    other="$work/sweep-${setting%%=*}.txt"
    echo "working tree's sweep under $setting, against the native run:"
    if env "$setting" PYTHONPATH="$repo/src" python3 "$repo/scripts/sweep_identity.py" > "$other" 2> "$other.err"; then
        moved=$(sweep_moved "$native" "$other")
        echo "${moved:-  no family moved}"
    else
        echo "  the sweep failed (see $other.err)"
    fi
done
echo "code lines, $rev:"
python3 "$repo/scripts/code_lines.py" "$work/base/tree/src/hmmsid"
echo "code lines, working tree:"
python3 "$repo/scripts/code_lines.py" "$repo/src/hmmsid"
exit $status
