"""Exception types shared across the package.

Plain argument mistakes (bad shapes, out-of-range options) raise ValueError or
IndexError; the classes here carry domain context that callers may want to
catch and inspect.
"""

__all__ = [
    "DegenerateFrameError",
    "ImpossibleObservationError",
    "SignalTooShortError",
    "UtteranceTooShortError",
]


def _where(frame, utterance=None) -> str:
    """Where a frame-level error happened: "frame F", or "utterance U,
    frame F" when the utterance is named."""
    where = f"frame {frame}"
    if utterance is not None:
        where = f"utterance {utterance!r}, {where}"
    return where


def _named(message, utterance=None) -> str:
    """``message``, prefixed with "utterance U: " when the utterance is
    named."""
    return message if utterance is None else f"utterance {utterance!r}: {message}"


class ImpossibleObservationError(ValueError):
    """Every reachable state has zero emission probability at some frame.

    Raised by every pass at the first frame whose forward normalizer is 0
    (or, for Viterbi, whose best score is -inf). ``frame`` is the 0-based
    frame index; ``utterance`` is set wherever the utterance has a name (a
    FeatureMatrix's source, or the utterance's index in training).
    """

    def __init__(self, frame, utterance=None):
        self.frame = int(frame)
        self.utterance = utterance
        super().__init__(
            f"observation impossible under the model at {_where(self.frame, utterance)}"
        )


class UtteranceTooShortError(ValueError):
    """An utterance has fewer frames than the operation requires."""

    def __init__(self, n_frames, required, utterance=None):
        self.n_frames = int(n_frames)
        self.required = int(required)
        self.utterance = utterance
        name = f"utterance {utterance!r}" if utterance is not None else "utterance"
        super().__init__(
            f"{name} has {n_frames} frames, needs at least {required}"
        )


class DegenerateFrameError(ValueError):
    """A frame's autocorrelation is unusable for prediction (r[0] <= 0 or
    the recursion loses positive definiteness)."""


class SignalTooShortError(ValueError):
    """The signal does not contain a single full analysis window."""

    def __init__(self, n_samples, window):
        self.n_samples = int(n_samples)
        self.window = int(window)
        super().__init__(
            f"signal has {n_samples} samples, shorter than one {window}-sample window"
        )
