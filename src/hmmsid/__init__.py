"""Hidden-Markov speaker identification toolkit.

First- and second-order hidden Markov models over left-to-right and ring
state graphs, with Gaussian-mixture or discrete emissions; scaled forward/
backward inference, best-path decoding, and Baum-Welch training; an
LPC-cepstrum audio front end; a synthetic corpus generator; and closed-set
speaker identification with comparison reporting. See the README for the
command-line interface and file formats.
"""

from . import corpus, errors, features, inference, models, speaker_id, training
from .corpus import *
from .errors import *
from .features import *
from .inference import *
from .models import *
from .speaker_id import *
from .training import *

__version__ = "0.1.0"

# The package exports exactly the union of its modules' __all__ lists.
__all__ = [
    name
    for module in (errors, models, inference, training, features, corpus, speaker_id)
    for name in module.__all__
] + ["__version__"]
