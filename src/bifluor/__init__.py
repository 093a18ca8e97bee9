"""Resonance fluorescence of a driven two-level emitter.

Simulates and analyzes the emission of a two-level system (a quantum
dot exciton, say) under one strong and one weak laser: the Mollow
triplet, the doubly-dressed nine-line spectra with their interference
cancellation, the shifted subharmonic resonances, and the flat
sidebands of two equal-frequency drives.

Layers, roughly bottom to top:

* :mod:`bifluor.emitter`  parameter records and unit conventions
* :mod:`bifluor.bloch`    monochromatic Bloch equations and spectra
* :mod:`bifluor.floquet`  periodic Liouvillian engine (two drives)
* :mod:`bifluor.dressed`  closed-form dressed-state analysis
* :mod:`bifluor.scans`    maps, dip scans, degenerate-drive limits
* :mod:`bifluor.cli`      the ``bifluor`` command

Each public name is declared once, in its module's ``__all__``; the
package re-exports those of every layer above but ``cli``.
"""

from . import bloch, dressed, emitter, errors, floquet, scans
from .bloch import *  # noqa: F403  (each layer's __all__ is its public interface)
from .dressed import *  # noqa: F403
from .emitter import *  # noqa: F403
from .errors import *  # noqa: F403
from .floquet import *  # noqa: F403
from .scans import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *emitter.__all__,
    *bloch.__all__,
    *floquet.__all__,
    *dressed.__all__,
    *scans.__all__,
    *errors.__all__,
]
