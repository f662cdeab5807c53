"""photonmem: storage-and-release single-photon simulator with a homodyne
verification stack.

The package covers the full loop of a two-cavity optical memory experiment:
coupled-cavity release dynamics produce temporal mode functions, a homodyne
synthesizer generates quadrature frames, and the estimation stack recovers
mode functions (PCA), photon-number distributions (MLE), Wigner functions,
and memory-lifetime fits.  Everything else is imported from its submodule
(``photonmem.pipeline``, ``photonmem.synth``, ...).
"""

from ._version import __version__
from .cavity import CavityParams, ShutterSchedule, simulate_release, storage_lifetime
from .fock import FockDiagonalState

__all__ = [
    "__version__",
    "CavityParams",
    "FockDiagonalState",
    "ShutterSchedule",
    "simulate_release",
    "storage_lifetime",
]
