"""Electrically sampled Nyquist-pulse optical time-division multiplexing.

Builds aggregate signals from periodic sinc-pulse sequences, generates the
matching flat 3-, 5- and 7-line frequency combs with a dual-drive Mach-Zehnder
modulator, and demultiplexes every branch back out by modulation plus narrow
lowpass detection.  Includes a fiber/noise link model, QPSK and 16QAM mapping
with EVM/Q/BER metrics, and a JSON-driven scenario runner.
"""

# each module's __all__ is its public API, and the package's is their union
from . import core, demux, link, modem, mzm, nyquist, scenario
from .core import *  # noqa: F403
from .demux import *  # noqa: F403
from .link import *  # noqa: F403
from .modem import *  # noqa: F403
from .mzm import *  # noqa: F403
from .nyquist import *  # noqa: F403
from .scenario import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [name for module in (core, nyquist, mzm, demux, link, modem, scenario)
                             for name in module.__all__]
