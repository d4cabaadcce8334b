"""Graph-driven upper and lower bounds for the probability of a union of
events, with exact polynomial network-reliability reporting.

The package exports every name in each library module's `__all__`; the
command line (`chordalbounds.cli`) is not imported with it."""

from .bounds import *
from .errors import *
from .events import *
from .graphs import *
from .optimize import *
from .poly import *
from .reliability import *
from .values import *

__version__ = "0.1.0"
