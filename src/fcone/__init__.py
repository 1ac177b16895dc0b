"""Exact-rational divisor calculus and positivity certificates for moduli
of pointed rational curves and of pointed degree-1 stable maps to the line."""

from .combinat import *
from .kmaps import *
from .logfano import *
from .mcurves import *
from .rationals import *
from .strata import *

__all__ = (
    combinat.__all__
    + kmaps.__all__
    + logfano.__all__
    + mcurves.__all__
    + rationals.__all__
    + strata.__all__
)

__version__ = "0.1.0"
