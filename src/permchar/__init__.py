"""Ewens random permutations, their characteristic polynomials on the
unit circle, and Monte Carlo verification of the associated central
limit theorems."""

from . import classfuncs, equidist, ewens, limits, mc, multipliers

__all__ = ["classfuncs", "equidist", "ewens", "limits", "mc", "multipliers"]
__version__ = "0.1.0"
