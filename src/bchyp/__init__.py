"""Numerical toolkit for the bi-complex hyperbolic plane.

Chain of constructions covered, each cross-verified against at least one
independent route:

  bi-complex arithmetic -> hyperboloid model of the bi-complex
  hyperbolic plane -> positive complex metrics and cubic differentials on a
  periodic chart -> Newton solve of the Gauss equation -> flat sl(3,C_tau)
  connection, holonomy -> affine-sphere correspondence ->
  representation diagnostics (loxodromy, flag transversality, Goldman
  pairing).
"""

__version__ = "0.1.0"

from . import (affine, bicomplex, chtau, connection,  # noqa: F401
               criteria, gauss, metric, replib)
