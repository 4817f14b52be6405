"""Pseudo-spectral laboratory for the mild Navier-Stokes formulation on the
periodic torus: dyadic frequency analysis, paraproducts, semigroup and
Duhamel operators, two independent solvers, blow-up monitoring, and numerical
verification of the quantitative estimates tying them together.
"""

__version__ = "0.1.0"
