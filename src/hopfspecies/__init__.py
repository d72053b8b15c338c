"""Exact computation with connected Hopf monoids in set species.

The package root holds only the version: import names from the submodules
(`species`, `structures`, `axioms`, `kernels`, `seqtests`, `exactalg`,
`reports`), so that a command loads only the layers it runs.
"""

__version__ = "0.1.0"
