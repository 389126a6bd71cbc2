"""Exact certification of positivity properties of Schur classes.

The package computes Schur and derived Schur classes of split (optionally
twisted) bundles on explicit graded ring models and on (p,q)-form algebras,
and certifies Hodge-Riemann / Hard Lefschetz verdicts, Hodge-Index-type
inequalities, nef-cone membership and discrete log-concavity — all in exact
rational arithmetic.

Each name has one import path, its defining submodule: for example
``from schurcert.certify import hodge_index_check`` or
``from schurcert.partitions import Partition``.  The package itself exports
nothing but ``__version__``.
"""

__version__ = "0.1.0"
