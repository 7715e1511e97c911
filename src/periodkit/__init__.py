"""Exact critical points and period formulas for tensor products of motives.

The package models regular pure motives over a quadratic imaginary field
by their Hodge combinatorics, computes critical points of the restricted
tensor L-function two independent ways, assembles the Deligne period and
its conjectural L-value counterpart as canonical monomials over formal
period symbols, mirrors the constructions on the automorphic side, and
re-derives the underlying determinant identity over an exact
Laurent-polynomial ring.  Everything is exact; nothing is floating point.

Each name is imported from the module that defines it, for example
``from periodkit.hodge import RegularMotiveData``; this package root
re-exports nothing, so importing it loads no submodule.  A ``pk`` call
loads only the modules its subcommand runs: ``critical``, ``gamma``,
``sets`` and ``split`` need ``cli``, ``fileio``, ``errors``, ``hodge``,
``lfactor`` and ``combinatorics``; ``period`` and ``conjecture`` add
``periods`` and ``deligne``; ``conjecture --rep`` and ``classify`` add
``automorphic`` as well; only ``verify`` loads ``suites``, and with it
``oracle`` and ``sampling``.
"""

__version__ = "0.1.0"
