"""Exact-arithmetic computer algebra for BiHom-associative dialgebras.

A BiHom-associative dialgebra is a vector space with two products
(written ``dashv`` and ``vdash`` here) and two commuting linear twist
maps phi and psi, subject to five twisted associativity axioms.  This
package represents finite-dimensional instances by structure constants
over exact rationals and provides:

- axiom verification and structural predicates (`bihom.algebra`),
- solvers for every derivation variant, with classification reports
  (`bihom.derivations`),
- planar binary tree combinatorics (`bihom.trees`),
- one cochain complex, tree-indexed or one-product (`bihom.cohomology`),
- the non-symmetric operad structure on tree-indexed cochains
  (`bihom.operad`),
- truncated one-parameter formal deformations (`bihom.deformation`),
- a definition-file parser and command line driver (`bihom.dsl`,
  `bihom.cli`).

All arithmetic uses `fractions.Fraction`; every check in the library is
exact, with no tolerances anywhere.
"""

from bihom.scalars import Mat, Subspace, nullspace, rank, solve

__all__ = ["Mat", "Subspace", "nullspace", "rank", "solve"]

__version__ = "0.1.0"
