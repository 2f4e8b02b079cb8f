"""Propositional building blocks: variables, literals, cubes and clauses.

Literals are plain ints encoded as ``2*var + sign`` (sign 1 = negated), so
sorting a literal sequence orders it by (var, polarity) for free.  Var 0 is
reserved for the constant: the positive literal of var 0 is true, its
negation is false.  Cubes and clauses are canonical tuples of literals,
sorted strictly ascending with at most one polarity per variable.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Lit = int
Cube = Tuple[int, ...]
Clause = Tuple[int, ...]

TRUE_LIT: Lit = 0  # x0
FALSE_LIT: Lit = 1  # NOT x0


def mklit(var: int, negated: bool = False) -> Lit:
    return 2 * var + (1 if negated else 0)


def lit_var(lit: Lit) -> int:
    return lit >> 1


def lit_neg(lit: Lit) -> Lit:
    return lit ^ 1


def subsumes(a: Sequence[Lit], b: Sequence[Lit]) -> bool:
    """True iff the literals of canonical `a` are a subset of canonical `b`."""
    i = j = 0
    na, nb = len(a), len(b)
    if na > nb:
        return False
    while i < na:
        if j >= nb:
            return False
        if a[i] == b[j]:
            i += 1
            j += 1
        elif a[i] > b[j]:
            j += 1
        else:
            return False
    return True


def negate(lits: Sequence[Lit]) -> Tuple[Lit, ...]:
    """Negate a cube into a clause (or vice versa).

    Canonical inputs stay sorted: flipping the sign bit never reorders
    literals of distinct variables, and canonical sequences hold at most one
    literal per variable.
    """
    return tuple(l ^ 1 for l in lits)
