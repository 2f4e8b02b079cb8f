"""Propositional building blocks: variables, literals, cubes and clauses.

Literals are plain ints encoded as ``2*var + sign`` (sign 1 = negated), so
sorting a literal sequence orders it by (var, polarity) for free.  Var 0 is
reserved for the constant: the positive literal of var 0 is true, its
negation is false.  Cubes and clauses are canonical tuples of literals,
sorted strictly ascending with at most one polarity per variable.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

Lit = int
Cube = Tuple[int, ...]
Clause = Tuple[int, ...]

TRUE_LIT: Lit = 0  # x0
FALSE_LIT: Lit = 1  # ~x0


class TautologyError(Exception):
    """Raised when both polarities of a variable occur in one cube/clause."""


def mklit(var: int, negated: bool = False) -> Lit:
    return 2 * var + (1 if negated else 0)


def lit_var(lit: Lit) -> int:
    return lit >> 1


def lit_negated(lit: Lit) -> bool:
    return bool(lit & 1)


def lit_neg(lit: Lit) -> Lit:
    return lit ^ 1


def lit_str(lit: Lit) -> str:
    return ("¬" if lit & 1 else "") + "x%d" % (lit >> 1)


def lit_dimacs(lit: Lit) -> int:
    """Signed-integer rendering for debugging dumps (sign = polarity)."""
    var = lit >> 1
    return -var if lit & 1 else var


def canonicalize(lits: Iterable[Lit]) -> Cube:
    """Sort and deduplicate; raise TautologyError on opposite polarities."""
    out = sorted(set(lits))
    for a, b in zip(out, out[1:]):
        if a >> 1 == b >> 1:
            raise TautologyError("both polarities of x%d" % (a >> 1))
    return tuple(out)


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


def map_lits(lits: Sequence[Lit], mapping: Dict[int, int]) -> Tuple[Lit, ...]:
    """Relabel variables, preserving polarity.  Unmapped vars are a bug."""
    return tuple(sorted((mapping[l >> 1] << 1) | (l & 1) for l in lits))


def cube_str(lits: Sequence[Lit]) -> str:
    return "{" + ", ".join(lit_str(l) for l in lits) + "}"
