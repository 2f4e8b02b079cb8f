from hypothesis import given, strategies as st

from mcheck.logic import TRUE_LIT, lit_neg, lit_var, mklit, negate, subsumes

# canonical cubes: sorted literals, at most one polarity per variable
cubes = st.dictionaries(st.integers(min_value=1, max_value=100), st.booleans(),
                        min_size=1, max_size=12).map(
    lambda pol: tuple(sorted(mklit(v, neg) for v, neg in pol.items())))


def test_literal_basics():
    assert mklit(3) == 6
    assert mklit(3, True) == 7
    assert lit_var(7) == 3
    assert lit_neg(6) == 7 and lit_neg(7) == 6
    assert lit_neg(TRUE_LIT) == 1


@given(cubes)
def test_negate_involution(c):
    n = negate(c)
    assert negate(n) == c
    assert sorted(lit_var(x) for x in n) == sorted(lit_var(x) for x in c)
    assert all(lit_neg(x) in c for x in n)


@given(cubes, cubes)
def test_subsumes_is_subset(a, b):
    assert subsumes(a, b) == set(a).issubset(set(b))


@given(cubes)
def test_subsumes_reflexive(c):
    assert subsumes(c, c)
    if len(c) > 1:
        assert subsumes(c[:-1], c)
        assert not subsumes(c, c[:-1])
