"""The sparse-coefficient core shared by both divisor classes: construction
from keyed coefficient maps and ``+`` (one ``Linear.__add__`` for both
classes), against coefficient-wise reference sums written out here. A
scaled class is built from its scaled coefficient map."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fcone.combinat import Subset, canonical_key
from fcone.kmaps import KDivisor
from fcone.mcurves import MDivisor

# small numerators over mixed denominators, zero included
rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 12]))
scalars = st.one_of(rationals, rationals.map(str), st.integers(-3, 3))


def labels(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@st.composite
def raw_coeffs(draw, m, sizes):
    """A {mask: q} dict plus the same entries keyed the way a caller may
    write them: each key as a label tuple or as a Subset. Masks come from a
    small pool closed under complement (within the allowed ``sizes``), so
    both sides of a split often occur together."""
    full = (1 << m) - 1
    sized = st.integers(1, full).filter(lambda mask: mask.bit_count() in sizes)
    base = draw(st.lists(sized, min_size=1, max_size=4))
    pool = {x for mask in base for x in (mask, full ^ mask) if x.bit_count() in sizes}
    by_mask = draw(st.dictionaries(st.sampled_from(sorted(pool)), rationals, max_size=8))
    as_labels = draw(st.lists(st.booleans(), min_size=len(by_mask), max_size=len(by_mask)))
    keyed = {
        (labels(mask) if tup else Subset(mask, m)): q
        for (mask, q), tup in zip(by_mask.items(), as_labels)
    }
    return by_mask, keyed


def weighted_sum(terms, key=lambda mask: mask):
    """Reference: sum of scalar * q per key over (scalar, {mask: q}) terms."""
    out = {}
    for c, by_mask in terms:
        for mask, q in by_mask.items():
            out[key(mask)] = out.get(key(mask), 0) + Fraction(c) * q
    return out


def scaled(c, keyed):
    """The coefficient map ``keyed`` times the scalar ``c``."""
    return {key: Fraction(c) * q for key, q in keyed.items()}


@st.composite
def m_case(draw):
    m = draw(st.integers(4, 6))
    parts = [draw(raw_coeffs(m, range(1, m))) for _ in range(3)]
    return m, parts, draw(st.lists(scalars, min_size=3, max_size=3))


@given(m_case())
@settings(max_examples=120, deadline=None)
def test_mdivisor_arithmetic_matches_reference(case):
    m, parts, (a, b, c) = case
    full = (1 << m) - 1
    split = lambda mask: min(mask, full ^ mask)  # one id per pair {T, T^c}
    divs = [MDivisor(m, keyed) for _, keyed in parts]
    raw = [by_mask for by_mask, _ in parts]
    x, y, z = (MDivisor(m, scaled(s, keyed)) for s, (_, keyed) in zip((a, b, c), parts))
    checks = [
        (divs[0], [(1, raw[0])]),
        (divs[0] + divs[1], [(1, raw[0]), (1, raw[1])]),
        (x, [(a, raw[0])]),
        (x + y + z, [(a, raw[0]), (b, raw[1]), (c, raw[2])]),
    ]
    for H, terms in checks:
        ref = weighted_sum(terms, split)
        assert H.m == m
        for mask in range(1, full):
            assert H.coeffs.get(canonical_key(Subset(mask, m)), 0) == ref.get(split(mask), 0)
        assert len(H.coeffs) == sum(1 for q in ref.values() if q)
        assert all(type(q) is Fraction and q for q in H.coeffs.values())


@st.composite
def k_case(draw):
    n = draw(st.integers(3, 5))
    parts = []
    for _ in range(2):
        l = draw(st.dictionaries(st.integers(1, n), rationals, max_size=n))
        parts.append((l, draw(raw_coeffs(n, range(2, n + 1)))))
    return n, parts, draw(scalars)


@given(k_case())
@settings(max_examples=120, deadline=None)
def test_kdivisor_arithmetic_matches_reference(case):
    n, parts, a = case
    divs = [KDivisor(n, l, keyed) for l, (_, keyed) in parts]
    (l0, (b0, k0)), (l1, (b1, _)) = parts
    checks = [
        (divs[0], [(1, l0)], [(1, b0)]),
        (divs[0] + divs[1], [(1, l0), (1, l1)], [(1, b0), (1, b1)]),
        (
            KDivisor(n, scaled(a, l0), scaled(a, k0)) + divs[1],
            [(a, l0), (1, l1)],
            [(a, b0), (1, b1)],
        ),
    ]
    for H, l_terms, b_terms in checks:
        l_ref, b_ref = weighted_sum(l_terms), weighted_sum(b_terms)
        assert H.n == n
        for i in range(1, n + 1):
            assert H.l_coeffs.get(i, 0) == l_ref.get(i, 0)
        for mask in range(1, 1 << n):
            if mask.bit_count() >= 2:
                # B_S and B_{S^c} stay apart on this side
                assert H.b_coefficient(labels(mask)) == b_ref.get(mask, 0)
        assert len(H.l_coeffs) == sum(1 for q in l_ref.values() if q)
        assert len(H.b_coeffs) == sum(1 for q in b_ref.values() if q)
        assert all(type(q) is Fraction and q for q in H.l_coeffs.values())
        assert all(type(q) is Fraction and q for q in H.b_coeffs.values())
