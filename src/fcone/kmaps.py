"""Divisor classes on the space of n-pointed degree-1 stable maps to the
projective line, their canonical class, and the two pullbacks that drive
the ampleness test.

The basis is L_1, ..., L_n (the locus where the i-th point maps to 0)
together with the boundary divisors B_S for 2 <= |S| <= n. Unlike the
curve side, B_S and B_{S^c} are different divisors (S names the side whose
component gets collapsed), so B-keys are raw subsets with no complement
identification.

Pullback calculus used throughout (Coskun-Harris-Starr):

    along the curve-side map from the (n+1)-pointed space,
        B_S  ->  boundary key S          for |S| <= n-1,
        B_S  ->  -psi_{n+1}              for S = {1,...,n},
        L_i  ->  0;
    along the i-th line section,
        B_S  ->  degree -1               for S = {1,...,n} and S = {i}^c,
        B_S  ->  0                       otherwise,
        L_i  ->  degree 1,   L_j -> 0 for j != i.

The one positivity test here is anti-ampleness, through both pullbacks:
the curve-side pullback must meet every F-curve negatively (the F-curve
scan) and every line section must have negative degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .combinat import MAX_KEY_LABELS, Subset
from .mcurves import AmpDecision, MDivisor, Verdict, f_positivity
from .rationals import Linear, RationalLike, as_rational, json_coeffs, sum_by_key

__all__ = [
    "KDivisor",
    "BoundaryCombo",
    "ChsDecision",
    "boundary_keys",
    "canonical_class",
    "pullback_alpha",
    "pullback_beta",
    "chs_ample",
]


def _check_key_labels(n: int) -> None:
    if n > MAX_KEY_LABELS:
        raise ValueError(
            f"n={n} has 2^{n} - {n} - 1 B-keys; at most n={MAX_KEY_LABELS} "
            f"({2**MAX_KEY_LABELS - MAX_KEY_LABELS - 1} keys) is supported"
        )


def boundary_keys(n: int) -> Iterator[Subset]:
    """All raw B-keys on the n-pointed space: subsets with 2 <= |S| <= n,
    in deterministic (size, labels) order. Raises ``ValueError`` on the call
    when n > ``MAX_KEY_LABELS``."""
    _check_key_labels(n)
    return (Subset(mask, n) for mask in _key_masks(n))


def _key_masks(n: int) -> Iterator[int]:
    """The masks of ``boundary_keys(n)``, in its order, with no bound check."""
    bits = [1 << i for i in range(n)]
    # combinations of distinct bits sum to their union, in label-tuple order
    return (sum(c) for size in range(2, n + 1) for c in combinations(bits, size))


@dataclass(frozen=True)
class KDivisor(Linear):
    """Exact divisor class on the n-pointed stable-map space; immutable."""

    n: int
    l_coeffs: Mapping[int, Fraction]
    b_coeffs: Mapping[Subset, Fraction]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        _check_key_labels(self.n)
        l = sum_by_key((self._l_key(i), as_rational(q)) for i, q in self.l_coeffs.items())
        b = sum_by_key((self._b_key(S), as_rational(q)) for S, q in self.b_coeffs.items())
        object.__setattr__(self, "l_coeffs", l)
        object.__setattr__(self, "b_coeffs", b)

    def _l_key(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"L-label {i} out of range 1..{self.n}")
        return i

    def _b_key(self, key: Subset | Iterable[int]) -> Subset:
        S = Subset.of(key, self.n)
        if S.size < 2:
            raise ValueError(f"B-key needs |S| >= 2, got {{{S}}}")
        return S

    def b_coefficient(self, key: Subset | Iterable[int]) -> Fraction:
        return self.b_coeffs.get(Subset.of(key, self.n), Fraction(0))

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "KDivisor":
        """Accepts the explicit {"n","L","B"} form and the combo shorthand
        {"n", "K": bool, "a": {...}} meaning K_n + sum a_s B[s], never both,
        and no other field. Entries naming the same coefficient add up."""
        n = data.get("n")
        if type(n) is not int:
            raise ValueError("KDivisor JSON needs an integer 'n'")
        unknown = sorted(map(str, set(data) - {"n", "L", "B", "K", "a"}))
        if unknown:
            raise ValueError(f"KDivisor JSON has unknown fields {unknown}")
        if "a" in data or "K" in data:
            if "L" in data or "B" in data:
                raise ValueError("KDivisor JSON mixes the L/B form with the K/a shorthand")
            K = data.get("K", False)
            if type(K) is not bool:
                raise ValueError(f"KDivisor JSON 'K' must be true or false, got {K!r}")
            combo = BoundaryCombo(n, tuple((int(s), q) for s, q in json_coeffs(data, "a")))
            return combo.to_divisor(K)
        _check_key_labels(n)  # before any B-key, whose parse costs O(n)
        return cls(
            n,
            sum_by_key((int(i), q) for i, q in json_coeffs(data, "L")),
            sum_by_key((Subset.parse(key, n), q) for key, q in json_coeffs(data, "B")),
        )


@dataclass(frozen=True)
class BoundaryCombo:
    """A symmetric boundary combination sum a_s B[s], B[s] the sum of all
    B_S with |S| = s."""

    n: int
    a: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        a = sum_by_key((self._size(s), as_rational(q)) for s, q in self.a)
        object.__setattr__(self, "a", tuple(sorted(a.items())))

    def _size(self, s: int) -> int:
        if not 2 <= s <= self.n:
            raise ValueError(f"B[{s}] does not exist on n={self.n}")
        return s

    @classmethod
    def of(cls, n: int, coefficients: Mapping[int, RationalLike]) -> "BoundaryCombo":
        return cls(n, tuple((s, as_rational(q)) for s, q in coefficients.items()))

    def to_divisor(self, K: bool = False) -> KDivisor:
        """sum a_s B[s], or with ``K`` the class K_n + sum a_s B[s], in one
        pass over the B-keys."""
        keys = boundary_keys(self.n)  # refuses n > MAX_KEY_LABELS before any work
        a = dict(self.a)
        level = {s: Fraction(K * (s - 2)) + a.get(s, 0) for s in range(2, self.n + 1)}
        b = {S: level[S.size] for S in keys if level[S.size]}
        l = {i: Fraction(-2) for i in range(1, self.n + 1)} if K else {}
        return KDivisor(self.n, l, b)

    def __str__(self) -> str:
        if not self.a:
            return "0"
        return ",".join(f"a{s}={q}" for s, q in self.a)


def canonical_class(n: int) -> KDivisor:
    """K_n = -2 * sum L_i + sum over s >= 3 of (s-2) B[s]."""
    return BoundaryCombo(n, ()).to_divisor(K=True)


def pullback_alpha(H: KDivisor) -> MDivisor:
    """Pull back along the curve-side map into the (n+1)-pointed space.

    B_S with |S| <= n-1 lands on the boundary key S, the full-set key lands
    on the singleton {n+1} (that key stores -psi_{n+1}), and the L_i die.
    """
    n = H.n
    if n < 3:
        raise ValueError(f"curve-side pullback needs n >= 3, got n={n}")
    # distinct B-keys avoid label n+1, so they name distinct splits; the
    # constructor's canonical key of the full set {1..n} is {n+1}
    return MDivisor(n + 1, {Subset(S.mask, n + 1): q for S, q in H.b_coeffs.items()})


def pullback_beta(H: KDivisor, i: int) -> Fraction:
    """Degree of the pullback along the i-th line section."""
    n = H.n
    if not 1 <= i <= n:
        raise ValueError(f"label {i} out of range 1..{n}")
    deg = H.l_coeffs.get(i, Fraction(0))
    deg -= H.b_coefficient(Subset((1 << n) - 1, n))
    if n >= 3:
        # {i}^c only exists as a key for n >= 3
        deg -= H.b_coefficient(Subset.from_labels([i], n).complement())
    return deg


@dataclass(frozen=True)
class ChsDecision:
    """Certificate of the two-pullback anti-ampleness test: the curve-side
    scan outcome, every line-section degree, and the curve-side pullback
    that was scanned. ``verdict`` is NOT_POSITIVE if either pullback fails,
    POSITIVE if both pass within the range where F-positivity decides
    ampleness (n + 1 <= 7 markings), POSITIVE_BUT_UNDECIDED if both pass
    beyond it."""

    verdict: Verdict
    alpha: AmpDecision
    beta: tuple[tuple[int, Fraction], ...]
    curve_class: MDivisor


def chs_ample(H: KDivisor) -> ChsDecision:
    """Decide anti-ampleness of H through the two pullbacks.

    The test checks negativity of H itself, never ampleness of -H, so the
    certificate names the divisor actually supplied. The verdict is the
    curve-side scan's unless a line-section degree is not < 0, which makes
    it NOT_POSITIVE. NOT_POSITIVE is decisive for every n since the scanned
    inequalities are necessary.
    """
    A = pullback_alpha(H)
    alpha = f_positivity(A, "negative")
    degrees = tuple((i, pullback_beta(H, i)) for i in range(1, H.n + 1))
    verdict = Verdict.NOT_POSITIVE if any(not d < 0 for _, d in degrees) else alpha.verdict
    return ChsDecision(verdict, alpha, degrees, A)
