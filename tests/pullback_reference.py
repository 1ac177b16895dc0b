"""The anti-ampleness system derived through the Coskun-Harris-Starr
pullbacks, as a reference for the closed form in ``generate_constraints``.

Constants and coefficients come from evaluating the F-curve intersection
form on the curve-side pullbacks of K_n and of each unit combination B[s],
and the degree form from their line-section degrees, so by linearity the
symbolic system is exactly the numeric test it abbreviates. Shapes come from
``enumerate_shapes``, whose representatives are the first partition of each
shape along the full scan.
"""

from fcone.combinat import enumerate_four_partitions, enumerate_shapes
from fcone.kmaps import BoundaryCombo, canonical_class, pullback_alpha, pullback_beta
from fcone.logfano import LinearForm
from fcone.mcurves import f_curve_value


def reference_constraints(n: int, reduced: bool = False) -> list[LinearForm]:
    m = n + 1
    K = canonical_class(n)
    units = {s: BoundaryCombo.of(n, {s: 1}).to_divisor() for s in range(2, n + 1)}
    base = pullback_alpha(K)
    unit = {s: pullback_alpha(D) for s, D in units.items()}

    def form_at(P) -> LinearForm:
        const = f_curve_value(base, P)
        coeffs = {s: f_curve_value(unit[s], P) for s in range(2, n + 1)}
        return LinearForm.of(const, coeffs, strict=True)

    if reduced:
        forms = [form_at(rep) for _, rep in enumerate_shapes(m, special=m)]
    else:
        forms = [form_at(P) for P in enumerate_four_partitions(m)]
    beta_coeffs = {s: pullback_beta(D, 1) for s, D in units.items()}
    forms.append(LinearForm.of(pullback_beta(K, 1), beta_coeffs, strict=True))
    return forms
