"""Reference arithmetic for the benchmark's output gate, written without the
package under test.

For a symmetric class H = K_n + sum a_s B[s] the curve-side coefficient of a
split {X, X^c} of the m = n + 1 labels depends only on t, the size of the side
that does not hold label m: it is 0 for t = 1 and k(t) + a_t for 2 <= t <= n,
where k(t) = t - 2 (t >= 3) is the canonical class's coefficient on B[t]. So
every F-value is an affine form in (a_2, ..., a_n) that depends only on the
partition's block sizes and on the size of the block holding label m; the
line-section degree is -2 - k(n) - k(n-1) - a_n - a_{n-1}. Everything here is
exact (Fraction/int).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

# a linear form: (constant, ((s, coeff), ...) with s ascending and coeff != 0, strict)
Form = tuple


def k_coeff(t: int) -> int:
    return t - 2 if t >= 3 else 0


def stirling4(m: int) -> int:
    """S(m, 4): partitions of m labels into four nonempty blocks."""
    return sum((-1) ** (4 - j) * comb(4, j) * j**m for j in range(5)) // factorial(4)


def split_form(n: int, t: int) -> tuple[int, dict[int, int]]:
    """Coefficient of the split whose side without label n+1 has t labels."""
    if t == 1:
        return 0, {}
    return k_coeff(t), {t: 1}


def f_form(n: int, sizes: tuple[int, ...], special: int) -> Form:
    """F-value form of a partition with block sizes ``sizes`` (first block is
    the one paired with the other three) and label n+1 in block ``special``."""
    m = n + 1
    const = 0
    coeffs: dict[int, int] = {}

    def add(size: int, holds_special: bool, sign: int) -> None:
        nonlocal const
        t = m - size if holds_special else size
        c, cs = split_form(n, t)
        const += sign * c
        for s, q in cs.items():
            coeffs[s] = coeffs.get(s, 0) + sign * q

    for j in (1, 2, 3):
        add(sizes[0] + sizes[j], special in (0, j), 1)
    for j in range(4):
        add(sizes[j], special == j, -1)
    return (
        Fraction(const),
        tuple((s, Fraction(q)) for s, q in sorted(coeffs.items()) if q),
        True,
    )


def beta_form(n: int) -> Form:
    const = -2 - k_coeff(n) - k_coeff(n - 1)
    return (Fraction(const), tuple(sorted({n: Fraction(-1), n - 1: Fraction(-1)}.items())), True)


def shapes(m: int) -> list[tuple[tuple[int, ...], int]]:
    """Every orbit shape: sorted block sizes and the size of the block holding
    the special label (given as an index into the sizes)."""
    out = []
    for a in range(1, m):
        for b in range(a, m):
            for c in range(b, m):
                d = m - a - b - c
                if d < c:
                    continue
                sizes = (a, b, c, d)
                for sp in sorted(set(sizes)):
                    out.append((sizes, sizes.index(sp)))
    return out


def reduced_forms(n: int) -> list[Form]:
    """The orbit-reduced anti-ampleness system, as a multiset (order free)."""
    return [f_form(n, sizes, sp) for sizes, sp in shapes(n + 1)] + [beta_form(n)]


def bound_forms(lower: dict[int, Fraction], upper: dict[int, Fraction]) -> list[Form]:
    out = [(c, ((s, Fraction(-1)),), False) for s, c in sorted(lower.items())]
    out += [(-c, ((s, Fraction(1)),), False) for s, c in sorted(upper.items())]
    return out


def evaluate(form: Form, point: dict[int, Fraction]) -> Fraction:
    const, coeffs, _ = form
    return const + sum(q * point.get(s, Fraction(0)) for s, q in coeffs)


def satisfied(form: Form, point: dict[int, Fraction]) -> bool:
    v = evaluate(form, point)
    return v < 0 if form[2] else v <= 0


def combo_values(n: int, combo: dict[int, Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    """(f_min, f_max, beta) of K_n + sum a_s B[s] over every F-curve."""
    values = [evaluate(f_form(n, sizes, sp), combo) for sizes, sp in shapes(n + 1)]
    return min(values), max(values), evaluate(beta_form(n), combo)


def passes_all(n: int, combo: dict[int, Fraction]) -> bool:
    _, f_max, beta = combo_values(n, combo)
    return f_max < 0 and beta < 0


def curve_coeffs(n: int, combo: dict[int, Fraction]) -> dict[str, dict[str, str]]:
    """Curve-side divisor file of K_n + sum a_s B[s] in the MDivisor wire
    format, keyed on the side without label n+1."""
    m = n + 1
    delta = {}
    for t in range(2, n):
        q = k_coeff(t) + combo.get(t, Fraction(0))
        if q:
            for T in combinations(range(1, n + 1), t):
                delta[",".join(map(str, T))] = str(q)
    psi = {}
    top = k_coeff(n) + combo.get(n, Fraction(0))
    if top:
        psi[str(m)] = str(top)
    return {"m": m, "psi": psi, "delta": delta}


def split_value(n: int, combo: dict[int, Fraction], labels: set[int]) -> Fraction:
    m = n + 1
    t = m - len(labels) if m in labels else len(labels)
    c, cs = split_form(n, t)
    return c + sum(q * combo.get(s, Fraction(0)) for s, q in cs.items())


# ---------------------------------------------------------------- partitions


def _group(m: int, minima: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    rest = [x for x in range(1, m + 1) if x not in minima]
    choices = [[j for j, lo in enumerate(minima) if lo < x] for x in rest]
    group = []
    for pick in product(*choices):
        blocks = [[lo] for lo in minima]
        for x, j in zip(rest, pick):
            blocks[j].append(x)
        group.append(tuple(tuple(b) for b in blocks))
    group.sort()
    return group


def ordered_partitions(m: int):
    """Four-block partitions of 1..m in the documented scan order: by the
    tuple of block minima, then by the blocks' label tuples."""
    for b, c, d in combinations(range(2, m + 1), 3):
        yield from _group(m, (1, b, c, d))


def group_size(m: int, minima: tuple[int, ...]) -> int:
    size = 1
    for x in range(1, m + 1):
        if x not in minima:
            size *= sum(1 for lo in minima if lo < x)
    return size


def rank(m: int, blocks: tuple[tuple[int, ...], ...]) -> int:
    """0-based position of a partition in the scan order."""
    minima = tuple(b[0] for b in blocks)
    before = 0
    for b, c, d in combinations(range(2, m + 1), 3):
        mins = (1, b, c, d)
        if mins == minima:
            return before + _group(m, mins).index(blocks)
        before += group_size(m, mins)
    raise ValueError(f"not a four-block partition of 1..{m}: {blocks}")


def parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(int(x) for x in tok.strip()[1:-1].split(",")) for tok in text.split("|")
    )


def format_partition(blocks) -> str:
    return "|".join("{" + ",".join(map(str, b)) + "}" for b in blocks)


def partition_value(n: int, combo: dict[int, Fraction], blocks) -> Fraction:
    m = n + 1
    sizes = tuple(len(b) for b in blocks)
    special = next(j for j, b in enumerate(blocks) if m in b)
    return evaluate(f_form(n, sizes, special), combo)


def violates(value: Fraction, sense: str) -> bool:
    return not (value > 0 if sense == "positive" else value < 0)


def first_violation(n: int, combo: dict[int, Fraction], sense: str):
    """(rank, blocks, value) of the first F-curve breaking the strict
    inequality, or None."""
    cache: dict = {}
    for idx, blocks in enumerate(ordered_partitions(n + 1)):
        key = (tuple(len(b) for b in blocks), next(j for j, b in enumerate(blocks) if n + 1 in b))
        if key not in cache:
            cache[key] = partition_value(n, combo, blocks)
        if violates(cache[key], sense):
            return idx, blocks, cache[key]
    return None


def violation_count(n: int, combo: dict[int, Fraction], sense: str) -> int:
    """Number of F-curves breaking the strict inequality, by orbit sizes."""
    m = n + 1
    total = 0
    for sizes, sp in shapes(m):
        if not violates(evaluate(f_form(n, sizes, sp), combo), sense):
            continue
        # label m sits in a block of size sizes[sp]; count set partitions of
        # the other m-1 labels into blocks of sizes with that block reduced
        rest = list(sizes)
        rest[sp] -= 1
        total += _labelled_count(rest, sp)
    return total


def _labelled_count(sizes: list[int], fixed: int) -> int:
    # ways to split sum(sizes) distinct labels into blocks of these sizes, the
    # block at index ``fixed`` being distinguished (it holds the special label)
    count = factorial(sum(sizes))
    for s in sizes:
        count //= factorial(s)
    others = [s for j, s in enumerate(sizes) if j != fixed]
    for s in set(others):
        count //= factorial(others.count(s))
    return count


# ------------------------------------------------------------- certificates


def parse_form(data: dict) -> Form:
    rel = data["relation"]
    if rel not in ("<0", "<=0"):
        raise ValueError(f"unknown relation {rel!r}")
    coeffs = tuple(sorted((int(s), Fraction(q)) for s, q in data["coeffs"].items()))
    if any(q == 0 for _, q in coeffs):
        raise ValueError("zero coefficient in a serialised form")
    return (Fraction(data["constant"]), coeffs, rel == "<0")


def form_key(form: Form) -> str:
    const, coeffs, strict = form
    return json.dumps([str(const), [[s, str(q)] for s, q in coeffs], strict])


def multipliers_refute(forms: list[Form], multipliers: list[dict]) -> str | None:
    """Check a Farkas certificate: nonnegative weights whose combination of
    the forms has no variable left and an impossible constant. Returns a
    failure reason or None."""
    weights: dict[int, Fraction] = {}
    for entry in multipliers:
        i, lam = int(entry["form"]), Fraction(entry["lambda"])
        if not 0 <= i < len(forms) or i in weights:
            return f"multiplier index {i} out of range or repeated"
        if lam <= 0:
            return f"multiplier {lam} on form {i} is not positive"
        weights[i] = lam
    if not weights:
        return "empty certificate"
    const = Fraction(0)
    total: dict[int, Fraction] = {}
    strict = False
    for i, lam in weights.items():
        c, coeffs, st = forms[i]
        const += lam * c
        strict |= st
        for s, q in coeffs:
            total[s] = total.get(s, Fraction(0)) + lam * q
    if any(total.values()):
        return "combined form keeps a variable"
    if const > 0 or (const == 0 and strict):
        return None
    return f"combined constant {const} is not a contradiction"


REASON_F = re.compile(r"^F-curve (\S+) meets the class in degree (\S+), not < 0$")


def report_failures(rep: dict) -> list[str]:
    """Check a serialised witness report against the reference values."""
    n = int(rep["n"])
    combo = {int(s): Fraction(q) for s, q in rep["combo"].items()}
    f_min, f_max, beta = combo_values(n, combo)
    bad = []
    for field, want in (("f_min", f_min), ("f_max", f_max), ("beta_degree", beta)):
        if Fraction(rep[field]) != want:
            bad.append(f"n={n}: {field} {rep[field]} != reference {want}")
    fv = first_violation(n, combo, "negative") if f_max >= 0 else None
    in_unit = all(0 <= q <= 1 for q in combo.values())
    if fv is not None or beta >= 0:
        verdict = "refuted"
    elif not in_unit:
        verdict = "refuted"
    else:
        verdict = "verified" if n + 1 <= 7 else "undecided"
    if rep["verdict"] != verdict:
        bad.append(f"n={n}: verdict {rep['verdict']} != reference {verdict}")
    if fv is not None:
        match = REASON_F.match(rep["reason"] or "")
        want = (format_partition(fv[1]), fv[2])
        if not match or (match.group(1), Fraction(match.group(2))) != want:
            bad.append(f"n={n}: reason {rep['reason']!r}, first violation is {want}")
    if rep["klt_note"] != (verdict == "verified"):
        bad.append(f"n={n}: klt_note {rep['klt_note']}")
    return bad
