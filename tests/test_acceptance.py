"""Acceptance criteria.

Each criterion is one test that prints a PASS/FAIL line (run with -s to see
them all); every tolerance and runtime limit is pinned here.  A table-2
consistency check stands in for the two rows past the exhaustive guard.
"""

import time

import pytest

from nilbound.bounds import (
    binomial_lower,
    class2_exponent,
    combine_multiplicative,
    f_closed,
    f_upper,
)
from nilbound.constructions import (
    abelian_class2_group,
    affine_unitriangular,
    dihedral_times_abelian,
    iterated_wreath_sylow,
    product_action,
    wreath_polynomial_group,
)
from nilbound.perm import (
    PermGroup,
    Permutation,
    center,
    lower_central_series,
)
from nilbound.search import TABLE2_REFERENCE, fnil_exact

from conftest import NAIVE_CLOSURE_LIMIT, class_of, naive_closure, stabilizer_order


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def search_rows():
    return {
        (2, 1): fnil_exact(2, 1, 8),
        (2, 2): fnil_exact(2, 2, 8),
        (2, 3): fnil_exact(2, 3, 8),
        (3, 1): fnil_exact(3, 1, 2),
    }


def log_p(order, p):
    e = 0
    while order > 1:
        assert order % p == 0
        order //= p
        e += 1
    return e


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    mismatches = [
        (k, c)
        for c in (1, 2, 3, 4)
        for k in range(1, 41)
        if f_upper(k, c) != f_closed(k, c)
    ]
    exceptional_ok = f_upper(2, 4) == 5 and f_upper(6, 4) == 188
    elapsed = time.perf_counter() - start
    report(
        1,
        "closed forms match the composition maximum for c<=4, k<=40",
        not mismatches and exceptional_ok and elapsed < 5.0,
        f"{elapsed:.2f}s, mismatches={mismatches}",
    )


def test_criterion_2_table2_exhaustive():
    expected = {
        1: (1, 1, 1, 1, 1, 1, 1, 1),
        2: (2, 3, 3, 3, 3, 3, 3, 3),
        3: (3, 5, 6, 7, 7, 7, 7, 7),
    }
    start = time.perf_counter()
    rows = {k: fnil_exact(2, k, 8) for k in (1, 2, 3)}
    elapsed = time.perf_counter() - start
    ok = all(rows[k]["exponents"] == list(value) for k, value in expected.items())
    report(
        2,
        "exhaustive search reproduces the k<=3 reference rows",
        ok and elapsed < 60.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_class2_witnesses():
    start = time.perf_counter()
    ok = True
    details = []
    for p, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        m = k // 2
        G = affine_unitriangular(p, k, m)
        Z = center(G)
        g2 = lower_central_series(G).terms[1]
        good = (
            G.degree == p**k
            and G.is_transitive()
            and class_of(G) == 2
            and G.order() == p ** class2_exponent(k)
            and Z.order() == p**m
            and all(g in Z for g in g2.generators)
            and all(z in g2 for z in Z.generators)
        )
        if not good:
            ok = False
            details.append(f"({p},{k})")
    elapsed = time.perf_counter() - start
    report(
        3,
        "affine witnesses are extremal of class exactly 2",
        ok and elapsed < 30.0,
        f"{elapsed:.2f}s" + (f", bad={details}" if details else ""),
    )


def test_criterion_4_abelian_class2_family():
    failures = []
    count = 0
    for p in (2, 3, 5):
        for k in range(2, 5):
            if p**k > 27:
                continue
            for m in sorted({k // 2, (k + 1) // 2}):
                for a in range(0, min(m, k - m) + 1):
                    count += 1
                    G = abelian_class2_group(p, k, m, a)
                    Z = center(G)
                    g2 = lower_central_series(G).terms[1]
                    good = (
                        G.order() == p ** class2_exponent(k)
                        and class_of(G) == 2
                        and Z.order() == p**m
                        and all(g in Z for g in g2.generators)
                        and all(z in g2 for z in Z.generators)
                    )
                    if not good:
                        failures.append((p, k, m, a))
    report(
        4,
        "every admissible mixed-exponent class-2 group is extremal",
        count >= 10 and not failures,
        f"{count} parameter tuples" + (f", bad={failures}" if failures else ""),
    )


def test_criterion_5_multiplicative_combination(search_rows):
    d4 = PermGroup.from_json(search_rows[(2, 2)]["witnesses"][1])  # class <= 2 maximizer at degree 4
    c3 = PermGroup.from_json(search_rows[(3, 1)]["witnesses"][1])  # class <= 2 maximizer at degree 3
    exponents = {4: search_rows[(2, 2)]["exponents"][1], 3: search_rows[(3, 1)]["exponents"][1]}
    G = product_action(d4, c3)
    combined = combine_multiplicative(exponents)
    ok = (
        G.degree == 12
        and G.is_transitive()
        and class_of(G) == 2
        and G.order() == 24
        and combined == 24
    )
    report(
        5,
        "degree-12 product of search witnesses realizes the combined order",
        ok,
        f"order {G.order()}, combined {combined}",
    )


def test_criterion_6_wreath_polynomial_certificate():
    start = time.perf_counter()
    G = wreath_polynomial_group(2, 2, 2, 2)
    exponent = log_p(G.order(), 2)
    ok = (
        G.degree == 16
        and G.order() == 2**8
        and G.is_transitive()
        and class_of(G) == 2
        and exponent == class2_exponent(4)
        and exponent >= binomial_lower(4, 2)
    )
    elapsed = time.perf_counter() - start
    report(
        6,
        "degree-16 polynomial witness certifies the class-2 value",
        ok and elapsed < 30.0,
        f"{elapsed:.2f}s, log order {exponent}",
    )


def _audit_corpus(search_rows):
    """(p, k, group) for every prime-power-degree transitive group the test
    corpus produces: constructions plus all search witnesses."""
    entries = [
        (2, 2, affine_unitriangular(2, 2, 1)),
        (2, 3, affine_unitriangular(2, 3, 1)),
        (2, 4, affine_unitriangular(2, 4, 2)),
        (3, 2, affine_unitriangular(3, 2, 1)),
        (3, 3, affine_unitriangular(3, 3, 1)),
        (5, 2, affine_unitriangular(5, 2, 1)),
        (2, 2, abelian_class2_group(2, 2, 1, 1)),
        (2, 3, abelian_class2_group(2, 3, 1, 1)),
        (2, 4, abelian_class2_group(2, 4, 2, 2)),
        (3, 3, abelian_class2_group(3, 3, 2, 1)),
        (2, 1, iterated_wreath_sylow(2, 1)),
        (2, 2, iterated_wreath_sylow(2, 2)),
        (2, 3, iterated_wreath_sylow(2, 3)),
        (2, 4, iterated_wreath_sylow(2, 4)),
        (3, 2, iterated_wreath_sylow(3, 2)),
        (2, 2, wreath_polynomial_group(2, 1, 1, 2)),
        (2, 4, wreath_polynomial_group(2, 2, 2, 2)),
        (2, 4, wreath_polynomial_group(2, 1, 3, 3)),
        (2, 5, wreath_polynomial_group(2, 1, 4, 2)),
        (3, 2, wreath_polynomial_group(3, 1, 1, 3)),
        (2, 3, dihedral_times_abelian(3, 2)),
        (2, 4, dihedral_times_abelian(4, 2)),
        (2, 4, dihedral_times_abelian(4, 3)),
        (2, 5, dihedral_times_abelian(5, 4)),
    ]
    for (p, k), row in search_rows.items():
        for witness in row["witnesses"]:
            entries.append((p, k, PermGroup.from_json(witness)))
    return entries


def test_criterion_7_upper_bound_audit(search_rows):
    violations = []
    checked = 0
    for p, k, G in _audit_corpus(search_rows):
        checked += 1
        cls = class_of(G)
        exponent = log_p(G.order(), p)
        if exponent > f_upper(k, cls):
            violations.append((p, k, cls, exponent))
    report(
        7,
        "no group in the corpus exceeds the composition upper bound",
        checked >= 40 and not violations,
        f"{checked} groups" + (f", violations={violations}" if violations else ""),
    )


def test_criterion_8_asymptotic_ratio():
    start = time.perf_counter()
    k = 300
    ratio3 = f_upper(k, 3) * 27 / (4 * k**3)
    ratio2 = f_upper(k, 2) * 4 / k**2
    elapsed = time.perf_counter() - start
    ok = abs(ratio3 - 1) <= 0.05 and abs(ratio2 - 1) <= 0.05 and elapsed < 10.0
    report(
        8,
        "composition maximum matches its leading term at k=300",
        ok,
        f"{elapsed:.2f}s, ratios {ratio3:.4f}/{ratio2:.4f}",
    )


def test_criterion_9_regular_groups_of_prescribed_class():
    failures = []
    for k, c in [(3, 2), (4, 2), (4, 3), (5, 4)]:
        G = dihedral_times_abelian(k, c)
        if not (G.is_regular() and G.order() == 2**k and class_of(G) == c):
            failures.append((k, c))
    report(
        9,
        "regular dihedral-times-abelian groups hit class exactly c",
        not failures,
        f"bad={failures}" if failures else "4 parameter pairs",
    )


def test_criterion_10_engine_oracles(corpus):
    small = [(name, G) for name, G in corpus if G.order() <= NAIVE_CLOSURE_LIMIT]
    violations = []
    for name, G in small:
        closure = naive_closure(G.degree, G.generators)
        if G.order() != len(closure):
            violations.append((name, "order"))
        for point in range(G.degree):
            if G.order() != len(G.orbit(point)) * stabilizer_order(G, point):
                violations.append((name, f"orbit-stabilizer@{point}"))
        if G.is_transitive():
            # a nonidentity element centralizing a transitive group fixes
            # no point
            for z_images in closure:
                z = Permutation(z_images)
                if z.is_identity():
                    continue
                if all(z * g == g * z for g in G.generators):
                    if any(z_images[x] == x for x in range(G.degree)):
                        violations.append((name, "central-fixed-point"))
    report(
        10,
        "stabilizer chain agrees with closure oracles on the corpus",
        len(small) >= 20 and not violations,
        f"{len(small)} groups" + (f", violations={violations}" if violations else ""),
    )


def test_table2_reference_rows_dominate_realized_constructions(search_rows):
    # stand-in for the two rows past the exhaustive guard: every realized
    # degree-16/32 group stays at or below the embedded reference entry for
    # its class
    failures = []
    checked = 0
    for p, k, G in _audit_corpus(search_rows):
        if p != 2 or k not in (4, 5):
            continue
        checked += 1
        cls = min(class_of(G), 16)
        exponent = log_p(G.order(), 2)
        if exponent > TABLE2_REFERENCE[k][cls - 1]:
            failures.append((k, cls, exponent))
    report(
        "2b",
        "degree-16/32 constructions stay within the reference rows",
        checked >= 8 and not failures,
        f"{checked} groups" + (f", bad={failures}" if failures else ""),
    )
