"""Acceptance gate: nine exactness criteria, one printed verdict line each.

Every check is an exact structural equality in Q(w)[x] or an exact p-adic
valuation; nothing here samples or approximates.  Each test prints its own
pass/fail line even under capture so the gate is readable in one glance.
"""

import importlib.resources
import math
import random
import time
from fractions import Fraction

from weuler.dsl import TableContext, check_corpus, check_identity, parse_identity
from weuler.euler import (
    EulerTable,
    classical_euler_polys,
    gf_denominator,
    order_k_multinomial,
    verify_paper_suite,
    weighted_euler_gf,
    weighted_euler_numbers,
    weighted_euler_polys,
)
from weuler.padic import convergence_report, shift_identity_check
from weuler.ratfunc import QQ
from weuler.series import Series
from weuler.umbral import ShefferPair, biorthogonality_check, sheffer_basis


def report(capsys, number, slug, ok, detail=""):
    line = f"criterion {number} ({slug}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return line


def monomial(n):
    return [Fraction(0)] * n + [Fraction(1)]


def test_criterion_1_dual_path_agreement(capsys):
    t0 = time.monotonic()
    rec = weighted_euler_numbers(20)
    gf = weighted_euler_gf(20)
    mismatches = [n for n in range(20) if gf.umbral_coefficient(n) != rec[n]]
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 5.0
    detail = f"recurrence = series inversion for n < 20 in {elapsed:.2f}s"
    if mismatches:
        detail = f"mismatch at n = {mismatches}"
    line = report(capsys, 1, "dual-path agreement", ok, detail)
    assert ok, line


def test_criterion_2_full_suite_and_fault_injection(capsys):
    t0 = time.monotonic()
    tables = {k: EulerTable.build(12, k) for k in (1, 2, 3, 4)}
    clean = verify_paper_suite(12, 4, tables=tables)
    stored = len(tables[1].numbers)
    undetected = []
    for n in range(stored):
        mutated = tables[1].with_perturbed_number(n)
        rep = verify_paper_suite(12, 1, tables={1: mutated})
        failures = [r for r in rep.results if r.status == "fail"]
        if not failures or all(r.counterexample is None for r in failures):
            undetected.append(n)
    elapsed = time.monotonic() - t0
    ok = clean.passed and not undetected and elapsed < 60.0
    detail = (
        f"checks (a)-(k) pass at (12,4); all {stored} single-entry faults caught in {elapsed:.1f}s"
    )
    if not clean.passed:
        detail = "clean suite failed: " + ", ".join(r.check for r in clean.results if r.status == "fail")
    elif undetected:
        detail = f"mutations not caught at n = {undetected}"
    line = report(capsys, 2, "identity suite + fault injection", ok, detail)
    assert ok, line


def test_criterion_3_sheffer_engine_cross_check(capsys):
    problems = []
    for k in (1, 2, 3):
        g = gf_denominator(14, order=k)
        pair = ShefferPair(g, Series.identity(g.field, 14))
        basis = sheffer_basis(pair, 12)
        direct = weighted_euler_polys(12, order=k)
        if basis != direct:
            problems.append(f"basis mismatch at k = {k}")
            continue
        for n in range(9):
            for j in range(9):
                got = biorthogonality_check(pair, basis, n, j)
                want = g.field.of(Fraction(math.factorial(n))) if n == j else g.field.zero
                if got != want:
                    problems.append(f"biorthogonality broken at k={k}, n={n}, j={j}")
    ok = not problems
    detail = "sheffer_basis matches the table and <g^k t^j|E_n> = n! delta for n,j <= 8"
    if problems:
        detail = "; ".join(problems[:3])
    line = report(capsys, 3, "sheffer engine cross-check", ok, detail)
    assert ok, line


def test_criterion_4_reversion_soundness(capsys):
    catalan = Series(QQ, [Fraction(0), Fraction(1), Fraction(1)] + [Fraction(0)] * 5, 8).reverse()
    prefix_ok = [catalan.coefficient(n) for n in range(1, 6)] == [1, -1, 2, -5, 14]
    rng = random.Random(20260814)
    bad = 0
    for _ in range(50):
        coeffs = [Fraction(0), Fraction(rng.choice([1, -1, 2, -2, 3, -3]))]
        coeffs += [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(14)]
        f = Series(QQ, coeffs, 16)
        if not f.compose(f.reverse()).agrees_with(Series.identity(QQ, 16)):
            bad += 1
    ok = prefix_ok and bad == 0
    detail = "signed-Catalan prefix and 50 seeded round-trips at precision 16"
    if not prefix_ok:
        detail = f"reverse(t + t^2) prefix is {[str(catalan.coefficient(n)) for n in range(1, 6)]}"
    elif bad:
        detail = f"{bad} of 50 round-trips failed"
    line = report(capsys, 4, "reversion soundness", ok, detail)
    assert ok, line


def test_criterion_5_classical_reduction(capsys):
    classical = classical_euler_polys(13)
    direct = weighted_euler_polys(13, w=Fraction(1))
    direct_ok = all(w.coeffs == c.coeffs for w, c in zip(direct, classical))
    symbolic = weighted_euler_polys(13)
    sym_ok = all(
        [coef.eval_at(Fraction(1)) for coef in w.coeffs] == list(c.coeffs)
        for w, c in zip(symbolic, classical)
    )
    ok = direct_ok and sym_ok
    detail = "w = 1 (preset and evaluated) equals the independent recurrence for n <= 12"
    if not direct_ok:
        detail = "mismatch computing directly at w = 1"
    elif not sym_ok:
        detail = "mismatch evaluating the symbolic table at w = 1"
    line = report(capsys, 5, "classical reduction", ok, detail)
    assert ok, line


def test_criterion_6_padic_convergence(capsys):
    """Pinned valuations, then the rate v_p(S_m - I) >= m over the sweep.

    Strict increase of the valuations is not a property of the integral: at
    p = 3, w = 4, f = a^5 they are [2, 4, 8, 7].  What holds is a rate.  For
    an admissible w (p odd, v_p(1 - w) >= 1) and f in Z_p[x], let N = p^m.
    The distribution relation gives

        I - S_m = sum_{a<N} (-w)^a [ int (f(a + N x) - f(a)) dmu_{-w^N}
                                     + f(a) (1 - w^N) / (1 + w^N) ].

    Here f(a + N x) - f(a) lies in p^m Z_p[x].  The measure mu_{-w^N} takes
    values in Z_p, because 1 + w^N = 2 (mod p) is a unit.  Finally
    v_p(1 - w^N) = v_p(1 - w) + m by lifting the exponent.  So every
    deviation has valuation at least m, and f = a shows that the bound is
    sharp: its valuations are [1, 2, 3, 4] for p = 3, 5 and 7.
    """
    t0 = time.monotonic()
    pinned = convergence_report([Fraction(1)], Fraction(4), 3, 4, 12)
    pinned_ok = pinned.valuations == [2, 3, 4, 5]
    violations = []
    dip = None
    for p in (3, 5, 7):
        for n in range(7):
            rep = convergence_report(monomial(n), Fraction(1 + p), p, 4, 12)
            if not all(r.exact_zero or r.deviation_valuation >= r.level for r in rep.rows):
                violations.append((p, n, rep.valuations))
            if (p, n) == (3, 5):
                dip = rep.valuations
    elapsed = time.monotonic() - t0
    ok = pinned_ok and not violations and elapsed < 30.0
    detail = (
        f"valuations [2,3,4,5] pinned and v_p(S_m - I) >= m for all 21 sweep cases"
        f" in {elapsed:.1f}s (p=3, n=5 gives {dip}: not monotone, within the bound)"
    )
    if not pinned_ok:
        detail = f"pinned case gave {pinned.valuations}"
    elif violations:
        cases = "; ".join(f"(p={p}, n={n}): valuations {v}" for p, n, v in violations)
        detail = f"rate v_p(S_m - I) >= m violated at {cases}"
    line = report(capsys, 6, "p-adic convergence", ok, detail)
    assert ok, line


def test_criterion_7_extended_shift_identity(capsys):
    symbolic_bad = []
    for n in range(9):
        rep = shift_identity_check(monomial(n), Fraction(4), 3, 1, 10)
        if not rep.symbolic_ok:
            symbolic_bad.append((n, rep.symbolic_difference))
    numeric_bad = []
    for p in (3, 5, 7):
        for n in range(7):
            rep = shift_identity_check(monomial(n), Fraction(1 + p), p, 4, 14)
            if not rep.strictly_increasing():
                numeric_bad.append((p, n, rep.valuations))
    ok = not symbolic_bad and not numeric_bad
    detail = "w*I(f(.+1)) + I(f) = 2 f(0) symbolically for n <= 8; deviations strict for the sweep"
    if symbolic_bad:
        detail = f"symbolic failures at n = {[n for n, _ in symbolic_bad]}"
    elif numeric_bad:
        detail = "; ".join(f"(p={p}, n={n}): valuations {v}" for p, n, v in numeric_bad)
    line = report(capsys, 7, "extended shift identity", ok, detail)
    assert ok, line


def test_criterion_8_dsl_corpus(capsys):
    corpus = (
        importlib.resources.files("weuler")
        .joinpath("corpus/paper.uid")
        .read_text(encoding="utf-8")
    )
    ctx = TableContext()
    verdicts = check_corpus(corpus, ctx)
    corpus_ok = len(verdicts) == 7 and all(v.status == "pass" for v in verdicts)

    corrupted = check_identity(
        parse_identity("forall n in 0..4 : w*E(n, x + 1) + E(n, x) = 2*x^n + 1"), ctx
    )
    corrupted_ok = (
        corrupted.status == "fail" and corrupted.at == 0 and corrupted.difference == "-1"
    )

    malformed = check_corpus("forall n in 0..4 : E(n, x = x\n", ctx)
    malformed_ok = (
        len(malformed) == 1
        and malformed[0].status == "error"
        and malformed[0].location is not None
        and "syntax error at" in malformed[0].message
    )

    ok = corpus_ok and corrupted_ok and malformed_ok
    detail = "7 shipped identities pass; fault names n and difference; parse error names line:column"
    if not corpus_ok:
        detail = "shipped corpus did not fully pass"
    elif not corrupted_ok:
        detail = f"corrupted verdict was {corrupted.to_json()}"
    elif not malformed_ok:
        detail = f"malformed verdict was {[v.to_json() for v in malformed]}"
    line = report(capsys, 8, "identity language", ok, detail)
    assert ok, line


def test_criterion_9_multinomial_identity(capsys):
    mismatches = []
    for k in (1, 2, 3, 4):
        for n in range(11):
            lhs, rhs = order_k_multinomial(k, n)
            if lhs != rhs:
                mismatches.append((k, n))
    ok = not mismatches
    detail = "order-k number equals the multinomial convolution for k <= 4, n <= 10"
    if mismatches:
        detail = f"mismatch at (k, n) = {mismatches[:5]}"
    line = report(capsys, 9, "multinomial identity", ok, detail)
    assert ok, line
