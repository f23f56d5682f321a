"""Differential tests: the product kernel and the symbol table against the
slow reference builds in ``products_oracle``.

Every result must agree with the oracle in grid index, grid denominator,
truncation and coefficients.  ``==`` on series compares only through the
common truncation, so it would miss a short window or a wrong exponent that
shows only at high order.
"""

import random
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import products_oracle as oracle
from qlambert import constructors
from qlambert.constructors import (
    SYMBOL_NAMES,
    EtaQuotient,
    GenEtaQuotient,
    eta,
    gen_eta,
    gosper_symbols,
    pi_q,
    pochhammer,
    theta_f,
)

signs = st.sampled_from([1, -1])
orders = st.integers(1, 300)
levels = st.sampled_from([2, 6, 7, 12, 14, 28])


def exact(s):
    return s.v, s.D, s.T, s.coeffs


@given(signs, st.integers(1, 12), st.integers(1, 12), orders)
def test_pochhammer_matches_oracle(sign, a, b, order):
    assert exact(pochhammer(sign, a, b, order)) == exact(
        oracle.pochhammer(sign, a, b, order)
    )


@given(st.integers(1, 28), orders)
def test_eta_and_pi_match_oracle(k, order):
    assert exact(eta(k, order)) == exact(oracle.eta(k, order))
    assert exact(pi_q(k, order)) == exact(oracle.pi_q(k, order))


@given(levels, st.data(), orders)
def test_gen_eta_matches_oracle(level, data, order):
    # L/2 is drawn on its own: there the two factors coincide
    g = data.draw(
        st.one_of(st.just(level // 2), st.integers(-2 * level, 2 * level))
    )
    assume(g % level)
    assert exact(gen_eta(level, g, order)) == exact(oracle.gen_eta(level, g, order))


@given(signs, st.integers(1, 8), signs, st.integers(1, 8), orders)
def test_theta_product_matches_oracle(sa, a, sb, b, order):
    assert exact(theta_f(sa, a, sb, b, order)) == exact(
        oracle.theta_product(sa, a, sb, b, order)
    )


@given(levels, st.data(), orders)
def test_eta_quotient_matches_oracle(level, data, order):
    divisors = [d for d in range(1, level + 1) if level % d == 0]
    exponents = data.draw(
        st.dictionaries(st.sampled_from(divisors), st.integers(-6, 6), max_size=4)
    )
    assert exact(EtaQuotient(level, exponents).series(order)) == exact(
        oracle.eta_quotient(level, exponents, order)
    )


@given(levels, st.data(), orders)
def test_gen_eta_quotient_matches_oracle(level, data, order):
    indices = list(range(1, level // 2 + 1))
    exponents = data.draw(
        st.dictionaries(st.sampled_from(indices), st.integers(-6, 6), max_size=4)
    )
    assert exact(GenEtaQuotient(level, exponents).series(order)) == exact(
        oracle.gen_eta_quotient(level, exponents, order)
    )


# _qproduct solves windows longer than B by halves; these windows sit on
# either side of one and two halvings, and 1100 takes several levels
B = constructors._BLOCK
WINDOWS = [B - 1, B, B + 1, 2 * B, 2 * B + 1, 1100]


@pytest.mark.parametrize("w", WINDOWS)
def test_windows_around_the_block_match_oracle(w):
    # the quotient has pref = -1/4, so order w - 1 gives its unit part window w
    assert exact(eta(1, w)) == exact(oracle.eta(1, w))
    assert exact(theta_f(1, 1, 1, 3, w)) == exact(oracle.theta_product(1, 1, 1, 3, w))
    quotient = EtaQuotient(14, {1: 3, 2: -1, 7: -3, 14: 1})
    assert exact(quotient.series(w - 1)) == exact(
        oracle.eta_quotient(14, quotient.exponents, w - 1)
    )


def test_wide_digits_match_oracle():
    # coefficients of 1/eta^24 pass 64 bits by q^30, so the packed products
    # of a long window use digits wider than 8 bytes
    got = EtaQuotient(1, {1: -24}).series(320)
    assert max(abs(c) for c in got.coeffs).bit_length() > 250
    assert exact(got) == exact(oracle.eta_quotient(1, {1: -24}, 320))


@pytest.mark.parametrize("k", [B + 5, 2 * B + 7])
def test_sparse_products_with_zero_blocks_match_oracle(k):
    # eta(k) is nonzero only every k slots, so whole blocks of it are zero
    assert exact(eta(k, 1100)) == exact(oracle.eta(k, 1100))
    assert exact(pochhammer(-1, k, k + 1, 900)) == exact(
        oracle.pochhammer(-1, k, k + 1, 900)
    )


@pytest.mark.parametrize("order", [2 * B + 1, 500])
def test_negative_sign_matches_oracle(order):
    # geta(7, 8) = -eta_{7,1}: the sign law's sign is part of the statement
    got = gen_eta(7, 8, order)
    assert got.coeffs[0] == -1
    assert exact(got) == exact(oracle.gen_eta(7, 8, order))


@contextmanager
def fresh_symbols():
    """Empty symbol caches inside the block, so every request builds."""
    saved = constructors._SYMBOL_CACHE, constructors._SYMBOL_SERVED
    constructors._SYMBOL_CACHE, constructors._SYMBOL_SERVED = {}, {}
    try:
        yield
    finally:
        constructors._SYMBOL_CACHE, constructors._SYMBOL_SERVED = saved


@given(st.sampled_from(SYMBOL_NAMES), st.integers(1, 120))
def test_symbol_builds_match_oracle(name, window):
    with fresh_symbols():
        got = gosper_symbols(name, window)
    assert exact(got) == exact(oracle.symbol(name, window))


def test_smaller_window_is_served_from_the_largest_build(monkeypatch):
    with fresh_symbols():
        for name in SYMBOL_NAMES:
            gosper_symbols(name, 60)

        def no_build(name, window):
            raise AssertionError(f"built {name} at window {window}")

        monkeypatch.setattr(constructors, "_build", no_build)
        served = {name: gosper_symbols(name, 50) for name in SYMBOL_NAMES}
        assert all(gosper_symbols(n, 50) is s for n, s in served.items())
        assert len(constructors._SYMBOL_CACHE) == len(SYMBOL_NAMES)
        assert len(constructors._SYMBOL_SERVED) == len(SYMBOL_NAMES)
        monkeypatch.undo()
    with fresh_symbols():
        fresh = {name: gosper_symbols(name, 50) for name in SYMBOL_NAMES}
    for name in SYMBOL_NAMES:
        assert exact(served[name]) == exact(fresh[name]), name
        assert exact(served[name]) == exact(oracle.symbol(name, 50)), name


def test_concurrent_requests_build_each_window_once(monkeypatch):
    # under the lock a name is built at a window only while its cached build
    # is smaller, so no (name, window) is ever built twice
    jobs = [(name, window) for name in ("t", "f", "z") for window in (10, 20, 30, 40)]
    want = {job: exact(oracle.symbol(*job)) for job in jobs}
    built, wrong = [], []
    build = constructors._build

    def counted(name, window):
        built.append((name, window))
        return build(name, window)

    start = threading.Barrier(4)

    def worker(seed):
        order = jobs * 3
        random.Random(seed).shuffle(order)
        start.wait(timeout=60)
        for job in order:
            if exact(gosper_symbols(*job)) != want[job]:
                wrong.append(job)

    monkeypatch.setattr(constructors, "_build", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with fresh_symbols():
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    assert len(built) == len(set(built)), sorted(built)
