"""Differential tests: the product kernel and the symbol table against the
slow reference builds in ``products_oracle``.

Every result must agree with the oracle in grid index, grid denominator,
truncation and coefficients.  ``==`` on series compares only through the
common truncation, so it would miss a short window or a wrong exponent that
shows only at high order.
"""

import json
import os
import random
import subprocess
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dsl_oracle
import products_oracle as oracle
import qlambert
from qlambert import constructors, dsl
from qlambert.constructors import (
    SYMBOL_NAMES,
    EtaQuotient,
    EtaTypeProduct,
    GenEtaQuotient,
    eta,
    eta_type_product,
    gen_eta,
    gosper_symbols,
    lambert_mod,
    pi_q,
    pochhammer,
    theta_f,
)
from qlambert.dsl import Call, evaluate, parse
from qlambert.series import QSeries

signs = st.sampled_from([1, -1])
orders = st.integers(1, 300)
levels = st.sampled_from([2, 6, 7, 12, 14, 28])


def exact(s):
    return s.v, s.D, s.T, s.L, s.coeffs


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
    """An empty symbol cache inside the block, so every request builds."""
    saved = constructors._SYMBOL_CACHE
    constructors._SYMBOL_CACHE = {}
    try:
        yield
    finally:
        constructors._SYMBOL_CACHE = saved


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
        assert len(constructors._SYMBOL_CACHE) == len(SYMBOL_NAMES)
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


# -- the memo of the product kernel's unit part ------------------------------

memo = constructors._memo_unit_part

#: one product stated two ways, as in the ``deep`` benchmark workload:
#: theta(-1,1,-1,1) = eta(1)^2/eta(2), theta(1,1,1,1) = eta(2)^5/(eta(1)^2
#: eta(4)^2) and prod_g geta(11, g) = eta(1)/eta(11); each pair has one
#: prefactor, so at one order both read one exponent sequence
SAME_PRODUCT = [
    (
        lambda order: theta_f(-1, 1, -1, 1, order),
        lambda order: EtaQuotient(2, {1: 2, 2: -1}).series(order),
    ),
    (
        lambda order: theta_f(1, 1, 1, 1, order),
        lambda order: EtaQuotient(4, {1: -2, 2: 5, 4: -2}).series(order),
    ),
    (
        lambda order: GenEtaQuotient(11, {g: 1 for g in range(1, 6)}).series(order),
        lambda order: EtaQuotient(11, {1: 1, 11: -1}).series(order),
    ),
]


def counted_solves(monkeypatch) -> list:
    """The windows of the top-level ``_solve`` calls made from now on."""
    windows = []
    solve = constructors._solve

    def counted(f, s, l, r):
        if l == 0 and r == len(f):
            windows.append(r)
        return solve(f, s, l, r)

    monkeypatch.setattr(constructors, "_solve", counted)
    return windows


@pytest.mark.parametrize("pair", range(len(SAME_PRODUCT)))
def test_one_product_stated_two_ways_is_solved_once(monkeypatch, pair):
    first, second = SAME_PRODUCT[pair]
    memo.cache_clear()
    windows = counted_solves(monkeypatch)
    a, b = first(300), second(300)
    assert len(windows) == 1
    assert exact(a) == exact(b)


@pytest.mark.parametrize(
    "build",
    [
        lambda: theta_f(1, 1, 1, 1, 470),
        lambda: EtaQuotient(14, {1: 3, 2: -1, 7: -3, 14: 1}).series(200),
        lambda: gen_eta(7, 8, 2 * B + 1),  # a negative sign
        lambda: pi_q(7, 90),  # a prefactor on the grid 1/4
        lambda: pochhammer(-1, 3, 5, 120),
    ],
)
def test_a_hit_equals_a_cold_build(build):
    memo.cache_clear()
    build()
    hits = memo.cache_info().hits
    hit = build()
    assert memo.cache_info().hits == hits + 1
    memo.cache_clear()
    cold = build()
    assert memo.cache_info().hits == 0
    assert exact(hit) == exact(cold)


def test_sign_and_prefactor_are_applied_after_the_lookup():
    # geta(7, 8) = -eta_{7,1}, and eta(1) = q^(1/24) (q; q): each pair reads
    # one exponent sequence
    memo.cache_clear()
    plus, minus = gen_eta(7, 1, 200), gen_eta(7, 8, 200)
    bare, shifted = pochhammer(1, 1, 1, 100), eta(1, 100)
    assert memo.cache_info().misses == 2
    assert exact(plus) == exact(oracle.gen_eta(7, 1, 200))
    assert exact(minus) == exact(oracle.gen_eta(7, 8, 200))
    assert exact(bare) == exact(oracle.pochhammer(1, 1, 1, 100))
    assert exact(shifted) == exact(oracle.eta(1, 100))


def test_the_memo_is_bounded(monkeypatch):
    memo.cache_clear()
    # distinct exponent sequences at a window of 80 slots: (q; q^b) for each b
    for b in range(1, constructors._MEMO_ENTRIES + 10):
        pochhammer(1, 1, b, 80)
    assert memo.cache_info().currsize == constructors._MEMO_ENTRIES
    # a window wider than _MEMO_SLOTS is solved every time and never kept
    memo.cache_clear()
    wide = constructors._MEMO_SLOTS + 1
    windows = counted_solves(monkeypatch)
    first, again = pochhammer(1, 53, 53, wide), pochhammer(1, 53, 53, wide)
    assert windows == [wide, wide]
    assert memo.cache_info().currsize == 0
    assert exact(first) == exact(again) == exact(oracle.pochhammer(1, 53, 53, wide))


def test_concurrent_builds_of_one_product_agree():
    builds = [build for pair in SAME_PRODUCT for build in pair]
    products = [
        oracle.theta_product(-1, 1, -1, 1, 200),
        oracle.theta_product(1, 1, 1, 1, 200),
        oracle.eta_quotient(11, {1: 1, 11: -1}, 200),
    ]
    want = [exact(product) for product in products for _ in range(2)]
    wrong = []
    start = threading.Barrier(4)

    def worker(seed):
        order = list(range(len(builds))) * 3
        random.Random(seed).shuffle(order)
        start.wait(timeout=60)
        for k in order:
            if exact(builds[k](200)) != want[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        memo.cache_clear()
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    assert memo.cache_info().currsize == len(SAME_PRODUCT)


#: (build, oracle) pairs of one order each.  The first four are two
#: products stated two ways; (q^20; q^20), (q^20; q^21) and eta(41) agree
#: on their first 40 slots and share their head with every sparse product,
#: so a request can find an entry that agrees with it on a prefix only
REQUESTS = [
    (lambda n: theta_f(1, 1, 1, 1, n), lambda n: oracle.theta_product(1, 1, 1, 1, n)),
    (
        lambda n: EtaQuotient(4, {1: -2, 2: 5, 4: -2}).series(n),
        lambda n: oracle.eta_quotient(4, {1: -2, 2: 5, 4: -2}, n),
    ),
    (lambda n: theta_f(-1, 1, -1, 1, n), lambda n: oracle.theta_product(-1, 1, -1, 1, n)),
    (
        lambda n: EtaQuotient(2, {1: 2, 2: -1}).series(n),
        lambda n: oracle.eta_quotient(2, {1: 2, 2: -1}, n),
    ),
    (lambda n: pochhammer(1, 20, 20, n), lambda n: oracle.pochhammer(1, 20, 20, n)),
    (lambda n: pochhammer(1, 20, 21, n), lambda n: oracle.pochhammer(1, 20, 21, n)),
    (lambda n: eta(41, n), lambda n: oracle.eta(41, n)),
    (lambda n: gen_eta(7, 8, n), lambda n: oracle.gen_eta(7, 8, n)),  # a negative sign
    (lambda n: pi_q(3, n), lambda n: oracle.pi_q(3, n)),  # a prefactor on the grid 1/4
]


def exponent_sequence(series_call, order) -> tuple:
    """The c that ``_qproduct`` reads for one request, caught on its way to
    the memo."""
    seen = []
    memo_call = constructors._memo_unit_part

    def spy(c):
        seen.append(c)
        return memo_call(c)

    constructors._memo_unit_part = spy
    try:
        series_call(order)
    finally:
        constructors._memo_unit_part = memo_call
    (c,) = seen
    return c


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, len(REQUESTS) - 1),
            # 40 and 41 sit on either side of where (q^20; q^20) and
            # (q^20; q^21) part
            st.one_of(st.integers(1, 240), st.sampled_from([40, 41, 42])),
        ),
        min_size=2,
        max_size=6,
    )
)
def test_requests_in_any_window_order_match_a_cold_solve(requests):
    # narrower after wider, wider after narrower, two statements of one
    # product, and products that agree on a prefix only, from an empty memo
    memo.cache_clear()
    for k, order in requests:
        build, reference = REQUESTS[k]
        assert exact(build(order)) == exact(reference(order)), (k, order)
        c = exponent_sequence(build, order)
        assert memo(c) == constructors._unit_part(c), (k, order)
        assert memo.cache_info().currsize <= constructors._MEMO_ENTRIES


def test_an_entry_serves_only_requests_that_agree_with_it(monkeypatch):
    # (q^20; q^20) and (q^20; q^21) agree on c(0..39) and part at c(40)
    memo.cache_clear()
    windows = counted_solves(monkeypatch)
    pochhammer(1, 20, 20, 60)
    assert exact(pochhammer(1, 20, 21, 40)) == exact(oracle.pochhammer(1, 20, 21, 40))
    assert windows == [60]
    assert exact(pochhammer(1, 20, 21, 41)) == exact(oracle.pochhammer(1, 20, 21, 41))
    assert windows == [60, 41]
    assert memo.cache_info().currsize == 2


def test_one_product_at_ascending_windows_is_solved_once(monkeypatch):
    # one kernel product (``theta_f``; a DSL theta leaf takes the sum
    # instead) at three ascending windows: each wider window extends the
    # unit part from the slots the memo holds
    memo.cache_clear()
    windows = counted_solves(monkeypatch)
    got = [theta_f(1, 1, 1, 1, order) for order in (194, 326, 482)]
    assert windows == [194]
    assert memo.cache_info()._asdict() == {
        "hits": 2,
        "misses": 1,
        "maxsize": constructors._MEMO_ENTRIES,
        "currsize": 1,
    }
    for series, order in zip(got, (194, 326, 482)):
        assert exact(series) == exact(oracle.theta_product(1, 1, 1, 1, order))
    # and a narrower window afterwards reads a prefix
    assert exact(theta_f(1, 1, 1, 1, 100)) == exact(oracle.theta_product(1, 1, 1, 1, 100))
    assert windows == [194]


def test_an_extension_cut_short_leaves_its_entry_as_it_was(monkeypatch):
    memo.cache_clear()
    theta_f(1, 1, 1, 1, 100)
    solve = constructors._solve

    def interrupted(f, s, l, r):
        raise KeyboardInterrupt

    monkeypatch.setattr(constructors, "_solve", interrupted)
    with pytest.raises(KeyboardInterrupt):
        theta_f(1, 1, 1, 1, 300)
    monkeypatch.setattr(constructors, "_solve", solve)
    for order in (300, 100, 50):
        assert exact(theta_f(1, 1, 1, 1, order)) == exact(
            oracle.theta_product(1, 1, 1, 1, order)
        )
    assert memo.cache_info().currsize == 1


def test_a_cold_verify_of_elim_k_solves_each_sequence_once(monkeypatch):
    # its first pass falls short and its second, wider one extends the five
    # sequences of the first (g, g1, g2, g3 and 1/Pi_{q^7}^2)
    from qlambert import catalog

    memo.cache_clear()
    windows = counted_solves(monkeypatch)
    with fresh_symbols():
        report = catalog.verify("elim-K")
    assert report.status == "verified"
    assert len(windows) == 5, windows
    assert memo.cache_info().misses == 5


def test_concurrent_widening_of_one_sequence_leaves_one_entry(monkeypatch):
    # theta(1,1,1,1) stated two ways, at shuffled windows, by four threads
    builds = SAME_PRODUCT[1]
    orders = list(range(40, 401, 40))
    want = {order: exact(oracle.theta_product(1, 1, 1, 1, order)) for order in orders}
    jobs = [(build, order) for build in builds for order in orders]
    wrong = []
    start = threading.Barrier(4)

    def worker(seed):
        order = list(jobs)
        random.Random(seed).shuffle(order)
        start.wait(timeout=60)
        for build, n in order:
            if exact(build(n)) != want[n]:
                wrong.append(n)

    memo.cache_clear()
    windows = counted_solves(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    assert len(windows) == 1
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 4 * len(jobs) - 1)


# -- theta leaves from the triple-product sum --------------------------------


def theta_power(sa, a, sb, b, r):
    """theta(sa,a,sb,b)^r as the DSL's product leaf: one theta call."""
    return EtaTypeProduct(frozenset({(Call("theta", (sa, a, sb, b)), r)}))


def theta_leaf(sa, a, sb, b, r, order):
    """The value of the leaf theta(sa,a,sb,b)^r, which the sum forms."""
    return eta_type_product(theta_power(sa, a, sb, b, r), order)


#: (sa, a, sb, b, r): both signs, a != b, a and b past each other, r = 1..4
THETA_POWERS = [
    (1, 1, 1, 1, 4),
    (1, 1, 1, 1, 1),
    (-1, 1, -1, 1, 1),
    (-1, 2, 1, 3, 3),
    (1, 5, -1, 13, 2),
    (-1, 3, -1, 4, 4),
    (1, 2, -1, 1, 3),
]


@pytest.mark.parametrize("order", [1, 2, 1024, 1025])
@pytest.mark.parametrize("sa, a, sb, b, r", THETA_POWERS)
def test_a_theta_leaf_equals_the_kernel_and_the_sum_oracle(sa, a, sb, b, r, order):
    # 1024 slots are kept by the memo and 1025 are not
    memo.cache_clear()
    got = theta_leaf(sa, a, sb, b, r, order)
    memo.cache_clear()
    kernel = constructors._qproduct(theta_power(sa, a, sb, b, r).statement(), order)
    assert memo.cache_info().misses == (order <= constructors._MEMO_SLOTS)
    assert exact(got) == exact(kernel)
    assert exact(got) == exact(evaluate(parse(f"theta({sa},{a},{sb},{b})^{r}"), order))
    assert exact(got) == exact(theta_f(sa, a, sb, b, order) ** r)
    assert exact(got) == exact(oracle.theta_sum(sa, a, sb, b, order) ** r)


@pytest.mark.parametrize(
    "text, routed",
    [
        ("theta(1,1,1,1)^4", True),
        ("theta(-1,2,1,3)", True),
        ("q^(1/3)*theta(1,5,-1,13)^2/q", True),
        # a zero power leaves its call out of the product
        ("theta(1,1,1,1)^4*eta(1)^0", True),
        ("theta(1,1,1,1)^-1", False),
        ("q*theta(-1,1,-1,1)^-3", False),
        # a call whose exponents cancel stays in the product
        ("theta(1,1,1,1)^4*eta(1)/eta(1)", False),
        ("theta(1,1,1,1)*theta(1,1,1,2)", False),
        ("theta(1,1,1,1)^2*eta(1)", False),
        ("theta(-1,1,-1,1)^2/theta(1,1,1,1)", False),
        ("eta(1)*eta(2)", False),
        ("eta(1)", False),
        ("pi(1)^2", False),
    ],
)
def test_only_one_theta_call_to_a_positive_power_takes_the_sum_route(text, routed):
    (leaf,) = [
        leaf for leaf, _ in dsl._converted(parse(text))[1] if isinstance(leaf, EtaTypeProduct)
    ]
    assert (leaf._route is not None) == routed
    if routed:
        ((call, r),) = leaf.calls
        got = QSeries._make(leaf._route(60), 0, 1, 60)
        assert exact(got) == exact(oracle.theta_sum(*call.args, 60) ** r)
    assert exact(evaluate(parse(text), 60)) == exact(dsl_oracle.evaluate(parse(text), 60))


def test_a_theta_leaf_serves_its_eta_quotient_twin(monkeypatch):
    # theta(-1,1,-1,1) = eta(1)^2/eta(2): the sum's entry serves the kernel
    memo.cache_clear()
    windows = counted_solves(monkeypatch)
    got = theta_leaf(-1, 1, -1, 1, 1, 300)
    assert memo.cache_info()[:2] == (0, 1)
    twin = EtaQuotient(2, {1: 2, 2: -1}).series(300)
    assert windows == []
    assert memo.cache_info()[:2] == (1, 1)
    assert exact(got) == exact(twin) == exact(oracle.eta_quotient(2, {1: 2, 2: -1}, 300))
    # and the other way round: a theta leaf reads a kernel entry that covers
    # its window as a prefix
    memo.cache_clear()
    EtaQuotient(2, {1: 2, 2: -1}).series(300)
    got = theta_leaf(-1, 1, -1, 1, 1, 200)
    assert memo.cache_info()[:2] == (1, 1)
    assert exact(got) == exact(oracle.theta_sum(-1, 1, -1, 1, 200))


@pytest.mark.parametrize("narrow, wide", [(16, 17), (100, 300), (300, 1000)])
def test_a_wider_kernel_request_extends_a_sum_entry(narrow, wide):
    # the entry holds no harmonic sums, so the extension derives them from c;
    # windows from _MEMO_HEAD = 16 slots on share one key
    twin = EtaQuotient(4, {1: -2, 2: 5, 4: -2})
    memo.cache_clear()
    theta_leaf(1, 1, 1, 1, 1, narrow)
    got = twin.series(wide)
    assert memo.cache_info()[:2] == (1, 1)
    memo.cache_clear()
    assert exact(got) == exact(twin.series(wide))
    # and a wider theta leaf replaces the extended entry
    memo.cache_clear()
    theta_leaf(1, 1, 1, 1, 1, narrow)
    twin.series(wide)
    assert exact(theta_leaf(1, 1, 1, 1, 1, wide + 24)) == exact(
        oracle.theta_product(1, 1, 1, 1, wide + 24)
    )
    assert memo.cache_info()[:2] == (1, 2)
    assert memo.cache_info().currsize == 1


def test_an_extension_of_a_sum_entry_cut_short_leaves_it_as_it_was(monkeypatch):
    memo.cache_clear()
    theta_leaf(1, 1, 1, 1, 1, 100)
    (entry,) = memo._recent
    before = entry.c, entry.s[:], entry.f[:]
    assert before[1] == [] and len(before[2]) == 100
    solve = constructors._solve

    def interrupted(f, s, l, r):
        raise KeyboardInterrupt

    monkeypatch.setattr(constructors, "_solve", interrupted)
    twin = EtaQuotient(4, {1: -2, 2: 5, 4: -2})
    with pytest.raises(KeyboardInterrupt):
        twin.series(300)
    assert (entry.c, entry.s, entry.f) == before
    monkeypatch.setattr(constructors, "_solve", solve)
    for order in (300, 100, 50):
        want = oracle.theta_product(1, 1, 1, 1, order)
        assert exact(twin.series(order)) == exact(want)
        assert exact(theta_leaf(1, 1, 1, 1, 1, order)) == exact(want)
    assert memo.cache_info().currsize == 1


def test_concurrent_theta_leaves_and_their_twins_leave_one_entry_each():
    # three sequences, each as a theta leaf and as an eta quotient
    builds = [
        (lambda n: theta_leaf(-1, 1, -1, 1, 1, n), 0),
        (lambda n: EtaQuotient(2, {1: 2, 2: -1}).series(n), 0),
        (lambda n: theta_leaf(1, 1, 1, 1, 1, n), 1),
        (lambda n: EtaQuotient(4, {1: -2, 2: 5, 4: -2}).series(n), 1),
        (lambda n: theta_leaf(1, 1, 1, 1, 4, n), 2),
        (lambda n: EtaQuotient(4, {1: -8, 2: 20, 4: -8}).series(n), 2),
    ]
    orders = [20, 90, 160, 230, 300]
    thetas = [((-1, 1, -1, 1), 1), ((1, 1, 1, 1), 1), ((1, 1, 1, 1), 4)]
    want = {
        (k, n): exact(oracle.theta_sum(*args, n) ** r)
        for k, (args, r) in enumerate(thetas)
        for n in orders
    }
    jobs = [(build, k, n) for build, k in builds for n in orders]
    wrong = []
    start = threading.Barrier(4)

    def worker(seed):
        order = list(jobs)
        random.Random(seed).shuffle(order)
        start.wait(timeout=60)
        for build, k, n in order:
            if exact(build(n)) != want[k, n]:
                wrong.append((k, n))

    memo.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    info = memo.cache_info()
    assert info.currsize == 3
    assert info.hits + info.misses == 4 * len(jobs)


def test_importing_the_cli_leaves_the_memo_empty():
    package = Path(qlambert.__file__).resolve().parent
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, qlambert.cli\n"
            "from qlambert import constructors\n"
            "print(json.dumps(constructors._memo_unit_part.cache_info()._asdict()))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    info = json.loads(done.stdout)
    assert info["currsize"] == info["hits"] == info["misses"] == 0


# -- the statement memo of the quotient classes ------------------------------

statements = constructors._memo_statement

#: quotients of both classes, the level-14 symbols' among them; the last two
#: are equal as tuples, so only the class in the memo key tells them apart
QUOTIENTS = [
    EtaQuotient(14, {1: -2, 2: 4, 7: 2, 14: -4}),
    EtaQuotient(28, {1: 2, 2: -4, 7: -6, 14: 16, 28: -8}),
    GenEtaQuotient(14, {1: -2, 6: 2}),
    GenEtaQuotient(28, {g: (-1) ** g * 2 for g in range(1, 15)}),
    EtaQuotient(14, {1: 1, 2: -3}),
    GenEtaQuotient(14, {1: 1, 2: -3}),
]


def uncached_statement(quot):
    """The quotient's statement merged by ``_power_product`` from the public
    statements of its parts, with no memo."""
    if isinstance(quot, EtaQuotient):
        parts = [(constructors.eta_statement(d), r) for d, r in quot.exponents.items()]
    else:
        parts = [
            (constructors.gen_eta_statement(quot.level, g), r)
            for g, r in quot.exponents.items()
        ]
    return constructors._power_product(parts)


@pytest.mark.parametrize("quot", QUOTIENTS)
def test_a_statement_hit_equals_an_uncached_build(quot):
    statements.cache_clear()
    quot.statement()
    hits = statements.cache_info().hits
    factors, pref, sign = quot.statement()
    assert statements.cache_info().hits == hits + 1
    want_factors, want_pref, want_sign = uncached_statement(quot)
    # the factor dict's order too: float products multiply in that order
    assert list(factors.items()) == list(want_factors.items())
    assert (type(pref), pref, sign) == (Fraction, want_pref, want_sign)
    assert quot.prefactor_exponent() == want_pref


def test_equal_quotients_of_two_classes_are_stated_apart():
    eta_q, geta_q = QUOTIENTS[-2:]
    assert eta_q == geta_q
    statements.cache_clear()
    assert eta_q.prefactor_exponent() == Fraction(1 - 6, 24)
    assert geta_q.prefactor_exponent() == uncached_statement(geta_q)[1]
    assert statements.cache_info().currsize == 2


def test_the_statement_memo_is_bounded():
    statements.cache_clear()
    bound = constructors._STATEMENT_ENTRIES
    for k in range(1, bound + 2):
        level = 2 * k + 1
        pref = GenEtaQuotient(level, {1: k}).statement()[1]
        assert pref == k * oracle.gen_eta_prefactor(level, 1)
    assert statements.cache_info().currsize <= bound


def test_a_cached_statement_cannot_be_changed():
    quot = QUOTIENTS[2]
    factors, pref, sign = quot.statement()
    before = list(factors.items())
    key = next(iter(factors))
    with pytest.raises(TypeError):
        factors[key] = 0
    with pytest.raises(TypeError):
        del factors[key]
    with pytest.raises(AttributeError):
        factors.clear()
    assert list(quot.statement()[0].items()) == before
    assert exact(quot.series(60)) == exact(
        oracle.gen_eta_quotient(quot.level, quot.exponents, 60)
    )


def test_concurrent_symbol_builds_agree_with_the_oracle():
    # the product symbols, and those built from them, requested by four
    # threads at once from empty symbol caches and an empty statement memo
    names = ("g", "g1", "g2", "g3", "h1", "h2", "z", "t")
    jobs = [(name, window) for name in names for window in (15, 30, 45)]
    want = {job: exact(oracle.symbol(*job)) for job in jobs}
    wrong = []
    start = threading.Barrier(4)

    def worker(seed):
        order = jobs * 2
        random.Random(seed).shuffle(order)
        start.wait(timeout=60)
        for job in order:
            if exact(gosper_symbols(*job)) != want[job]:
                wrong.append(job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with fresh_symbols():
            statements.cache_clear()
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


@given(st.integers(-8, 8), st.integers(1, 30), st.integers(1, 200))
def test_lambert_mod_equals_its_coerced_construction(r, modulus, order):
    got = lambert_mod(r, modulus, order)
    c = [0] * order
    for n in range(1, order):
        if n % modulus == r % modulus:
            for m in range(n, order, n):
                c[m] += m // n
    want = QSeries(c, 0, 1, order)
    assert (got.D, got.v, got.S, got.T, got.coeffs) == (
        want.D,
        want.v,
        want.S,
        want.T,
        want.coeffs,
    )
    assert all(type(x) is int for x in got.coeffs)
