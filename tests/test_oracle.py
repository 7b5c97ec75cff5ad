import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincover import (
    GradedPolynomial,
    InvalidMatrixError,
    ReducedMatrix,
    conjugate_by_permutation,
    enumerate_valid,
    ideal_degree_basis,
    normal_form,
    oracle_class_is_zero,
    oracle_has_spin,
    polynomial_str,
    relation_generators,
    sw_oracle,
    total_sw_truncated,
)
from spincover.oracle import monomials_of_degree
from conftest import dv, rp


def poly(k, *terms):
    return GradedPolynomial.from_terms(k, terms)


def test_monomials_of_degree_order_and_count():
    ms = list(monomials_of_degree(3, 3))
    assert len(ms) == math.comb(3 + 3 - 1, 3)
    assert all(sum(e) == 3 for e in ms)
    assert ms == sorted(ms, reverse=True)
    assert ms[0] == (3, 0, 0) and ms[-1] == (0, 0, 3)


def test_from_terms_toggles_duplicates():
    assert poly(2, (1, 0), (1, 0)).is_zero()
    assert poly(2, (1, 0), (1, 0), (1, 0)) == poly(2, (1, 0))


def test_arithmetic_basics():
    one = GradedPolynomial.one(2)
    x = GradedPolynomial.variable(2, 0)
    y = GradedPolynomial.variable(2, 1)
    assert one * x == x
    assert x + x == GradedPolynomial.zero(2)
    assert (x + y) * (x + y) == poly(2, (2, 0), (0, 2))
    assert x.mul(x, maxdeg=1).is_zero()


def test_truncating_product():
    one_plus_x = poly(1, (0,), (1,))
    cube = one_plus_x.mul(one_plus_x).mul(one_plus_x, maxdeg=2)
    assert cube == poly(1, (0,), (1,), (2,))


def test_degree_part():
    p = poly(2, (1, 0), (1, 1), (0, 2))
    assert p.degree_part(2) == poly(2, (1, 1), (0, 2))
    assert p.degree_part(5).is_zero()


def test_polynomial_str_formats():
    assert polynomial_str(GradedPolynomial.zero(3)) == "0"
    assert polynomial_str(GradedPolynomial.one(3)) == "1"
    assert polynomial_str(poly(3, (2, 0, 1), (0, 1, 0))) == "x1^2*x3 + x2"
    assert polynomial_str(poly(2, (1, 1), (0, 2), (2, 0))) == "x1^2 + x1*x2 + x2^2"


def test_relation_generators_products(torus, klein):
    g = relation_generators(torus)
    assert g[0] == poly(2, (2, 0))
    assert g[1] == poly(2, (0, 2))
    # generator i multiplies x_i by the substituted rows of block i
    g = relation_generators(klein)
    assert g[0] == poly(2, (2, 0), (1, 1))
    assert g[1] == poly(2, (0, 2))


def test_relation_generator_degrees(spin_235):
    gens = relation_generators(spin_235)
    assert [max(g.degrees()) for g in gens] == [3, 4, 6]


def test_relation_generators_require_validity():
    bad = ReducedMatrix.from_rows((1, 1), [[1, 1], [1, 1]])
    with pytest.raises(InvalidMatrixError):
        relation_generators(bad)


def test_total_class_small_cases(torus):
    assert total_sw_truncated(torus, 2) == poly(2, (0, 0), (2, 0), (0, 2))
    assert total_sw_truncated(rp(2), 2) == poly(1, (0,), (1,), (2,))
    assert total_sw_truncated(torus, 0) == GradedPolynomial.one(2)


def test_ideal_degree_basis_ranks(torus):
    assert ideal_degree_basis(torus, 2).rank == 2
    assert ideal_degree_basis(torus, 1).rank == 0
    assert ideal_degree_basis(rp(2), 3).rank == 1


def test_degree_one_ideal_always_empty():
    for dims in [(1, 1), (1, 2), (2, 2)]:
        for A in enumerate_valid(dv(*dims)):
            assert ideal_degree_basis(A, 1).rank == 0


def test_normal_form_reduces_generators(torus):
    assert normal_form(poly(2, (2, 0)), torus).is_zero()
    xy = poly(2, (1, 1))
    assert normal_form(xy, torus) == xy
    assert normal_form(GradedPolynomial.zero(2), torus).is_zero()


@given(st.data())
def test_normal_form_idempotent(klein, data):
    terms = data.draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6
        )
    )
    reduced = normal_form(poly(2, *terms), klein)
    assert normal_form(reduced, klein) == reduced


def test_projective_space_quotient_dimensions():
    # one simplex factor: the ring is GF(2)[x]/(x^(n+1))
    for n in (2, 3, 5):
        A = rp(n)
        for d in range(1, n + 3):
            x_d = poly(1, (d,))
            assert normal_form(x_d, A).is_zero() == (d > n)


def test_sw_oracle_surfaces(torus, klein):
    assert sw_oracle(torus, 1).is_zero()
    assert sw_oracle(torus, 2).is_zero()
    assert sw_oracle(rp(2), 1) == poly(1, (1,))
    assert sw_oracle(rp(2), 2) == poly(1, (2,))
    assert not sw_oracle(klein, 1).is_zero()


def test_sw_oracle_spin_fixture(spin_235):
    assert sw_oracle(spin_235, 1).is_zero()
    assert sw_oracle(spin_235, 2).is_zero()


def test_sw_oracle_matches_classical_binomials():
    # w(RP^n) = (1+x)^(n+1), reduced mod x^(n+1)
    for n in range(2, 10):
        A = rp(n)
        for m in range(1, 5):
            if m > n:
                continue
            expected = math.comb(n + 1, m) % 2
            assert sw_oracle(A, m).is_zero() == (expected == 0)


def test_sw_oracle_degree_guards(torus):
    with pytest.raises(ValueError):
        sw_oracle(torus, 0)
    with pytest.raises(ValueError):
        sw_oracle(torus, 3)
    assert oracle_class_is_zero(torus, 3)


def test_oracle_has_spin(torus, klein, spin_235):
    assert oracle_has_spin(torus)
    assert not oracle_has_spin(klein)
    assert oracle_has_spin(spin_235)


def test_wu_consequence_on_small_families():
    # w1 = w2 = 0 forces w3 = 0
    for dims in [(1, 1, 1), (2, 2), (1, 2)]:
        for A in enumerate_valid(dv(*dims)):
            if oracle_has_spin(A) and A.omega.n >= 3:
                assert sw_oracle(A, 3).is_zero()


def test_oracle_zero_status_survives_relabeling():
    for A in enumerate_valid(dv(1, 2)):
        B = conjugate_by_permutation(A, (1, 0))
        for m in (1, 2, 3):
            assert sw_oracle(A, m).is_zero() == sw_oracle(B, m).is_zero()
