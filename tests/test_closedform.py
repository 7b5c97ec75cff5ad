import itertools

import pytest

from spincover import (
    CoeffTable,
    InvalidMatrixError,
    ReducedMatrix,
    SpinReport,
    conjecture_predicate,
    conjugate_by_permutation,
    enumerate_valid,
    has_spin,
    identity_matrix,
    interval_simplex_matrix,
    oracle_class_is_zero,
    oracle_has_spin,
    parse_matrix,
    serialize_matrix,
    spin_sufficient,
    sw_oracle,
    total_sw_truncated,
    w2_coefficients,
    w3_coefficients,
    w3_vanishes_big,
    w4_coefficients,
    w4_vanishes_big,
)
from spincover.closedform import closed_coefficients
from conftest import dv, rp


def from_compact(dims, compact):
    return ReducedMatrix.from_rows(
        dims, [[int(ch) for ch in row] for row in compact.split("/")]
    )


def test_coeff_table_lookup_sorts_keys():
    table = CoeffTable(2, {(0, 0): 1, (0, 1): 0, (1, 1): 1})
    assert table.coefficient((0, 0)) == 1
    assert table.coefficient((1, 0)) == 0


def test_spin_report_guards():
    with pytest.raises(ValueError):
        SpinReport(orientable=False, spin=True)
    with pytest.raises(ValueError):
        SpinReport(orientable=True, spin=False, failed_condition="ii", witness=None)


def test_orientability(torus, klein, spin_235):
    assert has_spin(torus).orientable
    assert not has_spin(klein).orientable
    assert has_spin(spin_235).orientable


def test_orientability_equals_vanishing_first_class():
    for dims in [(1, 2), (2, 2), (1, 1, 1)]:
        for A in enumerate_valid(dv(*dims)):
            assert has_spin(A).orientable == sw_oracle(A, 1).is_zero()


def test_w2_table_small_cases(torus, spin_235):
    assert w2_coefficients(rp(2)).coefficient((0, 0)) == 1
    # pre-reduction both squares survive; the ring kills them afterwards
    t = w2_coefficients(torus)
    assert t.coefficient((0, 0)) == 1 and t.coefficient((1, 1)) == 1
    assert sw_oracle(torus, 2).is_zero()
    t = w2_coefficients(spin_235)
    assert [t.coefficient((i, i)) for i in range(3)] == [0, 0, 0]
    assert t.coefficient((0, 1)) == 0


def test_w2_table_equals_expansion_everywhere():
    for dims in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 1, 1)]:
        for A in enumerate_valid(dv(*dims)):
            assert w2_coefficients(A).polynomial(A.omega.k) == total_sw_truncated(
                A, 2
            ).degree_part(2)


def test_spin_fixture(spin_235):
    report = has_spin(spin_235)
    assert report.spin and report.orientable
    assert report.failed_condition is None and report.witness is None


def test_spin_interval_times_even_simplex():
    # one interval factor, one simplex of dimension 4t+2, second column all ones
    for t in (0, 1):
        A = interval_simplex_matrix(t)
        assert A.omega.dims == (1, 4 * t + 2)
        assert has_spin(A).spin
        assert oracle_has_spin(A)
    assert serialize_matrix(interval_simplex_matrix(0)) == "1 2\n11\n01\n01\n"
    with pytest.raises(ValueError):
        interval_simplex_matrix(-1)


def test_spin_failure_tags_and_witnesses(klein):
    assert has_spin(klein).failed_condition == "i"
    assert has_spin(klein).witness == (1,)
    pair_even = from_compact((2, 3), "10/10/01/01/11")
    assert has_spin(pair_even) == SpinReport(True, False, "ii", (0, 1))
    interval_pair = from_compact((1, 1, 3), "100/010/011/101/111")
    assert has_spin(interval_pair) == SpinReport(True, False, "iii", (0, 1))
    mixed_pair = from_compact((1, 1, 3), "100/110/001/001/101")
    assert has_spin(mixed_pair) == SpinReport(True, False, "iv", (0, 2))


def test_spin_verdict_survives_relabeling():
    for A in enumerate_valid(dv(1, 2)):
        for sigma in itertools.permutations(range(2)):
            B = conjugate_by_permutation(A, sigma)
            assert has_spin(B).spin == has_spin(A).spin
            assert spin_sufficient(B) == spin_sufficient(A)


def test_sufficient_condition(spin_235, torus):
    assert spin_sufficient(spin_235)
    assert spin_sufficient(rp(3))
    # not necessary once an interval factor is present
    assert not spin_sufficient(torus)
    assert has_spin(torus).spin


def test_sufficient_implies_spin_and_l0_equivalence():
    for dims in [(1, 1, 1), (1, 2), (1, 1, 2)]:
        for A in enumerate_valid(dv(*dims)):
            if spin_sufficient(A):
                assert has_spin(A).spin
    for dims in [(2, 2), (2, 3), (3, 3)]:
        for A in enumerate_valid(dv(*dims)):
            assert spin_sufficient(A) == has_spin(A).spin


def test_w3_cube_coefficients():
    assert w3_coefficients(rp(3)).coefficient((0, 0, 0)) == 0
    assert w3_coefficients(rp(6)).coefficient((0, 0, 0)) == 1


def test_w3_triple_coefficient(spin_235):
    # 8*4*8 + 8*2 + 4*4 + 8*2 is even
    assert w3_coefficients(spin_235).coefficient((0, 1, 2)) == 0


def test_w3_table_equals_expansion_on_big_factors():
    for A in enumerate_valid(dv(3, 3)):
        assert w3_coefficients(A).polynomial(2) == total_sw_truncated(A, 3).degree_part(3)


def test_w3_vanishing_criterion():
    assert w3_vanishes_big(identity_matrix(dv(3, 3)))
    assert not w3_vanishes_big(rp(6))
    with pytest.raises(ValueError):
        w3_vanishes_big(parse_matrix("2 3\n10\n10\n01\n01\n01\n"))
    for A in enumerate_valid(dv(3, 3)):
        assert w3_vanishes_big(A) == sw_oracle(A, 3).is_zero()


def test_w4_quartic_coefficients():
    assert w4_coefficients(rp(7)).coefficient((0, 0, 0, 0)) == 0
    assert w4_coefficients(rp(4)).coefficient((0, 0, 0, 0)) == 1
    ident = identity_matrix(dv(4, 4))
    assert w4_coefficients(ident).coefficient((0, 0, 1, 1)) == 0


def test_w4_table_equals_expansion_on_big_factors():
    for A in enumerate_valid(dv(4, 4)):
        assert w4_coefficients(A).polynomial(2) == total_sw_truncated(A, 4).degree_part(4)


def test_w4_vanishing_criterion():
    seven_pair = identity_matrix(dv(7, 7))
    assert w4_vanishes_big(seven_pair)
    assert sw_oracle(seven_pair, 4).is_zero()
    assert not w4_vanishes_big(rp(4))
    assert w4_vanishes_big(rp(8))
    with pytest.raises(ValueError):
        w4_vanishes_big(identity_matrix(dv(2, 3)))
    for A in enumerate_valid(dv(4, 4)):
        assert w4_vanishes_big(A) == sw_oracle(A, 4).is_zero()


def test_w4_pair_table_overconstrains_small_column_counts():
    # The pairwise residue rules encode constraints that only bind when at
    # least four columns exist; with two columns the (0,0) rule demands
    # k_12 = 1 mod 4, which the product of two RP^8 factors violates while
    # its fourth class still vanishes in the ring.  The table is kept as
    # is; this records the divergence rather than hiding it.
    ident = identity_matrix(dv(8, 8))
    assert not w4_vanishes_big(ident)
    assert sw_oracle(ident, 4).is_zero()


def first_seven_vanish(A):
    # w_1..w_7 vanish for factors of dimension >= 4 exactly under the t = 2
    # congruences: self-dots 7 mod 8, pair dots 0 mod 4, triple dots even
    return conjecture_predicate(A, 2, "shifted")


def test_first_seven_vanish():
    assert first_seven_vanish(rp(7))
    assert first_seven_vanish(identity_matrix(dv(7, 7)))
    assert [n for n in range(4, 10) if first_seven_vanish(rp(n))] == [7]
    with pytest.raises(ValueError, match="at least 4"):
        first_seven_vanish(identity_matrix(dv(2, 3)))
    assert not any(first_seven_vanish(A) for A in enumerate_valid(dv(4, 4)))


def test_first_seven_implies_oracle_vanishing():
    for A in (rp(7), identity_matrix(dv(7, 7))):
        assert first_seven_vanish(A)
        for m in range(1, 5):
            assert oracle_class_is_zero(A, m)


def test_conjecture_predicate_guards(torus):
    with pytest.raises(ValueError):
        conjecture_predicate(rp(4), 3, "shifted")
    with pytest.raises(ValueError):
        conjecture_predicate(rp(4), 1, "backwards")
    with pytest.raises(ValueError):
        conjecture_predicate(torus, 1, "shifted")


def test_conjecture_predicate_readings(spin_235):
    assert conjecture_predicate(rp(7), 2, "shifted")
    assert conjecture_predicate(rp(7), 2, "as-written")
    # dots 7, 3, 7 with even pairwise counts
    assert conjecture_predicate(spin_235, 1, "shifted")
    # odd pair count: vacuous modulus under the written exponent only
    witness = from_compact((2, 3), "10/10/01/01/11")
    assert conjecture_predicate(witness, 1, "as-written")
    assert not conjecture_predicate(witness, 1, "shifted")


def test_closed_coefficients_cover_degrees_one_to_four(spin_235, klein):
    # the face ideal has no degree-1 part, so closed w1 is the oracle's w1
    for A in enumerate_valid(dv(1, 1, 2)):
        assert closed_coefficients(A, 1).polynomial(3) == sw_oracle(A, 1)
    assert closed_coefficients(klein, 1).entries == {(0,): 0, (1,): 1}
    assert closed_coefficients(spin_235, 2) == w2_coefficients(spin_235)
    assert closed_coefficients(spin_235, 3) == w3_coefficients(spin_235)
    assert closed_coefficients(spin_235, 4) == w4_coefficients(spin_235)
    for m in (0, 5):
        with pytest.raises(ValueError):
            closed_coefficients(spin_235, m)


def test_closed_w1_needs_no_validation_pass():
    singular = ReducedMatrix.from_rows((1, 1), [[1, 1], [1, 1]])
    assert closed_coefficients(singular, 1).entries == {(0,): 1, (1,): 1}
    with pytest.raises(InvalidMatrixError):
        closed_coefficients(singular, 2)
