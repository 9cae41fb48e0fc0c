from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from h4geom.golden import (
    PHI,
    PHI_INV,
    ReductionMap,
    eliminate,
    mul,
    phi_pow,
)
from h4geom.icosian import flat_dot, scaled
from h4geom.polytopes import the_600cell

from golden_oracle import (
    FractionMap,
    GoldenInt,
    GoldenRational,
    coords,
    exact_quotient,
    golden_eliminate,
    golden_sign,
    reduce_scalar,
    split_coordinate,
    sqrt5_form,
)

coeff = st.integers(-40, 40)
golden = st.builds(GoldenInt, coeff, coeff)
pair = st.tuples(coeff, coeff)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def test_phi_defining_relation():
    assert mul(PHI, PHI) == (1, 1)
    assert mul((1, 0), (7, -3)) == (7, -3)
    assert mul(PHI_INV, PHI) == (1, 0)
    assert (PHI, PHI_INV) == (GoldenInt(0, 1).key(), GoldenInt(0, 1).unit_inverse().key())


def test_conjugation_examples():
    assert GoldenInt(0, 1).conj() == GoldenInt(1, -1)
    assert GoldenInt(1, 0).conj() == GoldenInt(1, 0)


@given(golden, golden, golden)
def test_ring_axioms(x, y, z):
    """The oracle's own axioms."""
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(pair, pair, pair)
def test_pair_product_is_the_oracle_product_and_a_ring_product(x, y, z):
    assert mul(x, y) == (GoldenInt(*x) * GoldenInt(*y)).key()
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, _add(y, z)) == _add(mul(x, y), mul(x, z))
    assert mul(x, (1, 0)) == x


@given(golden, golden)
def test_conj_is_ring_automorphism(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x


@given(golden)
def test_field_norm_multiplicative(x):
    assert x.field_norm() == (x * x.conj()).a
    assert (x * x.conj()).b == 0


@given(golden, golden)
def test_sqrt5_form_round_trip(x, y):
    xa, xb = sqrt5_form(x)
    ya, yb = sqrt5_form(y)
    pa, pb = sqrt5_form(x * y)
    # (xa + xb s)(ya + yb s) with s**2 = 5
    assert pa == xa * ya + 5 * xb * yb
    assert pb == xa * yb + xb * ya


@given(golden)
def test_sign_is_consistent(x):
    s = golden_sign(x)
    assert s == -golden_sign(-x)
    if x == GoldenInt(0, 0):
        assert s == 0
    else:
        assert golden_sign(x * x) == 1
        # bracket with rational bounds 2236/1000 < sqrt5 < 2237/1000
        xa, xb = sqrt5_form(x)
        lo = xa + xb * (F(2236, 1000) if xb >= 0 else F(2237, 1000))
        hi = xa + xb * (F(2237, 1000) if xb >= 0 else F(2236, 1000))
        if lo > 0:
            assert s == 1
        if hi < 0:
            assert s == -1


@given(st.builds(GoldenRational, golden, st.integers(1, 12)),
       st.builds(GoldenRational, golden, st.integers(1, 12)))
def test_golden_rational_field_ops(x, y):
    assert x + y - y == x
    if y:
        assert (x / y) * y == x
        assert y * y.inverse() == GoldenRational(1)


def test_unit_inverse_and_powers():
    """phi_pow(k) against the oracle's GoldenInt(0, 1) ** k, which steps
    through unit_inverse for k < 0."""
    phi = GoldenInt(0, 1)
    for k in range(-20, 21):
        assert phi_pow(k) == (phi**k).key()
        assert mul(phi_pow(-k), phi_pow(k)) == (1, 0)
    assert phi_pow(2) == (1, 1) and phi_pow(-2) == (2, -1)
    assert phi.unit_inverse().key() == PHI_INV
    with pytest.raises(ValueError):
        GoldenInt(2, 0).unit_inverse()


def test_reduce_scalar_examples():
    m_minus1 = FractionMap(F(5), F(-1))
    assert reduce_scalar((F(6), F(2)), m_minus1) == 4
    assert reduce_scalar((F(17), F(0)), m_minus1) == 17
    m_minus2 = FractionMap(F(5), F(-2))
    assert reduce_scalar((F(20), F(8)), m_minus2) == 4


def test_split_coordinate_examples():
    x, y = F(3), F(2)
    assert split_coordinate((x, y), FractionMap(F(5), F(-1))) == (x - y, 2 * y)
    assert split_coordinate((x, y), FractionMap(F(5), F(0))) == (x, y)
    assert FractionMap(F(5), F(0)).slot_weights() == (1, 5)
    assert split_coordinate((x, y), FractionMap(F(5), F(2))) == (x + 2 * y, y)
    assert split_coordinate((x, y), FractionMap(F(5), F(1))) == (x + y, 2 * y)


def test_map_rejects_out_of_range_m():
    for bad in (F(3), F(-3), F(2237, 1000)):  # all have m**2 >= 5
        with pytest.raises(ValueError):
            FractionMap(F(5), bad)
    with pytest.raises(ValueError):
        FractionMap(F(4), F(2))  # equality on the boundary
    FractionMap(F(5), F(2236, 1000))  # just inside is fine


@given(st.fractions(min_value=-10, max_value=10), st.fractions(min_value=F(1, 4), max_value=12))
def test_positivity_exactly_below_boundary(m, n):
    """The witness scalar -m + sqrt(n) has reduced square norm n - m**2."""
    witness_sq = (F(m * m + n), F(-2 * m))  # (x + y sqrt n)**2 at (x, y) = (-m, 1)
    if m * m < n:
        rmap = FractionMap(n, m)
        assert reduce_scalar(witness_sq, rmap) == n - m * m > 0
    else:
        assert F(witness_sq[0]) + F(witness_sq[1]) * m <= 0
        with pytest.raises(ValueError):
            FractionMap(n, m)


@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
def test_split_norm_matches_reduced_norm_on_all_vertices(m):
    cell = the_600cell()
    rmap = FractionMap(F(5), F(m))
    for v in cell.vertices:
        split = rmap.split_vector(coords(v))
        natural = GoldenInt(*flat_dot(v, v))
        assert rmap.reduced_norm(split) == reduce_scalar(natural, rmap)


def test_scaled_map_norm_compatibility():
    cell = the_600cell()
    rmap = FractionMap(F(5), F(-1), scale=GoldenRational(GoldenInt(*PHI)), multiplier=F(1, 2))
    for v in cell.vertices[:24]:
        split = rmap.split_vector(coords(v))
        w = scaled(PHI, v)
        scaled_norm = GoldenInt(*flat_dot(w, w))
        assert rmap.reduced_norm(split) == reduce_scalar(scaled_norm, rmap) * F(1, 2)


def _leibniz(a):
    """Determinant as the signed sum over permutations, the sign read off the
    cycle count: (-1) ** (n - cycles)."""
    n = len(a)
    total = 0
    for p in permutations(range(n)):
        seen, cycles = set(), 0
        for i in range(n):
            if i not in seen:
                cycles += 1
                while i not in seen:
                    seen.add(i)
                    i = p[i]
        term = 1
        for i in range(n):
            term = a[i][p[i]] * term
        total = total + term if (n - cycles) % 2 == 0 else total - term
    return total


def _largest_nonzero_minor(a):
    rows, cols = len(a), len(a[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if _leibniz([[a[i][j] for j in cs] for i in rs]):
                    return k
    return 0


def _rank_loop_pivots(a):
    """The per-column rank loop that `Elimination.pivots` replaced: a column
    is kept iff it raises the rank (by Leibniz minors) of the kept columns."""
    cols, kept = list(zip(*a)), []
    for c in range(len(cols)):
        if _largest_nonzero_minor([cols[k] for k in kept + [c]]) == len(kept) + 1:
            kept.append(c)
    return tuple(kept)


@st.composite
def _matrices(draw, entry, zero):
    """Up to 5x5, mostly square; half of them products of r x k and k x c
    factors, so rank <= k."""
    r = draw(st.integers(1, 5))
    c = draw(st.one_of(st.just(r), st.integers(1, 5)))
    if draw(st.booleans()):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]
    k = draw(st.integers(0, min(r, c)))
    u = [[draw(entry) for _ in range(k)] for _ in range(r)]
    v = [[draw(entry) for _ in range(c)] for _ in range(k)]
    return [[sum((u[i][t] * v[t][j] for t in range(k)), zero) for j in range(c)] for i in range(r)]


small = st.integers(-2, 2)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_matrices(small, 0), _matrices(st.builds(GoldenInt, small, small), GoldenInt(0))))
@example([[0, 1], [1, 0]])  # a row swap: adj is the sign times the eliminated block
@example([[GoldenInt(0), GoldenInt(0, 1)], [GoldenInt(-1, 1), GoldenInt(1)]])
def test_eliminate_matches_leibniz_minors_and_adjugate(a):
    """Integer matrices through `eliminate`, which the Z[phi] oracle matches
    on them; golden ones through the oracle alone."""
    if isinstance(a[0][0], int):
        e = eliminate(a)
        assert golden_eliminate(a) == e
    else:
        e = golden_eliminate(a)
    assert e.rank == _largest_nonzero_minor(a)
    assert e.pivots == _rank_loop_pivots(a)
    n = len(a)
    if n != len(a[0]):
        assert e.det is None and e.adj is None
        return
    assert e.det == _leibniz(a)
    if e.det:
        for i in range(n):
            for j in range(n):
                assert sum((a[i][k] * e.adj[k][j] for k in range(n)), 0) == (e.det if i == j else 0)
    else:
        assert e.adj is None


@given(golden, golden, coeff, st.integers(1, 40))
def test_exact_quotient_divides_exactly_or_reports_none(x, d, n, m):
    if d:
        assert exact_quotient(x * d, d) == x
    assert exact_quotient(n * m, m) == n
    if m > 1:
        assert exact_quotient(n * m + 1, m) is None
    assert exact_quotient(GoldenInt(1, 1), GoldenInt(2, 0)) is None


def test_reduction_maps_compare_and_hash_on_m_and_k():
    maps = [ReductionMap(m, k) for m in (-1, 0, 1) for k in range(-3, 4)]
    again = [ReductionMap(m, k) for m in (-1, 0, 1) for k in range(-3, 4)]
    assert maps == again and len(set(maps + again)) == len(maps) == 21
    assert ReductionMap(-1) == ReductionMap(-1, 0) and hash(ReductionMap(0)) == hash(ReductionMap(0, 0))
    assert ReductionMap(-1, 1) != ReductionMap(1, 1) and ReductionMap(0, 1) != ReductionMap(0, 2)
    assert ReductionMap(1, 2).block == ReductionMap(1, 2).block
    for bad in (-2, 2, 5):
        with pytest.raises(ValueError, match=f"m must be -1, 0 or 1, got {bad}"):
            ReductionMap(bad)


@given(golden, st.sampled_from([-1, 0, 1]), st.integers(-3, 3))
def test_integer_reduce_is_twice_the_fraction_reduction(x, m, k):
    assert ReductionMap(m, k).reduce(x.key()) == 2 * reduce_scalar(x, FractionMap(F(5), F(m)))


def test_fraction_reduction_refuses_a_bare_golden_pair():
    """A golden (a, b) pair of h4geom is not a sqrt5-form pair: the oracle
    raises instead of reading a + b*phi as a + b*sqrt5."""
    with pytest.raises(TypeError):
        reduce_scalar(PHI, FractionMap(F(5), F(-1)))
    assert reduce_scalar(GoldenInt(*PHI), FractionMap(F(5), F(-1))) == 0


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([(small, 0), (st.builds(GoldenInt, small, small), GoldenInt(0))]))
def test_numerators_are_the_row_times_the_adjugate(data, ring):
    """Over Z (`eliminate`) and Z[phi] (the oracle): numerators(row) sums row
    against each column of adj A, and a row of A itself gets det A on its own
    slot and 0 elsewhere."""
    entry, zero = ring
    n = data.draw(st.integers(1, 4))
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    e = (eliminate if isinstance(zero, int) else golden_eliminate)(a)
    assume(e.det)
    row = data.draw(st.lists(entry, min_size=n, max_size=n))
    assert e.numerators(row) == tuple(
        sum((row[k] * e.adj[k][j] for k in range(n)), zero) for j in range(n)
    )
    for i in range(n):
        assert e.numerators(a[i]) == tuple(e.det if j == i else zero for j in range(n))
