from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from h4geom import icosian
from h4geom.golden import phi_pow
from h4geom.icosian import (
    ICOSIAN_ONE,
    conj,
    element_order_index,
    flat_dot,
    generate_vertices,
    icosian_mul,
    inverse_index,
    mult_columns,
    mult_table,
    neg,
    paper_dot,
    perm_parity,
    quat_mul,
    scaled,
    vertex_index,
)

from h4geom.polytopes import closure

from golden_oracle import (
    GoldenInt, GoldenVec, cell24_base_by_shape, coords, element_order, find_order5, mulclose_by_right_products,
    oracle_vertices, parity_by_inversions,
)

VERTS = generate_vertices()
TABLE = mult_table()
IDX = vertex_index()
ONE = IDX[ICOSIAN_ONE]


def test_vertex_count_and_shapes():
    assert len(VERTS) == 120
    shapes = Counter()
    for v in VERTS:
        comps = sorted((abs(c.a), abs(c.b)) for c in coords(v))
        if comps == [(0, 0), (0, 0), (0, 0), (2, 0)]:
            shapes["axis"] += 1
        elif comps == [(1, 0)] * 4:
            shapes["halves"] += 1
        elif comps == [(0, 0), (0, 1), (1, 0), (1, 1)]:
            shapes["golden"] += 1
    assert shapes == {"axis": 8, "halves": 16, "golden": 96}


def test_all_norm_4_and_closed_under_negation():
    for v in VERTS:
        assert flat_dot(v, v) == (4, 0)
        assert neg(v) in IDX


def test_identity_and_inverses():
    for i, v in enumerate(VERTS):
        assert TABLE[ONE][i] == i
        assert TABLE[i][ONE] == i
        assert TABLE[i][inverse_index()[i]] == ONE


def test_quaternion_inverse_law():
    for v in VERTS[:20]:
        assert icosian_mul(v, conj(v)) == ICOSIAN_ONE


def test_closure_and_latin_square():
    n = len(VERTS)
    for row in TABLE:
        assert len(set(row)) == n
    for j in range(n):
        assert len({TABLE[i][j] for i in range(n)}) == n


def test_table_is_the_icosian_product_on_every_pair():
    for i, u in enumerate(VERTS):
        for j, v in enumerate(VERTS):
            assert TABLE[i][j] == IDX[icosian_mul(u, v)]


def _product_table():
    """One quaternion product per entry: the oracle for the composed table."""
    return tuple(tuple(IDX[icosian._halved(quat_mul(u, v))] for v in VERTS) for u in VERTS)


def test_composed_table_equals_the_product_table_on_all_entries():
    assert mult_table.__wrapped__() == TABLE == _product_table()


def test_mult_table_raises_when_the_generators_span_a_proper_subgroup(monkeypatch):
    """i and j generate the quaternion group of order 8, so the walk stops
    after 8 of the 120 rows."""
    i_flat, j_flat = (0, 0, 2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 2, 0, 0, 0)
    monkeypatch.setattr(icosian, "GENERATORS", (i_flat, j_flat))
    with pytest.raises(ValueError, match="the generators reach 8 of 120 rows"):
        mult_table.__wrapped__()


def test_mult_table_rejects_a_product_off_the_standard_scale(monkeypatch):
    verts = list(VERTS)
    verts[0] = (1, 0, 0, 0, 0, 0, 0, 0)
    monkeypatch.setattr(icosian, "generate_vertices", lambda: tuple(verts))
    with pytest.raises(ValueError, match="not at standard scale"):
        mult_table.__wrapped__()


def _dict_quat_mul(u, v):
    """The quaternion product as it was written before the straight-line
    kernel: the oracle for `quat_mul`."""
    def gm(i, j):
        ua, ub = u[2 * i], u[2 * i + 1]
        va, vb = v[2 * j], v[2 * j + 1]
        return (ua * va + ub * vb, ua * vb + ub * va + ub * vb)

    p = {(i, j): gm(i, j) for i in range(4) for j in range(4)}
    c0a = p[0, 0][0] - p[1, 1][0] - p[2, 2][0] - p[3, 3][0]
    c0b = p[0, 0][1] - p[1, 1][1] - p[2, 2][1] - p[3, 3][1]
    c1a = p[0, 1][0] + p[1, 0][0] + p[2, 3][0] - p[3, 2][0]
    c1b = p[0, 1][1] + p[1, 0][1] + p[2, 3][1] - p[3, 2][1]
    c2a = p[0, 2][0] - p[1, 3][0] + p[2, 0][0] + p[3, 1][0]
    c2b = p[0, 2][1] - p[1, 3][1] + p[2, 0][1] + p[3, 1][1]
    c3a = p[0, 3][0] + p[1, 2][0] - p[2, 1][0] + p[3, 0][0]
    c3b = p[0, 3][1] + p[1, 2][1] - p[2, 1][1] + p[3, 0][1]
    return (c0a, c0b, c1a, c1b, c2a, c2b, c3a, c3b)


def test_flat_quat_mul_matches_the_dict_product_on_all_vertex_pairs():
    for u in VERTS:
        for v in VERTS:
            assert quat_mul(u, v) == _dict_quat_mul(u, v)


_flat = st.tuples(*[st.integers(-50, 50)] * 8)


@given(_flat, _flat)
def test_flat_quat_mul_matches_the_dict_product(u, v):
    assert quat_mul(u, v) == _dict_quat_mul(u, v)


def test_left_right_multiplication_are_isometries(cell):
    g = VERTS[cell.gpow[1]]
    h = VERTS[17]
    sample = VERTS[::11]
    for a, b in [(g, h)]:
        for u in sample:
            for w in sample:
                assert flat_dot(icosian_mul(a, u), icosian_mul(a, w)) == flat_dot(u, w)
                assert flat_dot(icosian_mul(u, b), icosian_mul(w, b)) == flat_dot(u, w)


def test_element_orders_match_binary_icosahedral_group():
    # oracle: orders computed from Cayley-table powers, independently of
    # element_order's repeated multiplication
    def table_order(i: int) -> int:
        k, acc = 1, i
        while acc != ONE:
            acc = TABLE[acc][i]
            k += 1
        return k

    orders = Counter(table_order(i) for i in range(120))
    assert orders == {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}
    for i in range(120):
        assert element_order_index(i) == table_order(i)


def test_order_of_unit_elements():
    assert element_order(ICOSIAN_ONE) == 1
    assert element_order(neg(ICOSIAN_ONE)) == 2


def test_find_order5_is_deterministic_and_correct(cell):
    """The old search's least order-5 vertex is g = gpow[1], the first element
    of order 5 in `Cell600.orders`, and gpow lists its powers g^0..g^4."""
    g = find_order5()
    assert element_order(g) == 5
    assert g == (-1, 1, -1, 0, 0, 0, 0, -1)  # least order-5 vertex
    gi = IDX[g]
    assert cell.gpow[1] == gi == cell.orders.index(5)
    base = cell24_base_by_shape()
    assert gi not in base
    # powers give a left transversal: the five cosets g^i * base cover everything
    cover = set()
    acc = ONE
    for k in range(5):
        assert cell.gpow[k] == acc
        coset = {TABLE[acc][b] for b in base}
        assert len(coset) == 24 and not (coset & cover)
        cover |= coset
        acc = TABLE[acc][gi]
    assert len(cover) == 120
    assert acc == ONE  # g**5 = 1


def test_orders_match_element_order_index_on_all_elements(cell):
    """`Cell600.orders`, the one table of element orders, against
    `element_order_index` on all 120 elements."""
    assert cell.orders == tuple(element_order_index(i) for i in range(120))
    assert Counter(cell.orders) == {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}


def test_mult_columns_are_the_cayley_tables_columns():
    cols = mult_columns()
    assert len(cols) == 120
    assert all(cols[j][i] == TABLE[i][j] for i in range(120) for j in range(120))


def test_base_24cell_is_a_subgroup():
    """The Hurwitz units, the base 24-cell by its shapes, are closed under
    products, by the old closure and by `closure` of 1 under their rows."""
    base = cell24_base_by_shape()
    assert len(base) == 24
    assert mulclose_by_right_products(base) == base
    assert closure([TABLE[b] for b in base], [ONE]) == [base]


def test_icosian_mul_rejects_non_icosians():
    w = (1, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        icosian_mul(w, w)  # unit-scale input is not standard scale


def test_quat_mul_matches_hand_values():
    i_vec = (0, 0, 2, 0, 0, 0, 0, 0)
    j_vec = (0, 0, 0, 0, 2, 0, 0, 0)
    k_vec = (0, 0, 0, 0, 0, 0, 2, 0)
    assert icosian_mul(i_vec, j_vec) == k_vec
    assert icosian_mul(j_vec, i_vec) == neg(k_vec)
    assert icosian_mul(i_vec, i_vec) == neg(ICOSIAN_ONE)
    assert quat_mul(ICOSIAN_ONE, ICOSIAN_ONE) == (4, 0, 0, 0, 0, 0, 0, 0)


def test_generate_vertices_equals_the_golden_construction_in_order():
    oracle = oracle_vertices()
    assert len(oracle) == 120
    assert list(VERTS) == [w.flat for w in oracle]
    assert [coords(v) for v in VERTS] == [w.c for w in oracle]


def test_unary_arithmetic_matches_the_golden_oracle_on_every_vertex():
    for v in VERTS:
        w = GoldenVec.of(v)
        assert neg(v) == (-w).flat
        assert conj(v) == w.quat_conj().flat


def test_binary_arithmetic_matches_the_golden_oracle_on_every_vertex_pair():
    """flat_dot, paper_dot, quat_mul and icosian_mul on all 14,400 ordered
    pairs; the pairs of flat_dot and paper_dot against the oracle's
    GoldenInt and its `halved`."""
    oracle = [GoldenVec.of(v) for v in VERTS]
    for u, ou in zip(VERTS, oracle):
        for v, ov in zip(VERTS, oracle):
            assert flat_dot(u, v) == ou.dot(ov).key()
            assert paper_dot(u, v) == ou.dot(ov).halved().key()
            assert quat_mul(u, v) == ou.quat_mul(ov).flat
            assert icosian_mul(u, v) == ou.icosian_mul(ov).flat


def test_scaled_matches_the_golden_oracle_on_the_three_polytopes(cell):
    """phi**k (k = -3..3), 2, 3 - phi and -1 + 2*phi times every vertex of the
    600-cell, the 120-cell and the rectified 600-cell."""
    scalars = [phi_pow(k) for k in range(-3, 4)] + [(2, 0), (3, -1), (-1, 2)]
    verts = cell.vertices + cell.cell120.vertices + cell.rectified
    assert len(verts) == 120 + 600 + 720
    for v in verts:
        w = GoldenVec.of(v)
        for s in scalars:
            assert scaled(s, v) == w.scaled(GoldenInt(*s)).flat


def test_paper_dot_rejects_an_odd_natural_inner_product():
    half = (1, 0, 1, 0, 0, 0, 0, 0)  # natural norm 2, paper norm 1
    assert flat_dot(half, ICOSIAN_ONE) == (2, 0) and paper_dot(half, ICOSIAN_ONE) == (1, 0)
    with pytest.raises(ValueError, match="not divisible by 2"):
        paper_dot((1, 0, 0, 0, 0, 0, 0, 0), half)


def test_perm_parity_agrees_with_the_inversion_count():
    """The cycle count against the oracle's pairwise inversions on every
    permutation of range(4) and range(5), and of five spread-out values,
    which it ranks first."""
    for n in (4, 5):
        perms = list(permutations(range(n)))
        assert len(perms) == (24, 120)[n - 4]
        assert [perm_parity(p) for p in perms] == [parity_by_inversions(p) for p in perms]
    for p in permutations((6, 7, 9, 10, 13)):
        assert perm_parity(p) == parity_by_inversions(p)
