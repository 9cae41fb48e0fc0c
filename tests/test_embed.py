import copy
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product as iproduct
from operator import mul

import pytest

from h4geom import checks, embed
from h4geom.golden import (
    PHI,
    PHI_INV,
    ReductionMap,
    eliminate,
    phi_pow,
)
from h4geom.embed import (
    E8Lattice,
    _gram_identity,
    _quarter_form,
    _same_lattice,
)
from h4geom.icosian import paper_dot, scaled

from golden_oracle import (
    FractionMap, GoldenInt, GoldenRational, coords, exact_quotient, fraction_short_vectors, golden_eliminate, is_unit,
    sorted_root_basis,
)


def contains(e8, amb):
    """Whether the ambient vector amb lies in the lattice: coords_of raises otherwise."""
    try:
        e8.coords_of(amb)
        return True
    except ValueError:
        return False


def hermite_normal_form(rows):
    """Canonical row HNF of an integer matrix; returns the nonzero rows.  The
    oracle for `lattice_L`'s two-way lattice equality certificate."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return ()
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(m)) if m[i][c]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(m[i][c]))
            m[r], m[piv] = m[piv], m[r]
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            done = True
            for i in range(r + 1, len(m)):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c]:
                        done = False
            if done:
                for i in range(r):
                    q = m[i][c] // m[r][c]
                    if q:
                        m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                r += 1
                break
    return tuple(tuple(row) for row in m[:r])


def test_hnf_is_canonical_and_detects_lattice_equality():
    rows = [(2, 0), (0, 2), (1, 1)]
    h = hermite_normal_form(rows)
    assert h == ((1, 1), (0, 2))
    assert hermite_normal_form([(1, 1), (0, 2)]) == h
    assert hermite_normal_form([(3, 1), (1, 1)]) == ((1, 1), (0, 2))


def test_bareiss_det():
    assert eliminate([[2, 1], [1, 3]]).det == 5
    assert eliminate([[1, 2], [2, 4]]).det == 0
    assert eliminate([[0, 1], [1, 0]]).det == -1


def test_split_vector_is_injective_on_the_vertices(cell):
    rmap = ReductionMap(-1)
    vecs = [rmap.split_vector(v) for v in cell.vertices]
    assert len(set(vecs)) == len(vecs) == 120


def test_rectified_embeds_at_m_minus_2_with_norm_4(cell):
    rmap = FractionMap(F(5), F(-2))
    vecs = [rmap.split_vector(coords(v)) for v in cell.rectified]
    assert len(set(vecs)) == len(vecs) == 720
    for v in vecs:
        assert rmap.reduced_norm(v) == 4


def test_e8_certificate(e8):
    assert e8.det == 1
    assert all(e8.gram[i][i] % 2 == 0 for i in range(8))
    assert len(e8.roots) == 240
    assert e8.shell_sizes == {2: 240, 4: 2160}


def test_e8_shells_against_ambient_enumeration_oracle(e8):
    """Independent route: enumerate candidate integer vectors of the right
    Euclidean length in the split frame and filter by lattice membership."""

    def candidates(sq_len: int):
        out = []
        if sq_len == 4:  # one +-2 or four +-1
            for i in range(8):
                for s in (2, -2):
                    v = [0] * 8
                    v[i] = s
                    out.append(tuple(v))
            positions = [c for c in iproduct(range(8), repeat=4) if len(set(c)) == 4]
            seen = set()
            for pos in positions:
                for signs in iproduct((1, -1), repeat=4):
                    v = [0] * 8
                    for p, s in zip(pos, signs):
                        v[p] = s
                    seen.add(tuple(v))
            out.extend(seen)
        else:  # sq_len == 8: two +-2, or +-2 with four +-1, or eight +-1
            seen = set()
            for i in range(8):
                for j in range(8):
                    if i == j:
                        continue
                    for si in (2, -2):
                        for sj in (2, -2):
                            v = [0] * 8
                            v[i], v[j] = si, sj
                            seen.add(tuple(v))
            for i in range(8):
                rest = [k for k in range(8) if k != i]
                for pos in iproduct(rest, repeat=4):
                    if len(set(pos)) != 4:
                        continue
                    for s2 in (2, -2):
                        for signs in iproduct((1, -1), repeat=4):
                            v = [0] * 8
                            v[i] = s2
                            for p, s in zip(pos, signs):
                                v[p] = s
                            seen.add(tuple(v))
            for signs in iproduct((1, -1), repeat=8):
                seen.add(tuple(signs))
            out = list(seen)
        return out

    roots = {u for u in candidates(4) if contains(e8, u)}
    assert roots == set(e8.roots)
    shell4 = {u for u in candidates(8) if contains(e8, u)}
    assert shell4 == e8.norm4_shell


def test_root_pair_inner_products(e8):
    roots = sorted(e8.roots)
    vals = set()
    for i in range(0, 240, 7):
        for j in range(240):
            if i != j:
                vals.add(e8.bform_int(roots[i], roots[j]))
    assert vals <= {-2, -1, 0, 1, 2}


def test_s6_example1_raises_on_a_root_pair_with_an_odd_inner_product_sum(monkeypatch, e8):
    """s6/example1 halves twice-inner-products only after checking them even:
    a vector whose products with the roots are odd makes the check fail by
    name rather than report a truncated value."""
    fake = copy.copy(e8)
    fake.roots = e8.roots | {(1, 0, 0, 0, 0, 0, 0, 0)}
    real = embed.certify_e8
    monkeypatch.setattr(embed, "certify_e8", lambda m: fake if m == -1 else real(m))
    result = checks.run_check("s6/example1")
    assert result.status == "fail"
    assert result.observed == {"error": "ValueError: a root pair's inner product is not an integer"}


def test_root_pair_sums_match_all_28680_pairs(e8):
    """The sums read off one root of each +-pair, against the sums over all
    28,680 pairs of distinct roots."""
    pairs = list(combinations(e8.roots, 2))
    assert len(pairs) == 28680
    assert checks._root_pair_sums(e8.roots) == {sum(map(mul, u, v)) for u, v in pairs}


def test_s6_example1_fails_on_roots_not_closed_under_negation(monkeypatch, e8):
    """One root of a +-pair dropped: the products of the remaining pairs stay
    even, and the negation check names the fault."""
    fake = copy.copy(e8)
    fake.roots = e8.roots - {max(e8.roots)}
    real = embed.certify_e8
    monkeypatch.setattr(embed, "certify_e8", lambda m: fake if m == -1 else real(m))
    result = checks.run_check("s6/example1")
    assert result.status == "fail"
    assert result.observed == {"error": "ValueError: the roots are not closed under negation"}


def test_e8_raises_when_an_enumerated_root_is_not_embedded(monkeypatch, cell):
    """One listed root replaced by a norm-4 vector: the shell sizes still
    read 240 and 2160, and the comparison with the embedded roots raises."""
    real = embed.shape_shell

    def corrupted(code, norm):
        listed = real(code, norm)
        if norm == 2:
            next(listed)
            yield next(real(code, 4))
        yield from listed

    monkeypatch.setattr(embed, "shape_shell", corrupted)
    with pytest.raises(ValueError, match="the enumerated roots are not the embedded ones"):
        E8Lattice(cell, ReductionMap(-1))


def _combination(coords, basis):
    """coords * basis, the lattice vector with those coordinates."""
    return tuple(sum(map(mul, coords, col)) for col in zip(*basis))


def test_shape_listing_matches_fincke_pohst_at_both_signs(e8, e8_plus):
    """Whole domain: at m = -1 and m = +1 the listed norm-2 and norm-4
    shells equal the Fincke-Pohst shells of the Gram matrix, mapped through
    the basis, all 2,400 vectors of each lattice."""
    for lattice in (e8, e8_plus):
        searched = fraction_short_vectors(lattice.gram, 4)
        assert sorted(searched) == [2, 4]
        for norm, size in ((2, 240), (4, 2160)):
            listed = list(embed.shape_shell(lattice.code, norm))
            assert len(listed) == len(set(listed)) == size
            assert set(listed) == {_combination(c, lattice.basis) for c in searched[norm]}
        assert set(embed.shape_shell(lattice.code, 2)) == lattice.roots
        assert lattice.norm4_shell == set(embed.shape_shell(lattice.code, 4))


def test_e8_lattice_runs_no_search_and_keeps_no_norm4_shell(cell):
    """At m = -1 and +1 the shells are listed by shape, and the lattice holds
    only their sizes, no collection of the 2160 vectors, even after
    norm4_shell is read."""
    for m in (-1, 1):
        lattice = E8Lattice(cell, ReductionMap(m))
        assert len(lattice.norm4_shell) == 2160
        assert lattice.shell_sizes == {2: 240, 4: 2160}
        assert all(len(v) != 2160 for v in vars(lattice).values() if hasattr(v, "__len__"))


def test_parity_code_is_the_extended_hamming_code(e8, e8_plus):
    for lattice in (e8, e8_plus):
        assert len(lattice.code) == 16
        assert sorted(w.bit_count() for w in lattice.code) == [0] + [4] * 14 + [8]
        assert all(a ^ b in lattice.code for a in lattice.code for b in lattice.code)


def test_parity_code_raises_on_a_span_of_32_words(e8):
    with pytest.raises(ValueError, match=r"^the roots' parity words span 32 words, not 16$"):
        embed.parity_code(e8.roots | {(1, 1, 0, 0, 0, 0, 0, 0)})


def test_parity_code_raises_on_a_word_of_weight_2():
    # four disjoint pairs span 16 words, but of weights 0, 2, 4, 6 and 8
    roots = [tuple(int(i // 2 == j) for i in range(8)) for j in range(4)]
    with pytest.raises(ValueError, match=r"^the parity word on \(0, 1\) has weight 2, not 0, 4 or 8$"):
        embed.parity_code(roots)


def test_shape_shell_lists_only_norms_2_and_4(e8):
    with pytest.raises(ValueError, match="not 6"):
        next(embed.shape_shell(e8.code, 6))


def test_counterpart_orthogonality(e8):
    for i in range(120):
        assert e8.bform_int(e8.h_img[i], e8.phi_img[i]) == 0


def test_both_signs_certify_and_are_conjugate(e8, e8_plus):
    assert e8_plus.det == 1 and len(e8_plus.roots) == 240
    cell = e8.cell
    for v in cell.vertices[::17]:
        lhs = e8_plus.rmap.split_vector(v)
        rhs = e8.rmap.split_vector(tuple(x for c in coords(v) for x in c.conj().key()))
        assert tuple(lhs) == tuple(x if k % 2 == 0 else -x for k, x in enumerate(rhs))


def _dfs_golden_basis(golden):
    """The depth-first search over Z[phi] that `golden_basis` replaced: it
    extends a chosen list only by a vertex that raises its rank, and accepts
    the first 4 whose coordinates give every vertex integral coordinates."""

    def coords_all_integral(idxs):
        inv = golden_eliminate([golden[i] for i in idxs])
        return all(exact_quotient(n, inv.det) is not None for w in golden for n in inv.numerators(w))

    def search(start, chosen):
        if len(chosen) == 4:
            return tuple(chosen) if coords_all_integral(chosen) else None
        for i in range(start, len(golden)):
            if golden_eliminate([golden[j] for j in chosen + [i]]).rank == len(chosen) + 1:
                got = search(i + 1, chosen + [i])
                if got:
                    return got
        return None

    return search(0, [])


def test_golden_basis_matches_the_depth_first_search(cell, gb):
    assert gb.indices == _dfs_golden_basis([coords(v) for v in cell.vertices]) == (0, 1, 2, 6)


def _greedy_vertices(flats):
    """The per-root rank loop that one elimination of the transpose
    replaced: a vertex is kept iff it raises the rank of the kept ones."""
    chosen = []
    for i, u in enumerate(flats):
        if eliminate([flats[j] for j in chosen] + [u]).rank == len(chosen) + 1:
            chosen.append(i)
    return tuple(chosen)


def test_root_pivots_match_the_per_root_rank_loop(cell, e8, e8_plus):
    """In vertex order the rank loop over H's flats, the pivots of H's flats
    and the pivots of the images at both signs pick the same 8 vertices."""
    pick = (0, 1, 2, 3, 5, 6, 7, 21)
    assert embed.root_pick(cell) == _greedy_vertices(cell.vertices) == pick
    for lattice in (e8, e8_plus):
        assert eliminate(list(zip(*lattice.h_img))).pivots == pick
        assert lattice.basis_vids == pick
        assert lattice.basis == tuple(lattice.h_img[i] for i in pick)


def test_root_basis_matches_the_sorted_image_search(e8, e8_plus):
    """At m = -1 the pick gives the old search's basis, root for root; at
    m = +1, where the search needed its swap loop, both bases have Gram
    determinant 1 and each is integral over the other."""
    assert e8.basis == sorted_root_basis(e8.h_img)
    old = sorted_root_basis(e8_plus.h_img)
    assert old != e8_plus.basis
    for a, b in ((old, e8_plus.basis), (e8_plus.basis, old)):
        assert eliminate([[embed._half_dot(u, v) for v in a] for u in a]).det == 1
        inv = eliminate(b)
        assert all(n % inv.det == 0 for u in a for n in inv.numerators(u))


def test_basis_searches_run_at_most_6_eliminations(monkeypatch, cell):
    """The root pick, which both signs share, and a cold `golden_basis` take
    6 eliminations (1 and 5), where the sorted-image search with its swap
    loop and a golden basis took 11, and per-candidate rank loops took 47."""
    calls = []
    real = embed.eliminate

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(embed, "eliminate", counting)
    assert embed.root_pick.__wrapped__(cell) == (0, 1, 2, 3, 5, 6, 7, 21)
    assert calls == [8]
    assert embed.golden_basis.__wrapped__().indices == (0, 1, 2, 6)
    assert len(calls) <= 6


def test_golden_basis_certificates(cell, gb):
    """The integer determinant of the regular representation is the norm of
    the Z[phi] oracle's Gram determinant, a unit; the dual pairs to the
    identity, and every vertex is an integral golden combination of the basis
    by the oracle's elimination over Z[phi]."""
    assert len(gb.basis) == 4
    gram = golden_eliminate([[GoldenInt(*paper_dot(bi, bj)) for bj in gb.basis] for bi in gb.basis])
    assert is_unit(gram.det) and gb.gram_det == gram.det.field_norm() == 1
    for i in range(4):
        for j in range(4):
            assert paper_dot(gb.basis[i], gb.dual[j]) == (int(i == j), 0)
    inv = golden_eliminate([coords(b) for b in gb.basis])
    for w in cell.vertices:
        assert all(exact_quotient(n, inv.det) is not None for n in inv.numerators(coords(w)))


def test_lattice_L(lat_l):
    assert lat_l.det == 625
    assert lat_l.census == {4: 1, 2: 20, 1: 24, 0: 15}
    assert all(lat_l.gram[i][i] % 2 == 0 for i in range(8))
    assert lat_l.rootless is True
    assert fraction_short_vectors(lat_l.gram, 2) == {}


def test_lattice_L_basis_generates_the_lattice_of_all_images(lat_l):
    """The two-way certificate agrees with the HNF oracle."""
    _same_lattice(lat_l.images, lat_l.basis)
    assert hermite_normal_form(lat_l.images) == hermite_normal_form(lat_l.basis)


def test_same_lattice_names_the_direction_that_fails():
    # the images span only 2Z + Z, so (1, 0) is no image and no sum of two
    with pytest.raises(ValueError, match="^sums of images: basis vector"):
        _same_lattice({(2, 0), (0, 1)}, ((1, 0), (0, 1)))
    # (1, 0) has coordinate 1/2 over the basis (2, 0), (0, 1)
    with pytest.raises(ValueError, match="^integrality: image"):
        _same_lattice({(1, 0), (0, 1)}, ((2, 0), (0, 1)))
    with pytest.raises(ValueError, match="singular"):
        _same_lattice({(1, 0)}, ((1, 0), (2, 0)))
    _same_lattice({(1, 0), (1, 1), (0, -1)}, ((1, 0), (1, 1)))
    _same_lattice({(1, 0), (0, 1)}, ((1, 1), (0, 1)))  # (1, 1) is the sum of two images


def test_lattice_L_minimum_is_4(lat_l):
    out = fraction_short_vectors(lat_l.gram, 4)
    assert sorted(out) == [4]
    assert len(out[4]) == 120


def test_short_slot_vectors_equal_a_scan_of_the_box():
    """Whole domain: a slot pair of quarter cost (p**2 + 5 q**2) / 4 <= 2 has
    |p| <= 2 and |q| <= 1, so the box [-2, 2]**4 x [-1, 1]**4 holds every
    candidate; the 48 listed vectors are exactly its nonzero points whose
    pairs have p = q (mod 2) and whose quarter norm is at most 2."""
    listed = list(embed.short_slot_vectors())
    assert len(listed) == len(set(listed)) == 48
    scanned = set()
    for ps in iproduct(range(-2, 3), repeat=4):
        for qs in iproduct(range(-1, 2), repeat=4):
            pairs = list(zip(ps, qs))
            if all((p - q) % 2 == 0 for p, q in pairs) and 0 < sum(p * p + 5 * q * q for p, q in pairs) <= 8:
                scanned.add(tuple(x for pair in pairs for x in pair))
    assert set(listed) == scanned
    # 8 vectors of norm 1, 16 of norm 3/2 and 24 of norm 2, in quarters
    four_norms = Counter(sum(u[::2][k] ** 2 + 5 * u[1::2][k] ** 2 for k in range(4)) for u in listed)
    assert four_norms == {4: 8, 6: 16, 8: 24}


def test_rootless_reads_false_when_the_lattice_holds_a_norm_1_vector(monkeypatch, lat_l):
    """The elimination that lattice_L tests membership with is swapped for
    one of a basis holding (2, 0, 0, 0, 0, 0, 0, 0), of norm 1: rootless
    reads False, and s6/example2 fails naming it."""
    fake_basis = [(2, 0, 0, 0, 0, 0, 0, 0), *lat_l.basis[1:]]
    real = embed._same_lattice

    def widened(images, basis):
        real(images, basis)
        return eliminate(fake_basis)

    assert eliminate(fake_basis).det
    monkeypatch.setattr(embed, "_same_lattice", widened)
    widened_lattice = embed.lattice_L.__wrapped__()
    assert widened_lattice.rootless is False
    monkeypatch.setattr(embed, "lattice_L", lambda: widened_lattice)
    result = checks.run_check("s6/example2")
    assert result.status == "fail"
    assert {k for k, v in result.observed.items() if v != result.expected[k]} == {"rootless"}


def test_lattice_L_raises_on_a_basis_vector_of_mixed_slot_parity(monkeypatch):
    """At m = 0 the block (2, 0, 1, 0) sends a + b phi to (2a + b, 0): a
    basis vector with odd b then has a slot pair of mixed parity, and the
    listing of the 48 short vectors would not cover its lattice."""
    monkeypatch.setattr(embed, "ReductionMap", lambda m: _with_block(ReductionMap(m), (2, 0, 1, 0)))
    with pytest.raises(ValueError, match=r"^slot parity: basis vector \(.*\) has the slot pair \(-?\d+, 0\) of mixed parity$"):
        embed.lattice_L.__wrapped__()


def test_shell_decomposition(shell_classes, e8):
    assert sorted(len(c.vectors) for c in shell_classes) == [120, 120, 600, 600, 720]
    by_source = {}
    for c in shell_classes:
        by_source.setdefault(c.source, []).append(c.phi_power)
    assert by_source == {"600cell": [-1, 2], "120cell": [0, 1], "rectified": [-1]}
    union = set()
    for c in shell_classes:
        assert not (union & c.vectors)
        union |= c.vectors
    assert union == e8.norm4_shell


def test_shell_class_norms(shell_classes, e8):
    for c in shell_classes:
        for u in sorted(c.vectors)[:10]:
            assert e8.bform_int(u, u) == 4


def test_scaled_reduction_map_fields():
    rmap = FractionMap(
        F(5), F(-1), scale=GoldenRational(GoldenInt(*PHI)), multiplier=F(1, 2)
    )
    assert rmap.scale == GoldenRational(GoldenInt(0, 1))
    assert rmap.multiplier == F(1, 2)
    assert rmap.weight == 4 and rmap.weight_root == 2


def _fraction_map(m, k=0):
    return FractionMap(F(5), F(m), scale=GoldenRational(GoldenInt(*phi_pow(k))), multiplier=F(1, 2))


def _with_block(rmap, block):
    """rmap with its slot block replaced, as a corrupted map would have it."""
    object.__setattr__(rmap, "block", block)
    return rmap


def test_integer_map_matches_the_fraction_oracle(cell):
    """Whole domain of the shell split: all 1,440 source vectors at every
    scaling it tries, and the 600-cell with its companion at m = +1."""
    sources = (*cell.vertices, *cell.cell120.vertices, *cell.rectified)
    assert len(sources) == 1440
    for k in range(-3, 4):
        rmap, oracle = ReductionMap(-1, k), _fraction_map(-1, k)
        for v in sources:
            assert rmap.split_vector(v) == oracle.split_vector(coords(v))
    rmap, oracle = ReductionMap(1), _fraction_map(1)
    assert rmap.block == (1, 0, 1, 1)
    for v in cell.vertices:
        for w in (v, scaled(PHI_INV, v)):
            assert rmap.split_vector(w) == oracle.split_vector(coords(w))


def test_m0_map_is_twice_the_fraction_oracle(cell, gb):
    """The doubled m = 0 slots on the 120 vertices, the golden basis and its
    phi multiple, and both scaled duals (3 - phi) w / 5 and (-1 + 2 phi) w / 5,
    whose unscaled images are ten times the oracle's."""
    rmap, oracle = ReductionMap(0), FractionMap(F(5), F(0))
    assert rmap.block == (2, 0, 1, 1)
    vectors = (*cell.vertices, *gb.basis, *(scaled(PHI, v) for v in gb.basis))
    for v in vectors:
        assert rmap.split_vector(v) == tuple(2 * x for x in oracle.split_vector(coords(v)))
    for w in gb.dual:
        for mult in ((3, -1), (-1, 2)):
            expected = oracle.split_vector([GoldenRational(GoldenInt(*mult) * c, 5) for c in coords(w)])
            assert rmap.split_vector(scaled(mult, w)) == tuple(10 * x for x in expected)


def test_quarter_form_matches_reduced_dot_on_all_pair_representatives(cell):
    rmap, oracle = ReductionMap(0), FractionMap(F(5), F(0))
    reps = [cell.vertices[i] for i, _ in cell.pairs]
    assert len(reps) == 60
    ints = [rmap.split_vector(v) for v in reps]
    fracs = [oracle.split_vector(coords(v)) for v in reps]
    for u, fu in zip(ints, fracs):
        for w, fw in zip(ints, fracs):
            assert _quarter_form(u, w) == oracle.reduced_dot(fu, fw)
    with pytest.raises(ValueError, match="not an integer"):
        _quarter_form((1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0))


def test_reduction_map_rejects_m_outside_minus_one_to_one():
    for m in (2, -2, 3):
        with pytest.raises(ValueError, match="m must be -1, 0 or 1"):
            ReductionMap(m)


def test_e8_lattice_rejects_a_map_that_kills_no_unit(cell):
    with pytest.raises(ValueError, match="does not kill a fundamental unit"):
        E8Lattice(cell, ReductionMap(0))


def test_integer_coords_match_fraction_inverse(e8):
    inv = eliminate(e8.basis)
    vectors = e8.roots | e8.norm4_shell
    assert len(vectors) == 2400
    for u in vectors:
        coords = tuple(F(sum(u[k] * inv.adj[k][j] for k in range(8)), inv.det) for j in range(8))
        assert e8.coords_of(u) == coords
        assert _combination(coords, e8.basis) == u
    with pytest.raises(ValueError):
        e8.coords_of((1, 0, 0, 0, 0, 0, 0, 0))
    assert not contains(e8, (1, 1, 0, 0, 0, 0, 0, 0))


def test_bform_int_matches_reduced_dot_on_all_root_pairs(e8):
    oracle = _fraction_map(-1)
    roots = sorted(e8.roots)
    fr = [tuple(F(c) for c in u) for u in roots]
    for u, fu in zip(roots, fr):
        for v, fv in zip(roots, fr):
            assert e8.bform_int(u, v) == oracle.reduced_dot(fu, fv)
    with pytest.raises(ValueError):
        e8.bform_int((1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0))


def test_shell_classes_are_certified_isometric(shell_classes):
    assert all(c.isometric for c in shell_classes)


def test_gram_identity_rejects_wrong_scale_and_non_isometric_map():
    for k in range(-3, 4):
        block = ReductionMap(-1, k).block
        assert _gram_identity(ReductionMap(-1, k))
        assert not _gram_identity(_with_block(ReductionMap(-1, k + 1), block))
        assert not _gram_identity(_with_block(ReductionMap(-1, k - 1), block))
    # the m = +1 block is not an isometry for the m = -1 reduction
    assert not _gram_identity(_with_block(ReductionMap(-1), ReductionMap(1).block))


def test_elimination_certificates_keep_their_values(gb, e8, e8_plus, group):
    """Values computed before the linear algebra moved to `eliminate`."""
    assert gb.indices == (0, 1, 2, 6)
    assert list(gb.dual) == [
        (-1, 0, 1, 1, 0, -1, 0, 0),
        (0, 0, 0, -1, -1, 1, -1, 0),
        (0, 0, 0, -1, -1, 1, 1, 0),
        (0, 0, -2, 0, 2, 0, 0, 0),
    ]
    assert type(gb.gram_det) is int and gb.gram_det == 1
    assert e8.gram_inv == (
        (2, 1, 0, 1, -1, -1, -2, -1),
        (1, 2, 0, 1, -1, -1, -2, -1),
        (0, 0, 2, 2, -1, -1, -1, -1),
        (1, 1, 2, 4, -2, -2, -3, -2),
        (-1, -1, -1, -2, 2, 1, 2, 1),
        (-1, -1, -1, -2, 1, 2, 2, 1),
        (-2, -2, -1, -3, 2, 2, 4, 2),
        (-1, -1, -1, -2, 1, 1, 2, 2),
    )
    assert e8_plus.gram_inv == (
        (2, 0, 0, 0, -1, -1, -1, 0),
        (0, 2, 0, 0, -1, 0, -1, -1),
        (0, 0, 2, 2, -1, -1, -2, -1),
        (0, 0, 2, 4, -1, -2, -3, -2),
        (-1, -1, -1, -1, 2, 1, 2, 1),
        (-1, 0, -1, -2, 1, 2, 2, 1),
        (-1, -1, -2, -3, 2, 2, 4, 2),
        (0, -1, -1, -2, 1, 1, 2, 2),
    )
    assert [g.parity for g in group.generators] == [1, 1, 1, 1, -1]
