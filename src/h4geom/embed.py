"""Z-lattices from golden lattices via norm-reduction maps.

Covers the E8 embeddings of the 600-cell (m = -1 and m = +1), the m = 0
lattice of determinant 5**4 generated by the 60 vertex pairs, and the
partition of the 2160 norm-4 vectors of E8 into five embedded polytopes.

Every map is `golden.ReductionMap`: one integer 2x2 block per golden
coordinate, acting on the flat (a, b) coordinates of Z[phi]**4.  On the E8
side (m = +-1) the form is half the integer dot product and lattice
coordinates come from the integral inverse Gram matrix; at m = 0 the slots
are doubled and the form is `_quarter_form`, a quarter of the even-slot plus
five times the odd-slot products.

Each E8 lattice is certified as Construction A of the extended Hamming
[8, 4, 4] code (Conway & Sloane, SPLAG ch. 5 and 8): the parity words of the
240 roots must span 16 words of weights 0, 4 and 8, so the integer vectors
whose parity word is a code word form an even lattice of determinant 1
containing the roots; the root basis, whose Gram determinant is also 1, then
spans it.  That basis is the images of 8 vertices picked once, in vertex
order, for both signs (`root_pick`).  Its norm-2 and norm-4 shells are
listed by shape over the code (`shape_shell`), with no search, and compared
with the embedded roots and the counts 240 and 2160.

The m = 0 lattice is certified rootless by shape too: its basis, and so
every vector of it, has p = q (mod 2) in each slot pair (p, q), so its
nonzero vectors of norm at most 2 are among the 48 of `short_slot_vectors`,
and none of them lies in it.

Each class of the norm-4 shell split is certified by injectivity and an 8x8
Gram identity on a Q-basis of Q(phi)**4, which by bilinearity fixes every
pairwise inner product.  All certificates (the code, evenness,
unimodularity, shell counts, Gram identities) are computed in exact integer
arithmetic.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator, Sequence
from functools import cache, cached_property
from itertools import combinations, product
from operator import mul, sub

from .golden import PHI, PHI_INV, Elimination, ReductionMap, eliminate, mul as golden_mul, phi_pow
from .icosian import flat_dot, paper_dot, scaled
from .polytopes import Cell600, the_600cell

IntVec = tuple[int, ...]


# ---------- embedded lattices ----------

# flat coordinates of the Q-basis e_0, phi*e_0, ..., e_3, phi*e_3 of Q(phi)**4
_UNIT_FLATS = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))


def _half_dot(u: IntVec, v: IntVec) -> int:
    """The E8 form sum(u_k * v_k) / 2; raises if it is not an integer."""
    s = sum(map(mul, u, v))
    if s % 2:
        raise ValueError(f"inner product {s}/2 is not an integer")
    return s // 2


def _quarter_form(u: IntVec, v: IntVec) -> int:
    """The m = 0 form on doubled slots: (sum of even-slot products + 5 * sum
    of odd-slot products) / 4; raises if it is not an integer."""
    s = sum(map(mul, u[::2], v[::2])) + 5 * sum(map(mul, u[1::2], v[1::2]))
    if s % 4:
        raise ValueError(f"inner product {s}/4 is not an integer")
    return s // 4


class E8Lattice:
    """A certified copy of E8 containing an embedded 600-cell H together
    with its companion scaled copy (phi*H when m = -1, H/phi when m = +1;
    in general the unit scale that the map sends to zero): its basis on the
    slots of rmap, the images of the vertices `root_pick` gives
    (`basis_vids`), the Gram matrix of that basis and its determinant, the
    code C of its parity words and the sizes of its norm-2 and norm-4
    shells.  It is certified as Construction A of C: the integer vectors
    whose parity word lies in C, even with determinant
    2**(2 * (8 - 4)) / 2**8 = 1 under the half-dot form, which holds the
    roots and so the root basis; the two determinants are equal, so the
    basis spans it.  Neither shell is kept."""

    def __init__(self, cell: Cell600, rmap: ReductionMap):
        self.cell = cell
        if rmap.reduce(PHI) == 0:
            companion = PHI
        elif rmap.reduce(PHI_INV) == 0:
            companion = PHI_INV
        else:
            raise ValueError("map does not kill a fundamental unit; not an E8 frame")
        h_img = [rmap.split_vector(v) for v in cell.vertices]
        phi_img = [rmap.split_vector(scaled(companion, v)) for v in cell.vertices]
        roots = set(h_img) | set(phi_img)
        if len(roots) != 240:
            raise ValueError("H and phi*H images must give 240 distinct vectors")
        if any(_half_dot(u, u) != 2 for u in roots):
            raise ValueError("an embedded root does not have norm 2")

        pick = root_pick(cell)
        basis = tuple(h_img[i] for i in pick)
        gram = tuple(tuple(_half_dot(b1, b2) for b2 in basis) for b1 in basis)
        elim = eliminate(gram)
        if elim.det != 1:
            raise ValueError(f"basis Gram determinant {elim.det} != 1")
        if any(gram[i][i] % 2 for i in range(8)):
            raise ValueError("lattice is not even")

        self.rmap, self.basis, self.gram, self.det = rmap, basis, gram, elim.det
        self.basis_vids = pick
        self.gram_inv = elim.adj  # the inverse, since det G = 1
        self.h_img = tuple(h_img)
        self.phi_img = tuple(phi_img)
        self.roots = frozenset(roots)
        self.code = parity_code(self.roots)

        listed = set(shape_shell(self.code, 2))
        sizes = len(listed), sum(1 for _ in shape_shell(self.code, 4))
        if sizes != (240, 2160):
            raise ValueError(f"E8 shell sizes {sizes[0]}, {sizes[1]} are not 240, 2160")
        if listed != self.roots:
            raise ValueError("the enumerated roots are not the embedded ones")
        self.shell_sizes = dict(zip((2, 4), sizes))

    def coords_of(self, amb: IntVec) -> IntVec:
        """x with amb = x * basis.  p = basis * amb equals 2 * G x, so amb is
        in the lattice iff every p_i is even, and then x = (p / 2) G^-1."""
        p = [sum(map(mul, b, amb)) for b in self.basis]
        if any(pi % 2 for pi in p):
            raise ValueError(f"{amb} is not a lattice vector")
        return tuple(sum(map(mul, p, col)) // 2 for col in self._columns)

    @cached_property
    def _columns(self) -> tuple[IntVec, ...]:
        """The columns of G^-1, for coords_of."""
        return tuple(zip(*self.gram_inv))

    @property
    def norm4_shell(self) -> frozenset[IntVec]:
        """The 2160 vectors of norm 4, listed afresh on each read."""
        return frozenset(shape_shell(self.code, 4))

    bform_int = staticmethod(_half_dot)


def parity_code(roots) -> tuple[int, ...]:
    """The binary code spanned by the roots' parity words (bit i set when
    entry i is odd), sorted; raises unless it is a doubly-even [8, 4] code:
    16 words, each of weight 0, 4 or 8."""
    words = {sum(1 << i for i, x in enumerate(u) if x % 2) for u in roots}
    span = {0}
    for w in words:
        if w not in span:
            span |= {w ^ c for c in span}
    if len(span) != 16:
        raise ValueError(f"the roots' parity words span {len(span)} words, not 16")
    code = tuple(sorted(span))
    for w in code:
        if w.bit_count() % 4:
            support = tuple(i for i in range(8) if w >> i & 1)
            raise ValueError(f"the parity word on {support} has weight {w.bit_count()}, not 0, 4 or 8")
    return code


def shape_shell(code: Sequence[int], norm: int) -> Iterator[IntVec]:
    """Every vector of half-dot norm 2 or 4 whose parity word lies in code.

    Such a vector has x.x <= 8, so its entries are 0, +-1 or +-2: +-1 on
    the support of its word and +-2 on (2 * norm - weight) / 4 of the other
    places.  Each word, choice of places and choice of entries gives one
    vector, and each vector arises once.
    """
    if norm not in (2, 4):
        raise ValueError(f"shapes are listed for norms 2 and 4, not {norm}")
    for w in code:
        twos, rest = divmod(2 * norm - w.bit_count(), 4)
        if twos < 0 or rest:
            continue
        for places in combinations([i for i in range(8) if not w >> i & 1], twos):
            entries = [(1, -1) if w >> i & 1 else (2, -2) if i in places else (0,) for i in range(8)]
            yield from product(*entries)


@cache
def root_pick(cell: Cell600) -> tuple[int, ...]:
    """The first 8 vertices of cell, in vertex order, that are independent
    over Q: the pivot columns of one elimination of their transposed flats.
    Each ReductionMap(+-1) is Q-linear and injective on Q(phi)**4, so at
    both signs the same 8 vertices map to independent roots spanning a
    sublattice of the same index, and one pick serves both lattices."""
    pick = eliminate(list(zip(*cell.vertices))).pivots
    if len(pick) != 8:
        raise ValueError(f"the vertices span rank {len(pick)}, not 8")
    return pick


@cache
def certify_e8(m: int) -> E8Lattice:
    return E8Lattice(the_600cell(), ReductionMap(m))


# ---------- golden basis of the vertex module ----------

# The vertex indices of the basis, the basis and its dual, and the integer
# N(det G), the field norm of the golden Gram determinant, which is +-1
# exactly when det G is a unit of Z[phi].
GoldenBasis = namedtuple("GoldenBasis", "indices basis dual gram_det")


@cache
def golden_basis() -> GoldenBasis:
    """First 4 vertices (in vertex order) whose Z[phi]-span contains all 120;
    the dual basis certifies self-duality.  Everything is eliminated over Z.

    The Z[phi]-span of b_0..b_3 is the Z-span of the 8 integer flats b_i and
    phi*b_i, so a candidate spans all 120 when that 8 x 8 elimination holds
    every vertex flat (`_holds`).  The golden Gram matrix G goes to its
    regular representation R(G) over Z, each entry a + b*phi becoming the
    block [[a, b], [b, a + b]], the action of a + b*phi on (1, phi).  R is a
    ring map, so det R(G) = N(det G), and adj R(G) = N(det G) R(G^-1), whose
    row 2j of block (j, k) is N(det G) times the flat pair of (G^-1)_jk."""
    verts = the_600cell().vertices

    def spans_all(idxs: tuple[int, ...]) -> bool:
        inv = eliminate([f for i in idxs for f in (verts[i], scaled(PHI, verts[i]))])
        return bool(inv.det) and all(_holds(inv, w) for w in verts)

    idxs = next((c for c in combinations(range(len(verts)), 4) if spans_all(c)), None)
    if idxs is None:
        raise ValueError("no golden vertex basis found")
    basis = tuple(verts[i] for i in idxs)

    gram = [[paper_dot(bi, bj) for bj in basis] for bi in basis]
    regular = []  # R(G), two integer rows per row of G
    for row in gram:
        regular.append([x for a, b in row for x in (a, b)])
        regular.append([x for a, b in row for x in (b, a + b)])
    reg = eliminate(regular)
    norm = reg.det
    if abs(norm) != 1:
        raise ValueError(f"the golden Gram determinant has norm {norm}, not +-1: not a unit")
    dual = []
    for j in range(4):
        # N(det G) times b_j* = sum_k (G^-1)_jk b_k, coordinate by coordinate;
        # 1/N = N for N = +-1
        row = reg.adj[2 * j]
        terms = [scaled((row[2 * k], row[2 * k + 1]), basis[k]) for k in range(4)]
        dual.append(tuple(norm * sum(col) for col in zip(*terms)))
    dual = tuple(dual)
    if any(paper_dot(basis[i], dual[j]) != (int(i == j), 0) for i in range(4) for j in range(4)):
        raise ValueError("dual basis does not pair to the identity with the basis")
    return GoldenBasis(idxs, basis, dual, norm)


# ---------- the determinant 5**4 lattice ----------

def _holds(inv: Elimination, u: IntVec) -> bool:
    """Whether u is an integral combination of the rows B that inv
    eliminated: its numerators u * adj B are all divisible by det B."""
    return not any(n % inv.det for n in inv.numerators(u))


def _same_lattice(images: Sequence[IntVec], basis: Sequence[IntVec]) -> Elimination:
    """Raises unless the vectors images generate the lattice with basis B,
    proved in both directions: every image has integral coordinates over B
    (`_holds`), and every basis vector is an image or the sum of two images.
    Returns the elimination of B, for further membership tests."""
    inv = eliminate(basis)
    if not inv.det:
        raise ValueError("the basis is singular")
    for u in images:
        if not _holds(inv, u):
            raise ValueError(f"integrality: image {u} is not an integral combination of the basis")
    found = set(images)
    for b in basis:
        if b not in found and not any(tuple(map(sub, b, u)) in found for u in found):
            raise ValueError(f"sums of images: basis vector {b} is neither an image nor the sum of two")
    return inv


def short_slot_vectors() -> Iterator[IntVec]:
    """The 48 nonzero vectors on doubled slots with p = q (mod 2) in each
    slot pair (p, q) and quarter norm at most 2.  A pair costs (p**2 + 5 q**2)
    / 4: (0, 0) 0, (+-2, 0) 1, (+-1, +-1) 3/2 and any other at least 7/2, so
    each vector is one or two pairs (+-2, 0) (8 and 24) or one (+-1, +-1) (16)."""
    twos, ones = ((2, 0), (-2, 0)), tuple(product((1, -1), repeat=2))
    for count, pairs in ((1, twos), (2, twos), (1, ones)):
        for places in combinations(range(4), count):
            for chosen in product(pairs, repeat=count):
                v = [0] * 8
                for k, (p, q) in zip(places, chosen):
                    v[2 * k], v[2 * k + 1] = p, q
                yield tuple(v)


# The m = 0 lattice: its basis on doubled slots, the Gram matrix of that
# basis and its determinant, with its stored certificates: the 120 images
# (doubled slots, like the basis), the inner-product census from one pair,
# whether no nonzero vector has norm <= 2 (rootless), and whether the scaled
# golden duals pair to the identity with the basis.
ReducedLattice = namedtuple(
    "ReducedLattice", "rmap basis gram det images census rootless dual_basis_identity"
)


@cache
def lattice_L() -> ReducedLattice:
    """m = 0 image of the 600-cell with the natural form, on doubled slots."""
    cell = the_600cell()
    gb = golden_basis()
    rmap = ReductionMap(0)

    images = tuple(map(rmap.split_vector, cell.vertices))
    basis_vecs = [rmap.split_vector(v) for v in gb.basis]
    basis_vecs += [rmap.split_vector(scaled(PHI, v)) for v in gb.basis]
    for b in basis_vecs:
        for p, q in zip(b[::2], b[1::2]):
            if (p - q) % 2:
                raise ValueError(f"slot parity: basis vector {b} has the slot pair ({p}, {q}) of mixed parity")
    gram = tuple(tuple(_quarter_form(b1, b2) for b2 in basis_vecs) for b1 in basis_vecs)
    det = eliminate(gram).det
    if det != 625:
        raise ValueError(f"m = 0 lattice Gram determinant {det} != 625")

    # the 8 chosen vectors generate exactly the lattice of all 120 images
    inv = _same_lattice(images, basis_vecs)

    # the census of |inner products| from pair j to all 60 pairs is the same for every j tried
    reps = [images[i] for i, _ in cell.pairs]
    censuses = {
        j: dict(Counter(abs(_quarter_form(reps[j], u)) for u in reps)) for j in (0, 1, 7, 30, 59)
    }
    for j, counts in censuses.items():
        if counts != {4: 1, 2: 20, 1: 24, 0: 15}:
            raise ValueError(f"inner product census {counts} from pair {j}")

    if any(gram[i][i] % 2 for i in range(8)):
        raise ValueError("m = 0 lattice is not even")
    # slot parity holds on the basis, so on every lattice vector
    rootless = not any(_holds(inv, u) for u in short_slot_vectors())

    # dual basis identity for (3 - phi) w_i / 5 and (-1 + 2 phi) w_i / 5: the
    # form of the unscaled (3 - phi) w_i and (-1 + 2 phi) w_i is 5 * delta
    duals = []
    for w in gb.dual:
        for mult in ((3, -1), (-1, 2)):  # 3 - phi, -1 + 2 phi
            duals.append(rmap.split_vector(scaled(mult, w)))
    order = [0, 2, 4, 6, 1, 3, 5, 7]  # (v_i duals first block, phi v_i second)
    dual_sorted = [duals[k] for k in order]
    dual_ok = all(
        _quarter_form(dual_sorted[a], basis_vecs[b]) == (5 if a == b else 0)
        for a in range(8)
        for b in range(8)
    )

    return ReducedLattice(
        rmap=rmap,
        basis=tuple(basis_vecs),
        gram=gram,
        det=det,
        images=images,
        census=censuses[0],
        rootless=rootless,
        dual_basis_identity=dual_ok,
    )


# ---------- decomposition of the norm-4 shell ----------

# The source polytope, the scale phi**phi_power, the image vectors, and
# whether the map is injective on the source with the Gram identity holding.
ShellClass = namedtuple("ShellClass", "source phi_power vectors isometric")


def _gram_identity(rmap: ReductionMap) -> bool:
    """<split x, split y> == (s**2 <x, y> with sqrt5 -> m) / 2, s = phi**k,
    on the Q-basis e_i, phi*e_i of Q(phi)**4.  Both sides are Q-bilinear, so
    this fixes every pairwise inner product of an embedded set, not just their
    multiset."""
    imgs = [rmap.split_vector(u) for u in _UNIT_FLATS]
    scale2 = phi_pow(2 * rmap.k)
    # the E8 form is half the dot product and `reduce` doubles, so compare
    # four times each side
    return all(
        2 * sum(map(mul, imgs[i], imgs[j]))
        == rmap.reduce(golden_mul(scale2, flat_dot(_UNIT_FLATS[i], _UNIT_FLATS[j])))
        for i in range(8)
        for j in range(8)
    )


@cache
def decompose_norm4_shell() -> tuple[ShellClass, ...]:
    """Partition of the 2160 norm-4 vectors of E8 into two 600-cells, two
    120-cells and a rectified 600-cell, each a scaled embedded image.

    The scalings are found by searching unit multiples phi**k: a source is
    mapped whole at a scale only when the image of its first vector lies in
    the shell.  Each class records whether its map is an isometry onto it:
    injective on the source, and an exact 8x8 Gram identity on a Q-basis of
    Q(phi)**4 (see `_gram_identity`), which is stronger than equal
    inner-product spectra.
    """
    e8 = certify_e8(-1)
    cell = e8.cell
    shell = e8.norm4_shell
    sources = {
        "600cell": cell.vertices,
        "120cell": cell.cell120.vertices,
        "rectified": cell.rectified,
    }
    classes: list[ShellClass] = []
    for k in range(-3, 4):
        rmap = ReductionMap(-1, k)
        for name, flats in sources.items():
            # a source whose first image misses the shell cannot lie in it
            if rmap.split_vector(flats[0]) not in shell:
                continue
            imgs = [rmap.split_vector(f) for f in flats]
            if all(u in shell for u in imgs):
                vectors = frozenset(imgs)
                isometric = len(vectors) == len(flats) and _gram_identity(rmap)
                classes.append(ShellClass(name, k, vectors, isometric))
    sizes = sorted(len(c.vectors) for c in classes)
    if sizes != [120, 120, 600, 600, 720]:
        raise ValueError(f"shell class sizes {sizes}")
    union: set[IntVec] = set()
    for c in classes:
        if union & c.vectors:
            raise ValueError("shell classes overlap")
        union |= c.vectors
    if union != shell:
        raise ValueError("shell classes do not cover the norm-4 shell")
    return tuple(sorted(classes, key=lambda c: (len(c.vectors), c.source, c.phi_power)))
