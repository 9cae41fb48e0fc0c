"""Z-lattices from golden lattices via norm-reduction maps.

Covers the E8 embeddings of the 600-cell (m = -1 and m = +1), the m = 0
lattice of determinant 5**4 generated by the 60 vertex pairs, and the
partition of the 2160 norm-4 vectors of E8 into five embedded polytopes.

On the E8 side (m = +-1, form multiplier 1/2) every reduced coordinate is an
integer: a reduction map acts on the flat (a, b) coordinates of Z[phi]**4 as
one integer 2x2 block per golden coordinate (`IntEmbedding`), lattice
coordinates come from the integral inverse Gram matrix, and the form is half
the integer dot product.  Each class of the norm-4 shell split is certified
by injectivity and an 8x8 Gram identity on a Q-basis of Q(phi)**4, which by
bilinearity fixes every pairwise inner product.  All certificates
(evenness, unimodularity, shell counts, Gram identities) are computed in
exact arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import permutations
from math import isqrt
from operator import mul

from .golden import PHI, PHI_INV, GoldenInt, GoldenRational, ReductionMap, phi_pow, reduce_scalar
from .icosian import Flat, IcosianVec, flat_dot
from .polytopes import Cell600, the_600cell

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


# ---------- exact linear algebra ----------

def mat_inv(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def bareiss_det(rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hermite_normal_form(rows) -> tuple[IntVec, ...]:
    """Canonical row HNF of an integer matrix; returns the nonzero rows."""
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


def short_vectors(gram, bound: int) -> dict[int, list[IntVec]]:
    """All nonzero x with x G x^T <= bound, exactly, via branch and bound.

    Returns coordinate vectors grouped by their (integer) norm.
    """
    n = len(gram)
    g = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    low = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for i in range(n):
        d = g[i][i] - sum(low[i][k] * low[i][k] * diag[k] for k in range(i))
        if d <= 0:
            raise ValueError("form is not positive definite")
        diag[i] = d
        low[i][i] = Fraction(1)
        for j in range(i + 1, n):
            low[j][i] = (g[j][i] - sum(low[j][k] * low[i][k] * diag[k] for k in range(i))) / d

    out: dict[int, list[IntVec]] = {}
    x = [0] * n

    def recurse(i: int, remaining: Fraction) -> None:
        if i < 0:
            if any(x):
                norm = bound - remaining
                assert norm.denominator == 1
                out.setdefault(int(norm), []).append(tuple(x))
            return
        c = sum(low[j][i] * x[j] for j in range(i + 1, n))
        q = remaining / diag[i]
        cn, cd = c.numerator, c.denominator
        rhs = q * cd * cd
        cap = rhs.numerator // rhs.denominator
        s = isqrt(cap)
        lo = -(-(-s - cn) // cd)
        hi = (s - cn) // cd
        for k in range(lo, hi + 1):
            step = diag[i] * (k + c) * (k + c)
            if step <= remaining:
                x[i] = k
                recurse(i - 1, remaining - step)
        x[i] = 0

    recurse(n - 1, Fraction(bound))
    for v in out.values():
        v.sort()
    return out


# ---------- embedded vectors and lattices ----------

@dataclass(frozen=True)
class EmbeddedVec:
    coords: Vec
    source: str = "other"


def embed_set(vectors, rmap: ReductionMap, source: str = "other") -> tuple[EmbeddedVec, ...]:
    out = tuple(EmbeddedVec(rmap.split_vector(v.c), source) for v in vectors)
    assert len({e.coords for e in out}) == len(out), "embedding is not injective on the set"
    return out


# flat coordinates of the Q-basis e_0, phi*e_0, ..., e_3, phi*e_3 of Q(phi)**4
_UNIT_FLATS = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))


@dataclass(frozen=True)
class IntEmbedding:
    """A reduction map on Z[phi]**4 as integer arithmetic on flat coordinates.

    The golden coordinate a + b*phi goes to the slot pair a*(p, q) + b*(r, s),
    where block = (p, q, r, s) holds the images of 1 and phi.
    """

    block: tuple[int, int, int, int]

    @classmethod
    def of(cls, rmap: ReductionMap) -> IntEmbedding:
        """Read the block off `rmap.split_vector` and certify it on the
        Q-basis e_i, phi*e_i.  Both maps are Q-linear, so agreeing on that
        basis means agreeing on all of Q(phi)**4."""
        imgs = [rmap.split_vector(IcosianVec.from_flat(u).c) for u in _UNIT_FLATS]
        if any(x.denominator != 1 for img in imgs for x in img):
            raise ValueError("reduction map is not integral on Z[phi]**4")
        emb = cls((int(imgs[0][0]), int(imgs[0][1]), int(imgs[1][0]), int(imgs[1][1])))
        if any(emb(u) != img for u, img in zip(_UNIT_FLATS, imgs)):
            raise ValueError("integer embedding disagrees with split_vector")
        return emb

    def __call__(self, flat: Flat) -> IntVec:
        p, q, r, s = self.block
        a0, b0, a1, b1, a2, b2, a3, b3 = flat
        return (
            a0 * p + b0 * r, a0 * q + b0 * s,
            a1 * p + b1 * r, a1 * q + b1 * s,
            a2 * p + b2 * r, a2 * q + b2 * s,
            a3 * p + b3 * r, a3 * q + b3 * s,
        )


def _half_dot(u: IntVec, v: IntVec) -> int:
    """The E8 form sum(u_k * v_k) / 2; raises if it is not an integer."""
    s = sum(map(mul, u, v))
    if s % 2:
        raise ValueError(f"inner product {s}/2 is not an integer")
    return s // 2


@dataclass
class IntLattice:
    rmap: ReductionMap
    basis: tuple[tuple, ...]  # integers on E8, Fractions on the m = 0 lattice
    gram: tuple[IntVec, ...]
    det: int


class E8Lattice(IntLattice):
    """A certified copy of E8 containing an embedded 600-cell H together
    with its companion scaled copy (phi*H when m = -1, H/phi when m = +1;
    in general the unit scale that the map sends to zero)."""

    def __init__(self, cell: Cell600, rmap: ReductionMap):
        self.cell = cell
        if reduce_scalar(PHI, rmap) == 0:
            companion = PHI
        elif reduce_scalar(PHI_INV, rmap) == 0:
            companion = PHI_INV
        else:
            raise ValueError("map does not kill a fundamental unit; not an E8 frame")
        if rmap.multiplier != Fraction(1, 2) or set(rmap.form_weights()) != {1}:
            raise ValueError("the integer E8 form needs multiplier 1/2 and unit slot weights")
        self.companion_scale = companion
        self.embed = IntEmbedding.of(rmap)
        h_img = [self.embed(v.flat) for v in cell.vertices]
        phi_img = [self.embed(v.scaled(companion).flat) for v in cell.vertices]
        roots = set(h_img) | set(phi_img)
        assert len(roots) == 240, "H and phi*H images must give 240 distinct vectors"
        assert all(_half_dot(u, u) == 2 for u in roots)

        basis = _root_basis(h_img)
        gram = tuple(tuple(_half_dot(b1, b2) for b2 in basis) for b1 in basis)
        det = bareiss_det([list(r) for r in gram])
        assert det == 1, f"basis Gram determinant {det} != 1"
        assert all(gram[i][i] % 2 == 0 for i in range(8)), "lattice is not even"

        super().__init__(rmap=rmap, basis=basis, gram=gram, det=det)
        self.basis_int = basis
        # integral because det G = 1
        self.gram_inv = tuple(tuple(_exact_int(x) for x in row) for row in mat_inv(gram))
        self.h_img = tuple(h_img)
        self.phi_img = tuple(phi_img)
        self.roots = frozenset(roots)

        # every root must have integral coordinates in the chosen basis
        for u in sorted(roots):
            self.coords_of(u)

        shells = short_vectors(self.gram, 4)
        self.shell_coords = shells
        assert set(shells) == {2, 4}
        assert len(shells[2]) == 240 and len(shells[4]) == 2160
        assert {self.from_coords(c) for c in shells[2]} == self.roots

    def coords_of(self, amb: IntVec) -> IntVec:
        """x with amb = x * basis.  p = basis * amb equals 2 * G x, so amb is
        in the lattice iff every p_i is even, and then x = (p / 2) G^-1."""
        p = [sum(map(mul, b, amb)) for b in self.basis_int]
        if any(pi % 2 for pi in p):
            raise ValueError(f"{amb} is not a lattice vector")
        return tuple(
            sum(p[k] // 2 * self.gram_inv[k][j] for k in range(8)) for j in range(8)
        )

    def from_coords(self, coords: IntVec) -> IntVec:
        return tuple(
            sum(coords[k] * self.basis_int[k][j] for k in range(8)) for j in range(8)
        )

    def contains(self, amb: IntVec) -> bool:
        try:
            self.coords_of(amb)
            return True
        except ValueError:
            return False

    @cached_property
    def norm4_shell(self) -> frozenset[IntVec]:
        return frozenset(self.from_coords(c) for c in self.shell_coords[4])

    bform_int = staticmethod(_half_dot)


def _exact_int(f: Fraction) -> int:
    if f.denominator != 1:
        raise ValueError(f"expected an integer, got {f}")
    return int(f)


def _frac_rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _root_basis(h_img: list[IntVec]) -> tuple[IntVec, ...]:
    """Pick 8 embedded roots that form a Z-basis of the generated lattice.

    Greedy rank extension first; if the chosen roots generate a proper
    sublattice, swap in roots with fractional coordinates of magnitude < 1
    until the Gram determinant reaches 1 (each swap strictly reduces it).
    """
    ordered = sorted(h_img)
    chosen: list[IntVec] = []
    for u in ordered:
        if _frac_rank([[Fraction(c) for c in v] for v in chosen + [u]]) == len(chosen) + 1:
            chosen.append(u)
            if len(chosen) == 8:
                break
    assert len(chosen) == 8

    def gram_det(basis: list[IntVec]) -> int:
        return bareiss_det([[_half_dot(a, b) for b in basis] for a in basis])

    det = abs(gram_det(chosen))
    while det > 1:
        inv = mat_inv([[Fraction(c) for c in b] for b in chosen])
        improved = False
        for u in ordered:
            coords = [
                sum(Fraction(u[k]) * inv[k][j] for k in range(8)) for j in range(8)
            ]
            if all(c.denominator == 1 for c in coords):
                continue
            for j, q in enumerate(coords):
                if q != 0 and abs(q) < 1:
                    cand = list(chosen)
                    cand[j] = u
                    nd = abs(gram_det(cand))
                    if 0 < nd < det:
                        chosen, det, improved = cand, nd, True
                        break
            if improved:
                break
        if not improved:
            raise RuntimeError("could not refine root basis to determinant 1")
    return tuple(chosen)


@cache
def certify_e8(m: int = -1) -> E8Lattice:
    rmap = ReductionMap(Fraction(5), Fraction(m), multiplier=Fraction(1, 2))
    return E8Lattice(the_600cell(), rmap)


# ---------- golden basis of the vertex module ----------

def _golden_mat_inv(rows: list[list[GoldenRational]]) -> list[list[GoldenRational]]:
    n = len(rows)
    one, zero = GoldenRational(1), GoldenRational(0)
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _golden_rank(vecs: list[IcosianVec]) -> int:
    rows = [[GoldenRational(c) for c in v.c] for v in vecs]
    rank = 0
    for c in range(4):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class GoldenBasis:
    indices: tuple[int, int, int, int]
    basis: tuple[IcosianVec, ...]
    dual: tuple[IcosianVec, ...]
    gram_det: GoldenInt  # a unit of Z[phi]


@cache
def golden_basis() -> GoldenBasis:
    """First 4 vertices (in the deterministic order) whose Z[phi]-span
    contains all 120 vertices; the dual basis certifies self-duality."""
    cell = the_600cell()
    verts = cell.vertices

    def coords_all_integral(idxs: list[int]) -> bool:
        rows = [[GoldenRational(c) for c in verts[i].c] for i in idxs]
        inv = _golden_mat_inv(rows)
        for w in verts:
            for j in range(4):
                s = GoldenRational(0)
                for k in range(4):
                    s = s + GoldenRational(w.c[k]) * inv[k][j]
                if not s.is_golden_int():
                    return False
        return True

    def search(start: int, chosen: list[int]):
        if len(chosen) == 4:
            return tuple(chosen) if coords_all_integral(chosen) else None
        for i in range(start, len(verts)):
            if _golden_rank([verts[j] for j in chosen + [i]]) == len(chosen) + 1:
                got = search(i + 1, chosen + [i])
                if got:
                    return got
        return None

    idxs = search(0, [])
    assert idxs is not None, "no golden vertex basis found"
    basis = tuple(verts[i] for i in idxs)

    gram = [[GoldenRational(basis[i].paper_dot(basis[j])) for j in range(4)] for i in range(4)]
    ginv = _golden_mat_inv(gram)
    dual = []
    for j in range(4):
        coords = []
        for c in range(4):
            s = GoldenRational(0)
            for k in range(4):
                s = s + ginv[j][k] * GoldenRational(basis[k].c[c])
            assert s.is_golden_int(), "dual basis leaves Z[phi]: lattice not self-dual"
            coords.append(s.to_golden_int())
        dual.append(IcosianVec(*coords))
    dual = tuple(dual)
    for i in range(4):
        for j in range(4):
            assert basis[i].paper_dot(dual[j]) == (1 if i == j else 0)

    det = GoldenRational(0)
    for p in permutations(range(4)):
        term = GoldenRational(1)
        for i in range(4):
            term = term * gram[i][p[i]]
        det = det + term if _perm_sign(p) == 1 else det - term
    assert det.is_golden_int()
    det_g = det.to_golden_int()
    assert det_g.is_unit(), f"golden Gram determinant {det_g} is not a unit"
    return GoldenBasis(idxs, basis, dual, det_g)


def _perm_sign(p) -> int:
    inv = sum(a > b for i, a in enumerate(p) for b in p[i + 1:])
    return 1 if inv % 2 == 0 else -1


# ---------- the determinant 5**4 lattice ----------

@dataclass
class ReducedLattice(IntLattice):
    images: tuple[Vec, ...]
    census: dict[int, int]
    rootless: bool  # no nonzero vector of norm <= 2
    dual_basis_identity: bool  # the scaled golden duals pair to the identity with the basis


@cache
def lattice_L() -> ReducedLattice:
    """m = 0 image of the 600-cell with the natural (doubled) form."""
    cell = the_600cell()
    gb = golden_basis()
    rmap = ReductionMap(Fraction(5), Fraction(0), multiplier=Fraction(1))
    phi = GoldenInt(0, 1)

    images = tuple(rmap.split_vector(v.c) for v in cell.vertices)
    basis_vecs = [rmap.split_vector(v.c) for v in gb.basis]
    basis_vecs += [rmap.split_vector(v.scaled(phi).c) for v in gb.basis]
    gram = tuple(
        tuple(_exact_int(rmap.reduced_dot(b1, b2)) for b2 in basis_vecs)
        for b1 in basis_vecs
    )
    det = bareiss_det([list(r) for r in gram])
    assert det == 625

    # the 8 chosen vectors generate exactly the lattice of all 120 images
    scaled_imgs = [tuple(int(2 * c) for c in u) for u in images]
    scaled_basis = [tuple(int(2 * c) for c in u) for u in basis_vecs]
    assert hermite_normal_form(scaled_imgs) == hermite_normal_form(scaled_basis)

    census: Counter = Counter()
    rep = images[0]
    pair_seen = set()
    for i, u in enumerate(images):
        if cell.pair_of[i] in pair_seen:
            continue
        pair_seen.add(cell.pair_of[i])
        val = abs(_exact_int(rmap.reduced_dot(rep, u)))
        census[val] += 1
    assert dict(census) == {4: 1, 2: 20, 1: 24, 0: 15}

    # census must be the same from every generator
    for j in (1, 7, 30, 59):
        c2: Counter = Counter()
        rep2 = images[cell.pairs[j][0]]
        for pid in range(60):
            c2[abs(_exact_int(rmap.reduced_dot(rep2, images[cell.pairs[pid][0]])))] += 1
        assert dict(c2) == {4: 1, 2: 20, 1: 24, 0: 15}

    assert all(gram[i][i] % 2 == 0 for i in range(8))
    rootless = short_vectors(gram, 2) == {}

    # dual basis identity: (3 - phi) w_i / 5 and (-1 + 2 phi) w_i / 5
    duals = []
    for w in gb.dual:
        for mult in (GoldenInt(3, -1), GoldenInt(-1, 2)):  # 3 - phi, -1 + 2 phi
            coords = [GoldenRational(mult * c, 5) for c in w.c]
            duals.append(rmap.split_vector(coords))
    order = [0, 2, 4, 6, 1, 3, 5, 7]  # (v_i duals first block, phi v_i second)
    dual_sorted = [duals[k] for k in order]
    dual_ok = all(
        rmap.reduced_dot(dual_sorted[a], basis_vecs[b]) == (1 if a == b else 0)
        for a in range(8)
        for b in range(8)
    )

    return ReducedLattice(
        rmap=rmap,
        basis=tuple(basis_vecs),
        gram=gram,
        det=det,
        images=images,
        census=dict(census),
        rootless=rootless,
        dual_basis_identity=dual_ok,
    )


# ---------- decomposition of the norm-4 shell ----------

@dataclass(frozen=True)
class ShellClass:
    source: str
    phi_power: int
    vectors: frozenset[IntVec]
    isometric: bool  # injective on the source, and the Gram identity holds


def _gram_identity(emb: IntEmbedding, rmap: ReductionMap) -> bool:
    """<emb x, emb y> == reduce(s**2 <x, y>) / 2, s = rmap.scale, on the
    Q-basis e_i, phi*e_i of Q(phi)**4.  Both sides are Q-bilinear, so this
    fixes every pairwise inner product of an embedded set, not just their
    multiset."""
    imgs = [emb(u) for u in _UNIT_FLATS]
    scale2 = rmap.scale * rmap.scale
    # both sides carry the form's factor 1/2, so compare the doubled values
    return all(
        sum(map(mul, imgs[i], imgs[j]))
        == reduce_scalar(scale2 * GoldenInt(*flat_dot(_UNIT_FLATS[i], _UNIT_FLATS[j])), rmap)
        for i in range(8)
        for j in range(8)
    )


@cache
def decompose_norm4_shell() -> tuple[ShellClass, ...]:
    """Partition of the 2160 norm-4 vectors of E8 into two 600-cells, two
    120-cells and a rectified 600-cell, each a scaled embedded image.

    The scalings are found by searching unit multiples phi**k.  Each class
    records whether its map is an isometry onto it: injective on the source,
    and an exact 8x8 Gram identity on a Q-basis of Q(phi)**4 (see
    `_gram_identity`), which is stronger than equal inner-product spectra.
    """
    e8 = certify_e8(-1)
    cell = e8.cell
    shell = e8.norm4_shell
    sources = {
        "600cell": tuple(v.flat for v in cell.vertices),
        "120cell": tuple(v.flat for v in cell.cell120.vertices),
        "rectified": tuple(v.flat for v in cell.rectified),
    }
    classes: list[ShellClass] = []
    for k in range(-3, 4):
        rmap_k = ReductionMap(
            Fraction(5), Fraction(-1),
            scale=GoldenRational(phi_pow(k)),
            multiplier=Fraction(1, 2),
        )
        emb = IntEmbedding.of(rmap_k)
        for name, flats in sources.items():
            imgs = [emb(f) for f in flats]
            if all(u in shell for u in imgs):
                vectors = frozenset(imgs)
                isometric = len(vectors) == len(flats) and _gram_identity(emb, rmap_k)
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
