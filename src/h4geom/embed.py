"""Z-lattices from golden lattices via norm-reduction maps.

Covers the E8 embeddings of the 600-cell (m = -1 and m = +1), the m = 0
lattice of determinant 5**4 generated by the 60 vertex pairs, and the
partition of the 2160 norm-4 vectors of E8 into five embedded polytopes.

Every map is `golden.ReductionMap`: one integer 2x2 block per golden
coordinate, acting on the flat (a, b) coordinates of Z[phi]**4.  On the E8
side (m = +-1) the form is half the integer dot product and lattice
coordinates come from the integral inverse Gram matrix; at m = 0 the slots
are doubled and the form is `_quarter_form`, a quarter of the even-slot plus
five times the odd-slot products.  Each class of the norm-4 shell split is
certified by injectivity and an 8x8 Gram identity on a Q-basis of
Q(phi)**4, which by bilinearity fixes every pairwise inner product.  All
certificates (evenness, unimodularity, shell counts, Gram identities) are
computed in exact integer arithmetic.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import cache, cached_property
from itertools import combinations
from math import isqrt, lcm
from operator import mul, sub

from .golden import PHI, PHI_INV, GoldenInt, ReductionMap, eliminate, exact_quotient, phi_pow
from .icosian import IcosianVec, flat_dot
from .polytopes import Cell600, the_600cell

IntVec = tuple[int, ...]


# ---------- integer lattice tools ----------

def short_vectors(gram, bound: int) -> dict[int, list[IntVec]]:
    """All nonzero x with x G x^T <= bound, exactly (Fincke-Pohst).

    x G x^T = sum_i d_i (x_i + c_i)^2 with G = L diag(d) L^T and
    c_i = sum_{j > i} L_ji x_j.  `eliminate` of the leading blocks G_k gives
    the minors D_k = det G_k, so d_i = D_{i+1} / D_i, and the integers
    N_ji = D_{i+1} L_ji as the last numerator of row j over G_{i+1}.  Level i
    adds (D_{i+1} x_i + C_i)^2 / (D_i D_{i+1}), C_i = sum_{j > i} N_ji x_j;
    scaled by S = lcm(D_i D_{i+1}), it keeps x_i = k iff w_i (D_{i+1} k +
    C_i)^2 <= rem, where w_i = S / (D_i D_{i+1}) and rem = S * (what is left
    of the bound), and |D_{i+1} k + C_i| <= isqrt(rem // w_i) is the same.

    Returns coordinate vectors grouped by their (integer) norm, each list
    sorted.
    """
    n = len(gram)
    if not all(isinstance(x, int) for row in gram for x in row):
        raise ValueError("a Gram entry is not an integer")
    elims = [eliminate([row[:k] for row in gram[:k]]) for k in range(1, n + 1)]
    minors = [1] + [e.det for e in elims]  # D_0 = 1, D_1, ..., D_n
    if any(d <= 0 for d in minors):  # Sylvester's criterion
        raise ValueError("form is not positive definite")
    # cols[i] = the integers N_ji for j > i, as (j, value) pairs
    cols = [
        [(j, nji) for j in range(i + 1, n) if (nji := e.numerators(gram[j][:i + 1])[i])]
        for i, e in enumerate(elims)
    ]
    dens = minors[1:]
    scale = lcm(*map(mul, minors, dens))
    weights = [scale // (a * b) for a, b in zip(minors, dens)]
    total = scale * bound

    out: dict[int, list[IntVec]] = {}
    x = [0] * n

    def recurse(i: int, rem: int) -> None:
        w, den = weights[i], dens[i]
        c = 0
        for j, nji in cols[i]:
            c += nji * x[j]
        s = isqrt(rem // w)
        for k in range(-((s + c) // den), (s - c) // den + 1):
            t = den * k + c
            x[i] = k
            left = rem - w * t * t
            if i:
                recurse(i - 1, left)
            elif any(x):
                norm, frac = divmod(total - left, scale)
                if frac:
                    raise ValueError(f"norm of {tuple(x)} is not an integer")
                out.setdefault(norm, []).append(tuple(x))
        x[i] = 0

    recurse(n - 1, total)
    for v in out.values():
        v.sort()
    return out


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


class IntLattice:
    """A lattice with its basis on the slots of rmap (doubled on the m = 0
    lattice), the Gram matrix of that basis and its determinant."""

    def __init__(self, rmap: ReductionMap, basis: tuple[IntVec, ...], gram: tuple[IntVec, ...], det: int) -> None:
        self.rmap = rmap
        self.basis = basis
        self.gram = gram
        self.det = det


class E8Lattice(IntLattice):
    """A certified copy of E8 containing an embedded 600-cell H together
    with its companion scaled copy (phi*H when m = -1, H/phi when m = +1;
    in general the unit scale that the map sends to zero)."""

    def __init__(self, cell: Cell600, rmap: ReductionMap):
        self.cell = cell
        if rmap.reduce(PHI) == 0:
            companion = PHI
        elif rmap.reduce(PHI_INV) == 0:
            companion = PHI_INV
        else:
            raise ValueError("map does not kill a fundamental unit; not an E8 frame")
        h_img = [rmap.split_vector(v.flat) for v in cell.vertices]
        phi_img = [rmap.split_vector(v.scaled(companion).flat) for v in cell.vertices]
        roots = set(h_img) | set(phi_img)
        if len(roots) != 240:
            raise ValueError("H and phi*H images must give 240 distinct vectors")
        if any(_half_dot(u, u) != 2 for u in roots):
            raise ValueError("an embedded root does not have norm 2")

        basis = _root_basis(h_img)
        gram = tuple(tuple(_half_dot(b1, b2) for b2 in basis) for b1 in basis)
        elim = eliminate(gram)
        if elim.det != 1:
            raise ValueError(f"basis Gram determinant {elim.det} != 1")
        if any(gram[i][i] % 2 for i in range(8)):
            raise ValueError("lattice is not even")

        super().__init__(rmap=rmap, basis=basis, gram=gram, det=elim.det)
        self.gram_inv = elim.adj  # the inverse, since det G = 1
        self.h_img = tuple(h_img)
        self.phi_img = tuple(phi_img)
        self.roots = frozenset(roots)

        # every root must have integral coordinates in the chosen basis
        for u in sorted(roots):
            self.coords_of(u)

        shells = short_vectors(self.gram, 4)
        self.shell_coords = shells
        if set(shells) != {2, 4}:
            raise ValueError(f"E8 has vectors of norms {sorted(shells)} up to 4, not 2 and 4")
        if len(shells[2]) != 240 or len(shells[4]) != 2160:
            raise ValueError(
                f"E8 shell sizes {len(shells[2])}, {len(shells[4])} are not 240, 2160"
            )
        if {self.from_coords(c) for c in shells[2]} != self.roots:
            raise ValueError("the enumerated roots are not the embedded ones")

    def coords_of(self, amb: IntVec) -> IntVec:
        """x with amb = x * basis.  p = basis * amb equals 2 * G x, so amb is
        in the lattice iff every p_i is even, and then x = (p / 2) G^-1."""
        p = [sum(map(mul, b, amb)) for b in self.basis]
        if any(pi % 2 for pi in p):
            raise ValueError(f"{amb} is not a lattice vector")
        return tuple(sum(map(mul, p, col)) // 2 for col in self._columns[1])

    def from_coords(self, coords: IntVec) -> IntVec:
        return tuple(sum(map(mul, coords, col)) for col in self._columns[0])

    @cached_property
    def _columns(self) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
        """The columns of the basis and of G^-1, for from_coords and coords_of."""
        return tuple(zip(*self.basis)), tuple(zip(*self.gram_inv))

    @cached_property
    def norm4_shell(self) -> frozenset[IntVec]:
        return frozenset(self.from_coords(c) for c in self.shell_coords[4])

    bform_int = staticmethod(_half_dot)


def _root_basis(h_img: list[IntVec]) -> tuple[IntVec, ...]:
    """Pick 8 embedded roots that form a Z-basis of the generated lattice.

    Greedy rank extension (the pivot columns of the transpose) first; if the
    chosen roots generate a proper sublattice, swap in roots with fractional
    coordinates of magnitude < 1 until the Gram determinant reaches 1 (each
    swap strictly reduces it).
    """
    ordered = sorted(h_img)
    chosen = [ordered[c] for c in eliminate(list(zip(*ordered))).pivots]
    if len(chosen) != 8:
        raise ValueError(f"embedded roots span rank {len(chosen)}, not 8")

    def gram_det(basis: list[IntVec]) -> int:
        return eliminate([[_half_dot(a, b) for b in basis] for a in basis]).det

    det = abs(gram_det(chosen))
    while det > 1:
        # u * adj B = det B * (u's coordinates over B), so a coordinate q is
        # fractional with 0 < |q| < 1 when its numerator n has 0 < |n| < |det B|
        inv = eliminate(chosen)
        swaps = (
            chosen[:j] + [u] + chosen[j + 1:]
            for u in ordered
            for j, n in enumerate(inv.numerators(u))
            if n and abs(n) < abs(inv.det)
        )
        dets = ((c, abs(gram_det(c))) for c in swaps)
        found = next(((c, d) for c, d in dets if 0 < d < det), None)
        if found is None:
            raise RuntimeError("could not refine root basis to determinant 1")
        chosen, det = found
    return tuple(chosen)


@cache
def certify_e8(m: int) -> E8Lattice:
    return E8Lattice(the_600cell(), ReductionMap(m))


# ---------- golden basis of the vertex module ----------

# The vertex indices of the basis, the basis and its dual, and the Gram
# determinant, a unit of Z[phi].
GoldenBasis = namedtuple("GoldenBasis", "indices basis dual gram_det")


@cache
def golden_basis() -> GoldenBasis:
    """First 4 vertices (in the deterministic order) whose Z[phi]-span
    contains all 120 vertices; the dual basis certifies self-duality."""
    verts = the_600cell().vertices
    coords = [v.c for v in verts]  # GoldenInt coordinates for eliminate, read once

    def spans_all(idxs: tuple[int, ...]) -> bool:
        # independent, and every w has integral coordinates w * B^-1 = w * adj B / det B
        inv = eliminate([coords[i] for i in idxs])
        return bool(inv.det) and all(
            exact_quotient(n, inv.det) is not None for w in coords for n in inv.numerators(w)
        )

    idxs = next((c for c in combinations(range(len(coords)), 4) if spans_all(c)), None)
    if idxs is None:
        raise ValueError("no golden vertex basis found")
    basis = tuple(verts[i] for i in idxs)

    gram = eliminate([[bi.paper_dot(bj) for bj in basis] for bi in basis])
    if not gram.det.is_unit():
        raise ValueError(f"golden Gram determinant {gram.det} is not a unit")
    dual = []
    for j in range(4):
        dual_coords = [
            exact_quotient(sum(gram.adj[j][k] * coords[idxs[k]][c] for k in range(4)), gram.det)
            for c in range(4)
        ]
        if None in dual_coords:
            raise ValueError("dual basis leaves Z[phi]: lattice not self-dual")
        dual.append(IcosianVec(x for g in dual_coords for x in g.key()))
    dual = tuple(dual)
    if any(basis[i].paper_dot(dual[j]) != (1 if i == j else 0) for i in range(4) for j in range(4)):
        raise ValueError("dual basis does not pair to the identity with the basis")
    return GoldenBasis(idxs, basis, dual, gram.det)


# ---------- the determinant 5**4 lattice ----------

def _same_lattice(images: Sequence[IntVec], basis: Sequence[IntVec]) -> None:
    """Raises unless the vectors images generate the lattice with basis B,
    proved in both directions: every image has integral coordinates over B
    (its numerators u * adj B are divisible by det B), and every basis vector
    is an image or the sum of two images."""
    inv = eliminate(basis)
    if not inv.det:
        raise ValueError("the basis is singular")
    for u in images:
        if any(n % inv.det for n in inv.numerators(u)):
            raise ValueError(f"integrality: image {u} is not an integral combination of the basis")
    found = set(images)
    for b in basis:
        if b not in found and not any(tuple(map(sub, b, u)) in found for u in found):
            raise ValueError(f"sums of images: basis vector {b} is neither an image nor the sum of two")


class ReducedLattice(IntLattice):
    """The m = 0 lattice with its stored certificates: the 120 images
    (doubled slots, like the basis), the inner-product census from one pair,
    whether no nonzero vector has norm <= 2 (rootless), and whether the scaled
    golden duals pair to the identity with the basis."""

    def __init__(
        self,
        rmap: ReductionMap,
        basis: tuple[IntVec, ...],
        gram: tuple[IntVec, ...],
        det: int,
        images: tuple[IntVec, ...],
        census: dict[int, int],
        rootless: bool,
        dual_basis_identity: bool,
    ) -> None:
        super().__init__(rmap, basis, gram, det)
        self.images = images
        self.census = census
        self.rootless = rootless
        self.dual_basis_identity = dual_basis_identity


@cache
def lattice_L() -> ReducedLattice:
    """m = 0 image of the 600-cell with the natural form, on doubled slots."""
    cell = the_600cell()
    gb = golden_basis()
    rmap = ReductionMap(0)

    images = tuple(rmap.split_vector(v.flat) for v in cell.vertices)
    basis_vecs = [rmap.split_vector(v.flat) for v in gb.basis]
    basis_vecs += [rmap.split_vector(v.scaled(PHI).flat) for v in gb.basis]
    gram = tuple(tuple(_quarter_form(b1, b2) for b2 in basis_vecs) for b1 in basis_vecs)
    det = eliminate(gram).det
    if det != 625:
        raise ValueError(f"m = 0 lattice Gram determinant {det} != 625")

    # the 8 chosen vectors generate exactly the lattice of all 120 images
    _same_lattice(images, basis_vecs)

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
    rootless = short_vectors(gram, 2) == {}

    # dual basis identity for (3 - phi) w_i / 5 and (-1 + 2 phi) w_i / 5: the
    # form of the unscaled (3 - phi) w_i and (-1 + 2 phi) w_i is 5 * delta
    duals = []
    for w in gb.dual:
        for mult in (GoldenInt(3, -1), GoldenInt(-1, 2)):  # 3 - phi, -1 + 2 phi
            duals.append(rmap.split_vector(w.scaled(mult).flat))
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
        == rmap.reduce(scale2 * GoldenInt(*flat_dot(_UNIT_FLATS[i], _UNIT_FLATS[j])))
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
        rmap = ReductionMap(-1, k)
        for name, flats in sources.items():
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
