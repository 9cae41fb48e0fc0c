"""Catalog of verification checks with exact expected values.

Each check compares a frozen expected structure against values computed by
the library; a check passes only on exact equality.  Check ids are grouped
as facts/fact1..fact10 plus per-topic groups (s2/, s4/, s5/, s6/, s7/).
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from collections import Counter, namedtuple
from collections.abc import Callable
from itertools import combinations
from operator import mul, neg

from . import embed, mod2, symmetry
from .golden import PHI
from .icosian import (
    ICOSIAN_ONE,
    element_order_index,
    flat_dot,
    generate_vertices,
    mult_table,
    scaled,
    vertex_index,
)
from .polytopes import closure, label_str, perm_parity, the_600cell
from .serialize import jsonable


# One check's outcome; status is "pass" or "fail".
CheckResult = namedtuple("CheckResult", "check_id status expected observed provenance elapsed_ms")


def _fact1():
    c = the_600cell()
    e, t, q = c.skeleton_counts()
    return {"vertices": c.n, "edges": e, "triangles": t, "tetra_cells": q}


def _fact2():
    c = the_600cell()
    each16 = all(
        sum(1 for big in c.cells24 if big.issuperset(small)) == 1 for small in c.cells16
    )
    each8 = all(
        sum(1 for big in c.cells24 if small <= big) == 1 for small in c.cells8
    )
    return {
        "cells24": len(c.cells24),
        "cells16": len(c.cells16),
        "cells8": len(c.cells8),
        "each_16cell_in_one_24cell": each16,
        "each_8cell_in_one_24cell": each8,
        "orthogonal_vertex_pairs": sum(m.bit_count() for m in c.pair_orth) // 2,
    }


def _fact3():
    grp = symmetry.generate_group()
    return {
        "full_order": len(grp.ops),
        "rotation_order": grp.rotation_count,
        "center_size": len(grp.center),
    }


def _fact4():
    grp = symmetry.generate_group()
    c = grp.cell
    v = c.index[ICOSIAN_ONE]
    cell_idx = c.array[0][0]
    stab_v = grp.stabilizer_of_vertex(v)
    stab_c = grp.stabilizer_of_cell(cell_idx)
    vperms = grp.pair_perms_of(stab_v)
    orbits_pairs = closure(vperms, range(60))
    pid = c.pair_of[v]
    keyed = {}
    for orb in orbits_pairs:
        cls = {c.pair_class[pid][q] for q in orb}
        if len(cls) != 1:
            raise ValueError(f"a stabilizer orbit on pairs mixes classes {sorted(cls)}")
        keyed.setdefault(cls.pop(), []).append(len(orb))
    cperms = grp.cell_perms_of(stab_c)
    orbits_cells = sorted(len(o) for o in closure(cperms, range(25)))
    cpair_perms = grp.pair_perms_of(stab_c)
    orbits_cpairs = sorted(len(o) for o in closure(cpair_perms, range(60)))
    return {
        "vertex_stabilizer": len(stab_v),
        "cell_stabilizer": len(stab_c),
        "vertex_orbits_on_pairs": {k: sorted(v) for k, v in keyed.items()},
        "cell_orbits_on_cells": orbits_cells,
        "cell_orbits_on_pairs": orbits_cpairs,
    }


def _fact5():
    c = the_600cell()
    found = c.find_all_partitions()
    degree = {m.bit_count() for m in c.disjointness_mask}
    meets = [m for s, t in combinations(c.cells24, 2) if (m := s & t)]
    hexagonal = len(meets) == 200 and all(
        len(m) == 3 and all(c.pair_class[p][q] == "1" for p, q in combinations(m, 2)) for m in meets
    )
    return {
        "partitions": len(found),
        "equal_to_rows_and_columns": set(found) == set(c.partitions),
        "disjointness_degree": sorted(degree),
        "nondisjoint_intersections_are_hexagons": hexagonal,
    }


def _fact6():
    grp = symmetry.generate_group()
    kernel = grp.ten_kernel
    kernel_is_pm1 = False
    if len(kernel) == 2:
        perms = {grp.ops[k].perm for k in kernel}
        ident = tuple(range(120))
        negation = tuple(grp.cell.neg)
        kernel_is_pm1 = perms == {ident, negation}
    rows, cols = 0b11111, 0b11111 << 5  # partitions 0..4 and 5..9 as masks
    block = tuple((rows, cols)[grp.triple(j)[2]] for j in range(len(grp.ops) // grp.cell.n))  # row l = 0
    pentads_ok = grp.row_images == block * grp.cell.n  # each row l lists the same pairs (r, e)
    return {
        "kernel_size": len(kernel),
        "kernel_is_plus_minus_identity": kernel_is_pm1,
        "image_order": len(grp.ops) // len(kernel),
        "rotations_preserve_pentads_odd_swap": pentads_ok,
    }


def _fact7():
    c = the_600cell()
    unit_pid = c.pair_of[c.index[ICOSIAN_ONE]]
    all_even = all(perm_parity([d[1] for d in lab]) == 0 for lab in c.labels)
    share3 = any(
        len(set(a) & set(b)) >= 3 for a, b in combinations(c.labels, 2)
    )
    return {
        "unit_label": label_str(c.labels[unit_pid]),
        "distinct_labels": len(set(c.labels)),
        "all_even_permutations": all_even,
        "no_two_labels_share_three_duads": not share3,
    }


def _fact8():
    verts = generate_vertices()
    table = mult_table()
    n = len(verts)
    latin = all(len(set(row)) == n for row in table) and all(
        len({table[i][j] for i in range(n)}) == n for j in range(n)
    )
    one = vertex_index()[ICOSIAN_ONE]
    has_inverses = all(any(table[i][j] == one for j in range(n)) for i in range(n))
    shapes = Counter()
    for f in verts:
        nz = sorted((abs(f[k]), abs(f[k + 1])) for k in (0, 2, 4, 6))
        if nz == [(0, 0), (0, 0), (0, 0), (2, 0)]:
            shapes["axis"] += 1
        elif nz == [(1, 0)] * 4:
            shapes["half_integer"] += 1
        else:
            shapes["golden"] += 1
    orders = Counter(element_order_index(i) for i in range(n))
    return {
        "icosians": n,
        "cayley_table_is_latin_square": latin,
        "has_identity_and_inverses": has_inverses,
        "shape_counts": [shapes["axis"], shapes["half_integer"], shapes["golden"]],
        "element_orders": dict(sorted(orders.items())),
    }


def _fact9():
    e8m = embed.certify_e8(-1)
    e8p = embed.certify_e8(1)
    orth = all(
        e8m.bform_int(e8m.h_img[i], e8m.phi_img[i]) == 0 for i in range(120)
    )
    return {
        "m_minus_1_certifies_E8": e8m.det == 1 and len(e8m.roots) == 240,
        "m_plus_1_certifies_E8": e8p.det == 1 and len(e8p.roots) == 240,
        "roots": len(e8m.roots),
        "counterparts_orthogonal": orth,
    }


def _fact10():
    geo = mod2.f4_geometry()
    kinds = Counter(tag[0] for tag in geo.tags)
    return {
        "points": len(geo.points),
        "vertex_points": kinds["vertex"],
        "cell_points": kinds["cell"],
    }


def _s2_labels120():
    c = the_600cell()
    d = c.cell120
    labs = d.pair_labels()
    example = ((3, 8), ((1, 6), (2, 7), (4, 10), (5, 9)))
    rows_cols_ok = all(
        d.is_600cell_image(verts)
        for k in range(5)
        for verts in (d.row_vertices(k), d.col_vertices(k))
    )
    return {
        "vertices": d.n,
        "cells": len(d.cells),
        "mutually_disjoint": len(frozenset().union(*d.cells)) == sum(map(len, d.cells)),
        "pair_labels_distinct": len(labs),
        "labels_odd_permutations": d.labels_odd_permutations,
        "example_label_present": example in labs,
        "rows_and_columns_are_600cells": rows_cols_ok,
    }


def _orthogonal_pairs_in_entries(array, shapes):
    """Whether every entry of a prime array holds exactly two of shapes (sets
    of pair ids), and they are orthogonal; and the set of those pairs."""
    entries_ok, seen = True, set()
    for i in range(array.size):
        for j in range(array.size):
            pids = array.entry_pairs(i, j)
            inside = [s for s in shapes if s <= pids]
            if len(inside) != 2 or not array.cell.pair_sets_orthogonal(*inside):
                entries_ok = False
            else:
                seen.add(frozenset(inside))
    return entries_ok, seen


def _s4_hexagons():
    c = the_600cell()
    entries_ok, seen_pairs = _orthogonal_pairs_in_entries(c.prime_array(3), c.hexagon_list)
    example = c.hexagons[
        frozenset(
            k for k in range(25) if c.duad_of_cell[k] in ((1, 6), (2, 7))
        )
    ]
    example_labels = sorted(label_str(c.labels[p]) for p in example)
    return {
        "hexagons": len(c.hexagon_list),
        "orthogonal_pairs": len(c.hexagon_orthogonal_pairs),
        "array_10x10_entries_are_orthogonal_hexagon_pairs": entries_ok,
        "array_covers_all_100_pairs": len(seen_pairs) == 100,
        "example_intersection_labels": example_labels,
    }


def _s4_decagons():
    c = the_600cell()
    entries_ok, seen = _orthogonal_pairs_in_entries(c.prime_array(5), c.decagons)
    edge_cover = len(c.decagon_of_edge) == 720
    return {
        "decagons": len(c.decagons),
        "orthogonal_pairs": len(seen),
        "array_6x6_entries_are_orthogonal_decagon_pairs": entries_ok,
        "every_edge_on_exactly_one_decagon": edge_cover,
    }


def _s4_pentagons():
    c = the_600cell()
    cover = all(
        {d for p in dec for d in c.labels[p]} == set(c.duad_of_cell)
        for dec in c.decagons
    )
    shifted = frozenset(
        c.pair_of_label[tuple((r, 6 + (r - 1 + k) % 5) for r in range(1, 6))]
        for k in range(5)
    )
    return {
        "every_pentagon_meets_all_25_cells_once": cover,
        "cyclic_shift_labels_form_a_decagon": shifted in set(c.decagons),
    }


def _s4_array_p2():
    c = the_600cell()
    p2 = c.prime_array(2)
    cells = {frozenset(p2.entry_pairs(i, j)) for i in range(5) for j in range(5)}
    rows = {
        frozenset().union(*(p2.entry_pairs(i, j) for j in range(5))) for i in range(5)
    }
    return {
        "entries_are_the_25_24cells": cells == {frozenset(x) for x in c.cells24},
        "rows_are_partitions": all(len(r) == 60 for r in rows),
    }


def _s5_spaces():
    geo = mod2.f4_geometry()
    return {
        "isotropic_4spaces": len(geo.isotropic4),
        "figure1_intersections": geo.figure1_check(),
    }


def _s5_pentads():
    geo = mod2.f4_geometry()
    res = geo.pentad_completions(geo.pentad_rows[0], geo.pentad_rows[1])
    cls = geo.orbit_class_analysis(res)
    return {
        "common_disjoint": res["common_disjoint"],
        "completion_sizes": res["completion_sizes"],
        "duad_graph_on_8_letters": res["duad_graph"],
        "two_135_classes_by_intersection_parity": cls["classes"]
        and cls["within_parity"]
        and cls["across_parity"],
        "nine_disjoint_cover_all_isotropic": cls["nine_disjoint_cover"],
        "each_other_space_meets_5_of_9": cls["allocation_5_of_9"],
        "tetrad_completion_five_disjoint": cls["tetrad_completion"],
    }


def _root_pair_sums(roots) -> set[int]:
    """Twice the inner product of each pair of distinct roots, for roots closed under
    negation, from one root of each +-pair: (u, v), (u, -v) give s, -s and (u, -u) -u.u."""
    half = {max(u, tuple(map(neg, u))) for u in roots}
    sums = {sum(map(mul, u, v)) for u, v in combinations(half, 2)}
    return sums | {-s for s in sums} | {-sum(map(mul, u, u)) for u in half}


def _s6_example1():
    e8 = embed.certify_e8(-1)
    e8p = embed.certify_e8(1)
    c = e8.cell
    conj_rel = True
    for f in c.vertices:
        lhs = e8p.rmap.split_vector(f)
        # the Galois conjugate (a, b) -> (a + b, -b) of each coordinate
        rhs = e8.rmap.split_vector(tuple(x for k in (0, 2, 4, 6) for x in (f[k] + f[k + 1], -f[k + 1])))
        flipped = tuple(
            x if k % 2 == 0 else -x for k, x in enumerate(rhs)
        )
        if lhs != flipped:
            conj_rel = False
            break
    root_sums = _root_pair_sums(e8.roots)
    if any(s % 2 for s in root_sums):
        raise ValueError("a root pair's inner product is not an integer")
    if {tuple(map(neg, u)) for u in e8.roots} != e8.roots:
        raise ValueError("the roots are not closed under negation")
    return {
        "both_embeddings_certify_E8": e8.det == 1 and e8p.det == 1,
        "m_plus_1_equals_conjugated_m_minus_1_up_to_slot_signs": conj_rel,
        "root_pair_inner_products": sorted(s // 2 for s in root_sums),
        "h_norms": sorted({e8.bform_int(u, u) for u in e8.h_img}),
        "phi_h_scaled_norm_6_plus_2sqrt5_reduces_to_4": all(
            flat_dot(w, w) == (4, 4) for w in (scaled(PHI, v) for v in c.vertices)
        ),
    }


def _s6_example2():
    lat = embed.lattice_L()
    gb = embed.golden_basis()
    return {
        "determinant": lat.det,
        "census_pairs": {str(k): v for k, v in sorted(lat.census.items())},
        "even": all(lat.gram[i][i] % 2 == 0 for i in range(8)),
        "rootless": lat.rootless,
        "golden_gram_det_is_unit": abs(gb.gram_det) == 1,
        "dual_basis_identity": lat.dual_basis_identity,
    }


def _s6_example3():
    classes = embed.decompose_norm4_shell()
    e8 = embed.certify_e8(-1)
    return {
        "norm4_shell": e8.shell_sizes[4],
        "class_sizes": sorted(len(c.vectors) for c in classes),
        "sources": sorted({c.source for c in classes}),
        "spectra_match": all(c.isometric for c in classes),
    }


def _s7_phi():
    geo = mod2.f4_geometry()
    t = geo.phi.table
    iso_sums = all(geo.q[c ^ t[c]] == 0 for c in geo.class_of_h)
    # phibar is not a B-isometry (it rescales by a unit), but it is
    # self-adjoint, which is what makes perps of phibar-closed spaces closed.
    self_adjoint = geo.self_adjoint(t)
    return {
        "phi_squared_is_phi_plus_one": geo.phi.squares_to_phi_plus_one,
        "phibar_cubed_is_identity": geo.phi.cube_is_identity,
        "root_plus_image_isotropic": iso_sums,
        "phibar_self_adjoint_for_B": self_adjoint,
    }


def _s7_points():
    geo = mod2.f4_geometry()
    comp_ok = True
    for k, p in enumerate(geo.points):
        kind, _ = geo.tags[k]
        qs = sorted(geo.q[x] for x in p)
        if kind == "vertex" and qs != [0, 1, 1]:
            comp_ok = False
        if kind == "cell" and qs != [0, 0, 0]:
            comp_ok = False
    return {
        "points": len(geo.points),
        "census": geo.census(),
        "vertex_points_two_nonisotropic_one_isotropic": comp_ok,
        "remaining_75_isotropic_in_25_2spaces": sum(
            1 for p in geo.points if not any(geo.q[x] for x in p)
        ),
    }


def _s7_lines():
    geo = mod2.f4_geometry()
    return {
        "census": dict(sorted(geo.line_census.items())),
        "certified": dict(sorted(geo.line_certificates().items())),
    }


def _s7_planes():
    geo = mod2.f4_geometry()
    return {
        "planes": len(geo.planes),
        "compositions_certified": dict(sorted(geo.plane_compositions().items())),
    }


def _s7_qomega():
    geo = mod2.f4_geometry()
    return geo.q_omega_checks()


def _s7_commuting():
    geo = mod2.f4_geometry()
    grp = symmetry.generate_group()
    return {
        "phi_commutes_with_symmetry_generators": all(
            geo.commutes_with_phi(g) for g in grp.generators
        ),
    }


CHECKS: dict[str, tuple[object, Callable[[], object]]] = {
    # id: (expected, function); every expected value is the paper's, so each
    # result's provenance is "paper"
    "facts/fact1": (
        {"vertices": 120, "edges": 720, "triangles": 1200, "tetra_cells": 600},
        _fact1,
    ),
    "facts/fact2": (
        {
            "cells24": 25,
            "cells16": 75,
            "cells8": 75,
            "each_16cell_in_one_24cell": True,
            "each_8cell_in_one_24cell": True,
            "orthogonal_vertex_pairs": 450,
        },
        _fact2,
    ),
    "facts/fact3": (
        {"full_order": 14400, "rotation_order": 7200, "center_size": 2},
        _fact3,
    ),
    "facts/fact4": (
        {
            "vertex_stabilizer": 120,
            "cell_stabilizer": 576,
            "vertex_orbits_on_pairs": {
                "2": [1], "0": [15], "1": [20], "phi": [12], "phi-inv": [12],
            },
            "cell_orbits_on_cells": [1, 8, 16],
            "cell_orbits_on_pairs": [12, 48],
        },
        _fact4,
    ),
    "facts/fact5": (
        {
            "partitions": 10,
            "equal_to_rows_and_columns": True,
            "disjointness_degree": [8],
            "nondisjoint_intersections_are_hexagons": True,
        },
        _fact5,
    ),
    "facts/fact6": (
        {
            "kernel_size": 2,
            "kernel_is_plus_minus_identity": True,
            "image_order": 7200,
            "rotations_preserve_pentads_odd_swap": True,
        },
        _fact6,
    ),
    "facts/fact7": (
        {
            "unit_label": "(16)(27)(38)(49)(5X)",
            "distinct_labels": 60,
            "all_even_permutations": True,
            "no_two_labels_share_three_duads": True,
        },
        _fact7,
    ),
    "facts/fact8": (
        {
            "icosians": 120,
            "cayley_table_is_latin_square": True,
            "has_identity_and_inverses": True,
            "shape_counts": [8, 16, 96],
            "element_orders": {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24},
        },
        _fact8,
    ),
    "facts/fact9": (
        {
            "m_minus_1_certifies_E8": True,
            "m_plus_1_certifies_E8": True,
            "roots": 240,
            "counterparts_orthogonal": True,
        },
        _fact9,
    ),
    "facts/fact10": (
        {"points": 85, "vertex_points": 60, "cell_points": 25},
        _fact10,
    ),
    "s2/labels120": (
        {
            "vertices": 600,
            "cells": 25,
            "mutually_disjoint": True,
            "pair_labels_distinct": 300,
            "labels_odd_permutations": True,
            "example_label_present": True,
            "rows_and_columns_are_600cells": True,
        },
        _s2_labels120,
    ),
    "s4/hexagons": (
        {
            "hexagons": 200,
            "orthogonal_pairs": 100,
            "array_10x10_entries_are_orthogonal_hexagon_pairs": True,
            "array_covers_all_100_pairs": True,
            "example_intersection_labels": [
                "(16)(27)(38)(49)(5X)",
                "(16)(27)(39)(4X)(58)",
                "(16)(27)(3X)(48)(59)",
            ],
        },
        _s4_hexagons,
    ),
    "s4/decagons": (
        {
            "decagons": 72,
            "orthogonal_pairs": 36,
            "array_6x6_entries_are_orthogonal_decagon_pairs": True,
            "every_edge_on_exactly_one_decagon": True,
        },
        _s4_decagons,
    ),
    "s4/pentagons": (
        {
            "every_pentagon_meets_all_25_cells_once": True,
            "cyclic_shift_labels_form_a_decagon": True,
        },
        _s4_pentagons,
    ),
    "s4/array-p2": (
        {"entries_are_the_25_24cells": True, "rows_are_partitions": True},
        _s4_array_p2,
    ),
    "s5/spaces": (
        {"isotropic_4spaces": 270, "figure1_intersections": True},
        _s5_spaces,
    ),
    "s5/pentads": (
        {
            "common_disjoint": 28,
            "completion_sizes": [5, 9],
            "duad_graph_on_8_letters": True,
            "two_135_classes_by_intersection_parity": True,
            "nine_disjoint_cover_all_isotropic": True,
            "each_other_space_meets_5_of_9": True,
            "tetrad_completion_five_disjoint": True,
        },
        _s5_pentads,
    ),
    "s6/example1": (
        {
            "both_embeddings_certify_E8": True,
            "m_plus_1_equals_conjugated_m_minus_1_up_to_slot_signs": True,
            "root_pair_inner_products": [-2, -1, 0, 1],
            "h_norms": [2],
            "phi_h_scaled_norm_6_plus_2sqrt5_reduces_to_4": True,
        },
        _s6_example1,
    ),
    "s6/example2": (
        {
            "determinant": 625,
            "census_pairs": {"0": 15, "1": 24, "2": 20, "4": 1},
            "even": True,
            "rootless": True,
            "golden_gram_det_is_unit": True,
            "dual_basis_identity": True,
        },
        _s6_example2,
    ),
    "s6/example3": (
        {
            "norm4_shell": 2160,
            "class_sizes": [120, 120, 600, 600, 720],
            "sources": ["120cell", "600cell", "rectified"],
            "spectra_match": True,
        },
        _s6_example3,
    ),
    "s7/phi": (
        {
            "phi_squared_is_phi_plus_one": True,
            "phibar_cubed_is_identity": True,
            "root_plus_image_isotropic": True,
            "phibar_self_adjoint_for_B": True,
        },
        _s7_phi,
    ),
    "s7/points": (
        {
            "points": 85,
            "census": {"zero": 1, "isotropic": 135, "non_isotropic": 120},
            "vertex_points_two_nonisotropic_one_isotropic": True,
            "remaining_75_isotropic_in_25_2spaces": 25,
        },
        _s7_points,
    ),
    "s7/lines": (
        {
            "census": {"cell16": 75, "partition": 10, "pentagon": 72, "triangle": 200},
            "certified": {"cell16": 75, "partition": 10, "pentagon": 72, "triangle": 200},
        },
        _s7_lines,
    ),
    "s7/planes": (
        {"planes": 85, "compositions_certified": {"cell": 25, "vertex": 60}},
        _s7_planes,
    ),
    "s7/qomega": (
        {"values": True, "trace": True, "scaling": True, "biadditive": True},
        _s7_qomega,
    ),
    "s7/commuting": (
        {"phi_commutes_with_symmetry_generators": True},
        _s7_commuting,
    ),
}

# Dependency order: polytopes before symmetry before embed before mod2, except
# that s7/commuting (the group and the F4 geometry) ends the polytope and group
# half.  `run_checks` runs BEFORE_FORK, which build the 600-cell tables both
# halves read, then forks one worker for IN_WORKER, the lattice and F4 half.
CHECK_ORDER = [
    "facts/fact1", "facts/fact2", "facts/fact5", "facts/fact7", "facts/fact8",
    "s2/labels120", "s4/hexagons", "s4/decagons", "s4/pentagons", "s4/array-p2",
    "facts/fact3", "facts/fact4", "facts/fact6", "s7/commuting",
    "facts/fact9", "s6/example1", "s6/example2", "s6/example3",
    "facts/fact10", "s7/phi", "s7/points", "s7/lines", "s7/planes",
    "s7/qomega", "s5/spaces", "s5/pentads",
]
BEFORE_FORK, IN_WORKER = CHECK_ORDER[:2], CHECK_ORDER[14:]


def run_check(check_id: str) -> CheckResult:
    expected, fn = CHECKS[check_id]
    t0 = time.perf_counter()
    try:
        observed = fn()
        ok = jsonable(expected) == jsonable(observed)
    except Exception as exc:  # a certificate failed, a builder broke or a value cannot be encoded
        observed = {"error": f"{type(exc).__name__}: {exc}"}
        ok = False
    elapsed = int((time.perf_counter() - t0) * 1000)
    return CheckResult(
        check_id=check_id,
        status="pass" if ok else "fail",
        expected=expected,
        observed=observed,
        provenance="paper",
        elapsed_ms=elapsed,
    )


def run_checks(ids) -> list[CheckResult]:
    """`run_check` of each id, in the order given.  With ids in both halves,
    one forked worker runs the IN_WORKER ones and sends back each result's
    status, encoded observed value and elapsed_ms.  The run stays serial
    within one half, without `os.fork`, or beside other threads, which a
    fork would not copy."""
    theirs = [c for c in ids if c in IN_WORKER]
    mine = [c for c in ids if c not in IN_WORKER and c not in BEFORE_FORK]
    if len(theirs) in (0, len(ids)) or not hasattr(os, "fork") or threading.active_count() > 1:
        return [run_check(c) for c in ids]
    results = [run_check(c) for c in ids if c in BEFORE_FORK]
    gc.freeze()  # no collection, here or in the worker, then scans (or copies) what they share
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker leaves by _exit, so it never flushes the inherited stdio
        code = 1
        try:
            os.close(r)
            with open(w, "w") as out:
                rows = [(x.check_id, x.status, jsonable(x.observed), x.elapsed_ms) for x in map(run_check, theirs)]
                json.dump(rows, out)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with open(r) as pipe:
            results += map(run_check, mine)
            sent = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    lost = {"error": f"worker exited with status {code}"}
    rows = json.loads(sent) if code == 0 else [(c, "fail", lost, 0) for c in theirs]
    results += (CheckResult(c, status, CHECKS[c][0], obs, "paper", ms) for c, status, obs, ms in rows)
    return sorted(results, key=lambda x: ids.index(x.check_id))
