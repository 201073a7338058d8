import itertools
import random

import pytest

from builders import hub_violation, necklace, single_bead
from oracles import (
    identity_assignment,
    orbit_sizes,
    permutation_order,
    sheets_transitive,
    triangle_net_voltage,
)

from planecover.covers import (
    CoverError,
    SemiCover,
    VoltageAssignment,
    conjugacy_representatives,
    derive,
    is_connected_cover,
    join_sheets,
    label_projection,
    lift_subgraph,
    normalized_assignment,
    verify_cover,
    verify_semicover,
)
from planecover.embedding import PlaneEmbedding, is_planar
from planecover.graphs import (
    LabeledGraph,
    canonical_form,
    connected_components,
    find_cycles_covering,
    is_connected,
    make_base,
)

K4 = make_base("k4")
K1222 = make_base("k1222")


def test_identity_cover_fold_one():
    g = K1222.graph
    verdict = verify_cover(g, K1222, range(7))
    assert verdict.ok and verdict.fold == 1


def test_cube_double_cover_verifies():
    cube, vmap = derive(normalized_assignment(K4, 2, [(1, 0)] * 3))
    verdict = verify_cover(cube, K4, vmap)
    assert verdict.ok and verdict.fold == 2


def test_collapsing_map_violation():
    g = K1222.graph
    # map two adjacent vertices onto one base vertex
    vmap = [0, 1, 2, 3, 4, 5, 5]
    with pytest.raises(CoverError):
        verify_cover(g, K1222, vmap)  # not onto
    # a genuine local failure: identity cover with one swapped image
    bad = [0, 2, 1, 3, 4, 5, 6]
    verdict = verify_cover(g, K1222, bad)
    assert not verdict.ok
    assert verdict.violation is not None


def test_semicover_of_genuine_cover_any_outer():
    sc = necklace(4)
    emb = sc.embedding
    for fid in range(len(emb.faces)):
        sc2 = SemiCover(PlaneEmbedding(emb.graph, emb.rotation, fid), sc.base)
        assert verify_semicover(sc2).ok


def test_single_bead_semicover():
    sc = single_bead()
    assert sc.embedding.outer.vertex_set == frozenset(range(4))
    assert verify_semicover(sc).ok


def test_boundary_is_the_only_difference_between_the_checks():
    # the single bead is a semi-cover; under the same projection it is not
    # a cover, and the check fails at a vertex of its outer face
    sc = single_bead()
    assert verify_semicover(sc).ok
    verdict = verify_cover(sc.graph, sc.base, sc.projection)
    assert not verdict.ok
    assert verdict.violation.vertex in sc.embedding.outer.vertex_set


def test_interior_duplicate_label_violation():
    sc = hub_violation()
    verdict = verify_semicover(sc)
    assert not verdict.ok
    assert verdict.violation.vertex == 0


def test_derive_identity_two_components():
    g, vmap = derive(identity_assignment(K4, 2))
    assert len(connected_components(g)) == 2
    verdict = verify_cover(g, K4, vmap)
    assert verdict.ok and verdict.fold is None
    assert verdict.per_component_folds == (1, 1)


def test_derive_nontrivial_connected_planar():
    g, _ = derive(normalized_assignment(K4, 2, [(1, 0)] * 3))
    assert is_connected(g)
    assert is_planar(g)


def test_derive_round_trip_all_n2():
    perms = list(itertools.permutations(range(2)))
    for volt in itertools.product(perms, repeat=3):
        va = normalized_assignment(K4, 2, volt)
        g, vmap = derive(va)
        verdict = verify_cover(g, K4, vmap)
        assert verdict.ok
        if is_connected(g):
            assert verdict.fold == 2


def test_is_connected_cover_examples():
    assert not is_connected_cover(identity_assignment(K4, 2))
    va = normalized_assignment(K4, 2, [(1, 0), (0, 1), (0, 1)])
    assert is_connected_cover(va)


def test_is_connected_cover_matches_components():
    # the apex triangles are K4's fundamental cycles at the apex, so on any
    # assignment their net voltages act transitively iff the lift is connected
    apex_triangles = [t for t in K4.triangles if 0 in t]
    assert len(apex_triangles) == 3
    rng = random.Random(2)
    for n in (2, 3, 4):
        perms = list(itertools.permutations(range(n)))
        for _ in range(400):
            volt = tuple(rng.choice(perms) for _ in range(6))
            va = VoltageAssignment(K4, n, volt)
            nets = [triangle_net_voltage(va, t) for t in apex_triangles]
            connected = is_connected(derive(va)[0])
            assert is_connected_cover(va) == connected == sheets_transitive(nets, n)
    # the scan's call form: the cotree voltages of a normalized assignment
    for n in (1, 2, 3):
        perms = list(itertools.permutations(range(n)))
        for volt in itertools.product(perms, repeat=len(K4.cotree_edges)):
            g, _ = derive(normalized_assignment(K4, n, volt))
            assert sheets_transitive(volt, n) == is_connected(g)


def test_join_sheets_folds_to_the_apex_components():
    # the scan joins the cotree voltages one level at a time; in any order
    # the join leaves the sheet orbits, which are the sheets' apex vertices
    # grouped by the derived graph's components
    rng = random.Random(20)
    verdicts = set()
    for base in (K4, K1222):
        for n in range(1, 6):
            perms = list(itertools.permutations(range(n)))
            for _ in range(40):
                volt = [rng.choice(perms) for _ in base.cotree_edges]
                g, _ = derive(normalized_assignment(base, n, volt))
                want = [0] * n
                for comp in connected_components(g):
                    mask = sum(1 << v for v in comp if v < n)  # apex (0, i) has id i
                    for i in range(n):
                        if mask >> i & 1:
                            want[i] = mask
                orbits = tuple(1 << i for i in range(n))
                for p in rng.sample(volt, len(volt)):
                    orbits = join_sheets(orbits, p)
                assert orbits == tuple(want), volt
                transitive = orbits[0] == (1 << n) - 1
                assert transitive == sheets_transitive(volt, n) == is_connected(g)
                verdicts.add(transitive)
    assert verdicts == {True, False}


def test_lift_whole_base():
    cube, vmap = derive(normalized_assignment(K4, 2, [(1, 0)] * 3))
    lifted, _ = lift_subgraph(cube, K4, vmap, (0, -1, -2, -3))
    assert canonical_form(lifted) == canonical_form(cube)


def test_lift_k4_part_of_k1222_cover():
    perms = [(1, 0)] * 12
    va = normalized_assignment(K1222, 2, perms)
    g, vmap = derive(va)
    lifted, _ = lift_subgraph(g, K1222, vmap, (0, -1, -2, -3))
    for comp in connected_components(lifted):
        sub, _ = lifted.induced_subgraph(comp)
        verdict = verify_cover(sub, K4, label_projection(sub, K4))
        assert verdict.ok


def test_lift_triangle_identity_net():
    va = normalized_assignment(K4, 3, [(0, 1, 2)] * 3)
    g, vmap = derive(va)
    lifted, _ = lift_subgraph(g, K4, vmap, (0, -1, -2))
    comps = connected_components(lifted)
    # net voltage of (0,-1,-2) is the identity: three disjoint triangles
    net = triangle_net_voltage(va, (0, -1, -2))
    assert net == (0, 1, 2)
    assert len(comps) == 3
    assert all(len(c) == 3 for c in comps)


def test_lift_rejects_outside_subgraph():
    g, vmap = derive(identity_assignment(K4, 1))
    with pytest.raises(CoverError):
        lift_subgraph(g, K4, vmap, (0, -1, 1))


def test_lift_cycle_lengths_match_net_voltage_orbits():
    # each lift component wraps around one orbit of the net voltage, so
    # its length is the base length times that orbit's size; for a cyclic
    # orbit this is the base length times the net voltage order
    for n in (2, 3, 4):
        perms = list(itertools.permutations(range(n)))
        for volt in itertools.product(perms, repeat=3):
            va = normalized_assignment(K4, n, volt)
            g, _ = derive(va)
            for t in K4.triangles:
                net = triangle_net_voltage(va, t)
                comps = find_cycles_covering(g, t, K4)
                assert all(c.kind == "cycle" for c in comps)
                lengths = sorted(c.length for c in comps)
                assert lengths == [3 * k for k in orbit_sizes(net)]
                assert sum(lengths) == 3 * n
                order = permutation_order(net)
                assert all(length % 3 == 0 and (length // 3) <= order for length in lengths)


def test_conjugacy_representatives():
    assert len(conjugacy_representatives(1)) == 1
    assert len(conjugacy_representatives(2)) == 2
    assert len(conjugacy_representatives(3)) == 3
    assert len(conjugacy_representatives(4)) == 5
    assert len(conjugacy_representatives(5)) == 7
    for rep in conjugacy_representatives(4):
        assert sorted(rep) == [0, 1, 2, 3]


def test_collapsing_adjacent_vertices_violation():
    # remap one vertex of the cube cover onto its neighbor's base vertex;
    # the map stays onto but local bijectivity breaks at a witness vertex
    cube, vmap = derive(normalized_assignment(K4, 2, [(1, 0)] * 3))
    vmap = list(vmap)
    vmap[2] = 0  # a fiber-of-(-1) vertex collapsed onto the 0 fiber
    verdict = verify_cover(cube, K4, vmap)
    assert not verdict.ok
    assert verdict.violation is not None
    assert 0 <= verdict.violation.vertex < cube.n
