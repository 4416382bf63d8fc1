"""Tests of the benchmark's own checkers and input generators.

    python3 -m pytest perfbench/test_checks.py -q

Each checker must accept a correct output and reject a wrong one.
"""

import random
import sys
from pathlib import Path

import pytest

import checks
import inputs

PATH6 = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]


def test_route_accepts_a_valid_forest_route():
    # delete 12 and 56, add 15 and 26: the path 1-5-4-3-2-6
    target = [(1, 5), (2, 3), (3, 4), (4, 5), (2, 6)]
    checks.check_route(6, PATH6, target, [(1, 2, 5, 6)])


@pytest.mark.parametrize(
    "step",
    [
        (1, 3, 4, 5),  # deletes the absent edge 13
        (1, 2, 2, 3),  # repeats a vertex
        (3, 4, 2, 1),  # adds the present edge 23
    ],
)
def test_route_rejects_a_trivial_step(step):
    with pytest.raises(checks.CheckError):
        checks.check_route(6, PATH6, PATH6, [step])


def test_route_rejects_a_cyclic_intermediate():
    # delete 21 and 45, add 24 and 15: closes the cycle 2-3-4-2
    end = [(2, 3), (3, 4), (5, 6), (2, 4), (1, 5)]
    with pytest.raises(checks.CheckError, match="leaves the forest family"):
        checks.check_route(6, PATH6, end, [(2, 1, 4, 5)])


def test_route_rejects_a_wrong_final_graph():
    wrong = [(1, 5), (2, 3), (3, 4), (4, 5), (1, 6)]
    with pytest.raises(checks.CheckError, match="off its target"):
        checks.check_route(6, PATH6, wrong, [(1, 2, 5, 6)])


def test_route_checks_other_families():
    square = [(1, 2), (2, 3), (3, 4), (1, 4)]
    # delete 12 and 34, add 13 and 24: the square 1-3-2-4
    for family in ("unicyclic", "bipartite"):
        checks.check_route(4, square, [(1, 3), (2, 3), (2, 4), (1, 4)], [(1, 2, 3, 4)], family)
    hexagon = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
    # delete 12 and 54, add 15 and 24: triangles 2-3-4 and 1-5-6
    two_triangles = [(1, 5), (2, 4), (2, 3), (3, 4), (5, 6), (1, 6)]
    checks.check_route(6, hexagon, two_triangles, [(1, 2, 5, 4)], "all")
    for family in ("bipartite", "unicyclic"):
        with pytest.raises(checks.CheckError, match="leaves"):
            checks.check_route(6, hexagon, two_triangles, [(1, 2, 5, 4)], family)


def _random_graph(rng, n, p=0.5):
    return [(u, v) for u in range(1, n) for v in range(u + 1, n + 1) if rng.random() < p]


@pytest.mark.parametrize("kind", sorted(checks.BRUTE_FORCE))
def test_parameter_off_by_one_is_rejected(kind):
    rng = random.Random(kind)
    edges = inputs.gnm_no_isolated(rng, 6, 8)
    value = checks.BRUTE_FORCE[kind](6, edges)
    checks.check_parameter(kind, 6, edges, value)
    for wrong in (value - 1, value + 1):
        with pytest.raises(checks.CheckError):
            checks.check_parameter(kind, 6, edges, wrong)


def test_brute_force_on_known_graphs():
    c5 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    got = {k: f(5, c5) for k, f in checks.BRUTE_FORCE.items()}
    assert got == {
        "chromatic": 3,
        "clique": 2,
        "components": 1,
        "domination": 2,
        "edge_cover": 3,
        "independence": 2,
        "matching": 2,
        "path_cover": 1,
        "vertex_cover": 3,
    }
    assert checks.edge_cover(3, [(1, 2)]) is None
    assert checks.path_cover(4, [(1, 2), (3, 4)]) == 2


def test_large_param_identities_reject_an_off_by_one():
    rng = random.Random(7)
    n = 7
    edges = inputs.gnm_no_isolated(rng, n, 10)
    values = {k: f(n, edges) for k, f in checks.BRUTE_FORCE.items()}
    others = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1) if (u, v) not in set(edges)]
    alpha_bar = checks.independence(n, others)
    checks.check_large_params(n, edges, values, alpha_bar)
    for kind in ("independence", "vertex_cover", "matching", "edge_cover", "clique", "components"):
        bad = dict(values)
        bad[kind] += 1
        with pytest.raises(checks.CheckError):
            checks.check_large_params(n, edges, bad, alpha_bar)


def test_family_checker_rejects_a_wrong_count_and_duplicates():
    seq = (2, 2, 1, 1)
    trees = [[(1, 3), (1, 2), (2, 4)], [(1, 4), (1, 2), (2, 3)]]
    assert checks.tree_count(seq) == 2
    checks.check_family(seq, "tree", trees, checks.tree_count(seq))
    with pytest.raises(checks.CheckError, match="members"):
        checks.check_family(seq, "tree", trees, checks.tree_count(seq) + 1)
    with pytest.raises(checks.CheckError, match="twice"):
        checks.check_family(seq, "tree", trees + trees[:1])
    with pytest.raises(checks.CheckError, match="degrees"):
        checks.check_family((2, 1, 2, 1), "tree", trees)


def test_counts_match_known_sequences():
    assert [checks.labelled_forests(n) for n in range(1, 8)] == [1, 2, 7, 38, 291, 2932, 36961]
    assert checks.tree_count((3, 3, 2, 2, 2, 1, 1, 1, 1)) == 1260
    assert checks.switch_incidences(4) == 24
    assert checks.edge_moves(3) == 12
    with pytest.raises(checks.CheckError):
        checks.check_interval((1, 2, 4))
    checks.check_interval((3, 4, 5))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_forest_pairs_share_their_degree_vector(k):
    rng = random.Random(k)
    for _ in range(20):
        a, b = inputs.forest_pair(rng, 40, k)
        assert checks.degrees(40, a) == checks.degrees(40, b)
        assert checks.is_forest(40, a) and checks.is_forest(40, b)
        assert checks.components(40, a) == checks.components(40, b) == k
        assert len(set(a) & set(b)) < len(a) // 2


def test_generators_repeat_for_a_seed():
    assert inputs.forest_pair(random.Random(3), 30, 2) == inputs.forest_pair(random.Random(3), 30, 2)
    edges = inputs.gnm_no_isolated(random.Random(3), 12, 20)
    assert len(edges) == 20 and all(checks.degrees(12, edges))
    perm = inputs.permutation(random.Random(3), 6)
    moved = inputs.relabel(PATH6, perm)
    assert sorted(checks.degrees(6, moved)) == sorted(checks.degrees(6, PATH6))


def test_brute_force_agrees_with_the_package():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    twoswitch = pytest.importorskip("twoswitch")
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 7)
        edges = _random_graph(rng, n)
        g = twoswitch.Graph(n, edges)
        for kind, brute in checks.BRUTE_FORCE.items():
            expected = brute(n, edges)
            if expected is None:
                continue
            assert twoswitch.compute(kind, g) == expected, (kind, n, edges)
