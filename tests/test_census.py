"""The vectorized mask tables against the per-graph implementations."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from oracles import (
    census_chromatic_table,
    census_domination_table,
    census_doubling_tables,
    census_path_cover_table,
)

from twoswitch.census import CENSUS_MAX, Census, _partitions, census
from twoswitch.graphs import CapExceededError, Graph, GraphError, degree_sequence, is_forest
from twoswitch.parameters import compute

KINDS = (
    "matching",
    "independence",
    "clique",
    "vertex_cover",
    "domination",
    "components",
    "chromatic",
    "path_cover",
    "edge_cover",
)


def _packed(seq) -> int:
    """A degree vector at 3 bits per vertex, as ``degree_vectors`` holds it."""
    return sum(d << (3 * v) for v, d in enumerate(seq))


def _check_mask(cen: Census, mask: int):
    g = cen.graph(mask)
    for kind in KINDS:
        table = int(cen.tables[kind][mask])
        if kind == "edge_cover" and any(g.degree(v) == 0 for v in g.vertices()):
            assert table == 99  # sentinel, the per-graph route raises instead
            continue
        assert table == compute(kind, g), (kind, mask)
    assert bool(cen.forest[mask]) == is_forest(g)
    assert cen.degree_vectors[cen.degree_id[mask]] == _packed(degree_sequence(g))
    assert cen.mask_of(g) == mask


class TestGeometry:
    def test_bounds(self):
        with pytest.raises(GraphError):
            Census(-1)
        with pytest.raises(CapExceededError, match=f"orders 0..{CENSUS_MAX}, got 8"):
            Census(CENSUS_MAX + 1)
        with pytest.raises(CapExceededError):
            census(np.int64(CENSUS_MAX + 1))

    def test_order_zero_and_one(self):
        for n in (0, 1):
            cen = census(n)
            assert cen.n_masks == 1
            assert cen.graph(0) == Graph(n)
            assert bool(cen.forest[0])

    @pytest.mark.parametrize("n", [True, 3.0, "3"])
    def test_non_integer_orders_are_rejected(self, n):
        with pytest.raises(GraphError, match="order must be an integer"):
            Census(n)
        with pytest.raises(GraphError, match="order must be an integer"):
            census(n)

    def test_numpy_integer_order(self):
        cen = Census(np.int64(3))
        assert type(cen.n) is int and cen.n == 3

    def test_mask_graph_round_trip(self):
        cen = census(5)
        for mask in range(cen.n_masks):
            assert cen.mask_of(cen.graph(mask)) == mask

    @pytest.mark.parametrize("mask", [-1, 8, 9, True])
    def test_graph_rejects_masks_outside_the_order(self, mask):
        # order 3 has masks 0..7; the bits of 8 and 9 name no edge slot
        with pytest.raises(GraphError, match="mask"):
            census(3).graph(mask)

    def test_graph_takes_numpy_integer_masks(self):
        cen = census(3)
        for mask in range(cen.n_masks):
            assert cen.graph(np.int64(mask)) == cen.graph(np.uint8(mask)) == cen.graph(mask)

    def test_mask_of_rejects_wrong_order(self):
        with pytest.raises(GraphError):
            census(4).mask_of(Graph(5))

    def test_factory_caches(self):
        assert census(3) is census(3)
        assert census(np.int64(7)) is census(7)
        assert census(np.uint8(3)) is census(3)


class TestCounts:
    # labeled forests: 1, 1, 2, 7, 38, 291, 2932; labeled trees: n^(n-2)
    @pytest.mark.parametrize(
        "n,forests", [(0, 1), (1, 1), (2, 2), (3, 7), (4, 38), (5, 291), (6, 2932)]
    )
    def test_forest_counts(self, n, forests):
        assert int(census(n).forest.sum()) == forests

    @pytest.mark.parametrize("n,trees", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
    def test_tree_counts(self, n, trees):
        cen = census(n)
        spanning = cen.forest & (cen.popcount == n - 1)
        assert int(spanning.sum()) == trees

    def test_edge_cover_sentinel_matches_isolated_vertices(self):
        cen = census(5)
        eps = cen.tables["edge_cover"]
        masks = np.arange(cen.n_masks)
        for v in range(5):
            covered = (masks & cen.star[v]) != 0
            # a graph misses vertex v exactly when v's star is empty
            assert np.all((eps[~covered] == 99))
        no_isolated = np.ones(cen.n_masks, dtype=bool)
        for v in range(5):
            no_isolated &= (masks & cen.star[v]) != 0
        assert np.all(eps[no_isolated] < 99)


class TestTablesAgainstPerGraph:
    @pytest.mark.parametrize("n", range(5))
    def test_exhaustive_small(self, n):
        cen = census(n)
        for mask in range(cen.n_masks):
            _check_mask(cen, mask)

    def test_exhaustive_order_five(self):
        cen = census(5)
        for mask in range(cen.n_masks):
            _check_mask(cen, mask)

    def test_sampled_order_six(self):
        cen = census(6)
        for mask in range(0, cen.n_masks, 29):
            _check_mask(cen, mask)

    def test_sampled_order_seven(self):
        cen = census(7)
        for mask in range(0, cen.n_masks, 4001):
            _check_mask(cen, mask)


class TestTableDigest:
    """Orders 6 and 7 are only sampled above, so every byte of every table
    is pinned: each table with its dtype, then the packed degree vector of
    every mask (``degree_vectors[degree_id]``, int64, hashed under the name
    ``degree_key`` so that the digest holds) and ``forest``, for n = 0..7."""

    DIGEST = "9dc68498fef6d9137d5af3432ab02a0a5622d61fc7ea6d2511d1a35e410d0de9"

    def test_every_table_to_the_cap(self):
        h = hashlib.sha256()
        for n in range(CENSUS_MAX + 1):
            cen = census(n)
            named = [(kind, cen.tables[kind]) for kind in KINDS]
            named += [
                ("degree_key", cen.degree_vectors[cen.degree_id]),
                ("forest", cen.forest),
            ]
            for name, table in named:
                h.update(f"{n}:{name}:{table.dtype.str}:".encode())
                h.update(table.tobytes())
        assert h.hexdigest() == self.DIGEST


class TestDegreeIds:
    @pytest.mark.parametrize("n", range(CENSUS_MAX + 1))
    def test_ids_index_the_sorted_vectors(self, n):
        # every mask to order 5, a sample at orders 6 and 7
        cen = census(n)
        assert cen.degree_id.dtype == np.int32
        assert np.all(np.diff(cen.degree_vectors) > 0)
        assert np.all(np.bincount(cen.degree_id) > 0)  # every id is used
        masks = range(cen.n_masks) if n <= 5 else range(0, cen.n_masks, 997)
        for mask in masks:
            want = _packed(degree_sequence(cen.graph(mask)))
            assert cen.degree_vectors[cen.degree_id[mask]] == want, mask

    def test_build_phase_is_timed(self):
        # one phase per built table; the other three are read off these
        built = {"components", "matching", "clique", "domination", "path_cover"}
        shared = {"submask_max"}  # the one maximum over submasks of all five marks
        assert built | {"chromatic", "degree_ids"} | shared <= set(census(3).build_s)


class TestPathCoverReference:
    """The census reads path cover off the largest linear forest inside each
    mask and ``compute`` runs a subset recurrence on each non-forest; the
    rows above compare the two on every mask to order 5 and on samples at
    orders 6 and 7.  The traceable-set partition DP in the oracles is a
    third route, compared on every mask."""

    @pytest.mark.parametrize("n", range(CENSUS_MAX + 1))
    def test_every_mask(self, n):
        table = census(n).tables["path_cover"]
        assert table.dtype == np.uint8
        assert np.array_equal(table, census_path_cover_table(n))


class TestChromaticReference:
    """The census reads chromatic off the largest cluster graph inside the
    complement and the per-graph rows above are sampled at orders 6 and 7;
    the subset-partition DP in the oracles is an independent route,
    compared on every mask."""

    @pytest.mark.parametrize("n", range(CENSUS_MAX))
    def test_every_mask(self, n):
        table = census(n).tables["chromatic"]
        assert table.dtype == np.uint8
        assert np.array_equal(table, census_chromatic_table(n))


class TestEarlierBuilders:
    """The census's earlier builders, kept in the oracles: edge-slot
    doubling for matching, independence and chromatic, and the size-ordered
    domination sweep, compared on every mask to the cap."""

    @pytest.mark.parametrize("n", range(CENSUS_MAX + 1))
    def test_doubling(self, n):
        cen = census(n)
        for kind, table in zip(
            ("matching", "independence", "chromatic"), census_doubling_tables(n)
        ):
            assert np.array_equal(cen.tables[kind], table), kind

    @pytest.mark.parametrize("n", range(CENSUS_MAX + 1))
    def test_domination(self, n):
        table = census_domination_table(n)
        assert np.array_equal(census(n).tables["domination"], table)


class TestLargestInside:
    # Bell numbers: the set partitions of n labelled vertices
    @pytest.mark.parametrize(
        "n,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877)]
    )
    def test_partitions(self, n, bell):
        everything = (1 << n) - 1
        seen = set()
        for blocks in _partitions(everything):
            union = 0
            for block in blocks:
                assert block and not block & union  # non-empty and disjoint
                union |= block
            assert union == everything
            seen.add(frozenset(blocks))
        assert len(seen) == bell

    def test_submask_max_matches_brute_force(self):
        cen = census(4)
        rng = np.random.default_rng(4)
        marks = rng.integers(0, 256, cen.n_masks, dtype=np.uint8)
        want = [
            max(int(marks[s]) for s in range(m + 1) if s & m == s)
            for m in range(cen.n_masks)
        ]
        got = cen._largest_inside(marks.copy())
        assert got.dtype == np.uint8
        assert got.tolist() == want

    def test_stacked_columns_match_one_pass_each(self):
        cen = census(4)
        rng = np.random.default_rng(5)
        stacked = rng.integers(0, 256, (cen.n_masks, 3), dtype=np.uint8)
        got = cen._largest_inside(stacked.copy())
        assert got.shape == stacked.shape and got.dtype == np.uint8
        for j in range(stacked.shape[1]):
            column = stacked[:, j]
            want = [
                max(int(column[s]) for s in range(m + 1) if s & m == s)
                for m in range(cen.n_masks)
            ]
            assert got[:, j].tolist() == want, j
            assert np.array_equal(got[:, j], cen._largest_inside(column.copy())), j


class TestMemory:
    """The stated limit of the census module docstring: a fresh order-7
    build keeps at most 32 MB and allocates at most 20 MB more on top of
    what it keeps (MB = 2^20 bytes, numpy's arrays as tracemalloc sees
    them, numpy already loaded)."""

    def test_order_seven_build_is_bounded(self):
        tracemalloc.start()
        try:
            cen = Census(CENSUS_MAX)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cen.n == CENSUS_MAX
        mb = 1 << 20
        assert retained <= 32 * mb, retained / mb
        assert peak - retained <= 20 * mb, (peak - retained) / mb
