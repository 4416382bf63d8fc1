import itertools

import pytest
from conftest import forests, graphs
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import equivalent_forms, oracle_classify

from twoswitch.graphs import Graph, GraphError, degree_sequence, is_forest, is_tree
from twoswitch.switch import (
    ActionMatrix,
    SwitchKind,
    apply_switch,
    classify,
    is_interchangeable,
    nontrivial_matrices,
)
from twoswitch.transition import SwitchTrace, validate_trace

P4 = Graph(4, [(1, 2), (2, 3), (3, 4)])


def matrices(max_n: int = 8):
    return st.tuples(
        st.integers(1, max_n), st.integers(1, max_n),
        st.integers(1, max_n), st.integers(1, max_n),
    ).map(lambda t: ActionMatrix(*t))


class TestActionMatrix:
    def test_edge_views(self):
        m = ActionMatrix(2, 5, 3, 6)
        assert m.deleted_edges() == ((2, 5), (3, 6))
        assert m.added_edges() == ((2, 3), (5, 6))
        assert str(m) == "((2,5),(3,6))"

    def test_transpose(self):
        m = ActionMatrix(2, 5, 3, 6)
        assert m.transpose() == ActionMatrix(2, 3, 5, 6)
        assert ActionMatrix(1, 2, 6, 3).transpose() == ActionMatrix(1, 6, 2, 3)

    @pytest.mark.parametrize(
        "labels",
        [(True, 2, 3, 4), (1, 2, 3, False), (1, 2.0, 3, 4), (0, 2, 3, 4), (1, "2", 3, 4)],
    )
    def test_rejects_non_positive_integer_labels(self, labels):
        with pytest.raises(GraphError, match="positive integers"):
            ActionMatrix(*labels)

    @given(matrices())
    def test_transpose_involution(self, m):
        assert m.transpose().transpose() == m


class TestInterchangeable:
    def test_bundled_cases(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        assert is_interchangeable(ActionMatrix(2, 5, 3, 6), g0)
        # 1-3 already present, so the added edge collides
        assert not is_interchangeable(ActionMatrix(1, 2, 3, 6), g0)
        # shared vertex 1
        assert not is_interchangeable(ActionMatrix(1, 2, 1, 3), g0)

    def test_labels_beyond_order(self):
        assert not is_interchangeable(ActionMatrix(1, 2, 3, 9), P4)

    def test_missing_deleted_edge(self):
        assert not is_interchangeable(ActionMatrix(1, 3, 2, 4), P4)


class TestOneRule:
    """Interchangeability, classification, application and trace replay
    read one rule, so they agree on every matrix, repeated labels and
    labels past the order included."""

    @given(graphs(max_n=8), matrices())
    def test_every_reader_agrees(self, g, m):
        rewires = is_interchangeable(m, g)
        assert validate_trace(SwitchTrace(g, (m,))).steps_nontrivial == rewires
        assert (classify(m, g) is SwitchKind.TRIVIAL) == (not rewires)
        assert (apply_switch(m, g) is g) == (not rewires)


class TestApply:
    def test_produces_bundled_graphs(self, fig1_graphs):
        g0, g1, g2 = fig1_graphs
        assert apply_switch(ActionMatrix(2, 5, 3, 6), g0) == g1
        assert apply_switch(ActionMatrix(1, 2, 6, 3), g0) == g2

    def test_trivial_is_identity(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        assert apply_switch(ActionMatrix(1, 2, 1, 3), g0) is g0

    def test_inverse_round_trip(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        for m in (ActionMatrix(2, 5, 3, 6), ActionMatrix(1, 2, 6, 3)):
            assert apply_switch(m.transpose(), apply_switch(m, g0)) == g0

    @given(graphs(max_n=8), matrices())
    def test_always_preserves_degrees(self, g, m):
        assert degree_sequence(apply_switch(m, g)) == degree_sequence(g)

    @given(graphs(max_n=8), matrices())
    def test_nontrivial_moves_exactly_two_edges(self, g, m):
        t = apply_switch(m, g)
        if is_interchangeable(m, g):
            assert len(g.edges - t.edges) == 2
            assert len(t.edges - g.edges) == 2
            # and the transpose is the unique inverse among the two
            # column orders
            assert apply_switch(m.transpose(), t) == g
        else:
            assert t == g


class TestEquivalentForms:
    def test_contains_row_swap(self):
        forms = equivalent_forms(ActionMatrix(2, 5, 3, 6))
        assert ActionMatrix(3, 6, 2, 5) in forms
        assert len(forms) == 4

    def test_column_swap_not_equivalent(self):
        forms = equivalent_forms(ActionMatrix(1, 2, 3, 4))
        assert ActionMatrix(1, 2, 4, 3) not in forms

    def test_all_forms_act_identically(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        m = ActionMatrix(2, 5, 3, 6)
        results = {apply_switch(f, g0) for f in equivalent_forms(m)}
        assert len(results) == 1

    @given(graphs(max_n=7), matrices(max_n=7))
    def test_forms_agree_on_interchangeability(self, g, m):
        flags = {is_interchangeable(f, g) for f in equivalent_forms(m)}
        assert len(flags) == 1


class TestClassify:
    def test_bundled_cases(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        assert classify(ActionMatrix(2, 5, 3, 6), g0) is SwitchKind.PLAIN
        assert classify(ActionMatrix(1, 2, 3, 4), P4) is SwitchKind.T_SWITCH
        assert classify(ActionMatrix(1, 2, 1, 3), g0) is SwitchKind.TRIVIAL

    def test_cross_component_forest_switch(self):
        f = Graph(4, [(1, 2), (3, 4)])
        assert classify(ActionMatrix(1, 2, 3, 4), f) is SwitchKind.F_SWITCH

    def test_plain_on_non_forest(self):
        g = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)])
        m = ActionMatrix(4, 5, 2, 3)
        # nontrivial but the host graph has a cycle, so never t/f
        assert is_interchangeable(m, g)
        assert classify(m, g) is SwitchKind.PLAIN

    @given(forests(max_n=9), matrices(max_n=9))
    @settings(max_examples=300)
    def test_structural_rule_matches_replay(self, f, m):
        """The forest/tree verdicts come from union-finds on the edge set
        before and after the switch, without building the switched graph;
        replaying through ``apply_switch`` is the independent check."""
        kind = classify(m, f)
        result = apply_switch(m, f)
        if not is_interchangeable(m, f):
            assert kind is SwitchKind.TRIVIAL
            return
        if is_tree(f):
            assert (kind is SwitchKind.T_SWITCH) == is_tree(result)
        if kind is SwitchKind.T_SWITCH:
            assert is_tree(result)
        assert (kind in (SwitchKind.T_SWITCH, SwitchKind.F_SWITCH)) == (
            is_forest(f) and is_forest(result)
        )

    def test_path_rule_to_order_six(self):
        # every (graph, switch) incidence to order 6: the acyclicity rule
        # of classify and of the replay's kinds against the paper's path
        # shapes
        checked = 0
        for n in range(7):
            slots = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
            for mask in range(1 << len(slots)):
                g = Graph(n, [e for k, e in enumerate(slots) if mask >> k & 1])
                for m in nontrivial_matrices(g):
                    kind = oracle_classify(m, g)
                    assert classify(m, g) is kind
                    assert validate_trace(SwitchTrace(g, (m,))).kinds == (kind,)
                    checked += 1
        assert checked == 186264


class TestNontrivialMatrices:
    def brute_classes(self, g):
        out = set()
        for a, b, c, d in itertools.permutations(g.vertices(), 4):
            m = ActionMatrix(a, b, c, d)
            if is_interchangeable(m, g):
                out.add(frozenset(equivalent_forms(m)))
        return out

    @given(graphs(max_n=6))
    @settings(max_examples=150)
    def test_one_representative_per_class(self, g):
        listed = list(nontrivial_matrices(g))
        assert all(is_interchangeable(m, g) for m in listed)
        classes = [frozenset(equivalent_forms(m)) for m in listed]
        assert len(set(classes)) == len(classes)
        assert set(classes) == self.brute_classes(g)

    def test_deterministic_order(self, fig1_graphs):
        g0, _, _ = fig1_graphs
        first = [str(m) for m in nontrivial_matrices(g0)]
        second = [str(m) for m in nontrivial_matrices(g0)]
        assert first == second
