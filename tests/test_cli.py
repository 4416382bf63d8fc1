"""The argparse front end, run in-process, and once as a program whose
reader leaves early."""

import hashlib
import io
import json
import random
import subprocess
import sys

import pytest
from conftest import package_env

from twoswitch import explorer, fixtures, parameters
from twoswitch.cli import run
from twoswitch.graphs import Graph, GraphError, format_edge_list, parse_edge_list
from twoswitch.transition import trace_from_json, replay


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def edges_file(tmp_path):
    def write(name, g):
        path = tmp_path / name
        path.write_text(format_edge_list(g), encoding="utf-8")
        return str(path)

    return write


def seeded_tree30():
    """A 30-vertex tree: vertex v joins a seeded earlier vertex."""
    rng = random.Random(30)
    return Graph(30, [(rng.randint(1, v - 1), v) for v in range(2, 31)])


def seeded_g25():
    """A G(25, 40): 40 distinct seeded vertex pairs."""
    rng = random.Random(25)
    edges = set()
    while len(edges) < 40:
        edges.add(tuple(sorted(rng.sample(range(1, 26), 2))))
    return Graph(25, edges)


class TestTransit:
    def test_fixture_pair_to_stdout(self, capsys):
        code, out, err = invoke(capsys, "transit", "--family", "forest", "fig1_g0", "fig1_g2")
        assert code == 0 and err == ""
        trace = trace_from_json(out)
        assert len(trace.steps) <= 1
        assert replay(trace)[-1].n == 7

    def test_out_file_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, out, _ = invoke(
            capsys, "transit", "--family", "forest", "fig1_g0", "fig1_g2",
            "--out", str(out_path),
        )
        assert code == 0 and out == ""
        trace = trace_from_json(out_path.read_text(encoding="utf-8"))
        assert replay(trace)[-1].size == 6

    def test_sequence_mismatch_is_usage_error(self, capsys, edges_file):
        a = edges_file("a.edges", Graph(3, [(1, 2)]))
        b = edges_file("b.edges", Graph(3, [(1, 2), (2, 3)]))
        code, out, err = invoke(capsys, "transit", a, b)
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "transit", "nope.edges", "fig1_g0")
        assert code == 2 and "nope.edges" in err

    def test_general_route_and_its_judgement_are_pinned(self, capsys, tmp_path):
        # the 21-switch general route from fig2_g0 to fig2_g1, and what
        # validate-trace says of it, byte for byte as CI pins them
        out_path = tmp_path / "fig2.trace"
        code, out, _ = invoke(capsys, "transit", "fig2_g0", "fig2_g1", "--out", str(out_path))
        assert code == 0 and out == ""
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "65ea41e56e7a55009755b10c2f040cc1fb7fe05e7a4493e5813f2bef094013c4"
        )
        code, out, _ = invoke(
            capsys, "validate-trace", str(out_path), "--target", "fig2_g1", "--json"
        )
        assert code == 0 and json.loads(out)["length"] == 21
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac898c8f6c479768a17db6fc5423126d718f53560464eeeac886c9ba79407c62"
        )

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "t.json"
        code, out, err = invoke(
            capsys, "transit", "--family", "forest", "fig1_g0", "fig1_g2",
            "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write trace") and "t.json" in err


class TestParams:
    def test_all_kinds_sorted(self, capsys):
        code, out, _ = invoke(capsys, "params", "fig1_g0")
        assert code == 0
        keys = [line.split("=")[0] for line in out.splitlines()]
        assert keys == sorted(keys)
        assert "matching" in keys and "rank" in keys and "nullity" in keys

    def test_single_kind(self, capsys):
        code, out, _ = invoke(capsys, "params", "fig1_g0", "--kind", "matching")
        assert code == 0
        assert out.strip() == "matching=3"

    def test_single_kind_json(self, capsys):
        code, out, _ = invoke(capsys, "params", "fig1_g0", "--kind", "matching", "--json")
        assert code == 0
        assert out == json.dumps({"matching": 3}, indent=2, sort_keys=True) + "\n"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "params", "fig1_g0", "--json")
        values = json.loads(out)
        assert code == 0
        assert values["rank"] == 2 * values["matching"]  # forest identity

    def test_isolated_vertex_drops_edge_cover(self, capsys, edges_file):
        path = edges_file("iso.edges", Graph(3, [(1, 2)]))
        code, out, _ = invoke(capsys, "params", path)
        assert code == 0
        assert "edge_cover" not in out
        assert "matching=1" in out

    def test_path_cover_cap_is_usage_error(self, capsys, edges_file):
        cycle = Graph(21, [(v, v % 21 + 1) for v in range(1, 22)])
        path = edges_file("c21.edges", cycle)
        code, out, err = invoke(capsys, "params", path, "--kind", "path_cover")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "capped at 20" in err

    def test_all_omits_capped_kinds(self, capsys, edges_file, monkeypatch):
        # subset kinds refuse 25 vertices; the rest answer, and rank and
        # nullity share one elimination
        ranks = []

        def counted(g):
            ranks.append(g)
            return rank(g)

        rank = parameters.adjacency_rank
        monkeypatch.setattr(parameters, "adjacency_rank", counted)
        g = seeded_g25()
        code, out, err = invoke(capsys, "params", edges_file("g25.edges", g), "--kind", "all")
        assert code == 0 and err == ""
        values = dict(line.split("=") for line in out.splitlines())
        assert sorted(values) == ["components", "matching", "nullity", "rank"]
        assert values["matching"] == str(parameters.compute("matching", g))
        assert int(values["rank"]) + int(values["nullity"]) == 25
        assert len(ranks) == 1

    def test_matching_answers_above_the_cap(self, capsys, edges_file):
        cycle = Graph(21, [(v, v % 21 + 1) for v in range(1, 22)])
        path = edges_file("c21.edges", cycle)
        code, out, _ = invoke(capsys, "params", path, "--kind", "matching")
        assert code == 0 and out.strip() == "matching=10"
        code, out, err = invoke(capsys, "params", path, "--kind", "independence")
        assert code == 2 and out == ""
        assert "capped at 20" in err


class TestStabilityAudit:
    def test_single_graph(self, capsys):
        code, out, _ = invoke(capsys, "stability-audit", "--graph", "fig1_g0", "--kind", "matching")
        assert code == 0
        assert out.startswith("matching=pass")

    def test_graph_all_kinds_json_is_pinned(self, capsys, monkeypatch):
        # one walk over the 112 switches of fig2_g0 serves all nine kinds,
        # building each switched graph once
        built = []

        def counted(g, added=(), removed=()):
            built.append(with_edges(g, added, removed))
            return built[-1]

        with_edges = Graph.with_edges
        monkeypatch.setattr(Graph, "with_edges", counted)
        code, out, _ = invoke(capsys, "stability-audit", "--graph", "fig2_g0", "--json")
        assert code == 0
        assert len(built) == len(set(built)) == 112
        assert [r["checked"] for r in json.loads(out)] == [112] * 9
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8b5e003aee4472a4fd9b8162102a205014280ceb6de9a5cdc7c6c34c9e762cbd"
        )

    def test_order_sweep_all_kinds(self, capsys):
        code, out, _ = invoke(capsys, "stability-audit", "--n", "4")
        assert code == 0
        assert len(out.splitlines()) == 9
        assert all("=pass" in line for line in out.splitlines())

    def test_json_mode(self, capsys):
        code, out, _ = invoke(capsys, "stability-audit", "--n", "3", "--json")
        reports = json.loads(out)
        assert code == 0
        assert len(reports) == 9
        assert all(r["passed"] for r in reports)

    def test_order_sweep_runs_once_for_all_kinds(self, capsys, monkeypatch):
        calls = []

        def counted(n, kinds):
            calls.append((n, kinds))
            return sweep(n, kinds)

        sweep = explorer.stability_sweep
        monkeypatch.setattr(explorer, "stability_sweep", counted)
        code, out, _ = invoke(capsys, "stability-audit", "--n", "5")
        assert code == 0
        assert calls == [(5, parameters.STABLE_KINDS)]
        assert out.splitlines() == [
            f"{kind}=pass checked={sweep(5, (kind,))[kind].checked}"
            for kind in parameters.STABLE_KINDS
        ]

    def test_capped_kinds_stop_alone(self, capsys, edges_file):
        # the subset kinds refuse the first switched graph with a cycle;
        # matching, components and edge cover run over every switch
        path = edges_file("tree30.edges", seeded_tree30())
        code, out, _ = invoke(capsys, "stability-audit", "--graph", path)
        assert code == 1
        lines = out.splitlines()
        for kind in ("components", "edge_cover", "matching"):
            assert f"{kind}=pass checked=623" in lines
        refused = [line for line in lines if "not evaluated" in line]
        assert len(refused) == 6
        assert all("after switch" in line and "capped at 20" in line for line in refused)
        code, out, _ = invoke(capsys, "stability-audit", "--graph", path, "--kind", "matching")
        assert code == 0 and out == "matching=pass checked=623\n"

    def test_refused_kinds_read_refused(self, capsys, edges_file):
        # a kind refused at the cap has no counterexample, so its verdict
        # is not a jump's; the exit code still says the audit is unfinished
        path = edges_file("tree30.edges", seeded_tree30())
        code, out, _ = invoke(capsys, "stability-audit", "--graph", path)
        assert code == 1
        lines = out.splitlines()
        assert not any("=fail" in line for line in lines)
        refused = [line for line in lines if line.endswith("=refused checked=5")]
        assert len(refused) == 6

    def test_undefined_edge_cover_is_noted(self, capsys, edges_file):
        path = edges_file("2k2.edges", Graph(5, [(1, 2), (3, 4)]))
        code, out, _ = invoke(capsys, "stability-audit", "--graph", path)
        assert code == 0
        lines = out.splitlines()
        i = lines.index("edge_cover=pass checked=0")
        assert lines[i + 1] == "  note=edge_cover undefined: graph has isolated vertices"
        assert sum(line.startswith("  note=") for line in lines) == 1

    def test_requires_exactly_one_target(self, capsys):
        with pytest.raises(SystemExit):
            run(["stability-audit", "--kind", "matching"])


class TestIntervalAudit:
    def test_forest_family(self, capsys):
        code, out, _ = invoke(
            capsys, "interval-audit", "--sequence", "3,2,2,2,1,1,1",
            "--kind", "domination", "--family", "forest",
        )
        assert code == 0
        assert "domination=pass" in out
        assert "values=[2,3]" in out

    def test_non_graphical_sequence(self, capsys):
        code, out, _ = invoke(capsys, "interval-audit", "--sequence", "3 1", "--kind", "matching")
        assert code == 0
        assert "note=" in out

    def test_json_all_kinds(self, capsys):
        code, out, _ = invoke(capsys, "interval-audit", "--sequence", "2,2,2", "--json")
        reports = json.loads(out)
        assert code == 0
        assert {r["kind"] for r in reports} == {
            "matching", "independence", "clique", "vertex_cover", "domination",
            "components", "chromatic", "path_cover", "edge_cover",
        }

    def test_bad_sequence_text(self, capsys):
        code, _, err = invoke(capsys, "interval-audit", "--sequence", "two,two", "--kind", "matching")
        assert code == 2 and "error:" in err

    def test_forest_family_all_kinds_json_is_pinned(self, capsys):
        # every kind over the 60 forests of the vector: the forest passes
        # and the component count, byte for byte
        code, out, _ = invoke(
            capsys, "interval-audit", "--sequence", "3,2,2,2,1,1,1",
            "--family", "forest", "--kind", "all", "--json",
        )
        assert code == 0
        assert [r["checked"] for r in json.loads(out)] == [60] * 9
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "537a5aa494007eae2e2d76851cdb31ed9ed51460fe245b01c624c9d8771c5612"
        )

    def test_all_kinds_walk_the_family_once(self, capsys, monkeypatch):
        # one walk evaluates all nine kinds on each member, and the report
        # is the one pinned above
        calls = []
        enumerate_family = explorer.enumerate_family

        def counted(*args):
            calls.append(args)
            return enumerate_family(*args)

        monkeypatch.setattr(explorer, "enumerate_family", counted)
        code, out, _ = invoke(
            capsys, "interval-audit", "--sequence", "3,2,2,2,1,1,1",
            "--family", "forest", "--kind", "all", "--json",
        )
        assert code == 0
        assert calls == [((3, 2, 2, 2, 1, 1, 1), "forest")]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "537a5aa494007eae2e2d76851cdb31ed9ed51460fe245b01c624c9d8771c5612"
        )

    def test_zero_workers_is_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "interval-audit", "--sequence", "2,2,2,2,2,2,2,2",
            "--kind", "matching", "--workers", "0",
        )
        assert code == 2
        assert out == "" and "at least 1" in err


class TestEnumerate:
    def test_plain_count(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--sequence", "2,2,2,2,2")
        assert code == 0
        assert out.splitlines()[-1] == "count=12"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--sequence", "1,1,1,1", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 3
        assert [[1, 2], [3, 4]] in payload["graphs"]

    def test_empty_graph_line(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--sequence", "0,0")
        assert code == 0
        assert out.splitlines()[0] == "(no edges)"

    def test_cap_refusal(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "--sequence", "1,1,1,1,1,1,1,1,1,1")
        assert code == 2 and "cap" in err

    @pytest.mark.parametrize(
        "family,count,digest",
        [
            # the family filters: one component count each, and one
            # bipartiteness test each
            ("unicyclic", 960, "894fb11b8fe5295b35e7fed6a7c279a488256beb6d4035a0af3dbf80f99f45a7"),
            ("bipartite", 424, "5dff5bc99f9bed88ed8ea69d346b7cc8145f7337224f4bc880b1d5ad6f374e8e"),
        ],
    )
    def test_family_json_is_pinned(self, capsys, family, count, digest):
        code, out, _ = invoke(
            capsys, "enumerate", "--sequence", "3,3,2,2,2,2,1,1", "--family", family, "--json"
        )
        assert code == 0
        assert json.loads(out)["count"] == count
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestClosedPipe:
    def test_reader_leaving_early_gets_no_traceback(self):
        # 375 KB of JSON, far more than a pipe holds, so the program is
        # still writing when its reader closes the pipe after 10 bytes
        argv = ["enumerate", "--sequence", "3,3,3,3,2,2,2,2", "--family", "all", "--json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "twoswitch.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=package_env(),
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert head == b'{"count":6'
        assert b"Traceback" not in err and err == b""


class TestEdgeDiffAudit:
    def test_pass(self, capsys):
        code, out, _ = invoke(capsys, "edge-diff-audit", "--n", "4")
        assert code == 0
        assert out.startswith("edge_diff=pass")

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "edge-diff-audit", "--n", "3", "--json")
        report = json.loads(out)
        assert code == 0 and report["passed"]


class TestOrderSevenWireFormat:
    """The order-7 audit output, byte for byte, as the sweeps that compared
    every ordered switch shape and edge move printed it."""

    def test_stability_audit(self, capsys):
        code, out, _ = invoke(capsys, "stability-audit", "--n", "7", "--json")
        assert code == 0
        checked = {r["kind"]: r["checked"] for r in json.loads(out)}
        assert checked == {
            kind: 26_274_360 if kind == "edge_cover" else 27_525_120
            for kind in parameters.STABLE_KINDS
        }
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "86f6e42dbf4f1145845423ec82c606765c8ce2b124c08b58b52bc825511dd1f9"
        )

    def test_edge_diff_audit(self, capsys):
        code, out, _ = invoke(capsys, "edge-diff-audit", "--n", "7", "--json")
        assert code == 0
        assert json.loads(out)["checked"] == 220_200_960
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "85f710449fd734fa7c21a02a46fd47bb04b7e914c317bbc3cd1a828e52af0003"
        )


@pytest.fixture(scope="module")
def bipartite_report():
    """One run of the bipartite check (about a second), shared by the
    commands below; the report is frozen."""
    return explorer.bipartite_counterexample_check()


@pytest.fixture
def shared_bipartite_check(monkeypatch, bipartite_report):
    monkeypatch.setattr(explorer, "bipartite_counterexample_check", lambda: bipartite_report)


@pytest.mark.usefixtures("shared_bipartite_check")
class TestBipartiteCheck:
    def test_full_run(self, capsys):
        code, out, _ = invoke(capsys, "bipartite-check")
        assert code == 0
        assert "passed=true" in out
        assert "closure.complete=true" in out

    def test_json_closes_the_component(self, capsys):
        code, out, _ = invoke(capsys, "bipartite-check", "--json")
        report = json.loads(out)
        assert code == 0 and report["passed"]
        assert report["closure"] == {
            "complete": True,
            "explored": 232,
            "frontier": 0,
            "reached_target": False,
        }
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0580ce60555de8691cb77b4a14ea886ecb4d2fb4250b0facf6a467b375050397"
        )

    def test_closure_bound_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bipartite-check", "--closure-budget", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConstrainedSearch:
    def test_found_with_trace(self, capsys):
        code, out, _ = invoke(
            capsys, "constrained-search", "fig1_g0", "fig1_g2", "--family", "forest", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["found"] and payload["length"] <= 1
        assert payload["trace"]["n"] == 7

    def test_vector_mismatch_not_found(self, capsys, edges_file):
        a = edges_file("a.edges", Graph(3, [(1, 2)]))
        b = edges_file("b.edges", Graph(3, [(2, 3)]))
        code, out, _ = invoke(capsys, "constrained-search", a, b)
        assert code == 0
        assert "found=false" in out and "complete=true" in out

    def test_definitive_not_found_after_exploration(self, capsys):
        # the bipartite component around fig2_g0 is small and closed
        code, out, _ = invoke(
            capsys, "constrained-search", "fig2_g0", "fig2_g1", "--family", "bipartite"
        )
        assert code == 0
        assert "found=false" in out and "complete=true" in out
        assert "explored=232" in out

    def test_budget_exhaustion(self, capsys, edges_file):
        f = edges_file("f.edges", Graph(8, [(1, 2), (2, 6), (3, 4), (3, 7), (4, 5), (5, 8), (6, 7)]))
        g = edges_file("g.edges", Graph(8, [(1, 3), (2, 5), (2, 6), (3, 4), (4, 5), (6, 7), (7, 8)]))
        code, out, _ = invoke(
            capsys, "constrained-search", f, g, "--family", "forest", "--budget", "1"
        )
        assert code == 1
        assert "complete=false" in out

    def test_zero_budget_is_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "constrained-search", "fig1_g0", "fig1_g2", "--family", "forest", "--budget", "0"
        )
        assert code == 2
        assert out == "" and "at least 1" in err


class TestValidateTrace:
    def test_round_trip_with_target(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        invoke(capsys, "transit", "--family", "forest", "fig1_g0", "fig1_g2", "--out", str(out_path))
        code, out, _ = invoke(
            capsys, "validate-trace", str(out_path),
            "--target", "fig1_g2", "--require-forests",
        )
        assert code == 0
        assert "ok=true" in out

    def test_plain_verdict_counts_the_kinds(self, capsys, tmp_path):
        # the 21 plain switches of the general fig2 route: one line per kind
        # with its count, not one word per step
        out_path = tmp_path / "fig2.trace"
        invoke(capsys, "transit", "fig2_g0", "fig2_g1", "--out", str(out_path))
        code, out, _ = invoke(capsys, "validate-trace", str(out_path), "--target", "fig2_g1")
        assert code == 0
        assert out.splitlines() == [
            "ok=true",
            "final_matches=true",
            "steps_nontrivial=true",
            "forests_ok=none",
            "length=21",
            "kinds.trivial=0",
            "kinds.plain=21",
            "kinds.t_switch=0",
            "kinds.f_switch=0",
            "first_trivial=none",
            "first_nonforest=none",
            "bound=7",
            "within_bound=false",
        ]

    def test_wrong_target_fails(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        invoke(capsys, "transit", "--family", "forest", "fig1_g0", "fig1_g2", "--out", str(out_path))
        code, out, _ = invoke(capsys, "validate-trace", str(out_path), "--target", "fig1_g0")
        assert code == 1
        assert "final_matches=false" in out

    def test_malformed_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = invoke(capsys, "validate-trace", str(bad))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"n":3,"initial":[[1,2,3]],"steps":[]}',
            '{"n":3,"initial":[[1,"a"]],"steps":[]}',
            '{"n":3,"initial":[[1.5,2]],"steps":[]}',
        ],
    )
    def test_bad_edge_on_stdin_is_usage_error(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = invoke(capsys, "validate-trace", "-")
        assert code == 2 and out == "" and err.startswith("error:")


class TestUndecodableInput:
    """A file that is not UTF-8 is a domain error, exit 2, for every
    command that reads one, stdin included."""

    BYTES = b"\xff\xfe\x00n 3\n"

    @pytest.mark.parametrize("command", ["params", "validate-trace"])
    def test_file_is_usage_error(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(self.BYTES)
        code, out, err = invoke(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read") and "bad.edges" in err

    def test_stdin_is_usage_error(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(self.BYTES), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = invoke(capsys, "validate-trace", "-")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read trace from stdin")


class TestFixtures:
    def test_list(self, capsys):
        code, out, _ = invoke(capsys, "fixtures")
        assert code == 0
        assert out.split() == ["fig1_g0", "fig1_g1", "fig1_g2", "fig2_g0", "fig2_g1"]

    def test_emit_parses_back(self, capsys):
        code, out, _ = invoke(capsys, "fixtures", "fig2_g0")
        assert code == 0
        g = parse_edge_list(out)
        assert g.n == 11

    def test_dot(self, capsys):
        code, out, _ = invoke(capsys, "fixtures", "fig1_g0", "--dot")
        assert code == 0
        assert out.startswith("graph fig1_g0 {")

    def test_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run(["fixtures", "fig9_g9"])

    def test_load_refuses_unknown_name_as_a_domain_error(self):
        with pytest.raises(GraphError, match="^unknown fixture 'nope'; have fig1_g0, "):
            fixtures.load("nope")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("params", "fig1_g0"),
            ("enumerate", "--sequence", "1,1,2,2"),
            ("interval-audit", "--sequence", "2,2,2", "--json"),
            ("transit", "--family", "forest", "fig1_g0", "fig1_g2"),
        ],
    )
    def test_repeat_runs_identical(self, capsys, argv):
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second
