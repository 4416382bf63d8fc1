"""The experiment scripts, run as separate processes, and the package
namespace they import from."""

import re
import subprocess
import sys
from pathlib import Path

from conftest import package_env

import twoswitch

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=package_env(),
        timeout=300,
    )


def test_run_audits_to_order_five():
    proc = run_script("run_audits.py", "--max-order", "5")
    assert proc.returncode == 0, proc.stderr
    *sections, total = proc.stdout.splitlines()
    assert len(sections) == 5 + 5 + 4
    assert all(": pass (" in line and line.endswith(")") for line in sections)
    # every line's elapsed time, then the threads its sweeps ran on: one
    # below order 7
    assert all(re.search(r"[ (]\d+\.\ds on 1 thread[;)]", line) for line in sections)
    assert "stability  n=5: pass (17160 incidences, " in proc.stdout
    assert "edge-move  n=5: pass (23040 moves, " in proc.stdout
    assert total.startswith("total ")


def test_unicyclic_search_to_order_six():
    proc = run_script("unicyclic_search.py", "--max-order", "6")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "  kappa=2: 561 families, 15 NOT switch-connected" in lines
    assert "  kappa=1: 381 families, all switch-connected" in lines
    assert lines[-1] == "connected unicyclic graphs: switch-connected at every checked order"


def test_route_audit_to_order_five():
    proc = run_script("route_audit.py", "--max-order", "5")
    assert proc.returncode == 0, proc.stderr
    *orders, total = proc.stdout.splitlines()
    assert len(orders) == 6
    assert all(": pass, " in line and line.endswith("s)") for line in orders)
    assert "order 5: pass, 951 pairs, 810 switches, max excess 0 (" in proc.stdout
    assert total.startswith("total: pass, 1018 pairs, 828 switches, max excess 0 (")


def test_run_audits_reports_the_census_peak():
    proc = run_script("run_audits.py", "--max-order", "3")
    assert proc.returncode == 0, proc.stderr
    stability = [line for line in proc.stdout.splitlines() if line.startswith("stability")]
    assert len(stability) == 3
    for line in stability:
        assert re.search(r"; census built in \d+\.\ds, peak \d+\.\d MB: degrees \d", line), line


def test_route_audit_soak():
    proc = run_script("route_audit.py", "--soak", "1", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    *draws, summary = proc.stdout.splitlines()
    assert all(re.fullmatch(r"  draw \d+: n=\d+, k=\d+, D=\d+, length \d+", line) for line in draws)
    found = re.fullmatch(
        r"soak seed 1: (\d+) pairs, (\d+) over D - 1, max excess (\d+) \(\d+\.\ds\)", summary
    )
    assert found, summary
    pairs, over, _ = map(int, found.groups())
    assert pairs > 0 and over == len(draws)


def test_namespace_exports_resolve():
    assert all(hasattr(twoswitch, name) for name in twoswitch.__all__)
    for gone in ("equivalent_forms", "path_in_forest", "Bipartition"):
        assert gone not in twoswitch.__all__
        assert not hasattr(twoswitch, gone)


def run_probe(probe):
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=package_env(), timeout=120
    )


def test_import_loads_no_process_pool():
    # interval_audit imports its worker pool only when it starts one, and
    # numpy is imported only by the table kernels that use it
    probe = (
        "import sys, twoswitch; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process', 'numpy')"
        " if m in sys.modules])"
    )
    proc = run_probe(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


NUMPY_PROBE = """
import contextlib, io, random, sys
import twoswitch
from twoswitch import cli, explorer

def step(name, ok):
    print(name, ok, 'numpy' in sys.modules)

def command(*argv):
    sys.argv = ['twoswitch', *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main()
        except SystemExit as exit:
            return exit.code == 0

f0, _, f2 = twoswitch.fig1()
trace = twoswitch.transition_forest(f0, f2)
step('route', twoswitch.validate_trace(trace, f2, require_forests=True).ok)
r = random.Random(20)
g = twoswitch.Graph(20, [(u, v) for u in range(1, 21) for v in range(u + 1, 21) if r.random() < 0.5])
values = [twoswitch.compute(kind, g) for kind in twoswitch.STABLE_KINDS]
step('params', values[twoswitch.STABLE_KINDS.index('path_cover')] == 1)
step('interval', twoswitch.interval_audit((3, 2, 2, 2, 1, 1, 1), 'domination', 'tree').passed)
step('search', twoswitch.constrained_transition_search(f0, f2, 'forest').found)
step('transit', command('transit', '--family', 'forest', 'fig1_g0', 'fig1_g2'))
step('census', twoswitch.census(5).n == 5)
step('sweep', all(r.passed for r in explorer.stability_sweep(5).values()))
"""


def test_per_graph_paths_load_no_numpy():
    # the forest route and its judge, the nine kinds on CI's G(20, 1/2),
    # whose path cover the spanning-path search certifies, a tree family's
    # interval audit, a family search and the CLI's route: none loads
    # numpy; the first census does
    proc = run_probe(NUMPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "route True False",
        "params True False",
        "interval True False",
        "search True False",
        "transit True False",
        "census True True",
        "sweep True True",
    ]
