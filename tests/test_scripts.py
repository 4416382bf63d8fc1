"""The experiment scripts, run as separate processes, and the package
namespace they import from."""

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
    assert all(": pass (" in line and line.endswith("s)") for line in sections)
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


def test_namespace_exports_resolve():
    assert all(hasattr(twoswitch, name) for name in twoswitch.__all__)
    for gone in ("equivalent_forms", "path_in_forest", "Bipartition"):
        assert gone not in twoswitch.__all__
        assert not hasattr(twoswitch, gone)


def test_import_loads_no_process_pool():
    # interval_audit imports its worker pool only when it starts one
    probe = (
        "import sys, twoswitch; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=package_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
