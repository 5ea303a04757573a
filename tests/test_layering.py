"""The import-layering contract, enforced as a tier-1 test.

Runs :mod:`tools.check_layering` in-process so the package boundaries
(no private cross-imports, cache policy isolation, controller-free
read-ahead and ingest, loadgen/service/perfkit/device surfaces) fail
the suite — not just CI lint — the moment they are violated.
"""

import importlib.util
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_layering.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_layering", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layering_is_clean(capsys):
    checker = load_checker()
    assert checker.main() == 0, capsys.readouterr().err


def test_checker_sees_the_real_tree():
    """Guard against the checker silently scanning nothing."""
    checker = load_checker()
    policy_files = [
        checker.SRC / "repro" / "cache" / f"{stem}.py"
        for stem in checker.CACHE_POLICIES
    ]
    assert all(p.is_file() for p in policy_files)


def test_checker_flags_ingest_controller_import(tmp_path, monkeypatch):
    checker = load_checker()
    src = tmp_path / "src"
    ingest = src / "repro" / "ingest"
    ingest.mkdir(parents=True)
    (ingest / "sneaky.py").write_text(
        "from repro.controller.commands import DiskCommand\n"
    )
    errors = []
    monkeypatch.setattr(checker, "SRC", src)
    checker.check_ingest_independence(errors)
    assert len(errors) == 1 and "ingest" in errors[0]


def test_checker_flags_loadgen_consumer_import(tmp_path, monkeypatch):
    """Loadgen producing records for the host is one-way: a planted
    import of the replay machinery trips rule 5."""
    checker = load_checker()
    src = tmp_path / "src"
    loadgen = src / "repro" / "loadgen"
    loadgen.mkdir(parents=True)
    (loadgen / "sneaky.py").write_text(
        "from repro.host.streams import ReplayDriver\n"
        "from repro.workloads.trace import TimedAccess\n"  # allowed
    )
    errors = []
    monkeypatch.setattr(checker, "SRC", src)
    checker.check_loadgen_independence(errors)
    assert len(errors) == 1 and "repro.host.streams" in errors[0]


def test_checker_flags_service_device_import(tmp_path, monkeypatch):
    """The service facade reaching under the host layer (a planted
    controller-internals import) trips rule 6; host-layer imports
    stay allowed."""
    checker = load_checker()
    src = tmp_path / "src"
    service = src / "repro" / "service"
    service.mkdir(parents=True)
    (service / "sneaky.py").write_text(
        "from repro.controller.controller import DiskController\n"
        "from repro.host.system import System\n"  # allowed
        "from repro.array.raid import MirroredArray\n"  # allowed
    )
    errors = []
    monkeypatch.setattr(checker, "SRC", src)
    checker.check_service_independence(errors)
    assert len(errors) == 1 and "repro.controller.controller" in errors[0]


def test_checker_flags_device_internals_import(tmp_path, monkeypatch):
    """disk/ and array/ reaching past the device contract (planted
    mechanics and concrete-model imports) trip rule 7; the contract
    surface itself stays allowed."""
    checker = load_checker()
    src = tmp_path / "src"
    disk = src / "repro" / "disk"
    disk.mkdir(parents=True)
    (disk / "sneaky.py").write_text(
        "from repro.mechanics.service import HddDeviceModel\n"
        "from repro.devices.base import DeviceModel\n"  # allowed
    )
    array = src / "repro" / "array"
    array.mkdir(parents=True)
    (array / "sneaky.py").write_text(
        "from repro.devices.flash import FlashServiceModel\n"
        "from repro.devices import DeviceModel\n"  # allowed
    )
    errors = []
    monkeypatch.setattr(checker, "SRC", src)
    checker.check_device_surface(errors)
    assert len(errors) == 2
    assert "repro.mechanics.service" in errors[0]
    assert "repro.devices.flash" in errors[1]


def test_checker_flags_perfkit_internals_import(tmp_path, monkeypatch):
    """Perfkit reaching into the simulated hardware (planted controller
    and cache imports) trips rule 8; the obs/metrics surfaces and the
    experiments facade stay allowed."""
    checker = load_checker()
    src = tmp_path / "src"
    perfkit = src / "repro" / "perfkit"
    perfkit.mkdir(parents=True)
    (perfkit / "sneaky.py").write_text(
        "from repro.controller.stats import ControllerStats\n"
        "from repro.cache.base import CacheStats\n"
        "from repro.obs.timeline import merge_time_in_state\n"  # allowed
        "from repro.metrics.report import format_table\n"  # allowed
        "from repro.experiments.runner import TechniqueRunner\n"  # allowed
    )
    errors = []
    monkeypatch.setattr(checker, "SRC", src)
    checker.check_perfkit_independence(errors)
    assert len(errors) == 2
    assert "repro.controller.stats" in errors[0]
    assert "repro.cache.base" in errors[1]


def test_checker_flags_private_cross_import(tmp_path, monkeypatch):
    checker = load_checker()
    src = tmp_path / "src"
    pkg = src / "repro"
    pkg.mkdir(parents=True)
    (pkg / "leaky.py").write_text("from repro.other import _secret\n")
    errors = []
    monkeypatch.setattr(checker, "SRC", src)
    checker.check_private_imports(errors)
    assert len(errors) == 1 and "_secret" in errors[0]
