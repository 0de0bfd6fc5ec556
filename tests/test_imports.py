"""What a process imports: `import qmgw` binds its API lazily, and each CLI
subcommand loads only the modules it runs.  Each check runs in a fresh
interpreter, since this test process has every module loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmgw
from qmgw.config import SUITE_NAMES

SRC = Path(__file__).resolve().parent.parent / "src"

MATH_MODULES = {
    f"qmgw.{name}"
    for name in (
        "_backend", "series", "modular", "theta", "determinant", "hurwitz",
        "chazy", "cayley", "anomaly", "virasoro", "mirror", "verify",
    )
}

#: every module a process that serves stationary values may load: the
#: check-only modules (`determinant`, `verify`, `mirror`, `virasoro`,
#: `anomaly`) are not on it
SERVING = {"qmgw"} | {
    f"qmgw.{name}"
    for name in (
        "cli", "cache", "config", "errors", "rational", "records", "series",
        "_backend", "modular", "theta", "hurwitz",
    )
}

NPOINT_3 = ("--legs", "3", "--psi", "1,1,2")

#: OpenSSL (through `hashlib`) and `dataclasses` (which pulls in `inspect`):
#: no process loads either, not even one that reads or writes the disk cache
HEAVY = {"hashlib", "_hashlib", "dataclasses", "inspect"}


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _run(code):
    """Run `code` in a fresh interpreter; return what it prints as JSON."""
    return json.loads(_python("-c", code).stdout)


def _cli_imports(cache_dir, *argv):
    """The modules a `python -X importtime -m qmgw.cli` run loads."""
    proc = _python(
        "-X", "importtime", "-m", "qmgw.cli", "--cache-dir", str(cache_dir),
        *argv,
    )
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            names.add(line.rsplit("|", 1)[1].strip())
    return names


class TestStartup:
    def test_package_and_cli_load_no_mathematics(self):
        loaded = _run(
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import qmgw, qmgw.cli\n"
            "print(json.dumps({'qmgw': sorted(m for m in sys.modules"
            " if m.startswith('qmgw')), 'new': sorted(set(sys.modules)"
            " - before)}))\n"
        )
        assert not MATH_MODULES & set(loaded["qmgw"])
        assert "dataclasses" not in loaded["new"]

    def test_cold_table_loads_no_npoint_virasoro_or_mirror(self, tmp_path):
        loaded = _cli_imports(tmp_path, "tables", "a", "--bound", "14")
        assert "qmgw.theta" in loaded
        check_only = {"qmgw.determinant", "qmgw.virasoro", "qmgw.mirror"}
        assert not loaded & check_only
        assert "dataclasses" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ("tables", "a", "--bound", "14"),
            ("tables", "b", "--bound", "14"),
            ("fjrw", "invariants", "--max", "6"),
        ],
    )
    def test_warm_read_loads_no_mathematics(self, tmp_path, argv):
        _cli_imports(tmp_path, *argv)
        assert not _cli_imports(tmp_path, *argv) & MATH_MODULES

    def test_mirror_loads_no_npoint_or_cayley(self):
        loaded = _run(
            "import json, sys\n"
            "import qmgw.mirror\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        assert not {"qmgw.determinant", "qmgw.cayley"} & set(loaded)

    def test_determinant_loads_no_hurwitz(self):
        # the check route shares no code with the serving route it checks
        loaded = _run(
            "import json, sys\n"
            "import qmgw.determinant\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        assert "qmgw.determinant" in loaded
        assert "qmgw.hurwitz" not in loaded

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (("gw", "onepoint", "--genus", "3"), ()),
            (("gw", "npoint", *NPOINT_3), ()),
            (("gw", "npoint", *NPOINT_3, "--connected"), ()),
            (("fjrw", "onepoint", "--genus", "3"), ("cayley", "chazy")),
        ],
        ids=["gw-onepoint", "gw-npoint", "gw-connected", "fjrw-onepoint"],
    )
    def test_serving_loads_no_check_module(self, tmp_path, argv, extra):
        allowed = SERVING | {f"qmgw.{name}" for name in extra}
        loaded = _cli_imports(tmp_path, *argv, "--no-cache")
        assert {m for m in loaded if m.split(".")[0] == "qmgw"} <= allowed

    def test_warm_eisenstein_read_loads_only_series(self, tmp_path):
        argv = ("tables", "eisenstein", "--k", "6", "--order", "30")
        _cli_imports(tmp_path, *argv)
        loaded = _cli_imports(tmp_path, *argv) & MATH_MODULES
        assert loaded == {"qmgw.series", "qmgw._backend"}


class TestFootprint:
    @pytest.mark.parametrize(
        "imports",
        [("qmgw", "qmgw.cli"), tuple(sorted(MATH_MODULES))],
        ids=["cli", "mathematics"],
    )
    def test_imports_load_no_openssl_or_dataclasses(self, imports):
        loaded = _run(
            "import json, sys\n"
            f"import {', '.join(imports)}\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        assert not HEAVY & set(loaded)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "chazy"),
            ("gw", "npoint", "--legs", "2", "--psi", "0,2"),
        ],
    )
    def test_uncached_run_loads_no_openssl_or_dataclasses(self, tmp_path, argv):
        assert not HEAVY & _cli_imports(tmp_path, *argv, "--no-cache")

    def test_cache_read_and_write_load_no_openssl(self, tmp_path):
        argv = ("tables", "b", "--bound", "14")
        cold = _cli_imports(tmp_path, *argv)
        warm = _cli_imports(tmp_path, *argv)
        assert list(tmp_path.glob("weierstrass-b-*.json"))
        assert not HEAVY & cold and not HEAVY & warm


class TestLazyExports:
    def test_every_export_is_its_submodules_object(self):
        for name in qmgw.__all__:
            value = getattr(qmgw, name)
            if name == "__version__":
                continue
            assert value.__module__.startswith("qmgw."), name
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import(self):
        names = _run(
            "import json\n"
            "from qmgw import *\n"
            "print(json.dumps(sorted(k for k in dir() if not k.startswith('_'))))"
        )
        assert set(names) >= set(qmgw.__all__) - {"__version__"}

    def test_dir_lists_exports(self):
        assert set(qmgw.__all__) <= set(dir(qmgw))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            qmgw.nope

    @pytest.mark.parametrize(
        "first",
        [
            "import qmgw.cayley",
            "import qmgw.determinant",
            "from qmgw import npoint",
            "from qmgw import cache, verify",
            "import qmgw.verify; from qmgw import npoint",
        ],
    )
    def test_npoint_stays_the_function(self, first):
        checks = _run(
            f"{first}\n"
            "import json, sys, qmgw\n"
            "from qmgw import npoint\n"
            "module = sys.modules['qmgw.determinant']\n"
            "print(json.dumps([qmgw.npoint is module.npoint,"
            " npoint is module.npoint]))\n"
        )
        assert checks == [True, True]


def test_suite_names_match_verify():
    from qmgw import verify

    assert SUITE_NAMES == tuple(verify.SUITES)
