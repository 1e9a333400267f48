"""Which wmrline modules each entry point loads.

Each case runs in a fresh interpreter, since this process has long since
imported every module.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import wmrline
from wmrline.measures import write_measure_csv

from conftest import dm

SRC = str(Path(wmrline.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
SOLVE_LAYER = ["wmrline", "wmrline.errors", "wmrline.measures", "wmrline.wmr"]
CLI = sorted([*SOLVE_LAYER, "wmrline.cli"])

# runs the CLI on argv, then reports its exit code and the wmrline modules loaded
PROBE = """
import json, sys
from wmrline.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "wmrline")
print(json.dumps([code, loaded]), file=sys.stderr)
"""


def python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60)


def loaded_by(code):
    """The wmrline modules loaded once code has run in a fresh interpreter."""
    report = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'wmrline')))"
    proc = python("-c", f"{code}\n{report}")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    for name, m in {"mu": dm([-2, 0, 2], [0.25, 0.5, 0.25]), "nu": dm([-1, 1])}.items():
        write_measure_csv(m, d / f"{name}.csv")
    return d


class TestImportWmrline:
    def test_loads_the_solve_layer_only(self):
        assert loaded_by("import wmrline") == SOLVE_LAYER

    def test_first_access_loads_the_owner(self):
        assert loaded_by("import wmrline; wmrline.reverse_optimizer") == sorted([*SOLVE_LAYER, "wmrline.reverse"])
        assert loaded_by("import wmrline; wmrline.qp") == sorted([*SOLVE_LAYER, "wmrline.qp"])

    def test_star_import(self):
        names = loaded_by("from wmrline import *; assert callable(reverse_optimizer) and qp.solve_qp")
        assert names == sorted([*SOLVE_LAYER, *(f"wmrline.{m}" for m in ("martingale", "qp", "reverse", "stability"))])


class TestLazyNames:
    def test_every_public_name_is_its_modules_object(self):
        for name in wmrline.__all__:
            value = getattr(wmrline, name)
            if isinstance(value, types.ModuleType):
                assert value is sys.modules[f"wmrline.{name}"]
            else:
                assert getattr(sys.modules[value.__module__], name) is value
        # a resolved name is kept, so later lookups skip __getattr__
        assert set(wmrline.__all__) <= set(vars(wmrline))

    def test_submodules_resolve(self):
        for name in ("errors", "measures", "wmr", "qp", "martingale", "reverse", "stability"):
            assert getattr(wmrline, name) is sys.modules[f"wmrline.{name}"]
            assert name in wmrline.__all__ and name in dir(wmrline)

    def test_dir_lists_all(self):
        assert set(wmrline.__all__) <= set(dir(wmrline))
        assert "cli" not in wmrline.__all__

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            wmrline.nope  # noqa: B018
        assert not hasattr(wmrline, "check_maximality")


class TestSubcommandModules:
    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["potential", "mu"], []),
            (["check-order", "nu", "mu"], []),
            (["irreducible", "nu", "mu"], []),
            (["wmr", "mu", "nu"], []),
            (["value", "mu", "nu"], []),
            (["plot", "mu", "nu", "--out", "plot.svg"], []),
            (["wmr", "mu", "nu", "--verify"], ["martingale"]),
            (["compose", "mu", "nu"], ["martingale"]),
            (["reverse", "mu", "nu"], ["reverse"]),
            (["stability", "mu", "nu", "--rungs", "2"], ["stability"]),
        ],
        ids=" ".join,
    )
    def test_loads_only_what_it_runs(self, files, argv, extra):
        args = [str(files / f"{a}.csv") if a in ("mu", "nu") else a for a in argv]
        if "--out" in args:
            args[-1] = str(files / args[-1])
        proc = python("-c", PROBE, *args)
        code, loaded = json.loads(proc.stderr.splitlines()[-1])
        assert code == 0
        assert loaded == sorted([*CLI, *(f"wmrline.{m}" for m in extra)])

    def test_module_run_raises_no_warning(self, files):
        # a package __init__ that imported cli would make runpy warn here
        proc = python("-W", "error", "-m", "wmrline.cli", "potential", str(files / "mu.csv"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert '"kind": "potential"' in proc.stdout
