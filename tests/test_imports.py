"""What importing flocpriv and running a subcommand load.

The package resolves its exports on first use (PEP 562), and each CLI
handler imports the modules it uses, so ``import flocpriv`` loads no
submodule and ``report`` runs without NumPy. Each check runs in a fresh
interpreter, since this one has imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code, *args):
    """The JSON that ``code`` prints, run by a fresh interpreter on ``args``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


_LOADED = """
import contextlib, io, json, sys
from flocpriv.cli import main
loaded = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
    loaded[" ".join(argv[:2])] = sorted(
        m for m in sys.modules if m == "numpy" or m.startswith("flocpriv")
    )
print(json.dumps(loaded))
"""


def test_report_version_and_help_run_without_numpy(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(json.dumps({"subcommand": "synth"}))
    (run / "demographics.json").write_text("{}")
    argvs = [
        ["report", str(run), "--out", str(tmp_path / "report")],
        ["--version"],
        *([name, "-h"] for name in ("preprocess", "synth", "ot-control", "report", "cohorts")),
    ]
    loaded = _python(_LOADED, json.dumps(argvs))
    cli_only = ["flocpriv", "flocpriv.cli", "flocpriv.hashing", "flocpriv.manifest"]
    assert loaded == {" ".join(argv[:2]): cli_only for argv in argvs}
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert report == {
        "run": {"manifest": {"subcommand": "synth"}, "files": ["demographics.json"]}
    }


def test_a_table_subcommand_imports_what_it_uses(tmp_path):
    argv = ["synth", "--machines", "20", "--weeks", "1", "--vocab", "200",
            "--out", str(tmp_path / "synth")]
    (loaded,) = _python(_LOADED, json.dumps([argv])).values()
    assert "numpy" in loaded
    assert "flocpriv.unicity" not in loaded and "flocpriv.sensitivity" not in loaded


def test_import_flocpriv_imports_no_submodule():
    assert _python(
        "import json, sys, flocpriv\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('flocpriv'))))"
    ) == ["flocpriv"]


_STAR = """
import importlib, json, pkgutil, sys
import flocpriv
if sys.argv[1] == "submodules first":  # each binds itself on the package
    for module in pkgutil.iter_modules(flocpriv.__path__):
        importlib.import_module(f"flocpriv.{module.name}")
namespace = {}
exec("from flocpriv import *", namespace)

def defined_in_its_module(name):
    module = getattr(namespace[name], "__module__", None) or ""
    return module.startswith("flocpriv.") and getattr(
        sys.modules[module], name, None) is namespace[name]

wrong = [name for name in flocpriv.__all__ if name != "__version__"
         and not defined_in_its_module(name)]
print(json.dumps({
    "wrong": wrong,
    "version": namespace["__version__"] == flocpriv.__version__,
    "dir": sorted(set(flocpriv.__all__) - set(dir(flocpriv))),
}))
"""


def test_star_import_binds_each_name_to_its_defining_module():
    for order in ("star first", "submodules first"):
        assert _python(_STAR, order) == {"wrong": [], "version": True, "dir": []}, order
