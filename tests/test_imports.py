"""What importing flocpriv and running a subcommand load.

The package resolves its exports on first use (PEP 562), and each CLI
handler imports the modules it uses, so ``import flocpriv`` loads no
submodule and ``report`` runs without NumPy. The runtime needs NumPy
alone: with SciPy and the test packages made unimportable, every module
imports, every name of ``__all__`` star-imports, and every subcommand runs
with a ``RuntimeWarning`` (a NaN from an empty mean, an overflow) raised
as an error. Each check runs in a fresh interpreter, since this one has
imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from flocpriv.ingest import INCOME_GROUPS, RACE_GROUPS

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code, *args, options=()):
    """The JSON that ``code`` prints, run by a fresh interpreter with
    interpreter ``options`` on ``args``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *options, "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
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


_NUMPY_ONLY = """
import importlib, json, pkgutil, sys
for name in ("scipy", "hypothesis", "mpmath", "pytest"):
    sys.modules[name] = None
import flocpriv
for module in pkgutil.iter_modules(flocpriv.__path__):
    importlib.import_module(f"flocpriv.{module.name}")
from flocpriv import *
from flocpriv.cli import main
print(json.dumps([[argv[0], main(argv)] for argv in json.loads(sys.argv[1])]))
"""


def test_runtime_needs_numpy_only(tmp_path):
    """Every subcommand, on tables of two 8,192-row blocks, of rows of up to
    60 domains, and of 4,000 machines a week (whose k = 1 maps refine deep
    leaves), and preprocess --reference on a log that keeps no machine."""
    (tmp_path / "one-line.tsv").write_text(
        "machine_id\tsession_id\tdomain\tdate\ttime\tpages\tduration\tincome\trace\tzip\n"
        "7\t1\ta.com\t20170101\t12:00:00\t1\t60\t4\t1\t36832\n"
    )
    (tmp_path / "reference.json").write_text(json.dumps({
        attribute: {g: (i + 1) / 10 for i, g in enumerate(groups)}
        for attribute, groups in (("race", RACE_GROUPS), ("income", INCOME_GROUPS))
    }))
    tmp = str(tmp_path)
    synth, deep = f"{tmp}/synth/machine_weeks.tsv", f"{tmp}/deep/machine_weeks.tsv"
    steps = [
        ["ot-control", "--cohorts", "20", "--k", "5", "--out", f"{tmp}/ot"],
        ["synth", "--machines", "60", "--weeks", "2", "--emit", "both", "--out", f"{tmp}/synth"],
        ["preprocess", "--sessions", f"{tmp}/synth/sessions.tsv", "--out", f"{tmp}/pre"],
        ["preprocess", "--sessions", f"{tmp}/synth/sessions.tsv", "--min-domains", "15",
         "--out", f"{tmp}/cutoff"],
        ["synth", "--machines", "60", "--vocab", "200", "--zipf-exponent", "2",
         "--min-domains", "20", "--max-domains", "60", "--emit", "both", "--out", f"{tmp}/heavy"],
        ["preprocess", "--sessions", f"{tmp}/heavy/sessions.tsv", "--out", f"{tmp}/heavy-pre"],
        ["synth", "--machines", "2100", "--weeks", "4", "--seed", "3", "--emit", "both",
         "--out", f"{tmp}/two-blocks"],
        ["preprocess", "--sessions", f"{tmp}/two-blocks/sessions.tsv",
         "--out", f"{tmp}/two-blocks-pre"],
        ["preprocess", "--sessions", f"{tmp}/one-line.tsv", "--reference",
         f"{tmp}/reference.json", "--out", f"{tmp}/no-machines"],
        ["cohorts", "--table", f"{tmp}/pre/machine_weeks.tsv", "--k", "5",
         "--out", f"{tmp}/cohorts"],
        ["unicity", "--table", synth, "--k", "5", "--window", "2", "--out", f"{tmp}/unicity"],
        ["unicity", "--table", synth, "--k", "10", "--window", "2", "--out", f"{tmp}/unicity-k10"],
        ["sweep-k", "--table", synth, "--grid", "5,10", "--window", "2", "--out", f"{tmp}/sweep-k"],
        ["sweep-n", "--table", synth, "--k", "5", "--grid", "30,60", "--window", "2",
         "--out", f"{tmp}/sweep-n"],
        ["t-closeness", "--table", synth, "--k", "5", "--panels", "2", "--target", "empirical",
         "--out", f"{tmp}/t-closeness"],
        ["chisq", "--table", synth, "--control-runs", "1", "--out", f"{tmp}/chisq"],
        ["synth", "--machines", "4000", "--weeks", "1", "--vocab", "2000", "--out", f"{tmp}/deep"],
        ["cohorts", "--table", deep, "--k", "1", "--out", f"{tmp}/cohorts-k1"],
        ["cohorts", "--table", deep, "--k", "2", "--out", f"{tmp}/cohorts-k2"],
        ["sweep-k", "--table", deep, "--grid", "1,5", "--window", "1",
         "--out", f"{tmp}/sweep-k-deep"],
        ["unicity", "--table", deep, "--k", "1", "--window", "1",
         "--out", f"{tmp}/unicity-deep-k1"],
        ["unicity", "--table", deep, "--k", "5", "--window", "1",
         "--out", f"{tmp}/unicity-deep-k5"],
        ["synth", "--machines", "3000", "--weeks", "4", "--out", f"{tmp}/blocks"],
        ["cohorts", "--table", f"{tmp}/blocks/machine_weeks.tsv", "--out", f"{tmp}/blocks-cohorts"],
    ]
    steps.append(["report", *(argv[-1] for argv in steps), "--out", f"{tmp}/report"])
    codes = _python(_NUMPY_ONLY, json.dumps(steps), options=["-W", "error::RuntimeWarning"])
    assert codes == [[argv[0], 0] for argv in steps]
