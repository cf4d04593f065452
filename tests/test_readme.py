"""Every ```python block of README.md runs as written.

The blocks run in a directory seeded with the two files they name: a
comma-delimited ``sessions.csv`` with ``%d/%m/%Y`` dates and a table at
``runs/prep/machine_weeks.tsv``, both from one small synthetic population.
A public name that is removed or renamed then breaks this test rather
than a reader's copy of the example.
"""

import io
import re
from pathlib import Path

import pytest

from flocpriv.synth import SynthConfig, generate_population, write_sessions

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


@pytest.fixture(scope="module")
def seeded_dir(tmp_path_factory):
    # 250 machines over 4 weeks: enough for the unicity block's k=200.
    pop = generate_population(SynthConfig(n_machines=250, n_weeks=4, vocab_size=2000, seed=5))
    root = tmp_path_factory.mktemp("readme")
    (root / "runs" / "prep").mkdir(parents=True)
    pop.table.save(str(root / "runs" / "prep" / "machine_weeks.tsv"))
    log = io.StringIO()
    write_sessions(pop, log)
    lines = []
    for line in log.getvalue().splitlines():
        fields = line.split("\t")
        if fields[3] != "date":  # YYYYMMDD -> DD/MM/YYYY
            fields[3] = f"{fields[3][6:]}/{fields[3][4:6]}/{fields[3][:4]}"
        lines.append(",".join(fields) + "\n")
    (root / "sessions.csv").write_text("".join(lines), encoding="utf-8")
    return root


def test_readme_has_the_library_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_python_block_runs(source, seeded_dir, monkeypatch, capsys):
    monkeypatch.chdir(seeded_dir)
    namespace: dict = {"__name__": "readme_example"}
    exec(compile(source, str(README), "exec"), namespace)
    if "parsed" in namespace:  # the session log parses without a reject
        assert namespace["parsed"].rejects.total == 0
        assert len(namespace["built"].table) == 250 * 4
