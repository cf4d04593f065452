"""End-to-end CLI behavior: exit codes, outputs, config files, determinism."""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocpriv import cli, ingest, sensitivity
from flocpriv.cli import _parse_t_grid, build_parser, main
from flocpriv.ingest import INCOME_GROUPS, RACE_GROUPS
from flocpriv.sensitivity import DEFAULT_T_GRID, OTWorkerError
from flocpriv.fixtures import (
    EXPECTED_FINGERPRINT_FRACTIONS,
    EXPECTED_SEQUENCE_FRACTIONS,
    bundled_table1_sessions,
)


def _run(*argv):
    return main([str(a) for a in argv])


class _ArrayMemoryError(MemoryError):
    """Stands in for the MemoryError subclass NumPy raises on a failed allocation."""


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = _run(
        "synth", "--out", out, "--machines", 60, "--weeks", 4,
        "--vocab", 300, "--seed", 4,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def synth_table(synth_dir):
    return synth_dir / "machine_weeks.tsv"


class TestUsageErrors:
    def test_no_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            _run()
        assert exc.value.code == 2

    def test_missing_required_flags(self, capsys, tmp_path):
        assert _run("synth") == 2
        assert "missing required: --out" in capsys.readouterr().err
        assert _run("cohorts", "--out", tmp_path / "x") == 2
        assert "--table" in capsys.readouterr().err
        assert _run("sweep-n", "--out", tmp_path / "y", "--table", "t.tsv") == 2
        assert "--grid" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("flocpriv ")

    def test_unreadable_config_file(self, capsys, tmp_path):
        assert _run("synth", "--out", tmp_path, "--config", tmp_path / "nope.json") == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for payload in ({"k": 5, "banana": 1}, {"k": 5, "workers": 2}):
            cfg.write_text(json.dumps(payload))
            with pytest.raises(SystemExit) as exc:
                _run("unicity", "--out", tmp_path / "o", "--table", "t.tsv", "--config", cfg)
            assert exc.value.code == 2


    @pytest.mark.parametrize(
        "name, flags, removed",
        [
            ("preprocess", ["--sessions", "s.tsv"], {"seed": 1}),
            ("cohorts", ["--table", "t.tsv"], {"seed": 1}),
            ("unicity", ["--table", "t.tsv"], {"seed": 1}),
            ("sweep-k", ["--table", "t.tsv", "--grid", "5"], {"seed": 1}),
            ("report", [], {"seed": 1}),
            ("ot-control", [], {"chunk_size": 7}),
        ],
        ids=["preprocess-seed", "cohorts-seed", "unicity-seed", "sweep-k-seed", "report-seed",
             "ot-control-chunk-size"],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, name, flags, removed):
        ((dest, value),) = removed.items()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(removed))
        out = tmp_path / "o"
        for extra in ([f"--{dest.replace('_', '-')}", value], ["--config", cfg]):
            with pytest.raises(SystemExit) as exc:
                _run(name, "--out", out, *flags, *extra)
            assert exc.value.code == 2
        assert not out.exists()

    def test_config_file_must_hold_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('["k"]')
        with pytest.raises(SystemExit) as exc:
            _run("unicity", "--out", tmp_path / "o", "--table", "t.tsv", "--config", cfg)
        assert exc.value.code == 2
        assert "must hold a JSON object, not list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, flags, payload",
        [
            ("synth", [], {"emit": "tabel"}),
            ("chisq", ["--table", "t.tsv"], {"attribute": "sex"}),
            ("t-closeness", ["--table", "t.tsv"], {"k": 5, "attribute": "gender"}),
        ],
        ids=["synth-emit", "chisq-attribute", "t-closeness-attribute"],
    )
    def test_config_value_outside_choices_rejected(self, capsys, tmp_path, name, flags, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            _run(name, "--out", out, *flags, "--config", cfg)
        assert exc.value.code == 2
        assert "not among the flag's choices" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, flags, payload, message",
        [
            ("unicity", ["--table", "t.tsv"], {"k": 2.5}, "config value k=2.5 is not a valid int"),
            ("unicity", ["--table", "t.tsv"], {"k": True},
             "config value k=True is not a valid int"),
            ("ot-control", [], {"t": "x"}, "config value t='x' is not a valid float"),
            ("synth", [], {"weeks": None}, "config value weeks=None is not a valid int"),
            ("preprocess", ["--sessions", "s.tsv"], {"implicit_star": "no"},
             "config value implicit_star='no' is not a valid bool"),
            ("cohorts", [], {"table": 0}, "config value table=0 is not a valid str"),
            ("report", [], {"runs": "ab"}, "config value runs='ab' is not a valid list of str"),
            ("report", [], {"runs": 5}, "config value runs=5 is not a valid list of str"),
            ("synth", [], {"out": 5}, "config value out=5 is not a valid str"),
            ("preprocess", ["--sessions", "s.tsv"], {"epoch": 20170101},
             "config value epoch=20170101 is not a valid str"),
            ("synth", [], {"help": "x"}, "unknown config keys: ['help']"),
        ],
        ids=["int-given-float", "int-given-bool", "float-given-text", "int-given-null",
             "bool-given-text", "text-given-int", "list-given-text", "list-given-int",
             "out-given-int", "epoch-given-int", "help-is-no-key"],
    )
    def test_config_value_of_wrong_type_rejected(self, capsys, tmp_path, name, flags, payload, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            _run(name, "--out", out, *flags, "--config", cfg)
        assert exc.value.code == 2
        (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert line.endswith(f"error: {message}")
        assert not out.exists()


#: Each subcommand's int flag, given a bad value on the command line and in
#: a config file; report has none.
_INT_FLAG = {
    "preprocess": "weeks",
    "synth": "machines",
    "cohorts": "k",
    "unicity": "window",
    "sweep-n": "k",
    "sweep-k": "window",
    "t-closeness": "panels",
    "chisq": "control_runs",
    "ot-control": "cohorts",
}


def _message_cases():
    """(id, argv) of each usage case whose messages are pinned. "{unknown}"
    and "{bad}" stand for config files with an unknown key and a bad int value."""
    cases = [
        ("top-none", []),
        ("top-help", ["-h"]),
        ("top-version", ["--version"]),
        ("top-bogus", ["bogus"]),
        ("top-misspelt", ["cohort"]),
        ("top-bogus-flag", ["--bogus"]),
        ("cohorts-bogus-flag-value", ["cohorts", "--bogus", "1"]),
    ]
    for name in ("preprocess", "synth", "cohorts", "unicity", "sweep-n", "sweep-k",
                 "t-closeness", "chisq", "ot-control", "report"):
        cases += [
            (f"{name}-help", [name, "-h"]),
            (f"{name}-bogus-flag", [name, "--bogus"]),
            (f"{name}-missing", [name]),
            (f"{name}-config-unknown", [name, "--config", "{unknown}"]),
        ]
        if name in _INT_FLAG:
            cases += [
                (f"{name}-bad-int", [name, f"--{_INT_FLAG[name].replace('_', '-')}", "x"]),
                (f"{name}-config-bad-int", [name, "--config", "{bad}"]),
            ]
    return cases


_MESSAGE_CASES = _message_cases()


def _message_digest(argv, tmp_path):
    """SHA-256 of main's exit code, stdout and stderr for ``argv``, its
    config files written under ``tmp_path``."""
    unknown, bad = tmp_path / "unknown.json", tmp_path / "bad.json"
    unknown.write_text(json.dumps({"bogus": 1}))
    if argv and argv[0] in _INT_FLAG:
        bad.write_text(json.dumps({_INT_FLAG[argv[0]]: "x"}))
    argv = [str({"{unknown}": unknown, "{bad}": bad}.get(a, a)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


#: ``_message_digest`` of each case at COLUMNS=80, taken from the parser that
#: built every subparser for every argv. argparse words its messages
#: differently from one Python release to the next, so they are compared on
#: the release they were taken on; the two builds are compared on every one.
_MESSAGE_PYTHON = (3, 11, 7)
_MESSAGE_DIGESTS = {
    "top-none": "da8b98264467b02e973c9f4bd05d67b7323188489b7c0ccc64af6251868452b5",
    "top-help": "a3fe2e236b1ad6bdb694170cdce1e36626d8d33f6b7e52b6f592657b90b98326",
    "top-version": "7f2c40af9c32e40cd8b3745d8a88b997e30044e9026a78f1a1465ed03591f3f7",
    "top-bogus": "eb8fbfe7cd4abc09a6b4ba4d0a3fd295f8d91d5d6d854030d8c66f6be915afe8",
    "top-misspelt": "c6c6643cbca128ea6fb2f0f422e943c5e158de2d1cc4a51923a12f1cd060dd79",
    "top-bogus-flag": "da8b98264467b02e973c9f4bd05d67b7323188489b7c0ccc64af6251868452b5",
    "cohorts-bogus-flag-value": "16df22c5e7cf440ae903a86e71f46603834271864102baceec9673a4f8c6c33d",
    "preprocess-help": "71c2d2988d18a64f3caa256317f0ac487b7e1dde893475bfbc1947d2ca0cc877",
    "preprocess-bogus-flag": "482604a20372b298d189d325d3fff8f9466cc70d3fe3fa738e6bce3a275e935f",
    "preprocess-missing": "9e9f97de3775c29d34ba4dcbdc5aa40d58773cbfdcc859719952b65ec7f458d1",
    "preprocess-config-unknown": "505cd29733d1a6440ee6ffe196e6a4966efca6c764d92a9ce570bc7d7759a3f3",
    "preprocess-bad-int": "ca677348e9977750f470ff90a0ee8376ed2d5344ae4d07a2a24a82abe7aa10ea",
    "preprocess-config-bad-int": "5dc7287515bcfa710a825f2a9ad92df6b37995bbba71fbf18154792f2c4f4c8b",
    "synth-help": "01031e82db9cc3357d20dd60a47842839b7c3d4d8c20a626747c6bfee371bfcf",
    "synth-bogus-flag": "482604a20372b298d189d325d3fff8f9466cc70d3fe3fa738e6bce3a275e935f",
    "synth-missing": "66eff83bd4301f379788b0e2713be1c1f8ed49ac3a72b275570de8c0fd0bd4a3",
    "synth-config-unknown": "6fd2a1fe8f1b446cfdd90388a5228c893a8c3a640de6d23ab1754ff300de9279",
    "synth-bad-int": "154ea3fd69fd75e8aeb61db58093aec7d14bb68bc470947cb0695d0b0ce28a73",
    "synth-config-bad-int": "4e23be332aa6002060dfd9b30a43c46f5b108d6e34b41262ecc3f91592916dc3",
    "cohorts-help": "442f5ae1e3420d32a092e9f7fc83312328ea2ac142a2064b17ed606d0abc4548",
    "cohorts-bogus-flag": "482604a20372b298d189d325d3fff8f9466cc70d3fe3fa738e6bce3a275e935f",
    "cohorts-missing": "03630c7bcece41a8880552d16f50baab58c72d73c2d5aabe4d90c6663930994c",
    "cohorts-config-unknown": "33f8c717f22e32dab2d3e2ae182197b55b204985a993412eb98cf8f240c4674b",
    "cohorts-bad-int": "01716e913f33054aae7e039aaeb4ede6884413a84cadcc56a680641a139eb2e6",
    "cohorts-config-bad-int": "f30b293b73ac98ec616b67b9c7703a296c860ecbbd3e07f5115e3b10ca1844f2",
    "unicity-help": "3df87f7b8bd7ada3d1b51aa840a618ba95fd1bfa08fa316868cfcd2f74821839",
    "unicity-bogus-flag": "482604a20372b298d189d325d3fff8f9466cc70d3fe3fa738e6bce3a275e935f",
    "unicity-missing": "45bc1c357168c2388e594c159ff21c50ff638e47970b83d570b81ddd028a28fa",
    "unicity-config-unknown": "7b6282f158c34e08d5ecff6a88568bb5ee6d7900ad76e89568a34952207a866d",
    "unicity-bad-int": "f727b1600fb4a43ce725568fea4b207faa3e8fae5e7d270364e3762e65488cff",
    "unicity-config-bad-int": "c865dcca45a892c16aa18b9ac9b9e922896444e58e46902affd9cf390ccc2380",
    "sweep-n-help": "4b36169f1f44ac7e13a4e60abeaf84af77dee9a55560f5f75fdd46d073684023",
    "sweep-n-bogus-flag": "482604a20372b298d189d325d3fff8f9466cc70d3fe3fa738e6bce3a275e935f",
    "sweep-n-missing": "d95e1176c438c7312cffefb9277de977eaab6fb549c4d766b180fbd998f18ea0",
    "sweep-n-config-unknown": "851ed18bf1247b11f452d5b615b1982162b504de97dedeaa8b811bbd18f772d7",
    "sweep-n-bad-int": "430b252ad84a78bfb37357e02b9cd6e17ac0b0b06e39d225511306e28851a28a",
    "sweep-n-config-bad-int": "9d22aafcc6fe7558506bb23d6473919c8abb9e957519a30efafe9e7896a2a15b",
    "sweep-k-help": "4830f1098f09ea0ed849805a99cbf4a879714326df7a58df2ad857b8aee5d13d",
    "sweep-k-bogus-flag": "482604a20372b298d189d325d3fff8f9466cc70d3fe3fa738e6bce3a275e935f",
    "sweep-k-missing": "d6eb43a99c40bfdf32c1352fe74de107a6ee09647d8c6dd686208d4c9c813bb5",
    "sweep-k-config-unknown": "da98c10190cfcb70e2006af9705925646b7f966fd027552e75f1e40d901ebc7a",
    "sweep-k-bad-int": "bdccea7c12a1b9d3857fc0e7e29939bc69d1e235d80235df798c5b9c916a0ad5",
    "sweep-k-config-bad-int": "45a8a00104f97789374986db3b1bd21064c9446e20dd7d21cf4db8ec2b32dd91",
    "t-closeness-help": "364688fbd964ebe444e10d74e9236fc1788998d3fa3c5fcfb88b84be33d223f6",
    "t-closeness-bogus-flag": "482604a20372b298d189d325d3fff8f9466cc70d3fe3fa738e6bce3a275e935f",
    "t-closeness-missing": "f46844cf8a9d05906d419939de9d4673581370fe972917673fd8ac526b80af61",
    "t-closeness-config-unknown": "c5df3e3f520060541a7b67bb5f61efd80e01a116401a7299b9beda61fe54b8dc",
    "t-closeness-bad-int": "ca6cb7507335b15e8f946d4661c22aa341055c99a62de8b5f0ad3086e5ab080a",
    "t-closeness-config-bad-int": "28d48512a5e878bd9c2e9469c6a7168e4bbf917daed01fd8a58fe37cc3022ece",
    "chisq-help": "09ddc1ff427d5289cb02043ef9a2439f8934c5bfacef3e95d54e1166c2991c5e",
    "chisq-bogus-flag": "482604a20372b298d189d325d3fff8f9466cc70d3fe3fa738e6bce3a275e935f",
    "chisq-missing": "d1bc306ae82799a728da67bbb8cbef70d84f03bbf6a585d9146b6735f56d117d",
    "chisq-config-unknown": "deb8233226fd8b97dac11e9920d0fd246c21248b86bb4562da4af939e1474f65",
    "chisq-bad-int": "4f1eae597311d5ad3265f8a137f5a4e3ffd5e8a61f3df36db70afa3e07a66422",
    "chisq-config-bad-int": "c44b19b9432ac1f639b8a1fc3daff5a7f26d14b89d143e3520b7346b6b24c124",
    "ot-control-help": "bf1875d74b7a8ca9469603142670759f96bcb5cff7d241d6a979b1fd786a1b1d",
    "ot-control-bogus-flag": "482604a20372b298d189d325d3fff8f9466cc70d3fe3fa738e6bce3a275e935f",
    "ot-control-missing": "0e6b1b81d6343a51ca1609f5fc86c3d0ede9f3cea4982eeba9a88dbe0b902a5f",
    "ot-control-config-unknown": "19fc871188615c5924e14f20c5260a0eef189aa001292d8947e11fa19e6e0297",
    "ot-control-bad-int": "a48fdab232023329a061de2650a519ae62b8b2dd1969396408b0cf9ef4619513",
    "ot-control-config-bad-int": "d5dcb8f4f71672cd5d6b2c3fa7947e1d4ff007d4a720d88409a31c9086b1c4e9",
    "report-help": "3f3b16de977570127aba4534ec6b6157f0d8533436f9f773c6cad36bebc61cfa",
    "report-bogus-flag": "482604a20372b298d189d325d3fff8f9466cc70d3fe3fa738e6bce3a275e935f",
    "report-missing": "5015bd39eb44b1e3123fa964bf07eb4ccd9076c02bd19c4590337a4934183b8b",
    "report-config-unknown": "c7e13609bb72c648ae4fae05ed453df590fd5f6c4b0c6078f09626b7b6c9ee72",
}


class TestUsageMessages:
    """main builds only the subparser that argv names first; every usage
    message, help text and exit code stays that of the full build."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.skipif(
        sys.version_info[:3] != _MESSAGE_PYTHON, reason="digests taken on Python 3.11.7"
    )
    @pytest.mark.parametrize("case, argv", _MESSAGE_CASES, ids=[c for c, _ in _MESSAGE_CASES])
    def test_messages_are_pinned(self, tmp_path, case, argv):
        assert _message_digest(argv, tmp_path) == _MESSAGE_DIGESTS[case]

    @pytest.mark.parametrize("argv", [a for _, a in _MESSAGE_CASES],
                             ids=[i for i, _ in _MESSAGE_CASES])
    def test_one_subparser_says_what_every_subparser_says(self, tmp_path, monkeypatch, argv):
        one = _message_digest(argv, tmp_path)
        every = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda subcommand=None: every())
        assert _message_digest(argv, tmp_path) == one

    @pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
    def test_one_subparser_has_the_actions_of_every_subparser(self, name):
        fields = ("option_strings", "dest", "default", "type", "choices", "nargs", "help")
        one_parser, one = build_parser(name)
        every_parser, every = build_parser()
        assert list(one) == [name]
        assert [[getattr(a, f) for f in fields] for a in one[name]._actions] == [
            [getattr(a, f) for f in fields] for a in every[name]._actions
        ]
        assert one[name]._defaults == every[name]._defaults
        assert one[name].prog == every[name].prog
        assert one_parser.format_usage() == every_parser.format_usage()


class TestTGrid:
    @pytest.mark.parametrize(
        "text, values",
        [
            ("0:0.5:0.3", [0.0, 0.3]),
            ("0:0.5:0.2", [0.0, 0.2, 0.4]),
            ("0:0.5:0.01", DEFAULT_T_GRID),
            ("0.1:0.3:0.1", [0.1, 0.2, 0.3]),
        ],
    )
    def test_stop_is_an_inclusive_bound(self, text, values):
        assert _parse_t_grid(text) == values


#: Subcommands that take the sampling seed.
_SEEDED = sorted(
    name for name, sp in build_parser()[1].items() if any(a.dest == "seed" for a in sp._actions)
)


def _write_not_utf8(path, lines):
    """Write ``lines`` to ``path`` with byte 0xff where the third line's second
    tab-separated field starts, and return that byte's column."""
    path.parent.mkdir(parents=True, exist_ok=True)
    column = lines[2].index("\t") + 2
    head = "".join(lines[:2]) + lines[2][: column - 1]
    path.write_bytes(head.encode() + b"\xff" + "".join(lines)[len(head) :].encode())
    return column


class TestPipelineErrors:
    def test_missing_table_file(self, capsys, tmp_path):
        assert _run("unicity", "--out", tmp_path / "o", "--table", tmp_path / "no.tsv") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] in ("FileNotFoundError", "OSError")

    def test_infeasible_k_reports_the_week(self, capsys, tmp_path, synth_table):
        assert _run(
            "cohorts", "--out", tmp_path / "o", "--table", synth_table, "--k", 10_000
        ) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CohortError"
        assert "week 0" in err["message"]

    @pytest.mark.parametrize("machine, week", [(2**64 + 1, 0), (1, 99999999999)])
    def test_out_of_range_table_line_is_a_json_error(self, capsys, tmp_path, machine, week):
        table = tmp_path / "table.tsv"
        table.write_text(
            "machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains\n"
            f"{machine}\t{week}\tAL\twhite\tlt25k\ta.com\n"
        )
        assert _run("cohorts", "--out", tmp_path / "o", "--table", table) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == (
            f"{table}:2: machine_id must fit in int64 and week_index in int32"
        )

    def test_sweep_n_without_a_complete_window_names_that(self, capsys, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text(
            "machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains\n"
            + "".join(
                f"{machine}\t{week}\tAL\twhite\tlt25k\ta.com\n"
                for machine in (-(2**63), 0, 2**63 - 1)
                for week in (-(2**31), 0, 7, 2**31 - 1)
            )
        )
        out = tmp_path / "o"
        assert _run("sweep-n", "--out", out, "--table", table, "--grid", 50) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "CohortError", "message": "no complete 4-week windows to cluster"
        }
        assert not out.exists()

    @pytest.mark.parametrize(
        "reader",
        ["cohorts --table", "preprocess --sessions", "preprocess --psl", "preprocess --reference",
         "synth --target", "t-closeness --target", "ot-control --target", "report"],
    )
    def test_a_byte_that_is_not_utf8_names_its_line(self, capsys, tmp_path, synth_table, reader):
        subcommand, _, flag = reader.partition(" ")
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        if flag == "--table":
            header = "machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains\n"
            lines = [header] + [f"{m}\t0\tAL\twhite\tlt25k\ta.com\n" for m in (1, 2)]
        elif flag == "--sessions":
            lines = bundled_table1_sessions().splitlines(keepends=True)
        else:  # each of these files is decoded whole before it is parsed
            lines = ["{\n", '  "race":\n', '  "a"\t"b"\n', "}\n"]
        if flag:
            path = tmp_path / "input"
            argv = [flag, path]
        else:  # report reads each run directory's manifest.json
            path = tmp_path / "run" / "manifest.json"
            argv = [path.parent]
        column = _write_not_utf8(path, lines)
        argv += {
            "preprocess": [] if flag == "--sessions" else ["--sessions", sessions],
            "t-closeness": ["--table", synth_table, "--k", 10, "--panels", 1],
        }.get(subcommand, [])
        assert _run(subcommand, "--out", tmp_path / "o", *argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": f"{path}:3: not UTF-8: byte 0xff at column {column}",
        }
        assert not (tmp_path / "o").exists()

    def test_a_config_file_not_utf8_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        column = _write_not_utf8(path, ["{\n", '  "k":\n', '  5\t\n', "}\n"])
        assert _run("ot-control", "--out", tmp_path / "o", "--config", path) == 2
        err = capsys.readouterr().err
        assert err == (
            f"flocpriv: cannot read config file: {path}:3: not UTF-8: byte 0xff at column {column}\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "reader",
        ["preprocess --reference", "synth --target", "t-closeness --target", "ot-control --target",
         "report"],
    )
    def test_a_file_that_is_not_json_names_its_line(self, capsys, tmp_path, synth_table, reader):
        subcommand, _, flag = reader.partition(" ")
        if flag:
            path = tmp_path / "input.json"
            argv = [flag, path]
        else:  # report reads each run directory's manifest.json
            path = tmp_path / "run" / "manifest.json"
            argv = [path.parent]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{\n  "race" 1\n}\n')
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        argv += {
            "preprocess": ["--sessions", sessions],
            "t-closeness": ["--table", synth_table, "--k", 10, "--panels", 1],
            "ot-control": ["--cohorts", 5, "--k", 5],
        }.get(subcommand, [])
        assert _run(subcommand, "--out", tmp_path / "o", *argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"{path}:2: not JSON: Expecting ':' delimiter at column 10",
        }
        assert not (tmp_path / "o").exists()

    def test_a_config_file_not_json_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{")
        assert _run("ot-control", "--out", tmp_path / "o", "--config", path) == 2
        assert capsys.readouterr().err == (
            f"flocpriv: cannot read config file: {path}:1: not JSON: "
            "Expecting property name enclosed in double quotes at column 2\n"
        )
        assert not (tmp_path / "o").exists()

    def test_preprocess_rejects_out_of_range_machine_ids(self, tmp_path):
        sessions = tmp_path / "sessions.tsv"
        lines = bundled_table1_sessions().splitlines(keepends=True)
        huge = [f"{2**64 + 1}\t" + line.split("\t", 1)[1] for line in lines[1:]]
        sessions.write_text(lines[0] + "".join(lines[1:] + huge))
        assert _run("preprocess", "--out", tmp_path / "pre", "--sessions", sessions) == 0
        rejects = json.loads((tmp_path / "pre" / "rejects.json").read_text())
        assert rejects["counts"] == {"bad_integer_field": len(huge)}

    # derive_seed takes any integer, so only the check in main stops the
    # subcommands other than synth from sampling with these.
    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["seed=-1", "seed=2**64"])
    @pytest.mark.parametrize("name", _SEEDED)
    def test_seed_outside_64_bits_is_an_error(self, capsys, tmp_path, synth_table, name, seed):
        flags = {
            "synth": ["--machines", 60, "--weeks", 1, "--vocab", 300],
            "sweep-n": ["--table", synth_table, "--k", 10, "--grid", "30,60"],
            "t-closeness": ["--table", synth_table, "--k", 10, "--panels", 1,
                            "--target", "empirical"],
            "chisq": ["--table", synth_table],
            "ot-control": ["--cohorts", 5, "--k", 5],
        }[name]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        out = tmp_path / "o"
        for extra in (["--seed", seed], ["--config", cfg]):
            assert _run(name, "--out", out, *flags, *extra) == 1
            assert json.loads(capsys.readouterr().err) == {
                "error": "ValueError", "message": f"seed must fit in 64 bits, got {seed}",
            }
            assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--weeks", -1, "n_weeks must be at least 1, got -1"),
            ("--min-domains", 0, "min_domains must be at least 1, got 0"),
        ],
        ids=["weeks=-1", "min-domains=0"],
    )
    def test_preprocess_week_range_and_cutoff_are_positive(
        self, capsys, tmp_path, flag, value, message
    ):
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        out = tmp_path / "pre"
        assert _run("preprocess", "--out", out, "--sessions", sessions, flag, value) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("delimiter", ["", "::"])
    def test_preprocess_rejects_bad_delimiter(self, capsys, tmp_path, delimiter):
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        argv = ["preprocess", "--out", tmp_path / "pre", "--sessions", sessions]
        assert _run(*argv, "--delimiter", delimiter) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "ValueError",
            "message": f"delimiter must be one character other than a line break, "
                       f"got {delimiter!r}",
        }
        assert not (tmp_path / "pre").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-k", "--grid", ","], "integer list ',' has no values"),
            (["sweep-n", "--grid", " , ", "--k", 10], "integer list ' , ' has no values"),
            (["sweep-n", "--grid", -5, "--k", 10], "population grid value -5 must be >= 1"),
            (["sweep-n", "--grid", "30,0", "--k", 10], "population grid value 0 must be >= 1"),
            (["chisq", "--d-grid", ","], "integer list ',' has no values"),
            (["t-closeness", "--t-grid", "0.5:0:0.1"], "t-grid '0.5:0:0.1' has no values"),
            (["t-closeness", "--t-grid", ","], "t-grid ',' has no values"),
            (["t-closeness", "--t-grid", "0:inf:0.1"], "bad t-grid '0:inf:0.1'"),
            (["t-closeness", "--t-grid", "nan,0.1"], "bad t-grid 'nan,0.1'"),
            (["t-closeness", "--t-grid", "inf,0.1"], "bad t-grid 'inf,0.1'"),
            (["t-closeness", "--t-grid", "0.1,-inf"], "bad t-grid '0.1,-inf'"),
            (["t-closeness", "--t-grid", "nan:0.5:0.1"], "bad t-grid 'nan:0.5:0.1'"),
            (["t-closeness", "--shuffles", -3], "--shuffles must be non-negative, got -3"),
            (["chisq", "--control-runs", -1], "--control-runs must be non-negative, got -1"),
            (["chisq", "--control-runs", 1, "--control-fraction", 0],
             "control fraction must be in (0, 1], got 0.0"),
            (["chisq", "--control-runs", 1, "--control-fraction", 1.5],
             "control fraction must be in (0, 1], got 1.5"),
            (["chisq", "--control-runs", 1, "--control-fraction", 0.001],
             "control fraction 0.001 of 240 rows samples no row"),
        ],
        ids=[
            "sweep-k-empty-grid", "sweep-n-blank-grid", "sweep-n-negative-grid",
            "sweep-n-zero-in-grid", "chisq-empty-d-grid",
            "t-closeness-descending-t-grid", "t-closeness-empty-t-grid",
            "t-closeness-infinite-t-grid", "t-closeness-nan-in-t-grid",
            "t-closeness-inf-in-t-grid", "t-closeness-minus-inf-in-t-grid",
            "t-closeness-nan-t-grid-start",
            "negative-shuffles", "negative-control-runs",
            "control-fraction-zero", "control-fraction-above-one",
            "control-fraction-samples-no-row",
        ],
    )
    def test_bad_values_fail_and_write_nothing(self, capsys, tmp_path, synth_table, argv, message):
        name, *flags = argv
        if name == "t-closeness":
            flags += ["--k", 10, "--panels", 1]
        out = tmp_path / "o"
        assert _run(name, "--out", out, "--table", synth_table, *flags) == 1
        assert json.loads(capsys.readouterr().err)["message"] == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, flag, payload, error, message",
        [
            ("t-closeness", "--target", {"race": list(RACE_GROUPS), "probabilities": []},
             "ValueError", "joint distribution needs a list under 'income'"),
            ("ot-control", "--target", {"race": list(RACE_GROUPS), "probabilities": []},
             "ValueError", "joint distribution needs a list under 'income'"),
            ("synth", "--target", {"race": list(RACE_GROUPS), "probabilities": []},
             "ValueError", "joint distribution needs a list under 'income'"),
            ("ot-control", "--target", [[0.0625] * 4] * 4,
             "ValueError", "joint distribution must be a JSON object, not list"),
            ("synth", "--target",
             {"race": list(RACE_GROUPS), "income": list(INCOME_GROUPS), "probabilities": [1] * 16},
             "ValueError",
             "joint distribution 'probabilities' must be a list of lists of finite numbers"),
            ("preprocess", "--reference", {"race": {g: 0.25 for g in RACE_GROUPS}},
             "PipelineError", "'income' must map to an object of finite shares"),
            ("preprocess", "--reference", [0.25, 0.25, 0.25, 0.25],
             "PipelineError", "'race' must map to an object of finite shares"),
            ("preprocess", "--reference",
             {"race": {g: 0.25 for g in RACE_GROUPS}, "income": [0.25] * 4},
             "PipelineError", "'income' must map to an object of finite shares"),
            ("preprocess", "--reference",
             {"race": {g: None for g in RACE_GROUPS}, "income": {g: 0.25 for g in INCOME_GROUPS}},
             "PipelineError", "'race' must map to an object of finite shares"),
            ("preprocess", "--reference",
             {"race": {g: 10**400 for g in RACE_GROUPS}, "income": {g: 1 for g in INCOME_GROUPS}},
             "PipelineError", "'race' must map to an object of finite shares"),
        ],
        ids=["t-closeness-target-no-income", "ot-control-target-no-income",
             "synth-target-no-income", "ot-control-target-list", "synth-target-flat",
             "reference-no-income", "reference-list", "reference-income-list",
             "reference-null-shares", "reference-huge-integer-shares"],
    )
    def test_malformed_json_input_is_a_json_error(
        self, capsys, tmp_path, synth_table, name, flag, payload, error, message
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        flags = {
            "t-closeness": ["--table", synth_table, "--k", 10, "--panels", 1],
            "ot-control": ["--cohorts", 5, "--k", 10],
            "synth": ["--machines", 60, "--weeks", 1, "--vocab", 300],
            "preprocess": ["--sessions", sessions],
        }[name]
        out = tmp_path / "o"
        assert _run(name, "--out", out, *flags, flag, path) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        blob = json.loads(err)
        assert blob["error"] == error
        assert blob["message"].endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--t", "nan"], "t must be finite, got nan"),
            (["--t", "inf"], "t must be finite, got inf"),
            (["--ratio", "inf"], "cohort_size_ratio must be finite, got inf"),
            (["--ratio", "nan"], "cohort_size_ratio must be finite, got nan"),
            (["--ratio", "1e308"], "num_cohorts * k * cohort_size_ratio must be finite, got inf"),
            (["--cohorts", "1" + "0" * 400],
             "num_cohorts * k * cohort_size_ratio must be finite, got inf"),
        ],
        ids=["t-nan", "t-inf", "ratio-inf", "ratio-nan", "members-inf", "cohorts-beyond-float"],
    )
    def test_ot_control_rejects_non_finite_values(self, capsys, tmp_path, flags, message):
        out = tmp_path / "o"
        assert _run("ot-control", "--out", out, "--cohorts", 5, "--k", 10, *flags) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("error", [MemoryError, _ArrayMemoryError], ids=["plain", "subclass"])
    def test_memory_error_is_a_one_line_error(self, capsys, tmp_path, monkeypatch, error):
        """A failed allocation (faked here; nothing is allocated) is reported
        like any pipeline failure, under the builtin's name."""
        message = "Unable to allocate 1.16 TiB for an array with shape (10000000000, 16)"

        def out_of_memory(**_):
            raise error(message)

        monkeypatch.setattr(sensitivity, "ot_scale_control", out_of_memory)
        out = tmp_path / "o"
        assert _run("ot-control", "--out", out, "--cohorts", 10**10, "--k", 1, "--ratio", 1) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "MemoryError", "message": message}
        assert not out.exists()

    def test_a_failed_worker_is_a_one_line_error(self, capsys, tmp_path, monkeypatch):
        message = "worker counting members [5, 9) exited with status 1"

        def failed_worker(**_):
            raise OTWorkerError(message)

        monkeypatch.setattr(sensitivity, "ot_scale_control", failed_worker)
        out = tmp_path / "o"
        assert _run("ot-control", "--out", out) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "OTWorkerError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("exponent", ["nan", "1000", "-1000", "10", "30"])
    def test_synth_rejects_zipf_exponents_that_cannot_fill_a_row(self, capsys, tmp_path, exponent):
        out = tmp_path / "o"
        assert _run(
            "synth", "--out", out, "--machines", 5, "--weeks", 1, "--vocab", 200,
            "--zipf-exponent", exponent,
        ) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("zipf_exponent ")
        assert not out.exists()

    def test_report_requires_manifests(self, capsys, tmp_path):
        empty = tmp_path / "not_a_run"
        empty.mkdir()
        assert _run("report", "--out", tmp_path / "o", empty) == 1
        assert "manifest.json" in json.loads(capsys.readouterr().err)["message"]

    def test_report_rejects_repeated_run_names(self, capsys, tmp_path):
        runs = [tmp_path / parent / "run" for parent in ("a", "b")]
        for run in runs:
            run.mkdir(parents=True)
            (run / "manifest.json").write_text("{}")
        assert _run("report", "--out", tmp_path / "o", *runs) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PipelineError"
        assert "also named 'run'" in err["message"]


class TestRunOutputs:
    def test_every_subcommand_pins_inputs_and_outputs(self, tmp_path):
        data = resources.files("flocpriv.data")
        psl = tmp_path / "psl.dat"
        psl.write_text(data.joinpath("public_suffix_list.dat").read_text("utf-8"))
        joint = tmp_path / "joint.json"
        joint.write_text(data.joinpath("joint_default.json").read_text("utf-8"))
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps({
            "race": {g: (i + 1) / 10 for i, g in enumerate(RACE_GROUPS)},
            "income": {g: (i + 1) / 10 for i, g in enumerate(INCOME_GROUPS)},
        }))
        runs = tmp_path / "runs"
        table = runs / "preprocess" / "machine_weeks.tsv"
        # subcommand, flags, manifest input labels, manifest outputs
        cases = [
            ("synth", ["--machines", 60, "--weeks", 3, "--vocab", 300, "--emit", "both",
                       "--target", joint],
             ["target"], ["demographics.json", "machine_weeks.tsv", "sessions.tsv"]),
            ("preprocess", ["--sessions", runs / "synth" / "sessions.tsv", "--psl", psl,
                            "--reference", reference],
             ["psl", "reference", "sessions"],
             ["ingest_report.json", "machine_weeks.tsv", "rejects.json"]),
            ("cohorts", ["--table", table, "--k", 10],
             ["table"], ["assignments.tsv", "cohort_maps.json"]),
            ("unicity", ["--table", table, "--k", 10, "--window", 3],
             ["table"], ["unicity.csv", "unicity.json"]),
            ("sweep-k", ["--table", table, "--grid", "10,20", "--window", 3],
             ["table"], ["sweep_k.csv", "sweep_k.json"]),
            ("sweep-n", ["--table", table, "--k", 10, "--grid", "30,60", "--window", 3],
             ["table"], ["sweep_n.csv", "sweep_n.json"]),
            ("t-closeness", ["--table", table, "--k", 10, "--panels", 1, "--shuffles", 1,
                             "--t-grid", "0:0.2:0.1", "--target", "empirical",
                             "--attribute", "race"],
             ["table"], ["tcloseness_race.csv", "tcloseness_race.json"]),
            ("chisq", ["--table", table, "--d-grid", "10", "--control-runs", 1],
             ["table"], ["chisq.csv", "chisq.json"]),
            ("ot-control", ["--cohorts", 5, "--k", 10, "--target", joint],
             ["target"], ["ot_control.json"]),
        ]
        cases.append(("report", [runs / name for name, *_ in cases], [], ["report.json"]))
        for name, flags, inputs, outputs in cases:
            out = runs / name
            assert _run(name, "--out", out, *flags) == 0, name
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["subcommand"] == name
            assert sorted(manifest["inputs"]) == inputs, name
            assert manifest["outputs"] == outputs, name
            assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])
        report = json.loads((runs / "preprocess" / "ingest_report.json").read_text())
        assert sorted(report["representativeness"]) == ["income", "race"]

    def test_constant_reference_shares_have_no_correlation(self, tmp_path):
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps({
            "race": {g: 0.25 for g in RACE_GROUPS},
            "income": {g: (i + 1) / 10 for i, g in enumerate(INCOME_GROUPS)},
        }))
        out = tmp_path / "pre"
        assert _run("preprocess", "--out", out, "--sessions", sessions, "--reference", reference) == 0
        fits = json.loads((out / "ingest_report.json").read_text())["representativeness"]
        assert fits["race"] == {"r": None, "p_value": None, "reason": "constant shares"}
        assert sorted(fits["income"]) == ["p_value", "r"]

    def test_reference_on_a_table_without_machines_has_no_correlation(self, tmp_path):
        # The log's only machine-week has one domain, below --min-domains.
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions().splitlines(keepends=True)[0]
                            + "7\t1\ta.com\t20170101\t12:00:00\t1\t60\t4\t1\t36832\n")
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps({
            "race": {g: (i + 1) / 10 for i, g in enumerate(RACE_GROUPS)},
            "income": {g: (i + 1) / 10 for i, g in enumerate(INCOME_GROUPS)},
        }))
        out = tmp_path / "pre"
        assert _run("preprocess", "--out", out, "--sessions", sessions, "--reference", reference) == 0
        assert (out / "machine_weeks.tsv").read_text().count("\n") == 1  # the header alone
        fits = json.loads((out / "ingest_report.json").read_text())["representativeness"]
        no_fit = {"r": None, "p_value": None, "reason": "no machines"}
        assert fits == {"race": no_fit, "income": no_fit}

    def test_failed_run_writes_nothing(self, capsys, tmp_path):
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        out = tmp_path / "pre"
        assert _run(
            "preprocess", "--out", out, "--sessions", sessions,
            "--reference", tmp_path / "missing.json",
        ) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
        assert not out.exists()


class _ReadRecorder:
    """A parsed namespace that records which of its attributes are read."""

    def __init__(self, args):
        self._args = args
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


class TestEveryFlagIsRead:
    def test_each_handler_reads_each_of_its_flags(self, tmp_path, synth_dir, synth_table):
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        table = ["--table", synth_table]
        cases = {
            "synth": ["--machines", 60, "--weeks", 1, "--vocab", 300],
            "preprocess": ["--sessions", sessions],
            "cohorts": [*table, "--k", 10],
            "unicity": [*table, "--k", 10],
            "sweep-n": [*table, "--k", 10, "--grid", "30,60"],
            "sweep-k": [*table, "--grid", "10,20"],
            "t-closeness": [*table, "--k", 10, "--panels", 1, "--target", "empirical"],
            # --control-fraction is read only when there is a control run
            "chisq": [*table, "--control-runs", 1],
            "ot-control": ["--cohorts", 5, "--k", 10],
            "report": [synth_dir],
        }
        parser, registry = build_parser()
        assert sorted(cases) == sorted(registry)
        for name, flags in cases.items():
            args = parser.parse_args([name, *map(str, flags)])
            recorder = _ReadRecorder(args)
            args.func(recorder)
            dests = {a.dest for a in registry[name]._actions} - {"help", "out", "config"}
            assert dests - recorder.read == set(), name


class TestSynthCommand:
    def test_outputs_and_manifest(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["config"]["machines"] == 60
        assert "out" not in manifest["config"]
        assert manifest["outputs"] == ["demographics.json", "machine_weeks.tsv"]
        demo = json.loads((synth_dir / "demographics.json").read_text())
        assert demo["n_machines"] == 60

    def test_reruns_are_byte_identical_across_directories(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert _run(
            "synth", "--out", again, "--machines", 60, "--weeks", 4,
            "--vocab", 300, "--seed", 4,
        ) == 0
        for name in ("machine_weeks.tsv", "demographics.json", "manifest.json"):
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()

    def test_sessions_round_trip_through_preprocess(self, tmp_path):
        emit = tmp_path / "emit"
        assert _run(
            "synth", "--out", emit, "--machines", 25, "--weeks", 2,
            "--vocab", 200, "--seed", 8, "--emit", "both",
        ) == 0
        pre = tmp_path / "pre"
        assert _run("preprocess", "--out", pre, "--sessions", emit / "sessions.tsv") == 0
        assert (pre / "machine_weeks.tsv").read_bytes() == (
            emit / "machine_weeks.tsv"
        ).read_bytes()
        report = json.loads((pre / "ingest_report.json").read_text())
        assert report["n_machines"] == 25
        assert json.loads((pre / "rejects.json").read_text())["total"] == 0

    def test_session_log_and_table_are_written_as_they_are_formatted(self, tmp_path, monkeypatch):
        """synth --emit both holds one block of its outputs at a time: with
        256-row blocks its traced peak stays under the size of the session
        log, which a log held whole and then joined into a copy doubles."""
        monkeypatch.setattr(ingest, "_BLOCK", 256)
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = _run(
                "synth", "--out", out, "--machines", 2000, "--weeks", 4,
                "--vocab", 2000, "--emit", "both",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        log = (out / "sessions.tsv").stat().st_size
        assert log > 6_000_000
        assert peak < log


#: Session lines failing one check each, so rejects.json keeps one sample
#: per reason whatever the line order.
_BAD_SESSION_LINES = [
    "1\t2\tsite00001.com",
    "1\t2\tsite00001.com\t20171301\t12:00:00\t1\t60\t4\t1\t36832",
    "1\t2\tsite00001.com\t20170101\t12:00:00\t1\t60\t4\t99\t36832",
]


def _preprocess(header, lines, *flags):
    """preprocess's output files, by name, for a log of ``lines`` after ``header``."""
    with tempfile.TemporaryDirectory() as tmp:
        sessions, out = Path(tmp) / "sessions.tsv", Path(tmp) / "pre"
        sessions.write_text("\n".join([header, *lines]) + "\n")
        assert _run("preprocess", "--out", out, "--sessions", sessions, *flags) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def session_log(tmp_path_factory):
    """Header and lines of a synth session log with no demographic conflict."""
    out = tmp_path_factory.mktemp("sessions")
    assert _run(
        "synth", "--out", out, "--machines", 12, "--weeks", 2, "--vocab", 100,
        "--seed", 2, "--emit", "sessions",
    ) == 0
    header, *lines = (out / "sessions.tsv").read_text().splitlines()
    return header, lines + _BAD_SESSION_LINES


class TestDemographicConflicts:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_shuffled_log_without_conflicts_gives_the_same_outputs(self, session_log, data):
        header, lines = session_log
        shuffled = data.draw(st.permutations(lines))
        expected = _preprocess(header, lines)
        assert sorted(expected) == ["ingest_report.json", "machine_weeks.tsv", "rejects.json"]
        assert json.loads(expected["rejects.json"])["total"] == len(_BAD_SESSION_LINES)
        assert _preprocess(header, shuffled) == expected

    def test_first_line_sets_demographics_and_others_conflict(self):
        header = "machine_id\tsession_id\tdomain\tdate\ttime\tpages\tduration\tincome\trace\tzip"
        a, b = ("\t".join(["1", "1", f"{name}.com", "20170101", "12:00:00", "1", "60", "4", race,
                           "36832"]) for name, race in (("a", "1"), ("b", "2")))
        for lines, conflicts, race in (([a, a, b], 1, "white"), ([b, a, a], 2, "black")):
            files = _preprocess(header, lines, "--min-domains", 1)
            report = json.loads(files["ingest_report.json"])
            assert report["demographic_conflicts"] == conflicts
            (row,) = files["machine_weeks.tsv"].decode().splitlines()[1:]
            assert row.split("\t")[3] == race


#: Lines that preprocess counts but keeps out of the table, or that add to it
#: once: the rejected lines above, an IP literal (no registrable domain), a
#: date before week 0, a domain machine 1 may already list in week 0, and a
#: one-domain machine-week (below a --min-domains above 1).
_COUNTED_LINES = [
    *_BAD_SESSION_LINES,
    "1\t2\t10.0.0.1\t20170101\t12:00:00\t1\t60\t4\t1\t36832",
    "1\t2\tsite00001.com\t20161231\t12:00:00\t1\t60\t4\t1\t36832",
    "1\t2\tsite00001.com\t20170101\t12:00:00\t1\t60\t4\t1\t36832",
    "99\t2\tsite00001.com\t20170101\t12:00:00\t1\t60\t4\t1\t36832",
]

#: The fields of ingest_report.json that count lines. Writing every line of
#: a log twice doubles these, and rejects.json's "total" and "counts", and
#: changes no other field of the two reports.
_LINE_COUNTS = ("n_records", "rejected_domains", "weeks_out_of_range", "demographic_conflicts")


class TestRepeatedLines:
    @settings(max_examples=15, deadline=None)
    @given(
        machines=st.integers(1, 6),
        weeks=st.integers(1, 3),
        seed=st.integers(0, 2**32),
        min_domains=st.integers(1, 12),
        in_place=st.booleans(),
        data=st.data(),
    )
    def test_writing_every_line_twice_changes_only_line_counts(
        self, machines, weeks, seed, min_domains, in_place, data
    ):
        with tempfile.TemporaryDirectory() as tmp:
            assert _run(
                "synth", "--out", tmp, "--machines", machines, "--weeks", weeks, "--vocab", 100,
                "--seed", seed, "--emit", "sessions",
            ) == 0
            header, *lines = (Path(tmp) / "sessions.tsv").read_text().splitlines()
        for line in data.draw(st.lists(st.sampled_from(_COUNTED_LINES), max_size=6)):
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        twice = [line for line in lines for _ in "ab"] if in_place else lines + lines
        once = _preprocess(header, lines, "--min-domains", min_domains)
        doubled = _preprocess(header, twice, "--min-domains", min_domains)
        assert doubled["machine_weeks.tsv"] == once["machine_weeks.tsv"]
        report, report2 = (json.loads(files["ingest_report.json"]) for files in (once, doubled))
        assert report2 == {**report, **{field: 2 * report[field] for field in _LINE_COUNTS}}
        rejects, rejects2 = (json.loads(files["rejects.json"]) for files in (once, doubled))
        # samples are each reason's first five lines, now of the doubled log
        assert rejects2 == {
            "total": 2 * rejects["total"],
            "counts": {reason: 2 * n for reason, n in rejects["counts"].items()},
            "samples": {
                reason: ([s for s in seen for _ in "ab"] if in_place else seen + seen)[:5]
                for reason, seen in rejects["samples"].items()
            },
        }


class TestAnalysisPipeline:
    def test_cohorts_then_unicity(self, tmp_path, synth_table):
        cohorts_dir = tmp_path / "cohorts"
        assert _run(
            "cohorts", "--out", cohorts_dir, "--table", synth_table, "--k", 12
        ) == 0
        assignments = (cohorts_dir / "assignments.tsv").read_text().splitlines()
        assert assignments[0] == "machine_id\tweek_index\tcohort_id"
        assert len(assignments) == 1 + 60 * 4
        maps = json.loads((cohorts_dir / "cohort_maps.json").read_text())
        assert sorted(maps) == ["0", "1", "2", "3"]
        assert all(m["k"] == 12 for m in maps.values())

        uni_dir = tmp_path / "unicity"
        assert _run(
            "unicity", "--out", uni_dir, "--table", synth_table, "--k", 12, "--window", 4
        ) == 0
        blob = json.loads((uni_dir / "unicity.json").read_text())
        assert [h["horizon"] for h in blob["horizons"]] == [1, 2, 3, 4]
        fracs = [h["frac_sequence"] for h in blob["horizons"]]
        assert fracs == sorted(fracs)

    def test_sweeps(self, tmp_path, synth_table):
        n_dir = tmp_path / "sweepn"
        assert _run(
            "sweep-n", "--out", n_dir, "--table", synth_table,
            "--k", 12, "--grid", "30,60", "--window", 4,
        ) == 0
        points = json.loads((n_dir / "sweep_n.json").read_text())["points"]
        assert [p["n_machines"] for p in points] == [30, 60]

        k_dir = tmp_path / "sweepk"
        assert _run(
            "sweep-k", "--out", k_dir, "--table", synth_table,
            "--grid", "12,30", "--window", 4,
        ) == 0
        points = json.loads((k_dir / "sweep_k.json").read_text())["points"]
        assert [p["k"] for p in points] == [12, 30]
        assert points[0]["frac_sequence"] >= points[1]["frac_sequence"]

    def test_t_closeness(self, tmp_path, synth_table):
        out = tmp_path / "tc"
        assert _run(
            "t-closeness", "--out", out, "--table", synth_table,
            "--k", 10, "--panels", 2, "--shuffles", 1,
            "--t-grid", "0:0.2:0.1", "--target", "empirical",
        ) == 0
        for attribute in ("race", "income"):
            blob = json.loads((out / f"tcloseness_{attribute}.json").read_text())
            assert [p["t"] for p in blob["points"]] == [0.0, 0.1, 0.2]
            assert blob["n_panels"] == 8  # 4 weeks x 2 panels
            csv = (out / f"tcloseness_{attribute}.csv").read_text().splitlines()
            assert csv[0] == "t,mean,ci_low,ci_high,shuffle_baseline,binomial_baseline"

    def test_chisq_with_control(self, tmp_path, synth_table):
        out = tmp_path / "chisq"
        assert _run(
            "chisq", "--out", out, "--table", synth_table,
            "--d-grid", "10,20", "--attribute", "race", "--control-runs", 3,
        ) == 0
        csv = (out / "chisq.csv").read_text().splitlines()
        assert csv[0] == "attribute,group,D,statistic,p_value"
        assert len(csv) == 1 + 2 * 4
        blob = json.loads((out / "chisq.json").read_text())
        assert blob["control"]["runs"] == 3
        assert len(blob["control"]["p_values"]) == 3

    def test_ot_control(self, tmp_path):
        out = tmp_path / "ot"
        assert _run(
            "ot-control", "--out", out, "--cohorts", 10, "--k", 10,
            "--ratio", 1.5, "--t", 0.9, "--seed", 3,
        ) == 0
        blob = json.loads((out / "ot_control.json").read_text())
        assert blob["violations"] == {"income": 0, "race": 0}
        assert blob["n_members"] == 150

    def test_report_aggregates_runs(self, tmp_path, synth_dir):
        out = tmp_path / "report"
        assert _run("report", "--out", out, synth_dir) == 0
        blob = json.loads((out / "report.json").read_text())
        (key,) = blob.keys()
        assert blob[key]["manifest"]["subcommand"] == "synth"
        assert "machine_weeks.tsv" in blob[key]["files"]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, synth_table):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 7, "window": 2}))
        out = tmp_path / "o"
        assert _run(
            "unicity", "--out", out, "--table", synth_table,
            "--config", cfg, "--k", 9,
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["k"] == 9  # flag beats file
        assert manifest["config"]["window"] == 2  # file beats default
        blob = json.loads((out / "unicity.json").read_text())
        assert blob["k"] == 9 and blob["window"] == 2

    def test_valid_config_gives_the_manifest_of_its_flags(self, tmp_path, synth_table):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 30, "window": 2}))
        by_file, by_flags = tmp_path / "file", tmp_path / "flags"
        assert _run("unicity", "--out", by_file, "--table", synth_table, "--config", cfg) == 0
        assert _run("unicity", "--out", by_flags, "--table", synth_table, "--k", 30, "--window", 2) == 0
        for name in ("manifest.json", "unicity.json"):
            assert (by_file / name).read_text() == (by_flags / name).read_text()

    def test_null_is_accepted_where_it_is_the_default(self, tmp_path):
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weeks": None}))
        out = tmp_path / "pre"
        assert _run("preprocess", "--out", out, "--sessions", sessions, "--config", cfg) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["weeks"] is None

    def test_a_bool_flag_takes_a_bool(self, tmp_path):
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        cfg = tmp_path / "cfg.json"
        for value in (False, True):
            cfg.write_text(json.dumps({"implicit_star": value}))
            out = tmp_path / f"pre-{value}"
            assert _run("preprocess", "--out", out, "--sessions", sessions, "--config", cfg) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["implicit_star"] is value


class TestWorkedExampleThroughCli:
    def test_table1_fractions(self, tmp_path):
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        pre = tmp_path / "pre"
        assert _run("preprocess", "--out", pre, "--sessions", sessions) == 0
        out = tmp_path / "uni"
        assert _run(
            "unicity", "--out", out, "--table", pre / "machine_weeks.tsv",
            "--k", 3, "--window", 3,
        ) == 0
        blob = json.loads((out / "unicity.json").read_text())
        assert blob["n_samples"] == 6
        assert tuple(h["frac_sequence"] for h in blob["horizons"]) == (
            EXPECTED_SEQUENCE_FRACTIONS
        )
        assert tuple(h["frac_fingerprint"] for h in blob["horizons"]) == (
            EXPECTED_FINGERPRINT_FRACTIONS
        )
        assert blob["cohorts_per_position"] == [2, 2, 2]

    def test_manifest_pins_input_bytes(self, tmp_path):
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(bundled_table1_sessions())
        pre = tmp_path / "pre"
        assert _run("preprocess", "--out", pre, "--sessions", sessions) == 0
        manifest = json.loads((pre / "manifest.json").read_text())
        digest = manifest["inputs"]["sessions"]["sha256"]
        import hashlib

        assert digest == hashlib.sha256(sessions.read_bytes()).hexdigest()
