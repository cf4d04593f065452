"""End-to-end CLI behavior: exit codes, outputs, config files, determinism."""

import json
import tempfile
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocpriv import cli, ingest
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
            ("unicity", ["--table", "t.tsv"], {"k": 2.5}, "k=2.5 is not a valid int"),
            ("unicity", ["--table", "t.tsv"], {"k": True}, "k=True is not a valid int"),
            ("ot-control", [], {"t": "x"}, "t='x' is not a valid float"),
            ("synth", [], {"weeks": None}, "weeks=None is not a valid int"),
        ],
        ids=["int-given-float", "int-given-bool", "float-given-text", "int-given-null"],
    )
    def test_config_value_of_wrong_type_rejected(self, capsys, tmp_path, name, flags, payload, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            _run(name, "--out", out, *flags, "--config", cfg)
        assert exc.value.code == 2
        assert f"config value {message}" in capsys.readouterr().err
        assert not out.exists()


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

        monkeypatch.setattr(cli, "ot_scale_control", out_of_memory)
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

        monkeypatch.setattr(cli, "ot_scale_control", failed_worker)
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
