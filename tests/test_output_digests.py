"""Every CLI output, byte for byte, against pinned SHA-256 digests.

A small seeded workflow runs every subcommand in a scratch directory with
relative paths, so that manifests name no machine-specific path. It runs
``t-closeness`` with and without a shuffled null, and its session log has
one malformed line per reject reason. Every file the workflow leaves
(inputs, outputs and manifests) must match its digest, and no file may be
missing or extra. A change that means to alter an output updates its
digest here and says why.
"""

import hashlib
import json

from flocpriv.cli import main

#: One malformed session line per reject reason, in ``ingest._REASONS`` order.
MALFORMED = (
    "9001\t1\ta.com\n",  # field_count
    "x9001\t1\ta.com\t20170101\t12:00:00\t1\t60\t4\t1\t36832\n",  # bad_integer_field
    "9001\t1\ta.com\t20170101\t12:00:00\t-1\t60\t4\t1\t36832\n",  # negative_count
    "9001\t1\t \t20170101\t12:00:00\t1\t60\t4\t1\t36832\n",  # empty_domain
    "9001\t1\ta.com\t20171301\t12:00:00\t1\t60\t4\t1\t36832\n",  # bad_date
    "9001\t1\ta.com\t20170101\t12:00:00\t1\t60\t99\t1\t36832\n",  # bad_income_code
    "9001\t1\ta.com\t20170101\t12:00:00\t1\t60\t4\t99\t36832\n",  # bad_race_code
)

REFERENCE = {
    "race": {"white": 0.5, "black": 0.17, "asian": 0.17, "other": 0.16},
    "income": {"lt25k": 0.17, "25k_75k": 0.17, "75k_150k": 0.5, "ge150k": 0.16},
}

TABLE = "synth/machine_weeks.tsv"

#: (--out directory, subcommand and its flags), run in order.
STEPS = (
    ("synth", ["synth", "--machines", "80", "--weeks", "4", "--vocab", "400", "--seed", "6",
               "--emit", "both"]),
    ("preprocess", ["preprocess", "--sessions", "sessions.tsv", "--reference", "reference.json"]),
    ("cohorts", ["cohorts", "--table", TABLE, "--k", "8"]),
    ("unicity", ["unicity", "--table", TABLE, "--k", "8", "--window", "4"]),
    ("sweep-k", ["sweep-k", "--table", TABLE, "--grid", "8,16"]),
    ("sweep-n", ["sweep-n", "--table", TABLE, "--k", "8", "--grid", "40,80", "--seed", "5"]),
    ("t-closeness", ["t-closeness", "--table", TABLE, "--k", "10", "--panels", "2",
                     "--shuffles", "2", "--t-grid", "0:0.5:0.05", "--target", "empirical",
                     "--seed", "3"]),
    ("no-shuffle", ["t-closeness", "--table", TABLE, "--k", "10", "--panels", "2",
                    "--shuffles", "0", "--t-grid", "0:0.5:0.1", "--target", "empirical",
                    "--attribute", "race"]),
    ("chisq", ["chisq", "--table", TABLE, "--d-grid", "10,20", "--control-runs", "5"]),
    ("ot-control", ["ot-control", "--cohorts", "12", "--k", "15", "--t", "0.5", "--seed", "2"]),
    ("report", ["report", "synth", "preprocess", "cohorts", "unicity", "sweep-k", "sweep-n",
                "t-closeness", "no-shuffle", "chisq", "ot-control"]),
)

#: SHA-256 of every file under the workflow's directory, by relative path.
DIGESTS = {
    "chisq/chisq.csv": "3f47c6f4999d93c0cfdcc8703b5463a38612fe2c7cf050a57764d9867958f4a2",
    "chisq/chisq.json": "6a747f402b2fcb288304054065be977b2f92eb09497c86f6305c66e231fffa65",
    "chisq/manifest.json": "9b5df39c1cd07f36b77a525c556ecbd90f6ec35a209290c4d89538590397ecee",
    "cohorts/assignments.tsv": "b0c0ab771cdada24045b89258de2bdc2be943f9f2052ef791ad50d7813f96ac3",
    "cohorts/cohort_maps.json": "8a8a6c9504ba4e057d85d15c5b3ac222282bdd155afadf22fb334d30d0eea4f5",
    "cohorts/manifest.json": "0bb3d5fedfb7e8fad342208841a7679d5c7c413bde31a8703abaab81125e6623",
    "no-shuffle/manifest.json": "fb8234e97d87665aa0a507cc148f63386f18b40f5262a028b83fd5ded66b3d4f",
    "no-shuffle/tcloseness_race.csv": "93fa7102a321d162c82ea24c3ecd4898650e70c36cf1d1d36003789abe0e131f",
    "no-shuffle/tcloseness_race.json": "36b96fb019997e4cb86c3b3ce4377107e478b7e236c1bb225e4c6588f1506c18",
    "ot-control/manifest.json": "6cb63419a9cd8b7208ba47d0b74af33e8a73c77522fc9483eb0493ab490cdd20",
    "ot-control/ot_control.json": "adf2d68065e874a4d8cf806ddc05a8b2f5a03a29f09f16e5009074c6d5b3371b",
    "preprocess/ingest_report.json": "20a62829f25ba7bebe2c928fbd0d54cfec69bb15d764dd5667dd7d87d2a1504f",
    "preprocess/machine_weeks.tsv": "aca8f670a5b6ce0b39572ce63a83c7a144b2fd68b8a9275cf3bba1021210d04c",
    "preprocess/manifest.json": "25e42ccf004b0b57a353bec4667b54d6a1bf93253b5974fa9421d00c2bcd53ca",
    "preprocess/rejects.json": "56bf2a3dddf86f5cac7be956205bf7eb5e3a1941b910809c8f7d558ffd7f0999",
    "reference.json": "8412629e51790f944e20215f1f8242bdd24ea2942255db0242916aa4b5349d00",
    "report/manifest.json": "3b6b29352f781240f5963ce28c0e40ddd19e64d2eeb158bfa5c98027339a56a5",
    "report/report.json": "3261e10635bc59b8f45ba3ccca5fa1f9412e1194e9d632dc20d579e195f492d7",
    "sessions.tsv": "614676007312530c3c7cc454079102fd101952d9ef0e56957c90c3175456afd5",
    "sweep-k/manifest.json": "f0b6e7cc753805e6738df75954f8636dbdcd352a194fe794bb992f03df6a880c",
    "sweep-k/sweep_k.csv": "85b5a4f3987af93c06d576b948269fee747b8c9fb3385d5993cf835ae0ca6376",
    "sweep-k/sweep_k.json": "d26a1540007cf825bbdf842c8172761e5cfca9e0a6743fbed4940d40374c616f",
    "sweep-n/manifest.json": "abc606e3e4a377da2f122059920cacbaf3ee1e0ebbfd9f65bead1917dc795517",
    "sweep-n/sweep_n.csv": "741715cdd2542e603c8e6a1061777645cade600de4654f348feb0f27cb8594ed",
    "sweep-n/sweep_n.json": "ce2be8ed46df0569b7c93d2b7113cabe6e9a364a6ea246eb2ebae06428c378a7",
    "synth/demographics.json": "9c6868012d5d85006d0dfb51585913921ba13f792cea3ec1b32f434ec5e30acf",
    "synth/machine_weeks.tsv": "aca8f670a5b6ce0b39572ce63a83c7a144b2fd68b8a9275cf3bba1021210d04c",
    "synth/manifest.json": "c33a4bef8690a0b7b46b2d0a4fa5c2c0f3f244815ae735d56db94da68fa27b96",
    "synth/sessions.tsv": "ee006afc21c0ab7544e8c5a860a62eecab477b39c096f408f8e5273710a3254c",
    "t-closeness/manifest.json": "de2d6789a650a1225bfa7656cd44cc28dc39668c5a9879c13232023b46a8879d",
    "t-closeness/tcloseness_income.csv": "bea6c542b3282aa50ea9c02f390725cd8059e9a5660267aa8f726178820767f3",
    "t-closeness/tcloseness_income.json": "9a9d2ba21c575dc7df074efe14c70476473a5ed0c45714f418aafe6127fdcb1c",
    "t-closeness/tcloseness_race.csv": "8d1c87385b0489e111df070a7ca6c177daa514be5b07c22a64c80ea2d7314138",
    "t-closeness/tcloseness_race.json": "3c07bb59e45f0c93450a67170c270480afcc748e64100176ee9355e097b39a65",
    "unicity/manifest.json": "1ecdccc683f0710c8a5c06d4d98fab3df1938fe5c90538b3f841d8b6cbcc46d6",
    "unicity/unicity.csv": "b5d7fc9826214231e05e76f20b5b8cadc1500a87f99bab629a3e189360be44bc",
    "unicity/unicity.json": "5b55e5c34625bc877d2a9c8e67184dfa80fc8377a04f56c89a787e69a3479e5d",
}


def test_every_output_matches_its_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for out, argv in STEPS:
        assert main([*argv, "--out", out]) == 0, out
        if out == "synth":
            log = (tmp_path / "synth" / "sessions.tsv").read_text(encoding="utf-8")
            (tmp_path / "sessions.tsv").write_text(log + "".join(MALFORMED), encoding="utf-8")
            (tmp_path / "reference.json").write_text(json.dumps(REFERENCE), encoding="utf-8")
    rejects = json.loads((tmp_path / "preprocess" / "rejects.json").read_text())
    assert len(rejects["counts"]) == len(MALFORMED)
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert got == DIGESTS
