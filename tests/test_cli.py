import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netchoice
from netchoice.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, derive_seed, main

INTERACTIONS = """actor_id,site_id,kind,timestamp,update_id
e,s1,guestbook,300,
f,s2,comment,400,ub1
a,s2,amp,,ub1
b,s1,guestbook,500,
a,s1,guestbook,600,
e,s3,guestbook,700,
f,s4,guestbook,800,
d,s2,guestbook,900,
e,s2,guestbook,950,
f,s1,guestbook,980,
b,s3,guestbook,1000,
a,s4,guestbook,1100,
e,s4,guestbook,1200,
d,s1,guestbook,1300,
"""

UPDATES = """author_id,site_id,update_id,timestamp,role_label
a,s1,ua1,100,CG
a,s1,ua2,200,CG
b,s2,ub1,150,P
c,s3,uc1,120,CG
c,s3,uc2,180,P
d,s4,ud1,50,CG
"""

GEO = "author_id,timestamp,state\n" + "".join(
    f"a,{i},MN\n" for i in range(12)
) + "".join(f"b,{i},MN\n" for i in range(12)) + "".join(f"c,{i},CA\n" for i in range(12))

INITIATIONS = """# config_hash=0
initiator,receiver,time,itype,is_reciprocal,initiator_was_isolate
a,b,5,joining_isolates,1,1
b,a,6,intra_component,1,0
c,a,9,joining_component,0,1
"""

SITES = """site_id,health_condition,created
s1,Cancer,10
s2,Cancer,20
s3,Injury,30
s4,,40
"""


@pytest.fixture
def world(tmp_path):
    paths = {}
    for name, text in [
        ("interactions.csv", INTERACTIONS),
        ("updates.csv", UPDATES),
        ("geo.csv", GEO),
        ("sites.csv", SITES),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name.split(".")[0]] = str(p)
    paths["out"] = str(tmp_path / "out")
    return paths


def run(argv):
    return main(argv)


def base_args(world, *extra):
    return [
        "--interactions", world["interactions"],
        "--updates", world["updates"],
        "--out-dir", world["out"],
        *extra,
    ]


class TestPipelineCommands:
    def test_ingest(self, world, tmp_path, capsys):
        assert run(["ingest", *base_args(world)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "throughput" in printed
        summary = json.loads((tmp_path / "out" / "ingest_summary.json").read_text())
        assert summary["interaction_events"] == 14
        assert summary["update_events"] == 6
        assert "config_hash" in summary

    def test_project(self, world, tmp_path):
        assert run(["project", *base_args(world)]) == EXIT_OK
        lines = (tmp_path / "out" / "projected.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "source_author,target_author,timestamp,kind,via_site"
        summary = json.loads((tmp_path / "out" / "project_summary.json").read_text())
        assert summary["self_interactions_removed"] == 1  # a's guestbook on own site s1
        assert summary["directed_interactions"] == len(lines) - 2

    def test_network(self, world, tmp_path):
        assert run(["network", *base_args(world)]) == EXIT_OK
        edges = (tmp_path / "out" / "edges.csv").read_text().splitlines()
        assert edges[1] == "source,target,first_time,interaction_count"
        share = (tmp_path / "out" / "wcc_share.csv").read_text().splitlines()
        assert share[1] == "time,activated,largest_size,share"
        summary = json.loads((tmp_path / "out" / "network_summary.json").read_text())
        assert summary["edges"] >= 5
        assert 0 < summary["largest_wcc_share"] <= 1

    def test_initiations_and_report(self, world, tmp_path, capsys):
        assert run(["initiations", *base_args(world)]) == EXIT_OK
        init_csv = tmp_path / "out" / "initiations.csv"
        assert init_csv.exists()
        assert run(["authors", "--updates", world["updates"], "--geo-posts", world["geo"],
                    "--site-conditions", world["sites"], "--out-dir", world["out"]]) == EXIT_OK
        authors_csv = tmp_path / "out" / "authors.csv"
        text = authors_csv.read_text()
        assert "a,Mixed" not in text  # a is pure CG
        assert run(["report", "--initiations", str(init_csv), "--authors", str(authors_csv),
                    "--out-dir", world["out"]]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_initiations"] > 0
        assert abs(sum(report["type_shares"].values()) - 1.0) < 1e-12
        assert "same_state_share" in report

    def test_report_empty_initiations(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("initiator,receiver,time,itype,is_reciprocal,initiator_was_isolate\n")
        out = tmp_path / "out"
        assert run(["report", "--initiations", str(empty), "--out-dir", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["n_initiations"] == 0

    def test_features_and_sample(self, world, tmp_path):
        assert run(["features", *base_args(world), "--site-conditions", world["sites"]]) == EXIT_OK
        lines = (tmp_path / "out" / "features.csv").read_text().splitlines()
        assert lines[1].startswith("initiator,receiver,time,censored_log_target_outdegree")
        assert run(["sample", *base_args(world), "--negatives", "2", "--seed", "9"]) == EXIT_OK
        jsonl = (tmp_path / "out" / "choices.jsonl").read_text().splitlines()
        meta = json.loads(jsonl[0])["meta"]
        assert meta["n_negatives"] == 2
        first = json.loads(jsonl[1])
        assert set(first) == {"chooser", "time", "alternatives", "chosen", "X", "feature_names"}
        summary = json.loads((tmp_path / "out" / "sample_summary.json").read_text())
        assert summary["instances"] == len(jsonl) - 1


class TestFitCommands:
    def test_fit_mnl_closed_form(self, tmp_path):
        # Three of four identical binary choice sets pick the x=1 alternative.
        path = tmp_path / "choices.jsonl"
        rows = []
        for i, chosen in enumerate([0, 0, 0, 1]):
            rows.append(json.dumps({
                "chooser": "c", "time": i, "alternatives": ["p", "q"], "chosen": chosen,
                "X": [[1.0], [0.0]], "feature_names": ["x"],
            }))
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = run(["fit-mnl", "--choices", str(path), "--out-dir", str(out),
                    "--train-frac", "0.9", "--config", str(_window_config(tmp_path, 0, 100))])
        assert code == EXIT_OK
        model = json.loads((out / "model_mnl.json").read_text())
        assert model["coefficients"][0] == pytest.approx(math.log(3.0), abs=1e-6)
        assert model["n_train"] == 4
        assert (out / "model_mnl.txt").exists()

    def test_fit_logit(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 2000
        x = rng.normal(size=n)
        z = rng.integers(0, 2, size=n).astype(float)
        eta = 0.4 - 0.9 * x + 0.6 * x * z
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-eta))).astype(int)
        data = tmp_path / "data.csv"
        with open(data, "w") as fh:
            fh.write("y,x,z\n")
            for row in zip(y, x, z):
                fh.write(f"{row[0]},{row[1]},{row[2]}\n")
        out = tmp_path / "out"
        assert run(["fit-logit", "--data", str(data), "--outcome", "y",
                    "--features", "x,z,x:z", "--out-dir", str(out)]) == EXIT_OK
        model = json.loads((out / "model_logit.json").read_text())
        assert model["feature_names"] == ["(intercept)", "x", "z", "x:z"]
        assert model["converged"]

    def test_fit_ols_with_anova(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 300
        x = rng.normal(size=n)
        noise = rng.normal(size=n)
        y = 2.0 + 1.5 * x + rng.normal(size=n)
        data = tmp_path / "data.csv"
        with open(data, "w") as fh:
            fh.write("y,x,noise\n")
            for row in zip(y, x, noise):
                fh.write(f"{row[0]},{row[1]},{row[2]}\n")
        out = tmp_path / "out"
        assert run(["fit-ols", "--data", str(data), "--outcome", "y",
                    "--features", "x,noise", "--drop", "noise", "--out-dir", str(out)]) == EXIT_OK
        model = json.loads((out / "model_ols.json").read_text())
        assert model["anova"]["df"][0] == 1
        assert model["anova"]["p_value"] > 0.001  # noise column: typically insignificant
        assert model["r_squared"] > 0.5

    def test_fit_ols_collinear_exits_2(self, tmp_path):
        data = tmp_path / "data.csv"
        with open(data, "w") as fh:
            fh.write("y,x,x2\n")
            for i in range(30):
                fh.write(f"{i * 1.0},{i * 1.0},{i * 2.0}\n")
        assert run(["fit-ols", "--data", str(data), "--outcome", "y",
                    "--features", "x,x2", "--out-dir", str(tmp_path / "out")]) == EXIT_NUMERICAL


class TestUtilityCommands:
    def test_bbse(self, tmp_path):
        holdout = tmp_path / "holdout.csv"
        rows = ["prediction,label"]
        rows += ["CG,CG"] * 40 + ["P,CG"] * 10 + ["P,P"] * 40 + ["CG,P"] * 10
        holdout.write_text("\n".join(rows) + "\n")
        marginal = tmp_path / "marginal.json"
        marginal.write_text(json.dumps([0.35, 0.65]))
        out = tmp_path / "out"
        assert run(["bbse", "--holdout", str(holdout), "--target-marginal", str(marginal),
                    "--out-dir", str(out)]) == EXIT_OK
        payload = json.loads((out / "bbse.json").read_text())
        assert payload["corrected_priors"] == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_kappa(self, tmp_path):
        labels = tmp_path / "labels.csv"
        rows = ["rater_a,rater_b"]
        rows += ["0,0"] * 20 + ["0,1"] * 5 + ["1,0"] * 10 + ["1,1"] * 15
        labels.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run(["kappa", "--labels", str(labels), "--out-dir", str(out)]) == EXIT_OK
        payload = json.loads((out / "kappa.json").read_text())
        assert payload["kappa"] == pytest.approx(0.4, abs=1e-12)

    def test_synth_then_fit(self, tmp_path):
        out = tmp_path / "out"
        assert run(["synth", "--n-authors", "60", "--n-choices", "300", "--pool", "10",
                    "--beta", "1.5,-0.75", "--seed", "3", "--out-dir", str(out)]) == EXIT_OK
        jsonl = out / "synth_choices.jsonl"
        assert jsonl.exists()
        truth = json.loads((out / "synth_truth.json").read_text())
        assert truth["beta_true"] == [1.5, -0.75]
        assert run(["fit-mnl", "--choices", str(jsonl), "--train-frac", "0.8",
                    "--out-dir", str(out)]) == EXIT_OK
        model = json.loads((out / "model_mnl.json").read_text())
        assert model["test_accuracy"] > 1 / 10


class TestExitCodes:
    def test_unknown_flag_is_64(self, world):
        assert run(["ingest", "--bogus", *base_args(world)]) == EXIT_USAGE

    def test_missing_file_is_1(self, tmp_path):
        assert run(["ingest", "--interactions", "/nope.csv", "--updates", "/nope2.csv",
                    "--out-dir", str(tmp_path)]) == EXIT_VALIDATION

    def test_schema_error_is_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("actor_id,site_id,kind,timestamp,update_id\na,s,visit,1,\n")
        upd = tmp_path / "upd.csv"
        upd.write_text("author_id,site_id,update_id,timestamp,role_label\na,s,u1,1,CG\n")
        assert run(["ingest", "--interactions", str(bad), "--updates", str(upd),
                    "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION

    def test_timestamp_beyond_int64_is_1(self, world, tmp_path, capsys):
        upd = tmp_path / "upd.csv"
        upd.write_text("author_id,site_id,update_id,timestamp,role_label\na,s,u1,99999999999999999999,CG\n")
        assert run(["ingest", "--interactions", world["interactions"], "--updates", str(upd),
                    "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "line 2, field 'timestamp'" in capsys.readouterr().err

    def test_byte_not_utf8_is_1(self, world, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"actor_id,site_id,kind,timestamp,update_id\na,s1,guestbook,1,\nb,s\xff,guestbook,2,\n")
        assert run(["ingest", "--interactions", str(bad), "--updates", world["updates"],
                    "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "line 3, field 'site_id'" in capsys.readouterr().err

    def test_geo_post_timestamp_not_an_integer_is_1(self, world, tmp_path, capsys):
        geo = tmp_path / "geo.csv"
        geo.write_text("author_id,timestamp,state\na,abc,MN\n")
        assert run(["authors", "--updates", world["updates"], "--geo-posts", str(geo),
                    "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "line 2, field 'timestamp'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [("[1,2]\n", "line 1"), ('{"meta": {}}\n{"chooser": "a"}\n', "line 2, field 'time'"), ("{\n", "line 1")],
    )
    def test_choice_line_not_an_instance_is_1(self, tmp_path, capsys, text, where):
        path = tmp_path / "choices.jsonl"
        path.write_text(text)
        assert run(["fit-mnl", "--choices", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert where in capsys.readouterr().err

    def test_report_initiation_time_not_an_integer_is_1(self, tmp_path, capsys):
        path = tmp_path / "initiations.csv"
        path.write_text("initiator,receiver,time,itype,is_reciprocal,initiator_was_isolate\na,b,x,joining_isolates,0,0\n")
        assert run(["report", "--initiations", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "line 2, field 'time'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, files, where",
        [
            ("fit-ols", {"--data": "y,x\n1,2\n3\n2,4\n"}, "line 3, field 'x'"),
            ("fit-ols", {"--data": "y,x\n1,2\n2,abc\n3,5\n"}, "line 3, field 'x'"),
            ("kappa", {"--labels": "rater_a,rater_b\n0,0\n1\n"}, "line 3, field 'rater_b'"),
            ("bbse", {"--holdout": "prediction,label\nCG,CG\nP\n", "--target-marginal": "[0.5, 0.5]"},
             "line 3, field 'label'"),
            ("bbse", {"--holdout": "prediction,label\nCG,CG\nP,P\n", "--target-marginal": '{"a": 0.5, "b": 0.5}'},
             "line 1"),
            ("report", {"--initiations": INITIATIONS, "--fit": "[1]"}, "line 1"),
            ("report", {"--initiations": INITIATIONS, "--authors": "id,state\na,MN\n"}, "field 'author_id'"),
            ("report", {"--initiations": INITIATIONS.replace("5,joining_isolates,1,1", "5,joining_isolates,7,1")},
             "line 3, field 'is_reciprocal'"),
        ],
        ids=["data-short-row", "data-not-a-number", "labels-short-row", "holdout-short-row",
             "marginal-not-a-list", "fit-not-an-object", "authors-without-author-id", "initiation-flag-not-0-or-1"],
    )
    def test_input_file_error_names_its_line(self, tmp_path, capsys, command, files, where):
        argv = [command, "--out-dir", str(tmp_path / "out")]
        if command == "fit-ols":
            argv += ["--outcome", "y", "--features", "x"]
        for i, (flag, text) in enumerate(files.items()):
            path = tmp_path / f"input{i}"
            path.write_text(text)
            argv += [flag, str(path)]
        assert run(argv) == EXIT_VALIDATION
        assert where in capsys.readouterr().err

    def test_bad_config_key_is_1(self, world, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key=1\n")
        assert run(["ingest", "--config", str(cfg), *base_args(world)]) == EXIT_VALIDATION

    def test_console_script_usage_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "netchoice.cli", "ingest", "--definitely-not-a-flag"],
            capture_output=True,
        )
        assert proc.returncode == EXIT_USAGE


class TestConfigAndDeterminism:
    def test_config_file_with_flag_override(self, world, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"interactions={world['interactions']}\n"
            f"updates={world['updates']}\n"
            "negatives=3\n"
            "seed=5\n"
        )
        out = tmp_path / "o1"
        assert run(["sample", "--config", str(cfg), "--out-dir", str(out), "--negatives", "2"]) == EXIT_OK
        meta = json.loads((out / "choices.jsonl").read_text().splitlines()[0])["meta"]
        assert meta["n_negatives"] == 2  # flag beats config file

    def test_same_seed_byte_identical_across_runs_and_threads(self, world, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["--interactions", world["interactions"], "--updates", world["updates"],
                "--seed", "7", "--negatives", "3"]
        assert run(["sample", *args, "--out-dir", str(out1), "--threads", "1"]) == EXIT_OK
        assert run(["sample", *args, "--out-dir", str(out2), "--threads", "4"]) == EXIT_OK
        assert (out1 / "choices.jsonl").read_bytes() == (out2 / "choices.jsonl").read_bytes()
        assert (out1 / "sample_summary.json").read_bytes() == (out2 / "sample_summary.json").read_bytes()

    def test_different_seed_changes_sample(self, world, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        base = ["--interactions", world["interactions"], "--updates", world["updates"], "--negatives", "2"]
        assert run(["sample", *base, "--seed", "1", "--out-dir", str(out1)]) == EXIT_OK
        assert run(["sample", *base, "--seed", "2", "--out-dir", str(out2)]) == EXIT_OK
        assert (out1 / "choices.jsonl").read_bytes() != (out2 / "choices.jsonl").read_bytes()

    def test_env_threads_fallback(self, world, tmp_path, monkeypatch):
        monkeypatch.setenv("NETCHOICE_THREADS", "2")
        out = tmp_path / "out"
        assert run(["ingest", *base_args(world)]) == EXIT_OK
        monkeypatch.setenv("NETCHOICE_THREADS", "banana")
        assert run(["ingest", *base_args(world)]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "command, extra, env, config",
        [
            ("ingest", ["--threads", "-3"], None, ""),
            ("ingest", [], "0", ""),
            ("ingest", [], None, "threads=0"),
            ("initiations", ["--timeline-window", "0"], None, ""),
            ("initiations", [], None, "timeline_window=-5"),
            ("fit-mnl", [], None, "max_iter=0"),
            ("fit-mnl", [], None, "tol=-1"),
            ("fit-mnl", [], None, "tol=0"),
            ("fit-mnl", [], None, "tol=nan"),
            ("fit-mnl", [], None, "tol=inf"),
        ],
    )
    def test_out_of_range_setting_is_1_before_any_output(self, world, tmp_path, monkeypatch, command, extra, env, config):
        # With a valid setting in its place, each of these runs exits 0.
        choices = tmp_path / "choices.jsonl"
        choices.write_text("".join(json.dumps({
            "chooser": "c", "time": i, "alternatives": ["p", "q"], "chosen": chosen, "X": [[1.0], [0.0]], "feature_names": ["x"],
        }) + "\n" for i, chosen in enumerate([0, 0, 0, 1])))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"window_start=0\nwindow_end=100\ntrain_frac=0.9\n{config}\n")
        if env is not None:
            monkeypatch.setenv("NETCHOICE_THREADS", env)
        inputs = ["--choices", str(choices)] if command == "fit-mnl" else base_args(world)[:4]
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, *inputs, "--out-dir", str(out), "--config", str(cfg), *extra]
        assert run(argv) == EXIT_VALIDATION
        assert list(out.iterdir()) == []

    def test_seed_derivation_is_stable(self):
        assert derive_seed(0, "sample") == derive_seed(0, "sample")
        assert derive_seed(0, "sample") != derive_seed(0, "synth")
        assert derive_seed(1, "sample") != derive_seed(0, "sample")


def _window_config(tmp_path, start, end):
    cfg = tmp_path / "window.cfg"
    cfg.write_text(f"window_start={start}\nwindow_end={end}\n")
    return cfg


def test_artifacts_are_utf8_under_an_ascii_locale(tmp_path):
    # The logs are read as UTF-8, so the artifacts are written as UTF-8 too,
    # whatever the locale's encoding.
    (tmp_path / "interactions.csv").write_text(INTERACTIONS.replace("\nd,", "\nzoë,"), encoding="utf-8")
    (tmp_path / "updates.csv").write_text(UPDATES.replace("\nd,", "\nzoë,"), encoding="utf-8")
    src = str(Path(netchoice.__file__).resolve().parents[1])
    outputs = {}
    for name, locale_env in [
        ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
        ("utf8", {"PYTHONUTF8": "1"}),
    ]:
        env = {**os.environ, **locale_env, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / name
        for command in ("project", "network", "authors"):
            proc = subprocess.run(
                [sys.executable, "-m", "netchoice.cli", command, "--interactions", "interactions.csv",
                 "--updates", "updates.csv", "--out-dir", str(out)],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert proc.returncode == EXIT_OK, (name, command, proc.stderr)
        outputs[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(outputs["ascii"]) == 6
    assert outputs["ascii"] == outputs["utf8"]
    assert "zoë".encode() in outputs["ascii"]["authors.csv"]


# -- reader fuzz ----------------------------------------------------------------
# Each input file of a subcommand is a CSV table (rows of cells), a JSON-lines
# file (a list of objects) or one JSON value, and is mutated in one way.

FUZZ_DATA = "y,x,z,w\n" + "".join(
    f"{int(i % 3 == 0 or i % 5 == 1)},{i / 7:.3f},{(i * 37) % 11 / 4:.2f},{i % 4}\n" for i in range(40)
)
FUZZ_CHOICES = [{"meta": {"config_hash": "0", "n_negatives": 1}}] + [
    {"chooser": "c", "time": t, "alternatives": ["p", "q"], "chosen": int(t % 3 == 2),
     "X": [[1.0, 0.5], [0.0, float(t % 2)]], "feature_names": ["x", "y"]}
    for t in range(12)
]
FUZZ_MODEL = {
    "feature_names": ["x", "y"], "coefficients": [1.1, -0.4], "std_errors": [0.8, 0.3], "loglik": -5.2,
    "n_obs": 8, "converged": True, "iterations": 5, "kind": "mnl", "n_train": 8, "config_hash": "0",
}
FUZZ_AUTHORS = (
    "# config_hash=0\nauthor_id,role,is_shared,health_condition,state,first_update_time\n"
    "a,CG,0,Cancer,MN,100\nb,P,0,Cancer,MN,150\nc,Mixed,1,Injury,CA,120\n"
)
FUZZ_HOLDOUT = "prediction,label\n" + "CG,CG\n" * 20 + "P,CG\n" * 5 + "P,P\n" * 20 + "CG,P\n" * 5
FUZZ_LABELS = "rater_a,rater_b\n" + "0,0\n" * 10 + "0,1\n" * 3 + "1,0\n" * 4 + "1,1\n" * 8

# subcommand -> (extra arguments, {flag: base input}); a str input is a CSV table.
FUZZ_COMMANDS = {
    "fit-mnl": ([], {"--choices": FUZZ_CHOICES}),
    "fit-logit": (["--outcome", "y", "--features", "x,z"], {"--data": FUZZ_DATA}),
    "fit-ols": (["--outcome", "y", "--features", "x,z"], {"--data": FUZZ_DATA}),
    "bbse": ([], {"--holdout": FUZZ_HOLDOUT, "--target-marginal": [0.35, 0.65]}),
    "kappa": ([], {"--labels": FUZZ_LABELS}),
    "report": ([], {"--initiations": INITIATIONS, "--authors": FUZZ_AUTHORS, "--fit": FUZZ_MODEL}),
    "authors": ([], {"--updates": UPDATES, "--geo-posts": GEO, "--site-conditions": SITES}),
}
FUZZ_TARGETS = [(command, flag) for command, (_, inputs) in FUZZ_COMMANDS.items() for flag in inputs]


def number_paths(value, path=()):
    """Paths to the int and float leaves of a JSON value."""
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in number_paths(item, (*path, key))]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in number_paths(item, (*path, i))]
    return [path] if type(value) in (int, float) else []


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def mutate_table(text, mutation, draw):
    comment = text.startswith("#")
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[comment:]]
    if mutation in ("drop_field", "extra_field"):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if mutation == "extra_field":
            row.append("x")
        else:
            row.pop()
    elif mutation == "missing_column":
        col = draw(st.integers(0, len(rows[0]) - 1))
        rows = [row[:col] + row[col + 1:] for row in rows]
    elif mutation == "non_number":
        cells = [(r, c) for r, row in enumerate(rows[1:], 1) for c, cell in enumerate(row) if is_number(cell)]
        if cells:
            r, c = draw(st.sampled_from(cells))
            rows[r][c] = "abc"
    return "".join(line + "\n" for line in lines[:comment] + [",".join(row) for row in rows])


def mutate_json(value, mutation, draw):
    """The mutated text of a JSON value: a list of objects is a JSON-lines file."""
    lines = isinstance(value, list) and isinstance(value[0], dict)
    value = copy.deepcopy(value)
    objects = [value] if not lines else value
    if mutation in ("drop_field", "extra_field", "not_object") and isinstance(objects[0], dict):
        i = draw(st.integers(0, len(objects) - 1))
        if mutation == "drop_field":
            del objects[i][draw(st.sampled_from(sorted(objects[i])))]
        elif mutation == "extra_field":
            objects[i]["extra"] = 1
        else:
            objects[i] = [1]
    elif mutation == "not_object":
        objects[0] = {"a": 0.5, "b": 0.5}
    elif mutation == "missing_column" and lines:
        key = draw(st.sampled_from(sorted(objects[1])))
        for obj in objects:
            obj.pop(key, None)
    elif mutation == "non_number":
        paths = number_paths(objects)
        if paths:
            *parents, last = draw(st.sampled_from(paths))
            target = objects
            for key in parents:
                target = target[key]
            target[last] = "abc"
    return json_text(objects if lines else objects[0])


def json_text(value):
    """A list of objects as JSON lines, anything else as one JSON value."""
    if isinstance(value, list) and isinstance(value[0], dict):
        return "".join(json.dumps(obj) + "\n" for obj in value)
    return json.dumps(value, indent=2) + "\n"


MUTATIONS = ("drop_field", "extra_field", "bad_byte", "comment", "missing_column", "non_number", "not_object")


def test_reader_fuzz(tmp_path, capsys):
    """Every subcommand that reads a file, on one mutated input: exit 0, or
    exit 1 naming a line; nothing escapes main and no traceback is printed."""
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FUZZ_TARGETS), st.sampled_from(MUTATIONS), st.data())
    def check(target, mutation, data):
        command, mutated_flag = target
        extra, inputs = FUZZ_COMMANDS[command]
        argv = [command, *extra]
        for i, (flag, value) in enumerate(inputs.items()):
            if flag != mutated_flag or mutation in ("bad_byte", "comment"):
                text = value if isinstance(value, str) else json_text(value)
            elif isinstance(value, str):
                text = mutate_table(value, mutation, data.draw)
            else:
                text = mutate_json(value, mutation, data.draw)
            raw = text.encode()
            if flag == mutated_flag and mutation == "bad_byte":
                at = data.draw(st.integers(0, len(raw)))
                raw = raw[:at] + b"\xff" + raw[at:]
            elif flag == mutated_flag and mutation == "comment":
                raw = b"# a comment\n" + raw
            path = tmp_path / f"input{i}"
            path.write_bytes(raw)
            argv += [flag, str(path)]
        capsys.readouterr()
        code = main([*argv, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == EXIT_OK or (code == EXIT_VALIDATION and "line" in err), (code, err)

    check()


def test_input_path_that_is_a_directory_is_1(tmp_path, capsys):
    """An OSError other than a missing file (here IsADirectoryError) exits 1 with its message."""
    assert run(["kappa", "--labels", str(tmp_path), "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Is a directory" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", ["9" * 400, "1e400", "NaN"], ids=["int-too-large-for-a-float", "overflows", "nan"])
def test_target_marginal_not_a_finite_float_is_1(tmp_path, capsys, entry):
    holdout = tmp_path / "holdout.csv"
    holdout.write_text("prediction,label\n" + "CG,CG\nP,P\nP,CG\nCG,P\n" * 5)
    marginal = tmp_path / "marginal.json"
    marginal.write_text(f"\n[0.5, {entry}]\n")
    argv = ["bbse", "--holdout", str(holdout), "--target-marginal", str(marginal), "--out-dir", str(tmp_path / "out")]
    assert run(argv) == EXIT_VALIDATION
    assert "line 2: entry 1 of the list is not a finite number" in capsys.readouterr().err
