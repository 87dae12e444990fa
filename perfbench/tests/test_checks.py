"""The benchmark's own tests: each workload at a tiny size passes its checks,
and each check fails when fed a deliberately corrupted result.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import lib_pipeline  # noqa: E402
import run as bench  # noqa: E402
from netchoice import cli  # noqa: E402

SEED = 3


@pytest.fixture(scope="module", params=["bulk-uniform", "zipf-sites"])
def library(request, tmp_path_factory):
    inputs = str(tmp_path_factory.mktemp(request.param))
    truth = gen.generate(request.param, SEED, inputs, scale="tiny")
    out, _ = lib_pipeline.run(inputs, SEED)
    return truth, lib_pipeline.to_arrays(out)


@pytest.fixture(scope="module")
def community(tmp_path_factory):
    root = tmp_path_factory.mktemp("community")
    inputs, out = str(root / "inputs"), str(root / "out")
    truth = gen.generate("cli-community", SEED, inputs, scale="tiny")
    for _, argv in bench.cli_stages(inputs, out, SEED):
        assert cli.main(argv) == 0, argv
    return truth, out


def corrupted(arrays, **changes):
    out = {k: v.copy() for k, v in arrays.items()}
    for key, fn in changes.items():
        out[key] = fn(out[key])
    return out


def test_library_workload_passes(library):
    truth, arrays = library
    assert checks.check_library(truth, arrays) == []
    assert len(arrays["cs_chooser"]) > 0


def test_cli_workload_passes(community):
    truth, out = community
    assert checks.check_cli(truth, out) == []


def test_miscounted_projection_fails(library):
    truth, arrays = library
    bad = corrupted(arrays, counts=lambda c: c + np.array([0, 0, 0, 1]))
    assert any(f.startswith("projected") for f in checks.check_library(truth, bad))


def test_dropped_edge_fails(library):
    truth, arrays = library
    drop = {k: (lambda a: a[1:]) for k in ("edge_src", "edge_dst", "edge_time", "edge_count")}
    assert any(f.startswith("edges") for f in checks.check_library(truth, corrupted(arrays, **drop)))


def test_swapped_initiation_type_fails(library):
    truth, arrays = library
    types = arrays["ini_type"]
    j = int(np.flatnonzero(types == checks.JOINING_ISOLATES)[0])
    bad = corrupted(arrays, ini_type=lambda t: np.where(np.arange(len(t)) == j, checks.JOINING_COMPONENT, t))
    assert any(f.startswith("initiations") for f in checks.check_library(truth, bad))


def test_intra_reciprocal_swapped_to_bridging_fails(library):
    truth, arrays = library
    intra = np.flatnonzero(arrays["ini_type"] == checks.INTRA)
    if not len(intra):
        pytest.skip("no intra-component initiation at this size")
    bad = corrupted(arrays, ini_type=lambda t: np.where(np.arange(len(t)) == intra[0], checks.BRIDGING, t))
    fails = checks.check_library(truth, bad)
    assert any("non-intra" in f for f in fails)


def test_scc_sizes_off_fails(library):
    truth, arrays = library
    bad = corrupted(arrays, scc=lambda s: s[1:])
    assert any(f.startswith("scc") for f in checks.check_library(truth, bad))


def cli_sampling(truth, out):
    """(activation, picked initiations, skips, instances) from the CLI artifacts."""
    meta, instances = checks.read_choices(os.path.join(out, "choices.jsonl"))
    rows = checks._read_csv(os.path.join(out, "edges.csv"))
    edges = (checks._ids(r["source"] for r in rows), checks._ids(r["target"] for r in rows),
             np.array([int(r["first_time"]) for r in rows], dtype=np.int64))
    rows = checks._read_csv(os.path.join(out, "initiations.csv"))
    picked = [(int(r["initiator"][1:]), int(r["receiver"][1:]), int(r["time"])) for r in rows]
    return checks.Activation(truth, edges), picked, meta["skipped"], instances


def test_alternative_already_targeted_fails(community):
    act, picked, skipped, instances = cli_sampling(*community)
    for j, (chooser, t, alts, chosen, X) in enumerate(instances):
        earlier = sorted(act.targets_before(chooser, t))
        if earlier and len(alts) > 1:
            instances[j] = (chooser, t, [alts[0], earlier[0], *alts[2:]], chosen, X)
            break
    else:
        pytest.fail("no chooser with an earlier target")
    fails = checks.check_choice_sets(act, picked, instances, skipped)
    assert any("earlier targets" in f for f in fails)


def test_alternative_activated_at_the_choice_time_fails(community):
    act, picked, skipped, instances = cli_sampling(*community)
    for j, (chooser, t, alts, chosen, X) in enumerate(instances):
        same_time = [int(a) for a in act.nodes[act.times == t]
                     if a != chooser and a not in alts and a not in act.targets_before(chooser, t)]
        if same_time and len(alts) > 1:
            instances[j] = (chooser, t, [alts[0], same_time[0], *alts[2:]], chosen, X)
            break
    else:
        pytest.fail("no author activated at the time of a choice")
    fails = checks.check_choice_sets(act, picked, instances, skipped)
    assert any("not activated before" in f for f in fails)


def test_equal_time_reverse_edge_as_reciprocal_fails(community, tmp_path):
    truth, out = community
    rows = checks._read_csv(os.path.join(out, "initiations.csv"))
    first = {(r["initiator"], r["receiver"]): int(r["time"]) for r in rows}
    tied = [j for j, r in enumerate(rows) if first.get((r["receiver"], r["initiator"])) == int(r["time"])]
    assert tied, "the log has no edge whose reverse shares its time"
    bad = str(tmp_path / "out")
    shutil.copytree(out, bad)
    rows[tied[0]]["is_reciprocal"] = "1"
    with open(os.path.join(bad, "initiations.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert any(f.startswith("initiations: row") for f in checks.check_cli(truth, bad))


def test_chooser_as_alternative_fails(library):
    truth, arrays = library
    first_alts = np.concatenate(([0], np.cumsum(arrays["cs_sizes"])))[:-1]
    bad = corrupted(arrays, cs_alts=lambda a: np.where(np.arange(len(a)) == first_alts[0] + 1,
                                                      arrays["cs_chooser"][0], a))
    assert any("chooser" in f for f in checks.check_library(truth, bad))


def test_flipped_reciprocity_feature_fails(library):
    truth, arrays = library
    bad = corrupted(arrays, cs_X=lambda X: np.where(np.arange(X.shape[1]) == checks.RECIPROCITY_COLUMN, 1 - X, X))
    assert any("is_reciprocal" in f for f in checks.check_library(truth, bad))


def test_perturbed_estimate_fails(community, tmp_path):
    truth, out = community
    bad = str(tmp_path / "out")
    shutil.copytree(out, bad)
    path = os.path.join(bad, "model_mnl.json")
    with open(path) as fh:
        fit = json.load(fh)
    fit["coefficients"][0] += 1e-3
    with open(path, "w") as fh:
        json.dump(fit, fh)
    assert any(f.startswith("fit-mnl") for f in checks.check_cli(truth, bad))


def test_synth_estimate_off_fails(community, tmp_path):
    truth, out = community
    path = os.path.join(out, "synth", "model_mnl.json")
    with open(path) as fh:
        fit = json.load(fh)
    fit["coefficients"][1] += 4 * fit["std_errors"][1]
    with open(os.path.join(out, "synth", "synth_truth.json")) as fh:
        assert checks.check_recovery(fit, json.load(fh))
