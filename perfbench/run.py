"""netchoice benchmark: one workload, timed end to end and, traced, layer by layer.

    python3 perfbench/run.py --workload {bulk-uniform,zipf-sites,cli-community}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout holding ``src/netchoice``. Each round
generates the workload's inputs (``gen.py``), then runs the program on them
in a fresh process, one process at a time: the library pipeline
(``lib_pipeline.py``) or the ``netchoice`` subcommands one by one. Rounds
repeat until the next one would end after ``--seconds`` (at least three).
The first round's outputs are checked against the benchmark's own
computations (``checks.py``); every later round must reproduce them
bit for bit. Metrics are medians over rounds.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
round twice, untraced and traced, and reports the per-layer metrics with
the tracing overhead. The last line of standard output is the JSON result;
a fuller record with machine facts goes to ``perfbench/_results/``.
"""

import os
import sys

# Pin threads and hashing before numpy is imported, here and in every child.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED.items()):
    os.environ.update(PINNED)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PY = sys.executable
WORKLOADS = ("bulk-uniform", "zipf-sites", "cli-community")
LIBRARY_OPS = 13  # public-layer calls in one library round
CLI_OPS = 9  # netchoice subcommands in one cli-community round
SYNTH_SEED = 7  # the synth stage's own seed; the logs vary with --seed
SYNTH_ARGS = ["--n-authors", "150", "--n-choices", "400", "--pool", "20", "--seed", str(SYNTH_SEED)]
MIN_ROUNDS = 3
PROCESS_TIMEOUT_S = 150

END_TO_END = {
    "pipeline_s": "s", "setup_s": "s", "ingest_events_per_s": "events/s",
    "network_edges_per_s": "edges/s", "choice_sets_per_s": "sets/s", "peak_rss_mib": "MiB",
}
SPAN_METRICS = [
    "events.load_logs", "events.resolve_amp", "events.filter_self", "events.project",
    "authors.directory", "graph.build", "graph.replay", "graph.wcc_series", "graph.scc",
    "graph.advance_in_sampling", "initiations.extract", "initiations.classify", "initiations.timeline",
    "choices.eligible_candidates", "choices.sample_negatives", "choices.build_features",
    "choices.build_choice_sets", "choices.synth_generate", "estimators.mnl_fit", "estimators.mnl_accuracy",
]
COUNT_METRICS = [
    "events.rows_loaded", "events.projected_interactions", "authors.authors", "graph.edges",
    "graph.wcc_rows", "initiations.count", "choices.instances", "choices.skipped", "estimators.mnl_iterations",
]
CLI_STAGES = ["import", "project", "network", "initiations", "authors", "sample", "fit_mnl", "report",
              "synth", "fit_mnl_synth"]
PER_LAYER = (
    {f"{name}_s": "s" for name in SPAN_METRICS}
    | {name: "count" for name in COUNT_METRICS}
    | {"choices.pool_size_mean": "authors"}
    | {f"cli.{stage}_s": "s" for stage in CLI_STAGES}
    | {"trace.pipeline_s": "s", "trace.untraced_pipeline_s": "s", "trace.overhead_pct": "%"}
)


class Failure(Exception):
    """A program process failed: the round's operations count as failed and the run stops."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_process(argv, log_path):
    """Run one process to its end; return (exit code, wall seconds, peak RSS MiB)."""
    with open(log_path, "w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def log_tail(path):
    with open(path) as fh:
        return " | ".join(fh.read().strip().splitlines()[-5:])


def generate(workload, seed, inputs, log):
    code, wall, _ = run_process([PY, os.path.join(HERE, "gen.py"), "--workload", workload, "--seed", str(seed),
                                 "--out", inputs], log)
    if code != 0:
        raise RuntimeError(f"input generator exited {code}: {log_tail(log)}")
    return wall


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# -- library workloads ----------------------------------------------------------


def library_pipeline(args, inputs, out, traced):
    argv = [PY, os.path.join(HERE, "lib_pipeline.py"), "--inputs", inputs, "--out", out,
            "--seed", str(args.seed)]
    code, _, _ = run_process(argv + (["--trace"] if traced else []), out + ".log")
    if code != 0:
        raise Failure(f"library pipeline exited {code}: {log_tail(out + '.log')}")
    with open(os.path.join(out, "result.json")) as fh:
        res = json.load(fh)
    if not res["module"].startswith(SRC + os.sep):
        raise RuntimeError(f"netchoice was imported from {res['module']}, not from {SRC}")
    return res


def library_round(args, work, index):
    inputs = os.path.join(work, "inputs")
    gen_s = generate(args.workload, args.seed, inputs, os.path.join(work, "gen.log"))
    out = os.path.join(work, f"round{index}")
    res = library_pipeline(args, inputs, out, traced=False)
    with np.load(os.path.join(out, "outputs.npz")) as data:
        rows = int(data["counts"][:3].sum())  # duplicates + self rows + kept = raw interaction rows
    t = res["times"]
    rnd = {
        "ops": LIBRARY_OPS,
        "digest": res["digest"],
        "metrics": {
            "pipeline_s": t["pipeline_s"],
            "setup_s": gen_s + res["import_s"],
            "ingest_events_per_s": rows / t["ingest_s"],
            "network_edges_per_s": res["edges"] / t["network_s"],
            "choice_sets_per_s": res["instances"] / t["sampling_s"],
            "peak_rss_mib": res["peak_rss_mib"],
        },
    }
    if index == 0:
        truth = checks.load_truth(os.path.join(inputs, "truth.npz"))
        with np.load(os.path.join(out, "outputs.npz")) as data:
            rnd["failures"] = checks.check_library(truth, dict(data))
    if args.trace:
        traced = library_pipeline(args, inputs, out + "t", traced=True)
        with open(os.path.join(out + "t", "spans.json")) as fh:
            spans = json.load(fh)
        rnd["trace"] = layer_metrics([spans], traced["times"]["pipeline_s"], t["pipeline_s"], {})
        if traced["digest"] != res["digest"]:
            rnd.setdefault("failures", []).append("traced round produced different outputs")
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(out + "t", ignore_errors=True)
    return rnd


# -- cli-community --------------------------------------------------------------


def cli_stages(inputs, out, seed):
    """(metric stage name, netchoice arguments) in the order a user runs them."""
    logs = ["--interactions", os.path.join(inputs, "interactions.csv"),
            "--updates", os.path.join(inputs, "updates.csv"), "--out-dir", out, "--seed", str(seed)]
    sites = ["--site-conditions", os.path.join(inputs, "site_conditions.csv")]
    synth = os.path.join(out, "synth")
    return [
        ("project", ["project", *logs]),
        ("network", ["network", *logs]),
        ("initiations", ["initiations", *logs]),
        ("authors", ["authors", *logs, *sites]),
        ("sample", ["sample", *logs, *sites, "--negatives", str(checks.N_NEGATIVES)]),
        ("fit_mnl", ["fit-mnl", "--choices", os.path.join(out, "choices.jsonl"), "--out-dir", out,
                     "--train-frac", str(checks.TRAIN_FRAC)]),
        ("report", ["report", "--initiations", os.path.join(out, "initiations.csv"),
                    "--authors", os.path.join(out, "authors.csv"),
                    "--fit", os.path.join(out, "model_mnl.json"), "--out-dir", out]),
        ("synth", ["synth", *SYNTH_ARGS, "--out-dir", synth]),
        ("fit_mnl_synth", ["fit-mnl", "--choices", os.path.join(synth, "synth_choices.jsonl"),
                           "--out-dir", synth, "--train-frac", str(checks.TRAIN_FRAC)]),
    ]


CLI_ARTIFACTS = ["projected.csv", "project_summary.json", "edges.csv", "wcc_share.csv", "network_summary.json",
                 "initiations.csv", "timeline.json", "authors.csv", "choices.jsonl", "sample_summary.json",
                 "model_mnl.json", "report.json", "synth/synth_choices.jsonl", "synth/model_mnl.json"]


def cli_pass(args, inputs, out, traced):
    """Run every stage once; return per-stage walls, peak RSS and span files."""
    walls, peaks, spans = {}, [], []
    for name, argv in cli_stages(inputs, out, args.seed):
        log = os.path.join(out + ".logs", f"{name}.log")
        if traced:
            span_file = os.path.join(out + ".logs", f"{name}.spans.json")
            cmd = [PY, os.path.join(HERE, "cli_stage.py"), span_file, *argv]
        else:
            cmd = [PY, "-m", "netchoice.cli", *argv]
        code, wall, peak = run_process(cmd, log)
        if code != 0:
            raise Failure(f"netchoice {argv[0]} exited {code}: {log_tail(log)}")
        walls[name] = wall
        peaks.append(peak)
        if traced:
            with open(span_file) as fh:
                spans.append(json.load(fh))
    return walls, max(peaks), spans


def cli_round(args, work, index):
    inputs = os.path.join(work, "inputs")
    gen_s = generate(args.workload, args.seed, inputs, os.path.join(work, "gen.log"))
    log = os.path.join(work, "import.log")
    code, import_s, _ = run_process([PY, "-c", "import netchoice.cli"], log)
    if code != 0:
        raise RuntimeError(f"importing netchoice.cli failed: {log_tail(log)}")
    out = os.path.join(work, f"round{index}")
    os.makedirs(out + ".logs")
    rnd = {"ops": CLI_OPS}
    walls, peak, _ = cli_pass(args, inputs, out, traced=False)
    with open(os.path.join(out, "project_summary.json")) as fh:
        ps = json.load(fh)
    with open(os.path.join(out, "sample_summary.json")) as fh:
        instances = json.load(fh)["instances"]
    with open(os.path.join(out, "network_summary.json")) as fh:
        edges = json.load(fh)["edges"]
    rows = ps["events_kept"] + ps["self_interactions_removed"] + ps["interaction_duplicates_removed"]
    pipeline_s = sum(walls.values())
    rnd["digest"] = file_digest([os.path.join(out, a) for a in CLI_ARTIFACTS])
    rnd["metrics"] = {
        "pipeline_s": pipeline_s,
        "setup_s": gen_s + import_s,
        "ingest_events_per_s": rows / walls["project"],
        "network_edges_per_s": edges / (walls["network"] + walls["initiations"]),
        "choice_sets_per_s": instances / walls["sample"],
        "peak_rss_mib": peak,
    }
    if index == 0:
        truth = checks.load_truth(os.path.join(inputs, "truth.npz"))
        rnd["failures"] = checks.check_cli(truth, out)
    if args.trace:
        traced_out = out + "t"
        os.makedirs(traced_out + ".logs")
        traced_walls, _, spans = cli_pass(args, inputs, traced_out, traced=True)
        stage_s = {f"cli.{k}_s": v for k, v in walls.items()} | {"cli.import_s": import_s}
        rnd["trace"] = layer_metrics(spans, sum(traced_walls.values()), pipeline_s, stage_s)
        if file_digest([os.path.join(traced_out, a) for a in CLI_ARTIFACTS]) != rnd["digest"]:
            rnd.setdefault("failures", []).append("traced round produced different artifacts")
    for d in (out, out + ".logs", out + "t", out + "t.logs"):
        shutil.rmtree(d, ignore_errors=True)
    return rnd


# -- metrics --------------------------------------------------------------------


def layer_metrics(span_dumps, traced_s, untraced_s, stage_s):
    """Per-layer values of one round from the span dumps of its processes."""
    self_s: dict = {}
    for dump in span_dumps:
        for name, seconds in tracing.self_times(dump["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    counts = tracing.merge_counts(dump["counts"] for dump in span_dumps)
    calls = counts.get("choices.pool_size_calls", 0)
    out = {f"{name}_s": self_s.get(name, 0.0) for name in SPAN_METRICS}
    out |= {name: counts.get(name, 0) for name in COUNT_METRICS}
    out["choices.pool_size_mean"] = counts.get("choices.pool_size_total", 0) / calls if calls else 0.0
    out |= {f"cli.{stage}_s": stage_s.get(f"cli.{stage}_s", 0.0) for stage in CLI_STAGES}
    out |= {"trace.pipeline_s": traced_s, "trace.untraced_pipeline_s": untraced_s,
            "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0)}
    return out


def medians(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def machine_facts():
    facts = {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
             "platform": platform.platform(), "load_average": list(os.getloadavg())}
    try:
        with open("/proc/meminfo") as fh:
            facts["ram_kib"] = int(fh.readline().split()[1])
    except OSError:
        facts["ram_kib"] = None
    try:
        facts["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):  # the config layout differs between numpy releases
        facts["openblas"] = None
    return facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "netchoice", "cli.py")):
        print(f"error: no netchoice sources under {SRC}; run from the root of a netchoice checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    round_fn = cli_round if args.workload == "cli-community" else library_round
    rounds, attempted, failed, failures, errors = [], 0, 0, [], []
    started = time.perf_counter()
    try:
        while True:
            round_started = time.perf_counter()
            try:
                rnd = round_fn(args, work, len(rounds))
            except Failure as exc:
                ops = LIBRARY_OPS if round_fn is library_round else CLI_OPS
                attempted, failed = attempted + ops, failed + ops
                errors.append(str(exc))
                break
            rnd["round_s"] = time.perf_counter() - round_started
            attempted += rnd["ops"]
            failures += rnd.get("failures", [])
            if rounds and rnd["digest"] != rounds[0]["digest"]:
                failures.append(f"round {len(rounds)} outputs differ from round 0")
            rounds.append(rnd)
            elapsed = time.perf_counter() - started
            typical = statistics.median(r["round_s"] for r in rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    for message in errors:
        print(f"operation failed: {message}", file=sys.stderr)
    if not rounds:
        return 1
    if args.trace:
        values, units = medians([r["trace"] for r in rounds]), PER_LAYER
    else:
        values, units = medians([r["metrics"] for r in rounds]), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  failures=failures, errors=errors, rounds=rounds, machine=machine_facts())
    with open(os.path.join(HERE, "_results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
