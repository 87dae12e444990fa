"""One round of the library pipeline, run as its own process.

    python3 perfbench/lib_pipeline.py --inputs DIR --out DIR --seed N [--trace]

Imports netchoice (timed as ``import_s``), then times the section from the
raw logs on disk to the last choice set: load, amp resolution, self-filter,
projection, author directory, graph build, initiation extract and classify,
timeline, WCC series, SCC snapshot, a second build for sampling, and
``build_choice_sets`` on ``SAMPLES`` initiations spread evenly over time. Writes
``result.json`` (timings, peak RSS, output digest) and ``outputs.npz`` (what
the checks read) to ``--out``; ``--trace`` also writes ``spans.json``.
"""

import time

_started = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from checks import ITYPES, N_NEGATIVES, SKIP_REASONS  # noqa: E402
from netchoice import authors, choices, events, graph, initiations  # noqa: E402

IMPORT_S = time.perf_counter() - _started
TIMELINE_WINDOW = 30 * 86_400
SAMPLES = 100  # initiations sampled per round


def run(inputs, seed):
    """The timed section; returns its outputs and the stage times."""
    perf = time.perf_counter
    t0 = perf()
    ev, up, stats = events.load_logs(os.path.join(inputs, "interactions.csv"), os.path.join(inputs, "updates.csv"))
    ev = events.resolve_amp_timestamps(ev, up)
    ev, n_self = events.filter_self_interactions(ev, up)
    inter = events.project_to_author_edges(ev, up)
    t_ingest = perf()
    directory = authors.AuthorDirectory(up)
    t_net0 = perf()
    g = graph.build(inter, extra_nodes=directory.first_update_times())
    inits = initiations.classify_initiations(initiations.extract_initiations(inter))
    initiations.timeline_stats(inits, TIMELINE_WINDOW)
    series = list(graph.largest_wcc_share_series(g))
    scc = g.scc_snapshot()
    t_net = perf()
    sampling_graph = graph.build(inter, extra_nodes=directory.first_update_times())
    picked = sorted(set(np.linspace(0, len(inits) - 1, SAMPLES).round().astype(int).tolist()))
    t_s0 = perf()
    instances, skipped = choices.build_choice_sets(
        [inits[i] for i in picked], sampling_graph, directory, choices.SamplerConfig(N_NEGATIVES, seed)
    )
    t_end = perf()
    times = {
        "pipeline_s": t_end - t0,
        "ingest_s": t_ingest - t0,
        "network_s": t_net - t_net0,
        "sampling_s": t_end - t_s0,
    }
    out = {
        "ev": ev, "up": up, "stats": stats, "n_self": n_self, "inter": inter, "graph": g,
        "inits": inits, "series": series, "scc": scc, "picked": picked,
        "instances": instances, "skipped": skipped,
    }
    return out, times


def to_arrays(out):
    """Outputs as arrays keyed for the checks, authors as generator ids."""
    vocab = out["inter"].vocab
    gen_id = np.array([int(vocab.authors.id(c)[1:]) for c in range(len(vocab.authors))], dtype=np.int64)
    inter, g, inits = out["inter"], out["graph"], out["inits"]
    edges = list(g.edges())
    instances = out["instances"]
    arrays = {
        "counts": np.array([out["stats"]["interaction_duplicates_removed"], out["n_self"], len(out["ev"]),
                            len(inter)], dtype=np.int64),  # duplicates, self rows, kept events, projected
        "proj_src": gen_id[inter.src], "proj_dst": gen_id[inter.dst], "proj_time": inter.timestamp,
        "edge_src": gen_id[np.array([e[0] for e in edges], dtype=np.int64)],
        "edge_dst": gen_id[np.array([e[1] for e in edges], dtype=np.int64)],
        "edge_time": np.array([e[2] for e in edges], dtype=np.int64),
        "edge_count": np.array([e[3] for e in edges], dtype=np.int64),
        "ini_src": gen_id[np.array([i.initiator for i in inits], dtype=np.int64)],
        "ini_dst": gen_id[np.array([i.receiver for i in inits], dtype=np.int64)],
        "ini_time": np.array([i.time for i in inits], dtype=np.int64),
        "ini_type": np.array([ITYPES.index(i.itype.value) for i in inits], dtype=np.int64),
        "ini_recip": np.array([i.is_reciprocal for i in inits], dtype=np.int64),
        "ini_isolate": np.array([i.initiator_was_isolate for i in inits], dtype=np.int64),
        "series": np.array([row[:3] for row in out["series"]], dtype=np.int64).reshape(-1, 3),
        "scc": np.array(out["scc"], dtype=np.int64),
        "picked": np.array(out["picked"], dtype=np.int64),
        "cs_chooser": gen_id[np.array([c.chooser for c in instances], dtype=np.int64)],
        "cs_time": np.array([c.time for c in instances], dtype=np.int64),
        "cs_chosen": np.array([c.chosen for c in instances], dtype=np.int64),
        "cs_sizes": np.array([len(c.alternatives) for c in instances], dtype=np.int64),
        "cs_alts": gen_id[np.array([a for c in instances for a in c.alternatives], dtype=np.int64)],
        "cs_X": np.vstack([c.X for c in instances]) if instances else np.zeros((0, 16)),
        "skip_src": gen_id[np.array([s.initiator for s in out["skipped"]], dtype=np.int64)],
        "skip_time": np.array([s.time for s in out["skipped"]], dtype=np.int64),
        "skip_reason": np.array([SKIP_REASONS.index(s.reason) for s in out["skipped"]], dtype=np.int64),
    }
    return arrays


def digest(arrays) -> str:
    h = hashlib.sha256()
    for key in sorted(arrays):
        h.update(key.encode())
        h.update(np.ascontiguousarray(arrays[key]).tobytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out, times = run(args.inputs, args.seed)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    os.makedirs(args.out, exist_ok=True)
    if tracer is not None:
        tracer.dump(os.path.join(args.out, "spans.json"))
    arrays = to_arrays(out)
    np.savez(os.path.join(args.out, "outputs.npz"), **arrays)
    result = {
        "import_s": IMPORT_S,
        "times": times,
        "peak_rss_mib": peak_kib / 1024.0,
        "instances": len(out["instances"]),
        "edges": out["graph"].n_edges,
        "digest": digest(arrays),
        "module": os.path.abspath(events.__file__),
    }
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
