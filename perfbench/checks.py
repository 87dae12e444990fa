"""Checks of the program's outputs against the benchmark's own computations.

Everything here is numpy or plain Python and reads the generator's tables
(``truth.npz``), never the program's intermediate state. Authors are
compared as generator ids (the integer in ``a<int>``). Each ``check_*``
function returns a list of failure messages; an empty list means correct.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

ITYPES = ("joining_component", "bridging_component", "joining_isolates", "intra_component")
JOINING_COMPONENT, BRIDGING, JOINING_ISOLATES, INTRA = range(4)
SKIP_REASONS = ("receiver_not_eligible", "no_negatives")
RECIPROCITY_COLUMN = 3
N_FEATURES = 16
N_NEGATIVES = 24  # negatives per choice set, library and CLI workloads alike
TRAIN_FRAC = 0.8  # calendar train share of fit-mnl
TIME_SHIFT = np.int64(2**31)  # times stay below 2**31, so site * 2**31 + time is a sort key


def load_truth(path) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


# -- ingest and projection ----------------------------------------------------


def ingest_expectation(truth) -> dict:
    """Duplicates, self rows and kept events of the generated interaction log."""
    ev = np.stack([truth[f"ev_{k}"] for k in ("actor", "site", "kind", "time", "update")], axis=1)
    _, first = np.unique(ev, axis=0, return_index=True)
    unique = np.zeros(len(ev), dtype=bool)
    unique[first] = True
    n_sites = np.int64(max(truth["ev_site"].max(), truth["up_site"].max()) + 1)
    owned = np.unique(truth["up_author"] * n_sites + truth["up_site"])
    own = np.isin(truth["ev_actor"] * n_sites + truth["ev_site"], owned)
    kept = unique & ~own
    time = truth["ev_time"].copy()
    amp = time < 0
    time[amp] = truth["up_time"][truth["ev_update"][amp]]
    return {
        "rows": len(ev),
        "duplicates": int(len(ev) - len(first)),
        "self": int((unique & own).sum()),
        "kept": int(kept.sum()),
        "projected": _projected_count(truth, truth["ev_site"][kept], time[kept]),
    }


def _projected_count(truth, site, time) -> int:
    """Targets per kept event: authors on the site with a first update before
    the event, plus the site's patient-labeled authors, summed over events."""
    n_authors = np.int64(truth["up_author"].max() + 1)
    pair = truth["up_site"] * n_authors + truth["up_author"]
    order = np.lexsort((truth["up_time"], pair))
    pair_sorted = pair[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = pair_sorted[1:] != pair_sorted[:-1]
    pair_site = pair_sorted[head] // n_authors
    first_time = truth["up_time"][order][head]
    patient_pairs = np.unique(pair[truth["up_role"] == 1])
    is_patient = np.isin(pair_sorted[head], patient_pairs)
    before = np.sort(pair_site * TIME_SHIFT + first_time)
    patient = np.sort(pair_site[is_patient] * TIME_SHIFT + first_time[is_patient])
    at = site * TIME_SHIFT + time
    prior = np.searchsorted(before, at, "left") - np.searchsorted(before, site * TIME_SHIFT, "left")
    later_patients = np.searchsorted(patient, (site + 1) * TIME_SHIFT, "left") - np.searchsorted(patient, at, "left")
    return int(prior.sum() + later_patients.sum())


def check_ingest(exp, duplicates, self_removed, kept, projected) -> list:
    fails = []
    if kept + self_removed + duplicates != exp["rows"]:
        fails.append(f"rows: kept {kept} + self {self_removed} + duplicates {duplicates} != generated {exp['rows']}")
    for name, got in (("duplicates", duplicates), ("self", self_removed), ("kept", kept), ("projected", projected)):
        if got != exp[name]:
            fails.append(f"{name}: program {got}, expected {exp[name]}")
    return fails


# -- edges, components, initiations -------------------------------------------


def first_edges(src, dst, time):
    """Distinct ordered pairs of a projected log with first time and count."""
    span = np.int64(max(int(src.max()), int(dst.max())) + 1) if len(src) else np.int64(1)
    key = src * span + dst
    order = np.lexsort((time, key))
    k = key[order]
    head = np.ones(len(k), dtype=bool)
    head[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(head)
    counts = np.diff(np.append(starts, len(k)))
    return k[head] // span, k[head] % span, time[order][head], counts


def check_edges(proj, edges) -> list:
    """``edges`` (src, dst, first_time[, count]) equals the projected log's reduction."""
    want = first_edges(*proj)
    if len(edges[0]) != len(want[0]):
        return [f"edges: program {len(edges[0])}, distinct projected pairs {len(want[0])}"]
    order = np.lexsort((edges[1], edges[0]))
    for name, got, exp in zip(("source", "target", "first time", "count"), [e[order] for e in edges], want):
        if not np.array_equal(got, exp):
            return [f"edges: {name} column differs from the projected log's first edges"]
    return []


def interning_rank(truth):
    """The program's author code order: first appearance in updates, then interactions."""
    ids = np.concatenate((truth["up_author"], truth["ev_actor"]))
    uniq, first = np.unique(ids, return_index=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    return uniq, rank


def replay_initiations(truth, src, dst, time):
    """Classify unique edges by our own union-find, in the program's tie order.

    Returns (order, itype, reciprocal, initiator_was_isolate, largest, roots)
    where ``order`` sorts the edge arrays into processing order.
    """
    uniq, rank = interning_rank(truth)
    order = np.lexsort((rank[np.searchsorted(uniq, dst)], rank[np.searchsorted(uniq, src)], time))
    parent: dict = {}
    size: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != root:
            parent[x], x = root, parent[x]
        return root

    first: dict = {}
    n = len(order)
    itype = np.empty(n, dtype=np.int64)
    recip = np.zeros(n, dtype=np.int64)
    isolate = np.zeros(n, dtype=np.int64)
    largest = 1
    for j, (s, d, t) in enumerate(zip(src[order].tolist(), dst[order].tolist(), time[order].tolist())):
        rs, rd = find(s), find(d)
        cs, cd = size.get(rs, 1) >= 2, size.get(rd, 1) >= 2
        if cs and cd:
            itype[j] = INTRA if rs == rd else BRIDGING
        elif cs or cd:
            itype[j] = JOINING_COMPONENT
        else:
            itype[j] = JOINING_ISOLATES
        isolate[j] = not cs
        back = first.get((d, s))
        recip[j] = back is not None and back < t
        first[(s, d)] = t
        if rs != rd:
            if size.get(rs, 1) < size.get(rd, 1):
                rs, rd = rd, rs
            parent[rd] = rs
            size[rs] = size.get(rs, 1) + size.pop(rd, 1)
            largest = max(largest, size[rs])
    roots = {find(x) for x in parent}
    return order, itype, recip, isolate, largest, roots


def check_initiations(truth, edges, inits, series_rows, series_last) -> list:
    """Exact types against our replay, plus the component identities.

    ``inits`` is (src, dst, time, itype, reciprocal, isolate) in the
    program's order; ``series_last`` is (activated, largest) of the last row.
    """
    src, dst, time = edges[:3]
    fails = []
    if len(inits[0]) != len(src):
        fails.append(f"initiations: {len(inits[0])} for {len(src)} edges")
        return fails
    order, itype, recip, isolate, largest, roots = replay_initiations(truth, src, dst, time)
    got = np.stack(inits, axis=1)
    want = np.stack((src[order], dst[order], time[order], itype, recip, isolate), axis=1)
    if not np.array_equal(got, want):
        bad = int(np.flatnonzero((got != want).any(axis=1))[0])
        fails.append(f"initiations: row {bad} is {got[bad].tolist()}, expected {want[bad].tolist()}")
    counts = np.bincount(inits[3], minlength=4)
    if counts.sum() != len(src):
        fails.append(f"initiations: type counts sum to {counts.sum()}, edges {len(src)}")
    touched = len(np.union1d(src, dst))
    if len(src) - counts[INTRA] != touched - len(roots):
        fails.append(f"initiations: {len(src) - counts[INTRA]} non-intra, but {touched} touched nodes "
                     f"in {len(roots)} components")
    if (inits[4].astype(bool) & (inits[3] != INTRA)).any():
        fails.append("initiations: a reciprocal initiation is not intra-component")
    if series_rows != len(np.unique(time)):
        fails.append(f"wcc series: {series_rows} rows for {len(np.unique(time))} distinct edge times")
    if len(src) and series_last[1] != largest:
        fails.append(f"wcc series: final largest component {series_last[1]}, union-find gives {largest}")
    return fails


# -- activation and choice sets -----------------------------------------------


class Activation:
    """Each author's activation: the earlier of first update and first edge."""

    def __init__(self, truth, edges):
        src, dst, time = edges[:3]
        nodes = np.concatenate((truth["up_author"], src, dst))
        times = np.concatenate((truth["up_time"], time, time))
        order = np.lexsort((times, nodes))
        head = np.ones(len(order), dtype=bool)
        head[1:] = nodes[order][1:] != nodes[order][:-1]
        self.nodes = nodes[order][head]
        self.times = times[order][head]
        self.sorted_times = np.sort(self.times)
        by_src = np.lexsort((time, src))
        self.out_src, self.out_dst, self.out_time = src[by_src], dst[by_src], time[by_src]
        self.first = {(s, d): t for s, d, t in zip(src.tolist(), dst.tolist(), time.tolist())}

    def active_before(self, node, t) -> bool:
        i = np.searchsorted(self.nodes, node)
        return bool(i < len(self.nodes) and self.nodes[i] == node and self.times[i] < t)

    def count_before(self, t) -> int:
        return int(np.searchsorted(self.sorted_times, t, "left"))

    def targets_before(self, node, t) -> set:
        lo, hi = np.searchsorted(self.out_src, [node, node + 1])
        return {d for d, s in zip(self.out_dst[lo:hi].tolist(), self.out_time[lo:hi].tolist()) if s < t}


def check_choice_sets(act, picked, instances, skipped) -> list:
    """Replay the sampler's rules on the picked initiations.

    ``picked`` is a list of (chooser, receiver, time); ``instances`` a list
    of (chooser, time, alternatives, chosen, X); ``skipped`` a list of
    (chooser, time, reason) or, when the program reports only totals, a
    dict reason -> count.
    """
    fails = []
    inst_it, skip_it = iter(instances), iter(skipped if isinstance(skipped, list) else [])
    skip_totals = dict.fromkeys(SKIP_REASONS, 0)
    for chooser, receiver, t in picked:
        targets = act.targets_before(chooser, t)
        pool = act.count_before(t) - act.active_before(chooser, t) - len(targets)
        reason = None
        if not act.active_before(receiver, t) or receiver in targets:
            reason = "receiver_not_eligible"
        elif pool - 1 == 0:
            reason = "no_negatives"
        if reason is not None:
            skip_totals[reason] += 1
            if isinstance(skipped, list):
                got = next(skip_it, None)
                if got != (chooser, t, reason):
                    fails.append(f"choice sets: expected skip {(chooser, t, reason)}, got {got}")
                    break
            continue
        inst = next(inst_it, None)
        if inst is None or (inst[0], inst[1]) != (chooser, t):
            fails.append(f"choice sets: expected an instance for {(chooser, receiver, t)}, got "
                         f"{None if inst is None else inst[:2]}")
            break
        _, _, alts, chosen, X = inst
        where = f"choice set of {chooser} at {t}"
        if chosen != 0 or alts[0] != receiver:
            fails.append(f"{where}: receiver {receiver} is not the first, chosen alternative")
        if len(set(alts)) != len(alts):
            fails.append(f"{where}: duplicate alternatives")
        if chooser in alts or targets.intersection(alts):
            fails.append(f"{where}: holds the chooser or one of its earlier targets")
        late = [a for a in alts if not act.active_before(a, t)]
        if late:
            fails.append(f"{where}: alternatives {late[:3]} not activated before {t}")
        if len(alts) != 1 + min(N_NEGATIVES, pool - 1):
            fails.append(f"{where}: {len(alts)} alternatives, expected 1 + min({N_NEGATIVES}, {pool - 1})")
        X = np.asarray(X)
        if X.shape != (len(alts), N_FEATURES) or not np.isfinite(X).all():
            fails.append(f"{where}: feature matrix {X.shape} is not finite {len(alts)}x{N_FEATURES}")
        elif any(X[j, RECIPROCITY_COLUMN] != ((a, chooser) in act.first and act.first[(a, chooser)] < t)
                 for j, a in enumerate(alts)):
            fails.append(f"{where}: is_reciprocal column disagrees with the edge list")
        if len(fails) > 20:
            break
    if next(inst_it, None) is not None:
        fails.append("choice sets: more instances than eligible initiations")
    if isinstance(skipped, dict) and {k: skipped.get(k, 0) for k in SKIP_REASONS} != skip_totals:
        fails.append(f"choice sets: skipped {skipped}, expected {skip_totals}")
    return fails


def check_cursor_state(act, cursor, activated, scc_sizes=None) -> list:
    """Activated count at the final cursor, and SCC sizes summing to it."""
    want = act.count_before(cursor)
    fails = [] if activated == want else [f"activated at {cursor}: program {activated}, expected {want}"]
    if scc_sizes is not None and int(np.sum(scc_sizes)) != want:
        fails.append(f"scc: sizes sum to {int(np.sum(scc_sizes))}, {want} activated")
    return fails


# -- library workloads --------------------------------------------------------


def check_library(truth, out) -> list:
    """All checks of one library-pipeline round (``outputs.npz`` arrays)."""
    dup, n_self, kept, projected = (int(v) for v in out["counts"])
    fails = check_ingest(ingest_expectation(truth), dup, n_self, kept, projected)
    proj = (out["proj_src"], out["proj_dst"], out["proj_time"])
    edges = (out["edge_src"], out["edge_dst"], out["edge_time"], out["edge_count"])
    fails += check_edges(proj, edges)
    inits = tuple(out[k] for k in ("ini_src", "ini_dst", "ini_time", "ini_type", "ini_recip", "ini_isolate"))
    series = out["series"]
    fails += check_initiations(truth, edges, inits, len(series), series[-1][1:] if len(series) else (0, 0))
    act = Activation(truth, edges)
    if len(series):
        fails += check_cursor_state(act, int(series[-1][0]) + 1, int(series[-1][1]), out["scc"])
    picked = [(int(out["ini_src"][i]), int(out["ini_dst"][i]), int(out["ini_time"][i])) for i in out["picked"]]
    bounds = np.concatenate(([0], np.cumsum(out["cs_sizes"])))
    instances = [
        (int(c), int(t), out["cs_alts"][bounds[j]:bounds[j + 1]].tolist(), int(ch), out["cs_X"][bounds[j]:bounds[j + 1]])
        for j, (c, t, ch) in enumerate(zip(out["cs_chooser"], out["cs_time"], out["cs_chosen"]))
    ]
    skipped = [(int(c), int(t), SKIP_REASONS[r]) for c, t, r in zip(out["skip_src"], out["skip_time"], out["skip_reason"])]
    fails += check_choice_sets(act, picked, instances, skipped)
    return fails


# -- cli-community ------------------------------------------------------------


def _ids(labels) -> np.ndarray:
    return np.array([int(x[1:]) for x in labels], dtype=np.int64)


def _read_csv(path) -> list:
    """Rows of a CSV artifact, skipping its ``# config_hash`` comment line."""
    with open(path, newline="") as fh:
        if not fh.readline().startswith("#"):
            fh.seek(0)
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_choices(path):
    """(meta, [(chooser, time, alternatives, chosen, X)]) from ``choices.jsonl``."""
    meta, instances = None, []
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            if "meta" in obj:
                meta = obj["meta"]
                continue
            instances.append((int(obj["chooser"][1:]), obj["time"], _ids(obj["alternatives"]).tolist(),
                              obj["chosen"], np.array(obj["X"], dtype=np.float64)))
    return meta, instances


def mnl_score(instances, beta) -> np.ndarray:
    """Gradient of the conditional-logit log-likelihood, one set at a time."""
    grad = np.zeros(len(beta))
    for *_, chosen, X in instances:
        u = X @ beta
        p = np.exp(u - u.max())
        grad += X[chosen] - (p / p.sum()) @ X
    return grad


def train_split(instances):
    times = [inst[1] for inst in instances]
    boundary = min(times) + TRAIN_FRAC * (max(times) - min(times))
    return [inst for inst in instances if inst[1] < boundary]


def expected_roles(truth) -> dict:
    """Thirds rule over each author's labeled updates; None without labels."""
    roles = {}
    for author in np.unique(truth["up_author"]).tolist():
        labels = truth["up_role"][truth["up_author"] == author]
        n, k = int((labels != 0).sum()), int((labels == 1).sum())
        roles[author] = None if n == 0 else "CG" if 3 * k < n else "Mixed" if 3 * k <= 2 * n else "P"
    return roles


def check_fit_gradient(instances, fit) -> list:
    grad = mnl_score(instances, np.asarray(fit["coefficients"], dtype=np.float64))
    worst = float(np.abs(grad).max())
    return [] if worst <= 1e-6 else [f"fit-mnl: gradient at the estimate is {worst:.3g}, not about 0"]


def check_recovery(fit, truth_json) -> list:
    b, se = np.asarray(fit["coefficients"]), np.asarray(fit["std_errors"])
    beta = np.asarray(truth_json["beta_true"])
    off = np.abs(b - beta) > 3 * se
    return [f"synth fit: {fit['feature_names'][j]} = {b[j]:.4f} is over 3 SE ({se[j]:.4f}) from {beta[j]}"
            for j in np.flatnonzero(off)]


def check_cli(truth, out) -> list:
    """All checks of one cli-community round, from the artifacts in ``out``."""
    path = lambda *p: os.path.join(out, *p)  # noqa: E731
    ps = _read_json(path("project_summary.json"))
    fails = check_ingest(ingest_expectation(truth), ps["interaction_duplicates_removed"],
                         ps["self_interactions_removed"], ps["events_kept"], ps["directed_interactions"])
    rows = _read_csv(path("projected.csv"))
    proj = (_ids(r["source_author"] for r in rows), _ids(r["target_author"] for r in rows),
            np.array([int(r["timestamp"]) for r in rows], dtype=np.int64))
    rows = _read_csv(path("edges.csv"))
    edges = (_ids(r["source"] for r in rows), _ids(r["target"] for r in rows),
             np.array([int(r["first_time"]) for r in rows], dtype=np.int64),
             np.array([int(r["interaction_count"]) for r in rows], dtype=np.int64))
    fails += check_edges(proj, edges)
    network = _read_json(path("network_summary.json"))
    if network["edges"] != len(edges[0]):
        fails.append(f"network: summary says {network['edges']} edges, edges.csv has {len(edges[0])}")
    rows = _read_csv(path("initiations.csv"))
    inits = (_ids(r["initiator"] for r in rows), _ids(r["receiver"] for r in rows),
             np.array([int(r["time"]) for r in rows], dtype=np.int64),
             np.array([ITYPES.index(r["itype"]) for r in rows], dtype=np.int64),
             np.array([int(r["is_reciprocal"]) for r in rows], dtype=np.int64),
             np.array([int(r["initiator_was_isolate"]) for r in rows], dtype=np.int64))
    series = [(int(r["time"]), int(r["activated"]), int(r["largest_size"])) for r in _read_csv(path("wcc_share.csv"))]
    last = series[-1] if series else (0, 0, 0)
    fails += check_initiations(truth, edges, inits, len(series), last[1:])
    act = Activation(truth, edges)
    if series:
        fails += check_cursor_state(act, last[0] + 1, network["activated_nodes"])
    report = _read_json(path("report.json"))
    counts = np.bincount(inits[3], minlength=4).tolist()
    if report["n_initiations"] != len(rows) or [report["type_counts"][t] for t in ITYPES] != counts:
        fails.append("report: initiation totals differ from initiations.csv")
    roles = {int(r["author_id"][1:]): r["role"] or None for r in _read_csv(path("authors.csv"))}
    if roles != expected_roles(truth):
        fails.append("authors: roles differ from the thirds rule over the update labels")
    meta, instances = read_choices(path("choices.jsonl"))
    skipped = meta["skipped"]
    if len(instances) + sum(skipped.values()) != len(rows):
        fails.append(f"sample: {len(instances)} instances + {sum(skipped.values())} skipped != {len(rows)} initiations")
    picked = list(zip(inits[0].tolist(), inits[1].tolist(), inits[2].tolist()))
    fails += check_choice_sets(act, picked, instances, skipped)
    fails += check_fit_gradient(train_split(instances), _read_json(path("model_mnl.json")))
    fails += check_recovery(_read_json(path("synth", "model_mnl.json")), _read_json(path("synth", "synth_truth.json")))
    return fails
