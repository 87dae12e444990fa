"""Shared fixtures and independent oracle helpers.

The oracles here deliberately re-derive results by brute force (full scans,
BFS recomputation, quadratic projection) so the fast implementations are
checked against an independent path, not against themselves.
"""

import tracemalloc
from collections import Counter

import pytest

from netchoice.events import (
    EventLog,
    InteractionEvent,
    LogVocab,
    UpdateEvent,
    UpdateLog,
)


@pytest.fixture
def shared_vocab():
    return LogVocab()


def make_logs(events, updates):
    """Build both columnar logs over one shared vocabulary."""
    vocab = LogVocab()
    update_log = UpdateLog.from_records(updates, vocab=vocab)
    event_log = EventLog.from_records(events, vocab=vocab)
    return event_log, update_log


def bfs_components(edges):
    """Undirected connected components from an edge list; list of sets."""
    adj = {}
    for src, dst in edges:
        adj.setdefault(src, set()).add(dst)
        adj.setdefault(dst, set()).add(src)
    seen = set()
    components = []
    for start in adj:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        comp = {start}
        while queue:
            node = queue.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.add(nxt)
                    queue.append(nxt)
        components.append(comp)
    return components


def component_of(components, node):
    for comp in components:
        if node in comp:
            return comp
    return None


def project_oracle(events, updates):
    """Quadratic-time reimplementation of the author-edge projection."""
    out = Counter()
    for ev in events:
        targets = set()
        for upd in updates:
            if upd.site_id != ev.site_id:
                continue
            if upd.timestamp < ev.timestamp:
                targets.add(upd.author_id)
            if upd.role_label == "P":
                targets.add(upd.author_id)
        targets.discard(ev.actor_id)
        for target in targets:
            out[(ev.actor_id, target, ev.timestamp, ev.kind, ev.site_id)] += 1
    return out


def interaction_multiset(log):
    return Counter(
        (rec.source_author, rec.target_author, rec.timestamp, rec.kind, rec.via_site) for rec in log
    )


def random_event_fixture(rng, n_events=200, n_authors=12, n_sites=6, t_max=500, p_share=0.3):
    """Random interaction/update records (timestamps resolved, no dedup tricks)."""
    authors = [f"a{i}" for i in range(n_authors)]
    sites = [f"s{i}" for i in range(n_sites)]
    updates = []
    for u in range(max(n_sites * 2, n_events // 10)):
        updates.append(
            UpdateEvent(
                author_id=authors[rng.integers(n_authors)],
                site_id=sites[rng.integers(n_sites)],
                update_id=f"u{u}",
                timestamp=int(rng.integers(t_max)),
                role_label=rng.choice(["P", "CG", "unlabeled"], p=[p_share, 0.5, 0.5 - p_share]),
            )
        )
    events = []
    for _ in range(n_events):
        kind = rng.choice(["guestbook", "comment"])
        events.append(
            InteractionEvent(
                actor_id=authors[rng.integers(n_authors)],
                site_id=sites[rng.integers(n_sites)],
                kind=str(kind),
                timestamp=int(rng.integers(t_max)),
                update_id=f"u{rng.integers(len(updates))}" if kind == "comment" else None,
            )
        )
    return events, updates


def random_edge_stream(rng, n_nodes=30, n_edges=120, t_max=300, unique_times=False):
    """Random directed edges (src, dst, t) without self-loops."""
    edges = []
    if unique_times:
        times = rng.choice(t_max * 10, size=n_edges, replace=False)
    else:
        times = rng.integers(t_max, size=n_edges)
    for i in range(n_edges):
        src = int(rng.integers(n_nodes))
        dst = int(rng.integers(n_nodes))
        while dst == src:
            dst = int(rng.integers(n_nodes))
        edges.append((src, dst, int(times[i])))
    return edges


def traced_peak(call):
    """``call()``'s result and the most bytes it held at once, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak
