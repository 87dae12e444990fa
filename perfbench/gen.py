"""Seeded input generator for the three benchmark workloads.

Every workload is a pair of raw logs in the program's CSV schema
(``interactions.csv``, ``updates.csv``; ``cli-community`` adds
``site_conditions.csv``) plus ``truth.npz``, the generator's own tables,
which the checks in :mod:`checks` use as the independent reference. Author,
site and update ids are written as ``a<int>``, ``s<int>`` and ``u<int>``;
update ids are row indices of the update table.

    python3 perfbench/gen.py --workload bulk-uniform --seed 1 --out DIR

The same workload, seed and scale always give the same bytes; the benchmark
runs the "full" scale, its tests the "tiny" one.
"""

from __future__ import annotations

import argparse
import os

import numpy as np

KIND_GUESTBOOK, KIND_AMP, KIND_COMMENT = 0, 1, 2
ROLE_UNLABELED, ROLE_P, ROLE_CG = 0, 1, 2
KIND_TEXT = ("guestbook", "amp", "comment")
ROLE_TEXT = ("", "P", "CG")

UPDATE_SPAN = 500_000_000   # update times, seconds (c09 shape)
EVENT_SPAN = 600_000_000    # interaction times, seconds (c09 shape)
DUPLICATE_SHARE = 0.005     # exact duplicate interaction rows appended
SELF_SHARE = 0.02           # rows whose actor posts on the site

# Sizes per workload and scale. "tiny" is what the benchmark's tests run.
SIZES = {
    "bulk-uniform": {"full": {"n_events": 60_000}, "tiny": {"n_events": 3_000}},
    "zipf-sites": {"full": {"n_events": 25_000}, "tiny": {"n_events": 3_000}},
    "cli-community": {"full": {"communities": 6, "per_community": 70, "n_events": 1_800},
                      "tiny": {"communities": 3, "per_community": 20, "n_events": 300}},
}

# zipf-sites shape
ZIPF_EXPONENT = 2.0         # of the authors-per-site law
ZIPF_MAX_SITE = 600         # truncation of the law
NEW_AUTHOR_SHARE = 0.6      # site slots whose author is new; the rest reuse an earlier author
SIZED_TRAFFIC = 0.8         # events that pick their site in proportion to its size
FOLLOWERS = 5               # fixed actors per site for those events

COMMUNITY_SPAN = 31_536_000  # one year of seconds
DAY = 86_400                 # cli-community times are whole days, so equal times are common
REPLY_SHARE = 0.3            # cli-community visits by posting authors that get a same-day reply
CONDITIONS = ("Cancer", "Stroke", "Transplant", "Heart", "Injury")


def _kinds(rng, n):
    draw = rng.uniform(size=n)
    return np.where(draw < 0.7, KIND_GUESTBOOK, np.where(draw < 0.85, KIND_AMP, KIND_COMMENT)).astype(np.int64)


def _with_duplicates(rng, ev, share=DUPLICATE_SHARE):
    """Append exact copies of a share of rows, then shuffle row order."""
    n = len(ev["actor"])
    copies = rng.integers(0, n, size=int(share * n))
    order = rng.permutation(n + len(copies))
    return {k: np.concatenate((v, v[copies]))[order] for k, v in ev.items()}


def bulk_uniform(rng, n_events):
    """The c09 shape: one owner per site, 10% of sites gain a patient author."""
    n_sites = int(0.15 * n_events)
    owner_t = rng.integers(0, UPDATE_SPAN, size=n_sites)
    owner_role = np.where(rng.uniform(size=n_sites) < 0.2, ROLE_P, ROLE_CG)
    second = rng.choice(n_sites, size=n_sites // 10, replace=False)
    sec_t = rng.integers(0, UPDATE_SPAN, size=len(second))
    up = {
        "author": np.concatenate((np.arange(n_sites), second + n_sites)),
        "site": np.concatenate((np.arange(n_sites), second)),
        "time": np.concatenate((owner_t, sec_t)),
        "role": np.concatenate((owner_role, np.full(len(second), ROLE_P))),
    }
    total_authors = 2 * n_sites + 500_000  # most of them never post an update
    actor = rng.integers(0, total_authors, size=n_events)
    site = rng.integers(0, n_sites, size=n_events)
    self_rows = rng.uniform(size=n_events) < SELF_SHARE
    actor[self_rows] = site[self_rows]
    kind = _kinds(rng, n_events)
    time = rng.integers(0, EVENT_SPAN, size=n_events)
    time[kind == KIND_AMP] = -1
    update = np.where(kind == KIND_GUESTBOOK, -1, site)  # the owner's update id is the site id
    ev = {"actor": actor, "site": site, "kind": kind, "time": time, "update": update}
    return _with_duplicates(rng, ev), up


def zipf_sites(rng, n_events):
    """Heavy-tailed (truncated Zipf) authors per site; busy sites are large.

    Each site slot holds one update. A slot's author is new with probability
    ``NEW_AUTHOR_SHARE`` and otherwise an earlier author, so many authors post
    on several sites and components and triangles grow large. A share
    ``SIZED_TRAFFIC`` of events picks its site in proportion to the site's
    size (through a random slot) and comes from one of the site's
    ``FOLLOWERS`` fixed actors, so the large sites fan each event out to
    hundreds of authors while their edges stay few; the rest pick a site
    uniformly and any actor.
    """
    n_sites = int(0.1 * n_events)
    # Site sizes are the Zipf law's quantiles, so the tail is the same for every seed.
    pmf = np.arange(1, ZIPF_MAX_SITE + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    quantiles = (np.arange(n_sites) + 0.5) / n_sites
    sizes = rng.permutation(np.searchsorted(np.cumsum(pmf) / pmf.sum(), quantiles) + 1)
    n_slots = int(sizes.sum())
    slot_site = np.repeat(np.arange(n_sites), sizes)
    is_new = rng.uniform(size=n_slots) < NEW_AUTHOR_SHARE
    is_new[0] = True
    created = np.cumsum(is_new)
    existing = np.floor(rng.uniform(size=n_slots) * np.maximum(created - is_new, 1)).astype(np.int64)
    slot_author = np.where(is_new, created - 1, existing)
    n_members = int(created[-1])
    role_draw = rng.uniform(size=n_slots)
    up = {
        "author": slot_author,
        "site": slot_site,
        "time": rng.integers(0, UPDATE_SPAN, size=n_slots),
        "role": np.where(role_draw < 0.3, ROLE_P, np.where(role_draw < 0.9, ROLE_CG, ROLE_UNLABELED)),
    }
    any_site = rng.integers(0, n_sites, size=n_events)
    uniform_slot = (np.cumsum(sizes) - sizes)[any_site] + (rng.uniform(size=n_events) * sizes[any_site]).astype(np.int64)
    sized = rng.uniform(size=n_events) < SIZED_TRAFFIC
    slot = np.where(sized, rng.integers(0, n_slots, size=n_events), uniform_slot)
    site = slot_site[slot]
    n_actors = n_members + 2 * n_events
    actor = np.where(
        rng.uniform(size=n_events) < 0.5,
        rng.integers(0, n_members, size=n_events),
        rng.integers(n_members, n_actors, size=n_events),
    )
    followers = rng.integers(0, n_actors, size=(n_sites, FOLLOWERS))
    actor = np.where(sized, followers[site, rng.integers(0, FOLLOWERS, size=n_events)], actor)
    self_rows = rng.uniform(size=n_events) < SELF_SHARE
    actor[self_rows] = slot_author[slot[self_rows]]
    kind = _kinds(rng, n_events)
    time = rng.integers(0, EVENT_SPAN, size=n_events)
    time[kind == KIND_AMP] = -1
    update = np.where(kind == KIND_GUESTBOOK, -1, slot)
    ev = {"actor": actor, "site": site, "kind": kind, "time": time, "update": update}
    return _with_duplicates(rng, ev), up


def cli_community(rng, communities, per_community, n_events):
    """Communities of posting and non-posting authors with mixed roles.

    Three quarters of the authors post; a quarter of posters keep a second
    site and 30% of sites gain a second poster from the same community.
    Author types P, CG and Mixed set how their updates are labeled, and
    every site has a health condition biased by community. Times are whole
    days, so an edge and its reverse, or an activation and a choice, often
    share a time and the strict "before" rules are exercised.
    """
    n_authors = communities * per_community
    community = np.arange(n_authors) // per_community
    start = rng.integers(0, int(0.6 * COMMUNITY_SPAN), size=n_authors)
    posters = np.sort(rng.permutation(n_authors)[: int(0.75 * n_authors)])
    # Author types P, CG and Mixed in fixed shares: the chance each update is P-labeled.
    types = np.repeat([0.85, 0.15, 0.5], [int(0.35 * n_authors), int(0.45 * n_authors), n_authors])[:n_authors]
    p_patient = rng.permutation(types)

    site_owner = np.concatenate((posters, rng.permutation(posters)[: len(posters) // 4]))
    n_sites = len(site_owner)
    site_community = community[site_owner]
    members = [(int(site_owner[s]), s) for s in range(n_sites)]
    for s in np.sort(rng.permutation(n_sites)[: int(0.3 * n_sites)]):
        peers = posters[community[posters] == site_community[s]]
        other = int(rng.choice(peers))
        if other != site_owner[s]:
            members.append((other, int(s)))

    up_author, up_site, up_time, up_role = [], [], [], []
    for author, s in members:
        n_upd = 1 + int(rng.poisson(2.0))
        begin = int(start[author])
        times = np.sort(rng.integers(begin, COMMUNITY_SPAN, size=n_upd)) // DAY * DAY
        patient = rng.uniform(size=n_upd) < p_patient[author]
        unlabeled = rng.uniform(size=n_upd) < 0.1
        roles = np.where(unlabeled, ROLE_UNLABELED, np.where(patient, ROLE_P, ROLE_CG))
        up_author += [author] * n_upd
        up_site += [s] * n_upd
        up_time += times.tolist()
        up_role += roles.tolist()
    up = {k: np.asarray(v, dtype=np.int64) for k, v in
          (("author", up_author), ("site", up_site), ("time", up_time), ("role", up_role))}

    site_updates = [np.flatnonzero(up["site"] == s) for s in range(n_sites)]
    actor = rng.integers(0, n_authors, size=n_events)
    time = (start[actor] + (rng.uniform(size=n_events) * (COMMUNITY_SPAN - start[actor])).astype(np.int64)) // DAY * DAY
    local = rng.uniform(size=n_events) < 0.85
    pools = [np.flatnonzero(site_community == c) for c in range(communities)]
    site = rng.integers(0, n_sites, size=n_events)
    for i in np.flatnonzero(local):
        pool = pools[community[actor[i]]]
        if len(pool):
            site[i] = rng.choice(pool)
    self_rows = rng.uniform(size=n_events) < SELF_SHARE
    actor[self_rows] = site_owner[site[self_rows]]
    kind = _kinds(rng, n_events)
    update = np.array([rng.choice(site_updates[s]) for s in site], dtype=np.int64)
    update[kind == KIND_GUESTBOOK] = -1
    time[kind == KIND_AMP] = -1
    ev = {"actor": actor, "site": site, "kind": kind, "time": time, "update": update}
    # Same-day replies: the site's owner answers a visitor who posts, on the visitor's first site.
    posts = np.isin(actor, posters) & (kind != KIND_AMP) & (actor != site_owner[site])
    replied = np.flatnonzero(posts & (rng.uniform(size=n_events) < REPLY_SHARE))
    reply = {"actor": site_owner[site[replied]], "site": np.searchsorted(posters, actor[replied]),
             "kind": np.full(len(replied), KIND_GUESTBOOK), "time": time[replied], "update": np.full(len(replied), -1)}
    ev = {k: np.concatenate((v, reply[k])) for k, v in ev.items()}

    main = rng.integers(0, len(CONDITIONS), size=communities)
    draw = rng.uniform(size=n_sites)
    condition = np.where(draw < 0.6, main[site_community], rng.integers(0, len(CONDITIONS), size=n_sites))
    condition = np.where(draw >= 0.95, -2, np.where(draw >= 0.85, -1, condition))  # -1 unknown, -2 empty
    first_update = np.array([up["time"][ix].min() for ix in site_updates])
    sites = {"condition": condition, "created": np.maximum(first_update - 86_400, 0)}
    return _with_duplicates(rng, ev, share=0.01), up, sites


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows))
        fh.write("\n")


def write_logs(out_dir, ev, up, sites=None):
    kinds, roles = KIND_TEXT, ROLE_TEXT
    _write_csv(
        os.path.join(out_dir, "interactions.csv"),
        "actor_id,site_id,kind,timestamp,update_id",
        [
            f"a{a},s{s},{kinds[k]},{'' if t < 0 else t},{'' if u < 0 else f'u{u}'}"
            for a, s, k, t, u in zip(ev["actor"].tolist(), ev["site"].tolist(), ev["kind"].tolist(),
                                     ev["time"].tolist(), ev["update"].tolist())
        ],
    )
    _write_csv(
        os.path.join(out_dir, "updates.csv"),
        "author_id,site_id,update_id,timestamp,role_label",
        [
            f"a{a},s{s},u{i},{t},{roles[r]}"
            for i, (a, s, t, r) in enumerate(zip(up["author"].tolist(), up["site"].tolist(),
                                                 up["time"].tolist(), up["role"].tolist()))
        ],
    )
    if sites is not None:
        names = {-1: "Condition Unknown", -2: ""}
        _write_csv(
            os.path.join(out_dir, "site_conditions.csv"),
            "site_id,health_condition,created",
            [
                f"s{s},{names.get(c) if c < 0 else CONDITIONS[c]},{t}"
                for s, (c, t) in enumerate(zip(sites["condition"].tolist(), sites["created"].tolist()))
            ],
        )


def workload_rng(workload, seed):
    tag = sum(ord(c) * 31**i for i, c in enumerate(workload)) % (2**32)
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def generate(workload, seed, out_dir, scale="full"):
    """Write the workload's logs into ``out_dir``; return the truth tables."""
    rng = workload_rng(workload, seed)
    size = SIZES[workload][scale]
    sites = None
    if workload == "bulk-uniform":
        ev, up = bulk_uniform(rng, size["n_events"])
    elif workload == "zipf-sites":
        ev, up = zipf_sites(rng, size["n_events"])
    else:
        ev, up, sites = cli_community(rng, **size)
    os.makedirs(out_dir, exist_ok=True)
    write_logs(out_dir, ev, up, sites)
    truth = {f"ev_{k}": v for k, v in ev.items()}
    truth.update({f"up_{k}": v for k, v in up.items()})
    np.savez(os.path.join(out_dir, "truth.npz"), **truth)
    return truth


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
