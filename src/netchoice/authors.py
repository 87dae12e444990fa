"""Author-level aggregation: roles, shared accounts, conditions, states.

Update-level patient/caregiver labels aggregate to author roles with
permissive thirds: under one third patient-labeled is a caregiver (CG), over
two thirds is a patient (P), anything between — boundaries included — is
Mixed. An account is flagged Shared when any single site's patient fraction
falls in that middle band, suggesting more than one person posting.

US states come from geo-identifiable posts: an author gets their plurality
state only with at least 10 such posts and a 20-percentage-point margin over
the runner-up (high precision, low recall). Health conditions come from the
author's sites in creation order, taking the first informative category.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .events import UpdateLog, _csv_columns, _parse_int, _site_authors, _sorted_unique, _write_csv

SECONDS_PER_DAY = 86_400.0
DAYS_PER_MONTH = 30.44

ROLE_PATIENT = "P"
ROLE_CAREGIVER = "CG"
ROLE_MIXED = "Mixed"
_ROLES = (None, ROLE_CAREGIVER, ROLE_MIXED, ROLE_PATIENT)  # a role's code is its index

CONDITION_UNKNOWN = "Condition Unknown"


class UndefinedRoleError(ValueError):
    """Role aggregation needs at least one labeled update."""


class DegenerateMarginalsError(ValueError):
    """Cohen's kappa is undefined when expected agreement is 1."""


def aggregate_role(p_labels) -> str:
    """Map per-update patient indicators to an author role.

    ``p_labels`` is a sequence of booleans (True = patient-labeled update).
    Thresholds compare exact integer counts, so fractions of exactly one
    third or two thirds land in Mixed.
    """
    labels = list(p_labels)
    n = len(labels)
    if n == 0:
        raise UndefinedRoleError("no labeled updates")
    k = sum(bool(x) for x in labels)
    if 3 * k < n:
        return ROLE_CAREGIVER
    if 3 * k <= 2 * n:
        return ROLE_MIXED
    return ROLE_PATIENT


def shared_account(per_site_fractions) -> bool:
    """True when any site's patient fraction sits in [1/3, 2/3]."""
    lo, hi = 1.0 / 3.0, 2.0 / 3.0
    return any(lo <= f <= hi for f in per_site_fractions)


def assign_health_condition(conditions_in_creation_order) -> str | None:
    """First informative condition across the author's sites, else None."""
    for cond in conditions_in_creation_order:
        if cond is not None and cond != CONDITION_UNKNOWN:
            return cond
    return None


def shared_health_condition(a: str | None, b: str | None) -> int:
    """1 when both conditions are assigned and equal, else 0."""
    return int(a is not None and a == b)


def assign_state(post_states) -> str | None:
    """Plurality US state over geo-identifiable posts, or None.

    Requires at least 10 geo-identifiable posts (None entries are not
    geo-identifiable and are excluded) and an absolute margin of at least 20
    percentage points between the top state and the runner-up. The margin
    test is exact integer arithmetic: 5 * (top - second) >= n.
    """
    counts: dict[str, int] = {}
    n = 0
    for state in post_states:
        if state is None:
            continue
        n += 1
        counts[state] = counts.get(state, 0) + 1
    if n < 10:
        return None
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    top_state, top = ranked[0]
    second = ranked[1][1] if len(ranked) > 1 else 0
    if 5 * (top - second) >= n:
        return top_state
    return None


def cohens_kappa(labels_a, labels_b) -> float:
    """Cohen's kappa between two equal-length label sequences."""
    a = list(labels_a)
    b = list(labels_b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 items")
    classes = sorted(set(a) | set(b))
    n_a = {c: 0 for c in classes}
    n_b = {c: 0 for c in classes}
    agree = 0
    for x, y in zip(a, b):
        n_a[x] += 1
        n_b[y] += 1
        agree += x == y
    p_o = agree / n
    p_e = sum((n_a[c] / n) * (n_b[c] / n) for c in classes)
    if p_e >= 1.0:
        raise DegenerateMarginalsError("expected agreement is 1; kappa undefined")
    return (p_o - p_e) / (1.0 - p_e)


@dataclass(frozen=True)
class GeoPost:
    """One geo-resolved post; state None means not geo-identifiable."""

    author_id: str
    timestamp: int
    state: str | None


def load_geo_posts(path) -> list[GeoPost]:
    """Read author_id,timestamp,state rows (empty state = unresolvable)."""
    lines, cols = _csv_columns(path, ("author_id", "timestamp", "state"), exact=True)
    return [
        GeoPost(author_id=author, timestamp=_parse_int(t, line, "timestamp"), state=state or None)
        for line, author, t, state in zip(lines, cols["author_id"], cols["timestamp"], cols["state"])
    ]


@dataclass(frozen=True)
class ActivityFeatures:
    """Update-activity summary for one author at a point in time."""

    update_count: int
    update_frequency: float
    days_since_most_recent_update: float
    days_since_first_update: float
    is_multisite: bool
    is_mixedsite: bool


_ZERO_ACTIVITY = ActivityFeatures(0, 0.0, 0.0, 0.0, False, False)


@dataclass(frozen=True)
class AuthorRecord:
    author_id: object
    role: str | None
    is_shared_account: bool
    health_condition: str | None
    state: str | None
    site_ids: tuple
    first_update_time: int | None


class AuthorDirectory:
    """Per-author aggregates derived from the update log.

    Keys match the representation the directory was built from: integer
    author codes for an UpdateLog (sharing its vocabulary with the rest of
    the pipeline), string ids for a list of UpdateEvent records. Records go
    through :meth:`UpdateLog.from_records`, so they pass the loaders' checks
    and their ids become their ``str``.

    ``site_conditions`` maps site id (same key space) to a self-reported
    health-condition category; ``site_created`` optionally supplies site
    creation times, defaulting to the author's first update per site.
    Roles are full-history aggregates: they do not vary with the query time.
    Every aggregate is computed once from the log's (site, author) table; a
    lookup maps the key to the author's row and reads that row.
    """

    def __init__(self, updates, site_conditions=None, site_created=None, geo_posts=None):
        if isinstance(updates, UpdateLog):
            log, self.vocab = updates, updates.vocab
        else:
            log, self.vocab = UpdateLog.from_records(updates), None

        # An author's row is its place in the order of first appearance.
        codes = log.author[np.sort(np.unique(log.author, return_index=True)[1])]
        n = len(codes)
        row_of = np.zeros(len(log.vocab.authors), dtype=np.int64)
        row_of[codes] = np.arange(n)
        keys = self._keys(codes, log.vocab.authors)
        self._row = dict(zip(keys, range(n)))

        # Row r's update times, sorted, are _times[_time_bounds[r]:_time_bounds[r + 1]];
        # one more time pads the end. A time's key is its row times _width
        # plus its dense rank among _distinct_times.
        upd_row = row_of[log.author]
        order = np.lexsort((log.timestamp, upd_row))
        times = log.timestamp[order]
        self._times = np.append(times, 0)
        self._time_bounds = np.concatenate(([0], np.cumsum(np.bincount(upd_row, minlength=n))))
        self._distinct_times = _sorted_unique(times)
        self._width = len(self._distinct_times) + 1
        self._time_keys = upd_row[order] * self._width + np.searchsorted(self._distinct_times, times)
        self._first_times = {a: t for t, a in sorted(zip(times[self._time_bounds[:-1]].tolist(), keys))}

        # Row r's sites by first update time, with those times, are
        # _sites/_site_firsts[_site_bounds[r]:_site_bounds[r + 1]].
        site, author, site_first, labeled, patient = _site_authors(log)
        row = row_of[author]
        by_author = np.lexsort((site_first, row))
        lo = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n))))
        self._site_bounds = lo.tolist()
        lo = lo[:-1]
        self._sites = self._keys(site[by_author], log.vocab.sites)
        self._site_firsts = site_first[by_author].tolist()

        n_labeled = np.add.reduceat(labeled[by_author], lo)
        n_patient = np.add.reduceat(patient[by_author], lo)
        role = np.select([n_labeled == 0, 3 * n_patient < n_labeled, 3 * n_patient <= 2 * n_labeled], [0, 1, 2], 3)
        self._roles = np.array(_ROLES, dtype=object)[role].tolist()
        fraction = patient / np.maximum(labeled, 1)
        in_band = (labeled > 0) & (fraction >= 1.0 / 3.0) & (fraction <= 2.0 / 3.0)  # as shared_account
        self._shared = (np.bincount(row[in_band], minlength=n) > 0).tolist()

        # is_mixedsite at t is mixed_from < t: the least, over the author's
        # sites, of the later of its own and the site's second author's first
        # times there. A site's block of the table is ordered by first time,
        # so its second row is its second author.
        block = np.searchsorted(site, site)
        has_second = np.searchsorted(site, site, side="right") - block >= 2
        second = site_first[np.minimum(block + 1, len(site) - 1)]
        mixed_at = np.where(has_second, np.maximum(site_first, second), np.iinfo(np.int64).max)
        mixed_from = np.minimum.reduceat(mixed_at[by_author], lo)
        listed = mixed_from.astype(object)
        listed[np.bincount(row[has_second], minlength=n) == 0] = math.inf
        self._mixed_from = listed.tolist()

        self._conditions = [None] * n
        conditions = self._site_codes(log, site_conditions)
        conditions = {s: c for s, c in conditions.items() if c is not None and c != CONDITION_UNKNOWN}
        if conditions:
            self._assign_conditions(log, conditions, self._site_codes(log, site_created), site, row, site_first)
        self._states: dict = {}
        if geo_posts:
            self._assign_states(geo_posts)

        # Per-row feature columns with one more row, n, standing for a key the
        # directory lacks. Codes: roles index _ROLES; conditions and
        # states count from 1 in order of first appearance, 0 for none. An
        # author's time of its second site, or of becoming mixed-site, is the
        # int64 maximum when there is none: no time lies after it.
        never = np.iinfo(np.int64).max
        self._role_codes = np.append(role, 0).astype(np.int8)
        names: dict = {None: 0}
        self._condition_codes = np.array([names.setdefault(c, len(names)) for c in self._conditions] + [0], np.int32)
        names = {None: 0}
        self._state_codes = {author: names.setdefault(state, len(names)) for author, state in self._states.items()}
        multisite = np.diff(self._site_bounds) >= 2
        self._second_site_at = np.full(n + 1, never)
        self._second_site_at[:n][multisite] = site_first[by_author][lo[multisite] + 1]
        self._mixed_at = np.append(mixed_from, never)

    def _keys(self, codes, ids) -> list:
        """The directory's keys of ``codes``: the codes of a log, the ids of records."""
        return codes.tolist() if self.vocab is not None else list(map(ids.id, codes.tolist()))

    def _site_codes(self, log, mapping) -> dict:
        """``mapping`` keyed by the log's site codes. A log directory takes
        site labels or codes as keys, a record directory labels."""
        out = {}
        for site, value in (mapping or {}).items():
            code = site if self.vocab is not None and not isinstance(site, str) else log.vocab.sites.get(site)
            if code is not None and 0 <= code < len(log.vocab.sites):
                out[code] = value
        return out

    def _assign_conditions(self, log, conditions, created, site, row, site_first) -> None:
        """Each author's first informative condition over its sites ordered
        by (creation time, ``str`` of the site key); ``conditions`` holds the
        informative ones only."""
        by_text = sorted(conditions, key=str if self.vocab is not None else log.vocab.sites.id)
        rank = np.full(len(log.vocab.sites), -1, dtype=np.int64)
        rank[by_text] = np.arange(len(by_text))
        keep = rank[site] >= 0
        site, row, when = site[keep], row[keep], site_first[keep]
        if created:
            when = np.array([created.get(s, t) for s, t in zip(site.tolist(), when.tolist())], dtype=np.int64)
        order = np.lexsort((rank[site], when, row))
        site, row = site[order], row[order]
        head = np.ones(len(row), dtype=bool)
        head[1:] = row[1:] != row[:-1]
        for r, s in zip(row[head].tolist(), site[head].tolist()):
            self._conditions[r] = conditions[s]

    def _assign_states(self, geo_posts) -> None:
        per_author: dict = {}
        for post in geo_posts:
            if isinstance(post, GeoPost):
                author, state = post.author_id, post.state
            else:
                author, state = post[0], post[2]
            if self.vocab is not None and isinstance(author, str):
                code = self.vocab.authors.get(author)
                if code is None:
                    continue
                author = code
            per_author.setdefault(author, []).append(state)
        for author, states in per_author.items():
            assigned = assign_state(states)
            if assigned is not None:
                self._states[author] = assigned

    # -- lookups -------------------------------------------------------------

    def authors(self):
        return self._row.keys()

    def __contains__(self, author) -> bool:
        return author in self._row

    def role(self, author) -> str | None:
        row = self._row.get(author)
        return None if row is None else self._roles[row]

    def is_shared_account(self, author) -> bool:
        row = self._row.get(author)
        return row is not None and self._shared[row]

    def state(self, author) -> str | None:
        return self._states.get(author)

    def first_update_time(self, author) -> int | None:
        row = self._row.get(author)
        return None if row is None else int(self._times[self._time_bounds[row]])

    def first_update_times(self) -> dict:
        """author -> first update time, ordered by (time, author), e.g. for
        graph activation merging."""
        return self._first_times

    def sites_of(self, author) -> tuple:
        row = self._row.get(author)
        if row is None:
            return ()
        lo, hi = self._site_bounds[row], self._site_bounds[row + 1]
        sites = self._sites[lo:hi]
        return tuple(s for _, _, s in sorted(zip(self._site_firsts[lo:hi], map(str, sites), sites)))

    def health_condition(self, author) -> str | None:
        """First informative condition over the author's sites by creation time."""
        row = self._row.get(author)
        return None if row is None else self._conditions[row]

    def shared_condition(self, a, b) -> int:
        return shared_health_condition(self.health_condition(a), self.health_condition(b))

    def shared_state(self, a, b) -> int:
        sa, sb = self._states.get(a), self._states.get(b)
        return int(sa is not None and sa == sb)

    def _feature_rows(self, keys) -> np.ndarray:
        """The row of each key, or the extra row n when the directory lacks it."""
        n = len(self._row)
        return np.fromiter(map(self._row.get, keys, repeat(n)), dtype=np.int64, count=len(keys))

    def _state_code_column(self, keys) -> np.ndarray:
        return np.fromiter(map(self._state_codes.get, keys, repeat(0)), dtype=np.int64, count=len(keys))

    def _activity_columns(self, rows, t) -> tuple[np.ndarray, ...]:
        """:meth:`activity_features` of each ``rows[i]`` at ``t[i]``, as columns
        (update count, frequency, days since most recent, days since first,
        multisite, mixed-site), bit-equal to it."""
        lo = self._time_bounds[rows]
        count = np.searchsorted(self._time_keys, rows * self._width + np.searchsorted(self._distinct_times, t)) - lo
        active = count > 0
        # An active row's first and latest times lie before t, so t minus
        # either is in [1, 2**64): exact in uint64, and rounded to float once,
        # as Python rounds the exact int difference.
        t_bits = t.astype(np.uint64)
        since_first = (t_bits - self._times[lo].astype(np.uint64)).astype(np.float64)
        since_latest = (t_bits - self._times[lo + count - 1].astype(np.uint64)).astype(np.float64)
        months = np.maximum(since_first, SECONDS_PER_DAY) / (SECONDS_PER_DAY * DAYS_PER_MONTH)
        return (
            count,
            np.where(active, count / months, 0.0),
            np.where(active, since_latest / SECONDS_PER_DAY, 0.0),
            np.where(active, since_first / SECONDS_PER_DAY, 0.0),
            active & (self._second_site_at[rows] < t),
            active & (self._mixed_at[rows] < t),
        )

    def record(self, author) -> AuthorRecord:
        return AuthorRecord(
            author_id=author,
            role=self.role(author),
            is_shared_account=self.is_shared_account(author),
            health_condition=self.health_condition(author),
            state=self.state(author),
            site_ids=self.sites_of(author),
            first_update_time=self.first_update_time(author),
        )

    def activity_features(self, author, t) -> ActivityFeatures:
        """Activity summary over updates strictly before ``t``.

        Tenure is clamped to one day so same-day queries stay finite; update
        frequency is updates per 30.44-day month.
        """
        row = self._row.get(author)
        if row is None:
            return _ZERO_ACTIVITY
        lo, hi = int(self._time_bounds[row]), int(self._time_bounds[row + 1])
        count = bisect_left(self._times, t, lo, hi) - lo
        if count == 0:
            return _ZERO_ACTIVITY
        first, latest = int(self._times[lo]), int(self._times[lo + count - 1])
        tenure_seconds = max(t - first, SECONDS_PER_DAY)
        tenure_months = tenure_seconds / (SECONDS_PER_DAY * DAYS_PER_MONTH)
        second_site = self._site_bounds[row] + 1  # sites are in first-update order
        return ActivityFeatures(
            update_count=count,
            update_frequency=count / tenure_months,
            days_since_most_recent_update=(t - latest) / SECONDS_PER_DAY,
            days_since_first_update=(t - first) / SECONDS_PER_DAY,
            is_multisite=second_site < self._site_bounds[row + 1] and self._site_firsts[second_site] < t,
            is_mixedsite=self._mixed_from[row] < t,
        )

    # -- export ----------------------------------------------------------------

    def _label(self, author):
        if self.vocab is not None and isinstance(author, (int, np.integer)):
            return self.vocab.authors.id(int(author))
        return author

    def to_csv(self, path, header_comment: str | None = None) -> None:
        """Write author_id,role,is_shared,health_condition,state,first_update_time, by ``str`` of the id."""
        keys = list(self._row)  # in row order
        rows = zip(
            map(self._label, keys),
            (role or "" for role in self._roles),
            map(int, self._shared),
            (condition or "" for condition in self._conditions),
            (self._states.get(key) or "" for key in keys),
            self._times[self._time_bounds[:-1]].tolist(),
        )
        columns = ("author_id", "role", "is_shared", "health_condition", "state", "first_update_time")
        _write_csv(path, columns, sorted(rows, key=lambda row: str(row[0])), header_comment)


def load_site_conditions(path) -> tuple[dict, dict]:
    """Read site_id,health_condition[,created] rows.

    Returns (conditions, created_times); empty condition cells mean None.
    """
    conditions: dict = {}
    created: dict = {}
    lines, cols = _csv_columns(path, ("site_id",), optional=("health_condition", "created"))
    for line, site, condition, made in zip(lines, cols["site_id"], cols["health_condition"], cols["created"]):
        conditions[site] = condition or None
        if made:
            created[site] = _parse_int(made, line, "created")
    return conditions, created


__all__ = [
    "ActivityFeatures",
    "AuthorDirectory",
    "AuthorRecord",
    "CONDITION_UNKNOWN",
    "DegenerateMarginalsError",
    "GeoPost",
    "ROLE_CAREGIVER",
    "ROLE_MIXED",
    "ROLE_PATIENT",
    "UndefinedRoleError",
    "aggregate_role",
    "assign_health_condition",
    "assign_state",
    "cohens_kappa",
    "load_geo_posts",
    "load_site_conditions",
    "shared_account",
    "shared_health_condition",
]
