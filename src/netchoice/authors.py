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

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .events import UpdateLog, _csv_columns, _int64_time, _order, _parse_int, _site_authors, _sorted_unique, _write_csv

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
    Every aggregate is computed once from the log's (site, author) table
    into one column per aggregate, the columns the feature kernel reads; a
    lookup maps the key to the author's row and reads that row.
    """

    def __init__(self, updates, site_conditions=None, site_created=None, geo_posts=None):
        if isinstance(updates, UpdateLog):
            log, self.vocab = updates, updates.vocab
        else:
            log, self.vocab = UpdateLog.from_records(updates), None
        self._site_ids = log.vocab.sites

        # An author's row is its place in the order of first appearance. Each
        # per-row column has one more row, n, standing for a key the directory
        # lacks.
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
        self._distinct_times = _sorted_unique(log.timestamp)
        self._width = len(self._distinct_times) + 1
        time_keys = upd_row * self._width + np.searchsorted(self._distinct_times, log.timestamp)
        order = np.argsort(time_keys)
        self._time_keys = time_keys[order]
        times = log.timestamp[order]
        self._times = np.append(times, 0)
        self._time_bounds = np.concatenate(([0], np.cumsum(np.bincount(upd_row, minlength=n))))
        self._first_times = {a: t for t, a in sorted(zip(times[self._time_bounds[:-1]].tolist(), keys))}

        # Row r's site codes by first update time, with those times, are
        # _sites/_site_firsts[_site_bounds[r]:_site_bounds[r + 1]]; row n's are empty.
        site, author, site_first, labeled, patient = _site_authors(log)
        row = row_of[author]
        by_author = _order(row, site_first)
        bounds = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n))))
        self._site_bounds = np.append(bounds, bounds[-1])
        self._sites = site[by_author]
        self._site_firsts = site_first[by_author]
        lo = bounds[:-1]

        # Roles index _ROLES; a row is shared when one of its sites' patient
        # fractions lies in [1/3, 2/3], as shared_account.
        n_labeled = np.add.reduceat(labeled[by_author], lo)
        n_patient = np.add.reduceat(patient[by_author], lo)
        role = np.select([n_labeled == 0, 3 * n_patient < n_labeled, 3 * n_patient <= 2 * n_labeled], [0, 1, 2], 3)
        self._role_codes = np.append(role, 0).astype(np.int8)
        fraction = patient / np.maximum(labeled, 1)
        in_band = (labeled > 0) & (fraction >= 1.0 / 3.0) & (fraction <= 2.0 / 3.0)
        self._shared = np.bincount(row[in_band], minlength=n + 1) > 0

        # An author's time of its second site, or of becoming mixed-site, is
        # the int64 maximum when there is none: no time lies after it. Mixed
        # at a site is the later of its own and the site's second author's
        # first times there. A site's block of the table is ordered by first
        # time, so its second row is its second author.
        never = np.iinfo(np.int64).max
        self._second_site_at = np.full(n + 1, never)
        multisite = np.diff(bounds) >= 2
        self._second_site_at[:n][multisite] = self._site_firsts[lo[multisite] + 1]
        block = np.searchsorted(site, site)
        has_second = np.searchsorted(site, site, side="right") - block >= 2
        second = site_first[np.minimum(block + 1, len(site) - 1)]
        mixed_at = np.where(has_second, np.maximum(site_first, second), never)
        self._mixed_at = np.append(np.minimum.reduceat(mixed_at[by_author], lo), never)

        # Conditions and states are codes into a name table whose entry 0 is None.
        self._condition_names: list = [None]
        self._condition_codes = np.zeros(n + 1, dtype=np.int32)
        conditions = self._site_codes(log, site_conditions)
        conditions = {s: c for s, c in conditions.items() if c is not None and c != CONDITION_UNKNOWN}
        if conditions:
            self._assign_conditions(log, conditions, self._site_codes(log, site_created), site, row, site_first)
        self._state_names: list = [None]
        self._state_codes: dict = {}  # by author key: an author with a state but no updates keeps it
        if geo_posts:
            self._assign_states(geo_posts)

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
        order = _order(row, when, rank[site])
        site, row = site[order], row[order]
        head = np.ones(len(row), dtype=bool)
        head[1:] = row[1:] != row[:-1]
        names = {name: code for code, name in enumerate(dict.fromkeys(conditions.values()), 1)}
        self._condition_names += names
        code_of = np.zeros(len(log.vocab.sites), dtype=np.int32)
        code_of[list(conditions)] = [names[c] for c in conditions.values()]
        self._condition_codes[row[head]] = code_of[site[head]]

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
        names: dict = {None: 0}
        for author, states in per_author.items():
            assigned = assign_state(states)
            if assigned is not None:
                self._state_codes[author] = names.setdefault(assigned, len(names))
        self._state_names = list(names)

    # -- lookups -------------------------------------------------------------

    def authors(self):
        return self._row.keys()

    def __contains__(self, author) -> bool:
        return author in self._row

    def _row_of(self, author) -> int:
        """The author's row, or the extra row n when the directory lacks it."""
        return self._row.get(author, len(self._row))

    def role(self, author) -> str | None:
        return _ROLES[self._role_codes[self._row_of(author)]]

    def is_shared_account(self, author) -> bool:
        return bool(self._shared[self._row_of(author)])

    def state(self, author) -> str | None:
        return self._state_names[self._state_codes.get(author, 0)]

    def first_update_time(self, author) -> int | None:
        return self._first_times.get(author)

    def first_update_times(self) -> dict:
        """author -> first update time, ordered by (time, author), e.g. for
        graph activation merging."""
        return self._first_times

    def sites_of(self, author) -> tuple:
        row = self._row_of(author)
        lo, hi = self._site_bounds[row : row + 2].tolist()
        sites = self._keys(self._sites[lo:hi], self._site_ids)
        return tuple(s for _, _, s in sorted(zip(self._site_firsts[lo:hi].tolist(), map(str, sites), sites)))

    def health_condition(self, author) -> str | None:
        """First informative condition over the author's sites by creation time."""
        return self._condition_names[self._condition_codes[self._row_of(author)]]

    def shared_condition(self, a, b) -> int:
        return shared_health_condition(self.health_condition(a), self.health_condition(b))

    def shared_state(self, a, b) -> int:
        sa, sb = self._state_codes.get(a, 0), self._state_codes.get(b, 0)
        return int(sa != 0 and sa == sb)

    def _feature_rows(self, keys) -> np.ndarray:
        """The row of each key, or the extra row n when the directory lacks it."""
        n = len(self._row)
        return np.fromiter(map(self._row.get, keys, repeat(n)), dtype=np.int64, count=len(keys))

    def _state_code_column(self, keys) -> np.ndarray:
        return np.fromiter(map(self._state_codes.get, keys, repeat(0)), dtype=np.int64, count=len(keys))

    def _activity_columns(self, rows, t) -> tuple[np.ndarray, ...]:
        """:meth:`activity_features` of each ``rows[i]`` at the int64 ``t[i]``,
        as columns (update count, frequency, days since most recent, days
        since first, multisite, mixed-site)."""
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
        """Activity summary over updates strictly before the int64 time ``t``.

        Tenure is clamped to one day so same-day queries stay finite; update
        frequency is updates per 30.44-day month. The one-row case of the
        feature kernel's columns: a float ``t`` raises TypeError, one
        outside int64 OverflowError.
        """
        rows = np.array([self._row_of(author)])
        columns = self._activity_columns(rows, np.array([_int64_time(t)]))
        return ActivityFeatures(*(column[0].item() for column in columns))

    # -- export ----------------------------------------------------------------

    def _label(self, author):
        if self.vocab is not None and isinstance(author, (int, np.integer)):
            return self.vocab.authors.id(int(author))
        return author

    def to_csv(self, path, header_comment: str | None = None) -> None:
        """Write author_id,role,is_shared,health_condition,state,first_update_time, by ``str`` of the id."""
        keys = list(self._row)  # in row order

        def named(codes, names):
            return map(["", *names[1:]].__getitem__, codes.tolist())

        rows = zip(
            map(self._label, keys),
            named(self._role_codes[:-1], _ROLES),
            self._shared[:-1].astype(int).tolist(),
            named(self._condition_codes[:-1], self._condition_names),
            named(self._state_code_column(keys), self._state_names),
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
