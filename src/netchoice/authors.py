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

import csv
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .events import ROLE_P, SchemaError, UpdateLog, _fields, _parse_int, _role_code

SECONDS_PER_DAY = 86_400.0
DAYS_PER_MONTH = 30.44

ROLE_PATIENT = "P"
ROLE_CAREGIVER = "CG"
ROLE_MIXED = "Mixed"

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
    posts: list[GeoPost] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"author_id", "timestamp", "state"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise SchemaError(f"expected columns {sorted(expected)}, got {reader.fieldnames}", line=1)
        for row in reader:
            posts.append(
                GeoPost(
                    author_id=row["author_id"],
                    timestamp=_parse_int(row["timestamp"], reader.line_num, "timestamp"),
                    state=row["state"] or None,
                )
            )
    return posts


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


def _record_updates(updates):
    """(author, site, timestamp, role code) of UpdateEvent records, whose
    timestamps and labels pass the file loaders' checks (record ``i`` is line ``i``)."""
    for i, u in enumerate(updates):
        (t,) = _fields((u.timestamp,), i, ("timestamp",))
        yield u.author_id, u.site_id, _parse_int(t, i, "timestamp"), _role_code(u.role_label, i)


class AuthorDirectory:
    """Per-author aggregates derived from the update log.

    Keys match the representation the directory was built from: integer
    author codes for an UpdateLog (sharing its vocabulary with the rest of
    the pipeline), raw string ids for a list of UpdateEvent records.

    ``site_conditions`` maps site id (same key space) to a self-reported
    health-condition category; ``site_created`` optionally supplies site
    creation times, defaulting to the author's first update per site.
    Roles are full-history aggregates: they do not vary with the query time.
    """

    def __init__(self, updates, site_conditions=None, site_created=None, geo_posts=None):
        self._upd_times: dict = {}
        self._site_first: dict = {}       # author -> {site: first update time}
        self._labeled: dict = {}          # author -> [n_labeled, n_patient]
        self._site_labeled: dict = {}     # (author, site) -> [n_labeled, n_patient]
        self._site_author_first: dict = {}  # site -> {author: first update time}
        self.vocab = None

        if isinstance(updates, UpdateLog):
            self.vocab = updates.vocab
            rows = zip(
                updates.author.tolist(),
                updates.site.tolist(),
                updates.timestamp.tolist(),
                updates.role.tolist(),
            )
        else:
            rows = _record_updates(updates)

        times: dict = {}
        for author, site, t, role in rows:
            times.setdefault(author, []).append(t)
            sites = self._site_first.setdefault(author, {})
            if site not in sites or t < sites[site]:
                sites[site] = t
            site_authors = self._site_author_first.setdefault(site, {})
            if author not in site_authors or t < site_authors[author]:
                site_authors[author] = t
            if role != 0:
                tally = self._labeled.setdefault(author, [0, 0])
                tally[0] += 1
                tally[1] += role == ROLE_P
                site_tally = self._site_labeled.setdefault((author, site), [0, 0])
                site_tally[0] += 1
                site_tally[1] += role == ROLE_P

        for author, ts in times.items():
            ts.sort()
            self._upd_times[author] = ts
        by_first = sorted((ts[0], author) for author, ts in self._upd_times.items())
        self._first_times_sorted = np.array([t for t, _ in by_first], dtype=np.int64)
        self._authors_by_first = [a for _, a in by_first]
        self._first_times = {a: t for t, a in by_first}
        self._second_author_time: dict = {}
        for site, byauthor in self._site_author_first.items():
            firsts = sorted(byauthor.values())
            self._second_author_time[site] = firsts[1] if len(firsts) > 1 else None

        self._site_conditions = self._translate_site_keys(site_conditions)
        self._site_created = self._translate_site_keys(site_created)
        self._conditions: dict = {}  # author -> health condition, filled on demand
        self._states: dict = {}
        if geo_posts:
            self._assign_states(geo_posts)

        per_author_fractions: dict = {}
        for (author, _), (n, k) in self._site_labeled.items():
            if n > 0:
                per_author_fractions.setdefault(author, []).append(k / n)
        self._roles: dict = {}
        self._shared: dict = {}
        for author in self._upd_times:
            tally = self._labeled.get(author)
            if tally is None:
                self._roles[author] = None
            else:
                n, k = tally
                self._roles[author] = ROLE_CAREGIVER if 3 * k < n else ROLE_MIXED if 3 * k <= 2 * n else ROLE_PATIENT
            self._shared[author] = shared_account(per_author_fractions.get(author, ()))

    def _translate_site_keys(self, mapping) -> dict:
        if not mapping:
            return {}
        if self.vocab is None:
            return dict(mapping)
        out = {}
        for site, value in mapping.items():
            key = self.vocab.sites.get(site) if isinstance(site, str) else site
            if key is not None:
                out[key] = value
        return out

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
        return self._upd_times.keys()

    def __contains__(self, author) -> bool:
        return author in self._upd_times

    def role(self, author) -> str | None:
        return self._roles.get(author)

    def is_shared_account(self, author) -> bool:
        return self._shared.get(author, False)

    def state(self, author) -> str | None:
        return self._states.get(author)

    def first_update_time(self, author) -> int | None:
        ts = self._upd_times.get(author)
        return ts[0] if ts else None

    def first_update_times(self) -> dict:
        """author -> first update time, e.g. for graph activation merging."""
        return self._first_times

    def authors_first_update_before(self, t) -> list:
        """Authors whose first update is strictly before ``t``."""
        k = int(np.searchsorted(self._first_times_sorted, t, side="left"))
        return self._authors_by_first[:k]

    def sites_of(self, author) -> tuple:
        sites = self._site_first.get(author)
        if not sites:
            return ()
        return tuple(s for s, _ in sorted(sites.items(), key=lambda kv: (kv[1], str(kv[0]))))

    def health_condition(self, author) -> str | None:
        """First informative condition over the author's sites by creation time, cached per author."""
        if author not in self._conditions:
            self._conditions[author] = self._assign_condition(author)
        return self._conditions[author]

    def _assign_condition(self, author) -> str | None:
        sites = self._site_first.get(author)
        if not sites:
            return None
        def creation_time(site):
            return self._site_created.get(site, sites[site])
        ordered = sorted(sites, key=lambda s: (creation_time(s), str(s)))
        return assign_health_condition(self._site_conditions.get(s) for s in ordered)

    def shared_condition(self, a, b) -> int:
        return shared_health_condition(self.health_condition(a), self.health_condition(b))

    def shared_state(self, a, b) -> int:
        sa, sb = self._states.get(a), self._states.get(b)
        return int(sa is not None and sa == sb)

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
        ts = self._upd_times.get(author)
        if not ts:
            return _ZERO_ACTIVITY
        count = bisect_left(ts, t)
        if count == 0:
            return _ZERO_ACTIVITY
        first = ts[0]
        latest = ts[count - 1]
        tenure_seconds = max(t - first, SECONDS_PER_DAY)
        tenure_months = tenure_seconds / (SECONDS_PER_DAY * DAYS_PER_MONTH)
        n_sites = 0
        mixed = False
        for site, first_on_site in self._site_first[author].items():
            if first_on_site < t:
                n_sites += 1
                if not mixed:
                    second = self._second_author_time.get(site)
                    mixed = second is not None and second < t
        return ActivityFeatures(
            update_count=count,
            update_frequency=count / tenure_months,
            days_since_most_recent_update=(t - latest) / SECONDS_PER_DAY,
            days_since_first_update=(t - first) / SECONDS_PER_DAY,
            is_multisite=n_sites >= 2,
            is_mixedsite=mixed,
        )

    # -- export ----------------------------------------------------------------

    def _label(self, author):
        if self.vocab is not None and isinstance(author, (int, np.integer)):
            return self.vocab.authors.id(int(author))
        return author

    def to_csv(self, path, header_comment: str | None = None) -> None:
        """Write author_id,role,is_shared,health_condition,state,first_update_time."""
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["author_id", "role", "is_shared", "health_condition", "state", "first_update_time"])
            for author in sorted(self._upd_times, key=lambda a: str(self._label(a))):
                rec = self.record(author)
                writer.writerow(
                    [
                        self._label(author),
                        rec.role or "",
                        int(rec.is_shared_account),
                        rec.health_condition or "",
                        rec.state or "",
                        rec.first_update_time,
                    ]
                )


def load_site_conditions(path) -> tuple[dict, dict]:
    """Read site_id,health_condition[,created] rows.

    Returns (conditions, created_times); empty condition cells mean None.
    """
    conditions: dict = {}
    created: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "site_id" not in reader.fieldnames:
            raise SchemaError("expected a site_id column", line=1)
        for row in reader:
            site = row["site_id"]
            conditions[site] = row.get("health_condition") or None
            if row.get("created"):
                created[site] = _parse_int(row["created"], reader.line_num, "created")
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
