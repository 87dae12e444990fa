"""Interaction and update log ingestion.

Raw logs arrive as author->site interaction events (guestbook posts, amps,
comments) plus journal-update events carrying per-update role labels. This
module parses and validates those logs, resolves amp timestamps, drops
self-interactions, and projects the author->site stream into a directed
author->author interaction stream.

Logs are stored column-wise (numpy arrays of integer codes) so that the
multi-million-event pipeline stays fast and compact; string identifiers are
interned in a shared :class:`LogVocab`. Row access still yields ordinary
dataclass records.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

KINDS = ("guestbook", "amp", "comment")
KIND_CODES = {k: i for i, k in enumerate(KINDS)}
KIND_GUESTBOOK, KIND_AMP, KIND_COMMENT = 0, 1, 2

ROLE_LABELS = ("unlabeled", "P", "CG")
ROLE_CODES = {r: i for i, r in enumerate(ROLE_LABELS)}
ROLE_UNLABELED, ROLE_P, ROLE_CG = 0, 1, 2

_INT64_MAX = 2**63 - 1  # timestamps are stored as int64

INTERACTION_COLUMNS = ("actor_id", "site_id", "kind", "timestamp", "update_id")
UPDATE_COLUMNS = ("author_id", "site_id", "update_id", "timestamp", "role_label")


class SchemaError(ValueError):
    """A log row violates the documented schema."""

    def __init__(self, message, line=None, field=None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.field = field


class UnresolvedAmpError(ValueError):
    """Amps reference update ids that are not present in the update log."""

    def __init__(self, update_ids):
        self.update_ids = tuple(update_ids)
        shown = ", ".join(self.update_ids[:10])
        more = "" if len(self.update_ids) <= 10 else f" (+{len(self.update_ids) - 10} more)"
        super().__init__(f"amps reference unknown update ids: {shown}{more}")


@dataclass(frozen=True)
class InteractionEvent:
    """One author->site interaction. Timestamp may be absent only for amps."""

    actor_id: str
    site_id: str
    kind: str
    timestamp: int | None = None
    update_id: str | None = None


@dataclass(frozen=True)
class UpdateEvent:
    """One journal update, with an optional patient/caregiver role label."""

    author_id: str
    site_id: str
    update_id: str
    timestamp: int
    role_label: str = "unlabeled"


@dataclass(frozen=True)
class DirectedInteraction:
    """A directed author->author interaction derived from a site event."""

    source_author: str
    target_author: str
    timestamp: int
    kind: str
    via_site: str


class Vocab:
    """Append-only bidirectional mapping between string ids and int codes."""

    __slots__ = ("_index", "_ids")

    def __init__(self):
        self._index: dict[str, int] = {}
        self._ids: list[str] = []

    def code(self, ident: str) -> int:
        """Return the code for ``ident``, assigning a new one if unseen."""
        idx = self._index.get(ident)
        if idx is None:
            idx = len(self._ids)
            self._index[ident] = idx
            self._ids.append(ident)
        return idx

    def get(self, ident: str) -> int | None:
        return self._index.get(ident)

    def id(self, code: int) -> str:
        return self._ids[code]

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, ident: str) -> bool:
        return ident in self._index


class LogVocab:
    """Shared id spaces for authors, sites, and updates.

    Interaction and update logs that take part in the same pipeline must be
    loaded against the same LogVocab so their integer codes line up.
    """

    __slots__ = ("authors", "sites", "updates")

    def __init__(self):
        self.authors = Vocab()
        self.sites = Vocab()
        self.updates = Vocab()


def _check_timestamp(timestamp, line, minimum=0) -> None:
    """Reject a record's timestamp below ``minimum`` or past what int64 storage holds."""
    if timestamp < minimum:
        message = f"timestamp below {minimum}: {timestamp!r}" if minimum else "negative timestamp"
        raise SchemaError(message, line=line, field="timestamp")
    if timestamp > _INT64_MAX:
        raise SchemaError(f"timestamp exceeds {_INT64_MAX}: {timestamp!r}", line=line, field="timestamp")


def _validate_interaction(ev: InteractionEvent, line=None) -> None:
    if ev.kind not in KIND_CODES:
        raise SchemaError(f"unknown kind '{ev.kind}'", line=line, field="kind")
    if not ev.actor_id:
        raise SchemaError("missing actor id", line=line, field="actor_id")
    if not ev.site_id:
        raise SchemaError("missing site id", line=line, field="site_id")
    if ev.timestamp is None:
        if ev.kind != "amp":
            raise SchemaError("timestamp required for non-amp events", line=line, field="timestamp")
    else:
        _check_timestamp(ev.timestamp, line)
    if ev.update_id is None and ev.kind in ("amp", "comment"):
        raise SchemaError(f"update_id required for kind '{ev.kind}'", line=line, field="update_id")


def _validate_update(ev: UpdateEvent, line=None) -> None:
    for field in ("author_id", "site_id", "update_id"):
        if not getattr(ev, field):
            raise SchemaError(f"missing {field}", line=line, field=field)
    if ev.timestamp is None:
        raise SchemaError("missing timestamp", line=line, field="timestamp")
    _check_timestamp(ev.timestamp, line)
    if ev.role_label not in ROLE_CODES:
        raise SchemaError(f"unknown role_label '{ev.role_label}'", line=line, field="role_label")


def _dedupe_mask(cols: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """Keep-mask over rows, dropping exact duplicates (first occurrence wins)."""
    n = len(cols[0])
    if n == 0:
        return np.ones(0, dtype=bool), 0
    order = np.lexsort(tuple(cols))
    new_group = np.zeros(n, dtype=bool)
    new_group[0] = True
    for c in cols:
        s = c[order]
        new_group[1:] |= s[1:] != s[:-1]
    starts = np.flatnonzero(new_group)
    first_original = np.minimum.reduceat(order, starts)
    keep = np.zeros(n, dtype=bool)
    keep[first_original] = True
    return keep, int(n - len(starts))


class EventLog(Sequence):
    """Columnar store of interaction events sharing a :class:`LogVocab`.

    Columns: actor/site/update codes (int32; -1 means absent update_id),
    kind codes (int8), and timestamps (int64; -1 means absent).
    """

    __slots__ = ("vocab", "actor", "site", "kind", "timestamp", "update")

    def __init__(self, vocab, actor, site, kind, timestamp, update):
        self.vocab = vocab
        self.actor = actor
        self.site = site
        self.kind = kind
        self.timestamp = timestamp
        self.update = update

    @classmethod
    def from_records(cls, events: Iterable[InteractionEvent], vocab: LogVocab | None = None) -> "EventLog":
        vocab = vocab if vocab is not None else LogVocab()
        actor, site = array("i"), array("i")
        kind = array("b")
        ts = array("q")
        upd = array("i")
        for i, ev in enumerate(events):
            _validate_interaction(ev, line=i)
            actor.append(vocab.authors.code(ev.actor_id))
            site.append(vocab.sites.code(ev.site_id))
            kind.append(KIND_CODES[ev.kind])
            ts.append(-1 if ev.timestamp is None else ev.timestamp)
            upd.append(-1 if ev.update_id is None else vocab.updates.code(ev.update_id))
        return cls(
            vocab,
            np.asarray(actor, dtype=np.int32),
            np.asarray(site, dtype=np.int32),
            np.asarray(kind, dtype=np.int8),
            np.asarray(ts, dtype=np.int64),
            np.asarray(upd, dtype=np.int32),
        )

    def _select(self, mask) -> "EventLog":
        return EventLog(
            self.vocab,
            self.actor[mask],
            self.site[mask],
            self.kind[mask],
            self.timestamp[mask],
            self.update[mask],
        )

    def __len__(self) -> int:
        return len(self.actor)

    def __getitem__(self, i) -> InteractionEvent:
        if isinstance(i, slice):
            raise TypeError("slicing not supported; index rows individually")
        i = int(i)
        if i < 0:
            i += len(self)
        ts = int(self.timestamp[i])
        upd = int(self.update[i])
        return InteractionEvent(
            actor_id=self.vocab.authors.id(int(self.actor[i])),
            site_id=self.vocab.sites.id(int(self.site[i])),
            kind=KINDS[self.kind[i]],
            timestamp=None if ts < 0 else ts,
            update_id=None if upd < 0 else self.vocab.updates.id(upd),
        )

    def __iter__(self) -> Iterator[InteractionEvent]:
        for i in range(len(self)):
            yield self[i]


class UpdateLog(Sequence):
    """Columnar store of journal updates sharing a :class:`LogVocab`."""

    __slots__ = ("vocab", "author", "site", "update", "timestamp", "role")

    def __init__(self, vocab, author, site, update, timestamp, role):
        self.vocab = vocab
        self.author = author
        self.site = site
        self.update = update
        self.timestamp = timestamp
        self.role = role

    @classmethod
    def from_records(cls, updates: Iterable[UpdateEvent], vocab: LogVocab | None = None) -> "UpdateLog":
        vocab = vocab if vocab is not None else LogVocab()
        author, site, upd = array("i"), array("i"), array("i")
        ts = array("q")
        role = array("b")
        for i, ev in enumerate(updates):
            _validate_update(ev, line=i)
            author.append(vocab.authors.code(ev.author_id))
            site.append(vocab.sites.code(ev.site_id))
            upd.append(vocab.updates.code(ev.update_id))
            ts.append(ev.timestamp)
            role.append(ROLE_CODES[ev.role_label])
        log = cls(
            vocab,
            np.asarray(author, dtype=np.int32),
            np.asarray(site, dtype=np.int32),
            np.asarray(upd, dtype=np.int32),
            np.asarray(ts, dtype=np.int64),
            np.asarray(role, dtype=np.int8),
        )
        log._check_unique_update_ids()
        return log

    def _check_unique_update_ids(self) -> None:
        if len(self.update) != len(np.unique(self.update)):
            codes, counts = np.unique(self.update, return_counts=True)
            dupes = [self.vocab.updates.id(int(c)) for c in codes[counts > 1][:10]]
            raise SchemaError(f"duplicate update ids: {', '.join(dupes)}", field="update_id")

    def __len__(self) -> int:
        return len(self.author)

    def __getitem__(self, i) -> UpdateEvent:
        if isinstance(i, slice):
            raise TypeError("slicing not supported; index rows individually")
        i = int(i)
        if i < 0:
            i += len(self)
        return UpdateEvent(
            author_id=self.vocab.authors.id(int(self.author[i])),
            site_id=self.vocab.sites.id(int(self.site[i])),
            update_id=self.vocab.updates.id(int(self.update[i])),
            timestamp=int(self.timestamp[i]),
            role_label=ROLE_LABELS[self.role[i]],
        )

    def __iter__(self) -> Iterator[UpdateEvent]:
        for i in range(len(self)):
            yield self[i]


class DirectedInteractionLog(Sequence):
    """Columnar store of directed author->author interactions."""

    __slots__ = ("vocab", "src", "dst", "timestamp", "kind", "site")

    def __init__(self, vocab, src, dst, timestamp, kind, site):
        self.vocab = vocab
        self.src = src
        self.dst = dst
        self.timestamp = timestamp
        self.kind = kind
        self.site = site

    @classmethod
    def from_records(cls, records: Iterable[DirectedInteraction], vocab: LogVocab | None = None) -> "DirectedInteractionLog":
        vocab = vocab if vocab is not None else LogVocab()
        src, dst, site = array("i"), array("i"), array("i")
        ts = array("q")
        kind = array("b")
        for i, rec in enumerate(records):
            if rec.source_author == rec.target_author:
                raise ValueError(f"self-interaction {rec.source_author!r} -> itself")
            _check_timestamp(rec.timestamp, i, minimum=-_INT64_MAX - 1)  # negative times stay allowed here
            src.append(vocab.authors.code(rec.source_author))
            dst.append(vocab.authors.code(rec.target_author))
            ts.append(rec.timestamp)
            kind.append(KIND_CODES[rec.kind])
            site.append(vocab.sites.code(rec.via_site))
        return cls(
            vocab,
            np.asarray(src, dtype=np.int32),
            np.asarray(dst, dtype=np.int32),
            np.asarray(ts, dtype=np.int64),
            np.asarray(kind, dtype=np.int8),
            np.asarray(site, dtype=np.int32),
        )

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, i) -> DirectedInteraction:
        if isinstance(i, slice):
            raise TypeError("slicing not supported; index rows individually")
        i = int(i)
        if i < 0:
            i += len(self)
        return DirectedInteraction(
            source_author=self.vocab.authors.id(int(self.src[i])),
            target_author=self.vocab.authors.id(int(self.dst[i])),
            timestamp=int(self.timestamp[i]),
            kind=KINDS[self.kind[i]],
            via_site=self.vocab.sites.id(int(self.site[i])),
        )

    def __iter__(self) -> Iterator[DirectedInteraction]:
        for i in range(len(self)):
            yield self[i]


def _parse_int(text, line, field, minimum=0):
    try:
        value = int(text)
    except ValueError:
        raise SchemaError(f"not an integer: {text!r}", line=line, field=field) from None
    if value < minimum:
        raise SchemaError(f"negative {field}", line=line, field=field)
    if value > _INT64_MAX:
        raise SchemaError(f"{field} exceeds {_INT64_MAX}: {text!r}", line=line, field=field)
    return value


def _open_rows(path, fmt, columns):
    """Yield (line_number, list-of-string-fields) rows for csv or json-lines."""
    if fmt == "csv":
        import csv

        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                return
            if tuple(header) != columns:
                raise SchemaError(f"expected header {','.join(columns)}, got {','.join(header)}", line=1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(columns):
                    raise SchemaError(f"expected {len(columns)} fields, got {len(row)}", line=lineno)
                yield lineno, row
    elif fmt == "json-lines":
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"invalid JSON: {exc}", line=lineno) from None
                if not isinstance(obj, dict):
                    raise SchemaError("expected a JSON object", line=lineno)
                row = []
                for col in columns:
                    val = obj.get(col)
                    if val is None or val == "":
                        row.append("")
                    elif isinstance(val, bool):
                        raise SchemaError(f"expected string or integer: {val!r}", line=lineno, field=col)
                    else:
                        row.append(str(val))
                yield lineno, row
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json-lines'")


def load_events(path, fmt: str = "csv", vocab: LogVocab | None = None) -> tuple[EventLog, int]:
    """Load interaction events; returns (log, number of duplicate rows removed).

    Exact duplicate rows (all five fields equal) are collapsed to their first
    occurrence. Malformed rows raise :class:`SchemaError` naming the line and
    field.
    """
    vocab = vocab if vocab is not None else LogVocab()
    actor, site = array("i"), array("i")
    kind = array("b")
    ts = array("q")
    upd = array("i")
    author_code = vocab.authors.code
    site_code = vocab.sites.code
    update_code = vocab.updates.code
    for lineno, row in _open_rows(path, fmt, INTERACTION_COLUMNS):
        a, s, k, t, u = row
        kcode = KIND_CODES.get(k)
        if kcode is None:
            raise SchemaError(f"unknown kind '{k}'", line=lineno, field="kind")
        if not a:
            raise SchemaError("missing actor id", line=lineno, field="actor_id")
        if not s:
            raise SchemaError("missing site id", line=lineno, field="site_id")
        if t == "":
            if kcode != KIND_AMP:
                raise SchemaError("timestamp required for non-amp events", line=lineno, field="timestamp")
            tval = -1
        else:
            tval = _parse_int(t, lineno, "timestamp")
        if u == "":
            if kcode != KIND_GUESTBOOK:
                raise SchemaError(f"update_id required for kind '{k}'", line=lineno, field="update_id")
            ucode = -1
        else:
            ucode = update_code(u)
        actor.append(author_code(a))
        site.append(site_code(s))
        kind.append(kcode)
        ts.append(tval)
        upd.append(ucode)
    log = EventLog(
        vocab,
        np.asarray(actor, dtype=np.int32),
        np.asarray(site, dtype=np.int32),
        np.asarray(kind, dtype=np.int8),
        np.asarray(ts, dtype=np.int64),
        np.asarray(upd, dtype=np.int32),
    )
    keep, removed = _dedupe_mask((log.actor, log.site, log.kind, log.timestamp, log.update))
    if removed:
        log = log._select(keep)
    return log, removed


def load_updates(path, fmt: str = "csv", vocab: LogVocab | None = None) -> tuple[UpdateLog, int]:
    """Load journal updates; returns (log, number of duplicate rows removed)."""
    vocab = vocab if vocab is not None else LogVocab()
    author, site, upd = array("i"), array("i"), array("i")
    ts = array("q")
    role = array("b")
    for lineno, row in _open_rows(path, fmt, UPDATE_COLUMNS):
        a, s, u, t, r = row
        if not a:
            raise SchemaError("missing author id", line=lineno, field="author_id")
        if not s:
            raise SchemaError("missing site id", line=lineno, field="site_id")
        if not u:
            raise SchemaError("missing update id", line=lineno, field="update_id")
        if t == "":
            raise SchemaError("missing timestamp", line=lineno, field="timestamp")
        rcode = ROLE_CODES.get(r if r else "unlabeled")
        if rcode is None:
            raise SchemaError(f"unknown role_label '{r}'", line=lineno, field="role_label")
        author.append(vocab.authors.code(a))
        site.append(vocab.sites.code(s))
        upd.append(vocab.updates.code(u))
        ts.append(_parse_int(t, lineno, "timestamp"))
        role.append(rcode)
    log = UpdateLog(
        vocab,
        np.asarray(author, dtype=np.int32),
        np.asarray(site, dtype=np.int32),
        np.asarray(upd, dtype=np.int32),
        np.asarray(ts, dtype=np.int64),
        np.asarray(role, dtype=np.int8),
    )
    keep, removed = _dedupe_mask((log.author, log.site, log.update, log.timestamp, log.role))
    if removed:
        log = UpdateLog(vocab, log.author[keep], log.site[keep], log.update[keep], log.timestamp[keep], log.role[keep])
    log._check_unique_update_ids()
    return log, removed


def load_logs(interactions_path, updates_path, fmt: str = "csv") -> tuple[EventLog, UpdateLog, dict]:
    """Load both logs against one shared vocabulary (the usual entry point)."""
    vocab = LogVocab()
    updates, upd_removed = load_updates(updates_path, fmt, vocab)
    events, evt_removed = load_events(interactions_path, fmt, vocab)
    stats = {"interaction_duplicates_removed": evt_removed, "update_duplicates_removed": upd_removed}
    return events, updates, stats


def _require_shared_vocab(events, updates) -> None:
    if events.vocab is not updates.vocab:
        raise ValueError("logs must share one LogVocab; load them together (see load_logs)")


def resolve_amp_timestamps(events: EventLog, updates: UpdateLog) -> EventLog:
    """Stamp every amp with its update's publication time.

    Amps carry no timestamps of their own, so each takes the publication time
    of the update it reacted to. Non-amp events pass through unchanged. Amps
    referencing update ids missing from the update log raise
    :class:`UnresolvedAmpError` listing the offending ids.
    """
    _require_shared_vocab(events, updates)
    amp_mask = events.kind == KIND_AMP
    if not amp_mask.any():
        return events
    row_of_code = np.full(len(events.vocab.updates), -1, dtype=np.int64)
    row_of_code[updates.update] = np.arange(len(updates), dtype=np.int64)
    amp_codes = events.update[amp_mask]
    rows = row_of_code[amp_codes]
    missing = rows < 0
    if missing.any():
        bad = sorted({events.vocab.updates.id(int(c)) for c in amp_codes[missing]})
        raise UnresolvedAmpError(bad)
    timestamp = events.timestamp.copy()
    timestamp[amp_mask] = updates.timestamp[rows]
    return EventLog(events.vocab, events.actor, events.site, events.kind, timestamp, events.update)


def filter_self_interactions(events: EventLog, updates: UpdateLog) -> tuple[EventLog, int]:
    """Drop events whose actor has published any update on the event's site.

    The exclusion is time-independent: an author's later update on a site
    voids earlier interactions with it too. Returns (kept events, removed
    count). Idempotent.
    """
    _require_shared_vocab(events, updates)
    if len(events) == 0 or len(updates) == 0:
        return events, 0
    span = np.int64(len(events.vocab.sites))
    own_keys = np.unique(updates.author.astype(np.int64) * span + updates.site)
    event_keys = events.actor.astype(np.int64) * span + events.site
    self_mask = np.isin(event_keys, own_keys)
    removed = int(self_mask.sum())
    if removed == 0:
        return events, 0
    return events._select(~self_mask), removed


def project_to_author_edges(events: EventLog, updates: UpdateLog) -> DirectedInteractionLog:
    """Project author->site events into directed author->author interactions.

    An event by ``a`` on site ``s`` at time ``t`` links ``a`` to every author
    with an update on ``s`` strictly before ``t``, plus every author with a
    patient-labeled update on ``s`` at any time (patients are often addressed
    before they first publish). Targets are deduplicated within one event, and
    self-edges are never emitted; duplicates across events are preserved. The
    output is sorted by (timestamp, source, target).
    """
    _require_shared_vocab(events, updates)
    if (events.timestamp < 0).any():
        raise ValueError("events contain unresolved timestamps; run resolve_amp_timestamps first")
    n_events = len(events)
    vocab = events.vocab
    n_authors = np.int64(max(len(vocab.authors), 1))
    if n_events == 0 or len(updates) == 0:
        empty32 = np.zeros(0, dtype=np.int32)
        return DirectedInteractionLog(vocab, empty32, empty32.copy(), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8), empty32.copy())

    # First update time per (site, author).
    sa_key = updates.site.astype(np.int64) * n_authors + updates.author
    order = np.lexsort((updates.timestamp, sa_key))
    k_sorted = sa_key[order]
    t_sorted = updates.timestamp[order]
    first = np.ones(len(k_sorted), dtype=bool)
    first[1:] = k_sorted[1:] != k_sorted[:-1]
    sa_key = k_sorted[first]
    sa_first_t = t_sorted[first]
    site_of = (sa_key // n_authors).astype(np.int64)
    author_of = (sa_key % n_authors).astype(np.int32)
    # Per-site blocks ordered by first update time.
    order2 = np.lexsort((sa_first_t, site_of))
    site_of = site_of[order2]
    author_of = author_of[order2]
    sa_first_t = sa_first_t[order2]

    evt_site = events.site.astype(np.int64)
    block_start = np.searchsorted(site_of, evt_site, side="left")

    # Count of authors with a first update strictly before each event: merge
    # pass over (site, time) with events ordered before same-time updates.
    n_upd = len(site_of)
    comb_site = np.concatenate((evt_site, site_of))
    comb_time = np.concatenate((events.timestamp, sa_first_t))
    comb_is_upd = np.concatenate((np.zeros(n_events, dtype=np.int8), np.ones(n_upd, dtype=np.int8)))
    order3 = np.lexsort((comb_is_upd, comb_time, comb_site))
    is_upd_s = comb_is_upd[order3]
    site_s = comb_site[order3]
    cum_upd = np.cumsum(is_upd_s, dtype=np.int64)
    new_site = np.ones(len(site_s), dtype=bool)
    new_site[1:] = site_s[1:] != site_s[:-1]
    group_id = np.cumsum(new_site) - 1
    starts = np.flatnonzero(new_site)
    base = np.where(starts > 0, cum_upd[starts - 1], 0)
    before_here = cum_upd - is_upd_s - base[group_id]
    prior_count = np.zeros(n_events, dtype=np.int64)
    evt_rows = order3 < n_events
    prior_count[order3[evt_rows]] = before_here[evt_rows]

    # Patient-labeled authors per site (any time), unique (site, author).
    p_rows = updates.role == ROLE_P
    p_keys = np.unique(updates.site[p_rows].astype(np.int64) * n_authors + updates.author[p_rows])
    p_site = (p_keys // n_authors).astype(np.int64)
    p_author = (p_keys % n_authors).astype(np.int32)
    p_start = np.searchsorted(p_site, evt_site, side="left")
    p_count = np.searchsorted(p_site, evt_site, side="right") - p_start

    def expand(counts, source_start, source_authors):
        total = int(counts.sum())
        eidx = np.repeat(np.arange(n_events, dtype=np.int64), counts)
        csum = np.cumsum(counts) - counts
        offsets = np.arange(total, dtype=np.int64) - np.repeat(csum, counts)
        targets = source_authors[np.repeat(source_start, counts) + offsets]
        return eidx, targets

    eidx1, tgt1 = expand(prior_count, block_start, author_of)
    eidx2, tgt2 = expand(p_count, p_start, p_author)
    eidx = np.concatenate((eidx1, eidx2))
    tgt = np.concatenate((tgt1, tgt2)).astype(np.int64)
    keep = tgt != events.actor[eidx]
    pair_key = np.unique(eidx[keep] * n_authors + tgt[keep])
    eidx = (pair_key // n_authors).astype(np.int64)
    dst = (pair_key % n_authors).astype(np.int32)

    src = events.actor[eidx]
    ts = events.timestamp[eidx]
    kind = events.kind[eidx]
    site = events.site[eidx]
    order4 = np.lexsort((dst, src, ts))
    return DirectedInteractionLog(vocab, src[order4], dst[order4], ts[order4], kind[order4], site[order4])


def unique_pair_count(interactions) -> int:
    """Number of distinct ordered (source, target) author pairs."""
    if isinstance(interactions, DirectedInteractionLog):
        if len(interactions) == 0:
            return 0
        span = np.int64(max(int(interactions.dst.max()) + 1, 1))
        return int(np.unique(interactions.src.astype(np.int64) * span + interactions.dst).size)
    pairs = set()
    for rec in interactions:
        if isinstance(rec, DirectedInteraction):
            pairs.add((rec.source_author, rec.target_author))
        else:
            pairs.add((rec[0], rec[1]))
    return len(pairs)
