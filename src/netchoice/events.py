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

import csv
import json
import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import attrgetter

import numpy as np

KINDS = ("guestbook", "amp", "comment")
KIND_CODES = {k: i for i, k in enumerate(KINDS)}
KIND_GUESTBOOK, KIND_AMP, KIND_COMMENT = 0, 1, 2

ROLE_LABELS = ("unlabeled", "P", "CG")
ROLE_CODES = {r: i for i, r in enumerate(ROLE_LABELS)}
ROLE_UNLABELED, ROLE_P, ROLE_CG = 0, 1, 2

_INT64_MAX = 2**63 - 1  # timestamps are stored as int64


def _int64_time(t) -> int:
    """``t`` as a Python int time: TypeError for a non-integer (a float
    included), OverflowError outside int64."""
    t = operator.index(t)
    if not -_INT64_MAX - 1 <= t <= _INT64_MAX:
        raise OverflowError(f"time {t} is outside int64")
    return t


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

    def codes(self, idents: list[str]) -> np.ndarray:
        """The codes of distinct ``idents`` as :meth:`code` gives them one by
        one: new ids get the next codes in their order."""
        codes = np.fromiter(map(self._index.get, idents, repeat(-1)), dtype=np.int32, count=len(idents))
        new = codes < 0
        fresh = list(compress(idents, new.tolist()))
        n = len(self._ids)
        codes[new] = np.arange(n, n + len(fresh))
        self._index.update(zip(fresh, range(n, n + len(fresh))))
        self._ids.extend(fresh)
        return codes

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


def _dedupe_mask(cols: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """Keep-mask over rows, dropping exact duplicates (first occurrence wins)."""
    n = len(cols[0])
    if n == 0:
        return np.ones(0, dtype=bool), 0
    # Rows are grouped, not ordered: columns are packed into as few int64
    # words as their spans allow, and the sort need not be stable.
    words, room = [], 0
    for c in cols:
        lo = int(c.min())
        span = int(c.max()) - lo + 1
        offset = c.astype(np.int64) - lo  # a span past 2**63 wraps, which keeps values distinct
        if words and room * span < 2**63:
            words[-1] += offset * room
            room *= span
        else:
            words.append(offset)
            room = span
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
    new_group = np.zeros(n, dtype=bool)
    new_group[0] = True
    for w in words:
        s = w[order]
        new_group[1:] |= s[1:] != s[:-1]
    starts = np.flatnonzero(new_group)
    first_original = np.minimum.reduceat(order, starts)
    keep = np.zeros(n, dtype=bool)
    keep[first_original] = True
    return keep, int(n - len(starts))


class _ColumnLog(Sequence):
    """Int-code columns over a shared label table, one record per row: a subclass
    names the table (a :class:`LogVocab` for the logs) and then its columns in
    ``__slots__``, and builds row ``i``'s record in ``_row``. A log is a value:
    each column is a read-only view of the array passed in, and no attribute can
    be rebound. ``_memo`` is no column: ``graph`` keeps a directed log's
    first-edge reduction there, and copies and pickles start without it."""

    __slots__ = ("_memo",)

    def __init__(self, vocab, *columns):
        names = self.__slots__[1:]
        if len(columns) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} columns ({', '.join(names)}), got {len(columns)}")
        object.__setattr__(self, self.__slots__[0], vocab)
        for name, column in zip(names, columns):
            view = np.asarray(column).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete '{name}'")

    def __reduce__(self):
        return type(self), (getattr(self, self.__slots__[0]), *self.columns)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The columns in ``__slots__`` order."""
        return tuple(getattr(self, name) for name in self.__slots__[1:])

    def _select(self, mask):
        """The log of the rows ``mask`` picks."""
        return type(self)(getattr(self, self.__slots__[0]), *(c[mask] for c in self.columns))

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[1]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            raise TypeError("slicing not supported; index rows individually")
        i, n = operator.index(i), len(self)
        if not -n <= i < n:
            raise IndexError(f"row {i} out of range for {n} rows")
        return self._row(i % n)

    def __iter__(self) -> Iterator:
        return map(self._row, range(len(self)))


class EventLog(_ColumnLog):
    """Columnar store of interaction events sharing a :class:`LogVocab`.

    Columns: actor/site/update codes (int32; -1 means absent update_id),
    kind codes (int8), and timestamps (int64; -1 means absent).
    """

    __slots__ = ("vocab", "actor", "site", "kind", "timestamp", "update")

    @classmethod
    def from_records(cls, events: Iterable[InteractionEvent], vocab: LogVocab | None = None) -> "EventLog":
        """Validate records as JSON-lines objects (record ``i`` is line ``i``);
        unlike the file loaders, repeated events are kept."""
        return _event_log(_record_rows(events, INTERACTION_COLUMNS), vocab if vocab is not None else LogVocab())

    def _row(self, i) -> InteractionEvent:
        ts = int(self.timestamp[i])
        upd = int(self.update[i])
        return InteractionEvent(
            actor_id=self.vocab.authors.id(int(self.actor[i])),
            site_id=self.vocab.sites.id(int(self.site[i])),
            kind=KINDS[self.kind[i]],
            timestamp=None if ts < 0 else ts,
            update_id=None if upd < 0 else self.vocab.updates.id(upd),
        )


class UpdateLog(_ColumnLog):
    """Columnar store of journal updates sharing a :class:`LogVocab`. Columns:
    author/site/update codes (int32), timestamps (int64) and role codes (int8)."""

    __slots__ = ("vocab", "author", "site", "update", "timestamp", "role")

    @classmethod
    def from_records(cls, updates: Iterable[UpdateEvent], vocab: LogVocab | None = None) -> "UpdateLog":
        """Validate records as JSON-lines objects (record ``i`` is line ``i``);
        unlike the file loaders, a repeated update raises."""
        log = _update_log(_record_rows(updates, UPDATE_COLUMNS), vocab if vocab is not None else LogVocab())
        log._check_unique_update_ids()
        return log

    def _check_unique_update_ids(self, line_of=None) -> None:
        """Reject an update id on two rows, naming the line of the first row
        that repeats one; ``line_of`` maps a row index to its line."""
        if len(self.update) == len(_sorted_unique(self.update)):
            return
        order = np.argsort(self.update, kind="stable")
        codes = self.update[order]
        row = int(order[1:][codes[1:] == codes[:-1]].min())
        ident = self.vocab.updates.id(int(self.update[row]))
        raise SchemaError(f"duplicate update id '{ident}'", line=row if line_of is None else line_of(row), field="update_id")

    def _row(self, i) -> UpdateEvent:
        return UpdateEvent(
            author_id=self.vocab.authors.id(int(self.author[i])),
            site_id=self.vocab.sites.id(int(self.site[i])),
            update_id=self.vocab.updates.id(int(self.update[i])),
            timestamp=int(self.timestamp[i]),
            role_label=ROLE_LABELS[self.role[i]],
        )


class DirectedInteractionLog(_ColumnLog):
    """Columnar store of directed author->author interactions. Columns: source/target
    author codes (int32), timestamps (int64), kind codes (int8) and site codes (int32)."""

    __slots__ = ("vocab", "src", "dst", "timestamp", "kind", "site")

    @classmethod
    def from_records(cls, records: Iterable[DirectedInteraction], vocab: LogVocab | None = None) -> "DirectedInteractionLog":
        vocab = vocab if vocab is not None else LogVocab()
        src, dst, site = array("i"), array("i"), array("i")
        ts = array("q")
        kind = array("b")
        for i, rec in enumerate(records):
            if rec.source_author == rec.target_author:
                raise SchemaError(f"self-interaction {rec.source_author!r} -> itself", line=i, field="target_author")
            kind.append(_kind_code(rec.kind, i))
            # Author keys stay as given; negative times are allowed here.
            (t,) = _fields((rec.timestamp,), i, ("timestamp",))
            ts.append(_parse_int(t, i, "timestamp", minimum=-_INT64_MAX - 1))
            src.append(vocab.authors.code(rec.source_author))
            dst.append(vocab.authors.code(rec.target_author))
            site.append(vocab.sites.code(rec.via_site))
        return cls(vocab, src, dst, ts, kind, site)

    def _row(self, i) -> DirectedInteraction:
        return DirectedInteraction(
            source_author=self.vocab.authors.id(int(self.src[i])),
            target_author=self.vocab.authors.id(int(self.dst[i])),
            timestamp=int(self.timestamp[i]),
            kind=KINDS[self.kind[i]],
            via_site=self.vocab.sites.id(int(self.site[i])),
        )


def _parse_int(text, line, field, minimum=0):
    """``text`` as an integer: ASCII digits after an optional ``-``, at least
    ``minimum`` and within int64. Python's ``int`` alone would also take
    ``5_000``, `` 7``, ``+9`` and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        value = int(text)
    except ValueError:  # also a number too long to read
        raise SchemaError(f"not an integer: {text!r}", line=line, field=field) from None
    if value < minimum:
        raise SchemaError(f"negative {field}" if minimum == 0 else f"{field} below {minimum}", line=line, field=field)
    if value > _INT64_MAX:
        raise SchemaError(f"{field} exceeds {_INT64_MAX}: {text!r}", line=line, field=field)
    return value


def _kind_code(kind, line) -> int:
    code = KIND_CODES.get(kind)
    if code is None:
        raise SchemaError(f"unknown kind '{kind}'", line=line, field="kind")
    return code


def _role_code(label, line) -> int:
    """Code of a role label; an empty label means unlabeled."""
    code = ROLE_CODES.get(label if label else "unlabeled")
    if code is None:
        raise SchemaError(f"unknown role_label '{label}'", line=line, field="role_label")
    return code


def _fields(values, line, columns) -> list[str]:
    """One parsed object's values as strings, as a CSV row would hold them:
    absent or empty is "", a bool is an error, anything else is its str."""
    row = []
    for col, val in zip(columns, values):
        if val is None or val == "":
            row.append("")
        elif isinstance(val, bool):
            raise SchemaError(f"expected string or integer: {val!r}", line=line, field=col)
        else:
            try:
                row.append(str(val))
            except ValueError:  # an int too long to print
                raise SchemaError("value too long", line=line, field=col) from None
    return row


def _record_rows(records, columns):
    """(index, fields) rows of records whose attribute names are ``columns``."""
    get = attrgetter(*columns)
    for i, rec in enumerate(records):
        yield i, _fields(get(rec), i, columns)


def _open_rows(path, fmt, columns, resume=None):
    """(line_number, list-of-string-fields) rows of a csv or json-lines log.
    A CSV log's header is ``columns`` on line 1: it has no ``#`` line. With
    ``resume`` (see _csv_rows) a CSV log's rows start there."""
    if fmt == "csv":
        rows = _csv_rows(path, resume)
        line, header = next(rows, (1, columns))
        if line != 1 or tuple(header) != columns:
            got = ",".join(header) if line == 1 else "a '#' line"
            raise SchemaError(f"expected header {','.join(columns)}, got {got}", line=1)
        return rows
    if fmt == "json-lines":
        return ((line, _fields(map(obj.get, columns), line, columns)) for line, obj in _json_lines(path))
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json-lines'")


def _csv_rows(path, resume=None):
    """Yield a CSV file's header as (line, fields), then (line, fields) for
    every non-blank row, skipping one leading line that starts with ``#``.
    A file with no lines yields nothing; a short row names its first missing
    field. ``resume``, a (byte offset, line) pair, moves past the rows to the
    line that starts there; the bytes before it must be ASCII without ``"``.

    Every input file is read here, by this, _json_lines or _json_file: as
    UTF-8, and what cannot be read is a SchemaError naming its line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            shift = int(fh.readline().startswith("#"))  # line = line_num + shift
            if not shift:
                fh.seek(0)
            header = next(reader, [] if shift else None)
            if header is None:
                return
            yield 1 + shift, header
            if resume is not None:
                fh.seek(resume[0])
                shift = resume[1] - reader.line_num - 1
            width = len(header)
            for row in reader:  # line_num counts physical lines, also inside quotes
                if not row:
                    continue
                if len(row) != width:
                    field = header[len(row)] if len(row) < width else None
                    line = reader.line_num + shift
                    raise SchemaError(f"expected {width} fields, got {len(row)}", line=line, field=field)
                yield reader.line_num + shift, row
        except csv.Error as exc:
            raise SchemaError(f"unreadable CSV: {exc}", line=reader.line_num + shift) from None
        except UnicodeDecodeError:
            raise _decode_error(path, "csv") from None


def _csv_columns(path, required, optional=(), exact=False) -> tuple[list[int], dict[str, list[str]]]:
    """(lines, columns) of a CSV file: the line of every row, and every column
    its header names as a list of strings, plus each ``optional`` column it
    lacks as empty strings. A missing ``required`` column, or with ``exact``
    a column beyond them, is a SchemaError on the header's line."""
    rows = _csv_rows(path)
    line, header = next(rows, (1, []))
    for name in required:
        if name not in header:
            raise SchemaError("missing column", line=line, field=name)
    if exact:
        for name in header:
            if name not in required:
                raise SchemaError("unexpected column", line=line, field=name)
    rows = list(rows)
    columns = {name: [row[i] for _, row in rows] for i, name in enumerate(header)}
    for name in optional:
        columns.setdefault(name, [""] * len(rows))
    return [line for line, _ in rows], columns


def _json_lines(path):
    """Yield (line, object) for every non-blank line of a JSON-lines file."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, text in enumerate(fh, start=1):
                text = text.strip()
                if text:
                    obj = _json_value(text, lineno)
                    if not isinstance(obj, dict):
                        raise SchemaError("expected a JSON object", line=lineno)
                    yield lineno, obj
        except UnicodeDecodeError:
            raise _decode_error(path, "json-lines") from None


def _json_file(path):
    """(line, value) of a JSON file holding one value; line is where it starts."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise _decode_error(path, "json") from None
    value = _json_value(text, 1)
    return text[: len(text) - len(text.lstrip())].count("\n") + 1, value


def _json_value(text, line):
    """The JSON value of ``text``, which starts on ``line``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}", line=line + getattr(exc, "lineno", 1) - 1) from None


def _write_csv(path, columns, rows, header_comment: str | None = None) -> None:
    """Write a CSV artifact as UTF-8: an optional ``# comment`` line, the
    header and the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _decode_error(path, fmt) -> SchemaError:
    """The error for a file that is not UTF-8, naming the first line that does
    not decode and, where the line still parses, the CSV column or JSON key
    whose value holds the byte.

    The text reader decodes whole buffers, so the file is read again, line by
    line in binary; this runs only after a decode has failed.
    """
    import re

    header = None  # a CSV file's header line, once read
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = raw[exc.start]
                break
            if header is None and not (lineno == 1 and text.startswith("#")):
                header = text
        else:
            return SchemaError("not UTF-8")
    # surrogateescape maps each byte that does not decode to U+DC80..U+DCFF.
    text = raw.decode("utf-8", errors="surrogateescape")
    named = []
    if fmt == "csv" and header is not None:
        named = zip(next(csv.reader([header]), []), next(csv.reader([text]), []))
    elif fmt == "json-lines":
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError):
            obj = None
        if isinstance(obj, dict):
            named = obj.items()
    escaped = re.compile("[\udc80-\udcff]")
    field = next((name for name, val in named if isinstance(val, str) and escaped.search(val)), None)
    return SchemaError(f"not UTF-8: byte 0x{byte:02x}", line=lineno, field=field)


def _event_log(rows, vocab: LogVocab) -> EventLog:
    """Validate and intern (line, fields) interaction rows."""
    actor, site = array("i"), array("i")
    kind = array("b")
    ts = array("q")
    upd = array("i")
    author_code = vocab.authors.code
    site_code = vocab.sites.code
    update_code = vocab.updates.code
    for lineno, row in rows:
        a, s, k, t, u = row
        kcode = _kind_code(k, lineno)
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
    return EventLog(vocab, actor, site, kind, ts, upd)


def _update_log(rows, vocab: LogVocab) -> UpdateLog:
    """Validate and intern (line, fields) update rows."""
    author, site, upd = array("i"), array("i"), array("i")
    ts = array("q")
    role = array("b")
    for lineno, row in rows:
        a, s, u, t, r = row
        if not a:
            raise SchemaError("missing author id", line=lineno, field="author_id")
        if not s:
            raise SchemaError("missing site id", line=lineno, field="site_id")
        if not u:
            raise SchemaError("missing update id", line=lineno, field="update_id")
        if t == "":
            raise SchemaError("missing timestamp", line=lineno, field="timestamp")
        rcode = _role_code(r, lineno)
        author.append(vocab.authors.code(a))
        site.append(vocab.sites.code(s))
        upd.append(vocab.updates.code(u))
        ts.append(_parse_int(t, lineno, "timestamp"))
        role.append(rcode)
    return UpdateLog(vocab, author, site, upd, ts, role)


# Lines of a CSV log that the bulk path checks and converts at once, read 64
# bytes a line at a time; this bounds its temporaries. Their size is a trade:
# each one freed raises glibc malloc's mmap threshold to its size, so later
# arrays of that size come from a heap that is not given back. Larger blocks
# raised peak RSS (2**16 lines: the 10M-event peak by 3%), smaller ones cost
# speed (2**12 lines: 17% on bulk-uniform). The subset it takes: ASCII with
# no '"', '\r' or NUL, 4 commas on every line, fields of at most _BULK_FIELD
# bytes and timestamps of at most 18 digits, so that below 2**63.
_BULK_LINES = 1 << 14
_BULK_FIELD = 32
_HEAD_BYTES = np.array([2**64 - 2 ** (64 - 8 * n) for n in range(9)], dtype=np.uint64)  # of a big-endian word


def _read_log(path, fmt, columns, vocab, bulk_block, row_log):
    """The log of a file before its dedupe. A CSV log's leading blocks of
    lines in the bulk subset become columns through ``bulk_block``; from the
    first block outside it, the rest of the file takes the row path
    (``row_log``), which accepts it or raises as for the whole file."""
    vocab = vocab if vocab is not None else LogVocab()
    log, resume = _bulk_csv(path, columns, vocab, bulk_block) if fmt == "csv" else (None, None)
    if log is None or resume is not None:
        rest = row_log(_open_rows(path, fmt, columns, resume), vocab)
        if log is None:
            return rest
        log = type(log)(vocab, *map(np.concatenate, zip(log.columns, rest.columns)))
    return log


def _bulk_csv(path, columns, vocab, bulk_block):
    """(log, resume): the log of the leading blocks of lines in the bulk
    subset, or None when there are none or the header is not exact, and the
    (byte offset, line) where the first block outside it starts, or None.

    Blocks are appended to growing arrays as they are taken: arrays held
    per block until the end would be long-lived holes in malloc's heap."""
    kind, grown, resume = None, [], None
    with open(path, "rb") as fh:
        if fh.readline() != (",".join(columns) + "\n").encode():
            return None, None
        offset, line, data = fh.tell(), 2, b""  # data: the bytes read from offset on
        while resume is None:
            more = fh.read(64 * _BULK_LINES)
            data += more if more or not data or data.endswith(b"\n") else b"\n"  # end the last line
            ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n")) + 1
            if not len(ends):
                if not more:
                    break
                if len(data) > 5 * _BULK_FIELD + 4:  # longer than any line in the subset
                    resume = offset, line
                continue
            for cut in range(0, len(ends), _BULK_LINES):
                block = ends[cut : cut + _BULK_LINES]
                lo = ends[cut - 1] if cut else 0
                buf = np.frombuffer(data[lo : block[-1]] + bytes(_BULK_FIELD), np.uint8)
                fields = _bulk_fields(buf)
                log = None if fields is None else bulk_block(buf, *fields, vocab)
                if log is None:
                    resume = offset + int(lo), line
                    break
                if kind is None:
                    kind, grown = type(log), [array({1: "b", 4: "i", 8: "q"}[c.itemsize]) for c in log.columns]
                for out, c in zip(grown, log.columns):
                    out.frombytes(c.tobytes())
                line += len(block)
            offset += int(ends[-1])
            data = data[ends[-1] :]
    return (None if kind is None else kind(vocab, *grown)), resume


def _bulk_fields(buf):
    """(start, length) arrays of shape (lines, 5) for a block of lines that
    each end in a newline, followed by _BULK_FIELD zero bytes, when every line
    is in the bulk subset as far as bytes and commas go; else None."""
    text = buf[:-_BULK_FIELD]
    if text.max() > 127 or any((text == ord(c)).any() for c in '\0\r"'):
        return None
    seps = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    if len(seps) % 5 or (text[seps].reshape(-1, 5) != np.frombuffer(b",,,,\n", np.uint8)).any():
        return None
    start = np.concatenate(([0], seps[:-1] + 1)).reshape(-1, 5)
    length = seps.reshape(-1, 5) - start
    return None if length.max() > _BULK_FIELD else (start, length)


def _words(buf, start, length):
    """Fields as rows of zero-padded big-endian 8-byte words, in uint64."""
    at = np.ndarray((len(buf) - 7,), dtype=">u8", buffer=buf, strides=(1,))  # the 8 bytes from each position
    words = -(-int(length.max(initial=0)) // 8) or 1
    return np.stack([at[start + 8 * j] & _HEAD_BYTES[np.clip(length - 8 * j, 0, 8)] for j in range(words)], axis=1)


def _interned(vocab, words):
    """Codes of packed ids, interned in order of first appearance."""
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T[::-1])
    sorted_words = words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (sorted_words[1:] != sorted_words[:-1]).any(axis=1)
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    by_first = np.argsort(first)
    idents = words[first[by_first]].astype(">u8").view(f"S{8 * words.shape[1]}").ravel()
    codes = np.empty(len(first), dtype=np.int32)
    codes[by_first] = vocab.codes(list(map(bytes.decode, idents.tolist())))
    out = np.empty(len(order), dtype=np.int32)
    out[order] = codes[np.cumsum(new) - 1]
    return out


def _table_codes(words, values, check):
    """The code ``check`` gives each packed field, which must be one of
    ``values``; None when one is not."""
    out = np.full(len(words), -1, dtype=np.int8)
    for value in values:
        if len(value) <= 8 * words.shape[1]:
            packed = np.frombuffer(value.encode().ljust(8 * words.shape[1], b"\0"), ">u8")
            out[(words == packed).all(axis=1)] = check(value, None)
    return None if (out < 0).any() else out


def _digits(buf, start, length):
    """Values of fields of 0-18 ASCII digits (0 for an empty one), or None."""
    width = int(length.max())
    if width > 18:
        return None
    place = np.arange(width)
    # Right-aligned: a field's digits end at its separator. Places left of a
    # short field are masked; a negative index among them reads end padding.
    digits = buf[(start + length)[:, None] - width + place] - ord("0")
    digits[place < (width - length)[:, None]] = 0
    if (digits > 9).any():
        return None
    return digits.astype(np.int64) @ 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _bulk_events(buf, start, length, vocab):
    """The EventLog of a block of interaction lines, or None (vocab untouched)."""
    empty = length == 0
    kind = _table_codes(_words(buf, start[:, 2], length[:, 2]), KINDS, _kind_code)
    ts = _digits(buf, start[:, 3], length[:, 3])
    if (
        kind is None or ts is None or empty[:, :2].any()
        or (empty[:, 3] & (kind != KIND_AMP)).any() or (empty[:, 4] & (kind != KIND_GUESTBOOK)).any()
    ):
        return None
    ts[empty[:, 3]] = -1
    update = np.full(len(ts), -1, dtype=np.int32)
    has = ~empty[:, 4]
    if has.any():
        update[has] = _interned(vocab.updates, _words(buf, start[has, 4], length[has, 4]))
    actor = _interned(vocab.authors, _words(buf, start[:, 0], length[:, 0]))
    site = _interned(vocab.sites, _words(buf, start[:, 1], length[:, 1]))
    return EventLog(vocab, actor, site, kind, ts, update)


def _bulk_updates(buf, start, length, vocab):
    """The UpdateLog of a block of update lines, or None (vocab untouched)."""
    role = _table_codes(_words(buf, start[:, 4], length[:, 4]), ("",) + ROLE_LABELS, _role_code)
    ts = _digits(buf, start[:, 3], length[:, 3])
    if role is None or ts is None or (length[:, :4] == 0).any():
        return None
    author, site, update = (
        _interned(space, _words(buf, start[:, j], length[:, j]))
        for j, space in enumerate((vocab.authors, vocab.sites, vocab.updates))
    )
    return UpdateLog(vocab, author, site, update, ts, role)


def load_events(path, fmt: str = "csv", vocab: LogVocab | None = None) -> tuple[EventLog, int]:
    """Load interaction events; returns (log, number of duplicate rows removed).

    Exact duplicate rows (all five fields equal) are collapsed to their first
    occurrence. Malformed rows raise :class:`SchemaError` naming the line and
    field.
    """
    log = _read_log(path, fmt, INTERACTION_COLUMNS, vocab, _bulk_events, _event_log)
    keep, removed = _dedupe_mask(log.columns)
    if removed:
        log = log._select(keep)
    return log, removed


def load_updates(path, fmt: str = "csv", vocab: LogVocab | None = None) -> tuple[UpdateLog, int]:
    """Load journal updates; returns (log, number of duplicate rows removed)."""
    log = _read_log(path, fmt, UPDATE_COLUMNS, vocab, _bulk_updates, _update_log)
    keep, removed = _dedupe_mask(log.columns)
    if removed:
        log = log._select(keep)

    def line_of(row):  # error path only: re-read the file up to the kept row
        row = int(np.flatnonzero(keep)[row])
        return next(islice(_open_rows(path, fmt, UPDATE_COLUMNS), row, None))[0]

    log._check_unique_update_ids(line_of)
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


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a 1-D array, by sorting: numpy 2's plain
    ``np.unique`` hashes integers, which is many times slower than a sort."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _site_authors(updates: UpdateLog) -> tuple[np.ndarray, ...]:
    """One row per (site, author) pair with updates, ordered by (site, first
    update time, author): columns (site, author, first update time, labeled
    count, patient-labeled count)."""
    n_authors = np.int64(max(len(updates.vocab.authors), 1))
    key = updates.site.astype(np.int64) * n_authors + updates.author
    order = np.argsort(key, kind="stable")
    key = key[order]
    new_pair = np.ones(len(key), dtype=bool)
    new_pair[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new_pair)
    role = updates.role[order]
    labeled = np.add.reduceat((role != ROLE_UNLABELED).astype(np.int64), starts)
    patient = np.add.reduceat((role == ROLE_P).astype(np.int64), starts)
    key = key[starts]
    first = np.minimum.reduceat(updates.timestamp[order], starts)
    by_site = np.lexsort((first, key // n_authors))  # stable: ties stay in author order
    key = key[by_site]
    site, author = (key // n_authors).astype(np.int32), (key % n_authors).astype(np.int32)
    return site, author, first[by_site], labeled[by_site], patient[by_site]


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
    own_keys = _sorted_unique(updates.author.astype(np.int64) * span + updates.site)
    event_keys = events.actor.astype(np.int64) * span + events.site
    # A membership test by binary search over the sorted, unique keys.
    self_mask = own_keys[np.minimum(own_keys.searchsorted(event_keys), len(own_keys) - 1)] == event_keys
    removed = int(self_mask.sum())
    if removed == 0:
        return events, 0
    return events._select(~self_mask), removed


# Fan-out rows projection expands at once: its temporaries are bounded by
# this, whatever the site sizes. A larger (timestamp, actor) group is one chunk.
_PROJECT_CHUNK = 1 << 17


def project_to_author_edges(events: EventLog, updates: UpdateLog) -> DirectedInteractionLog:
    """Project author->site events into directed author->author interactions.

    An event by ``a`` on site ``s`` at time ``t`` links ``a`` to every author
    with an update on ``s`` strictly before ``t``, plus every author with a
    patient-labeled update on ``s`` at any time (patients are often addressed
    before they first publish). Targets are deduplicated within one event, and
    self-edges are never emitted; duplicates across events are preserved. The
    output is sorted by (timestamp, source, target), ties in event order.
    """
    _require_shared_vocab(events, updates)
    if (events.timestamp < 0).any():
        raise ValueError("events contain unresolved timestamps; run resolve_amp_timestamps first")
    n_events = len(events)
    vocab = events.vocab
    n_authors = np.int64(max(len(vocab.authors), 1))

    # One target list: the (site, author) table keyed per row by its site
    # times width, plus 0 for a patient pair or else 1 + the dense rank of its
    # first update time, and sorted by that key. An event's targets are the
    # rows of its site keyed below 1 + the count of first times before it.
    site_of, author_of, first_t, _, patient = _site_authors(updates)
    firsts = _sorted_unique(first_t)
    width = np.int64(len(firsts) + 1)
    key = site_of * width + np.where(patient > 0, 0, 1 + np.searchsorted(firsts, first_t))
    by_key = np.argsort(key)
    key, author_of = key[by_key], author_of[by_key]

    # Events ranked by (timestamp, actor), ties in event order; every
    # per-event array below is indexed by rank.
    by_rank = np.lexsort((events.actor, events.timestamp))
    actor = events.actor[by_rank]
    evt_time = events.timestamp[by_rank]
    evt_site = events.site[by_rank].astype(np.int64)
    # Site blocks are found through per-site bounds gathered per event; the
    # per-event ends are searched in ascending order, far faster than unsorted.
    block_start = np.searchsorted(key, np.arange(len(vocab.sites), dtype=np.int64) * width)[evt_site]
    end_key = evt_site * width + np.searchsorted(firsts, evt_time) + 1
    by_end = np.argsort(end_key)
    count = np.empty(n_events, dtype=np.int64)
    count[by_end] = np.searchsorted(key, end_key[by_end]) - block_start[by_end]
    del end_key, by_end

    # Rows of events sharing a (timestamp, actor) group are ordered together,
    # so chunks of ranks are cut only at group starts.
    new_group = np.ones(n_events, dtype=bool)
    new_group[1:] = (evt_time[1:] != evt_time[:-1]) | (actor[1:] != actor[:-1])
    group = np.cumsum(new_group) - 1
    group_starts = np.append(np.flatnonzero(new_group), n_events)
    fanout_before = np.concatenate(([0], np.cumsum(count)))[group_starts]
    total = int(fanout_before[-1])
    rank_out = np.empty(total, dtype=np.int64)
    dst_out = np.empty(total, dtype=np.int32)
    n_out = g = 0
    while g < len(group_starts) - 1:
        # As many whole groups as fit in one chunk of fan-out, at least one.
        end = max(int(np.searchsorted(fanout_before, fanout_before[g] + _PROJECT_CHUNK, side="right")) - 1, g + 1)
        rank, dst = _project_chunk(
            int(group_starts[g]), int(group_starts[end]), n_authors, actor, group, count, block_start, author_of
        )
        rank_out[n_out : n_out + len(rank)] = rank
        dst_out[n_out : n_out + len(rank)] = dst
        n_out += len(rank)
        g = end
    dst = dst_out[:n_out].copy()
    del dst_out
    rank = rank_out[:n_out]
    row = by_rank[rank]
    return DirectedInteractionLog(vocab, actor[rank], dst, evt_time[rank], events.kind[row], events.site[row])


def _project_chunk(lo, hi, n_authors, actor, group, counts, starts, authors):
    """(rank, target) rows of the events ranked ``lo`` to ``hi``, in output order.

    A rank links to ``counts`` consecutive authors from ``starts``, each once.
    Self-targets are dropped; rows come out by (group, target), ties in rank
    order.
    """
    counts = counts[lo:hi]
    offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    rank = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
    tgt = authors[np.repeat(starts[lo:hi], counts) + offsets].astype(np.int64)
    keep = tgt != actor[rank]
    # A rank's targets are distinct, so its sorted keys come out in (rank,
    # target) order. Only events sharing a (timestamp, actor) group can
    # interleave: order within each group by target, stably, so ties keep
    # event order.
    pair_key = np.sort(rank[keep] * n_authors + tgt[keep])
    rank = pair_key // n_authors
    dst = pair_key % n_authors
    order = np.argsort(group[rank] * n_authors + dst, kind="stable")
    return rank[order], dst[order]


def unique_pair_count(interactions) -> int:
    """Number of distinct ordered (source, target) author pairs."""
    if isinstance(interactions, DirectedInteractionLog):
        if len(interactions) == 0:
            return 0
        span = np.int64(max(int(interactions.dst.max()) + 1, 1))
        return int(_sorted_unique(interactions.src.astype(np.int64) * span + interactions.dst).size)
    pairs = set()
    for rec in interactions:
        if isinstance(rec, DirectedInteraction):
            pairs.add((rec.source_author, rec.target_author))
        else:
            pairs.add((rec[0], rec[1]))
    return len(pairs)
