"""Guards over the package source itself."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netchoice"


def plain_np_unique_calls(path):
    """``file:line`` of every ``np.unique(...)`` call without a ``return_*`` argument."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not any(kw.arg and kw.arg.startswith("return_") for kw in node.keywords)
        ):
            yield f"{path.name}:{node.lineno}"


def test_scanner_flags_only_plain_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("a = np.unique(x)\nb, i = np.unique(x, return_index=True)\nc = numpy.unique(\n    x,\n)\n")
    assert list(plain_np_unique_calls(path)) == ["mod.py:1", "mod.py:3"]


def test_no_plain_np_unique_in_package():
    # With numpy 2 a plain np.unique on integers takes a hash path many times
    # slower than sorting; packed-key dedupes use events._sorted_unique.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in plain_np_unique_calls(path)]
    assert not found, f"plain np.unique calls (use events._sorted_unique): {', '.join(found)}"


ROW_CHECKS = ("_fields", "_role_code", "_kind_code")


def row_check_uses(path):
    """``file:line`` of every import of, or attribute access to, a row check."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        if any(name in ROW_CHECKS for name in names):
            yield f"{path.name}:{node.lineno}"


def test_scanner_flags_row_check_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .events import _parse_int\nfrom .events import SchemaError, _fields\nx = events._kind_code\n")
    assert list(row_check_uses(path)) == ["mod.py:2", "mod.py:3"]


def test_rows_are_checked_only_in_events():
    # Files and records share one row path in events.py; a second caller of
    # its checks would be a second path that can drift from the first.
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "events.py"]
    assert paths
    found = [hit for path in paths for hit in row_check_uses(path)]
    assert not found, f"row checks used outside events.py: {', '.join(found)}"


def union_find_calls(path):
    """``file:line`` of every call of ``UnionFind``, by name or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "UnionFind":
                yield f"{path.name}:{node.lineno}"


def test_scanner_flags_union_find_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .graph import UnionFind\nd = UnionFind()\ne = graph.UnionFind()\nf = UnionFinder()\n")
    assert list(union_find_calls(path)) == ["mod.py:2", "mod.py:3"]


def test_no_union_find_in_package():
    # The graph and initiation classification replay edges through
    # graph._replay over int codes; the label-keyed UnionFind is the tests'
    # one-edge oracle, and a package caller would be a second replay path.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in union_find_calls(path)]
    assert not found, f"UnionFind calls (replay through graph._replay): {', '.join(found)}"


READERS = {"csv": ("reader", "DictReader"), "json": ("load", "loads")}


def reader_calls(path):
    """``file:line`` of every call of, or import from its module of, ``csv.reader``,
    ``csv.DictReader``, ``json.load`` or ``json.loads``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in READERS:
            if any(alias.name in READERS[node.module] for alias in node.names):
                yield f"{path.name}:{node.lineno}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Name) and node.func.attr in READERS.get(owner.id, ()):
                yield f"{path.name}:{node.lineno}"


def test_scanner_flags_reader_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "r = csv.reader(fh)\nw = csv.writer(fh)\nd = csv.DictReader(fh)\nj = json.loads(t)\n"
        "s = json.dumps(o)\nfrom json import load\nfrom csv import writer\nk = json.load(fh)\n"
    )
    assert sorted(reader_calls(path)) == ["mod.py:1", "mod.py:3", "mod.py:4", "mod.py:6", "mod.py:8"]


def test_files_are_read_only_in_events():
    # events.py holds the one CSV row reader and the JSON readers, which open
    # UTF-8 and name the line of whatever they cannot read; a second reader
    # elsewhere would be a second rule for turning a file into rows.
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "events.py"]
    assert paths
    found = [hit for path in paths for hit in reader_calls(path)]
    assert not found, f"file readers outside events.py (use its readers): {', '.join(found)}"


MEMBERSHIP = ("isin", "in1d")


def membership_calls(path):
    """``file:line`` of every ``np.isin`` or ``np.in1d`` call, and every import of either from numpy."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name in MEMBERSHIP for alias in node.names):
                yield f"{path.name}:{node.lineno}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MEMBERSHIP
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            yield f"{path.name}:{node.lineno}"


def test_scanner_flags_membership_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "a = np.isin(x, y)\nb = x.searchsorted(y)\nc = numpy.in1d(\n    x, y\n)\nfrom numpy import isin\n"
        "d = pd.isin(x)\nfrom numpy import sort\n"
    )
    assert sorted(membership_calls(path)) == ["mod.py:1", "mod.py:3", "mod.py:6"]


def test_no_np_isin_in_package():
    # The first np.isin call in a process costs 12-15 ms for numpy 2's hash
    # path; a membership test over sorted keys is a searchsorted.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in membership_calls(path)]
    assert not found, f"np.isin / np.in1d calls (use searchsorted over sorted keys): {', '.join(found)}"


def _is_false(node):
    return isinstance(node, ast.Constant) and node.value is False


def _is_flags(node):
    return isinstance(node, ast.Attribute) and node.attr == "flags"


def writable_flag_sets(path):
    """``file:line`` of every ``setflags`` call whose ``write`` is not False,
    and every value but False set to ``.flags.writeable`` or ``.flags["WRITEABLE"]``
    (or their short names)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "setflags":
            write = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "write"]
            if any(not _is_false(value) for value in write):
                yield f"{path.name}:{node.lineno}"
        elif isinstance(node, ast.Assign) and not _is_false(node.value):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and _is_flags(target.value) and target.attr in ("writeable", "w"):
                    yield f"{path.name}:{node.lineno}"
                elif (
                    isinstance(target, ast.Subscript) and _is_flags(target.value)
                    and isinstance(target.slice, ast.Constant) and target.slice.value in ("WRITEABLE", "W")
                ):
                    yield f"{path.name}:{node.lineno}"


def test_scanner_flags_writable_flag_sets(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "a.setflags(write=True)\nb.flags.writeable = False\nc.flags.writeable = True\nd.flags['WRITEABLE'] = True\n"
        "e.setflags(write=False)\nf.setflags(True)\ng.flags.w = flag\nh.setflags(align=True)\ni.flags['W'] = 1\n"
        "j.writeable = True\n"
    )
    assert sorted(writable_flag_sets(path)) == ["mod.py:1", "mod.py:3", "mod.py:4", "mod.py:6", "mod.py:7", "mod.py:9"]


def test_no_array_made_writable_in_package():
    # A log's columns are read-only views, so a log is a value that callers
    # may share and memoize; making an array writable again would undo that.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in writable_flag_sets(path)]
    assert not found, f"arrays made writable (copy with np.array instead): {', '.join(found)}"


def first_edge_calls(path):
    """``file:line in function`` of every call of ``_first_edges``, by name or as
    an attribute, naming the innermost function around it (``<module>`` at top level)."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name == "_first_edges":
                    yield f"{path.name}:{child.lineno} in {function}"
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), "<module>")


def test_scanner_flags_first_edge_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def _reduced(log):\n    return _first_edges(log)\n"
        "def build(log):\n    def inner():\n        return graph._first_edges(log)\n    return _first_edges_of(log)\n"
        "x = _first_edges(\n    y,\n)\nf = _first_edges\n"
    )
    assert list(first_edge_calls(path)) == ["mod.py:2 in _reduced", "mod.py:5 in inner", "mod.py:7 in <module>"]


def test_first_edges_is_called_only_by_the_memo():
    # A directed log keeps its first-edge reduction, and graph._reduced is
    # what reads and fills that memo; a second caller of the reduction would
    # reduce a log again, or build a graph the memo never sees.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in first_edge_calls(path)]
    assert [hit.split(" in ")[1] for hit in found] == ["_reduced"], f"calls of _first_edges: {', '.join(found)}"


def linalg_solve_calls(path):
    """``file:function`` of every ``np.linalg.solve`` call, naming the innermost
    function around it (``<module>`` at top level)."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "solve"
                and isinstance(child.func.value, ast.Attribute)
                and child.func.value.attr == "linalg"
            ):
                yield f"{path.name}:{function}"
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), "<module>")


# The damped-Newton solver behind every likelihood fit, the triangular solve
# of least squares, and BBSE's one linear system (guarded by its condition).
LINALG_SOLVE_EXEMPT = {"estimators.py:_newton", "estimators.py:ols_fit", "labelshift.py:bbse_weights"}


def test_scanner_flags_linalg_solve_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def fit(h, g):\n    return np.linalg.solve(h, g)\n"
        "def outer():\n    def step():\n        return numpy.linalg.solve(\n            a, b,\n        )\n"
        "    return la.solve(a, b)\n"
        "x = np.linalg.solve(a, b)\ny = np.linalg.lstsq(a, b)\nz = np.linalg.solve\n"
    )
    assert list(linalg_solve_calls(path)) == ["mod.py:fit", "mod.py:step", "mod.py:<module>"]


def test_linalg_solve_only_in_the_newton_solver():
    # mnl_fit and logistic_fit share estimators._newton; a Newton step solved
    # anywhere else would be a second solver that can drift from it.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = {hit for path in paths for hit in linalg_solve_calls(path)}
    assert "estimators.py:_newton" in found
    assert found <= LINALG_SOLVE_EXEMPT, f"np.linalg.solve in {sorted(found - LINALG_SOLVE_EXEMPT)}"


def initiation_rows(path):
    """``file:line in function`` of every ``Initiation`` row built (a call of it, or it
    passed to another call such as ``map``, ``isinstance`` aside) and every mention of
    ``_initiations``, naming the innermost function around it (``<module>`` at top level)."""

    def named(node, name):
        return (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name)

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == "_initiations":
                    yield f"{path.name}:{child.lineno} in <module>"
                yield from visit(child, child.name)
                continue
            hit = named(child, "_initiations")
            if isinstance(child, ast.Call):
                hit = hit or named(child.func, "Initiation")
                if not (named(child.func, "isinstance") or named(child.func, "issubclass")):
                    hit = hit or any(named(arg, "Initiation") for arg in child.args)
            if hit:
                yield f"{path.name}:{child.lineno} in {function}"
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), "<module>")


def test_scanner_flags_initiation_rows(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def _initiations(cols):\n    return cols\n"
        "class T:\n    def __iter__(self):\n        return map(Initiation, *self.cols)\n"
        "    def row(self):\n        return initiations.Initiation(1, 2, 3)\n"
        "x = isinstance(y, Initiation)\nz: Initiation = w\nrows = init._initiations(a)\n"
        "def f(t: Initiation) -> Initiations:\n    return Initiations(None, *t)\n"
    )
    assert list(initiation_rows(path)) == [
        "mod.py:1 in <module>", "mod.py:5 in __iter__", "mod.py:7 in row", "mod.py:10 in <module>",
    ]


def test_initiation_rows_are_built_only_by_the_table():
    # Initiations are columns; a row is built only when a caller reads one,
    # by Initiations.__iter__ (which indexing also goes through). A row built
    # anywhere else would bring back per-edge objects in a stage.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in initiation_rows(path)]
    assert [hit.split(":")[0] + " in " + hit.split(" in ")[1] for hit in found] == ["initiations.py in __iter__"], (
        f"Initiation rows built outside Initiations.__iter__: {', '.join(found)}"
    )


def row_index_builds(path):
    """``file:line in Class.function`` of every call of ``_RowIndex``, by name or as an
    attribute, naming the classes and functions around it (``<module>`` at top level)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name == "_RowIndex":
                    yield f"{path.name}:{child.lineno} in {'.'.join(scope) or '<module>'}"
            yield from visit(child, scope)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), ())


def test_scanner_flags_row_index_builds(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "class G:\n    def _row_index(self):\n        return _RowIndex(*cols)\n"
        "    def append(self):\n        def grow():\n            return graph._RowIndex(\n                t, s, d,\n            )\n"
        "x = _RowIndex(t, s, d)\ny = _RowIndex\nz = _RowIndexer(t)\n"
    )
    assert list(row_index_builds(path)) == [
        "mod.py:3 in G._row_index", "mod.py:6 in G.append.grow", "mod.py:9 in <module>",
    ]


def test_row_index_is_built_only_by_the_graph():
    # The row index is immutable and the graph's one adjacency structure: an
    # append drops it and TemporalGraph._row_index builds it anew. A second
    # builder would be a second index that can fall out of step with the edges.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in row_index_builds(path)]
    assert [hit.split(" in ")[1] for hit in found] == ["TemporalGraph._row_index"], (
        f"_RowIndex built outside TemporalGraph._row_index: {', '.join(found)}"
    )


ACTIVITY_CONSTANTS = ("SECONDS_PER_DAY", "DAYS_PER_MONTH")


def activity_constant_reads(path):
    """``file:line in Class.function`` of every read of ``SECONDS_PER_DAY`` or
    ``DAYS_PER_MONTH``, by name, as an attribute or by import, naming the
    classes and functions around it (``<module>`` at top level)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope + (child.name,))
                continue
            names = [alias.name for alias in child.names] if isinstance(child, ast.ImportFrom) else []
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                names = [child.id]
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                names = [child.attr]
            if any(name in ACTIVITY_CONSTANTS for name in names):
                yield f"{path.name}:{child.lineno} in {'.'.join(scope) or '<module>'}"
            yield from visit(child, scope)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), ())


def test_scanner_flags_activity_constant_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "SECONDS_PER_DAY = 86_400.0\nclass D:\n    def _activity_columns(self, t):\n"
        "        return t / (SECONDS_PER_DAY * DAYS_PER_MONTH)\n"
        "    def activity_features(self, t):\n        def days():\n            return t / authors.SECONDS_PER_DAY\n"
        "        return days()\nfrom .authors import DAYS_PER_MONTH as MONTH\nx = 'SECONDS_PER_DAY'\nDAYS = 1\n"
    )
    assert list(activity_constant_reads(path)) == [
        "mod.py:4 in D._activity_columns", "mod.py:4 in D._activity_columns",
        "mod.py:7 in D.activity_features.days", "mod.py:9 in <module>",
    ]


def test_activity_formula_only_in_the_kernel():
    # The update-activity features have one formula, the feature kernel's
    # AuthorDirectory._activity_columns; activity_features is its one-row
    # case. A second reader of the day and month lengths would be a second
    # formula that can drift from the kernel.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in activity_constant_reads(path)]
    assert found and {hit.split(":")[0] + " in " + hit.split(" in ")[1] for hit in found} == {
        "authors.py in AuthorDirectory._activity_columns"
    }, f"day or month lengths read outside AuthorDirectory._activity_columns: {', '.join(found)}"


def lexsort_calls(path):
    """``file:Class.function`` of every ``np.lexsort`` call and every import of
    ``lexsort`` from numpy, naming the classes and functions around it
    (``<module>`` at top level)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope + (child.name,))
                continue
            hit = (
                isinstance(child, ast.ImportFrom)
                and child.module == "numpy"
                and any(alias.name == "lexsort" for alias in child.names)
            ) or (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "lexsort"
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id in ("np", "numpy")
            )
            if hit:
                yield f"{path.name}:{'.'.join(scope) or '<module>'}"
            yield from visit(child, scope)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), ())


# The functions that may call np.lexsort, each with the number of calls it may
# make. A new multi-key row order calls events._order, which packs its keys
# into as few int64 words as their spans allow; a function is added here only
# with the measured reason it cannot.
LEXSORT_ALLOWED = Counter({
    # The helper itself: keys whose spans do not fit one int64 word.
    "events.py:_order": 1,
    # Groups a block's packed id words, with no order needed: its unstable
    # argsort of one word beat a stable one 0.32 to 1.26 ms on a 16,384-row
    # block, a block c09 interns about 2,500 times.
    "events.py:_interned": 1,
    # Time-sorted, repeat-heavy input: lexsort((times, key)) took 45.8 ms on
    # zipf-sites against 54.9 ms for a packed stable argsort and 55.2 ms for
    # argsort(key) plus minimum.reduceat (medians of 20-21 alternated runs).
    "graph.py:_first_edges": 1,
    # Its tie-break key is str(node), which no int64 word holds.
    "graph.py:TemporalGraph.activation_prefix": 1,
})


def test_scanner_flags_lexsort_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "class D:\n    def __init__(self, t, r):\n        self.o = np.lexsort((t, r))\n"
        "        def inner():\n            return numpy.lexsort(\n                (t, r),\n            )\n"
        "x = np.lexsort(k)\ny = np.argsort(k)\nz = np.lexsort\nw = keys.lexsort(k)\nfrom numpy import lexsort\n"
    )
    assert list(lexsort_calls(path)) == ["mod.py:D.__init__", "mod.py:D.__init__.inner", "mod.py:<module>", "mod.py:<module>"]


def test_lexsort_calls_are_allowed_ones():
    # A multi-key lexsort is many times slower than one argsort of a packed
    # key: projection's merge pass over events and site authors was its
    # costliest. A new call, or one more in an allowed function, fails here.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = Counter(hit for path in paths for hit in lexsort_calls(path))
    assert found, "the scanner found no np.lexsort call"
    assert not found - LEXSORT_ALLOWED, f"np.lexsort calls past the allow-list: {dict(found - LEXSORT_ALLOWED)}"
