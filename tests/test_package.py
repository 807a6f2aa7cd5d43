"""The package's public names and records, no dead code behind them, and no runtime dependency."""

import ast
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import synsim

PACKAGE = Path(synsim.__file__).parent


def test_star_import_binds_exactly_all():
    # A name left in __all__ after its definition is gone fails the import.
    assert len(set(synsim.__all__)) == len(synsim.__all__)
    namespace: dict = {}
    exec("from synsim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(synsim.__all__)


def imported_but_unused(tree: ast.Module) -> set[str]:
    """Names a module binds by import and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unreferenced_private_definitions(trees) -> set[str]:
    """Private functions, classes and methods, dunders aside, that no code names."""
    defined, referenced = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    private = {n for n in defined if n.startswith("_") and not n.endswith("__")}
    return private - referenced


def test_package_imports_no_unused_name_and_defines_no_dead_private_code():
    planted = ast.parse(
        "import os.path\nfrom x import y as z\nimport sys\n"
        "def _dead(): pass\nclass _Live:\n    def _method(self): pass\n"
        "sys.exit(_Live)\n"
    )
    assert imported_but_unused(planted) == {"os", "z"}
    assert unreferenced_private_definitions([planted]) == {"_dead", "_method"}
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    # __init__.py imports names to re-export them.
    unused = {n: imported_but_unused(t) for n, t in trees.items() if n != "__init__.py"}
    assert {n: names for n, names in unused.items() if names} == {}
    assert unreferenced_private_definitions(trees.values()) == set()


def non_stdlib_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports that are not standard library modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names - sys.stdlib_module_names


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependency; relative imports stay in the package.
    planted = ast.parse(
        "import numpy.linalg\nimport os, json\nfrom collections import Counter\n"
        "from . import errors\nfrom .weighting import vectorize\n"
    )
    assert non_stdlib_imports(planted) == {"numpy"}
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    found = {n: non_stdlib_imports(t) for n, t in trees.items()}
    assert {n: names for n, names in found.items() if names} == {}


PAIR = {
    "anchor_id": "q",
    "target_id": "d",
    "measure": "cosine",
    "traditional": 0.25,
    "modified": 0.5,
    "delta": 0.25,
}
AVERAGES = {"traditional": 0.25, "modified": 0.5, "delta": 0.25}
ENTRY = {"similar_delta": 0.25, "dissimilar_delta": 0.125, "gap": 0.125}
TABLE = synsim.SynonymTable((("alpha", "beta"),))

# Each exported record: keyword arguments naming every field in declaration
# order, then one field and a different value for it.
RECORDS = {
    "RawDocument": ({"id": "q", "text": "alpha beta"}, "text", "beta"),
    "ProcessedDocument": ({"id": "q", "counts": {"alpha": 2}}, "id", "d"),
    "SynonymTable": ({"rows": (("alpha", "beta"),)}, "rows", (("alpha", "gamma"),)),
    "WeightingConfig": (
        {"mode": "modified", "synonym_table": TABLE, "modified_idf": "resolved"},
        "modified_idf",
        "raw",
    ),
    "ResolvedCount": ({"count": 2, "matched_term": "beta"}, "count", 3),
    "DocumentVector": ({"weights": {"alpha": 0.5}}, "weights", {"alpha": 0.25}),
    "SimilarityScore": ({"value": 0.5, "measure": "cosine"}, "value", 0.25),
    "ComparisonConfig": (
        {"modified_idf": "raw", "synonym_table": TABLE}, "modified_idf", "resolved",
    ),
    "PairResult": (PAIR, "delta", 0.0),
    "MeasureAverages": (AVERAGES, "modified", 0.25),
    "ReportTable": (
        {
            "anchor_id": "q",
            "rows": (synsim.PairResult(**PAIR),),
            "averages": {"cosine": synsim.MeasureAverages(**AVERAGES)},
        },
        "anchor_id",
        "d",
    ),
    "DeltaEntry": (ENTRY, "gap", 0.0),
    "DeltaSummary": ({"entries": {"cosine": synsim.DeltaEntry(**ENTRY)}}, "entries", {}),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_equality_and_immutability(name):
    cls = getattr(synsim, name)
    kwargs, field, other = RECORDS[name]
    assert name in synsim.__all__
    assert not dataclasses.is_dataclass(cls)
    assert cls._fields == cls.__match_args__ == tuple(kwargs)
    record = cls(**kwargs)
    assert record == cls(*kwargs.values())
    # Only the named tuples equal a plain tuple of their values.
    assert (record == tuple(kwargs.values())) == issubclass(cls, tuple)
    assert all(getattr(record, k) == v for k, v in kwargs.items())
    assert record == cls(**kwargs)
    assert record != cls(**{**kwargs, field: other})
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    assert getattr(record, field) == kwargs[field]
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == kwargs[field]


def round_trips(record) -> tuple:
    return pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_pickle_and_copy_to_equal_records_of_their_type(name):
    cls = getattr(synsim, name)
    record = cls(**RECORDS[name][0])
    for twin in round_trips(record):
        assert type(twin) is cls
        assert twin == record


# Each exported error class: its arguments, then its message.
ERRORS = {
    "SynsimError": (("failed",), "failed"),
    "ConfigError": (("unknown mode 'x'",), "unknown mode 'x'"),
    "LexiconFormatError": (("empty stem in 'a\\t'", 4), "line 4: empty stem in 'a\\t'"),
    "CorpusError": (("not a readable directory: d",), "not a readable directory: d"),
    "EmptyCorpusError": (("no .txt documents",), "no .txt documents"),
    "DuplicateDocumentError": (("id 'q' twice",), "id 'q' twice"),
    "UnknownDocumentError": (("no document with id 'q'",), "no document with id 'q'"),
    "ZeroDocumentFrequencyError": (
        ("x",),
        "term 'x' appears in no document; division by zero (enable plus_one_when_zero smoothing)",
    ),
}


def test_every_exported_error_pickles_and_copies_with_its_message():
    exported = {
        name for name in synsim.__all__
        if isinstance(getattr(synsim, name), type)
        and issubclass(getattr(synsim, name), synsim.SynsimError)
    }
    assert exported == set(ERRORS)
    for name, (args, message) in ERRORS.items():
        error = getattr(synsim, name)(*args)
        assert (str(error), error.args) == (message, args)
        for twin in round_trips(error):
            assert type(twin) is type(error)
            assert (str(twin), twin.args) == (message, args)
            for attribute in ("term", "line_number"):
                assert getattr(twin, attribute, None) == getattr(error, attribute, None)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "cached"])
def test_copies_give_the_cached_values_of_the_original(warm):
    table = synsim.SynonymTable((("a", "b"), ("b", "c")))
    vector = synsim.DocumentVector({"b": 0.5, "a": 0.25})
    if warm:
        # The copies then carry the stored values.
        assert table.row_of and vector.norm_squared
    for twin in round_trips(table):
        assert twin.row_of == {"a": ("a", "b"), "b": ("a", "b"), "c": ("b", "c")}
        assert twin.row_of["b"] is twin.rows[0]
    for twin in round_trips(vector):
        assert twin.norm_squared == 0.3125
        assert twin._terms == ("a", "b")


def test_a_processed_document_derives_its_token_total(fixture_corpus):
    with pytest.raises(TypeError):
        synsim.ProcessedDocument("d", {"a": 2}, 2)
    assert synsim.ProcessedDocument("d").total_tokens == 0
    for build in (
        lambda: synsim.ProcessedDocument("d", {"b": 2, "a": 1}),
        lambda: synsim.ProcessedDocument.from_terms("d", ["b", "a", "b"]),
    ):
        # Copied before and after the total is first read.
        cold = build()
        twins = round_trips(cold)
        assert cold.total_tokens == 3
        for twin in (*twins, *round_trips(cold)):
            assert twin.total_tokens == 3
        with pytest.raises(AttributeError):
            cold.total_tokens = 4
        with pytest.raises(AttributeError):
            del cold.total_tokens
        assert cold.total_tokens == 3
    for doc in fixture_corpus:
        assert doc.total_tokens == sum(doc.counts.values()) > 0


def test_records_that_check_or_cache_hash_their_fields_unless_they_hold_a_dict():
    assert hash(synsim.WeightingConfig("modified", TABLE)) == hash(("modified", TABLE, "resolved"))
    # A table hashes its first term alone.
    assert hash(TABLE) == hash(("alpha",))
    for record in (synsim.ProcessedDocument("q"), synsim.DocumentVector()):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)


def test_records_that_check_or_cache_keep_their_repr():
    pins = [
        (
            synsim.WeightingConfig(),
            "WeightingConfig(mode='traditional', synonym_table=None, modified_idf='resolved')",
        ),
        (
            synsim.WeightingConfig("modified", TABLE, "raw"),
            "WeightingConfig(mode='modified', synonym_table=SynonymTable(rows=(('alpha', 'beta'),)),"
            " modified_idf='raw')",
        ),
        (synsim.SynonymTable(), "SynonymTable(rows=())"),
        (
            synsim.ProcessedDocument("q", {"alpha": 2}),
            "ProcessedDocument(id='q', counts={'alpha': 2})",
        ),
        (synsim.ProcessedDocument("q"), "ProcessedDocument(id='q', counts={})"),
        (
            synsim.ProcessedDocument.from_terms("q", ["b", "a", "b"]),
            "ProcessedDocument(id='q', counts={'b': 2, 'a': 1})",
        ),
        (synsim.DocumentVector(), "DocumentVector(weights={})"),
        (synsim.DocumentVector({"alpha": 0.5}), "DocumentVector(weights={'alpha': 0.5})"),
    ]
    for record, text in pins:
        assert repr(record) == text
        # A filled cache is not a field and does not show.
        for cached in ("row_of", "norm_squared", "total_tokens"):
            getattr(record, cached, None)
        assert repr(record) == text


def test_importing_the_cli_loads_no_reflection_module_and_csv_only_to_write_csv():
    table = synsim.ReportTable(
        anchor_id="q",
        rows=(synsim.PairResult(**PAIR),),
        averages={"cosine": synsim.MeasureAverages(**AVERAGES)},
    )
    # The modules the interpreter loads at start, site's included, are
    # taken away, so only what the import itself loads is left.
    script = f"""
import sys
before = set(sys.modules)
import synsim.cli
loaded = set(sys.modules) - before
from synsim import MeasureAverages, PairResult, ReportTable, render_report
print(sorted(loaded))
print(render_report({table!r}, "csv"), end="")
"""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, encoding="utf-8", env=env, check=True
    )
    first, _, csv_text = done.stdout.partition("\n")
    loaded = set(ast.literal_eval(first))
    assert "synsim.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"} == set()
    assert csv_text == synsim.render_report(table, "csv")
    assert csv_text.startswith("anchor,target,measure,traditional,modified,delta\nq,d,cosine,0.25")
    assert done.stderr == ""
