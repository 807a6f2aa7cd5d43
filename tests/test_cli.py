"""End-to-end command-line behavior, including the exit-code contract."""

import contextlib
import csv
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synsim.evaluation
from synsim.cli import CONFIG_FILE_KEYS, PATH_KEYS, main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TRANSIT = FIXTURES / "corpus" / "transit"
ORCHARD = FIXTURES / "corpus" / "orchard"

STOPWORDS_FLAG = ["--stopwords", str(FIXTURES / "stopwords.txt")]
STEMS_FLAG = ["--stems", str(FIXTURES / "stems.tsv")]
SYNONYMS_FLAG = ["--synonyms", str(FIXTURES / "synonyms.txt")]
FIXTURE_FLAGS = [*STOPWORDS_FLAG, *STEMS_FLAG, *SYNONYMS_FLAG]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_setup(tmp_path):
    """A three-document corpus with two identical files, plus empty lexicons."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "x.txt").write_text("alpha beta", encoding="utf-8")
    (corpus / "y.txt").write_text("alpha beta", encoding="utf-8")
    (corpus / "z.txt").write_text("gamma", encoding="utf-8")
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("", encoding="utf-8")
    stems = tmp_path / "stems.tsv"
    stems.write_text("", encoding="utf-8")
    synonyms = tmp_path / "synonyms.txt"
    synonyms.write_text("# no rows\n", encoding="utf-8")
    flags = [
        "--stopwords", str(stopwords),
        "--stems", str(stems),
        "--synonyms", str(synonyms),
    ]
    return corpus, flags


def test_sim_identical_files(small_setup, capsys):
    corpus, flags = small_setup
    code, out, _ = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "y.txt"), str(corpus),
        *flags, "--measures", "cosine",
    )
    assert code == 0
    assert out == "cosine traditional=1.000000 modified=1.000000 delta=0.000000\n"


def test_sim_measure_order_preserved(small_setup, capsys):
    corpus, flags = small_setup
    code, out, _ = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "y.txt"), str(corpus),
        *flags, "--measures", "dice,cosine",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("dice ")
    assert lines[1].startswith("cosine ")


def test_sim_traditional_mode_needs_no_synonyms(small_setup, capsys):
    corpus, flags = small_setup
    no_synonyms = flags[:4]
    code, out, _ = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "z.txt"), str(corpus),
        *no_synonyms, "--mode", "traditional", "--measures", "cosine",
    )
    assert code == 0
    assert "modified=" not in out
    assert "delta=" not in out


def test_sim_modified_mode_without_synonyms_is_a_config_error(small_setup, capsys):
    corpus, flags = small_setup
    no_synonyms = flags[:4]
    code, _, err = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "y.txt"), str(corpus),
        *no_synonyms,
    )
    assert code == 64
    assert "synonyms" in err


def test_sim_missing_file_exits_2(small_setup, capsys):
    corpus, flags = small_setup
    code, _, err = run(
        capsys, "sim", str(corpus / "missing.txt"), str(corpus / "y.txt"), str(corpus),
        *flags,
    )
    assert code == 2
    assert "missing.txt" in err


def test_fixture_pair_boost_shows_in_sim(capsys):
    code, out, _ = run(
        capsys, "sim", str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT),
        *FIXTURE_FLAGS,
    )
    assert code == 0
    for line in out.splitlines():
        parts = dict(field.split("=") for field in line.split()[1:])
        assert float(parts["modified"]) > float(parts["traditional"])


def count_vectorize_calls(monkeypatch) -> list:
    """Record ``(document, vocabulary)`` of every ``vectorize`` call that scoring makes."""
    calls = []
    vectorize = synsim.evaluation.vectorize

    def counted(doc, corpus, vocabulary, config):
        calls.append((doc, tuple(vocabulary)))
        return vectorize(doc, corpus, vocabulary, config)

    monkeypatch.setattr(synsim.evaluation, "vectorize", counted)
    return calls


def test_sim_weights_the_anchor_once_for_every_measure(capsys, monkeypatch):
    calls = count_vectorize_calls(monkeypatch)
    code, out, _ = run(
        capsys, "sim", str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT),
        *FIXTURE_FLAGS, "--measures", "cosine,jaccard,dice",
    )
    assert code == 0
    assert len(out.splitlines()) == 3
    # The anchor: its own terms under both schemes, then the target's terms
    # that it reaches. The target: its own terms, traditional, and its own
    # terms plus the anchor's that it reaches, modified.
    assert sorted(doc.id for doc, _ in calls) == ["a01", "a01", "a01", "a02", "a02"]


@pytest.mark.parametrize("measures", ["cosine", "cosine,jaccard,dice"])
@pytest.mark.parametrize("n_docs", [3, 10])
def test_matrix_weights_the_anchor_own_terms_twice_per_call(
    capsys, monkeypatch, tmp_path, measures, n_docs
):
    for path in sorted(TRANSIT.glob("*.txt"))[:n_docs]:
        shutil.copy(path, tmp_path)
    calls = count_vectorize_calls(monkeypatch)
    code, _, _ = run(capsys, "matrix", str(tmp_path), "a01", *FIXTURE_FLAGS, "--measures", measures)
    assert code == 0
    anchor_calls = [(doc, terms) for doc, terms in calls if doc.id == "a01"]
    own = [terms for doc, terms in anchor_calls if terms == tuple(sorted(doc.counts))]
    reached = [terms for doc, terms in anchor_calls if not set(terms) & set(doc.counts)]
    assert len(own) == 2
    assert len(reached) == n_docs - 1
    assert len(anchor_calls) == 2 + (n_docs - 1)
    # Each target is weighted twice, once per scheme.
    assert len(calls) - len(anchor_calls) == 2 * (n_docs - 1)


def test_unknown_measure_exits_64(small_setup, capsys):
    corpus, flags = small_setup
    code, _, _ = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "y.txt"), str(corpus),
        *flags, "--measures", "euclid",
    )
    assert code == 64


def test_bad_flag_value_exits_64(small_setup, capsys):
    corpus, flags = small_setup
    code, _, _ = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "y.txt"), str(corpus),
        *flags, "--mode", "bogus",
    )
    assert code == 64


def test_unknown_subcommand_exits_64(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64


def test_no_subcommand_exits_64(capsys):
    code, _, err = run(capsys)
    assert code == 64
    assert "command" in err


@pytest.mark.parametrize(
    "command", ["synsim", "sim", "matrix", "report", "preprocess", "vector"]
)
def test_help_exits_0(command, capsys):
    argv = ["--help"] if command == "synsim" else [command, "--help"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: synsim")


def test_matrix_json_layout(capsys):
    code, out, _ = run(
        capsys, "matrix", str(TRANSIT), "a01", *FIXTURE_FLAGS, "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["anchor"] == "a01"
    assert len(payload["rows"]) == 9 * 3
    assert set(payload["averages"]) == {"cosine", "jaccard", "dice"}


def test_matrix_unknown_anchor_exits_2(capsys):
    code, _, err = run(capsys, "matrix", str(TRANSIT), "zz99", *FIXTURE_FLAGS)
    assert code == 2
    assert "zz99" in err


@pytest.mark.parametrize(
    "argv",
    [["matrix", str(TRANSIT), "zz"], ["report", str(TRANSIT), str(ORCHARD), "zz"]],
    ids=["matrix", "report"],
)
def test_absent_anchor_exits_2_with_one_error_line(argv, capsys):
    code, out, err = run(capsys, *argv, *FIXTURE_FLAGS)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["synsim: error: no document with id 'zz'"]


def test_matrix_single_document_corpus_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "only.txt").write_text("one document", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, _, _ = run(
        capsys, "matrix", str(corpus), "only",
        "--stopwords", str(empty), "--stems", str(empty),
        "--mode", "traditional",
    )
    assert code == 2


def test_matrix_csv_and_json_agree(capsys):
    code, json_out, _ = run(
        capsys, "matrix", str(TRANSIT), "a01", *FIXTURE_FLAGS, "--format", "json",
    )
    assert code == 0
    code, csv_out, _ = run(
        capsys, "matrix", str(TRANSIT), "a01", *FIXTURE_FLAGS, "--format", "csv",
    )
    assert code == 0
    payload = json.loads(json_out)
    csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    pair_rows = [r for r in csv_rows if r[1] != "average"]
    assert len(pair_rows) == len(payload["rows"])
    for json_row, csv_row in zip(payload["rows"], pair_rows):
        assert csv_row[0] == json_row["anchor"]
        assert csv_row[1] == json_row["target"]
        assert csv_row[2] == json_row["measure"]
        assert csv_row[3] == f"{json_row['traditional']:.6f}"
        assert csv_row[4] == f"{json_row['modified']:.6f}"
        assert csv_row[5] == f"{json_row['delta']:.6f}"


def test_report_gap_positive_for_every_measure(capsys):
    code, out, _ = run(
        capsys, "report", str(TRANSIT), str(ORCHARD), "a01", *FIXTURE_FLAGS,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["measures"]) == {"cosine", "jaccard", "dice"}
    for entry in payload["measures"].values():
        assert entry["gap"] > 0


def test_report_rerun_is_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "first.json"
    out_b = tmp_path / "second.json"
    for out_path in (out_a, out_b):
        code, _, _ = run(
            capsys, "report", str(TRANSIT), str(ORCHARD), "a01",
            *FIXTURE_FLAGS, "--out", str(out_path),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_report_overlapping_ids_exits_2(tmp_path, capsys):
    one = tmp_path / "one"
    two = tmp_path / "two"
    one.mkdir()
    two.mkdir()
    (one / "same.txt").write_text("alpha", encoding="utf-8")
    (two / "same.txt").write_text("beta", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, _, _ = run(
        capsys, "report", str(one), str(two), "same",
        "--stopwords", str(empty), "--stems", str(empty),
        "--mode", "traditional",
    )
    assert code == 2


def test_report_same_directory_twice_names_it(capsys):
    code, out, err = run(capsys, "report", str(TRANSIT), str(TRANSIT), "a01", *FIXTURE_FLAGS)
    assert code == 2
    assert out == ""
    assert f"directory {TRANSIT} is given more than once" in err


def test_preprocess_trace(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("Ал мұнай мұнай.", encoding="utf-8")
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("ал\n", encoding="utf-8")
    stems = tmp_path / "stems.tsv"
    stems.write_text("", encoding="utf-8")
    code, out, _ = run(
        capsys, "preprocess", str(doc),
        "--stopwords", str(stopwords), "--stems", str(stems),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Ал\tал\t(stopword)"
    assert lines[1] == "мұнай\tмұнай\tмұнай"
    assert "мұнай\t2" in lines
    assert lines[-1] == "total_tokens\t2"


def test_preprocess_empty_file(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, out, _ = run(
        capsys, "preprocess", str(doc),
        "--stopwords", str(empty), "--stems", str(empty),
    )
    assert code == 0
    assert out.endswith("total_tokens\t0\n")


def test_stdout_that_cannot_encode_the_output_exits_2(tmp_path, monkeypatch, capsys):
    doc = tmp_path / "k.txt"
    doc.write_text("Мұнай бағасы өсті", encoding="utf-8")
    flags = [*STOPWORDS_FLAG, *STEMS_FLAG]
    raw = io.BytesIO()
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(raw, encoding="ascii"))
    assert main(["preprocess", str(doc), *flags]) == 2
    sys.stdout.flush()
    assert raw.getvalue() == b""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("synsim: error: stdout's encoding ascii cannot write")
    assert "--out" in err
    # --out writes UTF-8 whatever stdout's encoding is.
    out_path = tmp_path / "out.txt"
    assert main(["preprocess", str(doc), *flags, "--out", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8").startswith("Мұнай\tмұнай\t")
    assert raw.getvalue() == b""


def test_vector_shows_hand_computed_weight(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("aa aa bb", encoding="utf-8")
    (corpus / "d2.txt").write_text("aa cc", encoding="utf-8")
    (corpus / "d3.txt").write_text("bb cc cc", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, out, _ = run(
        capsys, "vector", str(corpus), "d1",
        "--stopwords", str(empty), "--stems", str(empty),
        "--mode", "traditional",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "aa traditional=0.389975"
    assert all(float(line.split("=")[1]) >= 0 for line in lines)


def test_vector_unknown_id_exits_2(capsys):
    code, _, _ = run(
        capsys, "vector", str(TRANSIT), "nope", *FIXTURE_FLAGS,
    )
    assert code == 2


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "x.txt").write_text("alpha beta", encoding="utf-8")
    (corpus / "y.txt").write_text("alpha beta", encoding="utf-8")
    (corpus / "z.txt").write_text("gamma", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "stopwords": str(empty),
                "stems": str(empty),
                "mode": "traditional",
                "measures": ["cosine"],
                "format": "csv",
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "matrix", str(corpus), "x", "--config", str(config),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)  # the flag overrode the config file's csv
    assert [r["measure"] for r in payload["rows"]] == ["cosine", "cosine"]


def test_config_file_unknown_key_exits_64(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"colour": "red"}), encoding="utf-8")
    code, _, err = run(
        capsys, "preprocess", "whatever.txt", "--config", str(config),
    )
    assert code == 64
    assert "colour" in err


def test_config_file_invalid_json_exits_64(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{not json", encoding="utf-8")
    code, _, _ = run(
        capsys, "preprocess", "whatever.txt", "--config", str(config),
    )
    assert code == 64


def test_config_file_ignores_a_leading_bom(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'\xef\xbb\xbf{"mode": "traditional"}')
    pair = [str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT)]
    _, want, _ = run(capsys, "sim", *pair, *FIXTURE_FLAGS, "--mode", "traditional")
    _, both, _ = run(capsys, "sim", *pair, *FIXTURE_FLAGS)
    code, out, err = run(capsys, "sim", *pair, *FIXTURE_FLAGS, "--config", str(config))
    assert (code, err) == (0, "")
    assert out == want
    assert want != both  # the file's mode took effect


@pytest.mark.parametrize(
    "raw",
    [b'{"mode": ' + b"1" * 4301 + b"}", b"[" * 100_000 + b"]" * 100_000],
    ids=["integer-of-4301-digits", "arrays-nested-100000-deep"],
)
def test_config_file_json_past_the_decoder_limits_exits_64(raw, tmp_path, capsys):
    # Written as raw bytes: json.dump cannot produce either file.
    config = tmp_path / "config.json"
    config.write_bytes(raw)
    code, out, err = run(capsys, *MATRIX, *FIXTURE_FLAGS, "--config", str(config))
    assert (code, out) == (64, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"synsim: error: config file {config} is not valid JSON")


def test_out_flag_writes_file_and_not_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "matrix", str(TRANSIT), "a01", *FIXTURE_FLAGS,
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    content = out_path.read_text(encoding="utf-8")
    assert content.startswith("anchor,target,measure,")


@pytest.mark.parametrize(
    "entry",
    [{"measures": 5}, {"stopwords": 3}, {"out": 2}],
    ids=["measures-number", "stopwords-number", "out-number"],
)
def test_config_file_value_of_wrong_type_exits_64(entry, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entry), encoding="utf-8")
    code, out, err = run(
        capsys, "matrix", str(TRANSIT), "a01", *FIXTURE_FLAGS, "--config", str(config),
    )
    assert code == 64
    assert out == ""
    assert next(iter(entry)) in err


# (flags after the matrix command, the start of the error message); {tmp}
# is the test's directory, which holds array.json, a config file of [].
SETTING_ERRORS = {
    "measures-comma": (
        [*FIXTURE_FLAGS, "--measures", ","], "at least one measure is required"
    ),
    "config-missing": (
        [*FIXTURE_FLAGS, "--config", "{tmp}/missing.json"],
        "cannot read config file {tmp}/missing.json: ",
    ),
    "config-directory": (
        [*FIXTURE_FLAGS, "--config", "{tmp}"], "cannot read config file {tmp}: "
    ),
    "config-array": (
        [*FIXTURE_FLAGS, "--config", "{tmp}/array.json"],
        "config file {tmp}/array.json must hold a JSON object",
    ),
    "no-stopwords": ([*STEMS_FLAG, *SYNONYMS_FLAG], "--stopwords is required"),
    "no-stems": ([*STOPWORDS_FLAG, *SYNONYMS_FLAG], "--stems is required"),
}


@pytest.mark.parametrize("case", SETTING_ERRORS)
def test_bad_setting_exits_64_with_one_error_line(case, tmp_path, capsys):
    flags, message = SETTING_ERRORS[case]
    (tmp_path / "array.json").write_text("[]", encoding="utf-8")
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    code, out, err = run(capsys, *MATRIX, *flags)
    assert (code, out) == (64, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("synsim: error: " + message.format(tmp=tmp_path))


def test_undecodable_corpus_file_is_named(small_setup, capsys):
    corpus, flags = small_setup
    (corpus / "bad.txt").write_bytes(b"\xff\xfe alpha")
    code, _, err = run(capsys, "matrix", str(corpus), "x", *flags)
    assert code == 2
    assert "bad.txt" in err


def test_corpus_file_name_not_utf8_is_named(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a01.txt").write_bytes((TRANSIT / "a01.txt").read_bytes())
    bad = os.path.join(os.fsencode(corpus), b"\xff.txt")
    try:
        with open(bad, "wb") as handle:
            handle.write(b"alpha")
    except OSError:
        pytest.skip("the file system refuses a file name that is not UTF-8")
    out_path = tmp_path / "out.json"
    code, out, err = run(
        capsys, "matrix", str(corpus), "a01", *FIXTURE_FLAGS, "--out", str(out_path),
    )
    assert (code, out) == (2, "")
    assert err == f"synsim: error: file name {os.fsdecode(bad)!r} is not valid UTF-8\n"
    assert not out_path.exists()


def test_malformed_stems_file_is_named(small_setup, tmp_path, capsys):
    corpus, flags = small_setup
    stems = tmp_path / "broken_stems.tsv"
    stems.write_text("x\n", encoding="utf-8")
    code, _, err = run(capsys, "matrix", str(corpus), "x", *flags, "--stems", str(stems))
    assert code == 2
    assert "broken_stems.tsv" in err
    assert "line 1" in err


def test_undecodable_preprocess_input_is_named(tmp_path, capsys):
    doc = tmp_path / "latin1.txt"
    doc.write_bytes(b"caf\xe9")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, _, err = run(
        capsys, "preprocess", str(doc), "--stopwords", str(empty), "--stems", str(empty),
    )
    assert code == 2
    assert "latin1.txt" in err


def test_sim_rejects_same_named_file_outside_corpus(small_setup, tmp_path, capsys):
    corpus, flags = small_setup
    outside = tmp_path / "other"
    outside.mkdir()
    (outside / "x.txt").write_text("gamma delta", encoding="utf-8")
    code, out, err = run(
        capsys, "sim", str(outside / "x.txt"), str(corpus / "y.txt"), str(corpus), *flags,
    )
    assert code == 2
    assert out == ""
    assert str(outside / "x.txt") in err


def test_sim_accepts_file_named_through_another_path_to_corpus(small_setup, capsys):
    corpus, flags = small_setup
    roundabout = corpus / ".." / corpus.name / "x.txt"
    code, out, _ = run(
        capsys, "sim", str(roundabout), str(corpus / "y.txt"), str(corpus),
        *flags, "--measures", "cosine",
    )
    assert code == 0
    assert out == "cosine traditional=1.000000 modified=1.000000 delta=0.000000\n"


MATRIX = ["matrix", str(TRANSIT), "a01"]
SIM = ["sim", str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT)]

# key: (command, the value the config file gives, the value the flag gives).
# "{tmp}" stands for the test's temporary directory.
PRECEDENCE = {
    "stopwords": (MATRIX, str(FIXTURES / "stopwords.txt"), "{tmp}/empty.txt"),
    "stems": (MATRIX, str(FIXTURES / "stems.tsv"), "{tmp}/empty.txt"),
    "synonyms": (MATRIX, str(FIXTURES / "synonyms.txt"), "{tmp}/empty.txt"),
    "mode": (SIM, "modified", "traditional"),
    "measures": (MATRIX, "dice", "cosine,jaccard"),
    "format": (MATRIX, "csv", "json"),
    "out": (MATRIX, "{tmp}/out/first.txt", "{tmp}/out/second.txt"),
}


@pytest.mark.parametrize("key", PRECEDENCE)
def test_config_file_supplies_each_flagged_key_and_the_flag_wins(key, tmp_path, capsys):
    command, file_value, flag_value = PRECEDENCE[key]
    file_value = file_value.format(tmp=tmp_path)
    flag_value = flag_value.format(tmp=tmp_path)
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    outputs = tmp_path / "out"
    outputs.mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: file_value}), encoding="utf-8")
    others = [
        item
        for flag, value in zip(FIXTURE_FLAGS[::2], FIXTURE_FLAGS[1::2])
        if flag != f"--{key}"
        for item in (flag, value)
    ]

    def observe(*extra):
        code, out, _ = run(capsys, *command, *others, *extra)
        written = {}
        for path in sorted(outputs.iterdir()):
            written[path.name] = path.read_text(encoding="utf-8")
            path.unlink()
        return code, out, written

    from_flag = observe(f"--{key}", file_value)
    overridden = observe(f"--{key}", flag_value)
    assert from_flag != overridden
    assert observe("--config", str(config)) == from_flag
    assert observe("--config", str(config), f"--{key}", flag_value) == overridden


@pytest.mark.parametrize(
    "entry",
    [{"modified_idf": "bogus"}, {"mode": None}, {"smoothing": "plus_one_when_zero"}],
    ids=["modified_idf-bogus", "mode-null", "smoothing-removed"],
)
def test_config_file_bad_value_exits_64(entry, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entry), encoding="utf-8")
    code, out, err = run(capsys, *MATRIX, *FIXTURE_FLAGS, "--config", str(config))
    assert code == 64
    assert out == ""
    assert next(iter(entry)) in err


def test_removed_smoothing_flag_exits_64(capsys):
    code, out, err = run(capsys, *MATRIX, *FIXTURE_FLAGS, "--smoothing", "none")
    assert (code, out) == (64, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("synsim: error: unrecognized arguments: --smoothing")


# The config path is given as a flag only; a config file naming another is refused.
EMPTY_PATHS = [
    ("config", "flag"),
    *((key, form) for key in PATH_KEYS for form in ("flag", "file")),
]


@pytest.mark.parametrize(("key", "form"), EMPTY_PATHS, ids=[f"{k}-{f}" for k, f in EMPTY_PATHS])
def test_empty_path_exits_64_and_names_the_setting(key, form, tmp_path, capsys):
    flags = dict(zip(FIXTURE_FLAGS[::2], FIXTURE_FLAGS[1::2]))
    flags["--mode"] = "traditional"  # so an empty --synonyms is not merely required
    if form == "flag":
        flags[f"--{key}"] = ""
    else:
        flags.pop(f"--{key}", None)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: ""}), encoding="utf-8")
        flags["--config"] = str(config)
    code, out, err = run(capsys, *MATRIX, *(item for pair in flags.items() for item in pair))
    assert (code, out) == (64, "")
    assert err == f"synsim: error: {key} is an empty path\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_failed_write_to_out_names_the_file(capsys):
    # Every write to /dev/full fails with ENOSPC, an error that names no file.
    code, out, err = run(capsys, *MATRIX, *FIXTURE_FLAGS, "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("synsim: error: cannot write '/dev/full': ")


# (argv, the path the error must name): a directory where a file is expected,
# and a file where a directory is. {tmp} is the test's directory; its corpus
# holds a01.txt, a02.txt and a directory named x.txt.
SWAPPED_KINDS = {
    **{
        f"{key}-directory": ([*MATRIX, *FIXTURE_FLAGS, f"--{key}", "{tmp}"], "{tmp}")
        for key in ("config", *PATH_KEYS)
    },
    "corpus-file": (
        ["matrix", str(TRANSIT / "a01.txt"), "a01", *FIXTURE_FLAGS], str(TRANSIT / "a01.txt")
    ),
    "corpus-directory-named-txt": (
        ["matrix", "{tmp}/corpus", "a01", *FIXTURE_FLAGS], "{tmp}/corpus/x.txt"
    ),
}


@pytest.mark.parametrize("case", SWAPPED_KINDS)
def test_swapped_file_kind_exits_with_one_error_line_naming_it(case, tmp_path, capsys):
    argv, path = SWAPPED_KINDS[case]
    corpus = tmp_path / "corpus"
    (corpus / "x.txt").mkdir(parents=True)
    for name in ("a01.txt", "a02.txt"):
        shutil.copy(TRANSIT / name, corpus)
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code in (2, 64)
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("synsim: error: ")
    assert path.format(tmp=tmp_path) in err


# Any code point, lone surrogates included: a JSON file can hold what argv cannot.
TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from("\n\r\x00\ud800\u2028"))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=4,
)
# Values each key accepts. Each key a drawn file does not pick as wild takes
# one, so most runs get past the config file to the lexicons, the corpus and
# the output.
VALID_VALUES = {
    "stopwords": [str(FIXTURES / "stopwords.txt")],
    "stems": [str(FIXTURES / "stems.tsv")],
    "synonyms": [str(FIXTURES / "synonyms.txt"), str(FIXTURES / "stems.tsv")],
    "mode": ["traditional", "modified", "both"],
    "measures": ["dice,cosine", ["jaccard"]],
    "format": ["json", "csv"],
    "modified_idf": ["resolved", "raw"],
}
COMMANDS = {
    "matrix": MATRIX,
    "sim": SIM,
    "report": ["report", str(TRANSIT), str(ORCHARD), "a01"],
    "vector": ["vector", str(TRANSIT), "a01"],
    "preprocess": ["preprocess", str(TRANSIT / "a01.txt")],
}


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_any_config_file_exits_0_2_or_64_with_one_error_line(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        config = {key: data.draw(st.sampled_from(values)) for key, values in VALID_VALUES.items()}
        # The run's working directory is tmp, and an output name holds no
        # "/", so neither "/x" nor "../x" can leave it.
        outs = (JSON_VALUES | TEXT).filter(lambda v: not (isinstance(v, str) and "/" in v))
        keys = [*CONFIG_FILE_KEYS, "smoothing", "colour"]
        for key in sorted(data.draw(st.sets(st.sampled_from(keys), max_size=3))):
            config[key] = data.draw(outs if key == "out" else JSON_VALUES)
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        stderr = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main([*COMMANDS[command], "--config", path])
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 64)
    if code:
        assert len(stderr.getvalue().splitlines()) == 1
        assert stderr.getvalue().startswith("synsim: error:")


# Invalid UTF-8 (a stray byte, a lone lead byte, an encoded surrogate), the
# separators each format splits on, a BOM and the line breaks str.splitlines
# sees beyond \n and \r.
INPUT_BYTES = st.lists(
    st.sampled_from(
        [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\r", b"\t", b",", b"#",
         b"\xef\xbb\xbf", "\u0085".encode(), "\u2028".encode(), b"\n", b" ", b"a"]
    ),
    max_size=8,
).map(b"".join)
INPUT_FILES = [
    "stopwords.txt",
    "stems.tsv",
    "synonyms.txt",
    "corpus/transit/a01.txt",
    "corpus/transit/a02.txt",
    "corpus/orchard/b01.txt",
]
INPUT_COMMANDS = {
    "report": ["report", "corpus/transit", "corpus/orchard", "a01"],
    "sim": ["sim", "corpus/transit/a01.txt", "corpus/transit/a02.txt", "corpus/transit"],
    "vector": ["vector", "corpus/transit", "a01"],
    "matrix": ["matrix", "corpus/transit", "a01"],
    "preprocess": ["preprocess", "corpus/transit/a01.txt"],
}


@pytest.mark.parametrize("command", INPUT_COMMANDS)
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(INPUT_FILES), INPUT_BYTES, st.booleans(), st.data())
def test_any_input_file_exits_0_2_or_64_with_one_error_line(command, name, piece, splice, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "fixtures"
        shutil.copytree(FIXTURES, root)
        changed = root / name
        if splice:
            original = changed.read_bytes()
            at = data.draw(st.integers(0, len(original)))
            piece = original[:at] + piece + original[at:]
        changed.write_bytes(piece)
        argv = [str(root / a) if "/" in a else a for a in INPUT_COMMANDS[command]]
        flags = [
            "--stopwords", str(root / "stopwords.txt"),
            "--stems", str(root / "stems.tsv"),
            "--synonyms", str(root / "synonyms.txt"),
            "--out", str(Path(tmp) / "out"),
        ]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, *flags])
    assert code in (0, 2, 64)
    if code:
        assert len(stderr.getvalue().splitlines()) == 1
        assert stderr.getvalue().startswith("synsim: error:")
    if code == 2:
        assert str(changed) in stderr.getvalue()


# Pieces of corpus file names that a CSV cell quotes or a shell escapes; the
# empty name is the file named exactly ".txt", whose id is ".txt".
FILE_NAMES = st.lists(st.sampled_from(["\n", " ", "\\", "é", ",", '"', "b"]), max_size=4).map("".join)


@settings(max_examples=25, deadline=None)
@given(st.sets(FILE_NAMES, min_size=1, max_size=4))
def test_any_corpus_file_names_exit_0_2_or_64_and_read_back_from_csv(names):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp)
        shutil.copy(TRANSIT / "a01.txt", corpus)
        for name in names:
            (corpus / f"{name}.txt").write_text("мұнай құбыры", encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["matrix", tmp, "a01", *FIXTURE_FLAGS, "--format", "csv"])
    assert code in (0, 2, 64)
    if code:
        assert len(stderr.getvalue().splitlines()) == 1
        assert stderr.getvalue().startswith("synsim: error:")
    else:
        targets = {row[1] for row in csv.reader(io.StringIO(stdout.getvalue()))}
        assert targets - {"target", "average"} == {name or ".txt" for name in names}
