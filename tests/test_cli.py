"""End-to-end command tests through main(argv)."""

import contextlib
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sindhi_ner
import sindhi_ner.gazetteer as gazetteer_module
from sindhi_ner.cli import CONFIG_ENV_VAR, main
from sindhi_ner.corpus import CorpusStore, evaluate, load_gold
from sindhi_ner.errors import MalformedLine, NerError
from sindhi_ner.gazetteer import Category, load_gazetteer, validate_sources
from sindhi_ner.pipeline import (DATA_DIR, DEFAULT_CONFIG_PATH, RENDER_FORMATS, EngineConfig,
                                 TaggedDocument, build_engine, load_config, parse_jsonl,
                                 render)
from sindhi_ner.text import EDGE_SPECIALS

from test_acceptance import GOLDEN
from test_pipeline import memo_words, write_config

SENTENCE = "اويس جمائي 05.06.2016 تي سنڌ يونيورسٽي ويو"
INLINE = ("<PERSON>اويس جمائي</PERSON> <DATE>05.06.2016</DATE> تي "
          "<ORGANIZATION>سنڌ يونيورسٽي</ORGANIZATION> ويو")

ERROR_PREFIX = re.compile(r"^error:[a-z-]+: ")


def feed_stdin(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def run_cli(*argv, cwd=None, **kwargs):
    """``python3 -m sindhi_ner.cli`` in a subprocess under a timeout, so
    that a command waiting on a pipe cannot hang the suite; bytes out.
    It runs in ``cwd``, by default the repository root."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop(CONFIG_ENV_VAR, None)
    return subprocess.run([sys.executable, "-m", "sindhi_ner.cli", *map(str, argv)],
                          cwd=cwd or root, env=env, capture_output=True, timeout=120,
                          **kwargs)


@contextlib.contextmanager
def named_pipe(directory, data: bytes):
    """A named pipe in ``directory`` that a thread fills with ``data``
    (under the pipe's 64 KiB buffer) once a reader opens it."""
    fifo = Path(directory) / "input.fifo"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield fifo
    finally:
        # A command that never opened the pipe leaves the writer waiting
        # in open; opening the read end without waiting releases it.
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        writer.join(timeout=30)
        os.close(fd)
        fifo.unlink()


class TestTag:
    def test_stdin_inline(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, SENTENCE)
        assert main(["tag"]) == 0
        assert capsys.readouterr().out == INLINE + "\n"

    def test_explicit_dash(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, SENTENCE)
        assert main(["tag", "-"]) == 0
        assert capsys.readouterr().out == INLINE + "\n"

    def test_file_matches_stdin(self, tmp_path, monkeypatch, capsys):
        feed_stdin(monkeypatch, SENTENCE)
        main(["tag"])
        from_stdin = capsys.readouterr().out
        src = tmp_path / "doc.txt"
        src.write_text(SENTENCE, encoding="utf-8")
        assert main(["tag", str(src)]) == 0
        assert capsys.readouterr().out == from_stdin

    def test_tabular_format(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "اويس ڪراچي ويو")
        assert main(["tag", "--format", "tabular"]) == 0
        assert capsys.readouterr().out == \
            "اويس\tPERSON\nڪراچي\tLOCATION\nويو\tO\n"

    def test_jsonl_format(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, SENTENCE)
        assert main(["tag", "--format", "jsonl"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["text"] == SENTENCE
        assert [e["label"] for e in payload["entities"]] == \
            ["PERSON", "DATE", "ORGANIZATION"]

    def test_empty_stdin(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "")
        assert main(["tag"]) == 0
        assert capsys.readouterr().out == ""

    def test_invalid_utf8_file(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"\xff\xfe bad")
        assert main(["tag", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:invalid-input: ")
        assert "byte offset 0" in captured.err.splitlines()[0]

    def test_invalid_utf8_stdin(self, monkeypatch, capsys):
        data = "اويس ".encode("utf-8") + b"\xff"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8"))
        assert main(["tag"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:invalid-input: stdin: ")
        assert "byte offset 9" in err

    @pytest.mark.parametrize("fmt", RENDER_FORMATS)
    def test_byte_order_mark_is_dropped(self, tmp_path, monkeypatch, capsys, fmt):
        text = "ڪراچي ويو"
        outputs = []
        for data in (text.encode("utf-8"), b"\xef\xbb\xbf" + text.encode("utf-8")):
            src = tmp_path / "doc.txt"
            src.write_bytes(data)
            assert main(["tag", "--format", fmt, str(src)]) == 0
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            assert main(["tag", "--format", fmt]) == 0
            monkeypatch.setattr("sys.stdin", io.StringIO(data.decode("utf-8")))
            assert main(["tag", "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]
        assert "\ufeff" not in outputs[0] and "LOCATION" in outputs[0]

    def test_invalid_utf8_offset_counts_the_byte_order_mark(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"\xef\xbb\xbfab\xff")
        assert main(["tag", str(src)]) == 1
        assert "byte offset 5" in capsys.readouterr().err

    @pytest.mark.parametrize("data, code, out", [
        (b"\xff\xfe bad", 1, ""),
        (SENTENCE.encode("utf-8"), 0, INLINE + "\n")])
    def test_stdin_is_utf8_in_posix_locale(self, data, code, out):
        # In the POSIX locale the interpreter decodes stdin leniently; the
        # command still reads it as UTF-8, like a file.
        src = os.path.dirname(os.path.dirname(sindhi_ner.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": src}
        for name in ("PYTHONUTF8", "PYTHONIOENCODING"):
            env.pop(name, None)
        proc = subprocess.run(
            [sys.executable, "-c", "from sindhi_ner.cli import run; run()", "tag"],
            input=data, capture_output=True, env=env, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.decode("utf-8") == out
        if code:
            assert proc.stderr.startswith(b"error:invalid-input: stdin: ")

    def test_multiple_files_ordered(self, tmp_path, capsys):
        names = []
        for i, text in enumerate(("اويس ويو", "ڪراچي ۾", "10:40 تي")):
            path = tmp_path / f"doc{i}.txt"
            path.write_text(text, encoding="utf-8")
            names.append(str(path))
        assert main(["tag", *names]) == 0
        serial = capsys.readouterr().out
        assert serial.splitlines() == [
            "<PERSON>اويس</PERSON> ويو",
            "<LOCATION>ڪراچي</LOCATION> ۾",
            "<TIME>10:40</TIME> تي"]
        assert main(["tag", "--jobs", "4", *names]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("jobs", ["0", "-1", "x", ""])
    def test_jobs_below_one_is_a_usage_error(self, jobs, monkeypatch, capsys):
        feed_stdin(monkeypatch, SENTENCE)
        assert main(["tag", "--jobs", jobs]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:usage: argument --jobs: "), err

    def test_jobs_over_long_inputs_keeps_collector_enabled(self, tmp_path, capsys):
        # Each input reaches tag_text's collector pause, so the threads
        # pause and resume it concurrently; a short switch interval
        # interleaves their checks of the collector's state.
        names = []
        for i in range(8):
            path = tmp_path / f"doc{i}.txt"
            path.write_text(f"{SENTENCE} {i} ۔ " * gc.get_threshold()[0], encoding="utf-8")
            names.append(str(path))
        was, interval = gc.isenabled(), sys.getswitchinterval()
        gc.enable()
        try:
            assert main(["tag", "--format", "jsonl", *names]) == 0
            serial = capsys.readouterr().out
            sys.setswitchinterval(1e-5)
            assert main(["tag", "--format", "jsonl", "--jobs", "4", *names]) == 0
            assert capsys.readouterr().out == serial
            assert gc.isenabled()
        finally:
            sys.setswitchinterval(interval)
            if not was:
                gc.disable()

    def test_store_appends_and_prints_ids(self, tmp_path, monkeypatch, capsys):
        store_path = tmp_path / "corpus.jsonl"
        feed_stdin(monkeypatch, SENTENCE)
        assert main(["tag", "--store", str(store_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "1\n"
        with CorpusStore(store_path) as store:
            assert len(store) == 1
            assert store.get(1).text == SENTENCE

    @pytest.mark.parametrize("fmt", RENDER_FORMATS)
    def test_store_gets_the_lines_append_writes(self, tmp_path, capsys, fmt):
        texts = [SENTENCE, " \t ", "هو خيرپور کان آيو", "", "۔"]
        names = []
        for i, text in enumerate(texts):
            path = tmp_path / f"doc{i}.txt"
            path.write_text(text, encoding="utf-8")
            names.append(str(path))
        engine = build_engine()
        docs = [engine.tag_text(text) for text in texts if text.strip()]
        expected = tmp_path / "expected.jsonl"
        with CorpusStore(expected) as store:
            ids = [store.append(doc) for doc in docs]
        store_path = tmp_path / "corpus.jsonl"
        assert main(["tag", "--format", fmt, "--store", str(store_path), *names]) == 0
        out, err = capsys.readouterr()
        sep = "\n\n" if fmt == "tabular" else "\n"
        assert out == sep.join(render(doc, fmt) for doc in docs) + "\n"
        assert err == "".join(f"{doc_id}\n" for doc_id in ids)
        assert store_path.read_bytes() == expected.read_bytes()
        # Inputs that all tokenize to nothing print nothing and store nothing.
        empty_store = tmp_path / "empty.jsonl"
        assert main(["tag", "--format", fmt, "--store", str(empty_store),
                     names[1], names[3]]) == 0
        assert capsys.readouterr() == ("", "")
        assert not empty_store.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["tag", str(tmp_path / "ghost.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:missing-data-file: ")

    def test_directory_is_a_missing_data_file(self, tmp_path, capsys):
        for argv in (["tag", str(tmp_path)], ["tag", "--config", str(tmp_path)],
                     ["tag", "--gazetteer", str(tmp_path)], ["eval", "--gold", str(tmp_path)]):
            assert main(argv) == 1, argv
            assert capsys.readouterr().err.splitlines() == [
                f"error:missing-data-file: required data file does not exist: {tmp_path}"]

    def test_bad_format_usage_error(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, SENTENCE)
        assert main(["tag", "--format", "xml"]) == 2

    def test_unknown_flag_usage_error(self, capsys):
        assert main(["tag", "--bogus"]) == 2

    def test_missing_subcommand_usage_error(self, capsys):
        assert main([]) == 2

    def test_config_flag(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, extra_lines=(
            "rule.R1_DateTime=off",))
        feed_stdin(monkeypatch, "گاڏي 10:40 تي ايندي")
        assert main(["tag", "--config", str(path)]) == 0
        assert "<TIME>" not in capsys.readouterr().out

    def test_config_env_var(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, extra_lines=(
            "rule.R1_DateTime=off",))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        feed_stdin(monkeypatch, "گاڏي 10:40 تي ايندي")
        assert main(["tag"]) == 0
        assert "<TIME>" not in capsys.readouterr().out

    def test_config_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        muted = write_config(tmp_path, extra_lines=(
            "rule.R1_DateTime=off",))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(muted))
        feed_stdin(monkeypatch, "گاڏي 10:40 تي ايندي")
        assert main(["tag", "--config", str(DEFAULT_CONFIG_PATH)]) == 0
        assert "<TIME>" in capsys.readouterr().out

    def test_gazetteer_override(self, tmp_path, monkeypatch, capsys):
        # Replacing the gazetteers leaves only the tiny supplied file, so
        # the default person entry no longer matches.
        tiny = tmp_path / "tiny.tsv"
        tiny.write_text("مرڪزوال\tLocation\n", encoding="utf-8")
        feed_stdin(monkeypatch, "اويس مرڪزوال ويو")
        assert main(["tag", "--gazetteer", str(tiny)]) == 0
        out = capsys.readouterr().out
        assert "<LOCATION>مرڪزوال</LOCATION>" in out
        assert "<PERSON>" not in out

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["tag", "--config", str(tmp_path / "ghost.conf")]) == 1
        assert capsys.readouterr().err.startswith("error:missing-data-file: ")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tag_jsonl_reads_back_the_source_and_spans(engine, data):
    # Texts in files of their own, through ``tag --format jsonl``: one line
    # per text with a token, equal to its rendering, whose entities'
    # byte offsets slice their surfaces out of the read-back source.
    texts = data.draw(st.lists(
        st.builds(str.join, st.sampled_from([" ", "\n", " \t\r\n"]),
                  st.lists(memo_words(engine), max_size=12)),
        min_size=1, max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, text in enumerate(texts):
            paths.append(Path(tmp) / f"{k}.txt")
            paths[-1].write_bytes(text.encode("utf-8"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(["tag", "--format", "jsonl", *map(str, paths)]) == 0
    docs = [doc for doc in map(engine.tag_text, texts) if len(doc.tokens)]
    assert out.getvalue() == "".join(render(doc, "jsonl") + "\n" for doc in docs)
    read_back = parse_jsonl(out.getvalue())
    assert [source for source, _ in read_back] == [doc.source for doc in docs]
    for source, entities in read_back:
        encoded = source.encode("utf-8")
        for e in entities:
            assert encoded[e.start_byte:e.end_byte].decode("utf-8") == e.surface


class TestEval:
    def test_human_report(self, capsys):
        gold = DATA_DIR / "mini_gold.tsv"
        assert main(["eval", "--gold", str(gold)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[2].startswith("accuracy\t100.00%")
        assert "label\ttp\tfp\tfn\tprecision\trecall\tf1" in lines
        assert any(line.startswith("PERSON\t") for line in lines)

    def test_json_report(self, capsys):
        gold = DATA_DIR / "mini_gold.tsv"
        assert main(["eval", "--gold", str(gold), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == "100.00%"
        assert payload["correct_tokens"] == payload["total_tokens"]
        assert set(payload["labels"]) == {
            "PERSON", "LOCATION", "ORGANIZATION", "DATE", "TIME",
            "DESIGNATION", "TERM", "ABBREVIATION", "NUMBER", "URL",
            "EMAIL", "BRAND"}

    def test_missing_gold(self, tmp_path, capsys):
        assert main(["eval", "--gold", str(tmp_path / "ghost.tsv")]) == 1
        assert ERROR_PREFIX.match(capsys.readouterr().err.splitlines()[0])

    def test_bad_gold_label(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("اويس\tPERSONN\n", encoding="utf-8")
        assert main(["eval", "--gold", str(gold)]) == 1
        assert capsys.readouterr().err.startswith("error:unknown-label: ")

    def test_gold_required(self, capsys):
        assert main(["eval"]) == 2

    def test_invalid_utf8_gold(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_bytes("اويس\tPERSON\n".encode("utf-8") + b"ab\xff\tO\n")
        assert main(["eval", "--gold", str(gold)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == \
            f"error:malformed-line: {gold}:2: not valid UTF-8"


class TestQuery:
    @pytest.fixture()
    def store_path(self, tmp_path, engine):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as store:
            store.append(engine.tag_text(SENTENCE))
            store.append(engine.tag_text("هو خيرپور کان آيو"))
        return path

    def test_all_rows(self, store_path, capsys):
        assert main(["query", "--store", str(store_path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows == [
            "1\tPERSON\tاويس جمائي\tR3_GazetteerName",
            "1\tDATE\t05.06.2016\tR1_DateTime",
            "1\tORGANIZATION\tسنڌ يونيورسٽي\tR10_OrgKeyword",
            "2\tLOCATION\tخيرپور\tR2_Suffix"]

    def test_label_filter(self, store_path, capsys):
        assert main(["query", "--store", str(store_path),
                     "--label", "LOCATION"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows == ["2\tLOCATION\tخيرپور\tR2_Suffix"]

    def test_surface_filter(self, store_path, capsys):
        assert main(["query", "--store", str(store_path),
                     "--surface", "يونيورسٽي"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_rule_filter(self, store_path, capsys):
        assert main(["query", "--store", str(store_path),
                     "--rule", "R1_DateTime"]) == 0
        assert "05.06.2016" in capsys.readouterr().out

    def test_no_matches_still_succeeds(self, store_path, capsys):
        assert main(["query", "--store", str(store_path),
                     "--label", "BRAND"]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_store(self, tmp_path, capsys):
        assert main(["query", "--store", str(tmp_path / "ghost.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error:missing-data-file: ")

    def test_store_with_a_string_offset_is_corrupt(self, tmp_path, engine, capsys):
        record = {"id": 1, **json.loads(render(engine.tag_text(SENTENCE), "jsonl"))}
        record["entities"][1]["token_start"] = "2"
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["query", "--store", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:corrupt-store: ")

    def test_corrupt_store(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        path.write_text("{broken\n", encoding="utf-8")
        assert main(["query", "--store", str(path)]) == 1
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error:corrupt-store: ")
        assert "byte offset 0" in first

    def test_corrupt_store_names_the_broken_rule(self, store_path, capsys):
        size = store_path.stat().st_size
        with open(store_path, "ab") as fh:
            fh.write(store_path.read_bytes().splitlines(keepends=True)[1])  # id 2 again
        assert main(["query", "--store", str(store_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:corrupt-store: {store_path}: record ids must be increasing ints "
            f"at byte offset {size}"]

    def test_store_required(self, capsys):
        assert main(["query"]) == 2

    def test_torn_tail_warns_in_cli_style(self, store_path, capsys):
        first_record = len(store_path.read_bytes().splitlines(keepends=True)[0])
        store_path.write_bytes(store_path.read_bytes()[:-10])
        assert main(["query", "--store", str(store_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning:torn-record: {store_path}: dropped a torn final record"
            f" at byte offset {first_record}\n")
        assert captured.out.splitlines() == [
            "1\tPERSON\tاويس جمائي\tR3_GazetteerName",
            "1\tDATE\t05.06.2016\tR1_DateTime",
            "1\tORGANIZATION\tسنڌ يونيورسٽي\tR10_OrgKeyword"]

    def test_tag_store_torn_tail_warns_in_cli_style(self, store_path,
                                                    monkeypatch, capsys):
        first_record = len(store_path.read_bytes().splitlines(keepends=True)[0])
        store_path.write_bytes(store_path.read_bytes()[:-10])
        feed_stdin(monkeypatch, SENTENCE)
        assert main(["tag", "--store", str(store_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == INLINE + "\n"
        assert captured.err.splitlines() == [
            f"warning:torn-record: {store_path}: dropped a torn final record"
            f" at byte offset {first_record}",
            "2"]


class TestGazetteer:
    def test_list_counts_match_files(self, capsys):
        assert main(["gazetteer", "list"]) == 0
        out = capsys.readouterr().out
        counts = dict(line.split("\t") for line in out.splitlines())
        # Line-count oracle against the shipped files.
        def entries(name):
            lines = (DATA_DIR / name).read_text("utf-8").splitlines()
            return [l for l in lines if l.strip() and not l.startswith("#")]
        assert int(counts["PersonFirstName"]) == len(entries("names_first.tsv"))
        assert int(counts["Surname"]) == len(entries("surnames.tsv"))
        assert int(counts["Location"]) == len(entries("locations.tsv"))
        assert int(counts["Title"]) + int(counts["Designation"]) == \
            len(entries("titles_designations.tsv"))
        assert set(counts) == {c.value for c in __import__(
            "sindhi_ner.gazetteer", fromlist=["Category"]).Category}

    def test_check_shipped_data_ok(self, capsys):
        assert main(["gazetteer", "check"]) == 0
        assert capsys.readouterr().out == "OK\n"

    def test_check_reports_every_problem(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("سنڌ\tLocation\nbroken line here extra\tNope\n"
                       "سنڌ\tLocation\n", encoding="utf-8")
        assert main(["gazetteer", "check", "--gazetteer", str(bad)]) == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines[0].startswith("error:invalid-data: ")
        assert len(err_lines) == 1 + int(err_lines[0].split()[1])
        assert any("bad.tsv" in line for line in err_lines[1:])

    def test_check_reports_duplicate_suffix(self, tmp_path, capsys):
        suffixes = tmp_path / "suffixes.tsv"
        # A repeated person marker is allowed, a repeated suffix is not.
        suffixes.write_text((DATA_DIR / "suffixes.tsv").read_text("utf-8")
                            + "حسن\tPersonMarker\nپور\tTermSuffix\n", "utf-8")
        config = write_config(tmp_path, extra_lines=[f"suffixes={suffixes}"])
        assert main(["gazetteer", "check", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error:invalid-data: 1 problem(s) found",
            f"{suffixes}:13: duplicate suffix 'پور' (first seen at {suffixes}:2)"]
        # The engine refuses the same file.
        assert main(["tag", "--config", str(config), "-"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error:duplicate-entry: {suffixes}:13: duplicate suffix 'پور'")

    def test_check_reports_invalid_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"ab\xff\tLocation\n")
        assert main(["gazetteer", "check", "--gazetteer", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error:invalid-data: 1 problem(s) found",
            f"{bad}:1: not valid UTF-8"]

    def test_check_reads_synonym_map(self, tmp_path, capsys):
        synonyms = tmp_path / "synonyms.tsv"
        synonyms.write_text("abc\n", encoding="utf-8")
        config = write_config(tmp_path, extra_lines=[f"synonyms={synonyms}"])
        assert main(["gazetteer", "check", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error:invalid-data: 1 problem(s) found",
            f"{synonyms}:1: expected FROM<TAB>TO in synonym map"]
        # The engine refuses the same file.
        assert main(["tag", "--config", str(config), "-"]) == 1
        assert capsys.readouterr().err.startswith(f"error:config: {synonyms}:1: ")

    def test_check_reports_missing_synonym_map(self, tmp_path, capsys):
        ghost = tmp_path / "ghost.tsv"
        config = write_config(tmp_path, extra_lines=[f"synonyms={ghost}"])
        assert main(["gazetteer", "check", "--config", str(config)]) == 1
        missing = f"required data file does not exist: {ghost}"
        assert capsys.readouterr().err.splitlines() == [
            "error:invalid-data: 1 problem(s) found", missing]
        # The engine refuses the same file with the same message.
        assert main(["tag", "--config", str(config), "-"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:missing-data-file: {missing}"]

    def test_check_lists_every_bad_synonym_line(self, tmp_path, capsys):
        synonyms = tmp_path / "synonyms.tsv"
        synonyms.write_text("abc\nok\tfine\nx\ty\tz\n", encoding="utf-8")
        config = write_config(tmp_path, extra_lines=[f"synonyms={synonyms}"])
        assert main(["gazetteer", "check", "--config", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error:invalid-data: 2 problem(s) found",
            f"{synonyms}:1: expected FROM<TAB>TO in synonym map",
            f"{synonyms}:3: expected FROM<TAB>TO in synonym map"]

    def test_check_goes_on_past_an_unreadable_file(self, tmp_path, capsys):
        first, bad, last = (tmp_path / name for name in ("a.tsv", "b.tsv", "c.tsv"))
        first.write_text("سنڌ\tLocation\n", encoding="utf-8")
        bad.write_bytes("ڪراچي\tLocation\n".encode() + b"\xff\tLocation\n")
        last.write_text("ڪراچي\tLocation\nسنڌ\tLocation\n", encoding="utf-8")
        ghost = tmp_path / "ghost.tsv"
        argv = ["gazetteer", "check"]
        for path in (first, ghost, bad, last):
            argv += ["--gazetteer", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        # The entries of an unreadable file are not taken, so only the
        # repeat of an earlier readable file's entry is a duplicate.
        assert err[0] == "error:invalid-data: 3 problem(s) found"
        assert err[1] == f"required data file does not exist: {ghost}"
        assert err[2:] == [
            f"{bad}:2: not valid UTF-8",
            f"{last}:2: duplicate entry 'سنڌ' / Location (first seen at {first}:1)"]
        # Loading for real, a missing file is the same error as in ``tag``.
        assert main(["gazetteer", "list", "--gazetteer", str(ghost)]) == 1
        assert capsys.readouterr().err.startswith("error:missing-data-file: ")

    def test_add_appends_entry(self, tmp_path, capsys):
        target = tmp_path / "extra.tsv"
        assert main(["gazetteer", "add", "نئون شهر", "Location",
                     "--file", str(target)]) == 0
        assert capsys.readouterr().out == "نئون شهر\tLocation\n"
        assert target.read_text("utf-8") == "نئون شهر\tLocation\n"

    def test_add_writes_normalized_entry(self, tmp_path, capsys):
        target = tmp_path / "f.tsv"
        assert main(["gazetteer", "add", "a\tb", "Location",
                     "--file", str(target)]) == 0
        assert target.read_text("utf-8") == "a b\tLocation\n"
        assert capsys.readouterr().out == "a b\tLocation\n"
        assert main(["gazetteer", "check", "--gazetteer", str(target)]) == 0
        assert capsys.readouterr().out == "OK\n"
        entries = load_gazetteer([target]).entries()
        assert [(e.words, e.category) for e in entries] == [(("a", "b"), Category.Location)]

    def test_add_ends_an_unterminated_last_line(self, tmp_path, capsys):
        target = tmp_path / "extra.tsv"
        target.write_text("نئون شهر\tLocation", encoding="utf-8")
        assert main(["gazetteer", "add", "مرڪزوال", "Location",
                     "--file", str(target)]) == 0
        assert target.read_text("utf-8") == "نئون شهر\tLocation\nمرڪزوال\tLocation\n"
        capsys.readouterr()
        # The line number add reports is the one the entry landed on.
        assert main(["gazetteer", "add", "مرڪزوال", "Location",
                     "--file", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"error:duplicate-entry: {target}:3: ")
        assert main(["gazetteer", "check", "--gazetteer", str(target)]) == 0

    @pytest.mark.parametrize("configured", [False, True])
    def test_add_reads_each_file_once(self, tmp_path, capsys, monkeypatch, configured):
        # One read of the target both loads it and counts its lines, whether
        # or not the config lists it.
        target, other = tmp_path / "extra.tsv", tmp_path / "other.tsv"
        target.write_text("نئون شهر\tLocation", encoding="utf-8")
        other.write_text("مرڪزوال\tLocation\n", encoding="utf-8")
        reads = []
        real_read_bytes = gazetteer_module.read_bytes
        monkeypatch.setattr(gazetteer_module, "read_bytes",
                            lambda path: reads.append(Path(path)) or real_read_bytes(path))
        listed = [target, other] if configured else [other]
        assert main(["gazetteer", "add", "ڪراچي", "Location", "--file", str(target),
                     *(f"--gazetteer={path}" for path in listed)]) == 0
        assert sorted(p for p in reads if p.parent == tmp_path) == [target, other]
        assert target.read_text("utf-8") == "نئون شهر\tLocation\nڪراچي\tLocation\n"
        assert capsys.readouterr().out == "ڪراچي\tLocation\n"

    def test_add_and_check_normalize_with_configured_edge_specials(self, tmp_path, capsys):
        # With "." no edge special, the token U.N. has the norm "u.n.".
        specials = EDGE_SPECIALS.replace(".", "")
        config = write_config(tmp_path, extra_lines=[f"edge_specials={specials}"])
        target = tmp_path / "extra.tsv"
        assert main(["gazetteer", "add", "U.N.", "Abbreviation", "--config", str(config),
                     "--file", str(target)]) == 0
        assert target.read_text("utf-8") == "u.n.\tAbbreviation\n"
        # "..." is a word here, not a surface of punctuation alone.
        target.write_text("...\tTerm\n", encoding="utf-8")
        assert main(["gazetteer", "check", "--config", str(config),
                     "--gazetteer", str(target)]) == 0
        assert main(["gazetteer", "check", "--gazetteer", str(target)]) == 1

    def test_add_refuses_duplicate_in_target(self, tmp_path, capsys):
        target = tmp_path / "extra.tsv"
        main(["gazetteer", "add", "نئون شهر", "Location",
              "--file", str(target)])
        capsys.readouterr()
        assert main(["gazetteer", "add", "نئون شهر", "Location",
                     "--file", str(target)]) == 1
        message = (f"{target}:2: duplicate entry 'نئون شهر' / Location"
                   f" (first seen at {target}:1)")
        assert capsys.readouterr().err.splitlines() == [f"error:duplicate-entry: {message}"]
        assert len(target.read_text("utf-8").splitlines()) == 1
        # check prints the same message for the same line written by hand.
        with open(target, "a", encoding="utf-8") as fh:
            fh.write("نئون شهر\tLocation\n")
        assert main(["gazetteer", "check", "--gazetteer", str(target)]) == 1
        assert capsys.readouterr().err.splitlines()[1:] == [message]

    @pytest.mark.parametrize("surface", ["#foo", "(#foo"])
    def test_add_refuses_an_entry_read_as_a_comment(self, tmp_path, capsys, surface):
        target = tmp_path / "extra.tsv"
        target.write_bytes("نئون شهر\tLocation\n".encode())
        assert main(["gazetteer", "add", surface, "Location",
                     "--file", str(target)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:malformed-line: {target}:2: entry '#foo' would be read as a comment"]
        assert target.read_bytes() == "نئون شهر\tLocation\n".encode()

    @pytest.mark.parametrize("before", [None, b""])
    def test_add_refuses_a_leading_byte_order_mark_on_line_1(self, tmp_path, capsys,
                                                             before):
        target = tmp_path / "extra.tsv"
        if before is not None:
            target.write_bytes(before)
        assert main(["gazetteer", "add", "\ufefffoo", "Location",
                     "--file", str(target)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:malformed-line: {target}:1: entry '\\ufefffoo' would lose"
            " its leading byte-order mark"]
        assert (target.read_bytes() if target.exists() else None) == before

    def test_add_keeps_a_byte_order_mark_after_line_1(self, tmp_path, capsys):
        target = tmp_path / "extra.tsv"
        target.write_bytes("نئون شهر\tLocation\n".encode())
        assert main(["gazetteer", "add", "\ufefffoo", "Location",
                     "--file", str(target)]) == 0
        assert capsys.readouterr().out == "\ufefffoo\tLocation\n"
        assert [e.surface for e in load_gazetteer([target]).entries()] == [
            "نئون شهر", "\ufefffoo"]

    def test_add_refuses_text_utf8_cannot_encode(self, tmp_path, capsys):
        # Argv bytes that are not UTF-8 arrive as lone surrogates.
        target = tmp_path / "x.tsv"
        assert main(["gazetteer", "add", "\udcff", "Location",
                     "--file", str(target)]) == 1
        assert capsys.readouterr().err.splitlines()[0] == (
            "error:invalid-input: text holds '\\udcff', which UTF-8 cannot encode")
        assert not target.exists()

    def test_add_reports_a_bad_configured_file_before_the_argument(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("سنڌ\tNope\n", encoding="utf-8")
        target = tmp_path / "extra.tsv"
        assert main(["gazetteer", "add", "اويس", "Nope", "--gazetteer", str(bad),
                     "--file", str(target)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:unknown-category: {bad}:1: unknown category 'Nope'"]
        assert not target.exists()

    def test_add_fails_on_a_missing_configured_file(self, tmp_path, capsys):
        ghost = tmp_path / "ghost.tsv"
        target = tmp_path / "extra.tsv"
        assert main(["gazetteer", "add", "اويس", "Nope", "--gazetteer", str(ghost),
                     "--file", str(target)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:missing-data-file: required data file does not exist: {ghost}"]
        assert not target.exists()

    def test_add_creates_a_configured_target(self, tmp_path, capsys):
        target = tmp_path / "extra.tsv"
        assert main(["gazetteer", "add", "نئون شهر", "Location",
                     "--gazetteer", str(target), "--file", str(target)]) == 0
        assert target.read_text("utf-8") == capsys.readouterr().out == "نئون شهر\tLocation\n"

    def test_add_reports_a_bad_configured_file_before_a_bad_target(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("سنڌ\tNope\n", encoding="utf-8")
        target = tmp_path / "extra.tsv"
        target.write_bytes(b"ab\xff\tLocation\n")
        assert main(["gazetteer", "add", "اويس", "Location", "--gazetteer", str(bad),
                     "--file", str(target)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:unknown-category: {bad}:1: unknown category 'Nope'"]
        assert main(["gazetteer", "add", "اويس", "Location", "--file", str(target)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error:malformed-line: {target}:1: not valid UTF-8"]
        assert target.read_bytes() == b"ab\xff\tLocation\n"

    def test_add_closes_target_file(self, tmp_path, capsys):
        # The scenario of test_add_refuses_duplicate_in_target leaves no
        # file handle for the collector to find.
        target = tmp_path / "extra.tsv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            main(["gazetteer", "add", "نئون شهر", "Location",
                  "--file", str(target)])
            assert main(["gazetteer", "add", "نئون شهر", "Location",
                         "--file", str(target)]) == 1
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_add_refuses_duplicate_of_configured_entry(self, tmp_path, capsys):
        target = tmp_path / "extra.tsv"
        assert main(["gazetteer", "add", "ڪراچي", "Location",
                     "--file", str(target)]) == 1
        assert capsys.readouterr().err.startswith("error:duplicate-entry: ")
        assert not target.exists()

    def test_add_unknown_category(self, tmp_path, capsys):
        assert main(["gazetteer", "add", "اويس", "Nope",
                     "--file", str(tmp_path / "extra.tsv")]) == 1
        assert capsys.readouterr().err.startswith("error:unknown-category: ")

    def test_add_rejects_four_words(self, tmp_path, capsys):
        assert main(["gazetteer", "add", "هڪ ٻه ٽي چار", "Location",
                     "--file", str(tmp_path / "extra.tsv")]) == 1
        assert ERROR_PREFIX.match(capsys.readouterr().err.splitlines()[0])

    @pytest.mark.parametrize("category", ["NumberWord", "OrgKeyword", "AmbiguousName"])
    def test_a_category_read_one_word_at_a_time_refuses_more(self, tmp_path, capsys,
                                                             category):
        # Rules 6, 7 and 10 read these categories one word at a time, so a
        # longer entry could never match: build_engine, check and add all
        # refuse it alike.
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"بلو مرو\t{category}\n", encoding="utf-8")
        message = f"{bad}:1: {category} entries must be single words"
        with pytest.raises(MalformedLine) as exc:
            build_engine(EngineConfig.default().with_gazetteers([bad]))
        assert str(exc.value) == message
        assert main(["gazetteer", "check", "--gazetteer", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines()[1:] == [message]
        target = tmp_path / "extra.tsv"
        assert main(["gazetteer", "add", "بلو مرو", category, "--file", str(target)]) == 1
        assert capsys.readouterr().err == (
            f"error:malformed-line: {target}:1: {category} entries must be single words\n")
        assert not target.exists()

    def test_added_entry_changes_tagging(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "extra.tsv"
        main(["gazetteer", "add", "مرڪزوال", "Location",
              "--file", str(target)])
        capsys.readouterr()
        config = write_config(tmp_path, extra_gazetteer=target)
        feed_stdin(monkeypatch, "هو مرڪزوال ويو")
        assert main(["tag", "--config", str(config)]) == 0
        assert "<LOCATION>مرڪزوال</LOCATION>" in capsys.readouterr().out


# Words of drawn gazetteer surfaces: "#", edge specials, ZWNJ, the
# byte-order mark, Latin and Arabic letters and digits.
ADD_WORDS = st.text("#" + EDGE_SPECIALS + "\u200c\ufeffaBz9سنڌ۳", min_size=1, max_size=4)
# Targets: absent, empty, or holding an entry, a comment and an
# unterminated last line.
ADD_TARGETS = [None, "", "a\tLocation\n# note\n", "a\tLocation\nسنڌ\tTerm"]


@settings(max_examples=150, deadline=None)
@given(words=st.lists(ADD_WORDS, min_size=1, max_size=4),
       separators=st.lists(st.sampled_from([" ", "\t", " \t "]), min_size=3, max_size=3),
       category=st.sampled_from([c.value for c in Category] + ["Nope"]),
       before=st.sampled_from(ADD_TARGETS))
def test_add_writes_what_the_loaders_read_back(words, separators, category, before):
    surface = words[0] + "".join(sep + word for sep, word in zip(separators, words[1:]))
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "extra.tsv"
        if before is not None:
            target.write_text(before, encoding="utf-8")
        old_bytes = target.read_bytes() if before is not None else None
        old_entries = list(load_gazetteer([target]).entries()) if before else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["gazetteer", "add", surface, category, "--file", str(target)])
        if code == 1:
            assert ERROR_PREFIX.match(err.getvalue().splitlines()[0]), err.getvalue()
            assert (target.read_bytes() if target.exists() else None) == old_bytes
            return
        assert code == 0 and err.getvalue() == ""
        printed = out.getvalue()
        assert [f"{e.surface}\t{e.category.value}\n"
                for e in load_gazetteer([target]).entries()] == [
            f"{e.surface}\t{e.category.value}\n" for e in old_entries] + [printed]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(["gazetteer", "check", "--gazetteer", str(target)]) == 0
        assert out.getvalue() == "OK\n"


# The data files build_engine reads (the gold corpus and config are not).
DATA_FILES = sorted(p.name for p in DATA_DIR.glob("*.tsv") if p.name != "mini_gold.tsv")
WORD_LISTS = ("suffixes.tsv", "months.tsv", "letters.tsv", "stopwords.tsv")
# Gazetteers of the categories whose entries are single words.
SINGLE_WORD_GAZETTEERS = ("number_words.tsv", "org_keywords.tsv", "ambiguous_names.tsv")


def _damage(data, directory):
    """Apply one drawn edit to a copy of the data directory."""
    edit = data.draw(st.sampled_from([
        "drop-tab", "duplicate", "invalid-byte", "unknown-category",
        "multi-word", "repeated-suffix", "bad-synonym", "delete"]))
    names = {"multi-word": WORD_LISTS + SINGLE_WORD_GAZETTEERS,
             "repeated-suffix": ["suffixes.tsv"],
             "bad-synonym": ["synonyms.tsv"],
             "unknown-category": [n for n in DATA_FILES if n != "synonyms.tsv"]}
    # An earlier edit may have deleted a file.
    present = [n for n in names.get(edit, DATA_FILES) if (directory / n).exists()]
    if not present:
        return
    path = directory / data.draw(st.sampled_from(present))
    if edit == "delete":
        path.unlink()
        return
    lines = [line + b"\n" for line in path.read_bytes().splitlines()]
    where = data.draw(st.integers(0, len(lines)))
    row = data.draw(st.sampled_from([i for i, line in enumerate(lines)
                                     if line.strip() and not line.startswith(b"#")]))
    if edit == "drop-tab":
        lines[row] = lines[row].replace(b"\t", b"", 1)
    elif edit == "duplicate":
        lines.insert(where, lines[min(where, len(lines) - 1)])
    elif edit == "invalid-byte":
        lines.insert(where, b"\xff" + (lines.pop(where) if where < len(lines) else b"\n"))
    elif edit == "unknown-category":
        lines[row] = lines[row].split(b"\t")[0] + b"\tNope\n"
    elif edit == "multi-word":
        surface, _, rest = lines[row].partition(b"\t")
        lines[row] = surface + b" " + surface + b"\t" + rest
    elif edit == "repeated-suffix":
        suffix = (DATA_DIR / "suffixes.tsv").read_text("utf-8").splitlines()[1].split("\t")[0]
        lines.insert(where, f"{suffix}\tTermSuffix\n".encode())
    elif edit == "bad-synonym":
        lines.insert(where, "ڪراچى\n".encode())
    path.write_bytes(b"".join(lines))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_check_lists_what_build_engine_fails_on(data):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "data"
        shutil.copytree(DATA_DIR, directory)
        for _ in range(data.draw(st.integers(1, 3))):
            _damage(data, directory)
        config_path = directory / "engine.conf"
        config = load_config(config_path)
        problems = validate_sources(config.gazetteers, config.word_lists,
                                    config.synonyms, config.edge_specials)
        try:
            build_engine(config)
        except NerError as exc:
            assert problems and problems[0] == str(exc)
        else:
            assert problems == []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["gazetteer", "check", "--config", str(config_path)])
        if not problems:
            assert (code, out.getvalue(), err.getvalue()) == (0, "OK\n", "")
            return
        assert code == 1 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert lines == [f"error:invalid-data: {len(problems)} problem(s) found", *problems]
        where = rf"{re.escape(str(directory))}/[a-z_]+\.tsv"
        for line in lines[1:]:
            assert re.match(
                rf"{where}:\d+: |required data file does not exist: {where}$", line), line


class TestInvalidUtf8DataFile:
    @pytest.mark.parametrize("kind, content", [
        ("gazetteer", b"ab\xff\tLocation\n"),
        ("months", b"ab\xff\tMonthName\n"),
        ("synonyms", b"ab\xff\tx\n"),
        ("config", b"gazetteers=ab\xff\n"),
    ])
    def test_malformed_line(self, tmp_path, monkeypatch, capsys, kind, content):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        if kind == "gazetteer":
            argv = ["tag", "--gazetteer", str(bad)]
        elif kind == "config":
            argv = ["tag", "--config", str(bad)]
        else:
            argv = ["tag", "--config",
                    str(write_config(tmp_path, extra_lines=[f"{kind}={bad}"]))]
        feed_stdin(monkeypatch, SENTENCE)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error:malformed-line: {bad}:1: not valid UTF-8"]


def test_readme_test_command_finds_the_package():
    # From a checkout, with nothing installed and no PYTHONPATH, pytest
    # must import the package from src/.
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--collect-only",
         "-p", "no:cacheprovider", "tests/test_text.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


class TestModuleEntryPoint:
    """``python3 -m sindhi_ner.cli`` runs the same commands as ``main``."""

    def run_module(self, *argv):
        return run_cli(*argv, text=True)

    def test_gazetteer_check(self):
        proc = self.run_module("gazetteer", "check")
        assert (proc.returncode, proc.stdout) == (0, "OK\n"), proc.stderr

    def test_usage_error_exits_2(self):
        proc = self.run_module("no-such-command")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "usage:" in proc.stderr


class TestPipedInput:
    """A named pipe, ``/dev/stdin`` or a ``/dev/fd`` path (what a shell's
    process substitution passes) is read like a regular file."""

    @pytest.mark.parametrize("fmt", ["inline", "jsonl"])
    def test_tag_reads_a_named_pipe_like_a_file(self, tmp_path, fmt):
        data = "\ufeff".encode("utf-8") + "\n".join(text for text, _ in GOLDEN).encode("utf-8")
        src = tmp_path / "doc.txt"
        src.write_bytes(data)
        from_file = run_cli("tag", "--format", fmt, src)
        assert from_file.returncode == 0, from_file.stderr
        with named_pipe(tmp_path, data) as fifo:
            from_pipe = run_cli("tag", "--format", fmt, fifo)
        assert (from_pipe.returncode, from_pipe.stderr) == (0, b"")
        assert from_pipe.stdout == from_file.stdout != b""

    def test_tag_reads_dev_stdin_and_dev_fd_like_a_file(self, tmp_path):
        src = tmp_path / "doc.txt"
        src.write_text(SENTENCE, encoding="utf-8")
        expected = (INLINE + "\n").encode("utf-8")
        assert run_cli("tag", src).stdout == expected
        proc = run_cli("tag", "/dev/stdin", input=SENTENCE.encode("utf-8"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, SENTENCE.encode("utf-8"))
            os.close(write_end)
            proc = run_cli("tag", f"/dev/fd/{read_end}", pass_fds=(read_end,))
        finally:
            os.close(read_end)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_eval_reads_gold_from_a_named_pipe(self, tmp_path, flags):
        gold = DATA_DIR / "mini_gold.tsv"
        from_file = run_cli("eval", "--gold", gold, *flags)
        assert from_file.returncode == 0, from_file.stderr
        with named_pipe(tmp_path, gold.read_bytes()) as fifo:
            from_pipe = run_cli("eval", "--gold", fifo, *flags)
        assert (from_pipe.returncode, from_pipe.stderr) == (0, b"")
        assert from_pipe.stdout == from_file.stdout

    def test_config_reads_a_named_pipe(self, tmp_path):
        config = write_config(tmp_path)
        from_file = run_cli("tag", "--config", config, input=SENTENCE.encode("utf-8"))
        assert from_file.returncode == 0, from_file.stderr
        # The config's data paths are absolute.
        with named_pipe(tmp_path, config.read_bytes()) as fifo:
            from_pipe = run_cli("tag", "--config", fifo, input=SENTENCE.encode("utf-8"))
        assert (from_pipe.returncode, from_pipe.stderr) == (0, b"")
        assert from_pipe.stdout == from_file.stdout

    def test_config_pipe_resolves_relative_paths_against_the_current_directory(
            self, tmp_path):
        # A pipe has no directory of its own: engine.conf's relative data
        # paths resolve against the working directory, here the data's.
        data = DEFAULT_CONFIG_PATH.read_bytes()
        stdin = SENTENCE.encode("utf-8")
        from_file = run_cli("tag", "--config", "engine.conf", cwd=DATA_DIR, input=stdin)
        assert from_file.returncode == 0, from_file.stderr
        with named_pipe(tmp_path, data) as fifo:
            from_fifo = run_cli("tag", "--config", fifo, cwd=DATA_DIR, input=stdin)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            from_fd = run_cli("tag", "--config", f"/dev/fd/{read_end}", cwd=DATA_DIR,
                              input=stdin, pass_fds=(read_end,))
        finally:
            os.close(read_end)
        for proc in (from_fifo, from_fd):
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert proc.stdout == from_file.stdout != b""

    @pytest.mark.parametrize("command, data, message", [
        ("tag", b"\xef\xbb\xbfab\n\xff",
         "error:invalid-input: {}: not valid UTF-8 at byte offset 6"),
        ("eval", "اويس\tPERSON\r\n".encode("utf-8") + b"ab\xff\tO\n",
         "error:malformed-line: {}:2: not valid UTF-8"),
    ], ids=["tag", "gold"])
    def test_invalid_utf8_through_a_pipe_is_reported_as_for_a_file(
            self, tmp_path, command, data, message):
        src = tmp_path / "bad.txt"
        src.write_bytes(data)
        argv = ["tag"] if command == "tag" else ["eval", "--gold"]
        from_file = run_cli(*argv, src)
        with named_pipe(tmp_path, data) as fifo:
            from_pipe = run_cli(*argv, fifo)
        for proc, path in ((from_file, src), (from_pipe, fifo)):
            assert (proc.returncode, proc.stdout) == (1, b"")
            assert proc.stderr.decode("utf-8").splitlines() == [message.format(path)]


class TestClosedStreams:
    def test_closed_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", None)
        assert main(["tag"]) == 1
        assert capsys.readouterr() == ("", "error:io: stdin is closed\n")

    @pytest.mark.parametrize("command", ["tag", "add"])
    def test_closed_stdout_fails_before_anything_is_written(
            self, tmp_path, monkeypatch, capsys, command):
        src = tmp_path / "doc.txt"
        src.write_text(SENTENCE, encoding="utf-8")
        written = tmp_path / "written"
        argv = (["tag", "--store", str(written), str(src)] if command == "tag" else
                ["gazetteer", "add", "نئون شهر", "Location", "--file", str(written)])
        monkeypatch.setattr("sys.stdout", None)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error:io: stdout is closed\n"
        assert not written.exists()

    def test_closed_streams_in_a_subprocess(self, tmp_path):
        src = tmp_path / "doc.txt"
        src.write_text(SENTENCE, encoding="utf-8")
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        env.pop(CONFIG_ENV_VAR, None)
        # With fd 0 or 1 closed, the interpreter sets sys.stdin or sys.stdout to None.
        code = ("import os, sys; os.close(int(sys.argv[1])); os.execv(sys.executable, "
                "[sys.executable, '-m', 'sindhi_ner.cli', *sys.argv[2:]])")
        for fd, argv, message in ((0, ["tag"], b"error:io: stdin is closed\n"),
                                  (1, ["tag", str(src)], b"error:io: stdout is closed\n")):
            proc = subprocess.run([sys.executable, "-c", code, str(fd), *argv], env=env,
                                  capture_output=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (1, message)


class TestErrorPrefixInvariant:
    def test_every_failure_prefixes_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff")
        bad_gold = tmp_path / "bad_gold.tsv"
        bad_gold.write_bytes(b"ab\xff\tO\n")
        failing = [
            ["tag", str(tmp_path / "ghost.txt")],
            ["tag", "--config", str(tmp_path / "ghost.conf")],
            ["tag", str(bad)],
            ["eval", "--gold", str(tmp_path / "ghost.tsv")],
            ["eval", "--gold", str(bad_gold)],
            ["query", "--store", str(tmp_path / "ghost.jsonl")],
            ["gazetteer", "add", "اويس", "Nope",
             "--file", str(tmp_path / "x.tsv")],
        ]
        for argv in failing:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert ERROR_PREFIX.match(err.splitlines()[0]), (argv, err)

    def test_every_usage_error_prefixes_stderr(self, capsys):
        # Each case with the command whose usage follows the error line.
        failing = [
            (["tag", "--format", "bogus"], "sindhi-ner tag"),
            (["tag", "--bogus"], "sindhi-ner tag"),
            (["--bogus", "tag"], "sindhi-ner"),
            ([], "sindhi-ner"),
            (["eval"], "sindhi-ner eval"),
            (["eval", "--gold", "g.tsv", "--bogus"], "sindhi-ner eval"),
            (["query"], "sindhi-ner query"),
            (["gazetteer"], "sindhi-ner gazetteer"),
            (["gazetteer", "check", "--bogus"], "sindhi-ner gazetteer check"),
        ]
        for argv, command in failing:
            assert main(argv) == 2, argv
            first, *rest = capsys.readouterr().err.splitlines()
            assert first.startswith("error:usage: "), (argv, first)
            assert rest[0].startswith(f"usage: {command} ["), (argv, rest)


def test_nothing_reads_untagged(engine, tmp_path, monkeypatch, capsys):
    # A document's untagged indices are worked out only when read; render,
    # the store, eval and the CLI read its tokens and entities alone.
    def unread(doc):
        raise AssertionError("a document's untagged indices were read")

    monkeypatch.setattr(TaggedDocument, "untagged", property(unread))
    docs = [engine.tag_text(text) for text, _ in GOLDEN]
    with pytest.raises(AssertionError):
        docs[0].untagged
    with CorpusStore(tmp_path / "api.jsonl") as store:
        for doc in docs:
            for fmt in RENDER_FORMATS:
                render(doc, fmt)
            store.append(doc)
    assert evaluate(engine, load_gold(DATA_DIR / "mini_gold.tsv")).total_tokens
    src = tmp_path / "doc.txt"
    src.write_text(SENTENCE, encoding="utf-8")
    store = tmp_path / "cli.jsonl"
    assert main(["tag", "--format", "jsonl", "--store", str(store), str(src)]) == 0
    assert capsys.readouterr().out == store.read_text("utf-8").replace('{"id": 1, ', "{")
