import json
import subprocess
import sys
from unittest.mock import Mock

import pytest

from helpers import (EDGE_CASES, read_patterns, run_cli, summary_fields, write_edge_corpus,
                     write_reference_corpus)
from spatialfp import cli, engine, formats
from spatialfp.formats import FileSource
from spatialfp.grid import METERS_PER_DEGREE, ROOT
from spatialfp.spatial_mining import SpatialPattern
from spatialfp.text import Vocabulary

GOLDEN_ROWS = [
    {"words": ["a"], "gid": "00", "level": 1, "count": 2},
    {"words": ["b"], "gid": "00", "level": 1, "count": 2},
    {"words": ["a", "b"], "gid": "00", "level": 1, "count": 2},
    {"words": ["a"], "gid": "", "level": 0, "count": 3},
    {"words": ["b"], "gid": "", "level": 0, "count": 3},
    {"words": ["a", "b"], "gid": "", "level": 0, "count": 2},
]


@pytest.fixture
def ref_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_reference_corpus(path)
    return path


def _mine(ref_corpus, tmp_path, *extra):
    out = tmp_path / "patterns.jsonl"
    proc = run_cli("mine", "--input", ref_corpus, "--output", out,
                   "--bbox", "0,0,4,4", "--height", "1", "--sigma", "2", *extra)
    return proc, out


def test_mine_golden_run(ref_corpus, tmp_path):
    proc, out = _mine(ref_corpus, tmp_path,
                      "--dict-out", tmp_path / "dict.tsv")
    assert proc.returncode == 0, proc.stderr
    assert read_patterns(str(out)) == GOLDEN_ROWS

    fields = summary_fields(proc.stdout)
    assert fields["records read"] == "4"
    assert fields["skipped out-of-box"] == "0"
    assert fields["malformed lines"] == "0"
    assert fields["records mined"] == "4"
    assert fields["distinct words"] == "3"
    assert fields["retained words"] == "2"
    assert fields["word-cell entries"] == "4"
    assert fields["patterns level 1"] == "3"
    assert fields["patterns level 0"] == "3"
    assert fields["patterns total"] == "6"
    assert fields["backend"] == "pure"
    for key in ("first scan ms", "tree build ms", "growth ms"):
        assert float(fields[key]) >= 0.0

    vocab = Vocabulary.load(str(tmp_path / "dict.tsv"))
    assert [vocab.word(i) for i in range(3)] == ["a", "b", "c"]


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_mine_edge_inputs(case, tmp_path):
    records, height, sigma, rows, summary = EDGE_CASES[case]
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "patterns.jsonl"
    write_edge_corpus(corpus, records)
    proc = run_cli("mine", "--input", corpus, "--output", out,
                   "--bbox", "0,0,4,4", "--height", height, "--sigma", sigma)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert read_patterns(str(out)) == rows
    fields = summary_fields(proc.stdout)
    assert {key: int(fields[key]) for key in summary} == summary
    assert fields["malformed lines"] == "0"
    levels = {level: int(fields[f"patterns level {level}"]) for level in range(height + 1)}
    assert levels == {level: sum(row["level"] == level for row in rows)
                      for level in range(height + 1)}


def test_mine_reruns_are_byte_identical(ref_corpus, tmp_path):
    _, first = _mine(ref_corpus, tmp_path)
    second = tmp_path / "again.jsonl"
    run_cli("mine", "--input", ref_corpus, "--output", second,
            "--bbox", "0,0,4,4", "--height", "1", "--sigma", "2")
    assert first.read_bytes() == second.read_bytes()


def test_mine_per_level_sigma_list(ref_corpus, tmp_path):
    proc, out = _mine(ref_corpus, tmp_path)
    strict = tmp_path / "strict.jsonl"
    proc = run_cli("mine", "--input", ref_corpus, "--output", strict,
                   "--bbox", "0,0,4,4", "--height", "1", "--sigma", "2,3")
    assert proc.returncode == 0, proc.stderr
    fields = summary_fields(proc.stdout)
    assert fields["patterns level 1"] == "0"
    assert fields["patterns level 0"] == "3"
    assert read_patterns(str(strict)) == GOLDEN_ROWS[3:]


def test_mine_read_count_arithmetic(ref_corpus, tmp_path):
    with open(ref_corpus, "a", encoding="utf-8") as fh:
        fh.write('{"id": "far", "words": ["a"], "lon": 9.0, "lat": 9.0}\n')
        fh.write("this line is garbage\n")
        for i in range(6):
            fh.write(f'{{"id": "x{i}", "words": ["b"], "lon": 1.0, "lat": 3.0}}\n')
    proc, _ = _mine(ref_corpus, tmp_path)
    assert proc.returncode == 0, proc.stderr
    fields = summary_fields(proc.stdout)
    assert fields["records read"] == "12"
    assert fields["malformed lines"] == "1"
    assert fields["skipped out-of-box"] == "1"
    assert fields["records mined"] == "10"
    read = int(fields["records read"])
    assert read == (int(fields["records mined"]) + int(fields["skipped out-of-box"])
                    + int(fields["malformed lines"]))


def test_mine_aborts_when_too_many_lines_are_malformed(ref_corpus, tmp_path):
    with open(ref_corpus, "a", encoding="utf-8") as fh:
        fh.write("garbage one\n")
        fh.write("garbage two\n")
    proc, out = _mine(ref_corpus, tmp_path)
    assert proc.returncode == 1
    assert "malformed" in proc.stderr
    assert not out.exists()


def test_mine_counts_a_line_that_is_not_utf8_as_malformed(ref_corpus, tmp_path):
    with open(ref_corpus, "ab") as fh:
        fh.write(b'{"words": ["b"], "lon": 1.0, "lat": 3.0}\n' * 6)
    proc, out = _mine(ref_corpus, tmp_path)
    assert summary_fields(proc.stdout)["malformed lines"] == "0"
    clean = out.read_bytes()
    lines = ref_corpus.read_bytes().splitlines(keepends=True)
    lines.insert(7, b'{"words": ["caf\xff"], "lon": 1.0, "lat": 1.0}\n')
    ref_corpus.write_bytes(b"".join(lines))
    proc, out = _mine(ref_corpus, tmp_path)
    assert proc.returncode == 0, proc.stderr
    fields = summary_fields(proc.stdout)
    assert fields["malformed lines"] == "1"
    assert fields["records read"] == "11"
    assert out.read_bytes() == clean


def test_lines_that_are_not_utf8_count_toward_the_abort_guard(ref_corpus, tmp_path):
    with open(ref_corpus, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    proc, out = _mine(ref_corpus, tmp_path)
    assert proc.returncode == 1
    assert "1 of 5 lines malformed" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_stopword_file_that_is_not_utf8_is_an_error(ref_corpus, tmp_path):
    stop = tmp_path / "stop.txt"
    stop.write_bytes(b"the\n\xff\n")
    proc, _ = _mine(ref_corpus, tmp_path, "--stopwords", stop)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_dict_out_round_trips_words_with_control_characters(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    words = ["a\nb", "c\\d", "e\tf", "g\rh", "\\n", "plain"]
    corpus.write_text("".join(
        json.dumps({"words": words[i:] + words[:i], "lon": 1.0, "lat": 1.0}) + "\n"
        for i in range(3)), encoding="utf-8")
    dict_path = tmp_path / "dict.tsv"
    proc = run_cli("mine", "--input", corpus, "--output", tmp_path / "out.jsonl",
                   "--bbox", "0,0,4,4", "--height", "1", "--sigma", "2",
                   "--dict-out", dict_path)
    assert proc.returncode == 0, proc.stderr
    want = Vocabulary()
    list(FileSource(str(corpus), want))
    got = Vocabulary.load(str(dict_path))
    assert len(got) == len(want) == len(words)
    assert [got.word(i) for i in range(len(got))] == \
        [want.word(i) for i in range(len(want))]
    assert "5\tplain\n" in dict_path.read_text(encoding="utf-8")


def _mine_in_process(ref_corpus, tmp_path):
    out = tmp_path / "patterns.jsonl"
    code = cli.main(["mine", "--input", str(ref_corpus), "--output", str(out),
                     "--bbox", "0,0,4,4", "--height", "1", "--sigma", "2"])
    return code, out


def test_mine_parses_each_line_once(ref_corpus, tmp_path, monkeypatch, capsys):
    parse = Mock(wraps=formats.parse_record_line)
    monkeypatch.setattr(formats, "parse_record_line", parse)
    code, out = _mine_in_process(ref_corpus, tmp_path)
    assert code == 0, capsys.readouterr().err
    lines = [ln for ln in ref_corpus.read_text(encoding="utf-8").splitlines()
             if ln.strip()]
    assert parse.call_count == len(lines) == 4
    assert read_patterns(str(out)) == GOLDEN_ROWS


def test_malformed_guard_aborts_before_the_tree_build(ref_corpus, tmp_path,
                                                      monkeypatch, capsys):
    with open(ref_corpus, "a", encoding="utf-8") as fh:
        fh.write("garbage one\n")
        fh.write("garbage two\n")
    insert = Mock(wraps=engine.insert_record)
    monkeypatch.setattr(engine, "insert_record", insert)
    code, out = _mine_in_process(ref_corpus, tmp_path)
    assert code == 1
    assert "malformed" in capsys.readouterr().err
    insert.assert_not_called()
    assert not out.exists()


def test_importing_the_cli_does_not_load_numpy():
    code = "import sys, spatialfp.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_mine_derives_height_from_cell_meters(tmp_path):
    d = 1024.0 / METERS_PER_DEGREE
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(f'{{"words": ["x", "y"], "lon": {d / 4}, "lat": {d / 4}}}\n'
                for _ in range(3)),
        encoding="utf-8")
    out = tmp_path / "patterns.jsonl"
    proc = run_cli("mine", "--input", corpus, "--output", out,
                   "--bbox", f"0,0,{d},{d}", "--cell-meters", "512",
                   "--sigma", "2")
    assert proc.returncode == 0, proc.stderr
    fields = summary_fields(proc.stdout)
    assert "patterns level 1" in fields
    assert "patterns level 2" not in fields
    rows = read_patterns(str(out))
    assert {r["gid"] for r in rows} == {"00", ""}


def test_gen_output_is_reingestable(tmp_path):
    corpus = tmp_path / "gen.jsonl"
    proc = run_cli("gen", "--output", corpus, "--bbox", "0,0,4,4",
                   "--height", "1", "--records", "200", "--vocab", "100",
                   "--seed", "5", "--plant", "w00003+w00017@01:40")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"wrote 200 records to {corpus}"

    source = FileSource(str(corpus), Vocabulary())
    records = list(source)
    assert len(records) == 200
    assert source.malformed == 0

    planted = 0
    with open(corpus, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if {"w00003", "w00017"} <= set(obj["words"]):
                if obj["lon"] >= 2.0 and obj["lat"] <= 2.0:
                    planted += 1
    assert planted >= 40


def test_gen_rejects_bad_plant_spec(tmp_path):
    proc = run_cli("gen", "--output", tmp_path / "x.jsonl", "--bbox", "0,0,4,4",
                   "--height", "1", "--records", "10", "--plant", "w1@zz:5")
    assert proc.returncode == 2
    assert "plant" in proc.stderr


def test_gen_then_mine_pipeline(tmp_path):
    corpus = tmp_path / "gen.jsonl"
    run_cli("gen", "--output", corpus, "--bbox", "0,0,4,4", "--height", "2",
            "--records", "500", "--vocab", "60", "--words-mean", "4",
            "--seed", "8")
    out = tmp_path / "patterns.jsonl"
    proc = run_cli("mine", "--input", corpus, "--output", out,
                   "--bbox", "0,0,4,4", "--height", "2", "--sigma", "5")
    assert proc.returncode == 0, proc.stderr
    assert int(summary_fields(proc.stdout)["patterns total"]) == len(
        read_patterns(str(out)))


def test_check_passes_on_small_instances(ref_corpus):
    proc = run_cli("check", "--input", ref_corpus, "--bbox", "0,0,4,4",
                   "--height", "1", "--sigma", "2")
    assert proc.returncode == 0, proc.stderr
    fields = summary_fields(proc.stdout)
    assert fields["mined patterns"] == "6"
    assert fields["reference patterns"] == "6"
    assert proc.stdout.splitlines()[-1] == "identical"


def test_check_detects_corrupted_output(ref_corpus, monkeypatch, capsys):
    mine = engine.mine

    def corrupted(*args, **kwargs):
        # Bump one count and add one pattern the reference cannot have.
        patterns, report = mine(*args, **kwargs)
        first = patterns[0]._replace(count=patterns[0].count + 1)
        extra = SpatialPattern(frozenset({2**30}), ROOT, 1)
        return [first, *patterns[1:], extra], report

    monkeypatch.setattr(engine, "mine", corrupted)
    code = cli.main(["check", "--input", str(ref_corpus), "--bbox", "0,0,4,4",
                     "--height", "1", "--sigma", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DIFFER" in out
    assert "only in a" in out
    assert "count mismatch" in out


def test_check_refuses_oversized_instances_without_force(tmp_path):
    corpus = tmp_path / "big.jsonl"
    run_cli("gen", "--output", corpus, "--bbox", "0,0,4,4", "--height", "1",
            "--records", "20001", "--vocab", "30", "--words-mean", "3",
            "--seed", "3")
    args = ("check", "--input", corpus, "--bbox", "0,0,4,4", "--height", "9",
            "--sigma", "100")
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "20001 records > 20000; height 9 > 8" in proc.stderr
    assert "--force" in proc.stderr

    forced = run_cli(*args, "--force")
    assert forced.returncode == 0, forced.stderr
    assert forced.stdout.splitlines()[-1] == "identical"


def test_stats_reports_corpus_shape(tmp_path):
    corpus = tmp_path / "gen.jsonl"
    run_cli("gen", "--output", corpus, "--bbox", "0,0,4,4", "--height", "1",
            "--records", "400", "--vocab", "80", "--seed", "2")
    proc = run_cli("stats", "--input", corpus, "--bbox", "0,0,4,4")
    assert proc.returncode == 0, proc.stderr
    fields = summary_fields(proc.stdout)
    assert fields["records read"] == "400"
    assert fields["malformed lines"] == "0"
    assert fields["records"] == "400"
    assert 0 < int(fields["unique words"]) <= 80
    assert int(fields["word instances"]) > 0
    assert float(fields["mean words per record"]) > 0.0
    assert fields["outside bbox"] == "0"
    lon_lo, lon_hi = json.loads(fields["lon range"])
    lat_lo, lat_hi = json.loads(fields["lat range"])
    assert 0.0 <= lon_lo <= lon_hi <= 4.0
    assert 0.0 <= lat_lo <= lat_hi <= 4.0


def test_stats_counts_malformed_lines(tmp_path):
    corpus = tmp_path / "mixed.jsonl"
    corpus.write_text('{"words": ["a"], "lon": 1, "lat": 1}\nnot json\n',
                      encoding="utf-8")
    proc = run_cli("stats", "--input", corpus)
    assert proc.returncode == 0
    fields = summary_fields(proc.stdout)
    assert fields["records read"] == "2"
    assert fields["malformed lines"] == "1"
    assert fields["records"] == "1"
    assert "outside bbox" not in fields


def test_huge_numbers_count_as_malformed_lines(tmp_path):
    # An int above float range, an int literal past the digit limit of
    # int-from-string conversion, arrays nested past the recursion limit
    # and an escaped lone surrogate among the words; each used to end the
    # run with a traceback.
    corpus = tmp_path / "huge.jsonl"
    good = [json.dumps({"words": ["a", "b"], "lon": 1.0 + i % 3, "lat": 1.0})
            for i in range(40)]
    corpus.write_text("\n".join(good + [
        '{"words": ["a"], "lon": 1' + "0" * 400 + ', "lat": 1.0}',
        '{"words": ["a"], "lon": 1.0, "lat": ' + "1" * 5000 + '}',
        '{"words": ' + "[" * 1000 + "]" * 1000 + ', "lon": 1.0, "lat": 1.0}',
        '{"words": ["\\ud800", "b"], "lon": 1.0, "lat": 1.0}',
    ]) + "\n", encoding="utf-8")
    for proc in [run_cli("mine", "--input", corpus, "--output", tmp_path / "out.jsonl",
                         "--bbox", "0,0,4,4", "--height", "1", "--sigma", "2"),
                 run_cli("stats", "--input", corpus)]:
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert summary_fields(proc.stdout)["malformed lines"] == "4"


@pytest.mark.parametrize("args,code,needle", [
    (("mine", "--input", "x", "--output", "y", "--bbox", "0,0,4",
      "--height", "1", "--sigma", "2"), 2, "--bbox"),
    (("mine", "--input", "x", "--output", "y", "--bbox", "4,0,0,4",
      "--height", "1", "--sigma", "2"), 2, "bounding box"),
    (("mine", "--input", "x", "--output", "y", "--bbox", "0,0,4,4",
      "--height", "1", "--sigma", "two"), 2, "--sigma"),
    (("mine", "--input", "x", "--output", "y", "--bbox", "0,0,4,4",
      "--height", "1", "--sigma", "2,2,2"), 2, "per-level"),
    # Each case below used to end in a traceback, or to mine nothing (or
    # everything into one cell) and exit 0.
    (("mine", "--input", "x", "--output", "y", "--bbox", "0,0,4,4",
      "--cell-meters", "0", "--sigma", "2"), 2, "--cell-meters"),
    (("mine", "--input", "x", "--output", "y", "--bbox", "0,0,4,4",
      "--cell-meters", "-5", "--sigma", "2"), 2, "--cell-meters"),
    (("mine", "--input", "x", "--output", "y", "--bbox", "0,0,4,4",
      "--cell-meters", "nan", "--sigma", "2"), 2, "--cell-meters"),
    (("mine", "--input", "x", "--output", "y", "--bbox", "-inf,0,4,4",
      "--height", "2", "--sigma", "2"), 2, "finite"),
    (("mine", "--input", "x", "--output", "y", "--bbox", "0,0,inf,4",
      "--cell-meters", "100", "--sigma", "2"), 2, "finite"),
    (("mine", "--input", "x", "--output", "y", "--bbox", "0,0,4,4",
      "--height", "1", "--sigma", "2", "--limit", "-1"), 2, "--limit"),
    (("check", "--input", "x", "--bbox", "0,0,4,4", "--height", "1",
      "--sigma", "2", "--limit", "-1"), 2, "--limit"),
    (("stats", "--input", "x", "--limit", "-1"), 2, "--limit"),
    (("gen", "--output", "y", "--bbox=-1,-1,1,1", "--height", "2", "--records", "5",
      "--vocab", "10", "--seed", "-1"), 2, "seed"),
    (("gen", "--output", "y", "--bbox=-1,-1,1,1", "--height", "2", "--records", "5",
      "--vocab", "10", "--words-mean", "nan"), 2, "words_per_record_mean"),
    (("gen", "--output", "y", "--bbox=-1,-1,1,1", "--height", "2", "--records", "5",
      "--vocab", "10", "--words-mean", "inf"), 2, "words_per_record_mean"),
    (("gen", "--output", "y", "--bbox=-1,-1,1,1", "--height", "2", "--records", "5",
      "--vocab", "10", "--zipf", "nan"), 2, "zipf_exponent"),
])
def test_flag_validation_exits_2(args, code, needle):
    proc = run_cli(*args)
    assert proc.returncode == code
    assert needle in proc.stderr
    assert "Traceback" not in proc.stderr


def test_mine_rejects_the_removed_fast_backend(ref_corpus, tmp_path):
    proc, _ = _mine(ref_corpus, tmp_path, "--backend", "fast")
    assert proc.returncode == 2
    assert "argument --backend: invalid choice: 'fast'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_input_file_exits_1(tmp_path):
    proc = run_cli("mine", "--input", tmp_path / "nope.jsonl",
                   "--output", tmp_path / "out.jsonl",
                   "--bbox", "0,0,4,4", "--height", "1", "--sigma", "2")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_negative_bbox_coordinates_parse(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"words": ["a", "b"], "lon": -3.0, "lat": -1.0}\n' * 2,
                      encoding="utf-8")
    out = tmp_path / "patterns.jsonl"
    proc = run_cli("mine", "--input", corpus, "--output", out,
                   "--bbox", "-10.0,-5.0,10.0,5.0", "--height", "1",
                   "--sigma", "2")
    assert proc.returncode == 0, proc.stderr
    fields = summary_fields(proc.stdout)
    assert fields["patterns level 1"] == "3"
    assert fields["patterns total"] == "6"


def test_height_and_cell_meters_are_mutually_exclusive(ref_corpus, tmp_path):
    proc = run_cli("mine", "--input", ref_corpus,
                   "--output", tmp_path / "out.jsonl", "--bbox", "0,0,4,4",
                   "--height", "1", "--cell-meters", "100", "--sigma", "2")
    assert proc.returncode == 2
