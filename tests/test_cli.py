import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from redwords.cli import run
from redwords.permutation import parse_window
from redwords.reduced_words import enumerate_words, word_text


@pytest.fixture()
def cli(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_words(cli):
    code, out, err = cli("words", "[25314]")
    assert code == 0
    assert out.splitlines() == ["12432", "14232", "14323", "41232", "41323", "43123"]


def test_words_json_round_trip(cli):
    code, out, _ = cli("words", "[25314]", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 6
    assert obj["words"][0] == "12432"
    assert obj["window"] == [2, 5, 3, 1, 4]


def test_classes(cli):
    code, out, _ = cli("classes", "--kind", "braid", "[25314]")
    assert code == 0
    assert out.splitlines() == [
        "B1: 12432",
        "B2: 14232 14323",
        "B3: 41232 41323",
        "B4: 43123",
    ]
    code, out, _ = cli("classes", "[25314]")
    assert out.splitlines() == [
        "C1: 12432 14232 41232",
        "C2: 14323 41323 43123",
    ]


def test_table(cli):
    code, out, _ = cli("table", "[25314]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["C1", "C2"]
    assert lines[1].split() == ["B1", "12432", "-"]
    assert lines[4].split() == ["B4", "-", "43123"]
    code, out, _ = cli("table", "[25314]", "--format", "csv")
    assert out.splitlines()[1] == "B1,12432,"
    code, out, _ = cli("table", "[25314]", "--format", "json")
    obj = json.loads(out)
    assert obj["cells"][0] == ["12432", None]
    assert obj["jump_property"] is True


def test_graph_dot(cli):
    code, out, _ = cli("graph", "--which", "gamma", "[25314]", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {")
    assert '"B1" -- "C1"' in out
    code, out, _ = cli("graph", "[25314]")
    assert out.count("style=dashed") == 2
    code, out, _ = cli("graph", "--which", "gc", "[25314]", "--format", "json")
    obj = json.loads(out)
    assert obj["vertices"] == ["C1", "C2"]


def test_check(cli):
    code, out, _ = cli("check", "[4132]")
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert fields["achieves_lower"] == "True"
    assert fields["width"] == "2"
    assert fields["conjecture"] == "agree"
    code, out, _ = cli("check", "[25314]", "--format", "json")
    obj = json.loads(out)
    assert (obj["r"], obj["b"], obj["c"]) == (6, 4, 2)
    assert obj["violations"] == []


def test_interval(cli):
    code, out, _ = cli("interval", "[3421]")
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert fields["rank_sizes"] == "1 2 3 3 2 1"
    assert fields["width"] == "3"
    assert fields["support_size"] == "3"
    code, out, _ = cli("interval", "[3421]", "--format", "json")
    obj = json.loads(out)
    assert obj["ranks"][0] == ["[1234]"]
    assert obj["ranks"][-1] == ["[3421]"]


def test_counts(cli):
    code, out, _ = cli("counts", "--n", "5")
    assert code == 0
    assert out.splitlines() == [
        "catalan(5) = 42",
        "upper(5) = 45",
        "lower(5) = 65",
    ]
    code, out, _ = cli("counts", "--n", "7", "--format", "json")
    obj = json.loads(out)
    assert (obj["catalan"], obj["upper"], obj["lower"]) == (429, 434, 506)
    code, out, _ = cli("counts", "--n", "7", "--format", "csv")
    assert out.splitlines() == ["n,catalan,upper,lower", "7,429,434,506"]


def test_scan_stdout_jsonl(cli):
    code, out, _ = cli("scan", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7  # 6 records + 1 report
    report = json.loads(lines[-1])
    assert report["type"] == "report"
    assert report["upper_achiever_count"] == 6


def test_scan_text_summary(cli):
    code, out, _ = cli("scan", "--n", "4", "--format", "text")
    assert code == 0
    assert "upper achievers: 16 (closed form 16)" in out
    assert "lower achievers: 23 (closed form 23)" in out
    assert "closed_form_match: True" in out


def test_scan_to_file_deterministic_across_workers(cli, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code, _, _ = cli("scan", "--n", "4", "--workers", "1", "--output", str(a))
    assert code == 0
    code, _, _ = cli("scan", "--n", "4", "--workers", "2", "--output", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_conjecture(cli):
    code, out, _ = cli("conjecture", "--n", "4")
    assert code == 0
    assert "24 of 24 agree" in out
    assert "counterexamples: none" in out
    code, out, _ = cli("conjecture", "--n", "4", "--format", "json")
    obj = json.loads(out)
    assert obj["agreements"] == 24
    assert obj["counterexamples"] == []


def test_usage_errors(cli, tmp_path):
    code, _, err = cli("words", "[2231]")
    assert code == 1
    assert "redwords" in err
    code, _, err = cli("nonsense")
    assert code == 1
    code, _, err = cli("words", "[25314]", "--format", "yaml")
    assert code == 1
    code, _, err = cli("scan", "--n", "3", "--checks", "nope")
    assert code == 1
    code, _, err = cli("counts", "--n", "99")
    assert code == 1
    for argv in (
        ["words", "[21]"], ["classes", "[21]"], ["table", "[21]"], ["graph", "[21]"],
        ["check", "[21]"], ["scan", "--n", "2"], ["conjecture", "--n", "2"],
    ):
        for cap in ("0", "-3"):
            code, out, err = cli(*argv, "--cap", cap, "--strict")
            assert (code, out) == (1, ""), argv
            assert "--cap must be at least 1" in err
    # interval never enumerates R(w), so it has no cap to set
    code, _, err = cli("interval", "[21]", "--cap", "5")
    assert code == 1
    # an output that cannot be written is reported before the scan runs
    missing = str(tmp_path / "missing" / "s5.jsonl")
    code, out, err = cli("scan", "--n", "5", "--checks", "bounds", "--output", missing)
    assert (code, out) == (1, "")
    assert err.startswith("redwords: ") and err.count("\n") == 1


def test_strict_cap_exit_code(cli):
    code, _, err = cli("words", "[54321]", "--cap", "5", "--strict")
    assert code == 3
    code, _, err = cli("words", "[54321]", "--cap", "5")
    assert code == 0
    assert "skipped" in err
    code, _, err = cli("check", "[54321]", "--cap", "5", "--strict")
    assert code == 3
    code, _, err = cli("scan", "--n", "4", "--cap", "5", "--strict", "--format", "text")
    assert code == 3


def test_help_exits_zero(cli):
    code, out, _ = cli("--help")
    assert code == 0


def test_theorem_violation_exit_code(cli, monkeypatch):
    import importlib

    scan_module = importlib.import_module("redwords.scan")
    real = scan_module.verify_permutation

    def broken(w, **kwargs):
        rec = real(w, **kwargs)
        return scan_module.ScanRecord(
            **{**rec.__dict__, "violations": ("synthetic violation",)}
        )

    monkeypatch.setattr(scan_module, "verify_permutation", broken)
    code, _, err = cli("check", "[213]")
    assert code == 2
    assert "theorem check failed" in err


def test_module_entry_point(tmp_path):
    repo_src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "redwords", "counts", "--n", "4"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "upper(4) = 16" in proc.stdout


def _fresh_process(argv):
    repo_src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "redwords", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_process_answers_like_fresh_processes(cli):
    # The parser is built once per process; a usage error must not leave
    # state behind that changes the requests after it.
    requests = [
        ["words", "[25314]", "--format", "yaml"],
        ["words", "[25314]", "--format", "json"],
        ["classes", "--kind", "braid", "[25314]"],
        ["scan", "--n", "3", "--checks", "nope"],
        ["table", "[4132]", "--format", "csv"],
        ["graph", "--which", "gc", "[25314]"],
        ["counts", "--n", "5", "--format", "json"],
        ["check", "[54321]", "--cap", "5", "--strict"],
        ["interval", "[3421]"],
    ]
    for argv in requests:
        assert cli(*argv) == _fresh_process(argv), argv


@pytest.mark.parametrize("window", ["[1]", "[21]", "[54321]", "[3,4,5,6,7,8,9,10,2,1]"])
def test_json_output_is_canonical(cli, window):
    # The words and the table cells are written piecewise; the whole must be the
    # compact, key-sorted JSON that one json.dumps of the object gives.
    for argv in (
        ["words", window],
        ["classes", "--kind", "braid", window],
        ["table", window],
        ["graph", "--which", "word", window],
        ["graph", "--which", "gamma", window],
    ):
        code, out, _ = cli(*argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    code, out, _ = cli("words", window, "--format", "json")
    assert json.loads(out)["words"] == [
        word_text(u) for u in enumerate_words(parse_window(window)).words
    ]


def test_enumeration_free_paths_do_not_load_numpy():
    repo_src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import io, sys, contextlib\n"
        "import redwords\n"
        "assert 'numpy' not in sys.modules, 'import redwords'\n"
        "from redwords.scan import ScanOptions, scan\n"
        "scan(ScanOptions(n=5, checks=frozenset({'weak_order'})))\n"
        "assert 'numpy' not in sys.modules, 'weak_order scan'\n"
        "scan(ScanOptions(n=5, checks=frozenset({'weak_order'}), workers=2))\n"
        "assert 'numpy' not in sys.modules, 'pooled weak_order scan'\n"
        "from redwords.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['counts', '--n', '5']) == 0\n"
        "assert 'numpy' not in sys.modules, 'counts'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['interval', '[54321]']) == 0\n"
        "assert 'numpy' not in sys.modules, 'interval'\n"
        "w0 = redwords.longest_element(5)\n"
        "redwords.conjecture_predicate(w0)\n"
        "redwords.lower_predicate_pattern(w0)\n"
        "redwords.upper_predicate(w0)\n"
        "for name in ('numpy', 'redwords.graphs'):\n"
        "    assert name not in sys.modules, name + ' after the predicates'\n"
        "redwords.analyse\n"
        "assert 'numpy' in sys.modules, 'analyse'\n"
        "for name in redwords.__all__:\n"
        "    getattr(redwords, name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr


def test_words_json_spans_several_batches(cli):
    # 48,048 words: the word list is rendered in more than one piece.
    expected = [word_text(u) for u in enumerate_words(parse_window("[564321]")).words]
    code, out, _ = cli("words", "[564321]", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    assert json.loads(out)["words"] == expected
    code, out, _ = cli("words", "[564321]", "--format", "text")
    assert code == 0
    assert out == "\n".join(expected) + "\n"


def test_table_csv_streams_its_rows():
    # [564321] has 28,594 braid classes by 268 commutation classes: a grid of
    # 7.66 M cells, of which the 48,048 words fill one each.  Held whole, the
    # grid alone takes about 60 MB.
    import contextlib
    import os
    import tracemalloc

    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert run(["table", "[564321]", "--format", "csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


# sha256 of the stdout of one view over all 24 permutations of S_4, in
# lexicographic window order, as released before the views were rebuilt on
# the Analysis; any change to a class list, a table or a graph shows here.
PINNED_S4_VIEW_SHA256 = {
    "check --format text":
        "ffd97fc69dd1508a3a79adbb5ff1d8d29b59f3a21ce91c4225e6f968db6c2c8e",
    "check --format json":
        "18396a2ebae47a0502280259a4c43941fc7843acf723130a308398063381b3f0",
    "classes --kind braid --format text":
        "57ce97065508c0cead47a9f7a21c5483bb1f241677c1df1c84036f45b0dee571",
    "classes --kind braid --format json":
        "527ac02cf17528127343a8efeb8d3a101826704f372cd65f4473591a3664bdc9",
    "classes --kind commutation --format text":
        "f33c6094f480b2ee47de1d29a029e6352c9f7b8d397610531453c080233ac435",
    "classes --kind commutation --format json":
        "f0cf80ddd8e7fa5cd30bc3e16d4cc570af461a62c3ce7be5983f78e49a187c7c",
    "table --format text":
        "3e7efde156b9c825851bd11d72fd7a35473b03adce59250c09df8c3cf0f6f77e",
    "table --format csv":
        "d87f6fbc2587043b5ac8acf1a717d70ae05bc24462634cda397f74abdc08702c",
    "table --format json":
        "f2703f7b2fdcc078d5d68df275df73d8bda0779db929a9fa47d43718c63070fa",
    "graph --which word --format dot":
        "bf73f4c936759b8b388acdd6da402bfe0426c81db0fd889c87cbcd15f1cb40a8",
    "graph --which word --format json":
        "5f90441e35223a5358f10c8a50999154d95ba01af1f16e498ae2bf35c4f65f16",
    "graph --which gc --format dot":
        "18b6fb92c3ab8b204c2621d3ff196f39f527102747c4960ebc848f9e809dc929",
    "graph --which gc --format json":
        "02599525e881590e75822e4c4ea968aa65d0d23e775faa0a3e7f9cc2c748096f",
    "graph --which gb --format dot":
        "fcdb7ef09f0215a54f464b00740e5c2d58c4662609a5115d2e5b8692a061fbf5",
    "graph --which gb --format json":
        "d95a3d9deece2522289d3200f35bf514b0d636f4f38dba31e5d375471e8560b5",
    "graph --which gamma --format dot":
        "5785a4a4e3c06244d9a0ebffff7280f68f6f8ba27f8279c7037a522158548ce5",
    "graph --which gamma --format json":
        "6ba5af5ea10106ae6d75ab45115eb85bd6269b5a46948ffb2a33af29c0fbdfcf",
}


@pytest.mark.parametrize("view", sorted(PINNED_S4_VIEW_SHA256))
def test_views_of_every_s4_permutation_are_pinned(cli, view):
    from itertools import permutations

    digest = hashlib.sha256()
    for window in permutations("1234"):
        code, out, err = cli(*view.split(), "[" + "".join(window) + "]")
        assert (code, err) == (0, ""), window
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == PINNED_S4_VIEW_SHA256[view]


# sha256 of the stdout of every view of [465321] (r = 15,015, b = 9,048,
# c = 132), as released before the views read the word texts of the word
# set: its table spans several chunks of rows, which no S_4 view reaches.
PINNED_465321_VIEW_SHA256 = {
    "classes --kind braid --format text":
        "404d7f8d1b00696a4f3b925c41ee618ab86f0c0b9feb3c195818ca8fd447975d",
    "classes --kind braid --format json":
        "534e7e3549091d56677a364200eee0327de77f25be4fb2d29f85f08bb16d418e",
    "classes --kind commutation --format text":
        "3df10aeeb2df831c3f72daced8ed0645a62f1cb825667b82e6464d9f548d585d",
    "classes --kind commutation --format json":
        "6cf4df415da48d38d943b131cbfaf933db8b18bed4df0e0b1a138114cb50e01c",
    "table --format text":
        "fbd204725bdd81de93c3a1b76f8fd98bd9cfb80dc8fe2f1355616dedffe264e6",
    "table --format csv":
        "1a26bdd9bee613ddf3d77dac524dd196d282e0c6fc5e4e4a57ebee3a9d0ca398",
    "table --format json":
        "6e33a4f0bcebe3e6949e2c62fb5ddb939679f9e781d779c2ac3ab6908a637271",
    "graph --which word --format dot":
        "932df839d0b82269bb6919da2485b6dbf45945e451bf082a009e544d062b3ffc",
    "graph --which word --format json":
        "b8bc862b4a718cd2fdca24aaf752fa72695e6a0de3ca7b407c6f61aa7f11fab2",
    "graph --which gc --format dot":
        "38819a1c0febe80fb1fde9923631c5abe42ec4bdfbc34483cc6b1982baf52fbb",
    "graph --which gc --format json":
        "4435b233e27e5afe0d59fe4db3ff73fe2e5a58cdd4c94f6eca8c817332e84e66",
    "graph --which gb --format dot":
        "56c65548cb4725eeafc83169f320438e4e536245249386510d0e8a8da47f46df",
    "graph --which gb --format json":
        "703307d55afedddda7dc35f65e7abe0e61094443df319a6fe8a4f09ec95c9ad5",
    "graph --which gamma --format dot":
        "395f85252e310f9c341e3f46ec015de42d1874e884170fd5ef5f51528b784281",
    "graph --which gamma --format json":
        "51f59718f8e0af016ca8338f87fea864018f61900c9dad8db6c42181d2dcfd15",
    "words --format text":
        "407feb05de836242fae84a0922ecd22b32d1a43f949a13c0043ed45283499df4",
    "words --format json":
        "084c0e37df6f1850e09178e829890972b4a1da67806e6093c52e39248b0f85f1",
}


@pytest.mark.parametrize("view", sorted(PINNED_465321_VIEW_SHA256))
def test_views_of_465321_are_pinned(cli, view):
    code, out, err = cli(*view.split(), "[465321]")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_465321_VIEW_SHA256[view]


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_word_graph_of_465321_is_written_a_piece_at_a_time(monkeypatch, fmt):
    # 15,015 vertices and their move edges: no write may hold the whole graph,
    # or even a tenth of it.
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(len(text))

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert run(["graph", "--which", "word", "[465321]", "--format", fmt]) == 0
    assert len(writes) > 10
    assert max(writes) * 10 < sum(writes)
