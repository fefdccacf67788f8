import argparse
import io
import mmap
import os
import tracemalloc

import pytest

import halftimehash as hh
from halftimehash import analysis
from halftimehash.cli import _read_input, fill_bytes, main, parse_size

GOLDEN_EMPTY_24 = "f76f757856e9c252a8a1ce42dc0e2a5df09d621286a62a2d"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_size_suffixes():
    assert parse_size("17") == 17
    assert parse_size("1K") == 1024
    assert parse_size("2M") == 2 * 1024**2
    assert parse_size("1E") == 1024**6
    with pytest.raises(Exception):
        parse_size("x1")
    assert parse_size("0") == 0


@pytest.mark.parametrize("text", ["-1", "-1K", " -5M "])
def test_parse_size_rejects_negative(text):
    with pytest.raises(argparse.ArgumentTypeError, match="negative size"):
        parse_size(text)


def test_analyze_negative_length_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--length=-1K"])
    assert exc.value.code == 2
    assert "negative size '-1K'" in capsys.readouterr().err


def test_bench_negative_size_exit_2(capsys):
    code, out, err = run(capsys, "bench", "--sizes=-1K", "--reps", "1")
    assert code == 2
    assert "negative size '-1K'" in err
    assert out == ""


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_bench_reps_below_one_exit_2(capsys, reps):
    code, out, err = run(capsys, "bench", "--sizes", "1K", "--reps", reps)
    assert code == 2
    assert "--reps must be at least 1" in err
    assert out == ""


def test_hash_empty_stdin_golden(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(b"")})())
    code, out, _ = run(capsys, "hash", "--variant", "24", "-")
    assert code == 0
    assert out.strip() == GOLDEN_EMPTY_24


def test_hash_file_deterministic(capsys, tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(fill_bytes(3000))
    code1, out1, _ = run(capsys, "hash", str(path))
    code2, out2, _ = run(capsys, "hash", str(path))
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip() == hh.digest(fill_bytes(3000)).hex()


def test_hash_empty_file_golden(capsys, tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    code, out, _ = run(capsys, "hash", "--variant", "24", str(path))
    assert code == 0
    assert out.strip() == GOLDEN_EMPTY_24


def test_hash_reads_regular_files_through_mmap(tmp_path):
    full = tmp_path / "data.bin"
    full.write_bytes(fill_bytes(3000))
    data = _read_input(str(full))
    assert isinstance(data, mmap.mmap)
    assert bytes(data) == fill_bytes(3000)
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert _read_input(str(empty)) == b""


def _stdin_from(monkeypatch, fh):
    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": fh})())


def test_hash_file_stdin_like_path(capsys, monkeypatch, tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(fill_bytes(3000))
    _, by_path, _ = run(capsys, "hash", str(path))
    with open(path, "rb") as fh:
        _stdin_from(monkeypatch, fh)
        code, by_stdin, _ = run(capsys, "hash", "-")
    assert code == 0
    assert by_stdin == by_path
    # a stdin already read into hashes from where it stands
    with open(path, "rb") as fh:
        fh.read(5)
        _stdin_from(monkeypatch, fh)
        _, rest, _ = run(capsys, "hash", "-")
    assert rest.strip() == hh.digest(fill_bytes(3000)[5:]).hex()


def test_hash_file_stdin_is_mapped(monkeypatch, tmp_path):
    # A regular file given as stdin is mapped, as a named file is, and not
    # read into memory: reading it traced the whole 16 MiB.
    path = tmp_path / "big.bin"
    path.write_bytes(bytes(16 * 2**20))
    with open(path, "rb") as fh:
        _stdin_from(monkeypatch, fh)
        tracemalloc.start()
        try:
            data = _read_input("-")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) == 16 * 2**20
        del data
    assert peak < 2**20


def test_hash_seed_hex_and_file_agree(capsys, tmp_path):
    data_path = tmp_path / "in.bin"
    data_path.write_bytes(b"payload")
    master = bytes(range(32))
    seed_path = tmp_path / "seed.bin"
    seed_path.write_bytes(master)
    _, out_hex, _ = run(capsys, "hash", "--seed-hex", master.hex(), str(data_path))
    _, out_file, _ = run(capsys, "hash", "--seed-file", str(seed_path), str(data_path))
    assert out_hex == out_file
    assert out_hex.strip() == hh.digest(b"payload", master).hex()


def test_hash_seed_hex_and_file_together_exit_2(capsys, tmp_path):
    # Both options at once used to hash under the hex and ignore the file.
    data_path = tmp_path / "in.bin"
    data_path.write_bytes(b"payload")
    seed_path = tmp_path / "seed.bin"
    seed_path.write_bytes(bytes(range(32)))
    with pytest.raises(SystemExit) as exc:
        main(["hash", "--seed-hex", "00" * 32, "--seed-file", str(seed_path), str(data_path)])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


class _EndlessZeros(io.RawIOBase):
    """A file that never ends: a sized read returns that many zero bytes,
    and a read to the end raises instead of running forever."""

    def read(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("an endless file was read to its end")
        return b"\0" * size


def test_hash_seed_file_without_end_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("halftimehash.cli.open", lambda *a, **k: _EndlessZeros(), raising=False)
    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(b"")})())
    code, out, err = run(capsys, "hash", "--seed-file", "endless", "-")
    assert code == 2
    assert "seed file must hold exactly 32 bytes" in err
    assert out == ""


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_hash_seed_file_dev_zero_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(b"")})())
    code, _, err = run(capsys, "hash", "--seed-file", "/dev/zero", "-")
    assert code == 2
    assert "seed file must hold exactly 32 bytes" in err


def test_bench_size_past_memory_exit_2(capsys):
    # numpy refuses the 1 EiB fill at once, before allocating anything.
    code, out, err = run(capsys, "bench", "--sizes", "1E", "--reps", "1")
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_hash_bad_variant_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["hash", "--variant", "17", "-"])
    assert exc.value.code == 2


def test_hash_bad_seed_exit_2(capsys, tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"x")
    code, _, err = run(capsys, "hash", "--seed-hex", "abcd", str(path))
    assert code == 2
    assert "seed" in err


def test_hash_unreadable_input_exit_2(capsys):
    code, _, err = run(capsys, "hash", "/nonexistent/path/file.bin")
    assert code == 2
    assert err


def test_analyze_exabyte_entropy(capsys):
    code, out, _ = run(capsys, "analyze", "--variant", "24", "--length", "1E")
    assert code == 0
    eps = float(next(l for l in out.splitlines() if l.startswith("epsilon_log2")).split()[-1])
    assert eps > 83


def test_analyze_megabyte_seed_bytes(capsys):
    code, out, _ = run(capsys, "analyze", "--variant", "24", "--length", "1M")
    assert code == 0
    got = int(next(l for l in out.splitlines() if l.startswith("seed_bytes")).split()[-1])
    assert 7140 <= got <= 9660


def test_analyze_length_one_h_zero(capsys):
    code, out, _ = run(capsys, "analyze", "--variant", "16", "--length", "1")
    assert code == 0
    h = int(next(l for l in out.splitlines() if l.startswith("tree_height ")).split()[-1])
    assert h == 0


def test_analyze_csv_shape(capsys):
    code, out, _ = run(capsys, "analyze", "--variant", "32", "--length", "4K", "--csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert len(header.split(",")) == len(row.split(","))
    assert header.startswith("output_bytes,")


def test_analyze_zero_length_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "--variant", "24", "--length", "0")
    assert code == 2
    assert "length" in err


def test_verify_quick_passes(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert "all properties hold" in out
    assert "FAIL" not in out


# The full output of ``verify --quick``: every property line and its figures.
VERIFY_QUICK_STDOUT = """\
PASS matrix-valuation-16: measured 2^2, stored 2^2
PASS matrix-valuation-24: measured 2^2, stored 2^2
PASS matrix-valuation-32: measured 2^3, stored 2^3
PASS matrix-valuation-40: measured 2^3, stored 2^3
PASS code-distance-16: measured distance 2, need >= 2
PASS code-distance-24: measured distance 3, need >= 3
PASS code-distance-32: measured distance 4, need >= 4
PASS code-distance-40: measured distance 5, need >= 5
PASS nh-delta-universality-w4: max 0.062500 vs bound 0.062500
all properties hold
"""


def test_verify_quick_stdout_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert out == VERIFY_QUICK_STDOUT


# The full output of ``verify``: 10^6 code-distance trials, 100 NH probes
# and the leaf-stage probe.
VERIFY_STDOUT = VERIFY_QUICK_STDOUT.replace(
    "all properties hold\n",
    "PASS ehc-delta-universality-w4: max 0.003906 vs bound 0.003906\n"
    "all properties hold\n",
)


def test_verify_stdout_pinned(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out == VERIFY_STDOUT


def test_verify_reports_failed_properties(capsys, monkeypatch):
    # The properties look their checks up on the analysis module, so a
    # wrong valuation and a short code distance both surface as FAIL lines.
    real_valuation = analysis.max_two_adic_valuation

    def short_distance(code, trials):
        raise analysis.CodeDistanceError("measured distance 1, declared 2")

    monkeypatch.setattr(
        analysis, "max_two_adic_valuation", lambda m, k: real_valuation(m, k) + 1
    )
    monkeypatch.setattr(analysis, "verify_min_distance", short_distance)
    code, out, err = run(capsys, "verify", "--quick")
    assert code == 1
    lines = out.splitlines()
    widths = (16, 24, 32, 40)
    for width in widths:
        stored = hh.variant(width).max_det_valuation
        assert (
            f"FAIL matrix-valuation-{width}: measured 2^{stored + 1}, stored 2^{stored}"
            in lines
        )
        assert f"FAIL code-distance-{width}: measured distance 1, declared 2" in lines
    assert "all properties hold" not in lines
    names = [f"{kind}-{w}" for kind in ("matrix-valuation", "code-distance") for w in widths]
    assert err == "failed properties: " + ", ".join(names) + "\n"


def _pinned_lengths(p):
    """1 B, one instance (m8 bytes) and its neighbours, f instances, 1M, 1E."""
    m8 = 8 * p.instance_words
    return (1, m8 - 1, m8, m8 + 1, p.fanout * m8, 2**20, 2**60)


ANALYZE_HEADER = (
    "output_bytes,n_bytes,tree_height,tree_height_floor,epsilon_log2,key_bits,"
    "epsilon_log2_keyed,seed_words,seed_bytes,seed_words_paper,multiplications,"
    "multiplications_log_term"
)
# ``analyze --csv`` rows at _pinned_lengths, per variant.
ANALYZE_ROWS = {
    16: [
        "16,1,0,0,59.91,64,59.91,253,2024,253,0,4",
        "16,767,0,0,59.91,64,59.91,253,2024,253,128,98",
        "16,768,0,0,59.91,64,59.91,253,2024,253,128,98",
        "16,769,0,0,59.91,64,59.91,253,2024,253,128,100",
        "16,6144,1,1,59.83,64,59.83,395,3160,253,1024,210",
        "16,1048576,4,3,58.96,64,58.96,679,5432,679,174720,290",
        "16,1152921504606846976,17,16,55.74,64,55.74,2525,20200,2525,192153584101141120,994",
    ],
    24: [
        "24,1,0,0,89.98,64,64.00,410,3280,410,0,6",
        "24,1343,0,0,89.98,64,64.00,410,3280,410,240,147",
        "24,1344,0,0,89.98,64,64.00,410,3280,410,240,147",
        "24,1345,0,0,89.98,64,64.00,410,3280,410,240,150",
        "24,10752,1,1,89.96,64,64.00,623,4984,410,1920,315",
        "24,1048576,4,3,88.99,64,64.00,1049,8392,1049,187200,531",
        "24,1152921504606846976,17,16,83.72,64,64.00,3818,30544,3818,205878840108365520,2235",
    ],
    32: [
        "32,1,0,0,116.00,64,64.00,485,3880,485,0,8",
        "32,1343,0,0,116.00,64,64.00,485,3880,485,272,196",
        "32,1344,0,0,116.00,64,64.00,485,3880,485,272,196",
        "32,1345,0,0,116.00,64,64.00,485,3880,485,272,200",
        "32,10752,1,1,116.00,64,64.00,769,6152,485,2176,420",
        "32,1048576,4,3,115.91,64,64.00,1337,10696,1337,212160,708",
        "32,1152921504606846976,17,16,111.58,64,64.00,5029,40232,5029,233329352122814256,2980",
    ],
    40: [
        "40,1,0,0,145.00,64,64.00,506,4048,506,0,10",
        "40,959,0,0,145.00,64,64.00,506,4048,506,256,245",
        "40,960,0,0,145.00,64,64.00,506,4048,506,256,245",
        "40,961,0,0,145.00,64,64.00,506,4048,506,256,250",
        "40,7680,1,1,145.00,64,64.00,861,6888,506,2048,525",
        "40,1048576,4,3,144.96,64,64.00,1571,12568,1571,279552,1005",
        "40,1152921504606846976,17,16,139.53,64,64.00,6186,49488,6186,307445734561825792,3645",
    ],
}


@pytest.mark.parametrize("width", sorted(ANALYZE_ROWS))
def test_analyze_csv_rows_pinned(capsys, width):
    rows = []
    for n in _pinned_lengths(hh.variant(width)):
        code, out, _ = run(capsys, "analyze", "--variant", str(width), "--length", str(n), "--csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == ANALYZE_HEADER
        rows.append(row)
    assert rows == ANALYZE_ROWS[width]


def test_bench_csv_contract(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "1K,4K", "--reps", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size_bytes,variant,bytes_per_second,bytes_per_cycle"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 2 * 4  # sizes x variants
    for size, width, bps, bpc in rows:
        assert int(size) in (1024, 4096)
        assert int(width) in (16, 24, 32, 40)
        assert float(bps) > 0
        assert bpc == ""  # no cycle counter from pure Python


def test_vectors_round_trip(capsys, tmp_path):
    path = tmp_path / "vectors.txt"
    code, _, _ = run(capsys, "vectors", "--emit", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4 * 2 * 8  # variants x seeds x lengths
    code, out, _ = run(capsys, "vectors", "--check", str(path))
    assert code == 0
    assert "verified" in out


def test_vectors_detect_corruption(capsys, tmp_path):
    path = tmp_path / "vectors.txt"
    run(capsys, "vectors", "--emit", str(path))
    text = path.read_text()
    last = text.rstrip()[-1]
    flipped = "0" if last != "0" else "1"
    path.write_text(text.rstrip()[:-1] + flipped + "\n")
    code, out, err = run(capsys, "vectors", "--check", str(path))
    assert code == 1
    assert "mismatch" in out
    assert "disagree" in err


def test_vectors_detect_duplicated_record(capsys, tmp_path):
    # Every record, plus one repeated line: the extra copy is a mismatch.
    path = tmp_path / "vectors.txt"
    run(capsys, "vectors", "--emit", str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[5]]) + "\n")
    code, out, err = run(capsys, "vectors", "--check", str(path))
    assert code == 1
    assert out == f"mismatch: {lines[5]}\n"
    assert err == "1 vector records disagree\n"


def test_committed_vectors_check(capsys):
    # The 64 records were emitted once and committed, so a digest change
    # fails here even though it would round-trip through --emit.
    path = os.path.join(os.path.dirname(__file__), "vectors.txt")
    code, out, _ = run(capsys, "vectors", "--check", path)
    assert code == 0
    assert out == "64 vector records verified\n"


def test_vector_records_rederivable(tmp_path, capsys):
    # a record is reproducible from its first four fields
    path = tmp_path / "v.txt"
    run(capsys, "vectors", "--emit", str(path))
    line = path.read_text().splitlines()[10]
    width, seed_hex, length, gen, digest_hex = line.split(",")
    assert gen == "splitmix:243f6a8885a308d3"
    data = fill_bytes(int(length))
    redone = hh.digest(data, bytes.fromhex(seed_hex), int(width))
    assert redone.hex() == digest_hex
