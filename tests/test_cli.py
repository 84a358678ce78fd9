import os
import subprocess
import sys

import numpy as np
import pytest

from pkscale.cli import COST_HEADER, DEMO_HEADER, METRIC_HEADER, main
from pkscale.costs import mac_conv_plain_general, mac_conv_proj_general


def _rows(text, header):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == header
    return [ln.split(",") for ln in lines[1:]]


def test_cost_model_golden_row(tmp_path, capsys):
    out = tmp_path / "cost.csv"
    rc = main(["cost-model", "--n-list", "144", "--l-list", "8",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    rows = _rows(out.read_text(), COST_HEADER)
    assert ["gemm", "144", "8", "0", "13.8889"] in rows
    assert any(r[0] == "conv-freq" and r[1] == "144" for r in rows)


def test_cost_model_skips_non_dividing_sizes(capsys):
    rc = main(["cost-model", "--domain", "gemm", "--n-list", "10",
               "--l-list", "4"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "# skipped 1 gemm rows" in text
    assert _rows(text, COST_HEADER) == []


def test_cost_model_rejects_l_at_size():
    assert main(["cost-model", "--l", "4", "--l-list", "4"]) == 2


def test_cost_model_rejects_bad_list():
    assert main(["cost-model", "--n-list", "a,b"]) == 2


def test_bench_gemm_small_run(tmp_path):
    out = tmp_path / "gemm.csv"
    rc = main(["bench-gemm", "--n", "8", "--inner", "6", "--L", "4",
               "--reps", "1", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "zero-padded 6 -> 8" in text
    rows = _rows(text, METRIC_HEADER)
    assert len(rows) == 6
    kernels = [r[0] for r in rows]
    assert kernels == ["gemm-projected"] * 4 + ["gemm-conventional", "gemm-blas"]
    for row in rows:
        assert row[5] == row[6]          # model MACs == instrumented MACs
    assert rows[0][1] == "N8.K6.L4.p1"
    # full projections and the conventional kernel both reproduce the
    # float64 reference exactly, which reports the capped sentinel
    assert float(rows[3][2]) == 300.0
    assert float(rows[4][2]) == 300.0
    assert int(rows[4][5]) == 8 * 6 * 8
    assert "# timing gemm-conventional" in text
    # bare `a @ b` is charged m*k*w on the unpadded geometry, like the model
    assert rows[5][1] == "N8.K6"
    assert float(rows[5][2]) == 300.0
    assert int(rows[5][5]) == 8 * 6 * 8
    assert "# timing gemm-blas" in text


def test_bench_gemm_snr_improves_with_projections(tmp_path):
    out = tmp_path / "gemm.csv"
    rc = main(["bench-gemm", "--n", "16", "--inner", "16", "--L", "4",
               "--reps", "1", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = _rows(out.read_text(), METRIC_HEADER)
    snrs = [float(r[2]) for r in rows[:4]]
    assert snrs == sorted(snrs)


def test_bench_conv_small_run(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["bench-conv", "--w", "256", "--n", "8", "--L", "2",
               "--reps", "1", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    rows = _rows(text, METRIC_HEADER)
    assert [r[0] for r in rows] == ["conv-projected", "conv-projected",
                                    "conv-time", "conv-fft", "conv-oaconvolve"]
    assert rows[0][1].endswith(".half")
    assert rows[1][1].endswith(".all")
    # the model counts the shipping kernel: one phase for half, L for all
    assert int(rows[0][5]) == int(rows[0][6]) == mac_conv_proj_general(256, 8, 2, 1, 1)
    assert int(rows[1][5]) == int(rows[1][6]) == mac_conv_proj_general(256, 8, 2, 1, 2)
    assert float(rows[2][2]) == 300.0    # direct kernel is the reference
    assert int(rows[2][5]) == int(rows[2][6]) == mac_conv_plain_general(256, 8)
    for row in rows[3:]:                 # library FFTs are not instrumented
        assert row[6] == "0"
        assert float(row[2]) > 200.0
    assert "# macs_measured=0" in text
    # a 256-sample signal runs as block-Toeplitz products
    assert "# timing conv-projected W256.N8.L2.p1.half: domain=time median_s=" in text
    assert "# timing conv-projected W256.N8.L2.p1.all: domain=time median_s=" in text
    assert "# timing conv-time W256.N8: median_s=" in text


@pytest.mark.parametrize("command", [
    ["bench-gemm", "--n", "8", "--inner", "8", "--L", "2", "--reps", "1"],
    ["bench-conv", "--w", "64", "--n", "8", "--L", "2", "--reps", "1"],
    ["pca-demo", "--synthetic", "--subjects", "3", "--per-subject", "3",
     "--train", "2", "--size", "16", "--dims", "4", "--L", "4"],
    ["match-demo", "--synthetic", "--entries", "3", "--entry-len", "32",
     "--queries", "5", "--query-len", "128"],
])
def test_bench_records_environment(command, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    out = tmp_path / "bench.csv"
    assert main(command + ["--out", str(out)]) == 0
    env = [ln for ln in out.read_text().splitlines() if ln.startswith("# env ")]
    assert len(env) == 1
    fields = dict(item.split("=", 1) for item in env[0][len("# env "):].split())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert fields == {
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "unset",
        "MKL_NUM_THREADS": "3",
        "cpu_count": str(os.cpu_count()),
    }


def test_bench_conv_validates_geometry():
    assert main(["bench-conv", "--w", "8", "--n", "16", "--L", "2",
                 "--reps", "1"]) == 2


@pytest.mark.parametrize("command", [
    ["bench-conv", "--proj", "3", "--L", "2", "--reps", "1"],
    ["cost-model", "--l", "-1"],
    ["match-demo", "--synthetic", "--entry-len", "0"],
    ["pca-demo", "--synthetic", "--size", "0"],
])
def test_out_of_range_flags_are_configuration_errors(command, capsys):
    # refused before any data is built, so they exit 2, not 3 ("bad input data")
    assert main(command) == 2
    assert capsys.readouterr().err.startswith("error: --")


@pytest.mark.parametrize("command,message", [
    (["pca-demo", "--synthetic", "--size", "16", "--dims", "20"],
     "--dims 20 exceeds the image size 16"),
    (["pca-demo", "--images", "missing/*.pgm", "--crop", "0"],
     "--crop must be positive, got 0"),
    (["match-demo", "--synthetic", "--noise-snr-db", "nan"],
     "--noise-snr-db must be finite, got nan"),
    (["cost-model", "--l-list", "1"], "--l-list values must be at least 2, got 1"),
    (["cost-model", "--n-list", "0"], "--n-list values must be positive, got 0"),
    (["pca-demo", "--synthetic", "--noise", "nan"], "--noise must be finite, got nan"),
])
def test_configuration_mistakes_exit_2_with_their_message(command, message, capsys):
    # configuration mistakes exit 2; bad input data exits 3
    assert main(command) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bench_conv_takes_any_kernel_length(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["bench-conv", "--n", "601", "--L", "2", "--reps", "1",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    rows = _rows(text, METRIC_HEADER)
    assert [r[1] for r in rows[:2]] == ["W20000.N601.L2.p1.half",
                                        "W20000.N601.L2.p1.all"]
    # the default 20000-sample signal against 601 taps runs as FFTs
    assert "# timing conv-projected W20000.N601.L2.p1.half: domain=freq " in text
    assert "# timing conv-projected W20000.N601.L2.p1.all: domain=freq " in text


def test_bench_gemm_rejects_bad_family_size():
    assert main(["bench-gemm", "--family", "haar", "--L", "6",
                 "--reps", "1"]) == 2


def test_pca_demo_synthetic(tmp_path, capsys):
    out = tmp_path / "pca.csv"
    rc = main(["pca-demo", "--synthetic", "--subjects", "3",
               "--per-subject", "3", "--train", "2", "--size", "16",
               "--dims", "4", "--L", "4", "--out", str(out)])
    assert rc == 0
    assert "pca-demo:" in capsys.readouterr().err
    rows = _rows(out.read_text(), DEMO_HEADER)
    assert rows[0][0] == "conventional"
    assert float(rows[0][4]) == 1.0      # baseline agrees with itself
    assert rows[1][0] == "projected-L4-p1"
    for row in rows:
        assert 0.0 <= float(row[3]) <= 1.0
        assert int(row[6]) > 0


def test_pca_demo_needs_an_input_source():
    assert main(["pca-demo"]) == 2


def test_pca_demo_validates_split():
    assert main(["pca-demo", "--synthetic", "--per-subject", "2",
                 "--train", "2"]) == 2


def test_match_demo_synthetic(tmp_path, capsys):
    out = tmp_path / "match.csv"
    rc = main(["match-demo", "--synthetic", "--entries", "3",
               "--entry-len", "32", "--queries", "5", "--query-len", "128",
               "--out", str(out)])
    assert rc == 0
    assert "match-demo:" in capsys.readouterr().err
    rows = _rows(out.read_text(), DEMO_HEADER)
    assert rows[0][0] == "conventional"
    assert rows[1][0] == "projected-L2-p1-half"
    assert float(rows[0][4]) == 1.0
    assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)


def test_match_demo_names_the_peaks_path_of_each_projected_row(tmp_path):
    # 64 entries of 256 samples against queries of 2048: the L = 2 bank's
    # product (10 million multiply-adds) meets the size rule, so its rows
    # are screened and a few of its 144 multiplied; the L = 4 bank's (2.7
    # million) runs in float64 for all 72 rows. Each projected row's banks
    # are built, and timed, before its pass
    out = tmp_path / "match.csv"
    rc = main(["match-demo", "--synthetic", "--entries", "64", "--queries", "2",
               "--L", "2,4", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert [ln for ln in text.splitlines() if ln.startswith("# peaks ")] == [
        "# peaks projected-L2-p1-half: length=256 path=row-screen rows-mean=20.50 "
        "rows-max=22",
        "# peaks projected-L4-p1-half: length=256 path=float64-product rows-mean=72.00 "
        "rows-max=72"]
    banks = [ln.split(": ") for ln in text.splitlines() if ln.startswith("# banks ")]
    assert [label for label, _ in banks] == ["# banks projected-L2-p1-half",
                                             "# banks projected-L4-p1-half"]
    assert all(float(seconds.removeprefix("seconds=")) >= 0 for _, seconds in banks)
    assert [row[0] for row in _rows(text, DEMO_HEADER)] == [
        "conventional", "projected-L2-p1-half", "projected-L4-p1-half"]


def test_match_demo_rejects_short_queries():
    assert main(["match-demo", "--synthetic", "--entries", "2",
                 "--entry-len", "64", "--queries", "2",
                 "--query-len", "32"]) == 2


def test_match_demo_missing_manifest_is_data_error(tmp_path):
    assert main(["match-demo", "--manifest",
                 str(tmp_path / "absent.tsv")]) == 3


def test_match_demo_needs_an_input_source():
    assert main(["match-demo"]) == 2


@pytest.mark.parametrize("command", [
    ["match-demo", "--synthetic"],
    ["pca-demo", "--synthetic"],
    ["cost-model"],
])
def test_untimed_repetitions_are_refused(command):
    # the demos time one run per row and cost-model times nothing, so a
    # --reps they would ignore is an argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(command + ["--reps", "3"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "cost.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "pkscale", "cost-model", "--n-list", "16",
         "--l-list", "2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert COST_HEADER in out.read_text()


def test_single_precision_flag_still_reports(tmp_path):
    out = tmp_path / "gemm32.csv"
    rc = main(["bench-gemm", "--n", "8", "--inner", "8", "--L", "2",
               "--reps", "1", "--precision", "single", "--out", str(out)])
    assert rc == 0
    rows = _rows(out.read_text(), METRIC_HEADER)
    # float32 storage keeps the full-projection row near, not at, the cap
    assert all(np.isfinite(float(r[2])) for r in rows)
