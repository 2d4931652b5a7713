import json
import struct
from pathlib import Path

import numpy as np
import pytest

from dpsketch.cli import main
from dpsketch.errors import ParameterError
from dpsketch.mechanisms import PrivacyParams, RowBound, bucket_sensitivity, gaussian_sigma
from dpsketch.sketchfile import METHODS, read_sketch
from dpsketch.suites import SUITES

# The hashed releases (every method but jl) and the flags of the unweighted ones.
HASHED = [method for method in METHODS if method != "jl"]
UNWEIGHTED_FLAGS = [spec.flag for spec in METHODS.values() if not spec.weighted]


@pytest.fixture
def csv_path(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 3)) * 0.3
    y = x @ np.array([1.0, -1.0, 0.5]) + 0.05 * rng.standard_normal(60)
    rows = np.column_stack([x, y])
    rows /= max(1.0, np.linalg.norm(rows, axis=1).max())
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(f"{v:.9f}" for v in row) for row in rows) + "\n")
    return str(path)


def run_sketch(csv_path, out, method="jl", extra=()):
    return main([
        "sketch", "--method", method, "--epsilon", "1.0", "--delta", "0.05",
        "--bound", "1.0", "--rows", "16", "--seed", "7",
        "--in", csv_path, "--out", out, *extra,
    ])


PINNED_STDOUT = {
    "jl": "branch: spectral-augment  (w^2 = 183.154, c = 7.0403)\nwrote 16 x 4 jl sketch to {out}\n",
    "cs2": (
        "noise sigma: 5.07454  noise rows: 109 (+0 patched)\n"
        "l2 regularization bound at ||beta_aug|| = 1: 155.345\n"
        "wrote 16 x 4 countsketch-l2 sketch to {out}\n"
    ),
    "l1-illus": (
        "noise sigma: 5.07454  noise rows: 109 (+0 patched)\n"
        "l1 regularization bound at ||beta_aug|| = 1: 225.114\n"
        "wrote 16 x 4 l1-illustration sketch to {out}\n"
    ),
    "l1": (
        "levels h_m = 6, data rows per level {{0:60, 1:25, 2:17, 3:5, 4:4, 5:3, 6:0}}\n"
        "noise sigma: 14.353  noise rows: 450 (+2 patched)\n"
        "wrote 56 x 4 l1-multilevel sketch to {out}\n"
    ),
}


class TestSketchCommand:
    @pytest.mark.parametrize("method,released", [(spec.flag, name) for name, spec in METHODS.items()])
    def test_release_files(self, tmp_path, csv_path, method, released, capsys):
        spec = METHODS[released]
        out = str(tmp_path / f"{method}.dps")
        assert run_sketch(csv_path, out, method=method) == 0
        sf = read_sketch(out)
        assert sf.method == released
        assert sf.d == 3
        if spec.weighted:
            # the multi-level split fits the levels into the 16-row budget
            assert sf.r <= 16 and sf.weights is not None and len(sf.weights) == sf.r
        else:
            assert sf.r == 16 and sf.weights is None
        assert "wrote" in capsys.readouterr().out
        if method != "jl":
            assert {"sigma", "noise_rows", "patched"} <= set(sf.meta)
        assert main(["solve", "--norm", spec.norm, "--in", out]) == 0

    @pytest.mark.parametrize("flag,value", [("--epsilon", "inf"), ("--bound", "inf"), ("--epsilon", "nan")])
    def test_non_finite_parameters_exit_before_ingest(self, tmp_path, csv_path, capsys, monkeypatch, flag, value):
        import dpsketch.cli as cli

        def no_ingest(*args, **kwargs):
            raise AssertionError("ingest ran")

        monkeypatch.setattr(cli, "ingest", no_ingest)
        args = [
            "sketch", "--method", "cs2", "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", "16", "--seed", "7",
            "--in", csv_path, "--out", str(tmp_path / "x.dps"),
        ]
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x.dps").exists()

    def test_negative_seed_exits_before_ingest(self, tmp_path, csv_path, capsys, monkeypatch):
        import dpsketch.cli as cli

        def no_ingest(*args, **kwargs):
            raise AssertionError("ingest ran")

        monkeypatch.setattr(cli, "ingest", no_ingest)
        out = tmp_path / "x.dps"
        args = [
            "sketch", "--method", "cs2", "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", "16", "--seed", "-1",
            "--in", csv_path, "--out", str(out),
        ]
        assert main(args) == 2
        assert "--seed must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"0.1,0.2\n0.3,0.1\n0.2,0.2\n0.1,0.1\n\xe9,0.1\n")
        out = tmp_path / "x.dps"
        assert run_sketch(str(path), str(out), method="cs2") == 2
        assert "latin1.csv: not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_branching_exits_before_release(self, tmp_path, csv_path, capsys, monkeypatch):
        import dpsketch.cli as cli

        def no_release(*args, **kwargs):
            raise AssertionError("release computed")

        monkeypatch.setattr(cli, "private_l1_sketch", no_release)
        out = tmp_path / "x.dps"
        assert run_sketch(csv_path, str(out), method="l1", extra=("--b", "inf")) == 2
        assert "branching parameter b must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", [spec.flag for spec in METHODS.values()])
    def test_overflowing_calibration_exits_2_silently(self, tmp_path, csv_path, capsys, method):
        # sigma and w^2 scale as 1/epsilon: at 1e-320 both overflow to inf (a repeated
        # flag overrides run_sketch's default)
        out = tmp_path / "tiny-eps.dps"
        assert run_sketch(csv_path, str(out), method=method, extra=("--epsilon", "1e-320")) == 2
        captured = capsys.readouterr()
        name = "threshold w^2" if method == "jl" else "noise sigma"
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} overflows a float")
        assert not out.exists()

    def test_jl_bound_squared_overflow_exits_2(self, tmp_path, csv_path, capsys):
        # w^2 takes B**2, which raises OverflowError in Python at B = 1e200
        out = tmp_path / "huge-b.dps"
        assert run_sketch(csv_path, str(out), extra=("--bound", "1e200")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: threshold w^2 overflows a float")
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-170, 1e-160])
    def test_jl_tiny_scale_exits_2(self, tmp_path, capsys, scale):
        # rows far inside B and of full rank, but sigma_min(A)^2 underflows: to 0
        # at 1e-170, to a subnormal that makes c = inf at 1e-160
        rows = np.random.default_rng(3).standard_normal((60, 4)) * scale
        path = tmp_path / "tiny.csv"
        np.savetxt(path, rows, delimiter=",")
        out = tmp_path / "tiny.dps"
        assert run_sketch(str(path), str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sigma_min(A)^2 underflows")
        assert not out.exists()

    @pytest.mark.parametrize("method", UNWEIGHTED_FLAGS)
    def test_fewer_rows_than_coefficients_exits_2(self, tmp_path, csv_path, capsys, method):
        out = tmp_path / "one-row.dps"
        assert run_sketch(csv_path, str(out), method=method, extra=("--rows", "1")) == 2
        assert "error: 1 sketch row(s) cannot determine 3 coefficients" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_bad_delimiter(self, tmp_path, csv_path, capsys, delimiter):
        out = tmp_path / "x.dps"
        assert run_sketch(csv_path, str(out), method="cs2", extra=("--delimiter", delimiter)) == 2
        assert capsys.readouterr().err.startswith("error: delimiter must be one character")
        assert not out.exists()

    @pytest.mark.parametrize("delimiter", ['"', "\r", "\n"])
    def test_unusable_delimiter_exits_2(self, tmp_path, csv_path, capsys, delimiter):
        out = tmp_path / "x.dps"
        assert run_sketch(csv_path, str(out), method="cs2", extra=("--delimiter", delimiter)) == 2
        assert capsys.readouterr().err == (
            f"error: delimiter cannot be the quote character or a line break, got {delimiter!r}\n"
        )
        assert not out.exists()

    def test_l1_multilevel_release(self, tmp_path, csv_path, capsys):
        out = str(tmp_path / "ml.dps")
        code = main([
            "sketch", "--method", "l1", "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", "60", "--b", "2.0", "--seed", "3",
            "--in", csv_path, "--out", out,
        ])
        assert code == 0
        sf = read_sketch(out)
        assert sf.method == "l1-multilevel"
        assert sf.weights is not None and len(sf.weights) == sf.r
        assert sf.meta["h_m"] == 6  # ceil(log2 60)
        stdout = capsys.readouterr().out
        assert "levels h_m = 6" in stdout

    def test_l1_calibrated_at_footprint(self, tmp_path, csv_path, capsys):
        # b = 1000 puts the 60 rows on h_m = 1 sampled level, so a changed row
        # moves s + h_m = 17 buckets: sigma is sized to 2B sqrt(17), not 2B h_m
        out = str(tmp_path / "fp.dps")
        assert run_sketch(csv_path, out, method="l1", extra=("--rows", "1600", "--s", "16", "--b", "1000")) == 0
        meta = read_sketch(out).meta
        assert (meta["h_m"], meta["footprint"]) == (1, 17)
        assert f"{meta['sigma']:.6g}" == "20.9229"
        assert "noise sigma: 20.9229  noise rows: " in capsys.readouterr().out

    @pytest.mark.parametrize("method", HASHED)
    def test_header_alone_recomputes_sigma(self, tmp_path, csv_path, method):
        # B, epsilon, delta and the footprint (1 when absent) in the header fix
        # the sigma the release drew; s = 2 and b = 3 keep s + h_m off 1 + h_m
        out = str(tmp_path / "calibrated.dps")
        code = main([
            "sketch", "--method", METHODS[method].flag, "--epsilon", "0.7", "--delta", "0.001",
            "--bound", "2.5", "--rows", "60", "--s", "2", "--b", "3", "--seed", "5",
            "--in", csv_path, "--out", out,
        ])
        assert code == 0
        release = read_sketch(out)
        footprint = release.meta.get("footprint", 1)
        assert footprint == (2 + 4 if METHODS[method].weighted else 1)  # h_m = ceil(log3 60) = 4
        pp = PrivacyParams(release.epsilon, release.delta)
        assert gaussian_sigma(bucket_sensitivity(RowBound(release.B), footprint), pp) == release.meta["sigma"]

    def test_l1_uniform_bucket_override(self, tmp_path, csv_path):
        out = str(tmp_path / "nu.dps")
        code = main([
            "sketch", "--method", "l1", "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", "70", "--nu", "10", "--seed", "3",
            "--in", csv_path, "--out", out,
        ])
        assert code == 0
        sf = read_sketch(out)
        # n = 60 rows -> h_m = 6; N = (70 - 10) // 6 = 10, so r = 10*6 + 10
        assert sf.r == 70
        assert sf.meta["N"] == 10 and sf.meta["N_u"] == 10

    def test_hm_metadata_power_of_two(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((1024, 3)) * 0.2
        rows /= max(1.0, np.linalg.norm(rows, axis=1).max())
        path = tmp_path / "big.csv"
        path.write_text("\n".join(",".join(f"{v:.9f}" for v in row) for row in rows) + "\n")
        out = str(tmp_path / "big.dps")
        code = main([
            "sketch", "--method", "l1", "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", "120", "--b", "2.0", "--seed", "3",
            "--in", str(path), "--out", out,
        ])
        assert code == 0
        assert read_sketch(out).meta["h_m"] == 10

    def test_well_conditioned_data_releases_no_augment(self, tmp_path, capsys):
        # rows on the unit sphere give sigma_min^2 near n/d, far above w^2
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((2000, 5))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        path = tmp_path / "cond.csv"
        path.write_text("\n".join(",".join(f"{v:.12f}" for v in row) for row in rows) + "\n")
        out = str(tmp_path / "cond.dps")
        code = main([
            "sketch", "--method", "jl", "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", "8", "--seed", "2",
            "--in", str(path), "--out", out,
        ])
        assert code == 0
        assert read_sketch(out).meta["branch"] == "no-augment"
        assert capsys.readouterr().out == (
            f"branch: no-augment  (w^2 = 153.293, c = 0)\nwrote 8 x 5 jl sketch to {out}\n"
        )

    @pytest.mark.parametrize("flag", sorted(PINNED_STDOUT))
    def test_pinned_stdout(self, tmp_path, capsys, flag):
        # the 60-row data and arguments of test_release_digests.cli_digest
        a = np.random.default_rng(1060).standard_normal((60, 4))
        a /= max(1.0, np.linalg.norm(a, axis=1).max())
        path = tmp_path / "data.csv"
        path.write_text("\n".join(",".join(f"{v:.9f}" for v in row) for row in a) + "\n")
        out = str(tmp_path / f"{flag}.dps")
        extra = ["--rows", "60", "--s", "2"] if flag == "l1" else ["--rows", "16"]
        code = main([
            "sketch", "--method", flag, "--epsilon", "1.0", "--delta", "0.05", "--bound", "1.0",
            "--seed", "7", "--in", str(path), "--out", out, *extra,
        ])
        assert code == 0
        assert capsys.readouterr().out == PINNED_STDOUT[flag].format(out=out)

    @pytest.mark.parametrize("method", HASHED)
    def test_bound_line_only_for_unweighted_releases(self, tmp_path, csv_path, capsys, method):
        # the bounds assume unit row weights; the multi-level release's noise,
        # weighted by b^h, exceeded the l1 bound in every zero-data draw
        out = str(tmp_path / "bound.dps")
        assert run_sketch(csv_path, out, method=METHODS[method].flag, extra=("--rows", "60")) == 0
        printed = "regularization bound at ||beta_aug|| = 1: " in capsys.readouterr().out
        assert printed == (not METHODS[method].weighted)

    def test_zero_sparsity_refused(self, tmp_path, csv_path, capsys):
        out = tmp_path / "s0.dps"
        code = main([
            "sketch", "--method", "l1", "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", "60", "--s", "0", "--seed", "3",
            "--in", csv_path, "--out", str(out),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path, csv_path):
        out1, out2 = str(tmp_path / "a.dps"), str(tmp_path / "b.dps")
        assert run_sketch(csv_path, out1) == 0
        assert run_sketch(csv_path, out2) == 0
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_missing_input(self, tmp_path, capsys):
        code = run_sketch(str(tmp_path / "absent.csv"), str(tmp_path / "o.dps"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_reject_mode_propagates(self, tmp_path, capsys):
        path = tmp_path / "fat.csv"
        path.write_text("9,9\n0.1,0.1\n0.1,0.2\n0.2,0.1\n")
        code = main([
            "sketch", "--method", "jl", "--epsilon", "1", "--delta", "0.05",
            "--bound", "1.0", "--rows", "4", "--seed", "1",
            "--in", str(path), "--out", str(tmp_path / "x.dps"), "--clip", "reject",
        ])
        assert code == 2

    def test_reject_mode_names_row(self, tmp_path, capsys):
        path = tmp_path / "fat.csv"
        path.write_text("9,9\n0.1,0.1\n0.1,0.2\n0.2,0.1\n")
        out = tmp_path / "x.dps"
        assert run_sketch(str(path), str(out), extra=("--clip", "reject")) == 2
        assert capsys.readouterr().err == f"error: {path}: row 1 has norm 12.7279 > bound 1\n"
        assert not out.exists()

    def test_ambiguous_response_name_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a\n0.1,0.2,0.3\n0.2,0.1,0.1\n0.1,0.1,0.2\n0.3,0.1,0.1\n")
        out = tmp_path / "x.dps"
        assert run_sketch(str(path), str(out), extra=("--header", "--response", "a")) == 2
        assert "column 'a' appears 2 times in header" in capsys.readouterr().err
        assert not out.exists()

    FIVE_ROWS = "0.1,0.2,0.3\n0.2,0.1,0.1\n0.1,0.1,0.2\n0.3,0.1,0.1\n0.2,0.2,0.1\n"

    @pytest.mark.parametrize(
        "text,method,extra,message",
        [
            pytest.param("", "cs2", ("--header",), "{path}: empty file", id="empty-header"),
            pytest.param("", "cs2", (), "{path}: no data rows", id="empty"),
            pytest.param("a,b,c\n", "cs2", ("--header",), "{path}: no data rows", id="header-only"),
            pytest.param(FIVE_ROWS, "cs2", ("--response", "9"),
                         "{path}: response column index 9 out of range", id="response-9"),
            pytest.param(FIVE_ROWS, "cs2", ("--response", "-4"),
                         "{path}: response column index -4 out of range", id="response--4"),
            pytest.param(FIVE_ROWS, "l1", ("--rows", "3"),
                         "row budget 3 too small for h_m = 3 levels with s = 1", id="l1-budget"),
        ],
    )
    def test_refused_input_exits_2(self, tmp_path, capsys, text, method, extra, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        out = tmp_path / "x.dps"
        assert run_sketch(str(path), str(out), method=method, extra=extra) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message.format(path=path)}\n")
        assert not out.exists()

    def test_cli_parameter_refusals_are_parameter_errors(self):
        import dpsketch.cli as cli

        with pytest.raises(ParameterError, match="--seed must be at least 0, got -1"):
            cli._check_seed(-1)
        with pytest.raises(ParameterError, match="--s must be at least 1, got 0"):
            cli._split_l1_budget(60, 3, 0, None)
        with pytest.raises(ParameterError, match="row budget 3 too small"):
            cli._split_l1_budget(3, 3, 1, None)

    @pytest.mark.parametrize(
        "method,rows", [("cs2", 2**48), ("l1", 2**48), ("l1-illus", 2**48), ("jl", 2**55)],
    )
    def test_unallocatable_row_budget_exits_2(self, tmp_path, csv_path, capsys, method, rows):
        # the first array the release draws (298 PiB of noise rows, or a 1 EiB
        # Gaussian for jl) exceeds any 64-bit address space, so numpy refuses
        # it at once without touching memory
        out = tmp_path / "huge.dps"
        assert run_sketch(csv_path, str(out), method=method, extra=("--rows", str(rows))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate")
        assert not out.exists()

    @pytest.mark.parametrize("method", [spec.flag for spec in METHODS.values()])
    def test_unaddressable_row_budget_exits_2(self, tmp_path, csv_path, capsys, method):
        # numpy refuses a shape whose byte size exceeds intp before it tries to
        # allocate (a ValueError, not a MemoryError); the release refuses it first
        out = tmp_path / "huge.dps"
        assert run_sketch(csv_path, str(out), method=method, extra=("--rows", str(10**18))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "exceeds the largest array" in captured.err
        assert not out.exists()


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    import dpsketch.cli as cli

    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    for seed in ("1", "2"):
        assert main(["verify", "--suite", "lemma1", "--trials", "100", "--seed", seed]) == 0
    assert capsys.readouterr().out.count("checks passed") == 2


class TestSolveCommand:
    def test_solve_l2(self, tmp_path, csv_path, capsys):
        out = str(tmp_path / "jl.dps")
        run_sketch(csv_path, out, method="jl")
        json_out = str(tmp_path / "sol.json")
        assert main(["solve", "--norm", "l2", "--in", out, "--json", json_out]) == 0
        payload = json.loads(Path(json_out).read_text())
        assert len(payload["beta"]) == 3
        assert payload["beta_aug"][-1] == -1.0
        assert "beta:" in capsys.readouterr().out

    def test_solve_l1_uses_weights(self, tmp_path, csv_path, capsys):
        out = str(tmp_path / "ml.dps")
        main([
            "sketch", "--method", "l1", "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", "60", "--seed", "3",
            "--in", csv_path, "--out", out,
        ])
        json_out = str(tmp_path / "sol.json")
        assert main(["solve", "--norm", "l1", "--in", out, "--json", json_out]) == 0
        payload = json.loads(Path(json_out).read_text())
        assert payload["solver"] == "vertex-descent"
        assert payload["converged"]
        assert "l1: certified optimal after" in capsys.readouterr().out

    def test_solve_l1_reports_uncertified(self, tmp_path, csv_path, capsys, monkeypatch):
        from dpsketch import solvers

        out = str(tmp_path / "ml.dps")
        main([
            "sketch", "--method", "l1", "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", "60", "--seed", "3",
            "--in", csv_path, "--out", out,
        ])
        monkeypatch.setattr(solvers, "_PIVOTS_PER_COLUMN", 0)
        json_out = str(tmp_path / "sol.json")
        assert main(["solve", "--norm", "l1", "--in", out, "--json", json_out]) == 0
        payload = json.loads(Path(json_out).read_text())
        assert not payload["converged"] and payload["iterations"] == 0
        assert "l1: NOT certified after 0 pivot(s)" in capsys.readouterr().out

    def test_planted_model_recovery(self, tmp_path):
        # a large-r JL release preserves the least-squares solution; solving
        # the file recovers beta close to the exact solution on the original
        from dpsketch import exact_l2_solution, synthetic_regression

        data = synthetic_regression(2000, 3, seed=50, noise=0.05, beta_scale=1.0)
        star = exact_l2_solution(data)
        path = tmp_path / "planted.csv"
        path.write_text(
            "\n".join(",".join(f"{v:.15g}" for v in row) for row in data.A) + "\n"
        )
        out = str(tmp_path / "planted.dps")
        json_out = str(tmp_path / "planted.json")
        assert main([
            "sketch", "--method", "jl", "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", "256", "--seed", "123",
            "--in", str(path), "--out", out,
        ]) == 0
        assert main(["solve", "--norm", "l2", "--in", out, "--json", json_out]) == 0
        beta = np.array(json.loads(Path(json_out).read_text())["beta"])
        assert np.abs(beta - star.beta).max() <= 0.05

    def test_incompatible_norm(self, tmp_path, csv_path, capsys):
        out = str(tmp_path / "jl.dps")
        run_sketch(csv_path, out, method="jl")
        assert main(["solve", "--norm", "l1", "--in", out]) == 2
        assert "must be solved with --norm l2" in capsys.readouterr().err

    @pytest.mark.parametrize("method,rows", [("jl", "16"), ("l1", "60")])
    def test_norm_defaults_to_method(self, tmp_path, csv_path, capsys, method, rows):
        out = str(tmp_path / f"{method}.dps")
        assert main([
            "sketch", "--method", method, "--epsilon", "1.0", "--delta", "0.05",
            "--bound", "1.0", "--rows", rows, "--seed", "3",
            "--in", csv_path, "--out", out,
        ]) == 0
        norm = METHODS[read_sketch(out).method].norm
        default_json, explicit_json = tmp_path / "default.json", tmp_path / "explicit.json"
        assert main(["solve", "--in", out, "--json", str(default_json)]) == 0
        assert main(["solve", "--norm", norm, "--in", out, "--json", str(explicit_json)]) == 0
        assert json.loads(default_json.read_text()) == json.loads(explicit_json.read_text())

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", "--norm", "l2", "--in", str(tmp_path / "no.dps")]) == 2


# `verify --seed 0` stdout of every suite at its default trial count; a change
# to a suite's cases, seeds, draws or output format shows here.
PINNED_VERIFY = {
    "lemma1": (
        "[PASS] lemma1[r=10,sigma=1]: 1435/10000 exceedances (rate 0.1435, threshold 0.25, bound 10)\n"
        "[PASS] lemma1[r=50,sigma=1]: 113/10000 exceedances (rate 0.0113, threshold 0.25, bound 50)\n"
        "[PASS] lemma1[r=50,sigma=3]: 110/10000 exceedances (rate 0.0110, threshold 0.25, bound 150)\n"
        "suite lemma1: 3/3 checks passed\n"
    ),
    "thm1": (
        "[PASS] thm1[r=16,p=stated:45]: 0/10000 exceedances (rate 0.0000, threshold 0.25, bound 155.345)\n"
        "[PASS] thm1[r=16,p=implemented:109]: 0/10000 exceedances (rate 0.0000, threshold 0.25, bound 155.345)\n"
        "[PASS] thm1[r=64,p=stated:267]: 0/10000 exceedances (rate 0.0000, threshold 0.25, bound 380.517)\n"
        "[PASS] thm1[r=64,p=implemented:523]: 0/10000 exceedances (rate 0.0000, threshold 0.25, bound 380.517)\n"
        "suite thm1: 4/4 checks passed\n"
    ),
    "lemma2": (
        "[PASS] lemma2[r=16,p=45]: 0/10000 exceedances (rate 0.0000, threshold 0.25, bound 432.343)\n"
        "[PASS] lemma2[r=64,p=267]: 0/10000 exceedances (rate 0.0000, threshold 0.25, bound 2594.06)\n"
        "suite lemma2: 2/2 checks passed\n"
    ),
    "jl-distortion": (
        "[PASS] jl-distortion[r=1000,dim=200]: 0/4000 exceedances (rate 0.0000, threshold 0.05, bound 0.35)\n"
        "suite jl-distortion: 1/1 checks passed\n"
    ),
    "cs-embedding": (
        "[PASS] cs-embedding[n=5000,r=2500]: 0/10000 exceedances (rate 0.0000, threshold 0.1, bound 0.5)\n"
        "suite cs-embedding: 1/1 checks passed\n"
    ),
    "approx-ratio": (
        "[PASS] approx-ratio[l2,r=403]: 0/100 exceedances (rate 0.0000, threshold 0.5, bound 1.5)\n"
        "suite approx-ratio: 1/1 checks passed\n"
    ),
}


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", sorted(PINNED_VERIFY))
    def test_pinned_stdout(self, capsys, suite):
        assert main(["verify", "--suite", suite, "--seed", "0"]) == 0
        assert capsys.readouterr().out == PINNED_VERIFY[suite]

    def test_suite_names(self):
        assert sorted(SUITES) == sorted(PINNED_VERIFY)

    def test_lemma1_passes(self, capsys):
        assert main(["verify", "--suite", "lemma1", "--trials", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    def test_thm1_passes(self, capsys):
        assert main(["verify", "--suite", "thm1", "--trials", "1000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4  # r in {16, 64} x {stated, implemented} noise rows

    def test_trials_floor(self, capsys):
        assert main(["verify", "--suite", "lemma1", "--trials", "10"]) == 2
        assert "at least 100" in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        assert main(["verify", "--suite", "lemma1", "--trials", "100", "--seed", "-1"]) == 2
        assert "--seed must be at least 0" in capsys.readouterr().err

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "fermat", "--trials", "500"])
        assert exc.value.code == 2

    def test_thm2_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "thm2"])
        assert exc.value.code == 2


class TestPrivacyHygiene:
    def test_release_bytes_free_of_seed_and_rows(self, tmp_path):
        # plant a recognizable seed and an exactly-representable data row;
        # neither may appear in the release bytes in any common encoding
        sentinel_seed = 987654321987
        # small enough that clip=scale leaves the row untouched
        planted = [0.123456789, -0.098765432, 0.055555555, 0.042424242]
        rng = np.random.default_rng(1)
        rows = [planted] + (rng.standard_normal((40, 4)) * 0.2).tolist()
        path = tmp_path / "plant.csv"
        path.write_text("\n".join(",".join(f"{v:.9f}" for v in row) for row in rows) + "\n")

        for method, spec in METHODS.items():
            budget = 40 if spec.weighted else 8  # the multi-level levels need more rows
            out = tmp_path / f"{method}.dps"
            code = main([
                "sketch", "--method", spec.flag, "--epsilon", "1.0", "--delta", "0.05",
                "--bound", "1.0", "--rows", str(budget), "--seed", str(sentinel_seed),
                "--in", str(path), "--out", str(out),
            ])
            assert code == 0
            blob = out.read_bytes()
            assert struct.pack("<q", sentinel_seed) not in blob
            assert struct.pack("<Q", sentinel_seed) not in blob
            assert str(sentinel_seed).encode() not in blob
            for value in planted:
                assert struct.pack("<d", value) not in blob
