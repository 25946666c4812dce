import cmath
import csv
import json
import math
import time
import warnings

import numpy as np
import pytest

import melroot as m
from melroot.cli import main
from tests import reference_values as ref


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def table_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "table.csv"
    assert main(["table1", "--out", str(path)]) == 0
    return path


class TestTable1:
    def test_header_and_shape(self, table_csv):
        rows = _read_csv(table_csv)
        assert rows[0] == [
            "phi_over_2pi",
            "direct_re", "direct_im",
            "stage1_re", "stage1_im",
            "stage2_re", "stage2_im",
            "kernel_re", "kernel_im",
        ]
        assert len(rows) == 10

    def test_published_column2_values_appear_in_stage1(self, table_csv):
        rows = _read_csv(table_csv)
        got = complex(float(rows[3][3]), float(rows[3][4]))  # row 2/8, stage1
        assert abs(got - (-0.0021327 + 0.0121535j)) < 1e-6

    def test_published_column5_values_appear_in_kernel(self, table_csv):
        rows = _read_csv(table_csv)
        got = complex(float(rows[7][7]), float(rows[7][8]))  # row 6/8, kernel
        assert abs(got - (0.0186236 - 0.0229791j)) < 1e-6

    def test_first_and_last_rows_identical(self, table_csv):
        rows = _read_csv(table_csv)
        assert rows[1][1:] == rows[9][1:]

    def test_seven_decimal_precision_round_trip(self, table_csv):
        rows = _read_csv(table_csv)
        for row in rows[1:]:
            for cell in row:
                assert float(cell) == round(float(cell), 7)

    def test_deterministic_output(self, table_csv, tmp_path):
        again = tmp_path / "again.csv"
        assert main(["table1", "--out", str(again)]) == 0
        assert again.read_bytes() == table_csv.read_bytes()

    def test_json_format(self, tmp_path):
        path = tmp_path / "table.json"
        assert main(["table1", "--format", "json", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert len(payload) == 9
        row = payload[5]  # phi/(2*pi) = 5/8
        got = complex(row["kernel"]["re"], row["kernel"]["im"])
        assert abs(got - ref.COLUMN5[5]) < 1e-6

    def test_kernel_matches_stage2_at_order_3(self, capsys):
        assert main(["table1", "--order-n", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 9
        for row in payload:
            assert row["kernel"] == row["stage2"]


class TestCount:
    def test_direct_pole(self, tmp_path, capsys):
        path = tmp_path / "count.json"
        rc = main([
            "count", "--method", "direct",
            "--center-re", "1.0", "--center-im", "0.0",
            "--radius", "0.1", "--nodes", "128",
            "--format", "json", "--out", str(path),
        ])
        assert rc == 0
        report = json.loads(path.read_text())
        assert report["rounded"] == -1
        assert report["residual"] < 1e-6
        assert report["reliable"] is True

    def test_direct_json_reports_the_contour_gap(self, capsys):
        assert main(["count", "--method", "direct", "--nodes", "64", "--format", "json"]) == 0
        assert 0.0 <= json.loads(capsys.readouterr().out)["contour_gap"] < 1e-15
        # an odd node count has no half-node sum: its gap is inf, which the
        # JSON prints as null, and its count is unreliable
        assert main(["count", "--method", "direct", "--nodes", "63", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["contour_gap"], report["reliable"]) == (None, False)
        # the pipeline's gap is that of its kernel values on the same nodes
        assert main(["count", "--method", "pipeline", "--nodes", "8", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        c, step = m.CircularContour(0.57 + 1.57j, 0.1, nodes=8), 2.0 * math.pi / 8
        kernel = m.kernel_mellin(m.build_zeta_factored(), c, step * np.arange(8), m.PipelineConfig(m.PRESETS["appendixC"]))
        value = complex(report["value"]["re"], report["value"]["im"])
        assert report["contour_gap"] == abs(value - complex(kernel[::2].sum()) * (2.0 * step))
        assert main(["count", "--method", "pipeline", "--nodes", "7", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["contour_gap"], report["reliable"]) == (None, False)

    def test_odd_node_count_about_the_first_zero_exits_1(self, capsys):
        # 7 pipeline nodes read 0.0964 + 0.0151i, rounded 0 with a residual
        # under 0.25; the truth is +1, and with no half-node sum the count is
        # unreliable
        argv = ["count", "--method", "pipeline", "--center-re", "0.5", "--center-im", "14.134725",
                "--radius", "0.05", "--nodes", "7"]
        assert main(argv + ["--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["rounded"], report["contour_gap"], report["reliable"]) == (0, None, False)
        assert report["residual"] < 0.25
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "contour_gap inf"

    def test_direct_wide_contour_gap_exits_1(self, capsys):
        # the residual alone (0.22) would pass; the gap of 1.21 does not
        rc = main(["count", "--method", "direct", "--center-re", "0.8656", "--center-im", "13.9828",
                   "--radius", "0.4009", "--nodes", "64", "--format", "json"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["rounded"], report["reliable"]) == (2, False)
        assert report["residual"] < 0.25 < 1.0 < report["contour_gap"]

    def test_direct_no_roots(self, capsys):
        rc = main(["count", "--method", "direct"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rounded  0" in out

    def test_pipeline(self, tmp_path):
        path = tmp_path / "count.json"
        rc = main([
            "count", "--method", "pipeline", "--nodes", "8",
            "--format", "json", "--out", str(path),
        ])
        assert rc == 0
        report = json.loads(path.read_text())
        assert abs(complex(report["value"]["re"], report["value"]["im"])) < 0.15
        assert report["rounded"] == 0

    def test_pipeline_any_order(self, capsys):
        rc = main(["count", "--method", "pipeline", "--nodes", "8", "--order-n", "2"])
        assert rc == 0
        assert "rounded  0" in capsys.readouterr().out

    def test_unreliable_count_exits_nonzero(self, capsys, recwarn):
        # a node landing almost on the pole leaves a huge residual
        rc = main([
            "count", "--method", "direct",
            "--center-re", "0.9", "--center-im", "0.0",
            "--radius", "0.100001", "--nodes", "8",
        ])
        assert rc == 1

    def test_pipeline_domain_error_exit_code(self, capsys):
        rc = main([
            "count", "--method", "pipeline",
            "--center-re", "-1.0", "--center-im", "0.0",
            "--radius", "0.2", "--nodes", "8",
        ])
        assert rc == 2


_GRID = ["--re-min", "0.5", "--re-max", "1", "--im-min", "0", "--im-max", "1"]
# coefficient files written for test_bad_arguments_exit_2; "{tmp}" in an
# argument is its directory
_COEFF_FILES = {"unparsable.txt": "1.0 abc\n", "invalid.txt": "0.5 1.0\n1.0 inf\n"}
_PIPELINE = ["count", "--method", "pipeline", "--nodes", "8"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["count", "--radius", "-1"], id="radius"),
        pytest.param(["count", "--radius", "inf"], id="radius-inf"),
        pytest.param(["count", "--nodes", "0"], id="nodes"),
        pytest.param(["count", "--method", "pipeline", "--nodes", "8", "--eps", "0.01"], id="eps-unknown"),
        pytest.param(["table1", "--eps", "0.01"], id="table1-eps-unknown"),
        pytest.param(["count", "--method", "pipeline", "--nodes", "8", "--order-n", "-1"], id="order-negative"),
        pytest.param(["sign-map", *_GRID, "--grid-nx", "0"], id="grid-nx"),
        pytest.param(["expsum-error", *_GRID, "--grid-ny", "0"], id="grid-ny"),
        pytest.param(["expsum-error", *_GRID, "--order-n", "1"], id="expsum-error-order"),
        pytest.param(["count", "--method", "direct", "--center-re", "nan"], id="center-re-nan"),
        pytest.param(["count", "--method", "direct", "--center-im", "inf"], id="center-im-inf"),
        pytest.param(["table1", "--center-im=-inf"], id="table1-center-im-inf"),
        pytest.param(["sign-map", "--re-min", "nan", "--re-max", "1", "--im-min", "0", "--im-max", "1"],
                     id="re-min-nan"),
        pytest.param(["expsum-error", "--re-min", "0.5", "--re-max", "inf", "--im-min", "0", "--im-max", "1"],
                     id="re-max-inf"),
        pytest.param(["sign-map", "--re-min", "0.5", "--re-max", "1", "--im-min=-inf", "--im-max", "1"],
                     id="im-min-inf"),
        pytest.param(["expsum-error", "--re-min", "0.5", "--re-max", "1", "--im-min", "0", "--im-max", "nan"],
                     id="im-max-nan"),
        pytest.param(["table1", "--nodes", "3"], id="table1-nodes"),
        pytest.param(["convolution-check", "--s-re", "0.4", "--s-im", "nan"], id="s-im-nan"),
        pytest.param(["convolution-check", "--s-re", "inf"], id="s-re-inf"),
        pytest.param(["convolution-check", "--s-im", "0.3"], id="s-im-without-s-re"),
        pytest.param([*_PIPELINE, "--coeff-file", "{tmp}/unparsable.txt"], id="count-coeff-unparsable"),
        pytest.param([*_PIPELINE, "--coeff-file", "{tmp}/missing.txt"], id="count-coeff-missing"),
        pytest.param([*_PIPELINE, "--coeff-file", "{tmp}/invalid.txt"], id="count-coeff-invalid"),
        pytest.param(["expsum-error", *_GRID, "--coeff-file", "{tmp}/unparsable.txt"], id="expsum-error-coeff-unparsable"),
        pytest.param(["expsum-error", *_GRID, "--coeff-file", "{tmp}/missing.txt"], id="expsum-error-coeff-missing"),
        pytest.param(["expsum-error", *_GRID, "--coeff-file", "{tmp}/invalid.txt"], id="expsum-error-coeff-invalid"),
        pytest.param(["count", "--nodes", "8", "--out", "{tmp}"], id="count-out-directory"),
        pytest.param(["count", "--nodes", "8", "--out", "{tmp}/missing/out.json"], id="count-out-missing-parent"),
        pytest.param(["sign-map", *_GRID, "--grid-nx", "2", "--out", "{tmp}"], id="sign-map-out-directory"),
        pytest.param(["sign-map", *_GRID, "--grid-nx", "2", "--out", "{tmp}/missing/map.csv"],
                     id="sign-map-out-missing-parent"),
    ],
)
def test_bad_arguments_exit_2(argv, capsys, tmp_path):
    # exit code 1 means an unreliable count, so bad input must not use it
    for name, text in _COEFF_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the argument
        rc = exc.code
    assert rc == 2
    if "--coeff-file" in argv:
        assert "bad coefficient file" in capsys.readouterr().err
    if "--out" in argv:
        assert "cannot write output" in capsys.readouterr().err
    if "--eps" in argv:
        assert "unrecognized arguments: --eps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["count", "--method", "pipeline", "--format", "json"], id="count"),
        pytest.param(["table1"], id="table1"),
        pytest.param(["expsum-error", *_GRID], id="expsum-error"),
    ],
)
def test_coeff_file_matches_its_preset(argv, capsys, tmp_path):
    # appendixC's pairs written at full precision; the file overrides
    # --preset table2, so its output is appendixC's byte for byte
    table = m.PRESETS["appendixC"]
    path = tmp_path / "appendixC.txt"
    path.write_text("".join(f"{a!r} {c!r}\n" for a, c in zip(table.alpha, table.c)))
    outputs = []
    for source in (["--preset", "appendixC"], ["--preset", "table2", "--coeff-file", str(path)]):
        assert main([*argv, *source]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0]
    assert outputs[0] == outputs[1]


class TestSignMap:
    def test_signs_and_pole_marker(self, tmp_path):
        path = tmp_path / "map.csv"
        rc = main([
            "sign-map",
            "--re-min", "0", "--re-max", "2",
            "--im-min", "0", "--im-max", "0",
            "--grid-nx", "3", "--grid-ny", "1",
            "--out", str(path),
        ])
        assert rc == 0
        rows = _read_csv(path)
        assert rows[1][1:] == ["-1", "0", "1"]  # zeta(0) < 0, pole, zeta(2) > 0

    def test_json(self, tmp_path):
        path = tmp_path / "map.json"
        rc = main([
            "sign-map",
            "--re-min", "0.57", "--re-max", "0.57",
            "--im-min", "1.57", "--im-max", "1.57",
            "--grid-nx", "1", "--grid-ny", "1",
            "--format", "json", "--out", str(path),
        ])
        assert rc == 0
        payload = json.loads(path.read_text())
        expected = m.csgn(m.build_zeta_factored().f_reference(0.57 + 1.57j))
        assert payload["sign"] == [[expected]]

    def test_pole_and_resonance_cells(self, tmp_path):
        # Re s = 1 crosses the pole at Im s = 0 and passes within 1e-8 of a
        # zero of 1 - 2**(1-s) at Im s = 2 pi / ln 2
        near = 2.0 * math.pi / math.log(2.0) + 1e-8
        path = tmp_path / "map.json"
        with pytest.warns(RuntimeWarning, match="resonance") as record:
            rc = main([
                "sign-map",
                "--re-min", "0", "--re-max", "1",
                "--im-min", "0", "--im-max", repr(near),
                "--grid-nx", "3", "--grid-ny", "2",
                "--format", "json", "--out", str(path),
            ])
        assert rc == 0
        assert len(record) == 1
        payload = json.loads(path.read_text())
        assert payload["im_axis"] == [0.0, near]
        cells = [complex(x, y) for y in payload["im_axis"] for x in payload["re_axis"]]
        signs = [v for row in payload["sign"] for v in row]
        assert signs[2] == 0 and cells[2] == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = [m.csgn(m.build_zeta_factored().f_reference(s)) for s in cells[:2] + cells[3:]]
        assert signs[:2] + signs[3:] == want

    def test_double_below_the_pole_reads_as_the_pole(self, tmp_path):
        # the grid's middle cell is the double below 1, where 1 - 2**(1-s)
        # rounds to 0 too
        path = tmp_path / "map.json"
        rc = main([
            "sign-map",
            "--re-min", "-0.4", "--re-max", "2.4",
            "--im-min", "0", "--im-max", "0",
            "--grid-nx", "3", "--grid-ny", "1",
            "--format", "json", "--out", str(path),
        ])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["re_axis"][1] == math.nextafter(1.0, 0.0)
        assert payload["sign"] == [[-1, 0, 1]]


class TestExpsumError:
    def test_grids(self, tmp_path):
        path = tmp_path / "err.csv"
        rc = main([
            "expsum-error",
            "--re-min", "1", "--re-max", "10",
            "--im-min", "0", "--im-max", "5",
            "--grid-nx", "4", "--grid-ny", "2",
            "--out", str(path),
        ])
        assert rc == 0
        text = path.read_text()
        assert "# real part" in text
        assert "# imag part" in text
        rows = [r for r in csv.reader(text.splitlines()) if r and not r[0].startswith("#")]
        assert len(rows) == 6  # 2 header rows + 2*2 data rows
        # large-|z| corner cell is near zero
        assert abs(float(rows[2][-1])) < 1e-1

    def test_json_small_real_part_cells_large(self, tmp_path):
        path = tmp_path / "err.json"
        rc = main([
            "expsum-error",
            "--re-min", "0.01", "--re-max", "0.01",
            "--im-min", "0", "--im-max", "0",
            "--grid-nx", "1", "--grid-ny", "1",
            "--format", "json", "--out", str(path),
        ])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert abs(payload["real"][0][0]) > 10.0


    def test_json_origin_cell_is_null(self, capsys):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        rc = main([
            "expsum-error",
            "--re-min", "-1", "--re-max", "1",
            "--im-min", "-1", "--im-max", "1",
            "--grid-nx", "3", "--grid-ny", "3",
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        for part in ("real", "imag"):
            # the origin, and only the origin
            assert payload[part][1][1] is None
            assert [v for row in payload[part] for v in row].count(None) == 1


class TestConvolutionCheck:
    def test_default_points(self, tmp_path):
        path = tmp_path / "check.json"
        rc = main(["convolution-check", "--format", "json", "--out", str(path)])
        assert rc == 0
        records = json.loads(path.read_text())
        assert len(records) == 2
        real, cplx = records
        assert abs(real["threefold"]["re"] - ref.CUBE_REAL_CONV) < 1e-7
        assert abs(real["cubed"]["re"] - ref.CUBE_REAL_DIRECT) < 1e-7
        assert real["difference"] < 1e-7
        got = complex(cplx["threefold"]["re"], cplx["threefold"]["im"])
        assert abs(got - ref.CUBE_COMPLEX_CONV) < 1e-7
        assert cplx["difference"] < 1e-7

    def test_text_output(self, capsys):
        rc = main(["convolution-check", "--s-re", "0.4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.4875296" in out

    def test_left_of_zero_is_a_domain_error(self, capsys):
        # the nested convolutions are refused there before any quadrature;
        # they exited 3 after about 1 s
        start = time.perf_counter()
        assert main(["convolution-check", "--s-re", "-0.5", "--s-im", "-2"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "domain error" in err and "amplifies the inner levels' errors past their estimates" in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["count", "--method", "direct", "--center-re", "-800"], id="count"),
        pytest.param(["sign-map", "--re-min", "-800", "--re-max", "-799", "--im-min", "0", "--im-max", "1",
                      "--grid-nx", "2", "--grid-ny", "2"], id="sign-map"),
        pytest.param(["table1", "--radius", "1e308"], id="table1"),
    ],
)
def test_eta_series_out_of_range_exits_2(argv, capsys):
    # exit code 1 would read as an unreliable count
    assert main(argv) == 2
    assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, rounded",
    [
        # the nearest zeros are the 649th and 650th, at 0.5 + 999.79i and 0.5 + 1001.35i
        pytest.param(["count", "--method", "direct", "--center-im", "1000"], 0, id="count-high-im"),
        pytest.param(["count", "--method", "direct", "--center-im=-1000"], 0, id="count-high-im-negative"),
        pytest.param(["count", "--method", "direct", "--center-re", "0.5", "--center-im", "999.7916",
                      "--radius", "0.05", "--nodes", "128"], 1, id="count-649th-zero"),
    ],
)
def test_direct_count_at_high_im(argv, rounded, capsys):
    assert main([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rounded"] == rounded
    assert report["reliable"]


def test_table1_direct_column_at_high_im(capsys):
    # the nodes reach Im s = 50.05; the direct column is f'/f ds/dphi / 2 pi i
    # with f = zeta, here from mpmath
    import mpmath as mp

    mp.mp.dps = 30
    assert main(["table1", "--center-im", "50", "--format", "json"]) == 0
    for record in json.loads(capsys.readouterr().out):
        u = cmath.exp(2j * math.pi * record["phi_over_2pi"])
        s = complex(0.57, 50.0) + 0.1 * u
        want = complex(mp.zeta(s, derivative=1) / mp.zeta(s)) * 0.1 * u / (2.0 * math.pi)
        assert abs(complex(record["direct"]["re"], record["direct"]["im"]) - want) <= 1e-7


def test_sign_map_at_high_im(capsys):
    import mpmath as mp

    mp.mp.dps = 30
    argv = ["sign-map", "--re-min", "0", "--re-max", "1", "--im-min", "44", "--im-max", "46",
            "--grid-nx", "2", "--grid-ny", "3", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    want = [[m.csgn(complex(mp.zeta(complex(x, y)))) for x in payload["re_axis"]] for y in payload["im_axis"]]
    assert payload["sign"] == want


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["table1", "--center-im", "500"], id="table1-csv"),
        pytest.param(["table1", "--center-im", "500", "--format", "json"], id="table1-json"),
        pytest.param(["count", "--method", "pipeline", "--center-im", "460", "--radius", "0.05", "--nodes", "8"],
                     id="count"),
    ],
)
def test_prefactor_out_of_range_exits_2(argv, capsys):
    # 1 / Gamma(s + 1) in K leaves double range past |Im s| ~ 450, where
    # table1's direct column is still summed; no numpy warning comes before
    # the error, and no NaN cell is written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert "domain error" in captured.err
    assert captured.out == ""


def _reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize(
    "argv, rc",
    [
        pytest.param(["table1"], 0, id="table1"),
        pytest.param(["table1", "--center-im", "500"], 2, id="table1-out-of-range"),
        pytest.param(["count", "--method", "direct", "--center-im", "1000"], 0, id="count-high-im"),
        pytest.param(["count", "--method", "direct"], 0, id="count-direct"),
        pytest.param(["count", "--method", "pipeline"], 0, id="count-pipeline"),
        # a tiny disk: it exited 3 before the moments kept at least five terms
        pytest.param(["count", "--method", "pipeline", "--radius", "1e-12"], 0, id="count-pipeline-tiny-disk"),
        pytest.param(["sign-map", "--re-min", "-0.5", "--re-max", "2", "--im-min", "0", "--im-max", "30",
                      "--grid-nx", "4", "--grid-ny", "4"], 0, id="sign-map"),
        pytest.param(["expsum-error", "--re-min", "-1", "--re-max", "1", "--im-min", "-1", "--im-max", "1",
                      "--grid-nx", "3", "--grid-ny", "3"], 0, id="expsum-error"),
        pytest.param(["convolution-check"], 0, id="convolution-check"),
    ],
)
def test_json_output_is_strict_json(argv, rc, capsys):
    # json.loads accepts NaN and Infinity, which are not JSON
    assert main([*argv, "--format", "json"]) == rc
    out = capsys.readouterr().out
    if rc == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""


def _both_formats(argv, capsys):
    """The default output of ``argv`` and the payload of its ``--format json``."""
    assert main(argv) in (0, 1)
    text = capsys.readouterr().out
    assert main([*argv, "--format", "json"]) in (0, 1)
    return text, json.loads(capsys.readouterr().out)


class TestFormatsAgree:
    """Each subcommand writes the same numbers in its default format as in JSON."""

    def test_table1(self, capsys):
        text, payload = _both_formats(["table1"], capsys)
        rows = list(csv.reader(text.splitlines()))
        columns = ("direct", "stage1", "stage2", "kernel")
        assert len(rows) == len(payload) + 1 == 10
        for row, record in zip(rows[1:], payload):
            assert float(row[0]) == record["phi_over_2pi"]
            from_json = [record[n][part] for n in columns for part in ("re", "im")]
            assert [float(cell) for cell in row[1:]] == from_json  # all 36 values, at 7 decimals

    def test_count(self, capsys):
        argv = ["count", "--method", "direct", "--center-re", "1", "--center-im", "0", "--nodes", "64"]
        text, report = _both_formats(argv, capsys)
        value = report["value"]
        assert text.splitlines() == [
            f"value    {value['re']:+.12e} {value['im']:+.12e}i",
            f"rounded  {report['rounded']}",
            f"residual {report['residual']:.3e}",
            f"contour_gap {report['contour_gap']:.3e}",
        ]
        assert report["rounded"] == -1

    def test_sign_map(self, capsys):
        argv = ["sign-map", "--re-min", "0", "--re-max", "2", "--im-min", "0", "--im-max", "1",
                "--grid-nx", "3", "--grid-ny", "2"]
        text, payload = _both_formats(argv, capsys)
        rows = list(csv.reader(text.splitlines()))
        assert rows[0][1:] == [f"{x:.6g}" for x in payload["re_axis"]]
        assert [row[0] for row in rows[1:]] == [f"{y:.6g}" for y in payload["im_axis"]]
        assert [[int(cell) for cell in row[1:]] for row in rows[1:]] == payload["sign"]
        assert payload["sign"][0][1] == 0  # the pole at s = 1

    def test_expsum_error(self, capsys):
        argv = ["expsum-error", "--re-min", "-1", "--re-max", "1", "--im-min", "-1", "--im-max", "1",
                "--grid-nx", "3", "--grid-ny", "3"]
        text, payload = _both_formats(argv, capsys)
        lines = text.splitlines()
        assert lines[0] == "# real part of approximation error"
        assert lines[5] == "# imag part of approximation error"
        for part, block in (("real", lines[1:5]), ("imag", lines[6:10])):
            rows = list(csv.reader(block))
            assert rows[0][1:] == [f"{x:.6g}" for x in payload["re_axis"]]
            cells = [[None if cell == "nan" else float(cell) for cell in row[1:]] for row in rows[1:]]
            assert cells == payload[part]
            assert cells[1][1] is None  # the origin: nan in the CSV, null in the JSON

    def test_convolution_check(self, capsys):
        text, records = _both_formats(["convolution-check"], capsys)
        g = 10
        expected = []
        for r in records:
            s, three, cubed = r["s"], r["threefold"], r["cubed"]
            expected += [
                f"s = {s['re']:.{g}g} + {s['im']:.{g}g}i",
                f"  threefold convolution  {three['re']:.{g}g} + {three['im']:.{g}g}i",
                f"  direct third power     {cubed['re']:.{g}g} + {cubed['im']:.{g}g}i",
                f"  |difference|           {r['difference']:.3e}",
            ]
        assert len(records) == 2
        assert text.splitlines() == expected
