import itertools
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import trapnet
from trapnet import cli
from trapnet.cli import main
from trapnet.verify import MAX_SAMPLES

ROUND_SPEC = {
    "kind": "fourier",
    "expr": "cos(pi*x) + cos(pi*y) + c*((cos(pi*x) - cos(pi*y))^2 - 4)",
    "params": {"c": 0.25},
    "periods": [2.0, 2.0],
}


@pytest.fixture
def round_json(tmp_path):
    path = tmp_path / "round.json"
    path.write_text(json.dumps(ROUND_SPEC))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_catalog_lists_builtins(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("linear", "cusp", "round", "cross"):
        assert name in out
    assert "alpha=1" in out
    assert "c=0.25" in out


def test_catalog_json(capsys):
    assert main(["catalog", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert set(entries) == {"linear", "cusp", "round", "cross"}
    assert entries["round"]["periods"] == [2.0, 2.0]


def test_sample_linear_phi_plane_is_zero(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["sample", "linear", "--quantity", "phi",
               "--window=-1,1,-1,1", "--res", "11", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "value"]
    assert rows.shape == (121, 3)
    assert np.abs(rows[:, 2]).max() == 0.0


def test_sample_round_p_grid_nodes_vanish(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["sample", "round", "--quantity", "p",
               "--window=-2,2,-2,2", "--res", "201", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert rows.shape == (201 * 201, 3)
    for nx, ny in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]:
        sel = (np.abs(rows[:, 0] - nx) < 1e-9) & (np.abs(rows[:, 1] - ny) < 1e-9)
        assert sel.sum() == 1
        assert abs(rows[sel, 2][0]) < 1e-12


def test_sample_cusp_upp_3d_grid(tmp_path):
    out = tmp_path / "upp.csv"
    rc = main(["sample", "cusp", "--quantity", "upp",
               "--window=-0.5,2.5,-3,3,-1,1", "--res", "17", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "z", "value"]
    assert rows.shape == (17**3, 4)
    assert rows[:, 3].min() >= 0.0
    best = rows[np.argmin(rows[:, 3])]
    # the minimum sits near the null curve (t^2, t^3) in the z=0 plane
    ts = np.linspace(-1.6, 1.6, 2001)
    dist = np.sqrt((best[0] - ts**2) ** 2 + (best[1] - ts**3) ** 2).min()
    cell = math.hypot(3.0 / 16, 6.0 / 16)
    assert abs(best[2]) <= 2.0 / 16 + 1e-12
    assert dist <= cell


def test_sample_row_order_is_x_major_z_fastest(tmp_path):
    out = tmp_path / "order.csv"
    main(["sample", "linear", "--quantity", "phi",
          "--window=0,1,0,1,0,1", "--res", "2", "--out", str(out)])
    _, rows = read_csv(out)
    np.testing.assert_array_equal(rows[:, 0], [0, 0, 0, 0, 1, 1, 1, 1])
    np.testing.assert_array_equal(rows[:, 2], [0, 1, 0, 1, 0, 1, 0, 1])


def test_sample_grad_norm_matches_upp(tmp_path):
    a = tmp_path / "upp.csv"
    b = tmp_path / "gn.csv"
    main(["sample", "cusp", "--quantity", "upp", "--window=0,2,-2,2,-1,1",
          "--res", "5", "--out", str(a)])
    main(["sample", "cusp", "--quantity", "grad_norm", "--window=0,2,-2,2,-1,1",
          "--res", "5", "--out", str(b)])
    _, upp = read_csv(a)
    _, gn = read_csv(b)
    np.testing.assert_allclose(gn[:, 3] ** 2, upp[:, 3], atol=1e-12)


def test_sample_json_format(capsys):
    rc = main(["sample", "linear", "--quantity", "phi",
               "--window=0,1,0,1", "--res", "3", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == [3, 3]
    assert payload["values"] == [0.0] * 9


def encoder_sample_text(fmt, window, counts, values):
    """``sample`` output as the json encoder (indent 2) and a per-row join wrote it."""
    axes = [np.linspace(lo, hi, c) for lo, hi, c in zip(window[::2], window[1::2], counts)]
    if fmt == "json":
        payload = {"quantity": "phi", "window": list(window), "counts": list(counts),
                   "order": "x-major" + ("" if len(counts) == 2 else ", z fastest"),
                   "values": values}
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    points = itertools.product(*(a.tolist() for a in axes))
    rows = (",".join(map(repr, (*point, v))) for point, v in zip(points, values))
    header = "x,y,value" if len(counts) == 2 else "x,y,z,value"
    return "\n".join([header, *rows]) + "\n"


# signed zeros, subnormals, huge and plain values
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1.7976931348623157e308, 0.1, -2.0, 1.0]


class SpecialField:
    def value(self, x, y, z):
        return np.resize(np.array(SPECIAL_VALUES),
                         np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z)))


ENCODER_GRIDS = [
    ((-1.0, -0.0, 0.0, 1e-310), (4, 3)),
    ((-1.0, 1.0, -0.0, 0.5, -0.5, -0.0), (3, 2, 4)),
    ((-1e300, 1e300, 0.1, 0.3, 2.5e-320, 1.0), (2, 3, 5)),
]


def special_sample(monkeypatch, capsys, tmp_path, window, counts, fmt, to_file):
    """Exit code and text of ``sample`` of a SpecialField, and the text the encoder writes."""
    monkeypatch.setattr(cli, "synthesize", lambda generator, params: SpecialField())
    argv = ["sample", "linear", "--quantity", "phi", "--format", fmt,
            "--window=" + ",".join(map(repr, window)), "--res", ",".join(map(str, counts))]
    out = tmp_path / "out.txt"
    code = main(argv + ["--out", str(out)] if to_file else argv)
    text = out.read_text() if to_file and code == 0 else capsys.readouterr().out
    values = np.resize(np.array(SPECIAL_VALUES), counts).ravel().tolist()
    return code, text, encoder_sample_text(fmt, window, counts, values)


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("window, counts", ENCODER_GRIDS)
def test_sample_output_matches_the_encoder(monkeypatch, capsys, tmp_path,
                                           window, counts, fmt, to_file):
    code, text, want = special_sample(monkeypatch, capsys, tmp_path, window, counts, fmt, to_file)
    assert code == 0
    assert text == want


@pytest.mark.parametrize("slice_size", [1, 7, cli._SLICE])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("window, counts", [
    *ENCODER_GRIDS,                                     # 12, 24 and 30 points
    ((-1.0, 1.0, -1.0, 1.0), (5, 3)),                   # 15 = 2*7 + a 1-point last slice
    ((0.0, 1.0, -2.0, 2.0), (7, 2)),                    # 14 = 2*7
    ((-1.0, 1.0, -1.0, 1.0, 0.0, 1.0), (32, 32, 16)),   # 16384 = 2 default slices
])
def test_sample_output_is_the_same_at_every_slice_size(monkeypatch, capsys,
                                                       window, counts, fmt, slice_size):
    monkeypatch.setattr(cli, "_SLICE", slice_size)
    monkeypatch.setattr(cli, "synthesize", lambda generator, params: SpecialField())
    assert main(["sample", "linear", "--quantity", "phi", "--format", fmt,
                 "--window=" + ",".join(map(repr, window)),
                 "--res", ",".join(map(str, counts))]) == 0
    values = np.resize(np.array(SPECIAL_VALUES), counts).ravel().tolist()
    want = encoder_sample_text(fmt, window, counts, values)
    # compared as lists of lines, so that a failure names the first differing line quickly
    assert capsys.readouterr().out.split("\n") == want.split("\n")


# the parts of 20 and of 100 values, 5 at least, start mid-row for 2, 3 and 4 parts
PART_GRIDS = [
    ((-1.0, 1.0, -0.0, 0.5), (5, 4)),
    ((-1.0, 1.0, -0.0, 0.5, -0.5, -0.0), (5, 5, 4)),
]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` starts in this test."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def use_cpus(monkeypatch, cpus, min_part=5):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(cli, "_MIN_PART", min_part)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("slice_size", [1, 7, cli._SLICE])
@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("window, counts", PART_GRIDS)
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_sample_output_is_the_same_in_every_number_of_parts(
        monkeypatch, capsys, tmp_path, forks, cpus, window, counts, fmt, to_file, slice_size):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(cli, "_SLICE", slice_size)
    bounds = cli._part_bounds(math.prod(counts))
    assert len(bounds) == cpus + 1
    assert all(b % counts[-1] for b in bounds[1:-1])
    code, text, want = special_sample(monkeypatch, capsys, tmp_path, window, counts, fmt, to_file)
    assert code == 0
    assert text.split("\n") == want.split("\n")
    assert len(forks) == cpus - 1
    assert_no_children()


def test_sample_parts_hold_at_least_the_minimum(monkeypatch):
    use_cpus(monkeypatch, 4, min_part=10)
    assert cli._part_bounds(19) == [0, 19]
    assert cli._part_bounds(20) == [0, 10, 20]
    assert cli._part_bounds(35) == [0, 11, 23, 35]
    assert cli._part_bounds(10**6) == [0, 250000, 500000, 750000, 10**6]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failed_child_has_its_part_formatted_by_the_parent(monkeypatch, capsys, tmp_path,
                                                             forks, fmt):
    use_cpus(monkeypatch, 3)
    parent, real = os.getpid(), cli._format

    def fail_in_a_child(*args):
        pieces = real(*args)
        if os.getpid() != parent:
            yield next(pieces)  # a part written in part, then the child fails
            raise OSError("no space left")
        yield from pieces
    monkeypatch.setattr(cli, "_format", fail_in_a_child)
    window, counts = PART_GRIDS[1]
    code, text, want = special_sample(monkeypatch, capsys, tmp_path, window, counts, fmt, False)
    assert code == 0
    assert text == want
    assert len(forks) == 2
    assert_no_children()


class FailingStdout:
    """Standard output that fails after its first two pieces of text."""

    def writelines(self, pieces):
        for _ in itertools.islice(pieces, 2):
            pass
        raise OSError("broken pipe")


def test_a_write_error_kills_and_reaps_every_child(monkeypatch, capsys, tmp_path, forks):
    use_cpus(monkeypatch, 4)
    monkeypatch.setattr(sys, "stdout", FailingStdout())
    window, counts = PART_GRIDS[1]
    code, _, _ = special_sample(monkeypatch, capsys, tmp_path, window, counts, "csv", False)
    assert code == cli.EXIT_IO
    assert len(forks) == 3
    assert_no_children()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("serial", ["one cpu", "no fork", "a second thread", "too few values"])
def test_sample_formats_in_this_process_where_a_fork_cannot_pay_or_is_unsafe(
        monkeypatch, capsys, tmp_path, forks, serial, fmt):
    use_cpus(monkeypatch, 1 if serial == "one cpu" else 4, 51 if serial == "too few values" else 5)
    if serial == "no fork":
        monkeypatch.delattr(os, "fork")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    if serial == "a second thread":
        thread.start()
    try:
        window, counts = PART_GRIDS[1]
        code, text, want = special_sample(monkeypatch, capsys, tmp_path, window, counts, fmt,
                                          False)
    finally:
        stop.set()
        if thread.ident is not None:
            thread.join(10)
    assert not thread.is_alive()
    assert code == 0
    assert text == want
    assert forks == []


def test_sample_rejects_planar_quantity_on_3d_window(capsys):
    rc = main(["sample", "round", "--quantity", "p",
               "--window=-1,1,-1,1,-1,1", "--res", "5"])
    assert rc == 2


def test_sample_rejects_degenerate_window(capsys):
    for window in ("1,1,0,1", "-1,1,-inf,1,0,1"):
        rc = main(["sample", "linear", f"--window={window}", "--res", "5"])
        assert rc == 2


def test_sample_rejects_mismatched_res_counts(capsys):
    rc = main(["sample", "linear", "--window=0,1,0,1,0,1", "--res", "5,5"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["sample", "cusp", "--window=-1,1,-1,1", "--res", "inf"],
    ["sample", "cusp", "--window=-1,1,-1,1", "--res", "2.9"],
    ["sample", "cusp", "--window=-1,1,-1,1,-1,1", "--res", "3,nan,3"],
    ["nulllines", "cusp", "--window=-1,1,-1,1", "--res", "inf"],
    ["nulllines", "cusp", "--window=-1,1,-1,1", "--res", "2.9"],
])
def test_res_must_be_whole_numbers(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--res needs whole numbers" in captured.err


def test_nulllines_cusp(tmp_path):
    out = tmp_path / "lines.json"
    rc = main(["nulllines", "cusp", "--window=-0.5,2.5,-3,3",
               "--res", "150", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["resolution"] == 150
    assert len(payload["polylines"]) == 1
    assert payload["polylines"][0]["closed"] is False
    assert len(payload["polylines"][0]["points"]) > 100


def test_analyze_node_report(capsys, round_json):
    rc = main(["analyze", round_json, "--point", "1,0", "--param", "c=0.2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "crossing"
    assert payload["angle"] == pytest.approx(0.6435011087932844, abs=1e-10)
    assert payload["multipole_order"] == 3


def test_analyze_degenerate_node(capsys, round_json):
    rc = main(["analyze", round_json, "--point", "1,0"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "degenerate"


def test_analyze_line_point(capsys):
    rc = main(["analyze", "cusp", "--point", "1,1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "line"
    assert payload["lambda_normal"] == pytest.approx(26.0)
    assert payload["lambda_z"] == pytest.approx(26.0)


def test_analyze_off_network_exit_code(capsys):
    assert main(["analyze", "cusp", "--point", "5,5"]) == 4
    assert "error" in capsys.readouterr().err


def test_analyze_unknown_generator_exit_code(capsys):
    assert main(["analyze", "helix", "--point", "0,0"]) == 2


@pytest.mark.parametrize("window", ["nan,1,-1,1", "-1,1,-1,inf", "1,-1,-1,1", "-1,1,1,1"])
def test_nulllines_rejects_bad_window(capsys, window):
    assert main(["nulllines", "cusp", f"--window={window}", "--res", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "window" in captured.err


def test_deep_nesting_exit_code(tmp_path, capsys):
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps({"kind": "polynomial",
                                "expr": "(" * 5000 + "x" + ")" * 5000}))
    assert main(["nulllines", str(spec), "--window=-1,1,-1,1", "--res", "8"]) == 2
    assert "nesting too deep" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("params", {"c": [1]}), ("periods", 5),
                                          ("expr", 5)])
def test_spec_field_of_wrong_type_exit_code(tmp_path, capsys, field, value):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**ROUND_SPEC, field: value}))
    assert main(["nulllines", str(spec), "--window=-1,1,-1,1", "--res", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"generator spec '{field}'" in captured.err


def test_overflowing_coefficient_exit_code(tmp_path, capsys):
    # the coefficient 1e200^2 is inf: nulllines used to write NaN vertices
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "polynomial", "expr": "1e200^2*x"}))
    assert main(["nulllines", str(spec), "--window=-1,1,-1,1", "--res", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coefficient overflows" in captured.err


def test_sample_refuses_non_finite_values(capsys):
    # cosh(k z) overflows near z = 300
    assert main(["sample", "round", "--window=-1,1,-1,1,299,301", "--res", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "upp is not finite on this grid" in captured.err


def test_sample_refusal_prints_one_error_line():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trapnet.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "trapnet", "sample", "round",
         "--window=-1,1,-1,1,299,301", "--res", "4"],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: upp is not finite on this grid")


def test_verify_refuses_non_finite_stencil_values():
    # cosh(k z) overflows near z = 300: no verdict, and no numpy warnings
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trapnet.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "trapnet", "verify", "round",
         "--window=-1,1,-1,1,300,301", "--samples", "20"],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: phi is not finite on the stencil: the window is out of range\n"


@pytest.mark.parametrize("argv", [
    ["sample", "cusp", "--window=-1,1,-1,1", "--res", "2049,2048"],
    ["sample", "cusp", "--window=-1,1,-1,1,-1,1", "--res", "100000"],
    ["nulllines", "cusp", "--window=-1,1,-1,1", "--res", "1000000"],
])
def test_grid_past_the_cap_exit_code(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the limit of 4194304" in captured.err


@pytest.mark.parametrize("kind, expr, message", [
    ("polynomial", "x^65", "exponent '65' exceeds the limit of 64"),
    ("fourier", "(cos(pi*x) + cos(pi*y))^10", "more than the limit of 262144"),
    ("polynomial", "x^64*y^64*x", "degree 129, more than the limit of 128"),
])
def test_exponent_and_wave_caps_exit_code(tmp_path, capsys, kind, expr, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": kind, "expr": expr, "periods": [2.0, 2.0]}))
    assert main(["nulllines", str(spec), "--window=-1,1,-1,1", "--res", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_round_passes(capsys, round_json):
    rc = main(["verify", round_json, "--samples", "100", "--seed", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["samples"] == 100


def test_verify_custom_window(capsys):
    rc = main(["verify", "cusp", "--samples", "50",
               "--window=-0.5,0.5,-0.5,0.5,-0.5,0.5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_bad_spec_file_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["verify", str(path)]) == 2


def test_bad_param_syntax_exit_code(capsys):
    assert main(["analyze", "cusp", "--point", "0,0", "--param", "alpha"]) == 2


def test_unwritable_output_exit_code(capsys):
    rc = main(["catalog", "--out", "/nonexistent-dir-xyz/out.txt"])
    assert rc == 3


def test_sample_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sample", "round", "--quantity", "upp", "--window=-1,1,-1,1,-1,1",
            "--res", "7", "--param", "c=0.3"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("window", ["nan,1,-1,1,-1,1", "-1,1,-1,1,1,-1"])
def test_verify_rejects_bad_window(capsys, window):
    assert main(["verify", "cusp", f"--window={window}", "--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "window" in captured.err


@pytest.mark.parametrize("flags, message", [
    (["--samples", "0"], "samples must be at least 1"),
    (["--h", "nan"], "step h must be finite and positive"),
    (["--h", "inf"], "step h must be finite and positive"),
])
def test_verify_refuses_a_run_that_checks_nothing(capsys, flags, message):
    assert main(["verify", "cusp", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_refuses_a_negative_seed_by_name(capsys):
    # refused by VerifyConfig, before numpy's random generator sees it
    assert main(["verify", "cusp", "--seed", "-1", "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be at least 0, got -1\n"


def test_verify_refuses_more_samples_than_the_cap(capsys):
    # refused before the sample points are drawn: no memory error traceback
    assert main(["verify", "cusp", "--samples", "1000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"samples must be at most {MAX_SAMPLES}" in captured.err


def test_verify_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify", "cusp", "--samples", "40", "--seed", "9"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_physical_trap_parameters(capsys):
    rc = main(["analyze", "cusp", "--point", "1,1",
               "--charge", "2.0", "--mass", "1.0", "--omega", "1.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # kappa = 4 / 4 = 1 times charge^2 scaling: Q^2/(4 M Omega^2) = 1
    assert payload["lambda_normal"] == pytest.approx(26.0)


def _run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trapnet.__file__))}
    return subprocess.run([sys.executable, "-m", "trapnet", *argv],
                          capture_output=True, text=True, env=env, check=False)


@pytest.mark.parametrize("z0", ["60", "100"])
def test_verify_refuses_an_overflowing_gradient_norm(z0):
    # |grad phi| of round passes 1e154 here, so its norm overflows to inf and
    # every relative gradient error would read 0
    window = f"--window=-1,1,-1,1,{z0},{float(z0) + 0.05}"
    proc = _run_cli("verify", "round", window, "--samples", "20")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: |grad phi| is not finite at a sample point: "
                           "the window is out of range\n")


@pytest.mark.parametrize("point", ["nan,0", "0,inf", "-inf,nan"])
def test_analyze_refuses_a_non_finite_point(capsys, point):
    assert main(["analyze", "cusp", f"--point={point}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not finite" in captured.err


@pytest.mark.parametrize("spec, point, size", [
    ("cusp", "1e200,1e133", "inf"),  # x^3 overflows to inf
    ("round", "1e308,1e308", "nan"),  # pi*x overflows, and the mode sum is nan
])
def test_analyze_overflowing_point_is_off_the_network(spec, point, size):
    proc = _run_cli("analyze", spec, f"--point={point}")
    assert proc.returncode == 4
    assert proc.stdout == ""
    x, y = (float(v) for v in point.split(","))
    assert proc.stderr == f"error: point ({x}, {y}) is not on the null set: |P|={size}\n"


@pytest.mark.parametrize("command", [
    ["analyze", "cusp", "--point", "1,1"],
    ["sample", "cusp", "--window=0,1,0,1", "--res", "2"],
    ["verify", "cusp", "--samples", "2"],
])
@pytest.mark.parametrize("trap, message", [
    (["--charge", "nan", "--mass", "1", "--omega", "1"], "must be finite"),
    (["--charge", "1", "--mass", "inf", "--omega", "1"], "must be finite"),
    (["--charge", "1", "--mass", "1", "--omega=-inf"], "must be finite"),
    (["--charge", "1e200", "--mass", "1", "--omega", "1"], "out of float range"),
    (["--charge", "1", "--mass", "1e300", "--omega", "1e10"], "out of float range"),
])
def test_trap_parameters_must_be_finite(capsys, command, trap, message):
    assert main(command + trap) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    # the mode amplitudes are finite but grad P overflows at this line point
    ["analyze", "round", "--point=1,0", "--param", "c=1e300"],
    # and at the line point on the other axis
    ["analyze", "round", "--point=0,1", "--param", "c=1e300"],
])
def test_json_report_with_a_non_finite_value_is_refused(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the result holds a value that is not finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["nulllines", "cusp", "--window=-1e308,1e308,-1,1", "--res", "4"],
    ["sample", "cusp", "--quantity", "p", "--window=-1e308,1e308,-1,1", "--res", "4"],
    ["sample", "cusp", "--window=-1,1,-1,1,-1e308,1e308", "--res", "4"],
    ["verify", "cusp", "--window=-1e308,1e308,-1,1,-1,1", "--samples", "5"],
])
def test_window_with_an_infinite_width_is_refused_up_front(argv):
    # every bound is finite but hi - lo overflows: one error line, no numpy warnings
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trapnet.__file__))}
    proc = subprocess.run([sys.executable, "-m", "trapnet", *argv],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: window widths hi - lo must be finite")
    assert proc.stderr.count("\n") == 1
