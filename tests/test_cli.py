import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import logbesov
from logbesov.cli import main
from logbesov.fileio import save_sfn
from logbesov.gallery import make_exponential, make_indicator
from logbesov.grid import GridSpec, SampledFunction
from logbesov.norms import dini_norm


def test_partition_check_verb(capsys, tmp_path):
    code = main(["--grid", "J=10", "--out", str(tmp_path), "partition-check"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert (tmp_path / "partition-check.json").exists()


def test_norm_verb_from_file(capsys, tmp_path):
    g = GridSpec(1, 10)
    f = make_exponential(g, (1 << 5,))
    path = tmp_path / "f.sfn"
    save_sfn(path, f)
    code = main(
        ["norm", "--space", "besov", "--s", "0", "--b", "1", "--p", "inf",
         "--q", "inf", "--input", str(path)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"] - (1 + 5) ** 1) < 1e-9
    assert "tail" in payload and "per_level" in payload


def test_norm_verb_gallery_dini(capsys):
    code = main(["--grid", "J=10", "norm", "--space", "dini", "--gallery", "exp:k=1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.3 < payload["value"] < 0.7


def test_norm_verb_dini_reads_p(capsys):
    argv = ["--grid", "J=10", "norm", "--space", "dini", "--gallery", "cube", "--p"]
    values = {}
    for p in ("2", "inf"):
        assert main(argv + [p]) == 0
        values[p] = json.loads(capsys.readouterr().out)["value"]
    f = make_indicator(GridSpec(1, 10), "cube")
    assert values["2"] == dini_norm(f, 2.0).value
    assert values["inf"] == dini_norm(f).value
    assert values["2"] != values["inf"]


def test_criteria_verb(capsys, tmp_path):
    code = main(
        ["--grid", "J=11", "--out", str(tmp_path), "criteria", "--p", "1",
         "--b", "0.5", "--gallery", "exp:m=5"]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "MULTIPLIER"
    assert set(report["terms"]) == {"linf", "term2", "term3", "combined"}
    assert "per_level" in report and "tails" in report


def test_lowerbound_verb(capsys):
    code = main(
        ["--grid", "J=12", "lowerbound", "--f", "exp:m=8,neg",
         "--family", "packets:cases=1-5,m=8,b=0", "--p", "4", "--b", "0"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_bound"] > 1.0
    assert payload["argmax"].startswith("case")


def test_exp_growth_verb_exit_code(capsys, tmp_path):
    code = main(
        ["--grid", "J=11", "--format", "csv", "--out", str(tmp_path),
         "exp-growth", "--p-list", "1", "--b-list", "0,-2", "--m-min", "3",
         "--m-max", "7"]
    )
    assert code == 0
    csv_text = (tmp_path / "exp-growth.csv").read_text()
    header = csv_text.splitlines()[0].split(",")
    assert header == ["p", "b", "m", "value", "predicted", "ratio", "asymptote"]


@pytest.mark.parametrize("p_list", ["0.5", "1,0.5", "2,0.25"])
def test_exp_growth_rejects_p_below_one_before_any_work(p_list, capsys, monkeypatch):
    """No growth law is stated for p < 1, so `--p-list` with such a p exits 2
    before a partition is built, on either route."""
    import logbesov.experiments as experiments

    monkeypatch.setattr(experiments, "build_partition", lambda *a: pytest.fail("work started"))
    code = main(["--grid", "J=10", "exp-growth", "--p-list", p_list, "--b-list", "0", "--m-max", "6"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def test_error_exit_code(capsys):
    code = main(["norm", "--space", "besov"])  # no input source
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_error_exit_code_bad_grid(capsys):
    code = main(["--grid", "J=3", "charfun"])  # below the 64-sample minimum
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--grid", "J=40", "charfun"],
        ["--grid", "J=31,dim=2", "criteria", "--p", "2", "--b", "0", "--gallery", "cube"],
    ],
)
def test_oversize_grid_exits_2_before_allocating(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["charfun", "--b-list", "0"],
        ["charfun", "--m-min", "4"],
        ["exp-growth", "--shape", "cube"],
        ["sandwich", "--p-list", "1"],
        ["exp-growth", "--seed", "1"],
    ],
)
def test_experiment_flags_only_where_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["exp-growth", "--b-list=abc"],
        ["exp-growth", "--p-list=2,four"],
        ["--grid", "J=10", "--format", "csv", "exp-growth", "--b-list", "nan", "--p-list", "1", "--m-max", "6"],
        ["criteria", "--p", "2", "--b", "0", "--gallery", "exp:m=abc"],
        ["criteria", "--p", "2", "--b", "0", "--gallery", "stack:n=x"],
        ["--grid", "J=10", "lowerbound", "--f", "cube", "--family", "packets:cases=1-x", "--p", "2", "--b", "0"],
        ["--grid", "J=10", "norm", "--input", "{missing}"],
        ["--grid", "J=10", "norm", "--input", "{garbage}"],
        ["--grid", "J=10", "norm", "--input", "{no_grid}"],
        ["--grid", "J=10", "norm", "--input", "{bad_J}"],
        ["--grid", "J=10", "criteria", "--p", "2", "--b", "0", "--gallery", "lacunary:levels=-3"],
        ["--grid", "J=10", "criteria", "--p", "2", "--b", "0", "--gallery", "lacunary:levels=-1"],
        ["--grid", "J=10", "criteria", "--p", "2", "--b", "0", "--gallery", "bump:l=40"],
        ["--grid", "J=abc", "charfun"],
        ["--grid", "J=10", "lowerbound", "--f", "exp:m=5,neg", "--family", "packets:cases=1-5,m=5,b=0", "--p", "4", "--b", "nan"],
        ["--grid", "J=10", "norm", "--space", "besov", "--b", "nan", "--gallery", "cube"],
        ["--grid", "J=10", "norm", "--space", "besov", "--s", "inf", "--gallery", "cube"],
        ["--grid", "J=10", "norm", "--space", "diff", "--s", "nan", "--gallery", "cube"],
        ["--grid", "J=10", "norm", "--space", "tl", "--b", "nan", "--gallery", "cube"],
        ["--grid", "J=10", "norm", "--space", "tl", "--p", "2", "--gallery", "cube"],
        ["--grid", "J=10", "criteria", "--p", "2", "--b", "0", "--gallery", "bump:l=3,x=nan"],
        ["--grid", "J=10", "criteria", "--p", "2", "--b", "nan", "--gallery", "cube"],
        ["--grid", "J=10", "criteria", "--p", "1", "--b", "inf", "--gallery", "cube"],
        ["--grid", "J=10", "criteria", "--p", "0.5", "--b", "0", "--gallery", "cube"],
        ["--grid", "J=10", "--out", "{garbage}/sub", "criteria", "--p", "2", "--b", "0", "--gallery", "cube"],
        ["--grid", "J=8", "--out", "{garbage}/sub", "partition-check"],
        ["--grid", "J=8", "partition-check", "--export", "{missing}/x.dpu"],
        ["--grid", "J=8", "criteria", "--p", "2", "--b", "0", "--gallery", "exp:m=63"],
        ["--grid", "J=8", "criteria", "--p", "2", "--b", "0", "--gallery", "exp:k=99999999999999999999999"],
    ],
)
def test_malformed_input_exits_2(argv, capsys, tmp_path):
    garbage = tmp_path / "garbage.sfn"
    garbage.write_bytes(b"\xff\xfe not a header")
    no_grid = tmp_path / "no_grid.sfn"
    no_grid.write_bytes(b'{"format": "sfn"}\n')
    bad_j = tmp_path / "bad_J.sfn"
    bad_j.write_bytes(b'{"format": "sfn", "dim": 1, "J": "x"}\n')
    files = {"missing": tmp_path / "missing.sfn", "garbage": garbage, "no_grid": no_grid, "bad_J": bad_j}
    argv = [a.format(**files) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    else:
        assert "error:" in capsys.readouterr().err
    assert code == 2


@pytest.mark.parametrize(
    "spellings",
    [
        [["--grid", "J=10", "criteria", "--b", "0.5", "--gallery", "cube", "--p", p] for p in ("inf", "INF", "Infinity")],
        [["--grid", "J=10", "exp-growth", "--b-list", "0", "--m-max", "6", "--p-list", ps] for ps in ("1,inf", "1,INF")],
    ],
)
def test_exponent_spellings_agree(spellings, capsys):
    """Every spelling of infinity that `float` reads gives the same output."""
    outputs = []
    for argv in spellings:
        main(argv)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and all(out == outputs[0] for out in outputs)


def test_partition_export(tmp_path):
    out = tmp_path / "p.dpu"
    code = main(["--grid", "J=8", "--out", str(tmp_path), "partition-check",
                 "--export", str(out)])
    assert code == 0
    from logbesov.fileio import load_dpu

    part, symbols = load_dpu(out)
    assert len(symbols) == part.k_max + 1


def test_norm_verb_tl_and_diff(capsys):
    code = main(["--grid", "J=10", "norm", "--space", "tl", "--s", "0", "--b", "0",
                 "--q", "1", "--gallery", "exp:m=5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"] - 1.0) < 1e-9
    code = main(["--grid", "J=10", "norm", "--space", "diff", "--b", "1",
                 "--p", "inf", "--q", "inf", "--m", "1", "--gallery", "exp:k=1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] > 1.0



@pytest.mark.parametrize("space", ["tl", "besov"])
def test_norm_verb_rejects_nonfinite_samples(space, capsys, tmp_path):
    """One NaN sample of a `.sfn` input exits 2 with only the error line,
    for the p = inf Triebel-Lizorkin norm as for the Besov norm."""
    f = make_indicator(GridSpec(1, 10), "cube")
    f.values[3] = float("nan")
    path = tmp_path / "f.sfn"
    save_sfn(path, f)
    assert main(["norm", "--space", space, "--b", "1", "--q", "2", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite samples rejected\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--space", "tl", "--b", "1", "--q", "2"],
        ["norm", "--space", "besov", "--b", "1", "--p", "2", "--q", "2"],
        ["norm", "--space", "dini", "--p", "2"],
        ["criteria", "--p", "2", "--b", "0.5"],
        ["criteria", "--p", "inf", "--b", "0.5"],
    ],
)
def test_inf_sample_exits_2_with_only_the_error_line(argv, imag, capsys, tmp_path):
    """One inf sample of a `.sfn` input, in a real or a complex function,
    exits 2 with the error line alone on stderr: no numpy warning comes
    first (warnings fail this test)."""
    f = make_indicator(GridSpec(1, 10), "cube")
    values = f.values + 1j * imag
    values[3] = float("inf")
    path = tmp_path / "f.sfn"
    save_sfn(path, SampledFunction(f.grid, values))
    assert main(argv + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite samples rejected\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["norm", "--space", "tl", "--s", "200"], "s"),
        (["norm", "--space", "besov", "--s", "200", "--p", "2"], "s"),
        (["norm", "--space", "tl", "--b", "1e6"], "b"),
        (["norm", "--space", "besov", "--b", "1e300", "--p", "2"], "b"),
        (["norm", "--space", "diff", "--d", "1e6", "--p", "2"], "d"),
        (["lowerbound", "--f", "cube", "--family", "packets:m=3", "--p", "2", "--b", "1e6"], "b"),
        (["norm", "--space", "tl", "--s", "100", "--q", "8"], "s"),
        (["norm", "--space", "tl", "--b", "300", "--q", "8"], "b"),
        (["norm", "--space", "diff", "--m", "2000"], "m"),
        (["lowerbound", "--f", "cube", "--family", "cube", "--p", "0.001", "--b", "0"], "p"),
        (["norm", "--space", "besov", "--p", "0.001"], "p"),
        (["norm", "--space", "besov", "--q", "1e-300"], "q"),
        (["norm", "--space", "tl", "--q", "1e-300"], "q"),
        (["norm", "--space", "diff", "--q", "1e-300"], "q"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_weight_overflow_exits_2_naming_the_parameter(argv, name, capsys):
    """A smoothness parameter whose level weight 2^{ks} (1+k)^b, or for tl
    its q-th power, overflows a float is an input error naming it, not an
    `OverflowError` traceback or a numpy warning (warnings fail this test)
    before an infinite value.  So are a modulus order m whose difference
    weights overflow and an exponent p or q so small that a 1/p-th or
    1/q-th root does."""
    gallery = [] if argv[0] == "lowerbound" else ["--gallery", "cube"]
    assert main(["--grid", "J=8"] + argv + gallery) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name}=") and "overflow" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_overflowing_transform_reports_invalid_without_a_warning(capsys):
    """Samples whose transform overflows give an INVALID report, without
    the FFT's overflow warning (warnings fail this test)."""
    assert main(["--grid", "J=8", "criteria", "--p", "2", "--b", "0", "--gallery", "const:c=1e308"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "INVALID"


def test_truncated_payload_exits_2(capsys, tmp_path):
    """An `.sfn` payload cut inside a float64 exits 2 with only the error line."""
    path = tmp_path / "f.sfn"
    save_sfn(path, make_indicator(GridSpec(1, 10), "cube"))
    path.write_bytes(path.read_bytes()[:-3])
    assert main(["norm", "--space", "tl", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

def test_charfun_verb(capsys):
    code = main(["--grid", "J=12", "charfun", "--shape", "cube"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out


def test_sandwich_verb(capsys):
    # m <= K_max - 2 = J - 4: J = 13 is the smallest grid that admits m = 9
    code = main(["--grid", "J=13", "sandwich", "--m-min", "4", "--m-max", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out


@pytest.mark.parametrize(
    "argv, smallest",
    [
        (["--grid", "J=10,dim=2", "sandwich"], "J >= 14"),
        (["--grid", "J=12", "sandwich", "--m-min", "4", "--m-max", "9"], "J >= 13"),
        (["--grid", "J=10,dim=2", "charfun"], "J >= 11"),
        (["--grid", "J=10", "charfun", "--shape", "halfspace"], "J >= 11"),
        (["--grid", "J=14", "exp-growth", "--m-min", "7", "--m-max", "9", "--p-list", "2,4"], "fewer than the 4 values"),
    ],
)
def test_experiment_window_too_large_for_grid_exits_2(argv, smallest, capsys):
    """sandwich (m <= K_max - 2) and charfun (4 levels in k in [6, K_max])
    check their windows before any work and name the smallest J that fits;
    exp-growth checks that its window holds the 4 values of m its fit needs."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and smallest in captured.err


def test_sandwich_window_under_4_m_exits_2(capsys):
    assert main(["--grid", "J=14", "sandwich", "--m-min", "8", "--m-max", "10"]) == 2
    assert "fewer than the 4 values" in capsys.readouterr().err


def test_closed_stdout_exits_1_without_traceback(monkeypatch, tmp_path, capsys):
    """A reader that closed the pipe (`logbesov ... | head -1`) ends the run
    with exit code 1 and nothing on stderr; stdout then writes to devnull."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["--grid", "J=10", "criteria", "--p", "2", "--b", "0.5", "--gallery", "cube"])
    assert code == 1
    assert capsys.readouterr().err == ""
    assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    os.close(fd)


def test_import_loads_no_scipy():
    """scipy is a test dependency only; importing the package must not load it."""
    src = Path(logbesov.__file__).resolve().parents[1]
    probe = "import sys, logbesov; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "spec, name",
    [
        ("stack:b=-1e6", "b"),
        ("stack:p=1e-300", "p"),
        ("packet:m=4,case=3,b=-1e6", "b"),
        ("lacunary:beta=-2000", "beta"),
    ],
)
def test_gallery_weight_overflow_exits_2_naming_the_field(spec, name, capsys):
    """A gallery spec whose own weight overflows a float is an input error
    naming the spec field, not an `OverflowError` traceback."""
    assert main(["--grid", "J=8", "criteria", "--p", "2", "--b", "0", "--gallery", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name}=") and "overflow" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, name",
    [
        (["criteria", "--p", "2", "--b", "0.5", "--gallery", "packet:m=6,case=3,b=nan"], "b"),
        (["criteria", "--p", "2", "--b", "0.5", "--gallery", "packet:m=6,case=3,b=inf"], "b"),
        (["criteria", "--p", "2", "--b", "0.5", "--gallery", "packet:m=6,case=1,b=-inf"], "b"),
        (["criteria", "--p", "2", "--b", "0.5", "--gallery", "stack:m=2,n=5,b=nan"], "b"),
        (["criteria", "--p", "2", "--b", "0.5", "--gallery", "stack:m=2,n=5,b=inf"], "b"),
        (["criteria", "--p", "2", "--b", "0.5", "--gallery", "lacunary:beta=inf,levels=5"], "beta"),
        (["criteria", "--p", "2", "--b", "0.5", "--gallery", "lacunary:beta=nan,levels=5"], "beta"),
        (["lowerbound", "--f", "exp:m=6", "--family", "packets:m=6,b=nan", "--p", "2", "--b", "0.5"], "b"),
    ],
    ids=["packet-nan", "packet-inf", "packet-case1-neginf", "stack-nan", "stack-inf", "lacunary-inf", "lacunary-nan", "packets-nan"],
)
def test_nonfinite_spec_field_exits_2_naming_the_field(argv, name, capsys):
    """A NaN or infinite b of a packet, packet family or stack, or beta of a
    lacunary series, is an input error naming the field, raised before any
    sample is made: not an unnamed non-finite-samples error, and not a
    degenerate member that runs to exit 0."""
    assert main(["--grid", "J=10"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must be finite")
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", ["1", "2", "4", "inf"])
@pytest.mark.parametrize("b", ["1e6", "-1e6"])
def test_criterion_weight_overflow_exits_2_naming_b(p, b, capsys):
    """A b whose level weights overflow, in the low-high rows, the high-low
    sums or the p = inf closed forms, exits 2 with the error line alone: no
    numpy overflow warning (warnings fail this test) and no INVALID report."""
    assert main(["--grid", "J=8", "criteria", "--p", p, f"--b={b}", "--gallery", "cube"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: b={float(b)!r} makes a level weight overflow\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, named",
    [
        (["norm", "--space", "besov", "--p", "400", "--q", "2", "--gallery", "const:c=10"], "400.0"),
        (["norm", "--space", "tl", "--q", "400", "--gallery", "const:c=10"], "400.0"),
        (["criteria", "--p", "400", "--b", "0", "--gallery", "const:c=10"], "400.0"),
        (["norm", "--space", "diff", "--m", "1023", "--p", "2", "--gallery", "cube"], "m=1023"),
    ],
)
def test_overflowing_power_exits_2_naming_the_exponent(argv, named, capsys):
    """A power |S_k f|^p, a cube mean of |S_k f|^r or a difference of order
    m beyond the float range exits 2 with one error line naming the
    exponent or m: no numpy warning (warnings fail this test) and no
    infinite value."""
    assert main(["--grid", "J=8"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err and "overflow" in captured.err
    assert captured.err.count("\n") == 1


def _readme_cli_commands() -> list[str]:
    """The commands of the `sh` block under README's "## CLI" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


@pytest.mark.parametrize("command", _readme_cli_commands())
def test_readme_cli_example_runs(command, capsys, tmp_path, monkeypatch):
    """Each documented CLI example runs in a fresh directory, with `f.sfn`
    there for the examples that read it, and exits 0 (all checks pass) or
    1 (a known-red check) with nothing on stderr."""
    argv = shlex.split(command)
    assert argv[0] == "logbesov"
    monkeypatch.chdir(tmp_path)
    save_sfn(tmp_path / "f.sfn", make_exponential(GridSpec(1, 12), (1 << 5,)))
    assert main(argv[1:]) in (0, 1)
    assert capsys.readouterr().err == ""
