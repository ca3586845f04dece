import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookup import DensityMatrix, save
from hookup.cli import main


WHITE_NOISE = save(DensityMatrix((2, 2), np.eye(4) / 4))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_preset_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--preset", "paper-example")
        assert code == 0
        assert "hookup" in out
        assert "0.500000000" in out

    def test_preset_json(self, capsys):
        code, out, _ = run(capsys, "compute", "--preset", "bell", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        q = doc["quantifiers"]
        assert abs(q["total_correlations"] - 2) <= 1e-9
        assert abs(q["discord"] - 1) <= 1e-6

    def test_mdms_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--preset",
            "mdms",
            "--epsilon",
            "0.8",
            "--theta",
            "0.1",
            "--grid",
            "9",
            "--starts",
            "4",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["optimizer_available"]

    def test_basis_angles_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "--preset",
            "bell",
            "--basis-angles",
            "0.785398163397448,0,0.785398163397448,0",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        # Bell state dephased in the x basis keeps one bit of coherence gone:
        # diag in x basis is (1/2, 0, 0, 1/2), so C = 1 there too.
        assert abs(doc["quantifiers"]["coherence"] - 1) <= 1e-9

    def test_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(save(DensityMatrix((2, 2), np.eye(4) / 4)))
        code, out, _ = run(capsys, "compute", "--file", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["quantifiers"]["hookup"]) <= 1e-9

    def test_invalid_state_exit_2(self, tmp_path, capsys):
        bad = DensityMatrix((2, 2), 1.5 * np.eye(4) / 4)
        path = tmp_path / "bad.json"
        path.write_text(save(bad))
        code, _, err = run(capsys, "compute", "--file", str(path))
        assert code == 2
        assert "trace" in err

    def test_empty_dims_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dims": [], "matrix": [[{"re": 1, "im": 0}]]}))
        code, out, err = run(capsys, "compute", "--file", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "one or more subsystems" in err
        assert out == ""

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_exit_2(self, tmp_path, capsys, literal):
        # Python's json module parses these literals to floats; the state
        # must be rejected at load, not fail later inside an eigensolver.
        rows = [[{"re": 0.25 if i == j else 0.0, "im": 0.0} for j in range(4)] for i in range(4)]
        text = json.dumps({"dims": [2, 2], "matrix": rows}).replace("0.25", literal, 1)
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        code, out, err = run(capsys, "compute", "--file", str(path))
        assert code == 2
        assert "non-finite" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "content, fragment",
        [
            (b'{"preset": ["bell"]}', "preset"),
            (b'{"preset": "ghz", "n": "x"}', "ghz"),
            (b'{"preset": "ghz", "n": 2.5}', "ghz"),
            (b'{"preset": "diagonal", "probs": "ab"}', "diagonal"),
            (b'{"preset": "diagonal", "probs": [0.5, 0.5], "dims": "ab"}', "diagonal"),
            (b'{"preset": "diagonal", "probs": [0.5, 0.5], "dims": [2.7]}', "dims"),
            (b'{"preset": "diagonal", "probs": [0.5, 0.5], "dims": [Infinity]}', "diagonal"),
            (b'{"preset": "diagonal", "probs": [0.25, 0.25, 0.25, 0.25], "dims": "22"}', "dims"),
            (b'{"preset": "caf\xe9"}', "UTF-8"),
            (json.dumps({**json.loads(WHITE_NOISE), "dims": [2**62 + 1, 4]}).encode(), "dims"),
            (b"[" * 200_000 + b"]" * 200_000, "nested too deeply"),
            (b'{"preset": "mdms", "epsilon": true}', "epsilon"),
            (b'{"preset": "diagonal", "probs": [true, false]}', "probs"),
            (WHITE_NOISE.replace('"re": 0.25', '"re": "0.25"', 1).encode(), "entry (0,0)"),
        ],
        ids=["non-string-preset", "ghz-n-text", "ghz-n-fraction", "probs-text", "dims-text",
             "dims-fraction", "dims-infinite", "dims-digit-text", "latin-1",
             "dims-product-past-int64", "deep-nesting", "epsilon-bool", "probs-bools",
             "entry-text"],
    )
    def test_bad_preset_file_exit_2(self, tmp_path, capsys, content, fragment):
        path = tmp_path / "preset.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "compute", "--file", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err
        assert out == ""

    def test_whole_float_dims_read_as_integers(self, tmp_path, capsys):
        # 2.0 names the same subsystem as 2, as ghz accepts n = 3.0.
        outputs = []
        for dims in ("[2, 2]", "[2.0, 2.0]"):
            path = tmp_path / "diagonal.json"
            path.write_text('{"preset": "diagonal", "probs": [0.4, 0.3, 0.2, 0.1], "dims": %s}' % dims)
            code, out, err = run(capsys, "compute", "--file", str(path), "--format", "json")
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--preset", "bell", "--basis-angles", "a,b,c,d"],
            ["compute", "--preset", "bell", "--basis-angles", "nan,0,0,0"],
            ["compute", "--preset", "bell", "--basis-angles", "inf,0,0,0"],
            ["compare-jk", "--epsilons", "0.5,x"],
            ["scan-mdms", "--grid", "1"],
            ["thresholds", "--tol", "-1"],
            ["compute", "--preset", "mdms", "--epsilon", "0.7", "--tol", "inf"],
            ["compute", "--preset", "bell", "--tol", "10"],
            ["compute", "--preset", "bell", "--tol", "1"],
            ["compare-jk", "--epsilons", "", "--format", "csv"],
            ["compare-jk", "--epsilons", ",,", "--format", "csv"],
        ],
    )
    def test_malformed_numbers_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""

    def test_unknown_preset_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--preset", "nope")
        assert code == 2
        assert "unknown preset" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--file", "/does/not/exist.json")
        assert code == 2

    def test_qutrit_report_still_succeeds(self, tmp_path, capsys):
        path = tmp_path / "qq.json"
        path.write_text(save(DensityMatrix((2, 3), np.eye(6) / 6)))
        code, out, _ = run(capsys, "compute", "--file", str(path))
        assert code == 0
        assert "unavailable" in out

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "compute",
            "--preset",
            "classical-correlated",
            "--grid",
            "9",
            "--starts",
            "4",
            "--format",
            "json",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert abs(doc["quantifiers"]["classical_correlations"] - 1) <= 1e-9

    def test_preset_file_with_extra_params(self, tmp_path, capsys):
        path = tmp_path / "ghz4.json"
        path.write_text('{"preset": "ghz", "n": 4}')
        code, out, _ = run(
            capsys, "compute", "--file", str(path), "--grid", "5", "--starts", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["quantifiers"]["total_correlations"] - 4) <= 1e-9


class TestVerifyRows:
    def test_fast_group_rows_serialize(self):
        from hookup import OptimizerConfig
        from hookup.verify import check_worked_example, format_table

        rows = check_worked_example(OptimizerConfig(grid_points=9, multistarts=4))
        assert all(r.passed for r in rows)
        doc = [r.to_dict() for r in rows]
        assert all({"group", "name", "expected", "actual", "tolerance", "passed"} <= set(d) for d in doc)
        table = format_table(rows, elapsed=1.0)
        assert "[PASS]" in table


class TestScan:
    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys,
            "scan-mdms",
            "--theta-points",
            "5",
            "--epsilon-points",
            "5",
            "--grid",
            "9",
            "--starts",
            "4",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = [ln for ln in out_path.read_text().splitlines() if not ln.startswith("#")]
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert lines[0].split(",")[6] == "K"
        assert rows.shape == (5 * 5, 11)

    def test_byte_identical_runs(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(
                capsys,
                "scan-mdms",
                "--theta-points",
                "4",
                "--epsilon-points",
                "4",
                "--grid",
                "9",
                "--starts",
                "4",
                "--out",
                str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestThresholdsCommand:
    def test_unresolved_basis_switch_exit_2(self, capsys):
        # An even grid misses the x basis, and a loose tol stops every search
        # short of it, so no epsilon reads as switched: the flags are at fault.
        code, out, err = run(capsys, "thresholds", "--grid", "4", "--starts", "1", "--tol", "0.01")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "tol" in err
        assert out == ""

    def test_derivative_json(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--method", "derivative", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["eps_prime"] - 2 / 3) <= 0.01
        assert abs(doc["eps_double_prime"] - 0.76) <= 0.01


class TestCompareJk:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "compare-jk", "--epsilons", "0.9", "--grid", "9", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("epsilon,")
        values = dict(zip(header.split(","), [float(x) for x in row.split(",")]))
        assert values["max_K_minus_J"] <= 1e-6


# Every kind of float argparse accepts, the extremes included.
FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, -1e308]),
    st.floats(0, 1),
    st.floats(),
)
PRESETS = ["bell", "paper-example", "w-mixture", "mdms", "ghz", "classical-correlated", "diagonal"]


def mostly(good, wild):
    """Values that often pass validation, so that runs reach the numerics too."""
    return st.one_of(good, good, wild)


def float_list(good):
    return st.lists(mostly(good, FLOATS), max_size=4).map(lambda xs: ",".join(map(repr, xs)))


@st.composite
def cli_argv(draw):
    """Arguments argparse accepts, for every command but verify, at small grids."""
    command = draw(st.sampled_from(["compute", "scan-mdms", "compare-jk", "thresholds"]))
    argv = [
        command,
        f"--grid={draw(mostly(st.integers(2, 5), st.integers(-2, 5)))}",
        f"--starts={draw(mostly(st.integers(1, 2), st.integers(-1, 2)))}",
    ]
    if draw(st.booleans()):
        argv.append(f"--tol={draw(mostly(st.floats(1e-12, 0.5), FLOATS))!r}")
    if command == "compute":
        argv.append(f"--preset={draw(mostly(st.sampled_from(PRESETS), st.text(max_size=6)))}")
        keys = draw(mostly(st.just([]), st.lists(st.sampled_from(["epsilon", "theta", "phi"]))))
        argv += [f"--{key}={draw(mostly(st.floats(0, 0.7), FLOATS))!r}" for key in keys]
        if draw(st.booleans()):
            argv.append(f"--basis-angles={draw(float_list(st.floats(-7, 7)))}")
        argv.append(f"--format={draw(st.sampled_from(['text', 'json']))}")
    elif command == "scan-mdms":
        argv.append(f"--theta-points={draw(mostly(st.integers(2, 70), st.integers(-2, 70)))}")
        argv.append(f"--epsilon-points={draw(mostly(st.integers(2, 4), st.integers(-2, 4)))}")
    elif command == "compare-jk":
        argv.append(f"--epsilons={draw(float_list(st.floats(0.01, 0.99)))}")
        argv.append(f"--theta-points={draw(mostly(st.integers(65, 70), st.integers(-2, 70)))}")
        argv.append(f"--format={draw(st.sampled_from(['text', 'json', 'csv']))}")
    else:
        argv.append(f"--method={draw(st.sampled_from(['basis-switch', 'derivative']))}")
        argv.append(f"--format={draw(st.sampled_from(['text', 'json']))}")
    return argv


@given(cli_argv())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_parsed_flags_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
