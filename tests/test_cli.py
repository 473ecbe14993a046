import numpy as np
import pytest

from vardim.cli import main
from vardim.lti import (PartialFractionSystem, RationalTransferFunction,
                        StateSpace, impulse_response)
from vardim.sysfile import (load_system, parse_system, serialize_system)
from vardim.errors import ParseError
from vardim.oracle import ovd_verify
from vardim.signals import Signal

DEMO_TEXT = """\
# three-lag demo bank
poles = [0.9, 0.5, 0.1]
residues = [0.9, 0.5, -0.1]
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.sys"
    path.write_text(DEMO_TEXT)
    return str(path)

# Valid systems that the compound report cannot take: a partial-fraction
# file with a FIR tail (order 4 with the tail), the golden ``complex-ss``,
# and a state space with a pole at 5e4 whose samples stay finite up to the
# compound's reach but whose order-2 window determinants leave the doubles.
VALID_SYSTEMS = {
    "fir-tail": "poles = [0.9, 0.5]\nresidues = [1.0, 0.5]\n"
                "fir = [0.3, 0.1]\n",
    "complex-ss": "A = [[0.9, 0, 0], [0, 0.3, -0.4], [0, 0.4, 0.3]]\n"
                  "b = [1.0, 0.5, 0.5]\n"
                  "c = [1, 1, 1]\n",
    "overflow-compound": "A = [[50000.0, 0, 0], [0, 0.3824, -0.3221], "
                         "[0, 0.3221, 0.3824]]\n"
                         "b = [1.0, 1.0, 0.5]\n"
                         "c = [1, 1, 1]\n",
    "overflow-gap": "poles = [1e200, 0.5]\nresidues = [1.0, 1.0]\n",
    "overflow-residues": "poles = [0.9, 0.5, 0.3]\n"
                         "residues = [1e200, 1e200, -1e200]\n",
}
VALID_SYSTEM_COMMANDS = [
    *(["check", "--operator", op, "--k", "2"] for op in (
        "hankel", "toeplitz", "external", "hankel-total", "toeplitz-total")),
    *(["compound", "--j", str(j)] for j in (1, 2, 3)),
    *(["decompose", "--operator", op, "--k", "1"]
      for op in ("hankel", "toeplitz")),
    ["oracle", "--operator", "hankel", "--input-length", "3"],
    ["impulse"],
]


@pytest.mark.parametrize("argv", VALID_SYSTEM_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", sorted(VALID_SYSTEMS))
def test_valid_system_gets_no_usage_error(name, argv, tmp_path, capsys):
    """A valid system gets a verdict, a result or "unsupported": never a
    usage error, and never a compound report of zero samples that are not
    zero."""
    path = tmp_path / "valid.sys"
    path.write_text(VALID_SYSTEMS[name])
    out = ["--out", str(tmp_path / "dec.")] if argv[0] == "decompose" \
        else []
    code = main(argv + ["--system", str(path)] + out)
    assert code in (0, 3, 4, 5)
    assert "Traceback" not in capsys.readouterr().err
    if name == "fir-tail" and argv[0] == "compound":
        assert code == 5
    if name in ("overflow-compound", "overflow-residues") and argv[:3] in (
            ["check", "--operator", "hankel"],
            ["check", "--operator", "toeplitz"]):
        assert code == 5  # BudgetExceededError, not a usage error
    if name.startswith("overflow-") and argv == ["compound", "--j", "2"]:
        assert code == 5  # the residue formula leaves the doubles

class TestSysfile:
    def test_parse_partial_fractions(self):
        sys = parse_system(DEMO_TEXT)
        assert isinstance(sys, PartialFractionSystem)
        assert sys.poles == (0.9, 0.5, 0.1)

    def test_parse_rational(self):
        sys = parse_system("num = [1, 0]\nden = [1, -1.4, 0.45]\n")
        assert isinstance(sys, RationalTransferFunction)
        assert sys.den == (1.0, -1.4, 0.45)

    def test_parse_state_space_multiline(self):
        text = """A = [[0.9, 0.0],
                       [0.0, 0.5]]
                  b = [2.25, -1.25]
                  c = [1, 1]
               """
        sys = parse_system(text)
        assert isinstance(sys, StateSpace)
        assert sys.A[1, 1] == 0.5

    def test_mixed_keys_rejected(self):
        with pytest.raises(ParseError):
            parse_system("poles = [0.5]\nnum = [1]\nden = [1, -0.5]\n"
                         "residues = [1]")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_system("   \n# only a comment\n")

    @pytest.mark.parametrize("text", [
        "poles = [True]\nresidues = [1.0]\n",
        "poles = [0.5]\nresidues = False\n",
        "A = [[True]]\nb = [1.0]\nc = [1.0]\n",
        "num = [1e400]\nden = [1.0, 0.5]\n",
        "num = [1.0]\nden = [1e400, 1.0]\n",
        "num = [1e10]\nden = [1e-300, 1.0]\n",
    ], ids=["bool-pole", "bool-residues", "bool-A", "inf-num", "inf-den",
            "monic-overflow"])
    def test_boolean_or_non_finite_rejected(self, text):
        with pytest.raises(ParseError):
            parse_system(text)

    def test_round_trip_all_forms(self):
        systems = [
            PartialFractionSystem(((0.9, 0.9), (0.5, 0.5), (-0.1, 0.1))),
            RationalTransferFunction((1.0, 0.0), (1.0, -1.4, 0.45)),
            StateSpace(np.diag([0.9, 0.5]), [2.25, -1.25], [1.0, 1.0]),
        ]
        for sys in systems:
            back = parse_system(serialize_system(sys))
            ga = impulse_response(sys, 64)
            gb = impulse_response(back, 64)
            scale = max(abs(v) for v in ga.values)
            for t in range(65):
                assert abs(ga.value(t) - gb.value(t)) <= 1e-9 * max(
                    scale, 1.0)

    def test_round_trip_keeps_tiny_fir_sample(self):
        sys = PartialFractionSystem(((1.0, 0.5),), Signal(1, (0.0, 1e-13)))
        back = parse_system(serialize_system(sys))
        assert back.fir == Signal(2, (1e-13,))
        assert back == sys


class TestCliCommands:
    def test_impulse_csv(self, demo_file, capsys):
        assert main(["impulse", "--system", demo_file,
                     "--horizon", "8"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "t,g"
        assert lines[1] == "0,0.0"
        assert lines[2].startswith("1,1.3")
        assert lines[3].startswith("2,1.05")

    def test_check_csv(self, demo_file, capsys):
        assert main(["check", "--system", demo_file, "--operator",
                     "hankel", "--k", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out == ("property,k,verdict,horizon,t0\n"
                                           "hankel-k,2,certified,64,1\n")

    @pytest.mark.parametrize("command", [
        ["impulse"], ["compound", "--j", "2"],
        ["decompose", "--operator", "hankel"],
        ["oracle", "--operator", "hankel"]])
    def test_format_is_check_only(self, demo_file, capsys, command):
        # Only ``check`` has a CSV rendering; the other commands reject the
        # option instead of printing text.
        assert main(command + ["--system", demo_file,
                               "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert [line for line in lines if "error:" in line] == [
            "vardim: error: unrecognized arguments: --format csv"]
        assert "Traceback" not in captured.err

    def test_impulse_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sys"
        bad.write_text("")
        assert main(["impulse", "--system", str(bad)]) == 2

    def test_check_exit_codes(self, demo_file):
        assert main(["check", "--system", demo_file, "--operator",
                     "hankel", "--k", "2"]) == 0
        assert main(["check", "--system", demo_file, "--operator",
                     "hankel", "--k", "3"]) == 4
        assert main(["check", "--system", demo_file, "--operator",
                     "toeplitz", "--k", "2"]) == 4

    def test_check_tiny_fir_sample_refuted(self, tmp_path, capsys):
        path = tmp_path / "fir.sys"
        path.write_text("poles = []\nresidues = []\nfir = [-1e-13]\n")
        assert main(["check", "--system", str(path), "--operator",
                     "external"]) == 4
        out = capsys.readouterr().out
        assert "verdict: refuted" in out
        assert "  time: 1\n" in out and "  value: -1e-13\n" in out

    def test_check_unsupported_exit_5(self, tmp_path):
        path = tmp_path / "zp.sys"
        path.write_text("poles = [0.9, 0.0]\nresidues = [1.0, 0.5]\n")
        assert main(["check", "--system", str(path), "--operator",
                     "toeplitz", "--k", "3"]) == 5

    def test_check_report_is_deterministic(self, demo_file, capsys):
        main(["check", "--system", demo_file, "--operator", "hankel",
              "--k", "2"])
        first = capsys.readouterr().out
        main(["check", "--system", demo_file, "--operator", "hankel",
              "--k", "2"])
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[0] == "property: hankel-k"

    def test_compound_report(self, demo_file, capsys):
        assert main(["compound", "--system", demo_file, "--j", "2",
                     "--horizon", "6"]) == 0
        out = capsys.readouterr().out
        assert "poles: 0.45" in out
        assert "0.072" in out

    def test_compound_above_order(self, demo_file, capsys):
        assert main(["compound", "--system", demo_file, "--j", "4"]) == 0
        assert "identically zero" in capsys.readouterr().out

    def test_decompose_round_trip(self, tmp_path, capsys):
        src = tmp_path / "alt.sys"
        src.write_text("num = [1, 0]\nden = [1, -1.4, 0.45]\n")
        prefix = str(tmp_path / "out.")
        assert main(["decompose", "--system", str(src), "--operator",
                     "toeplitz", "--k", "2", "--out", prefix]) == 0
        remainder = load_system(prefix + "remainder.sys")
        g = impulse_response(remainder, 16)
        want = impulse_response(
            PartialFractionSystem(((1.0, 0.5),)), 16)
        np.testing.assert_allclose(g.to_array(), want.to_array(),
                                   rtol=1e-9, atol=1e-12)

    def test_decompose_emits_checkable_files(self, demo_file, tmp_path,
                                             capsys):
        prefix = str(tmp_path / "dec.")
        assert main(["decompose", "--system", demo_file, "--operator",
                     "hankel", "--k", "2", "--out", prefix]) == 0
        assert main(["check", "--system", prefix + "dominant.sys",
                     "--operator", "hankel", "--k", "2"]) == 0

    def test_decompose_zero_remainder(self, tmp_path, capsys):
        src = tmp_path / "bank.sys"
        src.write_text("poles = [0.9, 0.5]\nresidues = [1.0, 1.0]\n")
        prefix = str(tmp_path / "dec.")
        assert main(["decompose", "--system", str(src), "--operator",
                     "hankel", "--k", "2", "--out", prefix]) == 0
        with open(prefix + "remainder.sys", encoding="utf-8") as fh:
            assert fh.read() == "poles = []\nresidues = []\n"
        assert load_system(prefix + "remainder.sys").is_zero()

    def test_oracle_pass_and_fail(self, demo_file, tmp_path):
        good = tmp_path / "bank.sys"
        good.write_text("poles = [0.9, 0.5]\nresidues = [1.0, 1.0]\n")
        assert main(["oracle", "--system", str(good), "--operator",
                     "hankel", "--k", "2", "--input-length", "5",
                     "--horizon", "10"]) == 0
        assert main(["oracle", "--system", demo_file, "--operator",
                     "toeplitz", "--k", "2", "--input-length", "5",
                     "--horizon", "10"]) == 4

    def test_oracle_order_one_refutes_negative_lag(self, tmp_path):
        path = tmp_path / "neg.sys"
        path.write_text("poles = [0.5]\nresidues = [-1.0]\n")
        for operator in ("hankel", "toeplitz"):
            assert main(["oracle", "--system", str(path), "--operator",
                         operator, "--k", "1", "--input-length", "4"]) == 4

    def test_oracle_alphabet_with_leading_minus(self, demo_file, capsys):
        argv = ["oracle", "--system", demo_file, "--operator", "hankel",
                "--k", "2", "--input-length", "5", "--horizon", "10"]
        assert main(argv + ["--alphabet", "-1,1"]) == 2
        capsys.readouterr()
        code = main(argv + ["--alphabet=-1,1"])
        out = capsys.readouterr().out.splitlines()
        rep = ovd_verify(load_system(demo_file), "hankel", 2, 5, 10,
                         alphabet=(-1.0, 1.0))
        assert code == (0 if rep.passed else 4)
        assert out[2:5] == [f"inputs-checked: {rep.inputs_checked}",
                            f"rank: {rep.rank}",
                            f"passed: {'yes' if rep.passed else 'no'}"]
        assert len(out) == 5 + min(len(rep.violations), 8)
        # Of the 2^5 inputs over -1,1, those with at most k-1 = 1 sign
        # change: 2 with none and 8 with one.
        assert rep.inputs_checked == 10

    @pytest.mark.parametrize("argv", [
        ["check", "--operator", "hankel", "--k", "0"],
        ["compound", "--j", "0"],
        ["impulse", "--horizon", "0"],
        ["decompose", "--operator", "hankel", "--k", "0"],
        ["decompose", "--operator", "hankel", "--k", "5"],
        ["oracle", "--operator", "hankel", "--alphabet", "1,x"],
        ["oracle", "--operator", "hankel", "--k", "0"],
        ["oracle", "--operator", "hankel", "--horizon", "0"],
        ["check", "--operator", "external", "--horizon", "0"],
        ["check", "--operator", "hankel-total", "--horizon", "-3"],
        ["compound", "--j", "5", "--horizon", "0"],
        ["decompose", "--operator", "toeplitz", "--horizon", "0"],
    ])
    def test_usage_errors_exit_2(self, demo_file, tmp_path, capsys, argv):
        out = ["--out", str(tmp_path / "dec.")] if argv[0] == "decompose" \
            else []
        assert main(argv + ["--system", demo_file] + out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("dec.*"))

    def test_heavyball_exit_codes(self):
        assert main(["heavyball", "--a", "1", "--alpha", "1",
                     "--beta", "4"]) == 0
        assert main(["heavyball", "--a", "1", "--alpha", "1",
                     "--beta", "3"]) == 4

    def test_scenario_blocks(self, capsys):
        assert main(["scenario", "--name", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("# scenario:") == 3
        assert "# scenario: hankel-diminish" in out
        assert "t,u,y,dy" in out

    def test_scenario_to_file_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scenario", "--name", "toeplitz-growth", "--out", str(p1)])
        main(["scenario", "--name", "toeplitz-growth", "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()
        assert b"13.0" in p1.read_bytes()


@pytest.mark.parametrize("operator", ["hankel", "toeplitz"])
def test_oracle_negative_input_length_exits_2(operator, demo_file, capsys):
    assert main(["oracle", "--operator", operator, "--k", "2",
                 "--input-length", "-1", "--system", demo_file]) == 2
    assert capsys.readouterr().err == "error: input length must be >= 0\n"
