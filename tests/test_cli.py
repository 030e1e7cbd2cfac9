import json
import subprocess
import sys

import numpy as np
import pytest

from tcpkit.cli import main
from tcpkit.tensor import tensor_from_dense, tensor_from_json, tensor_to_json
from tcpkit import fixtures as fx


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out else None


class TestClassify:
    def test_e1(self, capsys):
        code, rep = run_json(capsys, "classify", "--fixture", "E1")
        assert code == 0
        v = rep["verdicts"]
        assert v["copositive"]["status"] == "holds"
        assert v["strictly-copositive"]["status"] == "fails"
        assert v["K-nonsingular"]["status"] == "holds"

    def test_e2_singular(self, capsys):
        code, rep = run_json(capsys, "classify", "--fixture", "E2")
        assert code == 0
        vd = rep["verdicts"]["K-nonsingular"]
        assert vd["status"] == "fails"
        assert vd["witness"] is not None

    def test_e4_principal(self, capsys):
        code, rep = run_json(capsys, "classify", "--fixture", "E4", "--principal")
        assert code == 0
        assert rep["verdicts"]["all-principal-nonsingular"]["status"] == "holds"

    def test_exit_zero_on_fails_verdicts(self, capsys):
        code, _ = run_json(capsys, "classify", "--fixture", "E2")
        assert code == 0

    def test_tensor_file(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps(tensor_to_json(fx.E1())))
        code, rep = run_json(capsys, "classify", "--tensor", str(p))
        assert code == 0
        assert rep["verdicts"]["copositive"]["status"] == "holds"


class TestSolve:
    def test_e1_negative_q(self, capsys):
        code, rep = run_json(capsys, "solve", "--fixture", "E1", "--q=-1,-1")
        assert code == 0
        assert len(rep["solutions"]) == 1
        assert np.allclose(rep["solutions"][0]["x"], [0.57735] * 2, atol=1e-5)

    def test_trivial_zero(self, capsys):
        code, rep = run_json(capsys, "solve", "--fixture", "E4", "--q=1,1")
        assert code == 0
        assert np.allclose(rep["solutions"][0]["x"], 0.0)

    def test_certified_no_solution(self, capsys):
        code, rep = run_json(capsys, "solve", "--fixture", "E1", "--q=1,-1")
        assert code == 0
        assert rep["solutions"] == []
        assert "certified" in rep["note"]

    def test_uncertified_slack_failure_is_unknown(self, capsys, tmp_path):
        # support {1,3} has a root failing the slack test and an unproved
        # root list: solve must not claim a certified "no solution"
        M = [[1.325, -1.749, 1.302], [-1.342, -0.499, -0.733], [0.765, -1.286, -0.415]]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(tensor_to_json(tensor_from_dense(np.array(M)))))
        code, rep = run_json(capsys, "solve", "--tensor", str(p), "--q=-1.977,-0.950,-0.315")
        assert code == 3
        assert rep["unknown"] is True and rep["solutions"] == []
        assert "note" not in rep

    def test_instance_file(self, capsys, tmp_path):
        from tcpkit.cones import orthant
        from tcpkit.solver import TcpInstance, instance_to_json
        inst = TcpInstance(orthant(2), np.array([-1.0, -4.0]), fx.identity(3, 2))
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(instance_to_json(inst)))
        code, rep = run_json(capsys, "solve", "--instance", str(p))
        assert code == 0
        assert np.allclose(rep["solutions"][0]["x"], [1.0, 2.0], atol=1e-8)


class TestMembership:
    def test_member(self, capsys):
        code, rep = run_json(capsys, "membership", "--fixture", "E1", "--q=-1,-1")
        assert code == 0
        assert rep["result"]["member"] is True
        assert rep["result"]["alpha"] == [1, 2]

    def test_non_member(self, capsys):
        code, rep = run_json(capsys, "membership", "--fixture", "E1", "--q=1,-1")
        assert code == 0
        assert rep["result"]["member"] is False


class TestPerturb:
    def test_existence(self, capsys):
        code, rep = run_json(capsys, "perturb", "existence",
                             "--fixture", "identity32", "--q=-1,-1",
                             "--eps", "1e-3", "--trials", "10", "--seed", "7")
        assert code == 0
        assert rep["result"]["solvable_fraction"] == 1.0
        assert rep["config"]["eps"] == 1e-3 and rep["config"]["seed"] == 7

    def test_precondition_exit_code(self, capsys):
        code = main(["perturb", "openness", "--fixture", "E2",
                     "--trials", "3"])
        capsys.readouterr()
        assert code == 5


class TestPerturbUnreadFlags:
    """A perturb mode refuses a flag it does not read instead of echoing it."""

    @pytest.mark.parametrize("argv", [
        ["existence", "--fixture", "identity32", "--q=-1,-1", "--trials", "2",
         "--cone", "ice2"],
        ["error-bound", "--fixture", "identity32", "--q=-1,-1", "--xbar=1,1",
         "--cone", "orthant2"],
        ["uniqueness", "--fixture", "identity32", "--q=-1,-1", "--xbar=1,1",
         "--cone", "orthant2"],
        ["usc", "--fixture", "identity32", "--q=-1,-4", "--xbar=1,1"],
        ["unsolvable", "--fixture", "identity32", "--q=1,1", "--xbar=1,1"],
        ["openness", "--fixture", "E4", "--trials", "2", "--xbar=1,1"],
        ["openness", "--fixture", "E4", "--trials", "2", "--q=-1,-1"],
        ["uniqueness", "--fixture", "identity32", "--q=-1,-1", "--xbar=1,1", "--eps", "1e-3"],
        ["uniqueness", "--fixture", "identity32", "--q=-1,-1", "--xbar=1,1", "--trials", "5"],
        ["uniqueness", "--fixture", "identity32", "--q=-1,-1", "--xbar=1,1", "--radius", "0.1"],
        ["existence", "--fixture", "identity32", "--q=-1,-1", "--trials", "2", "--radius", "0.1"],
        ["usc", "--fixture", "identity32", "--q=-1,-4", "--trials", "2", "--radius", "0.2"],
        ["unsolvable", "--fixture", "identity32", "--q=1,1", "--radius", "0.1"],
        ["openness", "--fixture", "E4", "--trials", "2", "--radius", "0.1"],
    ])
    def test_parse_error(self, argv):
        proc = subprocess.run([sys.executable, "-m", "tcpkit.cli", "perturb", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("parse error:")

    @pytest.mark.parametrize("argv, echoed", [
        (["uniqueness", "--fixture", "identity32", "--q=-1,-1", "--xbar=1,1"], {}),
        (["existence", "--fixture", "identity32", "--q=-1,-1", "--trials", "2"],
         {"eps": 1e-3, "trials": 2}),
        (["error-bound", "--fixture", "identity32", "--q=-1,-1", "--xbar=1,1", "--trials", "2"],
         {"eps": 1e-3, "trials": 2, "radius": 0.1}),
        (["openness", "--fixture", "E4", "--eps", "1e-4", "--trials", "2"],
         {"eps": 1e-4, "trials": 2}),
    ])
    def test_config_echoes_what_the_mode_read(self, capsys, argv, echoed):
        # a read flag is echoed with its default when not given; an unread
        # one is not echoed at all
        code, rep = run_json(capsys, "perturb", *argv)
        assert code == 0
        assert {k: rep["config"][k] for k in ("eps", "trials", "radius")
                if k in rep["config"]} == echoed


class TestDistance:
    def test_ray_vs_orthant(self, capsys):
        code, rep = run_json(capsys, "distance", "--cone1", "orthant2",
                             "--cone2", "ray10", "--samples", "10000")
        assert code == 0
        assert rep["delta"] == pytest.approx(1.0, abs=0.02)

    def test_bad_cone_exit_code(self, capsys):
        code = main(["distance", "--cone1", "orthant2", "--cone2", "nope"])
        capsys.readouterr()
        assert code == 6

    def test_dim_mismatch_exit_code(self, capsys):
        code = main(["distance", "--cone1", "orthant2", "--cone2", "orthant3"])
        capsys.readouterr()
        assert code == 6


class TestFixturesCmd:
    def test_list(self, capsys):
        code, rep = run_json(capsys, "fixtures")
        assert code == 0
        assert {"E1", "E2", "E3", "E4"} <= set(rep["names"])

    def test_dump_round_trip(self, capsys):
        code, rep = run_json(capsys, "fixtures", "--name", "E4")
        assert code == 0
        A = tensor_from_json(rep["tensor"])
        assert dict(A.entries) == dict(fx.E4().entries)


class TestErrors:
    def test_parse_error_missing_file(self, capsys):
        code = main(["classify", "--tensor", "/no/such/file.json"])
        capsys.readouterr()
        assert code == 2

    def test_parse_error_bad_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        code = main(["classify", "--tensor", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line" in err and "column" in err

    def test_non_integral_tensor_file_is_parse_error(self, capsys, tmp_path):
        obj = tensor_to_json(fx.E1())
        obj["order"] = 2.7
        p = tmp_path / "t.json"
        p.write_text(json.dumps(obj))
        code = main(["classify", "--tensor", str(p)])
        assert code == 2
        assert "parse error: bad tensor file" in capsys.readouterr().err

    def test_unknown_fixture(self, capsys):
        code = main(["classify", "--fixture", "E99"])
        capsys.readouterr()
        assert code == 2

    def test_bad_vector(self, capsys):
        code = main(["solve", "--fixture", "E1", "--q", "1,zebra"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["membership", "--fixture", "E1", "--q=nan,1"],
        ["membership", "--fixture", "E1", "--q=inf,1"],
        ["solve", "--fixture", "E1", "--q=nan,1"],
        ["membership", "--fixture", "E1", "--q=-1"],
    ])
    def test_bad_q_is_parse_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error:")


    @pytest.mark.parametrize("argv", [
        ["classify", "--fixture", "E1", "--budget", "-1"],
        ["perturb", "existence", "--fixture", "identity32", "--q=-1,-1",
         "--eps", "nan"],
        ["perturb", "existence", "--fixture", "identity32", "--q=-1,-1",
         "--eps", "-1"],
        ["perturb", "existence", "--fixture", "identity32", "--q=-1,-1",
         "--trials", "0"],
        ["perturb", "error-bound", "--fixture", "identity32", "--q=-1,-1",
         "--xbar=1,1", "--radius", "nan"],
        ["perturb", "openness", "--fixture", "E4", "--trials", "-3"],
        ["distance", "--cone1", "orthant2", "--cone2", "ray10", "--samples", "0"],
        ["distance", "--cone1", "orthant2", "--cone2", "ray10", "--samples", "-5"],
    ])
    def test_bad_numeric_option_is_parse_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error:")


class TestRefusals:
    """Input the library refuses ends in one parse-error line and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--fixture", "identity33", "--cone", "ice2"],
        ["classify", "--fixture", "E1", "--cone", "nosuch"],
        ["classify", "--fixture", "E1", "--cone", "orthant7"],
        ["classify", "--fixture", "E1", "--cone", "orthantfoo"],
        ["perturb", "openness", "--fixture", "E4", "--cone", "nosuch", "--trials", "2"],
        ["perturb", "openness", "--fixture", "E4", "--cone", "orthant3", "--trials", "2"],
        ["solve", "--fixture", "identity213", "--q=" + ",".join(["-1"] * 13)],
        ["solve", "--fixture", "E1", "--q=-1,-1", "--tol", "nan"],
        ["solve", "--fixture", "E1", "--q=-1,-1", "--tol", "inf"],
        ["solve", "--fixture", "E1", "--q=-1,-1", "--tol=-1e-7"],
        # each perturb mode missing a flag it reads
        ["perturb", "existence", "--fixture", "identity32"],
        ["perturb", "error-bound", "--fixture", "identity32", "--xbar=1,1"],
        ["perturb", "error-bound", "--fixture", "identity32", "--q=-1,-1"],
        ["perturb", "usc", "--fixture", "identity32"],
        ["perturb", "unsolvable", "--fixture", "E1"],
        ["perturb", "uniqueness", "--fixture", "identity32", "--xbar=1,1"],
        ["perturb", "uniqueness", "--fixture", "identity32", "--q=-1,-1"],
        # an --xbar of the wrong length, as a --q of the wrong length
        ["perturb", "error-bound", "--fixture", "identity32", "--q=-1,-1", "--xbar=1,1,1"],
        ["perturb", "uniqueness", "--fixture", "identity32", "--q=-1,-1", "--xbar=1,1,1"],
        ["perturb", "uniqueness", "--fixture", "identity32", "--q=-1,-1", "--xbar=1"],
    ])
    def test_one_line_parse_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error:")
        assert captured.err.count("\n") == 1

    def test_non_orthant_instance_is_parse_error(self, tmp_path):
        from tcpkit.fixtures import cone_fixture
        from tcpkit.solver import TcpInstance, instance_to_json
        inst = TcpInstance(cone_fixture("ice2"), np.array([-1.0, -1.0]), fx.E1())
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(instance_to_json(inst)))
        proc = subprocess.run([sys.executable, "-m", "tcpkit.cli", "solve", "--instance", str(p)],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("parse error:")
        assert proc.stderr.count("\n") == 1


def test_import_skips_scipy_optimize():
    code = "import sys, tcpkit.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_distance_command_skips_scipy():
    code = ("import sys; from tcpkit.cli import main; "
            "main(['distance', '--cone1', 'orthant2', '--cone2', 'ray10', "
            "'--samples', '50']); print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["classify", "--fixture", "E1"],
        ["solve", "--fixture", "E1", "--q=-1,-1", "--all"],
        ["membership", "--fixture", "E4", "--q=-0.5,-1"],
        ["distance", "--cone1", "orthant2", "--cone2", "ice2",
         "--samples", "500"],
        ["perturb", "existence", "--fixture", "identity32", "--q=-1,-1",
         "--eps", "1e-3", "--trials", "5", "--seed", "9"],
        ["fixtures", "--name", "E3l7"],
    ])
    def test_byte_identical(self, capsys, argv):
        _, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2

    def test_pretty_is_same_data(self, capsys):
        _, rep1 = run_json(capsys, "classify", "--fixture", "E1")
        _, rep2 = run_json(capsys, "--pretty", "classify", "--fixture", "E1")
        assert rep1 == rep2
