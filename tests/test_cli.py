"""CLI tests: exit codes, report structure, and the four subcommands."""

import json
import time
from pathlib import Path

import pytest

from ftkcenter.bottleneck import SolveResult
from ftkcenter.cli import ALGORITHMS, main
from ftkcenter.instance import ContractViolation, MetricInstance, save_instance
from ftkcenter.verify import VerifyReport

LINE4 = [(0, 0), (1, 0), (2, 0), (3, 0)]


@pytest.fixture
def files(tmp_path):
    """Instance files used across the CLI tests, keyed by short name."""
    paths = {}

    def put(name, inst):
        p = tmp_path / f"{name}.json"
        save_instance(inst, str(p))
        paths[name] = str(p)

    put("ft", MetricInstance.from_points(LINE4, 2, 1, [4] * 4, name="line4"))
    put("cons", MetricInstance.from_points(
        LINE4, 2, 1, [4] * 4, variant="conservative", name="line4c"))
    put("tight", MetricInstance.from_points(LINE4, 2, 1, [1] * 4, name="tight"))
    paths["dir"] = str(tmp_path)
    return paths


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestSolve:
    def test_full_report_with_oracle(self, files, tmp_path):
        out = str(tmp_path / "report.json")
        rc = main(["solve", "--input", files["ft"], "--alg", "ft-general",
                   "--with-oracle", "--output", out])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        assert rep["algorithm"] == "ft-general"
        assert rep["instance"] == "line4"
        assert (rep["n"], rep["k"], rep["alpha"], rep["variant"]) == (4, 2, 1, "ft")
        assert rep["feasible"] is True
        assert rep["tau_star"] == "2"
        assert rep["tau_star_sq"] == "4"
        assert rep["stretch"] == 10
        assert rep["radius_bound"] == "20"
        assert rep["radius_bound_sq"] == "400"
        assert rep["centers"] == [0, 1]
        assert rep["initial_assignment"] == {"0": 0, "1": 0, "2": 0, "3": 0}
        assert rep["verified"] is True
        assert rep["oracle_opt"] == "2"
        assert rep["oracle_opt_sq"] == "4"
        assert rep["ratio_sq"] == "100"

    def test_infeasible_exits_2(self, files, tmp_path):
        out = str(tmp_path / "report.json")
        rc = main(["solve", "--input", files["tight"], "--alg", "ft-general",
                   "--output", out])
        assert rc == 2
        rep = json.loads(Path(out).read_text())
        assert rep["feasible"] is False
        assert rep["infeasible_at"] == "3"
        assert rep["infeasible_at_sq"] == "9"
        assert rep["reason"] == "best 1 surviving capacities cover 1 < 4 clients"
        assert "centers" not in rep

    def test_stdout_default(self, files, capsys):
        rc = main(["solve", "--input", files["ft"], "--alg", "ft-0l"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["algorithm"] == "ft-0l"
        assert rep["stretch"] == 6

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_every_algorithm_runs(self, alg, files, tmp_path):
        key = "cons" if alg.startswith("cons") else "ft"
        out = str(tmp_path / f"{alg}.json")
        rc = main(["solve", "--input", files[key], "--alg", alg, "--output", out])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        assert rep["algorithm"] == alg
        assert rep["verified"] is True
        assert rep["tau_star_sq"] == "4"

    def test_irrational_radius_beyond_float_range(self, tmp_path, capsys):
        """tau* = sqrt(1e400 + 1) has no float; it prints from integer
        square roots, so the solve exits 0 without a traceback."""
        p = write_json(tmp_path, "big.json", {
            "name": "big", "n": 2, "k": 1, "alpha": 0, "variant": "ft",
            "capacities": [2, 2], "points": [[0, 0], [1e200, 1]]})
        assert main(["solve", "--input", p, "--alg", "ft-general"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["tau_star"] == "1e+200" and rep["radius_bound"] == "1e+201"
        assert rep["tau_star_sq"] == str(10**400 + 1)
        assert rep["verified"] is True

    def test_alpha_bound_gate(self, tmp_path, capsys):
        inst = MetricInstance.from_points([(5, 5)] * 6, 5, 4, [6] * 6, name="same6")
        p = str(tmp_path / "same6.json")
        save_instance(inst, p)
        assert main(["solve", "--input", p, "--alg", "ft-general"]) == 1
        assert "scenario-enumeration bound" in capsys.readouterr().err
        out = str(tmp_path / "r.json")
        assert main(["solve", "--input", p, "--alg", "ft-general",
                     "--alpha-bound", "4", "--output", out]) == 0
        assert json.loads(Path(out).read_text())["tau_star_sq"] == "0"

    def test_oracle_skipped_when_too_big(self, tmp_path):
        inst = MetricInstance.from_points(
            [(i, 0) for i in range(11)], 3, 1, [11] * 11, name="line11")
        p = str(tmp_path / "line11.json")
        save_instance(inst, p)
        out = str(tmp_path / "r.json")
        rc = main(["solve", "--input", p, "--alg", "ft-0l",
                   "--with-oracle", "--output", out])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        assert rep["oracle_skipped"] == "n=11 exceeds max_n=10"
        assert "oracle_opt" not in rep


class TestVerify:
    def test_ft_accept(self, files, tmp_path):
        sol = write_json(tmp_path, "sol.json", {"centers": [1, 2]})
        out = str(tmp_path / "v.json")
        rc = main(["verify", "--input", files["ft"], "--solution", sol,
                   "--radius", "2", "--output", out])
        assert rc == 0
        assert json.loads(Path(out).read_text()) == {"ok": True, "detail": "all scenarios served"}

    def test_ft_reject_small_radius(self, files, tmp_path):
        sol = write_json(tmp_path, "sol.json", {"centers": [1, 2]})
        out = str(tmp_path / "v.json")
        rc = main(["verify", "--input", files["ft"], "--solution", sol,
                   "--radius", "1.5", "--output", out])
        assert rc == 2
        rep = json.loads(Path(out).read_text())
        assert rep["ok"] is False
        assert "see capacity" in rep["detail"]

    def test_conservative_accept(self, files, tmp_path):
        sol = write_json(tmp_path, "sol.json", {
            "centers": [1, 2],
            "initial_assignment": {"0": 1, "1": 1, "2": 2, "3": 2},
        })
        out = str(tmp_path / "v.json")
        rc = main(["verify", "--input", files["cons"], "--solution", sol,
                   "--radius", "2", "--output", out])
        assert rc == 0
        rep = json.loads(Path(out).read_text())
        assert rep == {"ok": True, "detail": "base assignment and all repairs served"}

    def test_conservative_needs_assignment(self, files, tmp_path, capsys):
        sol = write_json(tmp_path, "sol.json", {"centers": [1, 2]})
        rc = main(["verify", "--input", files["cons"], "--solution", sol,
                   "--radius", "2"])
        assert rc == 1
        assert "initial_assignment" in capsys.readouterr().err

    def test_solution_needs_centers(self, files, tmp_path, capsys):
        sol = write_json(tmp_path, "sol.json", {"radius": 2})
        rc = main(["verify", "--input", files["ft"], "--solution", sol,
                   "--radius", "2"])
        assert rc == 1
        assert "needs a 'centers' list" in capsys.readouterr().err

    @pytest.mark.parametrize("centers", [5, [[0]], [True, 0], [0.5, 0]],
                             ids=["int", "nested", "bool", "fraction"])
    def test_centers_must_be_int_list(self, files, tmp_path, capsys, centers):
        sol = write_json(tmp_path, "sol.json", {"centers": centers})
        rc = main(["verify", "--input", files["ft"], "--solution", sol,
                   "--radius", "2"])
        assert rc == 1
        assert "'centers' must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "phi0",
        [
            [0, 0, 1, 1],
            {"0": [1], "1": 1, "2": 2, "3": 2},
            {"0": 1, "1": 1, "01": 1, "2": 2, "3": 2},  # "1" and "01" name one vertex
            {"0": 1, " 1": 1, "2": 2, "3": 2},
            {"0": 1, "1": 1, "2": 2, "x": 2},
            {"0": 1, "1": 1, "2": 2, "3": 2, "4": 2},
        ],
        ids=["list", "nested", "leading-zero-key", "space-key", "word-key", "out-of-range-key"],
    )
    def test_initial_assignment_must_map_to_ints(self, files, tmp_path, capsys, phi0):
        sol = write_json(tmp_path, "sol.json", {"centers": [1, 2], "initial_assignment": phi0})
        rc = main(["verify", "--input", files["cons"], "--solution", sol,
                   "--radius", "2"])
        assert rc == 1
        assert "'initial_assignment' must map" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["1/0", "two", "-1", pytest.param("x" * 5001, id="long")])
    def test_radius_must_be_a_number(self, files, tmp_path, capsys, radius):
        """The message echoes at most 40 characters of the text."""
        sol = write_json(tmp_path, "sol.json", {"centers": [1, 2]})
        rc = main(["verify", "--input", files["ft"], "--solution", sol, "--radius", radius])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ftkc: ") and "radius must be" in err
        assert err.count("\n") == 1 and len(err) < 120

    def test_huge_radius_exponent_is_bad_input(self, files, tmp_path, capsys):
        """Fraction would build 10**999999999 in full; the exponent is
        refused first."""
        sol = write_json(tmp_path, "sol.json", {"centers": [1, 2]})
        t0 = time.perf_counter()
        rc = main(["verify", "--input", files["ft"], "--solution", sol,
                   "--radius", "1e999999999"])
        assert time.perf_counter() - t0 < 1
        assert rc == 1
        assert "decimal exponent beyond 4300" in capsys.readouterr().err


class TestGapAndBench:
    def test_gap_instance_file(self, tmp_path):
        out = str(tmp_path / "gap.json")
        assert main(["gap", "--s", "2", "--output", out]) == 0
        inst = json.loads(Path(out).read_text())
        assert inst["name"] == "gap-4"
        assert (inst["n"], inst["k"], inst["alpha"], inst["variant"]) == (4, 2, 1, "ft")

    def test_gap_stdout(self, capsys):
        assert main(["gap", "--s", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == "gap-4"

    def test_bench_jsonl(self, tmp_path):
        out = str(tmp_path / "bench.jsonl")
        rc = main(["bench", "--count", "3", "--n", "6", "--k", "2", "--alpha", "1",
                   "--alg", "ft-general", "--seed", "7", "--output", out])
        assert rc == 0
        lines = Path(out).read_text().strip().split("\n")
        assert len(lines) == 3
        for i, line in enumerate(lines):
            rep = json.loads(line)
            assert rep["instance"] == f"bench-{i}"
            assert rep["algorithm"] == "ft-general"
            assert rep["seconds"] >= 0

    def test_bench_exits_2_when_an_answer_fails_verification(self, capsys, monkeypatch):
        argv = ["bench", "--count", "2", "--n", "8", "--k", "3", "--alpha", "1",
                "--alg", "ft-general", "--seed", "0"]
        assert main(argv) == 0
        monkeypatch.setattr(SolveResult, "verify", lambda self: VerifyReport(False, "patched"))
        assert main(argv) == 2
        reports = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
        assert [r.get("verified") for r in reports[-2:]] == [False, False]
        # an infeasible instance has no answer to verify: k = 2 leaves one survivor
        argv[argv.index("--k") + 1] = "2"
        assert main(argv) == 0
        reports = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
        assert [r["feasible"] for r in reports] == [False, False]

    def test_bench_is_seed_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{tag}.jsonl")
            main(["bench", "--count", "2", "--n", "5", "--k", "2", "--alpha", "0",
                  "--alg", "cons-0l", "--caps", "uniform",
                  "--seed", "3", "--output", out])
            body = Path(out).read_text()
            outs.append("\n".join(
                json.dumps({k: v for k, v in json.loads(l).items() if k != "seconds"})
                for l in body.strip().split("\n")))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("alg", ["ft-0l", "cons-0l"])
    def test_bench_draws_zero_l_capacities_for_the_zero_l_algorithms(self, alg, capsys):
        """Without --caps, the {0,L} algorithms get {0,L} instances, which
        they accept; an explicit --caps general still wins and stops them
        at the first instance."""
        assert main(["bench", "--count", "1", "--alg", alg]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == alg
        assert main(["bench", "--count", "1", "--alg", alg, "--caps", "general"]) == 1
        assert "{0,L}" in capsys.readouterr().err

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_bench_draws_the_variant_of_the_algorithm(self, alg, capsys):
        """The variant and, without --caps, the capacity form follow --alg."""
        assert main(["bench", "--count", "1", "--n", "5", "--k", "2", "--alpha", "0",
                     "--alg", alg]) == 0
        assert json.loads(capsys.readouterr().out)["variant"] == ALGORITHMS[alg][0]


class TestErrorPaths:
    @pytest.mark.parametrize("flag, value, message", [
        ("--count", "-1", "ftkc: --count must be nonnegative, got -1\n"),
        ("--n", "-3", "ftkc: need at least one vertex\n"),
    ])
    def test_bench_negative_size_is_bad_input(self, capsys, flag, value, message):
        assert main(["bench", "--alg", "ft-general", flag, value]) == 1
        assert capsys.readouterr() == ("", message)

    def test_missing_input(self, capsys):
        rc = main(["solve", "--input", "definitely-not-here.json", "--alg", "ft-0l"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ftkc:")

    @pytest.mark.parametrize("kind", ["input", "solution"])
    def test_deep_nesting_is_bad_input(self, files, tmp_path, capsys, kind):
        """The JSON decoder recurses once per bracket; past the interpreter's
        limit that is a malformed file, not a traceback."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        if kind == "input":
            argv = ["solve", "--input", str(deep), "--alg", "ft-general"]
        else:
            argv = ["verify", "--input", files["ft"], "--solution", str(deep), "--radius", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "ftkc: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("number", ["3" * 4301 + ".5", "3" * 4301, "radius"],
                             ids=["float", "int", "radius"])
    def test_long_number_is_bad_input(self, files, tmp_path, capsys, number):
        """The interpreter refuses to read a number of more than 4300
        digits, in instance JSON or as --radius; that is bad input, and the
        message names the limit and echoes 40 characters."""
        if number == "radius":
            sol = write_json(tmp_path, "sol.json", {"centers": [1, 2]})
            argv = ["verify", "--input", files["ft"], "--solution", sol, "--radius", "9" * 5001]
        else:
            text = ('{"name": "long", "n": 2, "k": 1, "alpha": 0, "variant": "ft", '
                    f'"capacities": [2, 2], "points": [[0, 0], [{number}, 1]]}}')
            path = tmp_path / "long.json"
            path.write_text(text)
            argv = ["solve", "--input", str(path), "--alg", "ft-general"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ftkc: number of more than 4300 digits: '")
        assert len(err) < 200 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--input", "{dir}", "--alg", "ft-general"],
            ["verify", "--input", "{ft}", "--solution", "{dir}", "--radius", "2"],
            ["solve", "--input", "{ft}", "--alg", "ft-general", "--output", "{dir}"],
        ],
        ids=["input", "solution", "output"],
    )
    def test_unreadable_path_is_bad_input(self, files, capsys, argv):
        """Any OSError opening a file (here a directory) exits 1 with the
        system's message."""
        rc = main([a.format(**files) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ftkc: ") and "Is a directory" in err

    def test_usage_error_exits_1(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", files["ft"], "--alg", "not-an-alg"])
        assert exc.value.code == 1

    def test_contract_violation_reported(self, files, capsys, monkeypatch):
        def boom(inst, alpha_bound):
            raise ContractViolation("deliberate test failure")

        monkeypatch.setattr("ftkcenter.cli.solve_ft_general", boom)
        rc = main(["solve", "--input", files["ft"], "--alg", "ft-general"])
        assert rc == 3
        assert "internal guarantee violated: deliberate test failure" in capsys.readouterr().err
