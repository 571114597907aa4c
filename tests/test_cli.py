import json
import os
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import gradedk0.cli as cli_module
from gradedk0.scalars import is_squarefree
from conftest import run_python

GOLDEN = Path(__file__).parent / "golden"


def check_golden(name: str, text: str) -> None:
    path = GOLDEN / name
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert text == path.read_text(encoding="utf-8"), f"golden mismatch: {name}"


def write_job(tmp_path, doc) -> str:
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestCommands:
    def test_cone_check_r2(self, cli):
        code, out, _ = cli(["cone", "check", "--example", "R2"])
        assert code == 0
        assert "pointed: yes" in out
        assert "gamma0: (1,0)" in out

    def test_enumerate_matches_geometry_example(self, cli):
        code, out, _ = cli(
            ["enumerate", "--example", "R1", "--gamma0", "2,3", "--bound", "5"]
        )
        assert code == 0
        assert out.splitlines() == ["(0,0)", "(1,0)", "(0,1)", "(2,0)", "(1,1)"]

    def test_ring_eval_monoid_relation(self, cli):
        code, out, _ = cli(
            ["ring", "eval", "--example", "R2", "--expr", "U*W - V^2"]
        )
        assert code == 0
        assert out.strip() == "0"

    def test_ring_eval_nontrivial(self, cli):
        code, out, _ = cli(
            ["ring", "eval", "--example", "R1", "--expr", "(X + Y)^2 - X^2 - Y^2"]
        )
        assert code == 0
        assert out.strip() == "2*x^(1,1)"

    def test_k0_prints_monomials(self, cli):
        for shift, expected in [
            ("0,0", "t^(0,0)"),
            ("1,0", "t^(1,0)"),
            ("1,1", "t^(1,1)"),
            ("1,2", "t^(1,2)"),
        ]:
            code, out, _ = cli(["k0", "--example", "R2", "--shift", shift])
            assert code == 0
            assert out.strip() == expected

    def test_decompose_machine_doc(self, cli):
        code, out, _ = cli(
            ["decompose", "--example", "R1", "--format", "machine"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "decompose"
        assert doc["nilpotency_bound"] >= 0

    def test_filtration(self, cli):
        code, out, _ = cli(["filtration", "--example", "R1"])
        assert code == 0
        assert "window index k:" in out

    def test_hilbert(self, cli):
        code, out, _ = cli(["hilbert", "--example", "R2", "--bound", "6"])
        assert code == 0
        assert out.splitlines()[-1] == "convolution check: pass"

    def test_verify_human(self, cli):
        code, out, _ = cli(["verify", "--example", "R1", "--seed", "17"])
        assert code == 0
        assert out.splitlines()[-1] == "result: all checks passed"

    def test_job_module_flow(self, cli, tmp_path):
        job = write_job(
            tmp_path,
            {
                "scalars": "rational",
                "base": "rational",
                "cone": {"generators": [["1", "0"], ["0", "1"]]},
                "module": {
                    "shifts": [[0, 0], [1, 0]],
                    "idempotent": [
                        [
                            [{"exp": [0, 0], "coef": "1"}],
                            [{"exp": [1, 0], "coef": "1"}],
                        ],
                        [[], []],
                    ],
                },
            },
        )
        code, out, _ = cli(["k0", "--job", job])
        assert code == 0
        assert out.strip() == "t^(0,0)"
        code, out, _ = cli(["verify", "--job", job])
        assert code == 0


class TestExitCodes:
    def test_success_is_zero(self, cli):
        code, _, _ = cli(["cone", "check", "--example", "R1"])
        assert code == 0

    def test_usage_error_is_two(self, cli):
        code, _, _ = cli(["enumerate"])
        assert code == 2

    def test_job_syntax_error_is_two(self, cli, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        code, _, err = cli(["cone", "check", "--job", str(path)])
        assert code == 2
        assert "parse error" in err

    def test_validation_error_is_three(self, cli, tmp_path):
        job = write_job(
            tmp_path,
            {
                "scalars": "rational",
                "base": "rational",
                "cone": {"generators": [["1", "0"], ["0", "1"]]},
                "module": {
                    "shifts": [[0, 0]],
                    "idempotent": [[[{"exp": [0, 0], "coef": "2"}]]],
                },
            },
        )
        code, _, err = cli(["k0", "--job", job])
        assert code == 3
        assert "validation error" in err

    def test_bad_gamma0_is_three(self, cli):
        code, _, err = cli(
            ["enumerate", "--example", "R1", "--gamma0=0,1", "--bound", "3"]
        )
        assert code == 3
        assert "strictly positive" in err

    def test_check_failure_is_four(self, cli, tmp_path):
        job = write_job(
            tmp_path,
            {
                "scalars": "rational",
                "base": "rational",
                "cone": {"generators": [["1", "0"], ["-1", "0"]]},
            },
        )
        code, out, _ = cli(["cone", "check", "--job", job])
        assert code == 4
        assert "pointed: no" in out

    def test_missing_job_file_is_three(self, cli):
        code, _, _ = cli(["cone", "check", "--job", "/nonexistent/job.json"])
        assert code == 3

    @pytest.mark.parametrize("depth", [2000, 5000])
    def test_deeply_nested_expression_is_two(self, cli, depth):
        # 5000 levels overflow the parser, 2000 overflow the evaluator
        code, _, err = cli(
            ["ring", "eval", "--example", "R1", "--expr=" + "-" * depth + "X"]
        )
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("command", [["k0"], ["cone", "check"]])
    def test_deeply_nested_job_is_two(self, cli, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, _, err = cli(command + ["--job", str(path)])
        assert code == 2
        assert "parse error" in err

    def test_job_path_is_directory_is_three(self, cli, tmp_path):
        code, _, err = cli(["k0", "--job", str(tmp_path)])
        assert code == 3
        assert "validation error" in err

    @pytest.mark.parametrize("command", ["verify", "filtration"])
    def test_far_apart_shifts_are_three_quickly(self, cli, tmp_path, command):
        one = [{"exp": [0, 0], "coef": "1"}]
        job = write_job(
            tmp_path,
            {
                "scalars": "rational",
                "base": "rational",
                "cone": {"generators": [["1", "0"], ["0", "1"]]},
                "module": {
                    "shifts": [[0, 0], [10**6, 0]],
                    "idempotent": [[one, []], [[], one]],
                },
            },
        )
        start = time.perf_counter()
        code, _, err = cli([command, "--job", job])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "enumeration window is too large" in err

    def test_internal_error_is_five(self, cli, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("deliberate fault")

        monkeypatch.setattr(cli_module, "enumerate_window", boom)
        code, _, err = cli(["enumerate", "--example", "R1", "--bound", "2"])
        assert code == 5
        assert "internal error" in err


class TestRadicand:
    """A quadratic base is checked once per radicand, in bounded time."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        is_squarefree.cache_clear()

    @pytest.mark.parametrize("d", [1000000007, 2**61 - 1])
    def test_large_prime_radicand_is_quick(self, cli, d):
        start = time.perf_counter()
        code, out, _ = cli(["k0", "--example", "R1", "--base", f"quadratic:{d}"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.strip() == "t^(0,0)"

    def test_verify_with_large_prime_radicand(self, cli):
        code, out, _ = cli(["verify", "--example", "R1", "--base", "quadratic:1000000007"])
        assert code == 0
        assert out.splitlines()[-1] == "result: all checks passed"

    @pytest.mark.parametrize(
        "d, message",
        [
            ((10**6 + 3) * (10**12 + 39), "over budget"),
            ((10**7 + 19) ** 2, "must be squarefree"),
        ],
    )
    def test_undecided_or_square_radicand_is_three(self, cli, d, message):
        start = time.perf_counter()
        code, _, err = cli(["k0", "--example", "R1", "--base", f"quadratic:{d}"])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert message in err


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["gradedk0.cli", "gradedk0"])
    def test_same_output_as_main(self, cli, module):
        _, want, _ = cli(["k0", "--example", "R1"])
        proc = run_python(["-m", module, "k0", "--example", "R1"])
        assert proc.returncode == 0
        assert want and proc.stdout == want

    @pytest.mark.parametrize("module", ["gradedk0.cli", "gradedk0"])
    def test_unknown_command_is_two(self, module):
        assert run_python(["-m", module, "no-such-command"]).returncode == 2


class TestMachineOutput:
    def test_verify_schema(self, cli):
        schema = json.loads(
            resources.files("gradedk0.schemas")
            .joinpath("verify_report.schema.json")
            .read_text(encoding="utf-8")
        )
        for preset in ("R1", "R2", "R3"):
            code, out, _ = cli(
                ["verify", "--example", preset, "--seed", "17", "--format", "machine"]
            )
            assert code == 0
            doc = json.loads(out)
            jsonschema.validate(doc, schema)
            assert doc["all_passed"]

    def test_verdicts_match_between_formats(self, cli):
        code_h, human, _ = cli(["verify", "--example", "R2", "--seed", "17"])
        code_m, machine, _ = cli(
            ["verify", "--example", "R2", "--seed", "17", "--format", "machine"]
        )
        assert code_h == code_m == 0
        doc = json.loads(machine)
        for sample in doc["samples"]:
            token = "PASS" if sample["all_passed"] else "FAIL"
            assert f"{token} {sample['name']}" in human


class TestGoldenFiles:
    @pytest.mark.parametrize("preset", ["R1", "R2", "R3"])
    def test_verify_machine_golden(self, cli, preset):
        code, out, _ = cli(
            ["verify", "--example", preset, "--seed", "17", "--format", "machine"]
        )
        assert code == 0
        check_golden(f"verify_{preset}.json", out)

    @pytest.mark.parametrize("preset", ["R1", "R2", "R3"])
    def test_enumerate_golden(self, cli, preset):
        code, out, _ = cli(["enumerate", "--example", preset, "--bound", "4"])
        assert code == 0
        check_golden(f"enumerate_{preset}.txt", out)

    @pytest.mark.parametrize("preset", ["R1", "R2", "R3"])
    def test_cone_check_golden(self, cli, preset):
        code, out, _ = cli(["cone", "check", "--example", preset])
        assert code == 0
        check_golden(f"cone_check_{preset}.txt", out)
