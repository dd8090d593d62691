import itertools
import json
from fractions import Fraction as F

import jsonschema
import pytest

import oscqgt.qgt
from oscqgt import cli
from oscqgt.scalar_algebra import ScalarSeries


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_text_quartic(self, capsys):
        code, out, _ = run(["compute", "--model", "quartic", "--order", "1"], capsys)
        assert code == 0
        assert "1/32 * a^-2 - 11/512 * l * a^-7/2" in out
        assert "13/6144 * a^-3 - 31/12288 * l * a^-9/2" in out
        assert "1/128 * a^-5/2 - 89/12288 * l * a^-4" in out
        assert "1/196608 * a^-5 - 35/3145728 * l * a^-13/2" in out
        assert "16/35 * a^3/2" in out

    def test_text_linear_with_numbers(self, capsys):
        code, out, _ = run(
            ["compute", "--model", "linear", "--alpha", "1", "--j", "0"], capsys
        )
        assert code == 0
        assert "G_j,j = 1/2 * a^-3/2 = 0.5" in out

    def test_order_zero_free_theory(self, capsys):
        code, out, _ = run(["compute", "--model", "quartic", "--order", "0"], capsys)
        assert code == 0
        assert "l" not in out.split("G_alpha,alpha = ")[1].splitlines()[0]

    def test_json_round_trips_exact_coefficients(self, capsys):
        code, out, _ = run(
            ["compute", "--model", "quartic", "--order", "1", "--format", "json"], capsys
        )
        record = json.loads(out)
        entry = record["components"]["lambda,lambda"]["series"]
        assert {"num": 13, "den": 6144, "alpha_half_pow": -6, "lambda_pow": 0, "j_pow": 0} in entry
        rebuilt = ScalarSeries.from_terms(
            ScalarSeries.term(
                F(t["num"], t["den"]), t["alpha_half_pow"], t["lambda_pow"], t["j_pow"]
            ).terms[0]
            for t in entry
        )
        assert rebuilt == ScalarSeries.parse(record["components"]["lambda,lambda"]["text"])

    def test_json_validates_against_schema(self, capsys):
        for argv in (
            ["compute", "--model", "quartic", "--order", "1", "--format", "json"],
            ["compute", "--model", "linear", "--alpha", "2", "--j", "0.5", "--format", "json"],
            ["compute", "--model", "monomial:3", "--order", "1", "--format", "json"],
        ):
            _, out, _ = run(argv, capsys)
            jsonschema.validate(json.loads(out), cli.RECORD_SCHEMA)

    def test_output_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(
                [
                    "compute", "--model", "quartic", "--order", "1",
                    "--alpha", "1.0", "--lambda", "0.05",
                    "--format", "json", "--out", str(p),
                ],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_verbose_dumps_one_line_per_product(self, capsys):
        argv = ["compute", "--model", "quartic", "--order", "1"]
        _, plain, _ = run(argv, capsys)
        code, out, err = run(["--verbose"] + argv, capsys)
        assert code == 0
        assert out == plain
        space = oscqgt.qgt.ParameterSpace.quartic()
        n_products = sum(
            len(products)
            for a, b in itertools.combinations_with_replacement(space.labels, 2)
            for products in oscqgt.qgt.component_integrand(space, a, b, 1).values()
        )
        lines = [line for line in err.splitlines() if not line.startswith("# integrand")]
        assert len(lines) == n_products
        for line in lines:
            ScalarSeries.parse(line.rsplit(" = ", 1)[1])
        assert "  2 * D(tau1,tau2) D(tau1,tau2) = 1/8 * a^-2" in lines

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["compute", "--model", "quartic", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "entry,text,numeric_value"
        assert any(line.startswith("critical_coupling,16/35") for line in out.splitlines())


class TestExitCodes:
    def test_invalid_model(self, capsys):
        code, _, err = run(["compute", "--model", "pentic"], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "unknown model" in err

    def test_nonpositive_alpha(self, capsys):
        code, _, err = run(["compute", "--model", "linear", "--alpha", "-1"], capsys)
        assert code == cli.EXIT_BAD_CONFIG

    def test_order_above_cap(self, capsys):
        code, _, err = run(["compute", "--model", "quartic", "--order", "9"], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "QGT_MAX_ORDER" in err

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.MAX_ORDER_ENV, "0")
        code, _, err = run(["compute", "--model", "quartic", "--order", "1"], capsys)
        assert code == cli.EXIT_BAD_CONFIG

    def test_nonfinite_parameter(self, capsys):
        code, _, _ = run(["compute", "--model", "quartic", "--alpha", "nan"], capsys)
        assert code == cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--alphas", "1", "--lambdas", "5", "--basis-size", "16"],
            ["sweep", "--model", "monomial:3", "--lambdas", "0.3"],
        ],
    )
    def test_oracle_failure(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_ORACLE
        assert out == ""
        assert err.startswith("oracle failure: BasisTooSmall: ")
        assert err.count("\n") == 1


class TestDiagrams:
    @pytest.mark.parametrize(
        "component,expected",
        [("alpha,alpha", 2), ("lambda,lambda", 8), ("alpha,lambda", 4)],
    )
    def test_first_order_term_counts(self, component, expected, tmp_path, capsys):
        code, out, _ = run(
            [
                "diagrams", "--model", "quartic", "--component", component,
                "--order", "1", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        files = sorted(tmp_path.glob("*.dot"))
        assert len(files) == expected
        text = files[0].read_text()
        assert text.startswith("graph ")
        assert "--" in text

    def test_order_zero_single_diagram(self, tmp_path, capsys):
        code, _, _ = run(
            [
                "diagrams", "--model", "quartic", "--component", "alpha,alpha",
                "--order", "0", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert len(list(tmp_path.glob("*.dot"))) == 1


class TestSweep:
    def test_free_theory_rows(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            [
                "sweep", "--model", "quartic", "--alphas", "0.5,1.0,2.0",
                "--lambdas", "0.0", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        assert len(lines) == 1 + 3 * 4  # 3 points x 4 ordered entries
        # symbolic equals oracle to 1e-6 at lambda = 0
        import csv as _csv

        with open(out_path) as fh:
            for row in _csv.DictReader(fh):
                assert abs(float(row["abs_deviation"])) < 1e-6

    def test_empty_grid_header_only(self, tmp_path, capsys):
        out_path = tmp_path / "empty.csv"
        code, _, _ = run(
            ["sweep", "--model", "quartic", "--lambdas", "", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out_path.read_text() == ",".join(cli.SWEEP_COLUMNS) + "\n"

    def test_sweep_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            path = tmp_path / name
            run(
                [
                    "sweep", "--model", "linear", "--alphas", "1.0,2.0",
                    "--js", "0.0,0.5", "--out", str(path),
                ],
                capsys,
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestVerify:
    def test_broken_prefactor_fails_naming_the_component(self, capsys, monkeypatch):
        real = oscqgt.qgt.qgt_component

        def broken(space, a, b, *args, **kwargs):
            series = real(space, a, b, *args, **kwargs)
            if (a, b) == ("j", "j"):
                return series * 2  # injected prefactor fault
            return series

        monkeypatch.setattr(oscqgt.qgt, "qgt_component", broken)
        code, out, _ = run(["verify", "linear"], capsys)
        assert code == cli.EXIT_VERIFY_FAILED
        failing = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert failing
        assert all("g(j,j)" in line for line in failing)
