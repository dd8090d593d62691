import itertools
import json
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest

import oscqgt
import oscqgt.qgt
from oracles import parse_series
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
        assert rebuilt == parse_series(record["components"]["lambda,lambda"]["text"])

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
        # the linear model's J vertices are degree-1 vertices s_i
        for model, space, expected in [
            ("quartic", oscqgt.qgt.ParameterSpace.quartic(),
             "  2 * D(tau1,tau2) D(tau1,tau2) = 1/8 * a^-2"),
            ("linear", oscqgt.qgt.ParameterSpace.linear_source(),
             "  4 * j^2 * D(s1,tau2) D(s2,tau1) D(tau1,tau2) = 2 * j^2 * a^-7/2"),
        ]:
            argv = ["compute", "--model", model, "--order", "1"]
            _, plain, _ = run(argv, capsys)
            code, out, err = run(["--verbose"] + argv, capsys)
            assert code == 0
            assert out == plain
            n_products = sum(
                len(products)
                for a, b in itertools.combinations_with_replacement(space.labels, 2)
                for products in oscqgt.qgt.component_integrand(space, a, b, 1).values()
            )
            lines = [line for line in err.splitlines() if not line.startswith("# integrand")]
            assert len(lines) == n_products
            for line in lines:
                parse_series(line.rsplit(" = ", 1)[1])
            assert expected in lines

    def test_odd_k_series_is_flagged_formal(self, capsys):
        code, out, err = run(["compute", "--model", "monomial:3", "--format", "json"], capsys)
        assert code == cli.EXIT_OK
        record = json.loads(out)
        jsonschema.validate(record, cli.RECORD_SCHEMA)
        assert "odd k=3 has no ground state for lambda != 0" in record["formal"]
        assert err == f"note: {record['formal']}\n"

    @pytest.mark.parametrize("model", ["linear", "quartic", "monomial:6", "monomial:1"])
    def test_series_with_a_ground_state_is_not_flagged(self, model, capsys):
        # lambda q with alpha > 0 is a shifted oscillator, so k = 1 has one
        code, out, err = run(["compute", "--model", model, "--format", "json"], capsys)
        assert code == cli.EXIT_OK
        assert "formal" not in json.loads(out)
        assert err == ""

    def test_linear_is_monomial_1_summed_exactly(self, capsys):
        # the linear model is monomial(1) with its coupling named j, summed to
        # its last order: a J vertex is a leaf, so no component passes J^2
        _, linear, _ = run(["compute", "--model", "linear", "--alpha", "1.3", "--j", "0.4"], capsys)
        _, monomial, _ = run(
            ["compute", "--model", "monomial:1", "--order", "2", "--alpha", "1.3", "--lambda", "0.4"],
            capsys,
        )
        assert linear.splitlines()[0] == "model: linear (k=1), order 1"
        renamed = re.sub(r"(?<![a-z])(lambda|l)(?![a-z])", "j", monomial)
        assert renamed.splitlines()[1:] == linear.splitlines()[1:]

    @pytest.mark.parametrize(
        "model,order",
        [("linear", 1), ("quartic", 2), ("monomial:6", 1), ("monomial:3", 1), ("monomial:1", 2)],
    )
    def test_metric_is_the_tensor_and_curvature_zero(self, model, order, capsys):
        # real deformations: G_ab = G_ba, so the record's metric repeats the
        # components and every curvature entry is the zero series
        argv = ["compute", "--model", model, "--order", str(order), "--alpha", "1.3"]
        _, out, _ = run(argv + ["--format", "json"], capsys)
        record = json.loads(out)
        assert record["metric"] == record["components"]
        assert set(record["curvature"]) == set(record["components"])
        for block in record["curvature"].values():
            assert block == {"series": [], "text": "0", "numeric_value": 0}

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["compute", "--model", "quartic", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "entry,text,numeric_value"
        assert any(line.startswith("critical_coupling,16/35") for line in out.splitlines())


class TestExitCodes:
    def test_invalid_model(self, capsys):
        for model, message in [
            ("pentic", "unknown model 'pentic'"),
            ("monomial:x", "integer >= 1, not 'x'"),
            ("monomial:0", "integer >= 1, not '0'"),
            ("monomial:\u00b2", "integer >= 1, not '\u00b2'"),
        ]:
            code, out, err = run(["compute", "--model", model], capsys)
            assert code == cli.EXIT_BAD_CONFIG
            assert out == ""
            assert err.startswith("invalid configuration: --model: ")
            assert message in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("cap", ["x", "2.5", "-1"])
    def test_bad_env_cap_names_the_variable(self, cap, capsys, monkeypatch):
        monkeypatch.setenv(cli.MAX_ORDER_ENV, cap)
        code, out, err = run(["compute", "--model", "quartic"], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err == (
            f"invalid configuration: QGT_MAX_ORDER must be a non-negative integer, not {cap!r}\n"
        )

    def test_linear_order_is_not_capped(self, tmp_path, capsys):
        # the linear series is exact at any order, so compute and sweep skip
        # the cap; diagrams expands at the order it is given and keeps it
        code, out, err = run(["compute", "--model", "linear", "--order", "4"], capsys)
        assert code == cli.EXIT_OK
        assert err == ""
        _, first_order, _ = run(["compute", "--model", "linear", "--order", "1"], capsys)
        assert out.splitlines()[1:] == first_order.splitlines()[1:]
        code, out, _ = run(["sweep", "--model", "linear", "--order", "4"], capsys)
        assert code == cli.EXIT_OK
        assert len(out.splitlines()) == 5
        code, _, err = run(
            ["diagrams", "--model", "linear", "--order", "4", "--out", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_BAD_CONFIG
        assert "QGT_MAX_ORDER" in err

    def test_nonfinite_parameter(self, capsys):
        code, _, _ = run(["compute", "--model", "quartic", "--alpha", "nan"], capsys)
        assert code == cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--alphas", "1", "--lambdas", "5", "--basis-size", "16"],
        ],
    )
    def test_oracle_failure(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_ORACLE
        assert out == ""
        assert err.startswith("oracle failure: BasisTooSmall: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--alphas", "-1", "--lambdas", "0.1"], "alpha must be > 0"),
            (["sweep", "--alphas", "0"], "alpha must be > 0"),
            (["sweep", "--alphas", "1,nan"], "parameter alpha must be finite"),
            (["sweep", "--model", "linear", "--js", "inf"], "parameter j must be finite"),
            (["sweep", "--lambdas", "0,-inf"], "parameter lambda must be finite"),
            (["sweep", "--lambdas", "0.01", "--js", "0.3"], "the quartic model has no parameter j"),
            (["sweep", "--model", "monomial:6", "--js", "0,-1"],
             "the monomial:6 model has no parameter j"),
            (["sweep", "--model", "linear", "--lambdas", "0.3"],
             "the linear model has no parameter lambda"),
            # the oracle takes no finite-difference step: each spelling is one
            # unrecognized option, its value included
            pytest.param(["sweep", "--fd-step", "0"], "unrecognized arguments: --fd-step 0",
                         id="argv8-fd-step 0 rejected"),
            pytest.param(["sweep", "--fd-step=-1e-4"], "unrecognized arguments: --fd-step=-1e-4",
                         id="argv9-fd-step=-1e-4 rejected"),
            (["sweep", "--fd-step", "nan"], "unrecognized arguments: --fd-step nan"),
            (["sweep", "--fd-step", "inf"], "unrecognized arguments: --fd-step inf"),
            (["sweep", "--fd-step", "-1e-4"], "unrecognized arguments: --fd-step -1e-4"),
            # exponent form, which argparse alone would read as an option
            (["sweep", "--alphas", "-1e-3"], "alpha must be > 0"),
            # a parse error names the option; an empty entry is an error
            (["sweep", "--alphas", "abc"], "--alphas must be comma-separated numbers, not 'abc'"),
            (["sweep", "--alphas", "1,,2"], "--alphas must be comma-separated numbers, not '1,,2'"),
            (["sweep", "--lambdas", "0.1,"],
             "--lambdas must be comma-separated numbers, not '0.1,'"),
            (["sweep", "--model", "monomial:x"],
             "--model: the monomial degree must be an integer >= 1, not 'x'"),
        ],
    )
    def test_bad_sweep_grid_names_the_parameter(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err == f"invalid configuration: {message}\n"

    @pytest.mark.parametrize("size", ["8", "15", "0", "4097", "100000000"])
    def test_basis_size_out_of_range_names_the_option(self, size, capsys, monkeypatch):
        from oscqgt import spectral_oracle

        def never(*args, **kwargs):
            raise AssertionError("the basis size must be rejected before any solve")

        monkeypatch.setattr(spectral_oracle, "numeric_qim", never)
        code, out, err = run(["sweep", "--alphas", "1", "--lambdas", "0.01", "--basis-size", size], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err == f"invalid configuration: --basis-size must be between 16 and 4096, not {size}\n"

    @pytest.mark.parametrize(
        "argv,point",
        [
            (["--alpha", "1e-200"], "alpha=1e-200, lambda=0.0, j=0.0"),
            (["--alpha", "1e-320"], "alpha=1e-320, lambda=0.0, j=0.0"),
            (["--alpha", "1e308", "--lambda", "1e308"], "alpha=1e+308, lambda=1e+308, j=0.0"),
            # every power is finite, but the product of two is not
            (["--alpha", "1e-40", "--lambda", "1e280"], "alpha=1e-40, lambda=1e+280, j=0.0"),
        ],
        ids=["small-alpha", "subnormal-alpha", "large-lambda", "inf-product"],
    )
    def test_float_overflow_names_the_point(self, argv, point, capsys):
        code, out, err = run(["compute", "--order", "2"] + argv, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err == f"invalid configuration: the series overflows a float at {point}\n"

    def test_oracle_float_overflow_names_the_point(self, capsys):
        code, out, err = run(["sweep", "--alphas", "1e-300", "--lambdas", "0.01"], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err == "invalid configuration: the oracle overflows a float at alpha=1e-300, lambda=0.01, j=0.0\n"

    def test_oracle_float_underflow_names_the_point(self, capsys):
        # G_lambda,lambda ~ 1.7e-308 at alpha = 5e101: the series still gives
        # a (subnormal) float, the oracle rejects an entry that is no normal float
        code, out, err = run(["sweep", "--alphas", "5e101", "--lambdas", "0.01"], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err == "invalid configuration: the oracle underflows a float at alpha=5e+101, lambda=0.01, j=0.0\n"

    @pytest.mark.parametrize(
        "argv,point",
        [
            # g ~ a^-2 / 32 is below the float range at alpha = 1e300
            (["compute", "--alpha", "1e300", "--lambda", "0.01"], "alpha=1e+300, lambda=0.01, j=0.0"),
            (["sweep", "--alphas", "1e300", "--lambdas", "0.01"], "alpha=1e+300, lambda=0.01, j=0.0"),
            # every component is a float at alpha = 1e100; det(g) ~ a^-5 / 196608 is not
            (["compute", "--alpha", "1e100", "--lambda", "0.01"], "alpha=1e+100, lambda=0.01, j=0.0"),
        ],
        ids=["compute-huge-alpha", "sweep-huge-alpha", "compute-determinant"],
    )
    def test_float_underflow_prints_one_line(self, argv, point):
        result = subprocess.run(
            [sys.executable, "-m", "oscqgt.cli", *argv], env=_child_env(), capture_output=True, text=True
        )
        assert result.returncode == cli.EXIT_BAD_CONFIG
        assert result.stdout == ""
        assert result.stderr == f"invalid configuration: the series underflows a float at {point}\n"

    def test_oracle_float_overflow_prints_one_line(self):
        # numpy would warn on stderr before the solver gave up; no warning may precede the error
        argv = ["sweep", "--alphas", "1e-200", "--lambdas", "0.01"]
        result = subprocess.run(
            [sys.executable, "-m", "oscqgt.cli", *argv], env=_child_env(), capture_output=True, text=True
        )
        assert result.returncode == cli.EXIT_BAD_CONFIG
        assert result.stdout == ""
        assert result.stderr == "invalid configuration: the oracle overflows a float at alpha=1e-200, lambda=0.01, j=0.0\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--model", "quartic", "--j", "0.3"], "the quartic model has no parameter j"),
            (["--model", "monomial:3", "--alpha", "1", "--j", "-2"],
             "the monomial:3 model has no parameter j"),
            (["--model", "linear", "--lambda", "0.3"], "the linear model has no parameter lambda"),
        ],
    )
    def test_compute_rejects_a_parameter_the_model_lacks(self, argv, message, capsys):
        code, out, err = run(["compute"] + argv, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err == f"invalid configuration: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--model", "linear", "--alpha", "1", "--lambda", "0"],
            ["compute", "--model", "quartic", "--alpha", "1", "--j", "-0.0"],
            ["sweep", "--model", "linear", "--lambdas", "0", "--js", "0.5"],
            ["sweep", "--model", "quartic", "--js", "0"],
        ],
    )
    def test_zero_for_a_parameter_the_model_lacks_stays_valid(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_OK
        assert err == ""

    @pytest.mark.parametrize(
        "model,lam,bound",
        [
            ("monomial:1", "0.3", 1e-8),  # alpha q^2/2 + lambda q: a shifted oscillator
            ("monomial:2", "-0.1", 1e-4),  # q^2 coefficient 1/2 - 0.05 stays positive
        ],
    )
    def test_potential_confined_by_alpha_has_a_ground_state(self, model, lam, bound, capsys):
        code, out, err = run(["sweep", "--model", model, "--order", "3", "--lambdas", lam], capsys)
        assert code == cli.EXIT_OK
        assert err == ""
        rows = out.splitlines()[1:]
        assert len(rows) == 4
        assert all(float(row.rsplit(",", 1)[1]) <= bound for row in rows)

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([], "the following arguments are required: command"),
            (["sweep", "--bogus"], "unrecognized arguments: --bogus"),
            (["compute", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
            (["compute", "--order", "x"], "argument --order: invalid int value: 'x'"),
            (["diagrams", "--format", "json"], "unrecognized arguments: --format json"),
        ],
    )
    def test_usage_error_is_one_line(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err.startswith(f"invalid configuration: {message}")
        assert err.count("\n") == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["diagrams", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qgt diagrams")

    @pytest.mark.parametrize(
        "argv,target",
        [
            (["compute", "--format", "json"], "missing/x.json"),
            (["sweep"], "missing/x.csv"),
            (["diagrams"], "a_file/x"),
        ],
    )
    def test_unwritable_out_names_the_path(self, argv, target, tmp_path, capsys, monkeypatch):
        from oscqgt import spectral_oracle

        # the path is checked before the work: neither a graph nor an oracle solve
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for module, name in [
            (spectral_oracle, "numeric_qim"),
            (oscqgt.qgt, "connected_integrand"),
            (cli, "connected_grade"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        (tmp_path / "a_file").write_text("")
        path = tmp_path / target
        code, out, err = run(argv + ["--out", str(path)], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err.startswith(f"invalid configuration: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_odd_k_oracle_run_is_rejected(self, capsys):
        code, out, err = run(["sweep", "--model", "monomial:3", "--lambdas", "0.3"], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert "odd k has no ground state for lambda != 0" in err
        assert err.count("\n") == 1

    def test_negative_quartic_coupling_is_rejected(self, capsys):
        code, out, err = run(["sweep", "--lambdas", "-0.3"], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err.startswith("invalid configuration: a negative leading term has no ground state")
        assert err.count("\n") == 1

    def test_odd_k_free_point_stays_valid(self, capsys):
        code, out, _ = run(["sweep", "--model", "monomial:3", "--lambdas", "0"], capsys)
        assert code == cli.EXIT_OK
        assert len(out.splitlines()) == 5


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


@pytest.fixture(scope="module")
def verify_all():
    return cli.run_verification("all")


LINEAR_ENTRIES = ("g(alpha,alpha)", "g(alpha,j)", "g(j,alpha)", "g(j,j)")
QUARTIC_ENTRIES = ("g(alpha,alpha)", "g(alpha,lambda)", "g(lambda,alpha)", "g(lambda,lambda)")
# every check `verify all` runs, in order
VERIFY_ALL_CHECKS = [
    *(
        (f"linear {kind} alpha={alpha} j={j}", entry)
        for alpha in (0.5, 1.0, 2.0)
        for j in (0.0, 0.5)
        for entry in LINEAR_ENTRIES
        for kind in ("series-vs-closed-form", "oracle-vs-closed-form", "series-vs-oracle")
    ),
    ("linear exact series-vs-closed-form", "all"),
    *((f"quartic free-theory alpha={alpha}", e) for alpha in (0.5, 1.0, 2.0) for e in QUARTIC_ENTRIES),
    *(("quartic remainder-scaling slope", e) for e in QUARTIC_ENTRIES),
    ("quartic absolute deviation lambda=0.05", "g(lambda,lambda)"),
]


class TestVerify:
    def test_check_count_matches_the_benchmark_reference(self, verify_all):
        # the benchmark gates `verify all` on its check count, so adding or
        # removing a check must come with a new bench/reference.json
        reference = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
        expected = json.loads(reference.read_text(encoding="utf-8"))["verify-all"]["checks"]
        assert len(verify_all) == expected

    def test_checks_are_pinned_by_name_and_component(self, verify_all):
        assert [(c["name"], c["component"]) for c in verify_all] == VERIFY_ALL_CHECKS

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
        # the exact row compares whole series and names only the one that differs
        exact_row = "FAIL linear exact series-vs-closed-form [g(j,j)] "
        assert any(line.startswith(exact_row) for line in failing)

    def test_oracle_failure_exits_4_with_one_line(self, capsys, monkeypatch):
        from oscqgt import spectral_oracle

        def unconverged(*args, **kwargs):
            raise spectral_oracle.NoConvergence("inverse iteration did not settle")

        monkeypatch.setattr(spectral_oracle, "numeric_qim", unconverged)
        code, out, err = run(["verify", "linear"], capsys)
        assert code == cli.EXIT_ORACLE
        assert out == ""
        assert err == "oracle failure: NoConvergence: inverse iteration did not settle\n"


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this oscqgt."""
    src = str(Path(oscqgt.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _probe(code: str) -> str:
    """Run `code` in a fresh interpreter that imports this oscqgt; return its stdout."""
    result = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, check=True)
    return result.stdout


@pytest.mark.parametrize(
    "module", ["scipy.integrate", "scipy.linalg", "numpy", "dataclasses", "inspect", "json", "csv"]
)
def test_cli_import_leaves_module_unloaded(module):
    # scipy.integrate is needed by no command, and numpy and scipy.linalg only
    # by the oracles behind verify and sweep; loading any at import time would
    # slow every CLI start, symbolic commands included.  dataclasses (which
    # loads inspect, ast and dis) is used nowhere, and json and csv only by
    # the commands that write them.
    probe = f"import sys, oscqgt.cli; print({module!r} in sys.modules)"
    assert _probe(probe).strip() == "False"


def test_linear_exact_import_leaves_numpy_unloaded():
    # the closed forms are exact series; floats come from ScalarSeries.evaluate
    probe = "import sys, oscqgt.linear_exact; print('numpy' in sys.modules)"
    assert _probe(probe).strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--model", "quartic", "--order", "2", "--format", "json"],
        ["diagrams", "--model", "quartic", "--component", "alpha,lambda", "--order", "2"],
    ],
    ids=["compute", "diagrams"],
)
def test_symbolic_commands_leave_numeric_stack_unloaded(argv, tmp_path):
    probe = (
        "import contextlib, io, sys\n"
        "from oscqgt import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv + ['--out', str(tmp_path / 'out')]!r})\n"
        "print(code, [m for m in ('numpy', 'scipy', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    assert _probe(probe).strip() == "0 []"


def test_submodules_load_on_attribute_access():
    # bench/tracer.py imports oscqgt.cli, then reaches every module it wraps,
    # spectral_oracle and linear_exact included, as attributes of the package
    names = sorted(info.name for info in pkgutil.iter_modules(oscqgt.__path__))
    probe = (
        "import oscqgt, oscqgt.cli\n"
        f"print(all(getattr(oscqgt, m).__name__ == 'oscqgt.' + m for m in {names!r}))"
    )
    assert _probe(probe).strip() == "True"
    with pytest.raises(AttributeError):
        oscqgt.no_such_module


def _loads_scipy(argv: list[str]) -> str:
    """Run one CLI command in a fresh interpreter; print its exit code and
    whether any part of scipy was loaded."""
    probe = (
        "import contextlib, io, sys\n"
        "from oscqgt import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, 'scipy' in sys.modules)"
    )
    return _probe(probe).strip()


def test_verify_leaves_scipy_integrate_unloaded():
    # the band systems are factored in numpy: scipy.integrate would also load
    # scipy.optimize, scipy.special and scipy.sparse, and scipy.linalg alone
    # takes longer to import than verify takes to solve
    assert _loads_scipy(["verify", "all"]) == "0 False"


def test_sweep_leaves_scipy_unloaded():
    argv = ["sweep", "--alphas", "0.8,1.2", "--lambdas", "0.02", "--basis-size", "64"]
    assert _loads_scipy(argv) == "0 False"


@pytest.mark.parametrize(
    "argv",
    [["verify", "all"], ["sweep", "--alphas", "0.8,1.2", "--lambdas", "0.02", "--basis-size", "64"]],
    ids=["verify", "sweep"],
)
def test_oracle_commands_leave_dataclasses_unloaded(argv):
    # numpy loads inspect, but nothing the oracle commands run needs dataclasses
    probe = (
        "import contextlib, io, sys\n"
        "from oscqgt import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, 'dataclasses' in sys.modules)"
    )
    assert _probe(probe).strip() == "0 False"
