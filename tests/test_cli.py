import ast
import errno
import hashlib
import itertools
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest

import oscqgt
import oscqgt.qgt
from oracles import connected_grade, parse_series
from oscqgt import cli, crosscheck
from oscqgt.scalar_algebra import ScalarSeries


# the schema of `compute --format json`: the metric repeats the components
# and the curvature is zero
SERIES_ITEM = {
    "type": "object",
    "properties": {
        "num": {"type": "integer"},
        "den": {"type": "integer", "minimum": 1},
        "alpha_half_pow": {"type": "integer"},
        "lambda_pow": {"type": "integer", "minimum": 0},
        "j_pow": {"type": "integer", "minimum": 0},
    },
    "required": ["num", "den", "alpha_half_pow", "lambda_pow", "j_pow"],
    "additionalProperties": False,
}

SERIES_BLOCK = {
    "type": "object",
    "properties": {
        "series": {"type": "array", "items": SERIES_ITEM},
        "text": {"type": "string"},
        "numeric_value": {"type": ["number", "null"]},
    },
    "required": ["series", "text"],
    "additionalProperties": True,
}

RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "model": {"type": "string", "enum": ["linear", "quartic", "monomial"]},
        "k": {"type": "integer", "minimum": 1},
        "order": {"type": "integer", "minimum": 0},
        "labels": {"type": "array", "items": {"type": "string"}},
        "convention": {
            "type": "object",
            "properties": {
                "fidelity_expansion": {"type": "string"},
                "half_absorbed_into_tensor": {"type": "boolean"},
                "truncation_order": {"type": "integer"},
            },
            "required": ["fidelity_expansion", "half_absorbed_into_tensor", "truncation_order"],
        },
        "parameters": {"type": "object"},
        "formal": {"type": "string"},
        "components": {"type": "object", "additionalProperties": SERIES_BLOCK},
        "metric": {"type": "object", "additionalProperties": SERIES_BLOCK},
        "curvature": {"type": "object", "additionalProperties": SERIES_BLOCK},
        "determinant": SERIES_BLOCK,
        "critical_coupling": {
            "oneOf": [
                {"type": "null"},
                {
                    "allOf": [
                        SERIES_BLOCK,
                        {"properties": {"truncation_order": {"type": "integer"}}},
                    ]
                },
            ]
        },
    },
    "required": [
        "model",
        "k",
        "order",
        "labels",
        "convention",
        "components",
        "metric",
        "curvature",
        "determinant",
        "critical_coupling",
    ],
}


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
            jsonschema.validate(json.loads(out), RECORD_SCHEMA)

    def test_quartic_and_monomial_4_records_differ_only_in_the_model(self):
        point = {"alpha": 1.0, "lambda": 0.1, "j": None}
        quartic, monomial = (
            cli.compute_record(oscqgt.qgt.ParameterSpace.parse(model), 2, point) for model in ("quartic", "monomial:4")
        )
        assert (quartic.pop("model"), monomial.pop("model")) == ("quartic", "monomial")
        assert quartic == monomial

    def test_monomial_06_is_named_monomial_6(self, capsys):
        # sweep's column for it is pinned by TestSweep.test_model_column_spells_the_model
        _, out, _ = run(["compute", "--model", "monomial:06", "--order", "1", "--format", "json"], capsys)
        record = json.loads(out)
        assert (record["model"], record["k"]) == ("monomial", 6)

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
            ("linear", oscqgt.qgt.ParameterSpace.parse("linear"),
             "  4 * j^2 * D(s1,tau2) D(s2,tau1) D(tau1,tau2) = 2 * j^2 * a^-7/2"),
        ]:
            argv = ["compute", "--model", model, "--order", "1"]
            _, plain, _ = run(argv, capsys)
            code, out, err = run(["--verbose"] + argv, capsys)
            assert code == 0
            assert out == plain
            n_products = 0
            for a, b in itertools.combinations_with_replacement(space.labels, 2):
                (k_a, _), (k_b, _) = space.derivative(a), space.derivative(b)
                for m in range(k_a + k_b - 1 if space.exact else 2):
                    n_products += len(connected_grade(k_a, k_b, m, space.potential))
            lines = [line for line in err.splitlines() if not line.startswith("# integrand")]
            assert len(lines) == n_products
            for line in lines:
                parse_series(line.rsplit(" = ", 1)[1])
            assert expected in lines

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["--model", "quartic", "--order", "3"],
             "82f289463d9ba8f671e74b7016669147ed647ee189556be8c5f024a274ca5ad5"),
            (["--model", "quartic", "--order", "4"],
             "f61216a1cf1e77defcc8c0f20e867da8a33fe6559eae3a1cb74f12ee63f9f57b"),
            (["--model", "linear"],
             "d0abea34e29b7d86135a9190f92135186522299850fd25423e39d017a042a6f6"),
            # G_alpha,lambda is read off the (6, 6) walk with two loops fewer at tau1
            (["--model", "monomial:6", "--order", "2"],
             "559015d4b99657ce80ae53838ecd2eda86e42204df348a565bd00975de04ba22"),
        ],
    )
    def test_verbose_dump_is_pinned(self, argv, digest, capsys, monkeypatch):
        # the sha256 of the whole stderr: the order of the graphs, their
        # names, coefficients and wedge values
        monkeypatch.setenv(cli.MAX_ORDER_ENV, "4")
        code, _, err = run(["--verbose", "compute"] + argv, capsys)
        assert code == 0
        assert hashlib.sha256(err.encode()).hexdigest() == digest

    def test_verbose_integrates_each_skeleton_once(self, capsys, monkeypatch):
        # one pass of ordered sums per grade, keyed by skeleton up to the
        # tau1 <-> tau2 mirror, serves every pair, and the dump reads its
        # values: at quartic order 4, 1,030 skeletons with --verbose or without
        from oscqgt import integrator

        calls = []
        real = integrator._ordered_sums

        def counted(batch, n):
            calls.extend((n, counts) for counts in batch)  # one entry per skeleton summed
            return real(batch, n)

        monkeypatch.setattr(integrator, "_ordered_sums", counted)
        monkeypatch.setenv(cli.MAX_ORDER_ENV, "4")
        argv = ["compute", "--model", "quartic", "--order", "4"]
        _, plain, _ = run(argv, capsys)
        assert len(calls) == 1030
        calls.clear()
        code, out, err = run(["--verbose"] + argv, capsys)
        assert code == 0
        assert out == plain
        assert err.startswith("# integrand g(alpha,alpha)\n")
        assert len(calls) == 1030
        skeleton = {n: integrator._skeleton(n) for n, _ in calls}
        assert len({(n, skeleton[n](counts)) for n, counts in calls}) == 1030

    def test_work_counts_at_quartic_order_five(self, capsys, monkeypatch):
        # a lost prune of the walk or a lost share of the memo moves these:
        # 6,019 ordered sums and 4,464 class-form searches (11,081 and 10,204
        # before the swap rule, the mirror-halved walk and the mirror key)
        from oscqgt import integrator, wick

        sums, forms = [], []
        real_sums, real_form = integrator._ordered_sums, wick._class_form
        monkeypatch.setattr(integrator, "_ordered_sums", lambda batch, n: sums.extend(batch) or real_sums(batch, n))
        monkeypatch.setattr(wick, "_class_form", lambda counts, m: forms.append(m) or real_form(counts, m))
        monkeypatch.setenv(cli.MAX_ORDER_ENV, "5")
        code, _, _ = run(["compute", "--model", "quartic", "--order", "5"], capsys)
        assert code == 0
        assert (len(sums), len(forms)) == (6019, 4464)

    @pytest.mark.parametrize("verbose", [[], ["--verbose"]], ids=["plain", "verbose"])
    def test_coefficient_past_the_digit_limit_names_the_model(self, verbose, capsys):
        # G_lambda,lambda of monomial:1095 has an integer of more than 4,300
        # digits, which Python will not write at its default limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run([*verbose, "compute", "--model", "monomial:1095", "--order", "0"], capsys)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (cli.EXIT_BAD_CONFIG, "")
        assert err == (
            "invalid configuration: the monomial:1095 series has a coefficient of more than 4300 digits, "
            "Python's limit for writing an integer (sys.set_int_max_str_digits)\n"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["compute"], "the monomial:10000 potential has a coefficient of more than 4300 digits, "
                          "Python's limit for writing an integer (sys.set_int_max_str_digits)"),
            (["diagrams", "--component", "lambda,lambda"],
             "the monomial:10000 integrand has a coefficient of more than 4300 digits, "
             "Python's limit for writing an integer (sys.set_int_max_str_digits)"),
            (["sweep"], "potential degree must be <= 8"),
        ],
        ids=["compute", "diagrams", "sweep"],
    )
    def test_huge_degree_is_rejected_before_the_walk(self, argv, message, tmp_path, capsys, monkeypatch):
        # the walk at k = 10,000 runs for minutes; each command's limit comes
        # first: the digits of 1/k!, the weight k! of the order-0 graph that
        # links every leg, the oracle's degree
        monkeypatch.chdir(tmp_path)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            start = time.perf_counter()
            code, out, err = run([*argv, "--model", "monomial:10000", "--order", "0"], capsys)
            elapsed = time.perf_counter() - start
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out, err) == (cli.EXIT_BAD_CONFIG, "", f"invalid configuration: {message}\n")
        assert elapsed < 2
        assert not any(tmp_path.iterdir())

    def test_diagrams_of_a_huge_degree_without_its_vertices(self, tmp_path, capsys):
        # G_alpha,alpha at order 0 has no vertex, so no coefficient of V
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            argv = ["diagrams", "--model", "monomial:10000", "--order", "0", "--out", str(tmp_path)]
            code, out, err = run(argv, capsys)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (cli.EXIT_OK, "")
        assert out.endswith("\n1 diagram(s) written\n")

    def test_unwritable_diagram_writes_no_file(self, tmp_path, capsys):
        # every coefficient is checked before the first file: at k = 1,425 a
        # lambda,lambda graph of order 0 has a weight of more than 4,300
        # digits, at k = 1,424 none has
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            results = {
                k: run(["diagrams", "--model", f"monomial:{k}", "--component", "lambda,lambda", "--order", "0",
                        "--out", str(tmp_path / str(k))], capsys)
                for k in (1424, 1425)
            }
        finally:
            sys.set_int_max_str_digits(limit)
        assert results[1425] == (
            cli.EXIT_BAD_CONFIG,
            "",
            "invalid configuration: the monomial:1425 integrand has a coefficient of more than 4300 digits, "
            "Python's limit for writing an integer (sys.set_int_max_str_digits)\n",
        )
        assert list((tmp_path / "1425").iterdir()) == []
        assert results[1424][::2] == (cli.EXIT_OK, "")
        assert len(list((tmp_path / "1424").iterdir())) == 712

    def test_odd_k_series_is_flagged_formal(self, capsys):
        code, out, err = run(["compute", "--model", "monomial:3", "--format", "json"], capsys)
        assert code == cli.EXIT_OK
        record = json.loads(out)
        jsonschema.validate(record, RECORD_SCHEMA)
        assert "odd k=3 has no ground state for lambda != 0" in record["formal"]
        assert err == f"note: {record['formal']}\n"

    @pytest.mark.parametrize(
        "model,lam,reason",
        [
            ("quartic", "-0.1", "a negative leading term has no ground state"),
            ("monomial:2", "-1", "a vanishing potential has no ground state"),
        ],
    )
    def test_point_without_a_ground_state_is_flagged_formal(self, model, lam, reason, capsys):
        # the check that makes `sweep` reject the point flags the series there
        argv = ["--model", model, "--alpha", "1", "--lambda", lam]
        code, out, err = run(["compute", *argv, "--order", "1", "--format", "json"], capsys)
        assert code == cli.EXIT_OK
        record = json.loads(out)
        jsonschema.validate(record, RECORD_SCHEMA)
        prefix = "the series is formal: "
        assert record["formal"].startswith(prefix + reason)
        assert err == f"note: {record['formal']}\n"
        code, _, err = run(["sweep", "--model", model, "--alphas", "1", "--lambdas", lam], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert err == f"invalid configuration: {record['formal'][len(prefix):]}\n"

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

    def test_linear_order_is_not_capped(self, tmp_path, capsys, monkeypatch):
        # the linear series is exact at any order, so compute and sweep skip
        # the cap; diagrams expands at the order it is given and keeps it, and
        # so does lambda on the same V = q (monomial:1), which is truncated
        monkeypatch.delenv(cli.MAX_ORDER_ENV, raising=False)
        code, out, err = run(["compute", "--model", "linear", "--order", "9", "--format", "json"], capsys)
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["order"] == 9
        code, _, err = run(["compute", "--model", "monomial:1", "--order", "9"], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "QGT_MAX_ORDER" in err
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
        "alphas,code,message",
        [
            ("0.01,1e-300", cli.EXIT_ORACLE,
             "oracle failure: BasisTooSmall: tail weight 5.24e-08 in top 10% of an N=16 basis"),
            ("1e-300,0.01", cli.EXIT_BAD_CONFIG,
             "invalid configuration: the oracle overflows a float at alpha=1e-300, lambda=0.01, j=0.0"),
            ("1,0.01", cli.EXIT_ORACLE,
             "oracle failure: BasisTooSmall: tail weight 5.24e-08 in top 10% of an N=16 basis"),
        ],
        ids=["first-of-two-failures", "overflow-first", "only-the-later-point-fails"],
    )
    def test_grid_reports_its_first_failing_point(self, alphas, code, message, capsys):
        # the grid is solved in one oracle call; its first failing point, in
        # row order, decides the exit code and the one line
        argv = ["sweep", "--order", "1", "--basis-size", "16", "--alphas", alphas, "--lambdas", "0.01"]
        assert run(argv, capsys) == (code, "", message + "\n")

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

        monkeypatch.setattr(spectral_oracle, "numeric_qim_grid", never)
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
            # named canonically, as sweep's model column names it
            (["--model", "monomial:06", "--alpha", "1", "--j", "1"], "the monomial:6 model has no parameter j"),
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
            (spectral_oracle, "numeric_qim_grid"),
            (oscqgt.qgt, "connected_grades"),
            (cli, "connected_grades"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        (tmp_path / "a_file").write_text("")
        path = tmp_path / target
        code, out, err = run(argv + ["--out", str(path)], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err.startswith(f"invalid configuration: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_failed_diagram_write_names_the_directory(self, tmp_path, capsys):
        # `--out` exists, but the first diagram's file is a directory
        (tmp_path / "g_alpha_alpha_order0_term01.dot").mkdir()
        code, out, err = run(["diagrams", "--order", "0", "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert out == ""
        assert err == f"invalid configuration: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n"

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

    @pytest.mark.parametrize(
        "model,component,order,files,digest",
        [
            ("quartic", "alpha,lambda", "3", 90,
             "c61c13d53b003c8ff8132ac43dca5e01ecddc831748d51b257696a9cfba57978"),
            ("monomial:6", "lambda,lambda", "2", 287,
             "e3e791279dd40912aaaf2d014cf8299d02b5df5025fd32edfae077e720fa245c"),
            # the only case whose walk reaches a class through several sorted
            # labellings (577 for 483 classes), so it pins the canonical form
            ("quartic", "alpha,lambda", "4", 483,
             "8898ecc2ffc28d749dd57a67fd86ad32ff8ec792d4600f1508735ae1c39c21c2"),
        ],
    )
    def test_output_is_pinned(
        self, model, component, order, files, digest, tmp_path, capsys, monkeypatch
    ):
        # the digest of a `sha256sum *.dot` manifest: one line per file with
        # the sha256 of its contents and its name, so a renumbered, renamed or
        # re-rendered diagram changes it
        monkeypatch.setenv(cli.MAX_ORDER_ENV, order)
        code, _, _ = run(
            ["diagrams", "--model", model, "--component", component, "--order", order,
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        paths = sorted(tmp_path.glob("*.dot"))
        manifest = "".join(
            f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in paths
        )
        assert len(paths) == files
        assert hashlib.sha256(manifest.encode()).hexdigest() == digest


def count_oracle_grids(monkeypatch) -> list:
    """Record the point count of each spectral_oracle.numeric_qim_grid call
    from here on."""
    from oscqgt import spectral_oracle

    counts = []
    real = spectral_oracle.numeric_qim_grid

    def counted(points, *args, **kwargs):
        counts.append(len(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(spectral_oracle, "numeric_qim_grid", counted)
    return counts


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

    @pytest.mark.parametrize(
        "model,column",
        [("quartic", "quartic"), ("linear", "linear"), ("monomial:6", "monomial:6"), ("monomial:06", "monomial:6"),
         ("monomial:8", "monomial:8")],
    )
    def test_model_column_spells_the_model(self, model, column, capsys):
        # each row names its model as --model accepts it, so monomial degrees stay apart
        grid = ["--js", "0.5"] if model == "linear" else ["--lambdas", "0.01"]
        code, out, _ = run(["sweep", "--model", model, "--order", "1", "--alphas", "1", *grid], capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 4
        assert all(row.startswith(f"{column},1,") for row in rows)

    def test_one_oracle_call_per_grid(self, capsys, monkeypatch):
        grids = count_oracle_grids(monkeypatch)
        code, out, _ = run(["sweep", "--alphas", "0.5,1,2", "--lambdas", "0.005,0.01,0.05"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 9 * 4
        assert grids == [9]

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
    return crosscheck.run_verification("all")


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

    def test_one_oracle_call_per_model(self, monkeypatch):
        grids = count_oracle_grids(monkeypatch)
        checks = crosscheck.run_verification("all")
        assert [(c["name"], c["component"]) for c in checks] == VERIFY_ALL_CHECKS
        assert all(c["passed"] for c in checks)
        assert grids == [6, 7]  # linear, then quartic

    def test_broken_prefactor_fails_naming_the_component(self, capsys, monkeypatch):
        real = oscqgt.qgt.assemble

        def broken(*args, **kwargs):
            components = real(*args, **kwargs)
            if ("j", "j") in components:
                components["j", "j"] = components["j", "j"] * 2  # injected prefactor fault
            return components

        monkeypatch.setattr(oscqgt.qgt, "assemble", broken)
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

        def unconverged(points, *args, **kwargs):
            return [spectral_oracle.NoConvergence("inverse iteration did not settle") for _ in points]

        monkeypatch.setattr(spectral_oracle, "numeric_qim_grid", unconverged)
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
        # request a of the series-o3 benchmark workload
        ["compute", "--model", "quartic", "--order", "3", "--format", "json"],
        # flagged formal by the ground-state check, which needs no numpy
        ["compute", "--model", "quartic", "--order", "1", "--alpha", "1", "--lambda", "-0.1"],
    ],
    ids=["compute", "diagrams", "compute-order3", "compute-no-ground-state"],
)
def test_symbolic_commands_leave_numeric_stack_unloaded(argv, tmp_path):
    probe = (
        "import contextlib, io, sys\n"
        "from oscqgt import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv + ['--out', str(tmp_path / 'out')]!r})\n"
        "unloaded = ('numpy', 'scipy', 'dataclasses', 'inspect', 'oscqgt.crosscheck')\n"
        "print(code, [m for m in unloaded if m in sys.modules])"
    )
    assert _probe(probe).strip() == "0 []"


def test_no_module_imports_the_cli():
    # under `python -m oscqgt.cli` the CLI runs as __main__, so a module that
    # imported oscqgt.cli, even inside a function, would compile it again
    package = Path(oscqgt.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module if not node.level else ".".join(filter(None, ["oscqgt", node.module]))
                names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            else:
                continue
            if "oscqgt.cli" in names:
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


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


# -- the process entry point ---------------------------------------------------

_SEED1_GRID = ["--alphas", "0.7642,0.7954,1.1995", "--lambdas", "0.01637,0.02807,0.03524"]
# a CSV of 198 KB, beyond a 64 KB pipe buffer
_WIDE_GRID = [
    "--alphas", ",".join(f"{0.5 + 0.1 * i:.1f}" for i in range(20)),
    "--lambdas", ",".join(f"{0.001 * (i + 1):.3f}" for i in range(20)),
]


def _buffered_env(unbuffered: bool = False) -> dict:
    """`_child_env` with stdout block-buffered, so that output the process
    did not flush is lost, or unbuffered."""
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


def _child(argv: list[str], unbuffered: bool = False, **kwargs) -> subprocess.CompletedProcess:
    """`python -m oscqgt.cli argv` in a fresh interpreter, its output as bytes."""
    return subprocess.run([sys.executable, "-m", "oscqgt.cli", *argv], env=_buffered_env(unbuffered), **kwargs)


def _in_process(argv: list[str], capsys) -> tuple[int, bytes, bytes]:
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out.encode(), out.err.encode()


@pytest.mark.parametrize(
    "argv,code",
    [
        (["compute", "--model", "quartic", "--order", "3", "--format", "json"], cli.EXIT_OK),
        (["sweep", "--model", "quartic", "--order", "2", "--basis-size", "256", *_SEED1_GRID], cli.EXIT_OK),
        (["sweep", "--model", "quartic", "--order", "1", "--basis-size", "64", *_WIDE_GRID], cli.EXIT_OK),
        (["verify", "linear"], cli.EXIT_OK),
        (["diagrams", "--model", "quartic", "--component", "alpha,lambda", "--order", "2", "--out", "d"], cli.EXIT_OK),
        (["compute", "--bogus"], cli.EXIT_BAD_CONFIG),
        (["sweep", "--model", "quartic", "--order", "1", "--basis-size", "16", "--alphas", "1", "--lambdas", "5"],
         cli.EXIT_ORACLE),
    ],
    ids=["compute", "sweep-seed1-grid", "sweep-beyond-pipe-buffer", "verify", "diagrams", "unknown-option",
         "basis-too-small"],
)
def test_process_exit_loses_no_output(argv, code, tmp_path, capsys, monkeypatch):
    # the process ends with os._exit once its output is flushed: it must write
    # exactly what main() writes, files included, and exit with main's code
    (tmp_path / "child").mkdir()
    (tmp_path / "main").mkdir()
    result = _child(argv, cwd=tmp_path / "child", capture_output=True)
    monkeypatch.chdir(tmp_path / "main")
    assert _in_process(argv, capsys) == (code, result.stdout, result.stderr)
    assert result.returncode == code
    written = {
        side: {p.relative_to(tmp_path / side): p.read_bytes() for p in (tmp_path / side).rglob("*.dot")}
        for side in ("child", "main")
    }
    assert written["child"] == written["main"]
    assert bool(written["main"]) == (argv[0] == "diagrams")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "linear"],
        ["sweep", "--model", "quartic", "--order", "1", "--basis-size", "16", "--alphas", "1", "--lambdas", "5"],
        ["compute", "--help"],
    ],
    ids=["verify", "oracle-failure", "help"],
)
def test_process_exit_runs_atexit_handlers(argv, capsys, monkeypatch):
    # coverage's subprocess hook saves its data from an atexit handler
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    code, out, err = _in_process(argv, capsys)
    probe = (
        "import atexit, sys\n"
        "from oscqgt import cli\n"
        "atexit.register(print, 'atexit handler ran')\n"
        f"sys.argv = ['qgt', *{argv!r}]\n"
        "cli.run()\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=_buffered_env(), capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == (code, out + b"atexit handler ran\n", err)
    if argv[-1] == "--help":
        assert code == cli.EXIT_OK
        assert out.startswith(b"usage: qgt compute")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["compute"], ["sweep"], ["verify", "linear"], ["diagrams", "--out", "d"], ["compute", "--help"]],
    ids=["compute", "sweep", "verify", "diagrams", "help"],
)
def test_unwritable_stdout_exits_2_with_one_line(argv, unbuffered, tmp_path):
    # a buffered stdout fails at the final flush, an unbuffered one at the
    # write, which argparse's own `--help` writer would drop
    with open("/dev/full", "wb") as full:
        result = _child(argv, unbuffered, cwd=tmp_path, stdout=full, stderr=subprocess.PIPE)
    assert result.returncode == cli.EXIT_BAD_CONFIG
    reason = os.strerror(errno.ENOSPC)
    assert result.stderr == f"invalid configuration: cannot write stdout: {reason}\n".encode()
