import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from quasiconv import cli
from quasiconv.classifiers import ClassId, SearchBudget, defining_inequality
from quasiconv.cli import main
from quasiconv.expressions import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_member_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "check", "--f", "x^2+y^2", "--domain", "0,1,0,1",
            "--class", "QC2", "--resolution", "9", "--halton", "128",
        )
        assert code == 0
        assert "no violation found at resolution" in out

    def test_violation_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "check", "--f", "-(x^2)", "--domain", "-1,1,-1,1",
            "--class", "JQC2",
        )
        assert code == 1
        assert "JQC2 violated" in out

    def test_syntax_error_exits_two(self, capsys):
        code, _, err = run(
            capsys, "check", "--f", "x +* y", "--domain", "0,1,0,1",
            "--class", "QC2",
        )
        assert code == 2
        assert "offset 3" in err

    def test_domain_class_mismatch_exits_two(self, capsys):
        code, _, err = run(
            capsys, "check", "--f", "x^2", "--domain", "0,1", "--class", "QC2"
        )
        assert code == 2

    def test_partial_function_exits_two(self, capsys):
        code, _, _ = run(
            capsys, "check", "--f", "log(x)", "--domain", "-1,1,-1,1",
            "--class", "QC2", "--resolution", "5", "--halton", "16",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "expr, domain, cls",
        [("-x", "-inf,0", "J1"), ("x", "0,inf", "C1"), ("x", "-1e308,1e308", "C1")],
    )
    def test_non_finite_domain_exits_two(self, capsys, expr, domain, cls):
        code, out, err = run(
            capsys, "check", "--f", expr, "--domain", domain, "--class", cls
        )
        assert code == 2
        assert "interval" in err
        assert "no violation found" not in out

    def test_internal_error_exits_three(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli, "check_membership", crash)
        code, out, err = run(
            capsys, "check", "--f", "x^2", "--domain", "0,1", "--class", "J1",
        )
        assert code == 3
        assert err.splitlines()[-1].startswith("internal error:")
        assert out == ""

    def test_long_chain_evaluates(self, capsys):
        # 3000 terms nest 3000 deep; the evaluator walks a flat tape
        code, out, err = run(
            capsys, "check", "--f", "+".join(["x"] * 3000), "--domain", "0,1",
            "--class", "J1",
        )
        assert code == 0
        assert "no violation found" in out
        assert err == ""

    def test_long_chain_coordinate_check(self, capsys):
        # slices are screened on the 2D tape, and restrict substitutes
        # without recursion, so a chain 3000 deep checks like a short one
        code, out, err = run(
            capsys, "check", "--f", "+".join(["x"] * 3000), "--domain", "0,1,0,1",
            "--class", "CoordJ2",
        )
        assert code == 0
        assert "no violation found" in out
        assert err == ""

    def test_long_chain_coordinate_witness_rechecks(self, capsys):
        from quasiconv import Axis, ClassId, defining_inequality, parse, restrict

        chain = "+".join(["x"] * 3000) + "-x^2"  # concave in x on every slice
        code, out, err = run(
            capsys, "check", "--f", chain, "--domain", "0,1,0,1", "--class", "CoordC2",
            "--json",
        )
        assert code == 1
        assert err == ""
        w = json.loads(out)["outcome"]["witness"]
        assert w["class_id"] == "C1" and w["frozen_axis"] == "y"
        sliced = restrict(parse(chain, 2), Axis(w["frozen_axis"]), w["frozen_value"])
        lhs, rhs = defining_inequality(ClassId.C1, sliced, w["p1"], w["p2"], w["params"])
        assert (lhs, rhs) == (w["lhs"], w["rhs"])

    @pytest.mark.parametrize("expr", ["sin(1e999)+x", "abs(1e999)"])
    def test_overflowing_literal_exits_two(self, capsys, expr):
        code, out, err = run(
            capsys, "check", "--f", expr, "--domain", "0,1", "--class", "C1"
        )
        assert code == 2
        assert "overflows to infinity" in err
        assert "Traceback" not in err
        assert out == ""

    def test_nan_margin_is_undefined_not_silent(self, capsys):
        # F1 + F2 and the mixed sum overflow to -inf near 1e308, and their
        # difference is NaN: such a lane decides nothing, so the check is
        # undefined, quietly (a numpy warning would raise here)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "check", "--f", "-(1.7e308*x*x)", "--domain", "-1,1",
                "--class", "W1",
            )
        assert code == 2
        assert "undefined" in out
        assert err == ""

    def test_template_overflow_names_the_inequality_not_f(self, capsys):
        # f is finite at both points and at the mixed ones; only the W1
        # sums overflow, so f must not be called undefined
        argv = ["check", "--f", "-(1.7e308*x*x)", "--domain", "-1,1", "--class", "W1"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "the W1 inequality is not finite at p1=" in out
        assert "f is defined there" in out
        assert "function undefined" not in out and err == ""
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2
        outcome = json.loads(out)["outcome"]
        assert outcome["status"] == "undefined" and outcome["point"] is None
        candidate = outcome["candidate"]
        assert candidate["class_id"] == "W1" and candidate["frozen_axis"] is None
        f = parse("-(1.7e308*x*x)", 1)
        p1, p2 = candidate["p1"], candidate["p2"]
        assert all(math.isfinite(f(*p)) for p in (p1, p2))
        # the recorded candidate reproduces the overflow
        lhs, rhs = defining_inequality(ClassId.W1, f, p1, p2, candidate["params"])
        assert not math.isfinite(lhs - rhs)

    @pytest.mark.parametrize(
        "cls", ["C1", "QC1", "W1", "WQC1", "C2", "QC2", "WQC2",
                "CoordC2", "CoordQC2", "CoordW2", "CoordWQC2"],
    )
    def test_endpoint_only_parameter_grid_exits_two(self, capsys, cls):
        # t or lam in {0, 1} only: every function passes there
        domain = "-1,1" if cls.endswith("1") else "-1,1,-1,1"
        code, out, err = run(
            capsys, "check", "--f", "-(x^2)", "--domain", domain, "--class", cls,
            "--resolution", "2", "--halton", "0", "--slices", "1",
        )
        assert code == 2
        assert out == ""
        assert f"tests the {cls} parameter" in err

    @pytest.mark.parametrize(
        "cls, expr, want",
        [("W2", "max(x, y)", 1), ("W2-ordered", "x^2+y^2", 0), ("J2", "-(x^2)", 1),
         ("JQC2", "-(x^2)", 1), ("J1", "-(x^2)", 1), ("JQC1", "x^2", 0)],
    )
    def test_side_two_grid_still_runs_other_classes(self, capsys, cls, expr, want):
        domain = "-1,1" if cls.endswith("1") else "-1,1,-1,1"
        code, _, err = run(
            capsys, "check", "--f", expr, "--domain", domain, "--class", cls,
            "--resolution", "2", "--halton", "0",
        )
        assert (code, err) == (want, "")

    def test_overflowing_witness_margin_is_null_in_strict_json(self, capsys):
        # lhs near 1.6e308 and rhs near -4.2e307: lhs - rhs overflows
        code, out, _ = run(
            capsys, "check", "--f", "1.7e308*cos(3.14159*x)", "--domain", "-1,1",
            "--class", "C1", "--json",
        )
        assert code == 1
        witness = json.loads(out, parse_constant=pytest.fail)["outcome"]["witness"]
        assert witness["margin"] is None
        assert witness["lhs"] > witness["rhs"]

    def test_check_has_no_seed_flag(self, capsys):
        # the grid and the Halton batch are fixed: a check has nothing to seed
        with pytest.raises(SystemExit) as exc:
            main(["check", "--f", "x", "--domain", "0,1", "--class", "C1", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_default_budget_is_the_search_budgets(self, capsys):
        code, out, _ = run(
            capsys, "check", "--f", "x^2", "--domain", "0,1", "--class", "C1", "--json"
        )
        assert code == 0
        budget = SearchBudget()
        assert json.loads(out)["config"] == {
            "resolution": budget.grid_n, "halton": budget.halton_count, "slices": budget.slices
        }

    def test_json_round_trip(self, capsys):
        args = [
            "check", "--f", "-(x^2)", "--domain", "-1,1,-1,1",
            "--class", "JQC2", "--resolution", "9", "--halton", "64", "--json",
        ]
        code, out, _ = run(capsys, *args)
        assert code == 1
        record = json.loads(out)
        assert record["schema"] == 1
        # re-run the recorded inputs; the outcome must reproduce exactly
        rerun = [
            "check",
            "--f", record["inputs"]["expression"],
            "--domain", record["inputs"]["domain"],
            "--class", record["inputs"]["class_id"],
            "--resolution", str(record["config"]["resolution"]),
            "--halton", str(record["config"]["halton"]),
            "--json",
        ]
        code2, out2, _ = run(capsys, *rerun)
        record2 = json.loads(out2)
        assert code2 == code
        assert record2["outcome"] == record["outcome"]


class TestVerify:
    def test_thm_jqc_on_affine(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--inequality", "THM_2_1", "--f", "x+y",
            "--domain", "0,1,0,1",
        )
        assert code == 0
        assert "H" in out

    def test_chain_sharpness(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--inequality", "CHAIN1_6", "--f", "x+y",
            "--domain", "0,1,0,1", "--json",
        )
        assert code == 0
        record = json.loads(out)
        values = [v for _, v in record["outcome"]["terms"]]
        assert max(values) - min(values) <= 1e-9

    def test_hh1d(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--inequality", "HH1D", "--f", "x^2",
            "--domain", "0,1", "--json",
        )
        assert code == 0
        record = json.loads(out)
        values = [v for _, v in record["outcome"]["terms"]]
        assert values == pytest.approx([0.25, 1 / 3, 0.5], abs=1e-8)

    def test_failed_link_exits_one(self, capsys):
        # a concave function breaks the chain
        code, _, _ = run(
            capsys, "verify", "--inequality", "CHAIN1_6", "--f", "-(x^2) - y^2",
            "--domain", "0,1,0,1",
        )
        assert code == 1

    @pytest.mark.parametrize("ineq", ["HH1D", "JQC1D", "WQC1D"])
    def test_non_finite_report_exits_two(self, capsys, ineq):
        # the integral of x over [0, 1e308] overflows; numpy must not warn
        # (warnings are errors here) and no NaN or Infinity reaches stdout
        code, out, err = run(
            capsys, "verify", "--inequality", ineq, "--f", "x",
            "--domain", "0,1e308", "--json",
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {ineq}: ") and "is not finite (inf)" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "ineq, domain",
        [("HH1D", "0,100"), ("JQC1D", "0,100"), ("WQC1D", "0,100"), ("THM_2_4", "0,100,0,100")],
    )
    def test_panels_summing_past_the_float_range_exit_two(self, capsys, ineq, domain):
        # every panel of the constant 1e307 is finite, their sum is not
        code, out, err = run(
            capsys, "verify", "--inequality", ineq, "--f", "1e307", "--domain", domain
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {ineq}: ") and "is not finite (inf)" in err

    @pytest.mark.parametrize(
        "ineq, domain",
        [("HH1D", "-100,100"), ("WQC1D", "-100,100"), ("THM_2_4", "-100,100,-100,100")],
    )
    def test_panels_of_both_signs_past_the_float_range_exit_two(self, capsys, ineq, domain):
        # panels of 1.7e306*x sum to +inf on one side of 0 and -inf on the
        # other; the exact sum of the two is NaN, and the report is refused
        code, out, err = run(
            capsys, "verify", "--inequality", ineq, "--f", "x*1.7e306", "--domain", domain
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {ineq}: ") and "is not finite (nan)" in err

    @pytest.mark.parametrize(
        "ineq, expr, domain, point",
        [
            ("THM_2_1", "log(y + 1) + x", "-1,1,-1,1", "(-0.9989319213901016, -1.0)"),
            ("JQC1D", "log(x + 1)", "-1,1", "(-1.0,)"),
            ("JQC1D", "log(1 - x)", "-1,1", "(1.0,)"),
        ],
    )
    def test_chord_correction_names_the_point_of_f(self, capsys, ineq, expr, domain, point):
        # the chord difference fails at its parameter t; the message gives
        # the chord end where f itself fails
        code, out, err = run(
            capsys, "verify", "--inequality", ineq, "--f", expr, "--domain", domain
        )
        assert code == 2
        assert out == ""
        assert err == f"error: log of non-positive value 0.0 at {point}\n"

    def test_unreported_line_need_not_be_defined(self, capsys):
        # THM_2_4 reports the four edges; f is undefined on the midline x = 0
        code, out, err = run(
            capsys, "verify", "--inequality", "THM_2_4", "--f", "log(abs(x)) + y",
            "--domain", "-1,1,-1,1",
        )
        assert code == 0
        assert "half-sum of edge maxima" in out
        assert err == ""

    def test_box_near_the_float_maximum_names_no_outside_point(self, capsys):
        # the midpoints of [0, 1e308] are finite, so f is never evaluated
        # outside the box; the overflowing means are refused by name
        code, out, err = run(
            capsys, "verify", "--inequality", "CHAIN1_6", "--f", "x*y",
            "--domain", "0,1,0,1e308",
        )
        assert code == 2
        assert out == ""
        assert err == "error: CHAIN1_6: average of midline means is not finite (inf)\n"

    def test_chord_term_of_a_side_past_half_the_float_maximum(self, capsys):
        # H of f = x is (b - a) / 8 on every y-range; 4 times a side of
        # 1e308 overflows, so H must divide by the side before the 4
        def outcome(domain):
            code, out, _ = run(
                capsys, "verify", "--inequality", "THM_2_1", "--f", "x",
                "--domain", domain, "--json",
            )
            assert code == 0
            return json.loads(out)["outcome"]

        long, unit = outcome("0,1e-10,0,1e308"), outcome("0,1e-10,0,1")
        assert long["components"]["H"] == unit["components"]["H"]
        assert long["components"]["H"] == pytest.approx(1.25e-11, rel=1e-12)
        # quad_errors in record order: the midlines, the double mean, x-chord
        assert long["quad_errors"][3] > 0.0
        assert long["side_inequalities"][0]["rhs"] == pytest.approx(
            long["components"]["double integral mean"] + 2.5e-11, rel=1e-12
        )

    @pytest.mark.parametrize("ineq", ["THM_2_1", "THM_2_4", "CHAIN1_6"])
    @pytest.mark.parametrize(
        "expr, domain, area",
        [("x+y", "0,1e-200,0,1e-200", "0.0"), ("1e-300+0*x*y", "0,1e200,0,1e200", "inf")],
    )
    def test_box_whose_area_is_not_a_positive_number_exits_two(
        self, capsys, ineq, expr, domain, area
    ):
        # the area underflows to 0 (a mean would divide by it) or overflows
        # to inf (every mean would read 0); no integral runs
        code, out, err = run(
            capsys, "verify", "--inequality", ineq, "--f", expr, "--domain", domain, "--json"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"has area {area};" in err
        assert err.count("\n") == 1

    def test_unknown_inequality_exits_two(self, capsys):
        code, _, err = run(
            capsys, "verify", "--inequality", "NOPE", "--f", "x", "--domain", "0,1"
        )
        assert code == 2

    def test_dimension_mismatch_exits_two(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--inequality", "THM_2_1", "--f", "x^2",
            "--domain", "0,1",
        )
        assert code == 2


class TestClosedStdout:
    """A reader that goes away (``| head``) does not turn the verdict into
    a crash: the exit code stays the verdict's own."""

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["verify", "--inequality", "HH1D", "--f", "x^2", "--domain", "0,1"], 0),
            (["verify", "--inequality", "CHAIN1_6", "--f", "-(x^2) - y^2",
              "--domain", "0,1,0,1"], 1),
        ],
        ids=["pass", "fail"],
    )
    def test_broken_pipe_keeps_the_exit_code(self, monkeypatch, capsys, argv, want):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to write_end raises BrokenPipeError
        with open(write_end, "w") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            code = main(argv + ["--json"])
        # closing the stream flushed what was left into devnull
        assert code == want
        assert capsys.readouterr().err == ""

    def test_closed_pipe_exits_quietly(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with subprocess.Popen(
            [sys.executable, "-m", "quasiconv", "verify", "--inequality", "HH1D",
             "--f", "x^2", "--domain", "0,1", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            proc.stdout.close()  # gone before the record is written
            err = proc.stderr.read()
            assert proc.wait() == 0
        assert err == b""


class TestSearchAndGallery:
    def test_search_found(self, capsys):
        code, out, _ = run(
            capsys, "search", "--in", "QC2", "--not-in", "C2",
            "--family", "pwl4", "--trials", "100", "--seed", "7",
        )
        assert code == 0
        assert "found at trial" in out

    def test_search_invalid_direction(self, capsys):
        code, _, err = run(capsys, "search", "--in", "C2", "--not-in", "QC2")
        assert code == 2
        assert "chain" in err

    def test_search_exhausted_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "search", "--in", "JQC2", "--not-in", "WQC2",
            "--family", "pwl4", "--trials", "3", "--seed", "0",
        )
        assert code == 1
        assert "exhausted" in out

    @pytest.mark.parametrize(
        "extra, named",
        [
            (("--trials", "0"), "got 0"),
            (("--trials", "-3"), "got -3"),
            (("--family", "poly-1"), "size -1"),
            (("--family", "pwl-2"), "size -2"),
            # affine functions only: they lie in every class
            (("--family", "pwl0"), "size 0 is outside 1..64"),
            (("--family", "poly0"), "size 0 is outside 2..16"),
            (("--family", "poly1"), "size 1 is outside 2..16"),
        ],
    )
    def test_search_refuses_counts_out_of_range(self, capsys, extra, named):
        code, out, err = run(capsys, "search", "--in", "QC2", "--not-in", "C2", *extra)
        assert code == 2
        assert named in err and out == ""

    def test_gallery_list(self, capsys):
        code, out, _ = run(capsys, "gallery")
        assert code == 0
        assert "paraboloid" in out

    def test_gallery_validate(self, capsys):
        code, out, _ = run(capsys, "gallery", "--validate")
        assert code == 0
        assert "claims re-validated" in out

    def test_gallery_json(self, capsys):
        code, out, _ = run(capsys, "gallery", "--validate", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["outcome"]["all_ok"] is True


class TestSharedParser:
    """``main`` builds its parser once per process; later calls share it and
    must behave as if each had a parser of its own."""

    CHECK = ["check", "--f", "x^2", "--domain", "0,1", "--class", "C1",
             "--resolution", "5", "--halton", "16"]

    def test_parser_is_built_once(self, monkeypatch, capsys):
        made = []
        real_init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli.build_parser.cache_clear()
        try:
            codes = [run(capsys, *self.CHECK)[0] for _ in range(3)]
            codes.append(run(capsys, "verify", "--inequality", "HH1D", "--f", "x^2",
                             "--domain", "0,1")[0])
        finally:
            cli.build_parser.cache_clear()
        assert codes == [0, 0, 0, 0]
        # one tree: the top-level parser and its four subcommands
        assert made.count("quasiconv") == 1
        assert len(made) == 5

    def test_json_does_not_stick(self, capsys):
        code, out, _ = run(capsys, *self.CHECK, "--json")
        assert code == 0
        assert json.loads(out)["command"] == "check"
        code, out, _ = run(capsys, *self.CHECK)
        assert code == 0
        assert out.startswith("no violation found at resolution")

    def test_seed_does_not_stick(self, capsys):
        search = ["search", "--in", "QC2", "--not-in", "C2", "--trials", "2", "--json"]
        seeds = []
        for extra in (["--seed", "5"], []):
            _, out, _ = run(capsys, *search, *extra)
            seeds.append(json.loads(out)["config"]["seed"])
        assert seeds == [5, 0]

    def test_usage_error_between_good_calls(self, capsys):
        assert run(capsys, *self.CHECK)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["check", "--f", "x^2", "--domain", "0,1"])
        assert exc.value.code == 2
        assert "the following arguments are required: --class" in capsys.readouterr().err
        code, out, err = run(capsys, *self.CHECK)
        assert code == 0
        assert "no violation found" in out and err == ""

    def test_help_after_earlier_calls(self, capsys):
        assert run(capsys, *self.CHECK)[0] == 0
        code, out, _ = run(capsys)
        assert code == 2
        assert out.startswith("usage: quasiconv")
        assert "{check,verify,search,gallery}" in out

    def test_substitute_bound_after_the_first_call_is_called(self, monkeypatch, capsys):
        assert run(capsys, *self.CHECK)[0] == 0

        def crash(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli, "check_membership", crash)
        code, out, err = run(capsys, *self.CHECK)
        assert code == 3
        assert err.splitlines()[-1] == "internal error: RuntimeError: injected fault"
        assert out == ""


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2


def test_layer_tracer_counts_batched_quadrature(capsys):
    """The benchmark's layer tracer wraps module bindings by name; they must
    all still exist, and the batched chord scans and the stacked chord lanes
    of ``JQC1D`` must reach the traced ``quadrature.eval_array`` so that
    their lanes are counted."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import layers
    finally:
        sys.path.pop(0)
    with layers.Tracer() as tracer:
        verify = main(["verify", "--inequality", "THM_2_1", "--f", "x^2 + abs(y - 0.3)",
                       "--domain", "0,1,0,1", "--json"])
        verify_totals = {k: dict(v) for k, v in tracer.totals().items()}
        jqc = main(["verify", "--inequality", "JQC1D", "--f", "x^2", "--domain", "0,1",
                    "--json"])
        jqc_totals = {k: dict(v) for k, v in tracer.totals().items()}
        check = main(["check", "--f", "x^2+y^2", "--domain", "0,1,0,1", "--class", "QC2",
                      "--resolution", "5", "--halton", "16", "--json"])
    capsys.readouterr()
    assert (verify, jqc, check) == (0, 0, 0)
    ev = {key: jqc_totals["expressions.eval_array"][key]
          - verify_totals["expressions.eval_array"][key] for key in ("calls", "lanes")}
    # one call for the integral mean's 8 panels of 15 nodes; then the chord
    # gap's scan of 257 t's and its two pieces (cut at t = 1/2) of 8 panels,
    # one call each, on both chord points' lanes stacked
    assert ev == {"calls": 3, "lanes": 120 + 2 * (257 + 2 * 8 * 15)}
    # no report builds a chord tree or restricts f: THM_2_1 integrates its
    # two midlines on f's own tape
    assert jqc_totals["expressions.restrict"]["calls"] == 0
    assert jqc_totals["quadrature.abs_difference"]["calls"] == 0
    quad_lanes = verify_totals["expressions.eval_array"]["lanes"]
    # the first outer call of each chord correction scans 120 nodes x 257
    assert quad_lanes >= 2 * 120 * 257
    # THM_2_1's midlines run on f's own tape, not as 1D integrals
    assert verify_totals["quadrature.integrate_1d"]["calls"] == 0
    assert verify_totals["quadrature.integrate_2d"]["calls"] == 1
    totals = tracer.totals()
    assert totals["classifiers.check"]["calls"] == 1
    assert totals["expressions.eval_array"]["lanes"] > quad_lanes


def test_package_names_are_exported_by_their_modules():
    """Each name the package imports from a submodule is in that
    submodule's ``__all__`` (its public names where it has none, as
    ``import *`` reads them)."""
    import ast
    import importlib

    import quasiconv

    tree = ast.parse(Path(quasiconv.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"quasiconv.{node.module}")
        public = [name for name in vars(module) if not name.startswith("_")]
        for alias in node.names:
            assert alias.name in getattr(module, "__all__", public), (node.module, alias.name)
