import dataclasses
import importlib.util
from importlib import resources
from pathlib import Path

import pytest

from quasiconv import (
    Box2,
    ClassId,
    GalleryDrift,
    InvalidSearchPair,
    PiecewiseLinear,
    PolynomialBasis,
    SearchConfig,
    check_membership,
    defining_inequality,
    load_gallery,
    search_separation,
    strengthen_witness,
    validate_gallery,
)
from quasiconv.inclusions import (
    family_from_name,
    inclusion_superclasses,
    is_valid_separation_pair,
    parse_catalog,
    sample_trial,
)


class TestInclusionGraph:
    def test_chain_order(self):
        assert ClassId.WQC2 in inclusion_superclasses(ClassId.QC2)
        assert ClassId.JQC2 in inclusion_superclasses(ClassId.QC2)
        assert ClassId.JQC2 in inclusion_superclasses(ClassId.W2)
        assert ClassId.QC2 not in inclusion_superclasses(ClassId.JQC2)

    def test_coordinate_classes_are_supersets(self):
        assert ClassId.COORD_QC2 in inclusion_superclasses(ClassId.QC2)
        assert ClassId.COORD_JQC2 in inclusion_superclasses(ClassId.C2)

    def test_pair_validity(self):
        assert is_valid_separation_pair(ClassId.QC2, ClassId.C2)
        assert not is_valid_separation_pair(ClassId.C2, ClassId.QC2)
        assert is_valid_separation_pair(ClassId.JQC2, ClassId.WQC2)
        assert is_valid_separation_pair(ClassId.COORD_C2, ClassId.C2)


class TestGallery:
    def test_loads_and_is_nonempty(self):
        entries = load_gallery()
        assert len(entries) >= 10
        names = {e.name for e in entries}
        assert {"paraboloid", "saddle", "dome", "sqrt-ridge"} <= names

    def test_every_not_in_claim_has_witness(self):
        for entry in load_gallery():
            for claim in entry.claimed_not_in:
                assert claim in entry.witnesses, (entry.name, claim.value)

    def test_validates_clean(self):
        results = validate_gallery()
        assert results and all(r.ok for r in results)

    @staticmethod
    def regenerate_tool():
        path = Path(__file__).resolve().parents[1] / "tools" / "regenerate_gallery.py"
        spec = importlib.util.spec_from_file_location("regenerate_gallery", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool

    def test_shipped_catalog_is_the_regenerated_one(self):
        shipped = resources.files("quasiconv").joinpath("data/gallery.txt").read_text()
        assert self.regenerate_tool().catalog_text() == shipped

    def test_regeneration_fills_in_left_out_witnesses(self):
        shipped = resources.files("quasiconv").joinpath("data/gallery.txt").read_text()
        bare = "\n".join(x for x in shipped.splitlines() if not x.startswith("witness "))
        assert bare != shipped
        assert self.regenerate_tool().catalog_text(bare) == shipped

    @pytest.mark.parametrize(
        "expr, claims", [("-(x^2)", "in: C1\nnot_in:"), ("x^2", "in:\nnot_in: C1")]
    )
    def test_regeneration_refuses_a_failing_claim(self, expr, claims):
        source = f"[bad]\nexpr: {expr}\ndomain: -1, 1\n{claims}\n"
        with pytest.raises(ValueError, match="C1"):
            self.regenerate_tool().catalog_text(source)

    def test_tampered_witness_drifts(self):
        entries = load_gallery()
        target = next(e for e in entries if e.name == "dome")
        bad_witness = dict(target.witnesses[ClassId.C2])
        bad_witness["params"] = {"lam": 0.0}  # endpoint makes equality, no margin
        tampered = dataclasses.replace(
            target, witnesses={**target.witnesses, ClassId.C2: bad_witness}
        )
        with pytest.raises(GalleryDrift):
            validate_gallery([tampered])

    def test_chain_inconsistency_detected(self):
        entries = load_gallery()
        target = next(e for e in entries if e.name == "paraboloid")
        # claiming membership in the subclass while denying the superclass
        tampered = dataclasses.replace(
            target,
            claimed_not_in=(ClassId.JQC2,),
            witnesses={ClassId.JQC2: {"class_id": "JQC2", "p1": [0, 0], "p2": [1, 1], "params": {}}},
        )
        with pytest.raises(GalleryDrift) as exc:
            validate_gallery([tampered])
        assert "superclass" in exc.value.detail

    def test_catalog_round_trip(self):
        entries = load_gallery()
        text_entries = parse_catalog(
            "\n".join(
                [
                    "[demo]",
                    "expr: x^2",
                    "domain: 0, 1",
                    "in: C1, QC1",
                    "not_in:",
                    "grid: 5",
                    "halton: 32",
                    "notes: round trip",
                ]
            )
        )
        assert text_entries[0].name == "demo"
        assert text_entries[0].claimed_in == (ClassId.C1, ClassId.QC1)
        assert entries[0].budget.grid_n == entries[0].grid_n

    def test_gallery_jqc_witnesses_strengthen_consistently(self):
        # a JQC2 witness strengthens into WQC2 and QC2 violations, matching
        # the weaker-class claims of the same entry
        for entry in load_gallery():
            if ClassId.JQC2 not in entry.claimed_not_in:
                continue
            f = entry.function()
            stored = entry.witnesses[ClassId.JQC2]
            verdict = check_membership(f, entry.domain, ClassId.JQC2, budget=entry.budget)
            assert verdict.violated
            w = verdict.witness
            w_wqc = strengthen_witness(w)
            lhs, rhs = defining_inequality(ClassId.WQC2, f, w_wqc.p1, w_wqc.p2, w_wqc.params)
            assert lhs == w_wqc.lhs and rhs == w_wqc.rhs
            assert ClassId.WQC2 in entry.claimed_not_in
            w_qc = strengthen_witness(w_wqc, f)
            lhs, rhs = defining_inequality(ClassId.QC2, f, w_qc.p1, w_qc.p2, w_qc.params)
            assert lhs == w_qc.lhs and rhs == w_qc.rhs
            assert ClassId.QC2 in entry.claimed_not_in


class TestFamilies:
    def test_family_names(self):
        assert family_from_name("pwl4") == PiecewiseLinear(4)
        assert family_from_name("poly3") == PolynomialBasis(3)
        with pytest.raises(ValueError):
            family_from_name("fourier2")

    def test_family_sizes_are_capped(self):
        assert family_from_name("pwl0") == PiecewiseLinear(0)
        assert family_from_name("pwl64") == PiecewiseLinear(64)
        assert family_from_name("poly16") == PolynomialBasis(16)
        # refused before anything is sampled: this one would ask numpy for
        # hundreds of GiB
        for name, size in (("pwl99999999999", 99999999999), ("pwl65", 65),
                           ("poly17", 17), ("poly-1", -1)):
            with pytest.raises(ValueError, match=f"size {size} is outside"):
                family_from_name(name)

    def test_pwl_samples_parse_and_evaluate(self):
        import numpy as np

        fam = PiecewiseLinear(4)
        box = Box2.from_bounds(-1, 1, -1, 1)
        rng = np.random.default_rng(3)
        f = fam.sample(rng, box)
        assert f.arity == 2
        f(0.2, -0.4)

    def test_poly_samples_evaluate(self):
        import numpy as np

        fam = PolynomialBasis(3)
        box = Box2.from_bounds(-1, 1, -1, 1)
        f = fam.sample(np.random.default_rng(4), box)
        f(0.5, 0.5)


class TestSearch:
    def test_monotone_ramp_separates_qc_from_convex(self):
        cfg = SearchConfig(
            target_in=ClassId.QC2,
            target_not_in=ClassId.C2,
            family=PiecewiseLinear(4),
            trials=100,
            seed=7,
        )
        result = search_separation(cfg)
        assert result.found
        assert result.verdict_in.no_violation_found
        assert result.witness_not_in.margin > 0

    def test_found_result_revalidates_from_seed(self):
        cfg = SearchConfig(
            target_in=ClassId.QC2,
            target_not_in=ClassId.C2,
            family=PiecewiseLinear(4),
            trials=100,
            seed=7,
        )
        first = search_separation(cfg)
        again = search_separation(cfg)
        assert first.trial == again.trial
        assert first.expr_text == again.expr_text
        assert first.witness_not_in == again.witness_not_in
        f = sample_trial(cfg, first.trial)
        assert f.text == first.expr_text
        w = first.witness_not_in
        lhs, rhs = defining_inequality(ClassId.C2, f, w.p1, w.p2, w.params)
        assert lhs == w.lhs and rhs == w.rhs

    def test_wrong_direction_rejected(self):
        with pytest.raises(InvalidSearchPair):
            SearchConfig(target_in=ClassId.C2, target_not_in=ClassId.QC2)

    def test_wqc_vs_jqc_separation_stays_empirical(self):
        # the monotone family cannot split WQC from JQC; exhaustion is the
        # honest recorded outcome
        cfg = SearchConfig(
            target_in=ClassId.JQC2,
            target_not_in=ClassId.WQC2,
            family=PiecewiseLinear(4),
            trials=5,
            seed=0,
        )
        result = search_separation(cfg)
        assert not result.found
        assert result.trials_run == 5
        assert "exhausted" in result.describe()
