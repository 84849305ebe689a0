import dataclasses
import json
import math

import numpy as np
import pytest

from vroute.efficiency import (VARIANT_ORDER, ArchSpec, added_params,
                               cost_report, granite_preset, macs_per_token)
from vroute.rng import RngStream
from vroute.routers import RouterSettings, make_router
from vroute.tensor import Tensor


GRANITE = granite_preset()


class TestParameterCounts:
    def test_granite_weight_space(self):
        assert added_params(GRANITE, "weight_space") == 20_889_600
        assert round(added_params(GRANITE, "weight_space") / 1e6, 1) == 20.9

    def test_weight_space_s1_is_zero(self):
        spec = ArchSpec(10, 40, 1536, 384, 1, 800e6, 800e6)
        assert added_params(spec, "weight_space") == 0

    def test_weight_space_linear_in_layers(self):
        doubled = ArchSpec(20, 40, 1536, 384, 35, 800e6, 800e6)
        assert added_params(doubled, "weight_space") == \
            2 * added_params(GRANITE, "weight_space")

    def test_granite_mean_field(self):
        assert added_params(GRANITE, "vglr_mf") == 6_205_440
        assert round(added_params(GRANITE, "vglr_mf") / 1e6, 1) == 6.2

    def test_mean_field_width_one(self):
        spec = ArchSpec(3, 7, 11, 1, 35, 800e6, 800e6)
        assert added_params(spec, "vglr_mf") == 3 * (11 + 2 * 7)

    def test_granite_full_covariance(self):
        assert added_params(GRANITE, "vglr_fc") == 9_200_640
        assert round(added_params(GRANITE, "vglr_fc") / 1e6, 1) == 9.2

    def test_full_covariance_single_expert_head(self):
        spec = ArchSpec(1, 1, 8, 4, 35, 800e6, 800e6)
        assert added_params(spec, "vglr_fc") == 8 * 4 + 4 * 1 + 4 * 1

    def test_fc_exceeds_mf_for_two_plus_experts(self):
        for n in range(2, 65):
            spec = ArchSpec(5, n, 256, 64, 35, 800e6, 800e6)
            assert added_params(spec, "vglr_fc") > \
                added_params(spec, "vglr_mf")

    def test_granite_temperature(self):
        assert added_params(GRANITE, "vtsr") == 5_905_930
        assert round(added_params(GRANITE, "vtsr") / 1e6, 1) == 5.9

    def test_temperature_width_one(self):
        # Trunk D*H and its H biases, head H and its one bias.
        spec = ArchSpec(4, 9, 33, 1, 35, 800e6, 800e6)
        assert added_params(spec, "vtsr") == 4 * (33 + 1 + 1 + 1)

    @pytest.mark.parametrize("dim, experts, width",
                             [(32, 8, 8), (11, 7, 1), (16, 3, 5)])
    @pytest.mark.parametrize("variant", ["vglr_mf", "vglr_fc", "vtsr"])
    def test_counts_the_parameters_the_router_builds(self, variant, dim,
                                                     experts, width):
        router = make_router(variant, Tensor(np.zeros((dim, experts))), 1,
                             RouterSettings(), width, RngStream(0))
        built = sum(p.data.size for _, p in router.phi_items())
        spec = ArchSpec(3, experts, dim, width, 35, 800e6, 800e6)
        assert added_params(spec, variant) == 3 * built

    def test_temperature_independent_of_samples(self):
        a = ArchSpec(10, 40, 1536, 384, 1, 800e6, 800e6)
        b = ArchSpec(10, 40, 1536, 384, 99, 800e6, 800e6)
        assert added_params(a, "vtsr") == added_params(b, "vtsr")

    BOUNDS = {"layers": 0, "num_experts": 0, "hidden_dim": 0,
              "inference_width": 0, "samples": 0, "base_active_params": 0.0,
              "base_macs_per_token": 0.0}

    @pytest.mark.parametrize("field", sorted(BOUNDS))
    def test_invalid_expert_count_rejected(self, field):
        # Counts must be >= 1 and base costs > 0; each value is the first
        # one out of bounds.
        with pytest.raises(ValueError):
            dataclasses.replace(GRANITE, **{field: self.BOUNDS[field]})

    @pytest.mark.parametrize("field", ["base_active_params",
                                       "base_macs_per_token"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_base_cost_rejected(self, field, value):
        with pytest.raises(ValueError, match="base costs must be finite"):
            dataclasses.replace(GRANITE, **{field: value})


class TestMacs:
    # reported GFLOPs to reproduce within +-15%
    REPORTED = {"weight_space": 0.0208e9, "vglr_mf": 0.0069e9,
                "vglr_fc": 0.0096e9, "vtsr": 0.0060e9}

    def test_weight_space_value(self):
        assert macs_per_token(GRANITE, "weight_space") == 21_504_000

    def test_temperature_value(self):
        assert macs_per_token(GRANITE, "vtsr") == 5_902_480

    @pytest.mark.parametrize("variant", sorted(REPORTED))
    def test_within_fifteen_percent_of_reported(self, variant):
        ours = macs_per_token(GRANITE, variant)
        ref = self.REPORTED[variant]
        assert abs(ours - ref) / ref < 0.15

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            macs_per_token(GRANITE, "swag")


class TestOverhead:
    def test_granite_percentages(self):
        rows = {r.variant: r for r in cost_report(GRANITE).rows}
        assert rows["weight_space"].params_pct == pytest.approx(2.61, abs=0.02)
        assert rows["vglr_mf"].params_pct == pytest.approx(0.78, abs=0.02)
        assert rows["vglr_fc"].params_pct == pytest.approx(1.15, abs=0.02)
        assert rows["vtsr"].params_pct == pytest.approx(0.74, abs=0.02)


class TestMonotonicity:
    AXES = {"layers": 1, "num_experts": 2, "hidden_dim": 3,
            "inference_width": 0}

    @pytest.mark.parametrize("axis", sorted(AXES))
    def test_counts_non_decreasing(self, axis):
        import dataclasses
        base = ArchSpec(4, 16, 256, 32, 8, 800e6, 800e6)
        for variant in ("weight_space", "vglr_mf", "vglr_fc", "vtsr"):
            prev_p, prev_m = -1, -1
            for value in (getattr(base, axis), getattr(base, axis) * 2,
                          getattr(base, axis) * 4):
                spec = dataclasses.replace(base, **{axis: value})
                p, m = added_params(spec, variant), macs_per_token(spec, variant)
                assert p >= prev_p and m >= prev_m
                prev_p, prev_m = p, m


class TestReport:
    def test_schema_round_trip(self):
        report = cost_report(GRANITE)
        payload = json.loads(json.dumps(dataclasses.asdict(report)))
        assert payload == dataclasses.asdict(report)
        assert set(payload) == {"spec", "rows"}
        assert set(payload["spec"]) == {
            f.name for f in dataclasses.fields(ArchSpec)}
        assert [r["variant"] for r in payload["rows"]] == list(VARIANT_ORDER)
        for row in payload["rows"]:
            assert set(row) == {"variant", "params", "params_pct",
                                "macs_per_token", "macs_pct"}

    def test_rows_match_functions(self):
        report = cost_report(GRANITE)
        by_name = {r.variant: r for r in report.rows}
        assert by_name["weight_space"].params == \
            added_params(GRANITE, "weight_space")
        assert by_name["vtsr"].macs_per_token == macs_per_token(GRANITE, "vtsr")
