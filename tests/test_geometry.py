import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pblayers.errors import BadRadii, ConfigError, InconsistentParams
from pblayers.geometry import (
    RegionParams,
    classify_point,
    make_annulus,
    make_ball,
    make_disk,
    steiner_factor,
)
from pblayers.profiles import RobinData


class TestBuilders:
    def test_disk(self):
        dom = make_disk(1.0, RobinData(0.1, 1.0))
        comp = dom.components[0]
        assert dom.volume == pytest.approx(math.pi)
        assert comp.surface_area == pytest.approx(2 * math.pi)
        assert comp.mean_curvature == 1.0
        assert comp.curvature_integral == pytest.approx(2 * math.pi)

    def test_annulus(self):
        dom = make_annulus(2, 1.0, 2.0, RobinData(0.1, 1.0), RobinData(0.1, -1.0))
        assert dom.volume == pytest.approx(3 * math.pi)
        outer, hole = dom.components
        assert outer.surface_area == pytest.approx(4 * math.pi)
        assert hole.surface_area == pytest.approx(2 * math.pi)
        assert outer.mean_curvature == 0.5
        assert hole.mean_curvature == -1.0
        assert outer.curvature_integral == pytest.approx(2 * math.pi)
        assert hole.curvature_integral == pytest.approx(-2 * math.pi)

    def test_ball(self):
        dom = make_ball(3, 2.0, RobinData(0.0, 1.0))
        comp = dom.components[0]
        assert comp.mean_curvature == pytest.approx(0.5)
        assert (3 - 1) * comp.mean_curvature == pytest.approx(1.0)
        assert dom.volume == pytest.approx(4 / 3 * math.pi * 8)
        assert comp.surface_area == pytest.approx(4 * math.pi * 4)

    def test_bad_radii(self):
        with pytest.raises(BadRadii):
            make_annulus(2, 2.0, 1.0)
        with pytest.raises(BadRadii):
            make_ball(2, -1.0)

    def test_steiner_tube_recovers_planar_volume(self):
        # in d = 2 the parallel-curve length is exact: integrate the factor
        # across the annulus gap and recover the area
        dom = make_annulus(2, 1.0, 2.0)
        outer = dom.components[0]
        eps = 1e-4
        depths = np.linspace(0.0, 1.0, 20001)  # physical distance inward from R
        lengths = outer.surface_area * np.array(
            [steiner_factor(outer.mean_curvature, s / math.sqrt(eps), eps, 2) for s in depths]
        )
        assert np.trapezoid(lengths, depths) == pytest.approx(dom.volume, rel=1e-8)


class TestRegions:
    def test_params_validation(self):
        with pytest.raises(InconsistentParams):
            RegionParams(eps=1e-2, beta=0.25, T=5.0)  # 0.5 > 0.316
        with pytest.raises(ConfigError):
            RegionParams(eps=1e-4, beta=0.7, T=1.0)

    def test_classification_examples(self):
        dom = make_disk(1.0)
        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        assert classify_point(dom, 0, 0.0, params) == "I"
        assert classify_point(dom, 0, params.outer_width, params) == "II"
        assert classify_point(dom, 0, 0.2, params) == "III"  # 0.2 > 1e-1

    def test_band_edges(self):
        dom = make_disk(1.0)
        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        assert classify_point(dom, 0, params.inner_width, params) == "II"
        w = params.inner_width
        assert classify_point(dom, 0, w * (1 - 1e-12), params) == "I"

    def test_stretched_outer_limit(self):
        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        assert params.stretched_outer == pytest.approx(10.0)

    @given(st.floats(0, 1e3), st.floats(1e-8, 1e-2), st.floats(0.05, 0.45), st.floats(0.1, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_partition(self, dist, eps, beta, T):
        try:
            params = RegionParams(eps=eps, beta=beta, T=T)
        except InconsistentParams:
            return
        dom = make_disk(1.0)
        region = classify_point(dom, 0, dist, params)
        if dist < params.inner_width:
            assert region == "I"
        elif dist <= params.outer_width:
            assert region == "II"
        else:
            assert region == "III"

    def test_bad_component(self):
        dom = make_disk(1.0)
        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        with pytest.raises(ConfigError):
            classify_point(dom, 3, 0.0, params)


class TestSteiner:
    def test_trivials(self):
        assert steiner_factor(1.0, 0.0, 1e-4, 2) == 1.0
        assert steiner_factor(0.0, 7.3, 1e-4, 2) == 1.0

    def test_arithmetic(self):
        assert steiner_factor(1.0, 5.0, 1e-4, 2) == pytest.approx(0.95)

    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigError):
            steiner_factor(1.0, -1.0, 1e-4, 2)
