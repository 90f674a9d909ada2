import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pblayers.errors import BadRadii, ConfigError, InconsistentParams
from pblayers.geometry import RegionParams, make_annulus, make_ball, make_disk
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


class TestRegions:
    def test_params_validation(self):
        with pytest.raises(InconsistentParams):
            RegionParams(eps=1e-2, beta=0.25, T=5.0)  # 0.5 > 0.316
        with pytest.raises(ConfigError):
            RegionParams(eps=1e-4, beta=0.7, T=1.0)

    def test_classification_examples(self):
        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        assert params.band(0.0) == 1
        assert params.band(params.outer_width) == 2
        assert params.band(0.2) == 3  # 0.2 > 1e-1

    def test_band_edges(self):
        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        assert params.band(params.inner_width) == 2
        w = params.inner_width
        assert params.band(w * (1 - 1e-12)) == 1
        assert params.band(np.nextafter(params.outer_width, 1.0)) == 3

    def test_band_depths(self):
        params = RegionParams(eps=1e-4, beta=0.25, T=5.0)
        assert params.depths(1) == (0.0, params.inner_width)
        assert params.depths(2) == (params.inner_width, params.outer_width)
        for band in (0, 3):
            with pytest.raises(ConfigError):
                params.depths(band)

    @given(st.lists(st.floats(0, 1e3), min_size=1, max_size=20), st.floats(1e-8, 1e-2),
           st.floats(0.05, 0.45), st.floats(0.1, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_partition(self, dists, eps, beta, T):
        try:
            params = RegionParams(eps=eps, beta=beta, T=T)
        except InconsistentParams:
            return
        regions = params.band(np.array(dists))
        assert regions.shape == (len(dists),)
        for dist, region in zip(dists, regions):
            assert region == params.band(dist)
            if dist < params.inner_width:
                assert region == 1
            elif dist <= params.outer_width:
                assert region == 2
            else:
                assert region == 3
