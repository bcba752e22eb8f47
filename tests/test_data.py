"""Tests for phantom generation, the center degradation recipes, and
resampling, using Monte-Carlo statistics as the oracle for the stochastic
parts."""

import numpy as np
import pytest

from drmc.data import (
    CenterSpec,
    build_dataset,
    default_known_centers,
    default_unknown_centers,
    degrade,
    generate_phantom,
    resample,
    resample_to,
)
from drmc.errors import ConfigError, DimensionError, DomainError
from drmc.tensor import Tensor


# ---------------------------------------------------------------------------
# phantoms


def test_phantom_deterministic_bitwise():
    a = generate_phantom(42, (16, 16, 16))
    b = generate_phantom(42, (16, 16, 16))
    assert np.array_equal(a.full.data, b.full.data)
    assert np.array_equal(a.lesion_mask, b.lesion_mask)


def test_phantom_zero_components_gives_empty():
    p = generate_phantom(0, (16, 16, 16), n_ellipsoids=0, n_lesions=0)
    assert np.array_equal(p.full.data, np.zeros((1, 16, 16, 16), np.float32))
    assert not p.lesion_mask.any()


def test_phantom_nonnegative_and_nonempty_mask():
    for seed in range(20):
        p = generate_phantom(seed, (16, 16, 16))
        assert (p.full.data >= 0).all()
        assert p.lesion_mask.any()
        assert 0.0 < float(p.full.data.mean())


def test_phantom_lesions_brighter_than_surroundings():
    p = generate_phantom(7, (24, 24, 24))
    inside = p.full.data[0][p.lesion_mask].mean()
    outside = p.full.data[0][~p.lesion_mask].mean()
    assert inside > outside


def test_phantom_shape_validation():
    with pytest.raises(DimensionError):
        generate_phantom(0, (8, 8, 8))
    with pytest.raises(DimensionError):
        generate_phantom(0, (16, 16))


# ---------------------------------------------------------------------------
# degradation


def _const_full(value=1.0, shape=(20, 20, 20)):
    return Tensor(np.full((1,) + shape, value, np.float32))


def test_degrade_zero_input_stays_zero():
    c = CenterSpec(id=1, drf=4, psf_sigma=0.5)
    out = degrade(Tensor(np.zeros((1, 16, 16, 16), np.float32)), c, seed=0)
    assert np.array_equal(out.data, np.zeros((1, 16, 16, 16), np.float32))


def test_degrade_rejects_negative_intensities():
    c = CenterSpec(id=1)
    with pytest.raises(DomainError):
        degrade(Tensor(np.full((1, 16, 16, 16), -0.1, np.float32)), c, seed=0)


def test_degrade_near_noiseless_at_huge_counts():
    # drf=1, no blur, unit affine, very large count scale: low ~= full
    c = CenterSpec(id=1, drf=1, psf_sigma=0.0, count_scale=1e6)
    full = generate_phantom(3, (20, 20, 20)).full
    low = degrade(full, c, seed=1)
    rms = np.sqrt(np.mean((low.data - full.data) ** 2))
    assert rms / max(full.data.max(), 1e-9) < 0.01


def test_degrade_preserves_expectation():
    c = CenterSpec(id=1, drf=4, psf_sigma=0.0, count_scale=100)
    low = degrade(_const_full(1.0), c, seed=2)
    n = low.data.size
    se = np.sqrt(c.drf / c.count_scale / n)  # thinned-Poisson standard error
    assert abs(float(low.data.mean()) - 1.0) < 4 * se


def test_degrade_variance_grows_with_dose_reduction():
    variances = []
    for drf in (1.0, 4.0, 12.0):
        c = CenterSpec(id=1, drf=drf, psf_sigma=0.0, count_scale=100)
        low = degrade(_const_full(1.0), c, seed=3)
        var = float(low.data.var())
        variances.append(var)
        assert var == pytest.approx(drf / 100.0, rel=0.2)
    assert variances[0] < variances[1] < variances[2]


def test_degrade_applies_affine_shift():
    c = CenterSpec(id=1, drf=1, psf_sigma=0.0, count_scale=1e6,
                   intensity_gain=2.0, intensity_offset=0.5)
    low = degrade(_const_full(1.0), c, seed=4)
    assert float(low.data.mean()) == pytest.approx(2.5, abs=0.01)


def test_center_spec_validation():
    with pytest.raises(ConfigError):
        CenterSpec(id=1, drf=0.5)
    with pytest.raises(ConfigError):
        CenterSpec(id=1, psf_sigma=-1.0)
    with pytest.raises(ConfigError):
        CenterSpec(id=1, count_scale=0.0)
    with pytest.raises(ConfigError):
        CenterSpec(id=1, phantom="cardiac")


# ---------------------------------------------------------------------------
# resampling


def test_resample_scale_one_is_bitwise_identity():
    v = generate_phantom(5, (16, 16, 16)).full
    out = resample(v, 1.0)
    assert np.array_equal(out.data, v.data)


def test_resample_preserves_constants():
    v = _const_full(0.7, (16, 16, 16))
    for scale in (0.75, 1.5):
        out = resample(v, scale)
        assert np.allclose(out.data, 0.7, atol=1e-6)


def test_resample_round_trip_smooth_volume():
    # smooth blob, upsample 2x then back: small reconstruction error
    z, y, x = np.indices((20, 20, 20)).astype(np.float64)
    blob = np.exp(-(((z - 10) ** 2 + (y - 10) ** 2 + (x - 10) ** 2) / 40.0))
    v = Tensor(blob[np.newaxis].astype(np.float32))
    back = resample_to(resample(v, 2.0), (20, 20, 20))
    rms = np.sqrt(np.mean((back.data - v.data) ** 2))
    assert rms / v.data.max() < 0.05


def test_resample_invalid_scale():
    v = _const_full(1.0, (16, 16, 16))
    with pytest.raises(DimensionError):
        resample(v, 0.0)
    with pytest.raises(DimensionError):
        resample_to(v, (0, 16, 16))


# ---------------------------------------------------------------------------
# dataset assembly


def test_build_dataset_counts_and_splits():
    records = build_dataset(default_known_centers(), 2, 1, shape=(16, 16, 16), seed=0)
    assert len(records) == 4 * 3
    assert sorted({r.center_id for r in records}) == [1, 2, 3, 4]
    for cid in (1, 2, 3, 4):
        mine = [r for r in records if r.center_id == cid]
        assert [r.split for r in mine] == ["train", "train", "test"]
        for r in mine:
            assert r.low.data.shape == r.full.data.shape == (1, 16, 16, 16)


def test_build_dataset_phantoms_disjoint_across_splits():
    records = build_dataset(default_known_centers()[:2], 2, 2, shape=(16, 16, 16), seed=1)
    fulls = [r.full.data for r in records]
    for i in range(len(fulls)):
        for j in range(i + 1, len(fulls)):
            assert not np.array_equal(fulls[i], fulls[j])


def test_build_dataset_is_deterministic():
    a = build_dataset(default_known_centers()[:1], 1, 1, shape=(16, 16, 16), seed=2)
    b = build_dataset(default_known_centers()[:1], 1, 1, shape=(16, 16, 16), seed=2)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.low.data, rb.low.data)
        assert np.array_equal(ra.full.data, rb.full.data)


def test_build_dataset_needs_centers():
    with pytest.raises(ConfigError):
        build_dataset([], 1, 1)


def test_known_centers_exhibit_domain_shift():
    records = build_dataset(default_known_centers(), 4, 0, shape=(16, 16, 16), seed=3)
    stats = {}
    for cid in (1, 2, 3, 4):
        lows = np.stack([r.low.data for r in records if r.center_id == cid])
        stats[cid] = (float(lows.mean()), float(lows.std()))
    means = [m for m, _ in stats.values()]
    stds = [s for _, s in stats.values()]
    # every pair of centers differs by more than 1% in mean or spread
    for i in range(4):
        for j in range(i + 1, 4):
            rel_mean = abs(means[i] - means[j]) / max(abs(means[i]), 1e-9)
            rel_std = abs(stds[i] - stds[j]) / max(stds[i], 1e-9)
            assert max(rel_mean, rel_std) > 0.01


def test_unknown_centers_defaults():
    unknown = default_unknown_centers()
    assert [c.id for c in unknown] == [5, 6]
    assert unknown[0].phantom == "brain" and not unknown[0].lesions
    records = build_dataset(unknown[:1], 0, 1, shape=(16, 16, 16), seed=4)
    assert not records[0].lesion_mask.any()
