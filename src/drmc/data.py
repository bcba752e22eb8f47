"""Synthetic paired full-dose/low-dose volumes for virtual imaging centers.

Each virtual center owns a degradation recipe (Poisson count thinning for
dose reduction, Gaussian point-spread blur, a voxel-spacing round-trip, and
an affine intensity shift) so that the generated centers exhibit a real,
measurable domain shift while sharing the same underlying phantom anatomy
family. All randomness flows from explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigurationError, DimensionError, DomainError
from .tensor import Tensor


@dataclass
class CenterSpec:
    id: int
    drf: float = 1.0
    psf_sigma: float = 0.0
    spacing_scale: float = 1.0
    count_scale: float = 100.0
    intensity_gain: float = 1.0
    intensity_offset: float = 0.0
    phantom: str = "body"
    lesions: bool = True

    def __post_init__(self):
        if self.drf < 1.0:
            raise ConfigurationError(f"center {self.id}: drf must be >= 1, got {self.drf}")
        if self.psf_sigma < 0.0:
            raise ConfigurationError(
                f"center {self.id}: psf_sigma must be >= 0, got {self.psf_sigma}"
            )
        if self.count_scale <= 0.0:
            raise ConfigurationError(
                f"center {self.id}: count_scale must be > 0, got {self.count_scale}"
            )
        if self.phantom not in ("body", "brain"):
            raise ConfigurationError(
                f"center {self.id}: phantom must be 'body' or 'brain', got {self.phantom!r}"
            )


@dataclass
class Phantom:
    full: Tensor  # [1, D, H, W], nonnegative
    lesion_mask: np.ndarray  # bool, [D, H, W]
    meta: dict


@dataclass
class SampleRecord:
    center_id: int
    low: Tensor
    full: Tensor
    lesion_mask: np.ndarray
    split: str  # train | test


def generate_phantom(
    seed: int,
    shape: tuple[int, int, int],
    n_ellipsoids: int = 6,
    n_lesions: int = 2,
    style: str = "body",
) -> Phantom:
    """Smooth random-ellipsoid background plus small bright lesions.

    Deterministic given the seed; lesion voxels are recorded in the mask.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or min(shape) < 16:
        raise DimensionError(f"phantom shape must be 3-d with dims >= 16, got {shape}")
    if n_ellipsoids < 0 or n_lesions < 0:
        raise DimensionError("ellipsoid/lesion counts must be >= 0")
    rng = np.random.default_rng(seed)
    grid = np.indices(shape).astype(np.float64)
    vol = np.zeros(shape, np.float64)
    mask = np.zeros(shape, bool)

    if style == "brain":
        n_ellipsoids = max(n_ellipsoids, 10)
        axis_lo, axis_hi = 0.05, 0.18
        intens_lo, intens_hi = 0.5, 1.2
    else:
        axis_lo, axis_hi = 0.15, 0.40
        intens_lo, intens_hi = 0.2, 1.0

    ellipsoids = []
    for _ in range(n_ellipsoids):
        center = rng.uniform(0.2, 0.8, 3) * shape
        axes = rng.uniform(axis_lo, axis_hi, 3) * shape
        amp = rng.uniform(intens_lo, intens_hi)
        r2 = sum(((grid[k] - center[k]) / axes[k]) ** 2 for k in range(3))
        vol += amp * np.maximum(0.0, 1.0 - r2)
        ellipsoids.append(
            {"center": center.tolist(), "axes": axes.tolist(), "amp": float(amp), "kind": "bg"}
        )

    for _ in range(n_lesions):
        center = rng.uniform(0.3, 0.7, 3) * shape
        axes = np.maximum(rng.uniform(0.04, 0.10, 3) * shape, 1.2)
        cidx = tuple(np.clip(np.round(center).astype(int), 0, np.array(shape) - 1))
        local = max(vol[cidx], 0.2)
        amp = rng.uniform(1.5, 3.0) * local
        r2 = sum(((grid[k] - center[k]) / axes[k]) ** 2 for k in range(3))
        vol += amp * np.maximum(0.0, 1.0 - r2)
        lesion_region = r2 <= 1.0
        lesion_region[cidx] = True  # at least the center voxel
        mask |= lesion_region
        ellipsoids.append(
            {"center": center.tolist(), "axes": axes.tolist(), "amp": float(amp), "kind": "lesion"}
        )

    full = Tensor(vol[np.newaxis].astype(np.float32))
    return Phantom(full=full, lesion_mask=mask, meta={"seed": seed, "ellipsoids": ellipsoids})


def degrade(full: Tensor, c: CenterSpec, seed: int) -> Tensor:
    """Dose reduction in image space: Poisson thinning at counts scaled down
    by the dose-reduction factor (expectation-preserving, variance grows with
    drf), then PSF blur, then the center's affine intensity shift."""
    data = full.data.astype(np.float64)
    if (data < 0).any():
        raise DomainError("degrade requires nonnegative intensities")
    rng = np.random.default_rng(seed)
    lam = data * (c.count_scale / c.drf)
    counts = rng.poisson(lam).astype(np.float64)
    img = counts * (c.drf / c.count_scale)
    if c.psf_sigma > 0:
        sigma = (0.0,) * (img.ndim - 3) + (c.psf_sigma,) * 3
        img = ndimage.gaussian_filter(img, sigma=sigma, mode="nearest")
    img = c.intensity_gain * img + c.intensity_offset
    return Tensor(img.astype(np.float32))


def _resample_axes(v: Tensor, target_spatial: tuple[int, int, int]) -> Tensor:
    data = v.data
    spatial = data.shape[-3:]
    if any(t < 1 for t in target_spatial):
        raise DimensionError(f"resample target {target_spatial} has empty dimension")
    coords = np.meshgrid(
        *[
            (np.arange(t) + 0.5) * (s / t) - 0.5
            for s, t in zip(spatial, target_spatial)
        ],
        indexing="ij",
    )
    coords = np.stack(coords)

    def interp(volume3d):
        return ndimage.map_coordinates(
            volume3d.astype(np.float64), coords, order=1, mode="nearest"
        )

    lead = data.shape[:-3]
    flat = data.reshape((-1,) + spatial)
    out = np.stack([interp(f) for f in flat])
    return Tensor(out.reshape(lead + tuple(target_spatial)).astype(np.float32))


def resample(v: Tensor, scale: float) -> Tensor:
    """Trilinear resampling of the spatial axes by a uniform factor."""
    if scale <= 0:
        raise DimensionError(f"resample scale must be > 0, got {scale}")
    spatial = v.data.shape[-3:]
    if scale == 1.0:
        return Tensor(v.data.copy())
    target = tuple(int(round(s * scale)) for s in spatial)
    return _resample_axes(v, target)


def resample_to(v: Tensor, target_spatial: tuple[int, int, int]) -> Tensor:
    """Trilinear resampling to an explicit spatial shape (common-grid step)."""
    if tuple(v.data.shape[-3:]) == tuple(target_spatial):
        return Tensor(v.data.copy())
    return _resample_axes(v, tuple(target_spatial))


_BODY_PHANTOM = {"n_ellipsoids": 6, "n_lesions": 2}
_BRAIN_PHANTOM = {"n_ellipsoids": 12, "n_lesions": 0}


def _phantom_for(center: CenterSpec, seed: int, shape) -> Phantom:
    params = dict(_BRAIN_PHANTOM if center.phantom == "brain" else _BODY_PHANTOM)
    if not center.lesions:
        params["n_lesions"] = 0
    return generate_phantom(seed, shape, style=center.phantom, **params)


def build_dataset(
    centers: list[CenterSpec],
    n_train_per_center: int = 8,
    n_test_per_center: int = 4,
    shape: tuple[int, int, int] = (24, 24, 24),
    seed: int = 0,
) -> list[SampleRecord]:
    """Paired volumes for every center: generate phantom, degrade with the
    center's recipe, run the voxel-spacing round-trip back onto the common
    grid. Train/test phantom seeds are disjoint by construction."""
    if not centers:
        raise ConfigurationError("build_dataset needs at least one center")
    records = []
    for c in centers:
        for k in range(n_train_per_center + n_test_per_center):
            split = "train" if k < n_train_per_center else "test"
            rec_seed = 1_000_003 * seed + 10_007 * c.id + k
            phantom = _phantom_for(c, rec_seed, shape)
            low = degrade(phantom.full, c, seed=rec_seed + 500_009)
            if c.spacing_scale != 1.0:
                low = resample_to(resample(low, c.spacing_scale), shape)
            records.append(
                SampleRecord(
                    center_id=c.id,
                    low=low,
                    full=phantom.full,
                    lesion_mask=phantom.lesion_mask,
                    split=split,
                )
            )
    return records


def default_known_centers() -> list[CenterSpec]:
    """Four training centers mirroring the structure of a multi-site study:
    distinct dose-reduction factors, blurs, spacings and intensity scales."""
    return [
        CenterSpec(id=1, drf=12, psf_sigma=1.0, spacing_scale=1.0,
                   count_scale=120, intensity_gain=1.0, intensity_offset=0.0),
        CenterSpec(id=2, drf=4, psf_sigma=0.6, spacing_scale=0.8,
                   count_scale=150, intensity_gain=1.3, intensity_offset=0.05),
        CenterSpec(id=3, drf=10, psf_sigma=0.8, spacing_scale=1.25,
                   count_scale=100, intensity_gain=0.8, intensity_offset=0.10),
        CenterSpec(id=4, drf=10, psf_sigma=0.7, spacing_scale=0.9,
                   count_scale=130, intensity_gain=1.1, intensity_offset=0.02),
    ]


def default_unknown_centers() -> list[CenterSpec]:
    """Two held-out centers: a lesion-free 'brain-like' center and a near
    twin of center 1 with shifted blur and gain."""
    return [
        CenterSpec(id=5, drf=4, psf_sigma=0.5, spacing_scale=1.1,
                   count_scale=150, intensity_gain=1.2, intensity_offset=0.0,
                   phantom="brain", lesions=False),
        CenterSpec(id=6, drf=12, psf_sigma=0.9, spacing_scale=1.0,
                   count_scale=120, intensity_gain=1.1, intensity_offset=0.0),
    ]
