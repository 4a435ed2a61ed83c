"""SignalBand, and exact equality with the band code it replaced.

The references below are the earlier per-module forms of the band:
CorollarySpec.params's per-corollary switch and boost_scale,
treatment_bound's three-way branch, _validate_bands, sample_signals taking
a SignalConfig, and sample_treatment_signals.  Every comparison is exact:
`==` on LemmaParams and bound tuples, np.array_equal on sampled matrices,
and equal error messages.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from auctionkit import (
    COROLLARIES,
    LemmaParams,
    MechanismConfig,
    ProblemInstance,
    SignalBand,
    TreatmentSpec,
    generate_instance,
    lemma1_bounds,
    sample_signals,
)
from auctionkit.bounds import _validate_bands
from auctionkit.experiments import (
    GeneratorSpec,
    _truncated_gaussian,
    sample_treatment_signals,
    treatment_bound,
)
from conftest import random_instance

GAMMAS = [0.0, 0.1, 0.3, 0.5, 0.6, 0.9]
# (uses reserve, uses boost) per corollary
ROLE_TABLE = {1: (True, False), 2: (False, True), 3: (True, True),
              4: (True, False), 5: (True, True), 6: (True, False)}


# -- references ---------------------------------------------------------


def reference_check_gamma(gamma):
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return float(gamma)


def reference_params(ident, gamma):
    g = reference_check_gamma(gamma)
    if ident == 1:
        return LemmaParams(alpha=1.0, beta=g)
    if ident == 2:
        if g >= 1.0:
            raise ValueError("boost factors diverge at gamma = 1")
        return LemmaParams(alpha=1.0, beta=0.0, mu=g / (1.0 - g), nu=1.0 / (1.0 - g))
    if ident in (3, 5):
        return LemmaParams(alpha=1.0, beta=g, mu=g, nu=1.0)
    return LemmaParams(alpha=g, beta=g)


def reference_boost_scale(ident, gamma):
    if not ROLE_TABLE[ident][1]:
        return None
    return 1.0 / (1.0 - gamma) if ident == 2 else 1.0


def reference_treatment_bound(kind, g):
    if kind == "baseline":
        return None
    if kind == "reserve":
        params = LemmaParams(1.0, g)
    elif kind == "boost":
        params = LemmaParams(1.0, 0.0, g / (1.0 - g), 1.0 / (1.0 - g))
    else:
        params = LemmaParams(1.0, g, g / (1.0 - g), 1.0 / (1.0 - g))
    return lemma1_bounds(params)


class SignalKind(enum.Enum):
    RESERVE = "reserve"
    BOOST = "boost"


@dataclass(frozen=True)
class SignalConfig:
    gamma: float
    kind: SignalKind
    boost_scale: Optional[float] = None


def reference_band_draw(lo, hi, u):
    x = lo + u * (hi - lo)
    on_edge = (x >= hi) & (hi > lo)
    x = np.where(on_edge, np.nextafter(hi, lo), x)
    empty = hi <= lo
    x = np.where(empty, np.nextafter(hi, 0.0), x)
    return np.where(hi == 0.0, 0.0, x)


def reference_sample_signals(instance, signal, seed):
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u = rng.random(size=instance.values.shape)
    v = instance.values
    if signal.kind is SignalKind.RESERVE:
        return reference_band_draw(signal.gamma * v, v.copy(), u)
    hi = signal.boost_scale * v
    return reference_band_draw(signal.gamma * hi, hi, u)


def reference_validate_bands(instance, config, ident, gamma):
    uses_reserve, uses_boost = ROLE_TABLE[ident]
    label = COROLLARIES[ident].label
    v = instance.values
    r = config.reserves
    z = config.boosts
    if uses_reserve:
        ok = np.where(v > 0, (r >= gamma * v) & (r < v), r == 0.0)
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise ValueError(
                f"reserve not gamma-approx at bidder {i}, auction {j}: "
                f"r={r[i, j]:.6g} outside [{gamma * v[i, j]:.6g}, {v[i, j]:.6g})"
            )
    elif r.any():
        raise ValueError(f"{label} uses no reserves but config has them")
    if uses_boost:
        scale = reference_boost_scale(ident, gamma)
        lo = gamma * scale * v
        hi = scale * v
        ok = np.where(hi > lo, (z >= lo) & (z < hi), z == 0.0)
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise ValueError(
                f"boost not gamma-approx at bidder {i}, auction {j}: "
                f"z={z[i, j]:.6g} outside [{lo[i, j]:.6g}, {hi[i, j]:.6g})"
            )
    elif z.any():
        raise ValueError(f"{label} uses no boosts but config has them")


def reference_sample_treatment_signals(instance, spec, seed):
    n, m = instance.n, instance.m
    reserves = np.zeros((n, m))
    boosts = np.zeros((n, m))
    if spec.kind == "baseline":
        return reserves, boosts
    base = np.random.SeedSequence(seed)
    mean = (1.0 + spec.gamma) / 2.0
    role_draw = {}
    for role, stream in zip(("reserve", "boost"), base.spawn(2)):
        role_draw[role] = _truncated_gaussian(
            np.random.default_rng(stream), mean, spec.signal_sd, spec.gamma, 1.0, (n, m)
        )
    if spec.kind in ("reserve", "boost_reserve"):
        reserves = role_draw["reserve"] * instance.values
    if spec.kind in ("boost", "boost_reserve"):
        s = role_draw["reserve"] if spec.share_draw else role_draw["boost"]
        boosts = s * instance.values * (1.0 / (1.0 - spec.gamma))
    return reserves, boosts


def reference_uniform_draw(instance, ident, gamma, seed):
    """The verify-bounds sampling block: role streams [*seed, 1] and [*seed, 2]."""
    uses_reserve, uses_boost = ROLE_TABLE[ident]
    zeros = np.zeros(instance.values.shape)
    reserves = boosts = zeros
    if uses_reserve:
        reserves = reference_sample_signals(
            instance, SignalConfig(gamma, SignalKind.RESERVE), np.random.default_rng([*seed, 1]))
    if uses_boost:
        boosts = reference_sample_signals(
            instance, SignalConfig(gamma, SignalKind.BOOST, reference_boost_scale(ident, gamma)),
            np.random.default_rng([*seed, 2]))
    return reserves, boosts


def raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


# -- the band itself ----------------------------------------------------


class TestSignalBand:
    def test_gamma_range(self):
        SignalBand(0.5, reserve=True)
        SignalBand(0.0, boost="1")
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"^gamma must lie in \[0, 1\]$"):
                SignalBand(bad, reserve=True)
        with pytest.raises(ValueError, match="empty"):
            SignalBand(1.0)

    def test_boost_scale_choices(self):
        assert SignalBand(0.4, boost="1/(1-gamma)").boost_scale == 1.0 / (1.0 - 0.4)
        assert SignalBand(0.4, boost="1").boost_scale == 1.0
        assert SignalBand(0.4, reserve=True).boost_scale is None
        with pytest.raises(ValueError, match="boost scale"):
            SignalBand(0.4, boost="2")

    def test_roles_and_gamma_type(self):
        assert SignalBand(0.2).roles == ()
        assert SignalBand(0.2, reserve=True, boost="1").roles == ("reserve", "boost")
        band = SignalBand(0, boost="1")
        assert band.roles == ("boost",)
        assert type(band.gamma) is float

    def test_edges(self):
        v = np.array([[0.0, 1.0, 3.7]])
        band = SignalBand(0.3, reserve=True, boost="1/(1-gamma)")
        lo, hi = band.edges("reserve", v)
        assert np.array_equal(lo, 0.3 * v) and np.array_equal(hi, v)
        lo, hi = band.edges("boost", v)
        assert np.array_equal(hi, (1.0 / 0.7) * v) and np.array_equal(lo, 0.3 * hi)


# -- differential tests -------------------------------------------------


class TestGuaranteeTableMatchesReference:
    @pytest.mark.parametrize("ident", sorted(COROLLARIES))
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_params_bounds_and_roles(self, ident, gamma):
        spec = COROLLARIES[ident]
        assert spec.params(gamma) == reference_params(ident, gamma)
        assert spec.promised(gamma) == lemma1_bounds(reference_params(ident, gamma))
        band = spec.band(gamma)
        assert band.boost_scale == reference_boost_scale(ident, gamma)
        uses_reserve, uses_boost = ROLE_TABLE[ident]
        assert ("reserve" in band.roles, "boost" in band.roles) == (uses_reserve, uses_boost)

    def test_mu_keeps_its_float_order(self):
        # g * (1 / (1 - g)) differs from g / (1 - g) in the last bit here
        for g in (0.3, 0.6):
            assert g * (1.0 / (1.0 - g)) != g / (1.0 - g)
            assert COROLLARIES[2].params(g).mu == g / (1.0 - g)
            assert treatment_bound(TreatmentSpec("boost", g)) == reference_treatment_bound("boost", g)

    @pytest.mark.parametrize("ident", sorted(COROLLARIES))
    def test_out_of_range_gamma_refused_alike(self, ident):
        for bad in (-0.1, 1.5):
            assert raised(COROLLARIES[ident].params, bad) == raised(reference_params, ident, bad)

    @pytest.mark.parametrize("kind", ["baseline", "reserve", "boost", "boost_reserve"])
    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.3, 0.5, 0.6, 0.7, 0.9])
    def test_treatment_bound(self, kind, gamma):
        spec = TreatmentSpec(kind, gamma)
        assert treatment_bound(spec) == reference_treatment_bound(kind, gamma)


class TestSamplersMatchReference:
    @pytest.mark.parametrize("ident", sorted(COROLLARIES))
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_uniform_sampler(self, ident, gamma):
        rng = np.random.default_rng([ident, int(gamma * 10)])
        for trial in range(10):
            inst = random_instance(rng, n_max=6, m_max=5)
            seed = [ident, trial]
            got = sample_signals(inst, COROLLARIES[ident].band(gamma), seed)
            want = reference_uniform_draw(inst, ident, gamma, seed)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("kind", ["baseline", "reserve", "boost", "boost_reserve"])
    @pytest.mark.parametrize("share_draw", [False, True])
    def test_treatment_sampler(self, kind, share_draw):
        gen = GeneratorSpec(n=5, m=12, s_max=3)
        for seed in range(20):
            inst = generate_instance(gen, seed)
            gamma = (0.3, 0.6, 0.45, 0.9)[seed % 4]
            spec = TreatmentSpec(kind, gamma, signal_sd=(0.01, 0.2)[seed % 2], share_draw=share_draw)
            signal_seed = (7, seed, 11)
            got = sample_treatment_signals(inst, spec, signal_seed)
            want = reference_sample_treatment_signals(inst, spec, signal_seed)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestValidateBandsMatchesReference:
    @pytest.mark.parametrize("ident", sorted(COROLLARIES))
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_same_verdict_and_message(self, ident, gamma):
        spec = COROLLARIES[ident]
        band = spec.band(gamma)
        rng = np.random.default_rng([ident, int(gamma * 10), 1])
        for trial in range(40):
            inst = random_instance(rng, n_max=5, m_max=4)
            v = inst.values
            reserves, boosts = sample_signals(inst, band, [trial])
            mats = {"reserve": reserves.copy(), "boost": boosts.copy()}
            if trial % 4:
                # move one entry to a value on or off its band
                role = ("reserve", "boost")[int(rng.integers(2))]
                i, j = int(rng.integers(inst.n)), int(rng.integers(inst.m))
                lo, hi = (band.edges(role, v) if role in band.roles else (v, v))
                candidates = [0.0, 1.0, hi[i, j], 1.5 * hi[i, j] + 0.1, 0.5 * lo[i, j],
                              np.nextafter(hi[i, j], 0.0)]
                if role == "reserve" or ident != 2:
                    # corollary 2's lower boost edge moved; see the test below
                    candidates += [lo[i, j], np.nextafter(lo[i, j], -np.inf)]
                mats[role][i, j] = candidates[int(rng.integers(len(candidates)))]
            config = MechanismConfig(spec.format, inst.n, inst.m, mats["reserve"], mats["boost"])
            got = raised(_validate_bands, inst, config, band, spec.label)
            want = raised(reference_validate_bands, inst, config, ident, gamma)
            assert got == want

    def test_boost_lower_edge_follows_the_sampler(self):
        # the old validator put the lower edge at (g*s)*v, the sampler at
        # g*(s*v); the validator now uses the sampler's edge
        g = 0.3
        band = COROLLARIES[2].band(g)
        s = band.boost_scale
        rng = np.random.default_rng(5)
        found = {"below": False, "above": False}
        for v in rng.uniform(0.1, 2.0, size=2000):
            sampler_lo, old_lo = g * (s * v), (g * s) * v
            if sampler_lo == old_lo:
                continue
            inst = ProblemInstance(1, 1, [1], [[v]], [[1.0]])
            # u = 0 makes the sampler return its lower edge exactly
            assert reference_band_draw(np.array(sampler_lo), np.array(s * v), np.array(0.0)) == sampler_lo
            for z, old_ok in ((sampler_lo, sampler_lo > old_lo), (old_lo, True)):
                config = MechanismConfig(COROLLARIES[2].format, 1, 1, boosts=[[z]])
                new_ok = raised(_validate_bands, inst, config, band, "vcg-boost") is None
                assert new_ok == (z >= sampler_lo)
                assert (raised(reference_validate_bands, inst, config, 2, g) is None) == old_ok
            found["below" if sampler_lo < old_lo else "above"] = True
        assert all(found.values())
