"""Timescale algebra and regime verdicts."""

import math

import numpy as np
import pytest

from qreflect import (PhysicalParams, PotentialSpec, check_regime, compute_timescales,
                      steady_target_width, wigner_spreading_ratio)


def test_trivial_values():
    r = compute_timescales(PhysicalParams(D=1.0))
    assert r.t_loc == pytest.approx(1.0, rel=1e-14)
    assert r.t_d_p == pytest.approx(1.0, rel=1e-14)
    assert r.t_E == pytest.approx(2.0, rel=1e-14)
    assert r.t_f == pytest.approx(1.0, rel=1e-14)
    r2 = compute_timescales(PhysicalParams(D=1.0, M=10.0, Sigma=1.0))
    assert r2.T_d_p == pytest.approx(100.0 ** (1.0 / 3.0), rel=1e-14)
    assert r2.T_1 == pytest.approx(10.0, rel=1e-14)


def test_undefined_entries_are_none_not_zero():
    r = compute_timescales(PhysicalParams(D=0.0, D_p=0.0))
    assert r.t_loc is None and r.t_d_p is None and r.t_p is None
    assert r.T_z is None
    assert "t_loc" not in r.defined()


def test_chain_ratio_identities_exact_constants():
    # the constant-free chain ratios are order-of-magnitude statements; the
    # exact constants implied by the width formulas are pinned at 1e-12 here
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = PhysicalParams(
            m=rng.uniform(0.2, 5.0), hbar=rng.uniform(0.2, 3.0),
            p_bar=rng.uniform(0.2, 4.0), sigma=rng.uniform(0.5, 50.0),
            D=10.0 ** rng.uniform(-6, 2),
        )
        r = compute_timescales(params)
        fluct = r.sigma_p / params.p_bar
        assert r.t_E / r.t_z_qsd == pytest.approx(2 * math.sqrt(2) * fluct, rel=1e-12)
        assert r.t_z_qsd / r.t_loc == pytest.approx(0.5 * fluct, rel=1e-12)
        assert r.t_z_qsd / r.t_d_p == pytest.approx(fluct ** (1 / 3) / 2 ** (5 / 6), rel=1e-12)
        assert r.t_d_p / r.t_loc == pytest.approx(fluct ** (2 / 3) / 2 ** (1 / 6), rel=1e-12)
        # constant-free forms hold at order unity
        assert 0.2 < (r.t_E / r.t_z_qsd) / fluct < 5.0
        assert 0.2 < (r.t_z_qsd / r.t_loc) / fluct < 5.0


def test_target_relations_with_steady_width():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = rng.uniform(0.2, 2.0)
        M = m * rng.uniform(2.0, 300.0)
        D = 10.0 ** rng.uniform(-4, 2)
        hbar = rng.uniform(0.3, 2.0)
        params = PhysicalParams(m=m, hbar=hbar, p_bar=rng.uniform(0.3, 3.0),
                                sigma=rng.uniform(1.0, 40.0), D=D, M=M,
                                Sigma=steady_target_width(M, D, hbar))
        r = compute_timescales(params)
        # exact forms of the steady-width relations (constants included)
        assert r.T_d == pytest.approx(2 * math.sqrt(2) * r.T_loc, rel=1e-12)
        assert r.T_f == pytest.approx(r.T_d, rel=1e-12)
        assert r.T_z == pytest.approx(
            2 ** -1.25 * math.sqrt(M / m) * math.sqrt(r.T_loc * r.t_E), rel=1e-12)
        assert r.T_1 == pytest.approx(r.T_d_p**1.5 / math.sqrt(r.t_z), rel=1e-12)


def test_regime_margins_and_examples():
    # sigma_p / p_bar = 0.01 -> chain true with that margin
    # sigma_p = (2 m hbar D)^(1/4) = 0.01 requires D = 5e-9 at m = hbar = 1
    params = PhysicalParams(D=0.5e-8)
    r = compute_timescales(params)
    v = check_regime(r, params)
    assert r.sigma_p == pytest.approx(0.01, rel=1e-12)
    assert v.small_fluctuations_chain is True
    assert v.margins["small_fluctuations"] == pytest.approx(0.01, rel=1e-12)

    # m hbar D_p = 10 -> momentum-coupling suppression condition met
    params = PhysicalParams(D_p=10.0)
    v = check_regime(compute_timescales(params), params)
    assert v.suppression_p is True
    assert v.margins["suppression_p"] == pytest.approx(0.1, rel=1e-12)
    params = PhysicalParams(D_p=1.0)
    assert check_regime(compute_timescales(params), params).suppression_p is False


def test_mutual_exclusion_randomized():
    # small fluctuations and position-coupling suppression (t_d_p < t_E)
    # cannot hold together: exact algebra makes them disjoint for any
    # threshold below 2^(-1/2)
    rng = np.random.default_rng(2024)
    both = 0
    for _ in range(1000):
        params = PhysicalParams(
            m=rng.uniform(0.1, 10.0), hbar=rng.uniform(0.1, 10.0),
            p_bar=rng.uniform(0.1, 10.0), sigma=rng.uniform(0.5, 100.0),
            D=10.0 ** rng.uniform(-8, 4),
            potential=PotentialSpec.gaussian(V0=10.0 ** rng.uniform(-3, 1), a=0.1),
        )
        r = compute_timescales(params)
        v = check_regime(r, params)
        small = v.small_fluctuations_chain
        wants = r.t_d_p < r.t_E
        assert v.model1_exclusion_holds is True
        if small and wants:
            both += 1
    assert both == 0


def test_wigner_spreading_identities():
    params = PhysicalParams(D=1.0)
    r = compute_timescales(params)
    assert wigner_spreading_ratio(params, r.t_d_p) == pytest.approx(1.0, rel=1e-12)
    assert wigner_spreading_ratio(params, 10 * r.t_d_p) == pytest.approx(1000.0, rel=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(50):
        params = PhysicalParams(m=rng.uniform(0.2, 3.0), hbar=rng.uniform(0.2, 3.0),
                                p_bar=rng.uniform(0.2, 3.0), D=10.0 ** rng.uniform(-3, 2))
        t = 10.0 ** rng.uniform(-2, 2)
        tdp = compute_timescales(params).t_d_p
        direct = wigner_spreading_ratio(params, t)
        via_ratio = (t / tdp) ** 3
        assert direct == pytest.approx(via_ratio, rel=1e-12)


def test_a_margin_over_an_underflowed_zero_is_infinite():
    # m hbar D_p = 1e-400, Sigma_p / M = 1e-400 and (m / M)^(1/3) t_E = 1e-330 are 0
    # as floats, while every timescale and identity holds
    params = PhysicalParams(m=1e-100, hbar=1e-100, D_p=1e-200)
    v = check_regime(compute_timescales(params), params)
    assert v.margins["suppression_p"] == math.inf and v.suppression_p is False
    params = PhysicalParams(hbar=1e-150, M=1e100, Sigma=1e150)
    v = check_regime(compute_timescales(params), params)
    assert v.margins["model2_velocity"] == math.inf and v.model2_velocity_condition is False
    params = PhysicalParams(m=1e-100, M=1e-10, hbar=5e-51, p_bar=1e75, sigma=1e40, D=1e-150)
    v = check_regime(compute_timescales(params), params)
    assert v.margins["model2_Tdp"] == math.inf and v.model2_Tdp_condition is False

