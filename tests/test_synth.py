import numpy as np
import pytest

from flowcast import SynthConfig, generate
from flowcast.synth import movement_labels, weight_scales


def test_same_seed_is_bitwise_identical():
    cfg = SynthConfig(seed=42, n_days=10, intervals_per_day=24, n_movements=6,
                      n_components=3)
    ds1, truth1 = generate(cfg)
    ds2, truth2 = generate(cfg)
    assert np.array_equal(ds1.flows, ds2.flows)
    assert ds1.days == ds2.days
    assert np.array_equal(truth1.components, truth2.components)
    assert np.array_equal(truth1.weights, truth2.weights)
    ds3, _ = generate(SynthConfig(seed=43, n_days=10, intervals_per_day=24,
                                  n_movements=6, n_components=3))
    assert not np.array_equal(ds1.flows, ds3.flows)


def test_components_orthonormal_and_sign_fixed(noisy):
    _, truth = noisy
    q = truth.components
    gram = q.T @ q
    assert np.abs(gram - np.eye(q.shape[1])).max() < 1e-12
    for i in range(q.shape[1]):
        peak = np.argmax(np.abs(q[:, i]))
        assert q[peak, i] > 0


def test_components_have_morning_and_evening_mass(noisy):
    ds, truth = noisy
    t = ds.intervals_per_day
    for i in range(truth.components.shape[1]):
        grid = truth.components[:, i].reshape(ds.n_movements, t)
        am = np.abs(grid[:, : t // 2]).sum()
        pm = np.abs(grid[:, t // 2 :]).sum()
        total = am + pm
        assert am > 0.02 * total
        assert pm > 0.02 * total


def test_noiseless_dataset_is_exactly_low_rank(noiseless):
    ds, truth = noiseless
    assert ds.flows.min() > 0.0  # clamp never engaged
    resid = ds.flows - ds.flows.mean(axis=0)
    s = np.linalg.svd(resid, compute_uv=False)
    k = truth.components.shape[1]
    assert s[k] < 1e-9 * s[0]
    # and the flows decompose exactly as planted
    rebuilt = truth.mean + truth.weights @ truth.components.T
    assert np.array_equal(ds.flows, rebuilt)


def test_clamp_rarely_engages_at_default_noise(noisy):
    ds, _ = noisy
    assert (ds.flows == 0.0).mean() < 1e-3


def test_anomaly_replaces_weight_row_only():
    base = dict(seed=21, n_days=12, intervals_per_day=24, n_movements=4,
                n_components=2)
    plain, truth_p = generate(SynthConfig(**base))
    mults = (2.5, -1.5)
    anom, truth_a = generate(SynthConfig(**base, anomaly_days=((5, mults),)))
    scales = weight_scales(2)
    assert np.array_equal(truth_a.weights[5], np.asarray(mults) * scales)
    # the replacement consumes no rng draws, so every other day is untouched
    mask = np.ones(12, dtype=bool)
    mask[5] = False
    assert np.array_equal(plain.flows[mask], anom.flows[mask])
    assert not np.array_equal(plain.flows[5], anom.flows[5])


def test_movement_labels_and_weight_scales():
    labels = movement_labels(12)
    assert labels[:4] == ("NB LT", "NB T", "NB RT", "SB LT")
    assert labels[-1] == "WB RT"
    assert movement_labels(14)[12:] == ("M13", "M14")
    assert np.allclose(weight_scales(4), [340.0, 240.0, 190.0, 150.0])
    tail = weight_scales(6)
    assert tail[4] == pytest.approx(150.0 * 0.75)
    assert tail[5] == pytest.approx(150.0 * 0.75**2)


@pytest.mark.parametrize("kw", [
    dict(n_days=1),
    dict(intervals_per_day=7),
    dict(n_components=0),
    dict(n_days=3, n_components=3),
    dict(noise_sigma=-1.0),
    dict(mean_profile_shape="triangular"),
    dict(n_days=10, anomaly_days=((99, (0.0, 0.0, 0.0, 0.0)),)),
    dict(anomaly_days=((0, (1.0,)),)),
    dict(intervals_per_day=-96),
    dict(seed=-1),
    dict(start_date="2024-02-30"),
    dict(start_date="9999-12-01"),  # its last day is past the calendar's
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SynthConfig(**kw)


def test_dates_are_consecutive_with_real_weekday_tags():
    ds, _ = generate(SynthConfig(seed=1, n_days=9, intervals_per_day=24,
                                 n_movements=3, n_components=2,
                                 start_date="2024-01-01"))
    labels = [rec.date for rec in ds.days]
    assert labels[0] == "2024-01-01"
    assert labels[8] == "2024-01-09"
    assert ds.days[0].day_of_week == "Mon"  # 2024-01-01 was a Monday
    assert ds.days[5].day_of_week == "Sat"


def test_flat_profile_is_time_constant():
    _, truth = generate(SynthConfig(seed=4, n_days=6, intervals_per_day=24,
                                    n_movements=3, n_components=2,
                                    mean_profile_shape="flat", noise_sigma=0.0))
    grid = truth.mean.reshape(3, 24)
    assert np.abs(grid - grid[:, :1]).max() == 0.0


def test_interval_minutes_property():
    assert SynthConfig(intervals_per_day=48).interval_minutes == 30
    assert SynthConfig().interval_minutes == 15
