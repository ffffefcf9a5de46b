from dataclasses import asdict

import numpy as np
import pytest

from kpplab import medium as med

from conftest import MASTER, constant_medium, dimer_medium, dimer_spec, trig_spec


def test_constant_fields_are_exact():
    m = constant_medium(a0=1.0, c0=1.0, X=100.0, h=0.01)
    assert np.all(m.a == 1.0)
    assert np.all(m.c == 1.0)
    assert m.N == 10000


def test_constant_spec_rejects_nonpositive_floors():
    with pytest.raises(ValueError):
        med.ConstantSpec(a0=0.0, c0=1.0)
    with pytest.raises(ValueError):
        med.RandomTrigSpec(base_freqs=(1.0,), amps_a=(0.1,), amps_c=(0.1,),
                           a_min=-0.1, c_min=1.0)


def test_sampling_is_deterministic():
    spec = dimer_spec(jitter=0.3)
    m1 = med.sample_realization(spec, MASTER, 3, 100.0, 0.01)
    m2 = med.sample_realization(spec, MASTER, 3, 100.0, 0.01)
    assert np.array_equal(m1.a, m2.a)
    assert np.array_equal(m1.c, m2.c)
    assert m1.realization_id == m2.realization_id
    m3 = med.sample_realization(spec, MASTER, 4, 100.0, 0.01)
    assert not np.array_equal(m1.c, m3.c)


@pytest.mark.parametrize("length,X,h,eps", [
    (1.0, 100.0, 0.01, 0.1),
    # the block lengths sum to a rounding error short of X
    (0.1, 1.0, 0.01, 0.04),
    (0.3, 6.0, 0.01, 0.1),
], ids=["len1", "len0.1", "len0.3"])
def test_fixed_dimer_is_two_periodic(length, X, h, eps):
    m = dimer_medium(X=X, h=h, eps=eps, len1=length, len2=length)
    period = int(round(2.0 * length / m.h))
    assert np.allclose(m.c, np.roll(m.c, period), atol=1e-13)
    assert np.allclose(m.a, np.roll(m.a, period), atol=1e-13)


def _looped_correction(prof, x, jumps):
    # the jump-by-jump, image-by-image loop the vectorized evaluation replaced
    xm = np.mod(x, prof.X)
    half = prof.eps / 2.0
    order = np.argsort(xm, kind="stable")
    xs = xm[order]
    add = np.zeros_like(xs)
    for e, jump in zip(prof.starts, jumps):
        if jump == 0.0:
            continue
        for image in (e - prof.X, e, e + prof.X):
            i0 = np.searchsorted(xs, image - half, side="left")
            i1 = np.searchsorted(xs, image + half, side="right")
            if i1 <= i0:
                continue
            u = (xs[i0:i1] - image) / half
            add[i0:i1] += jump * (med._smooth_step(u) - (u >= 0.0))
    corr = np.empty_like(add)
    corr[order] = add
    return corr


@pytest.mark.parametrize("spec,X,h", [
    # smoothing zones of neighbouring jumps overlap: eps > len1 = len2
    (dimer_spec(a_plus=2.0, len1=0.5, len2=0.5, eps=0.7), 6.0, 0.01),
    (dimer_spec(jitter=0.3), 100.0, 0.02),
    (dimer_spec(a_plus=2.0, eps=0.1), 60.0, 0.005),
], ids=["overlapping", "dimer", "dimer_varying_a"])
def test_piecewise_profile_matches_loop(spec, X, h):
    m = med.sample_realization(spec, MASTER, 1, X, h)
    prof = med._profile_for(m)
    for L in (1.0, 0.5, 2.0):
        scaled = m if L == 1.0 else med.rescale(m, L)
        # the grid of the rescaled window, mapped into the profile's window
        grid = scaled.x / L
        idx = np.searchsorted(prof.starts, np.mod(grid, prof.X),
                              side="right") - 1
        for vals, jumps, got, field in zip((prof.a_vals, prof.c_vals),
                                           (prof.jump_a, prof.jump_c),
                                           prof.fields(grid),
                                           (scaled.a, scaled.c)):
            ref = np.clip(vals[idx] + _looped_correction(prof, grid, jumps),
                          np.min(vals), np.max(vals))
            assert np.array_equal(got, ref)
            assert np.array_equal(field, ref)


def test_trig_profile_matches_per_field_series():
    m = med.sample_realization(trig_spec(), MASTER, 2, 100.0, 0.02)
    prof = med._profile_for(m)
    x = m.x

    def series(amps, phases, floor):
        out = np.full_like(x, floor)
        for k, amp, ph in zip(prof.ks, amps, phases):
            out += amp * (1.0 + np.cos(k * x + ph))
        return out

    a, c = prof.fields(x)
    assert np.array_equal(a, series(prof.amps_a, prof.phases_a, prof.a_min))
    assert np.array_equal(c, series(prof.amps_c, prof.phases_c, prof.c_min))
    assert np.array_equal(m.a, a)
    assert np.array_equal(m.c, c)


def test_fields_at_matches_per_field_interpolation():
    m = dimer_medium(X=50.0, h=0.02, a_plus=2.0, jitter=0.3)
    # points on both sides of the window, on nodes and on its ends
    xs = np.concatenate((np.linspace(-7.3, 123.1, 2001), m.x[::97],
                         [0.0, 50.0, -50.0, 49.99]))
    t = np.mod(xs, m.X) / m.h
    i0 = np.floor(t).astype(np.int64) % m.N
    frac = t - np.floor(t)
    for got, field in zip(med.fields_at(m, xs), (m.a, m.c)):
        ref = field[i0] * (1.0 - frac) + field[(i0 + 1) % m.N] * frac
        assert np.array_equal(got, ref)


def _looped_dimer_profile(spec, child_seed, X):
    # one rng.uniform call and one running-total addition per block
    rng = np.random.Generator(np.random.PCG64(child_seed))
    lengths = []
    total = 0.0
    while total < X * (1.0 - 1e-9) or len(lengths) % 2 == 1:
        mean_len = spec.len1 if len(lengths) % 2 == 0 else spec.len2
        if spec.length_dist == "uniform":
            length = mean_len + rng.uniform(-spec.jitter, spec.jitter)
        else:
            length = mean_len
        lengths.append(length)
        total += length
    factor = X / total
    starts, a_vals, c_vals = [], [], []
    acc = 0.0
    for j, length in enumerate(lengths):
        starts.append(acc * factor)
        a_vals.append(spec.a_plus if j % 2 == 0 else spec.a_minus)
        c_vals.append(spec.c_plus if j % 2 == 0 else spec.c_minus)
        acc += length
    return med._PiecewiseProfile(starts, a_vals, c_vals, spec.eps, X)


@pytest.mark.parametrize("spec,X,h", [
    (dimer_spec(jitter=0.3), 100.0, 0.02),
    (dimer_spec(jitter=0.9, len1=1.0, len2=3.0), 400.0, 0.05),
    # a window shorter than one pair, and one a rounding error short of X
    (dimer_spec(jitter=0.05, len1=0.7, len2=0.4, eps=0.05), 1.0, 0.01),
    (dimer_spec(len1=0.1, len2=0.1, eps=0.04), 1.0, 0.01),
], ids=["jitter0.3", "long_window", "short_window", "fixed"])
def test_batched_dimer_lengths_match_one_draw_at_a_time(monkeypatch, spec, X, h):
    batched = [med.sample_realization(spec, MASTER, s, X, h) for s in range(4)]
    monkeypatch.setattr(med, "_build_profile", _looped_dimer_profile)
    for s, m in enumerate(batched):
        ref = med.sample_realization(spec, MASTER, s, X, h)
        assert np.array_equal(m.a, ref.a)
        assert np.array_equal(m.c, ref.c)


def test_plateau_floors_are_exact():
    m = dimer_medium(X=100.0, h=0.01, eps=0.1, jitter=0.3)
    assert m.c.min() >= 0.5
    assert m.c.max() <= 1.5
    t = med.sample_realization(trig_spec(), MASTER, 0, 100.0, 0.01)
    assert t.a.min() >= 0.5
    assert t.c.min() >= 0.5


def test_unresolved_smoothing_rejected():
    with pytest.raises(ValueError, match="unresolved"):
        med.sample_realization(dimer_spec(eps=0.02), MASTER, 0, 100.0, 0.01)


def test_non_integral_window_rejected():
    with pytest.raises(ValueError, match="not integral"):
        med.sample_realization(med.ConstantSpec(1.0, 1.0), MASTER, 0, 100.05, 0.1)


def test_empirical_means_homogeneous():
    em = med.empirical_means(constant_medium())
    assert em == med.EmpiricalMeans(1.0, 1.0, 1.0)


def test_empirical_means_dimer_harmonic():
    # a in {1, 2} on equal fixed blocks: mean 1/a = 0.75 up to O(eps/len)
    m = dimer_medium(X=100.0, h=0.01, a_plus=1.0, a_minus=2.0, eps=0.1)
    em = med.empirical_means(m)
    assert abs(em.mean_inv_a - 0.75) <= 0.1 * 0.1  # O(eps/len)
    assert em.mean_a * em.mean_inv_a >= 1.0 - 1e-12


def test_cauchy_schwarz_for_random_media():
    for s in range(5):
        m = med.sample_realization(trig_spec(), MASTER, s, 50.0, 0.02)
        em = med.empirical_means(m)
        assert em.mean_a * em.mean_inv_a >= 1.0 - 1e-12
        assert min(em.mean_a, em.mean_c, em.mean_inv_a) > 0


def test_rescale_identity():
    m = dimer_medium(X=50.0, h=0.01)
    m1 = med.rescale(m, 1.0)
    assert np.array_equal(m1.a, m.a)
    assert np.array_equal(m1.c, m.c)


def test_rescale_doubles_period_and_matches_shared_nodes():
    m = dimer_medium(X=50.0, h=0.01, eps=0.1)
    m2 = med.rescale(m, 2.0)
    assert m2.X == 100.0 and m2.N == 2 * m.N
    # 4-periodic after stretching the 2-periodic parent
    per = int(round(4.0 / m2.h))
    assert np.allclose(m2.c, np.roll(m2.c, per), atol=1e-13)
    # child value at x = 2*x_parent equals the parent value exactly
    assert np.array_equal(m2.c[::2], m.c)
    assert np.array_equal(m2.a[::2], m.a)


def test_rescale_preserves_means_and_composes():
    m = dimer_medium(X=50.0, h=0.01, a_plus=2.0, a_minus=1.0, eps=0.1)
    em = med.empirical_means(m)
    em2 = med.empirical_means(med.rescale(m, 2.0))
    assert abs(em.mean_c - em2.mean_c) <= 5 * m.h
    assert abs(em.mean_inv_a - em2.mean_inv_a) <= 5 * m.h
    once = med.rescale(m, 4.0)
    twice = med.rescale(med.rescale(m, 2.0), 2.0)
    assert np.allclose(once.c, twice.c, atol=1e-12)


def test_rescale_rejects_bad_factor():
    m = dimer_medium(X=50.0, h=0.01)
    with pytest.raises(ValueError):
        med.rescale(m, 0.0)
    with pytest.raises(ValueError):
        med.rescale(m, 1.0 + 1e-7)  # L*N not integral
    small = dimer_medium(X=0.4, h=0.05)  # 8 nodes, the fewest a window has
    with pytest.raises(ValueError, match="at least 8 nodes"):
        med.rescale(small, 0.5)


def test_dimer_stationarity_proxy():
    # window averages over [0, X] and [X/2, 3X/2] (longer sample, same seed)
    # agree within 5 predicted standard errors
    spec = dimer_spec(jitter=0.3)
    X, h = 200.0, 0.02
    for s in range(4):
        m1 = med.sample_realization(spec, MASTER, s, X, h)
        m2 = med.sample_realization(spec, MASTER, s, 2 * X, h)
        i0, i1 = int(X / (2 * h)), int(3 * X / (2 * h))
        avg1 = float(np.mean(m1.c))
        avg2 = float(np.mean(m2.c[i0:i1]))
        stderr = float(np.std(m1.c)) * np.sqrt(spec.corr_length / X)
        assert abs(avg1 - avg2) <= 5.0 * np.sqrt(2.0) * stderr


def test_dimer_seed_variance_shrinks_with_window():
    # ergodic averaging: the across-seed spread of the window mean of c
    # decays like X^{-1/2}
    spec = dimer_spec(jitter=0.3)
    means = {}
    for X in (50.0, 200.0):
        vals = [float(np.mean(med.sample_realization(spec, MASTER, s, X, 0.05).c))
                for s in range(100)]
        means[X] = np.std(vals)
    ratio = means[50.0] / means[200.0]
    assert 1.3 <= ratio <= 3.2  # expect ~2


def test_trig_window_mean_is_seed_exact():
    # mode frequencies are snapped to the window lattice, so the full-window
    # mean of c is the same for every seed (the fluctuating statistics live
    # in sub-window averages)
    spec = trig_spec()
    vals = [float(np.mean(med.sample_realization(spec, MASTER, s, 100.0, 0.02).c))
            for s in range(20)]
    assert np.std(vals) <= 1e-12
    halves = [float(np.mean(med.sample_realization(spec, MASTER, s, 100.0, 0.02).c[:2500]))
              for s in range(20)]
    assert np.std(halves) > 1e-4


def test_trig_field_is_window_periodic():
    spec = trig_spec()
    m = med.sample_realization(spec, MASTER, 0, 100.0, 0.02)
    prof_val = med.fields_at(m, np.array([0.0, 100.0]))[1]
    assert abs(prof_val[0] - prof_val[1]) <= 1e-12


def test_serialization_round_trip(tmp_path):
    m = dimer_medium(X=50.0, h=0.02, jitter=0.3)
    path = med.save_realization(m, tmp_path / "m.kppm")
    back = med.load_realization(path)
    assert np.array_equal(back.a, m.a)
    assert np.array_equal(back.c, m.c)
    assert back.realization_id == m.realization_id
    assert back.ensemble == m.ensemble
    # bytes round-trip exactly
    assert med.realization_bytes(back) == med.realization_bytes(m)
    # the sidecar restores the generating profile, so rescale still works
    r1 = med.rescale(back, 2.0)
    r2 = med.rescale(m, 2.0)
    assert np.array_equal(r1.c, r2.c)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.kppm"
    path.write_bytes(b"NOPE" + b"\0" * 128)
    with pytest.raises(ValueError, match="KPPM"):
        med.load_realization(path)


def test_load_rejects_malformed_containers(tmp_path):
    m = dimer_medium(X=50.0, h=0.02)
    raw = med.realization_bytes(m)
    path = tmp_path / "m.kppm"
    # a version-1 header (its body also held a') is refused by name
    v1 = bytearray(raw)
    v1[4:6] = (1).to_bytes(2, "little")
    path.write_bytes(bytes(v1) + m.a.tobytes())
    with pytest.raises(ValueError, match="version 1"):
        med.load_realization(path)
    for bad, what in ((raw[:40], "header truncated"),
                      (raw[:-8], "body holds"),
                      (raw + b"\0" * 8, "body holds")):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=what):
            med.load_realization(path)


def test_load_rejects_bad_grids(tmp_path):
    # the loader applies the sampler's grid rule and also needs N = X/h
    path = tmp_path / "m.kppm"
    for n, h, X, what in ((0, 0.02, -5.0, "positive"),
                          (10, 0.02, 0.3, "N=10"),
                          (10, -0.02, -0.2, "positive"),
                          (3, 0.02, 0.06, "at least 8")):
        head = med._HEADER.pack(med.FORMAT_MAGIC, med.FORMAT_VERSION, n, h, X,
                                MASTER, 0, 1, 1.0)
        path.write_bytes(head + np.ones(2 * n).astype("<f8").tobytes())
        with pytest.raises(ValueError, match=what):
            med.load_realization(path)


def test_replace_and_scale_helpers(tmp_path):
    m = dimer_medium(X=50.0, h=0.02)
    shifted = med.replace_c(m, m.c + 0.5, "shift")
    assert np.allclose(shifted.c, m.c + 0.5)
    assert shifted.realization_id != m.realization_id
    doubled = med.scale_a(m, 2.0)
    assert np.allclose(doubled.a, 2.0 * m.a)
    assert np.allclose(doubled.a_half, 2.0 * m.a_half)
    # the unchanged, read-only field is shared with the parent, not copied
    assert np.shares_memory(shifted.a, m.a)
    assert np.shares_memory(doubled.c, m.c)
    # a_half is always the mean of neighbouring a, so a save/load round trip
    # reproduces it, also for a kappa whose product rounds
    tripled = med.scale_a(med.sample_realization(trig_spec(), MASTER, 0, 40.0,
                                                 0.02), 3.0)
    path = med.save_realization(tripled, tmp_path / "tripled.kppm")
    assert np.array_equal(med.load_realization(path).a_half, tripled.a_half)
    with pytest.raises(ValueError):
        med.scale_a(m, -1.0)


def test_realization_ids_are_pinned():
    # every payload carries these ids; they hash the spec's asdict encoding
    X, h = 20.0, 0.05
    const = med.sample_realization(med.ConstantSpec(a0=1.0, c0=1.0),
                                   MASTER, 3, X, h)
    dimer = med.sample_realization(dimer_spec(jitter=0.3), MASTER, 3, X, h)
    trig = med.sample_realization(trig_spec(), MASTER, 3, X, h)
    assert const.realization_id == 1684605780886412690
    assert dimer.realization_id == 3863447731438594130
    assert trig.realization_id == 15633671746954554401
    assert med.rescale(dimer, 2.0).realization_id == 4551504166651170366
    assert (med.replace_c(dimer, dimer.c + 0.5, "cshift").realization_id
            == 18367462092247735629)


def test_spec_from_dict_inverts_asdict():
    for spec in (med.ConstantSpec(a0=1.0, c0=2.0), dimer_spec(jitter=0.3),
                 trig_spec()):
        assert med.spec_from_dict(asdict(spec)) == spec
    with pytest.raises(ValueError, match="bad constant ensemble"):
        med.spec_from_dict({"kind": "constant", "a0": 1.0})
    with pytest.raises(ValueError, match="unknown ensemble kind"):
        med.spec_from_dict({"a0": 1.0, "c0": 1.0})


def test_realizations_are_immutable():
    m = constant_medium()
    with pytest.raises(ValueError):
        m.a[0] = 2.0
