"""Environment ensembles: sampling, group action, metrics, concentration."""

import math

import numpy as np
import pytest
from conftest import SMALL_OBJECTS, peak_bytes
from oracles import batch_product, check_sublinearity, field_gradient

import weakkam as wk
from weakkam.env import (_CHUNK, EnvSpec, ky_fan_distance, ky_fan_from_distances,
                         metric_d, sample_realization)
from weakkam.errors import ConfigError
from weakkam.grid import GridFn, GridSpec


def test_spec_rejects_unknown_kind_and_dimension():
    with pytest.raises(ConfigError):
        EnvSpec(kind="perlin", dimension=1, seed=0)
    with pytest.raises(ConfigError):
        EnvSpec(kind="periodic", dimension=3, seed=0)


def test_unknown_params_fail_loudly():
    spec = EnvSpec(kind="random_fourier", dimension=1, seed=0,
                   params={"amp": 0.5})
    with pytest.raises(ConfigError, match="amp"):
        sample_realization(spec, 0)


# (kind, params): amplitude counts that the frequencies or phases do not match
MISCOUNTED_MODES = [
    ("quasiperiodic", {"amplitudes": (1.0,)}, "1 amplitudes, 2 frequencies and 1 phases"),
    ("quasiperiodic", {"amplitudes": (1.0, 0.6, 0.3)}, "3 amplitudes, 2 frequencies and 3 phases"),
    ("periodic", {"amplitudes": (0.7, 0.3), "frequencies": (1.0,)},
     "2 amplitudes, 1 frequencies and 2 phases"),
    ("periodic", {"amplitudes": (0.7, 0.3), "phases": (0.0, 0.5, 1.0)},
     "2 amplitudes, 2 frequencies and 3 phases"),
]


@pytest.mark.parametrize("kind,params,counts", MISCOUNTED_MODES)
def test_a_cosine_field_needs_one_frequency_and_one_phase_per_amplitude(kind, params, counts):
    """A 1D cosine sum whose frequencies or phases miscount its amplitudes
    is refused when it is sampled, naming the kind and the counts, instead
    of failing in numpy when it is evaluated."""
    spec = EnvSpec(kind=kind, dimension=1, seed=0, params=params)
    with pytest.raises(ConfigError) as refused:
        sample_realization(spec, 0)
    assert f"environment kind {kind!r} has {counts}" in str(refused.value)


def test_periodic_single_cosine_values_and_gradient():
    spec = EnvSpec(kind="periodic", dimension=1, seed=0,
                   params={"amplitudes": (1.0,)})
    env = sample_realization(spec, 0)
    x = np.linspace(0.0, 2.0, 41)[:, None]
    assert np.allclose(env.evaluate(x), np.cos(2 * np.pi * x[:, 0]))
    gradient = env.gradient()
    grads = [gradient(point) for point in x[:, 0].tolist()]
    assert all(type(g) is float for g in grads)
    assert np.allclose(grads, -2 * np.pi * np.sin(2 * np.pi * x[:, 0]))
    assert env.field_bound() == 1.0
    assert np.isclose(env.hessian_bound(), (2 * np.pi) ** 2)


def test_translation_is_the_exact_group_action():
    spec = EnvSpec(kind="periodic", dimension=1, seed=0,
                   params={"amplitudes": (0.7, 0.3), "frequencies": (1.0, 2.0)})
    env = sample_realization(spec, 0)
    z = np.array([0.3127])
    shifted = env.translate(z)
    x = np.linspace(-1.0, 1.0, 23)[:, None]
    assert np.allclose(shifted.evaluate(x), env.evaluate(x + z[None, :]), atol=1e-12)
    # composing translates matches translating by the sum
    twice = shifted.translate(z)
    assert np.allclose(twice.evaluate(x), env.translate(2 * z).evaluate(x), atol=1e-12)


def test_random_fourier_is_deterministic_and_normalized():
    spec = EnvSpec(kind="random_fourier", dimension=1, seed=11,
                   params={"amplitude": 0.5, "k_max": 4, "decay": 1.0})
    a = sample_realization(spec, 3)
    b = sample_realization(spec, 3)
    assert np.array_equal(a.phases, b.phases)
    assert np.isclose(np.sum(a.amplitudes), 0.5)  # field_bound == amplitude
    other = sample_realization(spec, 4)
    assert not np.allclose(a.phases, other.phases)
    # amplitude profile follows the declared power decay
    ks = np.arange(1, 5, dtype=float)
    profile = ks**-1.0
    assert np.allclose(a.amplitudes / a.amplitudes[0], profile / profile[0])


def test_poisson_bumps_sample_and_translate():
    spec = EnvSpec(kind="poisson_bumps", dimension=1, seed=5,
                   params={"intensity": 1.0, "bump_radius": 0.3, "coverage": 4.0})
    env = sample_realization(spec, 0)
    x = np.linspace(-2.0, 2.0, 33)[:, None]
    vals = env.evaluate(x)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert float(np.max(vals)) <= env.field_bound() + 1e-12
    z = np.array([0.4])
    assert np.allclose(env.translate(z).evaluate(x), env.evaluate(x + z[None, :]))


def _textbook_values(env, x):
    if env.centers is not None:
        d = x[:, None, :] - env.centers[None, :, :]
        w = np.clip(1.0 - np.sum(d * d, axis=2) / env.bump_radius**2, 0.0, None)
        return np.sum(w**3, axis=1)
    return np.cos(2.0 * np.pi * (x @ env.freqs.T) + env.phases[None, :]) @ env.amplitudes


@pytest.mark.parametrize("kind,dim", [("random_fourier", 1), ("random_fourier", 2),
                                      ("poisson_bumps", 1), ("poisson_bumps", 2)])
def test_evaluation_is_bit_identical_to_the_textbook_expressions(kind, dim):
    """The angles are scaled and the cosines taken in place, and bump fields
    are evaluated in row blocks; neither may move a bit of the values."""
    env = sample_realization(EnvSpec(kind=kind, dimension=dim, seed=7), 2)
    # bump blocks hold 32768 // centers.size rows: cross a few block edges
    # and end on a partial block
    rows = 3 * (32768 // env.centers.size) + 5 if env.centers is not None else 1001
    x = np.random.default_rng(dim).uniform(-6.0, 6.0, (rows, dim))
    assert env.evaluate(x).tobytes() == _textbook_values(env, x).tobytes()
    if env.centers is not None:
        # a bump row reduces on its own, so one row at a time is the same
        one = np.concatenate([env.evaluate(row) for row in x[:64]])
        assert one.tobytes() == _textbook_values(env, x[:64]).tobytes()


# (kind, params): each cosine kind with an odd and an even mode count
BLOCK_FIELDS = [
    ("periodic", {"amplitudes": (1.0,)}),
    ("periodic", {"amplitudes": (0.7, 0.3)}),
    ("quasiperiodic", {"amplitudes": (1.0, 0.6)}),
    ("quasiperiodic", {"amplitudes": (1.0, 0.6, 0.3)}),
    ("random_fourier", {"k_max": 3}),
    ("random_fourier", {"k_max": 2}),
    ("poisson_bumps", {}),
]


def _block_field(kind, params, dim):
    params = dict(params)
    if kind == "quasiperiodic":
        roots = np.sqrt([1.0, 2.0, 3.0][:len(params["amplitudes"])])
        params["frequencies"] = roots if dim == 1 else np.column_stack([roots, roots[::-1]])
    return sample_realization(EnvSpec(kind=kind, dimension=dim, seed=4, params=params), 1)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind,params", BLOCK_FIELDS)
def test_block_evaluation_is_bit_identical_to_evaluate(kind, params, dim):
    """The stream serves each block and the whole batch, and the
    table-free route each block, with the bits evaluate gives on each as
    its own array and the bits of the product over the batch's textbook
    cosines (batch_product): blocks of 2, 3 and 5 rows and of the 2D box
    sizes 1089 and 4225 (both 1 mod 4, so blocks start at rows that are
    not multiples of 4; the batches of 1089 and 4225 rows cross one and
    five chunk edges inside blocks and end on a partial chunk).  Every
    block is a slice of a cover, as on a lattice, so no block of one row
    occurs (a lattice has at least 3 nodes per axis).  The blocks come
    from covers: one read by an index array (as a torus block is) whose
    members are three blocks with its points, one whose table comes
    precomputed, and a one-block cover, listed out of batch order."""
    env = _block_field(kind, params, dim)
    for n in (2, 3, 5, 1089, 4225):
        x = np.random.default_rng(n + dim).uniform(-6.0, 6.0, (5, n, dim))
        x[1] = x[2] = x[0]
        swap = np.arange(n)[::-1]
        precomputed = env._cover_table(x[3])

        def covers():
            return iter([(x[4].copy(), None, [(4, np.s_[:])]),
                         (x[0][swap], None, [(0, swap), (1, swap), (2, swap)]),
                         (x[3].copy(), precomputed, [(3, np.s_[:])])])

        runs = []
        whole, blocks = env._evaluate_blocks(x.shape[:-1], covers(),
                                             lambda it: runs.extend(it) or np.concatenate(runs))
        flat = x.reshape(-1, dim)
        if env.centers is None:
            assert whole.tobytes() == batch_product(np.cos(env._angles(flat)),
                                                    env.amplitudes).tobytes()
        else:
            assert whole.tobytes() == env.evaluate(flat).tobytes()
        if env.centers is None:
            assert [len(run) for run in runs[:-1]] == [_CHUNK] * (len(runs) - 1)
        assert [len(b) for b in blocks] == [n] * 5
        for b, values in enumerate(blocks):
            assert values.tobytes() == env.evaluate(x[b].copy()).tobytes()
        streamed = dict(env._block_values(x.shape[:-1], covers()))
        assert sorted(streamed) == list(range(5))
        for b, values in streamed.items():
            assert values.tobytes() == env.evaluate(x[b].copy()).tobytes()


def _point_gradients(env, x):
    """The bound EnvRealization.gradient at each row of x, one point at a
    time, as an (m, dim) array."""
    gradient = env.gradient()
    return np.array([gradient(*point) for point in x.tolist()]).reshape(x.shape)


# One cosine mode or a bump cloud: in 2D the frequencies are integers, so a
# product x_i f_i is exact and a fused multiply-add in the array product
# could not round the angle differently either.
SINGLE_MODE_FIELDS = [
    ("periodic", 1, {"amplitudes": (1.0,)}),
    ("periodic", 1, {"amplitudes": (0.8,), "phases": (0.3,), "frequencies": (3.0,)}),
    ("quasiperiodic", 1, {"amplitudes": (0.8,), "frequencies": (math.sqrt(2.0),)}),
    ("periodic", 2, {"amplitudes": (1.0,)}),
    ("periodic", 2, {"amplitudes": (0.8,), "phases": (0.3,), "frequencies": ((1.0, -2.0),)}),
    ("poisson_bumps", 1, {}),
    ("poisson_bumps", 2, {}),
]


@pytest.mark.parametrize("kind,dim,params", SINGLE_MODE_FIELDS)
def test_point_gradient_is_the_array_oracle_on_one_mode_and_on_bumps(kind, dim, params):
    """With one mode both routes take the angle (x . f) 2 pi + phi, its
    sine, s = a sin and the components -2 pi s f_i by the same IEEE
    operations (math.sin and np.sin agree), and a bump row sums its
    centers with the same numpy calls: the bits are the array oracle's,
    zero signs included (the points include the origin)."""
    env = sample_realization(EnvSpec(kind=kind, dimension=dim, seed=7, params=params), 2)
    x = np.random.default_rng(dim).uniform(-6.0, 6.0, (500, dim))
    x[0] = 0.0
    assert _point_gradients(env, x).tobytes() == field_gradient(env, x).tobytes()


# Several cosine modes: in 2D only integer frequencies (see the budget test).
MULTI_MODE_FIELDS = [
    ("quasiperiodic", 1, {"amplitudes": (0.7, 0.3), "frequencies": (1.0, math.sqrt(2.0))}),
    ("quasiperiodic", 1, {"amplitudes": (1.0, 0.6, 0.3),
                          "frequencies": tuple(np.sqrt([1.0, 2.0, 3.0]))}),
    ("random_fourier", 1, {"k_max": 3}),
    ("random_fourier", 1, {"k_max": 8, "decay": 1.0}),
    ("periodic", 2, {"amplitudes": (0.7, 0.3), "frequencies": ((1.0, 2.0), (3.0, -1.0))}),
    ("random_fourier", 2, {"k_max": 3}),
]


@pytest.mark.parametrize("kind,dim,params", MULTI_MODE_FIELDS)
def test_point_gradient_of_several_modes_is_within_the_summation_budget(kind, dim, params):
    """With K modes the point route sums s_k f_ki over k left to right,
    and the oracle's matrix product in its own order, fused or not.  Both
    take the same angles, since in 1D an angle is one product and in 2D
    the points are multiples of 2^-10 in [-6, 6] and the frequencies
    integers, so every x . f_k is exact; and the same sines, as the
    one-mode test checks.  A sum of K products in any order, fused or
    not, is within gamma_K sum_k |s_k||f_ki| of the exact sum, with
    gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 3.1 and ch. 4), and the
    product by fl(2 pi) adds one rounding.  With |s_k| <= |a_k|, each
    route is within gamma_{K+1} fl(2 pi) A_i of -fl(2 pi) sum_k s_k f_ki,
    where A_i = sum_k |a_k||f_ki|, and the two are within twice that."""
    env = sample_realization(EnvSpec(kind=kind, dimension=dim, seed=7, params=params), 2)
    rng = np.random.default_rng(dim)
    if dim == 1:
        x = rng.uniform(-6.0, 6.0, (500, 1))
    else:
        x = rng.integers(-6 * 1024, 6 * 1024, (500, 2)) / 1024.0
    modes = len(env.amplitudes)
    assert modes > 1
    u = 2.0**-53
    gamma = (modes + 1) * u / (1.0 - (modes + 1) * u)
    budget = 2.0 * gamma * (2.0 * np.pi) * (np.abs(env.amplitudes) @ np.abs(env.freqs))
    gap = np.abs(_point_gradients(env, x) - field_gradient(env, x))
    assert np.all(gap <= budget[None, :])


def test_cosine_field_evaluation_holds_one_angle_buffer():
    """Evaluating m points of a K-mode cosine field holds the (m, K) angle
    array, then its cosines in the same buffer, and (m, dim)-sized
    results: at most 8 m (K + 2 (dim + 1)) bytes beyond small objects."""
    env = sample_realization(EnvSpec(kind="random_fourier", dimension=2, seed=3), 0)
    m, modes, dim = 20000, len(env.amplitudes), 2
    x = np.random.default_rng(0).uniform(-8.0, 8.0, (m, dim))
    budget = 8 * m * (modes + 2 * (dim + 1)) + SMALL_OBJECTS
    assert peak_bytes(env.evaluate, x) <= budget


def test_bump_field_evaluation_memory_does_not_grow_with_the_rows():
    """A row block's (rows, centers, dim) differences hold at most 32768
    entries.  At most two arrays of that size live at once (the differences
    and their product) with three of half that size (squared radii, weights
    and their powers), under four in all, plus one reduction buffer of
    np.getbufsize() entries; beyond them only the result grows with m."""
    env = sample_realization(EnvSpec(kind="poisson_bumps", dimension=2, seed=3), 0)
    for m in (1000, 8000):
        x = np.random.default_rng(m).uniform(-8.0, 8.0, (m, 2))
        budget = 8 * (4 * 32768 + np.getbufsize() + 2 * m) + SMALL_OBJECTS
        assert peak_bytes(env.evaluate, x) <= budget


def test_metric_d_of_constant_offset_matches_series():
    f = lambda x: np.zeros(x.shape[0])
    g = lambda x: np.ones(x.shape[0])
    # every windowed sup is 1, so the series sums to (1 - 2^-10)/2
    assert np.isclose(metric_d(f, g, n_max=10, dim=1), (1 - 2.0**-10) / 2)
    assert metric_d(f, f, n_max=10, dim=1) == 0.0


def test_metric_d_accepts_gridfns_periodically_extended():
    grid = GridSpec(dim=1, n=32)
    f = GridFn(grid, np.cos(2 * np.pi * grid.points()[:, 0]))
    g = GridFn.zeros(grid)
    val = metric_d(f, g, n_max=4)
    sup = 1.0
    assert abs(val - (1 - 2.0**-4) * sup / (1 + sup)) < 1e-6


def test_ky_fan_exact_scan_oracles():
    # all distances equal: the crossing sits at that value
    assert np.isclose(ky_fan_from_distances(np.full(100, 0.3)), 0.3)
    # all zero: distance zero
    assert ky_fan_from_distances(np.zeros(50)) == 0.0
    # one outlier in a hundred: eps = 1/100 suffices and is attained
    d = np.zeros(100)
    d[0] = 1.0
    assert np.isclose(ky_fan_from_distances(d), 0.01)
    with pytest.raises(ConfigError):
        ky_fan_from_distances(np.array([]))


def test_ky_fan_distance_over_ensemble_is_deterministic():
    spec = EnvSpec(kind="random_fourier", dimension=1, seed=2,
                   params={"amplitude": 1.0, "k_max": 2, "decay": 2.0})
    F = lambda omega: (lambda x: omega.evaluate(x))
    G = lambda omega: (lambda x: omega.evaluate(x) + 0.5)
    v1, d1 = ky_fan_distance(spec, F, G, n_samples=8)
    v2, d2 = ky_fan_distance(spec, F, G, n_samples=8)
    assert v1 == v2 and np.array_equal(d1, d2)
    # constant offset 0.5: every realization distance is the same series sum
    expect = (1 - 2.0**-6) * 0.5 / 1.5
    assert np.allclose(d1, expect)


def test_sublinearity_accepts_bounded_rejects_linear():
    bounded = lambda pts: np.cos(pts[:, 0])
    rep = check_sublinearity(bounded, radii=(1.0, 4.0, 16.0), dim=1)
    assert rep.passed
    linear = lambda pts: 3.0 * np.abs(pts[:, 0])
    rep2 = check_sublinearity(linear, radii=(1.0, 4.0, 16.0), dim=1)
    assert not rep2.passed
    with pytest.raises(ConfigError):
        check_sublinearity(bounded, radii=(2.0,))


def test_package_reexports_environment_api():
    assert wk.EnvSpec is EnvSpec
    assert wk.sample_realization is sample_realization
