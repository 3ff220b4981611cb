"""Support costs, path semidistances, and the bisected critical level."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import SMALL_OBJECTS, CountingField, peak_bytes
from oracles import batch_product, block_points, rolled, torus_dist

import weakkam as wk
from weakkam.errors import ConfigError, SubcriticalLevelError
from weakkam.grid import BoxSpec, GridFn, GridSpec, relax
from weakkam.config import MODELS
from weakkam.hamiltonian import kappa_at_values, mechanical_model, tilted_mechanical_model
from weakkam.semigroup import build_kernel
from weakkam.env import _CHUNK
from weakkam.metric import (_SamplePoints, build_cost_graph, check_subsolution,
                            critical_value_free, critical_value_stationary,
                            default_edge_radius, semidistance, support_sigma)


@pytest.fixture(scope="module")
def flat_env():
    spec = wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                      params={"amplitudes": (0.0,)})
    return wk.sample_realization(spec, 0)


@pytest.fixture(scope="module")
def cosine_env():
    spec = wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                      params={"amplitudes": (1.0,)})
    return wk.sample_realization(spec, 0)


def test_support_cost_closed_form(flat_env, cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    origin = np.array([[0.0]])
    # flat field: sigma_a(x, q) = |q| sqrt(2a)
    val = support_sigma(m, flat_env.evaluate(origin), np.array([[0.25]]), 0.5)
    assert np.allclose(val, 0.25)
    # cosine field at the origin, level 1: sublevel degenerates, cost 0
    val0 = support_sigma(m, cosine_env.evaluate(origin), np.array([[0.25]]), 1.0)
    assert np.allclose(val0, 0.0)
    # below the field value the sublevel is empty: NaN signals it
    bad = support_sigma(m, cosine_env.evaluate(origin), np.array([[0.25]]), 0.5)
    assert np.all(np.isnan(bad))


def test_flat_semidistance_is_the_torus_metric(flat_env):
    m = mechanical_model(dim=1, field_bound=0.0)
    g = GridSpec(dim=1, n=64)
    sd = semidistance(build_cost_graph(m, 0.5, flat_env, g, g.offsets_within(0.1)), [0])
    expected = torus_dist(g, g.points(), np.zeros((1, 1)))
    assert np.max(np.abs(sd[0] - expected)) == 0.0
    assert sd[0, 0] == 0.0


def test_semidistance_triangle_inequality(cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    g = GridSpec(dim=1, n=64)
    sources = [0, 16, 40]
    sd = semidistance(build_cost_graph(m, 1.0, cosine_env, g, g.offsets_within(0.15)), sources)
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(200):
        i, k = rng.integers(0, len(sources), size=2)
        x = rng.integers(0, g.size)
        # S(s_i, x) <= S(s_i, s_k) + S(s_k, x)
        lhs = sd[i, x]
        rhs = sd[i, sources[k]] + sd[k, x]
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-9


def test_negative_cycle_raises_with_witness(flat_env):
    tm = tilted_mechanical_model(p0=(0.5,), dim=1, field_bound=0.0)
    g = GridSpec(dim=1, n=64)
    graph = build_cost_graph(tm, 0.05, flat_env, g, g.offsets_within(0.1))
    with pytest.raises(SubcriticalLevelError) as err:
        semidistance(graph, [0])
    assert err.value.cycle is not None and len(err.value.cycle) > 1


def test_cost_graph_infeasible_below_field_max(cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    g = GridSpec(dim=1, n=64)
    with pytest.raises(SubcriticalLevelError) as err:
        build_cost_graph(m, 0.9, cosine_env, g, g.offsets_within(0.1))
    assert err.value.empty_at is not None
    # the witness owns its point: a view would keep every midpoint alive
    assert err.value.empty_at.base is None


def test_critical_value_bisection_flat_and_tilted(flat_env):
    m = mechanical_model(dim=1, field_bound=0.0)
    g = GridSpec(dim=1, n=64)
    res = critical_value_free(m, flat_env, g)
    assert res.hi == 0.0              # upper end certified feasible
    assert abs(res.value - 0.0) <= res.bracket_width
    assert res.certificate["reason"] in ("empty_sublevel", "negative_cycle")
    tm = tilted_mechanical_model(p0=(0.5,), dim=1, field_bound=0.0)
    res2 = critical_value_free(tm, flat_env, g)
    # the tilt pays |p0|^2/2 to stand still
    assert abs(res2.value - 0.125) <= res2.bracket_width + 1e-12
    assert res2.hi >= 0.125 - 1e-12


def test_critical_value_pendulum_hits_field_max(cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    g = GridSpec(dim=1, n=64)
    res = critical_value_free(m, cosine_env, g, tol_bisect=5e-3)
    assert abs(res.value - 1.0) <= 2e-2
    assert res.bracket_width <= 1e-2
    assert res.lo <= 1.0 <= res.hi + 1e-2


def test_check_subsolution_gradient_route(cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    g = GridSpec(dim=1, n=64)
    zero = GridFn.zeros(g)
    rep = check_subsolution(zero, m, 1.0, cosine_env)
    assert rep.passed and rep.max_violation <= 0.0
    rep2 = check_subsolution(zero, m, 0.5, cosine_env)
    assert not rep2.passed
    # worst point sits at the field maximum
    assert np.isclose(rep2.max_violation, 0.5)


def test_stationary_estimates_shapes_and_determinism():
    spec = wk.EnvSpec(kind="random_fourier", dimension=1, seed=7,
                      params={"amplitude": 0.5, "k_max": 3, "decay": 1.0,
                              "period": 8.0})
    m = mechanical_model(dim=1, field_bound=0.5)
    res = critical_value_stationary(m, spec, n_samples=2, box_radii=(2.0, 4.0),
                                    points_per_unit=16, tol_bisect=1e-2)
    assert res.estimates.shape == (2, 2)
    assert res.means.shape == (2,) and res.spreads.shape == (2,)
    res2 = critical_value_stationary(m, spec, n_samples=2, box_radii=(2.0, 4.0),
                                     points_per_unit=16, tol_bisect=1e-2)
    assert np.array_equal(res.estimates, res2.estimates)


def _stationary_realization(index):
    spec = wk.EnvSpec(kind="random_fourier", dimension=2, seed=2,
                      params={"period": 16.0, "k_max": 3, "amplitude": 0.5,
                              "decay": 1.0})
    return wk.sample_realization(spec, index)


def test_bisection_evaluates_the_field_once_per_sample_array():
    """The node values are read off one cover (the edge radius is read off
    them), the class-0 cover for the longest reach, 3 cells past the box
    on every side; then one streamed batch over the nodes and every
    offset's midpoints, shaped as one box per offset plus the nodes'; no
    level evaluates the field again."""
    m = mechanical_model(dim=2, field_bound=0.5)
    box = BoxSpec(dim=2, radius=2.0, points_per_unit=8)
    iterations = []
    for tol in (5e-2, 5e-4):
        env = CountingField(_stationary_realization(0))
        res = critical_value_free(m, env, box, tol_bisect=tol)
        iterations.append(res.iterations)
        assert env.evaluated == [] and env.streamed == []
        assert env.cover_values == [(tuple(n + 6 for n in box.shape) + (2,), box.shape + (2,))]
        [shape] = env.batches
        assert shape[0] > 1 and shape == shape[:1] + box.shape
    assert iterations[1] > iterations[0]


def test_bisection_holds_its_covers_one_block_one_chunk_and_the_values():
    """critical_value_free on the 2D R=8 box of the stationary benchmark
    holds no (M, K) table of the batch's cosines, M = B N batch rows of B
    sample arrays over N nodes and K modes.  While it samples it holds
    the covers' cosines (the head cover for the longest reach and one
    cover per class of offsets mod 2), the B per-array value arrays, the
    (N, K) block scratch and the (_CHUNK, K) chunk with its run's values;
    while it bisects, the value arrays and one level's (B - 1, N)
    weights.  The sum of all of these, with N-sized arrays under
    4 N (dim + 2) entries for the nodes and the temporaries of sigma and
    relax (each under one level's weights), bounds both phases.  The
    table alone exceeds it, and so does the 3.41 KiB per node that one
    call took while it held the table."""
    m = mechanical_model(dim=2, field_bound=0.5)
    env = _stationary_realization(0)
    box = BoxSpec(dim=2, radius=8.0, points_per_unit=8)
    counting = CountingField(env)
    critical_value_free(m, counting, box)
    [shape] = counting.batches
    head = (_SamplePoints.head_cover(box)[0], None)
    samples = _SamplePoints(box, box.offsets_within(3 * box.h), head=head)
    assert samples.shape == shape
    covers = [math.prod(points.shape[:-1]) for points, _, _ in samples.covers()]
    blocks, n, dim, modes = shape[0], box.size, box.dim, len(env.amplitudes)
    budget = 8 * (modes * (sum(covers) + n + _CHUNK) + blocks * n + (blocks - 1) * n
                  + 4 * n * (dim + 2)) + SMALL_OBJECTS
    assert peak_bytes(critical_value_free, m, env, box) <= budget
    assert 8 * blocks * n * modes > budget and 3.41 * 1024 * n > budget


def _sampler(lattice, reach):
    """The sample points of a bisection with offsets within reach h."""
    return _SamplePoints(lattice, lattice.offsets_within(reach * lattice.h))


def _batch(samples):
    """Every block's points in one (M, dim) array, nodes first."""
    return np.concatenate([block_points(samples, b).reshape(-1, samples.lattice.dim)
                           for b in range(samples.shape[0])])


def _reduce_to_array(slices):
    return np.concatenate(list(slices))


def _evaluate(env, route):
    """(whole, blocks): _evaluate_blocks over route's batch, its runs
    joined into the whole batch's values."""
    return env._evaluate_blocks(route.shape, route.covers(), _reduce_to_array)


# One R = 8 batch of the stationary benchmark (critical_value_free's reach
# 3 h there, 29 arrays of 16641 nodes), streamed in a child process; the
# child prints the digests of the whole batch's values, of each array's
# values and of one product over the batch's cosine table.
_STREAM_CHILD = """
import hashlib, json
import numpy as np
import weakkam as wk
from weakkam.grid import BoxSpec
from weakkam.metric import _SamplePoints

spec = wk.EnvSpec(kind="random_fourier", dimension=2, seed=0,
                  params={"period": 16.0, "k_max": 3, "amplitude": 0.5, "decay": 1.0})
env = wk.sample_realization(spec, 0)
box = BoxSpec(dim=2, radius=8.0, points_per_unit=8)
samples = _SamplePoints(box, box.offsets_within(3 * box.h))
whole, blocks = env._evaluate_blocks(samples.shape, samples.covers(),
                                     lambda runs: np.concatenate(list(runs)))
table = np.empty(samples.shape + (len(env.amplitudes),))
for b, cosines in env._block_tables(samples.covers()):
    table[b] = cosines
digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
print(json.dumps({"whole": digest(whole), "blocks": [digest(v) for v in blocks],
                  "table": digest(table.reshape(-1, len(env.amplitudes)) @ env.amplitudes)}))
"""


def test_streamed_batch_keeps_its_bits_under_one_and_two_blas_threads():
    """The whole batch's values and every array's values are byte-equal
    under one and two OpenBLAS threads, and under one they are one product
    over the batch's (M, K) cosine table.  That one product over the
    482589 rows rounds some rows differently under two threads; the runs
    of _CHUNK rows that stand for it do not."""
    src = os.path.dirname(os.path.dirname(wk.__file__))
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        child = subprocess.run([sys.executable, "-c", _STREAM_CHILD], env=env,
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        digests[threads] = json.loads(child.stdout)
    one, two = digests["1"], digests["2"]
    assert len(one["blocks"]) == 29
    assert one["whole"] == two["whole"] and one["blocks"] == two["blocks"]
    assert one["whole"] == one["table"]


TRANSLATED_LATTICES = [
    BoxSpec(dim=1, radius=2.0, points_per_unit=8),
    BoxSpec(dim=1, radius=1.0, points_per_unit=12),     # h not dyadic
    GridSpec(dim=1, n=16),
    GridSpec(dim=1, n=24),
    BoxSpec(dim=2, radius=2.0, points_per_unit=8),
    BoxSpec(dim=2, radius=1.0, points_per_unit=12),
    GridSpec(dim=2, n=16),
    GridSpec(dim=2, n=10),
]


def _translated_field(dim):
    spec = wk.EnvSpec(kind="random_fourier", dimension=dim, seed=2,
                      params={"period": 16.0, "k_max": 3, "amplitude": 0.5, "decay": 1.0})
    return wk.sample_realization(spec, 1)


@pytest.mark.parametrize("reach", [3, 6])
@pytest.mark.parametrize("lattice", TRANSLATED_LATTICES, ids=str)
def test_translated_table_is_the_textbook_table(lattice, reach):
    """The cosines read off one cover per class of offsets mod 2, both
    streamed products over them, and the table-free values, are bit for
    bit one _angles and cos over the whole batch and the products over
    that table, on boxes and tori whose spacing is dyadic or not (every
    block is bit-equal to its slice of the cover either way), with class 0
    read off its own cover or off the head cover.  The classes' members
    are every block once."""
    env = _translated_field(lattice.dim)
    samples = _sampler(lattice, reach)
    covers = list(samples.covers())
    assert len(covers) == 2**lattice.dim
    targets = sorted(b for _, _, members in covers for b, _ in members)
    assert targets == list(range(samples.shape[0]))
    equal = [np.array_equal(block_points(samples, b), points[index])
             for points, _, members in covers for b, index in members]
    assert all(equal)
    expected = np.cos(env._angles(_batch(samples)))
    n, modes = lattice.size, len(env.amplitudes)
    points, index = _SamplePoints.head_cover(lattice)
    head = (points, env._cover_values(points, index)[0])

    def routes():
        yield samples
        yield _SamplePoints(lattice, samples.offsets, head=head)

    for route in routes():
        for b, cosines in env._block_tables(route.covers()):
            assert cosines.reshape(n, modes).tobytes() == expected[b * n:(b + 1) * n].tobytes()
    for route in routes():
        whole, blocks = _evaluate(env, route)
        assert route.head is None
        assert whole.tobytes() == batch_product(expected, env.amplitudes).tobytes()
        for b, values in enumerate(blocks):
            assert values.tobytes() == (expected[b * n:(b + 1) * n] @ env.amplitudes).tobytes()
    for b, values in env._block_values(samples.shape, samples.covers()):
        assert values.tobytes() == (expected[b * n:(b + 1) * n] @ env.amplitudes).tobytes()


@pytest.mark.parametrize("lattice", TRANSLATED_LATTICES, ids=str)
def test_node_values_read_off_the_head_cover_are_evaluate(lattice):
    """critical_value_free reads the node values off the class-0 cover for
    the longest reach: bit for bit env.evaluate on the nodes, whose
    coordinates are the cover's on every lattice, dyadic or not; its
    cosines are the textbook ones over its points, and every class-0
    block of offsets within that reach is a slice of it."""
    env = _translated_field(lattice.dim)
    pts = lattice.points()
    points, index = _SamplePoints.head_cover(lattice)
    cosines, values = env._cover_values(points, index)
    assert values.tobytes() == env.evaluate(pts).tobytes()
    flat = points.reshape(-1, lattice.dim)
    assert cosines.reshape(len(flat), -1).tobytes() == np.cos(env._angles(flat)).tobytes()
    samples = _sampler(lattice, 6)
    head = (points, cosines)
    [(_, _, members)] = [c for c in _SamplePoints(lattice, samples.offsets, head=head).covers()
                         if c[0] is points]
    assert members[0][0] == 0 and members[0][1] == index
    assert np.array_equal(pts.reshape(points[index].shape), points[index])
    for b, block in members:
        assert np.array_equal(block_points(samples, b), points[block])


@pytest.mark.parametrize("lattice", TRANSLATED_LATTICES, ids=str)
def test_every_sample_point_is_its_half_spacing_index_rounded_once(lattice):
    """Block b's point at node j is (2 (first + j) - k) h / 2 rounded once
    from the exact value (wrapped on a torus), on every lattice: read off
    its class's cover, formed whole (block_points), and named by a refusal's
    witness.  On a spacing that is not dyadic, x - k h / 2 from the node x
    rounds some of these points differently."""
    samples = _sampler(lattice, 6)
    h, shape = Fraction(lattice.h), lattice.shape
    ks = np.vstack([np.zeros((1, lattice.dim), dtype=int), samples.offsets])
    rng = np.random.default_rng(lattice.size)
    for points, _, members in samples.covers():
        for b, index in members:
            axes = [[float((2 * (lattice.first + j) - int(k)) * h / 2) for j in range(m)]
                    for k, m in zip(ks[b], shape)]
            exact = lattice.wrap(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
            assert points[index].tobytes() == exact.tobytes()
            assert block_points(samples, b).tobytes() == exact.tobytes()
            prices = np.zeros(lattice.size)
            j = int(rng.integers(lattice.size))
            prices[j:] = np.nan
            witness = samples.witness(prices, b)
            assert witness.base is None
            assert witness.tobytes() == exact.reshape(-1, lattice.dim)[j].tobytes()
            assert samples.witness(np.zeros(lattice.size), b) is None


def test_bump_cloud_blocks_are_sliced_off_each_cover_evaluated_once():
    """A bump cloud's sample arrays are read off the covers too: the bump
    sums see each cover's rows once, not the (m + 1) N rows of the batch,
    and every array's values are bit for bit evaluate on its points, on
    both routes."""
    env = wk.sample_realization(wk.EnvSpec(kind="poisson_bumps", dimension=2, seed=5,
                                           params={"coverage": 3.0}), 0)
    box = BoxSpec(dim=2, radius=2.0, points_per_unit=8)
    samples = _sampler(box, 3)
    covers = [math.prod(points.shape[:-1]) for points, _, _ in samples.covers()]
    seen = []
    bumps = env._eval_bumps
    env._eval_bumps = lambda x: seen.append(len(x)) or bumps(x)
    streamed = dict(env._block_values(samples.shape, samples.covers()))
    assert seen == covers and sum(covers) < samples.shape[0] * box.size // 4
    seen.clear()
    _, blocks = _evaluate(env, samples)
    assert seen == covers
    del env._eval_bumps
    for b, values in enumerate(blocks):
        expected = env.evaluate(block_points(samples, b).reshape(-1, box.dim)).tobytes()
        assert values.tobytes() == streamed[b].tobytes() == expected


def test_cover_table_computes_each_cover_once():
    """On the 2D R=4 box at radius 3h, the rows sent through _angles are at
    most the summed sizes of the 2^dim covers, one per class of offsets
    mod 2.  A cover spans its blocks, the nodes shifted by
    d = (k - k mod 2) / 2 in [-2, 1] per axis, so at most 3 more points
    per axis than the box.  That is well under a quarter of the (m + 1) N
    rows of the batch.  The values streamed from them are the products
    over the textbook table, of the whole batch and of each block."""
    env = _stationary_realization(0)
    box = BoxSpec(dim=2, radius=4.0, points_per_unit=8)
    samples = _sampler(box, 3)
    covers = [points.shape[:-1] for points, _, _ in samples.covers()]
    assert len(covers) == 2**box.dim
    assert all(side <= box.n + 3 for shape in covers for side in shape)
    computed = []
    angles = env._angles
    env._angles = lambda x: computed.append(len(x)) or angles(x)
    whole, blocks = _evaluate(env, samples)
    del env._angles
    n = box.size
    assert sum(computed) <= sum(int(np.prod(shape)) for shape in covers) < len(blocks) * n // 4
    expected = np.cos(env._angles(_batch(samples)))
    assert whole.tobytes() == batch_product(expected, env.amplitudes).tobytes()
    for b, values in enumerate(blocks):
        assert values.tobytes() == (expected[b * n:(b + 1) * n] @ env.amplitudes).tobytes()


def test_cost_graph_holds_its_weights_one_cover_and_one_array_of_cosines():
    """build_cost_graph on the 2D R=4 box at radius 6h prices each sample
    array as its values come, from the cover of its class through one
    (N, K) scratch array: beyond the (m, N) weights it holds one cover's
    cosines (the class-0 cover, 3 cells past the box per side, is the
    largest), the scratch, and N-sized arrays under 4 N (dim + 2) entries:
    the cover's points, one array's values and prices with sigma's
    temporaries.  No array's points are formed.  The (m + 1) N dim batch
    of points, or every array's values at once, would exceed it."""
    m = mechanical_model(dim=2, field_bound=0.5)
    env = _stationary_realization(1)
    box = BoxSpec(dim=2, radius=4.0, points_per_unit=8)
    offsets = box.offsets_within(6 * box.h)
    counting = CountingField(env)
    graph = build_cost_graph(m, 0.6, counting, box, offsets)
    assert counting.streamed == [(len(offsets) + 1,) + box.shape] and counting.batches == []
    covers = [math.prod(points.shape[:-1]) for points, _, _ in _sampler(box, 6).covers()]
    assert max(covers) == (box.n + 6) ** 2
    modes, n, dim = len(env.amplitudes), box.size, box.dim
    budget = graph.weights.nbytes + 8 * (modes * (max(covers) + n) + 4 * n * (dim + 2)) \
        + SMALL_OBJECTS
    assert peak_bytes(build_cost_graph, m, 0.6, env, box, offsets) <= budget
    # the batch of points alone would exceed the slack beyond the weights
    assert 8 * (len(offsets) + 1) * n * dim > budget - graph.weights.nbytes


def test_ensemble_estimates_are_one_fresh_call_per_box():
    """The ensemble's estimates are bit for bit those of one
    critical_value_free call per realization and box, each on a fresh
    realization, with the radii given in descending order and stored by
    ascending radius."""
    spec = wk.EnvSpec(kind="random_fourier", dimension=2, seed=2,
                      params={"period": 16.0, "k_max": 3, "amplitude": 0.5, "decay": 1.0})
    m = mechanical_model(dim=2, field_bound=0.5)
    radii = (1.0, 2.0)
    res = critical_value_stationary(m, spec, n_samples=3, box_radii=radii[::-1],
                                    points_per_unit=8, tol_bisect=1e-2)
    assert res.box_radii.tolist() == list(radii)
    for i in range(3):
        for rj, rad in enumerate(radii):
            env = wk.sample_realization(spec, i)
            box = BoxSpec(dim=2, radius=rad, points_per_unit=8)
            value = critical_value_free(m, env, box, tol_bisect=1e-2).value
            assert np.float64(value).tobytes() == res.estimates[i, rj].tobytes()


_DEGENERATE = [    # n_samples, box radius, points_per_unit, what the refusal names
    (0, 2.0, 8, "n_samples >= 1, got 0"),
    (-1, 2.0, 8, "n_samples >= 1, got -1"),
    (2, -1.0, 8, "box radius -1.0 is not"),
    (2, math.nan, 8, "box radius nan is not"),
    (2, 0.0, 8, "box radius 0.0 at 8 points per unit gives a one-node box"),
    (2, 0.05, 8, "box radius 0.05 at 8 points per unit gives a one-node box"),
    (2, 2.0, 0, "box needs points_per_unit >= 1, got 0"),
    (2, 2.0, -8, "box needs points_per_unit >= 1, got -8"),
]


# a case's id names points_per_unit only where it is not the usual 8
@pytest.mark.parametrize("n_samples,radius,points_per_unit,named", _DEGENERATE,
                         ids=[f"{n}-{r}-{named}" if ppu == 8 else f"{n}-{r}-{ppu}-{named}"
                              for n, r, ppu, named in _DEGENERATE])
def test_degenerate_ensembles_are_refused_up_front(n_samples, radius, points_per_unit, named,
                                                   monkeypatch):
    """No realization, a radius that is not finite and non-negative or
    that gives a one-node box, or points_per_unit below 1, is a ConfigError
    naming the value, raised before any realization is sampled."""
    import weakkam.env

    def unsampled(spec, index):
        raise AssertionError("a realization was sampled")

    monkeypatch.setattr(weakkam.env, "sample_realization", unsampled)
    spec = wk.EnvSpec(kind="random_fourier", dimension=2, seed=2, params={})
    m = mechanical_model(dim=2, field_bound=0.5)
    with pytest.raises(ConfigError, match=re.escape(named)):
        critical_value_stationary(m, spec, n_samples=n_samples, box_radii=(radius, 4.0),
                                  points_per_unit=points_per_unit)


def test_cost_graph_prices_each_offset_from_its_own_midpoint_batch():
    # the field's matrix-vector product rounds a row by its place in the
    # batch, so the weights must come from one evaluation per offset
    m = mechanical_model(dim=2, field_bound=0.5)
    env = _stationary_realization(3)
    box = BoxSpec(dim=2, radius=4.0, points_per_unit=8)
    graph = build_cost_graph(m, 0.6, env, box, box.offsets_within(3 * box.h))
    pts = box.points()
    for k, row in zip(graph.offsets, graph.weights):
        disp = k * box.h
        mids = pts - 0.5 * disp[None, :]
        rows = np.repeat(disp[None, :], len(pts), axis=0)
        expected = support_sigma(m, env.evaluate(mids), rows, 0.6)
        assert np.array_equal(row, expected)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", list(MODELS))
def test_one_row_displacements_price_as_repeated_rows(name, dim):
    """Cost graphs and kernels hand sigma and L each displacement as one
    (1, dim) row to broadcast; priced with that row repeated at every
    point, as they were before, every weight has the same bits."""
    model = MODELS[name]({"field_bound": 1.0, "p0": [0.5], "offset": 2.0}, dim)
    env = _cosine_env(1) if dim == 1 else _stationary_realization(2)
    grid = GridSpec(dim=dim, n=32)
    for lattice in (grid, BoxSpec(dim=dim, radius=1.0, points_per_unit=8)):
        graph = build_cost_graph(model, 1.5, env, lattice, lattice.offsets_within(3 * lattice.h))
        pts = lattice.points()
        for k, row in zip(graph.offsets, graph.weights):
            disp = np.asarray(k, dtype=float) * lattice.h
            mids = lattice.wrap(pts - 0.5 * disp[None, :])
            rows = np.repeat(disp[None, :], len(pts), axis=0)
            assert row.tobytes() == support_sigma(model, env.evaluate(mids), rows, 1.5).tobytes()
    kern = build_kernel(model, env, grid, dt=1.0 / 16.0, theta=2.0)
    # no two offsets join the same node pair, so no row is a merged minimum
    assert len({tuple(k % grid.n) for k in kern.offsets}) == len(kern.offsets)
    pts = grid.points()
    for k, row in zip(kern.offsets, kern.weights):
        disp = np.asarray(k, dtype=float) * grid.h
        mids = grid.wrap(pts + 0.5 * disp[None, :])
        rows = np.repeat((disp / kern.dt)[None, :], grid.size, axis=0)
        cost = kern.dt * (model.L(env.evaluate(mids), rows) + 0.0)
        assert row.tobytes() == rolled(grid, cost, k).tobytes()


def _critical_value_level_by_level(model, env, lattice, tol_bisect=5e-3,
                                   max_expand=60):
    """Bisection with a fresh cost graph per level, each one sampling the
    field anew; the starting levels come from one H(x, 0) batch over the
    nodes and every offset's edge midpoints.  Returns (value, lo, hi,
    iterations, certificate reason) and the number of hi expansions."""
    pts = lattice.points()
    hzero = float(np.max(model.eval_H(pts, np.zeros_like(pts), env)))
    try:
        kap = kappa_at_values(model, hzero, env.evaluate(pts))
    except SubcriticalLevelError:
        kap = 1.0
    offsets = lattice.offsets_within(default_edge_radius(lattice, kap))

    def verdict(a):
        try:
            relax(build_cost_graph(model, a, env, lattice, offsets=offsets),
                  np.zeros(lattice.size))
        except SubcriticalLevelError as err:
            return False, ("empty_sublevel" if err.empty_at is not None
                           else "negative_cycle")
        return True, None

    samples = [pts] + [lattice.wrap(pts - 0.5 * (np.asarray(k, dtype=float) * lattice.h)[None, :])
                       for k in offsets]
    allpts = np.concatenate(samples, axis=0)
    h_zero = model.eval_H(allpts, np.zeros_like(allpts), env)
    hi, lo = float(np.max(h_zero)), float(np.min(h_zero)) - 1.0
    iters, step = 0, 1.0
    expansions = 0
    while not verdict(hi)[0]:
        expansions += 1
        hi += step
        step *= 2.0
        iters += 1
        assert iters <= max_expand
    step = 1.0
    while True:
        feas, reason = verdict(lo)
        if not feas:
            break
        lo -= step
        step *= 2.0
        iters += 1
        assert iters <= max_expand
    while hi - lo > tol_bisect:
        mid = 0.5 * (lo + hi)
        feas, why = verdict(mid)
        if feas:
            hi = mid
        else:
            lo, reason = mid, why
        iters += 1
    return (0.5 * (lo + hi), lo, hi, iters, reason), expansions


def _cosine_env(dim, amplitude=1.0):
    return wk.sample_realization(
        wk.EnvSpec(kind="periodic", dimension=dim, params={"amplitudes": (amplitude,)}), 0)


@pytest.mark.parametrize("case", ["box_r3", "box_r0", "tilted1d_n128", "cosine2d_n16"])
def test_sampling_once_matches_resampling_every_level(case):
    if case.startswith("box"):
        # realization 3 refuses the starting hi by an ulp and expands it
        model = mechanical_model(dim=2, field_bound=0.5)
        env = _stationary_realization(int(case[-1]))
        lattice = BoxSpec(dim=2, radius=2.0, points_per_unit=8)
    elif case == "tilted1d_n128":
        # a weak well: the tilt leaves the flat part, so levels below the
        # critical one are refused by negative cycles
        model = tilted_mechanical_model(p0=(0.5,), dim=1)
        env, lattice = _cosine_env(1, amplitude=0.05), GridSpec(dim=1, n=128)
    else:
        model = mechanical_model(dim=2)
        env, lattice = _cosine_env(2), GridSpec(dim=2, n=16)
    res = critical_value_free(model, env, lattice)
    old, expansions = _critical_value_level_by_level(model, env, lattice)
    assert expansions == (1 if case == "box_r3" else 0)
    if case == "tilted1d_n128":
        assert old[-1] == "negative_cycle"
    assert (res.value, res.lo, res.hi, res.iterations,
            res.certificate["reason"]) == old
