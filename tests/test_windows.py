"""Window paths against the one-step loop, bit for bit.

A run steps one update interval at a time.  ``sample_batch(..., steps=m)``
must equal ``m`` steps of numpy's own draws (``_draw_step``) joined end to
end, the probe examples ``lookahead_round`` hands a learner one
``rng.integers(0, c, size=B)`` per arm in turn, ``SimWorld.train_steps``
both a loop of ``reference_step`` (the training law in plain 2-d arithmetic)
and the reference ``LoopLearner.train_steps`` loop, and ``run_experiment``
a loop that does one step at a time; generator state is compared in every
case.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditmix import mixture, runner
from banditmix.config import ExperimentConfig, load_config
from banditmix.mixture import (
    BanditConfig,
    Batch,
    MixtureDistribution,
    _draw_step,
    _key_arms,
    _pcg64_window,
    sample_batch,
)
from banditmix.registry import ArmRegistry
from banditmix.rewards import lookahead_round
from banditmix.simworld import WorldParams, build_world

from learner_contract import LinearLearner, LoopLearner, check_train_steps_matches_default, loop_world, random_batch
from test_simworld import rate_at
from trace_oracles import TraceRecord, recorded_run, run_records


def registry(*counts):
    return ArmRegistry.from_counts([(f"a{i}", int(c)) for i, c in enumerate(counts)])


def hold_half(rng):
    """Leave a buffered 32-bit half, as one draw in [0, 5) does."""
    rng.integers(0, 5)
    assert rng.bit_generator.state["has_uint32"] == 1


def make_rng(seed, held):
    rng = np.random.default_rng(seed)
    if held:
        hold_half(rng)
    return rng


def state(rng):
    # MT19937 keeps its key in an array; compare states as text.
    return repr(rng.bit_generator.state)


def assert_window_matches_loop(dist, reg, batch_size, steps, loop_rng, window_rng):
    assert state(window_rng) == state(loop_rng)
    arms, examples = zip(*(_draw_step(dist, reg.counts, batch_size, loop_rng) for _ in range(steps)))
    window = sample_batch(dist, reg, batch_size, window_rng, steps=steps)
    assert np.array_equal(window.arms, np.concatenate(arms))
    assert np.array_equal(window.examples, np.concatenate(examples))
    assert state(window_rng) == state(loop_rng)


DIST3 = MixtureDistribution(p=np.array([0.5, 0.3, 0.2]))


class TestWindowDraw:
    @pytest.mark.parametrize("batch_size", [1, 2, 7, 8, 33, 128])
    @pytest.mark.parametrize("held", [False, True])
    def test_fast_path_matches_loop(self, batch_size, held):
        reg = registry(1000, 3000, 6000)
        # The fast path itself draws this window; nothing is rejected.
        rng = make_rng(7, held)
        assert _pcg64_window(DIST3, reg.counts, batch_size, 5, rng) is not None
        assert_window_matches_loop(DIST3, reg, batch_size, 5, make_rng(7, held), make_rng(7, held))

    @pytest.mark.parametrize("held", [False, True])
    def test_counts_up_to_two_to_the_32_take_the_fast_path(self, held):
        # 2**32 is the one-call bound with no rejection; 2**32 - 1 and 7
        # reject a draw with odds of 1 and 4 in 2**32.
        reg = registry(2**32, 2**32 - 1, 7)
        rng = make_rng(3, held)
        assert _pcg64_window(DIST3, reg.counts, 9, 4, rng) is not None
        assert_window_matches_loop(DIST3, reg, 9, 4, make_rng(3, held), make_rng(3, held))

    @pytest.mark.parametrize(
        "counts",
        [
            (1, 500, 9),  # a one-value range draws nothing
            (2**32 + 1, 10, 10),  # above 32 bits numpy draws 64-bit values
            (2**40, 3, 3),
        ],
    )
    @pytest.mark.parametrize("held", [False, True])
    def test_other_counts_fall_back_to_the_loop(self, counts, held):
        reg = registry(*counts)
        rng = make_rng(11, held)
        before = rng.bit_generator.state
        assert _pcg64_window(DIST3, reg.counts, 16, 6, rng) is None
        assert rng.bit_generator.state == before
        assert_window_matches_loop(DIST3, reg, 16, 6, make_rng(11, held), make_rng(11, held))

    @pytest.mark.parametrize("held", [False, True])
    def test_frequent_rejections_keep_the_window(self, held):
        # Lemire rejects about one draw in four at 3 * 2**30.
        reg = registry(3 * 2**30, 5, 5)
        assert _pcg64_window(DIST3, reg.counts, 16, 6, make_rng(11, held)) is not None
        assert_window_matches_loop(DIST3, reg, 16, 6, make_rng(11, held), make_rng(11, held))

    # 2**32 - 2**26 rejects one draw in 64, so an 8-step window of 16 rejects
    # about once; each seed puts its rejections in the steps named.
    @pytest.mark.parametrize(
        "held, seed, steps",
        [
            (False, 25, [0]),
            (True, 1, [0]),
            (False, 19, [3]),
            (True, 19, [3]),
            (False, 3, [7]),
            (True, 3, [7]),
            (False, 86, [1, 3]),
            (True, 112, [1, 3]),
            (False, 22, [4, 5]),  # the step after a redrawn one rejects too
            (True, 22, [4, 5]),
        ],
    )
    def test_a_rejection_redraws_only_its_step(self, held, seed, steps, monkeypatch):
        reg = registry(2**32 - 2**26, 1000, 3000)
        loop_rng = make_rng(seed, held)
        starts = []
        for _ in range(8):
            starts.append(state(loop_rng))
            _draw_step(DIST3, reg.counts, 16, loop_rng)
        redrawn = []

        def spy(dist, counts, batch_size, rng):
            redrawn.append(starts.index(state(rng)))
            return _draw_step(dist, counts, batch_size, rng)

        monkeypatch.setattr(mixture, "_draw_step", spy)
        assert_window_matches_loop(DIST3, reg, 16, 8, make_rng(seed, held), make_rng(seed, held))
        assert redrawn == steps

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_other_bit_generators_take_the_loop(self, bit_generator):
        reg = registry(1000, 3000, 6000)
        make = lambda: np.random.Generator(bit_generator(5))
        assert_window_matches_loop(DIST3, reg, 12, 4, make(), make())

    def test_steps_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="steps"):
            sample_batch(DIST3, registry(10, 10, 10), 4, rng, steps=0)


@settings(deadline=None, max_examples=200)
@given(
    k=st.integers(1, 6),
    batch_size=st.integers(1, 70),
    steps=st.integers(1, 12),
    held=st.booleans(),
    top=st.sampled_from([2, 1000, 2**31, 2**32, 2**33]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=1, batch_size=1, steps=2, held=True, top=2, seed=0)
@example(k=3, batch_size=1, steps=1, held=True, top=1000, seed=0)
def test_window_draw_matches_loop(k, batch_size, steps, held, top, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, top + 1, size=k)
    dist = MixtureDistribution(p=rng.dirichlet(np.ones(k)))
    reg = registry(*counts)
    assert_window_matches_loop(
        dist, reg, batch_size, steps, make_rng(seed + 1, held), make_rng(seed + 1, held)
    )


@st.composite
def edge_distributions(draw):
    """Distributions whose thresholds sit on, next to or outside bucket edges."""
    k = draw(st.integers(2, 16))
    n = draw(st.integers(1, 14))
    # Dyadic probabilities j / 2**n put every threshold on a multiple of
    # 2**(53 - n), a bucket edge for n up to the table's bits; a repeated
    # cut gives an arm probability zero.
    cuts = sorted(draw(st.lists(st.integers(0, 2**n), min_size=k - 1, max_size=k - 1)))
    p = np.diff([0, *cuts, 2**n]) / 2.0**n
    arm = draw(st.integers(0, k - 1))
    change = draw(st.sampled_from(["none", "up", "down", "negative"]))
    if change in ("up", "down"):
        # One ulp off: its threshold and the ones after it leave the edge.
        p[arm] = np.nextafter(p[arm], np.inf if change == "up" else -np.inf)
    elif change == "negative":
        # The smallest entry MixtureDistribution accepts; the cumulative dips.
        p[(arm + 1) % k] += p[arm] + 1e-12
        p[arm] = -1e-12
    return MixtureDistribution(p=p)


# Cumulatives that end one ulp below and one above 1.0.
ENDS_BELOW_ONE = MixtureDistribution(p=np.full(10, 0.1))
ENDS_ABOVE_ONE = MixtureDistribution(p=np.array([0.2, 0.4, 0.3, 0.1]))
TABLE_DISTRIBUTIONS = st.one_of(
    edge_distributions(),
    st.sampled_from([ENDS_BELOW_ONE, ENDS_ABOVE_ONE]),
    st.integers(1, 16).flatmap(
        lambda k: st.integers(0, 2**32 - 1).map(
            lambda seed: MixtureDistribution(p=np.random.default_rng(seed).dirichlet(np.ones(k)))
        )
    ),
)


def test_cumulatives_end_off_one_as_stated():
    assert ENDS_BELOW_ONE.cumulative[-1] < 1.0 < ENDS_ABOVE_ONE.cumulative[-1]


@settings(deadline=None, max_examples=200)
@given(dist=TABLE_DISTRIBUTIONS, seed=st.integers(0, 2**32 - 1))
def test_key_arms_match_float_search(dist, seed):
    # Keys on, next to and between the thresholds and the bucket edges, as
    # many as take the table.
    thresholds = dist.thresholds.astype(np.int64)
    edges = mixture._BUCKET_FIRST.astype(np.int64)
    special = np.concatenate([thresholds, edges, [2**53 - 1]])
    special = np.concatenate([special - 1, special, special + 1])
    special = special[(special >= 0) & (special < 2**53)]
    fill = np.random.default_rng(seed).integers(0, 2**53, size=mixture._TABLE_MIN_KEYS)
    keys = np.concatenate([special, fill]).astype(np.uint64)
    expected = dist.cumulative.searchsorted(keys.astype(np.float64) * 2.0**-53, side="right")
    np.minimum(expected, dist.num_arms - 1, out=expected)
    assert np.array_equal(_key_arms(dist, keys), expected)


@settings(deadline=None, max_examples=100)
@given(
    dist=TABLE_DISTRIBUTIONS,
    batch_size=st.integers(64, 160),
    extra_steps=st.integers(0, 8),
    held=st.booleans(),
    top=st.sampled_from([2, 1000, 2**31, 2**32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_window_matches_loop(dist, batch_size, extra_steps, held, top, seed):
    steps = -(-mixture._TABLE_MIN_KEYS // batch_size) + extra_steps
    counts = np.random.default_rng(seed).integers(1, top + 1, size=dist.num_arms)
    assert_window_matches_loop(
        dist, registry(*counts), batch_size, steps, make_rng(seed + 1, held), make_rng(seed + 1, held)
    )


def step_rejects(dist, counts, batch_size, rng):
    """Take one ``_draw_step``; whether numpy redrew any of its example draws.

    Without a redraw the step ends where its doubles and its share of raws
    for 32-bit draws leave the generator.
    """
    start = rng.bit_generator.state
    _draw_step(dist, counts, batch_size, rng)
    held = start["has_uint32"]
    words = (batch_size - held + 1) // 2
    clean = np.random.PCG64()
    clean.state = start
    clean.advance(batch_size + words)
    end = rng.bit_generator.state
    return (end["state"], end["has_uint32"]) != (clean.state["state"], held + 2 * words - batch_size)


def test_default_tulu_run_redraws_only_rejected_steps(monkeypatch):
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "tulu_default.json")
    redrawn = []

    def counted(*args):
        redrawn.append(1)
        return _draw_step(*args)

    monkeypatch.setattr(mixture, "_draw_step", counted)
    result = runner.run_experiment(cfg)
    # Replay the run's training draws one numpy step at a time.
    registry, width = result.resolved.registry, result.resolved.bandit.batch_size
    train_rng = runner._rng_streams(cfg.seed)[0]
    rejecting = 0
    for w in result.windows:
        dist = MixtureDistribution(p=np.array(w.probabilities))
        rejecting += sum(step_rejects(dist, registry.counts, width, train_rng) for _ in range(w.first, w.last + 1))
    assert rejecting >= 1
    # One redraw per step with a rejected draw, so at most one per rejection.
    assert len(redrawn) == rejecting


class RecordingLearner(LinearLearner):
    """A ``LinearLearner`` that keeps the probe examples it is handed."""

    def probe(self, examples, learning_rate, entropy=False):
        self.examples = examples
        return super().probe(examples, learning_rate, entropy)


def assert_probe_draw_matches_loop(reg, batch_size, loop_rng, round_rng):
    assert state(round_rng) == state(loop_rng)
    loop = [loop_rng.integers(0, count, size=batch_size) for count in reg.counts]
    k = reg.num_arms
    learner = RecordingLearner(np.ones(k))
    cfg = BanditConfig(num_arms=k, total_steps=0, batch_size=batch_size)
    lookahead_round(learner, reg, np.zeros(k), cfg, 0.1, round_rng)
    examples = learner.examples
    assert examples.shape == (k, batch_size) and examples.dtype == np.int64
    assert np.array_equal(examples, loop)
    assert state(round_rng) == state(loop_rng)


class TestProbeRoundDraw:
    """A reward round's ``(K, B)`` probe examples from numpy's own call."""

    @pytest.mark.parametrize("batch_size", [1, 2, 5, 128])
    @pytest.mark.parametrize("held", [False, True])
    def test_matches_per_arm_loop(self, batch_size, held):
        reg = registry(1000, 3000, 6000, 2)
        assert_probe_draw_matches_loop(reg, batch_size, make_rng(5, held), make_rng(5, held))

    @pytest.mark.parametrize("held", [False, True])
    def test_one_arm_one_example(self, held):
        # With a half held, K * B = 1 draws no raw at all.
        reg = registry(77)
        assert_probe_draw_matches_loop(reg, 1, make_rng(9, held), make_rng(9, held))

    @pytest.mark.parametrize("held", [False, True])
    def test_counts_up_to_two_to_the_32(self, held):
        # 2**32 never rejects; 2**32 - 1 and 7 reject with odds of 1 and 4
        # in 2**32.
        reg = registry(2**32, 2**32 - 1, 7)
        assert_probe_draw_matches_loop(reg, 9, make_rng(4, held), make_rng(4, held))

    @pytest.mark.parametrize("held", [False, True])
    def test_rejected_draw_rewinds_and_takes_the_loop(self, held):
        # 3 * 2**30 rejects about one draw in four, so 64 draws reject one,
        # and the redraw must come where the per-arm loop takes it.
        reg = registry(3 * 2**30, 10)
        assert_probe_draw_matches_loop(reg, 32, make_rng(2, held), make_rng(2, held))

    # A one-value range draws nothing; above 32 bits numpy draws 64-bit values.
    @pytest.mark.parametrize("counts", [(1, 500), (2**32 + 1, 10), (2**40, 3)])
    @pytest.mark.parametrize("held", [False, True])
    def test_other_counts_take_the_loop(self, counts, held):
        assert_probe_draw_matches_loop(registry(*counts), 9, make_rng(4, held), make_rng(4, held))

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
    def test_other_bit_generators_take_the_loop(self, bit_generator):
        make = lambda: np.random.Generator(bit_generator(5))
        assert_probe_draw_matches_loop(registry(1000, 3000), 12, make(), make())


@settings(deadline=None, max_examples=200)
@given(
    k=st.integers(1, 16),
    batch_size=st.integers(1, 40),
    held=st.booleans(),
    top=st.sampled_from([2, 1000, 2**31, 2**32, 2**33]),
    seed=st.integers(0, 2**32 - 1),
)
def test_probe_round_draw_matches_loop(k, batch_size, held, top, seed):
    counts = np.random.default_rng(seed).integers(1, top + 1, size=k)
    assert_probe_draw_matches_loop(
        registry(*counts), batch_size, make_rng(seed + 1, held), make_rng(seed + 1, held)
    )


def make_world(k=3, noise=0.2, transfer=None, seed=0):
    rng = np.random.default_rng(seed)
    floor = tuple(rng.uniform(0.0, 1.0, size=k))
    params = WorldParams(
        base_loss=tuple(f + g for f, g in zip(floor, rng.uniform(0.5, 4.0, size=k))),
        floor=floor,
        learnability=tuple(rng.uniform(0.3, 1.0, size=k)),
        transfer=transfer,
        noise_scale=noise,
    )
    return build_world(params, k, np.random.default_rng(seed + 1), np.random.default_rng(seed + 2))


def reference_step(world, batch, lr):
    """One step of the training law in plain 2-d arithmetic, on ``world``'s state.

    The exponent is tiled to the factor matrix's shape, so numpy takes the
    same power loop as the stacked window at every K; a (1, 1) matrix raised
    to a broadcast one-entry exponent would take its scalar loop, which can
    round the last bit differently.
    """
    if lr == 0.0:
        return
    k = world._loss.size
    n = np.bincount(batch.arms, minlength=k).astype(np.float64)
    factors = np.maximum(1.0 - lr * world._transfer / batch.arms.size, 0.0)
    gap = (world._loss - world._floor) * (factors ** np.tile(n, (k, 1))).prod(axis=1)
    if world._noise_scale > 0:
        gap = gap + world._noise_scale * lr * world._rng.standard_normal(k)
    world._loss = world._floor + np.maximum(gap, 0.0)


def assert_update_matches_loop(k, noise, transfer, batch, rates, seed=0):
    assert_worlds_match_loop(lambda: make_world(k, noise, transfer, seed), batch, rates)


def assert_worlds_match_loop(make, batch, rates):
    """``train_steps`` on a world from ``make`` against both loops."""
    fast, ref, loop = make(), make(), loop_world(make())
    fast.train_steps(batch, rates)
    width = batch.arms.size // len(rates)
    for t, lr in enumerate(rates):
        rows = slice(t * width, (t + 1) * width)
        reference_step(ref, Batch(arms=batch.arms[rows], examples=batch.examples[rows]), lr)
    LoopLearner.train_steps(loop, batch, rates)
    assert fast.state_dict() == ref.state_dict() == loop.state_dict()
    check_train_steps_matches_default(loop_world(make()), batch, rates)
    return fast


class TestWindowUpdate:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize(
        "k, rates",
        [
            (1, [0.1, 0.2, 0.3]),  # one arm: a (1, 1) factor matrix
            (3, [0.0, 0.0, 0.0]),  # base_rate 0
            (3, [0.1, 0.0, 0.2]),  # a zero-rate step draws no normals
            (3, [0.05, 0.1, 0.15, 0.2]),
            (4, [9.0, 0.01, 12.0]),  # factors clip at 0
        ],
    )
    def test_matches_loop(self, k, rates, noise, rng):
        batch = random_batch(k, 8 * len(rates), rng)
        assert_update_matches_loop(k, noise, None, batch, rates)
        assert_update_matches_loop(k, noise, 0.1, batch, rates)

    @pytest.mark.parametrize("width", [3, 5, 7, 33, 100])
    def test_drawn_rates_and_odd_widths_match_loop(self, width):
        # Rounding shows only where the rate and the division by the width
        # are inexact; small round test values hide it.
        rng = np.random.default_rng(width)
        rates = list(rng.uniform(0.001, 0.5, size=24))
        assert_update_matches_loop(4, 0.3, None, random_batch(4, width * 24, rng), rates)

    @pytest.mark.parametrize("seed", [6, 20, 37])
    def test_one_arm_width_two_matches_loop(self, seed):
        # One arm, two examples: every step squares the factor, where numpy's
        # scalar power loop is 1 ulp off its vector loop for these bases.
        rates = list(np.random.default_rng(seed).uniform(0.01, 0.5, size=4))
        batch = Batch(arms=np.zeros(8, dtype=np.int64), examples=np.zeros(8, dtype=np.int64))
        assert_update_matches_loop(1, 0.0, None, batch, rates, seed)

    def test_zero_floor_clips_under_noise(self, rng):
        # Noise as large as the gaps pushes losses below a floor of 0, where
        # the clip puts them at exactly 0.
        params = WorldParams(base_loss=(0.05, 0.2, 0.01), floor=0.0, learnability=0.5, noise_scale=1.0)
        make = lambda: build_world(params, 3, np.random.default_rng(1), np.random.default_rng(2))
        batch = random_batch(3, 8 * 6, rng)
        world = assert_worlds_match_loop(make, batch, [0.3, 0.1, 0.0, 0.5, 0.2, 0.4])
        assert (world.loss_vector == 0.0).any()

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_all_zero_rates_leave_the_world_as_it_was(self, noise, rng):
        world = make_world(k=4, noise=noise)
        before = world.state_dict()
        world.train_steps(random_batch(4, 8 * 5, rng), [0.0] * 5)
        assert world.state_dict() == before

    def test_clipped_factor_lands_on_the_floor(self):
        # 1 - lr * T_00 / B < 0 for a learnability of at least 0.3.
        world = make_world(k=2, noise=0.0, transfer=0.0)
        world.train_steps(Batch(arms=[0, 1, 1, 1], examples=[0, 0, 0, 0]), [10.0, 0.01])
        assert world.loss_vector[0] == world.state_dict()["floor"][0]

    def test_rows_are_consecutive_steps(self):
        learner = LinearLearner([1.0, 2.0, 3.0])
        learner.train_steps(Batch(arms=[0, 0, 1, 2], examples=[0, 0, 0, 0]), [0.5, 0.25])
        np.testing.assert_array_equal(learner.theta, [0.5, 2.0 - 0.125, 3.0 - 0.125])

    @pytest.mark.parametrize("rates", [[0.1, 0.2], [], [0.1, 0.2, 0.3, 0.4, 0.5]])
    def test_batch_must_split_into_equal_rows(self, rates):
        world = make_world()
        before = world.state_dict()
        with pytest.raises(ValueError, match="equal steps"):
            world.train_steps(Batch(arms=[0, 1, 2], examples=[0, 0, 0]), rates)
        assert world.state_dict() == before

    @pytest.mark.parametrize(
        "arms, rates, message",
        [
            ([0, 1, 2, 1, 3, 0], [0.1, 0.1, 0.1], "arms outside"),  # arm 3 of 3, in row 2
            ([0, 1, -1, 1, 2, 0], [0.1, 0.1, 0.1], "arms outside"),
            ([0, 1, 2, 1, 2, 0], [0.1, -0.1, 0.1], "got -0.1"),
            ([0, 1, 2, 1, 2, 0], [0.1, 0.1, float("nan")], "got nan"),
            ([0, 1, 2, 1, 2, 0], [0.1, float("inf"), 0.1], "got inf"),
            ([], [0.1], "nonempty"),
            ([0, 1, 2, 1, 2], [0.1, 0.1, 0.1], "a batch of 5 does not split into 3 equal steps"),
        ],
        ids=["arm=3", "arm=-1", "lr=-0.1", "lr=nan", "lr=inf", "empty", "split"],
    )
    def test_invalid_window_raises_and_leaves_the_world_untouched(self, arms, rates, message):
        # The whole window is checked first: the valid steps before the bad
        # one are not taken either.
        world = make_world()
        before = world.state_dict()
        batch = Batch(arms=np.array(arms, dtype=np.int64), examples=np.zeros(len(arms), dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            world.train_steps(batch, rates)
        assert world.state_dict() == before


@settings(deadline=None, max_examples=200)
@given(
    k=st.integers(1, 8),
    width=st.integers(1, 40),
    rates=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(0.0, 0.05)), min_size=1, max_size=12),
    noise=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    transfer=st.one_of(st.none(), st.floats(0.0, 0.05)),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_update_matches_loop(k, width, rates, noise, transfer, seed):
    batch = random_batch(k, width * len(rates), np.random.default_rng(seed))
    assert_update_matches_loop(k, noise, transfer, batch, rates, seed)


def one_step_run(cfg):
    """The run loop one step at a time: a draw, a train step, and on interval
    steps a reward round, per step."""
    resolved = cfg.resolve()
    registry, bandit = resolved.registry, resolved.bandit
    train_rng, reward_rng, init_rng, sim_rng = runner._rng_streams(cfg.seed)
    world = build_world(cfg.world, registry.num_arms, init_rng, sim_rng)
    policy, q = cfg.policy, np.zeros(registry.num_arms)
    dist = policy.distribution(registry, bandit, q)
    counts = np.zeros(registry.num_arms, dtype=np.int64)
    records = []
    for step in range(1, bandit.total_steps + 1):
        lr = rate_at(cfg.schedule, bandit.total_steps, step - 1)
        probabilities = tuple(dist.p.tolist())
        batch = sample_batch(dist, registry, bandit.batch_size, train_rng)
        counts += np.bincount(batch.arms, minlength=registry.num_arms)
        world.train_steps(batch, [lr])
        rewards = None
        if policy.adaptive and step % bandit.update_interval == 0:
            rewards = lookahead_round(world, registry, q, bandit, lr, reward_rng, policy.reward_kind)
            rewards = tuple(rewards.tolist())
            dist = policy.distribution(registry, bandit, q)
        records.append(TraceRecord(step, probabilities, tuple(q.tolist()), lr, tuple(counts.tolist()), rewards))
    return records, world.state_dict()


@pytest.mark.parametrize(
    "bandit",
    [
        {"total_steps": 45, "update_interval": 10},  # a short last window
        {"total_steps": 7, "update_interval": 7},
        {"total_steps": 9, "update_interval": 1},
        {"total_steps": 31, "update_interval": 4, "batch_size": 5},
    ],
)
@pytest.mark.parametrize("policy", [{"variant": "bandit"}, {"variant": "uniform"}])
def test_run_matches_one_step_loop(bandit, policy):
    cfg = ExperimentConfig.from_dict(
        {
            "bandit": {"batch_size": 16, **bandit},
            "registry": {"arms": {"a": 1000, "b": 3000, "c": 6000}},
            "world": {"noise_scale": 0.1},
            "schedule": {"base_rate": 0.1},
            "policy": policy,
            "seed": 4,
        }
    )
    records, world = one_step_run(cfg)
    run = recorded_run(cfg)
    assert run_records(run) == records
    assert run.result.world.state_dict() == world


def test_default_tulu_run_matches_one_step_loop():
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "tulu_default.json")
    records, world = one_step_run(cfg)
    run = recorded_run(cfg)
    assert run_records(run) == records
    assert run.result.world.state_dict() == world


@pytest.fixture
def window_sizes(monkeypatch):
    """The ``steps`` of every ``sample_batch`` call the runner makes."""
    sizes = []

    def counted(dist, registry, batch_size, rng, steps=1):
        sizes.append(steps)
        return sample_batch(dist, registry, batch_size, rng, steps=steps)

    monkeypatch.setattr(runner, "sample_batch", counted)
    return sizes


def test_long_interval_splits_into_capped_windows(monkeypatch, window_sizes):
    cfg = ExperimentConfig.from_dict(
        {
            "bandit": {"total_steps": 23, "update_interval": 10, "batch_size": 8},
            "registry": {"arms": {"a": 100, "b": 300}},
            "world": {"noise_scale": 0.1},
        }
    )
    records, world = one_step_run(cfg)
    monkeypatch.setattr(runner, "WINDOW_DRAWS", 24)
    run = recorded_run(cfg)
    assert window_sizes == [3, 3, 3, 1, 3, 3, 3, 1, 3]
    assert run_records(run) == records
    assert run.result.world.state_dict() == world


def test_one_draw_per_window(window_sizes):
    cfg = ExperimentConfig.from_dict(
        {
            "bandit": {"total_steps": 45, "update_interval": 10, "batch_size": 8},
            "registry": {"arms": {"a": 100, "b": 300}},
        }
    )
    runner.run_experiment(cfg)
    assert window_sizes == [10, 10, 10, 10, 5]
