import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditmix import simworld
from banditmix.mixture import Batch
from banditmix.simworld import (
    ENTROPY_LOSS_RATIO,
    LrSchedule,
    SimWorld,
    WorldParams,
    build_world,
)

from learner_contract import (
    LoopLearner,
    LoopWorld,
    check_call_is_pure,
    check_probe_matches_default,
    check_train_steps_matches_default,
    loop_world,
    random_batch,
)


def make_world(
    num_arms=3,
    base_loss=3.0,
    floor=0.5,
    learnability=1.0,
    transfer=0.0,
    noise_scale=0.0,
    init_spread=0.0,
    seed=0,
):
    params = WorldParams(
        base_loss=base_loss,
        floor=floor,
        learnability=learnability,
        transfer=transfer,
        noise_scale=noise_scale,
        init_spread=init_spread,
    )
    init_rng = np.random.default_rng(seed)
    sim_rng = np.random.default_rng(seed + 1)
    return build_world(params, num_arms, init_rng, sim_rng)


def single_arm_batch(arm, size, num_examples=1000, seed=0):
    rng = np.random.default_rng(seed)
    return Batch(
        arms=np.full(size, arm, dtype=np.int64),
        examples=rng.integers(0, num_examples, size=size).astype(np.int64),
    )


def probe_examples(num_arms, size, num_examples=1000, seed=0):
    """A reward round's ``(K, B)`` probe examples, row ``j`` for arm ``j``."""
    return np.random.default_rng(seed).integers(0, num_examples, size=(num_arms, size))


def rate_at(sched, total_steps, step):
    """The learning rate of step ``step`` (0-based) of a ``total_steps``-step
    run, one step at a time: the oracle for ``LrSchedule.rates``."""
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    w = min(int(round(sched.warmup_fraction * total_steps)), total_steps - 1)
    if step < w:
        return sched.base_rate * (step + 1) / w
    return sched.base_rate * (total_steps - step) / (total_steps - w)


class TestLrSchedule:
    def test_warmup_ramps_linearly(self):
        sched = LrSchedule(base_rate=1.0, warmup_fraction=0.1)
        # Ten warm-up steps, then the peak and the decay.
        assert sched.rates(0, 12, 100).tolist() == pytest.approx([*(np.arange(1, 11) / 10), 1.0, 89 / 90])
        assert rate_at(sched, 100, 0) == pytest.approx(0.1)
        assert rate_at(sched, 100, 4) == pytest.approx(0.5)
        assert rate_at(sched, 100, 9) == pytest.approx(1.0)

    def test_peak_then_linear_decay_to_zero(self):
        sched = LrSchedule(base_rate=2.0, warmup_fraction=0.1)
        assert rate_at(sched, 100, 10) == pytest.approx(2.0)
        assert rate_at(sched, 100, 55) == pytest.approx(2.0 * 45 / 90)
        assert rate_at(sched, 100, 99) == pytest.approx(2.0 / 90)

    def test_no_warmup(self):
        sched = LrSchedule(base_rate=1.0, warmup_fraction=0.0)
        assert sched.rates(0, 2, 10).tolist() == [1.0, 0.9]
        assert rate_at(sched, 10, 0) == pytest.approx(1.0)

    def test_warmup_capped_below_total(self):
        # rounding must never consume the whole run: one warm-up step, then
        # the last step at the peak
        sched = LrSchedule(base_rate=1.0, warmup_fraction=0.9)
        assert sched.rates(0, 2, 2).tolist() == [1.0, 1.0]

    def test_step_out_of_range(self):
        sched = LrSchedule(base_rate=1.0)
        for lo in (10, -1):
            with pytest.raises(ValueError, match=rf"step {lo} outside \[0, 10\)"):
                rate_at(sched, 10, lo)
            with pytest.raises(ValueError, match=rf"step {lo} outside \[0, 10\)"):
                sched.rates(lo, lo + 1, 10)

    def test_zero_step_schedule_has_no_steps(self):
        sched = LrSchedule(base_rate=1.0)
        with pytest.raises(ValueError, match=r"step 0 outside \[0, 0\)"):
            rate_at(sched, 0, 0)
        assert sched.rates(0, 0, 0).size == 0

    def test_negative_total_steps_rejected(self):
        with pytest.raises(ValueError, match=r"^total_steps must be >= 0, got -1$"):
            LrSchedule().rates(0, 0, -1)

    @pytest.mark.parametrize(
        "kw",
        [
            {"base_rate": -0.1},
            {"base_rate": float("nan")},
            {"warmup_fraction": 1.0},
            {"warmup_fraction": -0.1},
        ],
    )
    def test_bad_params(self, kw):
        base = dict(base_rate=1.0, warmup_fraction=0.1)
        base.update(kw)
        with pytest.raises(ValueError):
            LrSchedule(**base)


def rate_loop(sched, total_steps, lo, hi):
    """``[rate_at(sched, total_steps, s) for s in range(lo, hi)]``, or the error it raises."""
    try:
        return [rate_at(sched, total_steps, s) for s in range(lo, hi)]
    except ValueError as e:
        return str(e)


def rates_call(sched, total_steps, lo, hi):
    try:
        rates = sched.rates(lo, hi, total_steps)
    except ValueError as e:
        return str(e)
    assert rates.dtype == np.float64
    return rates.tolist()


@settings(deadline=None, max_examples=300)
@given(
    base_rate=st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(1e-6, 1e-2)),
    total_steps=st.one_of(st.just(0), st.just(1), st.integers(1, 400)),
    warmup_fraction=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
    lo=st.integers(-3, 410),
    length=st.integers(-2, 60),
)
@example(base_rate=0.1, total_steps=1, warmup_fraction=0.0, lo=0, length=1)
@example(base_rate=0.1, total_steps=1, warmup_fraction=0.9, lo=0, length=2)
@example(base_rate=0.37, total_steps=100, warmup_fraction=0.1, lo=5, length=10)
@example(base_rate=0.37, total_steps=100, warmup_fraction=0.1, lo=-1, length=3)
def test_rates_match_rate_loop(base_rate, total_steps, warmup_fraction, lo, length):
    """``rates`` equals the loop of ``rate_at`` calls bit for bit, errors included,
    with and without warm-up steps."""
    sched = LrSchedule(base_rate=base_rate, warmup_fraction=warmup_fraction)
    assert rates_call(sched, total_steps, lo, lo + length) == rate_loop(sched, total_steps, lo, lo + length)


class TestWorldParams:
    def test_defaults(self):
        params = WorldParams()
        assert params.base_loss == 3.0
        assert params.floor == 0.5
        assert params.transfer is None

    @pytest.mark.parametrize(
        "kw",
        [
            {"transfer": -0.1},
            {"transfer": 1.1},
            {"noise_scale": -0.5},
            {"init_spread": 1.0},
            {"noise_scale": float("nan")},
            {"noise_scale": float("inf")},
        ],
    )
    def test_bad_params(self, kw):
        with pytest.raises(ValueError):
            WorldParams(**kw)


class TestBuildWorld:
    def test_initial_losses(self):
        world = make_world(base_loss=(3.0, 2.0, 1.0), floor=0.5)
        np.testing.assert_allclose(world.loss_vector, [3.0, 2.0, 1.0])

    def test_base_below_floor_rejected(self):
        with pytest.raises(ValueError):
            make_world(base_loss=0.4, floor=0.5)

    def test_learnability_bounds(self):
        with pytest.raises(ValueError):
            make_world(learnability=1.5)

    def test_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            make_world(base_loss=(3.0, 2.0))

    @pytest.mark.parametrize("noise_scale", [float("nan"), float("inf"), -0.1])
    def test_world_rejects_bad_noise_scale(self, noise_scale):
        state = make_world().state_dict()
        state["noise_scale"] = noise_scale
        with pytest.raises(ValueError, match="noise_scale"):
            SimWorld.from_state_dict(state)

    def test_constant_transfer_capped_by_learnability(self):
        with pytest.raises(ValueError):
            make_world(learnability=0.2, transfer=0.5)

    def test_diagonal_is_learnability(self):
        world = make_world(learnability=(0.9, 0.6, 0.3), transfer=0.2)
        np.testing.assert_allclose(np.diag(world.state_dict()["transfer"]), [0.9, 0.6, 0.3])

    def test_drawn_transfer_is_reproducible_and_column_scaled(self):
        a = make_world(transfer=None, learnability=(1.0, 0.5, 0.25), seed=3)
        b = make_world(transfer=None, learnability=(1.0, 0.5, 0.25), seed=3)
        assert a.state_dict()["transfer"] == b.state_dict()["transfer"]
        off = np.array(a.state_dict()["transfer"])
        np.fill_diagonal(off, 0.0)
        # each column's spillover stays below 0.3 of that arm's learnability
        for k, learn in enumerate((1.0, 0.5, 0.25)):
            assert np.all(off[:, k] < 0.3 * learn)

    def test_init_spread_perturbs_start(self):
        flat = make_world(init_spread=0.0, seed=5)
        spread = make_world(init_spread=0.5, seed=5)
        assert not np.array_equal(flat.loss_vector, spread.loss_vector)
        assert np.all(spread.loss_vector >= 0.5)


def world_state(**changes):
    """A 3-arm world's ``state_dict`` with some fields replaced."""
    state = make_world(noise_scale=0.1).state_dict()
    state.update(changes)
    return state


# Each names the field the constructor must name.  A floor shorter than the
# losses used to pass, and a window that drew arm 1 left its loss unclipped.
BAD_STATES = {
    "short_floor": ("floor", world_state(floor=[0.5], transfer=np.eye(3).tolist())),
    "long_floor": ("floor", world_state(floor=[0.5] * 4)),
    "nan_loss": ("loss", world_state(loss=[3.0, float("nan"), 3.0])),
    "inf_loss": ("loss", world_state(loss=[3.0, 3.0, float("inf")])),
    "nan_floor": ("floor", world_state(floor=[0.5, float("nan"), 0.5])),
    "two_d_loss": ("loss", world_state(loss=[[3.0, 3.0, 3.0]])),
    "no_arms": ("loss", world_state(loss=[], floor=[], transfer=np.zeros((0, 0)).tolist())),
    "nan_transfer": ("transfer", world_state(transfer=[[1.0, float("nan"), 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
    # The jitter hash takes the key as a uint64: these used to construct and
    # fail at the first noisy probe, or, as a float, be cut to an integer.
    "negative_key": ("key", world_state(key=-1)),
    "huge_key": ("key", world_state(key=2**64)),
    "float_key": ("key", world_state(key=1.7)),
    "bool_key": ("key", world_state(key=True)),
    "string_key": ("key", world_state(key="1")),
}


class TestConstructor:
    @pytest.mark.parametrize("bad", sorted(BAD_STATES))
    def test_bad_state_rejected(self, bad):
        field, state = BAD_STATES[bad]
        rng = np.random.default_rng(0)
        args = {name: state[name] for name in ("loss", "floor", "transfer", "noise_scale", "key")}
        with pytest.raises(ValueError, match=field):
            SimWorld(rng=rng, **args)

    @pytest.mark.parametrize("bad", sorted(BAD_STATES))
    def test_bad_state_rejected_by_from_state_dict(self, bad):
        field, state = BAD_STATES[bad]
        with pytest.raises(ValueError, match=field):
            SimWorld.from_state_dict(state)

    @pytest.mark.parametrize("key", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(5)])
    def test_integer_key_in_range_accepted(self, key):
        world = SimWorld.from_state_dict(world_state(key=key))
        assert world.state_dict()["key"] == int(key)
        assert type(world.state_dict()["key"]) is int
        examples = np.zeros((3, 2), dtype=np.int64)
        world.probe(examples, 0.1)

    def test_state_is_copied(self):
        loss, floor = np.array([3.0, 2.0]), np.array([0.5, 0.5])
        world = SimWorld(loss, floor, np.eye(2), 0.0, np.random.default_rng(0), key=1)
        loss[0] = floor[0] = 9.0
        assert world.state_dict()["loss"] == [3.0, 2.0]
        assert world.state_dict()["floor"] == [0.5, 0.5]


class TestDynamics:
    def test_single_element_decay_is_exact(self):
        # one element from one arm: gap shrinks by exactly lr/B of itself
        world = make_world(num_arms=2, base_loss=3.0, floor=0.5, transfer=0.0)
        batch = single_arm_batch(0, 1)
        world.train_steps(batch, [0.25])
        expected = 0.5 + (3.0 - 0.5) * (1.0 - 0.25 / 1)
        assert world.loss_vector[0] == pytest.approx(expected, abs=1e-15)
        assert world.loss_vector[1] == 3.0

    def test_full_batch_decay_product_form(self):
        world = make_world(num_arms=2, transfer=0.0)
        batch = single_arm_batch(0, 8)
        world.train_steps(batch, [0.5])
        expected_gap = (3.0 - 0.5) * (1.0 - 0.5 / 8) ** 8
        assert world.loss_vector[0] == pytest.approx(0.5 + expected_gap, rel=1e-12)

    def test_training_one_arm_leaves_others_alone_without_transfer(self):
        world = make_world(transfer=0.0)
        world.train_steps(single_arm_batch(1, 16), [0.3])
        assert world.loss_vector[0] == 3.0
        assert world.loss_vector[2] == 3.0
        assert world.loss_vector[1] < 3.0

    def test_transfer_pulls_other_arms_down(self):
        world = make_world(learnability=1.0, transfer=0.4)
        world.train_steps(single_arm_batch(1, 16), [0.3])
        assert world.loss_vector[0] < 3.0
        assert world.loss_vector[2] < 3.0
        # the trained arm improves most
        assert world.loss_vector[1] < world.loss_vector[0]

    def test_loss_never_crosses_floor(self):
        world = make_world(num_arms=1, base_loss=1.0, floor=0.9)
        for _ in range(200):
            world.train_steps(single_arm_batch(0, 4), [1.0])
        assert world.loss_vector[0] >= 0.9

    def test_repeated_training_converges_to_floor(self):
        world = make_world(num_arms=1, base_loss=3.0, floor=0.5)
        for _ in range(400):
            world.train_steps(single_arm_batch(0, 8), [0.5])
        assert world.loss_vector[0] == pytest.approx(0.5, abs=1e-6)

    def test_mixed_batch_order_independent(self):
        # the update depends on per-arm counts, not element order
        a = make_world(transfer=0.2)
        b = make_world(transfer=0.2)
        arms = np.array([0, 1, 2, 1, 0, 1], dtype=np.int64)
        examples = np.arange(6, dtype=np.int64)
        perm = np.array([3, 0, 5, 2, 4, 1])
        a.train_steps(Batch(arms=arms, examples=examples), [0.3])
        b.train_steps(Batch(arms=arms[perm], examples=examples[perm]), [0.3])
        np.testing.assert_array_equal(a.loss_vector, b.loss_vector)

    def test_zero_rate_step_is_identity(self):
        world = make_world(noise_scale=0.5)
        state_before = world.state_dict()
        world.train_steps(single_arm_batch(0, 8), [0.0])
        state_after = world.state_dict()
        assert state_before == state_after

    def test_process_noise_consumes_generator(self):
        quiet = make_world(noise_scale=0.0, seed=7)
        noisy = make_world(noise_scale=0.5, seed=7)
        batch = single_arm_batch(0, 8)
        quiet.train_steps(batch, [0.3])
        noisy.train_steps(batch, [0.3])
        assert not np.array_equal(quiet.loss_vector, noisy.loss_vector)

    def test_negative_learning_rate_rejected(self):
        world = make_world()
        with pytest.raises(ValueError):
            world.train_steps(single_arm_batch(0, 4), [-0.1])

    def test_foreign_arm_rejected(self):
        world = make_world(num_arms=2)
        with pytest.raises(ValueError):
            world.train_steps(single_arm_batch(5, 4), [0.1])


class TestObservation:
    """What a probe measures before its step: the state, jittered per example."""

    def test_noiseless_loss_is_the_state_vector(self):
        world = make_world(base_loss=(3.0, 2.0, 1.0), noise_scale=0.0)
        pres, _ = world.probe(np.array([[10], [20], [30]]), 0.1)
        np.testing.assert_array_equal(pres, [[3.0], [2.0], [1.0]])

    def test_jitter_repeats_per_example(self):
        world = make_world(noise_scale=0.2)
        examples = probe_examples(3, 16, seed=3)
        np.testing.assert_array_equal(world.probe(examples, 0.1)[0], world.probe(examples, 0.2)[0])

    def test_jitter_varies_across_examples(self):
        world = make_world(noise_scale=0.2)
        pres, _ = world.probe(np.tile(np.arange(64), (3, 1)), 0.1)
        assert len(np.unique(pres[0])) > 32

    def test_jitter_bounded_by_amplitude(self):
        world = make_world(base_loss=3.0, noise_scale=0.25)
        pres, _ = world.probe(np.tile(np.arange(512), (3, 1)), 0.1)
        assert np.all(np.abs(pres - 3.0) <= 0.125)

    def test_observed_loss_clipped_at_zero(self):
        world = make_world(num_arms=1, base_loss=0.01, floor=0.0, noise_scale=1.0)
        pres, posts = world.probe(np.arange(256)[np.newaxis, :], 0.5)
        assert np.all(pres >= 0.0) and np.all(posts >= 0.0)

    def test_observation_does_not_consume_generator(self):
        world = make_world(noise_scale=0.5)
        state_before = world.state_dict()["rng_state"]
        world.probe(probe_examples(3, 32), 0.3)
        assert world.state_dict()["rng_state"] == state_before

    def test_entropy_is_fixed_fraction_of_loss(self):
        world = make_world(noise_scale=0.3)
        examples = probe_examples(3, 16, seed=9)
        losses = world.probe(examples, 0.2)
        entropies = world.probe(examples, 0.2, entropy=True)
        for loss, entropy in zip(losses, entropies):
            np.testing.assert_array_equal(entropy, ENTROPY_LOSS_RATIO * loss)

    def test_empty_batch_rejected(self):
        world = make_world()
        with pytest.raises(ValueError):
            world.probe(np.zeros((3, 0), dtype=np.int64), 0.1)


class TestLearnerContract:
    """``SimWorld`` against the reference loops of ``LoopLearner``."""

    def test_loop_world_runs_simworld_code(self):
        assert LoopWorld.probe is SimWorld.probe
        assert LoopWorld.train_steps is SimWorld.train_steps
        assert type(loop_world(make_world())) is LoopWorld

    @staticmethod
    def check_contract(world, rng):
        examples = probe_examples(4, 8)
        batch = random_batch(4, 3 * 8, rng)
        for entropy in (False, True):
            check_probe_matches_default(world, examples, 0.2, entropy=entropy)
        check_train_steps_matches_default(world, batch, [0.1, 0.0, 0.3])
        for _ in range(100):
            rate = rng.uniform(0.01, 0.5)
            check_call_is_pure(world, lambda w: w.probe(examples, rate), batch, [rate] * 3)

    def test_full_contract_noiseless(self):
        world = loop_world(make_world(num_arms=4, base_loss=(4.0, 3.0, 2.0, 1.0)))
        self.check_contract(world, np.random.default_rng(11))

    def test_full_contract_noisy(self):
        # probe rewinds the generator, so even noisy worlds stay bit for bit
        world = loop_world(make_world(num_arms=4, noise_scale=0.5))
        self.check_contract(world, np.random.default_rng(13))

    def test_snapshot_restores_generator_stream(self):
        # The reference's snapshot holds the generator state, so a rolled
        # back step draws the same noise again.
        world = loop_world(make_world(noise_scale=0.5))
        token = world.snapshot()
        batch = single_arm_batch(0, 8)
        world.train_step(batch, 0.3)
        first = world.loss_vector
        world.restore(token)
        world.train_step(batch, 0.3)
        np.testing.assert_array_equal(world.loss_vector, first)


class TestStateDict:
    def test_round_trip(self):
        world = make_world(noise_scale=0.5, transfer=None, seed=21)
        world.train_steps(single_arm_batch(1, 8), [0.3])
        clone = SimWorld.from_state_dict(world.state_dict())
        examples = probe_examples(3, 16, seed=2)
        np.testing.assert_array_equal(world.probe(examples, 0.2), clone.probe(examples, 0.2))
        batch = random_batch(3, 16, np.random.default_rng(2))
        # future noise draws agree too
        world.train_steps(batch, [0.2])
        clone.train_steps(batch, [0.2])
        np.testing.assert_array_equal(world.loss_vector, clone.loss_vector)

    def test_state_dict_is_json_friendly(self):
        import json

        world = make_world(noise_scale=0.5)
        text = json.dumps(world.state_dict())
        clone = SimWorld.from_state_dict(json.loads(text))
        assert clone.state_dict() == world.state_dict()


EMPTY = Batch(arms=np.array([], dtype=np.int64), examples=np.array([], dtype=np.int64))
BAD_BATCHES = {
    "empty": EMPTY,
    "negative_arm": single_arm_batch(-1, 4),
    "arm_past_last": single_arm_batch(3, 4),
    # Must be rejected before any per-arm count array is sized by it.
    "arm_far_past_last": single_arm_batch(2**40, 4),
    "mixed_with_foreign": Batch(arms=np.array([0, 3]), examples=np.array([1, 2])),
}


BAD_PROBE_EXAMPLES = {
    "empty": np.zeros((3, 0), dtype=np.int64),
    "too_few_rows": probe_examples(2, 4),
    # The fourth row would be an arm past the last.
    "arm_past_last": probe_examples(4, 4),
    # Must be refused before anything is sized or read by the row count:
    # a zero-stride view, 2**40 rows over one row of memory.
    "arm_far_past_last": np.broadcast_to(probe_examples(1, 4), (2**40, 4)),
    "one_d": probe_examples(1, 12)[0],
    "three_d": probe_examples(3, 4).reshape(3, 2, 2),
    "float_dtype": probe_examples(3, 4).astype(np.float64),
}


class TestBatchChecks:
    @pytest.mark.parametrize("bad", sorted(BAD_BATCHES))
    @pytest.mark.parametrize("call", ["loss", "entropy", "train_step"])
    def test_bad_batch_rejected(self, call, bad):
        # loss and entropy are the reference loops' measurements: they must
        # refuse what train_steps refuses, or the loops would index past it.
        world = loop_world(make_world(num_arms=3, noise_scale=0.2))
        state_before = world.state_dict()
        args = (BAD_BATCHES[bad],) if call in ("loss", "entropy") else (BAD_BATCHES[bad], 0.1)
        with pytest.raises(ValueError):
            getattr(world, call)(*args)
        assert world.state_dict() == state_before

    @pytest.mark.parametrize("bad", sorted(BAD_PROBE_EXAMPLES))
    @pytest.mark.parametrize("entropy", [False, True])
    def test_bad_batch_rejected_by_probe(self, bad, entropy):
        # A 3-arm world takes one row per arm: any other shape, or a dtype
        # other than an integer one, is refused before the world is read.
        world = make_world(num_arms=3, noise_scale=0.2)
        state_before = world.state_dict()
        with pytest.raises(ValueError, match="shape"):
            world.probe(BAD_PROBE_EXAMPLES[bad], 0.1, entropy=entropy)
        assert world.state_dict() == state_before

    @pytest.mark.parametrize("lr", [-0.1, float("nan"), float("inf")])
    def test_bad_rate_rejected_by_probe(self, lr):
        world = make_world(num_arms=3, noise_scale=0.2)
        state_before = world.state_dict()
        with pytest.raises(ValueError):
            world.probe(probe_examples(3, 4), lr)
        assert world.state_dict() == state_before


def test_probe_hashes_the_jitter_once(monkeypatch):
    """A round observes the same examples before and after its step, so the
    closed form hashes their jitter once."""
    calls = []
    original = simworld._jitter_uniform

    def counted(*args):
        calls.append(1)
        return original(*args)

    world = make_world(noise_scale=0.3)
    examples = probe_examples(3, 16)
    expected = LoopLearner.probe(loop_world(make_world(noise_scale=0.3)), examples, 0.2)
    monkeypatch.setattr(simworld, "_jitter_uniform", counted)
    pres, posts = world.probe(examples, 0.2)
    assert len(calls) == 1
    assert np.array_equal(pres, expected[0]) and np.array_equal(posts, expected[1])


@settings(deadline=None, max_examples=200)
@given(
    k=st.integers(1, 8),
    width=st.one_of(st.sampled_from([1, 2]), st.integers(1, 64)),
    lr=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    noise=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    transfer=st.one_of(st.none(), st.floats(0.0, 0.05)),
    entropy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=1, width=1, lr=0.0, noise=0.3, transfer=None, entropy=False, seed=0)
@example(k=3, width=1, lr=1.5, noise=0.0, transfer=0.05, entropy=False, seed=1)
@example(k=4, width=2, lr=2.5, noise=0.4, transfer=None, entropy=True, seed=2)
# One arm, two examples: the factor is squared, where numpy's scalar power
# loop can differ from its vector loop in the last bit.
@example(k=1, width=2, lr=0.12699137774989258, noise=0.0, transfer=None, entropy=False, seed=17038255)
def test_probe_matches_generic_loop(k, width, lr, noise, transfer, entropy, seed):
    """SimWorld's one-pass probe equals LoopLearner.probe's per-batch loop
    bit for bit and changes neither the losses nor the generator."""
    rng = np.random.default_rng(seed)
    learnability = tuple(rng.uniform(0.05, 1.0, size=k))
    floor = tuple(rng.uniform(0.0, 1.0, size=k))
    base = tuple(f + g for f, g in zip(floor, rng.uniform(0.0, 4.0, size=k)))
    params = WorldParams(
        base_loss=base,
        floor=floor,
        learnability=learnability,
        transfer=transfer,
        noise_scale=noise,
    )
    world = loop_world(build_world(params, k, np.random.default_rng(seed), np.random.default_rng(seed + 1)))
    # Move off the initial state so gaps differ and the generator has advanced.
    for _ in range(2):
        world.train_steps(random_batch(k, 8, rng), [0.2])
    state_before = world.state_dict()
    # Hypothesis favours round numbers; a drawn rate and width exercise
    # rounding as well.
    for rate, size in ((lr, width), (rng.uniform(0.0, 3.0), int(rng.integers(3, 65)))):
        examples = probe_examples(k, size, seed=seed)
        world.probe(examples, rate, entropy=entropy)
        assert world.state_dict() == state_before
        check_probe_matches_default(world, examples, rate, entropy=entropy)


def test_probe_clipped_factor_drives_gap_to_zero():
    # lr * T_jj / B > 1 clips the factor to 0: the probed arm lands on its floor.
    world = make_world(num_arms=2, floor=0.5)
    pres, posts = world.probe(probe_examples(2, 1), 1.5)
    np.testing.assert_array_equal(posts, [[0.5], [0.5]])
    np.testing.assert_array_equal(pres, [[3.0], [3.0]])
