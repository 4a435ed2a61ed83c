"""Validation and serialization round-trips for the core data types."""

import numpy as np
import pytest

from auctionkit import (
    AgentState,
    AuctionFormat,
    BidProfile,
    MechanismConfig,
    Outcome,
    ProblemInstance,
    SignalConfig,
    SignalKind,
    clear,
    load_json,
    save_json,
    validate_instance,
)
from conftest import random_bids, random_config, random_instance


def good_instance():
    return ProblemInstance(
        3, 2, [2, 1],
        [[5.0, 1.0], [3.0, 4.0], [2.0, 0.0]],
        [[1.0, 0.4], [1.0]],
    )


class TestInstanceValidation:
    def test_valid(self):
        result = validate_instance(good_instance())
        assert result.ok and result.issues == ()

    def test_slot_count_exceeds_bidders(self):
        inst = ProblemInstance(2, 1, [3], [[1.0], [2.0]], [[1.0, 0.5, 0.2]])
        assert any("more slots than bidders" in s for s in inst.issues)
        with pytest.raises(ValueError):
            inst.require_valid()

    def test_pos_must_be_nonincreasing(self):
        inst = ProblemInstance(2, 1, [2], [[1.0], [2.0]], [[0.4, 1.0]])
        assert any("nonincreasing" in s for s in inst.issues)

    def test_pos_must_be_positive(self):
        inst = ProblemInstance(2, 1, [2], [[1.0], [2.0]], [[1.0, 0.0]])
        assert not inst.issues == ()

    def test_negative_value_rejected(self):
        inst = ProblemInstance(1, 1, [1], [[-1.0]], [[1.0]])
        assert inst.issues

    def test_nonfinite_value_rejected(self):
        inst = ProblemInstance(1, 1, [1], [[np.inf]], [[1.0]])
        assert inst.issues

    def test_wrong_shapes_reported_not_raised(self):
        inst = ProblemInstance(2, 2, [1], [[1.0, 1.0], [2.0, 2.0]], [[1.0]])
        assert inst.issues

    def test_clear_refuses_invalid(self):
        inst = ProblemInstance(2, 1, [2], [[1.0], [2.0]], [[0.4, 1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 2, 1)
        with pytest.raises(ValueError):
            clear(inst, config, BidProfile([[1.0], [2.0]]))


class TestMechanismConfig:
    def test_defaults_are_zero(self):
        config = MechanismConfig(AuctionFormat.GSP, 2, 3)
        assert config.reserves.shape == (2, 3)
        assert not config.reserves.any() and not config.boosts.any()

    def test_negative_reserve_rejected(self):
        config = MechanismConfig(AuctionFormat.GSP, 1, 1, reserves=[[-0.5]])
        assert config.issues

    def test_arrays_read_only(self):
        config = MechanismConfig(AuctionFormat.FPA, 1, 1)
        with pytest.raises(ValueError):
            config.reserves[0, 0] = 1.0

    def test_construction_never_freezes_caller_arrays(self):
        bids = np.zeros((2, 2))
        BidProfile(bids)
        bids[0, 0] = 1.0  # still writable
        values = np.ones((2, 1))
        ProblemInstance(2, 1, [1], values, [[1.0]])
        values[0, 0] = 5.0


class TestAgentState:
    def test_bounds(self):
        assert AgentState([0.0, 1.0], [1.0, 2.0]).issues == ()
        assert AgentState([-0.1], [1.0]).issues
        assert AgentState([0.5], [0.0]).issues


class TestSignalConfig:
    def test_gamma_range(self):
        SignalConfig(0.5, SignalKind.RESERVE)
        with pytest.raises(ValueError):
            SignalConfig(1.5, SignalKind.RESERVE)

    def test_boost_needs_scale(self):
        SignalConfig(0.4, SignalKind.BOOST, boost_scale=1.0 / 0.6)
        with pytest.raises(ValueError):
            SignalConfig(0.4, SignalKind.BOOST)


class TestRoundTrips:
    def test_instance_round_trip(self, tmp_path):
        inst = good_instance()
        path = tmp_path / "inst.json"
        save_json(inst, path)
        back = load_json(ProblemInstance, path)
        assert back == inst

    def test_config_round_trip(self, tmp_path):
        config = MechanismConfig(
            AuctionFormat.VCG, 2, 2,
            reserves=[[0.1, 0.0], [0.3, 2.0]],
            boosts=[[1.0, 0.0], [0.0, 0.5]],
        )
        path = tmp_path / "mech.json"
        save_json(config, path)
        assert load_json(MechanismConfig, path) == config

    def test_outcome_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        inst = random_instance(rng)
        config = random_config(rng, inst)
        out = clear(inst, config, random_bids(rng, inst))
        path = tmp_path / "out.json"
        save_json(out, path)
        assert load_json(Outcome, path) == out

    def test_random_outcomes_round_trip(self):
        rng = np.random.default_rng(5)
        outs = []
        for _ in range(50):
            inst = random_instance(rng)
            outs.append(clear(inst, random_config(rng, inst), random_bids(rng, inst)))
        empty = ProblemInstance(2, 0, [], np.zeros((2, 0)), [])
        outs.append(clear(empty, MechanismConfig(AuctionFormat.VCG, 2, 0), BidProfile(np.zeros((2, 0)))))
        assert outs[-1].winners.shape == (0, 0)
        for out in outs:
            assert Outcome.from_dict(out.to_dict()) == out

    def test_bid_profile_round_trip(self, tmp_path):
        bids = BidProfile([[1.5, 0.0], [2.25, 3.0]])
        path = tmp_path / "bids.json"
        save_json(bids, path)
        assert load_json(BidProfile, path) == bids

    def test_agent_state_round_trip(self, tmp_path):
        state = AgentState([0.0, 0.5, 1.0], [0.5, 1.0, 2.0])
        path = tmp_path / "state.json"
        save_json(state, path)
        assert load_json(AgentState, path) == state

    def test_random_instances_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            inst = random_instance(rng)
            assert ProblemInstance.from_dict(inst.to_dict()) == inst


class TestOutcomeAccessors:
    def test_allocation_triples_ordered(self):
        inst = good_instance()
        config = MechanismConfig(AuctionFormat.GSP, 3, 2)
        out = clear(inst, config, BidProfile(inst.values))
        triples = out.allocation_triples()
        assert triples == sorted(triples, key=lambda t: (t[1], t[2]))
        for i, j, k in triples:
            assert out.slot_of(i, j) == k

    def test_slot_of_loser_is_none(self):
        inst = good_instance()
        config = MechanismConfig(AuctionFormat.GSP, 3, 2)
        out = clear(inst, config, BidProfile(inst.values))
        assert out.slot_of(2, 1) is None


class TestPublicSurface:
    def test_all_lists_exactly_the_public_names(self):
        import types

        import auctionkit

        public = {
            name
            for name, obj in vars(auctionkit).items()
            if not name.startswith("_") and not isinstance(obj, types.ModuleType)
        }
        assert set(auctionkit.__all__) == public
        assert len(auctionkit.__all__) == len(public)
