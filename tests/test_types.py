"""Validation and serialization round-trips for the core data types."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionkit import (
    AgentState,
    AuctionFormat,
    BidProfile,
    MechanismConfig,
    Outcome,
    ProblemInstance,
    clear,
    load_json,
    save_json,
    validate_instance,
)
from auctionkit.types import _indented_json, _is_real
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


def reference_issues(inst):
    """The per-auction loop `ProblemInstance.issues` replaced; the
    reference of the differential tests below."""
    out = []
    if inst.n < 1:
        out.append("n must be at least 1")
    if inst.m < 0:
        out.append("m must be nonnegative")
    if len(inst.slots) != inst.m:
        out.append(f"slots has length {len(inst.slots)}, expected m={inst.m}")
    if len(inst.pos) != inst.m:
        out.append(f"pos has length {len(inst.pos)}, expected m={inst.m}")
    if not np.all(np.isfinite(inst.values)):
        out.append("values must be finite")
    if np.any(inst.values < 0):
        out.append("values must be nonnegative")
    for j, s in enumerate(inst.slots):
        if s < 1:
            out.append(f"auction {j}: slot count must be at least 1")
            continue
        if s > inst.n:
            out.append(f"auction {j}: more slots than bidders ({s} > {inst.n})")
        if j < len(inst.pos):
            p = inst.pos[j]
            if len(p) != s:
                out.append(f"auction {j}: pos has length {len(p)}, expected {s}")
            if not np.all(np.isfinite(p)):
                out.append(f"auction {j}: pos must be finite")
            elif np.any(p <= 0):
                out.append(f"auction {j}: pos must be strictly positive")
            elif np.any(np.diff(p) > 0):
                out.append(f"auction {j}: pos not nonincreasing")
    return tuple(out)


def malformed_instance(rng):
    """Small instance that breaks a random subset of the invariants."""
    n = int(rng.integers(0, 5))
    m = int(rng.integers(0, 6))
    values = rng.uniform(0.0, 5.0, size=(n, m))
    for bad in (-1.0, np.nan, np.inf):
        values[rng.random((n, m)) < 0.05] = bad
    n_slots = max(0, m + int(rng.integers(-1, 2))) if rng.random() < 0.3 else m
    slots = [int(rng.integers(-1, n + 3)) for _ in range(n_slots)]
    n_pos = max(0, m + int(rng.integers(-1, 2))) if rng.random() < 0.3 else m
    pos = []
    for j in range(n_pos):
        length = slots[j] if j < n_slots and rng.random() < 0.7 else int(rng.integers(0, 5))
        p = np.sort(rng.uniform(0.1, 1.0, size=max(0, length)))[::-1].copy()
        # a tie keeps a segment nonincreasing; the other edits break it
        for edit in rng.choice(7, size=int(rng.integers(0, 3))):
            if p.size:
                t = int(rng.integers(0, p.size))
                p[t] = (np.nan, np.inf, -np.inf, 0.0, -0.5, 2.0, p[t - 1])[edit]
        pos.append(p)
    return ProblemInstance(n, m, slots, values, pos)


class TestIssuesMatchLoop:
    def test_random_malformed_instances(self):
        rng = np.random.default_rng(21)
        kinds = set()
        for _ in range(3000):
            inst = malformed_instance(rng)
            expected = reference_issues(inst)
            assert inst.issues == expected
            kinds.update(s.split(": ")[-1].split(" (")[0] for s in expected)
        # every message kind was drawn
        assert {
            "n must be at least 1",
            "values must be finite",
            "values must be nonnegative",
            "slot count must be at least 1",
            "more slots than bidders",
            "pos must be finite",
            "pos must be strictly positive",
            "pos not nonincreasing",
        } <= kinds
        assert any(k.startswith("pos has length") for k in kinds)
        assert any(k.startswith("slots has length") for k in kinds)

    @pytest.mark.parametrize(
        "slots, pos",
        [
            ([], []),                                  # m = 0
            ([2, 1], [[1.0], [1.0, 0.5]]),             # pos shorter and longer than slots
            ([2, 2], [[np.nan, 0.5], [0.5, np.nan]]),  # NaN first and last in a segment
            ([1, 2], [[], [0.5, 0.5]]),                # empty segment, then a tie
            ([2, 2], [[1.0, 0.5], [0.6, 0.7]]),        # rises at the boundary and within auction 1
            ([2, 1], [[0.5, 0.4], [0.9]]),             # rises across segments: valid
            ([10**30, 2], [[1.0], [1.0, -1.0]]),       # count past the int64 range
            ([3, 0, -1], [[1.0, 0.5, 0.2]]),           # pos missing for the last auctions
        ],
    )
    def test_edge_cases(self, slots, pos):
        m = len(slots)
        inst = ProblemInstance(2, m, slots, np.ones((2, m)), pos)
        assert inst.issues == reference_issues(inst)

    def test_valid_instance_has_no_issues(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            inst = random_instance(rng, n_max=6, m_max=8)
            assert inst.issues == reference_issues(inst) == ()


class TestSlotArray:
    def test_read_only_int64_copy_of_slots(self):
        inst = good_instance()
        arr = inst.slot_array
        assert arr.dtype == np.int64 and arr.tolist() == [2, 1]
        assert inst.slot_array is arr
        with pytest.raises(ValueError):
            arr[0] = 3

    def test_refuses_invalid_instance(self):
        inst = ProblemInstance(2, 1, [3], [[1.0], [2.0]], [[1.0, 0.5, 0.2]])
        with pytest.raises(ValueError, match="more slots than bidders"):
            inst.slot_array


class TestOutcomePadding:
    @pytest.mark.parametrize(
        "slots", [(2, 1), [2, 1], np.array([2, 1]), np.array([2, 1], dtype=np.int32), [2.0, 1.0]]
    )
    def test_slot_container_types(self, slots):
        out = Outcome([[0, 1], [2, -1]], np.zeros((3, 2)), slots)
        assert out.slots == (2, 1) and all(type(s) is int for s in out.slots)
        with pytest.raises(ValueError, match="past an auction's slot count"):
            Outcome([[0, 1], [2, 0]], np.zeros((3, 2)), slots)
        with pytest.raises(ValueError, match="winners must have shape"):
            Outcome([[0, 1, -1], [2, -1, -1]], np.zeros((3, 2)), slots)

    def test_empty_and_malformed_slots(self):
        assert Outcome(np.zeros((0, 0)), np.zeros((2, 0)), ()).slots == ()
        assert Outcome(np.zeros((0, 0)), np.zeros((2, 0)), np.array([], dtype=np.int64)).slots == ()
        with pytest.raises(ValueError, match="winners must have shape"):
            Outcome(np.zeros((2, 0)), np.zeros((2, 2)), [-3, -5])
        with pytest.raises(TypeError):
            Outcome([[0]], np.zeros((1, 1)), [[1]])

    def test_clear_matches_tuple_slots(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            inst = random_instance(rng)
            out = clear(inst, random_config(rng, inst), random_bids(rng, inst))
            assert out.slots == inst.slots
            assert Outcome(out.winners, out.payments, inst.slots) == out


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
        pos = np.ones(1)
        ProblemInstance(2, 1, [1], values, [pos])
        pos[0] = 0.5


class TestIsReal:
    @pytest.mark.parametrize("x", [0, -3, 10**400, np.int64(7), 0.5, -1e308, np.float64(2.5)])
    def test_finite_numbers(self, x):
        assert _is_real(x)

    @pytest.mark.parametrize("x", [True, False, np.bool_(True), math.nan, math.inf, -math.inf,
                                   np.float64("nan"), "1", None, [1.0]])
    def test_everything_else(self, x):
        assert not _is_real(x)


class TestPosSharing:
    """A frozen float64 vector that owns its data is shared, not copied."""

    def test_frozen_rows_are_shared(self):
        inst = good_instance()
        tiled = ProblemInstance(3, 4, [2] * 4, np.ones((3, 4)), [inst.pos[0]] * 4)
        assert all(p is inst.pos[0] for p in tiled.pos)
        assert tiled == ProblemInstance(3, 4, [2] * 4, np.ones((3, 4)), [inst.pos[0].tolist()] * 4)

    def test_everything_else_is_copied_and_frozen(self):
        base = np.array([1.0, 0.5, 0.25])
        frozen_view = base[:2]
        frozen_view.setflags(write=False)
        wide = np.array([1.0, 0.5], dtype=np.float32)
        wide.setflags(write=False)
        for vec in (base, frozen_view, wide, [1.0, 0.5]):
            inst = ProblemInstance(2, 1, [2], np.ones((2, 1)), [vec])
            assert inst.pos[0] is not vec and inst.pos[0].dtype == np.float64
            assert not inst.pos[0].flags.writeable
        assert base.flags.writeable  # the caller's array is never frozen


class TestAgentState:
    def test_bounds(self):
        assert AgentState([0.0, 1.0], [1.0, 2.0]).issues == ()
        assert AgentState([-0.1], [1.0]).issues
        assert AgentState([0.5], [0.0]).issues


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

    def test_to_dict_allocation_is_the_triples(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            inst = random_instance(rng, n_max=6, m_max=5)
            out = clear(inst, random_config(rng, inst), random_bids(rng, inst))
            alloc = out.to_dict()["allocation"]
            assert alloc == [list(t) for t in out.allocation_triples()]
            assert all(type(x) is int for t in alloc for x in t)

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


# JSON leaves: every float json treats specially, big ints, bools, None, and
# strings with escapes, quotes, brackets and non-ASCII characters
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e308, math.inf, -math.inf, math.nan, 10**30])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(st.sampled_from('a\u00e9\u4e2d\U0001f600"\\\n\t\x00[]{},: '), max_size=5)
)
json_keys = st.text(st.sampled_from('ab\u00e9\u4e2d"\\\n\x7f]['), max_size=4)
json_numbers = st.integers(-5, 10**20) | st.floats(allow_nan=True, allow_infinity=True)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=4)
    # rows of numbers, the shape payment matrices and allocations take
    | st.lists(st.lists(json_numbers, min_size=1, max_size=4), min_size=1, max_size=4),
    max_leaves=20,
)


class TestIndentedJson:
    """_indented_json is a faster json.dumps(obj, indent=2, sort_keys=True)."""

    @staticmethod
    def reference(obj):
        return json.dumps(obj, indent=2, sort_keys=True)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_values)
    def test_matches_json_dumps(self, obj):
        assert _indented_json(obj) == self.reference(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [1]], [[1], []], [[[]]], [[[1, 2]], [3]],
            [[1.5, -0.0], [math.nan, -math.inf]], [[1, "a"], [2]], [["],"], [1]], [[{"a": 1}], [2]],
            {"\u00e9\n": [[1e-300, 10**30]], "\"": {"x": [True, None]}}, ([1, 2], (3, 4)),
            {2: [1], 1: {}, 3: [[1]]}, {1.5: [[1]], 0.5: 2}, {None: [[]]}, {True: [0], False: {}},
            {"b": {1: 2}, "a": [0]}, "\u4e2d", -0.0, 10**30,
        ],
    )
    def test_edge_cases(self, obj):
        assert _indented_json(obj) == self.reference(obj)

    def test_clear_payload(self):
        rng = np.random.default_rng(13)
        inst = random_instance(rng, n_max=20, m_max=60, s_max=4)
        out = clear(inst, random_config(rng, inst), random_bids(rng, inst))
        payload = {**out.to_dict(), "values": inst.values.tolist(), "welfare": float(rng.random())}
        assert _indented_json(payload) == self.reference(payload)

    def test_save_json_writes_the_indented_form(self, tmp_path):
        inst = good_instance()
        save_json(inst, tmp_path / "i.json")
        assert (tmp_path / "i.json").read_text() == self.reference(inst.to_dict()) + "\n"
