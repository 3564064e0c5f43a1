"""The one-pass investigation round equals the evidence-by-evidence oracle.

``CooperativeInvestigator.run_round`` queries, classifies and reads trust
in one loop over the responders, sums each subject's Eq. 5 contribution
without building a :class:`TrustEvidence`, takes the majority from its
confirm and deny counts, runs the slot in one loop and reads Eqs. 8–9 from
one weight list.  ``tests.reference.trust`` keeps the round it replaced,
with its per-responder query helper.  After every step both must hold the
same trust values, ``detect_value``, margin and outcome, compared by
``float.hex`` so a signed zero or a last-bit difference fails, and both
must have made the same transport calls in the same order.  The cases cover
contested links (one denial decides a responder's answer),
``close_on_decision``, responders the manager does not know and subjects
first seen mid-run; after every step the manager's subjects must be sorted.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.investigation import CallableTransport, CooperativeInvestigator
from repro.trust.evidence import EvidenceKind, TrustEvidence
from repro.trust.manager import TrustManager, TrustParameters
from tests.reference import trust as reference

_NAMES = tuple(f"n{i}" for i in range(7))
_SUSPECTS = ("s",) + _NAMES[:2]
#: Contested-link peers; one is dropped when it is the suspect.
_PEERS = ("p0", "p1", "s", "n0")
#: Subjects first seen mid-run: before, among and after the others.
_LATE = ("a", "n3x", "o", "zz")
_REPLIES = st.sampled_from([True, False, None])
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _hexes(values):
    return [(name, float.hex(value)) for name, value in values.items()]


def _check_subjects(manager):
    """Sorted subjects, ``as_dict`` in that order and a new dict each call."""
    subjects = manager.known_subjects()
    assert subjects == sorted(subjects)
    snapshot = manager.as_dict()
    assert list(snapshot) == subjects
    assert snapshot == dict(manager.trust_map())
    snapshot.clear()
    assert list(manager.as_dict()) == subjects


@st.composite
def _parameters(draw):
    minimum = draw(st.sampled_from([0.0, 0.05]))
    maximum = draw(st.sampled_from([1.0, 0.9]))
    return TrustParameters(
        alpha_beneficial=draw(st.one_of(st.sampled_from([0.0, 0.04, 1.0]), st.floats(0.0, 1.0))),
        alpha_harmful=draw(st.one_of(st.sampled_from([0.0, 0.08, 1.0]), st.floats(0.0, 1.0))),
        beta=draw(_UNIT),
        default_trust=draw(st.floats(minimum, maximum)),
        minimum=minimum,
        maximum=maximum,
        beta_recovery=draw(st.one_of(st.none(), _UNIT)),
    )


def _links(contested, suspect):
    return sorted(set(contested) - {suspect})


@st.composite
def _investigations(draw):
    suspect = draw(st.sampled_from(_SUSPECTS))
    responders = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=len(_NAMES),
                               unique=True))
    contested = draw(st.one_of(st.just([]), st.lists(st.sampled_from(_PEERS), min_size=1,
                                                      max_size=3, unique=True)))
    peers = _links(contested, suspect) or [None]
    # ``None`` leaves a subject unknown; values outside [0, 1] clamp on entry.
    initial = {name: draw(st.one_of(st.none(), st.floats(-0.5, 1.5)))
               for name in _NAMES + ("s",)}
    # A step is a reply per (responder, link peer), ``None`` for a slot of
    # pure forgetting (a round without a contested link), or a subject
    # first seen mid-run: set to a value, or updated from no evidence.
    replies = st.fixed_dictionaries({(r, peer): _REPLIES for r in responders for peer in peers})
    late = st.tuples(st.just("late"), st.sampled_from(_LATE),
                     st.one_of(st.none(), st.floats(-0.5, 1.5)))
    steps = draw(st.lists(st.one_of(st.none(), replies, late), min_size=1, max_size=6))
    return {
        "parameters": draw(_parameters()),
        "suspect": suspect,
        "responders": responders,
        "contested": contested,
        "initial": initial,
        "steps": steps,
        "gamma": draw(st.floats(0.05, 1.0)),
        "confidence_level": draw(st.sampled_from([0.9, 0.95, 0.99, 0.93])),
        "use_trust_weighting": draw(st.booleans()),
        "close_on_decision": draw(st.booleans()),
    }


def _case(steps, responders=("n0", "n1", "n2", "n3"), suspect="s", initial=None,
          use_trust_weighting=True, contested=(), close_on_decision=False, **parameters):
    def keyed(step):
        # Own-link replies are written ``{responder: reply}``.
        if isinstance(step, dict) and not contested:
            return {(r, None): reply for r, reply in step.items()}
        return step

    return {
        "parameters": TrustParameters(**parameters),
        "suspect": suspect,
        "responders": list(responders),
        "contested": list(contested),
        "initial": initial or {},
        "steps": [keyed(step) for step in steps],
        "gamma": 0.6,
        "confidence_level": 0.95,
        "use_trust_weighting": use_trust_weighting,
        "close_on_decision": close_on_decision,
    }


_ALL_MISSING = {"n0": None, "n1": None, "n2": None, "n3": None}
_ZERO_MAJORITY = {"n0": True, "n1": False, "n2": None, "n3": None}
_DENIALS = {"n0": False, "n1": False, "n2": False, "n3": True}
#: Contested links p0 and p1: n0 confirms one and denies the other (deny),
#: n1 knows neither (no answer), n2 confirms one (confirm), and n3's first
#: denial decides before p1 is asked.
_ONE_DENIAL_DECIDES = {("n0", "p0"): True, ("n0", "p1"): False,
                       ("n1", "p0"): None, ("n1", "p1"): None,
                       ("n2", "p0"): True, ("n2", "p1"): None,
                       ("n3", "p0"): False, ("n3", "p1"): True}


@given(case=_investigations())
@settings(max_examples=300, deadline=None)
@example(case=_case([_ALL_MISSING, _DENIALS, _ALL_MISSING]))
@example(case=_case([_ZERO_MAJORITY, _DENIALS, _ZERO_MAJORITY], initial={"n0": 0.7}))
@example(case=_case([_DENIALS, None, _DENIALS], suspect="n3",
                    initial={"n3": 0.3, "n0": 0.9}))
@example(case=_case([_DENIALS] * 4 + [None] * 2, alpha_beneficial=1.0, alpha_harmful=1.0,
                    initial={"n0": 0.98, "n3": 0.02, "s": 0.01}, beta_recovery=0.99))
@example(case=_case([_DENIALS, None, _ZERO_MAJORITY], use_trust_weighting=False,
                    initial={"n1": -0.2, "x": 1.5}, beta_recovery=None))
@example(case=_case([_ONE_DENIAL_DECIDES] * 3, contested=("p1", "p0", "s"),
                    initial={"n0": 0.6, "n2": 0.4}))
@example(case=_case([_DENIALS] * 5, close_on_decision=True, alpha_harmful=1.0,
                    initial={"n0": 0.9, "n1": 0.9, "n2": 0.9, "n3": 0.1, "s": 0.5}))
@example(case=_case([_DENIALS, ("late", "a", 0.3), _DENIALS, ("late", "zz", None),
                     ("late", "n3x", 0.8), None, _ZERO_MAJORITY],
                    initial={"n0": 0.7, "n1": 0.2}))
def test_rounds_equal_the_evidence_by_evidence_oracle(case):
    parameters = case["parameters"]
    suspect, responders = case["suspect"], case["responders"]
    links = _links(case["contested"], suspect)
    manager = TrustManager("A", parameters)
    oracle = reference.PerSubjectTrust(parameters)
    for name, value in case["initial"].items():
        if value is not None:
            manager.set_initial_trust(name, value)
            oracle.set_initial_trust(name, value)
    _check_subjects(manager)

    replies = {}
    calls = {"program": [], "oracle": []}

    def transport(side):
        def verify(_requester, responder, _suspect, peer):
            calls[side].append((responder, peer))
            return replies[(responder, peer)]
        return CallableTransport(verify)

    investigator = CooperativeInvestigator(
        "A", transport("program"), manager, gamma=case["gamma"],
        confidence_level=case["confidence_level"],
        use_trust_weighting=case["use_trust_weighting"],
        close_on_decision=case["close_on_decision"])
    state = investigator.open_investigation(suspect, responders,
                                            contested_links=case["contested"])
    assert state.contested_links == links

    for index, step in enumerate(case["steps"]):
        if isinstance(step, tuple):
            _, name, value = step
            if value is None:
                assert float.hex(manager.update(name, [])) == float.hex(oracle.update(name, []))
            else:
                manager.set_initial_trust(name, value)
                oracle.set_initial_trust(name, value)
        elif step is None:
            assert _hexes(manager.decay_all()) == _hexes(oracle.decay_all())
        elif state.closed:
            # A closed investigation runs no round; the experiment only forgets.
            with pytest.raises(RuntimeError):
                investigator.run_round(suspect)
            assert _hexes(manager.decay_all()) == _hexes(oracle.decay_all())
        else:
            replies.clear()
            replies.update(step)
            got = investigator.run_round(suspect).decision
            want = reference.run_round(
                oracle, "A", suspect, responders, transport("oracle"), links,
                gamma=case["gamma"], confidence_level=case["confidence_level"],
                use_trust_weighting=case["use_trust_weighting"])
            assert calls["program"] == calls["oracle"], index
            assert float.hex(got.detect_value) == float.hex(want.detect_value), index
            assert float.hex(got.interval.margin) == float.hex(want.interval.margin), index
            assert got.outcome == want.outcome, index
            assert _hexes(got.trust_used) == _hexes(want.trust_used), index
            assert got.answers == want.answers, index
            closes = case["close_on_decision"] and want.is_final
            assert state.closed == closes, index
            assert state.final_outcome == (want.outcome if closes else None), index
        assert _hexes(manager.as_dict()) == _hexes(oracle.as_dict()), index
        _check_subjects(manager)


_EVIDENCES = st.builds(
    TrustEvidence,
    observer=st.just("A"),
    subject=st.sampled_from(["x", "y"]),
    kind=st.sampled_from(list(EvidenceKind)),
    value=st.floats(-1.0, 1.0),
    firsthand=st.booleans(),
    imminent=st.booleans(),
)


@given(parameters=_parameters(), initial=st.one_of(st.none(), st.floats(-0.5, 1.5)),
       slots=st.lists(st.lists(_EVIDENCES, max_size=4), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_update_equals_the_per_subject_oracle(parameters, initial, slots):
    """``update`` (the drop feedback loop's call) reduces its evidence list
    to the contribution the oracle sums, evidences about ``y`` ignored."""
    manager = TrustManager("A", parameters)
    oracle = reference.PerSubjectTrust(parameters)
    if initial is not None:
        manager.set_initial_trust("x", initial)
        oracle.set_initial_trust("x", initial)
    for evidences in slots:
        got = manager.update("x", evidences)
        want = oracle.update("x", evidences)
        assert float.hex(got) == float.hex(want)
    assert _hexes(manager.as_dict()) == _hexes(oracle.as_dict())
