"""The one-pass investigation round equals the evidence-by-evidence oracle.

``CooperativeInvestigator.run_round`` sums each subject's Eq. 5
contribution without building a :class:`TrustEvidence`, runs the slot in one
loop and reads Eqs. 8–9 from one weight list.  ``tests.reference.trust``
keeps the round it replaced.  After every round both must hold the same
trust values, ``detect_value``, margin and outcome, compared by
``float.hex`` so a signed zero or a last-bit difference fails.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.investigation import CallableTransport, CooperativeInvestigator
from repro.trust.evidence import EvidenceKind, TrustEvidence
from repro.trust.manager import TrustManager, TrustParameters
from tests.reference import trust as reference

_NAMES = tuple(f"n{i}" for i in range(7))
_SUSPECTS = ("s",) + _NAMES[:2]
_REPLIES = st.sampled_from([True, False, None])
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _hexes(values):
    return [(name, float.hex(value)) for name, value in values.items()]


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


@st.composite
def _investigations(draw):
    responders = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=len(_NAMES),
                               unique=True))
    # ``None`` leaves a subject unknown; values outside [0, 1] clamp on entry.
    initial = {name: draw(st.one_of(st.none(), st.floats(-0.5, 1.5)))
               for name in _NAMES + ("s",)}
    # A round is a reply per responder, or ``None`` for a slot of pure
    # forgetting (a round without a contested link).
    rounds = draw(st.lists(
        st.one_of(st.none(), st.fixed_dictionaries({r: _REPLIES for r in responders})),
        min_size=1, max_size=6))
    return {
        "parameters": draw(_parameters()),
        "suspect": draw(st.sampled_from(_SUSPECTS)),
        "responders": responders,
        "initial": initial,
        "rounds": rounds,
        "gamma": draw(st.floats(0.05, 1.0)),
        "confidence_level": draw(st.sampled_from([0.9, 0.95, 0.99, 0.93])),
        "use_trust_weighting": draw(st.booleans()),
    }


def _case(rounds, responders=("n0", "n1", "n2", "n3"), suspect="s", initial=None,
          use_trust_weighting=True, **parameters):
    return {
        "parameters": TrustParameters(**parameters),
        "suspect": suspect,
        "responders": list(responders),
        "initial": initial or {},
        "rounds": rounds,
        "gamma": 0.6,
        "confidence_level": 0.95,
        "use_trust_weighting": use_trust_weighting,
    }


_ALL_MISSING = {"n0": None, "n1": None, "n2": None, "n3": None}
_ZERO_MAJORITY = {"n0": True, "n1": False, "n2": None, "n3": None}
_DENIALS = {"n0": False, "n1": False, "n2": False, "n3": True}


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
def test_rounds_equal_the_evidence_by_evidence_oracle(case):
    parameters = case["parameters"]
    suspect, responders = case["suspect"], case["responders"]
    manager = TrustManager("A", parameters)
    oracle = reference.PerSubjectTrust(parameters)
    for name, value in case["initial"].items():
        if value is not None:
            manager.set_initial_trust(name, value)
            oracle.set_initial_trust(name, value)

    replies = {}
    investigator = CooperativeInvestigator(
        "A", CallableTransport(lambda _requester, responder, _suspect, _peer: replies[responder]),
        manager, gamma=case["gamma"], confidence_level=case["confidence_level"],
        use_trust_weighting=case["use_trust_weighting"])
    investigator.open_investigation(suspect, responders)

    for index, step in enumerate(case["rounds"]):
        if step is None:
            assert _hexes(manager.decay_all()) == _hexes(oracle.decay_all())
        else:
            replies.clear()
            replies.update(step)
            got = investigator.run_round(suspect).decision
            want = reference.run_round(
                oracle, "A", suspect, responders, step, gamma=case["gamma"],
                confidence_level=case["confidence_level"],
                use_trust_weighting=case["use_trust_weighting"])
            assert float.hex(got.detect_value) == float.hex(want.detect_value), index
            assert float.hex(got.interval.margin) == float.hex(want.interval.margin), index
            assert got.outcome == want.outcome, index
            assert _hexes(got.trust_used) == _hexes(want.trust_used), index
        assert _hexes(manager.as_dict()) == _hexes(oracle.as_dict()), index


_EVIDENCES = st.builds(
    TrustEvidence,
    observer=st.just("A"),
    subject=st.sampled_from(["x", "y"]),
    kind=st.sampled_from(list(EvidenceKind)),
    value=st.floats(-1.0, 1.0),
    firsthand=st.booleans(),
    gravity=st.one_of(st.none(), st.floats(0.0, 3.0)),
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
