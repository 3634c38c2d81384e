import re

import pytest

from lassosat.errors import EncodingError, HistoryError
from lassosat.formula import Atom
from lassosat.trace import LassoTrace, PartialHistory, parse_history, render_history

ON, OFF, L = Atom("ON"), Atom("OFF"), Atom("L")


def _lamp_trace():
    on = (0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    off = (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0)
    l = (0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0)
    return LassoTrace(
        k=10,
        engine="bi",
        atoms=(ON, OFF, L),
        valuations={ON: tuple(map(bool, on)), OFF: tuple(map(bool, off)),
                    L: tuple(map(bool, l))},
        loop_start=1,
        pool_start=9,
    )


def test_render_matches_reference_listing(data_dir):
    reference = (data_dir / "lamp_history.txt").read_text()
    assert render_history(_lamp_trace()) == reference


def test_empty_instant_renders_header_only():
    text = render_history(_lamp_trace())
    blocks = text.split("------ time 0 ------")[1].split("------ time 1 ------")
    assert blocks[0].strip() == ""


def test_item_atom_rendering():
    cont = Atom("CONT", (6,), "item")
    trace = LassoTrace(
        k=2, engine="mono", atoms=(cont,),
        valuations={cont: (False, False, True)}, loop_start=2,
    )
    text = render_history(trace)
    assert "------ time 2 ------\n  **LOOP**\n  CONT = 6\n" in text


def test_parse_render_round_trip_constrains_exactly_positive_atoms():
    trace = _lamp_trace()
    hist = parse_history(render_history(trace))
    positives = {
        (t, a) for a in trace.atoms for t in range(11) if trace.valuations[a][t]
    }
    assert {(t, a) for (t, a, pol) in hist.facts if pol} == positives
    assert all(pol for (_, _, pol) in hist.facts)
    assert hist.loop_at == 1
    assert hist.pool_at == 9


def test_parse_empty_history():
    hist = parse_history("")
    assert hist.facts == ()
    assert hist.loop_at is None


def test_parse_negative_facts_and_predicates():
    hist = parse_history(
        "------ time 2 ------\n  !ON\n  P(1,2)\n  ARR[6] = OFF\n  CONT = 3\n"
    )
    assert (2, ON, False) in hist.facts
    assert (2, Atom("P", (1, 2)), True) in hist.facts
    assert (2, Atom("ARR", (6, "OFF"), "array"), True) in hist.facts
    assert (2, Atom("CONT", (3,), "item"), True) in hist.facts


def test_fact_outside_time_block_is_error():
    with pytest.raises(HistoryError, match="outside any time block"):
        parse_history("ON\n")


def test_malformed_atom_line_is_error():
    with pytest.raises(HistoryError, match="cannot parse"):
        parse_history("------ time 0 ------\n  ((\n")


def test_contradictory_facts_rejected():
    with pytest.raises(HistoryError, match="contradictory"):
        PartialHistory(((1, ON, True), (1, ON, False)))


def test_merged_histories_validate():
    a = PartialHistory(((0, ON, True),), loop_at=2)
    b = PartialHistory(((1, OFF, False),), pool_at=3)
    merged = a.merged_with(b)
    assert merged.loop_at == 2 and merged.pool_at == 3
    with pytest.raises(HistoryError):
        a.merged_with(PartialHistory(((0, ON, False),)))


def test_merged_histories_agree_on_their_markers():
    a = PartialHistory(loop_at=2, pool_at=1)
    assert a.merged_with(PartialHistory(loop_at=2, pool_at=1)) == a
    with pytest.raises(HistoryError, match=re.escape("**LOOP** markers: times 2 and 3")):
        a.merged_with(PartialHistory(loop_at=3, pool_at=1))
    with pytest.raises(HistoryError, match=re.escape("**POOL** markers: times 1 and 4")):
        a.merged_with(PartialHistory(pool_at=4))


@pytest.mark.parametrize("marker", ["**LOOP**", "**POOL**"])
def test_a_second_marker_line_is_an_error(marker):
    text = f"------ time 1 ------\n  {marker}\n------ time 3 ------\n  ON\n  {marker}\n"
    with pytest.raises(HistoryError, match=re.escape(
            f"line 5: a second {marker} marker (the first is at time 1)")):
        parse_history(text)


def test_bi_trace_requires_pool():
    with pytest.raises(EncodingError, match="past loop"):
        LassoTrace(k=2, engine="bi", atoms=(ON,),
                   valuations={ON: (False,) * 3}, loop_start=1)


def test_loop_start_range_checked():
    with pytest.raises(EncodingError, match="outside"):
        LassoTrace(k=2, engine="mono", atoms=(ON,),
                   valuations={ON: (False,) * 3}, loop_start=0)
