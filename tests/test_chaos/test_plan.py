"""FaultPlan and clause dataclasses: validation, selection, serialization."""

import pickle

import pytest

from repro.chaos import (
    CorruptionClause,
    DnsFaultClause,
    FaultPlan,
    GilbertElliottClause,
    OutageClause,
    OutageSchedule,
    ReorderClause,
    ServerFaultClause,
    SynBlackholeClause,
)
from repro.errors import ChaosError


def full_plan():
    return FaultPlan(
        clauses=(
            OutageClause(direction="downlink", start=1.0, duration=0.5),
            GilbertElliottClause(direction="both", p_good_bad=0.05),
            CorruptionClause(direction="uplink", rate=0.02),
            ReorderClause(direction="downlink", probability=0.1),
            SynBlackholeClause(direction="both", start=2.0, duration=1.0),
            ServerFaultClause(kind="stall", skip=3, count=2,
                              after_bytes=512, stall=0.3),
            DnsFaultClause(kind="servfail", name_suffix=".cdn.example",
                           skip=1, count=1),
        ),
        name="full",
    )


class TestClauseValidation:
    def test_bad_direction(self):
        with pytest.raises(ChaosError):
            OutageClause(direction="sideways")

    def test_outage_duration_positive(self):
        with pytest.raises(ChaosError):
            OutageClause(duration=0.0)

    def test_outage_period_exceeds_duration(self):
        with pytest.raises(ChaosError):
            OutageClause(duration=1.0, period=0.5)

    @pytest.mark.parametrize("field", [
        "p_good_bad", "p_bad_good", "loss_good", "loss_bad"])
    def test_ge_probabilities_bounded(self, field):
        with pytest.raises(ChaosError):
            GilbertElliottClause(**{field: 1.5})

    def test_corruption_rate_bounded(self):
        with pytest.raises(ChaosError):
            CorruptionClause(rate=-0.1)

    def test_reorder_extra_delay_positive(self):
        with pytest.raises(ChaosError):
            ReorderClause(extra_delay=0.0)

    def test_server_kind_checked(self):
        with pytest.raises(ChaosError):
            ServerFaultClause(kind="explode")

    def test_server_count_positive_or_none(self):
        with pytest.raises(ChaosError):
            ServerFaultClause(count=0)
        assert ServerFaultClause(count=None).count is None

    def test_server_status_is_http_status(self):
        with pytest.raises(ChaosError):
            ServerFaultClause(kind="error-burst", status=42)

    def test_dns_kind_checked(self):
        with pytest.raises(ChaosError):
            DnsFaultClause(kind="nxdomain-storm")

    def test_dns_slow_needs_delay(self):
        with pytest.raises(ChaosError):
            DnsFaultClause(kind="slow", delay=0.0)

    def test_plan_rejects_non_clause(self):
        with pytest.raises(ChaosError):
            FaultPlan(clauses=("not a clause",))


class TestSelection:
    def test_link_clauses_by_direction(self):
        plan = full_plan()
        down = plan.link_clauses("downlink")
        up = plan.link_clauses("uplink")
        # "both" clauses appear in each direction.
        assert {type(c) for c in down} == {
            OutageClause, GilbertElliottClause, ReorderClause,
            SynBlackholeClause,
        }
        assert {type(c) for c in up} == {
            GilbertElliottClause, CorruptionClause, SynBlackholeClause,
        }

    def test_link_clauses_rejects_both(self):
        with pytest.raises(ChaosError):
            full_plan().link_clauses("both")

    def test_server_and_dns_clauses(self):
        plan = full_plan()
        assert [c.kind for c in plan.server_clauses] == ["stall"]
        assert [c.kind for c in plan.dns_clauses] == ["servfail"]

    def test_has_link_faults(self):
        assert full_plan().has_link_faults
        server_only = FaultPlan(clauses=(ServerFaultClause(),))
        assert not server_only.has_link_faults


class TestSerialization:
    def test_json_roundtrip(self):
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_json_is_stable_text(self):
        plan = full_plan()
        assert plan.to_json() == FaultPlan.from_json(plan.to_json()).to_json()

    def test_pickle_roundtrip(self):
        plan = full_plan()
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_type_tag_distinct_from_kind_field(self):
        # Server/DNS clauses carry a "kind" field of their own; the wire
        # discriminator must not collide with it.
        data = FaultPlan(clauses=(ServerFaultClause(kind="reset"),)).to_dict()
        (entry,) = data["clauses"]
        assert entry["type"] == "server"
        assert entry["kind"] == "reset"

    def test_unknown_type_rejected(self):
        with pytest.raises(ChaosError, match="unknown type"):
            FaultPlan.from_dict({
                "version": 1, "clauses": [{"type": "gremlins"}]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ChaosError, match="unknown fields"):
            FaultPlan.from_dict({
                "version": 1,
                "clauses": [{"type": "outage", "flavor": "total"}],
            })

    def test_bad_version_rejected(self):
        with pytest.raises(ChaosError, match="version"):
            FaultPlan.from_dict({"version": 99, "clauses": []})

    def test_bad_json_rejected(self):
        with pytest.raises(ChaosError):
            FaultPlan.from_json("{not json")


#: (clause type tag, time field) for every time a clause carries.
TIME_FIELDS = [("outage", "start"), ("outage", "duration"),
               ("outage", "period"), ("syn-blackhole", "start"),
               ("syn-blackhole", "duration"), ("reorder", "extra_delay"),
               ("server", "stall"), ("dns", "delay")]


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("tag,field", TIME_FIELDS)
def test_a_non_finite_time_is_refused_naming_its_field(tag, field, number):
    # A NaN time silently disables its clause; an infinite one never ends.
    text = f'{{"clauses": [{{"type": "{tag}", "{field}": {number}}}]}}'
    with pytest.raises(ChaosError, match=f"^{field} must be finite"):
        FaultPlan.from_json(text)


class TestOutageWindows:
    def test_single_window(self):
        clause = OutageClause(start=1.0, duration=0.5)
        assert clause.window_end(0.9) is None
        assert clause.window_end(1.0) == 1.5
        assert clause.window_end(1.49) == 1.5
        assert clause.window_end(1.5) is None

    def test_periodic_windows(self):
        clause = OutageClause(start=1.0, duration=0.5, period=2.0)
        assert clause.window_end(3.2) == 3.5
        assert clause.window_end(3.6) is None
        assert clause.window_end(5.0) == 5.5

    def test_schedule_merges_abutting_windows(self):
        schedule = OutageSchedule([
            OutageClause(start=1.0, duration=0.5),
            OutageClause(start=1.5, duration=0.5),
        ])
        assert schedule.release_time(1.2) == 2.0
        assert schedule.release_time(1.7) == 2.0
        assert schedule.release_time(2.0) == 2.0

    def test_empty_schedule_is_falsy(self):
        assert not OutageSchedule([])
        assert OutageSchedule([OutageClause()])
