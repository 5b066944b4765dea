"""The state dump: it sees every field of the engine state, keeps its JSON
form and key order on fuzzed states, is built in one frame, and load_state
refuses core records that do not describe the machine's cores, and region
owners and live domains' parents that name no live domain."""

import json

import pytest

from capmon import AttrFlags, PhysRange, Rights, state
from capmon.domains import (
    NUM_REGS, POLICY_FIELDS, ApiCall, CapEntry, DomainState,
    InterruptPolicy, IrqFrame, Visibility,
)
from capmon.regions import PAGE, DerivationKind, RegionStatus

from support import (
    FuzzDriver, carve_to, frames_entered, hold_drains, make_child,
    small_engine,
)
from test_abi import call
from test_cli import CONFIG, run_cli

VECTOR = 5


def rich_engine():
    """An engine whose dump has something in every list: core 0 runs a child
    of td0 (a chain entry and a quantum deadline), core 1 left an ATTEST
    output undrained, and the child holds a region sent with hash, clean
    and vital, and an explicit interrupt entry."""
    engine, td0 = small_engine()
    engine.set_quantum(7)
    child, handle = make_child(engine, td0, seal=False,
                               interrupts=[(VECTOR, Visibility.REPORT, 3)])
    region = carve_to(engine, td0, handle, PhysRange(4 * PAGE, 6 * PAGE),
                      Rights.RW,
                      AttrFlags.HASH | AttrFlags.CLEAN | AttrFlags.VITAL)
    engine.seal(td0, handle)
    engine.switch(td0, 0, handle)
    status, _, token, _ = call(engine, 1, ApiCall.ATTEST, 0, 0)
    assert status == 0 and token in engine._buffers
    return engine, child, region


def toggle(value):
    return not value if isinstance(value, bool) else value + 1


def to(new):
    return lambda old: new


def _region(e, c, r):
    return e.tree.nodes[r]


def _attributes(e, c, r):
    return e.tree.nodes[r].attributes


def _domain(e, c, r):
    return e.domains[c]


def _policies(e, c, r):
    return e.domains[c].policies


def _chain_entry(e, c, r):
    return e.cores[0].chain[0]


# one in-place change per field the dump covers: (field, the object or
# container that holds it, its attribute name or its index or key, old
# value -> new value)
MUTATIONS = [
    ("now", lambda e, c, r: e.platform, "now", toggle),
    ("next_id", lambda e, c, r: e.domains, "next_id", toggle),
    ("_next_id", lambda e, c, r: e.tree, "_next_id", toggle),
    ("_next_token", lambda e, c, r: e, "_next_token", toggle),
    ("buffer offset", lambda e, c, r: next(iter(e._buffers.values())), 3,
     to(16)),
    ("quantum", lambda e, c, r: e, "quantum", toggle),
    ("deadline", lambda e, c, r: e._quantum_deadlines, 0,
     lambda old: (old[0] + 1, old[1])),
    ("region owner", _region, "owner", toggle),
    ("region initial_range", _region, "initial_range",
     lambda old: PhysRange(old.start, old.end + PAGE)),
    ("region rights", _region, "rights", to(Rights.R)),
    ("region status", _region, "status", to(RegionStatus.ALIASED)),
    ("region kind", _region, "kind", to(DerivationKind.ALIAS)),
    ("region parent", _region, "parent", to(None)),
    ("region children", _region, "children", to((99,))),
    ("region hash", _attributes, "hash_digest", to(b"\x01" * 32)),
    ("region clean", _attributes, "clean", toggle),
    ("region vital", _attributes, "vital", toggle),
    ("domain state", _domain, "state", to(DomainState.UNSEALED)),
    ("domain parent", _domain, "parent", to(None)),
    *[(f"policy {name}", _policies, name, toggle) for name in POLICY_FIELDS],
    ("interrupt entry", lambda e, c, r: e.domains[c].policies.interrupts,
     VECTOR, to(InterruptPolicy(Visibility.REPORT, 1))),
    ("interrupt default", _policies, "interrupt_default",
     to(InterruptPolicy(Visibility.REPORT, 0))),
    ("register word", lambda e, c, r: e.domains[c].regs[0], 3, toggle),
    ("capability slot", lambda e, c, r: e.domains[c].owned.slots, 0,
     lambda old: CapEntry(old.kind, old.ref + 1)),
    ("is_device", _domain, "is_device", toggle),
    ("device_vector", _domain, "device_vector", to(VECTOR)),
    ("register_hash", _domain, "register_hash", to(b"\x01" * 32)),
    ("core current", lambda e, c, r: e.cores[0], "current", toggle),
    ("chain domain", _chain_entry, "domain", toggle),
    ("chain saved register", lambda e, c, r: e.cores[0].chain[0].saved_regs,
     2, toggle),
    ("chain pending_observation", _chain_entry, "pending_observation",
     toggle),
    ("core irq", lambda e, c, r: e.cores[1], "irq",
     to(IrqFrame(VECTOR, []))),
    ("core deferred_vectors", lambda e, c, r: e.cores[1], "deferred_vectors",
     to([VECTOR])),
]


class TestDumpSeesEveryField:
    def test_the_engine_fills_every_list(self):
        engine, child, region = rich_engine()
        dump = state.dump_state(engine)
        assert dump["buffers"] and dump["quantum_deadlines"]
        assert dump["cores"][0]["chain"]
        dom = next(d for d in dump["domains"] if d["id"] == child)
        assert dom["policies"]["interrupts"] == [[VECTOR, "report", 3]]
        rec = next(r for r in dump["regions"] if r["id"] == region)
        assert rec["attributes"]["hash"] and rec["attributes"]["clean"] \
            and rec["attributes"]["vital"]

    @pytest.mark.parametrize("holder, key, change",
                             [m[1:] for m in MUTATIONS],
                             ids=[m[0] for m in MUTATIONS])
    def test_a_change_to_the_field_changes_the_dump(self, holder, key,
                                                    change):
        engine, child, region = rich_engine()
        before = state.dump_state(engine)
        target = holder(engine, child, region)
        if isinstance(key, str):
            setattr(target, key, change(getattr(target, key)))
        else:
            target[key] = change(target[key])
        assert state.dump_state(engine) != before

    def test_a_dump_enters_one_frame(self):
        # pins the one-frame design: no comprehension, generator or helper
        # frame under dump_state
        engine, _, _ = rich_engine()
        assert not engine.domains.held
        _, names = frames_entered(state.dump_state, engine)
        assert names == ["dump_state"]


# each record's keys, in the order dump_state writes them
TOP_KEYS = ["version", "seed", "step", "config", "measurement",
            "root_region", "next_domain", "next_region", "next_token",
            "buffers", "quantum", "quantum_deadlines", "regions", "domains",
            "cores"]
CONFIG_KEYS = ["memory", "cores", "monitor_reserved", "devices", "pool"]
MEASUREMENT_KEYS = ["pcr", "events"]
REGION_KEYS = ["id", "owner", "range", "rights", "status", "kind", "parent",
               "children", "attributes"]
ATTRIBUTE_KEYS = ["hash", "clean", "vital"]
DOMAIN_KEYS = ["id", "state", "parent", "policies", "regs", "owned",
               "is_device", "device_vector", "register_hash"]
POLICY_KEYS = ["cores", "mon_api", "user_calls", "receive", "interrupts",
               "interrupt_default"]
CORE_KEYS = ["id", "current", "chain", "irq", "deferred"]
IRQ_KEYS = ["vector", "resume"]


def check_form(dump: dict):
    assert json.loads(json.dumps(dump)) == dump
    assert state.dump_state(state.load_state(dump)) == dump
    assert list(dump) == TOP_KEYS
    assert list(dump["config"]) == CONFIG_KEYS
    assert list(dump["measurement"]) == MEASUREMENT_KEYS
    for rec in dump["regions"]:
        assert list(rec) == REGION_KEYS
        assert list(rec["attributes"]) == ATTRIBUTE_KEYS
    for rec in dump["domains"]:
        assert list(rec) == DOMAIN_KEYS
        assert list(rec["policies"]) == POLICY_KEYS
    for rec in dump["cores"]:
        assert list(rec) == CORE_KEYS
        if rec["irq"] is not None:
            assert list(rec["irq"]) == IRQ_KEYS


@pytest.mark.parametrize("seed", range(3))
def test_dump_form_on_fuzzed_states(seed):
    driver = FuzzDriver(seed=seed)
    check_form(state.dump_state(driver.engine))
    for _ in range(300):
        driver.step()
        check_form(state.dump_state(driver.engine))


def _move_core(dump):
    dump["cores"][1]["id"] = -1
    dump["cores"][1]["current"] = 99


def _drop_core(dump):
    del dump["cores"][1]


def _unrecorded_chain(dump):
    dump["cores"][0]["chain"] = [[99, [0] * NUM_REGS, False]]


def _path_not_from_td0(dump):
    # core 0 runs a child of td0 with nothing below it on its path
    dump["domains"].append(dict(dump["domains"][0], id=1, parent=0, owned=[]))
    dump["next_domain"] = 2
    dump["cores"][0]["current"] = 1


def _child_of_td0(dump, dom_id, cores):
    """A record for a child of td0 that may run on the cores in `cores`."""
    policies = dict(dump["domains"][0]["policies"], cores=cores)
    dump["domains"].append(dict(dump["domains"][0], id=dom_id, parent=0,
                                owned=[], policies=policies))
    dump["next_domain"] = dom_id + 1


def _path_not_a_parent_chain(dump):
    # core 0's path is td0, 1, 2, and 2 is a child of td0, not of 1
    _child_of_td0(dump, 1, 0b11)
    _child_of_td0(dump, 2, 0b11)
    dump["cores"][0]["chain"] = [[0, [0] * NUM_REGS, False],
                                 [1, [0] * NUM_REGS, False]]
    dump["cores"][0]["current"] = 2


def _runs_where_not_allowed(dump):
    # core 1 runs a child of td0 that may run on core 0 only
    _child_of_td0(dump, 1, 0b01)
    dump["cores"][1]["chain"] = [[0, [0] * NUM_REGS, False]]
    dump["cores"][1]["current"] = 1


def refused(tmp_path, capsys, malform):
    """A boot dump of the CLI's machine, edited by `malform`, is refused by
    load_state and makes `capmon attest` exit 2."""
    script, path = tmp_path / "boot.tyscn", tmp_path / "state.json"
    script.write_text("boot\n")
    assert run_cli("run", CONFIG, str(script), "--dump", str(path)) == 0
    dump = json.loads(path.read_text())
    assert len(dump["cores"]) == 2
    malform(dump)
    with pytest.raises(ValueError):
        state.load_state(dump)
    path.write_text(json.dumps(dump))
    assert run_cli("attest", str(path), "0") == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("malform", [_move_core, _drop_core,
                                     _unrecorded_chain, _path_not_from_td0,
                                     _path_not_a_parent_chain,
                                     _runs_where_not_allowed])
def test_load_refuses_core_records_that_miss_the_machine(tmp_path, capsys,
                                                         malform):
    refused(tmp_path, capsys, malform)


def _unowned_region(dump):
    dump["regions"][0]["owner"] = 99


def _orphaned_domain(dump):
    dump["domains"][0]["parent"] = 77


@pytest.mark.parametrize("malform", [_unowned_region, _orphaned_domain])
def test_load_refuses_owners_and_parents_that_are_not_live(tmp_path, capsys,
                                                           malform):
    refused(tmp_path, capsys, malform)


def test_load_keeps_held_records_whose_parent_is_not_live():
    # core 0 runs td0 -> child -> grandchild; the child is revoked and, as
    # between a barrier round's release and the core's drain, the core has
    # not drained, so both records are held and the grandchild's parent is
    # the held child
    engine, td0 = small_engine()
    child, handle = make_child(engine, td0)
    engine.switch(td0, 0, handle)
    grandchild, inner = make_child(engine, child)
    engine.switch(child, 0, inner)
    hold_drains(engine)
    engine.revoke_domain(td0, handle)
    assert set(engine.domains.held) == {child, grandchild}
    dump = state.dump_state(engine)
    reloaded = state.load_state(dump)
    assert state.dump_state(reloaded) == dump
    assert reloaded.domains.held[grandchild].parent == child
