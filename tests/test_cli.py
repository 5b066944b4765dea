"""The command-line front-end: scenario runs, goldens, exit codes, and the
attest/verify pipeline."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from capmon.cli import main
from capmon.machine import LOG_KEEP
from capmon.oracle import Oracle
from capmon.state import dump_state
from capmon.trace import parse_log

SRC = Path(__file__).parent.parent / "src"
SCN = SRC / "capmon" / "scenarios"
GOLDEN = Path(__file__).parent / "golden"
CONFIG = str(SCN / "small.mcfg")


# small.mcfg with one device, vector 33
DEVICE_CONFIG = ("memory 0x200000\n"
                 "cores 2\n"
                 "monitor_reserved 0x0 0x100000\n"
                 "device net0 0x200000 0x201000 33\n")
# tdq runs on core 0 until its 4-step quantum routes the timer vector
QUANTUM_SCRIPT = ("boot\n"
                  "create tdq\n"
                  "set tdq cores 0b11\n"
                  "set tdq mon_api 0b11111111111\n"
                  "set tdq intr all noreport\n"
                  "seal tdq\n"
                  "switch tdq\n"
                  "step 10\n"
                  "expect current td0\n"
                  "expect payload interrupt:32\n")

# td0 reads a sealed child's policies and enumerates its own table; a vector
# the child reports then preempts it on core 0, and td0, its handler, may
# read the one register the child made readable for that vector
READ_SCRIPT = ("boot\n"
               "create a\n"
               "set a cores 0b11\n"
               "set a mon_api 0b11111111111\n"
               "set a intr 40 report 0x10000\n"
               "set a reg 0 pc 0x40\n"
               "seal a\n"
               "get a cores\n"
               "get a bogus\n"
               "get a reg 0 pc\n"
               "enumerate\n"
               "switch a\n"
               "irq 40\n"
               "expect handler td0\n"
               "get a reg 0 pc\n"
               "get a reg 0 sw\n")
READ_TRACE = [
    "7 0 get_policy caller=0 handle=1 field=cores -> ok value=3",
    "8 0 get_policy caller=0 handle=1 field=bogus -> err=BAD_HANDLE",
    "9 0 get_reg caller=0 handle=1 core=0 index=0x10 -> err=REGISTER_HIDDEN",
    "10 0 enumerate caller=0 cursor=0 -> ok next=1 "
    "entry=region~exclusive~0x100000~0x200000~RWX",
    "10 0 enumerate caller=0 cursor=1 -> ok next=2 entry=domain~sealed",
    "10 0 enumerate caller=0 cursor=2 -> ok next=2 entry=end",
    "12 0 irq vector=0x28 -> ok handler=0",
    "14 0 get_reg caller=0 handle=1 core=0 index=0x10 -> ok value=0x40",
    "15 0 get_reg caller=0 handle=1 core=0 index=0x11 -> err=REGISTER_HIDDEN",
]

# td0 hands b a channel to a and runs b on core 0: b names a only by that
# channel
CHANNEL_ONLY = ("boot\n"
                "create a\n"
                "set a cores 0b11\n"
                "set a mon_api 0b11111111111\n"
                "set a receive on\n"
                "seal a\n"
                "getchan c a\n"
                "create b\n"
                "set b cores 0b11\n"
                "set b mon_api 0b11111111111\n"
                "send c b\n"
                "seal b\n"
                "switch b\n")
# a sealed child td0 may switch to on either core
SEALED_A = ("create a\n"
            "set a cores 0b11\n"
            "set a mon_api 0b11111111111\n"
            "seal a\n")
# each row: statements run after `boot`, the exit status and a substring of
# stderr; a denial the runner itself makes shows as the code `expect error`
# checks
SCRIPT_ROWS = [
    # parse errors
    ("@x create a", 2, "line 2: bad core prefix '@x'"),
    ("@1", 2, "line 2: core prefix without a statement"),
    ("expect bogus", 2, "line 2: unknown expect 'bogus'"),
    ("expect error BAD_HANDLE frob", 2, "line 2: unknown statement 'frob'"),
    ("create a\nseal a b", 2, "line 3: 'seal a b': bad arguments"),
    (SEALED_A + "switch a\nswitch ret\nexpect payload bogus", 2,
     "line 8: bad payload spec 'bogus'"),
    # each expect kind failing
    ("expect error SEALED seal td0", 1, "expected SEALED, got BAD_HANDLE"),
    ("expect view root X:0x100000:0x101000", 1, "view of root is"),
    ("carve r root 0x101000 0x102000 RW_\nrevoke r\nexpect owner r td0", 1,
     "region r was destroyed"),
    ("create a\ncarve r root 0x101000 0x102000 RW_\nsend r a\n"
     "expect owner r td0", 1, "region r owned by 1, expected 0"),
    ("carve r root 0x101000 0x102000 RW_\nexpect gone r", 1,
     "region r still exists"),
    ("create a\nexpect current a", 1, "core 0 runs domain 0, expected 1"),
    ("expect payload returned", 1, "no payload delivered"),
    (SEALED_A + "switch a\nswitch ret\nexpect payload revoked", 1,
     "expected revoked"),
    (SEALED_A + "@1 switch a\nrevoke a\n@1 expect payload revoked\n"
     "@1 expect payload revoked:a", 0, ""),
    (SEALED_A + "@1 switch a\nrevoke a\n@1 expect payload revoked:td0", 1,
     "payload is (2, 1), expected revoked:td0"),
    ("expect read 0x0 allow", 1, "read 0x0 denied, expected allow"),
    ("write-mem 0x100000 7\nexpect zero 0x100000 0x100001", 1,
     "[0x100000,0x100001) is not all zero"),
    ("expect delivered 40 td0", 1,
     "vector 40 never delivered in place to domain 0"),
    ("expect confidential nope td0 true", 1, "no report named 'nope'"),
    ("create a\nattest rep a\ncreate b\nexpect confidential rep b true", 1,
     "domain not visible in the report"),
    (SEALED_A + "attest rep a\nexpect confidential rep a true", 1,
     "predicate is False (exclusive-region=False;"),
    # script forms no bundled scenario uses
    ("getchan me self\nexpect error ATTRIBUTES_ON_CHANNEL send me td0 CLEAN",
     0, ""),
    ("create a\ngetchan c a\ncreate b\nsend c b\n"
     "expect error BAD_HANDLE send c b", 0, ""),
    ("create a\nset a cores 0b11\nset a mon_api 0b11111111111\n"
     "set a intr all deliver\nset a intr 3-5 report\nseal a\nswitch a\n"
     "irq 6\nexpect handler a\nirq 5\nexpect handler td0", 0, ""),
    ("create a\nset a reg 0 0x11 0x40\n"
     "expect error BAD_HANDLE set a reg 0 18 0", 0, ""),
    # the runner's own denials
    ("expect error BAD_HANDLE seal nobody", 0, ""),
    ("create a\nexpect error BAD_HANDLE create a", 0, ""),
    ("expect error BAD_HANDLE seal root", 0, ""),
    ("expect error BAD_HANDLE write-mem zz 1", 0, ""),
    ("create a\nexpect error BAD_HANDLE set a intr 3 bogus", 0, ""),
    ("create a\nexpect error BAD_HANDLE set a bogus 1", 0, ""),
    ("expect error NOT_A_CHILD revoke root", 0, ""),
]


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_region_tree_scenario_and_golden_trace(self, tmp_path):
        trace = tmp_path / "out.trace"
        assert run_cli("run", CONFIG, str(SCN / "region_tree.tyscn"),
                       "--trace", str(trace)) == 0
        assert trace.read_bytes() == (GOLDEN / "region_tree.trace").read_bytes()

    def test_trace_is_replayable_by_the_oracle(self, tmp_path):
        trace = tmp_path / "out.trace"
        assert run_cli("run", CONFIG, str(SCN / "cascade.tyscn"),
                       "--trace", str(trace)) == 0
        records = parse_log(trace.read_text())
        Oracle().replay(records)  # must not raise

    def test_empty_script_dumps_boot_state(self, tmp_path):
        script = tmp_path / "empty.tyscn"
        script.write_text("boot\n")
        dump = tmp_path / "state.json"
        assert run_cli("run", CONFIG, str(script), "--dump", str(dump)) == 0
        state = json.loads(dump.read_text())
        root = next(r for r in state["regions"] if r["kind"] == "root")
        assert root["owner"] == 0
        assert state["domains"][0]["state"] == "sealed"

    def test_expect_failure_exits_one(self, tmp_path):
        script = tmp_path / "bad.tyscn"
        script.write_text("boot\nexpect state td0 revoked\n")
        assert run_cli("run", CONFIG, str(script)) == 1

    def test_parse_error_exits_two(self, tmp_path):
        script = tmp_path / "broken.tyscn"
        script.write_text("frobnicate now\n")
        assert run_cli("run", CONFIG, str(script)) == 2

    def test_bad_config_exits_two(self, tmp_path):
        config = tmp_path / "bad.mcfg"
        config.write_text("memory 0x1001\ncores 1\nmonitor_reserved 0x0 0x1000\n")
        script = tmp_path / "ok.tyscn"
        script.write_text("boot\n")
        assert run_cli("run", str(config), str(script)) == 2

    def test_expected_error_statements(self, tmp_path):
        script = tmp_path / "errors.tyscn"
        script.write_text(
            "let a2 0x102000\n"
            "let a5 0x105000\n"
            "boot\n"
            "carve r2 root a2 a5 RW_\n"
            "expect error OUT_OF_RANGE alias rX root a2 a5 RW_\n"
            "expect error RIGHTS_ESCALATION alias rY r2 a2 a5 RWX\n"
            "expect read a2 allow\n"
            "expect read 0x0 deny\n")
        assert run_cli("run", CONFIG, str(script)) == 0

    def test_failed_expect_error_mismatch(self, tmp_path):
        script = tmp_path / "mismatch.tyscn"
        script.write_text(
            "let a2 0x102000\n"
            "let a5 0x105000\n"
            "boot\n"
            "expect error NOT_OWNER carve r2 root a2 a5 RWX\n")
        assert run_cli("run", CONFIG, str(script)) == 1

    def test_concurrent_mode_runs_scripts(self, tmp_path):
        assert run_cli("run", CONFIG, str(SCN / "region_tree.tyscn"),
                       "--mode", "concurrent") == 0

    def test_identical_inputs_identical_outputs(self, tmp_path):
        from capmon import parse_config
        from capmon.scenario import ScenarioRunner, parse_script
        config = parse_config(Path(CONFIG).read_text())
        statements = parse_script((SCN / "cascade.tyscn").read_text())
        runs = []
        for _ in range(2):
            runner = ScenarioRunner(config, seed=3)
            runner.run(statements)
            log = runner.engine.platform.access_log
            # the comparison covers every access only if none was dropped
            assert len(log) < LOG_KEEP
            accesses = [access[1:] for access in log]
            runs.append((dump_state(runner.engine),
                         runner.engine.trace.dump(), accesses))
        assert runs[0] == runs[1]

    def test_device_scenario(self, tmp_path):
        config = tmp_path / "dev.mcfg"
        config.write_text(
            "memory 0x200000\n"
            "cores 2\n"
            "monitor_reserved 0x0 0x100000\n"
            "device net0 0x200000 0x201000 33\n")
        script = tmp_path / "dev.tyscn"
        script.write_text(
            "boot\n"
            "devirq net0\n"
            "expect delivered 33 td0\n"
            "devirq net0 at 5\n"
            "step 10\n"
            "expect read 0x200000 deny\n"   # MMIO carved away from td0
            "expect read 0x100000 allow\n")
        assert run_cli("run", str(config), str(script)) == 0

    def test_quantum_flag_preempts(self, tmp_path):
        script = tmp_path / "quantum.tyscn"
        script.write_text(QUANTUM_SCRIPT)
        assert run_cli("run", CONFIG, str(script), "--quantum", "4") == 0

    def test_quantum_flag_preempts_in_concurrent_mode(self, tmp_path):
        script = tmp_path / "quantum.tyscn"
        script.write_text(QUANTUM_SCRIPT)
        assert run_cli("run", CONFIG, str(script), "--quantum", "4",
                       "--mode", "concurrent") == 0

    @pytest.mark.parametrize("flags", [
        ["--attest", "rep"],                # no NAME=PATH
        ["--attest", "rep=x", "--attest", "rep2"],
        ["--quantum", "-3"],
        ["--quantum", "0"],
        ["--seed", "-1"],
        ["--seed", str(1 << 64)],
    ])
    def test_bad_arguments_exit_two_before_running(self, tmp_path, capsys,
                                                   flags):
        trace, dump = tmp_path / "out.trace", tmp_path / "state.json"
        assert run_cli("run", CONFIG, str(SCN / "llm.tyscn"),
                       "--trace", str(trace), "--dump", str(dump),
                       *flags) == 2
        assert "parse error" in capsys.readouterr().err
        # no trace, no dump and no report was written
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["step", "concurrent"])
    def test_scheduled_device_interrupt_fires(self, tmp_path, mode):
        config = tmp_path / "dev.mcfg"
        config.write_text(DEVICE_CONFIG)
        script = tmp_path / "devirq.tyscn"
        script.write_text("boot\ndevirq net0 at 8\nstep 10\n")
        trace = tmp_path / "out.trace"
        assert run_cli("run", str(config), str(script), "--mode", mode,
                       "--trace", str(trace)) == 0
        irqs = [line for line in trace.read_text().splitlines()
                if " irq " in line]
        assert irqs == ["8 0 irq vector=0x21 device=1 -> ok handler=0 "
                        "delivered=inplace"]

    @pytest.mark.parametrize("mode", ["step", "concurrent"])
    def test_get_enumerate_and_irq_trace_their_calls(self, tmp_path, mode):
        script, trace = tmp_path / "read.tyscn", tmp_path / "out.trace"
        script.write_text(READ_SCRIPT)
        assert run_cli("run", CONFIG, str(script), "--mode", mode,
                       "--trace", str(trace)) == 0
        assert [line for line in trace.read_text().splitlines()
                if line.split()[2] in ("get_policy", "get_reg", "enumerate",
                                       "irq")] == READ_TRACE
        # the routed vector's handler is what `expect handler` checks
        script.write_text(READ_SCRIPT + "expect handler a\n")
        assert run_cli("run", CONFIG, str(script), "--mode", mode) == 1

    @pytest.mark.parametrize("prefix", ["@7", "@2", "@-1"])
    def test_core_outside_the_machine_exits_two(self, tmp_path, prefix):
        script = tmp_path / "core.tyscn"
        script.write_text(f"boot\n{prefix} irq 3\n")
        assert run_cli("run", CONFIG, str(script)) == 2

    @pytest.mark.parametrize("mode", ["step", "concurrent"])
    @pytest.mark.parametrize("statement", [
        "let a zz",
        "create",
        "set td0",
        "irq",
        "carve r1 root 0x101000 0x102000 QQ",
        "send root td0 BOGUS",
    ])
    def test_malformed_statement_exits_two(self, tmp_path, capsys, mode,
                                           statement):
        # exit 1 is kept for a failed expectation
        script = tmp_path / "bad.tyscn"
        script.write_text(f"boot\n{statement}\n")
        assert run_cli("run", CONFIG, str(script), "--mode", mode) == 2
        assert "parse error: line 2:" in capsys.readouterr().err

    @pytest.mark.parametrize("script, status, err", SCRIPT_ROWS)
    def test_script_forms_and_denials(self, tmp_path, capsys, script, status,
                                      err):
        path = tmp_path / "rows.tyscn"
        path.write_text(f"boot\n{script}\n")
        assert run_cli("run", CONFIG, str(path)) == status
        assert err in capsys.readouterr().err

    @pytest.mark.parametrize("statements", [
        # seal, set, get and revoke take only a domain capability: the
        # runner denies them before the engine's CHANNEL_NO_CONTROL could
        "expect error BAD_HANDLE seal a",
        "expect error BAD_HANDLE set a cores 0b1",
        "expect error BAD_HANDLE get a cores",
        "expect error BAD_HANDLE revoke a",
        # switch, send's destination, getchan and attest fall back to the
        # channel; the engine then decides
        "expect error CHANNEL_NO_CONTROL switch a",
        "expect error ATTRIBUTES_ON_CHANNEL send c a CLEAN",
        "getchan d a\nexpect error ATTRIBUTES_ON_CHANNEL send d a CLEAN",
        "attest rep a\nexpect confidential rep a false",
    ])
    def test_a_name_resolves_to_the_kinds_its_statement_takes(
            self, tmp_path, statements):
        script = tmp_path / "names.tyscn"
        script.write_text(CHANNEL_ONLY + statements + "\n")
        assert run_cli("run", CONFIG, str(script)) == 0

    @pytest.mark.parametrize("first, again", [
        ("create a", "create a"),
        ("carve r root 0x101000 0x102000 RW_",
         "carve r root 0x102000 0x103000 RW_"),
        ("carve r root 0x101000 0x102000 RW_",
         "alias r root 0x102000 0x103000 RW_"),
        ("getchan c self", "getchan c self"),
    ])
    def test_a_bound_name_makes_no_engine_call(self, tmp_path, first, again):
        # the statement binding a name already bound is denied before its
        # call, so the trace is that of the first binding alone
        script, trace = tmp_path / "rebind.tyscn", tmp_path / "out.trace"
        script.write_text(f"boot\n{first}\n")
        assert run_cli("run", CONFIG, str(script), "--trace", str(trace)) == 0
        once = trace.read_text()
        script.write_text(f"boot\n{first}\n"
                          f"expect error BAD_HANDLE {again}\n{again}\n")
        assert run_cli("run", CONFIG, str(script), "--trace", str(trace)) == 0
        assert trace.read_text() == once

    def test_attest_flag_naming_no_report_exits_one(self, tmp_path, capsys):
        script = tmp_path / "boot.tyscn"
        script.write_text("boot\nattest rep self\n")
        assert run_cli("run", CONFIG, str(script),
                       "--attest", f"other={tmp_path / 'rep.bin'}") == 1
        assert "script produced no report named 'other'" in \
            capsys.readouterr().err

    def test_core_outside_the_machine_runs_nothing(self):
        from capmon import parse_config
        from capmon.scenario import ScenarioRunner, ScriptError, parse_script
        runner = ScenarioRunner(parse_config(Path(CONFIG).read_text()))
        boot_trace = runner.engine.trace.dump()
        with pytest.raises(ScriptError, match="line 2: no core 7"):
            runner.run(parse_script("create a\n@7 create b\n"))
        assert runner.engine.trace.dump() == boot_trace
        assert runner.engine.platform.now == 0


class TestAttestationGolden:
    def test_text_projection_byte_stable(self, tmp_path):
        out1 = tmp_path / "a.bin"
        out2 = tmp_path / "b.bin"
        assert run_cli("run", CONFIG, str(SCN / "attest_demo.tyscn"),
                       "--attest", f"rep1={out1}") == 0
        assert run_cli("run", CONFIG, str(SCN / "attest_demo.tyscn"),
                       "--attest", f"rep1={out2}") == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.bin.txt").read_text() == \
            (GOLDEN / "attest_demo.txt").read_text()

    def test_attest_from_state_dump(self, tmp_path):
        report = tmp_path / "live.bin"
        dump = tmp_path / "state.json"
        assert run_cli("run", CONFIG, str(SCN / "attest_demo.tyscn"),
                       "--attest", f"rep1={report}",
                       "--dump", str(dump)) == 0
        meta = json.loads((tmp_path / "live.bin.meta.json").read_text())
        subject = next(int(k) for k, v in meta["names"].items()
                       if v == "td0")
        offline = tmp_path / "offline.bin"
        assert run_cli("attest", str(dump), str(subject),
                       "--out", str(offline)) == 0
        assert offline.read_bytes() == report.read_bytes()

    def test_attest_td0_from_state_dump(self, tmp_path):
        # td0's interrupt table is a default, not 256 entries, in the dump
        script = tmp_path / "self.tyscn"
        script.write_text("boot\nattest rep self\n")
        report = tmp_path / "live.bin"
        dump = tmp_path / "state.json"
        assert run_cli("run", CONFIG, str(script), "--attest",
                       f"rep={report}", "--dump", str(dump)) == 0
        assert json.loads(dump.read_text())["domains"][0]["policies"][
            "interrupts"] == []
        offline = tmp_path / "offline.bin"
        assert run_cli("attest", str(dump), "0", "--out", str(offline)) == 0
        assert offline.read_bytes() == report.read_bytes()
        assert " 0-255 -> {Deliver, registers: 0b0}," in \
            (tmp_path / "live.bin.txt").read_text()


class TestVerify:
    def pipeline(self, tmp_path, scenario="llm.tyscn"):
        report = tmp_path / "rep.bin"
        code = run_cli("run", CONFIG, str(SCN / scenario),
                       "--attest", f"rep={report}")
        return code, report

    def test_verify_accepts_own_report(self, tmp_path):
        code, report = self.pipeline(tmp_path)
        assert code == 0
        assert run_cli("verify", str(report),
                       "--meta", str(report) + ".meta.json") == 0

    def test_tampered_report_rejected(self, tmp_path, capsys):
        code, report = self.pipeline(tmp_path)
        blob = bytearray(report.read_bytes())
        blob[60] ^= 0x40
        report.write_bytes(bytes(blob))
        assert run_cli("verify", str(report),
                       "--meta", str(report) + ".meta.json") == 1
        assert "BAD_SIGNATURE" in capsys.readouterr().out

    def test_wrong_pcr_rejected(self, tmp_path, capsys):
        code, report = self.pipeline(tmp_path)
        meta = json.loads(Path(str(report) + ".meta.json").read_text())
        assert run_cli("verify", str(report),
                       "--key", meta["monitor_public_key"],
                       "--pcr", "00" * 32) == 1
        assert "MEASUREMENT_MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--key", "zz", "--pcr", "00" * 32],
        ["--key", "00" * 32, "--pcr", "0g"],
        ["--meta", "{meta}", "--nonce", "not-hex"],
    ])
    def test_non_hex_argument_exits_two(self, tmp_path, capsys, flags):
        code, report = self.pipeline(tmp_path)
        flags = [f.format(meta=f"{report}.meta.json") for f in flags]
        assert run_cli("verify", str(report), *flags) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("meta", [
        [1],
        {"monitor_public_key": "xyz", "pcr": "00"},
        {"monitor_public_key": "00", "pcr": 5},
    ])
    def test_malformed_meta_exits_two(self, tmp_path, capsys, meta):
        code, report = self.pipeline(tmp_path)
        path = tmp_path / "bad.meta.json"
        path.write_text(json.dumps(meta))
        assert run_cli("verify", str(report), "--meta", str(path)) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        (None, [1]),
        ("config.memory", "0x200000"),
        ("regions.0.range", [0x200000, 0x100000]),
        ("domains.0.regs", [1]),
        ("cores.0.id", 9),
        ("measurement", None),
    ])
    def test_malformed_dump_exits_two(self, tmp_path, capsys, field, value):
        script, dump = tmp_path / "boot.tyscn", tmp_path / "state.json"
        script.write_text("boot\n")
        assert run_cli("run", CONFIG, str(script), "--dump", str(dump)) == 0
        data = json.loads(dump.read_text())
        if field is None:
            data = value
        else:
            *path, last = field.split(".")
            target = data
            for key in path:
                target = target[int(key) if key.isdigit() else key]
            target[last] = value
        dump.write_text(json.dumps(data))
        assert run_cli("attest", str(dump), "0") == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("subject", ["1", "9"])
    def test_revoked_or_unknown_subject_exits_one(self, tmp_path, capsys,
                                                  subject):
        script, dump = tmp_path / "revoke.tyscn", tmp_path / "state.json"
        script.write_text("boot\ncreate a\nrevoke a\n")
        assert run_cli("run", CONFIG, str(script), "--dump", str(dump)) == 0
        assert run_cli("attest", str(dump), subject) == 1
        assert "unknown or revoked subject" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, err", [
        (["{dir}/missing.bin", "--meta", "{meta}"], "parse error: "),
        (["{junk}", "--meta", "{meta}"], "parse error: PARSE_ERROR"),
        (["{report}", "--meta", "{dir}/missing.json"], "parse error: "),
        (["{report}", "--meta", "{junk}"], "parse error: "),
        (["{report}"], "need --key and --pcr (or --meta)"),
        (["{report}", "--key", "00" * 32], "need --key and --pcr (or --meta)"),
    ])
    def test_unreadable_input_exits_two(self, tmp_path, capsys, argv, err):
        code, report = self.pipeline(tmp_path)
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"CAPA\x01")
        argv = [a.format(dir=tmp_path, report=report, junk=junk,
                         meta=f"{report}.meta.json") for a in argv]
        assert run_cli("verify", *argv) == 2
        assert err in capsys.readouterr().err

    def test_text_flag_prints_the_projection(self, tmp_path, capsys):
        code, report = self.pipeline(tmp_path)
        capsys.readouterr()
        assert run_cli("verify", str(report), "--meta",
                       f"{report}.meta.json", "--text") == 0
        assert capsys.readouterr().out == \
            "verify: accept\n" + Path(f"{report}.txt").read_text()

    def test_predicates_through_pipeline(self, tmp_path, capsys):
        code, report = self.pipeline(tmp_path)
        meta = json.loads(Path(str(report) + ".meta.json").read_text())
        names = {v: k for k, v in meta["names"].items()}
        # engine td2 renders as report-local td1, its parent as td0
        assert run_cli("verify", str(report),
                       "--meta", str(report) + ".meta.json",
                       "--confidential", "td1",
                       "--encapsulated", "td1", "td0") == 0
        out = capsys.readouterr().out
        assert "is_confidential(td1) = true" in out
        assert "is_encapsulated(td1, td0) = true" in out

    @pytest.mark.parametrize("scenario,flag,expected", [
        ("llm_mut_send.tyscn", "--encapsulated", "no-send"),
        ("llm_mut_noclean.tyscn", "--confidential", "clean-on-exclusive"),
        ("llm_mut_shared.tyscn", "--confidential", "exclusive-region"),
    ])
    def test_mutants_flip_exactly_one_clause(self, tmp_path, capsys,
                                             scenario, flag, expected):
        code, report = self.pipeline(tmp_path, scenario)
        assert code == 0  # the scripts assert their own expectations
        if flag == "--confidential":
            rc = run_cli("verify", str(report),
                         "--meta", str(report) + ".meta.json",
                         "--confidential", "td1")
        else:
            rc = run_cli("verify", str(report),
                         "--meta", str(report) + ".meta.json",
                         "--encapsulated", "td1", "td0")
        assert rc == 1
        out = capsys.readouterr().out
        failing = [line for line in out.splitlines()
                   if line.strip().startswith("- ")]
        assert len(failing) == 1
        assert expected in failing[0]


class TestInstalledEntryPoint:
    def test_console_script_if_installed(self, tmp_path):
        exe = shutil.which("capmon")
        command, env = [exe], None
        if exe is None:
            # not installed: run the same entry point from the source tree
            command = [sys.executable, "-m", "capmon.cli"]
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(
                None, [str(SRC), os.environ.get("PYTHONPATH")])))
        trace = tmp_path / "t.trace"
        proc = subprocess.run(
            command + ["run", CONFIG, str(SCN / "region_tree.tyscn"),
                       "--trace", str(trace)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
