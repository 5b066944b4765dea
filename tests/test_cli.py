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
from capmon.oracle import Oracle
from capmon.state import dump_state
from capmon.trace import parse_log

SRC = Path(__file__).parent.parent / "src"
SCN = SRC / "capmon" / "scenarios"
GOLDEN = Path(__file__).parent / "golden"
CONFIG = str(SCN / "small.mcfg")


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
            accesses = [(a.step, a.core, a.domain, a.addr, a.kind, a.allowed)
                        for a in runner.engine.platform.access_log]
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
        script.write_text(
            "boot\n"
            "create tdq\n"
            "set tdq cores 0b11\n"
            "set tdq mon_api 0b11111111111\n"
            "set tdq intr all noreport\n"
            "seal tdq\n"
            "switch tdq\n"
            "step 10\n"
            "expect current td0\n"
            "expect payload interrupt:32\n")
        assert run_cli("run", CONFIG, str(script), "--quantum", "4") == 0


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
