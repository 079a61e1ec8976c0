"""The bundled-program contract and the ``repro.ebpf.verify`` CLI.

Every bundled case's verdict (and rejection wording) is pinned here —
the same contract the CI ``verify-smoke`` job enforces through
``python -m repro.ebpf.verify --strict``.  Also covers the new
verifier capabilities end to end through their canonical programs:
bounded loops, variable-offset access, kptr region sizing, and the
rejection diagnostics (``--explain``).
"""

import json

import pytest

from repro.ebpf.insn import (
    Alu,
    Call,
    Exit,
    Imm,
    JmpIf,
    Load,
    Mov,
    Program,
    Store,
    R0,
    R1,
    R6,
)
from repro.ebpf.kfunc_meta import default_registry
from repro.ebpf.progs import bundled_cases, get_case, runnable_registry
from repro.ebpf.verifier import Verifier, VerifierError
from repro.ebpf.verify import main as verify_main
from repro.ebpf.vm import Vm


@pytest.mark.parametrize("case", bundled_cases(), ids=lambda c: c.name)
def test_bundled_verdicts(case):
    verifier = Verifier(default_registry())
    if case.accept:
        vp = verifier.verify(case.prog)
        assert vp.stats.states_explored > 0
    else:
        with pytest.raises(VerifierError) as exc:
            verifier.verify(case.prog)
        assert case.reject_match in str(exc.value)


def test_accepted_cases_elide_checks():
    no_elision_expected = {"loop_counted", "range_dead_branch"}
    for case in bundled_cases():
        if not case.accept:
            continue
        vp = Verifier(default_registry()).verify(case.prog)
        if case.name in no_elision_expected:
            continue
        assert vp.stats.checks_elided > 0, case.name


def test_loop_counted_bounds_recorded():
    vp = Verifier(default_registry()).verify(get_case("loop_counted").prog)
    assert vp.stats.loops_bounded == 1
    assert vp.stats.max_trip_count == 15
    assert vp.annotations.loop_bounds
    # The accepted loop actually runs and computes sum(0..15).
    r0 = Vm(runnable_registry(), proofs=vp).run(vp.prog)
    assert r0 == sum(range(16))


def test_kptr_size_bounds_accesses():
    """Accesses through ``bpf_obj_new(N)`` are bounded by N, not by the
    generic region default (regression: fuzz-found soundness hole)."""

    def prog(store_off):
        return Program(
            [
                Mov(R1, Imm(64)),
                Call("bpf_obj_new"),
                JmpIf("eq", R0, Imm(0), 7),
                Mov(R6, R0),
                Store(R6, store_off, Imm(1)),
                Mov(R1, R6),
                Call("bpf_obj_drop"),
                Mov(R0, Imm(0)),
                Exit(),
            ],
            name="kptr_size",
        )

    verifier = Verifier(default_registry())
    vp = verifier.verify(prog(56))          # last in-bounds u64
    assert Vm(runnable_registry(), proofs=vp).run(vp.prog) == 0
    with pytest.raises(VerifierError, match="out of bounds"):
        verifier.verify(prog(64))           # one past the declared size


def test_rejection_diagnostics_carry_path_and_state():
    case = get_case("pkt_missing_guard")
    with pytest.raises(VerifierError) as exc:
        Verifier(default_registry()).verify(case.prog)
    err = exc.value
    assert err.pc == 1
    assert err.insn_text is not None
    explain = err.explain()
    assert "at:" in explain
    assert "path: 0 -> 1" in explain
    assert "state:" in explain


# -- CLI ---------------------------------------------------------------------


def test_cli_list(capsys):
    assert verify_main(["--list"]) == 0
    out = capsys.readouterr().out
    for case in bundled_cases():
        assert case.name in out


def test_cli_strict_all_bundled(capsys):
    assert verify_main(["--strict"]) == 0
    out = capsys.readouterr().out
    assert "UNEXPECTED" not in out
    assert f"{len(bundled_cases())} programs" in out


def test_cli_single_program_prints_facts(capsys):
    assert verify_main(["--program", "pkt_guarded_read"]) == 0
    out = capsys.readouterr().out
    assert "mem-check elided" in out
    assert "r2=pkt" in out                      # interleaved range facts


def test_cli_explain_on_rejection(capsys):
    assert verify_main(["--program", "div_maybe_zero", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "REJECT" in out and "division by zero" in out
    assert "path:" in out


def test_cli_json_report(capsys):
    assert verify_main(["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["unexpected"] == 0
    assert report["summary"]["programs"] == len(bundled_cases())
    by_name = {r["name"]: r for r in report["programs"]}
    assert by_name["nf_classifier"]["verdict"] == "accept"
    assert by_name["nf_classifier"]["safe_div"] == [15]


def test_cli_jit_backend_bench(capsys):
    """`--bench` compiles every accepted program as a one-stage fused
    chain and proves interp/fused parity; strict mode fails on any
    mismatch.  Programs get the same ``compiled`` report, and the same
    summary line, as ``--chains`` gives a chain."""
    assert verify_main(["--bench", "--strict", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["unexpected"] == 0
    assert set(report["caches"]) == {"fused"}
    accepted = [r for r in report["programs"] if r["verdict"] == "accept"]
    assert accepted
    for r in accepted:
        compiled = r["compiled"]
        assert compiled["compile_ms"] > 0
        assert compiled["parity"] is True, r["name"]
        assert compiled["interp"]["cycles"] == compiled["fused"]["cycles"]
        for key in ("n_nodes", "inlined_kfuncs", "forwarded_loads",
                    "hoisted_calls", "encodes_packet"):
            assert key in compiled, (r["name"], key)
    by_name = {r["name"]: r for r in accepted}
    # The sketch NF's counted loop is unrolled (3 trips -> 4 copies).
    assert by_name["nf_cm_sketch"]["compiled"]["unrolled"] == {
        "nf_cm_sketch": {"12": 4}
    }
    assert "compiled" not in next(
        r for r in report["programs"] if r["verdict"] == "reject")

    assert verify_main(["--bench", "--program", "nf_cm_sketch"]) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("FUSED")]
    assert "unrolled nf_cm_sketch pc 12 x4" in line
    assert line.endswith("; parity OK)")


def test_cli_asm_file(tmp_path, capsys):
    good = tmp_path / "good.s"
    good.write_text("r0 = 0\nexit\n")
    assert verify_main(["--asm", str(good)]) == 0

    bad = tmp_path / "bad.s"
    bad.write_text("r0 = *(u64 *)(r10 -8)\nexit\n")
    assert verify_main(["--asm", str(bad)]) == 1      # verifier reject

    junk = tmp_path / "junk.s"
    junk.write_text("not an instruction\n")
    assert verify_main(["--asm", str(junk)]) == 2     # parse error
    capsys.readouterr()

    # --bench compiles an accepted --asm program too.
    assert verify_main(["--asm", str(good), "--bench", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["compiled"]["parity"] is True


@pytest.mark.parametrize("argv, message", [
    (["--program", "nope"], "error: no bundled program 'nope'"),
    (["--asm", "MISSING"], "error: cannot read "),
    (["--asm", "BINARY"], "is not UTF-8 text"),
    (["--max-states", "0"], "error: --max-states must be at least 1"),
    (["--max-states", "-5"], "error: --max-states must be at least 1"),
])
def test_cli_bad_input_exits_2(tmp_path, capsys, argv, message):
    """An unknown program, unreadable input and a non-positive state
    budget are usage errors: exit 2 with one ``error:`` line, no
    traceback."""
    binary = tmp_path / "binary.s"
    binary.write_bytes(b"r0 = 0\n\xff\xfe\nexit\n")
    paths = {"MISSING": str(tmp_path / "missing.s"), "BINARY": str(binary)}
    argv = [paths.get(a, a) for a in argv]
    assert verify_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert message in lines[0]


def test_get_case_unknown_name():
    with pytest.raises(KeyError, match="no bundled program"):
        get_case("nope")
