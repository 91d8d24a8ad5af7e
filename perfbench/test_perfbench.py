"""Tests of the benchmark itself: each workload's checker counts a wrong
output as a failed op, inputs follow the seed, and traced self times are
consistent with the op time."""

import dataclasses
import subprocess
import time
from types import SimpleNamespace

import numpy as np
import pytest

import spans
import worker
import workloads
from qetsim import checks, cli, model

WORKLOADS = workloads.WORKLOADS
SEED = 7


def _failed_ops(name, output):
    """(attempted, failed) of a zero-second run whose op returns `output`."""
    wl = dataclasses.replace(WORKLOADS[name], run=lambda inp, tracer: output)
    raw = worker.measure(wl, SEED, 0.0)
    return len(raw["ok"]), len(raw["ok"]) - sum(raw["ok"])


def test_oracle_wrong_output_is_a_failure():
    inp = WORKLOADS["oracle"].make_input(SEED, 0)
    exact = workloads._closed_maximum(inp)
    right = SimpleNamespace(target=inp[1], value=exact + 1e-10)
    assert _failed_ops("oracle", right) == (1, 0)
    wrong = SimpleNamespace(target=inp[1], value=exact + 1e-7)
    assert _failed_ops("oracle", wrong) == (1, 1)
    other = [t for t in workloads.ORACLE_TARGETS if t != inp[1]][0]
    assert _failed_ops("oracle", SimpleNamespace(target=other,
                                                 value=exact)) == (1, 1)


def test_chain_wrong_output_is_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "L_LIST", (4, 50, 100))
    wl = WORKLOADS["chain_scan"]
    inp = wl.make_input(SEED, 0)
    assert inp[1] == (4, 50, 100)
    scan = wl.run(inp)
    assert _failed_ops("chain_scan", scan) == (1, 0)
    xx = (scan.xx_abs[0] + 1e-9,) + scan.xx_abs[1:]
    for spoiled in (dataclasses.replace(scan, xx_abs=xx),
                    dataclasses.replace(scan, slope=0.5),
                    dataclasses.replace(scan, slope=float("nan")),
                    dataclasses.replace(scan, lengths=(4, 50))):
        assert _failed_ops("chain_scan", spoiled) == (1, 1)


@pytest.fixture(scope="module")
def cli_csvs(tmp_path_factory):
    """CSV text of each CSV command of the ``cli`` workload, as written by
    the command line for the workload's own arguments."""
    out = tmp_path_factory.mktemp("cli")
    texts = {}
    for op, command in enumerate(workloads.CLI_COMMANDS):
        if command == "verify":
            continue
        _, args = WORKLOADS["cli"].make_input(SEED, op)
        path = out / f"{command}.csv"
        assert cli.main([command, *args, "--out", str(path)]) == 0
        texts[command] = path.read_text()
    return texts


def _set_cell(text, column, row, value):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _spoiled_csvs(command, text):
    """Wrong outputs of one CSV command, each breaking one check."""
    spoiled = [text.replace(text.splitlines()[0], "h,E_1", 1),
               "".join(text.splitlines(keepends=True)[:-1])]
    if command == "spectrum":
        e1 = float(text.splitlines()[6].split(",")[1])
        spoiled.append(_set_cell(text, "E_1", 5, f"{e1 + 1e-6:.12e}"))
    elif command == "sweep":
        spoiled.append(_set_cell(text, "extracted_max", 0, "-1.0e-09"))
        spoiled.append(_set_cell(text, "net_at_site_optimum", 99, "1.0e-09"))
    elif command == "thermo":
        spoiled.append(_set_cell(text, "budget_residual", 3, "1.0e-09"))
    else:
        spoiled.append(_set_cell(text, "ed_residual", 0, "1.0e-09"))
        spoiled.append(_set_cell(text, "slope", 6, "5.0e-01"))
        spoiled.append(_set_cell(text, "slope", 2, "nan"))
    return spoiled


def _cli_failed(command, proc):
    """Failed ops of a one-op ``cli`` run whose op returns `proc`."""
    wl = dataclasses.replace(WORKLOADS["cli"], round_ops=1,
                             make_input=lambda seed, op: (command, ()),
                             run=lambda inp, tracer: proc)
    raw = worker.measure(wl, SEED, 0.0)
    return len(raw["ok"]) - sum(raw["ok"])


@pytest.mark.parametrize("command", workloads.CLI_COMMANDS[:4])
def test_cli_wrong_csv_is_a_failure(command, cli_csvs, tmp_path,
                                    monkeypatch):
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    path = workloads._csv_path(command)
    path.parent.mkdir(parents=True)
    done = subprocess.CompletedProcess([], 0, "", "")
    path.write_text(cli_csvs[command])
    assert workloads.cli_check((command, ()), done) == []
    assert _cli_failed(command, done) == 0
    for text in _spoiled_csvs(command, cli_csvs[command]):
        path.write_text(text)
        assert _cli_failed(command, done) == 1
    path.write_text(cli_csvs[command])
    assert _cli_failed(command, subprocess.CompletedProcess([], 2, "", "")) == 1


def test_cli_wrong_verify_is_a_failure():
    def verify(stdout, code=0):
        return subprocess.CompletedProcess([], code, stdout, "")

    assert _cli_failed("verify", verify("PASS  x\nall checks passed\n")) == 0
    assert _cli_failed("verify", verify("FAIL  x\nVERIFICATION FAILED\n")) == 1
    assert _cli_failed("verify", verify("", code=1)) == 1
    # a whole zero-second run is one round of the five commands
    rounds = len(workloads.CLI_COMMANDS)
    assert _failed_ops("cli", verify("", code=1)) == (rounds, rounds)


def test_changed_fingerprint_within_a_run_is_a_failure():
    outputs = iter([subprocess.CompletedProcess([], 0, "all checks passed\n", ""),
                    subprocess.CompletedProcess([], 0, "other\nall checks passed\n", "")])
    wl = dataclasses.replace(
        WORKLOADS["cli"], round_ops=2, make_input=lambda seed, op: ("verify", ()),
        run=lambda inp, tracer: next(outputs),
        fingerprint=lambda op, inp, out: {"verify": out.stdout})
    raw = worker.measure(wl, SEED, 0.0)
    assert raw["ok"] == [True, False]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_new_seed_new_inputs(name):
    wl = WORKLOADS[name]
    ops = range(2 * len(workloads.CLI_COMMANDS))
    first = [wl.make_input(SEED, op) for op in ops]
    assert [wl.make_input(SEED, op) for op in ops] == first
    assert [wl.make_input(SEED + 1, op) for op in ops] != first
    if wl.in_process:
        assert wl.make_input(SEED, workloads.WARM_UP_OP) not in first


def _traced(run):
    tracer = spans.Tracer()
    with tracer.installed(spans.traced_functions(spans.per_layer_names())):
        with tracer.op_span(0):
            run()
    self_ns = tracer.self_ns()
    root = list(tracer.parent).index(-1)
    op_ns = tracer.end[root] - tracer.start[root]
    layer_ns = np.delete(self_ns, root)
    assert len(layer_ns) > 0
    assert (self_ns >= 0).all()
    assert layer_ns.sum() <= op_ns
    assert self_ns.sum() == op_ns
    return tracer.layer_metrics(spans.per_layer_names())


def test_traced_self_times_chain_scan(monkeypatch):
    monkeypatch.setattr(workloads, "L_LIST", (4, 50, 100))
    wl = WORKLOADS["chain_scan"]
    metrics = _traced(lambda: wl.run(wl.make_input(SEED, 0)))
    assert metrics["chain.edge_correlators.modes"] == 6 + 52 + 102
    assert metrics["chain.edge_correlators.L100.self_s"] > 0
    assert metrics["model.ground_state.calls"] == 0


def test_traced_self_times_thermo_command(tmp_path):
    out = str(tmp_path / "thermo.csv")
    metrics = _traced(lambda: cli.main(["thermo", "--h-steps", "5",
                                        "--out", out]))
    assert metrics["model.ground_state.calls"] == 5
    assert metrics["protocol.run_protocol.calls"] == 5
    assert metrics["thermo.second_law_report.self_s"] > 0
    assert metrics["thermo.thermo_sweep.self_s"] > 0
    assert metrics["chain.edge_correlators.self_s"] == 0


def test_traced_cli_calls_are_exact_per_round():
    """The ops of a ``cli`` round share one op id in the trace, so a layer
    that the commands of a round call a different number of times still
    gets an integer call count, the same in every round."""
    calls = {"spectrum": 1, "thermo": 3}

    def run(inp, tracer):
        time.sleep(0.002)
        for _ in range(calls[inp[0]]):
            model.ground_state(model.ModelParams(h=1.0, k=1.0))

    wl = dataclasses.replace(
        WORKLOADS["cli"], round_ops=2, run=run,
        make_input=lambda seed, op: (("spectrum", "thermo")[op % 2], ()),
        check=lambda inp, out: [], fingerprint=lambda op, inp, out: {})
    tracer = spans.Tracer()
    with tracer.installed(["model.ground_state"]):
        raw = worker.measure(wl, SEED, 0.05, tracer)
    rounds = len(raw["ok"]) // 2
    assert rounds >= 2
    code = tracer.names.index("model.ground_state")
    span_ops = np.asarray(tracer.op)[np.asarray(tracer.name) == code]
    assert np.bincount(span_ops).tolist() == [4] * rounds
    metrics = tracer.layer_metrics(["model.ground_state.calls"])
    assert metrics == {"model.ground_state.calls": 4.0}


def test_tracer_restores_every_binding():
    ground_state, check_list = model.ground_state, checks.CHECKS
    tracer = spans.Tracer()
    with tracer.installed(spans.traced_functions(spans.per_layer_names())):
        assert model.ground_state is not ground_state
        assert checks.CHECKS != check_list
        assert checks.check_brute_force in checks.CHECKS
    assert model.ground_state is ground_state
    assert checks.CHECKS is check_list


def test_traced_cli_spans_merge_under_the_op(tmp_path):
    """The traced ``cli`` path: a command run under spans.main writes its
    spans, and the parent op adopts them as children of its root span."""
    spans_file = tmp_path / "spans.npz"
    tracer = spans.Tracer()
    with tracer.op_span(5):
        code = spans.main([str(spans_file), "spectrum", "--h-steps", "3",
                           "--out", str(tmp_path / "spectrum.csv")])
        tracer.adopt(spans_file)
    assert code == 0
    names = [tracer.names[c] for c in tracer.name]
    assert names[:2] == ["op", "cli.main"]
    assert names.count("model.even_sector_spectrum") == 3
    assert list(tracer.parent)[:2] == [-1, 0]
    assert set(tracer.op) == {5}
    assert (tracer.self_ns() >= 0).all()


def test_benchmark_names_match_the_library():
    names = spans.per_layer_names()
    for qualified in spans.traced_functions(names):
        module, function = qualified.split(".")
        assert callable(getattr(getattr(__import__("qetsim"), module),
                                function)), qualified
    check_metrics = {n.split(".")[1] for n in names if n.startswith("checks.")}
    assert check_metrics == {fn.__name__ for fn in checks.CHECKS}
