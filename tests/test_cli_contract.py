"""The CLI's contract over seeded mutations of its inputs.  A mutation sets
one to three keys of the bundled config (units kept), or of a synthesized
trace's header and rows, to boundary values and extreme magnitudes.  Every
command then ends in exit 0 with its stable JSON key set, in the refusal
contract of conftest.assert_refused or, for fit alone, in exit 2 with
converged false: never in an exception or a warning.  The examples of a test
share capfd, which run_cli empties after each command, and one directory from
tmp_path_factory, whose files each example rewrites."""

import re

from hypothesis import example, given, settings, strategies as st

from sqzlab import serialize_trace

from conftest import CANONICAL_CONFIG, assert_refused, bundled_trace, run_cli, strict_json

VALUES = ("0", "-1", "5e-324", "1e-300", "1e154", "1.7e308", "nan", "inf")
# values at the edge of one key's own domain; no accepted sample count
# exceeds 2001, so no example allocates much
EDGES = {"samples": ("2", "40", "2001"), "jitter": ("19.3", "19.4"),
         "clearance": ("3236", "3237")}
BUNDLED = CANONICAL_CONFIG.read_text()
CONTRACT = settings(derandomize=True, database=None, deadline=1000, max_examples=150)


def _mutations(fields):
    """One to three distinct fields, each set to one of VALUES or its EDGES."""
    pair = st.sampled_from(fields).flatmap(
        lambda field: st.tuples(st.just(field), st.sampled_from(VALUES + EDGES.get(field, ()))))
    return st.lists(pair, min_size=1, max_size=3, unique_by=lambda kv: kv[0]).map(dict)


def _keys(stdout):
    """(key tuple, report) of a JSON report, or of a table whose rows share it."""
    report = strict_json(stdout)
    (keys,) = {tuple(row) for row in (report if isinstance(report, list) else [report])}
    return keys, report


def _check(result, keys, out=None):
    """One command's outcome against the contract; keys None for synth,
    whose success is the trace it writes at out."""
    code, stdout, _ = result
    if code == 1:
        assert_refused(result, out=out)
    elif keys is None:
        assert code == 0 and out.exists(), result
    else:
        got, report = _keys(stdout)
        assert got == keys and (code == 0 or code == 2 and report["converged"] is False), result


def test_config_mutations_end_in_a_report_or_a_refusal(capfd, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("config")
    cfg, out = workdir / "mutated.cfg", workdir / "trace.csv"
    commands = {name: [token.format(cfg=cfg, out=out) for token in argv.split()] for name, argv in {
        "predict": "predict --config {cfg} --circuit-noise --format json",
        "sweep": "sweep --config {cfg} --powers 20mW,61mW,200mW --format json",
        "reconcile": "reconcile --config {cfg} --measured=-2.75,7.00 --format json",
        "synth": "synth --config {cfg} --seed 1 --out {out}",
        "fit": "fit --trace {out} --config {cfg} --format json"}.items()}
    cfg.write_text(BUNDLED)
    results = {name: run_cli(capfd, *argv) for name, argv in commands.items()}
    assert [code for code, _, _ in results.values()] == [0] * 5
    keys = {name: _keys(stdout)[0] for name, (_, stdout, _) in results.items() if name != "synth"}

    @CONTRACT
    @given(_mutations(re.findall(r"^(\w+) = [\d.]", BUNDLED, re.M)))
    # a floor that underflows to 0: a jittered fit's s_min Jacobian column is 0/0
    @example({"clearance": "1e154", "jitter": "3"})
    # jitter draws that overflow to inf, which np.cos warns on
    @example({"jitter": "1.7e308"})
    # a decay rate that overflows: JSON has no Infinity to report it
    @example({"l": "1e-300"})
    def check(mutation):
        out.unlink(missing_ok=True)
        text = BUNDLED
        for key, value in mutation.items():
            text = re.sub(rf"^{key} = [\d.]+", f"{key} = {value}", text, flags=re.M)
        cfg.write_text(text)
        for name, argv in commands.items():
            if name != "fit" or out.exists():
                _check(run_cli(capfd, *argv), keys.get(name), out if name == "synth" else None)

    check()


def test_trace_mutations_end_in_a_fit_or_a_refusal(capfd, tmp_path_factory):
    trace = tmp_path_factory.mktemp("trace") / "mutated.csv"
    text = serialize_trace(bundled_trace(42))
    header, data = text.split("time_s,power_db\n")
    fit = ["fit", "--trace", str(trace), "--config", str(CANONICAL_CONFIG), "--format", "json"]
    trace.write_text(text)
    keys = _keys(run_cli(capfd, *fit)[1])[0]
    rows = [f"{column} {i}" for i in (0, 1, 6, 200, 400) for column in ("time", "power")]

    @CONTRACT
    @given(_mutations(re.findall(r"^# (\w+)=", header, re.M) + rows))
    def check(mutation):
        """Each header key's value, or the time or power of row i, replaced."""
        head, table = header, [row.split(",") for row in data.splitlines()]
        for field, value in mutation.items():
            if field in rows:
                column, i = field.split()
                table[int(i)][column == "power"] = value
            else:
                head = re.sub(rf"^# {field}=.*$", f"# {field}={value}", head, flags=re.M)
        trace.write_text(head + "time_s,power_db\n" + "".join(f"{t},{p}\n" for t, p in table))
        _check(run_cli(capfd, *fit), keys)

    check()
