"""The CLI's exit contract under arbitrary input bytes and flag values.

``main`` runs in process with stdout and stderr captured. Every argv drawn
here is one argparse accepts (valued options use the ``--flag=value`` form,
so a value such as ``-inf`` is not read as an option), so usage errors are
out of scope. Whatever the input and the values, the CLI returns 0, 2 or 3,
raises nothing, and a non-zero return ends stderr with its only ``error: ``
line.
"""

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from clozedep.cli import main

SPECIAL_FLOATS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e308,
    5e-5, 1e-4, 0.2, 0.5, 1.0, 2.0,
)
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())

cells = st.sampled_from(["0", "1", "0", "1", "NA", "", " 1"])
grids = st.tuples(st.integers(1, 8), st.integers(1, 12)).flatmap(
    lambda shape: st.lists(
        st.lists(cells, min_size=shape[0], max_size=shape[0]),
        min_size=shape[1], max_size=shape[1],
    )
).map(lambda rows: "".join(",".join(row) + "\n" for row in rows).encode())
inputs = st.one_of(st.binary(max_size=200), grids)

# int() accepts any Unicode decimal digits, so the free-text block lists
# carry none, and no drawn list plants more than 30 items.
no_digits = st.text(alphabet=st.characters(blacklist_categories=("Nd",)))
block_lists = st.one_of(
    st.lists(st.integers(-2, 10), min_size=1, max_size=3).map(
        lambda sizes: ",".join(map(str, sizes))
    ),
    no_digits,
)
base_ps = st.one_of(
    st.lists(floats, min_size=1, max_size=3).map(lambda ps: ",".join(map(repr, ps))),
    st.text(),
)


def valued(flag, values):
    """No option, or ``flag=value`` for one drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def switch(flag):
    return st.sampled_from([[], [flag]])


def choice(flag, options):
    return valued(flag, st.sampled_from(options))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def assert_contract(code, err_lines):
    assert code in (0, 2, 3)
    errors = [line for line in err_lines if line.startswith("error: ")]
    if code == 0:
        assert errors == []
    else:
        assert errors == err_lines[-1:]


analyze_flags = st.tuples(
    st.one_of(st.just(["--sweep"]), floats.map(lambda x: [f"--a-crit={x!r}"])),
    choice("--mode", ["neighborhood", "partition"]),
    choice("--sd", ["population", "sample"]),
    valued("--band", st.one_of(
        st.text(), st.tuples(floats, floats).map(lambda b: f"{b[0]!r}:{b[1]!r}")
    )),
    choice("--format", ["json", "csv"]),
    choice("--plot", ["ascii", "svg", "none"]),
    switch("--transpose"),
    valued("--delimiter", st.one_of(st.sampled_from([",", ";", "\t", '"']), st.text())),
    choice("--missing", ["error", "zero"]),
    switch("--dump-distances"),
    switch("--header"),
    switch("--id-column"),
    choice("--strategy", ["exact", "grid"]),
    valued("--grid-step", floats.map(repr)),
    st.booleans(),
)


@settings(max_examples=200)
@given(data=inputs, flags=analyze_flags)
def test_analyze_keeps_exit_contract(tmp_path_factory, data, flags):
    folder = tmp_path_factory.mktemp("analyze")
    path = folder / "input.csv"
    path.write_bytes(data)
    *options, write_files = flags
    argv = ["analyze", str(path), *sum(options, [])]
    if write_files:
        argv.append(f"--out={folder / 'run'}")
    assert_contract(*run(argv))


simulate_flags = st.tuples(
    st.integers(max_value=50).map(lambda m: [f"--examinees={m}"]),
    block_lists.map(lambda b: [f"--blocks={b}"]),
    choice("--model", ["duplicate_blocks", "logistic_latent"]),
    valued("--eps", floats.map(repr)),
    valued("--base-p", base_ps),
    valued("--lambda", floats.map(repr)),
    valued("--seed", st.integers()),
)


@settings(max_examples=100)
@given(flags=simulate_flags)
def test_simulate_keeps_exit_contract(flags):
    assert_contract(*run(["simulate", *sum(flags, [])]))
