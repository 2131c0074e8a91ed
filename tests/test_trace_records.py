"""The per-iteration records of a trace: pinned values, snapshots, list behaviour.

The digests were recorded while every trace still held one ``TraceRecord``
object per iteration, so they pin what each record gives field by field:
its value and its type, ``None`` wherever a field is absent.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import anderson_pi as ap
from anderson_pi import diagnostics
from anderson_pi.solver import DivergenceError, Scheme, SolverConfig, TraceRecord

# every field but wall_nanos, which holds measured time
PINNED_FIELDS = tuple(
    f.name for f in dataclasses.fields(TraceRecord) if f.name != "wall_nanos"
)


def render(value):
    if isinstance(value, np.ndarray):
        return f"ndarray[{value.dtype}]{value.shape}{value.tolist()!r}"
    # repr tells every float apart, -0.0 and nan included, and a float from a bool
    return repr(value)


def record_rows(records):
    return [
        "|".join(f"{name}={render(getattr(rec, name))}" for name in PINNED_FIELDS)
        for rec in records
    ]


def record_digest(records):
    """sha256 of the repr of every pinned field of every record, in order."""
    return hashlib.sha256("\n".join(record_rows(records)).encode()).hexdigest()


def outcome(mdp, cfg):
    try:
        return ap.run(mdp, cfg)
    except DivergenceError as exc:
        return exc


MELLOW5 = ap.OperatorSpec(ap.OperatorKind.MELLOW_MAX, 5.0)

RUNS = {
    "vanilla": dict(scheme=Scheme.VANILLA_VI),
    "kkt": dict(scheme=Scheme.ANDERSON_KKT, m=5),
    "stable-aa": dict(scheme=Scheme.STABLE_AA, m=5, eta=0.1),
    "stable-aa-full": dict(
        scheme=Scheme.STABLE_AA, m=5, eta=0.5, diagnostics_level="full"
    ),
}

RUN_DIGESTS = {
    "vanilla": (432, "5642d1d3b92bac403ece36c545464be9f5ae6b1a9a253e23ebfb9f03d28a79ef"),
    "kkt": (36, "3f4aa5f462ec290eba98beecae8f06f05d46834ade2b061ffa963ff61b78aecf"),
    "stable-aa": (296, "ff2ec3c194e742dc89c09a8194dd1aa2f5f7c29ed78d188edecb295a0afca74d"),
    "stable-aa-full": (
        396, "590a823ec5ad30c51e84d37168950eb145d5cddd4291f6cd1462a25060a53334"
    ),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_run_records_pinned(name):
    mdp = ap.generate_random_mdp(5, 30, 4, 3, 1.0, 0.95)
    tr = ap.run(mdp, SolverConfig(operator=MELLOW5, tol=1e-10, **RUNS[name]))
    assert (len(tr.records), record_digest(tr.records)) == RUN_DIGESTS[name]


def safeguard_ensemble():
    # at tol 1e-16 the residuals plateau and the guard restarts some windows
    mdps = [ap.generate_random_mdp(s, 10, 3, 2, 1.0, 0.9) for s in range(6, 10)]
    common = dict(operator=MELLOW5, tol=1e-16, max_iter=400, safeguard=True)
    configs = [
        SolverConfig(scheme=Scheme.ANDERSON_KKT, m=3, **common),
        SolverConfig(
            scheme=Scheme.STABLE_AA, m=3, eta=1e-3, diagnostics_level="full", **common
        ),
    ]
    return ap.run_ensemble(configs, mdps, mdp_seeds=list(range(6, 10)))


def test_safeguard_ensemble_records_pinned():
    rep = safeguard_ensemble()
    traces = [rep.traces[task] for task in sorted(rep.traces)]
    restarts = [sum(r.safeguard_triggered for r in t.records) for t in traces]
    assert restarts == [2, 3, 0, 1, 0, 2, 1, 2]
    assert [len(t.records) for t in traces] == [267, 401, 103, 401, 68, 164, 87, 401]
    assert [record_digest(t.records) for t in traces] == [
        "ce806ffb58d6f10422b2934d2002309ac4605cb85bc15525bd00506d671cbd0e",
        "9d41e05471ed5a8a89c7d8ff0deb3a11e7bcf2bcecf8af34f1b3eda52d6d1706",
        "4a20a83288ed8f1e3d2a22c4a0cfc413007898538468f071d32a993a61b8c0a6",
        "38c4966660bcfc6aebdb0ceff28cd81d91f6e444a5f73e08516847aee2c63893",
        "a17011222d952c8f48f84b905dc18c53adb517d187e08fa949cc88b32597c278",
        "4864b75784ae02b09b15b02fc284770d257497be7e9065857aea58e2247a5978",
        "1cd23acfa9c4cc54f6c6ddad20fece9ed7bcce13bee8814ed7c9772cc28f3eda",
        "1821fafe3fbe23b9540aa149441b632eea70b204e92c15d8dbb72a8848679479",
    ]


def test_diverged_runs_records_pinned():
    # the fixed point exceeds the divergence limit: Q* is about 1e13
    mdp = ap.generate_random_mdp(0, 8, 2, 2, 1e11, 0.99)
    got = []
    for cfg in (
        SolverConfig(Scheme.ANDERSON_KKT, MELLOW5, m=3),
        SolverConfig(Scheme.STABLE_AA, MELLOW5, m=3, eta=0.1, diagnostics_level="full"),
    ):
        exc = outcome(mdp, cfg)
        assert isinstance(exc, DivergenceError)
        got.append((len(exc.trace.records), record_digest(exc.trace.records)))
    assert got == [
        (9, "20a3b87996053749ca046049ba809b05a7300f390f89ac16420d7358669a7d41"),
        (24, "267503333a39019ebe7f1eee21c50b8462c66db13c2030d5f91f0af8c9d4ebb7"),
    ]


def test_non_finite_image_leaves_no_records():
    good = ap.generate_random_mdp(0, 6, 2, 2, 1.0, 0.9)
    rewards = good.rewards.copy()
    rewards[2, 1] = np.nan
    bad = ap.TabularMdp.from_successors(6, 2, good.successors, good.probs, rewards, 0.9)
    exc = outcome(bad, SolverConfig(Scheme.STABLE_AA, MELLOW5, m=3, eta=0.1))
    assert isinstance(exc, DivergenceError)
    assert len(exc.trace.records) == 0 and list(exc.trace.records) == []
    assert exc.trace.residuals_inf().shape == (0,)


@pytest.fixture(scope="module")
def restarted():
    """A stable-aa full-diagnostics run whose safeguard restarts its window at 64 and 92."""
    mdp = ap.generate_random_mdp(7, 10, 3, 2, 1.0, 0.9)
    cfg = SolverConfig(
        Scheme.STABLE_AA, MELLOW5, m=3, eta=1e-3, tol=1e-16, max_iter=400,
        safeguard=True, diagnostics_level="full",
    )
    return ap.run(mdp, cfg)


def test_record_is_a_snapshot(restarted):
    before = record_rows(restarted.records)
    rec = restarted.records[70]
    rec.theta, rec.jitter_flag, rec.update_norm_lhs = -1.0, True, None
    rec.alpha[:] = 7.0
    rec.wall_nanos += 1
    assert record_rows(restarted.records) == before
    assert restarted.records[70].wall_nanos == rec.wall_nanos - 1
    assert restarted.records[70].update_norm_lhs is not None
    assert (restarted.alpha[70] != 7.0).all()


def test_records_index_and_slice_as_a_list(restarted):
    records = restarted.records
    rows = record_rows(records)
    n = len(rows)
    assert n == len(records) == restarted.iterations + 1 == 164
    as_list = list(records)
    assert record_rows(as_list) == rows
    for index in (0, 1, 63, 64, n - 1, -1, -2, -n):
        assert record_rows([records[index]]) == [rows[index]], index
    assert records[-1].k == n - 1 and records[-n].k == 0
    for index in (n, -n - 1, 10**9):
        with pytest.raises(IndexError):
            records[index]
    for rows_slice in (
        slice(None), slice(60, 70), slice(-5, None), slice(None, None, -1),
        slice(1, None, 7), slice(90, 60, -3), slice(200, 300), slice(5, 5),
    ):
        got = records[rows_slice]
        assert isinstance(got, list)
        assert record_rows(got) == rows[rows_slice], rows_slice
        assert [r.k for r in got] == list(range(n))[rows_slice]
    with pytest.raises(TypeError):
        records[1.0]


def test_records_are_read_only(restarted):
    with pytest.raises(TypeError):
        restarted.records[0] = restarted.records[1]
    with pytest.raises(AttributeError):
        restarted.records.append(restarted.records[0])


def test_record_fields_match_the_columns(restarted):
    # a restart leaves one row of width 1: it has no ridge share, no gap
    # and no update norm
    (rec,) = restarted.records[64:65]
    assert (rec.k, rec.alpha.tolist(), rec.safeguard_triggered) == (64, [1.0], True)
    assert (rec.reg_share, rec.coeff_gap_lhs, rec.update_norm_lhs) == (None, None, None)
    assert rec.coeff_norm_lhs is not None
    assert type(rec.wall_nanos) is int and rec.wall_nanos > 0
    assert rec.g_tilde is None and rec.g_unreg is None
    wide = restarted.records[65]
    assert wide.alpha.shape == (2,) and wide.alpha.flags.c_contiguous
    assert wide.reg_share == float(restarted.reg_share[65])
    assert wide.update_norm_lhs == float(restarted.update_norm_lhs[65])


@pytest.fixture(scope="module")
def kkt_basic():
    """A basic-diagnostics kkt run on the MDP of ``restarted``; it stores no coefficient bounds."""
    mdp = ap.generate_random_mdp(7, 10, 3, 2, 1.0, 0.9)
    return ap.run(mdp, SolverConfig(Scheme.ANDERSON_KKT, MELLOW5, m=3))


BOUND_READERS = {
    "theta": diagnostics.theta_records,
    "coefficient": diagnostics.coefficient_bound_records,
    "theorem3-eta0.1": lambda tr: diagnostics.check_update_norm_bound(tr, 0.1, 1.0)[0],
    "theorem3-eta2.0": lambda tr: diagnostics.check_update_norm_bound(tr, 2.0, 1.0)[0],
}

# (trace, reader): number of records and sha256 of their to_json() lines
BOUND_RECORD_DIGESTS = {
    ("restarted", "theta"): (
        328, "a0388a453897a539174d168d86d734216639adaae1519349f58b48633eece256"
    ),
    ("restarted", "coefficient"): (
        325, "f8370009f98ca1c67a81784d22e44626184eb69e5b5f5164b9d070ad84a28ff5"
    ),
    ("restarted", "theorem3-eta0.1"): (
        161, "e4ec01847052a641500ac66cb698816d3e9a23d027f8d8ee042eb50da83da19c"
    ),
    ("restarted", "theorem3-eta2.0"): (
        161, "c5acca0421dcce97a8d7ea234f3e649322c68b3e3de2b2e70a006b1301b120ad"
    ),
    ("kkt_basic", "theta"): (
        64, "b169481c2d8153d708993d50d5eb0425aa85298f765b4a10fa719de125765858"
    ),
    ("kkt_basic", "coefficient"): (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
}


@pytest.mark.parametrize(
    "trace_name,reader", list(BOUND_RECORD_DIGESTS), ids=lambda x: x
)
def test_bound_records_pinned(trace_name, reader, request):
    records = BOUND_READERS[reader](request.getfixturevalue(trace_name))
    text = "\n".join(r.to_json() for r in records)
    got = (len(records), hashlib.sha256(text.encode()).hexdigest())
    assert got == BOUND_RECORD_DIGESTS[trace_name, reader]


# The memory a returned trace holds, per iteration.  With the columns of
# float64, int64 and bool values it is about 68 B for vanilla and 158 B
# for stable-aa m = 5 with full diagnostics (alpha takes m + 1 = 6 doubles
# of that); one TraceRecord object per iteration held 520 and 740 B.
TRACE_BYTES_PER_ITERATION = 200


@pytest.mark.parametrize(
    "cfg",
    [
        SolverConfig(Scheme.VANILLA_VI, MELLOW5),
        SolverConfig(Scheme.STABLE_AA, MELLOW5, m=5, eta=0.1, diagnostics_level="full"),
    ],
    ids=["vanilla", "stable-aa-full"],
)
def test_trace_memory_per_iteration(cfg):
    mdp = ap.generate_random_mdp(0, 30, 4, 3, 1.0, 0.99)
    ap.run(mdp, cfg)  # fills the caches a first run fills
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = ap.run(mdp, cfg)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(trace.records) > 2000
    assert held / len(trace.records) < TRACE_BYTES_PER_ITERATION
