"""Differential kernel fuzzing: engine unit tests + pure/native smoke.

The heavy campaign runs from CI (``python -m repro.lint --fuzz-kernels``)
and by hand; this module keeps a deterministic smoke slice in the test
suite plus the pieces that must work even without a compiler (spec
schedule, bitwise comparator, reproducer round-trip) — and the
acceptance check that an injected off-by-one in a scratch copy of the C
sources is actually *caught* by the fuzzer.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels
from repro.kernels import fuzz
from repro.kernels.native import build

HAS_NATIVE = kernels.native_available()
needs_native = pytest.mark.skipif(
    not HAS_NATIVE, reason="no C compiler / native kernel build unavailable")


@pytest.fixture(autouse=True)
def tier_state():
    """Several tests repoint the build at drifted sources; the memoized
    native load must never leak into the next test."""
    yield
    kernels.reset()


# ---------------------------------------------------------------------------
# deterministic schedule + generators
# ---------------------------------------------------------------------------

def test_spec_schedule_is_deterministic():
    a = fuzz.make_spec("spgemm_csr", seed=7, case=13)
    b = fuzz.make_spec("spgemm_csr", seed=7, case=13)
    assert a == b
    assert a != fuzz.make_spec("spgemm_csr", seed=8, case=13)
    assert a.pattern == fuzz.PATTERNS[13 % len(fuzz.PATTERNS)]


def test_generation_is_deterministic_in_the_spec():
    spec = fuzz.make_spec("spgemm_csr", seed=3, case=4)
    one, two = fuzz.generate(spec), fuzz.generate(spec)
    assert fuzz.diff_results(tuple(one.values()), tuple(two.values())) is None


def test_every_kernel_has_a_generator_and_runner():
    for name in fuzz.KERNELS:
        spec = fuzz.make_spec(name, seed=0, case=1)
        inputs = fuzz.generate(spec)
        out = fuzz.run_kernel(fuzz._copy_inputs(inputs), name, "pure")
        assert fuzz.diff_results(out, out) is None


def test_adversarial_patterns_appear_in_the_schedule():
    seen = {fuzz.make_spec("spgemm_csr", 0, c).pattern for c in range(16)}
    assert seen == set(fuzz.PATTERNS)


def test_negzero_pattern_produces_signed_zeros():
    for case in range(64):
        spec = fuzz.make_spec("threshold_mask", seed=0, case=case)
        if spec.pattern != "negzero":
            continue
        A = fuzz.generate(spec)["A"]
        if A.nnz and np.any((A.data == 0.0) & np.signbit(A.data)):
            return
    pytest.fail("no explicit -0.0 entries generated by the negzero family")


# ---------------------------------------------------------------------------
# bitwise comparator
# ---------------------------------------------------------------------------

def test_diff_results_is_bitwise_on_signed_zero():
    a = np.array([0.0]), np.array([-0.0])
    assert fuzz.diff_results(a[0], a[1]) is not None
    assert fuzz.diff_results(a[0], a[0].copy()) is None


def test_diff_results_flags_dtype_shape_and_value():
    x = np.arange(4, dtype=np.int64)
    assert "dtype" in fuzz.diff_results(x, x.astype(np.int32))
    assert "shape" in fuzz.diff_results(x, x[:3])
    y = x.copy()
    y[2] = 99
    msg = fuzz.diff_results(x, y)
    assert "flat index 2" in msg


def test_diff_results_compares_sparse_structurally():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    B = A.copy()
    assert fuzz.diff_results(A, B) is None
    B.data[0] = 3.0
    assert ".data" in fuzz.diff_results(A, B)
    assert "format" in fuzz.diff_results(A, A.tocsc())


def test_nan_payloads_compare_equal_bitwise():
    x = np.array([np.nan])
    assert fuzz.diff_results(x, x.copy()) is None


# ---------------------------------------------------------------------------
# reproducers + shrinking
# ---------------------------------------------------------------------------

def test_reproducer_roundtrip(tmp_path):
    spec = fuzz.make_spec("spgemm_csr", seed=5, case=2)
    path = fuzz.save_reproducer(spec, "synthetic", tmp_path)
    loaded_spec, inputs, message = fuzz.load_reproducer(path)
    assert loaded_spec == spec
    assert message == "synthetic"
    fresh = fuzz.generate(spec)
    assert fuzz.diff_results(
        (inputs["A"], inputs["B"]), (fresh["A"], fresh["B"])) is None


def test_reproducer_preserves_gram_aliasing(tmp_path):
    for case in range(12):
        spec = fuzz.make_spec("gram_csc", seed=1, case=case)
        inputs = fuzz.generate(spec)
        if inputs["B1"] is inputs["B2"]:
            break
    else:
        pytest.fail("no aliased gram case scheduled")
    path = fuzz.save_reproducer(spec, "synthetic", tmp_path)
    _, inputs, _ = fuzz.load_reproducer(path)
    assert inputs["B1"] is inputs["B2"]


def test_shrink_candidates_strictly_shrink():
    spec = fuzz.make_spec("spgemm_csr", seed=0, case=3)
    for cand in fuzz._shrink_candidates(spec):
        assert (cand.m, cand.n, cand.k, cand.density,
                cand.pattern) != (spec.m, spec.n, spec.k, spec.density,
                                  spec.pattern)
        assert cand.kernel == spec.kernel and cand.seed == spec.seed


# ---------------------------------------------------------------------------
# differential smoke (needs both tiers)
# ---------------------------------------------------------------------------

@needs_native
@pytest.mark.parametrize("kernel", fuzz.KERNELS)
def test_differential_smoke(kernel):
    report = fuzz.fuzz_kernel(kernel, cases=12, seed=11)
    assert report.ok, "\n".join(f.message for f in report.failures)


@needs_native
def test_minimize_returns_spec_when_parity_holds():
    spec = fuzz.make_spec("spgemm_csr", seed=0, case=1)
    assert fuzz.run_case(spec) is None
    assert fuzz.minimize(spec) == spec


# ---------------------------------------------------------------------------
# acceptance: an injected off-by-one must be caught
# ---------------------------------------------------------------------------

@needs_native
def test_injected_threshold_offbyone_is_caught(tmp_path, monkeypatch):
    """Flip the strict drop comparison (`<` -> `<=`) in a scratch copy of
    threshold.c: entries with |x| exactly equal to mu flip sides, and the
    fuzzer's mu schedule deliberately includes mu == max|data|.  The
    campaign must report the divergence and the minimized reproducer must
    replay it."""
    drift = tmp_path / "src"
    shutil.copytree(build._SRC_DIR, drift)
    c = drift / "threshold.c"
    text = c.read_text()
    assert "if (a < mu)" in text
    c.write_text(text.replace("if (a < mu)", "if (a <= mu)"))

    monkeypatch.setattr(build, "_SRC_DIR", drift)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
    kernels.reset()
    assert kernels.native_available()

    report = fuzz.fuzz_kernel("threshold_mask", cases=80, seed=0,
                              out_dir=tmp_path / "failures",
                              max_failures=1)
    assert report.failures, "fuzzer missed the injected off-by-one"
    failure = report.failures[0]
    assert failure.reproducer is not None and failure.reproducer.exists()
    assert fuzz.replay(failure.reproducer) is not None
    # the minimizer only ever hands back a still-failing spec
    assert fuzz.run_case(failure.minimized) is not None
