"""Self-building JIT layer for the native kernel tier.

Stdlib only (``subprocess`` + ``sysconfig`` + ``shutil``): at first use the
``.c`` sources under ``src/`` are compiled into one shared library with
whatever C compiler the host offers, cached under a directory keyed by the
SHA-256 of the sources and compile command.  A changed source (or flag)
changes the key, so stale builds are never loaded — they are simply left
behind in the cache and rebuilt under the new key.  When no compiler
exists the build step returns ``None`` and the tier registry reports
``native`` unavailable; nothing in the tier-1 test suite ever triggers a
compile (the default tier is resolved without one).

The cache location is ``$REPRO_KERNEL_CACHE`` when set, else
``$XDG_CACHE_HOME/repro/kernels`` (``~/.cache/repro/kernels``).  Builds
are atomic (compile to a temp name, ``os.replace``), so concurrent ranks
of the procs backend can race on a cold cache safely: every rank either
finds the finished ``.so`` or produces an identical one.

Sanitizer profiles: ``$REPRO_KERNEL_SANITIZE`` selects instrumented
builds (``asan``, ``ubsan``, or the comma list ``asan,ubsan``).  The
sanitizer flags are part of the compile command and therefore of the
SHA-256 cache key, so instrumented and plain builds never collide.
Loading an instrumented library into an *uninstrumented* CPython needs
loader support — see :func:`sanitizer_env` and ``python -m
repro.kernels.native --sanitize-env``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

#: Name of the produced shared library (per-hash directory disambiguates).
LIB_NAME = "librepro_kernels.so"

#: Portable optimization flags.  Deliberately conservative: no
#: -ffast-math / -funsafe-math-optimizations — the bitwise-parity contract
#: requires strict IEEE semantics in the exact source order.
CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99", "-fvisibility=hidden")

#: Environment knob selecting sanitizer-instrumented builds.
SANITIZE_ENV = "REPRO_KERNEL_SANITIZE"

#: Per-profile sanitizer flags, in canonical profile order; the two
#: profiles compose (``asan,ubsan``).
SANITIZER_CFLAGS: dict[str, tuple[str, ...]] = {
    "asan": ("-fsanitize=address",),
    "ubsan": ("-fsanitize=undefined", "-fno-sanitize-recover=undefined"),
}

#: Flags every instrumented build gets: frame pointers and debug info so
#: sanitizer reports carry file:line instead of raw addresses.
SANITIZE_COMMON_CFLAGS = ("-fno-omit-frame-pointer", "-g")

#: Shared-runtime library names per profile, tried in order.  GCC links
#: the shared runtime by default; Clang needs ``-shared-libasan`` (added
#: by :func:`sanitize_cflags`) and ships the runtime under the
#: ``libclang_rt`` name.
SANITIZER_RUNTIMES: dict[str, tuple[str, ...]] = {
    "asan": ("libasan.so", "libclang_rt.asan-x86_64.so"),
}

_SRC_DIR = Path(__file__).resolve().parent / "src"

#: Last build failure (compiler stderr / exception text) for diagnostics;
#: ``None`` after a successful or not-yet-attempted build.
last_error: str | None = None


class BuildFailure:
    """Structured record of the most recent *failed compile attempt*.

    Distinguishes "a compiler ran and rejected the sources" (``compiler``
    set, ``stderr`` carries its diagnostics) from "no compiler on the
    host" (``last_failure`` stays ``None``; only ``last_error`` is set).
    The tier resolver uses that distinction: an explicit ``native``
    request raises :class:`repro.exceptions.KernelBuildError` for the
    former and keeps the warned pure fallback for the latter.
    """

    __slots__ = ("message", "compiler", "stderr")

    def __init__(self, message: str, compiler: str | None = None,
                 stderr: str | None = None):
        self.message = message
        self.compiler = compiler
        self.stderr = stderr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BuildFailure({self.message!r}, compiler={self.compiler!r})"


#: Most recent failed compile attempt; ``None`` when no compile has
#: failed (including "no compiler found" — see :class:`BuildFailure`).
last_failure: BuildFailure | None = None


def sanitize_profiles(raw: str | None = None) -> tuple[str, ...]:
    """Parse ``$REPRO_KERNEL_SANITIZE`` into a canonical profile tuple.

    Accepts a comma/space-separated subset of ``asan``/``ubsan``
    (case-insensitive, duplicates collapsed, canonical order).  Raises
    :class:`ValueError` for unknown names — loud failure is right for an
    explicit debug knob; a typo must not silently produce an
    uninstrumented build.
    """
    if raw is None:
        raw = os.environ.get(SANITIZE_ENV, "")
    names = {tok for tok in raw.replace(",", " ").lower().split() if tok}
    if not names:
        return ()
    unknown = names - set(SANITIZER_CFLAGS)
    if unknown:
        raise ValueError(
            f"unknown sanitizer profile(s) {sorted(unknown)!r} in "
            f"${SANITIZE_ENV} (choose from {' | '.join(SANITIZER_CFLAGS)})")
    return tuple(p for p in SANITIZER_CFLAGS if p in names)


def _is_clang(compiler: str | None) -> bool:
    return compiler is not None and "clang" in Path(compiler).name


def sanitize_cflags(profiles: tuple[str, ...] | None = None,
                    compiler: str | None = None) -> tuple[str, ...]:
    """Extra compile flags for the active sanitizer profiles (``()`` when
    uninstrumented).  ``compiler`` decides Clang-specific handling:
    Clang defaults to a *static* ASan runtime, which cannot back a
    dlopen'ed library — ``-shared-libasan`` switches it to the shared
    runtime that :func:`sanitizer_env` preloads."""
    profs = sanitize_profiles() if profiles is None else tuple(profiles)
    if not profs:
        return ()
    flags: list[str] = []
    for p in profs:
        flags.extend(SANITIZER_CFLAGS[p])
    if "asan" in profs and _is_clang(compiler):
        flags.append("-shared-libasan")
    return tuple(flags) + SANITIZE_COMMON_CFLAGS


def flag_set(compiler: str | None = None) -> tuple[str, ...]:
    """The compile flags of a build: :data:`CFLAGS` with the active
    sanitizer profile folded in.  Sanitizer flags are part of the compile
    command and hence of :func:`source_hash` — an instrumented build can
    never be served from (or poison) the plain cache."""
    return CFLAGS + sanitize_cflags(compiler=compiler)


def sanitizer_runtime(profile: str,
                      compiler: str | None = None) -> str | None:
    """Absolute path of ``profile``'s shared runtime library, resolved
    through the compiler's ``-print-file-name``; ``None`` when the
    toolchain does not ship one (or there is no compiler)."""
    names = SANITIZER_RUNTIMES.get(profile, ())
    cc = compiler or find_compiler()
    if cc is None or not names:
        return None
    for name in names:
        try:
            proc = subprocess.run([cc, f"-print-file-name={name}"],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        out = proc.stdout.strip()
        # an unknown library echoes back as the bare name
        if proc.returncode == 0 and out and out != name:
            path = Path(out)
            if path.exists():
                return str(path.resolve())
    return None


def sanitizer_env(profiles: tuple[str, ...] | None = None,
                  compiler: str | None = None) -> dict[str, str]:
    """Environment needed to *load* the active sanitized build into an
    uninstrumented interpreter (CPython is not rebuilt with the
    sanitizer; only the kernel ``.so`` is).

    - ``asan``: the runtime must be initialized before any other
      library, which for a dlopen'ed ``.so`` means ``LD_PRELOAD`` of
      ``libasan.so``; leak checking is disabled because CPython
      intentionally leaks interned objects at exit and would drown real
      reports.
    - ``ubsan``: nothing — ``libubsan`` is an ordinary ``DT_NEEDED``
      dependency of the instrumented library and resolves at dlopen.
    """
    profs = sanitize_profiles() if profiles is None else tuple(profiles)
    env: dict[str, str] = {}
    if "asan" in profs:
        runtime = sanitizer_runtime("asan", compiler)
        if runtime:
            prior = os.environ.get("LD_PRELOAD", "")
            env["LD_PRELOAD"] = (runtime if not prior
                                 else f"{runtime}:{prior}")
        env["ASAN_OPTIONS"] = "detect_leaks=0:abort_on_error=1"
    if "ubsan" in profs:
        env.setdefault("UBSAN_OPTIONS", "print_stacktrace=1")
    return env


def source_files(src_dir: Path | None = None) -> list[Path]:
    """The translation units and headers that define the native tier,
    sorted for a stable hash (``.c`` compiled, ``.h``/``.inc`` hashed)."""
    root = Path(src_dir) if src_dir is not None else _SRC_DIR
    return sorted(p for p in root.iterdir()
                  if p.suffix in (".c", ".h", ".inc"))


def find_compiler() -> str | None:
    """Discover a usable C compiler executable.

    Order: ``$CC``, the compiler CPython was built with (``sysconfig``),
    then ``cc``/``gcc``/``clang`` on PATH.  Returns an absolute path, or
    ``None`` when the host has no compiler (the pure tier then serves
    everything).
    """
    candidates: list[str] = []
    env_cc = os.environ.get("CC", "").split()
    if env_cc:
        candidates.append(env_cc[0])
    py_cc = (sysconfig.get_config_var("CC") or "").split()
    if py_cc:
        candidates.append(py_cc[0])
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        found = shutil.which(cand)
        if found:
            return found
    return None


def cache_root() -> Path:
    """Build-cache directory (see module docstring)."""
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(xdg) / "repro" / "kernels"


def source_hash(sources: list[Path] | None = None,
                compiler: str | None = None,
                cflags: tuple[str, ...] = CFLAGS) -> str:
    """SHA-256 over source names+contents and the compile configuration.

    Any edit to a ``.c``/``.h``/``.inc`` file, a flag change, or a
    different compiler yields a new hash — and therefore a fresh build
    directory — which is what makes stale-cache reuse impossible.
    """
    h = hashlib.sha256()
    for path in sources if sources is not None else source_files():
        h.update(path.name.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    h.update(" ".join(cflags).encode())
    h.update(b"\0")
    h.update((compiler or "").encode())
    return h.hexdigest()


def cached_library_path(sources: list[Path] | None = None,
                        cache_dir: Path | None = None,
                        compiler: str | None = None,
                        cflags: tuple[str, ...] = CFLAGS) -> Path:
    """Where the build for the current sources lives (existing or not).
    ``compiler=None`` means :func:`find_compiler`, as in
    :func:`build_library`, so a default probe names the directory a
    default build writes."""
    root = Path(cache_dir) if cache_dir is not None else cache_root()
    cc = compiler or find_compiler()
    return root / source_hash(sources, cc, cflags)[:16] / LIB_NAME


def cached_library_paths(sources: list[Path] | None = None,
                         cache_dir: Path | None = None,
                         compiler: str | None = None) -> list[Path]:
    """The cache locations a warm-cache probe stats — the one build of
    the current sources under :func:`flag_set`, so an active sanitizer
    profile shifts it to its instrumented hash."""
    cc = compiler or find_compiler()
    return [cached_library_path(sources, cache_dir, cc, flag_set(cc))]


def build_library(sources: list[Path] | None = None,
                  cache_dir: Path | None = None,
                  compiler: str | None = None) -> Path | None:
    """Compile (or reuse) the native kernel library; ``None`` on failure.

    The happy path on a warm cache is one ``stat`` call.
    """
    global last_error, last_failure
    srcs = sources if sources is not None else source_files()
    c_files = [p for p in srcs if p.suffix == ".c"]
    if not c_files:
        last_error = "no C sources found"
        return None
    cc = compiler or find_compiler()
    flags = flag_set(cc)
    out = cached_library_path(srcs, cache_dir, cc, flags)
    if out.exists():
        last_failure = None
        return out
    if cc is None:
        last_error = "no C compiler on PATH (set $CC or install cc/gcc/clang)"
        return None
    if _compile(cc, flags, c_files, out) is None:
        return None
    last_error = None
    last_failure = None
    return out


def _compile(cc: str, cflags: tuple[str, ...], c_files: list[Path],
             out: Path) -> Path | None:
    """One compile attempt; records ``last_error`` and
    ``last_failure`` and leaves no temp object (or empty hash directory)
    behind on the failure paths."""
    global last_error, last_failure
    made_dir = not out.parent.exists()
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    cmd = [cc, *cflags, "-o", tmp,
           *[str(p) for p in c_files], "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            stderr = proc.stderr.strip()
            last_error = (f"{' '.join(cmd)} failed "
                          f"(rc={proc.returncode}): {stderr}")
            last_failure = BuildFailure(last_error, compiler=cc,
                                        stderr=stderr)
            return None
        os.replace(tmp, out)  # atomic: concurrent builders never collide
        tmp = None
        return out
    except (OSError, subprocess.SubprocessError) as exc:
        last_error = f"native build failed: {exc}"
        last_failure = BuildFailure(last_error, compiler=cc)
        return None
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if made_dir:
                try:  # fresh dir we created and left empty: remove it too
                    out.parent.rmdir()
                except OSError:
                    pass


def _main(argv: list[str] | None = None) -> int:
    """``python -m repro.kernels.native`` — build/inspect helper.

    ``--sanitize-env`` prints ``export K=V`` lines for the active
    ``$REPRO_KERNEL_SANITIZE`` profile (eval them before starting the
    interpreter that should load an instrumented build).  ``--build``
    forces a build now and prints the library path.  ``--cache-key``
    prints the 16-hex cache key prefix for the current configuration —
    CI uses it to prove sanitizer flags change the key.
    """
    import argparse
    import shlex

    ap = argparse.ArgumentParser(
        prog="python -m repro.kernels.native",
        description="native kernel build helper")
    ap.add_argument("--sanitize-env", action="store_true",
                    help="print `export K=V` loader lines for the active "
                         f"${SANITIZE_ENV} profile")
    ap.add_argument("--build", action="store_true",
                    help="build (or reuse) the library now; print its path")
    ap.add_argument("--cache-key", action="store_true",
                    help="print the cache key prefix for the current "
                         "sources/compiler/flags")
    args = ap.parse_args(argv)
    cc = find_compiler()
    if args.sanitize_env:
        for key, val in sanitizer_env(compiler=cc).items():
            print(f"export {key}={shlex.quote(val)}")
    if args.cache_key:
        print(source_hash(compiler=cc, cflags=flag_set(cc))[:16])
    if args.build:
        path = build_library()
        if path is None:
            print(f"build failed: {last_error}")
            return 1
        print(path)
    return 0
