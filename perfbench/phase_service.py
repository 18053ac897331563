"""Phase ``service`` of every workload: open-loop traffic into the
compile-and-solve service.

Requests arrive from one load-generator thread as a seeded Poisson
process at a fixed offered rate (about a fifth of the service's
capacity) into a :class:`repro.service.CompileSolveService` with one
worker and the default shared plan cache.  90% are ``compile`` requests
over the example kernels the dependence analyzer admits crossed with the
Table-1 formats; most hit warm keys, and a fixed share carry a
never-seen ``extra_key`` and must build.  10% are ``solve_cg`` requests
on the family's 13 solve systems (580–2300 rows) at ``tol=1e-8``.
Every latency is timed from when the request was due, so a stall also
charges the requests queued behind it.

The compile front end (parse, dependence classification, certificate
check, cache key, cache probe) dominates: every CG iteration pays one
warm ``compile_kernel`` hit, and kernel work is small.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait
from pathlib import Path

import numpy as np

from checks import (
    check_arrays,
    check_compiled_once,
    check_residual,
    dense_kernel,
)
from common import Outcome, median, percentile

#: offered rate, requests per second: about a fifth of the capacity
#: (``service.capacity_per_s``).
#: Nearer half, the queue's excursions made one seed's p99 vary
#: threefold between runs; at 40/s, waiting behind other solves doubled
#: the effect of host-speed drift on the solves' p50 (+26% between two
#: ten-run sets while pure compute drifted +12%).
RATE = 30.0
SOLVE_SHARE = 0.10
NEW_KEY_SHARE = 0.05
TOL = 1e-8
#: one worker: the solves are pure Python, so two workers only time-share
#: the interpreter lock, and whether a large solve overlapped another
#: decided p99 (it moved by half between seeds with two workers)
WORKERS = 1
FORMATS = ("CRS", "CCS", "Coordinate", "ITPACK", "JDiag", "Diagonal")
#: kernel × format pairs left out of the mix, and why
EXCLUDED = {
    # the vectorized lowering writes a rectangular block of C where the
    # diagonal belongs, so the result is wrong (a program fault)
    ("entrywise", "Diagonal"): "wrong result",
    # DiagonalMatrix stores the zeros inside each diagonal's span, so a
    # stored-entry min/product differs from one over the nonzero pattern
    ("rowmin", "Diagonal"): "stores explicit zeros",
    ("rowprod", "Diagonal"): "stores explicit zeros",
}
KERNEL_DIR = Path(__file__).resolve().parent.parent / "examples" / "kernels"
SMALL = (7, 5)  # shape of the integer matrices the key checks run on


class State:
    pass


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def admitted_kernels() -> dict[str, str]:
    """``examples/kernels/*.loop`` the dependence analyzer admits."""
    out = {}
    for path in sorted(KERNEL_DIR.glob("*.loop")):
        text = path.read_text()
        if "# depend: sequential" not in text:
            out[path.stem] = text
    return out


def _operands(program):
    """Array name -> index variables, for every reference in the nest."""
    arrays = {}
    for stmt in program.body:
        for ref in (stmt.target, *stmt.expr.refs()):
            arrays[ref.array] = ref.indices
    return arrays


def bindings(program, A, rng):
    """Format instances and scalars for one call of ``program``: ``A`` is
    the matrix operand (if the nest has one); every other array is a dense
    container of small integers sized by the loop extents."""
    from repro.formats import DenseMatrix, DenseVector

    arrays = _operands(program)
    ext = {}
    if "A" in arrays:
        ext[arrays["A"][0]], ext[arrays["A"][1]] = A.shape
    for loop in program.loops:
        ext.setdefault(loop.var, int(loop.hi) if loop.hi.isdigit() else 3)
    formats, dense = {}, {}
    for name, idx in arrays.items():
        if name == "A":
            formats[name] = A
            continue
        val = rng.integers(1, 5, tuple(ext[v] for v in idx)).astype(np.float64)
        dense[name] = val.copy()
        formats[name] = DenseVector(val) if val.ndim == 1 else DenseMatrix(val)
    # loop bounds resolve from the arrays; the rest (axpy's alpha) are data
    bounds = {loop.hi for loop in program.loops}
    scalars = {s: 3.0 for s in program.scalar_names() if s not in bounds}
    return formats, dense, scalars


def setup(seed: int, clock, fam):
    from repro.compiler import kernels as ck
    from repro.compiler import parse
    from repro.formats import CRSMatrix, DenseVector, matrix_format_by_name
    from repro.kernels.spmv import SPMV_SRC
    from repro.service import CompileSolveService, ServiceConfig

    st = State()
    st.seed = seed
    st.fam = fam
    with clock.phase("inputs"):
        st.sources = admitted_kernels()
        st.programs = {k: parse(t) for k, t in st.sources.items()}
        key_coo = fam.key_matrix()
        st.systems = {label: {"coo": fam.solve_system(label)} for label in fam.solve_labels}
    with clock.phase("builds"):
        key_mats = {f: matrix_format_by_name(f).from_coo(key_coo) for f in FORMATS}
        for sys_ in st.systems.values():
            sys_["A"] = CRSMatrix.from_coo(sys_["coo"])
    rng = np.random.default_rng([seed, 0])
    st.pairs = []
    st.payload_formats = {}
    for kname, prog in st.programs.items():
        fmts = FORMATS if "A" in _operands(prog) else ("dense",)
        for f in fmts:
            if (kname, f) in EXCLUDED:
                continue
            A = key_mats.get(f)
            formats, _, _ = bindings(prog, A, rng)
            st.pairs.append((kname, f))
            st.payload_formats[(kname, f)] = formats
    with clock.phase("first_compile"):
        first = st.systems[fam.solve_labels[0]]["A"]
        n0 = first.shape[0]
        ck.compile_kernel(
            SPMV_SRC, {"A": first, "X": DenseVector.zeros(n0), "Y": DenseVector.zeros(n0)}
        )
    with clock.phase("warmup"):
        st.svc = CompileSolveService(
            ServiceConfig(workers=WORKERS, max_queue=1 << 20, queue_timeout=None)
        ).start()
        warm = [
            st.svc.submit("compile", {"source": st.sources[k], "formats": st.payload_formats[(k, f)]})
            for k, f in st.pairs
        ]
        for sys_ in st.systems.values():  # compiles each size's kernels
            b = np.ones(sys_["A"].shape[0])
            warm.append(st.svc.submit("solve_cg", {"A": sys_["A"], "b": b, "tol": 0.5}))
        for fut in warm:
            resp = fut.result()
            if not resp.ok:
                raise RuntimeError(f"warm-up request failed: {resp.error}")
    return st


def teardown(st) -> None:
    st.svc.stop()


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
def schedule(st, tag: tuple, rate: float, count: int) -> list:
    """``count`` requests whose arrival offsets follow a Poisson process
    of ``rate`` per second, scaled so the last one is due at
    ``count / rate``: the offered load is exact.  The mix is exact too:
    ``SOLVE_SHARE`` of the requests solve (grid sizes in equal numbers),
    the compiles cover the kernel × format pairs in equal numbers and
    ``NEW_KEY_SHARE`` of them carry a key never seen before; only the
    order, the arrival times and the right-hand sides vary with the seed.
    ``tag`` names the schedule within a run."""
    rng = np.random.default_rng([st.seed, *tag])
    gaps = rng.exponential(1.0, count)
    at = np.cumsum(gaps) * (count / rate) / gaps.sum()
    n_solve = int(round(count * SOLVE_SHARE))
    is_solve = np.zeros(count, dtype=bool)
    is_solve[rng.choice(count, n_solve, replace=False)] = True
    sides = np.resize(np.array(st.fam.solve_labels), n_solve)
    rng.shuffle(sides)
    n_compile = count - n_solve
    is_new = np.zeros(n_compile, dtype=bool)
    is_new[rng.choice(n_compile, int(round(n_compile * NEW_KEY_SHARE)), replace=False)] = True
    pair_idx = np.resize(np.arange(len(st.pairs)), n_compile)
    rng.shuffle(pair_idx)
    reqs = []
    solves = compiles = 0
    for i in range(count):
        if is_solve[i]:
            side = int(sides[solves])
            solves += 1
            A = st.systems[side]["A"]
            b = rng.standard_normal(A.shape[0])
            reqs.append((at[i], "solve_cg", {"A": A, "b": b, "tol": TOL}, side))
        else:
            k, f = st.pairs[pair_idx[compiles]]
            new = bool(is_new[compiles])
            compiles += 1
            payload = {"source": st.sources[k], "formats": st.payload_formats[(k, f)]}
            if new:
                payload["extra_key"] = ("perfbench", *tag, i)
            reqs.append((at[i], "compile", payload, (k, f, new)))
    return reqs


class Phase:
    """One open-loop run of a request schedule and what came back."""

    def __init__(self, reqs):
        self.reqs = reqs
        self.due = np.zeros(len(reqs))
        self.done = np.zeros(len(reqs))
        self.late = np.zeros(len(reqs))
        self.responses = [None] * len(reqs)
        self.backlog_max = 0

    def latency_ms(self) -> np.ndarray:
        return 1e3 * (self.done - self.due)

    def kinds(self) -> np.ndarray:
        return np.array([r[1] for r in self.reqs])


def drive(st, reqs, recorder=None) -> Phase:
    """Send ``reqs`` on schedule from this thread; wait for every reply."""
    ph = Phase(reqs)
    completed = [0]
    lock = threading.Lock()  # callbacks run on the worker or, if done, here

    def on_done(i):
        def cb(fut):
            ph.done[i] = time.perf_counter()
            ph.responses[i] = fut.result()
            with lock:
                completed[0] += 1
        return cb

    futs = []
    t0 = time.perf_counter() + 0.02
    for i, (at, kind, payload, _) in enumerate(reqs):
        due = t0 + at
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        ph.due[i] = due
        ph.late[i] = time.perf_counter() - due
        if recorder is not None:
            st.rid_of[id(payload)] = i
            with recorder.request(i):
                fut = st.svc.submit(kind, payload)
        else:
            fut = st.svc.submit(kind, payload)
        with lock:
            ph.backlog_max = max(ph.backlog_max, i + 1 - completed[0])
        fut.add_done_callback(on_done(i))
        futs.append(fut)
    wait(futs, timeout=120)
    return ph


def check_phase(st, ph: Phase, out: Outcome, kernels: dict, new_outcomes: dict) -> None:
    """Tally and check every response of a phase (after its window)."""
    for (at, kind, payload, info), resp in zip(ph.reqs, ph.responses):
        out.attempted += 1
        if resp is None or not resp.ok:
            out.failures.append(f"{kind} request not served: {getattr(resp, 'status', 'lost')}")
            continue
        if kind == "solve_cg":
            coo = st.systems[info]["coo"]
            problem = check_residual(
                coo.row, coo.col, coo.vals, resp.value["x"], payload["b"], TOL,
                f"solve {st.fam.name} {info}",
            )
            if problem:
                out.failures.append(problem)
        else:
            k, f, new = info
            kern = resp.value["kernel"]
            kernels.setdefault(id(kern), (k, f, kern))
            if new:
                new_outcomes[payload["extra_key"]] = resp.value["outcome"]


def check_kernels(st, kernels: dict, out: Outcome) -> None:
    """Run each distinct compiled kernel once on small integer inputs and
    compare with the dense numpy evaluation of its loop."""
    from repro.formats import COOMatrix, matrix_format_by_name

    rng = np.random.default_rng([st.seed, 99])
    dense = np.zeros(SMALL)
    stored = rng.random(SMALL) < 0.5
    stored[np.arange(SMALL[0]), np.arange(SMALL[0]) % SMALL[1]] = True
    dense[stored] = rng.integers(1, 4, int(stored.sum()))
    coo = COOMatrix.from_dense(dense)
    for k, f, kern in kernels.values():
        prog = st.programs[k]
        A = matrix_format_by_name(f).from_coo(coo) if f != "dense" else None
        formats, before, scalars = bindings(prog, A, rng)
        kern(**formats, **scalars)
        got = {name: fm.vals for name, fm in formats.items() if name != "A"}
        want = dense_kernel(k, dense, stored, before, scalars)
        problem = check_arrays(got, want, f"kernel {k}×{f}")
        if problem:
            out.problems.append(problem)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def begin(st, seconds: float, cycles: int) -> dict:
    """Untraced measurement: one fixed-rate schedule for ``seconds`` of
    traffic, cut by arrival time into ``cycles`` consecutive slices that
    :func:`measure` sends one at a time (the run interleaves them with
    the other phases), so the mix over the run stays exact."""
    from repro.compiler.kernels import KERNEL_CACHE

    reqs = schedule(st, (1,), RATE, int(round(RATE * seconds)))
    width = seconds / cycles
    slices = [[] for _ in range(cycles)]
    for at, *rest in reqs:
        k = min(int(at // width), cycles - 1)
        slices[k].append((at - k * width, *rest))
    return {"slices": slices, "phases": [], "misses0": KERNEL_CACHE.stats()["misses"]}


def measure(st, acc: dict, seconds: float) -> None:
    """Send the next slice on schedule and wait for every reply."""
    acc["phases"].append(drive(st, acc["slices"][len(acc["phases"])]))


def finish(st, acc: dict) -> Outcome:
    out = Outcome()
    kernels: dict = {}
    new_outcomes: dict = {}
    for ph in acc["phases"]:
        check_phase(st, ph, out, kernels, new_outcomes)
    lat = np.concatenate([ph.latency_ms() for ph in acc["phases"]])
    kinds = np.concatenate([ph.kinds() for ph in acc["phases"]])
    # solve latency and capacity are reported per layer (from the traced
    # run's untraced half): a solve is ~100 CG iterations of interpreted
    # code, and both moved by 36–45% between the host's slow and fast
    # stretches of several minutes, where compile latency moved by 18%
    out.metrics["compile_req_ms.p50"] = (median(lat[kinds == "compile"]), "ms")
    _final_checks(st, out, kernels, new_outcomes, acc["misses0"])
    return out


def run(st, seconds: float, recorder) -> Outcome:
    """Traced measurement: half of ``seconds`` untraced, then the same
    schedule length with every layer wrapped."""
    from repro.compiler.kernels import KERNEL_CACHE

    out = Outcome()
    kernels: dict = {}
    new_outcomes: dict = {}
    misses0 = KERNEL_CACHE.stats()["misses"]
    ph = drive(st, schedule(st, (1,), RATE, int(round(RATE * seconds / 2))))
    check_phase(st, ph, out, kernels, new_outcomes)
    _traced(st, ph, out, kernels, new_outcomes, recorder)
    _final_checks(st, out, kernels, new_outcomes, misses0)
    return out


def _final_checks(st, out: Outcome, kernels: dict, new_outcomes: dict, misses0: int) -> None:
    from repro.compiler.kernels import KERNEL_CACHE

    problem = check_compiled_once(
        new_outcomes, KERNEL_CACHE.stats()["misses"] - misses0, "never-seen keys"
    )
    if problem:
        out.problems.append(problem)
    check_kernels(st, kernels, out)


def capacity(responses) -> float:
    """Requests per second the worker completes when it is never idle:
    requests served over the seconds it was busy with them (dequeue to
    response; one worker, so the intervals do not overlap).  By the
    utilization law this is the offered rate above which the backlog
    grows."""
    busy_ms = sum(r.total_ms - r.queue_ms for r in responses)
    return len(responses) / (busy_ms / 1e3)


def _traced(st, plain: Phase, out: Outcome, kernels: dict, new_outcomes: dict, rec) -> None:
    """Replay the fixed-rate schedule with every layer traced (fresh
    never-seen keys), and derive the per-layer figures from its spans."""
    import tracing_install
    from repro.compiler.kernels import KERNEL_CACHE
    from repro.service.handlers import BUILTIN_HANDLERS

    st.rid_of = {}
    for kind in ("compile", "solve_cg"):
        st.svc.register(kind, _traced_handler(st, rec, kind, BUILTIN_HANDLERS[kind]))
    tracing_install.install(rec)
    stats0 = KERNEL_CACHE.stats()
    ph = drive(st, schedule(st, (3,), RATE, len(plain.reqs)), rec)
    stats1 = KERNEL_CACHE.stats()
    rec.uninstall()
    for kind in ("compile", "solve_cg"):
        st.svc.register(kind, BUILTIN_HANDLERS[kind])
    check_phase(st, ph, out, kernels, new_outcomes)

    L = out.layers
    # parent span id (a compile_kernel or a handler) -> its cache outcome
    outcome_of = {s[4]: s[6]["outcome"] for s in rec.by_name("plan_cache.get_or_compile") if s[6]}
    us = lambda name, where=None: (1e6 * median(rec.durations(name, where)), "us")
    L["compiler.parse_us"] = us("compiler.parse")
    L["compiler.depend_us"] = us("analysis.classify_program")
    L["compiler.cert_check_us"] = us("analysis.check_certificate")
    L["compiler.key_us"] = us("compiler.kernel_cache_key")
    L["compiler.warm_hit_us"] = us(
        "compiler.compile_kernel", lambda s: outcome_of.get(s[0]) == "hit"
    )
    cold = rec.durations(
        "plan_cache.get_or_compile", lambda s: s[6] and s[6]["outcome"] == "compiled"
    )
    L["compiler.cold_ms"] = (1e3 * median(cold), "ms")
    outcomes = [s[6]["outcome"] for s in rec.by_name("plan_cache.get_or_compile") if s[6]]
    for name in ("hit", "compiled", "coalesced"):
        key = "hits" if name == "hit" else name
        L[f"plan_cache.{key}"] = (outcomes.count(name), "count")
    L["plan_cache.evictions"] = (stats1["evictions"] - stats0["evictions"], "count")
    L["plan_cache.lookups"] = (len(outcomes), "count")
    L["plan_cache.hit_ratio"] = (outcomes.count("hit") / len(outcomes), "ratio")

    cg_spans = [s for s in rec.by_name("solvers.cg") if s[6]]
    L["solver.cg_iterations"] = (sum(s[6]["iterations"] for s in cg_spans), "count")
    L["solver.iter_us"] = (
        1e6 * median([(s[3] - s[2]) / max(1, s[6]["iterations"]) for s in cg_spans]),
        "us",
    )
    L["solver.spmv_us"] = us("kernels.spmv")

    kinds = ph.kinds()
    resp = ph.responses
    queue = np.array([r.queue_ms for r in resp])
    handle = np.array([r.handle_ms for r in resp])
    L["service.queue_ms.p50"] = (percentile(queue, 50), "ms")
    L["service.queue_ms.p99"] = (percentile(queue, 99), "ms")
    L["service.handle_ms.compile.p50"] = (percentile(handle[kinds == "compile"], 50), "ms")
    L["service.handle_ms.solve.p50"] = (percentile(handle[kinds == "solve_cg"], 50), "ms")
    L["service.backlog_max"] = (ph.backlog_max, "count")
    L["loadgen.late_ms.p99"] = (1e3 * percentile(ph.late, 99), "ms")
    # over both halves (~670 requests); tracing adds ~1 ms to a ~100 ms tail
    L["service.req_ms.p99"] = (
        percentile(np.concatenate([plain.latency_ms(), ph.latency_ms()]), 99), "ms",
    )
    plain_lat, plain_kinds = plain.latency_ms(), plain.kinds()
    L["service.solve_req_ms.p50"] = (median(plain_lat[plain_kinds == "solve_cg"]), "ms")
    L["service.capacity_per_s"] = (capacity(plain.responses), "1/s")
    plain_handle = np.array([r.handle_ms for r in plain.responses])
    L["trace.overhead_ms.service"] = (float(handle.mean() - plain_handle.mean()), "ms")
    L["trace.uncovered_ms.service"] = (1e3 * rec.uncovered_seconds() / len(resp), "ms")
    L["kernel.unbound_overhead_us"] = (_unbound_overhead_us(st), "us")


def _traced_handler(st, rec, kind, handler):
    traced = rec.wrap(handler, f"service.handle.{kind}")

    def run(payload, ctx):
        with rec.request(st.rid_of.get(id(payload), -1)):
            return traced(payload, ctx)

    return run


def _unbound_overhead_us(st) -> float:
    """Unbound ``CompiledKernel.__call__`` minus the pre-bound call on the
    same CRS operands (the family's middle solve system): what each CG
    iteration pays for binding."""
    from repro.compiler import kernels as ck
    from repro.formats import DenseVector
    from repro.kernels.spmv import SPMV_SRC

    labels = st.fam.solve_labels
    A = st.systems[labels[len(labels) // 2]]["A"]
    n = A.shape[0]
    X, Y = DenseVector(np.ones(n)), DenseVector.zeros(n)
    k = ck.compile_kernel(SPMV_SRC, {"A": A, "X": X, "Y": Y})
    bound = k.bind(A=A, X=X, Y=Y)
    unbound, pre = [], []
    for _ in range(300):
        t0 = time.perf_counter()
        k(A=A, X=X, Y=Y)
        t1 = time.perf_counter()
        bound()
        t2 = time.perf_counter()
        unbound.append(t1 - t0)
        pre.append(t2 - t1)
    return 1e6 * (median(unbound) - median(pre))
