"""The layer entry points the traced run wraps, and the span names it
gives them.  See :mod:`tracing` for how the wrapping works;
``SpanRecorder.uninstall`` undoes :func:`install`."""

from __future__ import annotations

TABLE1_CLASSES = (
    "CRSMatrix",
    "CCSMatrix",
    "COOMatrix",
    "ELLMatrix",
    "JaggedDiagonalMatrix",
    "DiagonalMatrix",
    "BlockSolveMatrix",
)


def install(rec) -> None:
    from importlib import import_module

    import repro.formats as formats
    from repro.runtime.machine import Machine
    from repro.service.service import CompileSolveService

    # by module path: the packages re-export functions of the same names
    depend = import_module("repro.analysis.depend")
    kernels = import_module("repro.compiler.kernels")
    parser = import_module("repro.compiler.parser")
    plan_cache = import_module("repro.compiler.plan_cache")
    spmv = import_module("repro.kernels.spmv")
    cg = import_module("repro.solvers.cg")

    rec.rebind_function(parser, "parse", "compiler.parse")
    rec.rebind_function(depend, "classify_program", "analysis.classify_program")
    rec.rebind_function(depend, "check_certificate", "analysis.check_certificate")
    rec.rebind_function(plan_cache, "kernel_cache_key", "compiler.kernel_cache_key")
    rec.rebind_method(
        plan_cache.PlanCache, "get_or_compile", "plan_cache.get_or_compile",
        attrs=lambda r: {"outcome": r[1]},
    )
    rec.rebind_function(kernels, "compile_kernel", "compiler.compile_kernel")
    rec.rebind_method(kernels.CompiledKernel, "__call__", "kernel.call")
    rec.rebind_method(
        kernels.CompiledKernel, "bind", "kernel.bind",
        result=lambda bound: rec.wrap(bound, "kernel.bound_call"),
    )

    rec.rebind_function(spmv, "spmv", "kernels.spmv")
    rec.rebind_function(cg, "cg", "solvers.cg", attrs=lambda r: {"iterations": r.iterations})
    rec.rebind_function(cg, "parallel_cg", "solvers.parallel_cg")
    rec.rebind_method(Machine, "run", "runtime.machine_run")
    for name in TABLE1_CLASSES:
        rec.rebind_method(getattr(formats, name), "from_coo", f"formats.from_coo.{name}")
    rec.rebind_method(CompileSolveService, "submit", "service.submit")

