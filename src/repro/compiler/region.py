"""Region selection and offload orchestration.

Candidate regions are innermost natural loops.  For each candidate the
selector:

1. classifies its control-flow shape (:mod:`repro.compiler.shapes`);
2. attempts the full offload pipeline — if-convert, unroll+vectorize,
   partition, spatially schedule — on a *clone* of the function, down a
   halving ladder of unroll factors (8 -> 4 -> 2 -> 1 by default): a
   rejected rung falls to the next (e.g. cross-iteration memory
   dependences surface as load-after-store hazards only once unrolled,
   and a big unrolled region may not fit or route).  If-conversion and
   unrolling rewrite the clone before the checks can run, so every rung
   needs its own; they are materialized from one pickled snapshot of the
   function per loop, which costs a fraction of a ``copy.deepcopy``;
3. adopts the clone on success, or leaves the loop as scalar code on
   failure, recording the rejection reason of the last rung.

A rung runs every check that reads no placement before place and route
(:func:`repro.compiler.aepdg.offload_body`): fit (``RPR213`` ops,
``RPR206`` ports), then aliasing, then profitability when not unrolled.

This mirrors the paper's compiler behaviour: profitable regions are
offloaded, everything else silently stays on the OpenSPARC side.
"""

from __future__ import annotations

import pickle

from repro.compiler.aepdg import Partition, offload_body
from repro.compiler.affine import AffineAnalysis, induction_step
from repro.compiler.cfg import Loop, innermost_loops, natural_loops
from repro.compiler.ifconvert import flatten_body
from repro.compiler.ir import Function, Value
from repro.compiler.shapes import Shape, classify_region
from repro.compiler.unroll import analyze_loop, can_unroll, unroll_loop
from repro.errors import RegionRejected, SchedulingError


def offload_regions(func: Function, options):
    """Offload every profitable innermost loop.

    Returns ``(new_function, [RegionReport])``; the input function is not
    mutated on rejection paths.
    """
    from repro.compiler.driver import RegionReport

    reports: list[RegionReport] = []
    next_config = 0
    processed: set[str] = set()
    while True:
        remainder_headers = getattr(func, "remainder_headers", set())
        candidates = [
            lp for lp in innermost_loops(func)
            if lp.header not in processed
            and lp.header not in remainder_headers
        ]
        if not candidates:
            break
        loop = min(candidates, key=lambda lp: lp.header)
        processed.add(loop.header)
        shape_report = classify_region(
            func, loop, _loop_inductions(func, loop))
        report = RegionReport(
            loop_header=loop.header, accepted=False, reason="",
            shape=shape_report.shape.value)
        if shape_report.shape is Shape.MULTI_EXIT:
            report.reason = "multi-exit loop is not if-convertible"
            reports.append(report)
            continue

        # Halving ladder: 8 -> 4 -> 2 -> 1.  Oversized or unroutable
        # attempts fall to the next factor, so e.g. a 9-tap convolution
        # that cannot unroll 4x still gets 2x.
        factors = []
        factor = options.unroll
        while factor > 1:
            factors.append(factor)
            factor //= 2
        factors.append(1)
        # Pipelining a loop whose control consumes carried data gains
        # nothing; skip unrolling there (the invocations serialize anyway).
        if shape_report.shape is Shape.LOOP_CARRIED_CONTROL:
            factors = [1]
        snapshot = pickle.dumps(func, pickle.HIGHEST_PROTOCOL)
        for factor in factors:
            work = pickle.loads(snapshot)
            try:
                partition = _attempt(work, loop.header, options,
                                     next_config, factor)
            except (RegionRejected, SchedulingError) as exc:
                report.reason = str(exc)
                continue
            func = work
            if getattr(options, "verify_passes", False):
                from repro.analysis.verifier import check_function

                check_function(func, f"offload:{loop.header}")
            report.accepted = True
            report.reason = "offloaded"
            report.execute_ops = partition.execute_ops
            report.input_ports = partition.input_ports
            report.output_ports = partition.output_ports
            report.unrolled = factor
            report.vectorized = partition.vectorized
            next_config += 1
            break
        reports.append(report)
    return func, reports


def _attempt(work: Function, header: str, options, config_id: int,
             unroll_factor: int) -> Partition:
    """Run the offload pipeline for one loop on ``work`` (mutating it)."""
    matches = [lp for lp in natural_loops(work) if lp.header == header]
    if not matches:
        raise RegionRejected("loop vanished during cloning")  # pragma: no cover
    loop = matches[0]
    flatten_body(work, loop)
    info = analyze_loop(work, loop)
    if unroll_factor > 1:
        if not can_unroll(info):
            raise RegionRejected("guard is not an affine induction")
        unroll_loop(work, loop, info, unroll_factor)
        # Refresh: carried values and induction chains changed.
        info = analyze_loop(work, loop)
    partition = offload_body(
        work, info, options.fabric, config_id,
        min_ops=options.min_region_ops,
        max_ops=options.max_region_ops,
        vectorize=options.vectorize and unroll_factor > 1,
        reassociate=options.reassociate,
        unrolled=unroll_factor > 1,
    )
    if not hasattr(work, "dyser_configs"):
        work.dyser_configs = {}
    work.dyser_configs[config_id] = partition.config
    work.verify()
    return partition


def _loop_inductions(func: Function, loop: Loop) -> set[Value]:
    """Header phis recognized as affine inductions (pre-flattening)."""
    analysis = AffineAnalysis()
    for block in func.block_order():
        if block.name in loop.blocks:
            analysis.visit_block(block)
    header = func.blocks[loop.header]
    preds_in_loop = [
        p for p in func.predecessors()[loop.header] if p in loop.blocks
    ]
    inductions: set[Value] = set()
    for phi in header.phis:
        latch_values = {
            phi.incomings[p] for p in preds_in_loop if p in phi.incomings
        }
        if len(latch_values) != 1:
            continue
        (latch_value,) = latch_values
        if induction_step(analysis, phi.result, latch_value) is not None:
            inductions.add(phi.result)
    return inductions
