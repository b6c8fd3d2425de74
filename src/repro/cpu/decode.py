"""Predecode: programs -> basic blocks of lockstep handler closures.

This is the static half of every untraced run (:mod:`repro.cpu.
batchcore`).  At load time each program is decoded **once** into basic
blocks; every instruction becomes a *handler maker* — a closure factory
specialized on the instruction's static operands (register indices,
immediates, ports, branch targets).  At run time the batch core binds
the makers to its context (shared register files, memory and cache
models; per-point scoreboards and DySER devices), producing a flat
tuple of handlers per block; executing a block is then just
``for h in handlers: h()``.

Each handler serves a *lane*: one or more sweep points that share one
functional execution.

- **Functional work happens once per lane.**  Register values, memory
  traffic, cache latencies, branch outcomes and DySER operand values are
  identical across points whose configs differ only in timing knobs
  (FIFO depths, initiation interval, config-cache capacity, vector port
  rate, instruction limits) — timing cannot change a value in this
  machine, so the evaluator, the memory image and the cache hierarchy
  are shared and touched exactly once per dynamic instruction.
- **Timing work happens per point.**  Scoreboards (register ready
  cycles + stall-cause attribution), structural units (FPU/LSU/fabric/
  store-queue), the per-point cycle cursor and the per-point DySER
  device live on the batch context; a handler's inner loop walks one of
  its point views and replays exactly the reference core's issue rules
  for each point.  A solo run is a lane of one.

Handler signature: ``maker(ctx) -> handler()``.  Terminator makers
return ``term() -> next_block_index`` — control flow is *shared* across
the lane by construction, which is why no handler ever needs a
per-point branch target.  Divergence therefore only ever means "a point
faults" (e.g. a per-point instruction limit), and the batch core
handles that, never a handler.

The decode result is **config-independent**: microarchitectural numbers
(latencies, penalties, cache hit latencies, the vector port rates) are
read from the context at *bind* time, so one decode serves every
:class:`~repro.cpu.core.CoreConfig` with the same I$ line geometry.

Cycle-exactness contract: for every point, every handler replicates the
corresponding case of :meth:`repro.cpu.core.Core.run` — same
issue-floor rules, same stall-cause attribution (including the ``cause
or DATA_HAZARD`` default and the LSU_BUSY refinement on DySER memory
ops), same functional semantics (64-bit wrapping, r0 discipline,
division conventions).  The source-register rules and the value
semantics are not restated: the makers take them from
:mod:`repro.cpu.rules`, whose templates compile into specialised
closures here and into the plain functions the reference core calls.
The differential harnesses in :mod:`repro.harness.parity` and
:mod:`repro.harness.batch` enforce the rest.

The decode cache is keyed by program *identity* (``id()`` plus a
liveness check through a weak reference — :class:`~repro.isa.program.
Program` is a mutable dataclass and therefore unhashable) and by the I$
line geometry, and is evicted when the program is collected.
``clear_decode_caches()`` drops everything, for test isolation and
:func:`repro.harness.runner.clear_caches`.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.cpu.regfile import wrap64
from repro.cpu.rules import (
    _BRANCH_TAKEN, FP_INT_DEST, _fp_eval_binder, _int_eval_binder,
    clear_eval_caches, fp_insn_srcs, int_alu_srcs)
from repro.isa.opcodes import InsnClass, Opcode, WIDE_OPS
from repro.isa.program import Program

_INSN_BYTES = 4
_M64 = (1 << 64) - 1
_H64 = 1 << 63
_W64 = 1 << 64

#: StallCause IDs, by declaration order of :class:`repro.cpu.statistics.
#: StallCause` (handlers accumulate into a flat int array per point; the
#: batch core converts back to the enum-keyed Counter when the run
#: finishes).
DATA_HAZARD = 0
LOAD_MISS = 1
FETCH_MISS = 2
BRANCH = 3
STRUCTURAL_FPU = 4
DYSER_SEND = 5
DYSER_RECV = 6
DYSER_CONFIG = 7
LSU_BUSY = 8


# ---------------------------------------------------------------------------
# Handler makers.  maker(ctx) -> handler(); handlers advance each active
# point's cycle cursor ``sc[4]`` in place.  Loops walk one of the
# context's point views (see ``_BatchCtx``), which bind each point's
# scoreboards as one tuple.
# ---------------------------------------------------------------------------

def _make_fetch(pc: int, line: int, conditional: bool):
    addr = pc * _INSN_BYTES
    if conditional:
        def maker(ctx):
            fa, fl, ihit, pi = ctx.fa, ctx.fl, ctx.ihit, ctx.pi

            def h():
                if fl[0] != line:
                    lat = fa(addr)
                    fl[0] = line
                    if lat > ihit:
                        for _, _, st, sc in pi:
                            st[FETCH_MISS] += lat
                            sc[4] += lat
            return h
        return maker

    def maker(ctx):
        fa, fl, ihit, pi = ctx.fa, ctx.fl, ctx.ihit, ctx.pi

        def h():
            lat = fa(addr)
            fl[0] = line
            if lat > ihit:
                for _, _, st, sc in pi:
                    st[FETCH_MISS] += lat
                    sc[4] += lat
        return h
    return maker


def _make_int_alu(insn, iclass):
    op = insn.op
    rd = insn.rd
    if op is Opcode.SEL:
        s1, s2, s3 = insn.rs1, insn.rs2, insn.rs3

        def maker(ctx):
            ir, pi = ctx.ir, ctx.pi
            lat = ctx.lats[iclass]

            def h():
                for irdy, icz, st, sc in pi:
                    t = sc[4]
                    issue = t
                    c = None
                    r = irdy[s1]
                    if r > issue:
                        issue = r
                        c = icz[s1]
                    r = irdy[s2]
                    if r > issue:
                        issue = r
                        c = icz[s2]
                    r = irdy[s3]
                    if r > issue:
                        issue = r
                        c = icz[s3]
                    d = issue - t
                    if d > 0:
                        st[DATA_HAZARD if c is None else c] += d
                    if rd:
                        irdy[rd] = issue + lat
                        icz[rd] = None
                    sc[4] = issue + 1
                if rd:
                    ir[rd] = ir[s2] if ir[s1] else ir[s3]
            return h
        return maker

    srcs = int_alu_srcs(insn)
    s1, s2 = insn.rs1, insn.rs2
    imm_i = int(insn.imm) if insn.imm is not None else None
    akind = "reg" if s1 is not None else "zero"
    bkind = "imm" if imm_i is not None else (
        "reg" if s2 is not None else "zero")
    binder = _int_eval_binder(op.value, akind, bkind)

    if len(srcs) == 1:
        w1 = srcs[0]

        def maker(ctx):
            ir, pi = ctx.ir, ctx.pi
            lat = ctx.lats[iclass]
            ev = binder(ir, s1, s2, imm_i)

            def h():
                for irdy, icz, st, sc in pi:
                    t = sc[4]
                    issue = t
                    c = None
                    r = irdy[w1]
                    if r > issue:
                        issue = r
                        c = icz[w1]
                    d = issue - t
                    if d > 0:
                        st[DATA_HAZARD if c is None else c] += d
                    if rd:
                        irdy[rd] = issue + lat
                        icz[rd] = None
                    sc[4] = issue + 1
                v = ev()
                if rd:
                    v &= _M64
                    if v >= _H64:
                        v -= _W64
                    ir[rd] = v
            return h
        return maker

    w1, w2 = srcs

    def maker(ctx):
        ir, pi = ctx.ir, ctx.pi
        lat = ctx.lats[iclass]
        ev = binder(ir, s1, s2, imm_i)

        def h():
            for irdy, icz, st, sc in pi:
                t = sc[4]
                issue = t
                c = None
                r = irdy[w1]
                if r > issue:
                    issue = r
                    c = icz[w1]
                r = irdy[w2]
                if r > issue:
                    issue = r
                    c = icz[w2]
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                if rd:
                    irdy[rd] = issue + lat
                    icz[rd] = None
                sc[4] = issue + 1
            v = ev()
            if rd:
                v &= _M64
                if v >= _H64:
                    v -= _W64
                ir[rd] = v
        return h
    return maker


def _make_move(insn):
    op = insn.op
    rd = insn.rd
    fp = op in (Opcode.FLI, Opcode.FMOV)
    # r0 stays zero and ready; an FP destination is always written.
    wr = fp or bool(rd)
    if op in (Opcode.LI, Opcode.FLI):
        val = float(insn.imm) if fp else wrap64(int(insn.imm))

        def maker(ctx):
            regs, view = (ctx.fr, ctx.pf) if fp else (ctx.ir, ctx.pi)

            def h():
                for rdy, cz, _, sc in view:
                    t = sc[4] + 1
                    if wr:
                        rdy[rd] = t
                        cz[rd] = None
                    sc[4] = t
                if wr:
                    regs[rd] = val
            return h
        return maker

    # MOV / FMOV
    s1 = insn.rs1

    def maker(ctx):
        regs, view = (ctx.fr, ctx.pf) if fp else (ctx.ir, ctx.pi)

        def h():
            for rdy, cz, st, sc in view:
                t = sc[4]
                issue = t
                c = None
                r = rdy[s1]
                if r > issue:
                    issue = r
                    c = cz[s1]
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                if wr:
                    rdy[rd] = issue + 1
                    cz[rd] = None
                sc[4] = issue + 1
            if wr:
                regs[rd] = regs[s1]
        return h
    return maker


def _make_fp(insn, iclass):
    op = insn.op
    rd = insn.rd
    s1, s2, s3 = insn.rs1, insn.rs2, insn.rs3
    int_srcs, fp_srcs = fp_insn_srcs(insn)
    int_dest = op in FP_INT_DEST

    def maker(ctx):
        ir, fr, pa = ctx.ir, ctx.fr, ctx.pa
        lat = ctx.lats[iclass]
        pipelined = ctx.pipelined
        ev = _fp_eval_binder(op, ir, fr, s1, s2, s3)

        def h():
            v = ev()
            if int_dest:
                if rd:
                    w = v & _M64
                    if w >= _H64:
                        w -= _W64
                    ir[rd] = w
            else:
                fr[rd] = float(v)
            for irdy, icz, frdy, fcz, st, sc in pa:
                t = sc[4]
                issue = t
                c1 = None
                for s in int_srcs:
                    r = irdy[s]
                    if r > issue:
                        issue = r
                        c1 = icz[s]
                c2 = None
                for s in fp_srcs:
                    r = frdy[s]
                    if r > issue:
                        issue = r
                        c2 = fcz[s]
                c = c2 if c2 is not None else c1
                fpu = sc[0]
                if not pipelined and fpu > issue:
                    st[STRUCTURAL_FPU] += fpu - issue
                    d = issue - t
                    if d > 0:
                        st[DATA_HAZARD if c is None else c] += d
                    issue = fpu
                else:
                    d = issue - t
                    if d > 0:
                        st[DATA_HAZARD if c is None else c] += d
                ready = issue + lat
                sc[0] = ready
                if int_dest:
                    if rd:
                        irdy[rd] = ready
                        icz[rd] = None
                else:
                    frdy[rd] = ready
                    fcz[rd] = None
                sc[4] = issue + 1
        return h
    return maker


def _make_load(insn):
    rd = insn.rd
    s1 = insn.rs1
    imm_i = int(insn.imm)

    if insn.op is Opcode.FLD:
        def maker(ctx):
            ir, fr, pa = ctx.ir, ctx.fr, ctx.pa
            da, dhit = ctx.da, ctx.dhit
            lw = ctx.mem.load_word

            def h():
                addr = ir[s1] + imm_i
                lat = da(addr)
                fr[rd] = float(lw(addr))
                mcz = LOAD_MISS if lat > dhit else None
                for irdy, icz, frdy, fcz, st, sc in pa:
                    t = sc[4]
                    lsu = sc[1]
                    issue = t if t >= lsu else lsu
                    c = None
                    r = irdy[s1]
                    if r > issue:
                        issue = r
                        c = icz[s1]
                    d = issue - t
                    if d > 0:
                        st[DATA_HAZARD if c is None else c] += d
                    frdy[rd] = issue + lat
                    fcz[rd] = mcz
                    nt = issue + 1
                    sc[1] = nt
                    sc[4] = nt
            return h
        return maker

    def maker(ctx):
        ir, pi = ctx.ir, ctx.pi
        da, dhit = ctx.da, ctx.dhit
        lw = ctx.mem.load_word

        def h():
            addr = ir[s1] + imm_i
            lat = da(addr)
            v = int(lw(addr))
            if rd:
                v &= _M64
                if v >= _H64:
                    v -= _W64
                ir[rd] = v
            mcz = LOAD_MISS if lat > dhit else None
            for irdy, icz, st, sc in pi:
                t = sc[4]
                lsu = sc[1]
                issue = t if t >= lsu else lsu
                c = None
                r = irdy[s1]
                if r > issue:
                    issue = r
                    c = icz[s1]
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                if rd:
                    irdy[rd] = issue + lat
                    icz[rd] = mcz
                nt = issue + 1
                sc[1] = nt
                sc[4] = nt
        return h
    return maker


def _make_store(insn):
    s1, s2 = insn.rs1, insn.rs2
    imm_i = int(insn.imm)

    if insn.op is Opcode.FST:
        def maker(ctx):
            ir, fr, pa = ctx.ir, ctx.fr, ctx.pa
            da = ctx.da
            sw = ctx.mem.store_word

            def h():
                addr = ir[s1] + imm_i
                da(addr, True)
                sw(addr, fr[s2])
                for irdy, icz, frdy, fcz, st, sc in pa:
                    t = sc[4]
                    lsu = sc[1]
                    issue = t if t >= lsu else lsu
                    c = None
                    r = irdy[s1]
                    if r > issue:
                        issue = r
                        c = icz[s1]
                    c2 = None
                    r = frdy[s2]
                    if r > issue:
                        issue = r
                        c2 = fcz[s2]
                    if c2 is not None:
                        c = c2
                    d = issue - t
                    if d > 0:
                        st[DATA_HAZARD if c is None else c] += d
                    nt = issue + 1
                    sc[1] = nt
                    sc[4] = nt
            return h
        return maker

    def maker(ctx):
        ir, pi = ctx.ir, ctx.pi
        da = ctx.da
        sw = ctx.mem.store_word

        def h():
            addr = ir[s1] + imm_i
            da(addr, True)
            sw(addr, ir[s2])
            for irdy, icz, st, sc in pi:
                t = sc[4]
                lsu = sc[1]
                issue = t if t >= lsu else lsu
                c = None
                r = irdy[s1]
                if r > issue:
                    issue = r
                    c = icz[s1]
                r = irdy[s2]
                if r > issue:
                    issue = r
                    c = icz[s2]
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                nt = issue + 1
                sc[1] = nt
                sc[4] = nt
        return h
    return maker


def _make_nop():
    def maker(ctx):
        pi = ctx.pi

        def h():
            for _, _, _, sc in pi:
                sc[4] += 1
        return h
    return maker


# -- DySER extension handlers ------------------------------------------------

def _no_dyser(op_value: str):
    def h():
        raise SimulationError(
            f"{op_value} executed on a core without DySER"
        )
    return h


def _make_dinit(insn):
    imm_i = int(insn.imm)

    def maker(ctx):
        if ctx.devs[0] is None:
            return _no_dyser(insn.op.value)
        pdi = ctx.pdi

        def h():
            for _, dev, _, _, st, sc in pdi:
                t = sc[4]
                ready = dev.init_config(imm_i, t)
                d = ready - t
                if d > 0:
                    st[DYSER_CONFIG] += d
                sc[2] = ready
                sc[4] = ready + 1
        return h
    return maker


def _make_dsend(insn):
    port = insn.port
    s1 = insn.rs1
    is_fp = insn.op is Opcode.DFSEND

    def maker(ctx):
        if ctx.devs[0] is None:
            return _no_dyser(insn.op.value)
        regs, view = (ctx.fr, ctx.pdf) if is_fp else (ctx.ir, ctx.pdi)

        def h():
            value = regs[s1]
            for _, dev, rdy, cz, st, sc in view:
                t = sc[4]
                issue = t
                c = None
                r = rdy[s1]
                if r > issue:
                    issue = r
                    c = cz[s1]
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                fab = sc[2]
                if fab > issue:
                    st[DYSER_CONFIG] += fab - issue
                    issue = fab
                done = dev.send(port, value, issue)
                d = done - issue
                if d > 0:
                    st[DYSER_SEND] += d
                sc[4] = (issue if issue >= done else done) + 1
        return h
    return maker


def _make_drecv(insn):
    port = insn.port
    rd = insn.rd
    is_fp = insn.op is Opcode.DFRECV
    wr = is_fp or bool(rd)

    def maker(ctx):
        if ctx.devs[0] is None:
            return _no_dyser(insn.op.value)
        ir, fr = ctx.ir, ctx.fr
        view = ctx.pdf if is_fp else ctx.pdi

        def h():
            value = None
            for _, dev, rdy, cz, st, sc in view:
                t = sc[4]
                fab = sc[2]
                issue = t if t >= fab else fab
                d = issue - t
                if d > 0:
                    st[DYSER_CONFIG] += d
                value, done = dev.recv(port, issue)
                d = done - issue
                if d > 0:
                    st[DYSER_RECV] += d
                if wr:
                    rdy[rd] = done
                    cz[rd] = DYSER_RECV
                sc[4] = done + 1
            # The received value is config-independent (same functional
            # stream per point); retire it into the shared registers.
            if is_fp:
                fr[rd] = float(value)
            else:
                v = int(value)
                if rd:
                    v &= _M64
                    if v >= _H64:
                        v -= _W64
                    ir[rd] = v
        return h
    return maker


def _make_dld(insn):
    """Scalar and vector/wide DySER loads (memory -> input ports)."""
    op = insn.op
    port = insn.port
    s1 = insn.rs1
    imm_i = int(insn.imm)
    scalar = op in (Opcode.DLD, Opcode.DFLD)
    wide = op in WIDE_OPS
    is_fp = op in (Opcode.DFLD, Opcode.DFLDV, Opcode.DFLDW)

    def maker(ctx):
        if ctx.devs[0] is None:
            return _no_dyser(op.value)
        ir, pdi = ctx.ir, ctx.pdi
        da, vca = ctx.da, ctx.vca
        mem = ctx.mem
        rates = ctx.rates
        cast = float if is_fp else int

        if scalar:
            lw = mem.load_word

            def h():
                addr = ir[s1] + imm_i
                lat = da(addr)
                value = cast(lw(addr))
                for _, dev, irdy, icz, st, sc in pdi:
                    t = sc[4]
                    lsu = sc[1]
                    issue = t if t >= lsu else lsu
                    c = None
                    r = irdy[s1]
                    if r > issue:
                        issue = r
                        c = icz[s1]
                    if lsu > t and issue == lsu and c is None:
                        c = LSU_BUSY
                    d = issue - t
                    if d > 0:
                        st[DATA_HAZARD if c is None else c] += d
                    fab = sc[2]
                    if fab > issue:
                        st[DYSER_CONFIG] += fab - issue
                        issue = fab
                    arrive = issue + lat
                    done = dev.send(port, value, arrive)
                    d = done - arrive
                    if d > 0:
                        st[DYSER_SEND] += d
                    nt = issue + 1
                    sc[1] = nt
                    sc[4] = nt
            return h

        count = imm_i
        lb = mem.load_block
        holds = [max(1, count // r) for r in rates]
        # Per-point arrival offsets (i // rate) are data-independent;
        # compute them once so the hot loop only adds t0.
        offsets = [[i // r for i in range(count)] for r in rates]

        def h():
            base = ir[s1]
            lat = vca(base, count, False)
            vals = [cast(v) for v in lb(base, count)]
            for p, dev, irdy, icz, st, sc in pdi:
                t = sc[4]
                lsu = sc[1]
                issue = t if t >= lsu else lsu
                c = None
                r = irdy[s1]
                if r > issue:
                    issue = r
                    c = icz[s1]
                if lsu > t and issue == lsu and c is None:
                    c = LSU_BUSY
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                fab = sc[2]
                if fab > issue:
                    st[DYSER_CONFIG] += fab - issue
                    issue = fab
                t0 = issue + lat
                offs = offsets[p]
                if wide:
                    # Value i goes to port ``port + i``, one send each.
                    send = dev.send
                    stall = 0
                    for i, value in enumerate(vals):
                        arrive = t0 + offs[i]
                        done = send(port + i, value, arrive)
                        if done > arrive:
                            stall += done - arrive
                else:
                    stall = dev.send_stream(port, vals,
                                            [t0 + o for o in offs])
                if stall:
                    st[DYSER_SEND] += stall
                sc[1] = issue + holds[p]
                sc[4] = issue + 1
        return h
    return maker


def _make_dst(insn):
    """Scalar and vector/wide DySER stores (output ports -> memory)."""
    op = insn.op
    port = insn.port
    s1 = insn.rs1
    imm_i = int(insn.imm)
    scalar = op in (Opcode.DST, Opcode.DFST)
    wide = op in WIDE_OPS
    is_fp = op in (Opcode.DFST, Opcode.DFSTV, Opcode.DFSTW)
    cast = float if is_fp else int

    def maker(ctx):
        if ctx.devs[0] is None:
            return _no_dyser(op.value)
        ir, pdi = ctx.ir, ctx.pdi
        da, vca = ctx.da, ctx.vca
        mem = ctx.mem
        rates = ctx.rates

        if scalar:
            sw = mem.store_word

            def h():
                value = None
                for _, dev, irdy, icz, st, sc in pdi:
                    t = sc[4]
                    lsu = sc[1]
                    issue = t if t >= lsu else lsu
                    c = None
                    r = irdy[s1]
                    if r > issue:
                        issue = r
                        c = icz[s1]
                    if lsu > t and issue == lsu and c is None:
                        c = LSU_BUSY
                    d = issue - t
                    if d > 0:
                        st[DATA_HAZARD if c is None else c] += d
                    fab = sc[2]
                    if fab > issue:
                        st[DYSER_CONFIG] += fab - issue
                        issue = fab
                    value, done = dev.recv(port, issue)
                    if done > sc[3]:
                        sc[3] = done
                    nt = issue + 1
                    sc[1] = nt
                    sc[4] = nt
                # Store once: the value stream is point-independent.
                addr = ir[s1] + imm_i
                da(addr, True)
                sw(addr, cast(value))
            return h

        count = imm_i
        sb = mem.store_block
        holds = [max(1, count // r) for r in rates]

        def h():
            values = None
            base = ir[s1]
            for p, dev, irdy, icz, st, sc in pdi:
                recv = dev.recv
                t = sc[4]
                lsu = sc[1]
                issue = t if t >= lsu else lsu
                c = None
                r = irdy[s1]
                if r > issue:
                    issue = r
                    c = icz[s1]
                if lsu > t and issue == lsu and c is None:
                    c = LSU_BUSY
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                fab = sc[2]
                if fab > issue:
                    st[DYSER_CONFIG] += fab - issue
                    issue = fab
                done = issue
                values = []
                append = values.append
                for i in range(count):
                    value, done = recv(port + i if wide else port, done)
                    append(value)
                if done > sc[3]:
                    sc[3] = done
                sc[1] = issue + holds[p]
                sc[4] = issue + 1
            vca(base, count, True)
            sb(base, [cast(v) for v in values])
        return h
    return maker


# -- terminators -------------------------------------------------------------

def _make_branch(insn, tbi: int, fbi: int):
    s1, s2 = insn.rs1, insn.rs2
    cmp = _BRANCH_TAKEN[insn.op]

    def maker(ctx):
        ir, pi = ctx.ir, ctx.pi
        misc = ctx.misc
        penalty = ctx.penalty

        def term():
            taken = cmp(ir[s1], ir[s2])
            for irdy, icz, st, sc in pi:
                t = sc[4]
                issue = t
                c = None
                r = irdy[s1]
                if r > issue:
                    issue = r
                    c = icz[s1]
                r = irdy[s2]
                if r > issue:
                    issue = r
                    c = icz[s2]
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                if taken:
                    if penalty > 0:
                        st[BRANCH] += penalty
                    sc[4] = issue + 1 + penalty
                else:
                    sc[4] = issue + 1
            if taken:
                misc[0] += 1
                return tbi
            return fbi
        return term
    return maker


def _make_jump(tbi: int):
    def maker(ctx):
        misc, pi = ctx.misc, ctx.pi
        penalty = ctx.penalty

        def term():
            misc[0] += 1
            for _, _, st, sc in pi:
                if penalty > 0:
                    st[BRANCH] += penalty
                sc[4] += 1 + penalty
            return tbi
        return term
    return maker


def _make_halt():
    def maker(ctx):
        pi = ctx.pi

        def term():
            for _, _, _, sc in pi:
                t = sc[4]
                q = sc[3]
                sc[4] = (t if t >= q else q) + 1
            return -1
        return term
    return maker


def _make_fall(fbi: int):
    def maker(ctx):
        def term():
            return fbi
        return term
    return maker


def _make_exec(insn):
    iclass = insn.info.iclass
    C = InsnClass
    if iclass in (C.ALU, C.MUL, C.DIV):
        return _make_int_alu(insn, iclass)
    if iclass is C.MOVE:
        return _make_move(insn)
    if iclass in (C.FPU, C.FDIV):
        return _make_fp(insn, iclass)
    if iclass is C.LOAD:
        return _make_load(insn)
    if iclass is C.STORE:
        return _make_store(insn)
    if iclass is C.DYSER_INIT:
        return _make_dinit(insn)
    if iclass is C.DYSER_SEND:
        return _make_dsend(insn)
    if iclass is C.DYSER_RECV:
        return _make_drecv(insn)
    if iclass is C.DYSER_LOAD:
        return _make_dld(insn)
    if iclass is C.DYSER_STORE:
        return _make_dst(insn)
    if insn.op is Opcode.NOP:
        return _make_nop()
    raise SimulationError(f"unhandled opcode {insn.op}")


# ---------------------------------------------------------------------------
# Basic-block construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodedBlock:
    """One basic block as a static handler template.

    ``makers`` covers every non-terminating instruction (fetch handlers
    interleaved in front of their instruction); the block's control
    transfer lives in ``term_maker``.  ``starts[k]`` is the offset of
    instruction *k*'s first handler, used when an instruction limit
    lands inside the block of a lane of one.  ``mix`` is the per-class instruction
    histogram, folded into :class:`~repro.cpu.statistics.ExecStats`
    once per block execution rather than once per instruction.
    """

    start: int
    length: int
    makers: tuple
    term_maker: object
    starts: tuple[int, ...]
    mix: tuple


@dataclass(frozen=True)
class DecodedProgram:
    """All basic blocks of one program (entry is ``blocks[0]``)."""

    blocks: tuple[DecodedBlock, ...]
    n: int
    name: str
    insns_per_line: int

    def bind(self, ctx) -> list:
        """Bind every maker to ``ctx``; returns per-block
        ``(handlers, term, length, starts)`` tuples."""
        return [
            (
                tuple(m(ctx) for m in b.makers),
                b.term_maker(ctx),
                b.length,
                b.starts,
            )
            for b in self.blocks
        ]


def _build(program: Program, insns_per_line: int) -> DecodedProgram:
    insns = program.instructions
    n = len(insns)
    control = (InsnClass.BRANCH, InsnClass.JUMP)
    leaders = {0}
    for i, insn in enumerate(insns):
        iclass = insn.info.iclass
        if iclass in control:
            if insn.target_index is not None and insn.target_index < n:
                leaders.add(insn.target_index)
            leaders.add(i + 1)
        elif insn.op is Opcode.HALT:
            leaders.add(i + 1)
    ordered = sorted(x for x in leaders if x < n)
    block_of = {pc: bi for bi, pc in enumerate(ordered)}
    bounds = ordered + [n]

    blocks = []
    for bi, start in enumerate(ordered):
        end = bounds[bi + 1]
        makers: list = []
        starts: list[int] = []
        mix: Counter = Counter()
        term_maker = None
        for pc in range(start, end):
            insn = insns[pc]
            starts.append(len(makers))
            mix[insn.info.iclass] += 1
            line = pc // insns_per_line
            if pc == start:
                makers.append(_make_fetch(pc, line, conditional=True))
            elif pc % insns_per_line == 0:
                makers.append(_make_fetch(pc, line, conditional=False))
            iclass = insn.info.iclass
            if iclass is InsnClass.BRANCH:
                ti = insn.target_index
                tbi = block_of[ti] if ti < n else -2
                fbi = block_of.get(pc + 1, -2)
                term_maker = _make_branch(insn, tbi, fbi)
            elif iclass is InsnClass.JUMP:
                ti = insn.target_index
                term_maker = _make_jump(block_of[ti] if ti < n else -2)
            elif insn.op is Opcode.HALT:
                term_maker = _make_halt()
            else:
                makers.append(_make_exec(insn))
        if term_maker is None:
            term_maker = _make_fall(block_of.get(end, -2))
        blocks.append(DecodedBlock(
            start=start,
            length=end - start,
            makers=tuple(makers),
            term_maker=term_maker,
            starts=tuple(starts),
            mix=tuple(mix.items()),
        ))
    return DecodedProgram(
        blocks=tuple(blocks), n=n, name=program.name,
        insns_per_line=insns_per_line,
    )


# ---------------------------------------------------------------------------
# Decode cache
# ---------------------------------------------------------------------------

# Program is a mutable (unhashable) dataclass, so the cache is keyed by
# identity and guarded by a weak reference: a dead or recycled id() can
# never serve a stale entry, and finalizers evict on collection.
_DECODE_CACHE: dict[tuple[int, int], tuple] = {}


def decode_program(program: Program,
                   insns_per_line: int | None = None) -> DecodedProgram:
    """Decode ``program`` (cached by identity and I$ line geometry).

    ``insns_per_line`` defaults to the stock I$ line geometry
    (:func:`repro.cpu.cache.icache_config`), matching a default
    :class:`~repro.cpu.core.CoreConfig`.
    """
    if insns_per_line is None:
        from repro.cpu.cache import icache_config

        insns_per_line = max(1,
                             icache_config().line_bytes // _INSN_BYTES)
    key = (id(program), insns_per_line)
    entry = _DECODE_CACHE.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    if not program.is_linked:
        program.link()
    program.validate()
    decoded = _build(program, insns_per_line)
    _DECODE_CACHE[key] = (weakref.ref(program), decoded)
    weakref.finalize(program, _DECODE_CACHE.pop, key, None)
    return decoded


def decode_cache_size() -> int:
    """Number of live decoded programs (for tests and cache stats)."""
    return len(_DECODE_CACHE)


def clear_decode_caches() -> None:
    """Drop all decoded programs and compiled evaluator patterns."""
    _DECODE_CACHE.clear()
    clear_eval_caches()
