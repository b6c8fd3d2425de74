"""Predecode: programs -> basic blocks of specialized handler closures.

This is the static half of the fast and the batched backend.  At load
time each program is decoded **once** into basic blocks; every
instruction becomes a *handler maker* — a closure factory specialized on
the instruction's static operands (register indices, immediates, ports,
branch targets).  The two backends share block discovery, the block
types, the opcode dispatch and the decode cache; each brings its own
:data:`HandlerSet`.  At run time the fast core binds this module's
makers to a :class:`~repro.cpu.fastcore._Ctx` (register files,
scoreboard arrays, cache models, the DySER device) producing a flat
tuple of handlers per block; executing a block is then just
``for h in handlers: t = h(t)``.  The lockstep makers live in
:mod:`repro.cpu.batchdecode`.

The decode result is **config-independent**: microarchitectural numbers
(latencies, penalties, cache hit latencies, the vector port rate) are
read from the context at *bind* time, so one decode serves every
:class:`~repro.cpu.core.CoreConfig` with the same I$ line geometry.

Cycle-exactness contract: every handler replicates the corresponding
case of :meth:`repro.cpu.core.Core.run` — same issue-floor rules, same
stall-cause attribution (including the ``cause or DATA_HAZARD`` default
and the LSU_BUSY refinement on DySER memory ops), same functional
semantics (64-bit wrapping, r0 discipline, division conventions).  The
source-register rules and the value semantics are not restated: the
makers take them from :mod:`repro.cpu.rules`, whose templates compile
into specialised closures here and into the plain functions the
reference core calls.  The differential harness in
:mod:`repro.harness.parity` enforces the rest.

The decode cache is keyed by program *identity* (``id()`` plus a
liveness check through a weak reference — :class:`~repro.isa.program.
Program` is a mutable dataclass and therefore unhashable), by the I$
line geometry and by the handler set, and is evicted when the program
is collected.  ``clear_decode_caches()`` drops everything, for test
isolation and :func:`repro.harness.runner.clear_caches`.
"""

from __future__ import annotations

import weakref
from collections import Counter, namedtuple
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
#: StallCause` (the fast path accumulates into a flat int array and only
#: converts back to the enum-keyed Counter when the run finishes).
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
# Handler makers.  Each returns maker(ctx) -> handler(t) -> t.
# Terminator makers return maker(ctx) -> term(t) -> (t, next_block).
# ---------------------------------------------------------------------------

def _make_fetch(pc: int, line: int, conditional: bool):
    addr = pc * _INSN_BYTES
    if conditional:
        def maker(ctx):
            fa, st, sc, ihit = ctx.fa, ctx.st, ctx.sc, ctx.ihit

            def h(t):
                if sc[4] != line:
                    lat = fa(addr)
                    sc[4] = line
                    if lat > ihit:
                        st[FETCH_MISS] += lat
                        t += lat
                return t
            return h
        return maker

    def maker(ctx):
        fa, st, sc, ihit = ctx.fa, ctx.st, ctx.sc, ctx.ihit

        def h(t):
            lat = fa(addr)
            sc[4] = line
            if lat > ihit:
                st[FETCH_MISS] += lat
                t += lat
            return t
        return h
    return maker


def _make_int_alu(insn, iclass):
    op = insn.op
    rd = insn.rd
    if op is Opcode.SEL:
        s1, s2, s3 = insn.rs1, insn.rs2, insn.rs3

        def maker(ctx):
            ir, irdy, icz, st = ctx.ir, ctx.irdy, ctx.icz, ctx.st
            lat = ctx.lats[iclass]

            def h(t):
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
                    ir[rd] = ir[s2] if ir[s1] else ir[s3]
                    irdy[rd] = issue + lat
                    icz[rd] = None
                return issue + 1
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
            ir, irdy, icz, st = ctx.ir, ctx.irdy, ctx.icz, ctx.st
            lat = ctx.lats[iclass]
            ev = binder(ir, s1, s2, imm_i)

            def h(t):
                issue = t
                c = None
                r = irdy[w1]
                if r > issue:
                    issue = r
                    c = icz[w1]
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                v = ev()
                if rd:
                    v &= _M64
                    if v >= _H64:
                        v -= _W64
                    ir[rd] = v
                    irdy[rd] = issue + lat
                    icz[rd] = None
                return issue + 1
            return h
        return maker

    w1, w2 = srcs

    def maker(ctx):
        ir, irdy, icz, st = ctx.ir, ctx.irdy, ctx.icz, ctx.st
        lat = ctx.lats[iclass]
        ev = binder(ir, s1, s2, imm_i)

        def h(t):
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
            v = ev()
            if rd:
                v &= _M64
                if v >= _H64:
                    v -= _W64
                ir[rd] = v
                irdy[rd] = issue + lat
                icz[rd] = None
            return issue + 1
        return h
    return maker


def _make_move(insn):
    op = insn.op
    rd = insn.rd
    if op is Opcode.LI:
        val = wrap64(int(insn.imm))

        def maker(ctx):
            ir, irdy, icz = ctx.ir, ctx.irdy, ctx.icz

            def h(t):
                if rd:
                    ir[rd] = val
                    irdy[rd] = t + 1
                    icz[rd] = None
                return t + 1
            return h
        return maker

    if op is Opcode.MOV:
        s1 = insn.rs1

        def maker(ctx):
            ir, irdy, icz, st = ctx.ir, ctx.irdy, ctx.icz, ctx.st

            def h(t):
                issue = t
                c = None
                r = irdy[s1]
                if r > issue:
                    issue = r
                    c = icz[s1]
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                if rd:
                    ir[rd] = ir[s1]
                    irdy[rd] = issue + 1
                    icz[rd] = None
                return issue + 1
            return h
        return maker

    if op is Opcode.FLI:
        val = float(insn.imm)

        def maker(ctx):
            fr, frdy, fcz = ctx.fr, ctx.frdy, ctx.fcz

            def h(t):
                fr[rd] = val
                frdy[rd] = t + 1
                fcz[rd] = None
                return t + 1
            return h
        return maker

    # FMOV
    s1 = insn.rs1

    def maker(ctx):
        fr, frdy, fcz, st = ctx.fr, ctx.frdy, ctx.fcz, ctx.st

        def h(t):
            issue = t
            c = None
            r = frdy[s1]
            if r > issue:
                issue = r
                c = fcz[s1]
            d = issue - t
            if d > 0:
                st[DATA_HAZARD if c is None else c] += d
            fr[rd] = fr[s1]
            frdy[rd] = issue + 1
            fcz[rd] = None
            return issue + 1
        return h
    return maker


def _make_fp(insn, iclass):
    op = insn.op
    rd = insn.rd
    s1, s2, s3 = insn.rs1, insn.rs2, insn.rs3
    int_srcs, fp_srcs = fp_insn_srcs(insn)
    int_dest = op in FP_INT_DEST

    def maker(ctx):
        ir, fr = ctx.ir, ctx.fr
        irdy, icz = ctx.irdy, ctx.icz
        frdy, fcz = ctx.frdy, ctx.fcz
        st, sc = ctx.st, ctx.sc
        lat = ctx.lats[iclass]
        pipelined = ctx.pipelined
        ev = _fp_eval_binder(op, ir, fr, s1, s2, s3)

        def h(t):
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
            v = ev()
            if int_dest:
                if rd:
                    v &= _M64
                    if v >= _H64:
                        v -= _W64
                    ir[rd] = v
                    irdy[rd] = ready
                    icz[rd] = None
            else:
                fr[rd] = float(v)
                frdy[rd] = ready
                fcz[rd] = None
            return issue + 1
        return h
    return maker


def _make_load(insn):
    rd = insn.rd
    s1 = insn.rs1
    imm_i = int(insn.imm)
    is_fp = insn.op is Opcode.FLD

    def maker(ctx):
        ir, irdy, icz = ctx.ir, ctx.irdy, ctx.icz
        fr, frdy, fcz = ctx.fr, ctx.frdy, ctx.fcz
        st, sc = ctx.st, ctx.sc
        da, dhit = ctx.da, ctx.dhit
        lw = ctx.mem.load_word

        def h(t):
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
            addr = ir[s1] + imm_i
            lat = da(addr)
            value = lw(addr)
            missed = lat > dhit
            if is_fp:
                fr[rd] = float(value)
                frdy[rd] = issue + lat
                fcz[rd] = LOAD_MISS if missed else None
            else:
                v = int(value)
                if rd:
                    v &= _M64
                    if v >= _H64:
                        v -= _W64
                    ir[rd] = v
                    irdy[rd] = issue + lat
                    icz[rd] = LOAD_MISS if missed else None
            nt = issue + 1
            sc[1] = nt
            return nt
        return h
    return maker


def _make_store(insn):
    s1, s2 = insn.rs1, insn.rs2
    imm_i = int(insn.imm)
    is_fp = insn.op is Opcode.FST

    def maker(ctx):
        ir, irdy, icz = ctx.ir, ctx.irdy, ctx.icz
        fr, frdy, fcz = ctx.fr, ctx.frdy, ctx.fcz
        st, sc = ctx.st, ctx.sc
        da = ctx.da
        sw = ctx.mem.store_word

        if is_fp:
            def h(t):
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
                addr = ir[s1] + imm_i
                da(addr, True)
                sw(addr, fr[s2])
                nt = issue + 1
                sc[1] = nt
                return nt
            return h

        def h(t):
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
            addr = ir[s1] + imm_i
            da(addr, True)
            sw(addr, ir[s2])
            nt = issue + 1
            sc[1] = nt
            return nt
        return h
    return maker


def _make_nop():
    def maker(ctx):
        def h(t):
            return t + 1
        return h
    return maker


# -- DySER extension handlers ------------------------------------------------

def _no_dyser(op_value: str):
    def h(t):
        raise SimulationError(
            f"{op_value} executed on a core without DySER"
        )
    return h


def _make_dinit(insn):
    imm_i = int(insn.imm)

    def maker(ctx):
        dev = ctx.dev
        if dev is None:
            return _no_dyser(insn.op.value)
        st, sc = ctx.st, ctx.sc
        init = dev.init_config

        def h(t):
            ready = init(imm_i, t)
            d = ready - t
            if d > 0:
                st[DYSER_CONFIG] += d
            sc[2] = ready
            return ready + 1
        return h
    return maker


def _make_dsend(insn):
    port = insn.port
    s1 = insn.rs1
    is_fp = insn.op is Opcode.DFSEND

    def maker(ctx):
        dev = ctx.dev
        if dev is None:
            return _no_dyser(insn.op.value)
        regs = ctx.fr if is_fp else ctx.ir
        rdy = ctx.frdy if is_fp else ctx.irdy
        cz = ctx.fcz if is_fp else ctx.icz
        st, sc = ctx.st, ctx.sc
        send = dev.send

        def h(t):
            issue = t
            c = None
            r = rdy[s1]
            if r > issue:
                issue = r
                c = cz[s1]
            d = issue - t
            if d > 0:
                st[DATA_HAZARD if c is None else c] += d
            value = regs[s1]
            fab = sc[2]
            if fab > issue:
                st[DYSER_CONFIG] += fab - issue
                issue = fab
            done = send(port, value, issue)
            d = done - issue
            if d > 0:
                st[DYSER_SEND] += d
            return (issue if issue >= done else done) + 1
        return h
    return maker


def _make_drecv(insn):
    port = insn.port
    rd = insn.rd
    is_fp = insn.op is Opcode.DFRECV

    def maker(ctx):
        dev = ctx.dev
        if dev is None:
            return _no_dyser(insn.op.value)
        ir, irdy, icz = ctx.ir, ctx.irdy, ctx.icz
        fr, frdy, fcz = ctx.fr, ctx.frdy, ctx.fcz
        st, sc = ctx.st, ctx.sc
        recv = dev.recv

        def h(t):
            fab = sc[2]
            issue = t if t >= fab else fab
            d = issue - t
            if d > 0:
                st[DYSER_CONFIG] += d
            value, done = recv(port, issue)
            d = done - issue
            if d > 0:
                st[DYSER_RECV] += d
            if is_fp:
                fr[rd] = float(value)
                frdy[rd] = done
                fcz[rd] = DYSER_RECV
            else:
                v = int(value)
                if rd:
                    v &= _M64
                    if v >= _H64:
                        v -= _W64
                    ir[rd] = v
                    irdy[rd] = done
                    icz[rd] = DYSER_RECV
            return done + 1
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
        dev = ctx.dev
        if dev is None:
            return _no_dyser(op.value)
        ir, irdy, icz = ctx.ir, ctx.irdy, ctx.icz
        st, sc = ctx.st, ctx.sc
        da, vca = ctx.da, ctx.vca
        mem = ctx.mem
        rate = ctx.rate

        if scalar:
            lw = mem.load_word
            send = dev.send
            cast = float if is_fp else int

            def h(t):
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
                addr = ir[s1] + imm_i
                lat = da(addr)
                value = cast(lw(addr))
                arrive = issue + lat
                done = send(port, value, arrive)
                d = done - arrive
                if d > 0:
                    st[DYSER_SEND] += d
                nt = issue + 1
                sc[1] = nt
                return nt
            return h

        count = imm_i
        hold = max(1, count // rate)
        lb = mem.load_block
        cast = float if is_fp else int
        if wide:
            send = dev.send

            def h(t):
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
                base = ir[s1]
                lat = vca(base, count, False)
                values = lb(base, count)
                t0 = issue + lat
                for i, value in enumerate(values):
                    arrive = t0 + i // rate
                    done = send(port + i, cast(value), arrive)
                    d = done - arrive
                    if d > 0:
                        st[DYSER_SEND] += d
                sc[1] = issue + hold
                return issue + 1
            return h

        send_stream = dev.send_stream

        def h(t):
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
            base = ir[s1]
            lat = vca(base, count, False)
            values = lb(base, count)
            t0 = issue + lat
            stall = send_stream(
                port,
                [cast(v) for v in values],
                [t0 + i // rate for i in range(count)],
            )
            if stall:
                st[DYSER_SEND] += stall
            sc[1] = issue + hold
            return issue + 1
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
        dev = ctx.dev
        if dev is None:
            return _no_dyser(op.value)
        ir, irdy, icz = ctx.ir, ctx.irdy, ctx.icz
        st, sc = ctx.st, ctx.sc
        da, vca = ctx.da, ctx.vca
        mem = ctx.mem
        rate = ctx.rate
        recv = dev.recv

        if scalar:
            sw = mem.store_word

            def h(t):
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
                value, done = recv(port, issue)
                addr = ir[s1] + imm_i
                da(addr, True)
                sw(addr, cast(value))
                if done > sc[3]:
                    sc[3] = done
                nt = issue + 1
                sc[1] = nt
                return nt
            return h

        count = imm_i
        hold = max(1, count // rate)
        sb = mem.store_block

        def h(t):
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
            base = ir[s1]
            done = issue
            values = []
            append = values.append
            for i in range(count):
                value, done = recv(port + i if wide else port, done)
                append(value)
            vca(base, count, True)
            sb(base, [cast(v) for v in values])
            if done > sc[3]:
                sc[3] = done
            sc[1] = issue + hold
            return issue + 1
        return h
    return maker


# -- terminators -------------------------------------------------------------

def _make_branch(insn, tbi: int, fbi: int):
    s1, s2 = insn.rs1, insn.rs2
    cmp = _BRANCH_TAKEN[insn.op]

    def maker(ctx):
        ir, irdy, icz, st = ctx.ir, ctx.irdy, ctx.icz, ctx.st
        misc = ctx.misc
        penalty = ctx.penalty

        def term(t):
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
            if cmp(ir[s1], ir[s2]):
                misc[0] += 1
                if penalty > 0:
                    st[BRANCH] += penalty
                return issue + 1 + penalty, tbi
            return issue + 1, fbi
        return term
    return maker


def _make_jump(tbi: int):
    def maker(ctx):
        st, misc = ctx.st, ctx.misc
        penalty = ctx.penalty

        def term(t):
            misc[0] += 1
            if penalty > 0:
                st[BRANCH] += penalty
            return t + 1 + penalty, tbi
        return term
    return maker


def _make_halt():
    def maker(ctx):
        sc = ctx.sc

        def term(t):
            q = sc[3]
            return (t if t >= q else q) + 1, -1
        return term
    return maker


def _make_fall(fbi: int):
    def maker(ctx):
        def term(t):
            return t, fbi
        return term
    return maker


#: One core's handler makers, for :func:`decode_with`.  Block discovery,
#: the block and program types, the decode cache and the opcode
#: dispatch are shared; only the makers differ.  :data:`SOLO_HANDLERS`
#: serve :class:`~repro.cpu.fastcore.FastCore` (``handler(t) -> t``);
#: :mod:`repro.cpu.batchdecode`'s ``LOCKSTEP_HANDLERS`` serve
#: :class:`~repro.cpu.batchcore.BatchCore` (``handler()`` over the
#: per-point cursors).  ``name`` keys the decode cache.
HandlerSet = namedtuple(
    "HandlerSet", "name fetch int_alu move fp load store nop dinit dsend "
                  "drecv dld dst branch jump halt fall")


SOLO_HANDLERS = HandlerSet(
    name="solo", fetch=_make_fetch, int_alu=_make_int_alu, move=_make_move,
    fp=_make_fp, load=_make_load, store=_make_store, nop=_make_nop,
    dinit=_make_dinit, dsend=_make_dsend, drecv=_make_drecv,
    dld=_make_dld, dst=_make_dst, branch=_make_branch, jump=_make_jump,
    halt=_make_halt, fall=_make_fall,
)


def _make_exec(insn, hs: HandlerSet):
    iclass = insn.info.iclass
    C = InsnClass
    if iclass in (C.ALU, C.MUL, C.DIV):
        return hs.int_alu(insn, iclass)
    if iclass is C.MOVE:
        return hs.move(insn)
    if iclass in (C.FPU, C.FDIV):
        return hs.fp(insn, iclass)
    if iclass is C.LOAD:
        return hs.load(insn)
    if iclass is C.STORE:
        return hs.store(insn)
    if iclass is C.DYSER_INIT:
        return hs.dinit(insn)
    if iclass is C.DYSER_SEND:
        return hs.dsend(insn)
    if iclass is C.DYSER_RECV:
        return hs.drecv(insn)
    if iclass is C.DYSER_LOAD:
        return hs.dld(insn)
    if iclass is C.DYSER_STORE:
        return hs.dst(insn)
    if insn.op is Opcode.NOP:
        return hs.nop()
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
    instruction *k*'s first handler, used by the fast core's
    instruction-limit slow path.  ``mix`` is the per-class instruction
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


def _build(program: Program, insns_per_line: int,
           hs: HandlerSet) -> DecodedProgram:
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
                makers.append(hs.fetch(pc, line, conditional=True))
            elif pc % insns_per_line == 0:
                makers.append(hs.fetch(pc, line, conditional=False))
            iclass = insn.info.iclass
            if iclass is InsnClass.BRANCH:
                ti = insn.target_index
                tbi = block_of[ti] if ti < n else -2
                fbi = block_of.get(pc + 1, -2)
                term_maker = hs.branch(insn, tbi, fbi)
            elif iclass is InsnClass.JUMP:
                ti = insn.target_index
                term_maker = hs.jump(block_of[ti] if ti < n else -2)
            elif insn.op is Opcode.HALT:
                term_maker = hs.halt()
            else:
                makers.append(_make_exec(insn, hs))
        if term_maker is None:
            term_maker = hs.fall(block_of.get(end, -2))
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
_DECODE_CACHE: dict[tuple[int, int, str], tuple] = {}


def decode_with(hs: HandlerSet, program: Program,
                insns_per_line: int | None = None) -> DecodedProgram:
    """Decode ``program`` into ``hs``'s makers (cached by identity,
    I$ line geometry and handler set).

    ``insns_per_line`` defaults to the stock I$ line geometry
    (:func:`repro.cpu.cache.icache_config`), matching a default
    :class:`~repro.cpu.core.CoreConfig`.
    """
    if insns_per_line is None:
        from repro.cpu.cache import icache_config

        insns_per_line = max(1,
                             icache_config().line_bytes // _INSN_BYTES)
    key = (id(program), insns_per_line, hs.name)
    entry = _DECODE_CACHE.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    if not program.is_linked:
        program.link()
    program.validate()
    decoded = _build(program, insns_per_line, hs)
    _DECODE_CACHE[key] = (weakref.ref(program), decoded)
    weakref.finalize(program, _DECODE_CACHE.pop, key, None)
    return decoded


def decode_program(program: Program,
                   insns_per_line: int | None = None) -> DecodedProgram:
    """Decode ``program`` for the fast core (see :func:`decode_with`)."""
    return decode_with(SOLO_HANDLERS, program, insns_per_line)


def decode_cache_size() -> int:
    """Number of live decoded programs (for tests and cache stats)."""
    return len(_DECODE_CACHE)


def clear_decode_caches() -> None:
    """Drop all decoded programs and compiled evaluator patterns."""
    _DECODE_CACHE.clear()
    clear_eval_caches()
