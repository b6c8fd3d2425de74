"""Batched predecode: one program -> lockstep handler chains over N points.

This is the lockstep handler set of the batched backend (:mod:`repro.
cpu.batchcore`).  Block discovery, the program types, the opcode
dispatch and the decode cache are :mod:`repro.cpu.decode`'s; this
module supplies only the makers, one per solo maker, each specialized
for *lockstep* execution over a vector of sweep points that share one
functional execution:

- **Functional work happens once per batch.**  Register values, memory
  traffic, cache latencies, branch outcomes and DySER operand values are
  identical across points whose configs differ only in timing knobs
  (FIFO depths, initiation interval, config-cache capacity, vector port
  rate, instruction limits) — timing cannot change a value in this
  machine, so the evaluator, the memory image and the cache hierarchy
  are shared and touched exactly once per dynamic instruction.
- **Timing work happens per point.**  Scoreboards (register ready
  cycles + stall-cause attribution), structural units (FPU/LSU/fabric/
  store-queue), the per-point cycle cursor and the per-point DySER
  device all live in structure-of-arrays form on the batch context; a
  handler's inner loop walks ``ctx.ap`` (the active point list) and
  replays exactly the reference core's issue rules for each point.

The cycle-exactness contract is inherited from :mod:`repro.cpu.decode`:
for every point, the observable result must be byte-identical to a solo
run on the fast (and therefore reference) backend.  The batched parity
gate in :mod:`repro.harness.batch` and the ``batched`` fuzz oracle
enforce that, including identical stable error strings on faults.

Handler signature: ``maker(ctx) -> handler()`` mutating ``ctx.tv`` (the
per-point cycle cursors) in place.  Terminator makers return
``term() -> next_block_index`` — control flow is *shared* across the
batch by construction, which is why no handler ever needs a per-point
branch target.  Divergence therefore only ever means "a point faults"
(e.g. a per-point instruction limit), and that is handled by the batch
core splitting the point out of the lockstep loop, never here.
"""

from __future__ import annotations

from repro.cpu.decode import (
    _INSN_BYTES,
    _H64,
    _M64,
    _W64,
    BRANCH,
    DATA_HAZARD,
    DYSER_CONFIG,
    DYSER_RECV,
    DYSER_SEND,
    FETCH_MISS,
    LOAD_MISS,
    LSU_BUSY,
    STRUCTURAL_FPU,
    DecodedProgram,
    HandlerSet,
    decode_with,
)
from repro.cpu.rules import (
    _BRANCH_TAKEN, FP_INT_DEST, _fp_eval_binder, _int_eval_binder,
    fp_insn_srcs, int_alu_srcs)
from repro.errors import SimulationError
from repro.cpu.regfile import wrap64
from repro.isa.opcodes import Opcode, WIDE_OPS
from repro.isa.program import Program


# ---------------------------------------------------------------------------
# Handler makers.  maker(ctx) -> handler(); handlers mutate ctx.tv.
# ---------------------------------------------------------------------------

def _make_fetch(pc: int, line: int, conditional: bool):
    addr = pc * _INSN_BYTES
    if conditional:
        def maker(ctx):
            fa, fl, ihit = ctx.fa, ctx.fl, ctx.ihit
            sts, tv, ap = ctx.sts, ctx.tv, ctx.ap

            def h():
                if fl[0] != line:
                    lat = fa(addr)
                    fl[0] = line
                    if lat > ihit:
                        for p in ap:
                            sts[p][FETCH_MISS] += lat
                            tv[p] += lat
            return h
        return maker

    def maker(ctx):
        fa, fl, ihit = ctx.fa, ctx.fl, ctx.ihit
        sts, tv, ap = ctx.sts, ctx.tv, ctx.ap

        def h():
            lat = fa(addr)
            fl[0] = line
            if lat > ihit:
                for p in ap:
                    sts[p][FETCH_MISS] += lat
                    tv[p] += lat
        return h
    return maker


def _make_int_alu(insn, iclass):
    op = insn.op
    rd = insn.rd
    if op is Opcode.SEL:
        s1, s2, s3 = insn.rs1, insn.rs2, insn.rs3

        def maker(ctx):
            ir = ctx.ir
            irdys, iczs, sts = ctx.irdys, ctx.iczs, ctx.sts
            tv, ap = ctx.tv, ctx.ap
            lat = ctx.lats[iclass]

            def h():
                for p in ap:
                    irdy = irdys[p]
                    icz = iczs[p]
                    t = tv[p]
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
                        sts[p][DATA_HAZARD if c is None else c] += d
                    if rd:
                        irdy[rd] = issue + lat
                        icz[rd] = None
                    tv[p] = issue + 1
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
            ir = ctx.ir
            irdys, iczs, sts = ctx.irdys, ctx.iczs, ctx.sts
            tv, ap = ctx.tv, ctx.ap
            lat = ctx.lats[iclass]
            ev = binder(ir, s1, s2, imm_i)

            def h():
                for p in ap:
                    irdy = irdys[p]
                    t = tv[p]
                    issue = t
                    c = None
                    r = irdy[w1]
                    if r > issue:
                        issue = r
                        c = iczs[p][w1]
                    d = issue - t
                    if d > 0:
                        sts[p][DATA_HAZARD if c is None else c] += d
                    if rd:
                        irdy[rd] = issue + lat
                        iczs[p][rd] = None
                    tv[p] = issue + 1
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
        ir = ctx.ir
        irdys, iczs, sts = ctx.irdys, ctx.iczs, ctx.sts
        tv, ap = ctx.tv, ctx.ap
        lat = ctx.lats[iclass]
        ev = binder(ir, s1, s2, imm_i)

        def h():
            for p in ap:
                irdy = irdys[p]
                icz = iczs[p]
                t = tv[p]
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
                    sts[p][DATA_HAZARD if c is None else c] += d
                if rd:
                    irdy[rd] = issue + lat
                    icz[rd] = None
                tv[p] = issue + 1
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
    if op is Opcode.LI:
        val = wrap64(int(insn.imm))

        def maker(ctx):
            ir = ctx.ir
            irdys, iczs = ctx.irdys, ctx.iczs
            tv, ap = ctx.tv, ctx.ap

            def h():
                for p in ap:
                    t = tv[p] + 1
                    if rd:
                        irdys[p][rd] = t
                        iczs[p][rd] = None
                    tv[p] = t
                if rd:
                    ir[rd] = val
            return h
        return maker

    if op is Opcode.MOV:
        s1 = insn.rs1

        def maker(ctx):
            ir = ctx.ir
            irdys, iczs, sts = ctx.irdys, ctx.iczs, ctx.sts
            tv, ap = ctx.tv, ctx.ap

            def h():
                for p in ap:
                    irdy = irdys[p]
                    t = tv[p]
                    issue = t
                    c = None
                    r = irdy[s1]
                    if r > issue:
                        issue = r
                        c = iczs[p][s1]
                    d = issue - t
                    if d > 0:
                        sts[p][DATA_HAZARD if c is None else c] += d
                    if rd:
                        irdy[rd] = issue + 1
                        iczs[p][rd] = None
                    tv[p] = issue + 1
                if rd:
                    ir[rd] = ir[s1]
            return h
        return maker

    if op is Opcode.FLI:
        val = float(insn.imm)

        def maker(ctx):
            fr = ctx.fr
            frdys, fczs = ctx.frdys, ctx.fczs
            tv, ap = ctx.tv, ctx.ap

            def h():
                for p in ap:
                    t = tv[p] + 1
                    frdys[p][rd] = t
                    fczs[p][rd] = None
                    tv[p] = t
                fr[rd] = val
            return h
        return maker

    # FMOV
    s1 = insn.rs1

    def maker(ctx):
        fr = ctx.fr
        frdys, fczs, sts = ctx.frdys, ctx.fczs, ctx.sts
        tv, ap = ctx.tv, ctx.ap

        def h():
            for p in ap:
                frdy = frdys[p]
                t = tv[p]
                issue = t
                c = None
                r = frdy[s1]
                if r > issue:
                    issue = r
                    c = fczs[p][s1]
                d = issue - t
                if d > 0:
                    sts[p][DATA_HAZARD if c is None else c] += d
                frdy[rd] = issue + 1
                fczs[p][rd] = None
                tv[p] = issue + 1
            fr[rd] = fr[s1]
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
        irdys, iczs = ctx.irdys, ctx.iczs
        frdys, fczs = ctx.frdys, ctx.fczs
        sts, scs = ctx.sts, ctx.scs
        tv, ap = ctx.tv, ctx.ap
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
            for p in ap:
                irdy = irdys[p]
                frdy = frdys[p]
                st = sts[p]
                sc = scs[p]
                t = tv[p]
                issue = t
                c1 = None
                for s in int_srcs:
                    r = irdy[s]
                    if r > issue:
                        issue = r
                        c1 = iczs[p][s]
                c2 = None
                for s in fp_srcs:
                    r = frdy[s]
                    if r > issue:
                        issue = r
                        c2 = fczs[p][s]
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
                        iczs[p][rd] = None
                else:
                    frdy[rd] = ready
                    fczs[p][rd] = None
                tv[p] = issue + 1
        return h
    return maker


def _make_load(insn):
    rd = insn.rd
    s1 = insn.rs1
    imm_i = int(insn.imm)
    is_fp = insn.op is Opcode.FLD

    def maker(ctx):
        ir = ctx.ir
        fr = ctx.fr
        irdys, iczs = ctx.irdys, ctx.iczs
        frdys, fczs = ctx.frdys, ctx.fczs
        sts, scs = ctx.sts, ctx.scs
        tv, ap = ctx.tv, ctx.ap
        da, dhit = ctx.da, ctx.dhit
        lw = ctx.mem.load_word

        def h():
            addr = ir[s1] + imm_i
            lat = da(addr)
            value = lw(addr)
            missed = lat > dhit
            mcz = LOAD_MISS if missed else None
            if is_fp:
                fr[rd] = float(value)
            else:
                v = int(value)
                if rd:
                    v &= _M64
                    if v >= _H64:
                        v -= _W64
                    ir[rd] = v
            for p in ap:
                irdy = irdys[p]
                sc = scs[p]
                t = tv[p]
                lsu = sc[1]
                issue = t if t >= lsu else lsu
                c = None
                r = irdy[s1]
                if r > issue:
                    issue = r
                    c = iczs[p][s1]
                d = issue - t
                if d > 0:
                    sts[p][DATA_HAZARD if c is None else c] += d
                if is_fp:
                    frdys[p][rd] = issue + lat
                    fczs[p][rd] = mcz
                elif rd:
                    irdy[rd] = issue + lat
                    iczs[p][rd] = mcz
                nt = issue + 1
                sc[1] = nt
                tv[p] = nt
        return h
    return maker


def _make_store(insn):
    s1, s2 = insn.rs1, insn.rs2
    imm_i = int(insn.imm)
    is_fp = insn.op is Opcode.FST

    def maker(ctx):
        ir, fr = ctx.ir, ctx.fr
        irdys, iczs = ctx.irdys, ctx.iczs
        frdys, fczs = ctx.frdys, ctx.fczs
        sts, scs = ctx.sts, ctx.scs
        tv, ap = ctx.tv, ctx.ap
        da = ctx.da
        sw = ctx.mem.store_word

        if is_fp:
            def h():
                addr = ir[s1] + imm_i
                da(addr, True)
                sw(addr, fr[s2])
                for p in ap:
                    irdy = irdys[p]
                    sc = scs[p]
                    t = tv[p]
                    lsu = sc[1]
                    issue = t if t >= lsu else lsu
                    c = None
                    r = irdy[s1]
                    if r > issue:
                        issue = r
                        c = iczs[p][s1]
                    c2 = None
                    r = frdys[p][s2]
                    if r > issue:
                        issue = r
                        c2 = fczs[p][s2]
                    if c2 is not None:
                        c = c2
                    d = issue - t
                    if d > 0:
                        sts[p][DATA_HAZARD if c is None else c] += d
                    nt = issue + 1
                    sc[1] = nt
                    tv[p] = nt
            return h

        def h():
            addr = ir[s1] + imm_i
            da(addr, True)
            sw(addr, ir[s2])
            for p in ap:
                irdy = irdys[p]
                icz = iczs[p]
                sc = scs[p]
                t = tv[p]
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
                    sts[p][DATA_HAZARD if c is None else c] += d
                nt = issue + 1
                sc[1] = nt
                tv[p] = nt
        return h
    return maker


def _make_nop():
    def maker(ctx):
        tv, ap = ctx.tv, ctx.ap

        def h():
            for p in ap:
                tv[p] += 1
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
        devs = ctx.devs
        if devs[0] is None:
            return _no_dyser(insn.op.value)
        sts, scs = ctx.sts, ctx.scs
        tv, ap = ctx.tv, ctx.ap

        def h():
            for p in ap:
                t = tv[p]
                ready = devs[p].init_config(imm_i, t)
                d = ready - t
                if d > 0:
                    sts[p][DYSER_CONFIG] += d
                scs[p][2] = ready
                tv[p] = ready + 1
        return h
    return maker


def _make_dsend(insn):
    port = insn.port
    s1 = insn.rs1
    is_fp = insn.op is Opcode.DFSEND

    def maker(ctx):
        devs = ctx.devs
        if devs[0] is None:
            return _no_dyser(insn.op.value)
        regs = ctx.fr if is_fp else ctx.ir
        rdys = ctx.frdys if is_fp else ctx.irdys
        czs = ctx.fczs if is_fp else ctx.iczs
        sts, scs = ctx.sts, ctx.scs
        tv, ap = ctx.tv, ctx.ap

        def h():
            value = regs[s1]
            for p in ap:
                st = sts[p]
                t = tv[p]
                issue = t
                c = None
                r = rdys[p][s1]
                if r > issue:
                    issue = r
                    c = czs[p][s1]
                d = issue - t
                if d > 0:
                    st[DATA_HAZARD if c is None else c] += d
                fab = scs[p][2]
                if fab > issue:
                    st[DYSER_CONFIG] += fab - issue
                    issue = fab
                done = devs[p].send(port, value, issue)
                d = done - issue
                if d > 0:
                    st[DYSER_SEND] += d
                tv[p] = (issue if issue >= done else done) + 1
        return h
    return maker


def _make_drecv(insn):
    port = insn.port
    rd = insn.rd
    is_fp = insn.op is Opcode.DFRECV

    def maker(ctx):
        devs = ctx.devs
        if devs[0] is None:
            return _no_dyser(insn.op.value)
        ir, fr = ctx.ir, ctx.fr
        irdys, iczs = ctx.irdys, ctx.iczs
        frdys, fczs = ctx.frdys, ctx.fczs
        sts, scs = ctx.sts, ctx.scs
        tv, ap = ctx.tv, ctx.ap

        def h():
            value = None
            for p in ap:
                st = sts[p]
                t = tv[p]
                fab = scs[p][2]
                issue = t if t >= fab else fab
                d = issue - t
                if d > 0:
                    st[DYSER_CONFIG] += d
                value, done = devs[p].recv(port, issue)
                d = done - issue
                if d > 0:
                    st[DYSER_RECV] += d
                if is_fp:
                    frdys[p][rd] = done
                    fczs[p][rd] = DYSER_RECV
                elif rd:
                    irdys[p][rd] = done
                    iczs[p][rd] = DYSER_RECV
                tv[p] = done + 1
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
        devs = ctx.devs
        if devs[0] is None:
            return _no_dyser(op.value)
        ir = ctx.ir
        irdys, iczs = ctx.irdys, ctx.iczs
        sts, scs = ctx.sts, ctx.scs
        tv, ap = ctx.tv, ctx.ap
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
                for p in ap:
                    irdy = irdys[p]
                    st = sts[p]
                    sc = scs[p]
                    t = tv[p]
                    lsu = sc[1]
                    issue = t if t >= lsu else lsu
                    c = None
                    r = irdy[s1]
                    if r > issue:
                        issue = r
                        c = iczs[p][s1]
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
                    done = devs[p].send(port, value, arrive)
                    d = done - arrive
                    if d > 0:
                        st[DYSER_SEND] += d
                    nt = issue + 1
                    sc[1] = nt
                    tv[p] = nt
            return h

        count = imm_i
        lb = mem.load_block
        holds = [max(1, count // r) for r in rates]
        if wide:
            # Per-point arrival offsets (i // rate) are data-independent;
            # compute them once so the hot loop only adds t0.
            offsets = [[i // r for i in range(count)] for r in rates]

            def h():
                base = ir[s1]
                lat = vca(base, count, False)
                vals = [cast(v) for v in lb(base, count)]
                for p in ap:
                    irdy = irdys[p]
                    st = sts[p]
                    sc = scs[p]
                    t = tv[p]
                    lsu = sc[1]
                    issue = t if t >= lsu else lsu
                    c = None
                    r = irdy[s1]
                    if r > issue:
                        issue = r
                        c = iczs[p][s1]
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
                    stall = devs[p].send_wide(
                        port, vals, [t0 + o for o in offsets[p]])
                    if stall:
                        st[DYSER_SEND] += stall
                    sc[1] = issue + holds[p]
                    tv[p] = issue + 1
            return h

        def h():
            base = ir[s1]
            lat = vca(base, count, False)
            vals = [cast(v) for v in lb(base, count)]
            for p in ap:
                irdy = irdys[p]
                st = sts[p]
                sc = scs[p]
                rate = rates[p]
                t = tv[p]
                lsu = sc[1]
                issue = t if t >= lsu else lsu
                c = None
                r = irdy[s1]
                if r > issue:
                    issue = r
                    c = iczs[p][s1]
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
                stall = devs[p].send_stream(
                    port, vals,
                    [t0 + i // rate for i in range(count)],
                )
                if stall:
                    st[DYSER_SEND] += stall
                sc[1] = issue + holds[p]
                tv[p] = issue + 1
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
        devs = ctx.devs
        if devs[0] is None:
            return _no_dyser(op.value)
        ir = ctx.ir
        irdys, iczs = ctx.irdys, ctx.iczs
        sts, scs = ctx.sts, ctx.scs
        tv, ap = ctx.tv, ctx.ap
        da, vca = ctx.da, ctx.vca
        mem = ctx.mem
        rates = ctx.rates

        if scalar:
            sw = mem.store_word

            def h():
                value = None
                for p in ap:
                    irdy = irdys[p]
                    st = sts[p]
                    sc = scs[p]
                    t = tv[p]
                    lsu = sc[1]
                    issue = t if t >= lsu else lsu
                    c = None
                    r = irdy[s1]
                    if r > issue:
                        issue = r
                        c = iczs[p][s1]
                    if lsu > t and issue == lsu and c is None:
                        c = LSU_BUSY
                    d = issue - t
                    if d > 0:
                        st[DATA_HAZARD if c is None else c] += d
                    fab = sc[2]
                    if fab > issue:
                        st[DYSER_CONFIG] += fab - issue
                        issue = fab
                    value, done = devs[p].recv(port, issue)
                    if done > sc[3]:
                        sc[3] = done
                    nt = issue + 1
                    sc[1] = nt
                    tv[p] = nt
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
            for p in ap:
                irdy = irdys[p]
                st = sts[p]
                sc = scs[p]
                recv = devs[p].recv
                t = tv[p]
                lsu = sc[1]
                issue = t if t >= lsu else lsu
                c = None
                r = irdy[s1]
                if r > issue:
                    issue = r
                    c = iczs[p][s1]
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
                tv[p] = issue + 1
            vca(base, count, True)
            sb(base, [cast(v) for v in values])
        return h
    return maker


# -- terminators -------------------------------------------------------------

def _make_branch(insn, tbi: int, fbi: int):
    s1, s2 = insn.rs1, insn.rs2
    cmp = _BRANCH_TAKEN[insn.op]

    def maker(ctx):
        ir = ctx.ir
        irdys, iczs, sts = ctx.irdys, ctx.iczs, ctx.sts
        tv, ap = ctx.tv, ctx.ap
        misc = ctx.misc
        penalty = ctx.penalty

        def term():
            taken = cmp(ir[s1], ir[s2])
            for p in ap:
                irdy = irdys[p]
                icz = iczs[p]
                t = tv[p]
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
                    sts[p][DATA_HAZARD if c is None else c] += d
                if taken:
                    if penalty > 0:
                        sts[p][BRANCH] += penalty
                    tv[p] = issue + 1 + penalty
                else:
                    tv[p] = issue + 1
            if taken:
                misc[0] += 1
                return tbi
            return fbi
        return term
    return maker


def _make_jump(tbi: int):
    def maker(ctx):
        sts, misc = ctx.sts, ctx.misc
        tv, ap = ctx.tv, ctx.ap
        penalty = ctx.penalty

        def term():
            misc[0] += 1
            for p in ap:
                if penalty > 0:
                    sts[p][BRANCH] += penalty
                tv[p] += 1 + penalty
            return tbi
        return term
    return maker


def _make_halt():
    def maker(ctx):
        scs = ctx.scs
        tv, ap = ctx.tv, ctx.ap

        def term():
            for p in ap:
                t = tv[p]
                q = scs[p][3]
                tv[p] = (t if t >= q else q) + 1
            return -1
        return term
    return maker


def _make_fall(fbi: int):
    def maker(ctx):
        def term():
            return fbi
        return term
    return maker


LOCKSTEP_HANDLERS = HandlerSet(
    name="lockstep", fetch=_make_fetch, int_alu=_make_int_alu,
    move=_make_move, fp=_make_fp, load=_make_load, store=_make_store,
    nop=_make_nop, dinit=_make_dinit, dsend=_make_dsend,
    drecv=_make_drecv, dld=_make_dld, dst=_make_dst,
    branch=_make_branch, jump=_make_jump, halt=_make_halt,
    fall=_make_fall,
)


def batch_decode_program(program: Program,
                         insns_per_line: int | None = None
                         ) -> DecodedProgram:
    """Decode ``program`` into lockstep blocks (see
    :func:`repro.cpu.decode.decode_with`)."""
    return decode_with(LOCKSTEP_HANDLERS, program, insns_per_line)
