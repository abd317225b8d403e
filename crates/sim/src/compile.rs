//! Lowering of a levelised circuit into a flat structure-of-arrays
//! simulation program.
//!
//! [`LogicSim`](crate::LogicSim) walks its evaluation order once at
//! construction and emits a [`Program`]: a contiguous opcode array with
//! the fanins of multi-input gates packed into one CSR index pool. The
//! interpreter loop over the program touches no `Node` structs, no
//! per-gate fanin `Vec`s and no trait objects — each op carries its
//! operand slots inline, so the execute loop is a dense sweep over three
//! flat arrays that LLVM can keep in registers and autovectorise.
//!
//! Values live in a dense slot array of `W` 64-bit words per node
//! (`values[node * W + j]`), where `W` is the *block width* in words:
//! one pass of the kernel simulates `W × 64` patterns. Word `j`, lane
//! `l` of a block is pattern `j * 64 + l`; widening `W` only changes
//! how many 64-pattern sub-blocks share a pass, never the values in any
//! lane, so results are bit-identical across widths.
//!
//! Two-input gates (the overwhelming majority in gate-level netlists)
//! get dedicated opcodes whose operands are node indices; gates with
//! three or more fanins fall back to `*N` opcodes that fold over a CSR
//! slice. Degenerate single-input AND/OR/XOR compile to `Buf` (and
//! their inverting duals to `Not`) — the fold semantics make them exact
//! aliases.

use tpi_netlist::{Circuit, GateKind, NodeId, Topology};

/// Largest supported block width, in 64-bit words per node.
pub const MAX_BLOCK_WORDS: usize = 8;

/// Default block width: 4 words = 256 patterns per kernel pass.
pub const DEFAULT_BLOCK_WORDS: usize = 4;

/// `true` for the block widths the monomorphised kernels support.
pub const fn block_words_supported(w: usize) -> bool {
    matches!(w, 1 | 2 | 4 | 8)
}

/// Gather one node's `W`-word slot into a stack array.
#[inline(always)]
fn load<const W: usize>(values: &[u64], node: u32) -> [u64; W] {
    let mut v = [0u64; W];
    v.copy_from_slice(&values[node as usize * W..][..W]);
    v
}

/// One lowered gate. For two-operand opcodes `a`/`b` are fanin node
/// indices (`b` unused by `Buf`/`Not`); for `*N` opcodes `a` is the
/// start offset into the CSR fanin pool and `b` the fanin count.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Op {
    pub(crate) code: OpCode,
    pub(crate) out: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

/// Opcode of a lowered gate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum OpCode {
    Buf,
    Not,
    And2,
    Nand2,
    Or2,
    Nor2,
    Xor2,
    Xnor2,
    AndN,
    NandN,
    OrN,
    NorN,
    XorN,
    XnorN,
}

/// A compiled simulation program: gates in level order, lowered to
/// [`Op`]s over dense value slots.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    ops: Vec<Op>,
    fanin_idx: Vec<u32>,
    /// Node index → op index (`u32::MAX` for sources).
    node_op: Vec<u32>,
    /// Constant nodes and their fill words (all lanes equal).
    constants: Vec<(u32, u64)>,
}

impl Program {
    /// Lower `circuit` using the evaluation order of `topo`.
    pub(crate) fn compile(circuit: &Circuit, topo: &Topology) -> Program {
        let mut ops = Vec::new();
        let mut fanin_idx: Vec<u32> = Vec::new();
        let mut node_op = vec![u32::MAX; circuit.node_count()];
        let mut constants = Vec::new();
        for &id in topo.order() {
            let node = circuit.node(id);
            let kind = node.kind();
            match kind {
                GateKind::Const0 => {
                    constants.push((id.index() as u32, 0));
                    continue;
                }
                GateKind::Const1 => {
                    constants.push((id.index() as u32, u64::MAX));
                    continue;
                }
                GateKind::Input => continue,
                _ => {}
            }
            let out = id.index() as u32;
            let fanins = node.fanins();
            let op = match (kind, fanins.len()) {
                (GateKind::Buf | GateKind::And | GateKind::Or | GateKind::Xor, 1) => Op {
                    code: OpCode::Buf,
                    out,
                    a: fanins[0].index() as u32,
                    b: 0,
                },
                (GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor, 1) => Op {
                    code: OpCode::Not,
                    out,
                    a: fanins[0].index() as u32,
                    b: 0,
                },
                (kind, 2) => Op {
                    code: match kind {
                        GateKind::And => OpCode::And2,
                        GateKind::Nand => OpCode::Nand2,
                        GateKind::Or => OpCode::Or2,
                        GateKind::Nor => OpCode::Nor2,
                        GateKind::Xor => OpCode::Xor2,
                        GateKind::Xnor => OpCode::Xnor2,
                        _ => unreachable!("two-input {kind:?} cannot exist"),
                    },
                    out,
                    a: fanins[0].index() as u32,
                    b: fanins[1].index() as u32,
                },
                (kind, len) => {
                    let start = fanin_idx.len() as u32;
                    fanin_idx.extend(fanins.iter().map(|f| f.index() as u32));
                    Op {
                        code: match kind {
                            GateKind::And => OpCode::AndN,
                            GateKind::Nand => OpCode::NandN,
                            GateKind::Or => OpCode::OrN,
                            GateKind::Nor => OpCode::NorN,
                            GateKind::Xor => OpCode::XorN,
                            GateKind::Xnor => OpCode::XnorN,
                            _ => unreachable!("{len}-input {kind:?} cannot exist"),
                        },
                        out,
                        a: start,
                        b: len as u32,
                    }
                }
            };
            node_op[id.index()] = ops.len() as u32;
            ops.push(op);
        }
        Program {
            ops,
            fanin_idx,
            node_op,
            constants,
        }
    }

    /// Constant nodes and their (all-lanes-equal) fill words.
    pub(crate) fn constants(&self) -> &[(u32, u64)] {
        &self.constants
    }

    /// Op index computing `node`, if it is a compiled gate.
    pub(crate) fn op_index(&self, node: usize) -> Option<usize> {
        let op = self.node_op[node];
        (op != u32::MAX).then_some(op as usize)
    }

    /// Number of lowered ops.
    pub(crate) fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Output node index of the op at `op_idx`.
    pub(crate) fn op_out(&self, op_idx: usize) -> u32 {
        self.ops[op_idx].out
    }

    /// Backward sensitization kernel for the op at `op_idx`,
    /// monomorphised over the block width `W`.
    ///
    /// Given the observability words of the op's *output* line
    /// (`out_sens`) and the fault-free values of the block (`good`,
    /// `node * W + j` layout), computes for every input pin the
    /// observability of that *input* line — `out_sens` AND-ed with the
    /// pin's boolean sensitivity under the good side-input values — and
    /// calls `emit(pin, fanin_node, line_obs)` once per pin (pin order
    /// unspecified). Sensitivity is exact for a single-line change:
    ///
    /// * AND/NAND: pin sensitive where every *other* fanin is 1;
    /// * OR/NOR: pin sensitive where every other fanin is 0;
    /// * XOR/XNOR, Buf/Not: always sensitive (output inversion never
    ///   affects whether a flip propagates).
    ///
    /// N-ary ops use a prefix/suffix product over the CSR fanin slice
    /// (`scratch` holds the prefix rows), so the whole gate costs
    /// `O(fanins)` instead of `O(fanins²)`.
    ///
    /// `#[inline(always)]` so `emit` inlines into the sweep's loop.
    #[inline(always)]
    pub(crate) fn sens_op_wide<const W: usize>(
        &self,
        op_idx: usize,
        out_sens: &[u64; W],
        good: &[u64],
        scratch: &mut Vec<u64>,
        emit: &mut impl FnMut(u32, u32, &[u64; W]),
    ) {
        let op = self.ops[op_idx];
        macro_rules! binary_sens {
            (|$x:ident| $side:expr) => {{
                let a = load::<W>(good, op.a);
                let b = load::<W>(good, op.b);
                let mut s = [0u64; W];
                for j in 0..W {
                    let $x = b[j];
                    s[j] = out_sens[j] & $side;
                }
                emit(0, op.a, &s);
                for j in 0..W {
                    let $x = a[j];
                    s[j] = out_sens[j] & $side;
                }
                emit(1, op.b, &s);
            }};
        }
        macro_rules! nary_sens {
            (|$x:ident| $side:expr) => {{
                let fanins = &self.fanin_idx[op.a as usize..(op.a + op.b) as usize];
                // Prefix rows: scratch[i] = out_sens & side(0) & .. & side(i-1).
                scratch.clear();
                scratch.reserve(fanins.len() * W);
                let mut acc = *out_sens;
                for &f in fanins {
                    scratch.extend_from_slice(&acc);
                    let v = load::<W>(good, f);
                    for j in 0..W {
                        let $x = v[j];
                        acc[j] &= $side;
                    }
                }
                // Suffix sweep emits line_obs(i) = prefix(i) & side(i+1..).
                let mut suffix = [u64::MAX; W];
                for (i, &f) in fanins.iter().enumerate().rev() {
                    let mut line = [0u64; W];
                    for j in 0..W {
                        line[j] = scratch[i * W + j] & suffix[j];
                    }
                    emit(i as u32, f, &line);
                    let v = load::<W>(good, f);
                    for j in 0..W {
                        let $x = v[j];
                        suffix[j] &= $side;
                    }
                }
            }};
        }
        match op.code {
            OpCode::Buf | OpCode::Not => emit(0, op.a, out_sens),
            OpCode::And2 | OpCode::Nand2 => binary_sens!(|x| x),
            OpCode::Or2 | OpCode::Nor2 => binary_sens!(|x| !x),
            OpCode::Xor2 | OpCode::Xnor2 => {
                emit(0, op.a, out_sens);
                emit(1, op.b, out_sens);
            }
            OpCode::AndN | OpCode::NandN => nary_sens!(|x| x),
            OpCode::OrN | OpCode::NorN => nary_sens!(|x| !x),
            OpCode::XorN | OpCode::XnorN => {
                let fanins = &self.fanin_idx[op.a as usize..(op.a + op.b) as usize];
                for (i, &f) in fanins.iter().enumerate() {
                    emit(i as u32, f, out_sens);
                }
            }
        }
    }

    /// Run the whole program over `values` (`node_count * w` words,
    /// inputs and constants already seeded), dispatching to a
    /// monomorphised kernel for the supported widths.
    ///
    /// # Panics
    ///
    /// Panics for unsupported `w` (see [`block_words_supported`]).
    pub(crate) fn execute_block(&self, values: &mut [u64], w: usize) {
        match w {
            1 => self.execute::<1>(values),
            2 => self.execute::<2>(values),
            4 => self.execute::<4>(values),
            8 => self.execute::<8>(values),
            _ => panic!("unsupported block width {w} words (supported: 1, 2, 4, 8)"),
        }
    }

    /// The monomorphised kernel. Operand slots are *gathered* into
    /// fixed-size stack arrays before the result slot is written —
    /// circuit transforms may rewire an existing gate to consume a
    /// later-appended node (control points re-drive branch pins), so no
    /// index ordering between operands and outputs is assumed; the
    /// levelised op order alone guarantees operands are settled. The
    /// `W`-lane loops run over exact-length arrays, so LLVM unrolls and
    /// autovectorises them without per-word bounds checks.
    fn execute<const W: usize>(&self, values: &mut [u64]) {
        macro_rules! unary {
            ($op:expr, |$x:ident| $e:expr) => {{
                let a = load::<W>(values, $op.a);
                let mut r = [0u64; W];
                for j in 0..W {
                    let $x = a[j];
                    r[j] = $e;
                }
                r
            }};
        }
        macro_rules! binary {
            ($op:expr, |$x:ident, $y:ident| $e:expr) => {{
                let a = load::<W>(values, $op.a);
                let b = load::<W>(values, $op.b);
                let mut r = [0u64; W];
                for j in 0..W {
                    let $x = a[j];
                    let $y = b[j];
                    r[j] = $e;
                }
                r
            }};
        }
        macro_rules! nary {
            ($op:expr, $init:expr, |$acc:ident, $x:ident| $fold:expr, $inv:expr) => {{
                let mut r = [$init; W];
                let fanins = &self.fanin_idx[$op.a as usize..($op.a + $op.b) as usize];
                for &f in fanins {
                    let fs = load::<W>(values, f);
                    for j in 0..W {
                        let $acc = r[j];
                        let $x = fs[j];
                        r[j] = $fold;
                    }
                }
                if $inv {
                    for j in 0..W {
                        r[j] = !r[j];
                    }
                }
                r
            }};
        }
        for op in &self.ops {
            let result = match op.code {
                OpCode::Buf => unary!(op, |x| x),
                OpCode::Not => unary!(op, |x| !x),
                OpCode::And2 => binary!(op, |x, y| x & y),
                OpCode::Nand2 => binary!(op, |x, y| !(x & y)),
                OpCode::Or2 => binary!(op, |x, y| x | y),
                OpCode::Nor2 => binary!(op, |x, y| !(x | y)),
                OpCode::Xor2 => binary!(op, |x, y| x ^ y),
                OpCode::Xnor2 => binary!(op, |x, y| !(x ^ y)),
                OpCode::AndN => nary!(op, u64::MAX, |acc, x| acc & x, false),
                OpCode::NandN => nary!(op, u64::MAX, |acc, x| acc & x, true),
                OpCode::OrN => nary!(op, 0, |acc, x| acc | x, false),
                OpCode::NorN => nary!(op, 0, |acc, x| acc | x, true),
                OpCode::XorN => nary!(op, 0, |acc, x| acc ^ x, false),
                OpCode::XnorN => nary!(op, 0, |acc, x| acc ^ x, true),
            };
            values[op.out as usize * W..][..W].copy_from_slice(&result);
        }
    }

    /// Evaluate the single op at `op_idx` into `out[..w]`, reading
    /// operand words through `resolve(node_index, word)` — the
    /// event-driven fault simulator resolves against its overlay here.
    pub(crate) fn eval_op_wide(
        &self,
        op_idx: usize,
        w: usize,
        resolve: impl Fn(usize, usize) -> u64,
        out: &mut [u64],
    ) {
        let op = self.ops[op_idx];
        let out = &mut out[..w];
        macro_rules! nary {
            ($init:expr, |$acc:ident, $x:ident| $fold:expr, $inv:expr) => {{
                out.fill($init);
                let fanins = &self.fanin_idx[op.a as usize..(op.a + op.b) as usize];
                for &f in fanins {
                    for (j, o) in out.iter_mut().enumerate() {
                        let $acc = *o;
                        let $x = resolve(f as usize, j);
                        *o = $fold;
                    }
                }
                if $inv {
                    for o in out.iter_mut() {
                        *o = !*o;
                    }
                }
            }};
        }
        let (a, b) = (op.a as usize, op.b as usize);
        match op.code {
            OpCode::Buf => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = resolve(a, j);
                }
            }
            OpCode::Not => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = !resolve(a, j);
                }
            }
            OpCode::And2 => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = resolve(a, j) & resolve(b, j);
                }
            }
            OpCode::Nand2 => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = !(resolve(a, j) & resolve(b, j));
                }
            }
            OpCode::Or2 => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = resolve(a, j) | resolve(b, j);
                }
            }
            OpCode::Nor2 => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = !(resolve(a, j) | resolve(b, j));
                }
            }
            OpCode::Xor2 => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = resolve(a, j) ^ resolve(b, j);
                }
            }
            OpCode::Xnor2 => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = !(resolve(a, j) ^ resolve(b, j));
                }
            }
            OpCode::AndN => nary!(u64::MAX, |acc, x| acc & x, false),
            OpCode::NandN => nary!(u64::MAX, |acc, x| acc & x, true),
            OpCode::OrN => nary!(0, |acc, x| acc | x, false),
            OpCode::NorN => nary!(0, |acc, x| acc | x, true),
            OpCode::XorN => nary!(0, |acc, x| acc ^ x, false),
            OpCode::XnorN => nary!(0, |acc, x| acc ^ x, true),
        }
    }

    /// Single-word variant of [`Self::eval_op_wide`]: returns the value
    /// word directly instead of filling a slice. The dropping and
    /// observability paths propagate one word at a time, and this skips
    /// the per-word loop plumbing on that hot path.
    pub(crate) fn eval_op_word(&self, op_idx: usize, resolve: impl Fn(usize) -> u64) -> u64 {
        let op = self.ops[op_idx];
        macro_rules! nary {
            ($init:expr, |$acc:ident, $x:ident| $fold:expr, $inv:expr) => {{
                let mut folded = $init;
                for &f in &self.fanin_idx[op.a as usize..(op.a + op.b) as usize] {
                    let $acc = folded;
                    let $x = resolve(f as usize);
                    folded = $fold;
                }
                if $inv {
                    !folded
                } else {
                    folded
                }
            }};
        }
        let (a, b) = (op.a as usize, op.b as usize);
        match op.code {
            OpCode::Buf => resolve(a),
            OpCode::Not => !resolve(a),
            OpCode::And2 => resolve(a) & resolve(b),
            OpCode::Nand2 => !(resolve(a) & resolve(b)),
            OpCode::Or2 => resolve(a) | resolve(b),
            OpCode::Nor2 => !(resolve(a) | resolve(b)),
            OpCode::Xor2 => resolve(a) ^ resolve(b),
            OpCode::Xnor2 => !(resolve(a) ^ resolve(b)),
            OpCode::AndN => nary!(u64::MAX, |acc, x| acc & x, false),
            OpCode::NandN => nary!(u64::MAX, |acc, x| acc & x, true),
            OpCode::OrN => nary!(0, |acc, x| acc | x, false),
            OpCode::NorN => nary!(0, |acc, x| acc | x, true),
            OpCode::XorN => nary!(0, |acc, x| acc ^ x, false),
            OpCode::XnorN => nary!(0, |acc, x| acc ^ x, true),
        }
    }
}

/// Stamp node `id`'s `w`-word slot in a dense value array.
pub(crate) fn fill_slot(values: &mut [u64], id: NodeId, w: usize, word: u64) {
    values[id.index() * w..id.index() * w + w].fill(word);
}

/// One backward pass over the compiled program (reverse level order, so
/// a gate's output observability is final before the gate is processed),
/// AND-ing each active region's root observability down through per-pin
/// sensitivity words. Writes stay within the region: a fanin whose root
/// differs is a stem, whose own observability is *not* the one path
/// through this gate.
pub(crate) fn sens_sweep<const W: usize>(
    program: &Program,
    sens: &mut [u64],
    good: &[u64],
    scratch: &mut Vec<u64>,
    ffr_root: &[u32],
    region_active: &[bool],
) {
    for op_idx in (0..program.op_count()).rev() {
        let out = program.op_out(op_idx) as usize;
        let r = ffr_root[out];
        if !region_active[r as usize] {
            continue;
        }
        let mut out_sens = [0u64; W];
        out_sens.copy_from_slice(&sens[out * W..][..W]);
        program.sens_op_wide::<W>(
            op_idx,
            &out_sens,
            good,
            scratch,
            &mut |_pin, fanin, line| {
                let fi = fanin as usize;
                if ffr_root[fi] == r {
                    sens[fi * W..][..W].copy_from_slice(line);
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::CircuitBuilder;

    #[test]
    fn single_input_gates_lower_to_buf_and_not() {
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let g1 = b.gate(GateKind::And, vec![x], "g1").unwrap();
        let g2 = b.gate(GateKind::Nor, vec![x], "g2").unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let topo = Topology::of(&c).unwrap();
        let p = Program::compile(&c, &topo);
        assert_eq!(p.ops.len(), 2);
        let i1 = p.op_index(g1.index()).unwrap();
        let i2 = p.op_index(g2.index()).unwrap();
        assert_eq!(p.ops[i1].code, OpCode::Buf);
        assert_eq!(p.ops[i2].code, OpCode::Not);
        assert_eq!(p.op_index(x.index()), None);
    }

    #[test]
    fn wide_gates_share_the_csr_pool() {
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(4, "x");
        let g = b.gate(GateKind::Nand, xs.clone(), "g").unwrap();
        let h = b.gate(GateKind::Xor, vec![xs[0], xs[1], g], "h").unwrap();
        b.output(h);
        let c = b.finish().unwrap();
        let topo = Topology::of(&c).unwrap();
        let p = Program::compile(&c, &topo);
        assert_eq!(p.fanin_idx.len(), 7);
        let og = p.ops[p.op_index(g.index()).unwrap()];
        assert_eq!((og.code, og.b), (OpCode::NandN, 4));
        let oh = p.ops[p.op_index(h.index()).unwrap()];
        assert_eq!((oh.code, oh.b), (OpCode::XorN, 3));
    }
}
