//! # khaos-binary — synthetic x86-64-like codegen
//!
//! Lowers KIR modules to a machine-code-shaped representation: the
//! artifact binary diffing tools consume. The point is not code quality —
//! it is that the *features diffing tools extract* (instruction streams,
//! opcode mixes, basic-block structure, CFG edges, call graphs, symbol
//! names, relocations) respond to obfuscation the way real binaries do:
//!
//! * calls lower to argument-register moves + stack pushes beyond six
//!   arguments (so parameter-list compression is visible),
//! * function addresses lower to `lea` against a relocation whose addend
//!   carries the fusion tag (paper §A.1),
//! * block structure and terminators survive, so CFG features shift with
//!   fission/fusion exactly as the paper describes.
//!
//! ## The flat operand-pool layout
//!
//! Instruction operands live in **one flat per-function pool**
//! ([`BinFunction::operand_pool`]); an [`MInst`] is a 12-byte
//! `{opcode, operand_range}` record whose [`OperandRange`] indexes that
//! pool. Every hot consumer — [`Binary::fingerprint`], the `khaos-diff`
//! embedding walks — iterates operands as one contiguous slice per
//! instruction instead of chasing a heap `Vec` per instruction, which is
//! what makes cold fingerprint+embed scale with memory bandwidth rather
//! than allocator traffic. Construction goes through
//! [`MInst::alloc`] (or [`BinBlock::push_inst`]); reading goes through
//! [`MInst::operands`] with the owning function's pool; printing goes
//! through [`MInst::display`], whose output is byte-for-byte the format
//! of the original nested layout (pinned, together with the
//! [`Binary::fingerprint`] digests, by `tests/layout_equivalence.rs`).
//!
//! [`opcode_histogram`] and [`histogram_distance`] implement the Figure 11
//! metric.

mod lower;

pub use lower::lower_module;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// Machine opcodes (a practical x86-64 subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Opcode {
    Mov,
    MovImm,
    Load,
    Store,
    Movsx,
    Movzx,
    Lea,
    Add,
    Sub,
    Imul,
    Idiv,
    Div,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
    Neg,
    Not,
    Cmp,
    Test,
    Setcc,
    Jmp,
    Jcc,
    Call,
    CallInd,
    Ret,
    Push,
    Pop,
    Movsd,
    Addsd,
    Subsd,
    Mulsd,
    Divsd,
    Ucomisd,
    Cvtsi2sd,
    Cvttsd2si,
    Cvtss2sd,
    Cvtsd2ss,
    Xorps,
    Cmov,
    Nop,
}

impl Opcode {
    /// Every opcode, in a fixed order (histogram dimensions).
    pub const ALL: [Opcode; 43] = [
        Opcode::Mov,
        Opcode::MovImm,
        Opcode::Load,
        Opcode::Store,
        Opcode::Movsx,
        Opcode::Movzx,
        Opcode::Lea,
        Opcode::Add,
        Opcode::Sub,
        Opcode::Imul,
        Opcode::Idiv,
        Opcode::Div,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::Sar,
        Opcode::Neg,
        Opcode::Not,
        Opcode::Cmp,
        Opcode::Test,
        Opcode::Setcc,
        Opcode::Jmp,
        Opcode::Jcc,
        Opcode::Call,
        Opcode::CallInd,
        Opcode::Ret,
        Opcode::Push,
        Opcode::Pop,
        Opcode::Movsd,
        Opcode::Addsd,
        Opcode::Subsd,
        Opcode::Mulsd,
        Opcode::Divsd,
        Opcode::Ucomisd,
        Opcode::Cvtsi2sd,
        Opcode::Cvttsd2si,
        Opcode::Cvtss2sd,
        Opcode::Cvtsd2ss,
        Opcode::Xorps,
        Opcode::Cmov,
        Opcode::Nop,
    ];

    /// Lower-case mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Mov | Opcode::MovImm => "mov",
            Opcode::Load => "mov.ld",
            Opcode::Store => "mov.st",
            Opcode::Movsx => "movsx",
            Opcode::Movzx => "movzx",
            Opcode::Lea => "lea",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Imul => "imul",
            Opcode::Idiv => "idiv",
            Opcode::Div => "div",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::Sar => "sar",
            Opcode::Neg => "neg",
            Opcode::Not => "not",
            Opcode::Cmp => "cmp",
            Opcode::Test => "test",
            Opcode::Setcc => "setcc",
            Opcode::Jmp => "jmp",
            Opcode::Jcc => "jcc",
            Opcode::Call => "call",
            Opcode::CallInd => "call*",
            Opcode::Ret => "ret",
            Opcode::Push => "push",
            Opcode::Pop => "pop",
            Opcode::Movsd => "movsd",
            Opcode::Addsd => "addsd",
            Opcode::Subsd => "subsd",
            Opcode::Mulsd => "mulsd",
            Opcode::Divsd => "divsd",
            Opcode::Ucomisd => "ucomisd",
            Opcode::Cvtsi2sd => "cvtsi2sd",
            Opcode::Cvttsd2si => "cvttsd2si",
            Opcode::Cvtss2sd => "cvtss2sd",
            Opcode::Cvtsd2ss => "cvtsd2ss",
            Opcode::Xorps => "xorps",
            Opcode::Cmov => "cmov",
            Opcode::Nop => "nop",
        }
    }
}

/// A symbolic reference in an operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SymRef {
    /// Function by index in [`Binary::functions`].
    Func(u32),
    /// Global data symbol.
    Global(u32),
    /// External (dynamic) symbol.
    Ext(u32),
}

/// A machine operand (already normalized the way diffing tools like
/// Asm2Vec normalize: concrete addresses abstracted to classes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MOperand {
    /// Integer register.
    Reg(u8),
    /// Float (XMM) register.
    FReg(u8),
    /// Immediate value.
    Imm(i64),
    /// Memory via base register + displacement.
    Mem {
        /// Base register.
        base: u8,
        /// Byte displacement.
        offset: i32,
    },
    /// Symbol-relative reference (RIP-relative in real life).
    Sym(SymRef),
    /// Branch target: block index within the function.
    Label(u32),
}

/// Half-open index range into a function's operand pool
/// ([`BinFunction::operand_pool`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OperandRange {
    /// First operand index in the pool.
    pub start: u32,
    /// Number of operands.
    pub len: u32,
}

impl OperandRange {
    /// The empty range (an operand-less instruction).
    pub const EMPTY: OperandRange = OperandRange { start: 0, len: 0 };

    /// The pool indices covered.
    #[inline]
    pub fn as_range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One machine instruction: an opcode plus a range into the owning
/// function's flat operand pool. 12 bytes, `Copy` — the instruction
/// stream of a function is one contiguous allocation regardless of how
/// many operands its instructions carry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MInst {
    /// Opcode.
    pub opcode: Opcode,
    /// Operand slice in the function's pool, destination first.
    pub operand_range: OperandRange,
}

impl MInst {
    /// Constructs an instruction, appending its operands to `pool`.
    pub fn alloc(pool: &mut Vec<MOperand>, opcode: Opcode, operands: &[MOperand]) -> Self {
        let start = pool.len() as u32;
        pool.extend_from_slice(operands);
        MInst {
            opcode,
            operand_range: OperandRange {
                start,
                len: operands.len() as u32,
            },
        }
    }

    /// The instruction's operands, destination first.
    #[inline]
    pub fn operands<'p>(&self, pool: &'p [MOperand]) -> &'p [MOperand] {
        &pool[self.operand_range.as_range()]
    }

    /// Renders the instruction against its pool; output is byte-for-byte
    /// the `Display` format of the original nested-operand layout.
    pub fn display<'a>(&'a self, pool: &'a [MOperand]) -> InstDisplay<'a> {
        InstDisplay { inst: self, pool }
    }
}

/// [`fmt::Display`] adapter returned by [`MInst::display`].
pub struct InstDisplay<'a> {
    inst: &'a MInst,
    pool: &'a [MOperand],
}

impl fmt::Display for InstDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.inst.opcode.mnemonic())?;
        for (i, o) in self.inst.operands(self.pool).iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            match o {
                MOperand::Reg(r) => write!(f, "{sep}r{r}")?,
                MOperand::FReg(r) => write!(f, "{sep}xmm{r}")?,
                MOperand::Imm(v) => write!(f, "{sep}${v}")?,
                MOperand::Mem { base, offset } => write!(f, "{sep}[r{base}{offset:+}]")?,
                MOperand::Sym(SymRef::Func(i)) => write!(f, "{sep}@fn{i}")?,
                MOperand::Sym(SymRef::Global(i)) => write!(f, "{sep}@gl{i}")?,
                MOperand::Sym(SymRef::Ext(i)) => write!(f, "{sep}@ext{i}")?,
                MOperand::Label(l) => write!(f, "{sep}.L{l}")?,
            }
        }
        Ok(())
    }
}

/// A machine basic block.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BinBlock {
    /// Instructions in order.
    pub insts: Vec<MInst>,
    /// Successor block indices within the function.
    pub succs: Vec<u32>,
    /// Direct call targets made from this block.
    pub calls: Vec<SymRef>,
}

impl BinBlock {
    /// Appends an instruction, allocating its operands in `pool` (the
    /// owning function's [`BinFunction::operand_pool`]).
    pub fn push_inst(&mut self, pool: &mut Vec<MOperand>, opcode: Opcode, operands: &[MOperand]) {
        self.insts.push(MInst::alloc(pool, opcode, operands));
    }
}

/// Function lineage carried into the binary (the diffing ground truth;
/// never consulted by the diffing tools themselves, only by the metrics).
#[derive(Clone, Debug, PartialEq)]
pub struct BinProvenance {
    /// Original source functions whose code is inside.
    pub origins: Vec<String>,
    /// Free-form markers (e.g. `"vulnerable"`).
    pub annotations: Vec<String>,
}

/// A function in the binary.
#[derive(Clone, Debug, PartialEq)]
pub struct BinFunction {
    /// Symbol name (`None` when the binary is stripped).
    pub name: Option<String>,
    /// Ground-truth lineage.
    pub provenance: BinProvenance,
    /// Whether the symbol is exported.
    pub exported: bool,
    /// Machine blocks; index 0 is the entry.
    pub blocks: Vec<BinBlock>,
    /// The flat operand pool every [`MInst::operand_range`] of this
    /// function's blocks indexes into.
    pub operand_pool: Vec<MOperand>,
}

impl BinFunction {
    /// Total instruction count.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Number of CFG edges.
    pub fn edge_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }

    /// Number of call sites (direct + indirect).
    pub fn call_count(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.opcode, Opcode::Call | Opcode::CallInd))
            .count()
    }
}

/// A relocation: a data slot holding a function address plus addend (the
/// addend carries fusion tag bits, as in paper §A.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reloc {
    /// Target function index.
    pub func: u32,
    /// Addend applied at load time.
    pub addend: i64,
}

/// External symbol table entry.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtSym {
    /// Dynamic symbol name.
    pub name: String,
}

/// A lowered binary.
///
/// Mutate a binary only through its methods ([`Binary::strip`],
/// [`Binary::with_build_provenance`]) once it may have been
/// fingerprinted: [`Binary::fingerprint`] keeps its digest in a memo
/// those methods clear, and writing a public field directly leaves the
/// memo stale (debug builds catch that on the next fingerprint).
#[derive(Clone, PartialEq)]
pub struct Binary {
    /// Binary (module) name.
    pub name: String,
    /// Functions in layout order.
    pub functions: Vec<BinFunction>,
    /// Data relocations against function symbols.
    pub relocations: Vec<Reloc>,
    /// Imported externals.
    pub externals: Vec<ExtSym>,
    /// True when symbol names have been removed.
    pub stripped: bool,
    /// Build provenance: the fingerprint of the pass pipeline that
    /// produced this binary (`khaos_pass::Pipeline::fingerprint`), or 0
    /// when unknown. Mixed into [`Binary::fingerprint`], so cache
    /// entries keyed on the fingerprint are partitioned by build
    /// configuration — a warm `khaos-diff` embedding cache can be
    /// shared across experiment drivers that rebuild the same
    /// (program, pipeline) pair without any risk of cross-build
    /// aliasing.
    pub build_provenance: u64,
    /// The digest [`Binary::fingerprint`] computed, once.
    fingerprint_memo: FingerprintMemo,
}

/// The memo behind [`Binary::fingerprint`]. It is part of no value: a
/// clone starts empty (a clone is usually made to be mutated), and
/// every memo compares equal, so `==` on binaries compares their
/// contents only.
#[derive(Default)]
struct FingerprintMemo(OnceLock<u64>);

impl Clone for FingerprintMemo {
    fn clone(&self) -> Self {
        FingerprintMemo::default()
    }
}

impl PartialEq for FingerprintMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The derived format of the public fields; the memo is not shown.
impl fmt::Debug for Binary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Binary")
            .field("name", &self.name)
            .field("functions", &self.functions)
            .field("relocations", &self.relocations)
            .field("externals", &self.externals)
            .field("stripped", &self.stripped)
            .field("build_provenance", &self.build_provenance)
            .finish()
    }
}

impl Binary {
    /// An unstripped binary of unknown build provenance.
    pub fn new(
        name: String,
        functions: Vec<BinFunction>,
        relocations: Vec<Reloc>,
        externals: Vec<ExtSym>,
    ) -> Binary {
        Binary {
            name,
            functions,
            relocations,
            externals,
            stripped: false,
            build_provenance: 0,
            fingerprint_memo: FingerprintMemo::default(),
        }
    }

    /// Stamps the build provenance (builder style); see
    /// [`Binary::build_provenance`].
    pub fn with_build_provenance(mut self, fingerprint: u64) -> Self {
        self.build_provenance = fingerprint;
        self.fingerprint_memo = FingerprintMemo::default();
        self
    }
    /// Removes all symbol names (diffing must then work structurally).
    pub fn strip(&mut self) {
        self.stripped = true;
        for f in &mut self.functions {
            f.name = None;
        }
        self.fingerprint_memo = FingerprintMemo::default();
    }

    /// Total instruction count.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(BinFunction::inst_count).sum()
    }

    /// A stable structural fingerprint of everything the diffing tools
    /// can observe: symbol names, block structure, instruction streams,
    /// CFG edges, call sites, relocations and externals.
    ///
    /// Two binaries with equal fingerprints produce identical
    /// embeddings under every deterministic differ, which is what the
    /// `khaos-diff` embedding cache keys on. Provenance is deliberately
    /// excluded — it is evaluation ground truth the tools never see, so
    /// binaries differing only in annotations still share cache
    /// entries.
    ///
    /// The digest is **layout-independent by construction**: it hashes
    /// the logical `(opcode, operands)` stream, so it is byte-for-byte
    /// the digest the nested-`Vec` seed layout produced (pinned by
    /// `tests/layout_equivalence.rs`) and every embedding-cache key
    /// minted before the operand-pool refactor stays valid.
    ///
    /// The digest is computed on the first call and kept in a private
    /// memo, so a binary shared by many metric calls is hashed once. A
    /// clone starts without it, and [`Binary::strip`] and
    /// [`Binary::with_build_provenance`] clear it. A public field
    /// written after the first call leaves the memo stale: debug builds
    /// recompute the digest on every call and panic when the two
    /// differ, so such a write fails the tests instead of keying a
    /// cache with the old contents.
    pub fn fingerprint(&self) -> u64 {
        let fp = *self.fingerprint_memo.0.get_or_init(|| self.digest());
        debug_assert_eq!(
            fp,
            self.digest(),
            "binary `{}` was mutated after it was fingerprinted",
            self.name
        );
        fp
    }

    /// The digest behind [`Binary::fingerprint`], computed afresh.
    fn digest(&self) -> u64 {
        let mut h = Mix::new();
        h.bytes(self.name.as_bytes());
        h.u64(self.build_provenance);
        h.u64(self.stripped as u64);
        h.u64(self.functions.len() as u64);
        for f in &self.functions {
            match &f.name {
                Some(n) => {
                    h.u64(1);
                    h.bytes(n.as_bytes());
                }
                None => h.u64(0),
            }
            h.u64(f.exported as u64);
            h.u64(f.blocks.len() as u64);
            let pool = f.operand_pool.as_slice();
            for b in &f.blocks {
                // All three lengths in one fold: every lowered binary
                // pays this hash once, so folds are budgeted tightly.
                h.u64(
                    (b.insts.len() as u64)
                        | ((b.succs.len() as u64) << 21)
                        | ((b.calls.len() as u64) << 42),
                );
                // The instruction stream hashes through a block-local
                // FNV-1a-style multiply chain (register-resident — the
                // four-lane Mix state is indexed dynamically and lives
                // in memory, too slow for the per-instruction loop),
                // folded into the mixer once per block. Operands come
                // straight off the contiguous pool slice: no per-
                // instruction pointer chase.
                let mut acc: u64 = 0xcbf29ce484222325;
                for i in &b.insts {
                    // One chain step per instruction: opcode plus every
                    // operand (tag byte + payload) rotated to its
                    // position, all cheap ALU ops. Instruction order is
                    // captured by the chain.
                    let mut w = i.opcode as u64;
                    for (k, o) in i.operands(pool).iter().enumerate() {
                        let enc = match o {
                            MOperand::Reg(r) => (1 << 56) | *r as u64,
                            MOperand::FReg(r) => (2 << 56) | *r as u64,
                            MOperand::Imm(v) => (3 << 56) ^ *v as u64,
                            MOperand::Mem { base, offset } => {
                                (4 << 56) | ((*base as u64) << 32) ^ (*offset as u32 as u64)
                            }
                            MOperand::Sym(SymRef::Func(i)) => (5 << 56) | *i as u64,
                            MOperand::Sym(SymRef::Global(i)) => (6 << 56) | *i as u64,
                            MOperand::Sym(SymRef::Ext(i)) => (7 << 56) | *i as u64,
                            MOperand::Label(l) => (8 << 56) | *l as u64,
                        };
                        w ^= enc.rotate_left(7 + 13 * k as u32);
                    }
                    acc = (acc ^ w).wrapping_mul(0x100000001b3);
                }
                h.u64(acc);
                // Successors two per fold (blocks rarely have more).
                for pair in b.succs.chunks(2) {
                    let hi = pair.get(1).map(|s| (*s as u64) << 32).unwrap_or(1 << 63);
                    h.u64(pair[0] as u64 | hi);
                }
                for c in &b.calls {
                    h.u64(match c {
                        SymRef::Func(i) => (1 << 32) | *i as u64,
                        SymRef::Global(i) => (2 << 32) | *i as u64,
                        SymRef::Ext(i) => (3 << 32) | *i as u64,
                    });
                }
            }
        }
        h.u64(self.relocations.len() as u64);
        for r in &self.relocations {
            h.u64(((r.func as u64) << 32) ^ r.addend as u64);
        }
        h.u64(self.externals.len() as u64);
        for e in &self.externals {
            h.bytes(e.name.as_bytes());
        }
        h.finish()
    }
}

/// Four-lane word-mixing accumulator used by [`Binary::fingerprint`].
///
/// Words round-robin across four independent multiply–xorshift chains,
/// so the CPU overlaps the multiplies instead of serializing on one
/// chain — an order of magnitude faster than byte-wise FNV on
/// instruction-stream-sized inputs. Speed matters here: every binary a
/// figure scores is hashed once before its first cache lookup.
struct Mix {
    lanes: [u64; 4],
    next: usize,
}

impl Mix {
    fn new() -> Self {
        Mix {
            lanes: [
                0x243f6a8885a308d3,
                0x13198a2e03707344,
                0xa4093822299f31d0,
                0x082efa98ec4e6c89,
            ],
            next: 0,
        }
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        let lane = &mut self.lanes[self.next & 3];
        let mut x = *lane ^ v;
        x = x.wrapping_mul(0x9e3779b97f4a7c15);
        x ^= x >> 29;
        *lane = x;
        self.next = self.next.wrapping_add(1);
    }

    fn bytes(&mut self, bs: &[u8]) {
        let mut chunks = bs.chunks_exact(8);
        for c in &mut chunks {
            self.u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.u64(u64::from_le_bytes(tail));
        // Length separator so "ab"+"c" != "a"+"bc".
        self.u64(bs.len() as u64);
    }

    fn finish(&self) -> u64 {
        let mut x = 0u64;
        for (k, lane) in self.lanes.iter().enumerate() {
            x ^= lane.rotate_left(17 * k as u32);
            x = x.wrapping_mul(0xff51afd7ed558ccd);
            x ^= x >> 33;
        }
        x
    }
}

/// Opcode histogram of a binary (the `objdump | histogram` of §4.4).
pub fn opcode_histogram(b: &Binary) -> BTreeMap<Opcode, u64> {
    let mut h = BTreeMap::new();
    for f in &b.functions {
        for blk in &f.blocks {
            for i in &blk.insts {
                *h.entry(i.opcode).or_insert(0) += 1;
            }
        }
    }
    h
}

/// Euclidean distance between two opcode histograms, as used by the
/// paper's Figure 11 (normalization across a set happens in the harness).
pub fn histogram_distance(a: &BTreeMap<Opcode, u64>, b: &BTreeMap<Opcode, u64>) -> f64 {
    let mut sum = 0.0f64;
    for op in Opcode::ALL {
        let x = *a.get(&op).unwrap_or(&0) as f64;
        let y = *b.get(&op).unwrap_or(&0) as f64;
        sum += (x - y) * (x - y);
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_binary(extra_adds: usize) -> Binary {
        let mut pool = Vec::new();
        let mut blk = BinBlock::default();
        blk.push_inst(
            &mut pool,
            Opcode::MovImm,
            &[MOperand::Reg(0), MOperand::Imm(1)],
        );
        for _ in 0..extra_adds {
            blk.push_inst(
                &mut pool,
                Opcode::Add,
                &[MOperand::Reg(0), MOperand::Imm(1)],
            );
        }
        blk.push_inst(&mut pool, Opcode::Ret, &[]);
        Binary::new(
            "t".into(),
            vec![BinFunction {
                name: Some("f".into()),
                provenance: BinProvenance {
                    origins: vec!["f".into()],
                    annotations: vec![],
                },
                exported: false,
                blocks: vec![blk],
                operand_pool: pool,
            }],
            vec![],
            vec![],
        )
    }

    #[test]
    fn histogram_counts() {
        let b = tiny_binary(3);
        let h = opcode_histogram(&b);
        assert_eq!(h[&Opcode::Add], 3);
        assert_eq!(h[&Opcode::Ret], 1);
        assert_eq!(b.inst_count(), 5);
    }

    #[test]
    fn distance_is_metric_like() {
        let h1 = opcode_histogram(&tiny_binary(0));
        let h2 = opcode_histogram(&tiny_binary(4));
        assert_eq!(histogram_distance(&h1, &h1), 0.0);
        assert_eq!(histogram_distance(&h1, &h2), 4.0);
        assert_eq!(histogram_distance(&h2, &h1), 4.0);
    }

    #[test]
    fn strip_removes_names() {
        let mut b = tiny_binary(0);
        b.strip();
        assert!(b.stripped);
        assert!(b.functions[0].name.is_none());
        // Provenance stays: it is ground truth, not a symbol.
        assert_eq!(b.functions[0].provenance.origins, vec!["f".to_string()]);
    }

    #[test]
    fn inst_display() {
        let mut pool = Vec::new();
        let i = MInst::alloc(
            &mut pool,
            Opcode::Load,
            &[
                MOperand::Reg(1),
                MOperand::Mem {
                    base: 5,
                    offset: -8,
                },
            ],
        );
        assert_eq!(i.display(&pool).to_string(), "mov.ld r1, [r5-8]");
    }

    #[test]
    fn operand_pool_roundtrip() {
        let mut pool = Vec::new();
        let a = MInst::alloc(
            &mut pool,
            Opcode::Add,
            &[MOperand::Reg(1), MOperand::Imm(2)],
        );
        let r = MInst::alloc(&mut pool, Opcode::Ret, &[]);
        assert_eq!(a.operands(&pool), &[MOperand::Reg(1), MOperand::Imm(2)]);
        assert!(r.operands(&pool).is_empty());
        assert_eq!(pool.len(), 2);
        assert_eq!(a.operand_range.as_range(), 0..2);
    }

    #[test]
    fn strip_and_provenance_refresh_the_memo() {
        let mut b = tiny_binary(1);
        let before = b.fingerprint();
        b.strip();
        assert_eq!(b.fingerprint(), b.digest());
        assert_ne!(b.fingerprint(), before);
        let stamped = b.clone().with_build_provenance(7);
        let stripped = b.fingerprint();
        let b = b.with_build_provenance(7);
        assert_eq!(b.fingerprint(), b.digest());
        assert_eq!(b.fingerprint(), stamped.fingerprint());
        assert_ne!(b.fingerprint(), stripped);
    }

    #[test]
    fn a_mutated_clone_hashes_its_own_contents() {
        let b = tiny_binary(1);
        let before = b.fingerprint();
        let mut renamed = b.clone();
        renamed.functions[0].name = Some("g".into());
        assert_eq!(renamed.fingerprint(), renamed.digest());
        assert_ne!(renamed.fingerprint(), before);
        assert_eq!(b.fingerprint(), before);
    }

    #[test]
    fn equality_ignores_the_memo() {
        let hashed = tiny_binary(2);
        hashed.fingerprint();
        let fresh = tiny_binary(2);
        assert_eq!(hashed, fresh);
        assert_eq!(hashed.clone(), hashed);
        assert_ne!(hashed, tiny_binary(3));
        assert_eq!(format!("{hashed:?}"), format!("{fresh:?}"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "was mutated after it was fingerprinted")]
    fn a_field_written_after_hashing_is_caught() {
        let mut b = tiny_binary(1);
        b.fingerprint();
        b.functions[0].name = Some("g".into());
        b.fingerprint();
    }

    #[test]
    fn fingerprint_ignores_pool_packing() {
        // The same logical instruction stream hashed from a pool with
        // dead padding between ranges must produce the same digest:
        // the fingerprint reads ranges, never the raw pool layout.
        let b = tiny_binary(1);
        let mut padded = b.clone();
        let f = &mut padded.functions[0];
        f.operand_pool.push(MOperand::Imm(999)); // dead tail entry
        assert_eq!(b.fingerprint(), padded.fingerprint());
    }
}
