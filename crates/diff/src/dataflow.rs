//! `DataFlowDiff` — a data-flow-representation diffing tool.
//!
//! This tool does not appear in the paper's evaluation; it implements the
//! *prediction* of the paper's §5 discussion:
//!
//! > "Previous works pay much more attention to control flow rather than
//! > data flow. From the diffing perspective, data flow is harder to
//! > capture and encode. But from the obfuscation perspective, data flow
//! > is harder to change, too. Therefore, we predict the potential of
//! > data flow representation can be further tapped."
//!
//! Khaos moves code across function boundaries, which redraws control
//! flow (block counts, CFG edges, calls, the call graph) wholesale — but
//! the *computation* itself survives: an address calculation feeding a
//! load feeding an add is the same def-use chain whether it lives in the
//! `oriFunc`, a `sepFunc` or one arm of a `fusFunc`. `DataFlowDiff`
//! therefore embeds a function as a **bag of def-use edges** between
//! operation classes, plus chain-shape statistics, and ignores control
//! flow entirely.
//!
//! The extraction is a classic two-level reaching-definition sketch over
//! machine registers:
//!
//! * **intra-block**: exact last-writer tracking per register;
//! * **inter-block**: one-hop block summaries (`live-out` definition
//!   classes joined against successors' `upward-exposed` uses), which
//!   captures loop-carried and straight-line cross-block flow without a
//!   full fixpoint — enough signal, deterministic, and cheap;
//! * **through memory**: a store to `[base+off]` reaching a later load
//!   of the same slot in the same block is a data-flow edge too (spills
//!   and stack locals would otherwise hide chains).
//!
//! The experiment `experiments ext-dataflow` compares this tool's
//! Precision@1 under every obfuscation configuration against the five
//! paper tools (extension E11; ROADMAP.md, open item 5, tracks checking
//! such verdicts against the paper).

use crate::tokens::{opcode_class_index, IdSet, OPCODE_CLASSES};
use crate::vector::{TokenHasher, EMB_DIM};
use crate::Differ;
use khaos_binary::{BinBlock, BinFunction, Binary, MOperand, Opcode};
use std::sync::OnceLock;

#[cfg(test)]
mod reference;

/// The data-flow-representation tool of the paper's §5 outlook.
///
/// Embeds a function as a bag of def-use edges between operation classes
/// (exact within blocks, one-hop summaries across blocks, store→load
/// slot dependences) plus chain-depth statistics, L2-normalized so
/// sub-functions of a fissioned body keep pointing the way the original
/// did. Carries no symbol, CFG-shape or call-graph features.
#[derive(Clone, Debug)]
pub struct DataFlowDiff {
    /// Weight of the one-round callee-bag propagation (`0.0` disables
    /// it). Fission cuts def-use chains at region boundaries and re-joins
    /// them with calls; following the data *through* those calls — the
    /// inter-procedural analysis the paper's §5 calls for — re-assembles
    /// the chain signature. Default `0.6`.
    pub callee_weight: f64,
}

impl Default for DataFlowDiff {
    fn default() -> Self {
        DataFlowDiff { callee_weight: 0.6 }
    }
}

impl DataFlowDiff {
    /// Creates the tool with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// A variant without the inter-procedural propagation round (the
    /// intra-procedural ablation).
    pub fn intra_only() -> Self {
        DataFlowDiff { callee_weight: 0.0 }
    }
}

/// Whether this opcode writes its first operand (when it is a register).
fn writes_dest(op: Opcode) -> bool {
    !matches!(
        op,
        Opcode::Store
            | Opcode::Cmp
            | Opcode::Test
            | Opcode::Ucomisd
            | Opcode::Jmp
            | Opcode::Jcc
            | Opcode::Call
            | Opcode::CallInd
            | Opcode::Ret
            | Opcode::Push
            | Opcode::Nop
    )
}

/// Register slots: integer and float registers get disjoint keys.
fn reg_key(o: &MOperand) -> Option<u16> {
    match o {
        MOperand::Reg(r) => Some(*r as u16),
        MOperand::FReg(r) => Some(0x100 + *r as u16),
        _ => None,
    }
}

/// The registers an instruction reads, as a list ([`for_each_read`]).
#[cfg(test)]
fn reads_of(inst: &khaos_binary::MInst, pool: &[MOperand]) -> Vec<u16> {
    let mut rs = Vec::new();
    for_each_read(inst, pool, |r| rs.push(r));
    rs
}

/// Calls `read` with each register an instruction reads, in operand
/// order (destination excluded where the opcode overwrites it;
/// two-address ALU ops read their destination too).
fn for_each_read(inst: &khaos_binary::MInst, pool: &[MOperand], mut read: impl FnMut(u16)) {
    let dest_written = writes_dest(inst.opcode);
    for (i, o) in inst.operands(pool).iter().enumerate() {
        match o {
            MOperand::Reg(_) | MOperand::FReg(_) => {
                // Two-address semantics: ALU destinations are read-modify-
                // write; plain moves/loads overwrite without reading.
                let overwrites = dest_written
                    && i == 0
                    && matches!(
                        inst.opcode,
                        Opcode::Mov
                            | Opcode::MovImm
                            | Opcode::Load
                            | Opcode::Movsx
                            | Opcode::Movzx
                            | Opcode::Lea
                            | Opcode::Movsd
                            | Opcode::Setcc
                            | Opcode::Pop
                            | Opcode::Cvtsi2sd
                            | Opcode::Cvttsd2si
                            | Opcode::Cvtss2sd
                            | Opcode::Cvtsd2ss
                    );
                if !overwrites {
                    read(reg_key(o).expect("register operand"));
                }
            }
            MOperand::Mem { base, .. } => read(*base as u16),
            _ => {}
        }
    }
}

/// The register an instruction defines, if any. Calls clobber the return
/// register (`r0` in our ABI).
fn def_of(inst: &khaos_binary::MInst, pool: &[MOperand]) -> Option<u16> {
    if matches!(inst.opcode, Opcode::Call | Opcode::CallInd) {
        return Some(0);
    }
    if !writes_dest(inst.opcode) {
        return None;
    }
    inst.operands(pool).first().and_then(reg_key)
}

/// Register slots: integer registers take `0..0x100`, float registers
/// `0x100..0x200` ([`reg_key`]).
const REG_SLOTS: usize = 0x200;

/// The hash state (`(dim, sign)`) of every token the extraction emits,
/// hashed once per process instead of `format!`-ed per edge.
struct DataFlowTokens {
    /// `df:{def class}->{use class}`, indexed by class index.
    df: [[TokenHasher; 15]; 15],
    /// `xdf:{def class}->{use class}`.
    xdf: [[TokenHasher; 15]; 15],
    memread: TokenHasher,
    memwrite: TokenHasher,
    store_load: TokenHasher,
    /// `chain:d1`, `chain:d2`, `chain:d3` (depth 3–4), `chain:d5` (5+).
    chain: [TokenHasher; 4],
}

fn dataflow_tokens() -> &'static DataFlowTokens {
    static TOKENS: OnceLock<DataFlowTokens> = OnceLock::new();
    TOKENS.get_or_init(|| {
        let h = |t: &str| TokenHasher::new().feed(t);
        let edges = |prefix: &str| {
            std::array::from_fn(|d| {
                std::array::from_fn(|u| {
                    h(&format!(
                        "{prefix}:{}->{}",
                        OPCODE_CLASSES[d], OPCODE_CLASSES[u]
                    ))
                })
            })
        };
        DataFlowTokens {
            df: edges("df"),
            xdf: edges("xdf"),
            memread: h("df:memread"),
            memwrite: h("df:memwrite"),
            store_load: h("df:st->ld"),
            chain: ["d1", "d2", "d3", "d5"].map(|b| h(&format!("chain:{b}"))),
        }
    })
}

/// The `chain:` bucket of a def-use chain depth.
fn chain_bucket(depth: u32) -> usize {
    match depth {
        1 => 0,
        2 => 1,
        3..=4 => 2,
        _ => 3,
    }
}

/// Per-block data-flow summary for the one-hop inter-block join:
/// `(register, class index)` pairs.
struct BlockSummary {
    /// class of the last write to each register still live at block end.
    out_defs: Vec<(u16, u8)>,
    /// class of the first read of each register before any write to it.
    exposed_uses: Vec<(u16, u8)>,
}

/// Per-register state of the block being scanned, reused across blocks:
/// dense arrays indexed by register slot, reset through the lists of
/// the slots a block touched.
struct Scratch {
    /// reg -> (class of its last def in this block, chain length so far).
    last_def: Vec<Option<(u8, u32)>>,
    /// reg -> class of its first read before any def in this block.
    exposed: Vec<Option<u8>>,
    defined: Vec<u16>,
    exposed_regs: Vec<u16>,
    /// The `[base+offset]` slots stored to so far in this block.
    stores: IdSet<(u8, i32)>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            last_def: vec![None; REG_SLOTS],
            exposed: vec![None; REG_SLOTS],
            defined: Vec::new(),
            exposed_regs: Vec::new(),
            stores: IdSet::default(),
        }
    }
}

/// Emits this block's intra-block edges into `vec` and returns its
/// summary. Every weight (1, ½, ¼) is dyadic, so the sums are exact and
/// the order of the adds cannot change a bit.
fn scan_block(b: &BinBlock, pool: &[MOperand], vec: &mut [f64], s: &mut Scratch) -> BlockSummary {
    let t = dataflow_tokens();
    for inst in &b.insts {
        let uclass = opcode_class_index(inst.opcode);
        let mut depth_in: u32 = 0;
        for_each_read(inst, pool, |r| {
            let r = r as usize;
            match s.last_def[r] {
                Some((dclass, depth)) => {
                    t.df[dclass as usize][uclass as usize].add_to(vec, 1.0);
                    depth_in = depth_in.max(depth);
                }
                None => {
                    if s.exposed[r].is_none() {
                        s.exposed[r] = Some(uclass);
                        s.exposed_regs.push(r as u16);
                    }
                }
            }
        });
        // Memory dependence: a store and a later load of the same slot
        // (exact within the block).
        match (inst.opcode, inst.operands(pool)) {
            (Opcode::Load, ops) => {
                t.memread.add_to(vec, 0.25);
                if let Some(MOperand::Mem { base, offset }) = ops.get(1) {
                    if s.stores.contains(&(*base, *offset)) {
                        t.store_load.add_to(vec, 1.0);
                    }
                }
            }
            (Opcode::Store, ops) => {
                t.memwrite.add_to(vec, 0.25);
                if let Some(MOperand::Mem { base, offset }) = ops.first() {
                    s.stores.insert((*base, *offset));
                }
            }
            _ => {}
        }
        if let Some(d) = def_of(inst, pool) {
            let depth = depth_in + 1;
            if inst.opcode == Opcode::Ret {
                continue;
            }
            let slot = &mut s.last_def[d as usize];
            if slot.is_none() {
                s.defined.push(d);
            }
            *slot = Some((uclass, depth));
            // Chain-shape statistics: bucketed def-use chain depths.
            // These survive code motion (the chain moves wholesale) but
            // distinguish functions with different computation depth.
            t.chain[chain_bucket(depth)].add_to(vec, 0.5);
        }
    }

    let out_defs = s
        .defined
        .drain(..)
        .map(|r| {
            let (class, _) = s.last_def[r as usize].take().expect("a defined register");
            (r, class)
        })
        .collect();
    let exposed_uses = s
        .exposed_regs
        .drain(..)
        .map(|r| {
            (
                r,
                s.exposed[r as usize].take().expect("an exposed register"),
            )
        })
        .collect();
    s.stores.clear();
    BlockSummary {
        out_defs,
        exposed_uses,
    }
}

/// Embeds one function as its data-flow signature.
fn embed_function(f: &BinFunction, s: &mut Scratch) -> Vec<f64> {
    let mut vec = vec![0.0; EMB_DIM];
    let summaries: Vec<BlockSummary> = f
        .blocks
        .iter()
        .map(|b| scan_block(b, &f.operand_pool, &mut vec, s))
        .collect();

    // One-hop inter-block join: defs flowing into successors' exposed
    // uses, looked up through the (otherwise empty) `exposed` array.
    let t = dataflow_tokens();
    for (bi, b) in f.blocks.iter().enumerate() {
        for &succ in &b.succs {
            let Some(succ) = summaries.get(succ as usize) else {
                continue;
            };
            for &(r, uclass) in &succ.exposed_uses {
                s.exposed[r as usize] = Some(uclass);
            }
            for &(r, dclass) in &summaries[bi].out_defs {
                if let Some(uclass) = s.exposed[r as usize] {
                    t.xdf[dclass as usize][uclass as usize].add_to(&mut vec, 0.5);
                }
            }
            for &(r, _) in &succ.exposed_uses {
                s.exposed[r as usize] = None;
            }
        }
    }

    // L2-normalize so function size cancels: a sepFunc holding half the
    // chains of its oriFunc must still point in the same direction.
    let norm: f64 = vec.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in &mut vec {
            *x /= norm;
        }
    }
    vec
}

/// One propagation round along direct call edges: each function's
/// data-flow signature absorbs its callees' (mean, dampened by `weight`),
/// re-normalized. This follows chains across the call boundaries fission
/// introduces.
fn propagate(bin: &Binary, raw: &[Vec<f64>], weight: f64) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(raw.len());
    for (i, f) in bin.functions.iter().enumerate() {
        let callees: Vec<usize> = f
            .blocks
            .iter()
            .flat_map(|b| &b.calls)
            .filter_map(|c| match c {
                khaos_binary::SymRef::Func(j) => Some(*j as usize),
                _ => None,
            })
            .filter(|&j| j != i && j < raw.len())
            .collect();
        let mut v = raw[i].clone();
        if !callees.is_empty() {
            let w = weight / callees.len() as f64;
            for &j in &callees {
                for (x, y) in v.iter_mut().zip(&raw[j]) {
                    *x += w * y;
                }
            }
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                for x in &mut v {
                    *x /= norm;
                }
            }
        }
        out.push(v);
    }
    out
}

impl DataFlowDiff {
    /// The callee-propagated target view, derived from the (already
    /// normalized) raw target rows and cached under its own tool name.
    /// The single source of the `"DataFlowDiff#prop"` cache entry —
    /// both the batched matrix and the streaming scorer fetch through
    /// here, so the two paths can never diverge on what the key holds.
    fn propagated_target(
        &self,
        cache: &crate::EmbeddingCache,
        te: &crate::FunctionEmbeddings,
        target: &Binary,
        target_fingerprint: u64,
    ) -> std::sync::Arc<crate::FunctionEmbeddings> {
        let cfg = self.config_fingerprint();
        cache.get_or_embed(("DataFlowDiff#prop", cfg, target_fingerprint), || {
            let t_raw: Vec<Vec<f64>> = (0..te.len()).map(|i| te.row(i).to_vec()).collect();
            propagate(target, &t_raw, self.callee_weight)
        })
    }
}

impl Differ for DataFlowDiff {
    fn name(&self) -> &'static str {
        "DataFlowDiff"
    }

    fn config_fingerprint(&self) -> u64 {
        self.callee_weight.to_bits()
    }

    fn embed(&self, bin: &Binary) -> Vec<Vec<f64>> {
        let mut scratch = Scratch::new();
        bin.functions
            .iter()
            .map(|f| embed_function(f, &mut scratch))
            .collect()
    }

    /// Asymmetric matching. The query side (the analyst's reference
    /// build) keeps its complete intra-procedural signature. The target
    /// side is matched under **both** views — raw, and with one round of
    /// callee propagation — and the better one wins. When fission has
    /// moved half a body into `sepFunc`s, the propagated view of the
    /// `remFunc` re-assembles the original chain signature; on untouched
    /// functions the raw view dominates, so the propagation can only
    /// help, never pollute.
    fn similarity_matrix(&self, query: &Binary, target: &Binary) -> Vec<Vec<f64>> {
        use crate::vector::cosine;
        let q = self.embed(query);
        let t_raw = self.embed(target);
        if self.callee_weight == 0.0 {
            return q
                .iter()
                .map(|qi| t_raw.iter().map(|tj| cosine(qi, tj).max(0.0)).collect())
                .collect();
        }
        let t_prop = propagate(target, &t_raw, self.callee_weight);
        q.iter()
            .map(|qi| {
                t_raw
                    .iter()
                    .zip(&t_prop)
                    .map(|(tr, tp)| cosine(qi, tr).max(cosine(qi, tp)).max(0.0))
                    .collect()
            })
            .collect()
    }

    /// Batched form of the asymmetric two-view matching above: one
    /// matrix per target view (raw, callee-propagated) from cached
    /// normalized embeddings, merged elementwise. Clamping commutes
    /// with the elementwise max, so this matches the legacy path.
    fn batched_similarity_keyed(
        &self,
        query: &khaos_binary::Binary,
        target: &khaos_binary::Binary,
        cache: &crate::EmbeddingCache,
        query_fingerprint: u64,
        target_fingerprint: u64,
    ) -> crate::SimilarityMatrix {
        use crate::SimilarityMatrix;
        let cfg = self.config_fingerprint();
        let qe = cache.get_or_embed((self.name(), cfg, query_fingerprint), || self.embed(query));
        let te = cache.get_or_embed((self.name(), cfg, target_fingerprint), || {
            self.embed(target)
        });
        let mut m = SimilarityMatrix::from_embeddings(&qe, &te);
        if self.callee_weight != 0.0 {
            let tp = self.propagated_target(cache, &te, target, target_fingerprint);
            m.merge_max(&SimilarityMatrix::from_embeddings(&qe, &tp));
        }
        m
    }

    /// Streaming form of the two-view matching: per cell, the max of
    /// the raw and callee-propagated clamped dot products — exactly the
    /// `merge_max` of the two matrices the batched path builds.
    fn row_scorer_keyed<'a>(
        &'a self,
        query: &'a khaos_binary::Binary,
        target: &'a khaos_binary::Binary,
        cache: &crate::EmbeddingCache,
        query_fingerprint: u64,
        target_fingerprint: u64,
    ) -> Box<dyn crate::engine::RowScore + 'a> {
        use crate::engine::EmbedScorer;
        let cfg = self.config_fingerprint();
        let qe = cache.get_or_embed((self.name(), cfg, query_fingerprint), || self.embed(query));
        let te = cache.get_or_embed((self.name(), cfg, target_fingerprint), || {
            self.embed(target)
        });
        if self.callee_weight == 0.0 {
            return Box::new(EmbedScorer::new(qe, te, true));
        }
        let tp = self.propagated_target(cache, &te, target, target_fingerprint);
        Box::new(TwoViewScorer {
            raw: EmbedScorer::new(std::sync::Arc::clone(&qe), te, true),
            propagated: EmbedScorer::new(qe, tp, true),
        })
    }
}

/// Best-of-two-views [`crate::engine::RowScore`]: raw vs
/// callee-propagated target embeddings.
struct TwoViewScorer {
    raw: crate::engine::EmbedScorer,
    propagated: crate::engine::EmbedScorer,
}

impl crate::engine::RowScore for TwoViewScorer {
    fn rows(&self) -> usize {
        crate::engine::RowScore::rows(&self.raw)
    }
    fn cols(&self) -> usize {
        crate::engine::RowScore::cols(&self.raw)
    }
    fn score(&self, qi: usize, j: usize) -> f64 {
        crate::engine::RowScore::score(&self.raw, qi, j).max(crate::engine::RowScore::score(
            &self.propagated,
            qi,
            j,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_binary;
    use crate::vector::cosine;
    use khaos_binary::{MInst, SymRef};

    #[test]
    fn def_use_roles() {
        let mut pool = Vec::new();
        let add = MInst::alloc(
            &mut pool,
            Opcode::Add,
            &[MOperand::Reg(1), MOperand::Reg(2)],
        );
        assert_eq!(def_of(&add, &pool), Some(1));
        assert_eq!(
            reads_of(&add, &pool),
            vec![1, 2],
            "two-address add reads its dest"
        );

        let mv = MInst::alloc(
            &mut pool,
            Opcode::Mov,
            &[MOperand::Reg(1), MOperand::Reg(2)],
        );
        assert_eq!(def_of(&mv, &pool), Some(1));
        assert_eq!(
            reads_of(&mv, &pool),
            vec![2],
            "mov overwrites without reading"
        );

        let st = MInst::alloc(
            &mut pool,
            Opcode::Store,
            &[
                MOperand::Mem {
                    base: 5,
                    offset: -8,
                },
                MOperand::Reg(3),
            ],
        );
        assert_eq!(def_of(&st, &pool), None);
        assert_eq!(
            reads_of(&st, &pool),
            vec![5, 3],
            "store reads base and value"
        );

        let call = MInst::alloc(&mut pool, Opcode::Call, &[MOperand::Sym(SymRef::Func(0))]);
        assert_eq!(
            def_of(&call, &pool),
            Some(0),
            "call clobbers the return register"
        );
    }

    #[test]
    fn float_registers_are_distinct_slots() {
        let mut pool = Vec::new();
        let a = MInst::alloc(
            &mut pool,
            Opcode::Addsd,
            &[MOperand::FReg(1), MOperand::FReg(2)],
        );
        assert_eq!(def_of(&a, &pool), Some(0x101));
        assert_eq!(reads_of(&a, &pool), vec![0x101, 0x102]);
    }

    /// One hand-built block: its instructions and its successors.
    type Block<'a> = (&'a [(Opcode, &'a [MOperand])], &'a [u32]);

    /// A function of `blocks` over one operand pool.
    fn function(blocks: &[Block]) -> BinFunction {
        use khaos_binary::BinProvenance;
        let mut pool = Vec::new();
        let blocks = blocks
            .iter()
            .map(|(insts, succs)| {
                let mut blk = BinBlock::default();
                for (op, ops) in insts.iter() {
                    blk.push_inst(&mut pool, *op, ops);
                }
                blk.succs = succs.to_vec();
                blk
            })
            .collect();
        BinFunction {
            name: Some("f".into()),
            provenance: BinProvenance {
                origins: vec!["f".into()],
                annotations: vec![],
            },
            exported: false,
            blocks,
            operand_pool: pool,
        }
    }

    /// The table-driven extraction matches the `HashMap`-based oracle bit
    /// for bit on the edge cases, one scratch reused across functions.
    #[test]
    fn matches_the_reference_on_edge_cases() {
        use MOperand::{FReg, Imm, Mem, Reg};
        let slot = Mem {
            base: 5,
            offset: -16,
        };
        let other_slot = Mem {
            base: 5,
            offset: -8,
        };
        let cases = [
            // Float-register keys (0x100+) alongside the same integer ids.
            function(&[(
                &[
                    (Opcode::Movsd, &[FReg(1), FReg(2)]),
                    (Opcode::Addsd, &[FReg(1), FReg(3)]),
                    (Opcode::Add, &[Reg(1), Reg(3)]),
                    (Opcode::Mulsd, &[FReg(3), FReg(1)]),
                    (Opcode::Cvttsd2si, &[Reg(2), FReg(3)]),
                ],
                &[],
            )]),
            // A `Mem` base read, defined in-block and upward-exposed.
            function(&[
                (
                    &[
                        (Opcode::Lea, &[Reg(4), Mem { base: 6, offset: 8 }]),
                        (Opcode::Load, &[Reg(2), Mem { base: 4, offset: 0 }]),
                        (Opcode::Add, &[Reg(2), Imm(3)]),
                    ],
                    &[1],
                ),
                (
                    &[
                        (Opcode::Load, &[Reg(1), Mem { base: 2, offset: 4 }]),
                        (Opcode::Store, &[Mem { base: 4, offset: 0 }, Reg(1)]),
                    ],
                    &[],
                ),
            ]),
            // Store→load to the same slot, a different slot, and a load
            // before any store; the next block's load of the slot is no
            // edge (slot dependences are exact within a block only).
            function(&[
                (
                    &[
                        (Opcode::Load, &[Reg(3), slot]),
                        (Opcode::Store, &[slot, Reg(1)]),
                        (Opcode::Load, &[Reg(2), slot]),
                        (Opcode::Load, &[Reg(2), other_slot]),
                        (Opcode::Store, &[slot, Reg(2)]),
                        (Opcode::Load, &[Reg(7), slot]),
                    ],
                    &[1],
                ),
                (&[(Opcode::Load, &[Reg(7), slot])], &[]),
            ]),
            // A `Ret` reading the return register, and a call clobbering
            // `r0` before and after a use.
            function(&[
                (
                    &[
                        (Opcode::MovImm, &[Reg(0), Imm(1)]),
                        (Opcode::Call, &[MOperand::Sym(SymRef::Func(0))]),
                        (Opcode::Add, &[Reg(1), Reg(0)]),
                        (Opcode::CallInd, &[Reg(1)]),
                    ],
                    &[1],
                ),
                (
                    &[(Opcode::Mov, &[Reg(0), Reg(0)]), (Opcode::Ret, &[Reg(0)])],
                    &[],
                ),
            ]),
            // Out-of-range successors, an empty block, a self-loop and
            // chains deeper than five.
            function(&[
                (
                    &[
                        (Opcode::MovImm, &[Reg(1), Imm(1)]),
                        (Opcode::Add, &[Reg(1), Reg(1)]),
                        (Opcode::Add, &[Reg(1), Reg(1)]),
                        (Opcode::Imul, &[Reg(1), Reg(1)]),
                        (Opcode::Shl, &[Reg(1), Imm(2)]),
                        (Opcode::Sub, &[Reg(1), Reg(9)]),
                        (Opcode::Cmp, &[Reg(1), Imm(0)]),
                        (Opcode::Setcc, &[Reg(2)]),
                    ],
                    &[1, 7, 2, u32::MAX],
                ),
                (&[], &[2, 0]),
                (
                    &[
                        (Opcode::Add, &[Reg(2), Reg(1)]),
                        (Opcode::Push, &[Reg(2)]),
                        (Opcode::Pop, &[Reg(9)]),
                        (Opcode::Nop, &[]),
                    ],
                    &[2, 0, 1],
                ),
            ]),
            // An empty function and a function of one empty block.
            function(&[]),
            function(&[(&[], &[0])]),
        ];
        let mut scratch = Scratch::new();
        for (k, f) in cases.iter().enumerate() {
            let want = reference::embed_function(f);
            let have = embed_function(f, &mut scratch);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&have), bits(&want), "case {k}");
        }
        // And on every function of the shared test binary.
        for f in &small_binary("x").functions {
            let want = reference::embed_function(f);
            assert_eq!(embed_function(f, &mut scratch), want);
        }
    }

    #[test]
    fn self_similarity_is_one() {
        let b = small_binary("x");
        let t = DataFlowDiff::new();
        let m = t.similarity_matrix(&b, &b);
        for (i, row) in m.iter().enumerate() {
            let best = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            assert_eq!(best.0, i, "function {i} matches itself");
            assert!(*best.1 > 0.999);
        }
    }

    #[test]
    fn distinguishes_different_computations() {
        let b = small_binary("x");
        let t = DataFlowDiff::new();
        let e = t.embed(&b);
        // alpha (loopy accumulator) vs beta (branchy bit-twiddler) must not
        // be confusable.
        let sim = cosine(&e[0], &e[1]);
        assert!(sim < 0.98, "distinct functions stay distinguishable: {sim}");
    }

    #[test]
    fn embedding_is_size_invariant_in_direction() {
        // A function and "the same function twice" (duplicated block) point
        // the same way: the L2 normalization makes sub-function matching
        // possible after fission.
        let b = small_binary("x");
        let mut doubled = b.clone();
        let extra = doubled.functions[0].blocks.clone();
        doubled.functions[0].blocks.extend(extra);
        // Fix up successor indices of the copied tail so they stay in range
        // (shape only matters for the one-hop join; clamp).
        let n = doubled.functions[0].blocks.len() as u32;
        for blk in &mut doubled.functions[0].blocks {
            for s in &mut blk.succs {
                *s %= n;
            }
        }
        let t = DataFlowDiff::new();
        let e1 = t.embed(&b);
        let e2 = t.embed(&doubled);
        let sim = cosine(&e1[0], &e2[0]);
        assert!(
            sim > 0.95,
            "doubling the body barely moves the direction: {sim}"
        );
    }

    #[test]
    fn store_load_dependence_detected() {
        use khaos_binary::{BinBlock, BinFunction, BinProvenance};
        let mk = |with_reload: bool| {
            let mut pool = Vec::new();
            let mut blk = BinBlock::default();
            blk.push_inst(
                &mut pool,
                Opcode::Store,
                &[
                    MOperand::Mem {
                        base: 5,
                        offset: -16,
                    },
                    MOperand::Reg(1),
                ],
            );
            if with_reload {
                blk.push_inst(
                    &mut pool,
                    Opcode::Load,
                    &[
                        MOperand::Reg(2),
                        MOperand::Mem {
                            base: 5,
                            offset: -16,
                        },
                    ],
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
        };
        let t = DataFlowDiff::new();
        let with = t.embed(&mk(true));
        let without = t.embed(&mk(false));
        assert!(
            cosine(&with[0], &without[0]) < 1.0 - 1e-9,
            "the st->ld edge must contribute"
        );
    }
}
