//! The `HashMap`-based extraction the table-driven one in the parent
//! module replaced, kept verbatim as the oracle its unit tests compare
//! against bit for bit.

use super::{def_of, reads_of};
use crate::tokens::opcode_class;
use crate::vector::{add_token, EMB_DIM};
use khaos_binary::{BinBlock, BinFunction, MOperand, Opcode};
use std::collections::HashMap;

/// Per-block data-flow summary for the one-hop inter-block join.
struct BlockSummary {
    /// class of the last write to each register still live at block end.
    out_defs: HashMap<u16, &'static str>,
    /// class of the first read of each register before any write to it.
    exposed_uses: HashMap<u16, &'static str>,
}

/// Emits this block's intra-block edges into `vec` and returns its summary.
fn scan_block(
    b: &BinBlock,
    pool: &[MOperand],
    vec: &mut [f64],
    chain_lens: &mut Vec<u32>,
) -> BlockSummary {
    // reg -> (class of def, chain length so far)
    let mut last_def: HashMap<u16, (&'static str, u32)> = HashMap::new();
    let mut exposed: HashMap<u16, &'static str> = HashMap::new();

    for inst in &b.insts {
        let uclass = opcode_class(inst.opcode);
        let mut depth_in: u32 = 0;
        for r in reads_of(inst, pool) {
            match last_def.get(&r) {
                Some((dclass, depth)) => {
                    add_token(vec, &format!("df:{dclass}->{uclass}"), 1.0);
                    depth_in = depth_in.max(*depth);
                }
                None => {
                    exposed.entry(r).or_insert(uclass);
                }
            }
        }
        // Memory dependence: a store and a later load of the same slot.
        if inst.opcode == Opcode::Load {
            add_token(vec, "df:memread", 0.25);
        }
        if inst.opcode == Opcode::Store {
            add_token(vec, "df:memwrite", 0.25);
        }
        if let Some(d) = def_of(inst, pool) {
            let depth = depth_in + 1;
            if inst.opcode == Opcode::Ret {
                continue;
            }
            last_def.insert(d, (uclass, depth));
            chain_lens.push(depth);
        }
    }

    // Store→load same-slot edges (exact within the block).
    let mut stores: HashMap<(u8, i32), &'static str> = HashMap::new();
    for inst in &b.insts {
        match inst.opcode {
            Opcode::Store => {
                if let Some(MOperand::Mem { base, offset }) = inst.operands(pool).first() {
                    stores.insert((*base, *offset), "store");
                }
            }
            Opcode::Load => {
                if let Some(MOperand::Mem { base, offset }) = inst.operands(pool).get(1) {
                    if stores.contains_key(&(*base, *offset)) {
                        add_token(vec, "df:st->ld", 1.0);
                    }
                }
            }
            _ => {}
        }
    }

    BlockSummary {
        out_defs: last_def.into_iter().map(|(r, (c, _))| (r, c)).collect(),
        exposed_uses: exposed,
    }
}

/// Embeds one function as its data-flow signature.
pub(super) fn embed_function(f: &BinFunction) -> Vec<f64> {
    let mut vec = vec![0.0; EMB_DIM];
    let mut chain_lens: Vec<u32> = Vec::new();
    let summaries: Vec<BlockSummary> = f
        .blocks
        .iter()
        .map(|b| scan_block(b, &f.operand_pool, &mut vec, &mut chain_lens))
        .collect();

    // One-hop inter-block join: defs flowing into successors' exposed uses.
    for (bi, b) in f.blocks.iter().enumerate() {
        for &s in &b.succs {
            let Some(succ) = summaries.get(s as usize) else {
                continue;
            };
            for (r, dclass) in &summaries[bi].out_defs {
                if let Some(uclass) = succ.exposed_uses.get(r) {
                    add_token(&mut vec, &format!("xdf:{dclass}->{uclass}"), 0.5);
                }
            }
        }
    }

    // Chain-shape statistics: bucketed def-use chain depths. These survive
    // code motion (the chain moves wholesale) but distinguish functions
    // with different computation depth.
    for d in &chain_lens {
        let bucket = match d {
            1 => "d1",
            2 => "d2",
            3..=4 => "d3",
            _ => "d5",
        };
        add_token(&mut vec, &format!("chain:{bucket}"), 0.5);
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
