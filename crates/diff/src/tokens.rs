//! Instruction tokenization shared by the embedding tools.
//!
//! Operands are normalized to classes — the standard preprocessing of
//! Asm2Vec/SAFE/DeepBinDiff (concrete registers and addresses carry no
//! cross-binary signal; immediates are bucketed).
//!
//! The embedders never build a token string per occurrence. Each
//! `embed` call interns instructions through one [`TokenTable`]: an
//! instruction's exact class key (its head — opcode class or opcode —
//! plus its operand-class sequence) maps to a dense `u32` id, and each
//! id holds its token text and that text's [`TokenHasher`] state,
//! computed once when the id is first seen. The text comes from
//! [`inst_class_token`]/[`inst_token`], so it keeps a single
//! definition; the embedders then memoize whatever they derive from a
//! token (n-gram states, attention weights, `(dim, sign)` pairs) per
//! id, which is bit-identical to hashing the text at every occurrence.
//!
//! Instructions store their operands as ranges into the owning
//! function's flat [`khaos_binary::BinFunction::operand_pool`], so the
//! per-instruction tokenizers take the pool alongside the instruction.

use crate::vector::TokenHasher;
use khaos_binary::{BinBlock, MInst, MOperand, Opcode, SymRef};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The opcode classes, indexed by [`opcode_class_index`].
pub const OPCODE_CLASSES: [&str; 15] = [
    "mov", "load", "store", "lea", "alu", "muldiv", "cmp", "cc", "jump", "call", "ret", "stack",
    "fparith", "cvt", "nop",
];

/// Index of an opcode's coarse semantic class in [`OPCODE_CLASSES`].
/// The learned models (Asm2Vec, SAFE) embed *semantics*, which makes
/// them robust against instruction substitution — `add` and the
/// `sub`-chains O-LLVM replaces it with live in the same class.
pub fn opcode_class_index(op: Opcode) -> u8 {
    match op {
        Opcode::Mov | Opcode::MovImm | Opcode::Movsx | Opcode::Movzx | Opcode::Movsd => 0,
        Opcode::Load => 1,
        Opcode::Store => 2,
        Opcode::Lea => 3,
        // One class for simple integer ALU work: `add` and the
        // `sub/xor/and` chains O-LLVM's Sub rewrites it into are
        // semantically interchangeable to a learned model.
        Opcode::Add
        | Opcode::Sub
        | Opcode::Neg
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::Not
        | Opcode::Shl
        | Opcode::Shr
        | Opcode::Sar => 4,
        Opcode::Imul | Opcode::Idiv | Opcode::Div => 5,
        Opcode::Cmp | Opcode::Test | Opcode::Ucomisd => 6,
        Opcode::Setcc | Opcode::Cmov => 7,
        Opcode::Jmp | Opcode::Jcc => 8,
        Opcode::Call | Opcode::CallInd => 9,
        Opcode::Ret => 10,
        Opcode::Push | Opcode::Pop => 11,
        Opcode::Addsd | Opcode::Subsd | Opcode::Mulsd | Opcode::Divsd | Opcode::Xorps => 12,
        Opcode::Cvtsi2sd | Opcode::Cvttsd2si | Opcode::Cvtss2sd | Opcode::Cvtsd2ss => 13,
        Opcode::Nop => 14,
    }
}

/// Coarse semantic class of an opcode (see [`opcode_class_index`]).
pub fn opcode_class(op: Opcode) -> &'static str {
    OPCODE_CLASSES[opcode_class_index(op) as usize]
}

/// Shared body of [`inst_token`]/[`inst_class_token`]: head word plus
/// comma-joined operand classes.
fn token_with_head(head: &str, i: &MInst, pool: &[MOperand]) -> String {
    let ops = i.operands(pool);
    let mut s = String::with_capacity(head.len() + 7 * ops.len());
    s.push_str(head);
    for (k, o) in ops.iter().enumerate() {
        s.push(if k == 0 { ' ' } else { ',' });
        s.push_str(operand_class(o));
    }
    s
}

/// Semantic-class token of an instruction, e.g. `"alu reg,imm8"`.
pub fn inst_class_token(i: &MInst, pool: &[MOperand]) -> String {
    token_with_head(opcode_class(i.opcode), i, pool)
}

/// The operand classes, indexed by [`operand_class_index`].
pub const OPERAND_CLASSES: [&str; 10] = [
    "reg", "xmm", "imm0", "imm8", "imm32", "mem", "fnsym", "glsym", "extsym", "loc",
];

/// Index of an operand's normalized class in [`OPERAND_CLASSES`].
pub fn operand_class_index(o: &MOperand) -> u8 {
    match o {
        MOperand::Reg(_) => 0,
        MOperand::FReg(_) => 1,
        MOperand::Imm(v) => {
            // Bucketed immediates, as Asm2Vec does.
            if *v == 0 {
                2
            } else if (-128..=127).contains(v) {
                3
            } else {
                4
            }
        }
        MOperand::Mem { .. } => 5,
        MOperand::Sym(SymRef::Func(_)) => 6,
        MOperand::Sym(SymRef::Global(_)) => 7,
        MOperand::Sym(SymRef::Ext(_)) => 8,
        MOperand::Label(_) => 9,
    }
}

/// Normalizes one operand to a token fragment.
pub fn operand_class(o: &MOperand) -> &'static str {
    OPERAND_CLASSES[operand_class_index(o) as usize]
}

/// Normalized token of a whole instruction, e.g. `"add reg,imm8"`.
pub fn inst_token(i: &MInst, pool: &[MOperand]) -> String {
    token_with_head(i.opcode.mnemonic(), i, pool)
}

/// A multiply-rotate hasher for the small integer keys of the token
/// layer (class keys, id n-grams): a few cycles per word where the
/// standard library's SipHash takes tens.
#[derive(Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` over [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` over [`IdHasher`].
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Which head word a [`TokenTable`]'s tokens carry.
#[derive(Clone, Copy, Debug)]
enum Head {
    /// The opcode class ([`inst_class_token`]).
    Class,
    /// The mnemonic ([`inst_token`]).
    Mnemonic,
}

/// An instruction's exact class key: its head byte (class index or
/// opcode) and operand-class indices. Up to [`ClassKey::WORD_OPERANDS`]
/// operands pack into one word — head in bits 0–7, operand count in
/// 8–11, then 4 bits per operand class — and longer keys keep their
/// bytes, so the key is injective at any operand count.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ClassKey {
    Word(u64),
    Bytes(Box<[u8]>),
}

impl ClassKey {
    /// The most operands a [`ClassKey::Word`] holds.
    const WORD_OPERANDS: usize = 13;

    fn new(head: u8, ops: &[MOperand]) -> Self {
        if ops.len() <= Self::WORD_OPERANDS {
            let mut word = head as u64 | (ops.len() as u64) << 8;
            for (k, o) in ops.iter().enumerate() {
                word |= (operand_class_index(o) as u64) << (12 + 4 * k);
            }
            ClassKey::Word(word)
        } else {
            let bytes = std::iter::once(head).chain(ops.iter().map(operand_class_index));
            ClassKey::Bytes(bytes.collect())
        }
    }
}

/// Interns instruction tokens to dense ids for one `embed` call (see
/// the module docs). In a class table two instructions share an id
/// exactly when their token texts are equal, so per-id counts are
/// per-token counts. A mnemonic table keys on the opcode itself, so
/// `Mov` and `MovImm` (both `mov`) get two ids of equal text.
#[derive(Debug)]
pub struct TokenTable {
    head: Head,
    ids: IdMap<ClassKey, u32>,
    tokens: Vec<(String, TokenHasher)>,
}

impl TokenTable {
    fn new(head: Head) -> Self {
        TokenTable {
            head,
            ids: IdMap::default(),
            tokens: Vec::new(),
        }
    }

    /// A table of semantic-class tokens ([`inst_class_token`]), as
    /// Asm2Vec and SAFE read them.
    pub fn classes() -> Self {
        Self::new(Head::Class)
    }

    /// A table of mnemonic tokens ([`inst_token`]), as DeepBinDiff
    /// reads them.
    pub fn mnemonics() -> Self {
        Self::new(Head::Mnemonic)
    }

    /// The id of `i`'s token, interning it on first sight.
    pub fn intern(&mut self, i: &MInst, pool: &[MOperand]) -> u32 {
        let head = match self.head {
            Head::Class => opcode_class_index(i.opcode),
            Head::Mnemonic => i.opcode as u8,
        };
        let key = ClassKey::new(head, i.operands(pool));
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let text = match self.head {
            Head::Class => inst_class_token(i, pool),
            Head::Mnemonic => inst_token(i, pool),
        };
        let id = u32::try_from(self.tokens.len()).expect("fewer than 2^32 distinct tokens");
        let hasher = TokenHasher::new().feed(&text);
        self.tokens.push((text, hasher));
        self.ids.insert(key, id);
        id
    }

    /// Appends the ids of `b`'s instructions to `out`.
    pub fn intern_block(&mut self, b: &BinBlock, pool: &[MOperand], out: &mut Vec<u32>) {
        out.extend(b.insts.iter().map(|i| self.intern(i, pool)));
    }

    /// The number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// The text of token `id`.
    pub fn text(&self, id: u32) -> &str {
        &self.tokens[id as usize].0
    }

    /// The hash state of token `id`'s text.
    pub fn hasher(&self, id: u32) -> TokenHasher {
        self.tokens[id as usize].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_binary::{MInst, Opcode};

    #[test]
    fn tokens_normalize_operands() {
        let mut pool = Vec::new();
        let i = MInst::alloc(
            &mut pool,
            Opcode::Add,
            &[MOperand::Reg(3), MOperand::Imm(5)],
        );
        assert_eq!(inst_token(&i, &pool), "add reg,imm8");
        let j = MInst::alloc(
            &mut pool,
            Opcode::Add,
            &[MOperand::Reg(9), MOperand::Imm(77)],
        );
        assert_eq!(
            inst_token(&i, &pool),
            inst_token(&j, &pool),
            "register ids are abstracted"
        );
    }

    #[test]
    fn immediates_bucketed() {
        let mut pool = Vec::new();
        let z = MInst::alloc(
            &mut pool,
            Opcode::MovImm,
            &[MOperand::Reg(0), MOperand::Imm(0)],
        );
        let small = MInst::alloc(
            &mut pool,
            Opcode::MovImm,
            &[MOperand::Reg(0), MOperand::Imm(-5)],
        );
        let big = MInst::alloc(
            &mut pool,
            Opcode::MovImm,
            &[MOperand::Reg(0), MOperand::Imm(100000)],
        );
        assert_eq!(inst_token(&z, &pool), "mov reg,imm0");
        assert_eq!(inst_token(&small, &pool), "mov reg,imm8");
        assert_eq!(inst_token(&big, &pool), "mov reg,imm32");
    }

    #[test]
    fn class_tables_match_the_class_names() {
        let mut pool = Vec::new();
        let i = MInst::alloc(
            &mut pool,
            Opcode::Sub,
            &[MOperand::Reg(3), MOperand::Sym(SymRef::Global(1))],
        );
        assert_eq!(inst_class_token(&i, &pool), "alu reg,glsym");
        assert_eq!(opcode_class(Opcode::Cvtss2sd), "cvt");
        assert_eq!(operand_class(&MOperand::Label(2)), "loc");
    }

    #[test]
    fn ids_are_exact_over_trailing_operand_classes() {
        let mut pool = Vec::new();
        let reg = MOperand::Reg(1);
        let imm = MOperand::Imm(1000);
        // More operands than any lowering emits: the key stays exact.
        let mut operand_lists = vec![vec![reg], vec![reg, reg], vec![reg, imm], vec![reg; 3]];
        // Around the one-word key's limit, and past it.
        for n in [12, 13, 14, 20] {
            let mut ops = vec![reg; n];
            operand_lists.push(ops.clone());
            *ops.last_mut().unwrap() = imm;
            operand_lists.push(ops);
        }
        let insts: Vec<MInst> = operand_lists
            .iter()
            .map(|ops| MInst::alloc(&mut pool, Opcode::Add, ops))
            .collect();
        for mut table in [TokenTable::classes(), TokenTable::mnemonics()] {
            let ids: Vec<u32> = insts.iter().map(|i| table.intern(i, &pool)).collect();
            let fresh: Vec<u32> = (0..insts.len() as u32).collect();
            assert_eq!(ids, fresh, "every key is distinct");
            assert_eq!(table.len(), insts.len());
            // Re-interning finds the same ids.
            for (i, &id) in insts.iter().zip(&ids) {
                assert_eq!(table.intern(i, &pool), id);
            }
        }
        let mut table = TokenTable::classes();
        let last = insts.last().unwrap();
        let id = table.intern(last, &pool);
        let text = inst_class_token(last, &pool);
        assert!(text.ends_with("reg,imm32"), "{text}");
        assert_eq!(table.text(id), text);
        let h = table.hasher(id);
        assert_eq!(h.dim(), crate::vector::hash_token(&text));
        assert_eq!(h.sign(), crate::vector::hash_sign(&text));
    }

    #[test]
    fn one_id_per_class_text() {
        // `add` and `xor` share the class token, so they share an id in a
        // class table and not in a mnemonic one.
        let mut pool = Vec::new();
        let add = MInst::alloc(
            &mut pool,
            Opcode::Add,
            &[MOperand::Reg(1), MOperand::Reg(2)],
        );
        let xor = MInst::alloc(
            &mut pool,
            Opcode::Xor,
            &[MOperand::Reg(4), MOperand::Reg(5)],
        );
        let mut classes = TokenTable::classes();
        assert_eq!(classes.intern(&add, &pool), classes.intern(&xor, &pool));
        let mut mnemonics = TokenTable::mnemonics();
        assert_ne!(mnemonics.intern(&add, &pool), mnemonics.intern(&xor, &pool));
        assert_eq!(mnemonics.text(1), "xor reg,reg");
    }

    #[test]
    fn symbol_classes_differ() {
        let mut pool = Vec::new();
        let c1 = MInst::alloc(&mut pool, Opcode::Call, &[MOperand::Sym(SymRef::Func(4))]);
        let c2 = MInst::alloc(&mut pool, Opcode::Call, &[MOperand::Sym(SymRef::Ext(0))]);
        assert_ne!(inst_token(&c1, &pool), inst_token(&c2, &pool));
    }
}
