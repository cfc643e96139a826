//! The data arena: globals, heap and alloca stack.
//!
//! The arena spans `[DATA_BASE, DATA_BASE + data_size)` and is committed
//! on demand in two regions: `[DATA_BASE, stack_base)` for the globals
//! and the heap, and `[stack_base, limit)` for the stack. A region holds
//! bytes only from its base up to the highest byte written so far
//! (rounded up as it grows); a byte never written reads as zero, as it
//! did in the zero-filled arena this replaces. An access that lies in one
//! region's committed bytes takes the fast path, one range compare per
//! region. An access that straddles the two regions or reaches
//! uncommitted bytes takes a cold path with the same bounds, results and
//! trap messages. A run that touches a few kilobytes of a 4 MiB arena
//! allocates and zero-fills a few kilobytes.

use crate::value::Value;
use khaos_ir::{FuncId, GInit, Module, Type};

#[cfg(test)]
pub(crate) mod reference;

/// Base of the synthetic code address space. Function `i` lives at
/// `FUNC_SPACE_BASE + i * FUNC_SPACE_STRIDE`.
pub const FUNC_SPACE_BASE: u64 = 0x4000_0000;

/// Spacing between synthetic function addresses. 16-byte alignment is what
/// makes the low 4 pointer bits available for the fusion tag (paper §A.1).
pub const FUNC_SPACE_STRIDE: u64 = 16;

/// First mapped data address (addresses below trap, catching null and
/// tagged-pointer dereferences).
const DATA_BASE: u64 = 0x1000;

/// The fewest bytes a region commits when it grows.
const MIN_COMMIT: usize = 4096;

/// A memory access failure.
#[derive(Clone, Debug, PartialEq)]
pub struct MemError {
    /// Offending address.
    pub addr: u64,
    /// What went wrong.
    pub message: String,
}

/// One region of the arena: `bytes` holds the committed addresses
/// `[base, base + bytes.len())`, which never pass `end`.
#[derive(Debug)]
struct Region {
    base: u64,
    end: u64,
    bytes: Vec<u8>,
}

impl Region {
    fn new(base: u64, end: u64) -> Self {
        Region {
            base,
            end: end.max(base),
            bytes: Vec::new(),
        }
    }

    /// Offset of `[addr, addr + size)` in `bytes` if it is committed.
    #[inline(always)]
    fn offset(&self, addr: u64, size: u64) -> Option<usize> {
        let off = addr.wrapping_sub(self.base);
        match off.checked_add(size) {
            Some(end) if end <= self.bytes.len() as u64 => Some(off as usize),
            _ => None,
        }
    }

    /// The part of `[addr, addr + size)` inside this region, as offsets
    /// from `base`; empty if they do not meet.
    fn overlap(&self, addr: u64, size: u64) -> std::ops::Range<usize> {
        let lo = addr.clamp(self.base, self.end);
        let hi = (addr + size).clamp(self.base, self.end);
        (lo - self.base) as usize..(hi - self.base) as usize
    }

    /// Commits the region's bytes up to offset `need`: at least doubling
    /// what is committed, never past `end`.
    fn commit(&mut self, need: usize) {
        if need > self.bytes.len() {
            let cap = (self.end - self.base) as usize;
            let grown = need.max(2 * self.bytes.len()).max(MIN_COMMIT).min(cap);
            self.bytes.resize(grown, 0);
        }
    }
}

/// Little-endian memory with three bump regions: globals (fixed after
/// load), heap (grows only) and the alloca stack (grows per frame,
/// restored on return/unwind). The globals and the heap share the lower
/// committed region, the stack the upper one.
#[derive(Debug)]
pub struct Memory {
    /// `[DATA_BASE, stack_base)` (capped at `limit`) and `[stack_base, limit)`.
    regions: [Region; 2],
    global_addrs: Vec<u64>,
    heap_sp: u64,
    stack_sp: u64,
    stack_base: u64,
    limit: u64,
    /// Set when an initialized global does not fit in the arena.
    layout_error: Option<MemError>,
}

impl Memory {
    /// Lays out `m`'s globals (applying function-pointer relocations with
    /// addends) and sets up heap/stack regions of `data_size` bytes total.
    ///
    /// A global whose initializer does not fit in the arena is recorded
    /// rather than written: [`Vm::run`](crate::Vm::run) reports it as a
    /// trap before running anything.
    pub fn new(m: &Module, data_size: usize) -> Self {
        let limit = DATA_BASE + data_size as u64;
        // Initializers are written at increasing addresses, so the lower
        // region's bytes are appended in order: alignment and `zero`
        // gaps are zero-extended when the next initialized byte follows.
        let mut low = Vec::new();
        let mut layout_error = None;
        let mut put = |at: u64, b: &[u8], name: &str| {
            if layout_error.is_some() {
                return;
            }
            if at + b.len() as u64 > limit {
                layout_error = Some(MemError {
                    addr: at,
                    message: format!(
                        "global `{name}` does not fit in the {data_size}-byte data arena"
                    ),
                });
                return;
            }
            low.resize((at - DATA_BASE) as usize, 0);
            low.extend_from_slice(b);
        };
        let mut cursor = DATA_BASE;
        let mut global_addrs = Vec::with_capacity(m.globals.len());
        for g in &m.globals {
            let align = g.align.max(1) as u64;
            cursor = cursor.div_ceil(align) * align;
            global_addrs.push(cursor);
            let mut at = cursor;
            for init in &g.init {
                match init {
                    GInit::Bytes(b) => {
                        put(at, b, &g.name);
                        at += b.len() as u64;
                    }
                    GInit::Int { value, ty } => {
                        let sz = ty.size() as usize;
                        put(at, &value.to_le_bytes()[..sz], &g.name);
                        at += sz as u64;
                    }
                    GInit::Float { value, ty } => {
                        let sz = ty.size() as usize;
                        if *ty == Type::F32 {
                            put(at, &(*value as f32).to_le_bytes(), &g.name);
                        } else {
                            put(at, &value.to_le_bytes(), &g.name);
                        }
                        at += sz as u64;
                    }
                    GInit::Zero(n) => at += *n as u64,
                    GInit::FuncPtr { func, addend } => {
                        // The relocation: function address + addend. The
                        // addend carries the fusion tag bits.
                        let v = func_addr(*func).wrapping_add(*addend as u64);
                        put(at, &v.to_le_bytes(), &g.name);
                        at += 8;
                    }
                }
            }
            cursor = at;
        }
        // Heap grows from after globals; stack occupies the top half.
        let heap_sp = cursor.div_ceil(16) * 16;
        let stack_base = DATA_BASE + (data_size as u64) / 2;
        let stack_base = stack_base.max(heap_sp + 64);
        let mut lower = Region::new(DATA_BASE, stack_base.min(limit));
        lower.bytes = low;
        Memory {
            regions: [lower, Region::new(stack_base, limit)],
            global_addrs,
            heap_sp,
            stack_sp: stack_base,
            stack_base,
            limit,
            layout_error,
        }
    }

    /// Why the globals could not be laid out, if they could not.
    pub(crate) fn layout_error(&self) -> Option<&MemError> {
        self.layout_error.as_ref()
    }

    /// Address of global `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn global_addr(&self, i: khaos_ir::GlobalId) -> u64 {
        self.global_addrs[i.index()]
    }

    /// Current alloca stack pointer (saved at frame entry).
    pub fn stack_mark(&self) -> u64 {
        self.stack_sp
    }

    /// Restores the alloca stack pointer (frame exit / unwind / longjmp).
    /// When the globals leave no room for a stack, `stack_base` lies past
    /// `limit` and the only mark is `stack_base` itself.
    pub fn stack_release(&mut self, mark: u64) {
        debug_assert!(mark >= self.stack_base && mark <= self.limit.max(self.stack_base));
        self.stack_sp = mark;
    }

    /// Bump-allocates `size` bytes (aligned) on the alloca stack.
    pub fn stack_alloc(&mut self, size: u32, align: u32) -> Result<u64, MemError> {
        let align = align.max(1) as u64;
        let at = self.stack_sp.div_ceil(align) * align;
        let end = at + size as u64;
        if end > self.limit {
            return Err(MemError {
                addr: at,
                message: "stack overflow".into(),
            });
        }
        self.stack_sp = end;
        Ok(at)
    }

    /// Bump-allocates `size` bytes on the heap (`malloc`).
    pub fn heap_alloc(&mut self, size: u64) -> Result<u64, MemError> {
        let at = self.heap_sp.div_ceil(16) * 16;
        let end = at + size;
        if end > self.stack_base {
            return Err(MemError {
                addr: at,
                message: "out of heap memory".into(),
            });
        }
        self.heap_sp = end;
        Ok(at)
    }

    /// Fails unless `[addr, addr + size)` lies inside the data arena. The
    /// end is computed with checked arithmetic: a wild address or length
    /// whose end wraps around the address space traps like any other
    /// out-of-bounds access.
    #[inline(always)]
    fn check(&self, addr: u64, size: u64) -> Result<(), MemError> {
        match addr.checked_add(size) {
            Some(end) if addr >= DATA_BASE && end <= self.limit => Ok(()),
            _ => Err(access_error(addr)),
        }
    }

    /// The region and offset of `[addr, addr + size)` if it lies in one
    /// region's committed bytes (committed bytes are always in bounds).
    #[inline(always)]
    fn locate(&self, addr: u64, size: u64) -> Option<(usize, usize)> {
        if let Some(off) = self.regions[0].offset(addr, size) {
            return Some((0, off));
        }
        self.regions[1].offset(addr, size).map(|off| (1, off))
    }

    /// The committed bytes `[addr, addr + size)`, if they are in one region.
    #[inline(always)]
    fn committed(&self, addr: u64, size: usize) -> Option<&[u8]> {
        let (r, off) = self.locate(addr, size as u64)?;
        Some(&self.regions[r].bytes[off..off + size])
    }

    /// Reads `buf.len()` bytes at a checked address: committed bytes as
    /// stored, uncommitted ones as zero.
    #[cold]
    fn gather(&self, addr: u64, buf: &mut [u8]) {
        buf.fill(0);
        for r in &self.regions {
            let part = r.overlap(addr, buf.len() as u64);
            let have = part.start..part.end.min(r.bytes.len());
            if have.start < have.end {
                let at = (r.base + have.start as u64 - addr) as usize;
                buf[at..at + have.len()].copy_from_slice(&r.bytes[have]);
            }
        }
    }

    /// Writes `bytes` at a checked address, committing what they reach.
    #[cold]
    fn scatter(&mut self, addr: u64, bytes: &[u8]) {
        for r in &mut self.regions {
            let part = r.overlap(addr, bytes.len() as u64);
            if part.start < part.end {
                r.commit(part.end);
                let at = (r.base + part.start as u64 - addr) as usize;
                r.bytes[part.clone()].copy_from_slice(&bytes[at..at + part.len()]);
            }
        }
    }

    /// Writes `bytes` at `addr`, or fails if any of them is out of bounds.
    #[inline(always)]
    fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        match self.locate(addr, bytes.len() as u64) {
            Some((r, off)) => {
                self.regions[r].bytes[off..off + bytes.len()].copy_from_slice(bytes);
            }
            None => {
                self.check(addr, bytes.len() as u64)?;
                self.scatter(addr, bytes);
            }
        }
        Ok(())
    }

    /// Reads a typed value.
    ///
    /// # Errors
    /// Fails on unmapped addresses.
    pub fn read(&self, addr: u64, ty: Type) -> Result<Value, MemError> {
        self.load(addr, ty).map(|bits| Value::from_bits(bits, ty))
    }

    /// Reads a value of type `ty` as slot bits: integers and pointers
    /// sign-extended to `i64` (`i1` masked to its low bit), floats as
    /// `f64` bits (an `f32` widened).
    pub(crate) fn load(&self, addr: u64, ty: Type) -> Result<u64, MemError> {
        let size = ty.size() as usize;
        let mut buf = [0u8; 8];
        let b = match self.committed(addr, size) {
            Some(b) => b,
            None => {
                self.check(addr, size as u64)?;
                self.gather(addr, &mut buf[..size]);
                &buf[..size]
            }
        };
        Ok(match ty {
            Type::I1 => (b[0] & 1) as u64,
            Type::I8 => b[0] as i8 as u64,
            Type::I16 => i16::from_le_bytes(b.try_into().expect("size")) as u64,
            Type::I32 => i32::from_le_bytes(b.try_into().expect("size")) as u64,
            Type::I64 | Type::Ptr | Type::F64 => u64::from_le_bytes(b.try_into().expect("size")),
            Type::F32 => (f32::from_le_bytes(b.try_into().expect("size")) as f64).to_bits(),
            Type::Void => {
                return Err(MemError {
                    addr,
                    message: "read of void".into(),
                })
            }
        })
    }

    /// Reads 8 bytes (an `i64` or pointer) as slot bits.
    #[inline(always)]
    pub(crate) fn load64(&self, addr: u64) -> Result<u64, MemError> {
        match self.committed(addr, 8) {
            Some(b) => Ok(u64::from_le_bytes(b.try_into().expect("size"))),
            None => self.load(addr, Type::I64),
        }
    }

    /// Writes a typed value.
    ///
    /// # Errors
    /// Fails on unmapped addresses.
    pub fn write(&mut self, addr: u64, ty: Type, v: Value) -> Result<(), MemError> {
        self.check(addr, ty.size() as u64)?;
        let fits = match v {
            Value::Int(_) => ty.is_int() || ty.is_ptr(),
            Value::Float(_) => ty.is_float(),
        };
        if !fits {
            return Err(MemError {
                addr,
                message: format!("type mismatch {ty} vs {v:?}"),
            });
        }
        self.store(addr, ty, v.to_bits())
    }

    /// Writes slot bits as a value of type `ty`: integers truncated to
    /// the type's width, an `f32` narrowed.
    pub(crate) fn store(&mut self, addr: u64, ty: Type, bits: u64) -> Result<(), MemError> {
        let bytes = match ty {
            Type::F32 => ((f64::from_bits(bits) as f32).to_bits() as u64).to_le_bytes(),
            _ => bits.to_le_bytes(),
        };
        if ty == Type::Void {
            self.check(addr, 0)?;
            return Err(MemError {
                addr,
                message: "write of void".into(),
            });
        }
        self.put_bytes(addr, &bytes[..ty.size() as usize])
    }

    /// Writes 8 bytes (an `i64` or pointer) from slot bits.
    #[inline(always)]
    pub(crate) fn store64(&mut self, addr: u64, bits: u64) -> Result<(), MemError> {
        self.put_bytes(addr, &bits.to_le_bytes())
    }

    /// Raw byte copy (`memcpy`; the ranges may overlap).
    ///
    /// # Errors
    /// Fails if either range is unmapped.
    pub fn copy(&mut self, dst: u64, src: u64, n: u64) -> Result<(), MemError> {
        match (self.locate(dst, n), self.locate(src, n)) {
            (Some((rd, d)), Some((rs, s))) if rd == rs => {
                self.regions[rd].bytes.copy_within(s..s + n as usize, d);
            }
            _ => {
                self.check(dst, n)?;
                self.check(src, n)?;
                let mut buf = vec![0; n as usize];
                self.gather(src, &mut buf);
                self.scatter(dst, &buf);
            }
        }
        Ok(())
    }

    /// Raw byte fill (`memset`).
    ///
    /// # Errors
    /// Fails if the range is unmapped.
    pub fn fill(&mut self, dst: u64, byte: u8, n: u64) -> Result<(), MemError> {
        self.check(dst, n)?;
        for r in &mut self.regions {
            let mut part = r.overlap(dst, n);
            if byte == 0 {
                // Uncommitted bytes already read as zero.
                part.end = part.end.min(r.bytes.len());
            } else {
                r.commit(part.end);
            }
            if part.start < part.end {
                r.bytes[part].fill(byte);
            }
        }
        Ok(())
    }

    /// Reads a NUL-terminated string (capped at 4096 bytes).
    ///
    /// # Errors
    /// Fails if the start address is unmapped.
    pub fn read_cstr(&self, addr: u64) -> Result<Vec<u8>, MemError> {
        self.check(addr, 1)?;
        let mut out = Vec::new();
        let mut at = addr;
        while at < self.limit && out.len() < 4096 {
            let b = match self.locate(at, 1) {
                Some((r, off)) => self.regions[r].bytes[off],
                None => 0,
            };
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            at += 1;
        }
        Ok(out)
    }
}

/// The error for an access outside the data arena.
#[cold]
fn access_error(addr: u64) -> MemError {
    MemError {
        addr,
        message: if addr >= FUNC_SPACE_BASE {
            "data access to code address (tagged or raw function pointer?)".into()
        } else if addr == 0 {
            "null dereference".into()
        } else {
            "out-of-bounds access".into()
        },
    }
}

/// The synthetic address of function `f`.
pub fn func_addr(f: FuncId) -> u64 {
    FUNC_SPACE_BASE + f.index() as u64 * FUNC_SPACE_STRIDE
}

/// Decodes a synthetic code address back to a function id.
///
/// Returns `None` if the address is outside the code space or is not
/// exactly 16-byte aligned (e.g. still carries fusion tag bits).
pub fn addr_to_func(addr: u64, func_count: usize) -> Option<FuncId> {
    if addr < FUNC_SPACE_BASE {
        return None;
    }
    let off = addr - FUNC_SPACE_BASE;
    if !off.is_multiple_of(FUNC_SPACE_STRIDE) {
        return None;
    }
    let idx = (off / FUNC_SPACE_STRIDE) as usize;
    if idx < func_count {
        Some(FuncId::new(idx))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_ir::{Global, GlobalId};

    fn empty_mem() -> Memory {
        Memory::new(&Module::new("m"), 1 << 16)
    }

    #[test]
    fn read_write_roundtrip() {
        let mut mem = empty_mem();
        let a = mem.stack_alloc(16, 8).unwrap();
        mem.write(a, Type::I32, Value::Int(-7)).unwrap();
        assert_eq!(mem.read(a, Type::I32).unwrap(), Value::Int(-7));
        mem.write(a + 8, Type::F64, Value::Float(2.5)).unwrap();
        assert_eq!(mem.read(a + 8, Type::F64).unwrap(), Value::Float(2.5));
    }

    #[test]
    fn null_and_oob_trap() {
        let mem = empty_mem();
        assert!(mem.read(0, Type::I64).is_err());
        assert!(mem.read(u64::MAX / 2, Type::I8).is_err());
    }

    #[test]
    fn code_space_is_not_data() {
        let mem = empty_mem();
        let err = mem.read(FUNC_SPACE_BASE, Type::I64).unwrap_err();
        assert!(err.message.contains("code address"));
    }

    #[test]
    fn stack_release_restores() {
        let mut mem = empty_mem();
        let mark = mem.stack_mark();
        let a = mem.stack_alloc(64, 16).unwrap();
        assert_eq!(a % 16, 0);
        let b = mem.stack_alloc(8, 8).unwrap();
        assert!(b >= a + 64);
        mem.stack_release(mark);
        let c = mem.stack_alloc(64, 16).unwrap();
        assert_eq!(a, c, "stack reuses released space");
    }

    #[test]
    fn global_layout_and_relocation() {
        let mut m = Module::new("m");
        let mut fb = khaos_ir::builder::FunctionBuilder::new("f", Type::Void);
        fb.ret(None);
        let f = m.push_function(fb.finish());
        m.push_global(Global {
            name: "t".into(),
            init: vec![
                GInit::Int {
                    value: 0x1122,
                    ty: Type::I32,
                },
                GInit::FuncPtr {
                    func: f,
                    addend: 12,
                },
            ],
            align: 8,
            exported: false,
        });
        let mem = Memory::new(&m, 1 << 16);
        let ga = mem.global_addr(GlobalId(0));
        assert_eq!(mem.read(ga, Type::I32).unwrap(), Value::Int(0x1122));
        let fp = mem.read(ga + 4, Type::Ptr).unwrap().as_int() as u64;
        assert_eq!(fp, func_addr(f) + 12, "relocation addend applied");
    }

    #[test]
    fn func_addr_roundtrip() {
        let f = FuncId(3);
        assert_eq!(addr_to_func(func_addr(f), 10), Some(f));
        assert_eq!(
            addr_to_func(func_addr(f) | 4, 10),
            None,
            "tagged pointer rejected"
        );
        assert_eq!(addr_to_func(func_addr(FuncId(10)), 10), None);
        assert_eq!(addr_to_func(0x100, 10), None);
    }

    #[test]
    fn cstr_reading() {
        let mut mem = empty_mem();
        let a = mem.stack_alloc(8, 1).unwrap();
        for (i, b) in b"hi\0".iter().enumerate() {
            mem.write(a + i as u64, Type::I8, Value::Int(*b as i64))
                .unwrap();
        }
        assert_eq!(mem.read_cstr(a).unwrap(), b"hi".to_vec());
    }

    #[test]
    fn random_accesses_match_the_eager_arena() {
        use reference::EagerMemory;
        let mut m = Module::new("m");
        m.push_global(Global {
            name: "s".into(),
            init: vec![GInit::Bytes(b"abc\0".to_vec()), GInit::Zero(9)],
            align: 4,
            exported: false,
        });
        let size = 1 << 14;
        let mut lazy = Memory::new(&m, size);
        let mut eager = EagerMemory::new(&m, size);
        let (stack_base, limit) = (lazy.stack_base, lazy.limit);
        assert_eq!(
            lazy.global_addr(GlobalId(0)),
            eager.global_addr(GlobalId(0))
        );
        let anchors = [
            0,
            DATA_BASE,
            lazy.global_addr(GlobalId(0)),
            lazy.heap_sp,
            stack_base - 64,
            stack_base,
            stack_base + 4000,
            stack_base + 4096,
            limit - 64,
            limit,
            FUNC_SPACE_BASE,
            u64::MAX - 4,
        ];
        let tys = [
            Type::I1,
            Type::I8,
            Type::I16,
            Type::I32,
            Type::I64,
            Type::F32,
            Type::F64,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let fault = |e: MemError| (e.addr, e.message);
        let old = |e: reference::Fault| (e.addr, e.message);
        // Values compare by class and bits, so NaNs compare too.
        let bits = |v: Value| (matches!(v, Value::Float(_)), v.to_bits());
        for step in 0..20_000 {
            let r = next();
            let addr = anchors[(r % anchors.len() as u64) as usize]
                .wrapping_add((r >> 8) % 160)
                .wrapping_sub(80);
            let ty = tys[((r >> 16) % tys.len() as u64) as usize];
            let n = (r >> 24) % 200;
            let other =
                anchors[((r >> 32) % anchors.len() as u64) as usize].wrapping_add((r >> 40) % 64);
            let v = if ty.is_float() {
                Value::Float((r >> 48) as f64 / 7.0)
            } else {
                Value::Int((r >> 40) as i64 - 0x80_0000)
            };
            let what = format!("step {step}: {ty} at {addr:#x}, n {n}, other {other:#x}");
            match r >> 61 {
                0 | 1 => assert_eq!(
                    lazy.write(addr, ty, v).map_err(fault),
                    eager.write(addr, ty, v).map_err(old),
                    "{what}"
                ),
                2 | 3 => assert_eq!(
                    lazy.read(addr, ty).map(bits).map_err(fault),
                    eager.read(addr, ty).map(bits).map_err(old),
                    "{what}"
                ),
                4 => assert_eq!(
                    lazy.copy(addr, other, n).map_err(fault),
                    eager.copy(addr, other, n).map_err(old),
                    "{what}"
                ),
                5 => assert_eq!(
                    lazy.fill(addr, (r >> 12) as u8 & 3, n).map_err(fault),
                    eager.fill(addr, (r >> 12) as u8 & 3, n).map_err(old),
                    "{what}"
                ),
                6 => assert_eq!(
                    lazy.read_cstr(addr).map_err(fault),
                    eager.read_cstr(addr).map_err(old),
                    "{what}"
                ),
                _ => {
                    assert_eq!(
                        lazy.heap_alloc(n).map_err(fault),
                        eager.heap_alloc(n).map_err(old),
                        "{what}"
                    );
                    assert_eq!(
                        lazy.stack_alloc(n as u32, 8).map_err(fault),
                        eager.stack_alloc(n as u32, 8).map_err(old),
                        "{what}"
                    );
                }
            }
        }
        // Every byte of the arena ends up the same.
        for at in DATA_BASE..limit {
            assert_eq!(
                lazy.read(at, Type::I8).map_err(fault),
                eager.read(at, Type::I8).map_err(old),
                "byte {at:#x}"
            );
        }
    }
}
