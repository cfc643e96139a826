//! The flat memory arena: globals, heap and alloca stack.

use crate::value::Value;
use khaos_ir::{FuncId, GInit, Module, Type};

/// Base of the synthetic code address space. Function `i` lives at
/// `FUNC_SPACE_BASE + i * FUNC_SPACE_STRIDE`.
pub const FUNC_SPACE_BASE: u64 = 0x4000_0000;

/// Spacing between synthetic function addresses. 16-byte alignment is what
/// makes the low 4 pointer bits available for the fusion tag (paper §A.1).
pub const FUNC_SPACE_STRIDE: u64 = 16;

/// First mapped data address (addresses below trap, catching null and
/// tagged-pointer dereferences).
const DATA_BASE: u64 = 0x1000;

/// A memory access failure.
#[derive(Clone, Debug, PartialEq)]
pub struct MemError {
    /// Offending address.
    pub addr: u64,
    /// What went wrong.
    pub message: String,
}

/// Flat little-endian memory with three bump regions: globals (fixed after
/// load), heap (grows only) and the alloca stack (grows per frame, restored
/// on return/unwind).
#[derive(Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    global_addrs: Vec<u64>,
    heap_sp: u64,
    stack_sp: u64,
    stack_base: u64,
    limit: u64,
}

impl Memory {
    /// Lays out `m`'s globals (applying function-pointer relocations with
    /// addends) and sets up heap/stack regions of `data_size` bytes total.
    pub fn new(m: &Module, data_size: usize) -> Self {
        let limit = DATA_BASE + data_size as u64;
        let mut bytes = vec![0u8; limit as usize];
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
                        bytes[at as usize..at as usize + b.len()].copy_from_slice(b);
                        at += b.len() as u64;
                    }
                    GInit::Int { value, ty } => {
                        let sz = ty.size() as usize;
                        bytes[at as usize..at as usize + sz]
                            .copy_from_slice(&value.to_le_bytes()[..sz]);
                        at += sz as u64;
                    }
                    GInit::Float { value, ty } => {
                        let sz = ty.size() as usize;
                        if *ty == Type::F32 {
                            bytes[at as usize..at as usize + 4]
                                .copy_from_slice(&(*value as f32).to_le_bytes());
                        } else {
                            bytes[at as usize..at as usize + 8]
                                .copy_from_slice(&value.to_le_bytes());
                        }
                        at += sz as u64;
                    }
                    GInit::Zero(n) => at += *n as u64,
                    GInit::FuncPtr { func, addend } => {
                        // The relocation: function address + addend. The
                        // addend carries the fusion tag bits.
                        let v = func_addr(*func).wrapping_add(*addend as u64);
                        bytes[at as usize..at as usize + 8].copy_from_slice(&v.to_le_bytes());
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
        Memory {
            bytes,
            global_addrs,
            heap_sp,
            stack_sp: stack_base,
            stack_base,
            limit,
        }
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
    pub fn stack_release(&mut self, mark: u64) {
        debug_assert!(mark >= self.stack_base && mark <= self.limit);
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
        self.check(addr, ty.size() as u64)?;
        let at = addr as usize;
        let b = &self.bytes;
        Ok(match ty {
            Type::I1 => (b[at] & 1) as u64,
            Type::I8 => b[at] as i8 as u64,
            Type::I16 => i16::from_le_bytes(b[at..at + 2].try_into().expect("size")) as u64,
            Type::I32 => i32::from_le_bytes(b[at..at + 4].try_into().expect("size")) as u64,
            Type::I64 | Type::Ptr | Type::F64 => {
                u64::from_le_bytes(b[at..at + 8].try_into().expect("size"))
            }
            Type::F32 => {
                (f32::from_le_bytes(b[at..at + 4].try_into().expect("size")) as f64).to_bits()
            }
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
        self.check(addr, 8)?;
        let at = addr as usize;
        Ok(u64::from_le_bytes(
            self.bytes[at..at + 8].try_into().expect("size"),
        ))
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
        self.put(addr, ty, v.to_bits());
        Ok(())
    }

    /// Writes slot bits as a value of type `ty`: integers truncated to
    /// the type's width, an `f32` narrowed.
    pub(crate) fn store(&mut self, addr: u64, ty: Type, bits: u64) -> Result<(), MemError> {
        self.check(addr, ty.size() as u64)?;
        if ty == Type::Void {
            return Err(MemError {
                addr,
                message: "write of void".into(),
            });
        }
        self.put(addr, ty, bits);
        Ok(())
    }

    /// Writes 8 bytes (an `i64` or pointer) from slot bits.
    #[inline(always)]
    pub(crate) fn store64(&mut self, addr: u64, bits: u64) -> Result<(), MemError> {
        self.check(addr, 8)?;
        let at = addr as usize;
        self.bytes[at..at + 8].copy_from_slice(&bits.to_le_bytes());
        Ok(())
    }

    /// Writes `bits` at a checked address.
    fn put(&mut self, addr: u64, ty: Type, bits: u64) {
        let at = addr as usize;
        let b = &mut self.bytes;
        match ty {
            Type::I1 | Type::I8 => b[at] = bits as u8,
            Type::I16 => b[at..at + 2].copy_from_slice(&(bits as u16).to_le_bytes()),
            Type::I32 => b[at..at + 4].copy_from_slice(&(bits as u32).to_le_bytes()),
            Type::I64 | Type::Ptr | Type::F64 => b[at..at + 8].copy_from_slice(&bits.to_le_bytes()),
            Type::F32 => {
                b[at..at + 4].copy_from_slice(&(f64::from_bits(bits) as f32).to_le_bytes())
            }
            Type::Void => {}
        }
    }

    /// Raw byte copy (`memcpy`).
    ///
    /// # Errors
    /// Fails if either range is unmapped.
    pub fn copy(&mut self, dst: u64, src: u64, n: u64) -> Result<(), MemError> {
        self.check(dst, n)?;
        self.check(src, n)?;
        self.bytes
            .copy_within(src as usize..(src + n) as usize, dst as usize);
        Ok(())
    }

    /// Raw byte fill (`memset`).
    ///
    /// # Errors
    /// Fails if the range is unmapped.
    pub fn fill(&mut self, dst: u64, byte: u8, n: u64) -> Result<(), MemError> {
        self.check(dst, n)?;
        self.bytes[dst as usize..(dst + n) as usize].fill(byte);
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
            let b = self.bytes[at as usize];
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
}
