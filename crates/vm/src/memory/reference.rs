//! The data arena as it was before it was committed on demand: one
//! zero-filled byte vector over the whole address range, allocated by
//! every [`EagerMemory::new`]. It is the test oracle that
//! [`Memory`](crate::Memory) must match access for access: the same
//! bytes, addresses, bounds and trap messages.
//!
//! Compiled only into tests: this crate's unit tests, and
//! `tests/arena_edges.rs`, which includes this file by path and imports
//! the crate's public items at its root so the `crate::` paths below
//! resolve there too.

use crate::{Value, FUNC_SPACE_BASE, FUNC_SPACE_STRIDE};
use khaos_ir::{GInit, GlobalId, Module, Type};

/// First mapped data address.
const DATA_BASE: u64 = 0x1000;

/// A failed access: the offending address and the message.
#[derive(Clone, Debug, PartialEq)]
pub struct Fault {
    /// Offending address.
    pub addr: u64,
    /// What went wrong.
    pub message: String,
}

/// The eager arena.
pub struct EagerMemory {
    bytes: Vec<u8>,
    global_addrs: Vec<u64>,
    heap_sp: u64,
    stack_sp: u64,
    stack_base: u64,
    limit: u64,
}

impl EagerMemory {
    /// Lays out `m`'s globals and sets up heap and stack regions of
    /// `data_size` bytes total. Panics if an initializer does not fit.
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
                        let f = FUNC_SPACE_BASE + func.index() as u64 * FUNC_SPACE_STRIDE;
                        let v = f.wrapping_add(*addend as u64);
                        bytes[at as usize..at as usize + 8].copy_from_slice(&v.to_le_bytes());
                        at += 8;
                    }
                }
            }
            cursor = at;
        }
        let heap_sp = cursor.div_ceil(16) * 16;
        let stack_base = DATA_BASE + (data_size as u64) / 2;
        let stack_base = stack_base.max(heap_sp + 64);
        EagerMemory {
            bytes,
            global_addrs,
            heap_sp,
            stack_sp: stack_base,
            stack_base,
            limit,
        }
    }

    /// Address of global `i`.
    pub fn global_addr(&self, i: GlobalId) -> u64 {
        self.global_addrs[i.index()]
    }

    /// Bump-allocates `size` bytes (aligned) on the alloca stack.
    pub fn stack_alloc(&mut self, size: u32, align: u32) -> Result<u64, Fault> {
        let align = align.max(1) as u64;
        let at = self.stack_sp.div_ceil(align) * align;
        let end = at + size as u64;
        if end > self.limit {
            return Err(Fault {
                addr: at,
                message: "stack overflow".into(),
            });
        }
        self.stack_sp = end;
        Ok(at)
    }

    /// Bump-allocates `size` bytes on the heap.
    pub fn heap_alloc(&mut self, size: u64) -> Result<u64, Fault> {
        let at = self.heap_sp.div_ceil(16) * 16;
        let end = at + size;
        if end > self.stack_base {
            return Err(Fault {
                addr: at,
                message: "out of heap memory".into(),
            });
        }
        self.heap_sp = end;
        Ok(at)
    }

    fn check(&self, addr: u64, size: u64) -> Result<(), Fault> {
        match addr.checked_add(size) {
            Some(end) if addr >= DATA_BASE && end <= self.limit => Ok(()),
            _ => Err(access_error(addr)),
        }
    }

    /// Reads a typed value.
    pub fn read(&self, addr: u64, ty: Type) -> Result<Value, Fault> {
        self.check(addr, ty.size() as u64)?;
        let at = addr as usize;
        let b = &self.bytes;
        Ok(match ty {
            Type::I1 => Value::Int((b[at] & 1) as i64),
            Type::I8 => Value::Int(b[at] as i8 as i64),
            Type::I16 => Value::Int(i16::from_le_bytes([b[at], b[at + 1]]) as i64),
            Type::I32 => Value::Int(i32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as i64),
            Type::I64 | Type::Ptr => {
                Value::Int(i64::from_le_bytes(b[at..at + 8].try_into().unwrap()))
            }
            Type::F32 => Value::Float(f32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as f64),
            Type::F64 => Value::Float(f64::from_le_bytes(b[at..at + 8].try_into().unwrap())),
            Type::Void => {
                return Err(Fault {
                    addr,
                    message: "read of void".into(),
                })
            }
        })
    }

    /// Writes a typed value.
    pub fn write(&mut self, addr: u64, ty: Type, v: Value) -> Result<(), Fault> {
        self.check(addr, ty.size() as u64)?;
        let fits = match v {
            Value::Int(_) => ty.is_int() || ty.is_ptr(),
            Value::Float(_) => ty.is_float(),
        };
        if !fits {
            return Err(Fault {
                addr,
                message: format!("type mismatch {ty} vs {v:?}"),
            });
        }
        let at = addr as usize;
        let b = &mut self.bytes;
        match (ty, v) {
            (Type::I1 | Type::I8, Value::Int(x)) => b[at] = x as u8,
            (Type::I16, Value::Int(x)) => b[at..at + 2].copy_from_slice(&(x as i16).to_le_bytes()),
            (Type::I32, Value::Int(x)) => b[at..at + 4].copy_from_slice(&(x as i32).to_le_bytes()),
            (Type::I64 | Type::Ptr, Value::Int(x)) => {
                b[at..at + 8].copy_from_slice(&x.to_le_bytes())
            }
            (Type::F32, Value::Float(x)) => {
                b[at..at + 4].copy_from_slice(&(x as f32).to_le_bytes())
            }
            (Type::F64, Value::Float(x)) => b[at..at + 8].copy_from_slice(&x.to_le_bytes()),
            _ => unreachable!("checked above"),
        }
        Ok(())
    }

    /// Raw byte copy (`memcpy`).
    pub fn copy(&mut self, dst: u64, src: u64, n: u64) -> Result<(), Fault> {
        self.check(dst, n)?;
        self.check(src, n)?;
        self.bytes
            .copy_within(src as usize..(src + n) as usize, dst as usize);
        Ok(())
    }

    /// Raw byte fill (`memset`).
    pub fn fill(&mut self, dst: u64, byte: u8, n: u64) -> Result<(), Fault> {
        self.check(dst, n)?;
        self.bytes[dst as usize..(dst + n) as usize].fill(byte);
        Ok(())
    }

    /// Reads a NUL-terminated string (capped at 4096 bytes).
    pub fn read_cstr(&self, addr: u64) -> Result<Vec<u8>, Fault> {
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

fn access_error(addr: u64) -> Fault {
    Fault {
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
