//! The synthetic libc: external functions resolved by name.
//!
//! Everything is deterministic: "files" have pseudo-random but seeded
//! contents, and all printing goes to the in-memory output vector used
//! by the differential-testing oracle.

use crate::machine::{Vm, VmError};
use crate::value::Value;
use khaos_ir::Type;

/// What an external call did.
pub enum ExtOutcome {
    /// Normal return (with a value unless void).
    Ret(Option<Value>),
    /// The callee threw; the machine unwinds.
    Throw(i64),
    /// The program exits with a code.
    Exit(i64),
    /// `setjmp` — the machine snapshots its own state.
    Setjmp {
        /// jmpbuf pointer.
        buf: i64,
    },
    /// `longjmp` — the machine restores a snapshot.
    Longjmp {
        /// Snapshot id read from the jmpbuf.
        id: i64,
        /// Value delivered to the setjmp site.
        val: i64,
    },
}

/// Synthetic file size for `open`/`read_file` (bytes per fd).
const FILE_SIZE: u64 = 256;

fn fnv1a(bytes: &[u8]) -> i64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h as i64
}

fn arg(args: &[Value], i: usize, name: &str) -> Result<Value, VmError> {
    args.get(i)
        .copied()
        .ok_or_else(|| VmError::Trap(format!("`{name}` missing argument {i}")))
}

/// Dispatches an external call by name.
///
/// # Errors
/// Traps on unknown externals or bad arguments.
pub fn dispatch(vm: &mut Vm<'_>, name: &str, args: &[Value]) -> Result<ExtOutcome, VmError> {
    match name {
        "print_i64" => {
            let v = arg(args, 0, name)?.as_int();
            vm.output.push(v);
            Ok(ExtOutcome::Ret(None))
        }
        "print_f64" => {
            let v = arg(args, 0, name)?.as_float();
            vm.output.push(v.to_bits() as i64);
            Ok(ExtOutcome::Ret(None))
        }
        "print_str" => {
            let p = arg(args, 0, name)?.as_int() as u64;
            let s = vm.mem.read_cstr(p).map_err(|e| VmError::Trap(e.message))?;
            vm.output.push(fnv1a(&s));
            Ok(ExtOutcome::Ret(None))
        }
        // printf-alike: hashes the format string and records each vararg.
        "printf" => {
            let p = arg(args, 0, name)?.as_int() as u64;
            let s = vm.mem.read_cstr(p).map_err(|e| VmError::Trap(e.message))?;
            vm.output.push(fnv1a(&s));
            for a in &args[1..] {
                match a {
                    Value::Int(v) => vm.output.push(*v),
                    Value::Float(v) => vm.output.push(v.to_bits() as i64),
                }
            }
            Ok(ExtOutcome::Ret(Some(Value::Int(args.len() as i64 - 1))))
        }
        "input_i64" => {
            let v = if vm.config.inputs.is_empty() {
                0
            } else {
                let v = vm.config.inputs[vm.input_pos % vm.config.inputs.len()];
                vm.input_pos += 1;
                v
            };
            Ok(ExtOutcome::Ret(Some(Value::Int(v))))
        }
        "malloc" => {
            let n = arg(args, 0, name)?.as_int().max(0) as u64;
            let p = vm
                .mem
                .heap_alloc(n.max(1))
                .map_err(|e| VmError::Trap(e.message))?;
            Ok(ExtOutcome::Ret(Some(Value::Int(p as i64))))
        }
        "free" => Ok(ExtOutcome::Ret(None)),
        "memcpy" => {
            let d = arg(args, 0, name)?.as_int() as u64;
            let s = arg(args, 1, name)?.as_int() as u64;
            let n = arg(args, 2, name)?.as_int().max(0) as u64;
            vm.mem.copy(d, s, n).map_err(|e| VmError::Trap(e.message))?;
            Ok(ExtOutcome::Ret(Some(Value::Int(d as i64))))
        }
        "memset" => {
            let d = arg(args, 0, name)?.as_int() as u64;
            let b = arg(args, 1, name)?.as_int() as u8;
            let n = arg(args, 2, name)?.as_int().max(0) as u64;
            vm.mem.fill(d, b, n).map_err(|e| VmError::Trap(e.message))?;
            Ok(ExtOutcome::Ret(Some(Value::Int(d as i64))))
        }
        "open" => {
            // Name is hashed into the fd so different paths act differently
            // but deterministically.
            let p = arg(args, 0, name)?.as_int() as u64;
            let s = vm.mem.read_cstr(p).map_err(|e| VmError::Trap(e.message))?;
            if s.is_empty() {
                return Ok(ExtOutcome::Ret(Some(Value::Int(-1))));
            }
            let fd = vm.file_offsets.len() as i64;
            vm.file_offsets.push(0);
            let _ = fnv1a(&s);
            Ok(ExtOutcome::Ret(Some(Value::Int(fd + 3))))
        }
        "read_file" => {
            let fd = arg(args, 0, name)?.as_int() - 3;
            let buf = arg(args, 1, name)?.as_int() as u64;
            let n = arg(args, 2, name)?.as_int().max(0) as u64;
            if fd < 0 || fd as usize >= vm.file_offsets.len() {
                return Ok(ExtOutcome::Ret(Some(Value::Int(-1))));
            }
            let off = vm.file_offsets[fd as usize];
            let remaining = FILE_SIZE.saturating_sub(off);
            let take = remaining.min(n);
            for i in 0..take {
                let pos = off + i;
                let byte = (((fd as u64 + 1).wrapping_mul(31).wrapping_add(pos))
                    .wrapping_mul(2654435761))
                    >> 24;
                vm.mem
                    .write(buf + i, Type::I8, Value::Int((byte & 0x7f) as i64))
                    .map_err(|e| VmError::Trap(e.message))?;
            }
            vm.file_offsets[fd as usize] += take;
            Ok(ExtOutcome::Ret(Some(Value::Int(take as i64))))
        }
        "close" => Ok(ExtOutcome::Ret(Some(Value::Int(0)))),
        "setjmp" => {
            let buf = arg(args, 0, name)?.as_int();
            Ok(ExtOutcome::Setjmp { buf })
        }
        "longjmp" => {
            let bufp = arg(args, 0, name)?.as_int() as u64;
            let val = arg(args, 1, name)?.as_int();
            let id = vm
                .mem
                .read(bufp, Type::I64)
                .map_err(|e| VmError::Trap(format!("longjmp buffer: {}", e.message)))?
                .as_int();
            Ok(ExtOutcome::Longjmp { id, val })
        }
        "throw_exc" => {
            let v = arg(args, 0, name)?.as_int();
            Ok(ExtOutcome::Throw(v))
        }
        "exit" => {
            let v = arg(args, 0, name)?.as_int();
            Ok(ExtOutcome::Exit(v))
        }
        "abs_i64" => {
            let v = arg(args, 0, name)?.as_int();
            Ok(ExtOutcome::Ret(Some(Value::Int(v.wrapping_abs()))))
        }
        "sqrt_f64" => {
            let v = arg(args, 0, name)?.as_float();
            Ok(ExtOutcome::Ret(Some(Value::Float(v.max(0.0).sqrt()))))
        }
        "floor_f64" => {
            let v = arg(args, 0, name)?.as_float();
            Ok(ExtOutcome::Ret(Some(Value::Float(v.floor()))))
        }
        other => Err(VmError::Trap(format!(
            "unknown external function `{other}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{run_function, RunConfig, Vm};
    use khaos_ir::builder::FunctionBuilder;
    use khaos_ir::{ExtFunc, Module, Operand};

    fn ext(m: &mut Module, name: &str, params: Vec<Type>, ret: Type) -> khaos_ir::ExtId {
        m.declare_external(ExtFunc {
            name: name.into(),
            params,
            ret_ty: ret,
            variadic: false,
        })
    }

    #[test]
    fn print_collects_output() {
        let mut m = Module::new("t");
        let p = ext(&mut m, "print_i64", vec![Type::I64], Type::Void);
        let mut main = FunctionBuilder::new("main", Type::I64);
        main.call_ext(p, Type::Void, vec![Operand::const_int(Type::I64, 41)]);
        main.call_ext(p, Type::Void, vec![Operand::const_int(Type::I64, 42)]);
        main.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(main.finish());
        let r = run_function(&m, "main", &[]).unwrap();
        assert_eq!(r.output, vec![41, 42]);
    }

    #[test]
    fn input_stream_cycles() {
        let mut m = Module::new("t");
        let inp = ext(&mut m, "input_i64", vec![], Type::I64);
        let p = ext(&mut m, "print_i64", vec![Type::I64], Type::Void);
        let mut main = FunctionBuilder::new("main", Type::I64);
        for _ in 0..3 {
            let v = main.call_ext(inp, Type::I64, vec![]).unwrap();
            main.call_ext(p, Type::Void, vec![Operand::local(v)]);
        }
        main.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(main.finish());
        let (id, _) = m.function_by_name("main").unwrap();
        let mut vm = Vm::new(
            &m,
            RunConfig {
                inputs: vec![7, 8],
                ..RunConfig::default()
            },
        );
        let r = vm.run(id, &[]).unwrap();
        assert_eq!(r.output, vec![7, 8, 7]);
    }

    #[test]
    fn malloc_and_memset() {
        let mut m = Module::new("t");
        let malloc = ext(&mut m, "malloc", vec![Type::I64], Type::Ptr);
        let memset = ext(
            &mut m,
            "memset",
            vec![Type::Ptr, Type::I64, Type::I64],
            Type::Ptr,
        );
        let mut main = FunctionBuilder::new("main", Type::I64);
        let p = main
            .call_ext(malloc, Type::Ptr, vec![Operand::const_int(Type::I64, 16)])
            .unwrap();
        main.call_ext(
            memset,
            Type::Ptr,
            vec![
                Operand::local(p),
                Operand::const_int(Type::I64, 0xAB),
                Operand::const_int(Type::I64, 16),
            ],
        );
        let v = main.load(Type::I8, Operand::local(p));
        let w = main.cast(
            khaos_ir::CastKind::SExt,
            Operand::local(v),
            Type::I8,
            Type::I64,
        );
        main.ret(Some(Operand::local(w)));
        m.push_function(main.finish());
        let r = run_function(&m, "main", &[]).unwrap();
        assert_eq!(r.exit_code, 0xABu8 as i8 as i64);
    }

    #[test]
    fn file_reads_are_deterministic_and_finite() {
        let mut m = Module::new("t");
        let open = ext(&mut m, "open", vec![Type::Ptr], Type::I32);
        let read = ext(
            &mut m,
            "read_file",
            vec![Type::I32, Type::Ptr, Type::I64],
            Type::I32,
        );
        let p = ext(&mut m, "print_i64", vec![Type::I64], Type::Void);
        let mut main = FunctionBuilder::new("main", Type::I64);
        // name buffer with "f\0"
        let nb = main.alloca(2);
        main.store(
            Type::I8,
            Operand::const_int(Type::I8, b'f' as i64),
            Operand::local(nb),
        );
        let nb1 = main.ptradd(Operand::local(nb), Operand::const_int(Type::I64, 1));
        main.store(
            Type::I8,
            Operand::const_int(Type::I8, 0),
            Operand::local(nb1),
        );
        let fd = main
            .call_ext(open, Type::I32, vec![Operand::local(nb)])
            .unwrap();
        let buf = main.alloca(512);
        // two reads: second sees advancing offset; a third after EOF gives 0.
        let h = main.new_block();
        let done = main.new_block();
        main.jump(h);
        main.switch_to(h);
        let n = main
            .call_ext(
                read,
                Type::I32,
                vec![
                    Operand::local(fd),
                    Operand::local(buf),
                    Operand::const_int(Type::I64, 200),
                ],
            )
            .unwrap();
        let n64 = main.cast(
            khaos_ir::CastKind::SExt,
            Operand::local(n),
            Type::I32,
            Type::I64,
        );
        main.call_ext(p, Type::Void, vec![Operand::local(n64)]);
        let c = main.cmp(
            khaos_ir::CmpPred::Sgt,
            Type::I32,
            Operand::local(n),
            Operand::const_int(Type::I32, 0),
        );
        main.branch(Operand::local(c), h, done);
        main.switch_to(done);
        main.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(main.finish());
        let r1 = run_function(&m, "main", &[]).unwrap();
        let r2 = run_function(&m, "main", &[]).unwrap();
        assert_eq!(r1.output, r2.output);
        assert_eq!(
            r1.output,
            vec![200, 56, 0],
            "256-byte file in two reads, then EOF"
        );
    }

    #[test]
    fn unknown_external_traps() {
        let mut m = Module::new("t");
        let bogus = ext(&mut m, "does_not_exist", vec![], Type::Void);
        let mut main = FunctionBuilder::new("main", Type::I64);
        main.call_ext(bogus, Type::Void, vec![]);
        main.ret(Some(Operand::const_int(Type::I64, 0)));
        m.push_function(main.finish());
        assert!(run_function(&m, "main", &[]).is_err());
    }
}
