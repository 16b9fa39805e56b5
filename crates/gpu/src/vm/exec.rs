//! Executes a decoded [`KernelOp`] against GPU virtual memory.
//!
//! The device models hand this module a [`VaMem`] — an accessor that
//! translates GPU virtual addresses through the device's page tables. A
//! translation failure surfaces as [`ExecError::MemFault`], which the
//! device turns into an MMU fault interrupt (the §7.2 fault-injection
//! experiments corrupt PTEs to trigger exactly this path).
//!
//! The hot path threads an [`ExecScratch`] arena through execution so a
//! replayed job reuses the same tensor staging buffers run after run
//! instead of allocating fresh `Vec`s per access. Buffer reuse never
//! changes values or f32 accumulation order: the kernels in
//! [`super::kernels`] see exactly the slices they saw before (gated by
//! `val72_correctness`). The weight operand of `MatMul` and
//! `FullyConnected` is not staged at all when its VA is 4-byte aligned:
//! it streams from DRAM through [`VaMem::read_runs`] into [`k::Gemm`].
//!
//! Every element count derived from recorded dimensions is computed in
//! `usize` with checked arithmetic: a product that overflows is
//! [`ExecError::BadParams`], never a wrapped count and a kernel panic.
//! Recorded dimensions can still claim an output far larger than memory,
//! so every kernel that allocates its output first translates the output
//! range for writing ([`VaMem::check_write`]): an unmapped output is an
//! [`ExecError::MemFault`] before anything is allocated for it.

use std::fmt;

use super::bytecode::{ActKind, DecodeError, KernelOp};
use super::kernels as k;

/// GPU-virtual-address memory access used by kernel execution.
pub trait VaMem {
    /// Reads `len` bytes at virtual address `va`.
    ///
    /// # Errors
    ///
    /// Returns the faulting VA when translation or a physical access fails.
    fn read_bytes(&mut self, va: u64, len: usize) -> Result<Vec<u8>, u64>;

    /// Writes `data` at virtual address `va`.
    ///
    /// # Errors
    ///
    /// Returns the faulting VA when translation or a physical access fails.
    fn write_bytes(&mut self, va: u64, data: &[u8]) -> Result<(), u64>;

    /// Reads `n` little-endian f32s at `va` into `out` (cleared first).
    ///
    /// The default stages through [`VaMem::read_bytes`];
    /// [`crate::device::TranslatingVaMem`] overrides it with an
    /// allocation-free path.
    ///
    /// # Errors
    ///
    /// Returns the faulting VA when translation or a physical access fails.
    fn read_f32s_into(&mut self, va: u64, n: usize, out: &mut Vec<f32>) -> Result<(), u64> {
        let bytes = self.read_bytes(va, n * 4)?;
        out.clear();
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4"))),
        );
        Ok(())
    }

    /// Hands the `len` bytes at `va` to `f` as physically contiguous runs,
    /// in VA order.
    ///
    /// The whole range is translated before `f` sees any byte, with the
    /// same fault VA as [`VaMem::read_f32s_into`]: on `Err`, `f` has not
    /// been called. Runs split only at page boundaries, so when `va` is
    /// 4-byte aligned every run holds whole f32s. `f` must not access
    /// memory: implementations may hold the DRAM lock while calling it.
    ///
    /// The default stages the range through [`VaMem::read_bytes`] and
    /// hands it over as one run; [`crate::device::TranslatingVaMem`]
    /// lends the runs straight out of DRAM.
    ///
    /// # Errors
    ///
    /// Returns the faulting VA when translation or a physical access fails.
    fn read_runs(&mut self, va: u64, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<(), u64> {
        let bytes = self.read_bytes(va, len)?;
        f(&bytes);
        Ok(())
    }

    /// Writes `vals` as little-endian f32s at `va`.
    ///
    /// # Errors
    ///
    /// Returns the faulting VA when translation or a physical access fails.
    fn write_f32s(&mut self, va: u64, vals: &[f32]) -> Result<(), u64> {
        let mut bytes = Vec::with_capacity(vals.len() * 4);
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(va, &bytes)
    }

    /// Translates `[va, va+len)` for writing without writing it, so a
    /// kernel can fault on its output range before it allocates the
    /// output.
    ///
    /// # Errors
    ///
    /// Returns the VA a write of the range would fault at.
    fn check_write(&mut self, va: u64, len: usize) -> Result<(), u64>;
}

/// Why kernel execution failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A virtual access could not be translated (MMU fault).
    MemFault {
        /// Faulting virtual address.
        va: u64,
    },
    /// The shader blob did not decode.
    BadShader(DecodeError),
    /// Dimensions within the op were inconsistent.
    BadParams(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MemFault { va } => write!(f, "GPU memory fault at va={va:#x}"),
            ExecError::BadShader(e) => write!(f, "bad shader blob: {e}"),
            ExecError::BadParams(msg) => write!(f, "bad kernel parameters: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<DecodeError> for ExecError {
    fn from(e: DecodeError) -> Self {
        ExecError::BadShader(e)
    }
}

/// Reusable tensor staging buffers threaded through [`execute_with`].
///
/// Owned by the device models and kept alive across jobs, so the replay
/// hot loop stops allocating per kernel access. The three slots cover the
/// widest op shape (two operands + bias); kernel *outputs* are produced by
/// the bit-stable kernels themselves and are not pooled, keeping their
/// accumulation order untouched.
#[derive(Debug, Default)]
pub struct ExecScratch {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl ExecScratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ExecScratch::default()
    }
}

fn load<M: VaMem + ?Sized>(
    mem: &mut M,
    va: u64,
    n: usize,
    out: &mut Vec<f32>,
) -> Result<(), ExecError> {
    mem.read_f32s_into(va, n, out)
        .map_err(|va| ExecError::MemFault { va })
}

fn store<M: VaMem + ?Sized>(mem: &mut M, va: u64, vals: &[f32]) -> Result<(), ExecError> {
    mem.write_f32s(va, vals)
        .map_err(|va| ExecError::MemFault { va })
}

/// Faults unless all `n` f32s at `va` are writable. Every kernel that
/// allocates its output calls this after its loads and before the kernel
/// runs, so recorded dimensions cannot make it allocate more than the
/// mapped memory it will store to.
fn check_out<M: VaMem + ?Sized>(mem: &mut M, va: u64, n: usize) -> Result<(), ExecError> {
    mem.check_write(va, n * 4)
        .map_err(|va| ExecError::MemFault { va })
}

/// Most f32s a `Fill` stages per store (64 KiB).
const FILL_CHUNK: usize = 16 * 1024;

/// Element count `dims[0] · dims[1] · …` in `usize`. Recorded dimensions
/// are untrusted: a product whose byte size does not fit in `usize` is
/// [`ExecError::BadParams`], not a wrapped count.
fn elems(dims: &[u32]) -> Result<usize, ExecError> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d as usize))
        .filter(|n| n.checked_mul(4).is_some())
        .ok_or_else(|| ExecError::BadParams(format!("element count {dims:?} overflows")))
}

/// `out = act(x[m×k] · W[k×n] + bias)` for `MatMul` and `FullyConnected`.
/// The weights stream from DRAM runs into [`k::Gemm`]; a weight VA that is
/// not 4-byte aligned (its runs would split f32s) is staged instead and
/// run through [`k::fully_connected`]. Loads happen in op order (x,
/// weights, bias) either way; the output range is checked after `x` and
/// before the accumulator is allocated, since the stream runs the kernel.
#[allow(clippy::too_many_arguments)]
fn gemm<M: VaMem + ?Sized>(
    mem: &mut M,
    scratch: &mut ExecScratch,
    x: u64,
    w: u64,
    bias: u64,
    out: u64,
    m: u32,
    kk: u32,
    n: u32,
    act: ActKind,
) -> Result<(), ExecError> {
    let (mk, kn, mn) = (elems(&[m, kk])?, elems(&[kk, n])?, elems(&[m, n])?);
    load(mem, x, mk, &mut scratch.a)?;
    check_out(mem, out, mn)?;
    let (m, kk, n) = (m as usize, kk as usize, n as usize);
    let o = if w % 4 == 0 {
        let mut acc = k::Gemm::new(&scratch.a, m, kk, n);
        mem.read_runs(w, kn * 4, &mut |run| acc.feed(run))
            .map_err(|va| ExecError::MemFault { va })?;
        let bv = load_opt_bias(mem, bias, n, &mut scratch.c)?;
        acc.finish(bv, act)
    } else {
        load(mem, w, kn, &mut scratch.b)?;
        let bv = load_opt_bias(mem, bias, n, &mut scratch.c)?;
        k::fully_connected(&scratch.a, &scratch.b, bv, m, kk, n, act)
    };
    store(mem, out, &o)
}

/// Loads an optional bias vector (`va == 0` means "no bias") into `buf`.
fn load_opt_bias<'s, M: VaMem + ?Sized>(
    mem: &mut M,
    va: u64,
    n: usize,
    buf: &'s mut Vec<f32>,
) -> Result<Option<&'s [f32]>, ExecError> {
    if va == 0 {
        Ok(None)
    } else {
        load(mem, va, n, buf)?;
        Ok(Some(buf.as_slice()))
    }
}

/// Runs one kernel op to completion against `mem` with a throwaway
/// scratch arena. Prefer [`execute_with`] on hot paths.
///
/// # Errors
///
/// Returns [`ExecError`] on MMU faults or malformed ops. On error, partial
/// output writes may have occurred — the device model treats any error as a
/// job failure and the replayer re-executes from a clean state, so partial
/// writes are never observed by correct runs.
pub fn execute<M: VaMem + ?Sized>(op: &KernelOp, mem: &mut M) -> Result<(), ExecError> {
    execute_with(op, mem, &mut ExecScratch::new())
}

/// Runs one kernel op to completion against `mem`, staging tensors in
/// `scratch` so repeated executions reuse buffers.
///
/// # Errors
///
/// See [`execute`].
#[allow(clippy::too_many_lines)]
pub fn execute_with<M: VaMem + ?Sized>(
    op: &KernelOp,
    mem: &mut M,
    scratch: &mut ExecScratch,
) -> Result<(), ExecError> {
    use KernelOp::*;
    match *op {
        Fill { out, n, value } => {
            // `n` is untrusted: stage at most one chunk, and let each
            // chunk's store translate its range before the next is written.
            let n = elems(&[n])?;
            scratch.a.clear();
            scratch.a.resize(n.min(FILL_CHUNK), value);
            for start in (0..n).step_by(FILL_CHUNK) {
                let len = FILL_CHUNK.min(n - start);
                store(mem, out + 4 * start as u64, &scratch.a[..len])?;
            }
            Ok(())
        }
        CopyBytes { src, dst, len } => {
            let b = mem
                .read_bytes(src, len as usize)
                .map_err(|va| ExecError::MemFault { va })?;
            mem.write_bytes(dst, &b)
                .map_err(|va| ExecError::MemFault { va })
        }
        EltwiseAdd { a, b, out, n, act } => {
            let n = elems(&[n])?;
            load(mem, a, n, &mut scratch.a)?;
            load(mem, b, n, &mut scratch.b)?;
            k::eltwise_add_act(act, &scratch.a, &scratch.b, &mut scratch.c);
            store(mem, out, &scratch.c)
        }
        Scale { a, out, n, alpha } => {
            load(mem, a, elems(&[n])?, &mut scratch.a)?;
            scratch.c.clear();
            scratch.c.extend(scratch.a.iter().map(|&x| x * alpha));
            store(mem, out, &scratch.c)
        }
        MatMul {
            a,
            b,
            out,
            m,
            k: kk,
            n,
        } => gemm(mem, scratch, a, b, 0, out, m, kk, n, ActKind::None),
        FullyConnected {
            x,
            w,
            bias,
            out,
            m,
            k: kk,
            n,
            act,
        } => gemm(mem, scratch, x, w, bias, out, m, kk, n, act),
        Conv2d {
            x,
            w,
            bias,
            out,
            cin,
            h,
            wd,
            cout,
            kh,
            kw,
            stride,
            pad,
            groups,
            act,
        } => {
            if groups == 0 || cin % groups != 0 || cout % groups != 0 || stride == 0 {
                return Err(ExecError::BadParams(format!(
                    "conv2d groups={groups} cin={cin} cout={cout} stride={stride}"
                )));
            }
            let ho = k::out_dim(h, kh, stride, pad);
            let wo = k::out_dim(wd, kw, stride, pad);
            let n_out = elems(&[cout, ho, wo])?;
            load(mem, x, elems(&[cin, h, wd])?, &mut scratch.a)?;
            load(
                mem,
                w,
                elems(&[cout, cin / groups, kh, kw])?,
                &mut scratch.b,
            )?;
            let bv = load_opt_bias(mem, bias, cout as usize, &mut scratch.c)?;
            check_out(mem, out, n_out)?;
            let o = k::conv2d(
                &scratch.a,
                &scratch.b,
                bv,
                cin as usize,
                h as usize,
                wd as usize,
                cout as usize,
                kh as usize,
                kw as usize,
                stride as usize,
                pad as usize,
                groups as usize,
                act,
            );
            store(mem, out, &o)
        }
        Pool2d {
            x,
            out,
            c,
            h,
            wd,
            win,
            stride,
            kind,
        } => {
            if stride == 0 || win == 0 || win > h || win > wd {
                return Err(ExecError::BadParams(format!(
                    "pool win={win} stride={stride} h={h} w={wd}"
                )));
            }
            let n_out = elems(&[
                c,
                k::out_dim(h, win, stride, 0),
                k::out_dim(wd, win, stride, 0),
            ])?;
            load(mem, x, elems(&[c, h, wd])?, &mut scratch.a)?;
            check_out(mem, out, n_out)?;
            let o = k::pool2d(
                &scratch.a,
                c as usize,
                h as usize,
                wd as usize,
                win as usize,
                stride as usize,
                kind,
            );
            store(mem, out, &o)
        }
        Activation { x, out, n, act } => {
            load(mem, x, elems(&[n])?, &mut scratch.a)?;
            k::map_act(act, &scratch.a, &mut scratch.c);
            store(mem, out, &scratch.c)
        }
        Softmax { x, out, rows, cols } => {
            let n = elems(&[rows, cols])?;
            load(mem, x, n, &mut scratch.a)?;
            check_out(mem, out, n)?;
            let o = k::softmax(&scratch.a, rows as usize, cols as usize);
            store(mem, out, &o)
        }
        Concat2 { a, na, b, nb, out } => {
            load(mem, a, elems(&[na])?, &mut scratch.a)?;
            load(mem, b, elems(&[nb])?, &mut scratch.b)?;
            scratch.a.extend_from_slice(&scratch.b);
            store(mem, out, &scratch.a)
        }
        Upsample2x { x, out, c, h, wd } => {
            let n_out = elems(&[c, h, 2, wd, 2])?;
            load(mem, x, elems(&[c, h, wd])?, &mut scratch.a)?;
            check_out(mem, out, n_out)?;
            let o = k::upsample2x(&scratch.a, c as usize, h as usize, wd as usize);
            store(mem, out, &o)
        }
        BatchNormInf {
            x,
            out,
            scale,
            shift,
            c,
            hw,
        } => {
            let n = elems(&[c, hw])?;
            load(mem, x, n, &mut scratch.a)?;
            load(mem, scale, c as usize, &mut scratch.b)?;
            load(mem, shift, c as usize, &mut scratch.c)?;
            check_out(mem, out, n)?;
            let o = k::batchnorm_inf(&scratch.a, &scratch.b, &scratch.c, c as usize, hw as usize);
            store(mem, out, &o)
        }
        Im2Col {
            x,
            out,
            cin,
            h,
            wd,
            kh,
            kw,
            stride,
            pad,
        } => {
            if stride == 0 {
                return Err(ExecError::BadParams("im2col stride=0".into()));
            }
            let n_out = elems(&[
                k::out_dim(h, kh, stride, pad),
                k::out_dim(wd, kw, stride, pad),
                cin,
                kh,
                kw,
            ])?;
            load(mem, x, elems(&[cin, h, wd])?, &mut scratch.a)?;
            check_out(mem, out, n_out)?;
            let o = k::im2col(
                &scratch.a,
                cin as usize,
                h as usize,
                wd as usize,
                kh as usize,
                kw as usize,
                stride as usize,
                pad as usize,
            );
            store(mem, out, &o)
        }
        SoftmaxXentGrad {
            probs,
            labels,
            dx,
            rows,
            cols,
        } => {
            let n = elems(&[rows, cols])?;
            load(mem, probs, n, &mut scratch.a)?;
            load(mem, labels, rows as usize, &mut scratch.b)?;
            for &l in &scratch.b {
                // Non-finite labels must be rejected explicitly: NaN
                // compares false everywhere and `NaN as u32` saturates to
                // 0, which would silently train against class 0.
                if !l.is_finite() || l < 0.0 || l as u32 >= cols {
                    return Err(ExecError::BadParams(format!("label {l} out of range")));
                }
            }
            check_out(mem, dx, n)?;
            let o = k::softmax_xent_grad(&scratch.a, &scratch.b, rows as usize, cols as usize);
            store(mem, dx, &o)
        }
        MatMulGradW {
            x,
            dy,
            dw,
            m,
            k: kk,
            n,
        } => {
            let n_out = elems(&[kk, n])?;
            load(mem, x, elems(&[m, kk])?, &mut scratch.a)?;
            load(mem, dy, elems(&[m, n])?, &mut scratch.b)?;
            check_out(mem, dw, n_out)?;
            let o = k::matmul_grad_w(&scratch.a, &scratch.b, m as usize, kk as usize, n as usize);
            store(mem, dw, &o)
        }
        MatMulGradX {
            dy,
            w,
            dx,
            m,
            k: kk,
            n,
        } => {
            let n_out = elems(&[m, kk])?;
            load(mem, dy, elems(&[m, n])?, &mut scratch.a)?;
            load(mem, w, elems(&[kk, n])?, &mut scratch.b)?;
            check_out(mem, dx, n_out)?;
            let o = k::matmul_grad_x(&scratch.a, &scratch.b, m as usize, kk as usize, n as usize);
            store(mem, dx, &o)
        }
        ReluGrad { x, dy, dx, n } => {
            let n = elems(&[n])?;
            load(mem, x, n, &mut scratch.a)?;
            load(mem, dy, n, &mut scratch.b)?;
            check_out(mem, dx, n)?;
            let o = k::relu_grad(&scratch.a, &scratch.b);
            store(mem, dx, &o)
        }
        BiasGradReduce { dy, db, m, n } => {
            load(mem, dy, elems(&[m, n])?, &mut scratch.a)?;
            check_out(mem, db, n as usize)?;
            let o = k::bias_grad(&scratch.a, m as usize, n as usize);
            store(mem, db, &o)
        }
        SgdStep { w, g, n, lr } => {
            let n = elems(&[n])?;
            load(mem, w, n, &mut scratch.a)?;
            load(mem, g, n, &mut scratch.b)?;
            k::sgd_step(&mut scratch.a, &scratch.b, lr);
            store(mem, w, &scratch.a)
        }
        Conv2dGradW {
            x,
            dy,
            dw,
            cin,
            h,
            wd,
            cout,
            kh,
            kw,
            stride,
            pad,
        } => {
            if stride == 0 {
                return Err(ExecError::BadParams("conv_gw stride=0".into()));
            }
            let ho = k::out_dim(h, kh, stride, pad);
            let wo = k::out_dim(wd, kw, stride, pad);
            let n_out = elems(&[cout, cin, kh, kw])?;
            load(mem, x, elems(&[cin, h, wd])?, &mut scratch.a)?;
            load(mem, dy, elems(&[cout, ho, wo])?, &mut scratch.b)?;
            check_out(mem, dw, n_out)?;
            let o = k::conv2d_grad_w(
                &scratch.a,
                &scratch.b,
                cin as usize,
                h as usize,
                wd as usize,
                cout as usize,
                kh as usize,
                kw as usize,
                stride as usize,
                pad as usize,
            );
            store(mem, dw, &o)
        }
        Conv2dGradX {
            dy,
            w,
            dx,
            cin,
            h,
            wd,
            cout,
            kh,
            kw,
            stride,
            pad,
        } => {
            if stride == 0 {
                return Err(ExecError::BadParams("conv_gx stride=0".into()));
            }
            let ho = k::out_dim(h, kh, stride, pad);
            let wo = k::out_dim(wd, kw, stride, pad);
            let n_out = elems(&[cin, h, wd])?;
            load(mem, dy, elems(&[cout, ho, wo])?, &mut scratch.a)?;
            load(mem, w, elems(&[cout, cin, kh, kw])?, &mut scratch.b)?;
            check_out(mem, dx, n_out)?;
            let o = k::conv2d_grad_x(
                &scratch.a,
                &scratch.b,
                cin as usize,
                h as usize,
                wd as usize,
                cout as usize,
                kh as usize,
                kw as usize,
                stride as usize,
                pad as usize,
            );
            store(mem, dx, &o)
        }
        PoolGrad {
            x,
            dy,
            dx,
            c,
            h,
            wd,
            win,
            stride,
            kind,
        } => {
            if stride == 0 || win == 0 {
                return Err(ExecError::BadParams("pool_g win/stride".into()));
            }
            let ho = k::out_dim(h, win, stride, 0);
            let wo = k::out_dim(wd, win, stride, 0);
            let n = elems(&[c, h, wd])?;
            load(mem, x, n, &mut scratch.a)?;
            load(mem, dy, elems(&[c, ho, wo])?, &mut scratch.b)?;
            check_out(mem, dx, n)?;
            let o = k::pool_grad(
                &scratch.a,
                &scratch.b,
                c as usize,
                h as usize,
                wd as usize,
                win as usize,
                stride as usize,
                kind,
            );
            store(mem, dx, &o)
        }
    }
}

/// Convenience: decode a blob then execute it.
///
/// # Errors
///
/// Returns [`ExecError`] on decode failures, MMU faults, or bad parameters.
pub fn execute_blob<M: VaMem + ?Sized>(blob: &[u8], mem: &mut M) -> Result<(), ExecError> {
    let op = KernelOp::decode(blob)?;
    execute(&op, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::kernels::testdata::{bits, same_bits, Draw};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Flat test memory with a configurable "hole" that faults.
    #[derive(Default)]
    struct TestMem {
        pages: HashMap<u64, Vec<u8>>,
        fault_at: Option<u64>,
    }

    const PG: u64 = 4096;

    impl TestMem {
        fn check(&self, va: u64, len: usize) -> Result<(), u64> {
            if let Some(f) = self.fault_at {
                if va <= f && f < va + len as u64 {
                    return Err(f);
                }
            }
            Ok(())
        }
    }

    impl VaMem for TestMem {
        fn read_bytes(&mut self, va: u64, len: usize) -> Result<Vec<u8>, u64> {
            self.check(va, len)?;
            let mut out = vec![0u8; len];
            for (i, b) in out.iter_mut().enumerate() {
                let a = va + i as u64;
                if let Some(p) = self.pages.get(&(a / PG)) {
                    *b = p[(a % PG) as usize];
                }
            }
            Ok(out)
        }
        fn write_bytes(&mut self, va: u64, data: &[u8]) -> Result<(), u64> {
            self.check(va, data.len())?;
            for (i, &b) in data.iter().enumerate() {
                let a = va + i as u64;
                let p = self
                    .pages
                    .entry(a / PG)
                    .or_insert_with(|| vec![0; PG as usize]);
                p[(a % PG) as usize] = b;
            }
            Ok(())
        }
        fn check_write(&mut self, va: u64, len: usize) -> Result<(), u64> {
            self.check(va, len)
        }
    }

    fn put_f32s(mem: &mut TestMem, va: u64, vals: &[f32]) {
        let mut bytes = Vec::new();
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        mem.write_bytes(va, &bytes).unwrap();
    }

    fn get_f32s(mem: &mut TestMem, va: u64, n: usize) -> Vec<f32> {
        mem.read_bytes(va, n * 4)
            .unwrap()
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn vecadd_end_to_end() {
        let mut mem = TestMem::default();
        put_f32s(&mut mem, 0x1000, &[1., 2., 3.]);
        put_f32s(&mut mem, 0x2000, &[10., 20., 30.]);
        let op = KernelOp::EltwiseAdd {
            a: 0x1000,
            b: 0x2000,
            out: 0x3000,
            n: 3,
            act: ActKind::None,
        };
        execute(&op, &mut mem).unwrap();
        assert_eq!(get_f32s(&mut mem, 0x3000, 3), vec![11., 22., 33.]);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_runs() {
        // Run a mixed op sequence twice: once with a shared arena, once
        // with throwaway scratch; outputs must agree exactly.
        let ops = [
            KernelOp::Fill {
                out: 0x1000,
                n: 8,
                value: 0.125,
            },
            KernelOp::MatMul {
                a: 0x1000,
                b: 0x1000,
                out: 0x2000,
                m: 2,
                k: 2,
                n: 2,
            },
            KernelOp::Concat2 {
                a: 0x1000,
                na: 4,
                b: 0x2000,
                nb: 4,
                out: 0x3000,
            },
            KernelOp::Softmax {
                x: 0x3000,
                out: 0x4000,
                rows: 2,
                cols: 4,
            },
        ];
        let mut pooled = TestMem::default();
        let mut fresh = TestMem::default();
        let mut arena = ExecScratch::new();
        for op in &ops {
            execute_with(op, &mut pooled, &mut arena).unwrap();
            execute(op, &mut fresh).unwrap();
        }
        assert_eq!(
            get_f32s(&mut pooled, 0x4000, 8),
            get_f32s(&mut fresh, 0x4000, 8)
        );
    }

    #[test]
    fn page_crossing_access_works() {
        let mut mem = TestMem::default();
        let va = PG - 8; // straddles the first page boundary
        put_f32s(&mut mem, va, &[5., 6., 7., 8.]);
        let op = KernelOp::Scale {
            a: va,
            out: va,
            n: 4,
            alpha: 2.0,
        };
        execute(&op, &mut mem).unwrap();
        assert_eq!(get_f32s(&mut mem, va, 4), vec![10., 12., 14., 16.]);
    }

    #[test]
    fn mem_fault_propagates() {
        let mut mem = TestMem {
            fault_at: Some(0x2004),
            ..TestMem::default()
        };
        let op = KernelOp::Fill {
            out: 0x2000,
            n: 4,
            value: 1.0,
        };
        assert_eq!(
            execute(&op, &mut mem),
            Err(ExecError::MemFault { va: 0x2004 })
        );
    }

    #[test]
    fn bad_params_rejected() {
        let mut mem = TestMem::default();
        let op = KernelOp::Conv2d {
            x: 0,
            w: 0,
            bias: 0,
            out: 0,
            cin: 3,
            h: 4,
            wd: 4,
            cout: 4,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
            groups: 2,
            act: ActKind::None,
        };
        assert!(matches!(
            execute(&op, &mut mem),
            Err(ExecError::BadParams(_))
        ));
        // An out-of-range label is rejected before any write happens.
        put_f32s(&mut mem, 0, &[9.0]);
        let op2 = KernelOp::SoftmaxXentGrad {
            probs: 0x100,
            labels: 0,
            dx: 0x200,
            rows: 1,
            cols: 2,
        };
        assert!(matches!(
            execute(&op2, &mut mem),
            Err(ExecError::BadParams(_))
        ));
    }

    #[test]
    fn non_finite_labels_rejected() {
        // A NaN label passes `l < 0.0 || l as u32 >= cols` (NaN comparisons
        // are false; `NaN as u32` saturates to 0) — it must be rejected,
        // not silently trained against class 0. Same for infinities.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut mem = TestMem::default();
            put_f32s(&mut mem, 0x100, &[0.5, 0.5]);
            put_f32s(&mut mem, 0x200, &[bad]);
            let op = KernelOp::SoftmaxXentGrad {
                probs: 0x100,
                labels: 0x200,
                dx: 0x300,
                rows: 1,
                cols: 2,
            };
            assert!(
                matches!(execute(&op, &mut mem), Err(ExecError::BadParams(_))),
                "label {bad} must be rejected"
            );
            // Nothing was written to dx.
            assert_eq!(get_f32s(&mut mem, 0x300, 2), vec![0.0, 0.0]);
        }
        // A valid label still works.
        let mut mem = TestMem::default();
        put_f32s(&mut mem, 0x100, &[0.5, 0.5]);
        put_f32s(&mut mem, 0x200, &[1.0]);
        execute(
            &KernelOp::SoftmaxXentGrad {
                probs: 0x100,
                labels: 0x200,
                dx: 0x300,
                rows: 1,
                cols: 2,
            },
            &mut mem,
        )
        .unwrap();
        assert_eq!(get_f32s(&mut mem, 0x300, 2), vec![0.5, -0.5]);
    }

    #[test]
    fn blob_roundtrip_execution() {
        let mut mem = TestMem::default();
        put_f32s(&mut mem, 0x100, &[-3., 4.]);
        let blob = KernelOp::Activation {
            x: 0x100,
            out: 0x200,
            n: 2,
            act: ActKind::Relu,
        }
        .encode();
        execute_blob(&blob, &mut mem).unwrap();
        assert_eq!(get_f32s(&mut mem, 0x200, 2), vec![0., 4.]);
        assert!(matches!(
            execute_blob(&blob[..3], &mut mem),
            Err(ExecError::BadShader(_))
        ));
    }

    #[test]
    fn sgd_updates_in_place() {
        let mut mem = TestMem::default();
        put_f32s(&mut mem, 0x100, &[1.0, 1.0]);
        put_f32s(&mut mem, 0x200, &[0.5, -0.5]);
        execute(
            &KernelOp::SgdStep {
                w: 0x100,
                g: 0x200,
                n: 2,
                lr: 1.0,
            },
            &mut mem,
        )
        .unwrap();
        assert_eq!(get_f32s(&mut mem, 0x100, 2), vec![0.5, 1.5]);
    }

    /// [`TestMem`] whose [`VaMem::read_runs`] cuts the range at random
    /// f32 boundaries (mid-row and mid-page alike), as a fragmented
    /// physical mapping would.
    struct RunsMem {
        mem: TestMem,
        draw: Draw,
        runs: usize,
    }

    impl VaMem for RunsMem {
        fn read_bytes(&mut self, va: u64, len: usize) -> Result<Vec<u8>, u64> {
            self.mem.read_bytes(va, len)
        }
        fn write_bytes(&mut self, va: u64, data: &[u8]) -> Result<(), u64> {
            self.mem.write_bytes(va, data)
        }
        fn check_write(&mut self, va: u64, len: usize) -> Result<(), u64> {
            self.mem.check_write(va, len)
        }
        fn read_runs(&mut self, va: u64, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<(), u64> {
            let bytes = self.mem.read_bytes(va, len)?;
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let take = 4 * self.draw.range(1, rest.len() / 4 + 1);
                f(&rest[..take]);
                self.runs += 1;
                rest = &rest[take..];
            }
            Ok(())
        }
    }

    /// A random `FullyConnected` (or, without bias and activation,
    /// `MatMul`) through `execute` with the weights in random runs,
    /// against the reference kernel on the same data.
    fn streamed_gemm_case(seed: u64, special: bool) {
        let mut d = Draw(seed);
        let (m, kk, n) = (d.range(1, 4), d.range(1, 24), d.range(1, 160));
        let x = d.vals(m * kk, special);
        let w = d.vals(kk * n, special);
        let b = d.vals(n, special);
        let with_bias = d.range(0, 2) == 1;
        let act = d.act();
        let (xva, bva, out) = (0x10_0000, 0x20_0000, 0x30_0000);
        // Weights start mid-page, 4-byte aligned.
        let wva = 0x40_0000 + 4 * d.range(0, 1024) as u64;
        let mut mem = RunsMem {
            mem: TestMem::default(),
            draw: Draw(d.next()),
            runs: 0,
        };
        put_f32s(&mut mem.mem, xva, &x);
        put_f32s(&mut mem.mem, wva, &w);
        put_f32s(&mut mem.mem, bva, &b);
        let (m32, k32, n32) = (m as u32, kk as u32, n as u32);
        let op = if with_bias || act != ActKind::None {
            KernelOp::FullyConnected {
                x: xva,
                w: wva,
                bias: if with_bias { bva } else { 0 },
                out,
                m: m32,
                k: k32,
                n: n32,
                act,
            }
        } else {
            KernelOp::MatMul {
                a: xva,
                b: wva,
                out,
                m: m32,
                k: k32,
                n: n32,
            }
        };
        execute(&op, &mut mem).unwrap();
        assert!(mem.runs >= 1, "the weights were streamed");
        let got = get_f32s(&mut mem.mem, out, m * n);
        let oracle = k::fully_connected(&x, &w, with_bias.then_some(&b[..]), m, kk, n, act);
        if special {
            assert!(same_bits(&got, &oracle), "seed {seed:#x}");
        } else {
            assert_eq!(bits(&got), bits(&oracle), "seed {seed:#x}");
        }
    }

    proptest! {
        #[test]
        fn streamed_gemm_matches_reference_bit_exactly(seed in any::<u64>()) {
            streamed_gemm_case(seed, false);
        }

        #[test]
        fn streamed_gemm_matches_reference_on_nan_inf_and_negative_zero(seed in any::<u64>()) {
            streamed_gemm_case(seed, true);
        }
    }

    #[test]
    fn unaligned_weights_take_the_staged_path() {
        let mut mem = RunsMem {
            mem: TestMem::default(),
            draw: Draw(1),
            runs: 0,
        };
        let w = [1.5f32, -2.0, 0.25, 4.0, 3.0, -1.0];
        put_f32s(&mut mem.mem, 0x100, &[2.0, -3.0]);
        put_f32s(&mut mem.mem, 0x1001, &w);
        let op = KernelOp::FullyConnected {
            x: 0x100,
            w: 0x1001,
            bias: 0,
            out: 0x2000,
            m: 1,
            k: 2,
            n: 3,
            act: ActKind::None,
        };
        execute(&op, &mut mem).unwrap();
        assert_eq!(mem.runs, 0, "runs would split f32s");
        assert_eq!(
            get_f32s(&mut mem.mem, 0x2000, 3),
            k::fully_connected(&[2.0, -3.0], &w, None, 1, 2, 3, ActKind::None)
        );
    }

    #[test]
    fn fully_connected_with_no_outputs_and_a_bias_is_a_no_op() {
        // n = 0 once made the bias pass ask for chunks of size 0 (a panic).
        for w in [0x1000, 0x1001] {
            let op = KernelOp::FullyConnected {
                x: 0x100,
                w,
                bias: 0x200,
                out: 0x300,
                m: 2,
                k: 3,
                n: 0,
                act: ActKind::Relu,
            };
            assert_eq!(execute(&op, &mut TestMem::default()), Ok(()));
        }
    }

    /// Memory that faults at 1 GiB, so a 16 GiB operand errors out
    /// before any byte is staged.
    fn hostile_mem() -> TestMem {
        TestMem {
            fault_at: Some(0x4000_0000),
            ..TestMem::default()
        }
    }

    const BIG: u32 = 1 << 16; // BIG · BIG = 2^32 wraps to 0 in u32

    #[test]
    fn fully_connected_with_m_times_k_of_2_pow_32_is_an_error_not_a_panic() {
        let fc = |m, k| KernelOp::FullyConnected {
            x: 0x1000_0000,
            w: 0x1000,
            bias: 0,
            out: 0x2000,
            m,
            k,
            n: 1,
            act: ActKind::None,
        };
        assert_eq!(
            execute(&fc(BIG, BIG), &mut hostile_mem()),
            Err(ExecError::MemFault { va: 0x4000_0000 })
        );
        assert!(matches!(
            execute(&fc(u32::MAX, u32::MAX), &mut hostile_mem()),
            Err(ExecError::BadParams(_))
        ));
    }

    #[test]
    fn matmul_with_k_times_n_of_2_pow_32_is_an_error_not_a_panic() {
        let mm = |m, k, n| KernelOp::MatMul {
            a: 0x1000,
            b: 0x1000_0000,
            out: 0x2000,
            m,
            k,
            n,
        };
        assert_eq!(
            execute(&mm(1, BIG, BIG), &mut hostile_mem()),
            Err(ExecError::MemFault { va: 0x4000_0000 })
        );
        assert!(matches!(
            execute(&mm(u32::MAX, 2, u32::MAX), &mut hostile_mem()),
            Err(ExecError::BadParams(_))
        ));
    }

    #[test]
    fn conv2d_with_cin_h_w_of_2_pow_32_is_an_error_not_a_panic() {
        let conv = |c, h, wd| KernelOp::Conv2d {
            x: 0x1000_0000,
            w: 0x1000,
            bias: 0,
            out: 0x2000,
            cin: c,
            h,
            wd,
            cout: c,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
            groups: c,
            act: ActKind::None,
        };
        assert_eq!(
            execute(&conv(1, BIG, BIG), &mut hostile_mem()),
            Err(ExecError::MemFault { va: 0x4000_0000 })
        );
        assert!(matches!(
            execute(&conv(u32::MAX, u32::MAX, u32::MAX), &mut hostile_mem()),
            Err(ExecError::BadParams(_))
        ));
    }

    #[test]
    fn hostile_lengths_fault_before_allocating() {
        // One writable page at VA 0x10000; every other page is unmapped.
        let mem = gr_soc::SharedMem::new(gr_soc::PhysMem::new(0, 4 * PG as usize));
        let one_page = |page_va: u64| (page_va == 0x1_0000).then_some((PG, true));
        let ops = [
            KernelOp::Fill {
                out: 0x1_0000,
                n: u32::MAX,
                value: 1.5,
            },
            KernelOp::CopyBytes {
                src: 0x1_0000,
                dst: 0x1_0000,
                len: u32::MAX,
            },
        ];
        for op in ops {
            let log = crate::access::SharedAccessLog::new();
            let mut vm = crate::device::TranslatingVaMem::new(&mem, &log, one_page);
            gr_testalloc::reset();
            assert_eq!(
                execute(&op, &mut vm),
                Err(ExecError::MemFault { va: 0x1_1000 }),
                "{op:?}"
            );
            let peak = gr_testalloc::largest();
            assert!(peak < 1 << 20, "{op:?} allocated {peak} bytes");
        }
    }

    /// Runs `op` on one writable page at VA 0x10000 with every other page
    /// unmapped, and demands a fault at the next page with no large
    /// allocation on the way.
    fn faults_past_one_page_without_allocating(op: KernelOp) {
        let mem = gr_soc::SharedMem::new(gr_soc::PhysMem::new(0, 4 * PG as usize));
        let log = crate::access::SharedAccessLog::new();
        let mut vm = crate::device::TranslatingVaMem::new(&mem, &log, |page_va: u64| {
            (page_va == 0x1_0000).then_some((PG, true))
        });
        gr_testalloc::reset();
        assert_eq!(
            execute(&op, &mut vm),
            Err(ExecError::MemFault { va: 0x1_1000 }),
            "{op:?}"
        );
        let peak = gr_testalloc::largest();
        assert!(peak < 1 << 20, "{op:?} allocated {peak} bytes");
    }

    /// 2^23 · 2^23 f32s are 2^48 bytes, more than a 47-bit address space
    /// can hold: allocating that output aborts the process.
    const HUGE: u32 = 1 << 23;

    #[test]
    fn gemm_output_faults_before_the_accumulator_is_allocated() {
        faults_past_one_page_without_allocating(KernelOp::MatMul {
            a: 0x1_0000,
            b: 0x1_0000,
            out: 0x1_0000,
            m: HUGE,
            k: 0,
            n: HUGE,
        });
        faults_past_one_page_without_allocating(KernelOp::FullyConnected {
            x: 0x1_0000,
            w: 0x1_0000,
            bias: 0,
            out: 0x1_0000,
            m: HUGE,
            k: 0,
            n: HUGE,
            act: ActKind::Relu,
        });
    }

    /// A 1×1 input padded by 2^29 on each side has a (2^30 + 1)² output.
    const HUGE_PAD: u32 = 1 << 29;

    #[test]
    fn conv2d_output_inflated_by_pad_faults_before_allocating() {
        faults_past_one_page_without_allocating(KernelOp::Conv2d {
            x: 0x1_0000,
            w: 0x1_0000,
            bias: 0,
            out: 0x1_0000,
            cin: 1,
            h: 1,
            wd: 1,
            cout: 1,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: HUGE_PAD,
            groups: 1,
            act: ActKind::None,
        });
    }

    #[test]
    fn im2col_output_inflated_by_pad_faults_before_allocating() {
        faults_past_one_page_without_allocating(KernelOp::Im2Col {
            x: 0x1_0000,
            out: 0x1_0000,
            cin: 1,
            h: 1,
            wd: 1,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: HUGE_PAD,
        });
    }
}
