//! CPU reference execution.
//!
//! §7.2 validates replay by comparing "the GPU's outcome with the
//! reference answers computed by CPU". This module replays the *exact*
//! kernel op sequence of a compiled network against plain host memory —
//! same ops, same f32 order — so matching results are bit-identical, not
//! merely close.

use std::collections::HashMap;

use gr_gpu::vm::exec::{execute, VaMem};

use crate::exec::GpuNetwork;

const PG: u64 = 4096;

/// Sparse page-granular host memory keyed by GPU VA (no translation — the
/// reference executor sees the same address space the ops were lowered
/// against).
#[derive(Debug, Default)]
pub struct CpuMem {
    pages: HashMap<u64, Vec<u8>>,
}

impl CpuMem {
    /// Creates empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes f32 values at `va`.
    pub fn write_f32s(&mut self, va: u64, vals: &[f32]) {
        let mut bytes = Vec::with_capacity(vals.len() * 4);
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(va, &bytes).expect("CpuMem is infallible");
    }

    /// Reads f32 values at `va`.
    pub fn read_f32s(&mut self, va: u64, n: usize) -> Vec<f32> {
        self.read_bytes(va, n * 4)
            .expect("CpuMem is infallible")
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
            .collect()
    }
}

impl CpuMem {
    /// Calls `f(page, offset in page, offset in the access, length)` for
    /// each page-bounded piece of `[va, va+len)`, in VA order.
    fn pieces(va: u64, len: usize, mut f: impl FnMut(u64, usize, usize, usize)) {
        let mut done = 0;
        while done < len {
            let a = va + done as u64;
            let in_page = (a % PG) as usize;
            let n = (PG as usize - in_page).min(len - done);
            f(a / PG, in_page, done, n);
            done += n;
        }
    }
}

impl VaMem for CpuMem {
    fn read_bytes(&mut self, va: u64, len: usize) -> Result<Vec<u8>, u64> {
        // Pages never written read as zeros.
        let mut out = vec![0u8; len];
        Self::pieces(va, len, |page, at, off, n| {
            if let Some(p) = self.pages.get(&page) {
                out[off..off + n].copy_from_slice(&p[at..at + n]);
            }
        });
        Ok(out)
    }

    fn write_bytes(&mut self, va: u64, data: &[u8]) -> Result<(), u64> {
        Self::pieces(va, data.len(), |page, at, off, n| {
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0; PG as usize]);
            p[at..at + n].copy_from_slice(&data[off..off + n]);
        });
        Ok(())
    }

    fn check_write(&mut self, _va: u64, _len: usize) -> Result<(), u64> {
        Ok(())
    }
}

/// Runs the compiled network on the CPU: loads the recorded weight
/// uploads, injects `input`, executes every kernel op in order, extracts
/// the output.
///
/// # Panics
///
/// Panics if an op fails — the op list came from a successful lowering,
/// so failure indicates an internal inconsistency.
pub fn cpu_infer(net: &GpuNetwork, input: &[f32]) -> Vec<f32> {
    assert_eq!(input.len(), net.input_elems, "input size mismatch");
    let mut mem = CpuMem::new();
    for (va, bytes) in &net.weight_uploads {
        mem.write_bytes(*va, bytes).expect("CpuMem is infallible");
    }
    mem.write_f32s(net.input_va, input);
    for launch in net.all_launches() {
        execute(&launch.op, &mut mem)
            .unwrap_or_else(|e| panic!("cpu ref failed at {}: {e}", launch.label));
    }
    mem.read_f32s(net.output_va, net.output_elems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::GpuExecutor;
    use crate::models;
    use gr_gpu::sku::{MALI_G71, V3D_RPI4};
    use gr_gpu::Machine;
    use gr_sim::SimRng;

    fn random_input(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| rng.unit_f64() as f32).collect()
    }

    #[test]
    fn gpu_matches_cpu_bit_for_bit_mnist() {
        let machine = Machine::new(&MALI_G71, 9);
        let mut exec = GpuExecutor::create(machine, true, None).unwrap();
        let net = exec.compile(&models::mnist(), 4).unwrap();
        let input = random_input(net.input_len(), 17);
        let gpu = exec.infer(&net, &input).unwrap();
        let cpu = cpu_infer(&net, &input);
        assert_eq!(gpu, cpu, "bit-identical expected");
        exec.release();
    }

    #[test]
    fn gpu_matches_cpu_on_v3d_family() {
        let machine = Machine::new(&V3D_RPI4, 9);
        let mut exec = GpuExecutor::create(machine, true, None).unwrap();
        let net = exec.compile(&models::mnist(), 4).unwrap();
        let input = random_input(net.input_len(), 23);
        let gpu = exec.infer(&net, &input).unwrap();
        let cpu = cpu_infer(&net, &input);
        assert_eq!(gpu, cpu);
        exec.release();
    }

    #[test]
    fn cpumem_is_zero_initialized_and_page_crossing() {
        let mut m = CpuMem::new();
        assert_eq!(m.read_f32s(0x1000, 2), vec![0.0, 0.0]);
        m.write_f32s(PG - 4, &[1.5, 2.5]);
        assert_eq!(m.read_f32s(PG - 4, 2), vec![1.5, 2.5]);
    }
}
