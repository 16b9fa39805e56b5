//! The f32 math behind each [`super::bytecode::KernelOp`].
//!
//! Kernel execution is most of a warm replay's host time, so the two hot
//! inference ops have loop nests built for memory speed: [`Gemm`] streams
//! the `k×n` operand of `MatMul`/`FullyConnected` straight from DRAM runs,
//! and [`conv2d`] picks between [`conv2d_fast`] (output-x innermost) and
//! [`conv2d_oc_inner`] (output channel innermost), whichever keeps more
//! independent accumulators. Speed never buys a changed bit: every output
//! element adds its terms in the order of the reference nests
//! ([`fully_connected`], and the test-only `conv2d_reference`), so the
//! §7.2 validation can compare replayed outputs against the CPU reference
//! executor exactly. `matmul`, `conv2d_reference` and `im2col_reference`
//! compile only under `cfg(test)`, as the oracles of the differential
//! tests.

use super::bytecode::{ActKind, PoolKind};

/// Applies an activation to a single value.
pub fn apply_act(act: ActKind, v: f32) -> f32 {
    match act {
        ActKind::None => v,
        ActKind::Relu => v.max(0.0),
        // Not `clamp`: max-then-min squashes NaN to 0.0, and replayed
        // buffers may carry arbitrary user bytes (including NaN patterns).
        #[allow(clippy::manual_clamp)]
        ActKind::Relu6 => v.max(0.0).min(6.0),
        ActKind::LeakyRelu => {
            if v > 0.0 {
                v
            } else {
                0.1 * v
            }
        }
        ActKind::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        ActKind::Tanh => v.tanh(),
    }
}

/// Elementwise `act(a + b)` into `out` (cleared first). The activation
/// dispatch is hoisted out of the loop so the common None/Relu cases
/// vectorize; per-element values are identical to calling [`apply_act`].
pub fn eltwise_add_act(act: ActKind, a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    out.clear();
    match act {
        ActKind::None => out.extend(a.iter().zip(b).map(|(&x, &y)| x + y)),
        ActKind::Relu => out.extend(a.iter().zip(b).map(|(&x, &y)| (x + y).max(0.0))),
        _ => out.extend(a.iter().zip(b).map(|(&x, &y)| apply_act(act, x + y))),
    }
}

/// Elementwise `act(x)` into `out` (cleared first), dispatch hoisted.
pub fn map_act(act: ActKind, x: &[f32], out: &mut Vec<f32>) {
    out.clear();
    match act {
        ActKind::None => out.extend_from_slice(x),
        ActKind::Relu => out.extend(x.iter().map(|&v| v.max(0.0))),
        _ => out.extend(x.iter().map(|&v| apply_act(act, v))),
    }
}

/// Output spatial size of a conv/pool axis (0 when the kernel does not fit
/// or the dimensions overflow `u32`).
pub fn out_dim(input: u32, kernel: u32, stride: u32, pad: u32) -> u32 {
    debug_assert!(stride > 0, "stride must be positive");
    // `input + 2 * pad` can overflow u32 for hostile recorded dimensions;
    // widen to u64 and treat any result outside u32 as "does not fit".
    let padded = u64::from(input) + 2 * u64::from(pad);
    if padded < u64::from(kernel) {
        return 0;
    }
    u32::try_from((padded - u64::from(kernel)) / u64::from(stride) + 1).unwrap_or(0)
}

/// Dense GEMM: `out[m×n] = a[m×k] · b[k×n]` (test oracle).
#[cfg(test)]
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    fully_connected(a, b, None, m, k, n, ActKind::None)
}

/// Streaming GEMM: accumulates `a[m×k] · b[k×n]` while `b` arrives as
/// little-endian byte runs in row-major order, so a weight matrix is
/// consumed straight from DRAM without being staged first.
///
/// Bit-exactness against [`fully_connected`]: the loops run `p` outer
/// and `i` inner, so every `out[i][j]` still adds its terms in ascending
/// `p`, starting from `0.0`, and skips exactly the terms whose `a[i][p]`
/// is `0.0` (that skip is part of the numerics: `0·∞` would be NaN). Only
/// the interleaving across different outputs changes, which f32 cannot
/// observe.
pub struct Gemm<'a> {
    a: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    /// Index into `b` of the next element a run will carry.
    next: usize,
    out: Vec<f32>,
}

impl<'a> Gemm<'a> {
    /// Starts a product with left operand `a[m×k]` and zeroed outputs.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub fn new(a: &'a [f32], m: usize, k: usize, n: usize) -> Self {
        assert_eq!(a.len(), m * k, "lhs size");
        Gemm {
            a,
            m,
            k,
            n,
            next: 0,
            out: vec![0.0; m * n],
        }
    }

    /// Accumulates the next run of `b`. Runs may split `b` anywhere
    /// between two f32s, mid-row included.
    ///
    /// # Panics
    ///
    /// Panics if `run` holds a partial f32 or runs past the end of `b`.
    pub fn feed(&mut self, run: &[u8]) {
        assert_eq!(run.len() % 4, 0, "runs hold whole f32s");
        assert!(self.next + run.len() / 4 <= self.k * self.n, "rhs size");
        let mut run = run;
        while !run.is_empty() {
            let (p, j) = (self.next / self.n, self.next % self.n);
            let take = (self.n - j).min(run.len() / 4);
            let (row, rest) = run.split_at(take * 4);
            for i in 0..self.m {
                let av = self.a[i * self.k + p];
                if av == 0.0 {
                    continue;
                }
                let orow = &mut self.out[i * self.n + j..][..take];
                for (o, c) in orow.iter_mut().zip(row.chunks_exact(4)) {
                    *o += av * f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
            }
            self.next += take;
            run = rest;
        }
    }

    /// Finishes the product as [`fully_connected`] does: adds `bias` to
    /// every row, then applies `act`. `(None, ActKind::None)` yields the
    /// plain product.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k * n` elements were fed or `bias` is not
    /// `n` long.
    pub fn finish(mut self, bias: Option<&[f32]>, act: ActKind) -> Vec<f32> {
        assert_eq!(self.next, self.k * self.n, "rhs size");
        if let Some(b) = bias {
            assert_eq!(b.len(), self.n, "bias size");
            // `max(1)`: with `n == 0` there are no rows, and no chunk size 0.
            for row in self.out.chunks_mut(self.n.max(1)) {
                for (o, &bv) in row.iter_mut().zip(b) {
                    *o += bv;
                }
            }
        }
        if act != ActKind::None {
            for o in &mut self.out {
                *o = apply_act(act, *o);
            }
        }
        self.out
    }
}

/// Fully connected: `act(x[m×k] · w[k×n] + bias[n])`. Each output adds
/// its terms in ascending `k`, from `0.0`, skipping terms whose `x` is
/// exactly `0.0`: this is the reference order [`Gemm`] reproduces.
pub fn fully_connected(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
    act: ActKind,
) -> Vec<f32> {
    assert_eq!(x.len(), m * k, "lhs size");
    assert_eq!(w.len(), k * n, "rhs size");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let xv = x[i * k + p];
            if xv == 0.0 {
                continue;
            }
            let wrow = &w[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &wv) in orow.iter_mut().zip(wrow) {
                *o += xv * wv;
            }
        }
    }
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "bias size");
        // `max(1)`: with `n == 0` there are no rows, and no chunk size 0.
        for row in out.chunks_mut(n.max(1)) {
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += bv;
            }
        }
    }
    for o in &mut out {
        *o = apply_act(act, *o);
    }
    out
}

/// Grouped 2-D convolution over NCHW (batch 1) with fused bias/activation.
///
/// Weights are laid out `cout × (cin/groups) × kh × kw`.
///
/// Dispatches to whichever loop nest keeps more independent accumulators
/// in its inner loop: [`conv2d_fast`] has one per output column (`wo`),
/// [`conv2d_oc_inner`] one per output channel of the group
/// (`cout / groups`); ties go to `conv2d_fast`. Both accumulate every
/// output element in the `(icg, ky, kx)` order of the test-only
/// `conv2d_reference`, so replayed outputs are bit-stable.
///
/// # Panics
///
/// Panics if the channel counts are not divisible by `groups` or buffer
/// sizes disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    act: ActKind,
) -> Vec<f32> {
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    if cout.checked_div(groups).is_some_and(|coutg| coutg > wo) {
        conv2d_oc_inner(
            x, w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
        )
    } else {
        conv2d_fast(
            x, w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
        )
    }
}

/// The per-output-pixel loop nest (test oracle for the two above).
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub fn conv2d_reference(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    act: ActKind,
) -> Vec<f32> {
    assert!(
        groups > 0 && cin % groups == 0 && cout % groups == 0,
        "bad groups"
    );
    let cing = cin / groups;
    let coutg = cout / groups;
    assert_eq!(x.len(), cin * h * wd, "input size");
    assert_eq!(w.len(), cout * cing * kh * kw, "weight size");
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    let mut out = vec![0.0f32; cout * ho * wo];
    for g in 0..groups {
        for ocg in 0..coutg {
            let oc = g * coutg + ocg;
            let b = bias.map_or(0.0, |b| b[oc]);
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = b;
                    for icg in 0..cing {
                        let ic = g * cing + icg;
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= wd as isize {
                                    continue;
                                }
                                let xv = x[ic * h * wd + iy as usize * wd + ix as usize];
                                let wv = w[((oc * cing + icg) * kh + ky) * kw + kx];
                                acc += xv * wv;
                            }
                        }
                    }
                    out[oc * ho * wo + oy * wo + ox] = apply_act(act, acc);
                }
            }
        }
    }
    out
}

/// Restructured direct convolution: output-x is the innermost loop, so
/// every `out[oc, oy, ox]` is an *independent* accumulator and the inner
/// loop is branch-free (the valid `ox` range is hoisted out).
///
/// Bit-exactness: each output element still accumulates its products in
/// exactly the reference order — bias first, then `(icg, ky, kx)` in the
/// same nesting — because those loops stay outside `ox` and out-of-bounds
/// taps contribute nothing in both versions. Only the *interleaving
/// across different outputs* changes, which f32 cannot observe.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_fast(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    act: ActKind,
) -> Vec<f32> {
    assert!(
        groups > 0 && cin % groups == 0 && cout % groups == 0,
        "bad groups"
    );
    let cing = cin / groups;
    let coutg = cout / groups;
    assert_eq!(x.len(), cin * h * wd, "input size");
    assert_eq!(w.len(), cout * cing * kh * kw, "weight size");
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    let mut out = vec![0.0f32; cout * ho * wo];
    for g in 0..groups {
        for ocg in 0..coutg {
            let oc = g * coutg + ocg;
            let b = bias.map_or(0.0, |b| b[oc]);
            out[oc * ho * wo..(oc + 1) * ho * wo].fill(b);
            for icg in 0..cing {
                let ic = g * cing + icg;
                let xplane = &x[ic * h * wd..(ic + 1) * h * wd];
                for ky in 0..kh {
                    for kx in 0..kw {
                        let wv = w[((oc * cing + icg) * kh + ky) * kw + kx];
                        // Valid output ranges: iy = oy*stride + ky - pad in
                        // [0, h) and likewise for ix — hoisted from the
                        // reference version's per-tap bounds checks.
                        let oy_lo = pad.saturating_sub(ky).div_ceil(stride);
                        let oy_hi = ho.min((h + pad).saturating_sub(ky).div_ceil(stride));
                        let ox_lo = pad.saturating_sub(kx).div_ceil(stride);
                        let ox_hi = wo.min((wd + pad).saturating_sub(kx).div_ceil(stride));
                        if ox_lo >= ox_hi {
                            continue;
                        }
                        for oy in oy_lo..oy_hi {
                            let iy = oy * stride + ky - pad;
                            let xrow = &xplane[iy * wd..(iy + 1) * wd];
                            let orow = &mut out[oc * ho * wo + oy * wo..][..wo];
                            if stride == 1 {
                                let xoff = kx - pad.min(kx); // == ox_lo + kx - pad
                                let n = ox_hi - ox_lo;
                                // Branch-free saxpy; each out lane is its
                                // own accumulator, so this vectorizes
                                // without reassociating any single output.
                                for (o, &xv) in
                                    orow[ox_lo..ox_hi].iter_mut().zip(&xrow[xoff..xoff + n])
                                {
                                    *o += xv * wv;
                                }
                            } else {
                                for ox in ox_lo..ox_hi {
                                    orow[ox] += xrow[ox * stride + kx - pad] * wv;
                                }
                            }
                        }
                    }
                }
            }
            for v in &mut out[oc * ho * wo..(oc + 1) * ho * wo] {
                *v = apply_act(act, *v);
            }
        }
    }
    out
}

/// The tap range `lo..hi` along one axis that covers every tap landing
/// inside the input for at least one of the `outn` output positions
/// (`0..0` when none does). Taps between two valid ones are included, so
/// the range is a hull, not an exact set.
fn tap_hull(input: usize, kernel: usize, stride: usize, pad: usize, outn: usize) -> (usize, usize) {
    // Same valid-output bounds as `conv2d_fast` hoists per tap.
    let valid = |t: usize| {
        let lo = pad.saturating_sub(t).div_ceil(stride);
        let hi = outn.min((input + pad).saturating_sub(t).div_ceil(stride));
        lo < hi
    };
    match (0..kernel).find(|&t| valid(t)) {
        Some(lo) => (lo, (lo..kernel).rfind(|&t| valid(t)).unwrap_or(lo) + 1),
        None => (0, 0),
    }
}

/// Restructured direct convolution with the output channel innermost:
/// each output pixel keeps one accumulator per output channel of its
/// group and adds `x · w` across all of them per tap, reading a weight
/// block transposed once per call to `[icg][ky][kx][ocg]`. Only the hull
/// of taps that are in bounds for some output is transposed (see
/// `tap_hull`); a small map under a large padded kernel would otherwise
/// pay for taps no output reads.
///
/// Bit-exactness: each output element starts from its bias and walks its
/// in-bounds `(icg, ky, kx)` taps in the reference order, exactly as in
/// `conv2d_reference`; only the interleaving across output channels
/// changes, which f32 cannot observe. Pays off when `cout / groups`
/// exceeds the output width (narrow or strided maps); a depthwise conv
/// (`cout / groups == 1`) would run one-wide inner loops.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_oc_inner(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    act: ActKind,
) -> Vec<f32> {
    assert!(
        groups > 0 && cin % groups == 0 && cout % groups == 0,
        "bad groups"
    );
    let cing = cin / groups;
    let coutg = cout / groups;
    assert_eq!(x.len(), cin * h * wd, "input size");
    assert_eq!(w.len(), cout * cing * kh * kw, "weight size");
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    let mut out = vec![0.0f32; cout * ho * wo];
    let (ky0, ky1) = tap_hull(h, kh, stride, pad, ho);
    let (kx0, kx1) = tap_hull(wd, kw, stride, pad, wo);
    let (kyn, kxn) = (ky1 - ky0, kx1 - kx0);
    // wt[((ic * kyn + ky - ky0) * kxn + kx - kx0) * coutg + ocg], where
    // ic = g * cing + icg already selects the group. Transposed 16 output
    // channels at a time: each pass reads 16 weight rows front to back
    // and writes whole cache lines, where a plain transpose would stride
    // a power-of-two distance through one side and thrash a few sets.
    let mut wt = vec![0.0f32; cin * kyn * kxn * coutg];
    for g in 0..groups {
        for ob in (0..coutg).step_by(16) {
            let block = ob..coutg.min(ob + 16);
            for icg in 0..cing {
                let ic = g * cing + icg;
                for ky in ky0..ky1 {
                    for kx in kx0..kx1 {
                        let t = ((ic * kyn + ky - ky0) * kxn + kx - kx0) * coutg;
                        for ocg in block.clone() {
                            let oc = g * coutg + ocg;
                            wt[t + ocg] = w[((oc * cing + icg) * kh + ky) * kw + kx];
                        }
                    }
                }
            }
        }
    }
    let mut acc = vec![0.0f32; coutg];
    for g in 0..groups {
        for oy in 0..ho {
            // In-bounds taps for this row: iy = oy*stride + ky - pad in [0, h).
            let ky_lo = pad.saturating_sub(oy * stride);
            let ky_hi = kh.min((h + pad).saturating_sub(oy * stride));
            for ox in 0..wo {
                let kx_lo = pad.saturating_sub(ox * stride);
                let kx_hi = kw.min((wd + pad).saturating_sub(ox * stride));
                match bias {
                    Some(b) => acc.copy_from_slice(&b[g * coutg..(g + 1) * coutg]),
                    None => acc.fill(0.0),
                }
                for icg in 0..cing {
                    let ic = g * cing + icg;
                    for ky in ky_lo..ky_hi {
                        let xrow = &x[(ic * h + oy * stride + ky - pad) * wd..][..wd];
                        let wrow = (ic * kyn + ky - ky0) * kxn;
                        for kx in kx_lo..kx_hi {
                            let xv = xrow[ox * stride + kx - pad];
                            let wv = &wt[(wrow + kx - kx0) * coutg..][..coutg];
                            for (a, &wv) in acc.iter_mut().zip(wv) {
                                *a += xv * wv;
                            }
                        }
                    }
                }
                for (ocg, &a) in acc.iter().enumerate() {
                    out[((g * coutg + ocg) * ho + oy) * wo + ox] = apply_act(act, a);
                }
            }
        }
    }
    out
}

/// 2-D pooling over NCHW, no padding.
pub fn pool2d(
    x: &[f32],
    c: usize,
    h: usize,
    wd: usize,
    win: usize,
    stride: usize,
    kind: PoolKind,
) -> Vec<f32> {
    assert_eq!(x.len(), c * h * wd, "input size");
    let ho = out_dim(h as u32, win as u32, stride as u32, 0) as usize;
    let wo = out_dim(wd as u32, win as u32, stride as u32, 0) as usize;
    let mut out = vec![0.0f32; c * ho * wo];
    // The kind dispatch is hoisted out of the window loop; each branch
    // performs exactly the reduction the combined loop used to select.
    for ch in 0..c {
        for oy in 0..ho {
            for ox in 0..wo {
                out[ch * ho * wo + oy * wo + ox] = match kind {
                    PoolKind::Max => {
                        let mut best = f32::NEG_INFINITY;
                        for ky in 0..win {
                            for kx in 0..win {
                                best = best.max(
                                    x[ch * h * wd + (oy * stride + ky) * wd + (ox * stride + kx)],
                                );
                            }
                        }
                        best
                    }
                    PoolKind::Avg => {
                        let mut sum = 0.0f32;
                        for ky in 0..win {
                            for kx in 0..win {
                                sum +=
                                    x[ch * h * wd + (oy * stride + ky) * wd + (ox * stride + kx)];
                            }
                        }
                        sum / (win * win) as f32
                    }
                };
            }
        }
    }
    out
}

/// Row-wise numerically-stable softmax.
pub fn softmax(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(x.len(), rows * cols, "input size");
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for (i, &v) in row.iter().enumerate() {
            let e = (v - mx).exp();
            out[r * cols + i] = e;
            denom += e;
        }
        for v in &mut out[r * cols..(r + 1) * cols] {
            *v /= denom;
        }
    }
    out
}

/// Nearest-neighbour 2× upsample over NCHW.
pub fn upsample2x(x: &[f32], c: usize, h: usize, wd: usize) -> Vec<f32> {
    assert_eq!(x.len(), c * h * wd, "input size");
    let mut out = vec![0.0f32; c * h * 2 * wd * 2];
    for ch in 0..c {
        for y in 0..h * 2 {
            for xx in 0..wd * 2 {
                out[ch * h * 2 * wd * 2 + y * wd * 2 + xx] = x[ch * h * wd + (y / 2) * wd + xx / 2];
            }
        }
    }
    out
}

/// Inference batch-norm folded into per-channel scale/shift.
pub fn batchnorm_inf(x: &[f32], scale: &[f32], shift: &[f32], c: usize, hw: usize) -> Vec<f32> {
    assert_eq!(x.len(), c * hw, "input size");
    assert_eq!(scale.len(), c, "scale size");
    assert_eq!(shift.len(), c, "shift size");
    let mut out = vec![0.0f32; c * hw];
    for ch in 0..c {
        for i in 0..hw {
            out[ch * hw + i] = x[ch * hw + i] * scale[ch] + shift[ch];
        }
    }
    out
}

/// ACL-style im2col producing a `(ho*wo) × (cin*kh*kw)` patch matrix.
///
/// Each contiguous run of valid taps is one `copy_from_slice`; the zero
/// padding is already in place from the allocation. Pure data movement,
/// value-identical to the test-only per-tap `im2col_reference`.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    x: &[f32],
    cin: usize,
    h: usize,
    wd: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    assert_eq!(x.len(), cin * h * wd, "input size");
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    let cols = cin * kh * kw;
    let mut out = vec![0.0f32; ho * wo * cols];
    for oy in 0..ho {
        for ox in 0..wo {
            let row = oy * wo + ox;
            let ix_base = ox * stride;
            for ic in 0..cin {
                for ky in 0..kh {
                    let iy = oy * stride + ky;
                    if iy < pad || iy - pad >= h {
                        continue;
                    }
                    let kx_lo = pad.saturating_sub(ix_base).min(kw);
                    let kx_hi = (wd + pad).saturating_sub(ix_base).min(kw);
                    if kx_lo >= kx_hi {
                        continue;
                    }
                    let n = kx_hi - kx_lo;
                    let src = &x[ic * h * wd + (iy - pad) * wd + ix_base + kx_lo - pad..][..n];
                    let dst = &mut out[row * cols + (ic * kh + ky) * kw + kx_lo..][..n];
                    dst.copy_from_slice(src);
                }
            }
        }
    }
    out
}

/// The per-tap im2col loop (test oracle for [`im2col`]).
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub fn im2col_reference(
    x: &[f32],
    cin: usize,
    h: usize,
    wd: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    assert_eq!(x.len(), cin * h * wd, "input size");
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    let cols = cin * kh * kw;
    let mut out = vec![0.0f32; ho * wo * cols];
    for oy in 0..ho {
        for ox in 0..wo {
            let row = oy * wo + ox;
            for ic in 0..cin {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let v = if iy < 0 || iy >= h as isize || ix < 0 || ix >= wd as isize {
                            0.0
                        } else {
                            x[ic * h * wd + iy as usize * wd + ix as usize]
                        };
                        out[row * cols + (ic * kh + ky) * kw + kx] = v;
                    }
                }
            }
        }
    }
    out
}

/// Softmax + cross-entropy gradient: `(probs - onehot(labels)) / rows`.
pub fn softmax_xent_grad(probs: &[f32], labels: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(probs.len(), rows * cols, "probs size");
    assert_eq!(labels.len(), rows, "labels size");
    let mut dx = probs.to_vec();
    let inv = 1.0 / rows as f32;
    for r in 0..rows {
        let cls = labels[r] as usize;
        assert!(cls < cols, "label out of range");
        dx[r * cols + cls] -= 1.0;
        for v in &mut dx[r * cols..(r + 1) * cols] {
            *v *= inv;
        }
    }
    dx
}

/// `dw[k×n] = xᵀ · dy` for a forward `x[m×k] · w[k×n]`.
pub fn matmul_grad_w(x: &[f32], dy: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(x.len(), m * k, "x size");
    assert_eq!(dy.len(), m * n, "dy size");
    let mut dw = vec![0.0f32; k * n];
    for i in 0..m {
        for p in 0..k {
            let xv = x[i * k + p];
            if xv == 0.0 {
                continue;
            }
            for j in 0..n {
                dw[p * n + j] += xv * dy[i * n + j];
            }
        }
    }
    dw
}

/// `dx[m×k] = dy · wᵀ` for a forward `x[m×k] · w[k×n]`.
pub fn matmul_grad_x(dy: &[f32], w: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(dy.len(), m * n, "dy size");
    assert_eq!(w.len(), k * n, "w size");
    let mut dx = vec![0.0f32; m * k];
    for i in 0..m {
        for j in 0..n {
            let dv = dy[i * n + j];
            if dv == 0.0 {
                continue;
            }
            for p in 0..k {
                dx[i * k + p] += dv * w[p * n + j];
            }
        }
    }
    dx
}

/// ReLU backward.
pub fn relu_grad(x: &[f32], dy: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), dy.len(), "size mismatch");
    x.iter()
        .zip(dy)
        .map(|(&xv, &dv)| if xv > 0.0 { dv } else { 0.0 })
        .collect()
}

/// Column sums of `dy[m×n]` (bias gradient).
pub fn bias_grad(dy: &[f32], m: usize, n: usize) -> Vec<f32> {
    assert_eq!(dy.len(), m * n, "dy size");
    let mut db = vec![0.0f32; n];
    for row in dy.chunks(n) {
        for (d, &v) in db.iter_mut().zip(row) {
            *d += v;
        }
    }
    db
}

/// In-place SGD step: `w -= lr * g`.
pub fn sgd_step(w: &mut [f32], g: &[f32], lr: f32) {
    assert_eq!(w.len(), g.len(), "size mismatch");
    for (wv, &gv) in w.iter_mut().zip(g) {
        *wv -= lr * gv;
    }
}

/// Convolution weight gradient (groups = 1).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_grad_w(
    x: &[f32],
    dy: &[f32],
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    assert_eq!(x.len(), cin * h * wd, "x size");
    assert_eq!(dy.len(), cout * ho * wo, "dy size");
    let mut dw = vec![0.0f32; cout * cin * kh * kw];
    for oc in 0..cout {
        for ic in 0..cin {
            for ky in 0..kh {
                for kx in 0..kw {
                    let mut acc = 0.0f32;
                    for oy in 0..ho {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..wo {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= wd as isize {
                                continue;
                            }
                            acc += x[ic * h * wd + iy as usize * wd + ix as usize]
                                * dy[oc * ho * wo + oy * wo + ox];
                        }
                    }
                    dw[((oc * cin + ic) * kh + ky) * kw + kx] = acc;
                }
            }
        }
    }
    dw
}

/// Convolution input gradient (groups = 1).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_grad_x(
    dy: &[f32],
    w: &[f32],
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    assert_eq!(dy.len(), cout * ho * wo, "dy size");
    assert_eq!(w.len(), cout * cin * kh * kw, "w size");
    let mut dx = vec![0.0f32; cin * h * wd];
    for oc in 0..cout {
        for oy in 0..ho {
            for ox in 0..wo {
                let dv = dy[oc * ho * wo + oy * wo + ox];
                if dv == 0.0 {
                    continue;
                }
                for ic in 0..cin {
                    for ky in 0..kh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= wd as isize {
                                continue;
                            }
                            dx[ic * h * wd + iy as usize * wd + ix as usize] +=
                                dv * w[((oc * cin + ic) * kh + ky) * kw + kx];
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Pooling backward.
#[allow(clippy::too_many_arguments)]
pub fn pool_grad(
    x: &[f32],
    dy: &[f32],
    c: usize,
    h: usize,
    wd: usize,
    win: usize,
    stride: usize,
    kind: PoolKind,
) -> Vec<f32> {
    let ho = out_dim(h as u32, win as u32, stride as u32, 0) as usize;
    let wo = out_dim(wd as u32, win as u32, stride as u32, 0) as usize;
    assert_eq!(x.len(), c * h * wd, "x size");
    assert_eq!(dy.len(), c * ho * wo, "dy size");
    let mut dx = vec![0.0f32; c * h * wd];
    for ch in 0..c {
        for oy in 0..ho {
            for ox in 0..wo {
                let dv = dy[ch * ho * wo + oy * wo + ox];
                match kind {
                    PoolKind::Max => {
                        let mut best = f32::NEG_INFINITY;
                        let mut arg = (0, 0);
                        for ky in 0..win {
                            for kx in 0..win {
                                let v =
                                    x[ch * h * wd + (oy * stride + ky) * wd + (ox * stride + kx)];
                                if v > best {
                                    best = v;
                                    arg = (oy * stride + ky, ox * stride + kx);
                                }
                            }
                        }
                        dx[ch * h * wd + arg.0 * wd + arg.1] += dv;
                    }
                    PoolKind::Avg => {
                        let share = dv / (win * win) as f32;
                        for ky in 0..win {
                            for kx in 0..win {
                                dx[ch * h * wd + (oy * stride + ky) * wd + (ox * stride + kx)] +=
                                    share;
                            }
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Seeded test data shared by the kernel and executor differential tests.
#[cfg(test)]
pub(crate) mod testdata {
    use super::ActKind;

    /// SplitMix64 stream: shapes and values drawn from one proptest seed.
    pub(crate) struct Draw(pub(crate) u64);

    impl Draw {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..hi`.
        pub(crate) fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo) as u64) as usize
        }

        /// A finite value in `[-4, 4)`, exactly `0.0` one time in six (to
        /// exercise the GEMM zero skip); with `special`, also NaN with a
        /// random payload and sign, `±∞` and `±0.0`.
        pub(crate) fn val(&mut self, special: bool) -> f32 {
            let r = self.next();
            match (special, r % 12) {
                (true, 0) => f32::from_bits((r >> 32) as u32 & 0x803f_ffff | 0x7fc0_0000),
                (true, 1) => f32::INFINITY,
                (true, 2) => f32::NEG_INFINITY,
                (true, 3) => -0.0,
                (_, 4 | 5) => 0.0,
                _ => ((r >> 11) as f32 / (1u64 << 53) as f32) * 8.0 - 4.0,
            }
        }

        pub(crate) fn vals(&mut self, n: usize, special: bool) -> Vec<f32> {
            (0..n).map(|_| self.val(special)).collect()
        }

        pub(crate) fn act(&mut self) -> ActKind {
            ActKind::from_u32(self.range(0, 6) as u32).expect("six kinds")
        }
    }

    /// Bitwise equality, except that any NaN matches any NaN: Rust leaves
    /// the payload of a NaN produced by arithmetic unspecified.
    pub(crate) fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    pub(crate) fn le_bytes(v: &[f32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testdata::{bits, le_bytes, same_bits, Draw};
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn activations() {
        assert_eq!(apply_act(ActKind::Relu, -2.0), 0.0);
        assert_eq!(apply_act(ActKind::Relu, 2.0), 2.0);
        assert_eq!(apply_act(ActKind::Relu6, 9.0), 6.0);
        assert!((apply_act(ActKind::LeakyRelu, -1.0) + 0.1).abs() < 1e-6);
        assert!((apply_act(ActKind::Sigmoid, 0.0) - 0.5).abs() < 1e-6);
        assert!((apply_act(ActKind::Tanh, 0.0)).abs() < 1e-6);
        assert_eq!(apply_act(ActKind::None, 3.5), 3.5);
    }

    #[test]
    fn matmul_small() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let out = matmul(&[1., 2., 3., 4.], &[5., 6., 7., 8.], 2, 2, 2);
        assert_eq!(out, vec![19., 22., 43., 50.]);
    }

    #[test]
    fn fc_bias_and_act() {
        let out = fully_connected(
            &[1., -1.],
            &[1., 0., 0., 1.],
            Some(&[0.5, -10.0]),
            1,
            2,
            2,
            ActKind::Relu,
        );
        assert_eq!(out, vec![1.5, 0.0]);
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x3x3 input, 1x1x1x1 kernel of weight 2 => doubled input.
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let out = conv2d(&x, &[2.0], None, 1, 3, 3, 1, 1, 1, 1, 0, 1, ActKind::None);
        assert_close(&out, &x.iter().map(|v| v * 2.0).collect::<Vec<_>>(), 1e-6);
    }

    #[test]
    fn conv_padding_and_stride() {
        // 1x2x2 input, 2x2 kernel of ones, stride 2, pad 1 -> 4 outputs,
        // each seeing exactly one input element.
        let out = conv2d(
            &[1., 2., 3., 4.],
            &[1., 1., 1., 1.],
            None,
            1,
            2,
            2,
            1,
            2,
            2,
            2,
            1,
            1,
            ActKind::None,
        );
        assert_eq!(out, vec![1., 2., 3., 4.]);
    }

    #[test]
    fn depthwise_conv_groups() {
        // 2 channels, each with its own 1x1 kernel: [x1*10, x2*100].
        let out = conv2d(
            &[1., 2., 3., 4., 5., 6., 7., 8.],
            &[10., 100.],
            None,
            2,
            2,
            2,
            2,
            1,
            1,
            1,
            0,
            2,
            ActKind::None,
        );
        assert_eq!(out, vec![10., 20., 30., 40., 500., 600., 700., 800.]);
    }

    #[test]
    fn conv_equals_im2col_matmul() {
        // The ACL lowering identity the Mali path relies on:
        // conv(x, w) == im2col(x) · reshape(w).
        let x: Vec<f32> = (0..3 * 5 * 5).map(|v| (v as f32 * 0.37).sin()).collect();
        let w: Vec<f32> = (0..4 * 3 * 3 * 3)
            .map(|v| (v as f32 * 0.11).cos())
            .collect();
        let direct = conv2d(&x, &w, None, 3, 5, 5, 4, 3, 3, 1, 1, 1, ActKind::None);

        let cols = im2col(&x, 3, 5, 5, 3, 3, 1, 1);
        // cols is (ho*wo) x (cin*kh*kw); w as (cout) x (cin*kh*kw).
        // direct[oc, pix] = dot(w[oc], cols[pix]) = (cols · wᵀ)[pix, oc].
        let howo = 25;
        let ckk = 27;
        let mut wt = vec![0.0f32; ckk * 4];
        for oc in 0..4 {
            for i in 0..ckk {
                wt[i * 4 + oc] = w[oc * ckk + i];
            }
        }
        let viagemm = matmul(&cols, &wt, howo, ckk, 4);
        // viagemm is pix-major; transpose to channel-major to compare.
        let mut t = vec![0.0f32; howo * 4];
        for pix in 0..howo {
            for oc in 0..4 {
                t[oc * howo + pix] = viagemm[pix * 4 + oc];
            }
        }
        assert_close(&t, &direct, 1e-4);
    }

    #[test]
    fn conv_fast_matches_reference_bit_exactly() {
        // The fast loop nest must be indistinguishable from the reference
        // down to the last ulp: same taps, same per-output accumulation
        // order. Sweep shapes that exercise padding, stride, groups,
        // non-square kernels, and kernels larger than the input.
        let cases = [
            // (cin, h, wd, cout, kh, kw, stride, pad, groups)
            (3, 5, 5, 4, 3, 3, 1, 1, 1),
            (1, 28, 28, 8, 5, 5, 1, 2, 1),
            (2, 9, 7, 6, 3, 5, 2, 2, 2),
            (4, 4, 4, 4, 1, 1, 1, 0, 4),
            (2, 3, 3, 2, 7, 7, 1, 3, 1),
            (3, 11, 13, 5, 4, 2, 3, 1, 1),
            (2, 2, 2, 2, 8, 8, 2, 4, 2),
        ];
        for (cin, h, wd, cout, kh, kw, stride, pad, groups) in cases {
            let x: Vec<f32> = (0..cin * h * wd)
                .map(|v| ((v as f32) * 0.731).sin() * 3.0)
                .collect();
            let w: Vec<f32> = (0..cout * (cin / groups) * kh * kw)
                .map(|v| ((v as f32) * 0.377).cos() * 0.5)
                .collect();
            let b: Vec<f32> = (0..cout).map(|v| v as f32 * 0.1 - 0.2).collect();
            for (bias, act) in [(None, ActKind::None), (Some(&b[..]), ActKind::Relu)] {
                let fast = conv2d_fast(
                    &x, &w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
                );
                let reference = conv2d_reference(
                    &x, &w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
                );
                assert_eq!(
                    fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "shape cin={cin} h={h} wd={wd} cout={cout} kh={kh} kw={kw} \
                     stride={stride} pad={pad} groups={groups}"
                );
            }
        }
    }

    #[test]
    fn im2col_fast_matches_reference_bit_exactly() {
        for (cin, h, wd, kh, kw, stride, pad) in [
            (3, 5, 5, 3, 3, 1, 1),
            (1, 28, 28, 5, 5, 1, 2),
            (2, 7, 9, 4, 6, 2, 3),
            (2, 3, 3, 7, 7, 1, 3),
            (1, 4, 4, 2, 2, 3, 0),
        ] {
            let x: Vec<f32> = (0..cin * h * wd)
                .map(|v| ((v as f32) * 0.913).sin())
                .collect();
            let fast = im2col(&x, cin, h, wd, kh, kw, stride, pad);
            let slow = im2col_reference(&x, cin, h, wd, kh, kw, stride, pad);
            assert_eq!(
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "shape cin={cin} h={h} wd={wd} kh={kh} kw={kw} stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn pooling_max_and_avg() {
        let x = vec![1., 2., 3., 4.];
        assert_eq!(pool2d(&x, 1, 2, 2, 2, 2, PoolKind::Max), vec![4.]);
        assert_eq!(pool2d(&x, 1, 2, 2, 2, 2, PoolKind::Avg), vec![2.5]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let out = softmax(&[1., 2., 3., 1., 1., 1.], 2, 3);
        for r in 0..2 {
            let s: f32 = out[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(out[2] > out[1] && out[1] > out[0]);
        assert_close(&out[3..6], &[1.0 / 3.0; 3], 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let out = softmax(&[1000.0, 1001.0], 1, 2);
        assert!(out.iter().all(|v| v.is_finite()));
        assert!((out[0] + out[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn upsample_and_batchnorm() {
        let up = upsample2x(&[1., 2., 3., 4.], 1, 2, 2);
        assert_eq!(
            up,
            vec![1., 1., 2., 2., 1., 1., 2., 2., 3., 3., 4., 4., 3., 3., 4., 4.]
        );
        let bn = batchnorm_inf(&[1., 2., 3., 4.], &[2., 10.], &[0.5, -1.0], 2, 2);
        assert_eq!(bn, vec![2.5, 4.5, 29.0, 39.0]);
    }

    #[test]
    fn xent_grad_matches_definition() {
        let probs = vec![0.7, 0.2, 0.1, 0.1, 0.8, 0.1];
        let g = softmax_xent_grad(&probs, &[0.0, 1.0], 2, 3);
        assert_close(&g, &[-0.15, 0.1, 0.05, 0.05, -0.1, 0.05], 1e-6);
    }

    #[test]
    fn matmul_grads_match_finite_difference() {
        let m = 2;
        let k = 3;
        let n = 2;
        let x: Vec<f32> = (0..m * k).map(|v| 0.3 * v as f32 - 0.4).collect();
        let w: Vec<f32> = (0..k * n).map(|v| 0.2 * v as f32 + 0.1).collect();
        // Loss = sum(out). Then dy = ones, dW = xᵀ·1, dX = 1·wᵀ.
        let dy = vec![1.0f32; m * n];
        let dw = matmul_grad_w(&x, &dy, m, k, n);
        let dx = matmul_grad_x(&dy, &w, m, k, n);
        let loss = |x: &[f32], w: &[f32]| -> f32 { matmul(x, w, m, k, n).iter().sum() };
        let eps = 1e-2f32;
        for i in 0..k * n {
            let mut wp = w.clone();
            wp[i] += eps;
            let mut wm = w.clone();
            wm[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw[i]).abs() < 1e-2, "dw[{i}]: {num} vs {}", dw[i]);
        }
        for i in 0..m * k {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-2, "dx[{i}]: {num} vs {}", dx[i]);
        }
    }

    #[test]
    fn conv_grads_match_finite_difference() {
        let (cin, h, wd, cout, kh, kw, stride, pad) = (2, 4, 4, 2, 3, 3, 1, 1);
        let x: Vec<f32> = (0..cin * h * wd)
            .map(|v| ((v * 7 % 13) as f32 - 6.0) * 0.1)
            .collect();
        let w: Vec<f32> = (0..cout * cin * kh * kw)
            .map(|v| ((v * 5 % 11) as f32 - 5.0) * 0.05)
            .collect();
        let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
        let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
        let dy = vec![1.0f32; cout * ho * wo];
        let dw = conv2d_grad_w(&x, &dy, cin, h, wd, cout, kh, kw, stride, pad);
        let dx = conv2d_grad_x(&dy, &w, cin, h, wd, cout, kh, kw, stride, pad);
        let loss = |x: &[f32], w: &[f32]| -> f32 {
            conv2d(
                x,
                w,
                None,
                cin,
                h,
                wd,
                cout,
                kh,
                kw,
                stride,
                pad,
                1,
                ActKind::None,
            )
            .iter()
            .sum()
        };
        let eps = 1e-2f32;
        for i in (0..dw.len()).step_by(7) {
            let mut wp = w.clone();
            wp[i] += eps;
            let mut wm = w.clone();
            wm[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw[i]).abs() < 2e-2, "dw[{i}]: {num} vs {}", dw[i]);
        }
        for i in (0..dx.len()).step_by(5) {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 2e-2, "dx[{i}]: {num} vs {}", dx[i]);
        }
    }

    #[test]
    fn pool_grad_routes_to_argmax() {
        let x = vec![1., 5., 2., 3.];
        let dx = pool_grad(&x, &[10.0], 1, 2, 2, 2, 2, PoolKind::Max);
        assert_eq!(dx, vec![0., 10., 0., 0.]);
        let dxa = pool_grad(&x, &[8.0], 1, 2, 2, 2, 2, PoolKind::Avg);
        assert_eq!(dxa, vec![2., 2., 2., 2.]);
    }

    #[test]
    fn misc_grads_and_sgd() {
        assert_eq!(relu_grad(&[1., -1.], &[5., 5.]), vec![5., 0.]);
        assert_eq!(bias_grad(&[1., 2., 3., 4.], 2, 2), vec![4., 6.]);
        let mut w = vec![1.0f32, 2.0];
        sgd_step(&mut w, &[10.0, -10.0], 0.1);
        assert_close(&w, &[0.0, 3.0], 1e-6);
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(out_dim(224, 11, 4, 2), 55); // AlexNet conv1
        assert_eq!(out_dim(28, 5, 1, 2), 28); // MNIST conv same-pad
        assert_eq!(out_dim(4, 5, 1, 0), 0); // kernel larger than input
    }

    #[test]
    fn out_dim_survives_u32_overflow() {
        // `input + 2 * pad` overflows u32: must not wrap to a tiny padded
        // size (which used to make large kernels spuriously "not fit" or,
        // worse, produce a bogus small output dim).
        assert_eq!(out_dim(u32::MAX, 1, 1, 1), 0, "result exceeds u32");
        assert_eq!(out_dim(u32::MAX, 3, u32::MAX, u32::MAX), 3);
        // Padded size wraps in u32 arithmetic (10 + 2^32 ≡ 10, which is
        // below the kernel and used to yield 0); the true result fits.
        assert_eq!(out_dim(10, u32::MAX, 1, 1 << 31), 12);
        // Large-but-valid dimensions keep the exact formula.
        assert_eq!(out_dim(1 << 30, 1, 1 << 20, 0), 1 << 10);
    }

    /// Feeds `b` to a [`Gemm`] in runs cut at `cuts` (element indices,
    /// any order, duplicates give empty runs).
    fn gemm_in_runs(
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        (m, k, n): (usize, usize, usize),
        act: ActKind,
        cuts: &mut [usize],
    ) -> Vec<f32> {
        let bytes = le_bytes(b);
        let mut g = Gemm::new(a, m, k, n);
        cuts.sort_unstable();
        let mut at = 0;
        for &c in cuts.iter().chain([b.len()].iter()) {
            g.feed(&bytes[at * 4..c * 4]);
            at = c;
        }
        g.finish(bias, act)
    }

    fn gemm_case(seed: u64, special: bool) {
        let mut d = Draw(seed);
        let (m, k, n) = (d.range(1, 4), d.range(0, 24), d.range(0, 40));
        let a = d.vals(m * k, special);
        let b = d.vals(k * n, special);
        let bias = d.vals(n, special);
        let bias = (d.range(0, 2) == 1).then_some(&bias[..]);
        let act = d.act();
        let mut cuts: Vec<usize> = (0..d.range(0, 6)).map(|_| d.range(0, k * n + 1)).collect();
        let streamed = gemm_in_runs(&a, &b, bias, (m, k, n), act, &mut cuts);
        let oracle = fully_connected(&a, &b, bias, m, k, n, act);
        if special {
            assert!(
                same_bits(&streamed, &oracle),
                "seed {seed:#x}: {streamed:?} vs {oracle:?}"
            );
        } else {
            assert_eq!(bits(&streamed), bits(&oracle), "seed {seed:#x}");
        }
        if bias.is_none() && act == ActKind::None {
            let plain = gemm_in_runs(&a, &b, None, (m, k, n), act, &mut cuts);
            assert!(
                same_bits(&plain, &matmul(&a, &b, m, k, n)),
                "seed {seed:#x}"
            );
        }
    }

    /// One random conv shape: groups, strides, pads, kernels larger than
    /// the input, 1×1 maps and depthwise (`cout / groups == 1`) included.
    fn conv_case(seed: u64, special: bool) {
        let mut d = Draw(seed);
        let groups = d.range(1, 4);
        let (cin, cout) = (groups * d.range(1, 4), groups * d.range(1, 7));
        let (h, wd) = if d.range(0, 4) == 0 {
            (1, 1)
        } else {
            (d.range(1, 10), d.range(1, 10))
        };
        let (kh, kw) = (d.range(1, 8), d.range(1, 8));
        let (stride, pad) = (d.range(1, 5), d.range(0, 5));
        let x = d.vals(cin * h * wd, special);
        let w = d.vals(cout * (cin / groups) * kh * kw, special);
        let b = d.vals(cout, special);
        let bias = (d.range(0, 2) == 1).then_some(&b[..]);
        let act = d.act();
        let shape = (cin, h, wd, cout, kh, kw, stride, pad, groups);
        let reference = conv2d_reference(
            &x, &w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
        );
        for (name, out) in [
            (
                "oc_inner",
                conv2d_oc_inner(
                    &x, &w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
                ),
            ),
            (
                "fast",
                conv2d_fast(
                    &x, &w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
                ),
            ),
            (
                "dispatch",
                conv2d(
                    &x, &w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
                ),
            ),
        ] {
            if special {
                assert!(
                    same_bits(&out, &reference),
                    "{name} seed {seed:#x} shape {shape:?}"
                );
            } else {
                assert_eq!(
                    bits(&out),
                    bits(&reference),
                    "{name} seed {seed:#x} shape {shape:?}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn gemm_stream_matches_reference_bit_exactly(seed in any::<u64>()) {
            gemm_case(seed, false);
        }

        #[test]
        fn gemm_stream_matches_reference_on_nan_inf_and_negative_zero(seed in any::<u64>()) {
            gemm_case(seed, true);
        }

        #[test]
        fn conv_loop_orders_match_reference_bit_exactly(seed in any::<u64>()) {
            conv_case(seed, false);
        }

        #[test]
        fn conv_loop_orders_match_reference_on_nan_inf_and_negative_zero(seed in any::<u64>()) {
            conv_case(seed, true);
        }
    }

    #[test]
    fn gemm_keeps_the_zero_skip() {
        // 0 · ∞ is NaN: a term whose `a` is exactly 0.0 must be skipped,
        // as the reference does, not added.
        let b = le_bytes(&[f32::INFINITY, 1.0]);
        let mut g = Gemm::new(&[0.0, 2.0], 1, 2, 1);
        g.feed(&b[..4]);
        g.feed(&b[4..]);
        assert_eq!(g.finish(None, ActKind::None), vec![2.0]);
    }

    #[test]
    fn tap_hull_covers_the_taps_some_output_reads() {
        assert_eq!(tap_hull(1, 3, 1, 1, 1), (1, 2), "k3/pad1 on a 1-wide map");
        assert_eq!(tap_hull(28, 5, 1, 2, 28), (0, 5));
        // Valid taps {0, 3} with a gap: the hull spans it.
        assert_eq!(tap_hull(1, 4, 3, 3, 2), (0, 4));
        // No tap lands inside the input.
        assert_eq!(tap_hull(1, 3, 10, 5, 1), (0, 0));
        let x = vec![1.0f32; 1];
        let out = conv2d_oc_inner(
            &x,
            &[0.5; 2 * 9],
            Some(&[0.25, -0.25]),
            1,
            1,
            1,
            2,
            3,
            3,
            1,
            1,
            1,
            ActKind::None,
        );
        assert_eq!(out, vec![0.75, 0.25]);
    }
}
