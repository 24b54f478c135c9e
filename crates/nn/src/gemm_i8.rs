//! Int8 GEMM kernels: `i8×i8` multiply with exact `i32` accumulation.
//!
//! These are the compute core of the deployed-model inference engine
//! ([`crate::layer::Mode::Int8`]): the weight operand is the raw `i8`
//! step grid of the victim's weight file — the very bytes Rowhammer
//! flips — and the activation operand is the dynamically quantized
//! input. Two variants cover the layer shapes:
//!
//! * [`gemm_i8`] — `C = A·B` with `A: [m,k]`, `B: [k,n]` (conv forward:
//!   quantized kernel × im2col columns),
//! * [`gemm_i8_nt`] — `C = A·Bᵀ` with `B: [n,k]` (linear forward:
//!   quantized input × quantized weight rows).
//!
//! Layout mirrors [`crate::gemm`]: the public entry points record an
//! `nn/gemm_i8_flops` histogram sample and split the `m` rows of `C`
//! across the process-wide [`rhb_par`] pool when the product is large
//! enough, while the `*_serial` kernels do the arithmetic and are what
//! batch-parallel layers call from inside their own tasks. All variants
//! share one blocked core: panels are packed into a thread-local arena
//! widened to `i16` and interleaved in *pairs* along `k`, the layout
//! `pmaddwd` wants.
//!
//! # Micro-kernel dispatch
//!
//! The pair-dot micro-kernel comes in three widths, selected once per
//! process by [`KernelKind::auto`] (cpuid via
//! `is_x86_feature_detected!`, overridable with `RHB_I8_KERNEL=
//! scalar|sse2|avx2` for fallback testing):
//!
//! * [`KernelKind::Avx2`] — `_mm256_madd_epi16`, 16-column tiles,
//! * [`KernelKind::Sse2`] — `_mm_madd_epi16`, 8-column tiles (baseline
//!   on x86-64, no detection needed),
//! * [`KernelKind::Scalar`] — portable pair loop, any architecture.
//!
//! `pmaddubsw` (the u8×i8 AVX2 path) is deliberately *not* used: both
//! of our operands are signed steps and `pmaddubsw` saturates its i16
//! intermediate, which would break the exactness contract. Widening to
//! `i16` and using `pmaddwd` keeps every intermediate exact.
//!
//! # Prepacked weights
//!
//! Weights are static per deployed model, so layers cache their packed
//! panels across calls instead of re-packing every forward:
//! [`PackedA`] holds the conv kernel matrix (the `A` operand of
//! `gemm_i8`), [`PackedB`] holds the linear weight matrix (the `Bᵀ`
//! operand of `gemm_i8_nt`), and the `*_pa`/`*_pb` entry points consume
//! them. Packing is pure layout transformation of exact integers, so
//! prepacked products are bit-identical to the pack-on-the-fly path.
//! Cache owners key validity on [`crate::tensor::Tensor::version`] —
//! see `Parameter::generation`.
//!
//! # Determinism
//!
//! Integer accumulation is exact and associative, so any blocking, any
//! packing, any micro-kernel width, and any thread count produce
//! bit-identical `i32` results by construction — a strictly stronger
//! guarantee than the f32 kernels' carefully ordered accumulation.
//!
//! # Overflow
//!
//! Products are bounded by `127·127 = 16129` in magnitude (note
//! `-128·-128` cannot occur on the weight side of a symmetric scheme,
//! but is still safely covered), so a `k`-long dot product stays inside
//! `i32` for every `k ≤` [`MAX_K`]. The public entry points assert this;
//! every layer shape in the repository is orders of magnitude below it.

use std::cell::RefCell;
use std::sync::OnceLock;

/// Register tile height (rows of `C` per micro-kernel call).
const MR: usize = 4;
/// Widest register tile (columns of `C` per AVX2 micro-kernel call);
/// SSE2 and the scalar kernel use half of it.
const NR_MAX: usize = 16;
/// `k`-block: one packed `A`/`B` panel pair stays L1/L2-resident.
const KC: usize = 256;
/// `m`-block per packed `A` panel.
const MC: usize = 64;
/// `n`-block per packed `B` panel.
const NC: usize = 512;

/// Below this many multiply-accumulates (`2·m·n·k`) a product runs
/// serially even on a multi-thread pool. Chosen against a 2-thread int8
/// eval regression on the zoo models: their per-layer products all sit
/// far below any credible cross-thread handoff cost, so only genuinely
/// large products (≥ the 192³ bench scale) may fan out.
pub const PAR_MIN_FLOPS: usize = 1 << 18;

/// Largest inner dimension for which a `k`-long `i8×i8` dot product is
/// guaranteed not to overflow `i32`: `k · 128² ≤ i32::MAX`.
pub const MAX_K: usize = (i32::MAX / (128 * 128)) as usize;

thread_local! {
    /// Per-thread packing arena `(A-panel, B-panel)`, grown monotonically.
    static PACK_I8: RefCell<(Vec<i16>, Vec<i16>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Which pair-dot micro-kernel the blocked core runs.
///
/// All kinds produce bit-identical results (exact integer arithmetic);
/// they differ only in tile width and instruction set. [`auto`] picks
/// the widest one the CPU supports; explicit kinds exist so parity
/// tests can exercise every supported width on any host.
///
/// [`auto`]: KernelKind::auto
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable pair loop, any architecture.
    Scalar,
    /// `_mm_madd_epi16`, 8-column tiles (x86-64 baseline).
    Sse2,
    /// `_mm256_madd_epi16`, 16-column tiles (requires AVX2).
    Avx2,
}

impl KernelKind {
    /// Packed `B`-tile width this kernel consumes.
    pub fn nr(self) -> usize {
        match self {
            KernelKind::Scalar | KernelKind::Sse2 => 8,
            KernelKind::Avx2 => NR_MAX,
        }
    }

    /// Whether this kernel can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            KernelKind::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every kind the current CPU can run, widest last. Parity suites
    /// iterate this so CI exercises each supported width.
    pub fn all_supported() -> Vec<KernelKind> {
        [KernelKind::Scalar, KernelKind::Sse2, KernelKind::Avx2]
            .into_iter()
            .filter(|k| k.is_supported())
            .collect()
    }

    /// Parses an `RHB_I8_KERNEL` value (`scalar`, `sse2`, `avx2`).
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelKind::Scalar),
            "sse2" => Some(KernelKind::Sse2),
            "avx2" => Some(KernelKind::Avx2),
            _ => None,
        }
    }

    /// The process-wide kernel: the widest supported kind, unless
    /// `RHB_I8_KERNEL` forces a narrower one. Resolved once and cached —
    /// mid-process env changes are ignored, which keeps every packed
    /// panel in the process mutually compatible.
    pub fn auto() -> KernelKind {
        static AUTO: OnceLock<KernelKind> = OnceLock::new();
        *AUTO.get_or_init(|| {
            if let Ok(v) = std::env::var("RHB_I8_KERNEL") {
                match KernelKind::parse(&v) {
                    Some(k) if k.is_supported() => return k,
                    Some(k) => eprintln!(
                        "RHB_I8_KERNEL={v}: {k:?} is not supported on this CPU; auto-selecting"
                    ),
                    None => eprintln!(
                        "RHB_I8_KERNEL={v}: unknown kernel, valid values are scalar|sse2|avx2"
                    ),
                }
            }
            *KernelKind::all_supported()
                .last()
                .expect("the scalar kernel is always supported")
        })
    }
}

fn record_flops(m: usize, k: usize, n: usize) {
    rhb_telemetry::observe!("nn/gemm_i8_flops", (2 * m * n * k) as f64);
}

fn should_parallelize(threads: usize, m: usize, k: usize, n: usize) -> bool {
    threads > 1 && m >= 2 && 2 * m * n * k >= PAR_MIN_FLOPS
}

fn assert_no_overflow(k: usize) {
    assert!(
        k <= MAX_K,
        "int8 GEMM inner dimension {k} could overflow the i32 accumulator (max {MAX_K})"
    );
}

/// `C = A·B` (`A: [m,k]`, `B: [k,n]`, `C: [m,n]`, all row-major).
/// Parallelizes over row blocks of `C`; exact at any pool size.
pub fn gemm_i8(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    assert_no_overflow(k);
    record_flops(m, k, n);
    let pool = rhb_par::pool();
    if !should_parallelize(pool.threads(), m, k, n) {
        return gemm_i8_serial(a, b, c, m, k, n);
    }
    let ranges = rhb_par::split_range(m, pool.threads(), MR);
    let chunks = rhb_par::split_slice_mut(c, &ranges, n);
    let tasks: Vec<rhb_par::Task<'_>> = ranges
        .iter()
        .zip(chunks)
        .map(|(r, c_rows)| {
            let a_rows = &a[r.start * k..r.end * k];
            let rows = r.end - r.start;
            Box::new(move || gemm_i8_serial(a_rows, b, c_rows, rows, k, n)) as rhb_par::Task<'_>
        })
        .collect();
    pool.run(tasks);
}

/// `C = A·Bᵀ` (`A: [m,k]`, `B: [n,k]`, `C: [m,n]`). Row-parallel.
pub fn gemm_i8_nt(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    assert_no_overflow(k);
    record_flops(m, k, n);
    let pool = rhb_par::pool();
    if !should_parallelize(pool.threads(), m, k, n) {
        return gemm_i8_nt_serial(a, b, c, m, k, n);
    }
    let ranges = rhb_par::split_range(m, pool.threads(), 1);
    let chunks = rhb_par::split_slice_mut(c, &ranges, n);
    let tasks: Vec<rhb_par::Task<'_>> = ranges
        .iter()
        .zip(chunks)
        .map(|(r, c_rows)| {
            let a_rows = &a[r.start * k..r.end * k];
            let rows = r.end - r.start;
            Box::new(move || gemm_i8_nt_serial(a_rows, b, c_rows, rows, k, n)) as rhb_par::Task<'_>
        })
        .collect();
    pool.run(tasks);
}

/// How the `B` operand is stored in memory.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BLayout {
    /// Row-major `[k, n]`.
    Nn,
    /// Row-major `[n, k]` (i.e. `Bᵀ` of the product).
    Nt,
}

/// Serial blocked `C = A·B` (`B: [k,n]`). Packs pair-interleaved `i16`
/// panels into the thread-local arena and runs the micro-kernel with
/// `C`-resident `i32` accumulation across `k`-blocks.
pub fn gemm_i8_serial(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    gemm_i8_serial_with_kernel(KernelKind::auto(), a, b, c, m, k, n);
}

/// [`gemm_i8_serial`] with an explicitly chosen micro-kernel. Parity
/// suites use this to prove every supported width produces the same
/// bits; production code should go through the auto-dispatched entry.
///
/// # Panics
///
/// Panics if `kernel` is not supported on this CPU.
pub fn gemm_i8_serial_with_kernel(
    kernel: KernelKind,
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm_i8_blocked(kernel, a, b, c, m, k, n, BLayout::Nn);
}

/// Serial blocked `C = A·Bᵀ` (`B: [n,k]`). Same core as
/// [`gemm_i8_serial`]; only the `B` packing reads transposed.
pub fn gemm_i8_nt_serial(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    gemm_i8_nt_serial_with_kernel(KernelKind::auto(), a, b, c, m, k, n);
}

/// [`gemm_i8_nt_serial`] with an explicitly chosen micro-kernel.
///
/// # Panics
///
/// Panics if `kernel` is not supported on this CPU.
pub fn gemm_i8_nt_serial_with_kernel(
    kernel: KernelKind,
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    gemm_i8_blocked(kernel, a, b, c, m, k, n, BLayout::Nt);
}

#[allow(clippy::too_many_arguments)]
fn gemm_i8_blocked(
    kernel: KernelKind,
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
    layout: BLayout,
) {
    assert!(
        kernel.is_supported(),
        "{kernel:?} micro-kernel is not supported on this CPU"
    );
    assert_no_overflow(k);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let nrw = kernel.nr();
    PACK_I8.with(|pack| {
        let mut pack = pack.borrow_mut();
        let (apack, bpack) = &mut *pack;
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let kc2 = kc.next_multiple_of(2);
                pack_b_panel(b, bpack, k, n, pc, kc, jc, nc, layout, nrw);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack_a_panel(a, apack, k, ic, mc, pc, kc);
                    run_tiles(kernel, apack, bpack, c, n, ic, jc, mc, nc, kc2);
                }
            }
        }
    });
}

/// The register-tile loop over one packed `(A-block, B-block)` pair:
/// `B` tiles are `nr`-wide for the given kernel, `A` tiles `MR`-tall.
#[allow(clippy::too_many_arguments)]
fn run_tiles(
    kernel: KernelKind,
    ablock: &[i16],
    bblock: &[i16],
    c: &mut [i32],
    n: usize,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc2: usize,
) {
    let nrw = kernel.nr();
    for jr in (0..nc).step_by(nrw) {
        let nr = nrw.min(nc - jr);
        let btile = &bblock[(jr / nrw) * kc2 * nrw..][..kc2 * nrw];
        for ir in (0..mc).step_by(MR) {
            let mr = MR.min(mc - ir);
            let atile = &ablock[(ir / MR) * kc2 * MR..][..kc2 * MR];
            let (row0, col0) = (ic + ir, jc + jr);
            match kernel {
                KernelKind::Scalar => {
                    microkernel_scalar(atile, btile, c, n, row0, col0, mr, nr, kc2, nrw)
                }
                #[cfg(target_arch = "x86_64")]
                KernelKind::Sse2 => microkernel_sse2(atile, btile, c, n, row0, col0, mr, nr, kc2),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: gemm_i8_blocked asserted `kernel.is_supported()`,
                // which for Avx2 means the CPU reports the avx2 feature.
                KernelKind::Avx2 => unsafe {
                    microkernel_avx2(atile, btile, c, n, row0, col0, mr, nr, kc2)
                },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("non-scalar kernels are x86-64 only"),
            }
        }
    }
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` into `MR`-row tiles, sign-extending
/// each step to `i16` and interleaving `k` in pairs: within tile `t`,
/// pair `p` stores `[row0 k₂ₚ, row0 k₂ₚ₊₁, row1 k₂ₚ, …]` — so the
/// micro-kernel broadcasts one row's pair with a single 32-bit read.
/// Rows beyond `mc` and the odd trailing `k` are zero-padded (exact:
/// a zero step contributes nothing to an integer dot product). The `A`
/// layout depends only on `MR`, never on the kernel width, so one
/// packing serves every micro-kernel.
fn pack_a_panel(
    a: &[i8],
    apack: &mut Vec<i16>,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let kc2 = kc.next_multiple_of(2);
    let tiles = mc.div_ceil(MR);
    apack.clear();
    apack.resize(tiles * kc2 * MR, 0);
    for t in 0..tiles {
        let dst = &mut apack[t * kc2 * MR..(t + 1) * kc2 * MR];
        let rows = MR.min(mc - t * MR);
        for p in 0..kc2 / 2 {
            for i in 0..rows {
                let row = &a[(ic + t * MR + i) * k + pc..];
                dst[p * MR * 2 + i * 2] = i16::from(row[2 * p]);
                if 2 * p + 1 < kc {
                    dst[p * MR * 2 + i * 2 + 1] = i16::from(row[2 * p + 1]);
                }
            }
        }
    }
}

/// Packs a `kc × nc` block of `B` into `nr`-column tiles, sign-extending
/// to `i16` and interleaving `k` in pairs: within tile `t`, pair `p`
/// stores `[col0 k₂ₚ, col0 k₂ₚ₊₁, col1 k₂ₚ, …]` for all `nr` columns —
/// `2·nr` consecutive `i16`, i.e. exactly the `pmaddwd` operands for an
/// `nr`-wide column tile. Zero-padded like the `A` panel.
#[allow(clippy::too_many_arguments)]
fn pack_b_panel(
    b: &[i8],
    bpack: &mut Vec<i16>,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    layout: BLayout,
    nr: usize,
) {
    let kc2 = kc.next_multiple_of(2);
    let tiles = nc.div_ceil(nr);
    bpack.clear();
    bpack.resize(tiles * kc2 * nr, 0);
    #[cfg(target_arch = "x86_64")]
    let vectorize =
        nr == 16 && matches!(layout, BLayout::Nn) && std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let vectorize = false;
    let at = |kk: usize, j: usize| -> i16 {
        match layout {
            BLayout::Nn => i16::from(b[(pc + kk) * n + jc + j]),
            BLayout::Nt => i16::from(b[(jc + j) * k + pc + kk]),
        }
    };
    for t in 0..tiles {
        let dst = &mut bpack[t * kc2 * nr..(t + 1) * kc2 * nr];
        let cols = nr.min(nc - t * nr);
        #[cfg(target_arch = "x86_64")]
        if vectorize && cols == 16 {
            // Full 16-column tile of a row-major B: pair p interleaves
            // two contiguous k-rows, which is exactly one unpack+permute
            // sequence per pair instead of 32 scalar gathers.
            for p in 0..kc / 2 {
                let r0 = (pc + 2 * p) * n + jc + t * nr;
                let r1 = r0 + n;
                // SAFETY: avx2 verified above; both 16-byte loads stay
                // inside their own B row (jc + t·nr + 16 ≤ jc + nc ≤ n)
                // and dst has 32 i16 at offset p·32 (kc2 ≥ 2(p+1)).
                unsafe {
                    pack_pair_avx2(
                        &b[r0..r0 + 16],
                        &b[r1..r1 + 16],
                        &mut dst[p * 32..p * 32 + 32],
                    );
                }
            }
            if kc % 2 == 1 {
                let p = kc / 2;
                for j in 0..16 {
                    dst[p * 32 + j * 2] = at(kc - 1, t * nr + j);
                }
            }
            continue;
        }
        for p in 0..kc2 / 2 {
            for j in 0..cols {
                dst[p * nr * 2 + j * 2] = at(2 * p, t * nr + j);
                if 2 * p + 1 < kc {
                    dst[p * nr * 2 + j * 2 + 1] = at(2 * p + 1, t * nr + j);
                }
            }
        }
    }
}

/// Interleaves two 16-wide `i8` rows into the pair layout `[r0[0],
/// r1[0], r0[1], r1[1], …]` as sign-extended `i16` — one packed pair of
/// a 16-column B tile.
///
/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack_pair_avx2(row0: &[i8], row1: &[i8], dst: &mut [i16]) {
    use std::arch::x86_64::*;
    debug_assert!(row0.len() >= 16 && row1.len() >= 16 && dst.len() >= 32);
    let a = _mm256_cvtepi8_epi16(_mm_loadu_si128(row0.as_ptr() as *const __m128i));
    let b = _mm256_cvtepi8_epi16(_mm_loadu_si128(row1.as_ptr() as *const __m128i));
    // unpack interleaves within 128-bit lanes; the cross-lane permutes
    // restore sequential column order: [cols 0..8 | cols 8..16].
    let lo = _mm256_unpacklo_epi16(a, b);
    let hi = _mm256_unpackhi_epi16(a, b);
    let out = dst.as_mut_ptr() as *mut __m256i;
    _mm256_storeu_si256(out, _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_storeu_si256(out.add(1), _mm256_permute2x128_si256(lo, hi, 0x31));
}

/// A conv weight matrix (`A` operand of [`gemm_i8`]) packed once into
/// pair-interleaved `MR`-row tiles for *all* `(k-block, m-block)`
/// combinations the blocked loop will visit.
///
/// Weights are static per deployed model, so layers build this once and
/// reuse it every forward call via [`gemm_i8_pa_serial`]; the owner
/// must invalidate it when the underlying parameter's generation
/// changes (see `Parameter::generation`). The layout depends only on
/// `MR`, so one `PackedA` serves every [`KernelKind`].
pub struct PackedA {
    data: Vec<i16>,
    /// Per-`(pc, ic)` block start offset into `data`, row-major over
    /// `(k-blocks, m-blocks)`.
    offsets: Vec<usize>,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Packs the full `[m, k]` matrix.
    pub fn pack(a: &[i8], m: usize, k: usize) -> PackedA {
        assert_eq!(a.len(), m * k, "PackedA operand size mismatch");
        let kblocks = k.div_ceil(KC).max(1);
        let mblocks = m.div_ceil(MC).max(1);
        let mut data = Vec::new();
        let mut offsets = Vec::with_capacity(kblocks * mblocks);
        let mut panel = Vec::new();
        for pc in (0..k.max(1)).step_by(KC) {
            let kc = KC.min(k - pc);
            for ic in (0..m.max(1)).step_by(MC) {
                let mc = MC.min(m - ic);
                offsets.push(data.len());
                pack_a_panel(a, &mut panel, k, ic, mc, pc, kc);
                data.extend_from_slice(&panel);
            }
        }
        PackedA {
            data,
            offsets,
            m,
            k,
        }
    }

    /// Rows of the packed matrix.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Inner dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    fn block(&self, pc_idx: usize, ic_idx: usize) -> &[i16] {
        let mblocks = self.m.div_ceil(MC).max(1);
        let idx = pc_idx * mblocks + ic_idx;
        let start = self.offsets[idx];
        let end = self
            .offsets
            .get(idx + 1)
            .copied()
            .unwrap_or(self.data.len());
        &self.data[start..end]
    }
}

/// Serial blocked `C = A·B` with a prepacked `A` (`B: [k,n]` packed
/// per call into the thread-local arena). Bit-identical to
/// [`gemm_i8_serial`] on the same operands.
pub fn gemm_i8_pa_serial(pa: &PackedA, b: &[i8], c: &mut [i32], n: usize) {
    gemm_i8_pa_serial_with_kernel(KernelKind::auto(), pa, b, c, n);
}

/// [`gemm_i8_pa_serial`] with an explicitly chosen micro-kernel.
///
/// # Panics
///
/// Panics if `kernel` is not supported on this CPU.
pub fn gemm_i8_pa_serial_with_kernel(
    kernel: KernelKind,
    pa: &PackedA,
    b: &[i8],
    c: &mut [i32],
    n: usize,
) {
    assert!(
        kernel.is_supported(),
        "{kernel:?} micro-kernel is not supported on this CPU"
    );
    let (m, k) = (pa.m, pa.k);
    assert_no_overflow(k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let nrw = kernel.nr();
    PACK_I8.with(|pack| {
        let mut pack = pack.borrow_mut();
        let (_, bpack) = &mut *pack;
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for (pc_idx, pc) in (0..k).step_by(KC).enumerate() {
                let kc = KC.min(k - pc);
                let kc2 = kc.next_multiple_of(2);
                pack_b_panel(b, bpack, k, n, pc, kc, jc, nc, BLayout::Nn, nrw);
                for (ic_idx, ic) in (0..m).step_by(MC).enumerate() {
                    let mc = MC.min(m - ic);
                    let ablock = pa.block(pc_idx, ic_idx);
                    run_tiles(kernel, ablock, bpack, c, n, ic, jc, mc, nc, kc2);
                }
            }
        }
    });
}

/// A linear weight matrix (`B: [n,k]`, the `Bᵀ` operand of
/// [`gemm_i8_nt`]) packed once into pair-interleaved column tiles for
/// the kernel recorded at pack time.
///
/// Unlike [`PackedA`], the `B` layout depends on the kernel's tile
/// width, so the packing records which [`KernelKind`] it was built for
/// and the consuming GEMM runs that kernel. Owners invalidate on
/// parameter generation change, exactly like `PackedA`.
pub struct PackedB {
    data: Vec<i16>,
    /// Per-`(jc, pc)` block start offset, row-major over
    /// `(n-blocks, k-blocks)`.
    offsets: Vec<usize>,
    n: usize,
    k: usize,
    kernel: KernelKind,
}

impl PackedB {
    /// Packs the full `[n, k]` (transposed-layout) matrix for the
    /// process-wide auto kernel.
    pub fn pack_nt(b: &[i8], n: usize, k: usize) -> PackedB {
        PackedB::pack_nt_with_kernel(KernelKind::auto(), b, n, k)
    }

    /// [`pack_nt`](Self::pack_nt) for an explicit kernel (parity tests).
    pub fn pack_nt_with_kernel(kernel: KernelKind, b: &[i8], n: usize, k: usize) -> PackedB {
        assert_eq!(b.len(), n * k, "PackedB operand size mismatch");
        let nrw = kernel.nr();
        let mut data = Vec::new();
        let mut offsets = Vec::new();
        let mut panel = Vec::new();
        for jc in (0..n.max(1)).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k.max(1)).step_by(KC) {
                let kc = KC.min(k - pc);
                offsets.push(data.len());
                pack_b_panel(b, &mut panel, k, n, pc, kc, jc, nc, BLayout::Nt, nrw);
                data.extend_from_slice(&panel);
            }
        }
        PackedB {
            data,
            offsets,
            n,
            k,
            kernel,
        }
    }

    /// Columns of the logical product (rows of the stored `[n,k]`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Inner dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The kernel this packing was built for.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    fn block(&self, jc_idx: usize, pc_idx: usize) -> &[i16] {
        let kblocks = self.k.div_ceil(KC).max(1);
        let idx = jc_idx * kblocks + pc_idx;
        let start = self.offsets[idx];
        let end = self
            .offsets
            .get(idx + 1)
            .copied()
            .unwrap_or(self.data.len());
        &self.data[start..end]
    }
}

/// `C = A·Bᵀ` with a prepacked `B`. Row-parallel like [`gemm_i8_nt`];
/// bit-identical to it on the same operands.
pub fn gemm_i8_nt_pb(a: &[i8], pb: &PackedB, c: &mut [i32], m: usize) {
    let (k, n) = (pb.k, pb.n);
    assert_no_overflow(k);
    record_flops(m, k, n);
    let pool = rhb_par::pool();
    if !should_parallelize(pool.threads(), m, k, n) {
        return gemm_i8_nt_pb_serial(a, pb, c, m);
    }
    let ranges = rhb_par::split_range(m, pool.threads(), 1);
    let chunks = rhb_par::split_slice_mut(c, &ranges, n);
    let tasks: Vec<rhb_par::Task<'_>> = ranges
        .iter()
        .zip(chunks)
        .map(|(r, c_rows)| {
            let a_rows = &a[r.start * k..r.end * k];
            let rows = r.end - r.start;
            Box::new(move || gemm_i8_nt_pb_serial(a_rows, pb, c_rows, rows)) as rhb_par::Task<'_>
        })
        .collect();
    pool.run(tasks);
}

/// Serial blocked `C = A·Bᵀ` with a prepacked `B` (`A` packed per call
/// into the thread-local arena).
pub fn gemm_i8_nt_pb_serial(a: &[i8], pb: &PackedB, c: &mut [i32], m: usize) {
    let kernel = pb.kernel;
    assert!(
        kernel.is_supported(),
        "{kernel:?} micro-kernel is not supported on this CPU"
    );
    let (k, n) = (pb.k, pb.n);
    assert_no_overflow(k);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    PACK_I8.with(|pack| {
        let mut pack = pack.borrow_mut();
        let (apack, _) = &mut *pack;
        for (jc_idx, jc) in (0..n).step_by(NC).enumerate() {
            let nc = NC.min(n - jc);
            for (pc_idx, pc) in (0..k).step_by(KC).enumerate() {
                let kc = KC.min(k - pc);
                let kc2 = kc.next_multiple_of(2);
                let bblock = pb.block(jc_idx, pc_idx);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack_a_panel(a, apack, k, ic, mc, pc, kc);
                    run_tiles(kernel, apack, bblock, c, n, ic, jc, mc, nc, kc2);
                }
            }
        }
    });
}

/// Portable pair-loop micro-kernel: identical pair-interleaved panel
/// layout, identical (exact) integer results at any tile width `nrw`.
/// This is the reference every SIMD kernel is parity-tested against.
#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel_scalar(
    atile: &[i16],
    btile: &[i16],
    c: &mut [i32],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    kc2: usize,
    nrw: usize,
) {
    debug_assert!(nrw <= NR_MAX);
    let mut acc = [[0i32; NR_MAX]; MR];
    for p in 0..kc2 / 2 {
        let apair = &atile[p * MR * 2..][..MR * 2];
        let bpair = &btile[p * nrw * 2..][..nrw * 2];
        for i in 0..MR {
            let a0 = i32::from(apair[i * 2]);
            let a1 = i32::from(apair[i * 2 + 1]);
            let acc_row = &mut acc[i];
            for j in 0..nrw {
                acc_row[j] += a0 * i32::from(bpair[j * 2]) + a1 * i32::from(bpair[j * 2 + 1]);
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate().take(mr) {
        let c_row = &mut c[(row0 + i) * n + col0..][..nr];
        for (cv, &v) in c_row.iter_mut().zip(&acc_row[..nr]) {
            *cv += v;
        }
    }
}

/// The `MR×8` register tile over pair-interleaved panels: per `k`-pair,
/// each row's two steps are broadcast and multiply-added against 8
/// columns' pairs — one SSE2 `pmaddwd` + `paddd` per 4 columns. SSE2 is
/// part of the x86-64 baseline, so this needs no feature detection.
/// Integer arithmetic is exact, so the pairwise association changes
/// nothing. The live `mr×nr` corner of `C` is accumulated into at the
/// end (`C`-resident blocking across `k`-blocks).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel_sse2(
    atile: &[i16],
    btile: &[i16],
    c: &mut [i32],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    kc2: usize,
) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_loadu_si128, _mm_madd_epi16, _mm_set1_epi32, _mm_setzero_si128,
        _mm_storeu_si128,
    };
    const NR8: usize = 8;
    debug_assert!(atile.len() >= kc2 * MR);
    debug_assert!(btile.len() >= kc2 * NR8);
    // SAFETY: SSE2 is part of the x86-64 baseline, so the intrinsics are
    // always available. All reads stay in bounds: pair index `p` ranges
    // over `kc2/2`, so the B loads touch `i16`s `[p·16, p·16+16)` ≤
    // `kc2·8`, and the unaligned 32-bit A read covers `i16`s
    // `p·MR·2 + i·2 + {0,1}` ≤ `kc2·MR` (both debug-asserted above).
    unsafe {
        let mut acc = [[_mm_setzero_si128(); 2]; MR];
        let ap = atile.as_ptr();
        let bp = btile.as_ptr();
        for p in 0..kc2 / 2 {
            let b0 = _mm_loadu_si128(bp.add(p * 16).cast::<__m128i>());
            let b1 = _mm_loadu_si128(bp.add(p * 16 + 8).cast::<__m128i>());
            let abase = ap.add(p * MR * 2);
            for (i, acc_i) in acc.iter_mut().enumerate() {
                let av = _mm_set1_epi32(abase.add(i * 2).cast::<i32>().read_unaligned());
                acc_i[0] = _mm_add_epi32(acc_i[0], _mm_madd_epi16(av, b0));
                acc_i[1] = _mm_add_epi32(acc_i[1], _mm_madd_epi16(av, b1));
            }
        }
        for (i, acc_i) in acc.iter().enumerate().take(mr) {
            let mut lane = [0i32; NR8];
            _mm_storeu_si128(lane.as_mut_ptr().cast::<__m128i>(), acc_i[0]);
            _mm_storeu_si128(lane.as_mut_ptr().add(4).cast::<__m128i>(), acc_i[1]);
            let c_row = &mut c[(row0 + i) * n + col0..][..nr];
            for (cv, &l) in c_row.iter_mut().zip(&lane[..nr]) {
                *cv += l;
            }
        }
    }
}

/// The `MR×16` AVX2 register tile: the same pair-broadcast scheme as
/// the SSE2 kernel at double width — per `k`-pair, one
/// `_mm256_madd_epi16` + `_mm256_add_epi32` covers 8 columns, two cover
/// the full 16-column tile. Widening accumulation is exact: `pmaddwd`
/// sums two `i16×i16` products into `i32` lanes whose running totals
/// stay inside `i32` for every `k ≤` [`MAX_K`], the same guard as every
/// other kernel.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2
/// (`KernelKind::Avx2.is_supported()`).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(
    atile: &[i16],
    btile: &[i16],
    c: &mut [i32],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    kc2: usize,
) {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256,
    };
    debug_assert!(atile.len() >= kc2 * MR);
    debug_assert!(btile.len() >= kc2 * NR_MAX);
    // SAFETY: all reads stay in bounds — pair index `p` ranges over
    // `kc2/2`, so the B loads touch `i16`s `[p·32, p·32+32)` ≤
    // `kc2·16`, and the unaligned 32-bit A read covers `i16`s
    // `p·MR·2 + i·2 + {0,1}` ≤ `kc2·MR` (both debug-asserted above).
    unsafe {
        let mut acc = [[_mm256_setzero_si256(); 2]; MR];
        let ap = atile.as_ptr();
        let bp = btile.as_ptr();
        for p in 0..kc2 / 2 {
            let b0 = _mm256_loadu_si256(bp.add(p * 32).cast::<__m256i>());
            let b1 = _mm256_loadu_si256(bp.add(p * 32 + 16).cast::<__m256i>());
            let abase = ap.add(p * MR * 2);
            for (i, acc_i) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_epi32(abase.add(i * 2).cast::<i32>().read_unaligned());
                acc_i[0] = _mm256_add_epi32(acc_i[0], _mm256_madd_epi16(av, b0));
                acc_i[1] = _mm256_add_epi32(acc_i[1], _mm256_madd_epi16(av, b1));
            }
        }
        for (i, acc_i) in acc.iter().enumerate().take(mr) {
            let mut lane = [0i32; NR_MAX];
            _mm256_storeu_si256(lane.as_mut_ptr().cast::<__m256i>(), acc_i[0]);
            _mm256_storeu_si256(lane.as_mut_ptr().add(8).cast::<__m256i>(), acc_i[1]);
            let c_row = &mut c[(row0 + i) * n + col0..][..nr];
            for (cv, &l) in c_row.iter_mut().zip(&lane[..nr]) {
                *cv += l;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seed: u64, len: usize) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as i8
            })
            .collect()
    }

    fn naive(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for kk in 0..k {
                    acc += i64::from(a[i * k + kk]) * i64::from(b[kk * n + j]);
                }
                c[i * n + j] = acc as i32;
            }
        }
        c
    }

    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (16, 16, 16),
        (33, 70, 65),
        (4, 300, 9),
        (5, 27, 130),
        (7, 9, 513),
    ];

    #[test]
    fn blocked_matches_naive_for_every_supported_kernel() {
        for kernel in KernelKind::all_supported() {
            for &(m, k, n) in SHAPES {
                let a = fill(m as u64 + 1, m * k);
                let b = fill(n as u64 + 2, k * n);
                let mut c = vec![0i32; m * n];
                gemm_i8_serial_with_kernel(kernel, &a, &b, &mut c, m, k, n);
                assert_eq!(c, naive(&a, &b, m, k, n), "{kernel:?} ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn nt_matches_naive_on_materialized_transpose() {
        for kernel in KernelKind::all_supported() {
            for &(m, k, n) in &[(2, 3, 4), (17, 65, 9), (5, 128, 33)] {
                let a = fill(7, m * k);
                let bt = fill(8, n * k); // stored [n, k]
                let mut b = vec![0i8; k * n];
                for j in 0..n {
                    for kk in 0..k {
                        b[kk * n + j] = bt[j * k + kk];
                    }
                }
                let mut c = vec![0i32; m * n];
                gemm_i8_nt_serial_with_kernel(kernel, &a, &bt, &mut c, m, k, n);
                assert_eq!(c, naive(&a, &b, m, k, n), "{kernel:?} ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn prepacked_a_matches_pack_on_the_fly() {
        for kernel in KernelKind::all_supported() {
            for &(m, k, n) in SHAPES {
                let a = fill(m as u64 + 11, m * k);
                let b = fill(n as u64 + 12, k * n);
                let pa = PackedA::pack(&a, m, k);
                let mut c_pre = vec![0i32; m * n];
                gemm_i8_pa_serial_with_kernel(kernel, &pa, &b, &mut c_pre, n);
                let mut c = vec![0i32; m * n];
                gemm_i8_serial_with_kernel(kernel, &a, &b, &mut c, m, k, n);
                assert_eq!(c_pre, c, "{kernel:?} ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn prepacked_b_matches_pack_on_the_fly() {
        for kernel in KernelKind::all_supported() {
            for &(m, k, n) in &[
                (1, 1, 1),
                (2, 3, 4),
                (17, 65, 9),
                (32, 16, 10),
                (5, 128, 33),
            ] {
                let a = fill(31, m * k);
                let bt = fill(32, n * k);
                let pb = PackedB::pack_nt_with_kernel(kernel, &bt, n, k);
                let mut c_pre = vec![0i32; m * n];
                gemm_i8_nt_pb_serial(&a, &pb, &mut c_pre, m);
                let mut c = vec![0i32; m * n];
                gemm_i8_nt_serial_with_kernel(kernel, &a, &bt, &mut c, m, k, n);
                assert_eq!(c_pre, c, "{kernel:?} ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn parallel_dispatch_is_exact_at_any_thread_count() {
        let (m, k, n) = (64, 96, 80); // above the parallel threshold
        let a = fill(21, m * k);
        let b = fill(22, k * n);
        let bt = fill(23, n * k);
        let mut serial = vec![0i32; m * n];
        gemm_i8_serial(&a, &b, &mut serial, m, k, n);
        let mut c = vec![0i32; m * n];
        gemm_i8(&a, &b, &mut c, m, k, n);
        assert_eq!(serial, c);
        let mut serial_nt = vec![0i32; m * n];
        gemm_i8_nt_serial(&a, &bt, &mut serial_nt, m, k, n);
        let mut c = vec![0i32; m * n];
        gemm_i8_nt(&a, &bt, &mut c, m, k, n);
        assert_eq!(serial_nt, c);
        let pb = PackedB::pack_nt(&bt, n, k);
        let mut c = vec![0i32; m * n];
        gemm_i8_nt_pb(&a, &pb, &mut c, m);
        assert_eq!(serial_nt, c);
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        // All operands at the magnitude extremes; k well inside MAX_K.
        let k = 1024;
        let a = vec![-128i8; k];
        let b = vec![-128i8; k];
        for kernel in KernelKind::all_supported() {
            let mut c = vec![0i32; 1];
            gemm_i8_nt_serial_with_kernel(kernel, &a, &b, &mut c, 1, k, 1);
            assert_eq!(c[0], 1024 * 128 * 128, "{kernel:?}");
            let mut c = vec![0i32; 1];
            gemm_i8_serial_with_kernel(kernel, &a, &b, &mut c, 1, k, 1);
            assert_eq!(c[0], 1024 * 128 * 128, "{kernel:?}");
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn oversized_inner_dimension_is_rejected() {
        let a = vec![0i8; 4];
        let b = vec![0i8; 4];
        let mut c = vec![0i32; 1];
        // Lie about k: the guard fires before any indexing.
        gemm_i8(&a, &b, &mut c, 1, MAX_K + 1, 1);
    }

    #[test]
    fn kernel_parse_round_trips_and_rejects_junk() {
        assert_eq!(KernelKind::parse("scalar"), Some(KernelKind::Scalar));
        assert_eq!(KernelKind::parse("SSE2"), Some(KernelKind::Sse2));
        assert_eq!(KernelKind::parse("Avx2"), Some(KernelKind::Avx2));
        assert_eq!(KernelKind::parse("avx512"), None);
    }

    #[test]
    fn scalar_kernel_is_always_a_supported_fallback() {
        assert!(KernelKind::Scalar.is_supported());
        let all = KernelKind::all_supported();
        assert_eq!(all[0], KernelKind::Scalar);
        assert!(all.contains(&KernelKind::auto()));
    }
}
