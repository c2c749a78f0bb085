//! Shared element data for the viscous-block operators.
//!
//! All three operator applications of the paper (assembled SpMV, non-tensor
//! matrix-free, tensor-product matrix-free) act on the same inputs: the
//! element→node map `E_e` (explicit integers, as §III-D counts), the 8
//! corner coordinates per element (trilinear geometry), the per-quadrature-
//! point effective viscosity, the Dirichlet dofs, and — for Newton — the
//! frozen strain rate `D(u)` and viscosity derivative `η′` (§III-A).

use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::basis::NQ2;
use ptatin_fem::bc::DirichletBc;
use ptatin_mesh::StructuredMesh;

/// Number of quadrature points per element (3×3×3 Gauss).
pub const NQP: usize = 27;

/// Newton-linearization data (§III-A): the tensor coefficient
/// `2η I + 2η′ D(u) ⊗ D(u)` needs `η′ = dη/dI₂` and the frozen strain rate
/// at every quadrature point.
#[derive(Clone, Debug)]
pub struct NewtonData {
    /// `η′` per (element, qp).
    pub eta_prime: Vec<f64>,
    /// Frozen strain rate `D(u)` per (element, qp), symmetric storage
    /// `[xx, yy, zz, yz, xz, xy]`.
    pub d_sym: Vec<[f64; 6]>,
}

/// Everything an operator application needs, owned so operators can be
/// freely shared across solver components.
#[derive(Clone)]
pub struct ViscousOpData {
    /// Number of elements.
    pub nel: usize,
    /// Velocity dofs (3 per Q2 node).
    pub ndof: usize,
    /// Explicit element→node table, `nel × 27` (the integer `E_e`).
    pub enodes: Vec<u32>,
    /// Corner coordinates, `nel × 8` points.
    pub corners: Vec<[[f64; 3]; 8]>,
    /// Effective viscosity per (element, qp), `nel × 27`.
    pub eta: Vec<f64>,
    /// Dirichlet-constrained velocity dofs, sorted and unique (empty =
    /// unconstrained). A list, not a per-dof mask: masking walks the few
    /// boundary dofs instead of scanning every dof.
    pub constrained: Vec<usize>,
    /// Optional Newton coefficient.
    pub newton: Option<NewtonData>,
    /// Element lists by parity colour (8 colours): elements of one colour
    /// share no nodes, so their scatters can run concurrently.
    pub colors: [Vec<u32>; 8],
}

impl ViscousOpData {
    /// Gather the operator inputs from a mesh, coefficient field and
    /// boundary conditions.
    pub fn new(mesh: &StructuredMesh, eta: Vec<f64>, bc: &DirichletBc) -> Self {
        let nel = mesh.num_elements();
        assert_eq!(eta.len(), nel * NQP, "eta must be nel × 27");
        let ndof = 3 * mesh.num_nodes();
        let mut enodes = Vec::with_capacity(nel * NQ2);
        let mut corners = Vec::with_capacity(nel);
        let mut colors: [Vec<u32>; 8] = Default::default();
        for e in 0..nel {
            for n in mesh.element_nodes(e) {
                enodes.push(n as u32);
            }
            corners.push(mesh.element_corner_coords(e));
            let (ei, ej, ek) = mesh.element_ijk(e);
            let color = (ei % 2) + 2 * (ej % 2) + 4 * (ek % 2);
            colors[color].push(e as u32);
        }
        Self {
            nel,
            ndof,
            enodes,
            corners,
            eta,
            constrained: bc.dofs.clone(),
            newton: None,
            colors,
        }
    }

    /// Structural reuse across linearization states: swap in a new
    /// coefficient field while copying the gathered element→node map,
    /// corner coordinates, constrained dofs and colours (plain memcpy)
    /// instead of re-walking the mesh. Clears any attached Newton data.
    pub fn with_new_eta(&self, eta: Vec<f64>) -> Self {
        assert_eq!(eta.len(), self.nel * NQP, "eta must be nel × 27");
        Self {
            nel: self.nel,
            ndof: self.ndof,
            enodes: self.enodes.clone(),
            corners: self.corners.clone(),
            eta,
            constrained: self.constrained.clone(),
            newton: None,
            colors: self.colors.clone(),
        }
    }

    /// Attach Newton-linearization data.
    pub fn with_newton(mut self, newton: NewtonData) -> Self {
        assert_eq!(newton.eta_prime.len(), self.nel * NQP);
        assert_eq!(newton.d_sym.len(), self.nel * NQP);
        self.newton = Some(newton);
        self
    }

    /// The node indices of element `e`.
    #[inline]
    pub fn element_nodes(&self, e: usize) -> &[u32] {
        &self.enodes[e * NQ2..(e + 1) * NQ2]
    }

    /// The viscosities of element `e` (27 entries).
    #[inline]
    pub fn element_eta(&self, e: usize) -> &[f64] {
        &self.eta[e * NQP..(e + 1) * NQP]
    }

    /// Zero Dirichlet-constrained entries of a work vector.
    pub fn mask_vector(&self, x: &mut [f64]) {
        for &d in &self.constrained {
            x[d] = 0.0;
        }
    }

    /// Finish a masked operator application: `y[bc] = x[bc]` (identity on
    /// constrained dofs, matching the assembled elimination).
    pub fn finish_masked(&self, x: &[f64], y: &mut [f64]) {
        for &d in &self.constrained {
            y[d] = x[d];
        }
    }
}

/// Reusable masked-input scratch shared by the matrix-free operators.
///
/// The Krylov hot path applies the operator thousands of times; allocating
/// the masked copy of `x` on every apply costs an allocator round-trip per
/// MatMult. A `Mutex` keeps the owning operator `Sync`; the (rare) case of
/// two concurrent applies on one operator falls back to a fresh allocation
/// instead of serializing them.
pub struct MaskScratch(std::sync::Mutex<Vec<f64>>);

impl MaskScratch {
    pub fn new() -> Self {
        Self(std::sync::Mutex::new(Vec::new()))
    }

    /// Run `f` on a masked copy of `x` (Dirichlet dofs zeroed), reusing the
    /// cached buffer when it is uncontended.
    pub fn with_masked<R>(
        &self,
        data: &ViscousOpData,
        x: &[f64],
        f: impl FnOnce(&[f64]) -> R,
    ) -> R {
        match self.0.try_lock() {
            Ok(mut buf) => {
                buf.clear();
                buf.extend_from_slice(x);
                data.mask_vector(&mut buf);
                f(&buf)
            }
            Err(_) => {
                // ALLOC-OK: fallback when the thread-local scratch is
                // already borrowed (re-entrant masking); the steady-state
                // path above reuses the pooled buffer.
                let mut xm = x.to_vec();
                data.mask_vector(&mut xm);
                f(&xm)
            }
        }
    }
}

impl Default for MaskScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Strain-rate invariants from symmetric storage `[xx,yy,zz,yz,xz,xy]`.
#[inline]
pub fn second_invariant(d: &[f64; 6]) -> f64 {
    // I₂ = ½ D:D = ½(xx²+yy²+zz²) + yz²+xz²+xy²
    0.5 * (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) + d[3] * d[3] + d[4] * d[4] + d[5] * d[5]
}

/// Re-export for convenience of operator modules.
pub use ptatin_fem::assemble::Q2QuadTables as Tables;

/// The standard quadrature tables, built once per process.
pub fn shared_tables() -> &'static Q2QuadTables {
    static TABLES: std::sync::OnceLock<Q2QuadTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(Q2QuadTables::standard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptatin_mesh::StructuredMesh;

    #[test]
    fn colors_never_share_nodes() {
        let mesh = StructuredMesh::new_box(3, 3, 3, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let eta = vec![1.0; mesh.num_elements() * NQP];
        let data = ViscousOpData::new(&mesh, eta, &DirichletBc::new());
        let total: usize = data.colors.iter().map(|c| c.len()).sum();
        assert_eq!(total, data.nel);
        for color in &data.colors {
            let mut seen = std::collections::HashSet::new();
            for &e in color {
                for &n in data.element_nodes(e as usize) {
                    assert!(seen.insert(n), "colour shares node {n}");
                }
            }
        }
    }

    #[test]
    fn masking_roundtrip() {
        let mesh = StructuredMesh::new_box(1, 1, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let eta = vec![1.0; NQP];
        let mut bc = DirichletBc::new();
        bc.set(0, 5.0);
        bc.set(4, -1.0);
        let data = ViscousOpData::new(&mesh, eta, &bc);
        let x = vec![2.0; data.ndof];
        let mut xw = x.clone();
        data.mask_vector(&mut xw);
        assert_eq!(xw[0], 0.0);
        assert_eq!(xw[4], 0.0);
        assert_eq!(xw[1], 2.0);
        let mut y = vec![7.0; data.ndof];
        data.finish_masked(&x, &mut y);
        assert_eq!(y[0], 2.0);
        assert_eq!(y[4], 2.0);
        assert_eq!(y[1], 7.0);
    }

    #[test]
    fn mask_scratch_reuses_buffer_and_masks() {
        let mesh = StructuredMesh::new_box(1, 1, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let eta = vec![1.0; NQP];
        let mut bc = DirichletBc::new();
        bc.set(2, 0.0);
        let data = ViscousOpData::new(&mesh, eta, &bc);
        let scratch = MaskScratch::new();
        let x = vec![3.0; data.ndof];
        for _ in 0..2 {
            scratch.with_masked(&data, &x, |xm| {
                assert_eq!(xm.len(), x.len());
                assert_eq!(xm[2], 0.0);
                assert_eq!(xm[1], 3.0);
            });
        }
        // Re-entrant use (contended lock) still sees a correct mask.
        scratch.with_masked(&data, &x, |outer| {
            scratch.with_masked(&data, &x, |inner| {
                assert_eq!(inner[2], 0.0);
                assert_eq!(outer[2], 0.0);
            });
        });
    }

    #[test]
    fn second_invariant_simple_shear() {
        // Simple shear du/dy = 1: D = [[0, .5, 0], [.5, 0, 0], [0,0,0]],
        // I₂ = ½ D:D = ¼... D:D = 2*(0.5²) = 0.5, I₂ = 0.25.
        let d = [0.0, 0.0, 0.0, 0.0, 0.0, 0.5];
        assert!((second_invariant(&d) - 0.25).abs() < 1e-15);
    }
}
