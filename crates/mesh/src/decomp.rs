//! Subdomain decomposition of the structured mesh — the analogue of the
//! paper's DMDA spatial decomposition into `m̂ × n̂ × p̂`-element subdomains
//! (§II-D). Subdomains drive the "cores" axis of the scaling tables and
//! material-point migration.

use crate::StructuredMesh;

/// A Cartesian partition of the element grid into `px × py × pz` boxes.
#[derive(Clone, Debug)]
pub struct ElementPartition {
    pub px: usize,
    pub py: usize,
    pub pz: usize,
    /// Element-range starts per dimension, length `p_+1` each.
    xsplit: Vec<usize>,
    ysplit: Vec<usize>,
    zsplit: Vec<usize>,
    mx: usize,
    my: usize,
}

fn splits(m: usize, p: usize) -> Vec<usize> {
    // Near-equal contiguous ranges; all p must be non-empty.
    assert!(p >= 1 && p <= m, "cannot split {m} elements into {p} parts");
    let base = m / p;
    let rem = m % p;
    let mut out = Vec::with_capacity(p + 1);
    let mut s = 0;
    out.push(0);
    for i in 0..p {
        s += base + usize::from(i < rem);
        out.push(s);
    }
    out
}

impl ElementPartition {
    pub fn new(mesh: &StructuredMesh, px: usize, py: usize, pz: usize) -> Self {
        Self {
            px,
            py,
            pz,
            xsplit: splits(mesh.mx, px),
            ysplit: splits(mesh.my, py),
            zsplit: splits(mesh.mz, pz),
            mx: mesh.mx,
            my: mesh.my,
        }
    }

    /// Choose a near-cubic decomposition of `n` subdomains for this mesh.
    /// Falls back to flatter splits when a dimension has too few elements.
    pub fn auto(mesh: &StructuredMesh, n: usize) -> Self {
        let mut best = (1, 1, 1);
        let mut best_score = f64::INFINITY;
        for px in 1..=n {
            if n % px != 0 || px > mesh.mx {
                continue;
            }
            let nyz = n / px;
            for py in 1..=nyz {
                if nyz % py != 0 || py > mesh.my {
                    continue;
                }
                let pz = nyz / py;
                if pz > mesh.mz {
                    continue;
                }
                // Prefer near-equal subdomain side lengths.
                let sx = mesh.mx as f64 / px as f64;
                let sy = mesh.my as f64 / py as f64;
                let sz = mesh.mz as f64 / pz as f64;
                let mean = (sx + sy + sz) / 3.0;
                let score = (sx - mean).powi(2) + (sy - mean).powi(2) + (sz - mean).powi(2);
                if score < best_score {
                    best_score = score;
                    best = (px, py, pz);
                }
            }
        }
        assert!(
            best_score.is_finite(),
            "no valid {n}-subdomain decomposition for {}x{}x{} elements",
            mesh.mx,
            mesh.my,
            mesh.mz
        );
        Self::new(mesh, best.0, best.1, best.2)
    }

    pub fn num_subdomains(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Flat subdomain index for subdomain-grid coordinates.
    #[inline]
    pub fn subdomain_index(&self, si: usize, sj: usize, sk: usize) -> usize {
        si + self.px * (sj + self.py * sk)
    }

    fn locate(split: &[usize], e: usize) -> usize {
        // split is sorted; find the range containing e.
        match split.binary_search(&e) {
            Ok(i) => i.min(split.len() - 2),
            Err(i) => i - 1,
        }
    }

    /// Which subdomain owns element `(ei, ej, ek)`?
    pub fn subdomain_of_element_ijk(&self, ei: usize, ej: usize, ek: usize) -> usize {
        let si = Self::locate(&self.xsplit, ei);
        let sj = Self::locate(&self.ysplit, ej);
        let sk = Self::locate(&self.zsplit, ek);
        self.subdomain_index(si, sj, sk)
    }

    /// Which subdomain owns flat element `e`?
    pub fn subdomain_of_element(&self, e: usize) -> usize {
        let ei = e % self.mx;
        let ej = (e / self.mx) % self.my;
        let ek = e / (self.mx * self.my);
        self.subdomain_of_element_ijk(ei, ej, ek)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> StructuredMesh {
        StructuredMesh::new_box(4, 4, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
    }

    /// Elements per subdomain, counted through `subdomain_of_element`.
    fn owned_counts(m: &StructuredMesh, p: &ElementPartition) -> Vec<usize> {
        let mut counts = vec![0; p.num_subdomains()];
        for e in 0..m.num_elements() {
            counts[p.subdomain_of_element(e)] += 1;
        }
        counts
    }

    #[test]
    fn partition_covers_all_elements_once() {
        let m = mesh();
        let p = ElementPartition::new(&m, 2, 2, 1);
        assert_eq!(owned_counts(&m, &p), vec![16; 4]);
        // The owner of element (i, j, k) is the box its indices fall in.
        for e in 0..m.num_elements() {
            let (i, j, k) = (e % 4, (e / 4) % 4, e / 16);
            assert_eq!(
                p.subdomain_of_element(e),
                p.subdomain_index(i / 2, j / 2, 0)
            );
            assert_eq!(
                p.subdomain_of_element_ijk(i, j, k),
                p.subdomain_of_element(e)
            );
        }
    }

    #[test]
    fn auto_decomposition_is_valid() {
        let m = mesh();
        for n in [1usize, 2, 4, 8] {
            let p = ElementPartition::auto(&m, n);
            assert_eq!(p.num_subdomains(), n);
        }
    }

    #[test]
    fn uneven_splits() {
        // x: 5 elements into ranges of 3 and 2; y and z one element each.
        let m = StructuredMesh::new_box(5, 3, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let p = ElementPartition::new(&m, 2, 3, 2);
        let counts = owned_counts(&m, &p);
        assert_eq!(counts, [3, 2].repeat(6));
        assert_eq!(counts.iter().sum::<usize>(), m.num_elements());
    }
}
