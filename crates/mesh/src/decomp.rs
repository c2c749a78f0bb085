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

    #[inline]
    pub fn subdomain_ijk(&self, s: usize) -> (usize, usize, usize) {
        (
            s % self.px,
            (s / self.px) % self.py,
            s / (self.px * self.py),
        )
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

    /// Element-range box `(x, y, z)` of subdomain `s` as half-open ranges.
    pub fn subdomain_elements_box(
        &self,
        s: usize,
    ) -> (
        std::ops::Range<usize>,
        std::ops::Range<usize>,
        std::ops::Range<usize>,
    ) {
        let (si, sj, sk) = self.subdomain_ijk(s);
        (
            self.xsplit[si]..self.xsplit[si + 1],
            self.ysplit[sj]..self.ysplit[sj + 1],
            self.zsplit[sk]..self.zsplit[sk + 1],
        )
    }

    /// All flat element indices of subdomain `s`.
    pub fn subdomain_elements(&self, s: usize) -> Vec<usize> {
        let (rx, ry, rz) = self.subdomain_elements_box(s);
        let mut out = Vec::with_capacity(rx.len() * ry.len() * rz.len());
        for ek in rz.clone() {
            for ej in ry.clone() {
                for ei in rx.clone() {
                    out.push(ei + self.mx * (ej + self.my * ek));
                }
            }
        }
        out
    }

    /// Subdomain indices adjacent (including diagonals) to `s` — the
    /// neighbours material points can migrate to in one advection step.
    pub fn neighbors(&self, s: usize) -> Vec<usize> {
        let (si, sj, sk) = self.subdomain_ijk(s);
        let mut out = Vec::new();
        for dk in -1i64..=1 {
            for dj in -1i64..=1 {
                for di in -1i64..=1 {
                    if di == 0 && dj == 0 && dk == 0 {
                        continue;
                    }
                    let (ni, nj, nk) = (si as i64 + di, sj as i64 + dj, sk as i64 + dk);
                    if ni >= 0
                        && nj >= 0
                        && nk >= 0
                        && (ni as usize) < self.px
                        && (nj as usize) < self.py
                        && (nk as usize) < self.pz
                    {
                        out.push(self.subdomain_index(ni as usize, nj as usize, nk as usize));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> StructuredMesh {
        StructuredMesh::new_box(4, 4, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
    }

    #[test]
    fn partition_covers_all_elements_once() {
        let m = mesh();
        let p = ElementPartition::new(&m, 2, 2, 1);
        let mut seen = vec![false; m.num_elements()];
        for s in 0..p.num_subdomains() {
            for e in p.subdomain_elements(s) {
                assert!(!seen[e], "element {e} in two subdomains");
                seen[e] = true;
                assert_eq!(p.subdomain_of_element(e), s);
            }
        }
        assert!(seen.iter().all(|&b| b));
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
        let m = StructuredMesh::new_box(5, 3, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let p = ElementPartition::new(&m, 2, 3, 2);
        let total: usize = (0..p.num_subdomains())
            .map(|s| p.subdomain_elements(s).len())
            .sum();
        assert_eq!(total, m.num_elements());
    }

    #[test]
    fn neighbors_interior_corner() {
        let m = mesh();
        let p = ElementPartition::new(&m, 2, 2, 2);
        // Corner subdomain has 7 neighbours in a 2x2x2 decomposition.
        assert_eq!(p.neighbors(0).len(), 7);
    }
}
