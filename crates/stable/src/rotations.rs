//! Rotations (Definition 7), their elimination (Definition 8), and a
//! sequential exposed-rotation finder used as the baseline for Algorithm 4.

use crate::instance::{SmInstance, StableMatching};

/// A rotation `ρ = ((m₀, w₀), …, (m_{k−1}, w_{k−1}))` exposed in some stable
/// matching: the pairs are matched, and `w_{i+1}` is the highest-ranked
/// woman on `m_i`'s list (below `w_i`) who prefers `m_i` to her partner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rotation {
    /// The matched pairs of the rotation, in rotation order.
    pub pairs: Vec<(usize, usize)>,
}

impl Rotation {
    /// The men of the rotation, in rotation order.
    pub fn men(&self) -> Vec<usize> {
        self.pairs.iter().map(|&(m, _)| m).collect()
    }

    /// Number of pairs (`k ≥ 2`).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff the rotation has no pairs (never produced by the finders;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// True iff this rotation is exposed in `matching` (Definition 7): every
    /// pair is matched and `w_{i+1} = s_M(m_i)` with `next_M(m_i) = m_{i+1}`.
    pub fn is_exposed_in(&self, inst: &SmInstance, matching: &StableMatching) -> bool {
        if self.pairs.len() < 2 {
            return false;
        }
        let husbands = matching.husbands();
        let k = self.pairs.len();
        (0..k).all(|i| {
            let (m, w) = self.pairs[i];
            let (m_next, w_next) = self.pairs[(i + 1) % k];
            matching.wife(m) == w
                && s_m_given(inst, matching, &husbands, m) == Some(w_next)
                && husbands[w_next] == m_next
        })
    }

    /// Eliminates the rotation from `matching` (Definition 8): each `m_i` is
    /// re-matched to `w_{(i+1) mod k}`; all other pairs are unchanged.
    pub fn eliminate(&self, matching: &StableMatching) -> StableMatching {
        let mut out = matching.as_slice().to_vec();
        let k = self.pairs.len();
        for i in 0..k {
            let (m, _) = self.pairs[i];
            let (_, w_next) = self.pairs[(i + 1) % k];
            out[m] = w_next;
        }
        StableMatching::new(out)
    }
}

/// `s_M(m)`: the highest-ranked woman on `m`'s list who prefers `m` to her
/// partner in `M` (Section VI-B).  `None` if no such woman exists.
pub fn s_m(inst: &SmInstance, matching: &StableMatching, m: usize) -> Option<usize> {
    s_m_given(inst, matching, &matching.husbands(), m)
}

/// `next_M(m)`: the partner in `M` of `s_M(m)`.
pub fn next_m(inst: &SmInstance, matching: &StableMatching, m: usize) -> Option<usize> {
    let husbands = matching.husbands();
    s_m_given(inst, matching, &husbands, m).map(|w| husbands[w])
}

/// [`s_m`] against a precomputed `woman → man` inverse of `matching`, so a
/// caller resolving every man builds the inverse once.
fn s_m_given(
    inst: &SmInstance,
    matching: &StableMatching,
    husbands: &[usize],
    m: usize,
) -> Option<usize> {
    inst.man_list(m)
        .iter()
        .copied()
        .filter(|&w| w != matching.wife(m))
        .find(|&w| inst.woman_prefers(w, m, husbands[w]))
}

/// Finds every rotation exposed in `matching` with the straightforward
/// sequential method: build the successor function `m → next_M(m)` and walk
/// it to extract its cycles.  This is the baseline Algorithm 4 is compared
/// against in experiment E10.
pub fn exposed_rotations_sequential(inst: &SmInstance, matching: &StableMatching) -> Vec<Rotation> {
    let n = inst.n();
    let husbands = matching.husbands();
    let succ: Vec<Option<usize>> = (0..n)
        .map(|m| s_m_given(inst, matching, &husbands, m).map(|w| husbands[w]))
        .collect();

    // Cycle extraction with a three-colour walk.
    let mut state = vec![0u8; n];
    let mut rotations = Vec::new();
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut v = start;
        loop {
            if state[v] == 1 {
                let pos = path.iter().position(|&u| u == v).expect("on current path");
                let men: Vec<usize> = path[pos..].to_vec();
                rotations.push(Rotation {
                    pairs: men.iter().map(|&m| (m, matching.wife(m))).collect(),
                });
                break;
            }
            if state[v] == 2 {
                break;
            }
            state[v] = 1;
            path.push(v);
            match succ[v] {
                Some(next) => v = next,
                None => break,
            }
        }
        for &u in &path {
            state[u] = 2;
        }
    }
    // Canonical order: rotate each cycle to start at its smallest man, then
    // sort rotations by that man.
    let mut canonical: Vec<Rotation> = rotations
        .into_iter()
        .map(|r| {
            let min_pos = r
                .pairs
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(m, _))| m)
                .map(|(i, _)| i)
                .expect("non-empty rotation");
            let mut pairs = r.pairs.clone();
            pairs.rotate_left(min_pos);
            Rotation { pairs }
        })
        .collect();
    canonical.sort_by_key(|r| r.pairs[0].0);
    canonical
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::figure5_instance;

    #[test]
    fn figure6_s_and_next_values() {
        // The second column of Figure 6 is s_M(m) for each man.
        let (inst, m) = figure5_instance();
        let expected_s = [2usize, 5, 0, 7, 1, 4, 4, 1]; // w3 w6 w1 w8 w2 w5 w5 w2
        for (man, &w) in expected_s.iter().enumerate() {
            assert_eq!(s_m(&inst, &m, man), Some(w), "s_M(m{})", man + 1);
        }
        // next_M follows the partners: m1->m2, m2->m4, m3->m6, m4->m1,
        // m5->m7, m6->m3, m7->m3, m8->m7.
        let expected_next = [1usize, 3, 5, 0, 6, 2, 2, 6];
        for (man, &nm) in expected_next.iter().enumerate() {
            assert_eq!(next_m(&inst, &m, man), Some(nm), "next_M(m{})", man + 1);
        }
    }

    #[test]
    fn figure7_rotations_are_found() {
        // H_M of Figure 7 has two cycles: (m1 m2 m4) and (m3 m6).
        let (inst, m) = figure5_instance();
        let rotations = exposed_rotations_sequential(&inst, &m);
        assert_eq!(rotations.len(), 2);
        assert_eq!(rotations[0].men(), vec![0, 1, 3]);
        assert_eq!(rotations[1].men(), vec![2, 5]);
        for r in &rotations {
            assert!(r.is_exposed_in(&inst, &m));
        }
    }

    #[test]
    fn elimination_gives_stable_dominated_matchings() {
        let (inst, m) = figure5_instance();
        for rotation in exposed_rotations_sequential(&inst, &m) {
            let next = rotation.eliminate(&m);
            assert!(inst.is_stable(&next), "M\\ρ must be stable");
            assert!(m.strictly_dominates(&next, &inst), "M must dominate M\\ρ");
            // Each man in the rotation moves to s_M(m), i.e. strictly down
            // his list; all other men keep their partners.
            for man in 0..inst.n() {
                if rotation.men().contains(&man) {
                    assert!(inst.man_prefers(man, m.wife(man), next.wife(man)));
                    assert_eq!(next.wife(man), s_m(&inst, &m, man).unwrap());
                } else {
                    assert_eq!(next.wife(man), m.wife(man));
                }
            }
        }
    }

    #[test]
    fn man_optimal_of_small_instance_exposes_rotations() {
        // 3x3 instance with more than one stable matching.
        let men = vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1]];
        let women = vec![vec![1, 2, 0], vec![2, 0, 1], vec![0, 1, 2]];
        let inst = SmInstance::new(men, women);
        let m0 = inst.man_optimal();
        let mz = inst.woman_optimal();
        assert_ne!(m0, mz);
        let rotations = exposed_rotations_sequential(&inst, &m0);
        assert!(!rotations.is_empty());
        // Eliminating rotations repeatedly must eventually reach Mz.
        let mut current = m0;
        let mut steps = 0;
        while current != mz {
            let rs = exposed_rotations_sequential(&inst, &current);
            assert!(
                !rs.is_empty(),
                "non-woman-optimal matching must expose a rotation"
            );
            current = rs[0].eliminate(&current);
            assert!(inst.is_stable(&current));
            steps += 1;
            assert!(steps < 20);
        }
    }

    #[test]
    fn woman_optimal_exposes_no_rotation() {
        let (inst, _) = figure5_instance();
        let mz = inst.woman_optimal();
        assert!(exposed_rotations_sequential(&inst, &mz).is_empty());
    }

    #[test]
    fn non_exposed_rotation_is_rejected() {
        let (inst, m) = figure5_instance();
        let bogus = Rotation {
            pairs: vec![(0, m.wife(0)), (4, m.wife(4))],
        };
        assert!(!bogus.is_exposed_in(&inst, &m));
        let too_short = Rotation {
            pairs: vec![(0, m.wife(0))],
        };
        assert!(!too_short.is_exposed_in(&inst, &m));
        assert!(!too_short.is_empty());
        assert_eq!(too_short.len(), 1);
    }
}
