//! Stable marriage instances, the preference/ranking matrices of the paper,
//! and the dominance partial order on stable matchings.

use pm_matching::gale_shapley::{
    gale_shapley_man_optimal, gale_shapley_woman_optimal, rank_matrix,
};

/// A stable marriage instance with `n` men and `n` women, each with a
/// complete, strictly-ordered preference list over the other side.
///
/// The four matrices of Section VI-B are all available: `mp`/`wp` (the
/// preference matrices: who is ranked at position `i`) and `mr`/`wr` (the
/// ranking matrices: at what position is person `q` ranked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmInstance {
    men_prefs: Vec<Vec<usize>>,
    women_prefs: Vec<Vec<usize>>,
    men_rank: Vec<Vec<usize>>,
    women_rank: Vec<Vec<usize>>,
}

impl SmInstance {
    /// Builds an instance from the two preference matrices.
    ///
    /// # Panics
    /// Panics if the lists are not permutations of `0..n` (delegated to the
    /// Gale–Shapley validation when first used; checked eagerly here too).
    pub fn new(men_prefs: Vec<Vec<usize>>, women_prefs: Vec<Vec<usize>>) -> Self {
        let n = men_prefs.len();
        assert_eq!(women_prefs.len(), n, "instance must be square");
        for (who, prefs) in [("man", &men_prefs), ("woman", &women_prefs)] {
            for (i, list) in prefs.iter().enumerate() {
                assert_eq!(list.len(), n, "{who} {i} has a short list");
                let mut seen = vec![false; n];
                for &q in list {
                    assert!(q < n && !seen[q], "{who} {i}'s list is not a permutation");
                    seen[q] = true;
                }
            }
        }
        let men_rank = rank_matrix(&men_prefs);
        let women_rank = rank_matrix(&women_prefs);
        Self {
            men_prefs,
            women_prefs,
            men_rank,
            women_rank,
        }
    }

    /// Number of men (= number of women).
    pub fn n(&self) -> usize {
        self.men_prefs.len()
    }

    /// `mp[m, i]`: the woman ranked at position `i` by man `m` (0-based).
    pub fn mp(&self, m: usize, i: usize) -> usize {
        self.men_prefs[m][i]
    }

    /// `wp[w, i]`: the man ranked at position `i` by woman `w` (0-based).
    pub fn wp(&self, w: usize, i: usize) -> usize {
        self.women_prefs[w][i]
    }

    /// `mr[m, w]`: the position of woman `w` on man `m`'s list.
    pub fn mr(&self, m: usize, w: usize) -> usize {
        self.men_rank[m][w]
    }

    /// `wr[w, m]`: the position of man `m` on woman `w`'s list.
    pub fn wr(&self, w: usize, m: usize) -> usize {
        self.women_rank[w][m]
    }

    /// Man `m`'s full preference list.
    pub fn man_list(&self, m: usize) -> &[usize] {
        &self.men_prefs[m]
    }

    /// Woman `w`'s full preference list.
    pub fn woman_list(&self, w: usize) -> &[usize] {
        &self.women_prefs[w]
    }

    /// The men's preference matrix.
    pub fn men_prefs(&self) -> &[Vec<usize>] {
        &self.men_prefs
    }

    /// The women's preference matrix.
    pub fn women_prefs(&self) -> &[Vec<usize>] {
        &self.women_prefs
    }

    /// True iff man `m` prefers woman `w1` to woman `w2`.
    pub fn man_prefers(&self, m: usize, w1: usize, w2: usize) -> bool {
        self.men_rank[m][w1] < self.men_rank[m][w2]
    }

    /// True iff woman `w` prefers man `m1` to man `m2`.
    pub fn woman_prefers(&self, w: usize, m1: usize, m2: usize) -> bool {
        self.women_rank[w][m1] < self.women_rank[w][m2]
    }

    /// The man-optimal stable matching `M₀` (Gale–Shapley, men proposing).
    pub fn man_optimal(&self) -> StableMatching {
        StableMatching::new(gale_shapley_man_optimal(&self.men_prefs, &self.women_prefs))
    }

    /// The woman-optimal stable matching `M_z` (women proposing).
    pub fn woman_optimal(&self) -> StableMatching {
        StableMatching::new(gale_shapley_woman_optimal(
            &self.men_prefs,
            &self.women_prefs,
        ))
    }

    /// True iff `matching` is stable for this instance (Definition 5): a
    /// perfect matching (a permutation of `0..n`) with no blocking pair.
    /// Decides exactly what [`pm_matching::gale_shapley::is_stable`] does,
    /// against the cached `wr` matrix instead of a rebuilt one.
    pub fn is_stable(&self, matching: &StableMatching) -> bool {
        let n = self.n();
        let wives = matching.as_slice();
        if wives.len() != n {
            return false;
        }
        let mut husband = vec![usize::MAX; n];
        for (m, &w) in wives.iter().enumerate() {
            if w >= n || husband[w] != usize::MAX {
                return false;
            }
            husband[w] = m;
        }
        // `wr(w, p_M(w))` once per woman, so each probe below is one read.
        let husband_rank: Vec<usize> = (0..n).map(|w| self.wr(w, husband[w])).collect();
        // Only the women a man ranks above his wife can block with him, and
        // one does iff she ranks him above her husband.
        (0..n).all(|m| {
            self.men_prefs[m]
                .iter()
                .take_while(|&&w| w != wives[m])
                .all(|&w| self.women_rank[w][m] > husband_rank[w])
        })
    }
}

/// A perfect matching between men and women, stored as `man → woman`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StableMatching {
    man_to_woman: Vec<usize>,
}

impl StableMatching {
    /// Wraps a `man → woman` vector.
    pub fn new(man_to_woman: Vec<usize>) -> Self {
        Self { man_to_woman }
    }

    /// Number of men/women.
    pub fn n(&self) -> usize {
        self.man_to_woman.len()
    }

    /// The partner of man `m`.
    pub fn wife(&self, m: usize) -> usize {
        self.man_to_woman[m]
    }

    /// The partner of woman `w`.
    pub fn husband(&self, w: usize) -> usize {
        self.man_to_woman
            .iter()
            .position(|&x| x == w)
            .expect("every woman is matched in a perfect matching")
    }

    /// Inverse map `woman → man` computed in one pass.
    pub fn husbands(&self) -> Vec<usize> {
        let mut inv = vec![usize::MAX; self.man_to_woman.len()];
        for (m, &w) in self.man_to_woman.iter().enumerate() {
            inv[w] = m;
        }
        inv
    }

    /// The underlying `man → woman` slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.man_to_woman
    }

    /// Dominance (Definition 6): `self ⪯ other` iff every man weakly prefers
    /// `self` to `other`.
    pub fn dominates(&self, other: &StableMatching, inst: &SmInstance) -> bool {
        (0..self.n()).all(|m| inst.mr(m, self.wife(m)) <= inst.mr(m, other.wife(m)))
    }

    /// Strict dominance: `self ≺ other`.
    pub fn strictly_dominates(&self, other: &StableMatching, inst: &SmInstance) -> bool {
        self != other && self.dominates(other, inst)
    }
}

/// The stable marriage instance of Figure 5 in the paper (8 men, 8 women,
/// 0-indexed), together with the stable matching `M` marked by underlining
/// (reconstructed from the reduced lists of Figure 6, whose first entries
/// are the partners in `M`).
pub fn figure5_instance() -> (SmInstance, StableMatching) {
    let men = vec![
        vec![4, 6, 0, 1, 5, 7, 3, 2], // m1: w5 w7 w1 w2 w6 w8 w4 w3
        vec![1, 2, 6, 4, 3, 0, 7, 5], // m2: w2 w3 w7 w5 w4 w1 w8 w6
        vec![7, 4, 0, 3, 5, 1, 2, 6], // m3: w8 w5 w1 w4 w6 w2 w3 w7
        vec![2, 1, 6, 3, 0, 5, 7, 4], // m4: w3 w2 w7 w4 w1 w6 w8 w5
        vec![6, 1, 4, 0, 2, 5, 7, 3], // m5: w7 w2 w5 w1 w3 w6 w8 w4
        vec![0, 5, 6, 4, 7, 3, 1, 2], // m6: w1 w6 w7 w5 w8 w4 w2 w3
        vec![1, 4, 6, 5, 2, 3, 7, 0], // m7: w2 w5 w7 w6 w3 w4 w8 w1
        vec![2, 7, 3, 4, 6, 1, 5, 0], // m8: w3 w8 w4 w5 w7 w2 w6 w1
    ];
    let women = vec![
        vec![4, 2, 6, 5, 0, 1, 7, 3], // w1: m5 m3 m7 m6 m1 m2 m8 m4
        vec![7, 5, 2, 4, 6, 1, 0, 3], // w2: m8 m6 m3 m5 m7 m2 m1 m4
        vec![0, 4, 5, 1, 3, 7, 6, 2], // w3: m1 m5 m6 m2 m4 m8 m7 m3
        vec![7, 6, 2, 1, 3, 0, 4, 5], // w4: m8 m7 m3 m2 m4 m1 m5 m6
        vec![5, 3, 6, 2, 7, 0, 1, 4], // w5: m6 m4 m7 m3 m8 m1 m2 m5
        vec![1, 7, 4, 2, 3, 5, 6, 0], // w6: m2 m8 m5 m3 m4 m6 m7 m1
        vec![6, 4, 1, 0, 7, 5, 3, 2], // w7: m7 m5 m2 m1 m8 m6 m4 m3
        vec![6, 3, 0, 4, 1, 2, 5, 7], // w8: m7 m4 m1 m5 m2 m3 m6 m8
    ];
    let inst = SmInstance::new(men, women);
    // M from Figure 6: m1-w8, m2-w3, m3-w5, m4-w6, m5-w7, m6-w1, m7-w2, m8-w4.
    let m = StableMatching::new(vec![7, 2, 4, 5, 6, 0, 1, 3]);
    (inst, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_matching_is_stable() {
        let (inst, m) = figure5_instance();
        assert!(
            inst.is_stable(&m),
            "the matching underlined in Figure 5 must be stable"
        );
    }

    #[test]
    fn matrices_are_consistent() {
        let (inst, _) = figure5_instance();
        for m in 0..inst.n() {
            for i in 0..inst.n() {
                assert_eq!(inst.mr(m, inst.mp(m, i)), i);
            }
        }
        for w in 0..inst.n() {
            for i in 0..inst.n() {
                assert_eq!(inst.wr(w, inst.wp(w, i)), i);
            }
        }
        // Spot checks against the figure: m1's favourite is w5 (id 4),
        // w1's favourite is m5 (id 4).
        assert_eq!(inst.mp(0, 0), 4);
        assert_eq!(inst.wp(0, 0), 4);
    }

    #[test]
    fn optimal_matchings_and_dominance() {
        let (inst, m) = figure5_instance();
        let m0 = inst.man_optimal();
        let mz = inst.woman_optimal();
        assert!(inst.is_stable(&m0));
        assert!(inst.is_stable(&mz));
        // The lattice extremes dominate / are dominated by every stable matching.
        assert!(m0.dominates(&m, &inst));
        assert!(m.dominates(&mz, &inst));
        assert!(m0.dominates(&mz, &inst));
        // Figure 5's matching is strictly between them for this instance.
        assert!(m0.strictly_dominates(&m, &inst));
        assert!(m.strictly_dominates(&mz, &inst));
    }

    #[test]
    fn husbands_inverse() {
        let (_, m) = figure5_instance();
        let inv = m.husbands();
        for man in 0..m.n() {
            assert_eq!(inv[m.wife(man)], man);
            assert_eq!(m.husband(m.wife(man)), man);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn malformed_instance_panics() {
        let men = vec![vec![0, 0], vec![0, 1]];
        let women = vec![vec![0, 1], vec![1, 0]];
        let _ = SmInstance::new(men, women);
    }
}
