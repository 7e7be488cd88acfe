//! Message-load formulas (paper §6.1, Eqs. 1–3).

/// Leader messages per round with `r` relay groups (Eq. 1): `2r + 2`.
pub fn leader_load(r: usize) -> f64 {
    2.0 * r as f64 + 2.0
}

/// Average follower messages per round in a cluster of `n` with `r`
/// relay groups (Eq. 3): `2(n − r − 1)/(n − 1) + 2`.
pub fn follower_load(n: usize, r: usize) -> f64 {
    assert!(n >= 2, "need at least one follower");
    assert!(r >= 1 && r < n, "relay groups must be in [1, n-1]");
    2.0 * (n as f64 - r as f64 - 1.0) / (n as f64 - 1.0) + 2.0
}

/// Direct Multi-Paxos leader load: `2(n − 1) + 2`.
pub fn paxos_leader_load(n: usize) -> f64 {
    2.0 * (n as f64 - 1.0) + 2.0
}

/// Direct Multi-Paxos follower load: one round trip.
pub fn paxos_follower_load() -> f64 {
    2.0
}

/// Leader overhead relative to the average follower, as a fraction
/// (`0.56` = the leader handles 56% more messages than a follower).
pub fn leader_overhead(n: usize, r: usize) -> f64 {
    leader_load(r) / follower_load(n, r) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_load_is_linear_in_groups() {
        assert_eq!(leader_load(1), 4.0);
        assert_eq!(leader_load(2), 6.0);
        assert_eq!(leader_load(6), 14.0);
    }

    #[test]
    fn paper_table1_values() {
        // N = 25 (paper Table 1).
        assert!((follower_load(25, 2) - 3.83).abs() < 0.01);
        assert!((follower_load(25, 3) - 3.75).abs() < 0.01);
        assert!((follower_load(25, 4) - 3.67).abs() < 0.01);
        assert!((follower_load(25, 5) - 3.58).abs() < 0.01);
        assert!((follower_load(25, 6) - 3.50).abs() < 0.01);
        assert_eq!(paxos_leader_load(25), 50.0);
    }

    #[test]
    fn paper_table1_overheads() {
        assert!((leader_overhead(25, 2) - 0.565).abs() < 0.01, "paper: 56%");
        assert!((leader_overhead(25, 3) - 1.13).abs() < 0.01, "paper: 113%");
        assert!((leader_overhead(25, 6) - 3.00).abs() < 0.01, "paper: 300%");
        // Paxos row: 50 / 2 - 1 = 2400%.
        assert!((paxos_leader_load(25) / paxos_follower_load() - 1.0 - 24.0).abs() < 1e-9);
    }

    #[test]
    fn paper_table2_values() {
        // N = 9 (paper Table 2).
        assert!((follower_load(9, 2) - 3.5).abs() < 1e-9);
        assert!((follower_load(9, 3) - 3.25).abs() < 1e-9);
        assert!((follower_load(9, 4) - 3.0).abs() < 1e-9);
        assert!((leader_overhead(9, 2) - 0.714).abs() < 0.01, "paper: 71%");
        assert!((leader_overhead(9, 3) - 1.46).abs() < 0.01, "paper: 146%");
        assert!((leader_overhead(9, 4) - 2.33).abs() < 0.01, "paper: 233%");
        assert_eq!(paxos_leader_load(9), 18.0);
    }

    #[test]
    fn follower_load_approaches_asymptote() {
        // §6.3: r = 1, growing N: Mf -> 4 from below, the leader's
        // minimum Ml — the leader never stops being the bottleneck (it
        // also does the vote tallying).
        let mut prev = follower_load(10, 1);
        for n in [100, 1000, 10_000] {
            let f = follower_load(n, 1);
            assert!(f > prev);
            assert!(f < leader_load(1));
            prev = f;
        }
        assert!((follower_load(1_000_000, 1) - 4.0).abs() < 0.001);
    }

    #[test]
    fn leader_always_at_least_follower_load() {
        // §6.3: the leader remains the bottleneck for every (n, r).
        for n in [5, 9, 25, 101] {
            for r in 1..n.min(20) {
                assert!(
                    leader_load(r) >= follower_load(n, r) - 1e-9,
                    "n={n} r={r}: leader {} < follower {}",
                    leader_load(r),
                    follower_load(n, r)
                );
            }
        }
    }

    #[test]
    fn fewer_groups_less_leader_load_more_follower_load() {
        assert!(leader_load(2) < leader_load(5));
        assert!(follower_load(25, 2) > follower_load(25, 5));
    }

    #[test]
    #[should_panic(expected = "relay groups")]
    fn too_many_groups_rejected() {
        follower_load(5, 5);
    }
}
