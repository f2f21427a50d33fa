//! Seeded randomness, order statistics, the pinned expectations and the
//! tally of checked operations.

use std::collections::HashMap;
use xcv_conditions::Condition;
use xcv_core::TableMark;

/// SplitMix64: a small, seedable generator; the same seed gives the same
/// request order and the same sampled boxes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Which pinned mark column a verdict is checked against.
#[derive(Clone, Copy)]
pub enum Column {
    Flat800,
    Ladder800,
    Flat400,
}

/// The hand-pinned expectations of `expected.tsv`.
pub struct Expected {
    marks: HashMap<(String, &'static str), [String; 3]>,
    pub rung_timeouts: [u64; 3],
}

impl Expected {
    pub fn load() -> Expected {
        let mut marks = HashMap::new();
        let mut rung_timeouts = [0; 3];
        for line in include_str!("../expected.tsv").lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["mark", func, cond, a, b, c] => {
                    let cond = Condition::all()
                        .into_iter()
                        .find(|k| k.id() == *cond)
                        .expect("expected.tsv names a known condition");
                    marks.insert(
                        (func.to_ascii_lowercase(), cond.id()),
                        [a.to_string(), b.to_string(), c.to_string()],
                    );
                }
                ["rung_timeouts", a, b, c] => {
                    rung_timeouts = [a, b, c].map(|s| s.parse().expect("rung timeout count"));
                }
                _ => {}
            }
        }
        assert_eq!(marks.len(), 49, "expected.tsv pins the 49-cell matrix");
        Expected {
            marks,
            rung_timeouts,
        }
    }

    /// Does `mark` match the pinned mark of this cell?
    pub fn mark_ok(
        &self,
        functional: &str,
        condition: Condition,
        col: Column,
        mark: TableMark,
    ) -> bool {
        self.marks
            .get(&(functional.to_ascii_lowercase(), condition.id()))
            .is_some_and(|m| m[col as usize] == format!("{mark:?}"))
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}
