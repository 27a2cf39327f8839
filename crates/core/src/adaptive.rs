//! Adaptive data migration via simulated annealing (paper §4, §6.4).
//!
//! The tuner treats the migration policy ⟨D_r, D_w, N_r, N_w⟩ as a point on
//! a small lattice of probabilities and searches for the point minimizing
//! `cost(P) = 1 / throughput(P)`. Each *epoch* the host runs the workload
//! under the candidate policy, measures throughput, and feeds it back; the
//! tuner then either accepts the candidate (always, if it was better;
//! with probability `exp(-γ·Δ/t)` if worse) and proposes a neighbour. The
//! temperature `t` cools geometrically (`t ← α·t`), so early epochs explore
//! and late epochs exploit — which is why the Figure 10 curves converge.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::policy::MigrationPolicy;

/// Probability lattice searched by the tuner. Matches the values the paper
/// sweeps in §6.3 plus intermediate points.
pub const POLICY_LATTICE: [f64; 7] = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0];

/// What the tuner minimizes.
///
/// The paper's cost function is `1/T` (§4). §6.3 notes that "the optimal
/// policy must be chosen depending on the performance requirements and
/// write endurance characteristics of NVM" — the endurance-aware variant
/// makes that trade-off explicit by penalizing NVM write volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostObjective {
    /// `cost = 1 / throughput` (the paper's default).
    Throughput,
    /// `cost = (1 + λ · nvm_mb_per_op) / throughput`: λ converts NVM write
    /// volume (MB per operation) into a throughput-equivalent penalty,
    /// steering the search toward endurance-friendly policies.
    ThroughputWithEndurance {
        /// Weight of the write-volume penalty.
        lambda: f64,
    },
}

/// Tuning parameters (defaults follow §6.4: α = 0.9, γ = 10, t₀ = 800,
/// t_final = 0.00008).
#[derive(Debug, Clone, Copy)]
pub struct AnnealingParams {
    /// Geometric cooling rate α.
    pub cooling: f64,
    /// Cost-difference scale γ.
    pub gamma: f64,
    /// Initial temperature.
    pub initial_temp: f64,
    /// Temperature floor.
    pub final_temp: f64,
    /// The cost function being minimized.
    pub objective: CostObjective,
}

impl Default for AnnealingParams {
    fn default() -> Self {
        AnnealingParams {
            cooling: 0.9,
            gamma: 10.0,
            initial_temp: 800.0,
            final_temp: 0.00008,
            objective: CostObjective::Throughput,
        }
    }
}

/// One epoch's record, kept for convergence plots (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// The policy evaluated this epoch.
    pub policy: MigrationPolicy,
    /// Observed throughput (operations per second).
    pub throughput: f64,
    /// Whether the candidate was accepted as the new current point.
    pub accepted: bool,
    /// Temperature at the end of the epoch.
    pub temperature: f64,
}

/// Simulated-annealing policy tuner.
#[derive(Debug)]
pub struct AnnealingTuner {
    params: AnnealingParams,
    temperature: f64,
    rng: StdRng,
    /// Best-known point and its cost.
    current: MigrationPolicy,
    current_cost: Option<f64>,
    /// Candidate currently being evaluated by the host.
    candidate: MigrationPolicy,
    history: Vec<EpochRecord>,
}

fn nearest_lattice_index(p: f64) -> usize {
    POLICY_LATTICE
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            (*a - p)
                .abs()
                .partial_cmp(&(*b - p).abs())
                .expect("lattice values are finite")
        })
        .map(|(i, _)| i)
        .expect("lattice is non-empty")
}

impl AnnealingTuner {
    /// A tuner starting from `initial` (the paper starts eager: D = N = 1).
    pub fn new(initial: MigrationPolicy, params: AnnealingParams, seed: u64) -> Self {
        AnnealingTuner {
            params,
            temperature: params.initial_temp,
            rng: StdRng::seed_from_u64(seed),
            current: initial,
            current_cost: None,
            candidate: initial,
            history: Vec::new(),
        }
    }

    /// The policy the host should run during the upcoming epoch.
    pub fn candidate(&self) -> MigrationPolicy {
        self.candidate
    }

    /// Current temperature.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Epoch history for convergence plots.
    pub fn history(&self) -> &[EpochRecord] {
        &self.history
    }

    /// The best point accepted so far.
    pub fn current(&self) -> MigrationPolicy {
        self.current
    }

    /// Feed back the throughput observed while running [`Self::candidate`];
    /// returns the policy for the next epoch. Uses the plain throughput
    /// objective regardless of configuration (no write volume supplied).
    pub fn observe(&mut self, throughput: f64) -> MigrationPolicy {
        self.observe_with(throughput, 0.0)
    }

    /// Feed back throughput *and* the NVM write volume (MB per operation)
    /// observed during the epoch; the configured [`CostObjective`] decides
    /// whether the volume enters the cost. Also publishes the annealing
    /// temperature as the `sa_temperature` observability gauge.
    pub fn observe_with(&mut self, throughput: f64, nvm_mb_per_op: f64) -> MigrationPolicy {
        let penalty = match self.params.objective {
            CostObjective::Throughput => 1.0,
            CostObjective::ThroughputWithEndurance { lambda } => {
                1.0 + lambda * nvm_mb_per_op.max(0.0)
            }
        };
        let cost = penalty / throughput.max(1e-9);
        let accepted = match self.current_cost {
            None => {
                self.current_cost = Some(cost);
                self.current = self.candidate;
                true
            }
            Some(cur) => {
                // Relative cost difference keeps Δ commensurate with the
                // temperature schedule regardless of absolute throughput.
                let delta = (cost - cur) / cur;
                let accept = delta <= 0.0 || {
                    let p = (-self.params.gamma * delta / self.temperature).exp();
                    self.rng.gen::<f64>() < p
                };
                if accept {
                    self.current = self.candidate;
                    self.current_cost = Some(cost);
                }
                accept
            }
        };
        self.history.push(EpochRecord {
            policy: self.candidate,
            throughput,
            accepted,
            temperature: self.temperature,
        });
        self.temperature = (self.temperature * self.params.cooling).max(self.params.final_temp);
        spitfire_obs::set_gauge("sa_temperature", self.temperature);
        self.candidate = self.propose();
        self.candidate
    }

    /// Propose a lattice neighbour of the current point: one knob moves one
    /// step.
    fn propose(&mut self) -> MigrationPolicy {
        let mut knobs = [
            self.current.dr,
            self.current.dw,
            self.current.nr,
            self.current.nw,
        ];
        // Try a few times in case a knob is pinned at a lattice edge.
        for _ in 0..8 {
            let k = self.rng.gen_range(0..4usize);
            let idx = nearest_lattice_index(knobs[k]);
            let up = self.rng.gen::<bool>();
            let new_idx = if up { idx + 1 } else { idx.wrapping_sub(1) };
            if new_idx < POLICY_LATTICE.len() {
                knobs[k] = POLICY_LATTICE[new_idx];
                break;
            }
        }
        let mut p = MigrationPolicy::new(knobs[0], knobs[1], knobs[2], knobs[3]);
        p.admission = self.current.admission;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_lookup_snaps_to_nearest() {
        assert_eq!(nearest_lattice_index(0.0), 0);
        assert_eq!(nearest_lattice_index(1.0), 6);
        assert_eq!(nearest_lattice_index(0.011), 1);
        assert_eq!(nearest_lattice_index(0.3), 4);
    }

    #[test]
    fn first_observation_is_always_accepted() {
        let mut t = AnnealingTuner::new(MigrationPolicy::eager(), AnnealingParams::default(), 1);
        assert_eq!(t.candidate(), MigrationPolicy::eager());
        t.observe(1000.0);
        assert_eq!(t.history().len(), 1);
        assert!(t.history()[0].accepted);
        assert_eq!(t.current(), MigrationPolicy::eager());
    }

    #[test]
    fn proposals_stay_on_the_lattice() {
        let mut t = AnnealingTuner::new(MigrationPolicy::eager(), AnnealingParams::default(), 7);
        for i in 0..200 {
            let p = t.observe(1000.0 + i as f64);
            for knob in [p.dr, p.dw, p.nr, p.nw] {
                assert!(
                    POLICY_LATTICE.iter().any(|v| (v - knob).abs() < 1e-12),
                    "knob {knob} off-lattice"
                );
            }
        }
    }

    #[test]
    fn temperature_cools_to_floor() {
        let params = AnnealingParams::default();
        let mut t = AnnealingTuner::new(MigrationPolicy::eager(), params, 3);
        for _ in 0..500 {
            t.observe(1000.0);
        }
        assert!((t.temperature() - params.final_temp).abs() < 1e-12);
    }

    #[test]
    fn converges_to_better_policy_on_synthetic_cost() {
        // Synthetic workload: throughput peaks when all knobs are lazy
        // (0.01), mimicking the paper's YCSB-RO result.
        let score = |p: MigrationPolicy| {
            let pen = |x: f64| (x - 0.01).abs();
            10_000.0 / (1.0 + pen(p.dr) + pen(p.dw) + pen(p.nr) + pen(p.nw))
        };
        let mut tuner =
            AnnealingTuner::new(MigrationPolicy::eager(), AnnealingParams::default(), 42);
        let mut p = tuner.candidate();
        for _ in 0..400 {
            p = tuner.observe(score(p));
        }
        let final_p = tuner.current();
        let final_score = score(final_p);
        let start_score = score(MigrationPolicy::eager());
        assert!(
            final_score > start_score * 1.5,
            "tuner failed to improve: start {start_score}, final {final_score} ({final_p})"
        );
    }

    #[test]
    fn endurance_objective_penalizes_nvm_writes() {
        // Two synthetic policies: "fast but write-heavy" vs "slower but
        // write-light". The plain objective prefers the first; the
        // endurance-aware objective must prefer the second.
        let observe_both = |params: AnnealingParams| {
            let mut t = AnnealingTuner::new(MigrationPolicy::eager(), params, 5);
            // Establish the fast/write-heavy point as current.
            t.observe_with(1000.0, 2.0);
            // Cool so acceptance is strict.
            for _ in 0..200 {
                t.observe_with(1000.0, 2.0);
            }
            // Offer the slower/write-light point.
            let before = t.current();
            t.observe_with(900.0, 0.0);
            (before, t.history().last().copied().expect("history"))
        };
        let (_, plain) = observe_both(AnnealingParams::default());
        assert!(
            !plain.accepted,
            "plain objective must reject the 10% slower policy"
        );
        let (_, endurance) = observe_both(AnnealingParams {
            objective: CostObjective::ThroughputWithEndurance { lambda: 1.0 },
            ..AnnealingParams::default()
        });
        assert!(
            endurance.accepted,
            "endurance objective must accept 10% slower for 2 MB/op fewer writes"
        );
    }

    #[test]
    fn late_epochs_reject_worse_policies() {
        let mut t = AnnealingTuner::new(MigrationPolicy::eager(), AnnealingParams::default(), 11);
        // Cool fully.
        for _ in 0..200 {
            t.observe(1000.0);
        }
        let cur = t.current();
        // Now hand back terrible throughput for whatever candidate is
        // offered; the current point must survive.
        for _ in 0..50 {
            t.observe(1.0);
        }
        assert_eq!(t.current(), cur);
        let tail = &t.history()[t.history().len() - 40..];
        assert!(tail.iter().filter(|r| r.accepted).count() <= 1);
    }
}
