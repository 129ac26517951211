//! The ReGAN GAN-training pipeline — paper §III-B.2/3, Fig. 8 and Fig. 9.
//!
//! One GAN training iteration has three dataflows (Fig. 8):
//!
//! * **①** D trained on real samples — `2L_D + 1` stages per input
//!   (forward `L_D`, loss, backward `L_D`),
//! * **②** D trained on generated samples — G concatenated in front of D:
//!   `L_G + 2L_D + 1` stages ("G is used but not updated"),
//! * **③** G trained through a fixed D — `2L_G + 2L_D + 1` stages (forward
//!   through G and D, backward through D and G).
//!
//! Pipelined, a phase of per-input latency `P` over a batch of `B` costs
//! `P + B − 1` cycles (the batch drains at one input per cycle), plus one
//! cycle per weight update; the paper's cycle counts follow:
//!
//! * train D: `(2L_D + B) + (L_G + 2L_D + B)` + 1 update,
//! * train G: `2L_G + 2L_D + B + 1`,
//! * without the pipeline: `(4L_D + L_G + 2)·B` and `(2L_G + 2L_D + 1)·B`.
//!
//! **Spatial parallelism (SP)** duplicates D so ① and ② run concurrently;
//! ①'s latency hides under ②'s (which is longer by `L_G`). **Computation
//! sharing (CS)** co-trains D and G: phases ② and ③ share the forward path
//! and fork into two parallel backward branches (Fig. 9), at the price of
//! double intermediate storage; the iteration collapses to ③'s length.

use serde::{Deserialize, Serialize};

/// Optimization level of the ReGAN pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReganOpt {
    /// One input at a time, no inter-layer pipelining.
    NoPipeline,
    /// The Fig. 8 training pipeline.
    Pipeline,
    /// Pipeline + spatial parallelism (D duplicated).
    PipelineSp,
    /// Pipeline + SP + computation sharing (②/③ merged).
    PipelineSpCs,
}

impl ReganOpt {
    /// All levels, in increasing optimization order.
    pub const ALL: [ReganOpt; 4] = [
        ReganOpt::NoPipeline,
        ReganOpt::Pipeline,
        ReganOpt::PipelineSp,
        ReganOpt::PipelineSpCs,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ReganOpt::NoPipeline => "no-pipeline",
            ReganOpt::Pipeline => "pipeline",
            ReganOpt::PipelineSp => "pipeline+SP",
            ReganOpt::PipelineSpCs => "pipeline+SP+CS",
        }
    }
}

/// Cycle model of ReGAN's GAN training schedule.
///
/// As with [`crate::pipeline::PipelineModel`], the paper's closed forms
/// count *macro-cycles* (every stage padded to the slowest layer), so the
/// model needs only the two networks' layer counts and the batch size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReganPipeline {
    l_d: usize,
    l_g: usize,
    batch: usize,
}

impl ReganPipeline {
    /// Creates a model for a discriminator of `l_d` weighted layers, a
    /// generator of `l_g` weighted layers, and batch size `batch`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(l_d: usize, l_g: usize, batch: usize) -> Self {
        assert!(l_d > 0 && l_g > 0 && batch > 0, "zero pipeline parameter");
        Self { l_d, l_g, batch }
    }

    /// Discriminator depth `L_D`.
    pub fn discriminator_layers(&self) -> usize {
        self.l_d
    }

    /// Generator depth `L_G`.
    pub fn generator_layers(&self) -> usize {
        self.l_g
    }

    /// Batch size `B`.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Per-input stage count of phase ① (D on real samples).
    pub fn phase1_latency(&self) -> u64 {
        (2 * self.l_d + 1) as u64
    }

    /// Per-input stage count of phase ② (D on generated samples).
    pub fn phase2_latency(&self) -> u64 {
        (self.l_g + 2 * self.l_d + 1) as u64
    }

    /// Per-input stage count of phase ③ (G through fixed D).
    pub fn phase3_latency(&self) -> u64 {
        (2 * self.l_g + 2 * self.l_d + 1) as u64
    }

    /// Cycles to update D once (phases ① + ② + update).
    pub fn d_training_cycles(&self, opt: ReganOpt) -> u64 {
        let b = self.batch as u64;
        match opt {
            // "(4L_D + L_G + 2)B cycles" — per-input latencies summed, no
            // overlap.
            ReganOpt::NoPipeline => (self.phase1_latency() + self.phase2_latency()) * b,
            // "2L_D + 1 + B − 1 cycles … then L_G + 2L_D + 1 + B − 1 cycles
            // … finally one cycle to update D."
            ReganOpt::Pipeline => {
                (self.phase1_latency() + b - 1) + (self.phase2_latency() + b - 1) + 1
            }
            // SP: ① runs on the duplicated D concurrently with ② and is
            // strictly shorter, so only ② (+ update) shows.
            ReganOpt::PipelineSp | ReganOpt::PipelineSpCs => (self.phase2_latency() + b - 1) + 1,
        }
    }

    /// Cycles to update G once (phase ③ + update).
    pub fn g_training_cycles(&self, opt: ReganOpt) -> u64 {
        let b = self.batch as u64;
        match opt {
            // "(2L_G + 2L_D + 1)B cycles."
            ReganOpt::NoPipeline => self.phase3_latency() * b,
            // "it takes 2L_G + 2L_D + B + 1 cycles to train G."
            _ => (self.phase3_latency() + b - 1) + 1,
        }
    }

    /// Cycles for one full iteration (one D update + one G update).
    ///
    /// With CS, phases ② and ③ share the forward path and fork into
    /// parallel backward branches (Fig. 9): D's update completes inside
    /// ③'s window, so the iteration is ③'s pipelined length (① stays
    /// hidden under SP).
    ///
    /// Note that at `B == 1` the plain pipeline can exceed the no-pipeline
    /// count: there is nothing to overlap, and the paper's pipelined
    /// formulas pay their explicit weight-update cycles while the
    /// no-pipeline formulas fold updates into the per-input latencies. SP
    /// and CS still help at `B == 1` — they exploit hardware duplication
    /// and path sharing, not batch overlap.
    pub fn iteration_cycles(&self, opt: ReganOpt) -> u64 {
        match opt {
            ReganOpt::PipelineSpCs => self.g_training_cycles(opt),
            _ => self.d_training_cycles(opt) + self.g_training_cycles(opt),
        }
    }

    /// Cycles to run `batches` training iterations.
    pub fn total_cycles(&self, batches: u64, opt: ReganOpt) -> u64 {
        batches * self.iteration_cycles(opt)
    }

    /// Iteration speedup of `opt` relative to `base`.
    pub fn speedup(&self, base: ReganOpt, opt: ReganOpt) -> f64 {
        self.iteration_cycles(base) as f64 / self.iteration_cycles(opt) as f64
    }

    /// Physical discriminator copies required (SP duplicates D).
    pub fn discriminator_copies(&self, opt: ReganOpt) -> usize {
        match opt {
            ReganOpt::PipelineSp | ReganOpt::PipelineSpCs => 2,
            _ => 1,
        }
    }

    /// Multiplier on intermediate-result storage (CS doubles it).
    pub fn buffer_multiplier(&self, opt: ReganOpt) -> usize {
        match opt {
            ReganOpt::PipelineSpCs => 2,
            _ => 1,
        }
    }

    /// Checks whether running phases ① and ② *concurrently on a single
    /// discriminator* would double-book any D stage — the structural hazard
    /// that motivates SP's duplication of D ("we proposed to duplicate D
    /// into two copies", §III-B.3).
    ///
    /// Both phases stream `B` inputs one per cycle through D's forward and
    /// backward stages; phase ② reaches each D stage `L_G` cycles later
    /// than phase ① (its inputs first traverse G). The phases collide
    /// whenever their occupancy windows of any stage overlap, which happens
    /// for every `B > L_G` — i.e. for every realistic batch size.
    pub fn concurrent_phase12_conflicts(&self) -> bool {
        let b = self.batch as u64;
        let lg = self.l_g as u64;
        // Phase ① occupies D stage s during cycles [s+1, s+B]; phase ②
        // during [s+L_G+1, s+L_G+B]. Overlap iff L_G < B.
        let mut conflict = false;
        for s in 0..(2 * self.l_d as u64 + 1) {
            let p1 = (s + 1, s + b);
            let p2 = (s + lg + 1, s + lg + b);
            if p1.0 <= p2.1 && p2.0 <= p1.1 {
                conflict = true;
            }
        }
        conflict
    }

    /// Event-driven schedule simulation of one iteration, returning total
    /// cycles. Independent of the closed forms: phases are scheduled by
    /// entry gaps and dependencies, and completion times are taken from the
    /// last event.
    pub fn simulate_iteration(&self, opt: ReganOpt) -> u64 {
        let b = self.batch as u64;
        let p1 = self.phase1_latency();
        let p2 = self.phase2_latency();
        let p3 = self.phase3_latency();

        // phase_end(start, per_input_latency, gap): completion cycle of the
        // last input when inputs enter `gap` cycles apart from `start`.
        let phase_end = |start: u64, p: u64, gap: u64| start + (b - 1) * gap + p - 1;

        match opt {
            ReganOpt::NoPipeline => {
                // Inputs strictly sequential (gap = latency), phases chained.
                let e1 = phase_end(1, p1, p1);
                let e2 = phase_end(e1 + 1, p2, p2);
                // Weight update folded into the per-input counts per the
                // paper's formula.
                let d_done = e2;

                phase_end(d_done + 1, p3, p3)
            }
            ReganOpt::Pipeline => {
                let e1 = phase_end(1, p1, 1);
                let e2 = phase_end(e1 + 1, p2, 1);
                let d_update = e2 + 1;
                let e3 = phase_end(d_update + 1, p3, 1);
                e3 + 1
            }
            ReganOpt::PipelineSp => {
                // ① and ② start together on the two D copies.
                let e1 = phase_end(1, p1, 1);
                let e2 = phase_end(1, p2, 1);
                let d_update = e1.max(e2) + 1;
                let e3 = phase_end(d_update + 1, p3, 1);
                e3 + 1
            }
            ReganOpt::PipelineSpCs => {
                // ① in parallel on the D copy; ②/③ share the forward path
                // and fork into parallel backward branches.
                let e1 = phase_end(1, p1, 1);
                let e2_branch = phase_end(1, p2, 1);
                let e3_branch = phase_end(1, p3, 1);
                let d_update = e1.max(e2_branch) + 1;
                let g_update = e3_branch + 1;
                d_update.max(g_update)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ReganPipeline {
        ReganPipeline::new(4, 4, 32)
    }

    #[test]
    fn paper_formula_d_training_pipelined() {
        // "training D on real samples takes 2L_D + 1 + B − 1 cycles … then
        // L_G + 2L_D + 1 + B − 1 cycles … finally one cycle to update D."
        let (l_d, l_g, b) = (4u64, 4u64, 32u64);
        let want = (2 * l_d + 1 + b - 1) + (l_g + 2 * l_d + 1 + b - 1) + 1;
        assert_eq!(p().d_training_cycles(ReganOpt::Pipeline), want);
    }

    #[test]
    fn paper_formula_g_training_pipelined() {
        // "it takes 2L_G + 2L_D + B + 1 cycles to train G."
        let (l_d, l_g, b) = (4u64, 4u64, 32u64);
        assert_eq!(
            p().g_training_cycles(ReganOpt::Pipeline),
            2 * l_g + 2 * l_d + b + 1
        );
    }

    #[test]
    fn paper_formula_no_pipeline() {
        // "the D and G training processes for a batch of data consume
        // (4L_D + L_G + 2)B cycles and (2L_G + 2L_D + 1)B cycles."
        let (l_d, l_g, b) = (4u64, 4u64, 32u64);
        assert_eq!(
            p().d_training_cycles(ReganOpt::NoPipeline),
            (4 * l_d + l_g + 2) * b
        );
        assert_eq!(
            p().g_training_cycles(ReganOpt::NoPipeline),
            (2 * l_g + 2 * l_d + 1) * b
        );
    }

    #[test]
    fn sp_hides_phase_one() {
        // "The latency of ① is hidden so the effective latency is reduced
        // to the one of ②."
        let (l_d, l_g, b) = (4u64, 4u64, 32u64);
        assert_eq!(
            p().d_training_cycles(ReganOpt::PipelineSp),
            (l_g + 2 * l_d + 1 + b - 1) + 1
        );
    }

    #[test]
    fn optimizations_strictly_improve() {
        let p = p();
        let cycles: Vec<u64> = ReganOpt::ALL
            .iter()
            .map(|&o| p.iteration_cycles(o))
            .collect();
        for w in cycles.windows(2) {
            assert!(w[0] > w[1], "optimization did not help: {cycles:?}");
        }
    }

    #[test]
    fn simulation_matches_formulas() {
        for l_d in [2usize, 4, 8] {
            for l_g in [2usize, 4, 6] {
                for b in [1usize, 8, 32, 128] {
                    let p = ReganPipeline::new(l_d, l_g, b);
                    for opt in ReganOpt::ALL {
                        assert_eq!(
                            p.simulate_iteration(opt),
                            p.iteration_cycles(opt),
                            "L_D={l_d} L_G={l_g} B={b} {}",
                            opt.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pipeline_speedup_grows_with_batch() {
        let mut prev = 0.0;
        for b in [1usize, 8, 32, 128, 512] {
            let p = ReganPipeline::new(4, 4, b);
            let s = p.speedup(ReganOpt::NoPipeline, ReganOpt::Pipeline);
            assert!(s >= prev);
            prev = s;
        }
        assert!(prev > 10.0, "large-batch pipeline speedup {prev}");
    }

    #[test]
    fn sp_requires_second_discriminator() {
        let p = p();
        assert_eq!(p.discriminator_copies(ReganOpt::Pipeline), 1);
        assert_eq!(p.discriminator_copies(ReganOpt::PipelineSp), 2);
        assert_eq!(p.buffer_multiplier(ReganOpt::PipelineSp), 1);
        assert_eq!(p.buffer_multiplier(ReganOpt::PipelineSpCs), 2);
    }

    #[test]
    fn cs_iteration_is_phase3_bound() {
        let p = p();
        assert_eq!(
            p.iteration_cycles(ReganOpt::PipelineSpCs),
            p.g_training_cycles(ReganOpt::PipelineSpCs)
        );
    }

    #[test]
    fn single_discriminator_cannot_run_phases_concurrently() {
        // For every realistic batch (B > L_G) the two D-training dataflows
        // collide on a single D copy — the hazard SP removes.
        assert!(ReganPipeline::new(4, 4, 32).concurrent_phase12_conflicts());
        assert!(ReganPipeline::new(8, 2, 64).concurrent_phase12_conflicts());
        // Degenerate case: a batch no larger than L_G drains phase ① from
        // each stage before phase ② arrives.
        assert!(!ReganPipeline::new(4, 8, 8).concurrent_phase12_conflicts());
    }

    #[test]
    fn total_cycles_scales_linearly() {
        let p = p();
        assert_eq!(
            p.total_cycles(10, ReganOpt::Pipeline),
            10 * p.iteration_cycles(ReganOpt::Pipeline)
        );
    }

    #[test]
    #[should_panic(expected = "zero pipeline parameter")]
    fn rejects_zero_depth() {
        let _ = ReganPipeline::new(0, 4, 32);
    }
}
