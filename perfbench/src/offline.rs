//! The paper pipeline with no server. One pass:
//!
//! 1. stream-builds a sparse `G(n, p)` `K₋,₋` model with `KripkeBuilder`;
//! 2. refines it to graded bisimilarity (`refine_fixpoint_stats`) and
//!    takes its minimum base;
//! 3. checks an ungraded suite directly (`Plan::execute_with`) and via
//!    the quotient, whose answers must agree (Prop. 4);
//! 4. runs the `MB` algorithm `compile_mb` makes of one suite formula on
//!    a port-numbered 3-regular graph, whose outputs must equal the
//!    formula's truth there (Theorem 2).

use crate::gen::{random_formula, sub_seed, Family, Scale};
use crate::trace::Tracer;
use portnum_graph::{generators, Graph, PortNumbering};
use portnum_logic::bisim::{refine_fixpoint_stats, BisimStyle};
use portnum_logic::compile::{compile_mb, MbFormulaAlgorithm};
use portnum_logic::plan::ExecStats;
use portnum_logic::{evaluate, Formula, Kripke, KripkeBuilder, ModalIndex, ModelChecker};
use portnum_logic::{DiamondMode, ModelVariant, Plan};
use portnum_machine::adapters::MbAsVector;
use portnum_machine::Simulator;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Average degree of the pass models.
const AVG_DEGREE: f64 = 3.0;

/// The fixed inputs every pass shares.
pub struct Offline {
    seed: u64,
    n: usize,
    suite: Vec<Formula>,
    graph: Graph,
    ports: PortNumbering,
    /// Per suite formula: its compiled algorithm and its truth on `graph`.
    compiled: Vec<(MbFormulaAlgorithm, Vec<bool>)>,
}

/// What one pass measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    /// The check that failed, if any: `"quotient"` when quotient answers
    /// differ from direct ones, `"simulator"` when simulator outputs
    /// differ from the formula's truth.
    pub failed_check: Option<&'static str>,
    pub worlds: usize,
    pub rounds: usize,
    pub encoded: usize,
    pub base_worlds: usize,
    pub exec: ExecStats,
    pub sim_rounds: usize,
    pub sim_max_units: u64,
}

impl Offline {
    /// Generates the suite and the simulator instance, and compiles.
    pub fn setup(seed: u64, scale: Scale) -> Offline {
        let sizes = scale.sizes();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
        let suite: Vec<Formula> = (0..8)
            .map(|_| random_formula(&mut rng, 4, 4, Family::Any, false))
            .collect();
        let graph = generators::random_regular(sizes.offline_sim, 3, &mut rng);
        let ports = PortNumbering::random(&graph, &mut rng);
        let model = Kripke::k_mm(&graph);
        let compiled = suite
            .iter()
            .map(|f| {
                let algo = compile_mb(f).expect("suite formulas use (*,*) only");
                (algo, evaluate(&model, f).expect("suite formulas fit K-,-"))
            })
            .collect();
        Offline {
            seed,
            n: sizes.offline_gnp,
            suite,
            graph,
            ports,
            compiled,
        }
    }

    /// Runs pass `i` (its model is seeded by `(seed, i)`).
    pub fn pass(&self, i: u64, t: &mut Tracer) -> PassStats {
        t.next_request();
        let root = t.open("pass");
        let (n, p, seed) = (
            self.n,
            AVG_DEGREE / self.n as f64,
            sub_seed(self.seed, 1000 + i),
        );
        let model = t.time("kripke.build", || {
            KripkeBuilder::new(ModelVariant::MinusMinus, n)
                .relation(ModalIndex::Any, move || generators::gnp_edges(n, p, seed))
                .degrees_from_streams()
                .build()
                .expect("gnp stream stays in range")
        });
        let (_, refine) = t.time("bisim.refine", || {
            refine_fixpoint_stats(&model, BisimStyle::Graded)
        });
        let mut checker = ModelChecker::new(&model);
        let base = t.time("quotient.minimum_base", || checker.minimum_base());
        let (direct, exec) = t.time("plan.execute", || {
            Plan::compile_suite(&model, &self.suite)
                .expect("suite formulas fit K-,-")
                .execute_with(&model, DiamondMode::Auto)
        });
        let via_quotient = t.time("quotient.check", || {
            self.suite
                .iter()
                .map(|f| checker.check_via_quotient(f))
                .collect::<Result<Vec<_>, _>>()
        });
        let quotient_agrees = via_quotient.is_ok_and(|q| q == direct);
        let (algo, truth) = &self.compiled[i as usize % self.compiled.len()];
        let run = t.time("simulator.run", || {
            Simulator::new().run(&MbAsVector(algo.clone()), &self.graph, &self.ports)
        });
        t.close(root);
        let (sim_agrees, sim_rounds, sim_max_units) = match &run {
            Ok(run) => (
                run.outputs() == truth.as_slice(),
                run.rounds(),
                run.max_message_units(),
            ),
            Err(_) => (false, 0, 0),
        };
        let failed_check = if !quotient_agrees {
            Some("quotient")
        } else if !sim_agrees {
            Some("simulator")
        } else {
            None
        };
        PassStats {
            failed_check,
            worlds: model.len(),
            rounds: refine.rounds,
            encoded: refine.encoded,
            base_worlds: base.0.len(),
            exec,
            sim_rounds,
            sim_max_units,
        }
    }
}
