//! Bridge between the machine crate's synchronous simulator and the
//! modal µ-fragment (satellite 4 of ISSUE 10, after Reiter's
//! characterization: fixpoints are the logic of machine runs).
//!
//! Each seeded protocol run induces a **run graph**: one world per
//! space-time configuration `(v, t)` for `t = 0..=T`, with an edge
//! `(v, t) → (u, t + 1)` whenever `u` is `v` or one of its neighbours
//! (the information-flow cone of the synchronous schedule). The *goal*
//! worlds are the stopping events — `(v, t)` with `stop_time(v) = t` —
//! marked through the valuation (`q1` at goals, `q0` elsewhere).
//!
//! Reachability `µX. q1 ∨ ⟨*,*⟩X` over that model must agree, world
//! for world, with a brute-force reverse BFS from the goal set — for
//! every protocol, through the parser, the Kleene reference, the
//! compiled plan (all diamond modes), and the caching checker.

use portnum_graph::{generators, Graph, PortNumbering};
use portnum_logic::plan::{DiamondMode, ModelChecker, Plan};
use portnum_logic::{
    evaluate_packed_recursive, parse, Kripke, KripkeBuilder, ModalIndex, ModelVariant,
};
use portnum_machine::{Payload, Simulator, Status, VectorAlgorithm};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// Three protocols with distinct stopping profiles
// ---------------------------------------------------------------------

/// Stops after exactly `degree` rounds (isolated nodes at time 0).
#[derive(Debug)]
struct CountdownFromDegree;

impl VectorAlgorithm for CountdownFromDegree {
    type State = usize;
    type Msg = ();
    type Output = usize;

    fn init(&self, degree: usize) -> Status<usize, usize> {
        if degree == 0 {
            Status::Stopped(0)
        } else {
            Status::Running(degree)
        }
    }

    fn message(&self, _state: &usize, _port: usize) {}

    fn step(&self, state: &usize, _received: &[Payload<()>]) -> Status<usize, usize> {
        if *state == 1 {
            Status::Stopped(0)
        } else {
            Status::Running(state - 1)
        }
    }
}

/// A wave from the leaves: nodes of degree ≤ 1 stop at time 0, every
/// other node stops one round after first hearing silence, and a round
/// cap catches leafless cores (cycles never hear silence).
#[derive(Debug)]
struct SilenceWave {
    cap: usize,
}

impl VectorAlgorithm for SilenceWave {
    type State = usize; // rounds elapsed
    type Msg = ();
    type Output = usize;

    fn init(&self, degree: usize) -> Status<usize, usize> {
        if degree <= 1 {
            Status::Stopped(0)
        } else {
            Status::Running(0)
        }
    }

    fn message(&self, _state: &usize, _port: usize) {}

    fn step(&self, state: &usize, received: &[Payload<()>]) -> Status<usize, usize> {
        let round = state + 1;
        if received.iter().any(Payload::is_silent) || round >= self.cap {
            Status::Stopped(round)
        } else {
            Status::Running(round)
        }
    }
}

/// Stops once `round ≥ degree`, reporting the silence it heard (the
/// staggered profile from the simulator's own suite).
#[derive(Debug)]
struct StopAtDegree;

impl VectorAlgorithm for StopAtDegree {
    type State = (usize, usize, usize); // (round, degree, silent heard)
    type Msg = u8;
    type Output = usize;

    fn init(&self, degree: usize) -> Status<(usize, usize, usize), usize> {
        if degree == 0 {
            Status::Stopped(0)
        } else {
            Status::Running((0, degree, 0))
        }
    }

    fn message(&self, _state: &(usize, usize, usize), _port: usize) -> u8 {
        0
    }

    fn step(
        &self,
        &(round, degree, silent): &(usize, usize, usize),
        received: &[Payload<u8>],
    ) -> Status<(usize, usize, usize), usize> {
        let silent = silent + received.iter().filter(|p| p.is_silent()).count();
        let round = round + 1;
        if round >= degree {
            Status::Stopped(silent)
        } else {
            Status::Running((round, degree, silent))
        }
    }
}

// ---------------------------------------------------------------------
// Run graph construction and the brute-force side
// ---------------------------------------------------------------------

/// The space-time run graph of an execution with stopping time `t_max`:
/// world `(v, t)` is id `t·n + v`, goal worlds carry valuation 1.
struct RunGraph {
    worlds: usize,
    edges: Vec<(u32, u32)>,
    goal: Vec<bool>,
}

fn run_graph(g: &Graph, stop_times: &[usize], t_max: usize) -> RunGraph {
    let n = g.len();
    let worlds = n * (t_max + 1);
    let mut edges = Vec::new();
    for t in 0..t_max {
        for v in g.nodes() {
            let from = (t * n + v) as u32;
            edges.push((from, ((t + 1) * n + v) as u32));
            for &u in g.neighbors(v) {
                edges.push((from, ((t + 1) * n + u) as u32));
            }
        }
    }
    let mut goal = vec![false; worlds];
    for (v, &st) in stop_times.iter().enumerate() {
        goal[st * n + v] = true;
    }
    RunGraph { worlds, edges, goal }
}

fn to_kripke(rg: &RunGraph) -> Kripke {
    KripkeBuilder::new(ModelVariant::MinusMinus, rg.worlds)
        .relation(ModalIndex::Any, || rg.edges.iter().copied())
        .degrees(rg.goal.iter().map(|&is_goal| usize::from(is_goal)).collect())
        .build()
        .expect("run graphs are well-formed")
}

/// Brute force: `can_reach[w]` ⟺ some goal world is reachable from `w`
/// (including `w` itself) — a reverse BFS from the goal set.
fn bfs_reaches_goal(rg: &RunGraph) -> Vec<bool> {
    let mut preds = vec![Vec::new(); rg.worlds];
    for &(from, to) in &rg.edges {
        preds[to as usize].push(from as usize);
    }
    let mut reach = rg.goal.clone();
    let mut queue: Vec<usize> = (0..rg.worlds).filter(|&w| reach[w]).collect();
    while let Some(w) = queue.pop() {
        for &p in &preds[w] {
            if !reach[p] {
                reach[p] = true;
                queue.push(p);
            }
        }
    }
    reach
}

fn check_protocol<A>(algo: &A, g: &Graph, seed: u64)
where
    A: VectorAlgorithm + std::fmt::Debug,
    A::Msg: portnum_machine::MessageSize,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let p = PortNumbering::random(g, &mut rng);
    let run = Simulator::new().run(algo, g, &p).expect("protocols terminate");
    let rg = run_graph(g, run.stop_times(), run.rounds());
    let expected = bfs_reaches_goal(&rg);

    let k = to_kripke(&rg);
    let f = parse("mu X . q1 | <*,*> X").expect("reachability parses");

    // The Kleene reference, the compiled plan under every diamond
    // dispatch mode, and the caching checker must all equal the BFS.
    let label = format!("{algo:?} on {g} (seed {seed})");
    let reference = evaluate_packed_recursive(&k, &f).expect("closed formula");
    assert_eq!(reference.to_bools(), expected, "Kleene reference vs BFS: {label}");
    let plan = Plan::compile(&k, &f).expect("compiles");
    for mode in [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Csc] {
        let (mut out, _) = plan.execute_with(&k, mode);
        assert_eq!(out.pop().unwrap().to_bools(), expected, "plan {mode:?} vs BFS: {label}");
    }
    let mut checker = ModelChecker::new(&k);
    assert_eq!(checker.check(&f).expect("checks").to_bools(), expected, "checker vs BFS: {label}");
}

// ---------------------------------------------------------------------
// The matrix: ≥3 seeded protocols, several graph shapes each
// ---------------------------------------------------------------------

#[test]
fn reachability_on_run_graphs_agrees_with_bfs() {
    let mut rng = StdRng::seed_from_u64(0xB21D6E);
    let shapes: Vec<Graph> = vec![
        generators::gnp(24, 0.12, &mut rng),
        generators::random_tree(30, &mut rng),
        generators::random_regular(20, 3, &mut rng),
        generators::grid(4, 5),
    ];
    for (i, g) in shapes.iter().enumerate() {
        let seed = 0x5EED + i as u64;
        check_protocol(&CountdownFromDegree, g, seed);
        check_protocol(&SilenceWave { cap: 6 }, g, seed);
        check_protocol(&StopAtDegree, g, seed);
    }
}

/// The goal layer is genuinely non-trivial on at least one instance:
/// some worlds can reach a stopping event and some cannot (final-layer
/// worlds of already-stopped nodes have no successors and no goal), so
/// the test above is not vacuously comparing all-true vectors.
#[test]
fn run_graph_reachability_is_not_vacuous() {
    let g = generators::star(4);
    let p = PortNumbering::consistent(&g);
    let run = Simulator::new().run(&StopAtDegree, &g, &p).expect("terminates");
    let rg = run_graph(&g, run.stop_times(), run.rounds());
    let reach = bfs_reaches_goal(&rg);
    assert!(reach.iter().any(|&b| b), "some world reaches a goal");
    assert!(!reach.iter().all(|&b| b), "some world must miss every goal");
    let k = to_kripke(&rg);
    let f = parse("mu X . q1 | <*,*> X").expect("parses");
    assert_eq!(evaluate_packed_recursive(&k, &f).expect("closed").to_bools(), reach);
}
