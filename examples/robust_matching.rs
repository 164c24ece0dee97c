//! Task assignment on an unreliable accelerator: maximum-weight bipartite
//! matching.
//!
//! Five workers, six tasks, affinity-weighted edges. The Hungarian
//! baseline computes potentials through the faulty FPU and silently picks
//! suboptimal assignments once faults bite; the robustified LP version
//! holds on much longer, and its decode step verifies the output against
//! the graph structure.
//!
//! ```sh
//! cargo run --release --example robust_matching
//! ```

use robustify::apps::matching::MatchingProblem;
use robustify::core::{AggressiveStepping, Annealing, RobustProblem, SolverSpec, StepSchedule};
use robustify::fpu::{BitFaultModel, FaultRate, NoisyFpu};
use robustify::graph::BipartiteGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Workers 0..5, tasks 0..6, weight = affinity score.
    let graph = BipartiteGraph::new(
        5,
        6,
        vec![
            (0, 0, 9.0),
            (0, 2, 4.0),
            (1, 1, 7.5),
            (1, 3, 6.0),
            (2, 2, 8.0),
            (2, 4, 3.0),
            (3, 3, 7.0),
            (3, 5, 5.5),
            (4, 4, 9.5),
            (4, 0, 2.0),
            (0, 5, 3.5),
            (2, 1, 2.5),
        ],
    )?;
    let problem = MatchingProblem::new(graph);
    println!("optimal assignment weight: {:.1}", problem.optimal_weight());

    for rate_pct in [1.0, 5.0, 10.0] {
        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate_pct),
            BitFaultModel::emulated(),
            3,
        );
        let baseline = match problem.solve(&SolverSpec::baseline(), &mut fpu)?.solution {
            Some(m) => format!(
                "weight {:.1} (optimal: {})",
                m.weight(),
                problem.is_success(&m)
            ),
            None => "broke down".to_string(),
        };

        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate_pct),
            BitFaultModel::emulated(),
            3,
        );
        let sgd = SolverSpec::sgd(10_000, StepSchedule::Sqrt { gamma0: 0.05 })
            .with_annealing(Annealing::default())
            .with_aggressive_stepping(AggressiveStepping::default());
        let out = problem.solve(&sgd, &mut fpu)?;
        let matching = out.solution.expect("sgd decodes");
        let report = out.report.expect("sgd reports");

        println!("\nfault rate {rate_pct}%:");
        println!("  hungarian baseline : {baseline}");
        println!(
            "  robust LP + SGD    : weight {:.1} (optimal: {}), pairs {:?}, {} faults seen",
            matching.weight(),
            problem.is_success(&matching),
            matching.pairs(),
            report.faults,
        );
    }
    Ok(())
}
