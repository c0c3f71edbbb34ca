//! Extension experiment: decomposed production-scale simulation.
//! See EXPERIMENTS.md.

use ft_bench::experiments::bigsim;

fn main() {
    ft_bench::experiment_main("bigsim", bigsim::run, bigsim::print);
}
