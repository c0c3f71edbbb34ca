//! Extension experiment: resilience. See EXPERIMENTS.md.

use ft_bench::experiments::resilience;

fn main() {
    ft_bench::experiment_main("resilience", resilience::run, resilience::print);
}
