//! Regenerates the paper's fig6 data. See EXPERIMENTS.md.

use ft_bench::experiments::fig6;

fn main() {
    ft_bench::experiment_main("fig6", fig6::run, fig6::print);
}
