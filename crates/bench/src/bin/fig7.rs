//! Regenerates the paper's fig7 data. See EXPERIMENTS.md.

use ft_bench::experiments::fig7;

fn main() {
    ft_bench::experiment_main("fig7", fig7::run, fig7::print);
}
